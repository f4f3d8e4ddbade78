//! Compact CSR hypergraph storage.
//!
//! Vertices carry integer weights (gate counts); hyperedges carry integer
//! weights (1 for plain nets, >1 for contracted parallel nets during
//! multilevel coarsening). Both incidence directions are stored: edge → pins
//! and vertex → incident edges, each as a CSR array, so iteration is
//! allocation-free and cache-friendly — this is the hot data structure of
//! every partitioning pass.

use std::fmt;

/// Index of a vertex in a [`Hypergraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

/// Index of a hyperedge in a [`Hypergraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl VertexId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl EdgeId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}
impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Immutable CSR hypergraph. Build with [`HypergraphBuilder`].
#[derive(Debug, Clone)]
pub struct Hypergraph {
    vweights: Vec<u64>,
    eweights: Vec<u32>,
    // Edge -> pins.
    epin_offsets: Vec<u32>,
    epins: Vec<u32>,
    // Vertex -> incident edges.
    vedge_offsets: Vec<u32>,
    vedges: Vec<u32>,
    total_vweight: u64,
}

impl Hypergraph {
    pub fn vertex_count(&self) -> usize {
        self.vweights.len()
    }

    pub fn edge_count(&self) -> usize {
        self.eweights.len()
    }

    pub fn pin_count(&self) -> usize {
        self.epins.len()
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vweight(&self, v: VertexId) -> u64 {
        self.vweights[v.idx()]
    }

    /// Weight of hyperedge `e`.
    #[inline]
    pub fn eweight(&self, e: EdgeId) -> u32 {
        self.eweights[e.idx()]
    }

    /// Sum of all vertex weights.
    #[inline]
    pub fn total_vweight(&self) -> u64 {
        self.total_vweight
    }

    /// Pins (vertices) of hyperedge `e`.
    #[inline]
    pub fn pins(&self, e: EdgeId) -> impl Iterator<Item = VertexId> + '_ {
        let lo = self.epin_offsets[e.idx()] as usize;
        let hi = self.epin_offsets[e.idx() + 1] as usize;
        self.epins[lo..hi].iter().map(|&p| VertexId(p))
    }

    /// Number of pins of hyperedge `e`.
    #[inline]
    pub fn pin_degree(&self, e: EdgeId) -> usize {
        (self.epin_offsets[e.idx() + 1] - self.epin_offsets[e.idx()]) as usize
    }

    /// Hyperedges incident to vertex `v`.
    #[inline]
    pub fn edges_of(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        let lo = self.vedge_offsets[v.idx()] as usize;
        let hi = self.vedge_offsets[v.idx() + 1] as usize;
        self.vedges[lo..hi].iter().map(|&e| EdgeId(e))
    }

    /// Number of hyperedges incident to `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.vedge_offsets[v.idx() + 1] - self.vedge_offsets[v.idx()]) as usize
    }

    /// Maximum single-vertex weighted degree: an upper bound on any FM gain.
    pub fn max_gain_bound(&self) -> i64 {
        (0..self.vertex_count())
            .map(|v| {
                self.edges_of(VertexId(v as u32))
                    .map(|e| self.eweight(e) as i64)
                    .sum::<i64>()
            })
            .max()
            .unwrap_or(0)
    }

    /// All vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.vweights.len() as u32).map(VertexId)
    }

    /// All edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.eweights.len() as u32).map(EdgeId)
    }
}

/// Incremental builder. Pins of an edge are deduplicated; edges with fewer
/// than two distinct pins are dropped (they can never be cut), with the drop
/// count retained for diagnostics.
#[derive(Debug, Default)]
pub struct HypergraphBuilder {
    vweights: Vec<u64>,
    edges: Vec<(Vec<u32>, u32)>,
    dropped_edges: usize,
}

impl HypergraphBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocate for an expected size.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        HypergraphBuilder {
            vweights: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            dropped_edges: 0,
        }
    }

    /// Add a vertex with `weight`, returning its id.
    pub fn add_vertex(&mut self, weight: u64) -> VertexId {
        let id = VertexId(self.vweights.len() as u32);
        self.vweights.push(weight);
        id
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.vweights.len()
    }

    /// Add a hyperedge over `pins` with `weight`. Duplicate pins are merged;
    /// edges with <2 distinct pins are dropped (see [`Self::dropped_edges`]).
    /// Returns `true` if the edge was kept.
    pub fn add_edge(&mut self, pins: impl IntoIterator<Item = VertexId>, weight: u32) -> bool {
        let mut ps: Vec<u32> = pins.into_iter().map(|p| p.0).collect();
        ps.sort_unstable();
        ps.dedup();
        debug_assert!(ps.iter().all(|&p| (p as usize) < self.vweights.len()));
        if ps.len() < 2 {
            self.dropped_edges += 1;
            return false;
        }
        self.edges.push((ps, weight));
        true
    }

    /// Edges dropped for having fewer than two distinct pins.
    pub fn dropped_edges(&self) -> usize {
        self.dropped_edges
    }

    /// Finalize into CSR form.
    pub fn build(self) -> Hypergraph {
        let nv = self.vweights.len();
        let ne = self.edges.len();
        let total_pins: usize = self.edges.iter().map(|(p, _)| p.len()).sum();

        let mut epin_offsets = Vec::with_capacity(ne + 1);
        let mut epins = Vec::with_capacity(total_pins);
        let mut eweights = Vec::with_capacity(ne);
        epin_offsets.push(0u32);
        for (pins, w) in &self.edges {
            epins.extend_from_slice(pins);
            epin_offsets.push(epins.len() as u32);
            eweights.push(*w);
        }

        // Vertex incidence via counting sort.
        let mut counts = vec![0u32; nv];
        for &p in &epins {
            counts[p as usize] += 1;
        }
        let mut vedge_offsets = Vec::with_capacity(nv + 1);
        vedge_offsets.push(0u32);
        let mut acc = 0u32;
        for &c in &counts {
            acc += c;
            vedge_offsets.push(acc);
        }
        let mut vedges = vec![0u32; total_pins];
        let mut cursor = vedge_offsets.clone();
        for (ei, (pins, _)) in self.edges.iter().enumerate() {
            for &p in pins {
                vedges[cursor[p as usize] as usize] = ei as u32;
                cursor[p as usize] += 1;
            }
        }

        let total_vweight = self.vweights.iter().sum();
        Hypergraph {
            vweights: self.vweights,
            eweights,
            epin_offsets,
            epins,
            vedge_offsets,
            vedges,
            total_vweight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 vertices, 3 edges: e0={0,1}, e1={1,2,3}, e2={0,3}.
    pub(crate) fn diamond() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<VertexId> = (0..4).map(|i| b.add_vertex(i as u64 + 1)).collect();
        b.add_edge([v[0], v[1]], 1);
        b.add_edge([v[1], v[2], v[3]], 2);
        b.add_edge([v[0], v[3]], 1);
        b.build()
    }

    #[test]
    fn basic_shape() {
        let h = diamond();
        assert_eq!(h.vertex_count(), 4);
        assert_eq!(h.edge_count(), 3);
        assert_eq!(h.pin_count(), 7);
        assert_eq!(h.total_vweight(), 10);
        assert_eq!(h.vweight(VertexId(2)), 3);
        assert_eq!(h.eweight(EdgeId(1)), 2);
    }

    #[test]
    fn incidence_is_bidirectional() {
        let h = diamond();
        let pins: Vec<_> = h.pins(EdgeId(1)).collect();
        assert_eq!(pins, vec![VertexId(1), VertexId(2), VertexId(3)]);
        let edges: Vec<_> = h.edges_of(VertexId(3)).collect();
        assert_eq!(edges, vec![EdgeId(1), EdgeId(2)]);
        assert_eq!(h.degree(VertexId(0)), 2);
        assert_eq!(h.pin_degree(EdgeId(1)), 3);
    }

    #[test]
    fn duplicate_pins_are_merged() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_vertex(1);
        let c = b.add_vertex(1);
        b.add_edge([a, c, a, c, a], 1);
        let h = b.build();
        assert_eq!(h.pin_degree(EdgeId(0)), 2);
    }

    #[test]
    fn tiny_edges_are_dropped() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_vertex(1);
        let c = b.add_vertex(1);
        b.add_edge([a], 1);
        b.add_edge([a, a, a], 1);
        b.add_edge(std::iter::empty(), 1);
        b.add_edge([a, c], 1);
        assert_eq!(b.dropped_edges(), 3);
        let h = b.build();
        assert_eq!(h.edge_count(), 1);
    }

    #[test]
    fn degree_and_gain_bounds() {
        let h = diamond();
        // Vertex 3 touches e1 (w=2) and e2 (w=1).
        assert_eq!(h.max_gain_bound(), 3);
    }

    #[test]
    fn empty_graph() {
        let h = HypergraphBuilder::new().build();
        assert_eq!(h.vertex_count(), 0);
        assert_eq!(h.edge_count(), 0);
        assert_eq!(h.max_gain_bound(), 0);
        assert_eq!(h.total_vweight(), 0);
    }
}
