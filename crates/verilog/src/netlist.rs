//! Flat gate-level netlist with a retained design-hierarchy tree.
//!
//! Elaboration bit-blasts every vector net and expands every module instance,
//! producing one [`Gate`] per primitive and one [`Net`] per signal bit. The
//! module/instance structure is *not* thrown away: every gate records the
//! [`Instance`] that owns it, and the instance tree is kept in
//! [`Netlist::instances`]. This is exactly the information the design-driven
//! partitioner of Li & Tropper exploits, and exactly what flat-netlist
//! partitioners (the hMetis baseline) ignore.
//!
//! The netlist is compact, since the paper's decoder has 1.1 M of each: a
//! gate is 12 bytes and a net 8. Gate inputs sit in one flat array with an
//! offset per gate ([`Netlist::inputs`]), and the few declared delays in a
//! side list ([`Netlist::delay`]). A net's name is not stored but derived on
//! demand ([`Netlist::net_name`]) from one record per declared signal of
//! each instance: its first net, the instance, the signal name (each
//! module's signal names are kept once) and the declared range.

use crate::ast::Range;
use std::fmt;

/// Index of a net (one signal bit) in [`Netlist::nets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Index of a gate in [`Netlist::gates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub u32);

/// Index of an instance-tree node in [`Netlist::instances`]. `InstId(0)` is
/// always the top module itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl NetId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl GateId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl InstId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
    /// The root (top-module) instance.
    pub const ROOT: InstId = InstId(0);
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}
impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Primitive gate kinds after elaboration.
///
/// `buf`/`not` statements with multiple outputs are expanded into one gate per
/// output. `Const0`/`Const1` drive constant nets arising from literal port
/// connections and `supply0`/`supply1` declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Xnor,
    Buf,
    Not,
    /// Positive-edge D flip-flop; inputs `[clk, d]`.
    Dff,
    /// Positive-edge D flip-flop with asynchronous active-high reset;
    /// inputs `[clk, rst, d]`.
    Dffr,
    /// Transparent latch; inputs `[en, d]`.
    Latch,
    Const0,
    Const1,
}

impl GateKind {
    /// Every primitive kind, in declaration order. Lets consumers map a
    /// [`GateKind::name`] string back to the kind (e.g. when reading a
    /// serialized design-statistics artifact).
    pub const ALL: [GateKind; 13] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Buf,
        GateKind::Not,
        GateKind::Dff,
        GateKind::Dffr,
        GateKind::Latch,
        GateKind::Const0,
        GateKind::Const1,
    ];

    /// The kind whose [`GateKind::name`] equals `name`, if any.
    pub fn from_name(name: &str) -> Option<GateKind> {
        GateKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// True for state-holding elements (the paper's "invisible nodes with
    /// memory", which must checkpoint state even inside a module cluster).
    pub fn is_sequential(self) -> bool {
        matches!(self, GateKind::Dff | GateKind::Dffr | GateKind::Latch)
    }

    /// True for constant drivers (no inputs).
    pub fn is_const(self) -> bool {
        matches!(self, GateKind::Const0 | GateKind::Const1)
    }

    pub fn name(self) -> &'static str {
        match self {
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::Dff => "dff",
            GateKind::Dffr => "dffr",
            GateKind::Latch => "latch",
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
        }
    }
}

/// One elaborated primitive gate. Its input nets are [`Netlist::inputs`],
/// its declared `#delay` is [`Netlist::delay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    pub kind: GateKind,
    pub output: NetId,
    /// The instance-tree node whose module body textually contains this gate.
    pub owner: InstId,
}

/// One signal bit. Its hierarchical name is [`Netlist::net_name`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Net {
    /// The gate driving this net, if any. Primary inputs and dangling nets
    /// have no driver.
    pub driver: Option<GateId>,
}

/// A node of the design-hierarchy tree: one module instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Instance name within the parent (top module: the module name).
    pub name: String,
    /// Name of the module definition this node instantiates.
    pub module: String,
    pub parent: Option<InstId>,
    pub children: Vec<InstId>,
    /// Depth in the tree; the root has depth 0.
    pub depth: u32,
    /// Gates textually inside this module body (not in children).
    pub own_gates: u32,
    /// Total gates in the subtree rooted here (own + descendants). This is
    /// the "super-gate weight" of the paper's hypergraph model.
    pub subtree_gates: u64,
}

/// The names of the nets `first..first + width`: one declared signal of one
/// instance, bit by bit from the LSB, or one constant net.
#[derive(Debug, Clone, Copy)]
struct NameRun {
    first: u32,
    /// The instance whose path prefixes the name; `None` for a constant net,
    /// whose name is the signal name alone.
    inst: Option<InstId>,
    /// Index into [`Netlist::names`].
    name: u32,
    range: Option<Range>,
}

impl NameRun {
    fn width(&self) -> u32 {
        self.range.map_or(1, |r| r.width())
    }
}

/// The flat netlist plus hierarchy metadata.
#[derive(Debug, Clone)]
pub struct Netlist {
    pub nets: Vec<Net>,
    /// Gates, added only through [`Netlist::add_gate`].
    pub gates: Vec<Gate>,
    pub instances: Vec<Instance>,
    pub primary_inputs: Vec<NetId>,
    pub primary_outputs: Vec<NetId>,
    /// Nets tied to constant 0/1 (supply nets and literal connections).
    pub const0_net: Option<NetId>,
    pub const1_net: Option<NetId>,
    /// The inputs of gate `g` are `inputs[input_off[g]..input_off[g + 1]]`.
    input_off: Vec<u32>,
    inputs: Vec<NetId>,
    /// `(gate, declared delay)`, ascending by gate.
    delays: Vec<(GateId, u64)>,
    /// Ascending and disjoint; a net no run covers is named by its id.
    runs: Vec<NameRun>,
    /// The signal names the runs point into.
    names: Vec<String>,
}

impl Default for Netlist {
    fn default() -> Self {
        Netlist {
            nets: Vec::new(),
            gates: Vec::new(),
            instances: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            const0_net: None,
            const1_net: None,
            input_off: vec![0],
            inputs: Vec::new(),
            delays: Vec::new(),
            runs: Vec::new(),
            names: Vec::new(),
        }
    }
}

impl Netlist {
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of module instances excluding the root.
    pub fn instance_count(&self) -> usize {
        self.instances.len().saturating_sub(1)
    }

    /// Append a gate reading `inputs` and make it the driver of `output`.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        output: NetId,
        inputs: &[NetId],
        owner: InstId,
        delay: Option<u64>,
    ) -> GateId {
        let id = GateId(self.gates.len() as u32);
        self.inputs.extend_from_slice(inputs);
        let end = u32::try_from(self.inputs.len()).expect("input pins fit a u32 offset");
        self.input_off.push(end);
        if let Some(d) = delay {
            self.delays.push((id, d));
        }
        self.gates.push(Gate {
            kind,
            output,
            owner,
        });
        self.nets[output.idx()].driver = Some(id);
        id
    }

    /// Release the capacity the growing vectors left over: elaboration ends
    /// with exactly sized storage, up to half of which would otherwise be
    /// allocated and never used.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.nets.shrink_to_fit();
        self.gates.shrink_to_fit();
        self.input_off.shrink_to_fit();
        self.inputs.shrink_to_fit();
        self.delays.shrink_to_fit();
        self.runs.shrink_to_fit();
        self.names.shrink_to_fit();
    }

    /// Input nets of gate `g`, in pin order.
    #[inline]
    pub fn inputs(&self, g: GateId) -> &[NetId] {
        let (lo, hi) = (self.input_off[g.idx()], self.input_off[g.idx() + 1]);
        &self.inputs[lo as usize..hi as usize]
    }

    /// Declared `#delay` of gate `g`, if any. The unit-delay simulator
    /// ignores it.
    pub fn delay(&self, g: GateId) -> Option<u64> {
        let at = self.delays.binary_search_by_key(&g, |&(gate, _)| gate);
        at.ok().map(|i| self.delays[i].1)
    }

    /// Keep `name` for [`Netlist::add_named_nets`]; returns its index.
    pub(crate) fn add_name(&mut self, name: &str) -> u32 {
        self.names.push(name.to_string());
        (self.names.len() - 1) as u32
    }

    /// Append one undriven net per bit of `range` (one net if `None`), LSB
    /// first, named `path.name` or `path.name[bit]` under the path of `inst`,
    /// or just `name` if `inst` is `None`. Returns the first.
    pub(crate) fn add_named_nets(
        &mut self,
        inst: Option<InstId>,
        name: u32,
        range: Option<Range>,
    ) -> NetId {
        let first = self.nets.len() as u32;
        let run = NameRun {
            first,
            inst,
            name,
            range,
        };
        self.nets
            .resize(first as usize + run.width() as usize, Net::default());
        self.runs.push(run);
        NetId(first)
    }

    /// Hierarchical name of net `n`, e.g. `top.acs0.sum[3]`; `$const0` /
    /// `$const1` for the constant nets, and `n17` for a net built without a
    /// name (a netlist decoded from the wire).
    pub fn net_name(&self, n: NetId) -> String {
        let at = self.runs.partition_point(|r| r.first <= n.0);
        let run = at.checked_sub(1).map(|i| self.runs[i]);
        let Some(run) = run.filter(|r| n.0 - r.first < r.width()) else {
            return n.to_string();
        };
        let name = &self.names[run.name as usize];
        let Some(inst) = run.inst else {
            return name.clone();
        };
        let mut s = self.instance_path(inst);
        s.push('.');
        s.push_str(name);
        if let Some(r) = run.range {
            let offset = n.0 - run.first;
            let bit = if r.msb >= r.lsb {
                r.lsb + offset
            } else {
                r.lsb - offset
            };
            use std::fmt::Write;
            write!(s, "[{bit}]").expect("writing to a String cannot fail");
        }
        s
    }

    /// Full hierarchical path of an instance (e.g. `top.dp.acs3`).
    pub fn instance_path(&self, id: InstId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(i) = cur {
            let inst = &self.instances[i.idx()];
            parts.push(inst.name.as_str());
            cur = inst.parent;
        }
        parts.reverse();
        parts.join(".")
    }

    /// Compute per-net fanout (reader gates) as a CSR structure.
    pub fn build_fanout(&self) -> Fanout {
        let mut offsets = vec![0u32; self.nets.len() + 1];
        for &n in &self.inputs {
            offsets[n.idx() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut readers = vec![GateId(0); self.inputs.len()];
        let mut cursor = offsets.clone();
        for (gi, pins) in self.input_off.windows(2).enumerate() {
            for &n in &self.inputs[pins[0] as usize..pins[1] as usize] {
                readers[cursor[n.idx()] as usize] = GateId(gi as u32);
                cursor[n.idx()] += 1;
            }
        }
        Fanout { offsets, readers }
    }

    /// Walk the instance subtree rooted at `root` in preorder.
    pub fn subtree(&self, root: InstId) -> Vec<InstId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            out.push(i);
            // Reverse keeps preorder left-to-right.
            for &c in self.instances[i.idx()].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Is `anc` an ancestor of (or equal to) `node`?
    pub fn is_ancestor(&self, anc: InstId, node: InstId) -> bool {
        let mut cur = Some(node);
        while let Some(i) = cur {
            if i == anc {
                return true;
            }
            cur = self.instances[i.idx()].parent;
        }
        false
    }

    /// `own_gates` and `subtree_gates` of every instance, counted from the
    /// gate list.
    fn gate_counts(&self) -> (Vec<u32>, Vec<u64>) {
        let mut own = vec![0u32; self.instances.len()];
        for g in &self.gates {
            own[g.owner.idx()] += 1;
        }
        let mut subtree: Vec<u64> = own.iter().map(|&c| u64::from(c)).collect();
        // Children always follow parents in creation order, so a reverse scan
        // accumulates subtree counts bottom-up.
        for i in (0..self.instances.len()).rev() {
            if let Some(p) = self.instances[i].parent {
                subtree[p.idx()] += subtree[i];
            }
        }
        (own, subtree)
    }

    /// Recompute `own_gates` and `subtree_gates` for every instance from the
    /// gate list. Elaboration keeps these up to date; this is for netlists
    /// assembled by hand (tests, generators).
    pub fn recount_gates(&mut self) {
        let (own, subtree) = self.gate_counts();
        for ((inst, own), subtree) in self.instances.iter_mut().zip(own).zip(subtree) {
            inst.own_gates = own;
            inst.subtree_gates = subtree;
        }
    }

    /// Consistency check: every index in range, drivers consistent, input
    /// offsets and name runs well formed, hierarchy acyclic with correct
    /// depths and gate counts. Run by debug assertions, by tests, and on
    /// every netlist a Time Warp worker decodes from its `init` frame;
    /// returns a description of the first violation.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.instances.is_empty() {
            return Err("netlist has no root instance".into());
        }
        if self.instances[0].parent.is_some() {
            return Err("root instance has a parent".into());
        }
        if self.input_off.len() != self.gates.len() + 1 || self.input_off[0] != 0 {
            return Err("input offsets do not frame the gates".into());
        }
        if let Some(gi) = self.input_off.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("gate g{gi} input offsets descend"));
        }
        if self.input_off[self.gates.len()] as usize != self.inputs.len() {
            return Err("last input offset is not the input count".into());
        }
        for (gi, g) in self.gates.iter().enumerate() {
            let inputs = self.inputs(GateId(gi as u32));
            if g.output.idx() >= self.nets.len() {
                return Err(format!("gate g{gi} output out of range"));
            }
            if inputs.iter().any(|n| n.idx() >= self.nets.len()) {
                return Err(format!("gate g{gi} input out of range"));
            }
            if g.owner.idx() >= self.instances.len() {
                return Err(format!("gate g{gi} owner out of range"));
            }
            match self.nets[g.output.idx()].driver {
                Some(d) if d.idx() == gi => {}
                other => {
                    return Err(format!(
                        "net {} driver is {:?}, expected g{}",
                        g.output, other, gi
                    ))
                }
            }
            let arity_ok = match g.kind {
                GateKind::And
                | GateKind::Or
                | GateKind::Nand
                | GateKind::Nor
                | GateKind::Xor
                | GateKind::Xnor => inputs.len() >= 2,
                GateKind::Buf | GateKind::Not => inputs.len() == 1,
                GateKind::Dff | GateKind::Latch => inputs.len() == 2,
                GateKind::Dffr => inputs.len() == 3,
                GateKind::Const0 | GateKind::Const1 => inputs.is_empty(),
            };
            if !arity_ok {
                return Err(format!(
                    "gate g{gi} ({}) has invalid arity {}",
                    g.kind.name(),
                    inputs.len()
                ));
            }
        }
        if self.delays.windows(2).any(|w| w[0].0 >= w[1].0)
            || self
                .delays
                .last()
                .is_some_and(|d| d.0.idx() >= self.gates.len())
        {
            return Err("delays are not ascending by gate in range".into());
        }
        for (ni, n) in self.nets.iter().enumerate() {
            if let Some(d) = n.driver {
                if d.idx() >= self.gates.len() {
                    return Err(format!("net n{ni} driver out of range"));
                }
                if self.gates[d.idx()].output.idx() != ni {
                    return Err(format!("net n{ni} driver mismatch"));
                }
            }
        }
        let mut named = 0u64;
        for (ri, r) in self.runs.iter().enumerate() {
            if u64::from(r.first) < named {
                return Err(format!("name run {ri} overlaps the run before it"));
            }
            named = u64::from(r.first) + u64::from(r.width());
            if named > self.nets.len() as u64
                || r.name as usize >= self.names.len()
                || r.inst.is_some_and(|i| i.idx() >= self.instances.len())
            {
                return Err(format!("name run {ri} out of range"));
            }
        }
        for &p in self.primary_inputs.iter().chain(&self.primary_outputs) {
            if p.idx() >= self.nets.len() {
                return Err("primary port net out of range".into());
            }
        }
        for &p in &self.primary_inputs {
            if self.nets[p.idx()].driver.is_some() {
                return Err(format!("primary input {p} has a driver"));
            }
        }
        let mut seen_child = vec![false; self.instances.len()];
        for (ii, inst) in self.instances.iter().enumerate() {
            if inst.parent.is_some_and(|p| p.idx() >= ii) {
                return Err(format!("instance i{ii} parent not before it"));
            }
            for &c in &inst.children {
                if c.idx() >= self.instances.len() {
                    return Err(format!("instance i{ii} child out of range"));
                }
                if c.idx() <= ii {
                    return Err(format!("instance i{ii} child i{} not after parent", c.0));
                }
                if seen_child[c.idx()] {
                    return Err(format!("instance i{} has two parents", c.0));
                }
                seen_child[c.idx()] = true;
                if self.instances[c.idx()].parent != Some(InstId(ii as u32)) {
                    return Err(format!("instance i{} parent link mismatch", c.0));
                }
                if self.instances[c.idx()].depth != inst.depth + 1 {
                    return Err(format!("instance i{} depth mismatch", c.0));
                }
            }
        }
        let (own, subtree) = self.gate_counts();
        for ((inst, own), subtree) in self.instances.iter().zip(own).zip(subtree) {
            if inst.own_gates != own || inst.subtree_gates != subtree {
                return Err(format!(
                    "instance `{}` gate counts stale: ({}, {}) vs recounted ({own}, {subtree})",
                    inst.name, inst.own_gates, inst.subtree_gates
                ));
            }
        }
        Ok(())
    }
}

/// CSR fanout map from nets to reader gates, built by
/// [`Netlist::build_fanout`].
#[derive(Debug, Clone)]
pub struct Fanout {
    offsets: Vec<u32>,
    readers: Vec<GateId>,
}

impl Fanout {
    /// Gates reading net `n`.
    #[inline]
    pub fn readers(&self, n: NetId) -> &[GateId] {
        let lo = self.offsets[n.idx()] as usize;
        let hi = self.offsets[n.idx() + 1] as usize;
        &self.readers[lo..hi]
    }

    /// Number of reader pins of net `n`.
    #[inline]
    pub fn degree(&self, n: NetId) -> usize {
        (self.offsets[n.idx() + 1] - self.offsets[n.idx()]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small hand-built netlist: two inputs, xor+and (half adder) at top,
    /// plus a child instance owning a buf.
    fn sample() -> Netlist {
        let mut nl = Netlist::default();
        nl.instances.push(Instance {
            name: "top".into(),
            module: "top".into(),
            parent: None,
            children: vec![InstId(1)],
            depth: 0,
            own_gates: 2,
            subtree_gates: 3,
        });
        nl.instances.push(Instance {
            name: "u1".into(),
            module: "bufwrap".into(),
            parent: Some(InstId(0)),
            children: vec![],
            depth: 1,
            own_gates: 1,
            subtree_gates: 1,
        });
        for name in ["a", "b", "sum", "carry", "cbuf"] {
            let name = nl.add_name(name);
            nl.add_named_nets(Some(InstId::ROOT), name, None);
        }
        nl.add_gate(
            GateKind::Xor,
            NetId(2),
            &[NetId(0), NetId(1)],
            InstId(0),
            None,
        );
        nl.add_gate(
            GateKind::And,
            NetId(3),
            &[NetId(0), NetId(1)],
            InstId(0),
            Some(2),
        );
        nl.add_gate(GateKind::Buf, NetId(4), &[NetId(3)], InstId(1), None);
        nl.primary_inputs = vec![NetId(0), NetId(1)];
        nl.primary_outputs = vec![NetId(2), NetId(4)];
        nl
    }

    #[test]
    fn sample_validates() {
        let nl = sample();
        nl.validate().unwrap();
        assert_eq!(nl.inputs(GateId(0)), [NetId(0), NetId(1)]);
        assert_eq!(nl.inputs(GateId(2)), [NetId(3)]);
        assert_eq!(nl.nets[4].driver, Some(GateId(2)));
        let delays: Vec<_> = (0..3).map(|g| nl.delay(GateId(g))).collect();
        assert_eq!(delays, [None, Some(2), None]);
    }

    /// Growing either record is a choice to make on purpose: the paper's
    /// decoder has 1.1 M gates and as many nets.
    #[test]
    fn gate_and_net_layouts_are_pinned() {
        assert_eq!(std::mem::size_of::<Gate>(), 12);
        assert_eq!(std::mem::size_of::<Net>(), 8);
    }

    #[test]
    fn net_names_come_from_runs() {
        let mut nl = sample();
        assert_eq!(nl.net_name(NetId(3)), "top.carry");
        let bus = nl.add_name("bus");
        let up = nl.add_named_nets(Some(InstId(1)), bus, Some(Range { msb: 7, lsb: 5 }));
        let down = nl.add_named_nets(Some(InstId(1)), bus, Some(Range { msb: 0, lsb: 1 }));
        let c1 = nl.add_name("$const1");
        let one = nl.add_named_nets(None, c1, None);
        nl.nets.push(Net::default());
        let names: Vec<String> = (up.0..nl.net_count() as u32)
            .map(|n| nl.net_name(NetId(n)))
            .collect();
        assert_eq!(
            names,
            [
                "top.u1.bus[5]",
                "top.u1.bus[6]",
                "top.u1.bus[7]",
                "top.u1.bus[1]",
                "top.u1.bus[0]",
                "$const1",
                "n11",
            ]
        );
        assert_eq!((down.0, one.0), (8, 10));
        nl.validate().unwrap();
    }

    #[test]
    fn fanout_csr() {
        let nl = sample();
        let f = nl.build_fanout();
        assert_eq!(f.degree(NetId(0)), 2);
        assert_eq!(f.degree(NetId(1)), 2);
        assert_eq!(f.degree(NetId(2)), 0);
        assert_eq!(f.readers(NetId(3)), &[GateId(2)]);
        assert_eq!(f.readers(NetId(0)), &[GateId(0), GateId(1)]);
    }

    #[test]
    fn subtree_and_ancestry() {
        let nl = sample();
        assert_eq!(nl.subtree(InstId::ROOT), vec![InstId(0), InstId(1)]);
        assert!(nl.is_ancestor(InstId(0), InstId(1)));
        assert!(!nl.is_ancestor(InstId(1), InstId(0)));
        assert!(nl.is_ancestor(InstId(1), InstId(1)));
    }

    #[test]
    fn instance_paths() {
        let nl = sample();
        assert_eq!(nl.instance_path(InstId(1)), "top.u1");
    }

    #[test]
    fn recount_matches_elaborated_counts() {
        let mut nl = sample();
        nl.recount_gates();
        assert_eq!(nl.instances[0].own_gates, 2);
        assert_eq!(nl.instances[0].subtree_gates, 3);
        assert_eq!(nl.instances[1].subtree_gates, 1);
    }

    #[test]
    fn validate_catches_driver_mismatch() {
        let mut nl = sample();
        nl.nets[2].driver = None;
        assert!(nl.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_arity() {
        let mut nl = sample();
        nl.gates[2].kind = GateKind::And;
        assert!(nl.validate().is_err());
    }

    #[test]
    fn validate_catches_broken_offsets() {
        let mut nl = sample();
        nl.input_off[1] = 5;
        let e = nl.validate().unwrap_err();
        assert!(e.contains("descend"), "{e}");
        let mut nl = sample();
        nl.inputs.push(NetId(0));
        let e = nl.validate().unwrap_err();
        assert!(e.contains("input count"), "{e}");
    }

    #[test]
    fn validate_catches_overlapping_name_runs() {
        let mut nl = sample();
        nl.runs[2].first = 1;
        let e = nl.validate().unwrap_err();
        assert!(e.contains("overlaps"), "{e}");
    }

    #[test]
    fn validate_catches_stale_counts() {
        let mut nl = sample();
        nl.instances[1].subtree_gates = 99;
        assert!(nl.validate().is_err());
    }

    #[test]
    fn validate_catches_driven_primary_input() {
        let mut nl = sample();
        nl.primary_inputs.push(NetId(2));
        assert!(nl.validate().is_err());
    }

    #[test]
    fn gate_kind_properties() {
        assert!(GateKind::Dff.is_sequential());
        assert!(GateKind::Latch.is_sequential());
        assert!(!GateKind::And.is_sequential());
        assert!(GateKind::Const0.is_const());
        assert!(!GateKind::Buf.is_const());
    }
}
