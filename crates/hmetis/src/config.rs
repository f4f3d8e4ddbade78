//! Configuration for the multilevel partitioner.

/// Coarsening scheme, mirroring hMetis's `CType` options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarsenScheme {
    /// Heavy-edge matching on the clique expansion: each vertex pairs with
    /// the unmatched neighbor of strongest total connectivity (hMetis EC).
    EdgeCoarsening,
    /// FirstChoice: like EC but a vertex may join an already-formed cluster,
    /// giving faster size reduction on hypergraphs with large nets.
    FirstChoice,
}

/// Parameters of the multilevel algorithm. Field names follow hMetis where a
/// correspondence exists (`ubfactor`).
#[derive(Debug, Clone)]
pub struct HmetisConfig {
    /// Imbalance allowance in percent, hMetis-style: for a bisection each
    /// side stays within `(50 ± ubfactor)%` of the total weight. When driven
    /// from the paper's sweeps this is set to the paper's `b`.
    pub ubfactor: f64,
    /// Stop coarsening when at most this many vertices remain.
    pub coarsen_to: usize,
    /// Coarsening scheme.
    pub scheme: CoarsenScheme,
    /// Cluster weight cap during coarsening, as a multiple of the perfectly
    /// balanced block weight. Prevents giant clusters that would make the
    /// coarsest graph unpartitionable.
    pub max_cluster_frac: f64,
    /// RNG seed (the whole pipeline is deterministic given the seed).
    pub seed: u64,
}

impl Default for HmetisConfig {
    fn default() -> Self {
        HmetisConfig {
            ubfactor: 5.0,
            coarsen_to: 100,
            scheme: CoarsenScheme::FirstChoice,
            max_cluster_frac: 0.25,
            seed: 0x5eed_4d5e,
        }
    }
}

impl HmetisConfig {
    /// Derive a config from the paper's balance factor `b` (percent) for a
    /// `k`-way partition. hMetis's ubfactor applies per bisection; using `b`
    /// directly keeps final blocks within the paper's formula (1) envelope.
    pub fn with_balance(b_percent: f64, seed: u64) -> Self {
        HmetisConfig {
            ubfactor: b_percent,
            seed,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = HmetisConfig::default();
        assert!(c.ubfactor > 0.0);
        assert!(c.coarsen_to >= 2);
        assert!(c.max_cluster_frac > 0.0);
    }

    #[test]
    fn with_balance_sets_ubfactor() {
        let c = HmetisConfig::with_balance(7.5, 42);
        assert_eq!(c.ubfactor, 7.5);
        assert_eq!(c.seed, 42);
    }
}
