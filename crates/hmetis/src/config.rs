//! Configuration for the multilevel partitioner.

/// Parameters of the multilevel algorithm. Field names follow hMetis where a
/// correspondence exists (`ubfactor`).
#[derive(Debug, Clone)]
pub struct HmetisConfig {
    /// Imbalance allowance in percent, hMetis-style: for a bisection each
    /// side stays within `(50 ± ubfactor)%` of the total weight. When driven
    /// from the paper's sweeps this is set to the paper's `b`.
    pub ubfactor: f64,
    /// RNG seed (the whole pipeline is deterministic given the seed).
    pub seed: u64,
}

impl Default for HmetisConfig {
    fn default() -> Self {
        HmetisConfig {
            ubfactor: 5.0,
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
    }

    #[test]
    fn with_balance_sets_ubfactor() {
        let c = HmetisConfig::with_balance(7.5, 42);
        assert_eq!(c.ubfactor, 7.5);
        assert_eq!(c.seed, 42);
    }
}
