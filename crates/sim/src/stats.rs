//! Simulation statistics shared by the sequential, Time Warp and modeled
//! kernels.

/// Counters accumulated during a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Net-change events processed (scheduled events popped and applied).
    pub events: u64,
    /// Gates whose trigger fired — an input of a combinational gate or a
    /// latch changed, a flop's clock rose, a `Dffr`'s reset changed: the
    /// paper's unit of computational load. The event loops visit fewer: a
    /// clocked `Dff` that holds its value is counted here and left alone.
    pub gate_evals: u64,
    /// Events that actually changed a net's value.
    pub net_toggles: u64,
    /// Input vectors applied.
    pub cycles: u64,
    /// Largest virtual time reached.
    pub end_time: u64,
    /// Inter-cluster messages sent (parallel kernels only).
    pub messages: u64,
    /// Anti-messages sent (Time Warp only).
    pub anti_messages: u64,
    /// Rollbacks performed (Time Warp only).
    pub rollbacks: u64,
    /// Events undone by rollbacks (re-executed later).
    pub rolled_back_events: u64,
    /// GVT computations performed.
    pub gvt_rounds: u64,
    /// Committed history records reclaimed by fossil collection (processed
    /// events whose timestamps fell below GVT).
    pub fossil_collected: u64,
}

impl SimStats {
    /// Events that survived: executed and not undone by a rollback.
    pub fn committed_events(&self) -> u64 {
        self.events - self.rolled_back_events
    }

    /// Merge per-cluster stats into a run total.
    pub fn merge(&mut self, other: &SimStats) {
        self.events += other.events;
        self.gate_evals += other.gate_evals;
        self.net_toggles += other.net_toggles;
        self.cycles = self.cycles.max(other.cycles);
        self.end_time = self.end_time.max(other.end_time);
        self.messages += other.messages;
        self.anti_messages += other.anti_messages;
        self.rollbacks += other.rollbacks;
        self.rolled_back_events += other.rolled_back_events;
        self.gvt_rounds = self.gvt_rounds.max(other.gvt_rounds);
        self.fossil_collected += other.fossil_collected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_maxes_clocks() {
        let mut a = SimStats {
            events: 10,
            gate_evals: 5,
            net_toggles: 4,
            cycles: 100,
            end_time: 999,
            messages: 3,
            anti_messages: 1,
            rollbacks: 2,
            rolled_back_events: 7,
            gvt_rounds: 4,
            fossil_collected: 6,
        };
        let b = SimStats {
            events: 1,
            gate_evals: 1,
            net_toggles: 1,
            cycles: 50,
            end_time: 2000,
            messages: 1,
            anti_messages: 0,
            rollbacks: 0,
            rolled_back_events: 0,
            gvt_rounds: 9,
            fossil_collected: 2,
        };
        a.merge(&b);
        assert_eq!(a.events, 11);
        assert_eq!(a.cycles, 100);
        assert_eq!(a.end_time, 2000);
        assert_eq!(a.gvt_rounds, 9);
        assert_eq!(a.messages, 4);
        assert_eq!(a.fossil_collected, 8);
    }
}
