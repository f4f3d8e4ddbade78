//! Random vector stimulus.
//!
//! The paper drives its Viterbi decoder with 1 M random vectors (10 k during
//! pre-simulation). [`VectorStimulus`] reproduces that: every data primary
//! input receives a pseudo-random bit each cycle, and an optional clock
//! input gets a rising edge mid-period and a falling edge at period end.
//!
//! The bit for (input, cycle) is a *pure function* of (seed, net id, cycle)
//! — a splitmix64 hash — rather than a stream from a stateful RNG. This
//! matters for the distributed kernels: each cluster can generate exactly
//! the stimulus for its own inputs locally, in any order, with no
//! coordination, just as each node of the paper's cluster reads the same
//! vector file.

use crate::logic::Logic;
use crate::wheel::{NetEvent, VTime};
use dvs_verilog::netlist::{NetId, Netlist};

/// Deterministic random vector source.
#[derive(Debug, Clone)]
pub struct VectorStimulus {
    /// Data inputs (every primary input except the clock).
    pub data_inputs: Vec<NetId>,
    /// Clock input, if the design has one.
    pub clock: Option<NetId>,
    /// Ticks per vector (one vector per period).
    pub period: VTime,
    pub seed: u64,
}

impl VectorStimulus {
    /// Build from a netlist, auto-detecting the clock as the primary input
    /// whose name ends in `clk` or `clock` (as the generated workloads use).
    pub fn from_netlist(nl: &Netlist, period: VTime, seed: u64) -> Self {
        assert!(period >= 2, "period must fit a clock edge");
        let mut clock = None;
        let mut data_inputs = Vec::new();
        for &pi in &nl.primary_inputs {
            let name = &nl.nets[pi.idx()].name;
            let base = name.rsplit('.').next().unwrap_or(name);
            if clock.is_none() && (base.ends_with("clk") || base.ends_with("clock")) {
                clock = Some(pi);
            } else {
                data_inputs.push(pi);
            }
        }
        VectorStimulus {
            data_inputs,
            clock,
            period,
            seed,
        }
    }

    /// Keep only the inputs in `nets`, in their present order: the stimulus
    /// one cluster generates for itself. Bits depend on the net id alone, so
    /// the kept inputs see the vectors they always did.
    pub(crate) fn restrict_to(&mut self, nets: &[NetId]) {
        let mut keep = nets.to_vec();
        keep.sort_unstable();
        self.data_inputs.retain(|n| keep.binary_search(n).is_ok());
        self.clock = self.clock.filter(|c| keep.binary_search(c).is_ok());
    }

    /// The pseudo-random bit for `net` at `cycle`.
    #[inline]
    pub fn bit(&self, net: NetId, cycle: u64) -> Logic {
        let h = splitmix64(
            self.seed
                ^ splitmix64(net.0 as u64 ^ 0xA076_1D64_78BD_642F)
                ^ splitmix64(cycle ^ 0xE703_7ED1_A0B4_28DB),
        );
        Logic::from_bool(h & 1 == 1)
    }

    /// Emit the events of `cycle` into `out`: every input of this source,
    /// which for a cluster is the source it restricted to its own inputs.
    pub fn events_for_cycle(&self, cycle: u64, out: &mut Vec<NetEvent>) {
        let t0 = cycle * self.period;
        for &pi in &self.data_inputs {
            out.push(NetEvent {
                time: t0,
                net: pi,
                value: self.bit(pi, cycle),
            });
        }
        if let Some(clk) = self.clock {
            // Rising edge mid-period (after combinational inputs have had
            // time to propagate), falling edge before the next vector.
            out.push(NetEvent {
                time: t0 + self.period / 2,
                net: clk,
                value: Logic::One,
            });
            out.push(NetEvent {
                time: t0 + self.period - 1,
                net: clk,
                value: Logic::Zero,
            });
        }
    }

    /// End of simulated time for `cycles` vectors.
    pub fn end_time(&self, cycles: u64) -> VTime {
        cycles * self.period
    }
}

/// The SplitMix64 finalizer, a bijective 64-bit mix: the hash behind
/// [`VectorStimulus::bit`], seeded network fault plans and the partition
/// search's per-point seeds.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_verilog::parse_and_elaborate;

    fn netlist() -> Netlist {
        parse_and_elaborate(
            "module top(clk, a, b, q); input clk, a, b; output q;\n\
             wire d; and g (d, a, b); dff f (q, clk, d); endmodule",
        )
        .unwrap()
        .into_netlist()
    }

    #[test]
    fn clock_is_detected_by_name() {
        let nl = netlist();
        let s = VectorStimulus::from_netlist(&nl, 10, 1);
        assert!(s.clock.is_some());
        assert_eq!(s.data_inputs.len(), 2);
        let clk = s.clock.unwrap();
        assert!(nl.nets[clk.idx()].name.ends_with("clk"));
    }

    #[test]
    fn bits_are_deterministic_and_vary() {
        let nl = netlist();
        let s = VectorStimulus::from_netlist(&nl, 10, 42);
        let a = s.data_inputs[0];
        let bits: Vec<Logic> = (0..64).map(|c| s.bit(a, c)).collect();
        let again: Vec<Logic> = (0..64).map(|c| s.bit(a, c)).collect();
        assert_eq!(bits, again);
        // Not constant.
        assert!(bits.contains(&Logic::Zero));
        assert!(bits.contains(&Logic::One));
        // Different seed → different stream.
        let s2 = VectorStimulus::from_netlist(&nl, 10, 43);
        let bits2: Vec<Logic> = (0..64).map(|c| s2.bit(a, c)).collect();
        assert_ne!(bits, bits2);
    }

    #[test]
    fn bits_are_roughly_balanced() {
        let nl = netlist();
        let s = VectorStimulus::from_netlist(&nl, 10, 7);
        let a = s.data_inputs[0];
        let ones = (0..10_000).filter(|&c| s.bit(a, c) == Logic::One).count();
        assert!((4000..6000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn cycle_events_include_clock_edges() {
        let nl = netlist();
        let s = VectorStimulus::from_netlist(&nl, 10, 1);
        let mut out = Vec::new();
        s.events_for_cycle(3, &mut out);
        // 2 data inputs + clock rise + clock fall.
        assert_eq!(out.len(), 4);
        let clk = s.clock.unwrap();
        let rise = out.iter().find(|e| e.net == clk && e.value == Logic::One);
        let fall = out.iter().find(|e| e.net == clk && e.value == Logic::Zero);
        assert_eq!(rise.unwrap().time, 35);
        assert_eq!(fall.unwrap().time, 39);
        assert!(out.iter().all(|e| e.time >= 30 && e.time < 40));
    }

    #[test]
    fn restriction_keeps_order_and_drops_an_unlisted_clock() {
        // What a cluster generates for itself is the global stream minus the
        // nets it does not read: data inputs in `data_inputs` order, then the
        // two clock edges.
        let nl = netlist();
        let s = VectorStimulus::from_netlist(&nl, 10, 9);
        let (a, b, clk) = (s.data_inputs[0], s.data_inputs[1], s.clock.unwrap());
        for keep in [vec![clk, b, a], vec![b, clk], vec![a], vec![]] {
            let mut mine = s.clone();
            mine.restrict_to(&keep);
            let (mut all, mut some) = (Vec::new(), Vec::new());
            s.events_for_cycle(4, &mut all);
            all.retain(|e| keep.contains(&e.net));
            mine.events_for_cycle(4, &mut some);
            assert_eq!(some, all, "kept {keep:?}");
            assert_eq!(mine.clock.is_some(), keep.contains(&clk));
        }
    }
}
