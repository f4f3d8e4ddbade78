//! Sequential event-driven gate simulator.
//!
//! Unit gate delay, zero wire delay — the paper's timing model. This kernel
//! is the speedup baseline ("the simulation time for 1 machine") and, via
//! [`SimObserver`], the workload profiler for the deterministic cluster
//! model: every gate evaluation and net toggle can be attributed to a
//! partition and a vector cycle.
//!
//! Execution model per epoch (one virtual-time tick):
//!
//! 1. pop all events at time `t` and apply the net-value changes;
//! 2. collect the reader gates affected by changed nets (each at most once).
//!    A rising clock *triggers* every `Dff` on it — `gate_evals` counts
//!    that — but affects only the armed ones that will change: a flop with
//!    `d.input() == q` is not visited (the private `tables` module);
//! 3. evaluate affected gates; outputs that differ from the current net
//!    value are scheduled at `t + 1`.

use crate::logic::Logic;
use crate::stats::SimStats;
use crate::stimulus::VectorStimulus;
use crate::tables::{Epoch, GateTables};
use crate::wheel::{NetEvent, TimingWheel, VTime};
use dvs_verilog::netlist::{GateId, GateKind, NetId, Netlist};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Vectors to apply.
    pub cycles: u64,
    /// Initialize every net to `0` instead of `X`. `X` initialization is the
    /// strict Verilog semantic; `0` avoids X-lock in feedback circuits
    /// without reset logic and is the default for benchmarking.
    pub init_zero: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cycles: 100,
            init_zero: true,
        }
    }
}

/// Observer hooks for workload profiling and tracing. All methods default
/// to no-ops. `net_change` fires after the new value is applied and
/// receives it, so observers (e.g. the VCD recorder) need no access to the
/// simulator's state. `gate_eval` is not called for a `Dff`: one
/// `dffs_clocked` stands for an evaluation of every `Dff` whose clock pin is
/// on `net`.
pub trait SimObserver {
    #[inline]
    fn gate_eval(&mut self, _gate: GateId, _time: VTime) {}
    #[inline]
    fn dffs_clocked(&mut self, _net: NetId, _time: VTime) {}
    #[inline]
    fn net_change(&mut self, _net: NetId, _time: VTime, _value: Logic) {}
}

/// The do-nothing observer.
pub struct NullObserver;
impl SimObserver for NullObserver {}

/// Sequential simulator state. The netlist is read once, into the packed
/// tables; local gate ids are `GateId`s because every gate is owned.
pub struct SeqSim {
    tables: GateTables,
    values: Vec<Logic>,
    stats: SimStats,
    visited: u64,
}

impl SeqSim {
    pub fn new(nl: &Netlist, cfg: &SimConfig) -> Self {
        let all: Vec<GateId> = (0..nl.gate_count() as u32).map(GateId).collect();
        let init = if cfg.init_zero { Logic::Zero } else { Logic::X };
        let mut values = vec![init; nl.net_count()];
        if let Some(c0) = nl.const0_net {
            values[c0.idx()] = Logic::Zero;
        }
        if let Some(c1) = nl.const1_net {
            values[c1.idx()] = Logic::One;
        }
        SeqSim {
            tables: GateTables::new(nl, &all, &[]),
            values,
            stats: SimStats::default(),
            visited: 0,
        }
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.idx()]
    }

    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The oracle every parallel run is held to: the nets on which `values`
    /// (one entry per net of `nl`, e.g. [`crate::timewarp::TwRunResult::values`])
    /// differs from this simulator's state, over every driven net and every
    /// primary input. Floating nets — no driver, not an input — are outside
    /// it: they keep their initial value here and stay `X` in a merged
    /// Time Warp result.
    pub fn mismatches(&self, nl: &Netlist, values: &[Logic]) -> Vec<NetId> {
        let mut held: Vec<bool> = nl.nets.iter().map(|n| n.driver.is_some()).collect();
        for &pi in &nl.primary_inputs {
            held[pi.idx()] = true;
        }
        (0..nl.net_count())
            .filter(|&i| held[i] && values[i] != self.values[i])
            .map(|i| NetId(i as u32))
            .collect()
    }

    /// Gates the runs so far looked at, where `stats().gate_evals` counts
    /// the gates triggered: a clocked `Dff` that holds is not visited.
    pub fn gates_visited(&self) -> u64 {
        self.visited
    }

    /// Run `cfg.cycles` vectors from `stim`, reporting to `obs`.
    pub fn run(&mut self, stim: &VectorStimulus, cycles: u64, obs: &mut impl SimObserver) {
        let period = stim.period;
        let horizon = (2 * period + 4) as usize;
        let mut wheel = TimingWheel::new(horizon);
        let gates = self.tables.len() as u32;

        // Settle the initial state: evaluate every combinational gate once
        // and schedule the disagreements.
        for gi in 0..gates {
            let gate = self.tables.gate(gi);
            if gate.kind.is_sequential() {
                continue;
            }
            let out = self.tables.eval_comb(gi, &self.values);
            if out != self.values[gate.out as usize] {
                wheel.push(NetEvent {
                    time: 1,
                    net: NetId(gate.out),
                    value: out,
                });
            }
        }

        let mut epoch: Vec<NetEvent> = Vec::with_capacity(64);
        let mut front = Epoch::new(&self.tables, &self.values);
        let mut stim_buf: Vec<NetEvent> = Vec::with_capacity(16);

        for cycle in 0..cycles {
            stim_buf.clear();
            stim.events_for_cycle(cycle, &mut stim_buf);
            for &ev in &stim_buf {
                wheel.push(ev);
            }
            self.stats.cycles += 1;
            let limit = (cycle + 1) * period;
            let is_last_cycle = cycle + 1 == cycles;
            // Process epochs up to the next vector boundary; after the
            // final vector, drain to quiescence.
            while let Some(t_next) = wheel.next_time() {
                if t_next >= limit && !is_last_cycle {
                    break;
                }
                epoch.clear();
                let t = wheel.pop_epoch(&mut epoch).expect("next_time was Some");
                self.stats.end_time = t;

                // Phases 1 and 2: apply value changes and collect the
                // gates they affect.
                front.begin();
                for ev in &epoch {
                    self.stats.events += 1;
                    let old = self.values[ev.net.idx()];
                    if old != ev.value {
                        self.values[ev.net.idx()] = ev.value;
                        self.stats.net_toggles += 1;
                        obs.net_change(ev.net, t, ev.value);
                        front.applied(&self.tables, ev.net.0, old, ev.value);
                    }
                }
                let clocked = |net| obs.dffs_clocked(NetId(net), t);
                self.stats.gate_evals += front.finish(&self.tables, &self.values, clocked);

                // Phase 3: evaluate and schedule.
                for &gi in front.affected() {
                    let gate = self.tables.gate(gi);
                    if gate.kind != GateKind::Dff {
                        obs.gate_eval(GateId(gi), t);
                    }
                    let Some(new_out) = front.eval(&self.tables, gi, &self.values) else {
                        continue;
                    };
                    if new_out != self.values[gate.out as usize] {
                        wheel.push(NetEvent {
                            time: t + 1,
                            net: NetId(gate.out),
                            value: new_out,
                        });
                    }
                }
            }
        }
        self.visited += front.visited;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_verilog::parse_and_elaborate;

    fn sim_outputs(src: &str, cycles: u64, seed: u64) -> (Vec<(String, Logic)>, SimStats) {
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.into_netlist();
        let cfg = SimConfig {
            cycles,
            init_zero: true,
        };
        let mut sim = SeqSim::new(&nl, &cfg);
        let stim = VectorStimulus::from_netlist(&nl, 10, seed);
        sim.run(&stim, cycles, &mut NullObserver);
        let outs = nl
            .primary_outputs
            .iter()
            .map(|&o| (nl.nets[o.idx()].name.clone(), sim.value(o)))
            .collect();
        (outs, sim.stats().clone())
    }

    #[test]
    fn inverter_follows_input() {
        let d = parse_and_elaborate("module top(a, y); input a; output y; not n (y, a); endmodule")
            .unwrap();
        let nl = d.into_netlist();
        let mut sim = SeqSim::new(&nl, &SimConfig::default());
        let stim = VectorStimulus::from_netlist(&nl, 10, 3);
        sim.run(&stim, 50, &mut NullObserver);
        let a = nl.primary_inputs[0];
        let y = nl.primary_outputs[0];
        assert_eq!(sim.value(y), sim.value(a).not());
        assert!(sim.stats().gate_evals > 0);
    }

    #[test]
    fn full_adder_truth() {
        // Drive a full adder through all 8 input combinations explicitly by
        // checking the final state is consistent: sum = a^b^cin.
        let src = r#"
            module top(a, b, cin, sum, cout);
              input a, b, cin; output sum, cout;
              wire s1, c1, c2;
              xor x1 (s1, a, b);
              xor x2 (sum, s1, cin);
              and a1 (c1, a, b);
              and a2 (c2, s1, cin);
              or  o1 (cout, c1, c2);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.into_netlist();
        for seed in 0..8 {
            let mut sim = SeqSim::new(&nl, &SimConfig::default());
            let stim = VectorStimulus::from_netlist(&nl, 16, seed);
            sim.run(&stim, 20, &mut NullObserver);
            let v = |i: usize| sim.value(nl.primary_inputs[i]);
            let (a, b, cin) = (v(0), v(1), v(2));
            let sum = sim.value(nl.primary_outputs[0]);
            let cout = sim.value(nl.primary_outputs[1]);
            assert_eq!(sum, a.xor(b).xor(cin), "seed {seed}");
            assert_eq!(cout, a.and(b).or(a.xor(b).and(cin)), "seed {seed}");
        }
    }

    #[test]
    fn dff_captures_on_rising_edge_only() {
        let src = r#"
            module top(clk, d, q);
              input clk, d; output q;
              dff f (q, clk, d);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.into_netlist();
        let mut sim = SeqSim::new(&nl, &SimConfig::default());
        let stim = VectorStimulus::from_netlist(&nl, 10, 5);
        sim.run(&stim, 40, &mut NullObserver);
        // After the last full cycle, q equals the d bit of the last cycle
        // (captured at the rising edge mid-period; d is stable across it).
        let q = sim.value(nl.primary_outputs[0]);
        let d_net = stim.data_inputs[0];
        assert_eq!(q, stim.bit(d_net, 39));
    }

    #[test]
    fn toggle_counter_divides_clock() {
        // q toggles every rising clock edge: q' = not q.
        let src = r#"
            module top(clk, q);
              input clk; output q;
              wire nq;
              not n (nq, q);
              dff f (q, clk, nq);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.into_netlist();
        let mut sim = SeqSim::new(&nl, &SimConfig::default());
        let stim = VectorStimulus::from_netlist(&nl, 10, 1);
        // After an even number of edges q returns to 0.
        sim.run(&stim, 8, &mut NullObserver);
        assert_eq!(sim.value(nl.primary_outputs[0]), Logic::Zero);
        let mut sim2 = SeqSim::new(&nl, &SimConfig::default());
        sim2.run(&stim, 7, &mut NullObserver);
        assert_eq!(sim2.value(nl.primary_outputs[0]), Logic::One);
    }

    #[test]
    fn dffr_reset_dominates_and_is_async() {
        // q follows d on clock edges while rst=0; rst=1 clears q without a
        // clock edge. Drive rst from a data input so random vectors exercise
        // both phases; then pin rst high via a harness to check the clear.
        let src = r#"
            module top(clk, q);
              input clk; output q;
              wire nq;
              supply0 rst;
              not n (nq, q);
              dffr f (q, clk, rst, nq);
            endmodule
        "#;
        // With rst tied low this is exactly the toggle flop: q = parity of
        // clock edges.
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.into_netlist();
        let stim = VectorStimulus::from_netlist(&nl, 10, 1);
        let mut sim = SeqSim::new(&nl, &SimConfig::default());
        sim.run(&stim, 8, &mut NullObserver);
        assert_eq!(sim.value(nl.primary_outputs[0]), Logic::Zero);
        let mut sim2 = SeqSim::new(&nl, &SimConfig::default());
        sim2.run(&stim, 7, &mut NullObserver);
        assert_eq!(sim2.value(nl.primary_outputs[0]), Logic::One);

        // Reset tied high: q stays 0 no matter how many edges.
        let src_rst = r#"
            module top(clk, q);
              input clk; output q;
              wire nq;
              supply1 rst;
              not n (nq, q);
              dffr f (q, clk, rst, nq);
            endmodule
        "#;
        let d = parse_and_elaborate(src_rst).unwrap();
        let nl = d.into_netlist();
        let stim = VectorStimulus::from_netlist(&nl, 10, 1);
        let mut sim = SeqSim::new(&nl, &SimConfig::default());
        sim.run(&stim, 9, &mut NullObserver);
        assert_eq!(sim.value(nl.primary_outputs[0]), Logic::Zero);
    }

    #[test]
    fn dffr_async_clear_without_edge() {
        // rst is a data input; whenever the vector sets rst=1 the flop
        // clears immediately (no clock needed): feed d from constant 1 and
        // check q == not(rst) relationship settles per cycle... precisely:
        // after a cycle with rst=1, q is 0 even though d=1 was captured on
        // earlier edges.
        let src = r#"
            module top(clk, rst, q);
              input clk, rst; output q;
              supply1 one;
              dffr f (q, clk, rst, one);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.into_netlist();
        let stim = VectorStimulus::from_netlist(&nl, 10, 3);
        // Find the rst input (non-clock PI).
        let rst = stim.data_inputs[0];
        // Simulate increasing cycle counts; whenever the last vector had
        // rst=1, q must be 0; when rst=0, the clock edge captured 1.
        for cycles in 3..12u64 {
            let mut sim = SeqSim::new(&nl, &SimConfig::default());
            sim.run(&stim, cycles, &mut NullObserver);
            let last_rst = stim.bit(rst, cycles - 1);
            let q = sim.value(nl.primary_outputs[0]);
            if last_rst == Logic::One {
                assert_eq!(q, Logic::Zero, "cycles={cycles}");
            } else {
                assert_eq!(q, Logic::One, "cycles={cycles}");
            }
        }
    }

    #[test]
    fn latch_is_transparent_when_enabled() {
        let src = r#"
            module top(en, d, q);
              input en, d; output q;
              latch l (q, en, d);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.into_netlist();
        let mut sim = SeqSim::new(&nl, &SimConfig::default());
        // No clock: both inputs are data; just check q tracks d while en=1
        // on some seed where the last vector has en=1.
        let stim = VectorStimulus::from_netlist(&nl, 10, 2);
        sim.run(&stim, 30, &mut NullObserver);
        let en = sim.value(nl.primary_inputs[0]);
        if en == Logic::One {
            assert_eq!(
                sim.value(nl.primary_outputs[0]),
                sim.value(nl.primary_inputs[1])
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let src = r#"
            module top(clk, a, b, q);
              input clk, a, b; output q;
              wire w1, w2;
              xor x (w1, a, b);
              dff f (w2, clk, w1);
              and g (q, w2, a);
            endmodule
        "#;
        let (o1, s1) = sim_outputs(src, 100, 11);
        let (o2, s2) = sim_outputs(src, 100, 11);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        let (o3, _) = sim_outputs(src, 100, 12);
        // Different seeds will usually end in a different state; at minimum
        // the run must complete.
        let _ = o3;
    }

    #[test]
    fn stats_count_activity() {
        let (_, stats) = sim_outputs(
            "module top(a, y); input a; output y; not n (y, a); endmodule",
            50,
            1,
        );
        assert_eq!(stats.cycles, 50);
        assert!(stats.events >= 50, "events {}", stats.events);
        assert!(stats.gate_evals <= stats.events * 2);
        assert!(stats.net_toggles <= stats.events);
    }

    #[test]
    fn x_initialization_propagates() {
        let src = "module top(a, y); input a; output y; buf b (y, a); endmodule";
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.into_netlist();
        let cfg = SimConfig {
            cycles: 0,
            init_zero: false,
        };
        let sim = SeqSim::new(&nl, &cfg);
        assert_eq!(sim.value(nl.primary_outputs[0]), Logic::X);
    }

    #[test]
    fn constants_settle() {
        let src = r#"
            module top(y);
              output y;
              supply1 vdd;
              supply0 gnd;
              or o (y, gnd, vdd);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.into_netlist();
        let mut sim = SeqSim::new(&nl, &SimConfig::default());
        let stim = VectorStimulus::from_netlist(&nl, 10, 1);
        sim.run(&stim, 2, &mut NullObserver);
        assert_eq!(sim.value(nl.primary_outputs[0]), Logic::One);
    }
}
