//! The decisive Time Warp correctness property: for any partition of any
//! circuit, the optimistic parallel kernel must finish in exactly the state
//! the sequential kernel reaches — rollbacks, anti-messages and all.

use dvs_sim::cluster::ClusterPlan;
use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::{run_timewarp, TimeWarpConfig, TimeWarpError, TwRunResult};
use dvs_sim::Logic;
use dvs_verilog::netlist::{GateId, Netlist};
use dvs_verilog::parse_and_elaborate;
use std::time::{Duration, Instant};

/// Run both kernels and compare every driven net's final value.
fn assert_tw_matches_seq(nl: &Netlist, gate_blocks: &[u32], k: usize, cycles: u64, seed: u64) {
    assert_tw_matches_seq_under(nl, gate_blocks, k, cycles, seed, &TimeWarpConfig::default());
}

/// [`assert_tw_matches_seq`] under a given kernel configuration; hands back
/// the Time Warp result for further checks.
fn assert_tw_matches_seq_under(
    nl: &Netlist,
    gate_blocks: &[u32],
    k: usize,
    cycles: u64,
    seed: u64,
    tw_cfg: &TimeWarpConfig,
) -> TwRunResult {
    let stim = VectorStimulus::from_netlist(nl, 10, seed);

    let cfg = SimConfig {
        cycles,
        init_zero: true,
    };
    let mut seq = SeqSim::new(nl, &cfg);
    seq.run(&stim, cycles, &mut NullObserver);

    let plan = ClusterPlan::new(nl, gate_blocks, k);
    let tw = run_timewarp(nl, &plan, &stim, cycles, tw_cfg).expect("run stalled");

    let wrong = seq.mismatches(nl, &tw.values);
    assert!(
        wrong.is_empty(),
        "nets {wrong:?} differ (k={k}, seed={seed})"
    );
    // Sanity on bookkeeping.
    assert!(
        tw.stats.events >= seq.stats().events,
        "TW reprocesses, never skips"
    );
    tw
}

/// A sequential circuit with cross-partition feedback: a 4-bit ripple
/// counter plus decode logic.
const COUNTER: &str = r#"
    module top(clk, y);
      input clk; output y;
      wire q0, q1, q2, q3, n0, n1, n2, n3;
      wire t1, t2, c1, c2;
      not i0 (n0, q0);
      dff f0 (q0, clk, n0);
      xor x1 (t1, q1, q0);
      dff f1 (q1, clk, t1);
      and a1 (c1, q1, q0);
      xor x2 (t2, q2, c1);
      dff f2 (q2, clk, t2);
      and a2 (c2, q2, c1);
      wire t3;
      xor x3 (t3, q3, c2);
      dff f3 (q3, clk, t3);
      and yd (y, q3, q1);
    endmodule
"#;

/// Combinational network with reconvergent fanout.
const RECONVERGE: &str = r#"
    module top(a, b, c, d, y, z);
      input a, b, c, d; output y, z;
      wire w1, w2, w3, w4, w5;
      and g1 (w1, a, b);
      or  g2 (w2, c, d);
      xor g3 (w3, w1, w2);
      nand g4 (w4, w1, w3);
      nor g5 (w5, w2, w3);
      xnor g6 (y, w4, w5);
      not g7 (z, w3);
    endmodule
"#;

fn round_robin(nl: &Netlist, k: usize) -> Vec<u32> {
    (0..nl.gate_count()).map(|i| (i % k) as u32).collect()
}

fn contiguous(nl: &Netlist, k: usize) -> Vec<u32> {
    let n = nl.gate_count();
    (0..n).map(|i| ((i * k) / n) as u32).collect()
}

#[test]
fn counter_two_clusters_contiguous() {
    let nl = parse_and_elaborate(COUNTER).unwrap().into_netlist();
    let gb = contiguous(&nl, 2);
    assert_tw_matches_seq(&nl, &gb, 2, 60, 1);
}

#[test]
fn counter_two_clusters_round_robin() {
    // Round-robin maximizes the cut: heavy messaging and rollback pressure.
    let nl = parse_and_elaborate(COUNTER).unwrap().into_netlist();
    let gb = round_robin(&nl, 2);
    assert_tw_matches_seq(&nl, &gb, 2, 60, 2);
}

#[test]
fn counter_four_clusters() {
    let nl = parse_and_elaborate(COUNTER).unwrap().into_netlist();
    let gb = round_robin(&nl, 4);
    assert_tw_matches_seq(&nl, &gb, 4, 50, 3);
}

#[test]
fn combinational_three_clusters() {
    let nl = parse_and_elaborate(RECONVERGE).unwrap().into_netlist();
    let gb = round_robin(&nl, 3);
    assert_tw_matches_seq(&nl, &gb, 3, 80, 4);
}

#[test]
fn single_cluster_trivially_matches() {
    let nl = parse_and_elaborate(COUNTER).unwrap().into_netlist();
    let gb = vec![0u32; nl.gate_count()];
    assert_tw_matches_seq(&nl, &gb, 1, 40, 5);
}

#[test]
fn many_seeds_and_splits() {
    let nl = parse_and_elaborate(COUNTER).unwrap().into_netlist();
    for seed in 10..16 {
        for k in [2usize, 3] {
            let gb = if seed % 2 == 0 {
                contiguous(&nl, k)
            } else {
                round_robin(&nl, k)
            };
            assert_tw_matches_seq(&nl, &gb, k, 30, seed);
        }
    }
}

#[test]
fn tight_window_still_correct() {
    // A tiny optimism window forces lock-step progress; correctness must be
    // unaffected.
    let nl = parse_and_elaborate(COUNTER).unwrap().into_netlist();
    let gb = round_robin(&nl, 2);
    let stim = VectorStimulus::from_netlist(&nl, 10, 6);
    let cycles = 40;

    let mut seq = SeqSim::new(
        &nl,
        &SimConfig {
            cycles,
            init_zero: true,
        },
    );
    seq.run(&stim, cycles, &mut NullObserver);

    let plan = ClusterPlan::new(&nl, &gb, 2);
    let cfg = TimeWarpConfig {
        window: 8,
        epochs_per_quantum: 2,
        ..TimeWarpConfig::default()
    };
    let tw = run_timewarp(&nl, &plan, &stim, cycles, &cfg).expect("run stalled");
    let wrong = seq.mismatches(&nl, &tw.values);
    assert!(wrong.is_empty(), "nets {wrong:?} differ under tight window");
    assert!(tw.gvt_rounds > 0, "GVT must advance");
}

/// A resettable counter whose reset pulse is derived from the count itself
/// (self-clearing), with the reset logic and the counter split across
/// clusters — asynchronous resets must survive rollback too.
const RESET_COUNTER: &str = r#"
    module top(clk, en, y);
      input clk, en; output y;
      wire q0, q1, q2, n0, t1, c1, rst;
      not i0 (n0, q0);
      dffr f0 (q0, clk, rst, n0);
      xor x1 (t1, q1, q0);
      dffr f1 (q1, clk, rst, t1);
      and a1 (c1, q1, q0);
      wire t2;
      xor x2 (t2, q2, c1);
      dffr f2 (q2, clk, rst, t2);
      and rg (rst, q2, en);
      and yg (y, q1, q0);
    endmodule
"#;

#[test]
fn async_reset_across_clusters() {
    let nl = parse_and_elaborate(RESET_COUNTER).unwrap().into_netlist();
    for (k, seed) in [(2usize, 11u64), (3, 12), (2, 13)] {
        let gb = round_robin(&nl, k);
        assert_tw_matches_seq(&nl, &gb, k, 60, seed);
    }
}

/// The flop and latch paths no benchmark decoder takes (Viterbi has `dff`
/// only, one clock, no net on two pins of a gate). Period 10: data inputs
/// change at `t0`, `g`/`x`/`u`/`r1` one tick later, the clock rises at
/// `t0 + 5` — exactly when `r5`, five buffers behind `r`, changes.
///
/// From `bc` on, what a `dff` that is visited only when armed can get wrong.
/// `cb` and `cd` are the clock one buffer late: they rise in the epoch `q6`
/// changes in, `cb`'s event before `q6`'s and `cd`'s after it (`bc` < `f6` <
/// `bd` in gate order), and `qa`/`qb` must capture the *new* `q6`. `gl`
/// pulses for two ticks after every change of `r`, so `qc`'s data toggles
/// twice between edges and is back when the clock rises. `qd` is clocked by
/// a flop's output, `qe` is its own data through an inverter, `qf`'s data is
/// tied high (it differs from `q` before any event), and `w` — `xnor(a, a)`
/// — rises once, at `t = 1`, where the settling event and the first
/// vector's evaluation both schedule it.
const FLOP_PINS: &str = r#"
    module top(clk, a, b, r, q0, q1, q2, q3, q4, q5, q6, q7, q8, q9,
               qa, qb, qc, qd, qe, qf, qg);
      input clk, a, b, r;
      output q0, q1, q2, q3, q4, q5, q6, q7, q8, q9, qa, qb, qc, qd, qe, qf, qg;
      supply1 vdd;
      wire g, x, u, r1, r2, r3, r4, r5, nr3, cb, cd, gl, nqe, w;
      and   ga (g, a, b);
      xor   gx (x, a, r);
      xor   gu (u, b, r);
      buf   b1 (r1, r);
      buf   b2 (r2, r1);
      buf   b3 (r3, r2);
      buf   b4 (r4, r3);
      buf   b5 (r5, r4);
      not   nr (nr3, r2);
      buf   bc (cb, clk);
      dff   f0 (q0, g, g);
      dffr  f1 (q1, g, g, vdd);
      dffr  f2 (q2, clk, x, x);
      latch l3 (q3, x, x);
      dffr  f4 (q4, clk, r5, vdd);
      dffr  f5 (q5, clk, r1, vdd);
      dff   f6 (q6, clk, u);
      dff   f7 (q7, nr3, q5);
      latch l8 (q8, g, x);
      dff   f9 (q9, r3, q5);
      buf   bd (cd, clk);
      dff   fa (qa, cb, q6);
      dff   fb (qb, cd, q6);
      xor   gg (gl, r, r2);
      dff   fc (qc, clk, gl);
      dff   fd (qd, q6, a);
      not   ne (nqe, qe);
      dff   fe (qe, clk, nqe);
      dff   ff (qf, clk, vdd);
      xnor  gw (w, a, a);
      dff   fg (qg, w, vdd);
    endmodule
"#;

/// What [`FLOP_PINS`] is held to: every gate, every tick, from the previous
/// tick's values alone — no event queue, no reader lists, no notion of an
/// affected gate. Runs `cycles` vectors from nets at `init` and lets the last
/// one die out; `tick` sees the values before and after every tick.
fn oblivious_run(
    nl: &Netlist,
    stim: &VectorStimulus,
    cycles: u64,
    init: Logic,
    mut tick: impl FnMut(&[Logic], &[Logic]),
) -> Vec<Logic> {
    use dvs_sim::logic::{eval_combinational, is_posedge};
    use dvs_verilog::netlist::GateKind;

    let mut events = Vec::new();
    for cycle in 0..cycles {
        stim.events_for_cycle(cycle, &mut events);
    }
    let drive = |values: &mut [Logic], t: u64| {
        for e in events.iter().filter(|e| e.time == t) {
            values[e.net.idx()] = e.value;
        }
    };
    let mut before = vec![init; nl.net_count()];
    if let Some(c0) = nl.const0_net {
        before[c0.idx()] = Logic::Zero;
    }
    if let Some(c1) = nl.const1_net {
        before[c1.idx()] = Logic::One;
    }
    let mut now = before.clone();
    drive(&mut now, 0);
    for t in 0..stim.end_time(cycles) + 32 {
        tick(&before, &now);
        let mut next = now.clone();
        for (gi, g) in nl.gates.iter().enumerate() {
            let inputs = nl.inputs(GateId(gi as u32));
            let at = |pin: usize| now[inputs[pin].idx()];
            let rose = |pin: usize| is_posedge(before[inputs[pin].idx()], at(pin));
            let hold = now[g.output.idx()];
            next[g.output.idx()] = match g.kind {
                GateKind::Dff if rose(0) => at(1),
                GateKind::Dffr if at(1) == Logic::One => Logic::Zero,
                GateKind::Dffr if rose(0) => at(2),
                GateKind::Latch if at(0) == Logic::One => at(1),
                GateKind::Dff | GateKind::Dffr | GateKind::Latch => hold,
                kind => {
                    let ins: Vec<Logic> = inputs.iter().map(|n| now[n.idx()]).collect();
                    eval_combinational(kind, &ins)
                }
            };
        }
        drive(&mut next, t + 1);
        before = std::mem::replace(&mut now, next);
    }
    now
}

/// One net on two pins of a flop (`clk` = `d`, `clk` = `rst`, `rst` = `d`,
/// `en` = `d`), a reset released with the clock edge (`q4` captures at once)
/// and without one (`q5` holds: `q7`, which samples it two ticks after every
/// release, never sees a 1) and asserted without one (`q5` clears at once:
/// neither does `q9`, two ticks after every assertion), a net whose only
/// reader is a data pin (`u`), and the arming cases of [`FLOP_PINS`]:
/// `SeqSim` against the oblivious evaluator on every net after every vector,
/// from nets at 0 and from nets at `X`, then the kernel with every flop cut
/// off from its drivers.
#[test]
fn flop_pin_paths_match_an_oblivious_evaluator() {
    use dvs_sim::timewarp::{SchedulePolicy, Transport};
    use dvs_verilog::NetId;

    let nl = parse_and_elaborate(FLOP_PINS).unwrap().into_netlist();
    let net = |name: &str| {
        let named = |&n: &u32| nl.net_name(NetId(n)) == format!("top.{name}");
        NetId(
            (0..nl.net_count() as u32)
                .find(named)
                .unwrap_or_else(|| panic!("no net `{name}`")),
        )
    };
    let flops_apart: Vec<u32> = nl
        .gates
        .iter()
        .map(|g| g.kind.is_sequential() as u32)
        .collect();
    let cycles = 24;
    let mut released_with_edge = 0;
    let (mut qa_moved, mut qc_moved) = (false, false);
    for seed in [21, 22, 23] {
        let stim = VectorStimulus::from_netlist(&nl, 10, seed);
        for (vectors, init_zero) in (1..=cycles).flat_map(|v| [(v, true), (v, false)]) {
            let mut seq = SeqSim::new(
                &nl,
                &SimConfig {
                    cycles: vectors,
                    init_zero,
                },
            );
            seq.run(&stim, vectors, &mut NullObserver);
            let init = if init_zero { Logic::Zero } else { Logic::X };
            let want = oblivious_run(&nl, &stim, vectors, init, |_, _| {});
            for (ni, &want) in want.iter().enumerate() {
                let n = NetId(ni as u32);
                assert_eq!(
                    seq.value(n),
                    want,
                    "net `{}` after vector {vectors}, seed {seed}, init_zero {init_zero}",
                    nl.net_name(n)
                );
            }
            if !init_zero {
                continue;
            }
            assert_eq!(
                seq.value(net("q7")),
                Logic::Zero,
                "q5 moved without an edge"
            );
            assert_eq!(seq.value(net("q9")), Logic::Zero, "q5 waited for an edge");
            let r_at = |cycle: u64| stim.bit(net("r"), cycle);
            if vectors >= 2 && r_at(vectors - 2) == Logic::One && r_at(vectors - 1) == Logic::Zero {
                released_with_edge += 1;
                assert_eq!(seq.value(net("q4")), Logic::One, "edge lost at the release");
            }
            // The buffered clocks capture the `q6` of their own epoch, and
            // the pulse on `gl` is over at every edge.
            assert_eq!(seq.value(net("qa")), seq.value(net("q6")));
            assert_eq!(seq.value(net("qb")), seq.value(net("q6")));
            assert_eq!(seq.value(net("qf")), Logic::One, "armed by no event");
            assert_eq!(seq.value(net("qg")), Logic::One, "the t = 1 edge");
            qa_moved |= seq.value(net("qa")) == Logic::One;
            qc_moved |= seq.value(net("qc")) == Logic::One;
        }
        for policy in [SchedulePolicy::RoundRobin, SchedulePolicy::StragglerHeavy] {
            let cfg = TimeWarpConfig {
                transport: Transport::in_proc(seed, policy),
                ..TimeWarpConfig::default()
            };
            assert_tw_matches_seq_under(&nl, &flops_apart, 2, cycles, seed, &cfg);
        }
        assert_tw_matches_seq(&nl, &flops_apart, 2, cycles, seed);
        assert_tw_matches_seq(&nl, &round_robin(&nl, 2), 2, cycles, seed);
    }
    assert!(
        released_with_edge >= 6,
        "the seeds no longer release the reset"
    );
    assert!(qa_moved && !qc_moved, "qa {qa_moved}, qc {qc_moved}");
}

/// `profile_gate_activity` counts a `Dff` per rise of its clock net, not per
/// visit: on every gate it must equal the count the oblivious evaluator
/// takes, where a gate is triggered at a tick if a pin it reacts to changed
/// (any pin; a `Dff`'s clock rising; a `Dffr`'s clock rising or its reset).
#[test]
fn gate_activity_equals_an_oblivious_count() {
    use dvs_sim::logic::is_posedge;
    use dvs_verilog::netlist::GateKind;
    use dvs_workloads::seqcirc::{generate_counter, generate_lfsr};

    for src in [
        FLOP_PINS.to_string(),
        generate_counter(5),
        generate_lfsr(7, &[7, 1]),
    ] {
        let nl = parse_and_elaborate(&src).unwrap().into_netlist();
        let stim = VectorStimulus::from_netlist(&nl, 10, 21);
        let mut want = vec![0u64; nl.gate_count()];
        oblivious_run(&nl, &stim, 24, Logic::Zero, |before, now| {
            for (gi, (g, count)) in nl.gates.iter().zip(&mut want).enumerate() {
                let inputs = nl.inputs(GateId(gi as u32));
                let changed = |pin: usize| before[inputs[pin].idx()] != now[inputs[pin].idx()];
                let rose =
                    |pin: usize| is_posedge(before[inputs[pin].idx()], now[inputs[pin].idx()]);
                *count += match g.kind {
                    GateKind::Dff => rose(0),
                    GateKind::Dffr => rose(0) || changed(1),
                    _ => (0..inputs.len()).any(changed),
                } as u64;
            }
        });
        let got = dvs_core::activity::profile_gate_activity(&nl, &stim, 24);
        for (gi, (got, want)) in got.iter().zip(&want).enumerate() {
            // Idle gates are clamped to a weight of 1.
            assert_eq!(*got, (*want).max(1), "gate {gi} of {}", nl.gates.len());
        }
        assert!(want.iter().any(|&c| c > 1));
    }
}

/// A Viterbi decoder and its design-driven k=2, b=10 partition.
fn decoder(params: &dvs_workloads::viterbi::ViterbiParams) -> (Netlist, Vec<u32>) {
    use dvs_core::multiway::{partition_multiway, MultiwayConfig};

    let src = dvs_workloads::viterbi::generate_viterbi(params);
    let nl = parse_and_elaborate(&src).unwrap().into_netlist();
    let part = partition_multiway(&nl, &MultiwayConfig::new(2, 10.0));
    (nl, part.gate_blocks)
}

/// The 6 126-gate decoder of the `decoder_6k_process` workload.
fn decoder_6k() -> (Netlist, Vec<u32>) {
    use dvs_workloads::viterbi::ViterbiParams;

    decoder(&ViterbiParams {
        constraint_len: 6,
        ..ViterbiParams::paper_class()
    })
}

/// Threads bit-identity at a benchmark shape. The rounds depend on nothing
/// but the plan, so every counter is exact and pinned like the `InProc` one
/// below; free-running workers would move them from run to run.
#[test]
fn threads_match_sequential_on_the_6k_decoder() {
    let (nl, gate_blocks) = decoder_6k();
    let cfg = TimeWarpConfig::default();
    let tw = assert_tw_matches_seq_under(&nl, &gate_blocks, 2, 200, 1, &cfg);
    let s = &tw.stats;
    assert_eq!(
        (
            s.events,
            s.rolled_back_events,
            s.rollbacks,
            s.messages,
            s.anti_messages,
            tw.gvt_rounds
        ),
        (809_154, 230, 1, 14_245, 0, 2_020)
    );
}

/// The same decoder under the deterministic in-process transport, where every
/// counter is a pure function of the kernel's decision sequence: the values
/// below were recorded before the pending queue was replaced, so a queue that
/// pops in any other `(time, order)` order, or cancels anything else, moves
/// them.
#[test]
fn inproc_counters_are_pinned_on_the_6k_decoder() {
    use dvs_sim::timewarp::{SchedulePolicy, Transport};

    let (nl, gate_blocks) = decoder_6k();
    let cfg = TimeWarpConfig {
        transport: Transport::in_proc(2008, SchedulePolicy::RoundRobin),
        ..TimeWarpConfig::default()
    };
    let tw = assert_tw_matches_seq_under(&nl, &gate_blocks, 2, 200, 1, &cfg);
    let s = &tw.stats;
    assert_eq!(
        (
            s.events,
            s.rolled_back_events,
            s.rollbacks,
            s.messages,
            s.anti_messages,
            tw.gvt_rounds
        ),
        (1_055_270, 246_346, 429, 19_800, 5_555, 394)
    );
}

/// The benchmark decoders' flop share at a size tier-1 can afford:
/// `paper_class()` with a 512-deep survivor memory is 42 958 gates, about
/// 77 % of them flip-flops on one clock net — the shape of the 1.1 M-gate
/// decoder. Every number below was recorded with both event loops still
/// reading the `Netlist` through `Fanout`, so tables that list a reader in
/// another order, evaluate a gate once more or once less, or miss an export
/// move them.
#[test]
fn counters_are_pinned_on_the_flop_heavy_43k_decoder() {
    use dvs_sim::timewarp::{SchedulePolicy, Transport};
    use dvs_workloads::viterbi::ViterbiParams;

    let (nl, gate_blocks) = decoder(&ViterbiParams {
        survivor_depth: 512,
        ..ViterbiParams::paper_class()
    });
    assert_eq!(nl.gate_count(), 42_958);
    let (cycles, seed) = (50, 1);

    let stim = VectorStimulus::from_netlist(&nl, 10, seed);
    let mut seq = SeqSim::new(
        &nl,
        &SimConfig {
            cycles,
            init_zero: true,
        },
    );
    seq.run(&stim, cycles, &mut NullObserver);
    let s = seq.stats();
    assert_eq!(
        (s.events, s.gate_evals, s.net_toggles, s.end_time),
        (380_060, 2_175_200, 380_014, 520)
    );

    let cfg = TimeWarpConfig {
        transport: Transport::in_proc(2008, SchedulePolicy::RoundRobin),
        ..TimeWarpConfig::default()
    };
    let tw = assert_tw_matches_seq_under(&nl, &gate_blocks, 2, cycles, seed, &cfg);
    let s = &tw.stats;
    assert_eq!(
        (
            s.events,
            s.rolled_back_events,
            s.rollbacks,
            s.messages,
            s.anti_messages,
            tw.gvt_rounds
        ),
        (383_370, 19, 2, 3_191, 0, 87)
    );
    let evals: Vec<u64> = tw.cluster_stats.iter().map(|c| c.gate_evals).collect();
    assert_eq!(evals, [1_304_800, 887_808]);
    let canonical = dvs_sim::tw_run_canonical_json(&tw)
        .emit()
        .expect("canonical emit");
    let fnv1a = dvs_bench::scenario::fnv1a(canonical.as_bytes());
    assert_eq!(format!("{fnv1a:016x}"), "234c33e9cf722c05");
}

/// A `Threads` worker that panics, while its cluster is being built (its
/// export list reversed) or inside a round (a send to a cluster the run does
/// not have), ends the run at once as a typed `WorkerPanic` naming it. It
/// sits between its peers at k = 3, and both are released from the round's
/// barrier rather than left waiting for it.
#[test]
fn threads_worker_panic_is_typed_and_prompt() {
    let src = dvs_workloads::seqcirc::generate_counter(6);
    let nl = parse_and_elaborate(&src).unwrap().into_netlist();
    let stim = VectorStimulus::from_netlist(&nl, 10, 1);
    for k in [2, 3] {
        let plan = ClusterPlan::new(&nl, &round_robin(&nl, k), k);
        assert!(
            plan.clusters[1].exports.len() > 1,
            "cluster 1 needs two exports to reverse"
        );
        let mut reversed = plan.clone();
        reversed.clusters[1].exports.reverse();
        let mut stray = plan;
        for (_, readers) in &mut stray.clusters[1].exports {
            readers.push(k as u32);
        }
        for (plan, why) in [(reversed, "exports must ascend"), (stray, "out of bounds")] {
            let start = Instant::now();
            let outcome = run_timewarp(&nl, &plan, &stim, 20, &TimeWarpConfig::default());
            let took = start.elapsed();
            match outcome {
                Err(TimeWarpError::WorkerPanic {
                    cluster: 1,
                    message,
                }) => assert!(message.contains(why), "k = {k}, wrong panic: {message}"),
                other => panic!("k = {k}: expected cluster 1's panic ({why}), got {other:?}"),
            }
            assert!(
                took < Duration::from_secs(1),
                "k = {k}: the panic ({why}) took {took:?} to surface"
            );
        }
    }
}

#[test]
fn stats_are_plausible() {
    let nl = parse_and_elaborate(COUNTER).unwrap().into_netlist();
    let gb = round_robin(&nl, 2);
    let stim = VectorStimulus::from_netlist(&nl, 10, 7);
    let plan = ClusterPlan::new(&nl, &gb, 2);
    let tw = run_timewarp(&nl, &plan, &stim, 50, &TimeWarpConfig::default()).expect("run stalled");
    assert!(tw.stats.messages > 0, "cut circuit must communicate");
    assert_eq!(tw.cluster_stats.len(), 2);
    // Anti-messages only exist if rollbacks happened.
    if tw.stats.anti_messages > 0 {
        assert!(tw.stats.rollbacks > 0);
    }
    assert!(tw.stats.gate_evals > 0);
}
