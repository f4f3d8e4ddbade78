//! Deterministic model of the paper's 4-node simulation cluster.
//!
//! The paper measures wall-clock time, message counts and rollback counts on
//! a cluster of AMD Athlon (1 GHz) machines connected by gigabit Ethernet,
//! running Clustered Time Warp over MPICH. We do not have that cluster; we
//! have something better for reproducibility: a **meta-simulation**. The
//! real workload is profiled exactly — the sequential kernel attributes
//! every gate evaluation and every cut-net toggle to a (machine, cycle)
//! bucket — and a discrete model of the machines' wall-clock progression
//! replays that workload with per-event CPU cost, per-message CPU overhead,
//! network latency and an optimism/rollback penalty. The model has one
//! calibration, that testbed's: the costs are the constants below, and
//! [`ClusterModelConfig::athlon_cluster`] is the only configuration.
//!
//! What the model preserves (and what the tables/figures need):
//!
//! * **message counts are exact**: one message per remote reader per cut-net
//!   toggle, exactly as DVS would send them;
//! * **load is exact**: per-machine event counts come from the real
//!   simulation of the real partition;
//! * **rollback counts and times are modeled**: a machine that finishes its
//!   share of a cycle early runs ahead optimistically; a message arriving
//!   after its local finish forces a rollback whose cost is proportional to
//!   how far ahead it got. This reproduces the paper's qualitative behaviour
//!   (more machines ⇒ more messages ⇒ more rollbacks; larger `b` ⇒ smaller
//!   cut ⇒ fewer messages and rollbacks; communication eventually overwhelms
//!   added parallelism).
//!
//! The simulation does not depend on the plan, only the attribution of its
//! events does: [`run_batch`] profiles one sequential run for any number of
//! candidate plans at once, and [`ClusterModel::run`] is its batch of one.
//!
//! Everything is deterministic given the stimulus seed.

use crate::cluster::ClusterPlan;
use crate::seq::{SeqSim, SimConfig, SimObserver};
use crate::stats::SimStats;
use crate::stimulus::VectorStimulus;
use crate::wheel::VTime;
use dvs_verilog::netlist::{GateId, GateKind, NetId, Netlist};
use std::collections::HashMap;
use std::time::Instant;

/// Modeled sequential nanoseconds per vector: the paper's 38.93 s for
/// 10 000 vectors on the 1 GHz Athlon. The per-event cost of a run is
/// derived from it, so the compute/communication balance that decides
/// speedup is the testbed's at every circuit scale and activity.
const SEQ_NS_PER_VECTOR: f64 = 3.893e6;
/// Per-event cost of a run with no cycle or no evaluation to anchor.
const UNANCHORED_EVENT_NS: f64 = 1_000.0;
/// CPU nanoseconds per message sent or received (the MPICH stack), fitted
/// so the per-cycle communication budget at the paper's best configuration
/// (k = 4, b = 7.5) reproduces its measured parallel inefficiency; see
/// EXPERIMENTS.md.
const MSG_CPU_NS: f64 = 5_000.0;
/// One-way gigabit-Ethernet latency of a small message.
const LATENCY_NS: f64 = 60_000.0;
/// Wasted-work multiplier on the wall-clock gap by which a machine had run
/// ahead when a straggler arrived.
const ROLLBACK_PENALTY: f64 = 0.5;

/// The calibrated paper-testbed model.
#[derive(Debug, Clone)]
pub struct ClusterModelConfig {
    /// Cycle-bucket cap: long runs are folded into at most this many
    /// buckets to bound memory (counts stay exact; timing granularity
    /// coarsens).
    max_buckets: usize,
}

impl ClusterModelConfig {
    /// The model of the paper's testbed. The gate count is ignored — the
    /// anchor is a cost per vector, the same at every design size.
    pub fn athlon_cluster(_actual_gates: usize) -> Self {
        ClusterModelConfig {
            max_buckets: 16_384,
        }
    }
}

/// Host wall-clock cost of one modeled cluster run, split by stage. These
/// are *measurement* times on the machine running the reproduction, not
/// modeled cluster times — they vary run to run and must never enter any
/// determinism comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTiming {
    /// Seconds spent profiling the workload with the sequential kernel:
    /// the one pass of [`run_batch`] ÷ the number of plans that shared it.
    pub profile_seconds: f64,
    /// Seconds spent meta-simulating the machines' wall clocks.
    pub model_seconds: f64,
}

/// Result of a modeled cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Aggregate statistics. `messages` and `events` are exact; `rollbacks`
    /// and `rolled_back_events` are modeled.
    pub stats: SimStats,
    /// Modeled parallel wall-clock seconds.
    pub wall_seconds: f64,
    /// Modeled one-machine wall-clock seconds for the same workload.
    pub seq_seconds: f64,
    /// `seq_seconds / wall_seconds`.
    pub speedup: f64,
    /// Exact per-machine gate-event counts.
    pub machine_events: Vec<u64>,
    /// Modeled per-machine rollback counts.
    pub machine_rollbacks: Vec<u64>,
    /// Exact per-machine sent-message counts.
    pub machine_messages: Vec<u64>,
    /// Host wall-clock cost of producing this run (profiling + modeling).
    pub timing: RunTiming,
}

/// Batch profiling observer: attributes every gate event and cut-net toggle
/// of **one** sequential run to (candidate plan, machine, cycle-bucket) for
/// all `n` candidate plans at once. A *slot* is a (candidate, machine) pair,
/// numbered candidate-major; `B` is the narrowest integer holding a slot.
struct Profiler<B> {
    n: usize,
    /// Slots: Σ k over the candidates.
    width: usize,
    /// Virtual time per bucket, and the number of buckets.
    bucket_span: VTime,
    buckets: usize,
    /// `counts[bucket * stride..][..stride]` is one bucket's row: gate events
    /// per slot, messages sent per slot, messages received per slot, then
    /// each candidate's k × k `(src, dst)` message cells.
    stride: usize,
    counts: Vec<u64>,
    /// Time of the last callback and the start of its bucket's row.
    /// Callbacks arrive in non-decreasing time, so the division of
    /// `time → bucket` runs once per distinct time.
    time: VTime,
    row: usize,
    /// `slots[gate * n + c]`: the gate's slot under candidate `c`.
    slots: Vec<B>,
    /// Per clock net, its `Dff`s per slot.
    dffs: HashMap<NetId, Vec<u64>>,
    /// CSR over nets: a toggle of `net` adds one at each row offset of
    /// `hops[hop_at[net]..hop_at[net + 1]]` — the `sent`, `recv` and message
    /// cell of every (candidate, destination) the net is cut towards.
    hop_at: Vec<u32>,
    hops: Vec<u32>,
}

impl<B: Copy + Into<u32>> Profiler<B> {
    #[inline]
    fn seek(&mut self, t: VTime) {
        if t != self.time {
            self.time = t;
            self.row = ((t / self.bucket_span) as usize).min(self.buckets - 1) * self.stride;
        }
    }
}

impl<B: Copy + Into<u32>> SimObserver for Profiler<B> {
    #[inline]
    fn gate_eval(&mut self, gate: GateId, time: VTime) {
        self.seek(time);
        let ev = &mut self.counts[self.row..][..self.width];
        for &s in &self.slots[gate.idx() * self.n..][..self.n] {
            ev[s.into() as usize] += 1;
        }
    }

    fn dffs_clocked(&mut self, net: NetId, time: VTime) {
        self.seek(time);
        let ev = &mut self.counts[self.row..][..self.width];
        for (ev, dffs) in ev.iter_mut().zip(&self.dffs[&net]) {
            *ev += dffs;
        }
    }

    #[inline]
    fn net_change(&mut self, net: NetId, time: VTime, _value: crate::logic::Logic) {
        let (lo, hi) = (self.hop_at[net.idx()], self.hop_at[net.idx() + 1]);
        if lo != hi {
            self.seek(time);
            for &at in &self.hops[lo as usize..hi as usize] {
                self.counts[self.row + at as usize] += 1;
            }
        }
    }
}

/// The deterministic cluster meta-simulation of one plan: the batch of one
/// of [`run_batch`].
pub struct ClusterModel<'a> {
    nl: &'a Netlist,
    plan: ClusterPlan,
    cfg: ClusterModelConfig,
}

impl<'a> ClusterModel<'a> {
    pub fn new(nl: &'a Netlist, plan: ClusterPlan, cfg: ClusterModelConfig) -> Self {
        ClusterModel { nl, plan, cfg }
    }

    /// Profile `cycles` vectors of `stim` and model the cluster's execution.
    pub fn run(&self, stim: &VectorStimulus, cycles: u64) -> ClusterRun {
        let mut runs = run_batch(self.nl, &[&self.plan], &self.cfg, stim, cycles);
        runs.pop().expect("one plan, one run")
    }
}

/// Profile `cycles` vectors of `stim` **once** on the sequential kernel and
/// model the cluster's execution under every plan of `plans`. The simulation
/// does not depend on the plan — only the attribution of its events does —
/// so each returned run is bit-identical to running its plan alone. Each
/// run's `timing.profile_seconds` is its equal share of the one pass.
pub fn run_batch(
    nl: &Netlist,
    plans: &[&ClusterPlan],
    cfg: &ClusterModelConfig,
    stim: &VectorStimulus,
    cycles: u64,
) -> Vec<ClusterRun> {
    // Slot ids are stored once per (gate, plan): pick the narrowest type.
    match plans.iter().map(|p| p.k).sum::<usize>() {
        0 => Vec::new(),
        w if w <= 1 << 8 => profile_and_model::<u8>(nl, plans, cfg, stim, cycles),
        w if w <= 1 << 16 => profile_and_model::<u16>(nl, plans, cfg, stim, cycles),
        _ => profile_and_model::<u32>(nl, plans, cfg, stim, cycles),
    }
}

fn profile_and_model<B: Copy + Into<u32> + TryFrom<u32>>(
    nl: &Netlist,
    plans: &[&ClusterPlan],
    cfg: &ClusterModelConfig,
    stim: &VectorStimulus,
    cycles: u64,
) -> Vec<ClusterRun> {
    let t_profile = Instant::now();
    let n = plans.len();
    let cycles_per_bucket = (cycles.div_ceil(cfg.max_buckets as u64)).max(1);
    let buckets = (cycles.div_ceil(cycles_per_bucket) as usize).max(1);

    // Each plan's first slot, and its first message cell within a row.
    let width: usize = plans.iter().map(|p| p.k).sum();
    let (mut slot, mut cell) = (0, 3 * width);
    let mut origin = Vec::with_capacity(n);
    for plan in plans {
        origin.push((slot, cell));
        slot += plan.k;
        cell += plan.k * plan.k;
    }

    let mut slots: Vec<B> = Vec::with_capacity(nl.gate_count() * n);
    for gate in 0..nl.gate_count() {
        for (plan, &(slot0, _)) in plans.iter().zip(&origin) {
            let slot = B::try_from(slot0 as u32 + plan.gate_block[gate]);
            slots.push(slot.ok().expect("run_batch sized B to hold every slot"));
        }
    }
    let mut dffs: HashMap<NetId, Vec<u64>> = HashMap::new();
    for (g, (gate, slots)) in nl.gates.iter().zip(slots.chunks(n)).enumerate() {
        if gate.kind == GateKind::Dff {
            let clock = nl.inputs(GateId(g as u32))[0];
            let per_slot = dffs.entry(clock).or_insert_with(|| vec![0; width]);
            for &s in slots {
                per_slot[s.into() as usize] += 1;
            }
        }
    }

    // The cut-net routing table, grouped by net.
    let mut routed: Vec<(NetId, [usize; 3])> = Vec::new();
    for (plan, &(slot0, cell0)) in plans.iter().zip(&origin) {
        for (src, cl) in plan.clusters.iter().enumerate() {
            for (net, dests) in &cl.exports {
                routed.extend(dests.iter().map(|&d| {
                    let sent = width + slot0 + src;
                    let recv = 2 * width + slot0 + d as usize;
                    (*net, [sent, recv, cell0 + src * plan.k + d as usize])
                }));
            }
        }
    }
    routed.sort_by_key(|&(net, _)| net);
    let mut hop_at = vec![0u32; nl.net_count() + 1];
    for (net, hop) in &routed {
        hop_at[net.idx() + 1] += hop.len() as u32;
    }
    for i in 0..nl.net_count() {
        hop_at[i + 1] += hop_at[i];
    }

    let mut prof = Profiler {
        n,
        width,
        bucket_span: stim.period * cycles_per_bucket,
        buckets,
        stride: cell, // one past the last plan's cells
        counts: vec![0; buckets * cell],
        time: VTime::MAX,
        row: 0,
        slots,
        dffs,
        hop_at,
        hops: routed
            .iter()
            .flat_map(|(_, hop)| hop.map(|at| at as u32))
            .collect(),
    };

    // Exact workload profile from the sequential kernel.
    let sim_cfg = SimConfig {
        cycles,
        init_zero: true,
    };
    let mut sim = SeqSim::new(nl, &sim_cfg);
    sim.run(stim, cycles, &mut prof);
    let profile_seconds = t_profile.elapsed().as_secs_f64() / n as f64;

    plans
        .iter()
        .zip(origin)
        .map(|(plan, at)| model(&prof, plan.k, at, sim.stats().clone(), profile_seconds))
        .collect()
}

/// Meta-simulate the wall clocks of the `k` machines of the plan whose slots
/// start at `slot0` and whose message cells start at row offset `cell0`.
fn model<B>(
    prof: &Profiler<B>,
    k: usize,
    (slot0, cell0): (usize, usize),
    base: SimStats,
    profile_seconds: f64,
) -> ClusterRun {
    let t_model = Instant::now();
    let (buckets, width) = (prof.buckets, prof.width);
    let at = |b: usize, offset: usize| prof.counts[b * prof.stride + offset];
    let ev = |b: usize, p: usize| at(b, slot0 + p);
    let sent = |b: usize, p: usize| at(b, width + slot0 + p);
    let recv = |b: usize, p: usize| at(b, 2 * width + slot0 + p);
    let msg = |b: usize, q: usize, p: usize| at(b, cell0 + q * k + p);

    let ev_ns = if base.gate_evals > 0 && base.cycles > 0 {
        SEQ_NS_PER_VECTOR * base.cycles as f64 / base.gate_evals as f64
    } else {
        UNANCHORED_EVENT_NS
    };

    let mut finish = vec![0.0f64; k]; // committed wall time per machine
    let mut start = vec![0.0f64; k]; // bucket start per machine
    let mut local = vec![0.0f64; k];
    let mut rollbacks = vec![0u64; k];
    let mut rolled_back_events = 0u64;
    let mut anti_messages = 0u64;
    let mut machine_events = vec![0u64; k];
    let mut machine_messages = vec![0u64; k];

    for b in 0..buckets {
        // Local finish: prior commit + compute + message CPU.
        for p in 0..k {
            let e = ev(b, p);
            machine_events[p] += e;
            machine_messages[p] += sent(b, p);
            start[p] = finish[p];
            local[p] = finish[p] + e as f64 * ev_ns + (sent(b, p) + recv(b, p)) as f64 * MSG_CPU_NS;
        }
        // Arrivals and rollbacks. A sender's messages are spread
        // uniformly over its compute span; the fraction arriving after
        // the receiver's local finish had a chance of straggling, and
        // the probability that at least one message of the batch was
        // late gives a smooth expected rollback count (saturating at
        // one rollback per sender per bucket, matching CTW behaviour
        // where a straggler batch triggers a single rollback).
        for p in 0..k {
            let mut latest_arrival = 0.0f64;
            let mut expected_rollbacks = 0.0f64;
            for q in 0..k {
                let mcount = msg(b, q, p);
                if q == p || mcount == 0 {
                    continue;
                }
                let a_first = start[q] + LATENCY_NS;
                let a_last = local[q] + LATENCY_NS;
                latest_arrival = latest_arrival.max(a_last);
                let spread = (a_last - a_first).max(1.0);
                let late_frac = ((a_last - local[p]) / spread).clamp(0.0, 1.0);
                if late_frac > 0.0 {
                    // P(at least one of mcount messages is late).
                    let p_roll = 1.0 - (1.0 - late_frac).powi(mcount.min(1_000) as i32);
                    expected_rollbacks += p_roll;
                }
            }
            rollbacks[p] += expected_rollbacks.round() as u64;
            if latest_arrival > local[p] {
                // The machine ran ahead by `gap` while waiting, then
                // redoes invalidated optimistic work. It cannot have
                // executed (and so cannot redo) more than its own
                // compute span worth of look-ahead, which bounds the
                // penalty and keeps the recurrence stable.
                let gap = latest_arrival - local[p];
                let span = (local[p] - start[p]).max(0.0);
                let undone = gap.min(span);
                let redo = undone * ROLLBACK_PENALTY;
                rolled_back_events += (undone / ev_ns) as u64;
                // Sends made during the undone optimistic span are
                // cancelled with anti-messages, pro rata over the span.
                if span > 0.0 {
                    anti_messages += ((undone / span) * sent(b, p) as f64).round() as u64;
                }
                finish[p] = latest_arrival + redo;
            } else {
                finish[p] = local[p];
            }
        }
    }

    let wall_ns: f64 = finish.iter().copied().fold(0.0, f64::max);
    let seq_ns = base.gate_evals as f64 * ev_ns;

    let mut stats = base;
    stats.messages = machine_messages.iter().sum();
    stats.rollbacks = rollbacks.iter().sum();
    stats.rolled_back_events = rolled_back_events;
    if k > 1 {
        // The modeled Time Warp bookkeeping: each cycle bucket ends in
        // one GVT advance that commits and reclaims the bucket's
        // history, so every committed event is eventually fossil
        // collected. A single machine runs no Time Warp machinery.
        stats.anti_messages = anti_messages;
        stats.gvt_rounds = buckets as u64;
        stats.fossil_collected = stats.events;
    }

    ClusterRun {
        wall_seconds: wall_ns / 1e9,
        seq_seconds: seq_ns / 1e9,
        speedup: if wall_ns > 0.0 { seq_ns / wall_ns } else { 1.0 },
        stats,
        machine_events,
        machine_rollbacks: rollbacks,
        machine_messages,
        timing: RunTiming {
            profile_seconds,
            model_seconds: t_model.elapsed().as_secs_f64(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_verilog::parse_and_elaborate;

    /// A chain of inverters with a few DFF stages — enough activity to
    /// profile.
    fn pipeline_netlist() -> Netlist {
        let mut src = String::from("module top(clk, a, y);\n input clk, a; output y;\n");
        let stages = 12;
        for i in 0..=stages {
            src.push_str(&format!(" wire w{i};\n"));
        }
        src.push_str(" buf b_in (w0, a);\n");
        for i in 0..stages {
            if i % 4 == 3 {
                src.push_str(&format!(" dff d{i} (w{}, clk, w{i});\n", i + 1));
            } else {
                src.push_str(&format!(" not n{i} (w{}, w{i});\n", i + 1));
            }
        }
        src.push_str(&format!(" buf b_out (y, w{stages});\n"));
        src.push_str("endmodule\n");
        parse_and_elaborate(&src).unwrap().into_netlist()
    }

    fn calibrated(nl: &Netlist) -> ClusterModelConfig {
        ClusterModelConfig::athlon_cluster(nl.gate_count())
    }

    fn block_split(nl: &Netlist, k: usize) -> Vec<u32> {
        // Contiguous split by gate index.
        let n = nl.gate_count();
        (0..n).map(|i| ((i * k) / n) as u32).collect()
    }

    #[test]
    fn single_machine_has_no_overhead() {
        let nl = pipeline_netlist();
        let plan = ClusterPlan::new(&nl, &vec![0; nl.gate_count()], 1);
        let model = ClusterModel::new(&nl, plan, calibrated(&nl));
        let stim = VectorStimulus::from_netlist(&nl, 10, 1);
        let run = model.run(&stim, 200);
        assert_eq!(run.stats.messages, 0);
        assert_eq!(run.stats.rollbacks, 0);
        assert!((run.speedup - 1.0).abs() < 1e-9);
        assert!(run.wall_seconds > 0.0);
        assert!(run.timing.profile_seconds > 0.0);
        assert!(run.timing.model_seconds >= 0.0);
    }

    #[test]
    fn messages_are_exact_and_deterministic() {
        let nl = pipeline_netlist();
        let gb = block_split(&nl, 2);
        let plan = ClusterPlan::new(&nl, &gb, 2);
        let model = ClusterModel::new(&nl, plan, calibrated(&nl));
        let stim = VectorStimulus::from_netlist(&nl, 10, 7);
        let r1 = model.run(&stim, 100);
        let r2 = model.run(&stim, 100);
        assert_eq!(r1.stats.messages, r2.stats.messages);
        assert_eq!(r1.stats.rollbacks, r2.stats.rollbacks);
        assert!(r1.stats.messages > 0, "split pipeline must communicate");
        assert_eq!(r1.machine_events.iter().sum::<u64>(), r1.stats.gate_evals);
    }

    #[test]
    fn more_cut_means_more_messages() {
        let nl = pipeline_netlist();
        let stim = VectorStimulus::from_netlist(&nl, 10, 3);
        // Contiguous split: cuts the chain once or twice.
        let good = ClusterPlan::new(&nl, &block_split(&nl, 2), 2);
        // Pathological split: alternate gates.
        let bad_gb: Vec<u32> = (0..nl.gate_count()).map(|i| (i % 2) as u32).collect();
        let bad = ClusterPlan::new(&nl, &bad_gb, 2);
        assert!(bad.cut_nets() > good.cut_nets());
        let cfg = calibrated(&nl);
        let rg = ClusterModel::new(&nl, good, cfg.clone()).run(&stim, 100);
        let rb = ClusterModel::new(&nl, bad, cfg).run(&stim, 100);
        assert!(
            rb.stats.messages > rg.stats.messages,
            "bad {} vs good {}",
            rb.stats.messages,
            rg.stats.messages
        );
        assert!(rb.wall_seconds > rg.wall_seconds);
    }

    #[test]
    fn bucket_folding_preserves_counts() {
        let nl = pipeline_netlist();
        let gb = block_split(&nl, 2);
        let stim = VectorStimulus::from_netlist(&nl, 10, 5);
        let small = ClusterModelConfig { max_buckets: 4 };
        let r_small = ClusterModel::new(&nl, ClusterPlan::new(&nl, &gb, 2), small).run(&stim, 100);
        let r_big =
            ClusterModel::new(&nl, ClusterPlan::new(&nl, &gb, 2), calibrated(&nl)).run(&stim, 100);
        assert_eq!(r_small.stats.messages, r_big.stats.messages);
        assert_eq!(r_small.stats.gate_evals, r_big.stats.gate_evals);
    }

    /// What the tables compare of a run, floats by bit pattern.
    fn exact(r: &ClusterRun) -> (SimStats, [u64; 3], [Vec<u64>; 3]) {
        (
            r.stats.clone(),
            [r.wall_seconds, r.seq_seconds, r.speedup].map(f64::to_bits),
            [
                r.machine_events.clone(),
                r.machine_messages.clone(),
                r.machine_rollbacks.clone(),
            ],
        )
    }

    #[test]
    fn buckets_split_the_run_in_time() {
        // One bucket for the whole run models every message as exchanged in
        // one round; a bucket per cycle does not. The exact counters agree,
        // the modeled clocks must not — they would if the profiler kept
        // attributing to the bucket of the first callback.
        let nl = pipeline_netlist();
        let plan = ClusterPlan::new(&nl, &block_split(&nl, 2), 2);
        let stim = VectorStimulus::from_netlist(&nl, 10, 5);
        let run = |max_buckets| {
            let cfg = ClusterModelConfig { max_buckets };
            ClusterModel::new(&nl, plan.clone(), cfg).run(&stim, 100)
        };
        let (one, per_cycle) = (run(1), run(16_384));
        assert_eq!(one.machine_events, per_cycle.machine_events);
        assert_eq!(one.machine_messages, per_cycle.machine_messages);
        assert_eq!((one.stats.gvt_rounds, per_cycle.stats.gvt_rounds), (1, 100));
        assert_ne!(one.wall_seconds.to_bits(), per_cycle.wall_seconds.to_bits());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// One pass over N plans is N passes over one plan each: mixed k in
        /// one batch (k = 1 included), a plan twice, folded and unfolded
        /// buckets, a pipeline and a small Viterbi decoder.
        #[test]
        fn batch_equals_separate_runs(
            seed in 0u64..1_000,
            ks in proptest::collection::vec(1usize..=4, 1..6),
            fold in proptest::prelude::any::<bool>(),
            viterbi in proptest::prelude::any::<bool>(),
        ) {
            use rand::{Rng, SeedableRng};
            let nl = if viterbi {
                let src = dvs_workloads::generate_viterbi(&dvs_workloads::ViterbiParams::tiny());
                parse_and_elaborate(&src).unwrap().into_netlist()
            } else {
                pipeline_netlist()
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut plans: Vec<ClusterPlan> = ks
                .iter()
                .map(|&k| {
                    let blocks: Vec<u32> =
                        (0..nl.gate_count()).map(|_| rng.gen_range(0..k as u32)).collect();
                    ClusterPlan::new(&nl, &blocks, k)
                })
                .collect();
            plans.push(plans[0].clone());
            let cfg = ClusterModelConfig {
                max_buckets: if fold { 4 } else { 16_384 },
            };
            let stim = VectorStimulus::from_netlist(&nl, 10, seed);
            let refs: Vec<&ClusterPlan> = plans.iter().collect();
            let batch = run_batch(&nl, &refs, &cfg, &stim, 30);
            proptest::prop_assert_eq!(batch.len(), plans.len());
            for (plan, fused) in plans.iter().zip(&batch) {
                let alone = ClusterModel::new(&nl, plan.clone(), cfg.clone()).run(&stim, 30);
                proptest::prop_assert_eq!(exact(fused), exact(&alone), "k = {}", plan.k);
                proptest::prop_assert_eq!(
                    fused.machine_events.iter().sum::<u64>(),
                    fused.stats.gate_evals
                );
            }
        }
    }

    /// Every run pays the paper's 3.893 ms per sequential vector, whatever
    /// the design size `athlon_cluster` is handed.
    #[test]
    fn calibration_pins_seq_time_per_cycle() {
        let nl = pipeline_netlist();
        let stim = VectorStimulus::from_netlist(&nl, 10, 1);
        let one = ClusterPlan::new(&nl, &vec![0; nl.gate_count()], 1);
        let run = ClusterModel::new(&nl, one, calibrated(&nl)).run(&stim, 100);
        let per_cycle = run.seq_seconds / 100.0;
        assert!((per_cycle - 3.893e-3).abs() < 1e-9, "per-cycle {per_cycle}");

        let two = ClusterPlan::new(&nl, &block_split(&nl, 2), 2);
        let runs: Vec<_> = [0, 12_238, 1_128_206]
            .map(|gates| {
                let cfg = ClusterModelConfig::athlon_cluster(gates);
                exact(&ClusterModel::new(&nl, two.clone(), cfg).run(&stim, 100))
            })
            .into();
        assert!(runs.windows(2).all(|w| w[0] == w[1]));
    }
}
