//! The four workloads and the run state they share: samples, spans, the
//! operation count and the time budget.
//!
//! Every workload is a closed loop of one run at a time: set up at least three
//! times (timed), run every leg once untimed as a warm-up that also yields the
//! reference outputs, then repeat the legs until `--seconds` is spent.
//! A timed metric is the good-side quartile of its reps (see
//! [`quiet_quartile`]): the first quartile of times, the third of rates. The harness calls only public
//! functions of the crates and leaves every program default alone, so a
//! later change to a default is measured, not masked.

mod decoder;
mod flow;
mod probes;

use crate::metrics::{better_of, Outcome, Values, END_TO_END, PER_LAYER};
use crate::stats::quiet_quartile;
use crate::trace::Tracer;
use dvs_core::multiway::{partition_multiway, MultiwayConfig, MultiwayResult};
use dvs_verilog::design::{elaborate, ElabOptions};
use dvs_verilog::Netlist;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use std::collections::BTreeMap;
use std::time::Instant;

/// In the order of `BENCHMARK.json`.
pub const NAMES: [&str; 4] = [
    "decoder_1m_threads",
    "decoder_12k_threads",
    "decoder_6k_process",
    "flow_search",
];

/// Vector period and net initialisation of every simulated leg.
const PERIOD: u64 = 10;

/// A run sets up at least three times, and goes on (to 25 times) until it
/// has spent this long setting up, so that a 10 ms set-up is timed as
/// steadily as a 1.5 s one.
const SETUP_SECONDS: f64 = 1.5;

/// Gates a partition sample covers at least, so that the 7 ms partition of
/// a 12 k-gate decoder is timed over enough calls to be steady.
const GATES_PER_PARTITION_SAMPLE: usize = 200_000;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Stimulus seed; partitioner and scheduler seeds stay at their defaults.
    pub seed: u64,
    /// Wall seconds the timed reps may take.
    pub seconds: f64,
    /// Same code paths at 1/20 the vectors and two reps, for plumbing tests.
    pub quick: bool,
    /// Record spans, run the per-layer probes and report per-layer metrics.
    pub trace: bool,
}

/// Run the workload named `name`; `None` when there is none of that name.
pub fn run(name: &str, opts: Options) -> Option<(Outcome, Tracer)> {
    let mut run = Run::new(opts);
    match name {
        "decoder_1m_threads" => decoder::threads(&mut run, ViterbiParams::full_scale(), 50),
        "decoder_12k_threads" => decoder::threads(&mut run, ViterbiParams::paper_class(), 300),
        "decoder_6k_process" => decoder::process(&mut run, 200),
        "flow_search" => flow::flow_search(&mut run),
        _ => return None,
    }
    // Every sampled metric reads as the estimate over its samples, unless the
    // workload reported a value of its own under that name.
    for m in END_TO_END.iter().chain(PER_LAYER) {
        if !run.samples_of(m.name).is_empty() && !run.values.contains_key(m.name) {
            run.values.insert(m.name, run.estimate(m.name));
        }
    }
    run.values.insert("peak_rss_mb", peak_rss_mb());
    Some((
        Outcome {
            attempted: run.attempted,
            failed: run.failed,
            values: run.values,
        },
        run.tr,
    ))
}

/// State of one run of one workload.
pub struct Run {
    pub opts: Options,
    pub tr: Tracer,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Inside [`Run::warm_up`]: legs run and are checked, samples are dropped.
    warming: bool,
    pub values: Values,
    attempted: u64,
    failed: u64,
}

impl Run {
    fn new(opts: Options) -> Run {
        Run {
            opts,
            tr: Tracer::new(opts.trace),
            samples: BTreeMap::new(),
            warming: false,
            values: Values::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn sample(&mut self, key: &'static str, value: f64) {
        if !self.warming {
            self.samples.entry(key).or_default().push(value);
        }
    }

    fn samples_of(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// The run's estimate from the samples under `key`: their quartile on
    /// the good side (see [`quiet_quartile`]).
    fn estimate(&self, key: &str) -> f64 {
        quiet_quartile(self.samples_of(key), better_of(key))
    }

    /// Report `value` as metric `key`: a count, a single probe, or a value
    /// derived from estimates. Sampled metrics need no call; [`run`] reports
    /// the estimate of every one.
    fn report(&mut self, key: &'static str, value: f64) {
        self.values.insert(key, value);
    }

    /// Count one operation; a failed one is logged and fails the run.
    fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {why}");
        }
    }

    /// The workload's vector count, cut to 1/20 by `--quick`.
    fn vectors(&self, full: u64) -> u64 {
        if self.opts.quick {
            (full / 20).max(2)
        } else {
            full
        }
    }

    /// Set up repeatedly (see [`SETUP_SECONDS`]), each time timed into
    /// `setup_s`, dropping one result before building the next so that peak
    /// memory is one set-up's.
    fn set_up<T>(&mut self, mut build: impl FnMut(&mut Run) -> T) -> T {
        let start = Instant::now();
        let mut built = None;
        for i in 0..25 {
            if i >= 3 && start.elapsed().as_secs_f64() > SETUP_SECONDS {
                break;
            }
            drop(built.take());
            let open = self.tr.begin("setup");
            let v = build(self);
            let secs = self.tr.end(open);
            self.sample("setup_s", secs);
            built = Some(v);
        }
        built.expect("set up at least once")
    }

    /// Run every leg once before timing: caches fill, lazy set-up finishes,
    /// and the reference outputs are made. Operations count; samples do not.
    fn warm_up<T>(&mut self, legs: impl FnOnce(&mut Run) -> T) -> T {
        self.warming = true;
        let out = legs(self);
        self.warming = false;
        out
    }

    /// Repeat `rep` until the time budget is spent: a rep starts only while
    /// half of the longest rep so far still fits. At least three reps (four
    /// when traced, so that two run with recording on and two with it off;
    /// exactly two under `--quick`). A traced run records spans on even reps
    /// only; `rep` gets whether this one is recorded.
    fn measure(&mut self, mut rep: impl FnMut(&mut Run, bool)) {
        let min_reps = match (self.opts.quick, self.opts.trace) {
            (true, _) => 2,
            (false, true) => 4,
            (false, false) => 3,
        };
        let budget = if self.opts.quick {
            0.0
        } else {
            self.opts.seconds
        };
        let start = Instant::now();
        let mut longest = 0.0f64;
        for i in 0.. {
            let spent = start.elapsed().as_secs_f64();
            if i >= min_reps && spent + longest / 2.0 > budget {
                eprintln!("{i} timed reps in {spent:.2} s");
                break;
            }
            let recorded = self.opts.trace && i % 2 == 0;
            self.tr.recording = recorded;
            let t = Instant::now();
            rep(self, recorded);
            longest = longest.max(t.elapsed().as_secs_f64());
        }
        self.tr.recording = self.opts.trace;
    }

    /// Sample the wall of the workload's primary leg, apart for reps that
    /// recorded spans and reps that did not.
    fn sample_primary_wall(&mut self, recorded: bool, wall: f64) {
        let key = if recorded {
            "primary_wall_recorded_s"
        } else {
            "primary_wall_unrecorded_s"
        };
        self.sample(key, wall);
    }

    /// `trace.overhead_frac`: how much longer the primary leg took on the
    /// reps that recorded spans than on the reps that did not.
    fn report_trace_overhead(&mut self) {
        let on = self.estimate("primary_wall_recorded_s");
        let off = self.estimate("primary_wall_unrecorded_s");
        if self.opts.trace && off > 0.0 {
            self.report("trace.overhead_frac", on / off - 1.0);
        }
    }
}

/// Generate the decoder's Verilog, parse it and elaborate it to a netlist,
/// each stage timed.
fn front_end(run: &mut Run, params: &ViterbiParams) -> Netlist {
    let (src, generate_s) = run
        .tr
        .time("workloads.generate_viterbi", || generate_viterbi(params));
    let (unit, parse_s) = run.tr.time("verilog.parse", || {
        dvs_verilog::parse(&src).expect("generated decoder parses")
    });
    let (nl, elaborate_s) = run.tr.time("verilog.elaborate", || {
        elaborate(&unit, &ElabOptions::default())
            .expect("generated decoder elaborates")
            .into_netlist()
    });
    run.sample("workloads.generate_s", generate_s);
    run.sample("verilog.parse_s", parse_s);
    run.sample("verilog.elaborate_s", elaborate_s);
    let gates = nl.gate_count() as f64;
    run.sample("verilog.gates_per_s", gates / (parse_s + elaborate_s));
    nl
}

impl Run {
    /// The partitioner's counters for the workload's partition.
    fn report_partition(&mut self, part: &MultiwayResult) {
        self.report("core.cut_nets", part.cut as f64);
        self.report("core.flattens", part.flattens as f64);
        self.report("core.fm_rounds", part.fm_rounds as f64);
    }
}

/// One timed partition sample: `partition_multiway(k, b)` on `nl`, called as
/// often as covers [`GATES_PER_PARTITION_SAMPLE`]. Every result must be
/// balanced and equal to `reference` (the set-up's partition).
fn partition_sample(run: &mut Run, nl: &Netlist, k: u32, b: f64, reference: &MultiwayResult) {
    let gates = nl.gate_count();
    let calls = if run.opts.quick {
        1
    } else {
        GATES_PER_PARTITION_SAMPLE.div_ceil(gates)
    };
    let cfg = MultiwayConfig::new(k, b);
    let open = run.tr.begin("core.partition_multiway");
    let parts: Vec<MultiwayResult> = (0..calls).map(|_| partition_multiway(nl, &cfg)).collect();
    let secs = run.tr.end(open) / calls as f64;
    run.sample("partition_gates_per_s", gates as f64 / secs);
    run.sample("core.partition_wall_s", secs);
    run.sample("core.partition_s_per_100k_gates", secs * 1e5 / gates as f64);
    for part in &parts {
        run.sample("core.cone_s", part.cone_seconds);
        run.sample("core.refine_s", part.refine_seconds);
        run.op("partition_multiway", check_partition(part, reference));
    }
}

fn check_partition(part: &MultiwayResult, reference: &MultiwayResult) -> Result<(), String> {
    if !part.balanced {
        return Err(format!("unbalanced, loads {:?}", part.loads));
    }
    if part.cut != reference.cut
        || part.loads != reference.loads
        || part.gate_blocks != reference.gate_blocks
    {
        return Err(format!(
            "differs from the set-up's partition: cut {} loads {:?} vs cut {} loads {:?}",
            part.cut, part.loads, reference.cut, reference.loads
        ));
    }
    Ok(())
}

/// Peak resident memory of this process plus the largest child it waited
/// for (the process transport's workers), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let own_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);
    (own_kb + children_max_rss_kb()) / 1024.0
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_max_rss_kb() -> f64 {
    /// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
    /// fourteen `long`s of which `ru_maxrss` (in kB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the C
    // library expects on 64-bit Linux, and `getrusage` writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_max_rss_kb() -> f64 {
    0.0
}
