//! The one scenario harness behind every correctness suite.
//!
//! A [`Scenario`] is the whole description of a run — circuit, partition,
//! stimulus, kernel settings, executor, fault plan — and this module is the
//! one implementation of what the fuzz, kill, chaos and DST suites and
//! the golden test's wire cases do with it: [`Scenario::build`] the netlist,
//! plan and stimulus, [`Scenario::run`] them, hold the result to the
//! sequential simulator ([`Scenario::assert_sequential`]) or to another
//! run's [`canonical`] bytes ([`Dump::expect_identical`]), and leave a repro
//! under `target/tmp` when either fails ([`Dump::with_dump`] writes the
//! scenario's `Debug`, which reads as the Rust that rebuilds it). Another
//! circuit or executor is one more value of this type, not one more copy of
//! the pipeline. `CARGO_TARGET_TMPDIR` and `CARGO_BIN_EXE_tw_worker` exist
//! only while an integration test compiles, so the dump directory and the
//! worker path are arguments.

use dvs_core::{partition_multiway, tw_run_canonical_json, MultiwayConfig};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::dst::{first_cut_channel, run_deterministic, run_with_schedule};
use dvs_sim::timewarp::{
    run_timewarp, DstAction, DstView, FaultPlan, NetPlan, Schedule, SchedulePolicy, TimeWarpConfig,
    TimeWarpError, Transport, TwRunResult,
};
use dvs_verilog::{NetId, Netlist};
use dvs_workloads::random_hier::{generate_random_hier, RandomHierParams};
use dvs_workloads::seqcirc::{generate_counter, generate_lfsr};
use dvs_workloads::{generate_viterbi, ViterbiParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ffi::{OsStr, OsString};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The circuit under test.
#[derive(Debug, Clone)]
pub enum Circuit {
    /// `seqcirc::generate_counter(bits)`.
    Counter {
        bits: u32,
    },
    /// `seqcirc::generate_lfsr(bits, &[bits, 1])`.
    Lfsr {
        bits: u32,
    },
    Viterbi(ViterbiParams),
    RandomHier(RandomHierParams),
}

impl Circuit {
    /// The fuzzers' draw: a `bits`-bit counter, or the LFSR of that width.
    pub fn seqcirc(counter: bool, bits: u32) -> Circuit {
        if counter {
            Circuit::Counter { bits }
        } else {
            Circuit::Lfsr { bits }
        }
    }

    /// The random hierarchy `timewarp_cross` runs. Seeds 1 and 8 each have a
    /// primary input no gate reads.
    pub fn random_hier(seed: u64) -> Circuit {
        Circuit::RandomHier(RandomHierParams {
            seed,
            gates_per_module: 8,
            ..RandomHierParams::default()
        })
    }
}

/// How the gates are spread over clusters.
#[derive(Debug, Clone)]
pub enum Partition {
    /// A seeded random gate→cluster assignment with every cluster non-empty.
    Random { k: usize, seed: u64 },
    /// The design-driven partitioner at `MultiwayConfig::new(k, b)`.
    Multiway { k: u32, b: f64 },
    /// An explicit per-gate assignment over `max + 1` clusters, repeated
    /// cyclically over the gates: `vec![0, 1]` deals them out round-robin.
    Blocks(Vec<u32>),
}

/// What runs the clusters.
#[derive(Debug, Clone)]
pub enum Executor {
    /// One OS thread per cluster, in lock-step rounds.
    Threads,
    /// The deterministic executor, called directly: `check` forces the
    /// protocol invariants on whatever the build profile.
    Dst {
        seed: u64,
        policy: SchedulePolicy,
        check: bool,
    },
    /// [`run_timewarp`] on this transport.
    Wire(Transport),
}

/// One run, fully described. Fields are public: a suite states its fixture
/// as values and varies it with the `with`-style methods or struct update.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub circuit: Circuit,
    pub partition: Partition,
    pub stim_seed: u64,
    pub cycles: u64,
    pub window: u64,
    pub epochs_per_quantum: usize,
    pub executor: Executor,
    pub fault: FaultPlan,
    pub chaos: Option<NetPlan>,
    /// The TCP silence deadline; `None` keeps the kernel's.
    pub silence: Option<Duration>,
}

/// What [`Scenario::build`] elaborates — the expensive, executor-independent
/// half of a scenario, built once and shared by every leg of a suite.
pub struct Built {
    pub nl: Netlist,
    pub plan: ClusterPlan,
    pub stim: VectorStimulus,
}

impl Scenario {
    /// `circuit` under `partition` for `cycles` vectors of period 10, on the
    /// tight kernel the suites share (window 8, 2 epochs per quantum), on
    /// plain threads, undisturbed.
    pub fn new(circuit: Circuit, partition: Partition, stim_seed: u64, cycles: u64) -> Scenario {
        Scenario {
            circuit,
            partition,
            stim_seed,
            cycles,
            window: 8,
            epochs_per_quantum: 2,
            executor: Executor::Threads,
            fault: FaultPlan::default(),
            chaos: None,
            silence: None,
        }
    }

    /// The fixture of the kill, chaos, DST and golden suites: the tiny
    /// Viterbi decoder, design-driven 3-way partition at b = 20.
    pub fn tiny_viterbi(stim_seed: u64, cycles: u64) -> Scenario {
        let three_way = Partition::Multiway { k: 3, b: 20.0 };
        Scenario::new(
            Circuit::Viterbi(ViterbiParams::tiny()),
            three_way,
            stim_seed,
            cycles,
        )
    }

    /// This scenario on another executor.
    pub fn on(&self, executor: Executor) -> Scenario {
        Scenario {
            executor,
            ..self.clone()
        }
    }

    /// This scenario on the deterministic executor with the checking
    /// [`run_timewarp`] gives `Transport::InProc`: on in debug builds.
    pub fn in_proc(&self, seed: u64, policy: SchedulePolicy) -> Scenario {
        let check = cfg!(debug_assertions);
        self.on(Executor::Dst {
            seed,
            policy,
            check,
        })
    }

    /// This scenario under another fault plan.
    pub fn faulted(&self, fault: FaultPlan) -> Scenario {
        Scenario {
            fault,
            ..self.clone()
        }
    }

    /// Elaborate the circuit, partition it and derive the stimulus.
    pub fn build(&self) -> Built {
        let src = match &self.circuit {
            Circuit::Counter { bits } => generate_counter(*bits),
            Circuit::Lfsr { bits } => generate_lfsr(*bits, &[*bits, 1]),
            Circuit::Viterbi(p) => generate_viterbi(p),
            Circuit::RandomHier(p) => generate_random_hier(p),
        };
        let nl = dvs_verilog::parse_and_elaborate(&src)
            .unwrap_or_else(|e| panic!("the circuit does not elaborate: {e}"))
            .into_netlist();
        let (blocks, k) = match &self.partition {
            Partition::Random { k, seed } => (random_partition(&nl, *k, *seed), *k),
            Partition::Multiway { k, b } => {
                let part = partition_multiway(&nl, &MultiwayConfig::new(*k, *b));
                (part.gate_blocks, *k as usize)
            }
            Partition::Blocks(blocks) => {
                let k = blocks.iter().max().map_or(1, |&m| m as usize + 1);
                let dealt = blocks.iter().copied().cycle().take(nl.gate_count());
                (dealt.collect(), k)
            }
        };
        let plan = ClusterPlan::new(&nl, &blocks, k);
        let stim = VectorStimulus::from_netlist(&nl, 10, self.stim_seed);
        Built { nl, plan, stim }
    }

    fn config(&self) -> TimeWarpConfig {
        let transport = match &self.executor {
            Executor::Threads => Transport::Threads,
            Executor::Dst { seed, policy, .. } => Transport::in_proc(*seed, *policy),
            Executor::Wire(transport) => transport.clone(),
        };
        let mut cfg = TimeWarpConfig {
            transport,
            window: self.window,
            epochs_per_quantum: self.epochs_per_quantum,
            fault: self.fault,
            chaos: self.chaos.clone(),
            ..TimeWarpConfig::default()
        };
        if let Some(silence) = self.silence {
            cfg.silence_timeout = silence;
        }
        cfg
    }

    /// `(seed, policy, check)` of the deterministic executor.
    fn dst(&self) -> Option<(u64, SchedulePolicy, bool)> {
        match self.executor {
            Executor::Dst {
                seed,
                policy,
                check,
            } => Some((seed, policy, check)),
            _ => None,
        }
    }

    /// Run on `built` — with [`Scenario::record`], the one place that picks
    /// the kernel's entry point.
    pub fn run(&self, built: &Built) -> Result<TwRunResult, TimeWarpError> {
        let (cfg, n, b) = (self.config(), self.cycles, built);
        match self.dst() {
            Some((seed, policy, check)) => {
                cfg.validate()?;
                run_deterministic(&b.nl, &b.plan, &b.stim, n, &cfg, seed, &policy, check)
            }
            None => run_timewarp(&b.nl, &b.plan, &b.stim, n, &cfg),
        }
    }

    /// [`Scenario::run`], panicking with the scenario on a kernel error.
    pub fn run_ok(&self, built: &Built) -> TwRunResult {
        self.run(built)
            .unwrap_or_else(|e| panic!("time warp run failed: {e}\n{self:#?}"))
    }

    /// Run on the deterministic executor and also hand back every decision
    /// its schedule made.
    pub fn record(&self, b: &Built) -> (TwRunResult, Vec<DstAction>) {
        let (seed, policy, check) = self.dst().expect("only Executor::Dst makes decisions");
        let mut schedule = Recording {
            inner: policy.build(seed),
            decisions: Vec::new(),
        };
        let cfg = self.config();
        let (n, sched) = (self.cycles, &mut schedule);
        let tw = run_with_schedule(&b.nl, &b.plan, &b.stim, n, &cfg, sched, check, "recording");
        (tw.expect("recording run failed"), schedule.decisions)
    }

    /// The sequential simulator after the same vectors: the reference.
    pub fn reference(&self, built: &Built) -> SeqSim {
        let cfg = SimConfig {
            cycles: self.cycles,
            init_zero: true,
        };
        let mut seq = SeqSim::new(&built.nl, &cfg);
        seq.run(&built.stim, self.cycles, &mut NullObserver);
        seq
    }

    /// The oracle: `tw` ends in the sequential simulator's state on every
    /// net [`SeqSim::mismatches`] compares.
    pub fn assert_sequential(&self, built: &Built, tw: &TwRunResult, label: &str) {
        let (nl, seq) = (&built.nl, self.reference(built));
        let show = |n: &NetId| {
            let (name, tw, seq) = (nl.net_name(*n), tw.values[n.idx()], seq.value(*n));
            format!("{name} tw={tw:?} seq={seq:?}")
        };
        let wrong: Vec<String> = seq.mismatches(nl, &tw.values).iter().map(show).collect();
        assert!(
            wrong.is_empty(),
            "{label}: differs from sequential on {wrong:?}"
        );
    }
}

/// Two runs that must be indistinguishable — a recovered one and an
/// undisturbed one — field for field.
pub fn assert_same_run(got: &TwRunResult, want: &TwRunResult, label: &str) {
    assert_eq!(got.stats, want.stats, "{label}: merged stats diverged");
    let (a, b) = (&got.cluster_stats, &want.cluster_stats);
    assert_eq!(a, b, "{label}: per-cluster stats diverged");
    assert_eq!(got.values, want.values, "{label}: final values diverged");
    assert_eq!(
        got.gvt_rounds, want.gvt_rounds,
        "{label}: GVT rounds diverged"
    );
}

/// The first burst in `decisions` — three consecutive deliveries on one
/// channel, i.e. a delivery run of at least three: the index of its first
/// decision and the receiving cluster.
pub fn first_burst(decisions: &[DstAction]) -> Option<(usize, u32)> {
    let start = decisions
        .windows(3)
        .position(|w| matches!(w[0], DstAction::Deliver { .. }) && w[0] == w[1] && w[1] == w[2])?;
    match decisions[start] {
        DstAction::Deliver { dst, .. } => Some((start, dst)),
        DstAction::Step(_) => unreachable!("a burst is made of deliveries"),
    }
}

/// A seeded random gate→cluster assignment with every cluster non-empty.
fn random_partition(nl: &Netlist, k: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = nl.gate_count();
    let mut gb: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
    for (i, slot) in gb.iter_mut().enumerate().take(k.min(n)) {
        *slot = i as u32;
    }
    gb
}

/// The canonical artifact of a run — what byte-identity is asserted on.
pub fn canonical(tw: &TwRunResult) -> String {
    tw_run_canonical_json(tw).emit().expect("canonical emit")
}

/// The four schedule families every sweep covers, `DelayChannel` holding
/// the plan's first cut channel (seeded-random again when nothing is cut).
pub fn policies(plan: &ClusterPlan) -> [SchedulePolicy; 4] {
    let delay = first_cut_channel(plan).map_or(SchedulePolicy::SeededRandom, |(src, dst)| {
        SchedulePolicy::DelayChannel { src, dst }
    });
    [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::SeededRandom,
        SchedulePolicy::StragglerHeavy,
        delay,
    ]
}

/// A policy's schedule that also notes down every decision it makes. Its
/// fork is the policy's own, so it sizes delivery runs exactly as the
/// policy does.
struct Recording {
    inner: Box<dyn Schedule + Send>,
    decisions: Vec<DstAction>,
}

impl Schedule for Recording {
    fn next(&mut self, view: &DstView<'_>) -> DstAction {
        let action = self.inner.next(view);
        self.decisions.push(action);
        action
    }

    fn fork(&self) -> Option<Box<dyn Schedule + Send>> {
        self.inner.fork()
    }
}

/// 64-bit FNV-1a over canonical artifact bytes: a compact exact pin of an
/// entire run (final values, counters, ordering).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Serialize the tests of one binary (the static is one per test process):
/// the wire suites spawn a worker process per cluster, steer workers through
/// the process environment, and time out on real wall-clock deadlines.
pub fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

/// A process-wide environment variable, set while this guard lives. Its
/// previous value comes back on `Drop` — after the run or while a panic
/// unwinds — so a failed test leaves no hook armed for the tests [`serial`]
/// lets in after it.
pub struct EnvGuard {
    name: &'static str,
    previous: Option<OsString>,
}

impl EnvGuard {
    pub fn set(name: &'static str, value: impl AsRef<OsStr>) -> EnvGuard {
        let previous = std::env::var_os(name);
        std::env::set_var(name, value);
        EnvGuard { name, previous }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match self.previous.take() {
            Some(value) => std::env::set_var(self.name, value),
            None => std::env::remove_var(self.name),
        }
    }
}

/// Where a suite leaves its repros: `<dir>/<prefix>_*.txt`, the names CI
/// uploads.
#[derive(Clone, Copy)]
pub struct Dump {
    dir: &'static str,
    prefix: &'static str,
}

impl Dump {
    /// `dir` is the test binary's `env!("CARGO_TARGET_TMPDIR")`.
    pub const fn new(dir: &'static str, prefix: &'static str) -> Dump {
        Dump { dir, prefix }
    }

    fn write(&self, name: &str, body: &str) -> std::path::PathBuf {
        let slug: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = Path::new(self.dir).join(format!("{}_{slug}.txt", self.prefix));
        let _ = std::fs::create_dir_all(self.dir);
        let _ = std::fs::write(&path, body);
        path
    }

    /// Byte-identity of two canonical artifacts; on a mismatch both land in
    /// `<prefix>_<label>.txt`.
    pub fn expect_identical(&self, expected: &str, got: &str, label: &str) {
        if expected != got {
            let body = format!(
                "scenario: {label}\n\n--- expected ---\n{expected}\n\n--- got ---\n{got}\n"
            );
            let path = self.write(label, &body);
            panic!("{label}: artifact diverged from the expected one (dumped to {path:?})");
        }
    }

    /// Run `f` on `scenario`; when it panics, write the scenario and the
    /// message to `<prefix>_<test>_<hash of the scenario>.txt` — one file per
    /// test and case, so concurrently failing tests and the shrunk cases of
    /// one proptest run never clobber each other — and resume the panic.
    pub fn with_dump(&self, scenario: &Scenario, test: &str, f: impl FnOnce(&Scenario)) {
        use std::hash::{Hash, Hasher};
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(scenario)));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            let dump = format!("failing case ({test}):\n{scenario:#?}\n\npanic: {msg}\n");
            let mut h = std::collections::hash_map::DefaultHasher::new();
            format!("{scenario:?}").hash(&mut h);
            self.write(&format!("{test}_{:016x}", h.finish()), &dump);
            eprintln!("{dump}");
            std::panic::resume_unwind(payload);
        }
    }
}
