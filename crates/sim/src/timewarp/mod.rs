//! Clustered Time Warp — the optimistic parallel simulation kernel.
//!
//! This reproduces the role of OOCTW (the object-oriented Clustered Time
//! Warp kernel underneath the paper's DVS) with threads standing in for MPI
//! ranks: one worker thread per "machine", each owning one cluster of the
//! partitioned circuit, exchanging timestamped net-change messages over
//! channels.
//!
//! Protocol features implemented:
//!
//! * **optimistic execution** — each cluster processes its earliest pending
//!   epoch without waiting for neighbours, bounded by an optional optimism
//!   window above GVT;
//! * **state saving** — an incremental undo log of (time, net, old-value)
//!   records. It is cluster-level: gates inside a cluster save nothing
//!   individually, and a rollback of the cluster rolls back all of its
//!   children together, exactly as the paper describes for
//!   Verilog-instance LPs (§4.3);
//! * **rollback** — a straggler or anti-message with a timestamp at or below
//!   the cluster's local clock restores net values from the undo log,
//!   requeues processed events that remain valid, discards locally scheduled
//!   events created by undone epochs, and emits anti-messages for undone
//!   sends;
//! * **anti-messages with annihilation** — positive messages always precede
//!   their anti-message in channel order (FIFO per sender), so when the
//!   anti-message arrives its positive is in the pending queue (put back by
//!   the rollback if it had been processed) and is removed from its
//!   time bucket on the spot;
//! * **GVT** — a coordinator-free sampling scheme: each worker publishes its
//!   local virtual time; a sample is valid when no message is in transit and
//!   no send intervened (checked with a send-epoch counter), making the
//!   minimum published LVT a correct lower bound;
//! * **fossil collection** — undo-log, processed-event and output-log
//!   entries strictly below GVT are reclaimed.
//!
//! Determinism: the final circuit state equals the sequential simulator's
//! (asserted in tests) under every transport. Under [`Transport::Threads`]
//! the message/rollback *counts* depend on thread timing; under
//! [`Transport::InProc`], [`Transport::Process`] and [`Transport::Tcp`]
//! the same cluster state machines are driven by the single-threaded
//! deterministic supervisor (see [`dst`] and [`transport`]) and every
//! counter is an exact, seed-reproducible value — byte-identical between
//! them, whether the workers are in-process state machines, `SIGKILL`-able
//! OS processes on Unix sockets, or processes dialing in over TCP.
//! ([`crate::cluster_model`] remains as the fast *modeled* estimate of
//! those counts for pre-simulation sweeps.)

pub mod chaos;
pub mod checkpoint;
pub mod dst;
pub mod error;
pub mod gvt;
pub mod proc;
pub mod recovery;
pub mod transport;
pub mod wire;

pub use chaos::{NetDir, NetFault, NetFaultKind, NetPlan};
pub use checkpoint::{Checkpoint, CkptEvent, CkptSource, CHECKPOINT_SCHEMA};
pub use dst::{DstAction, DstView, Schedule, SchedulePolicy};
pub use error::TimeWarpError;
pub use recovery::{FaultPlan, RecoveryOutcome};
pub use transport::{serve_worker, serve_worker_tcp, TcpWorkers, Transport};

use crate::cluster::ClusterPlan;
use crate::logic::Logic;
use crate::stats::SimStats;
use crate::stimulus::VectorStimulus;
use crate::wheel::{NetEvent, VTime};
use dvs_verilog::netlist::Netlist;
use gvt::GvtState;
use proc::ClusterProcess;
use recovery::PanicInjector;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A timestamped inter-cluster message. `(src, seq)` identifies the
/// positive message its anti-message annihilates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwMessage {
    pub src: u32,
    pub dst: u32,
    pub seq: u64,
    pub ev: NetEvent,
    pub anti: bool,
}

/// Kernel tuning parameters. Construct via [`TimeWarpConfig::builder`]
/// (see [`TimeWarpBuilder`]) — the struct is `#[non_exhaustive]`, so
/// literal construction is reserved to this crate and new knobs can be
/// added without breaking downstream code.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TimeWarpConfig {
    /// How the cluster workers execute and exchange messages (see
    /// [`Transport`]).
    pub transport: Transport,
    /// Epochs processed per scheduling quantum: the span between two
    /// publications of local virtual time, GVT attempts (one per quantum;
    /// under the deterministic executor, one every this many decisions) and
    /// fossil collections. Incoming messages are taken before every epoch.
    pub epochs_per_quantum: usize,
    /// Optimism window: a cluster will not execute events more than this far
    /// (in virtual time) above the current GVT. `u64::MAX` = unthrottled.
    /// Gate-level circuits are tightly coupled (every vector cycle crosses
    /// the cut), so small windows — a few vector periods — avoid rollback
    /// storms; this mirrors CTW practice of throttling cluster optimism.
    pub window: VTime,
    /// Crash-fault injection and recovery plan (see [`FaultPlan`]). The
    /// default injects nothing; recovery machinery is only engaged when a
    /// crash is armed.
    pub fault: FaultPlan,
    /// Scheduler-noise injection for [`Transport::Threads`]: when set, each
    /// worker derives a seeded RNG from this value and sprinkles
    /// `yield_now` / short sleeps between scheduling quanta. Final state is
    /// unaffected (that is what the threads fuzz suite asserts); only
    /// thread interleaving — and therefore rollback/message counts —
    /// varies. `None` (the default) injects nothing.
    pub thread_jitter: Option<u64>,
    /// TCP heartbeat idle interval: when a response is this late, the
    /// supervisor counts a missed beat and probes the worker with a
    /// `ping`. Default 1 s.
    pub heartbeat_interval: std::time::Duration,
    /// Consecutive missed beats before the supervisor declares the
    /// connection half-open and tears it down for recovery. Detection
    /// latency is bounded by `heartbeat_interval × heartbeat_budget`
    /// (default 30 × 1 s — the same 30 s envelope the plain read timeout
    /// used to give, but recoverable instead of fatal).
    pub heartbeat_budget: u32,
    /// Deterministic network fault injection for the wire transports (see
    /// [`NetPlan`]). `None` injects nothing.
    pub chaos: Option<NetPlan>,
}

/// How a cluster preserves enough history to roll back. One variant: the
/// type (and the sixth parameter of [`ClusterProcess::new`]) stays only
/// because `benchmark/src/workloads/probes.rs` names both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StateSaving {
    /// Log `(time, net, old value)` per change; rollback replays the log
    /// backwards.
    IncrementalUndo,
}

impl Default for TimeWarpConfig {
    fn default() -> Self {
        TimeWarpConfig {
            transport: Transport::Threads,
            epochs_per_quantum: 16,
            window: 16,
            fault: FaultPlan::default(),
            thread_jitter: None,
            heartbeat_interval: std::time::Duration::from_millis(DEFAULT_HEARTBEAT_MS),
            heartbeat_budget: DEFAULT_HEARTBEAT_BUDGET,
            chaos: None,
        }
    }
}

/// Livelock watchdog: when GVT makes no progress for this many scheduling
/// decisions (deterministic executor) or idle scheduling quanta (threaded
/// executor), the run fails with [`TimeWarpError::Stalled`] instead of
/// hanging.
pub(crate) const STALL_LIMIT: u64 = 5_000_000;

const DEFAULT_HEARTBEAT_MS: u64 = 1_000;
const DEFAULT_HEARTBEAT_BUDGET: u32 = 30;

impl TimeWarpConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> TimeWarpBuilder {
        TimeWarpBuilder::new()
    }
}

/// Builder for [`TimeWarpConfig`] — the only way to construct one outside
/// this crate. Invalid combinations are rejected by [`build`] with
/// [`TimeWarpError::InvalidConfig`] instead of panicking mid-run.
///
/// ```
/// use dvs_sim::timewarp::{SchedulePolicy, TimeWarpConfig, Transport};
///
/// let cfg = TimeWarpConfig::builder()
///     .transport(Transport::in_proc(0xFA17, SchedulePolicy::RoundRobin))
///     .window(32)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.window, 32);
/// ```
///
/// [`build`]: TimeWarpBuilder::build
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct TimeWarpBuilder {
    cfg: TimeWarpConfig,
}

impl TimeWarpBuilder {
    /// A builder initialized with the default configuration.
    pub fn new() -> Self {
        TimeWarpBuilder {
            cfg: TimeWarpConfig::default(),
        }
    }

    /// Select the worker transport (see [`Transport`]).
    pub fn transport(mut self, transport: Transport) -> Self {
        self.cfg.transport = transport;
        self
    }

    /// Epochs processed per scheduling quantum, i.e. per GVT attempt.
    pub fn epochs_per_quantum(mut self, epochs: usize) -> Self {
        self.cfg.epochs_per_quantum = epochs;
        self
    }

    /// Optimism window above GVT (`u64::MAX` = unthrottled).
    pub fn window(mut self, window: VTime) -> Self {
        self.cfg.window = window;
        self
    }

    /// Crash-fault injection and recovery plan.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.cfg.fault = fault;
        self
    }

    /// Inject seeded scheduler noise into the threaded transport.
    pub fn thread_jitter(mut self, seed: u64) -> Self {
        self.cfg.thread_jitter = Some(seed);
        self
    }

    /// TCP heartbeat idle interval.
    pub fn heartbeat_interval(mut self, d: std::time::Duration) -> Self {
        self.cfg.heartbeat_interval = d;
        self
    }

    /// Consecutive missed heartbeats tolerated before the connection is
    /// declared half-open and torn down for recovery.
    pub fn heartbeat_budget(mut self, budget: u32) -> Self {
        self.cfg.heartbeat_budget = budget;
        self
    }

    /// Attach a deterministic network fault plan (see [`NetPlan`]).
    pub fn chaos(mut self, plan: NetPlan) -> Self {
        self.cfg.chaos = Some(plan);
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<TimeWarpConfig, TimeWarpError> {
        let invalid = |reason: &str| TimeWarpError::InvalidConfig {
            reason: reason.to_string(),
        };
        if self.cfg.epochs_per_quantum == 0 {
            return Err(invalid("epochs_per_quantum must be at least 1"));
        }
        if let Transport::Tcp { listen, .. } = &self.cfg.transport {
            if listen.is_empty() {
                return Err(invalid("Transport::Tcp listen address must not be empty"));
            }
        }
        if self.cfg.heartbeat_budget == 0 {
            return Err(invalid("heartbeat budget must be at least 1 missed beat"));
        }
        if self.cfg.heartbeat_interval.is_zero() {
            return Err(invalid("heartbeat interval must be longer than zero"));
        }
        Ok(self.cfg)
    }
}

/// Outcome of a Time Warp run.
#[derive(Debug, Clone)]
pub struct TwRunResult {
    /// Merged statistics over all clusters.
    pub stats: SimStats,
    /// Per-cluster statistics.
    pub cluster_stats: Vec<SimStats>,
    /// Final value of every net: a driven net's from the cluster owning its
    /// driver, a primary input's where the stimulus left it — whether or not
    /// any gate reads it — so a run that degraded to the sequential
    /// simulator is indistinguishable here on every net
    /// [`crate::seq::SeqSim::mismatches`] compares. Floating nets are `X`.
    pub values: Vec<Logic>,
    /// GVT computations that produced progress.
    pub gvt_rounds: u64,
    /// Crash-fault recovery provenance (all-zero for an undisturbed run).
    pub recovery: RecoveryOutcome,
}

/// Run the Time Warp kernel over the clusters of `plan`, simulating
/// `cycles` vectors of `stim`. `cfg.transport` selects threaded execution
/// (one worker thread per cluster), the deterministic in-process executor,
/// one OS process per cluster driven over Unix-domain sockets, or workers
/// dialing in over TCP; final net values are identical in all of them, and
/// the deterministic transports produce byte-identical artifacts. Crash
/// faults — injected via `cfg.fault`, or genuine worker deaths and dropped
/// connections under [`Transport::Process`] / [`Transport::Tcp`] — are
/// recovered transparently from the last GVT checkpoint; once the restart
/// budget is exhausted, the run degrades to the sequential simulator
/// (flagged in [`TwRunResult::recovery`]). Errors are reserved for
/// conditions no retry can fix (see [`TimeWarpError`]).
pub fn run_timewarp(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
) -> Result<TwRunResult, TimeWarpError> {
    match &cfg.transport {
        Transport::Threads => run_threads(nl, plan, stim, cycles, cfg),
        Transport::InProc { seed, schedule } => dst::run_deterministic(
            nl,
            plan,
            stim,
            cycles,
            cfg,
            *seed,
            schedule,
            cfg!(debug_assertions),
        ),
        Transport::Process { .. } | Transport::Tcp { .. } => {
            transport::run_wire(nl, plan, stim, cycles, cfg)
        }
    }
}

/// One attempt of the threaded execution path.
enum ThreadsAttempt {
    /// All workers finished; the run is complete. Boxed: the result is
    /// far larger than the other variants.
    Done(Box<TwRunResult>),
    /// At least one worker died (injected fault or genuine panic); the
    /// run's partial state is discarded.
    Crashed,
    /// The livelock watchdog tripped on some worker.
    Stalled { gvt: VTime, idle: u64 },
}

/// The threaded execution path: a supervisor retrying crash-stopped runs
/// with bounded exponential backoff. Worker-level replay is impossible
/// here — message delivery order is not logged under free-running threads —
/// so recovery is a global restart; determinism of the *final state* (which
/// equals the sequential simulator's) is what makes the retry transparent.
fn run_threads(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
) -> Result<TwRunResult, TimeWarpError> {
    // The injection budget is shared across restarts, so the fault fires
    // exactly `crashes` times in total and later attempts run clean.
    let injector = PanicInjector::new(&cfg.fault);
    let mut restarts = 0u32;
    loop {
        match run_threads_once(nl, plan, stim, cycles, cfg, injector.as_ref()) {
            ThreadsAttempt::Done(mut r) => {
                r.recovery.crashes = injector.as_ref().map_or(0, |i| i.fired());
                r.recovery.restarts = restarts;
                r.recovery.victims = thread_victims(cfg, r.recovery.crashes);
                return Ok(*r);
            }
            ThreadsAttempt::Crashed => {
                if restarts >= cfg.fault.max_restarts {
                    let mut r = recovery::degrade_sequential(nl, stim, cycles);
                    r.recovery.crashes = injector.as_ref().map_or(0, |i| i.fired());
                    r.recovery.restarts = restarts;
                    r.recovery.victims = thread_victims(cfg, r.recovery.crashes);
                    return Ok(r);
                }
                std::thread::sleep(recovery::backoff(restarts));
                restarts += 1;
            }
            ThreadsAttempt::Stalled { gvt, idle } => {
                return Err(TimeWarpError::Stalled { gvt, idle })
            }
        }
    }
}

/// Under the threaded transport every injected crash hits the configured
/// victim cluster, so the victim list is fully determined by the plan and
/// the number of faults that actually fired.
fn thread_victims(cfg: &TimeWarpConfig, fired: u32) -> Vec<u32> {
    match cfg.fault.crash_at {
        Some((victim, _)) => vec![victim; fired as usize],
        None => Vec::new(),
    }
}

fn run_threads_once(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
    injector: Option<&PanicInjector>,
) -> ThreadsAttempt {
    let k = plan.k;
    let shared = Arc::new(GvtState::new(k));

    // One channel per worker; senders cloned to everyone.
    let mut senders = Vec::with_capacity(k);
    let mut receivers = Vec::with_capacity(k);
    for _ in 0..k {
        let (tx, rx) = crossbeam::channel::unbounded::<TwMessage>();
        senders.push(tx);
        receivers.push(rx);
    }

    let mut results: Vec<Option<(SimStats, Vec<Logic>)>> = (0..k).map(|_| None).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(k);
        for (me, rx) in receivers.into_iter().enumerate() {
            let senders = senders.clone();
            let shared = Arc::clone(&shared);
            let plan_ref = &*plan;
            let cfg = cfg.clone();
            let stim = stim.clone();
            handles.push(scope.spawn(move || {
                let mut proc = ClusterProcess::new(
                    nl,
                    plan_ref,
                    me as u32,
                    stim,
                    cycles,
                    StateSaving::IncrementalUndo,
                );
                // A worker death — injected or genuine — is contained here
                // and turned into a missing result; the supervisor decides
                // whether to restart or degrade. The unwind boundary makes
                // `proc` unusable afterwards, which is fine: its state dies
                // with the crash.
                let alive = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    worker_loop(&mut proc, rx, &senders, &shared, &cfg, me, injector);
                }))
                .is_ok();
                if !alive {
                    // Wake the survivors so they stop waiting for us.
                    shared.abort.store(true, Ordering::SeqCst);
                }
                alive.then(|| (proc.take_stats(), proc.into_values()))
            }));
        }
        for (me, h) in handles.into_iter().enumerate() {
            results[me] = h.join().unwrap_or(None);
        }
    });

    if shared.stalled.load(Ordering::SeqCst) {
        return ThreadsAttempt::Stalled {
            gvt: shared.gvt.load(Ordering::SeqCst),
            idle: STALL_LIMIT,
        };
    }
    if results.iter().any(Option::is_none) || shared.abort.load(Ordering::SeqCst) {
        return ThreadsAttempt::Crashed;
    }
    let per_cluster = results.into_iter().flatten().collect();
    let mut r = merge_results(
        nl,
        plan,
        stim,
        cycles,
        per_cluster,
        shared.gvt_rounds.load(Ordering::SeqCst),
    );
    // Transport provenance for the successful attempt: one channel push
    // per message. Under free-running threads the value depends on
    // interleaving (unlike the deterministic transports).
    r.recovery.messages_sent = shared.messages_sent.load(Ordering::SeqCst);
    r.recovery.frames_sent = r.recovery.messages_sent;
    ThreadsAttempt::Done(Box::new(r))
}

/// Merge per-cluster stats and final net values into a [`TwRunResult`].
/// Each cluster owns the values of nets its gates drive and of its stimulus
/// inputs; constants are forced. A primary input no gate reads is listed by
/// no cluster (see [`ClusterPlan::new`]) and generates no event anywhere: it
/// takes the value the stimulus leaves it at, as in the sequential
/// simulator. Shared by the threaded and deterministic execution paths.
fn merge_results(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    per_cluster: Vec<(SimStats, Vec<Logic>)>,
    gvt_rounds: u64,
) -> TwRunResult {
    let mut stats = SimStats::default();
    let mut cluster_stats = Vec::with_capacity(per_cluster.len());
    let mut values = vec![Logic::X; nl.net_count()];
    // Where the stimulus leaves every input: the last vector's bit (the
    // initial zero after no vector), the clock low after its falling edge.
    for &pi in &stim.data_inputs {
        values[pi.idx()] = cycles
            .checked_sub(1)
            .map_or(Logic::Zero, |c| stim.bit(pi, c));
    }
    if let Some(clk) = stim.clock {
        values[clk.idx()] = Logic::Zero;
    }
    for (me, (s, vals)) in per_cluster.into_iter().enumerate() {
        stats.merge(&s);
        cluster_stats.push(s);
        for &g in &plan.clusters[me].gates {
            let out = nl.gates[g.idx()].output;
            values[out.idx()] = vals[out.idx()];
        }
        for &pi in &plan.clusters[me].stimulus_nets {
            values[pi.idx()] = vals[pi.idx()];
        }
    }
    if let Some(c0) = nl.const0_net {
        values[c0.idx()] = Logic::Zero;
    }
    if let Some(c1) = nl.const1_net {
        values[c1.idx()] = Logic::One;
    }
    stats.gvt_rounds = gvt_rounds;

    TwRunResult {
        stats,
        cluster_stats,
        values,
        gvt_rounds,
        recovery: RecoveryOutcome::default(),
    }
}

/// Hand every message waiting in `rx` to `proc`. The in-transit counter is
/// decremented only after the published local virtual time reflects the
/// insertions, keeping GVT samples sound.
fn take_messages(
    proc: &mut ClusterProcess<'_>,
    rx: &crossbeam::channel::Receiver<TwMessage>,
    send: &mut impl FnMut(TwMessage),
    shared: &GvtState,
    me: usize,
) {
    let mut taken = 0i64;
    while let Ok(msg) = rx.try_recv() {
        proc.handle_message(msg, send);
        taken += 1;
    }
    if taken > 0 {
        shared.publish_lvt(me, proc.lvt());
        shared.in_transit.fetch_sub(taken, Ordering::SeqCst);
    }
}

fn worker_loop(
    proc: &mut ClusterProcess<'_>,
    rx: crossbeam::channel::Receiver<TwMessage>,
    senders: &[crossbeam::channel::Sender<TwMessage>],
    shared: &GvtState,
    cfg: &TimeWarpConfig,
    me: usize,
    injector: Option<&PanicInjector>,
) {
    let mut quantum = 0u64;
    // Messages count as in transit from the moment they are pushed, so GVT
    // can never advance past one. A failed send means the receiver died in
    // a crash fault; the message is lost with it — exactly the crash-stop
    // model — and the supervisor restarts the attempt.
    let mut send = |m: TwMessage| {
        shared.send_epoch.fetch_add(1, Ordering::SeqCst);
        shared.in_transit.fetch_add(1, Ordering::SeqCst);
        shared.messages_sent.fetch_add(1, Ordering::Relaxed);
        let _ = senders[m.dst as usize].send(m);
    };
    // Scheduler-noise injection: a per-worker seeded RNG (the shared seed
    // xor'd with the cluster id, so workers de-correlate) decides between
    // quanta whether to yield the OS slice or sleep a few tens of
    // microseconds. This perturbs interleavings the way a loaded host
    // would, without touching the protocol itself.
    let mut jitter = cfg.thread_jitter.map(|seed| {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    });
    // Livelock watchdog: consecutive quanta without local work and without
    // a GVT advance. Any progress — own epochs or a moving GVT — resets it.
    let mut idle_spins = 0u64;
    let mut seen_gvt: VTime = 0;
    loop {
        if let Some(rng) = jitter.as_mut() {
            use rand::Rng;
            let roll: u32 = rng.gen_range(0..100);
            if roll < 10 {
                std::thread::sleep(std::time::Duration::from_micros(u64::from(roll) * 10));
            } else if roll < 35 {
                std::thread::yield_now();
            }
        }
        // A peer crashed or stalled; this attempt is abandoned.
        if shared.abort.load(Ordering::SeqCst) {
            break;
        }

        take_messages(proc, &rx, &mut send, shared, me);
        shared.publish_lvt(me, proc.lvt());

        let gvt = shared.gvt.load(Ordering::SeqCst);
        if gvt == VTime::MAX {
            break; // global quiescence
        }
        if gvt > seen_gvt {
            seen_gvt = gvt;
            idle_spins = 0;
        }

        // Process a quantum of epochs within the optimism window.
        let limit = gvt.saturating_add(cfg.window);
        let mut worked = false;
        for _ in 0..cfg.epochs_per_quantum {
            // An epoch run past a message already in the channel is an
            // epoch rolled back: look before each one, not once a quantum.
            take_messages(proc, &rx, &mut send, shared, me);
            if !proc.process_next_epoch(limit, &mut send) {
                break;
            }
            worked = true;
        }
        shared.publish_lvt(me, proc.lvt());

        quantum += 1;
        if let Some(inj) = injector {
            if inj.should_fire(me, quantum) {
                // Crash-stop this worker. The abort flag is raised first so
                // the survivors stop promptly instead of spinning on a GVT
                // that can no longer advance.
                shared.abort.store(true, Ordering::SeqCst);
                panic!("injected crash fault: cluster {me} at quantum {quantum}");
            }
        }
        // One GVT attempt per quantum.
        if let Some(new_gvt) = shared.try_compute_gvt() {
            proc.fossil_collect(new_gvt);
        } else {
            let g = shared.gvt.load(Ordering::SeqCst);
            if g != VTime::MAX {
                proc.fossil_collect(g);
            }
        }
        if worked {
            idle_spins = 0;
        } else {
            idle_spins += 1;
            if idle_spins >= STALL_LIMIT {
                shared.stalled.store(true, Ordering::SeqCst);
                shared.abort.store(true, Ordering::SeqCst);
                break;
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Every configuration `build` rejects, each for its own reason.
    #[test]
    fn build_rejects_each_invalid_setting_with_its_reason() {
        let b = TimeWarpConfig::builder;
        let no_listen = Transport::tcp_external(1, SchedulePolicy::RoundRobin, "");
        let rejected = [
            (b().epochs_per_quantum(0), "epochs_per_quantum"),
            (b().heartbeat_budget(0), "heartbeat budget"),
            (b().transport(no_listen), "listen address"),
            (b().heartbeat_interval(Duration::ZERO), "heartbeat interval"),
        ];
        for (builder, why) in rejected {
            match builder.build() {
                Err(TimeWarpError::InvalidConfig { reason }) => {
                    assert!(reason.contains(why), "{why}: rejected with {reason:?}")
                }
                other => panic!("{why}: {other:?}"),
            }
        }
        b().build().expect("the defaults are valid");
    }
}
