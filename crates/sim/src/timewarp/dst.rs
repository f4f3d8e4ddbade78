//! Deterministic simulation testing (DST) for the Time Warp kernel.
//!
//! [`run_deterministic`] drives the same [`super::proc::ClusterProcess`] state machines
//! as the threaded kernel, but under a single-threaded virtual scheduler:
//! the executor owns one FIFO queue per directed cluster pair (so a positive
//! message always precedes its anti-message, exactly as on a real channel).
//! Under [`SchedulePolicy::RoundRobin`] it runs the lock-step rounds of
//! [`super::Transport::Threads`]; under every other policy it consults a
//! pluggable [`Schedule`] to decide, at every step, whether a cluster
//! processes its next epoch or an in-transit message is delivered.
//!
//! What a schedule fixes is all an execution may vary in: which cluster
//! steps, and which message lands, next. So it fixes the entire execution.
//! Every rollback, anti-message, GVT round and fossil
//! collection is reproduced exactly for a given `(seed, schedule)` pair,
//! which is what lets [`crate::stats::SimStats`] counters be compared
//! byte-for-byte across runs and machines.
//!
//! Fault injection is *protocol-legal by construction*: a schedule may delay
//! or reorder deliveries across channels arbitrarily and within a bounded
//! horizon (that is precisely what the adversarial
//! [`SchedulePolicy::StragglerHeavy`] and [`SchedulePolicy::DelayChannel`]
//! policies do), but FIFO order within one channel is enforced by the
//! executor's queues and cannot be violated, so annihilation stays sound.
//!
//! # Legality and progress
//!
//! The executor offers the schedule only *legal* actions:
//!
//! * `Step(c)` — cluster `c` has a next epoch within the optimism window
//!   (`lvt(c) <= GVT + window`) and is not idle;
//! * `Deliver { src, dst }` — the `src → dst` queue is non-empty (the head,
//!   and only the head, of that queue is delivered).
//!
//! When no action is legal, either messages are in transit (impossible:
//! queued messages are always deliverable) or every cluster is idle or
//! throttled with empty channels — in which case the GVT sample must
//! advance, un-throttling clusters or terminating the run. A schedule can
//! therefore delay a message for an arbitrary but *bounded* number of
//! decisions: eventually its delivery is the only legal action left.

use super::error::TimeWarpError;
use super::transport::{run_supervisor, InProcWorker};
use super::{TimeWarpConfig, TwRunResult};
use crate::cluster::ClusterPlan;
use crate::stimulus::VectorStimulus;
use crate::wheel::VTime;
use dvs_verilog::netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DstAction {
    /// Cluster `c` processes its next pending epoch.
    Step(u32),
    /// The head of the `src → dst` channel is delivered to `dst`.
    Deliver { src: u32, dst: u32 },
}

/// Read-only view of the executor state offered to a [`Schedule`].
#[derive(Debug)]
pub struct DstView<'a> {
    /// Current GVT lower bound.
    pub gvt: VTime,
    /// Current local virtual time per cluster (`VTime::MAX` = idle).
    pub lvts: &'a [VTime],
    /// Clusters with a legal `Step` action, ascending.
    pub steppable: &'a [u32],
    /// Channels with a legal `Deliver` action, ascending `(src, dst)`.
    pub deliverable: &'a [(u32, u32)],
    /// Monotone decision counter (0-based), for rotation-style schedules.
    pub decision: u64,
}

impl DstView<'_> {
    /// Total number of legal actions.
    pub fn action_count(&self) -> usize {
        self.steppable.len() + self.deliverable.len()
    }

    /// The `i`-th legal action: deliveries first, then steps.
    pub fn action_at(&self, i: usize) -> DstAction {
        if i < self.deliverable.len() {
            let (src, dst) = self.deliverable[i];
            DstAction::Deliver { src, dst }
        } else {
            DstAction::Step(self.steppable[i - self.deliverable.len()])
        }
    }

    /// Is `a` among the legal actions?
    pub fn is_legal(&self, a: DstAction) -> bool {
        match a {
            DstAction::Step(c) => self.steppable.contains(&c),
            DstAction::Deliver { src, dst } => self.deliverable.contains(&(src, dst)),
        }
    }
}

/// A deterministic scheduling policy: given the current legal actions,
/// choose exactly one. Implementations must be deterministic functions of
/// their own state and the view — no wall-clock, no OS entropy — or the
/// reproducibility guarantee of [`run_deterministic`] is lost. Each
/// decision is one exchange with one worker: a step, or one delivered
/// message.
pub trait Schedule {
    /// Choose one of the legal actions in `view`. Returning an illegal
    /// action is a bug in the schedule and panics the executor.
    fn next(&mut self, view: &DstView<'_>) -> DstAction;
}

/// Built-in schedule families, nameable in configs and artifacts. A policy
/// plus a seed fully determines the execution; custom policies can be used
/// by implementing [`Schedule`] and calling [`run_with_schedule`] directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Lock-step rounds, the order [`super::Transport::Threads`] runs in:
    /// each round every cluster fossil-collects below GVT, takes every
    /// message queued to it (ascending source, FIFO per channel) and
    /// processes at most one epoch within GVT + `window`; its sends wait
    /// for the next round, and GVT becomes the least LVT or queued send
    /// time. Every counter and the canonical artifact equal `Threads'`. It
    /// makes no per-decision choice, so it has no [`Schedule`], and it
    /// ignores the seed and `epochs_per_quantum`. On a wire transport a
    /// round is one `round` frame per worker, every frame written before
    /// the first reply is read, so the workers run at the same time.
    RoundRobin,
    /// Pick uniformly at random among all legal actions using a seeded
    /// xoshiro256++ generator. Different seeds explore different
    /// interleavings; the same seed replays the same execution exactly.
    SeededRandom,
    /// Adversarial: starve the slowest cluster (the one with the minimum
    /// LVT) and run everyone else as far ahead as the optimism window
    /// allows, delivering the victim's outgoing messages as late as legally
    /// possible — so they arrive as stragglers and force rollbacks.
    StragglerHeavy,
    /// Adversarial: hold every message on the `src → dst` channel until its
    /// delivery is the only legal action left (the maximum protocol-legal
    /// delay), rotating over the other actions otherwise. Forces rollback
    /// storms on the receiving cluster while preserving FIFO within the
    /// channel.
    DelayChannel { src: u32, dst: u32 },
    /// Adversarial for queue depth: alternate a *build* phase that
    /// prefers stepping clusters — letting per-channel queues deepen while
    /// nothing is delivered — with a *drain* phase that prefers delivering,
    /// releasing the backlog all at once. The sudden drains land stale
    /// timestamps on clusters that ran ahead during the build phase, so
    /// long bursts of deliveries interleave with rollback storms. Ignores
    /// the seed.
    Bursty,
}

impl SchedulePolicy {
    /// The per-decision schedule for `seed`; `None` for
    /// [`SchedulePolicy::RoundRobin`], which runs in rounds.
    pub fn build(&self, seed: u64) -> Option<Box<dyn Schedule + Send>> {
        Some(match *self {
            SchedulePolicy::RoundRobin => return None,
            SchedulePolicy::SeededRandom => Box::new(SeededRandom::new(seed)),
            SchedulePolicy::StragglerHeavy => Box::new(StragglerHeavy),
            SchedulePolicy::DelayChannel { src, dst } => Box::new(DelayChannel::new(src, dst)),
            SchedulePolicy::Bursty => Box::new(Bursty::default()),
        })
    }

    /// Stable name for logs and artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::RoundRobin => "round_robin",
            SchedulePolicy::SeededRandom => "seeded_random",
            SchedulePolicy::StragglerHeavy => "straggler_heavy",
            SchedulePolicy::DelayChannel { .. } => "delay_channel",
            SchedulePolicy::Bursty => "bursty",
        }
    }
}

/// The lowest-numbered directed cluster pair `(src, dst)` that actually
/// carries messages under `plan` — a convenient target for
/// [`SchedulePolicy::DelayChannel`]. `None` when the partition has no cut.
pub fn first_cut_channel(plan: &ClusterPlan) -> Option<(u32, u32)> {
    let mut best: Option<(u32, u32)> = None;
    for (src, cluster) in plan.clusters.iter().enumerate() {
        for (_, dests) in &cluster.exports {
            for &d in dests {
                let c = (src as u32, d);
                if best.is_none_or(|b| c < b) {
                    best = Some(c);
                }
            }
        }
    }
    best
}

/// See [`SchedulePolicy::SeededRandom`].
#[derive(Debug)]
struct SeededRandom {
    rng: StdRng,
}

impl SeededRandom {
    fn new(seed: u64) -> Self {
        SeededRandom {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Schedule for SeededRandom {
    fn next(&mut self, view: &DstView<'_>) -> DstAction {
        view.action_at(self.rng.gen_range(0..view.action_count()))
    }
}

/// See [`SchedulePolicy::StragglerHeavy`].
#[derive(Debug, Default)]
struct StragglerHeavy;

impl Schedule for StragglerHeavy {
    fn next(&mut self, view: &DstView<'_>) -> DstAction {
        // The victim: minimum LVT, lowest id on ties.
        let victim = (0..view.lvts.len())
            .min_by_key(|&i| (view.lvts[i], i))
            .expect("at least one cluster") as u32;
        // 1. Run the most-advanced non-victim cluster further ahead.
        if let Some(&c) = view
            .steppable
            .iter()
            .filter(|&&c| c != victim)
            .max_by_key(|&&c| (view.lvts[c as usize], c))
        {
            return DstAction::Step(c);
        }
        // 2. Deliver messages not originating from the victim.
        if let Some(&(src, dst)) = view.deliverable.iter().find(|&&(s, _)| s != victim) {
            return DstAction::Deliver { src, dst };
        }
        // 3. Only now let the victim run (its sends pile up in the queues).
        if view.steppable.contains(&victim) {
            return DstAction::Step(victim);
        }
        // 4. Forced: deliver the victim's stale messages — the stragglers.
        let (src, dst) = view.deliverable[0];
        DstAction::Deliver { src, dst }
    }
}

/// See [`SchedulePolicy::DelayChannel`].
#[derive(Debug)]
struct DelayChannel {
    src: u32,
    dst: u32,
    cursor: u64,
}

impl DelayChannel {
    fn new(src: u32, dst: u32) -> Self {
        DelayChannel {
            src,
            dst,
            cursor: 0,
        }
    }
}

impl Schedule for DelayChannel {
    fn next(&mut self, view: &DstView<'_>) -> DstAction {
        let held = (self.src, self.dst);
        let others = view.deliverable.iter().filter(|&&c| c != held).count();
        let n = others + view.steppable.len();
        if n == 0 {
            // The held channel is the only action left: forced delivery.
            let (src, dst) = view.deliverable[0];
            return DstAction::Deliver { src, dst };
        }
        let i = (self.cursor % n as u64) as usize;
        self.cursor += 1;
        if i < others {
            let (src, dst) = *view
                .deliverable
                .iter()
                .filter(|&&c| c != held)
                .nth(i)
                .expect("index within filtered deliverables");
            DstAction::Deliver { src, dst }
        } else {
            DstAction::Step(view.steppable[i - others])
        }
    }
}

/// See [`SchedulePolicy::Bursty`].
#[derive(Debug, Default)]
struct Bursty {
    cursor: u64,
}

impl Schedule for Bursty {
    fn next(&mut self, view: &DstView<'_>) -> DstAction {
        // Half a period of building, half a period of draining.
        const HALF_PERIOD: u64 = 48;
        let building = (self.cursor / HALF_PERIOD).is_multiple_of(2);
        let i = self.cursor;
        self.cursor += 1;
        let step =
            |v: &DstView<'_>| DstAction::Step(v.steppable[(i % v.steppable.len() as u64) as usize]);
        let deliver = |v: &DstView<'_>| {
            let (src, dst) = v.deliverable[(i % v.deliverable.len() as u64) as usize];
            DstAction::Deliver { src, dst }
        };
        if building {
            if !view.steppable.is_empty() {
                step(view)
            } else {
                deliver(view)
            }
        } else if !view.deliverable.is_empty() {
            deliver(view)
        } else {
            step(view)
        }
    }
}

/// Run the Time Warp kernel to completion under a named schedule policy.
/// Identical `(plan, stim, cycles, cfg, seed, policy)` inputs produce
/// identical results — including every [`crate::stats::SimStats`] counter
/// and, when `cfg.fault` injects crashes, every recovery counter.
///
/// With `check` set, protocol invariants are asserted at every decision
/// (see [`run_with_schedule`]); violations panic with the offending seed
/// and policy for reproduction.
#[allow(clippy::too_many_arguments)]
pub fn run_deterministic(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
    seed: u64,
    policy: &SchedulePolicy,
    check: bool,
) -> Result<TwRunResult, TimeWarpError> {
    let mut schedule = policy.build(seed);
    let label = format!("seed {seed}, schedule {policy:?}");
    let schedule = schedule.as_deref_mut().map(|s| s as &mut dyn Schedule);
    run_in_proc(nl, plan, stim, cycles, cfg, schedule, check, &label)
}

/// Run the Time Warp kernel under an arbitrary [`Schedule`] implementation.
///
/// Invariants asserted when `check` is set (`label` is included in the
/// panic message so failures are reproducible):
///
/// * no sent or delivered message — positive or anti — carries a timestamp
///   below GVT, and no cluster steps an epoch below GVT;
/// * fossil collection never reclaims processed history at or above the
///   GVT it was invoked with;
/// * at termination, annihilation left no orphan tombstones and no pending
///   events in any cluster.
///
/// Crash faults from `cfg.fault` are injected when the executor reaches the
/// armed decision index and handled by restore-and-replay recovery (see
/// [`super::recovery`]): the victim is rebuilt from its last image and its
/// input log, while its incoming queues, which a message leaves only once
/// its receiver has answered for it, are kept as they are. A crash aimed at
/// a cluster `plan` does not have is refused as
/// [`TimeWarpError::InvalidConfig`] before any worker is built; beyond that
/// only unrecoverable conditions — a wedged GVT — surface as
/// [`TimeWarpError`].
#[allow(clippy::too_many_arguments)]
pub fn run_with_schedule(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
    schedule: &mut dyn Schedule,
    check: bool,
    label: &str,
) -> Result<TwRunResult, TimeWarpError> {
    run_in_proc(nl, plan, stim, cycles, cfg, Some(schedule), check, label)
}

/// [`run_with_schedule`], or the rounds of [`SchedulePolicy::RoundRobin`]
/// when `schedule` is `None`.
#[allow(clippy::too_many_arguments)]
fn run_in_proc(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
    schedule: Option<&mut dyn Schedule>,
    check: bool,
    label: &str,
) -> Result<TwRunResult, TimeWarpError> {
    cfg.fault.check_victim(plan.k)?;
    let mut workers: Vec<InProcWorker<'_, '_>> = (0..plan.k)
        .map(|me| InProcWorker::new(nl, plan, stim.clone(), cycles, check, label, me as u32))
        .collect();
    // Recovery bookkeeping is only paid for when a crash fault is armed;
    // the process transport always tracks (workers can genuinely die).
    let track = cfg.fault.crash_at.is_some();
    run_supervisor(
        nl,
        plan,
        stim,
        cycles,
        cfg,
        schedule,
        check,
        label,
        &mut workers,
        track,
    )
}
