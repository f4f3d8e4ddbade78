//! The transport-generic supervisor: the deterministic executor's
//! lock-step rounds and its per-decision loop, GVT, images and crash
//! recovery over any [`ClusterWorker`]. It knows no wire and no frame.

use super::{fatal, ClusterWorker, RoundCmd, WorkerFailure};
use crate::cluster::ClusterPlan;
use crate::logic::Logic;
use crate::stats::SimStats;
use crate::stimulus::VectorStimulus;
use crate::timewarp::dst::{DstAction, DstView, Schedule};
use crate::timewarp::error::TimeWarpError;
use crate::timewarp::recovery::{degrade_sequential, RecoveryLog, RecoveryOutcome};
use crate::timewarp::{merge_results, TimeWarpConfig, TwMessage, TwRunResult};
use crate::wheel::VTime;
use dvs_verilog::netlist::Netlist;
use std::collections::VecDeque;

/// Livelock watchdog: when GVT makes no progress for this many scheduling
/// decisions, the run fails with [`TimeWarpError::Stalled`] instead of
/// hanging.
const STALL_LIMIT: u64 = 5_000_000;

/// A tracked run in rounds captures an image of every worker on every this
/// many rounds, in the round's own exchange. Every round would ship two
/// images of ≈ 43 KB per round on the 6 k decoder; this spacing bounds a
/// replay to 16 rounds of operations.
const IMAGE_ROUNDS: u64 = 16;

/// GVT as the supervisor keeps it: the least LVT, once nothing is in
/// flight, or — between two rounds — the least LVT or queued send time. It
/// never moves back; `VTime::MAX` means quiescence.
#[derive(Debug, Default)]
struct Gvt {
    now: VTime,
    /// Advances made: the run's `gvt_rounds`.
    rounds: u64,
}

impl Gvt {
    /// Apply the rule; returns the new GVT when it rose.
    fn advance(&mut self, lvts: &[VTime], queued: bool) -> Option<VTime> {
        let least = lvts.iter().copied().min().unwrap_or(VTime::MAX);
        if queued || least <= self.now {
            return None;
        }
        (self.now, self.rounds) = (least, self.rounds + 1);
        Some(least)
    }
}

/// Run the deterministic executor over an arbitrary set of workers: in
/// lock-step rounds when `schedule` is `None` (see [`Supervisor::rounds`]),
/// one decision of `schedule` at a time otherwise. `track` arms the
/// recovery log (always on for the wire transports — real workers can die
/// at any time — and on for in-proc only when a crash fault is configured,
/// so undisturbed in-proc runs pay nothing).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_supervisor<W: ClusterWorker>(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
    schedule: Option<&mut dyn Schedule>,
    check: bool,
    label: &str,
    workers: &mut [W],
    track: bool,
) -> Result<TwRunResult, TimeWarpError> {
    let k = plan.k;
    assert_eq!(workers.len(), k, "one worker per cluster");
    let mut lvts = vec![0 as VTime; k];
    for (i, l) in lvts.iter_mut().enumerate() {
        *l = workers[i].lvt().map_err(|f| fatal(i as u32, f))?;
    }
    // The first images are the fresh state at GVT 0. A worker death this
    // early has nothing to restore from, so it is fatal rather than
    // recovered.
    let mut outcome = RecoveryOutcome::default();
    let log = if track {
        let base = RoundCmd {
            image: true,
            ..RoundCmd::default()
        };
        let mut bases = Vec::with_capacity(k);
        for (i, reply) in W::round(workers, &vec![base; k], None)
            .into_iter()
            .enumerate()
        {
            let image = reply.map_err(|f| fatal(i as u32, f))?.image;
            outcome.checkpoint_bytes_full += image.len() as u64;
            bases.push(image);
        }
        Some(RecoveryLog::from_checkpoints(bases))
    } else {
        None
    };
    let mut sup = Supervisor {
        nl,
        stim,
        cycles,
        cfg,
        check,
        label,
        workers,
        k,
        gvt: Gvt::default(),
        queues: vec![VecDeque::new(); k * k],
        lvts,
        log,
        outcome,
        crashes_left: cfg.fault.crash_budget(),
    };
    let run = match schedule {
        Some(schedule) => sup.decisions(schedule),
        None => sup.rounds(),
    };
    match run.and_then(|()| sup.finish()) {
        // Clean completion: per-cluster `(stats, values)` ready to merge.
        Ok(per_cluster) => {
            sup.fold_wire_counters();
            let mut result = merge_results(nl, plan, stim, cycles, per_cluster, sup.gvt.rounds);
            result.recovery = sup.outcome;
            Ok(result)
        }
        Err(Halt::Degraded(r)) => Ok(*r),
        Err(Halt::Failed(e)) => Err(e),
    }
}

/// Why the supervised run cannot go on as a Time Warp run.
enum Halt {
    /// Restart budget exhausted; the sequential fallback already ran.
    /// Boxed: a full run result dwarfs the other variant.
    Degraded(Box<TwRunResult>),
    Failed(TimeWarpError),
}

struct Supervisor<'a, W: ClusterWorker> {
    nl: &'a Netlist,
    stim: &'a VectorStimulus,
    cycles: u64,
    cfg: &'a TimeWarpConfig,
    check: bool,
    label: &'a str,
    workers: &'a mut [W],
    k: usize,
    gvt: Gvt,
    /// One FIFO queue per directed cluster pair, indexed `src * k + dst`.
    /// FIFO within a queue is the per-channel ordering the annihilation
    /// protocol relies on; a schedule only controls *which* queue head is
    /// delivered next, and a round takes every queue into a cluster.
    queues: Vec<VecDeque<TwMessage>>,
    /// Cached per-cluster LVTs. `ClusterProcess::lvt` is idempotent
    /// between operations, so caching the value each round returns is
    /// equivalent to re-querying — and under the wire transports it saves
    /// a round trip per cluster.
    lvts: Vec<VTime>,
    log: Option<RecoveryLog>,
    outcome: RecoveryOutcome,
    /// Times the armed crash fault may still fire.
    crashes_left: u32,
}

impl<W: ClusterWorker> Supervisor<'_, W> {
    /// [`SchedulePolicy::RoundRobin`]: the order [`Transport::Threads`]
    /// runs in, a round at a time. Each round every worker fossil-collects
    /// below GVT, takes every message queued to it (ascending source, FIFO
    /// per channel) and processes at most one epoch within GVT + `window`;
    /// its sends wait in the queues for the next round. GVT then becomes
    /// the least LVT or queued send time — exact, because every message in
    /// flight is queued here, and rising every round, so `gvt_rounds`
    /// counts rounds. A crash armed at round `r` fires inside round `r`.
    ///
    /// [`SchedulePolicy::RoundRobin`]: crate::timewarp::SchedulePolicy::RoundRobin
    /// [`Transport::Threads`]: crate::timewarp::Transport::Threads
    fn rounds(&mut self) -> Result<(), Halt> {
        let k = self.k;
        let mut round = 0u64;
        while self.gvt.now != VTime::MAX {
            let gvt = self.gvt.now;
            let step = Some(gvt.saturating_add(self.cfg.window));
            let image = self.log.is_some() && round % IMAGE_ROUNDS == IMAGE_ROUNDS - 1;
            let mut cmds = vec![
                RoundCmd {
                    gvt,
                    msgs: Vec::new(),
                    step,
                    image,
                };
                k
            ];
            for (ch, queue) in self.queues.iter_mut().enumerate() {
                cmds[ch % k].msgs.extend(queue.drain(..));
            }
            let at = self.cfg.fault.crash_at.filter(|&(_, at)| at == round);
            self.exchange(0, &cmds, at.map(|(victim, _)| victim as usize))?;
            let mut published = self.lvts.clone();
            published.extend(self.queues.iter().flatten().map(|m| m.ev.time).min());
            if self.gvt.advance(&published, false).is_none() {
                return Err(Halt::Failed(TimeWarpError::Stalled { gvt, idle: 1 }));
            }
            round += 1;
        }
        // The last fossil collection, at GVT = MAX, as `Threads` makes it
        // after its last barrier.
        let last = RoundCmd {
            gvt: VTime::MAX,
            ..RoundCmd::default()
        };
        self.exchange(0, &vec![last; k], None)
    }

    /// One decision of `schedule` at a time: a `Step` is a one-worker round
    /// that steps, a `Deliver` a one-worker round with one message, and a
    /// GVT round, every `epochs_per_quantum` decisions or whenever no
    /// action is left, a round on every worker that fossil-collects and
    /// captures.
    fn decisions(&mut self, schedule: &mut dyn Schedule) -> Result<(), Halt> {
        let gvt_cadence = self.cfg.epochs_per_quantum.max(1) as u64;
        let mut decision: u64 = 0;
        let mut last_gvt: VTime = 0;
        let mut idle: u64 = 0;
        let mut steppable: Vec<u32> = Vec::with_capacity(self.k);
        let mut deliverable: Vec<(u32, u32)> = Vec::with_capacity(self.k * self.k);

        loop {
            let gvt = self.gvt.now;
            if gvt == VTime::MAX {
                return Ok(()); // global quiescence
            }
            if gvt > last_gvt {
                last_gvt = gvt;
                idle = 0;
            }
            let limit = gvt.saturating_add(self.cfg.window);

            // Refresh the view: list legal actions.
            steppable.clear();
            deliverable.clear();
            for (i, &l) in self.lvts.iter().enumerate() {
                if l != VTime::MAX && l <= limit {
                    steppable.push(i as u32);
                }
            }
            for src in 0..self.k {
                for dst in 0..self.k {
                    if !self.queues[src * self.k + dst].is_empty() {
                        deliverable.push((src as u32, dst as u32));
                    }
                }
            }

            if steppable.is_empty() && deliverable.is_empty() {
                // Everyone is idle or throttled and nothing is in transit:
                // GVT must advance (the minimum LVT exceeds the current GVT,
                // or is MAX = done). If it does not, the protocol is wedged
                // — no retry can fix that.
                let Some(new_gvt) = self.gvt.advance(&self.lvts, false) else {
                    return Err(Halt::Failed(TimeWarpError::Stalled { gvt, idle }));
                };
                self.gvt_round(new_gvt)?;
                continue;
            }

            // Crash injection: the armed fault fires when the executor
            // reaches decision index `crash_at.1`, before the schedule is
            // consulted — so the decision sequence after recovery is
            // identical to the no-crash run's, which is what makes
            // artifacts byte-identical.
            if let Some((victim, at)) = self.cfg.fault.crash_at {
                if decision == at && self.crashes_left > 0 {
                    self.crashes_left -= 1;
                    self.workers[victim as usize].inject_crash();
                    self.recover(victim as usize)?;
                    continue;
                }
            }

            let view = DstView {
                gvt,
                lvts: &self.lvts,
                steppable: &steppable,
                deliverable: &deliverable,
                decision,
            };
            let action = schedule.next(&view);
            assert!(
                view.is_legal(action),
                "schedule returned illegal action {action:?} at decision {decision} ({})",
                self.label
            );
            decision += 1;
            idle += 1;
            if idle >= STALL_LIMIT {
                // Livelock watchdog: work keeps happening but GVT never
                // advances, so nothing will ever commit or terminate.
                return Err(Halt::Failed(TimeWarpError::Stalled { gvt, idle }));
            }

            match action {
                DstAction::Step(c) => {
                    if self.check {
                        assert!(
                            self.lvts[c as usize] >= gvt,
                            "cluster {c} would step an epoch at t={} below GVT {gvt} ({})",
                            self.lvts[c as usize],
                            self.label
                        );
                    }
                    let step = RoundCmd {
                        step: Some(limit),
                        ..RoundCmd::default()
                    };
                    self.exchange(c as usize, &[step], None)?;
                }
                DstAction::Deliver { src, dst } => {
                    // Peek, don't pop: a message leaves its queue only once
                    // the receiver has answered for it, so a worker lost
                    // mid-delivery is recovered and handed the same message
                    // again, and recovery never touches a queue.
                    let ch = src as usize * self.k + dst as usize;
                    let msg = self.queues[ch].front().copied();
                    let deliver = RoundCmd {
                        msgs: vec![msg.expect("deliverable channel is non-empty")],
                        ..RoundCmd::default()
                    };
                    self.exchange(dst as usize, &[deliver], None)?;
                    self.queues[ch].pop_front();
                }
            }

            // Periodic GVT: one attempt every `epochs_per_quantum`
            // decisions.
            if decision.is_multiple_of(gvt_cadence) {
                let queued = self.queues.iter().any(|q| !q.is_empty());
                if let Some(new_gvt) = self.gvt.advance(&self.lvts, queued) {
                    self.gvt_round(new_gvt)?;
                }
            }
        }
    }

    /// Quiescent: check it (check mode only) and collect the final state.
    /// A worker lost here is recovered like any other (its log includes
    /// the final fossil collection).
    fn finish(&mut self) -> Result<Vec<(SimStats, Vec<Logic>)>, Halt> {
        if self.check {
            for i in 0..self.k {
                self.supervised(i, W::check_quiescence)?;
            }
        }
        (0..self.k).map(|i| self.supervised(i, W::finish)).collect()
    }

    /// Have worker `i` do `op`, recovering it and asking again for as long
    /// as it is lost: a worker that died mid-command never applied it, so
    /// the supervisor simply re-issues it to the respawned incarnation.
    fn supervised<T>(
        &mut self,
        i: usize,
        mut op: impl FnMut(&mut W) -> Result<T, WorkerFailure>,
    ) -> Result<T, Halt> {
        loop {
            match op(&mut self.workers[i]) {
                Ok(done) => return Ok(done),
                Err(WorkerFailure::Lost { .. }) => self.recover(i)?,
                Err(f) => return Err(Halt::Failed(fatal(i as u32, f))),
            }
        }
    }

    /// Run `cmds` as one round on workers `first..first + cmds.len()`, then
    /// commit what each did, in worker order: its input log or its new
    /// image, its sends, its LVT. A worker lost in the round has applied
    /// none of it as far as its log knows: it is recovered and asked again,
    /// alone, until it answers. `victim` is crashed inside the round, and
    /// inside each re-ask, while the fault's budget lasts.
    fn exchange(
        &mut self,
        first: usize,
        cmds: &[RoundCmd],
        victim: Option<usize>,
    ) -> Result<(), Halt> {
        if self.check {
            let g = self.gvt.now;
            for m in cmds.iter().flat_map(|c| &c.msgs) {
                assert!(
                    m.ev.time >= g,
                    "message {}->{} at t={} delivered below GVT {g} ({})",
                    m.src,
                    m.dst,
                    m.ev.time,
                    self.label
                );
            }
        }
        let kill = self.arm(victim).map(|v| v - first);
        let workers = &mut self.workers[first..first + cmds.len()];
        let replies = W::round(workers, cmds, kill);
        let mut answered = Vec::with_capacity(cmds.len());
        for (j, (cmd, mut reply)) in cmds.iter().zip(replies).enumerate() {
            let i = first + j;
            while let Err(WorkerFailure::Lost { .. }) = reply {
                self.recover(i)?;
                let kill = self.arm(victim.filter(|&v| v == i)).map(|_| 0);
                let alone = std::slice::from_mut(&mut self.workers[i]);
                reply = W::round(alone, std::slice::from_ref(cmd), kill)
                    .pop()
                    .expect("one reply per worker");
            }
            answered.push(reply.map_err(|f| Halt::Failed(fatal(i as u32, f)))?);
        }
        for (j, (cmd, reply)) in cmds.iter().zip(answered).enumerate() {
            let i = first + j;
            if let Some(log) = self.log.as_mut() {
                if cmd.image {
                    self.outcome.checkpoint_bytes_full += reply.image.len() as u64;
                    log.set_base(i, reply.image);
                } else {
                    log.record(i, cmd);
                }
            }
            self.commit_sends(i, &reply.sends)?;
            self.lvts[i] = reply.lvt;
        }
        Ok(())
    }

    /// `victim`, if the armed crash fault has a firing left, which this
    /// spends.
    fn arm(&mut self, victim: Option<usize>) -> Option<usize> {
        let victim = victim.filter(|_| self.crashes_left > 0)?;
        self.crashes_left -= 1;
        Some(victim)
    }

    /// Enqueue messages worker `from` emitted during a successful op. A
    /// worker sends as itself to another cluster of the run; a send that
    /// does not is a protocol failure of the worker that reported it.
    fn commit_sends(&mut self, from: usize, sends: &[TwMessage]) -> Result<(), Halt> {
        for &m in sends {
            let (src, dst) = (m.src as usize, m.dst as usize);
            if src != from || dst >= self.k || dst == src {
                let detail = format!("reported a send from cluster {src} to cluster {dst}");
                return Err(Halt::Failed(fatal(
                    from as u32,
                    WorkerFailure::Protocol { detail },
                )));
            }
            if self.check {
                let g = self.gvt.now;
                assert!(
                    m.ev.time >= g,
                    "message {}->{} at t={} sent below GVT {g} ({})",
                    m.src,
                    m.dst,
                    m.ev.time,
                    self.label
                );
            }
            self.queues[src * self.k + dst].push_back(m);
        }
        Ok(())
    }

    /// The per-decision GVT round: every worker fossil-collects below
    /// `new_gvt` and — unless the run is untracked or just quiesced —
    /// captures its next image, in one exchange.
    fn gvt_round(&mut self, new_gvt: VTime) -> Result<(), Halt> {
        let gvt_round = RoundCmd {
            gvt: new_gvt,
            image: self.log.is_some() && new_gvt != VTime::MAX,
            ..RoundCmd::default()
        };
        self.exchange(0, &vec![gvt_round; self.k], None)
    }

    /// Crash-stop recovery of cluster `v`: respawn it from its last image
    /// and replay its input log. Everything sent to it that it has not
    /// answered for is still here — queued, or in the round being asked
    /// again. Counts every death (including deaths during respawn itself)
    /// against the restart budget and degrades to the sequential simulator
    /// when it runs out.
    fn recover(&mut self, v: usize) -> Result<(), Halt> {
        loop {
            self.outcome.crashes += 1;
            self.outcome.victims.push(v as u32);
            if self.outcome.restarts >= self.cfg.fault.max_restarts {
                return Err(self.degrade());
            }
            self.outcome.restarts += 1;
            let log = self
                .log
                .as_ref()
                .expect("recovery requires an armed recovery log");
            match self.workers[v].respawn(log.base(v), log.ops(v)) {
                Ok(lvt) => {
                    self.outcome.replayed_ops += log.ops(v).len() as u64;
                    self.lvts[v] = lvt;
                    return Ok(());
                }
                // The replacement died during respawn (possible only with
                // real processes): another crash against the budget.
                Err(WorkerFailure::Lost { .. }) => continue,
                Err(f) => return Err(Halt::Failed(fatal(v as u32, f))),
            }
        }
    }

    /// Restart budget exhausted: kill everyone and fall back to the
    /// sequential simulator, carrying the exact recovery counters into the
    /// degraded result.
    fn degrade(&mut self) -> Halt {
        for w in self.workers.iter_mut() {
            w.kill();
        }
        self.fold_wire_counters();
        let mut r = degrade_sequential(self.nl, self.stim, self.cycles);
        r.recovery = RecoveryOutcome {
            degraded: true,
            ..std::mem::take(&mut self.outcome)
        };
        Halt::Degraded(Box::new(r))
    }

    /// Sum each worker's side-accumulated wire counters into the outcome.
    /// Called exactly once per run, on whichever path ends it.
    fn fold_wire_counters(&mut self) {
        for w in self.workers.iter() {
            let c = w.wire_counters();
            self.outcome.corrupt_frames += c.corrupt_frames;
            self.outcome.silent_peers += c.silent_peers;
            self.outcome.chaos_faults_injected += c.chaos_faults_injected;
            self.outcome.messages_sent += c.messages_sent;
            self.outcome.frames_sent += c.frames_sent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Gvt;
    use crate::wheel::VTime;

    #[test]
    fn gvt_is_min_of_published_lvts() {
        let mut g = Gvt::default();
        assert_eq!(g.advance(&[10, 7, 12], false), Some(7));
        assert_eq!(g.now, 7);
    }

    #[test]
    fn gvt_never_regresses() {
        let mut g = Gvt::default();
        assert_eq!(g.advance(&[100, 100], false), Some(100));
        assert_eq!(g.advance(&[50, 100], false), None);
        assert_eq!(g.now, 100);
    }

    #[test]
    fn in_transit_blocks_sampling() {
        let mut g = Gvt::default();
        assert_eq!(g.advance(&[5], true), None);
        assert_eq!(g.advance(&[5], false), Some(5));
    }

    #[test]
    fn quiescence_is_max() {
        let mut g = Gvt::default();
        assert_eq!(
            g.advance(&[VTime::MAX, VTime::MAX], false),
            Some(VTime::MAX)
        );
    }

    #[test]
    fn rounds_count_only_progress() {
        let mut g = Gvt::default();
        g.advance(&[3], false);
        g.advance(&[3], false);
        assert_eq!(g.rounds, 1);
        g.advance(&[9], false);
        assert_eq!(g.rounds, 2);
    }
}
