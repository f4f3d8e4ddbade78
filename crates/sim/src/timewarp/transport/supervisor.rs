//! The transport-generic supervisor: the deterministic executor's decision
//! loop, delivery runs, GVT rounds and crash recovery over any
//! [`ClusterWorker`]. It knows no wire and no frame.

use super::{fatal, ClusterWorker, Delivered, WorkerFailure};
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

/// GVT as the supervisor keeps it. With no message queued, every message
/// sent has been applied, so GVT advances to the least LVT. It never moves
/// back; `VTime::MAX` means quiescence.
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

/// Run the deterministic executor over an arbitrary set of workers. This is
/// the loop formerly private to the DST module, now generic over
/// [`ClusterWorker`]; `track` arms the recovery log (always on for the
/// process transport — real workers can die at any time — and on for
/// in-proc only when a crash fault is configured, so undisturbed in-proc
/// runs pay nothing).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_supervisor<W: ClusterWorker>(
    nl: &Netlist,
    plan: &ClusterPlan,
    stim: &VectorStimulus,
    cycles: u64,
    cfg: &TimeWarpConfig,
    schedule: &mut dyn Schedule,
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
    // The initial coordinated "checkpoint" is the fresh state at GVT 0. A
    // worker death this early has nothing to restore from, so it is fatal
    // rather than recovered.
    let mut outcome = RecoveryOutcome::default();
    let log = if track {
        let mut bases = Vec::with_capacity(k);
        for (i, base) in W::gvt_round(workers, 0, true).into_iter().enumerate() {
            let base = base.map_err(|f| fatal(i as u32, f))?;
            outcome.checkpoint_bytes_full += base.len() as u64;
            bases.push(base);
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
        in_hand: VecDeque::new(),
        log,
        outcome,
    };
    match sup.run(schedule) {
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
    /// protocol relies on; the schedule only controls *which* queue head
    /// is delivered next.
    queues: Vec<VecDeque<TwMessage>>,
    /// Cached per-cluster LVTs. `ClusterProcess::lvt` is idempotent
    /// between operations, so caching the value returned by each
    /// step/deliver is equivalent to re-querying every iteration — and
    /// under the process transport it saves a full round-trip per cluster
    /// per decision.
    lvts: Vec<VTime>,
    /// Results of the delivery run in progress that no decision has
    /// consumed yet: the worker applied these messages — still at the head
    /// of their channel's queue — in one exchange, and each coming
    /// decision, which the schedule's fork forecast to be that same
    /// delivery, takes the next one instead of a round trip.
    in_hand: VecDeque<Delivered>,
    log: Option<RecoveryLog>,
    outcome: RecoveryOutcome,
}

impl<W: ClusterWorker> Supervisor<'_, W> {
    fn run(&mut self, schedule: &mut dyn Schedule) -> Result<Vec<(SimStats, Vec<Logic>)>, Halt> {
        let fault = self.cfg.fault;
        let mut crashes_left = fault.crash_budget();
        let gvt_cadence = self.cfg.epochs_per_quantum.max(1) as u64;
        let mut decision: u64 = 0;
        let mut last_gvt: VTime = 0;
        let mut idle: u64 = 0;
        let mut steppable: Vec<u32> = Vec::with_capacity(self.k);
        let mut deliverable: Vec<(u32, u32)> = Vec::with_capacity(self.k * self.k);
        let mut sends: Vec<TwMessage> = Vec::new();
        let mut previous: Option<DstAction> = None;

        loop {
            let gvt = self.gvt.now;
            if gvt == VTime::MAX {
                break; // global quiescence
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
                self.gvt_round(new_gvt, true)?;
                continue;
            }

            // Crash injection: the armed fault fires when the executor
            // reaches decision index `crash_at.1`, before the schedule is
            // consulted — so the decision sequence after recovery is
            // identical to the no-crash run's, which is what makes
            // artifacts byte-identical.
            let armed = fault.crash_at.filter(|_| crashes_left > 0);
            if let Some((victim, at)) = armed {
                if decision == at {
                    crashes_left -= 1;
                    self.workers[victim as usize].inject_crash();
                    self.recover(victim as usize)?;
                    continue;
                }
            }

            let (action, run) = {
                let mut view = DstView {
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
                // Inside a delivery run the view changed by one queue pop
                // since the run's previous decision, exactly as the fork
                // was shown, so the schedule must be repeating itself.
                assert!(
                    self.in_hand.is_empty() || previous == Some(action),
                    "the schedule chose {action:?} at decision {decision} where its fork \
                     forecast {previous:?} again ({})",
                    self.label
                );
                previous = Some(action);
                // Size the delivery run this decision opens: ask a fork of
                // the schedule what it would pick next if the run went on,
                // and stop at the first other answer, at the end of the
                // queue, or where the armed crash fires before the
                // schedule is consulted.
                let mut run = 1;
                if let DstAction::Deliver { src, dst } = action {
                    let queued = self.queues[src as usize * self.k + dst as usize].len();
                    let fork = if self.in_hand.is_empty() && queued > 1 {
                        schedule.fork()
                    } else {
                        None
                    };
                    if let Some(mut fork) = fork {
                        while run < queued {
                            view.decision = decision + run as u64;
                            if armed.is_some_and(|(_, at)| at == view.decision)
                                || fork.next(&view) != action
                            {
                                break;
                            }
                            run += 1;
                        }
                    }
                }
                (action, run)
            };
            decision += 1;
            idle += 1;
            if idle >= STALL_LIMIT {
                // Livelock watchdog: work keeps happening but GVT never
                // advances, so nothing will ever commit or terminate.
                return Err(Halt::Failed(TimeWarpError::Stalled { gvt, idle }));
            }

            match action {
                DstAction::Step(c) => self.do_step(c as usize, gvt, limit, &mut sends)?,
                DstAction::Deliver { src, dst } => {
                    self.do_deliver(src as usize, dst as usize, run, gvt)?
                }
            }

            // Periodic GVT: one attempt every `epochs_per_quantum`
            // decisions.
            if decision.is_multiple_of(gvt_cadence) {
                let queued = self.queues.iter().any(|q| !q.is_empty());
                if let Some(new_gvt) = self.gvt.advance(&self.lvts, queued) {
                    self.gvt_round(new_gvt, false)?;
                }
            }
        }

        // Quiescent: collect final state. A worker lost here is recovered
        // like any other (its log includes the final fossil collection).
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

    /// Execute a `Step(c)` decision, recovering `c` as often as needed.
    fn do_step(
        &mut self,
        c: usize,
        gvt: VTime,
        limit: VTime,
        sends: &mut Vec<TwMessage>,
    ) -> Result<(), Halt> {
        if self.check {
            assert!(
                self.lvts[c] >= gvt,
                "cluster {c} would step an epoch at t={} below GVT {gvt} ({})",
                self.lvts[c],
                self.label
            );
        }
        let lvt = self.supervised(c, |w| {
            sends.clear();
            w.step(limit, sends)
        })?;
        // Recorded only after success: replay must not include an op the
        // worker died in.
        if let Some(log) = self.log.as_mut() {
            log.record_step(c, limit);
        }
        self.commit_sends(c, sends)?;
        self.lvts[c] = lvt;
        Ok(())
    }

    /// Execute a `Deliver { src, dst }` decision. With no results in hand
    /// it opens a run: `dst` is handed the first `run` messages of the
    /// channel in one exchange (recovering it as often as needed) and
    /// answers for as many as its stop rule let it apply. Either way the
    /// decision itself delivers one message — the head of the queue, with
    /// the next result in hand.
    fn do_deliver(&mut self, src: usize, dst: usize, run: usize, gvt: VTime) -> Result<(), Halt> {
        let ch = src * self.k + dst;
        if self.in_hand.is_empty() {
            // Peek, don't pop: a message leaves its queue only once the
            // receiver has answered for it. That makes the queues the one
            // copy of everything in flight: a worker lost mid-run is
            // recovered and handed the same messages again, still at the
            // head of the queue, and recovery never touches a queue. A run
            // is one reply frame, so a worker lost inside it has had none
            // of it logged.
            let msgs: Vec<TwMessage> = self.queues[ch].iter().take(run).copied().collect();
            self.in_hand = self.supervised(dst, |w| w.deliver(&msgs))?.into();
        }
        let msg = self.queues[ch]
            .pop_front()
            .expect("deliverable channel is non-empty");
        let (lvt, sends) = self
            .in_hand
            .pop_front()
            .expect("a delivery answers for at least one message");
        if self.check {
            assert!(
                msg.ev.time >= gvt,
                "message {src}->{dst} at t={} delivered below GVT {gvt} ({})",
                msg.ev.time,
                self.label
            );
        }
        // Logged only now, one message per decision: replay after a crash
        // must cover exactly what the decision sequence has consumed.
        if let Some(log) = self.log.as_mut() {
            log.record_deliver(msg);
        }
        self.commit_sends(dst, &sends)?;
        self.lvts[dst] = lvt;
        Ok(())
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

    /// One GVT round: fossil-collect everyone and — unless the run is
    /// untracked or just quiesced — capture the next coordinated checkpoint
    /// cut, in one exchange per worker. `quiesce` marks the no-action path,
    /// the only place quiescence checks run.
    fn gvt_round(&mut self, new_gvt: VTime, quiesce: bool) -> Result<(), Halt> {
        let image = self.log.is_some() && new_gvt != VTime::MAX;
        debug_assert!(self.in_hand.is_empty(), "a GVT round inside a delivery run");
        let replies = W::gvt_round(self.workers, new_gvt, image);
        for (i, reply) in replies.into_iter().enumerate() {
            // Fossil collection and capture are one command, so a worker
            // lost anywhere in the round has done neither as far as its log
            // knows: once recovered, it alone is asked again.
            let mut reply = Some(reply);
            let captured = self.supervised(i, |w| {
                let again = || W::gvt_round(std::slice::from_mut(w), new_gvt, image).pop();
                reply.take().or_else(again).expect("one reply per worker")
            })?;
            let Some(log) = self.log.as_mut() else {
                continue;
            };
            // Recorded even at GVT = MAX: a worker dying between this
            // round and its finish must replay the fossil collection or
            // its counter would diverge. (A capture truncates it away.)
            log.record_fossil(i, new_gvt);
            if image {
                self.outcome.checkpoint_bytes_full += captured.len() as u64;
                log.set_base(i, captured);
            }
        }
        if quiesce && self.check && new_gvt == VTime::MAX {
            for i in 0..self.k {
                self.supervised(i, W::check_quiescence)?;
            }
        }
        Ok(())
    }

    /// Crash-stop recovery of cluster `v`: respawn it from its last image
    /// and replay its input log. Its incoming queues stay as they are —
    /// they still hold everything it has not answered for. Counts every
    /// death (including deaths during respawn itself) against the restart
    /// budget and degrades to the sequential simulator when it runs out.
    fn recover(&mut self, v: usize) -> Result<(), Halt> {
        assert!(
            self.in_hand.is_empty(),
            "cluster {v} is being recovered inside a delivery run ({})",
            self.label
        );
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
