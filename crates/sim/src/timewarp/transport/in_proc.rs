//! The cluster worker itself: a [`ClusterProcess`] behind the
//! [`ClusterWorker`] contract, commands being direct method calls. The
//! supervisor of [`super::Transport::InProc`] owns one per cluster; a
//! served worker (`serve.rs`) owns one too and puts the frame codec in
//! front of it, so what a command does to a cluster is written once.

use super::{protocol, ClusterWorker, RoundCmd, RoundReply, WorkerFailure};
use crate::cluster::ClusterPlan;
use crate::logic::Logic;
use crate::stats::SimStats;
use crate::stimulus::VectorStimulus;
use crate::timewarp::checkpoint::Checkpoint;
use crate::timewarp::proc::ClusterProcess;
use crate::timewarp::recovery::{replay_ops, ReplayOp};
use crate::timewarp::{StateSaving, TwMessage};
use crate::wheel::VTime;
use dvs_json::{FromJson, Json, ToJson};
use dvs_verilog::netlist::{NetId, Netlist};

/// A cluster worker whose commands are direct method calls on a
/// [`ClusterProcess`].
pub(crate) struct InProcWorker<'nl, 'p> {
    nl: &'nl Netlist,
    plan: &'p ClusterPlan,
    stim: VectorStimulus,
    cycles: u64,
    pub(super) check: bool,
    label: String,
    pub(super) me: u32,
    proc: Option<ClusterProcess<'p>>,
}

/// What a command gets from a worker that holds no process: one that has
/// finished, or crashed and not been respawned yet.
fn gone() -> WorkerFailure {
    protocol("command for a worker that has finished or crashed".to_string())
}

fn alive<'a, 'p>(
    proc: &'a mut Option<ClusterProcess<'p>>,
) -> Result<&'a mut ClusterProcess<'p>, WorkerFailure> {
    proc.as_mut().ok_or_else(gone)
}

impl<'nl, 'p> InProcWorker<'nl, 'p> {
    pub fn new(
        nl: &'nl Netlist,
        plan: &'p ClusterPlan,
        stim: VectorStimulus,
        cycles: u64,
        check: bool,
        label: &str,
        me: u32,
    ) -> Self {
        let proc = ClusterProcess::new(
            nl,
            plan,
            me,
            stim.clone(),
            cycles,
            StateSaving::IncrementalUndo,
        );
        InProcWorker {
            nl,
            plan,
            stim,
            cycles,
            check,
            label: label.to_string(),
            me,
            proc: Some(proc),
        }
    }

    /// The nets this worker's cluster reads from other clusters, ascending:
    /// the only nets a message to it may name.
    pub(super) fn imports(&self) -> &[NetId] {
        &self.plan.clusters[self.me as usize].imports
    }

    /// Anti-messages received so far with no positive to annihilate.
    pub(super) fn stray_anti_messages(&mut self) -> Result<u64, WorkerFailure> {
        Ok(alive(&mut self.proc)?.stray_anti_messages())
    }

    /// This worker's share of [`ClusterWorker::round`], in the order
    /// [`RoundCmd`] lists. The image text is a served worker's second
    /// reply frame.
    pub(super) fn serve(&mut self, cmd: &RoundCmd) -> Result<RoundReply, WorkerFailure> {
        let (me, label, check, gvt) = (self.me, &self.label, self.check, cmd.gvt);
        let p = alive(&mut self.proc)?;
        let before = check.then(|| p.history_at_or_after(gvt));
        p.fossil_collect(gvt);
        if let Some(before) = before {
            assert_eq!(
                before,
                p.history_at_or_after(gvt),
                "fossil collection on cluster {me} reclaimed history at or above GVT {gvt} ({label})"
            );
        }
        let mut sends = Vec::new();
        for &m in &cmd.msgs {
            let gone = p.handle_message(m, &mut |m: TwMessage| sends.push(m));
            if check {
                assert!(
                    gone <= 1,
                    "an anti-message to cluster {me} annihilated {gone} events ({label})"
                );
            }
        }
        if let Some(limit) = cmd.step {
            p.process_next_epoch(limit, &mut |m: TwMessage| sends.push(m));
        }
        let mut image = String::new();
        if cmd.image {
            let ck = p.checkpoint(gvt);
            image = ck.to_text();
            if check {
                let reference = ck.to_json().emit().map_err(|e| protocol(e.msg))?;
                assert!(
                    image == reference,
                    "the image of cluster {me} at GVT {gvt} differs from its reference encoding ({label})"
                );
            }
        }
        let lvt = p.lvt();
        Ok(RoundReply { lvt, sends, image })
    }

    /// [`ClusterWorker::respawn`] on a decoded image: rebuild the process
    /// it describes and replay `ops` on it. An image that does not decode,
    /// or does not fit this worker's cluster and netlist (its values, or an
    /// event on a net the netlist lacks), means the supervisor itself is
    /// confused — a protocol failure that leaves the worker unchanged.
    pub(super) fn restore(
        &mut self,
        base: &Json,
        ops: &[ReplayOp],
    ) -> Result<VTime, WorkerFailure> {
        let base = Checkpoint::from_json(base).map_err(|e| protocol(e.msg))?;
        if base.cluster != self.me {
            return Err(protocol(format!(
                "an image of cluster {} cannot restore cluster {}",
                base.cluster, self.me
            )));
        }
        if base.values.len() != self.nl.net_count() {
            return Err(protocol(format!(
                "an image of {} net values cannot restore a netlist of {} nets",
                base.values.len(),
                self.nl.net_count()
            )));
        }
        let mut events = base.pending.iter().chain(&base.processed);
        if let Some(e) = events.find(|e| e.net.idx() >= base.values.len()) {
            return Err(protocol(format!(
                "an image with an event on net {} cannot restore a netlist of {} nets",
                e.net.0,
                base.values.len()
            )));
        }
        let stim = self.stim.clone();
        let mut p = ClusterProcess::from_checkpoint(self.nl, self.plan, stim, self.cycles, &base);
        replay_ops(&mut p, ops);
        let lvt = p.lvt();
        self.proc = Some(p);
        Ok(lvt)
    }
}

impl ClusterWorker for InProcWorker<'_, '_> {
    fn lvt(&mut self) -> Result<VTime, WorkerFailure> {
        Ok(alive(&mut self.proc)?.lvt())
    }

    fn round(
        workers: &mut [Self],
        cmds: &[RoundCmd],
        kill: Option<usize>,
    ) -> Vec<Result<RoundReply, WorkerFailure>> {
        let serve = |(i, (w, cmd)): (usize, (&mut Self, &RoundCmd))| {
            if kill != Some(i) {
                return w.serve(cmd);
            }
            w.inject_crash();
            Err(WorkerFailure::Lost {
                detail: "crashed inside the round".to_string(),
            })
        };
        workers
            .iter_mut()
            .zip(cmds)
            .enumerate()
            .map(serve)
            .collect()
    }

    fn respawn(&mut self, base: &str, ops: &[ReplayOp]) -> Result<VTime, WorkerFailure> {
        let base = Json::parse(base).map_err(|e| protocol(e.msg))?;
        self.restore(&base, ops)
    }

    fn check_quiescence(&mut self) -> Result<(), WorkerFailure> {
        let (me, label) = (self.me, &self.label);
        let p = alive(&mut self.proc)?;
        assert_eq!(
            p.lvt(),
            VTime::MAX,
            "cluster {me} still has pending work at quiescence ({label})"
        );
        assert_eq!(
            p.stray_anti_messages(),
            0,
            "cluster {me} received anti-messages with no positive to annihilate ({label})"
        );
        assert_eq!(
            p.pending_len(),
            0,
            "cluster {me} still has queued events at quiescence ({label})"
        );
        Ok(())
    }

    fn finish(&mut self) -> Result<(SimStats, Vec<Logic>), WorkerFailure> {
        let mut p = self.proc.take().ok_or_else(gone)?;
        Ok((p.take_stats(), p.into_values()))
    }

    fn inject_crash(&mut self) {
        // Crash-stop: the in-memory state machine is simply gone.
        self.proc = None;
    }

    fn kill(&mut self) {
        self.proc = None;
    }
}
