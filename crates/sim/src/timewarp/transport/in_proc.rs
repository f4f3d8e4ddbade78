//! The cluster worker itself: a [`ClusterProcess`] behind the
//! [`ClusterWorker`] contract, commands being direct method calls. The
//! supervisor of [`super::Transport::InProc`] owns one per cluster; a
//! served worker (`serve.rs`) owns one too and puts the frame codec in
//! front of it, so what a command does to a cluster is written once.

use super::{protocol, ClusterWorker, Delivered, Image, WorkerFailure};
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
use dvs_verilog::netlist::Netlist;

/// A cluster worker whose commands are direct method calls on a
/// [`ClusterProcess`].
pub(crate) struct InProcWorker<'nl, 'p> {
    nl: &'nl Netlist,
    plan: &'p ClusterPlan,
    stim: VectorStimulus,
    cycles: u64,
    pub(super) check: bool,
    label: String,
    me: u32,
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

    /// Anti-messages received so far with no positive to annihilate.
    pub(super) fn stray_anti_messages(&mut self) -> Result<u64, WorkerFailure> {
        Ok(alive(&mut self.proc)?.stray_anti_messages())
    }

    /// This worker's share of [`ClusterWorker::gvt_round`]: fossil-collect
    /// below `gvt`, then capture `image`. The text is the reply frame of a
    /// served worker.
    pub(super) fn capture(&mut self, gvt: VTime, image: Image) -> Result<String, WorkerFailure> {
        let (me, label) = (self.me, &self.label);
        let p = alive(&mut self.proc)?;
        let before = self.check.then(|| p.history_at_or_after(gvt));
        p.fossil_collect(gvt);
        if let Some(before) = before {
            assert_eq!(
                before,
                p.history_at_or_after(gvt),
                "fossil collection on cluster {me} reclaimed history at or above GVT {gvt} ({label})"
            );
        }
        if image == Image::None {
            return Ok(String::new());
        }
        let ck = p.checkpoint(gvt);
        let text = ck.to_text();
        if self.check {
            let reference = ck.to_json().emit().map_err(|e| protocol(e.msg))?;
            assert!(
                text == reference,
                "the image of cluster {me} at GVT {gvt} differs from its reference encoding ({label})"
            );
        }
        Ok(text)
    }

    /// [`ClusterWorker::respawn`] on a decoded image: rebuild the process
    /// it describes and replay `ops` on it. An image that does not decode
    /// means the supervisor itself is confused — a protocol failure that
    /// leaves the worker unchanged.
    pub(super) fn restore(
        &mut self,
        base: &Json,
        ops: &[ReplayOp],
    ) -> Result<VTime, WorkerFailure> {
        let base = Checkpoint::from_json(base).map_err(|e| protocol(e.msg))?;
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

    fn step(&mut self, limit: VTime, sends: &mut Vec<TwMessage>) -> Result<VTime, WorkerFailure> {
        let p = alive(&mut self.proc)?;
        p.process_next_epoch(limit, &mut |m: TwMessage| sends.push(m));
        Ok(p.lvt())
    }

    fn deliver(&mut self, msgs: &[TwMessage]) -> Result<Vec<Delivered>, WorkerFailure> {
        let p = alive(&mut self.proc)?;
        let mut results = Vec::with_capacity(msgs.len());
        let lvt = p.lvt();
        for &m in msgs {
            let mut sends = Vec::new();
            p.handle_message(m, &mut |m: TwMessage| sends.push(m));
            let after = p.lvt();
            let stop = !sends.is_empty() || after != lvt;
            results.push((after, sends));
            if stop {
                break;
            }
        }
        Ok(results)
    }

    fn gvt_round(
        workers: &mut [Self],
        gvt: VTime,
        image: Image,
    ) -> Vec<Result<String, WorkerFailure>> {
        workers.iter_mut().map(|w| w.capture(gvt, image)).collect()
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
