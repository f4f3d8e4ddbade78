//! Per-cluster optimistic simulation process.
//!
//! Each [`ClusterProcess`] owns one block of the partitioned circuit and
//! simulates it optimistically: events are processed in local timestamp
//! order without waiting for other clusters, with enough history retained
//! (undo log, processed-event list, output log) to roll back when a
//! straggler or anti-message arrives. See the module docs of
//! [`crate::timewarp`] for the protocol overview.

use super::checkpoint::{Checkpoint, CkptEvent, CkptSource, CHECKPOINT_SCHEMA};
use super::{StateSaving, TwMessage};
use crate::cluster::ClusterPlan;
use crate::logic::Logic;
use crate::stats::SimStats;
use crate::stimulus::VectorStimulus;
use crate::tables::{Epoch, GateTables};
use crate::wheel::{NetEvent, Timed, TimingWheel, VTime};
use dvs_verilog::netlist::{NetId, Netlist};

/// Where a pending event came from — determines rollback treatment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Environment input (vector stimulus or initial settling): requeued
    /// verbatim on rollback.
    Stimulus,
    /// Scheduled by local gate evaluation at `created_at`, for
    /// `created_at + 1`; discarded on a rollback past `created_at`
    /// (reprocessing regenerates it).
    Local { created_at: VTime },
    /// Received from another cluster; identified for annihilation.
    Remote { src: u32, seq: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Pend {
    ev: NetEvent,
    source: Source,
    order: u64,
}

/// Pending events drain in `(time, order)` order.
impl Timed for Pend {
    fn time(&self) -> VTime {
        self.ev.time
    }
    fn order(&self) -> u64 {
        self.order
    }
}

/// Look-ahead of the pending wheel. Local events land one tick ahead, the
/// next vector a period ahead and remote ones within the optimism window of
/// their sender; anything further waits in the wheel's overflow heap.
const PENDING_HORIZON: usize = 64;

/// An undone-send record for anti-message generation.
#[derive(Debug, Clone, Copy)]
struct OutRec {
    created_at: VTime,
    msg: TwMessage,
}

fn pend_to_ckpt(p: &Pend) -> CkptEvent {
    CkptEvent {
        time: p.ev.time,
        net: p.ev.net.0,
        value: p.ev.value,
        source: match p.source {
            Source::Stimulus => CkptSource::Stimulus,
            Source::Local { created_at } => CkptSource::Local { created_at },
            Source::Remote { src, seq } => CkptSource::Remote { src, seq },
        },
        order: p.order,
    }
}

fn ckpt_to_pend(e: &CkptEvent) -> Pend {
    Pend {
        ev: NetEvent {
            time: e.time,
            net: NetId(e.net),
            value: e.value,
        },
        source: match e.source {
            CkptSource::Stimulus => Source::Stimulus,
            CkptSource::Local { created_at } => Source::Local { created_at },
            CkptSource::Remote { src, seq } => Source::Remote { src, seq },
        },
        order: e.order,
    }
}

/// One cluster's optimistic simulation state. The gate side is
/// partition-local (the tables hold this cluster's gates only); net ids, and
/// with them `values`, messages and checkpoints, are global.
pub struct ClusterProcess<'p> {
    me: u32,
    tables: GateTables,
    /// The plan's exports of this cluster, ascending by net: where the
    /// output of an `exported` gate goes.
    exports: &'p [(NetId, Vec<u32>)],
    values: Vec<Logic>,

    /// Not-yet-processed events, one bucket per virtual time. Anti-messages
    /// and rollbacks cancel entries in place, so everything queued is live.
    pending: TimingWheel<Pend>,
    /// Anti-messages whose positive was neither pending nor processed — a
    /// protocol violation (channels are FIFO per sender).
    stray_antis: u64,
    /// Processed events in processing order (time nondecreasing).
    processed: Vec<Pend>,
    /// Incremental state saving: (time, net, previous value).
    undo: Vec<(VTime, u32, Logic)>,
    /// Sent messages awaiting fossil collection (for anti-messages).
    outlog: Vec<OutRec>,

    /// The vector source, restricted to this cluster's stimulus inputs.
    stim: VectorStimulus,
    stim_cycle: u64,
    cycles: u64,

    last_time: VTime,
    settled: bool,
    order: u64,
    mseq: u64,
    stats: SimStats,

    // Per-epoch scratch.
    front: Epoch,
    epoch_buf: Vec<Pend>,
    stim_buf: Vec<NetEvent>,
}

impl<'p> ClusterProcess<'p> {
    pub fn new(
        nl: &Netlist,
        plan: &'p ClusterPlan,
        me: u32,
        mut stim: VectorStimulus,
        cycles: u64,
        // Unused: kept because `benchmark/src/workloads/probes.rs` passes it.
        _state_saving: StateSaving,
    ) -> Self {
        let cluster = &plan.clusters[me as usize];
        assert!(
            cluster.exports.windows(2).all(|w| w[0].0 < w[1].0),
            "exports must ascend by net: `emit` searches them"
        );
        stim.restrict_to(&cluster.stimulus_nets);
        let tables = GateTables::new(nl, &cluster.gates, &cluster.exports);
        let mut values = vec![Logic::Zero; nl.net_count()];
        if let Some(c1) = nl.const1_net {
            values[c1.idx()] = Logic::One;
        }
        let stats = SimStats {
            cycles,
            ..Default::default()
        };

        ClusterProcess {
            me,
            front: Epoch::new(&tables, &values),
            tables,
            exports: &cluster.exports,
            values,
            pending: TimingWheel::new(PENDING_HORIZON),
            stray_antis: 0,
            processed: Vec::new(),
            undo: Vec::new(),
            outlog: Vec::new(),
            stim,
            stim_cycle: 0,
            cycles,
            last_time: 0,
            settled: false,
            order: 0,
            mseq: 0,
            stats,
            epoch_buf: Vec::with_capacity(64),
            stim_buf: Vec::with_capacity(16),
        }
    }

    /// Capture the complete behavioral state image of this cluster at GVT
    /// `gvt`. Called right after the fossil collection of a successful GVT
    /// round, so the image is both minimal and part of a consistent global
    /// cut (see [`super::checkpoint`]). Unordered collections are captured
    /// sorted, making equal states yield equal checkpoints.
    pub fn checkpoint(&self, gvt: VTime) -> Checkpoint {
        let mut pending: Vec<CkptEvent> = self.pending.iter().map(pend_to_ckpt).collect();
        pending.sort_unstable_by_key(|e| (e.time, e.order));
        Checkpoint {
            schema: CHECKPOINT_SCHEMA,
            cluster: self.me,
            gvt,
            values: self.values.clone(),
            pending,
            processed: self.processed.iter().map(pend_to_ckpt).collect(),
            undo: self.undo.clone(),
            outlog: self.outlog.iter().map(|r| (r.created_at, r.msg)).collect(),
            stim_cycle: self.stim_cycle,
            last_time: self.last_time,
            settled: self.settled,
            order: self.order,
            mseq: self.mseq,
            stats: self.stats.clone(),
        }
    }

    /// Rebuild a process from a checkpoint image. The result is behaviorally
    /// identical to the captured process: the pending queue drains by the
    /// preserved `(time, order)` stamps, which are distinct, so how the
    /// queue lays its entries out cannot matter, and the per-epoch scratch
    /// (the `Epoch` stamps) starts zeroed — it only carries state
    /// *within* one epoch, and capture happens between epochs — with its
    /// `live` bits derived from the restored values.
    pub fn from_checkpoint(
        nl: &Netlist,
        plan: &'p ClusterPlan,
        stim: VectorStimulus,
        cycles: u64,
        ck: &Checkpoint,
    ) -> Self {
        let mut p = ClusterProcess::new(
            nl,
            plan,
            ck.cluster,
            stim,
            cycles,
            StateSaving::IncrementalUndo,
        );
        p.values.clone_from(&ck.values);
        p.front = Epoch::new(&p.tables, &p.values);
        debug_assert!(p.front.covers(&p.tables, &p.values));
        for e in &ck.pending {
            p.pending.insert(ckpt_to_pend(e));
        }
        p.processed = ck.processed.iter().map(ckpt_to_pend).collect();
        p.undo.clone_from(&ck.undo);
        p.outlog = ck
            .outlog
            .iter()
            .map(|&(created_at, msg)| OutRec { created_at, msg })
            .collect();
        p.stim_cycle = ck.stim_cycle;
        p.last_time = ck.last_time;
        p.settled = ck.settled;
        p.order = ck.order;
        p.mseq = ck.mseq;
        p.stats = ck.stats.clone();
        p
    }

    pub fn take_stats(&mut self) -> SimStats {
        self.stats.end_time = self.last_time;
        self.stats.clone()
    }

    pub fn into_values(self) -> Vec<Logic> {
        self.values
    }

    /// Anti-messages received so far whose positive was nowhere to be
    /// found. Channels are FIFO per sender, so a non-zero value means a
    /// peer broke the protocol (or annihilation is unsound).
    pub fn stray_anti_messages(&self) -> u64 {
        self.stray_antis
    }

    /// Gates this process looked at, where `gate_evals` counts the gates
    /// triggered (see `SeqSim::gates_visited`). Not part of any image.
    pub fn gates_visited(&self) -> u64 {
        self.front.visited
    }

    /// Events still queued. Zero at quiescence.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// `(processed, undo)` history entries with time ≥ `t` — used by the
    /// deterministic executor to assert that fossil collection only
    /// reclaims history strictly below GVT.
    pub fn history_at_or_after(&self, t: VTime) -> (usize, usize) {
        let p = self.processed.len() - self.processed.partition_point(|r| r.ev.time < t);
        let u = self.undo.len() - self.undo.partition_point(|&(ut, _, _)| ut < t);
        (p, u)
    }

    #[inline]
    fn push_pending(&mut self, ev: NetEvent, source: Source) {
        self.pending.insert(Pend {
            ev,
            source,
            order: self.order,
        });
        self.order += 1;
    }

    /// Local virtual time: a lower bound on anything this cluster may still
    /// process or send. `VTime::MAX` when fully idle. The not-yet-generated
    /// next stimulus cycle counts: it may precede every queued event, and
    /// ignoring it would let GVT overtake epochs this cluster will still
    /// process.
    pub fn lvt(&mut self) -> VTime {
        let next_stim = if self.stim_cycle < self.cycles {
            self.stim_cycle * self.stim.period
        } else {
            VTime::MAX
        };
        match self.pending.next_time() {
            Some(t) => t.min(next_stim),
            None => next_stim,
        }
    }

    /// Generate stimulus events for the next vector cycle.
    fn gen_stimulus(&mut self) {
        let cycle = self.stim_cycle;
        self.stim_cycle += 1;
        self.stim_buf.clear();
        self.stim
            .events_for_cycle(cycle, |_| true, &mut self.stim_buf);
        for i in 0..self.stim_buf.len() {
            self.push_pending(self.stim_buf[i], Source::Stimulus);
        }
    }

    /// Initial settling: evaluate every owned combinational gate once and
    /// schedule disagreements at t=1 (exported ones are also sent).
    fn settle(&mut self, send: &mut impl FnMut(TwMessage)) {
        self.settled = true;
        for gi in 0..self.tables.len() as u32 {
            let gate = self.tables.gate(gi);
            if gate.kind.is_sequential() {
                continue;
            }
            let new = self.tables.eval_comb(gi, &self.values);
            if new != self.values[gate.out as usize] {
                let ev = NetEvent {
                    time: 1,
                    net: NetId(gate.out),
                    value: new,
                };
                // Settling events survive any rollback (environment-like).
                self.push_pending(ev, Source::Stimulus);
                if gate.exported {
                    self.emit(0, ev, send);
                }
            }
        }
    }

    /// Send `ev`, a change of an exported net, to every remote reader.
    fn emit(&mut self, created_at: VTime, ev: NetEvent, send: &mut impl FnMut(TwMessage)) {
        let exports = self.exports;
        let at = exports
            .binary_search_by_key(&ev.net, |e| e.0)
            .expect("only drivers of `exports` are marked exported");
        for &d in &exports[at].1 {
            let msg = TwMessage {
                src: self.me,
                dst: d,
                seq: self.mseq,
                ev,
                anti: false,
            };
            self.mseq += 1;
            self.outlog.push(OutRec { created_at, msg });
            self.stats.messages += 1;
            send(msg);
        }
    }

    /// Incorporate an incoming message, rolling back if it is a straggler.
    pub fn handle_message(&mut self, msg: TwMessage, send: &mut impl FnMut(TwMessage)) {
        debug_assert_eq!(msg.dst, self.me);
        if msg.ev.time <= self.last_time {
            self.rollback(msg.ev.time, send);
        }
        let source = Source::Remote {
            src: msg.src,
            seq: msg.seq,
        };
        if msg.anti {
            // FIFO per sender guarantees the positive came first; it is
            // either still pending or was put back by the rollback above.
            let t = msg.ev.time;
            if self.pending.discard(t, t, |p| p.source == source) == 0 {
                self.stray_antis += 1;
            }
        } else {
            self.push_pending(msg.ev, source);
        }
    }

    /// Roll state back so that no event at time ≥ `t` remains applied.
    fn rollback(&mut self, t: VTime, send: &mut impl FnMut(TwMessage)) {
        self.stats.rollbacks += 1;

        // 1. Restore net values: the undo log is time-nondecreasing;
        // replay it backwards. A restored value is a change like any other:
        // the `Dff`s the net is the data or the output of are armed again.
        while let Some(&(ut, net, old)) = self.undo.last() {
            if ut < t {
                break;
            }
            self.values[net as usize] = old;
            self.front.arm(&self.tables, net);
            self.undo.pop();
        }
        debug_assert!(self.front.covers(&self.tables, &self.values));

        // 2. Requeue processed events, except the local ones an undone
        // epoch created: reprocessing regenerates those.
        let undone_local =
            |p: &Pend| matches!(p.source, Source::Local { created_at } if created_at >= t);
        let split = self.processed.partition_point(|p| p.ev.time < t);
        self.stats.rolled_back_events += (self.processed.len() - split) as u64;
        for rec in self.processed.drain(split..) {
            if !undone_local(&rec) {
                self.pending.insert(rec);
            }
        }

        // 3. Discard not-yet-processed local events created by undone
        // epochs. Unit delay puts each at `created_at + 1`.
        self.pending
            .discard(t + 1, self.last_time + 1, undone_local);

        // 4. Anti-messages for undone sends.
        let oidx = self.outlog.partition_point(|o| o.created_at < t);
        for rec in self.outlog.split_off(oidx) {
            let mut anti = rec.msg;
            anti.anti = true;
            self.stats.anti_messages += 1;
            send(anti);
        }

        self.last_time = t.saturating_sub(1);
    }

    /// Reclaim history strictly below `gvt`.
    pub fn fossil_collect(&mut self, gvt: VTime) {
        if gvt == 0 {
            return;
        }
        let u = self.undo.partition_point(|&(t, _, _)| t < gvt);
        self.undo.drain(..u);
        let p = self.processed.partition_point(|r| r.ev.time < gvt);
        self.stats.fossil_collected += p as u64;
        self.processed.drain(..p);
        let o = self.outlog.partition_point(|r| r.created_at < gvt);
        self.outlog.drain(..o);
    }

    /// Process the earliest pending epoch if its time is ≤ `limit`.
    /// Returns `false` when idle or throttled.
    pub fn process_next_epoch(&mut self, limit: VTime, send: &mut impl FnMut(TwMessage)) -> bool {
        if !self.settled {
            self.settle(send);
        }
        // Resolve the next epoch time, generating stimulus lazily so that
        // every vector cycle starting at or before that time exists in the
        // queue before we cross it.
        let t = loop {
            match self.pending.next_time() {
                None => {
                    if self.stim_cycle < self.cycles {
                        self.gen_stimulus();
                        continue;
                    }
                    return false; // idle
                }
                Some(t) => {
                    if self.stim_cycle < self.cycles && t >= self.stim_cycle * self.stim.period {
                        self.gen_stimulus();
                        continue;
                    }
                    break t;
                }
            }
        };
        if t > limit {
            return false; // optimism window throttle
        }

        self.pending.pop_epoch(&mut self.epoch_buf);
        self.last_time = t;

        // Phases 1 and 2: apply changes, logging previous values, and
        // collect the owned gates they affect.
        self.front.begin();
        for p in &self.epoch_buf {
            self.stats.events += 1;
            let ni = p.ev.net.idx();
            let old = self.values[ni];
            if old != p.ev.value {
                self.values[ni] = p.ev.value;
                self.undo.push((t, ni as u32, old));
                self.stats.net_toggles += 1;
                self.front.applied(&self.tables, ni as u32, old, p.ev.value);
            }
        }
        self.stats.gate_evals += self.front.finish(&self.tables, &self.values, |_| {});
        self.processed.extend_from_slice(&self.epoch_buf);

        // Phase 3: evaluate, schedule, emit.
        for i in 0..self.front.affected().len() {
            let gi = self.front.affected()[i];
            let Some(new_out) = self.front.eval(&self.tables, gi, &self.values) else {
                continue;
            };
            let gate = self.tables.gate(gi);
            if new_out != self.values[gate.out as usize] {
                let ev = NetEvent {
                    time: t + 1,
                    net: NetId(gate.out),
                    value: new_out,
                };
                self.push_pending(ev, Source::Local { created_at: t });
                if gate.exported {
                    self.emit(t, ev, send);
                }
            }
        }
        true
    }
}
