//! Per-cluster optimistic simulation process.
//!
//! Each [`ClusterProcess`] owns one block of the partitioned circuit and
//! simulates it optimistically: events are processed in local timestamp
//! order without waiting for other clusters, with enough history retained
//! (the processed events with the values they replaced, and no log of
//! sends) to roll back when a straggler or anti-message arrives. See the
//! module docs of [`crate::timewarp`] for the protocol overview.

use super::checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
use super::{StateSaving, TwMessage};
use crate::cluster::ClusterPlan;
use crate::logic::Logic;
use crate::stats::SimStats;
use crate::stimulus::VectorStimulus;
use crate::tables::{Epoch, GateTables};
use crate::wheel::{NetEvent, TimingWheel, VTime};
use dvs_verilog::netlist::{NetId, Netlist};

/// Look-ahead of the pending wheel. Local events land one tick ahead, the
/// next vector a period ahead and remote ones within the optimism window of
/// their sender; anything further waits in the wheel's overflow heap.
const PENDING_HORIZON: usize = 64;

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
    /// Per net, whether an owned gate drives it: an event on such a net
    /// after t = 1 was scheduled by this cluster's own evaluation.
    drives: Vec<bool>,

    /// Not-yet-processed events, one bucket per virtual time, each drained
    /// in the order it was filled. Anti-messages and rollbacks cancel
    /// entries in place, so everything queued is live.
    pending: TimingWheel,
    /// Anti-messages whose positive was neither pending nor processed — a
    /// protocol violation (channels are FIFO per sender).
    stray_antis: u64,
    /// Processed events in processing order (time nondecreasing).
    processed: Vec<NetEvent>,
    /// State saving: the value each processed event found on its net.
    replaced: Vec<Logic>,

    /// The vector source, restricted to this cluster's stimulus inputs.
    stim: VectorStimulus,
    stim_cycle: u64,
    cycles: u64,

    last_time: VTime,
    settled: bool,
    stats: SimStats,

    // Per-epoch scratch.
    front: Epoch,
    epoch_buf: Vec<NetEvent>,
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
        let mut drives = vec![false; nl.net_count()];
        for gi in 0..tables.len() as u32 {
            drives[tables.gate(gi).out as usize] = true;
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
            drives,
            pending: TimingWheel::new(PENDING_HORIZON),
            stray_antis: 0,
            processed: Vec::new(),
            replaced: Vec::new(),
            stim,
            stim_cycle: 0,
            cycles,
            last_time: 0,
            settled: false,
            stats,
            epoch_buf: Vec::with_capacity(64),
            stim_buf: Vec::with_capacity(16),
        }
    }

    /// Capture the complete behavioral state image of this cluster at GVT
    /// `gvt`. Called at the end of a round whose fossil collection ran at
    /// `gvt`, so the image is near its minimal size (see
    /// [`super::checkpoint`]). The pending events are captured in drain
    /// order, so equal states yield equal checkpoints.
    pub fn checkpoint(&self, gvt: VTime) -> Checkpoint {
        let pending = self.pending.iter().copied().collect();
        Checkpoint {
            schema: CHECKPOINT_SCHEMA,
            cluster: self.me,
            gvt,
            values: self.values.clone(),
            pending,
            processed: self.processed.clone(),
            replaced: self.replaced.clone(),
            stim_cycle: self.stim_cycle,
            last_time: self.last_time,
            settled: self.settled,
            stats: self.stats.clone(),
        }
    }

    /// Rebuild a process from a checkpoint image. The result is behaviorally
    /// identical to the captured process: the pending events are queued in
    /// the drain order they were captured in, so each time drains as it
    /// would have, however the new queue lays its entries out; and the
    /// per-epoch scratch (the `Epoch` stamps) starts zeroed — it only
    /// carries state *within* one epoch, and capture happens between
    /// epochs — with its `live` bits derived from the restored values.
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
        for &e in &ck.pending {
            p.pending.insert(e);
        }
        // Bring the head to the earliest event, where processing leaves it:
        // `rollback` finds the events at `last_time + 1` in the ring.
        p.pending.next_time();
        p.processed.clone_from(&ck.processed);
        p.replaced.clone_from(&ck.replaced);
        p.stim_cycle = ck.stim_cycle;
        p.last_time = ck.last_time;
        p.settled = ck.settled;
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

    /// Processed events with time ≥ `t` — used by the deterministic
    /// executor to assert that fossil collection only reclaims history
    /// strictly below GVT.
    pub fn history_at_or_after(&self, t: VTime) -> usize {
        self.processed.len() - self.processed.partition_point(|r| r.time < t)
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
        self.stim.events_for_cycle(cycle, &mut self.stim_buf);
        for i in 0..self.stim_buf.len() {
            self.pending.insert(self.stim_buf[i]);
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
                // Settling events survive any rollback: every rollback is
                // to a time ≥ 1.
                self.pending.insert(ev);
                if gate.exported {
                    self.stats.messages += tell(self.me, self.exports, ev, false, send);
                }
            }
        }
    }

    /// Incorporate an incoming message, rolling back if it is a straggler.
    /// Returns how many queued events an anti-message annihilated: one,
    /// unless a peer broke the protocol (zero counts as a stray).
    pub fn handle_message(&mut self, msg: TwMessage, send: &mut impl FnMut(TwMessage)) -> usize {
        debug_assert_eq!(msg.dst, self.me);
        if msg.ev.time <= self.last_time {
            self.rollback(msg.ev.time, send);
        }
        if !msg.anti {
            self.pending.insert(msg.ev);
            return 0;
        }
        // FIFO per sender guarantees the positive came first; it is either
        // still pending or was put back by the rollback above. One cluster
        // drives the net and sends at most one positive per time until the
        // anti-message that precedes a re-send, so time and net name it.
        let (t, net) = (msg.ev.time, msg.ev.net);
        let gone = self.pending.discard(t, t, |p| p.net == net);
        if gone == 0 {
            self.stray_antis += 1;
        }
        gone
    }

    /// Roll state back so that no event at time ≥ `t` remains applied.
    fn rollback(&mut self, t: VTime, send: &mut impl FnMut(TwMessage)) {
        self.stats.rollbacks += 1;

        // 1. Restore net values: walk the undone events backwards. Where an
        // event changed its net, the net still holds that event's value
        // when the walk reaches it. A restored value is a change like any
        // other: the `Dff`s the net is the data or the output of are armed
        // again.
        let split = self.processed.partition_point(|p| p.time < t);
        for (rec, &old) in self.processed[split..]
            .iter()
            .zip(&self.replaced[split..])
            .rev()
        {
            if self.values[rec.net.idx()] != old {
                self.values[rec.net.idx()] = old;
                self.front.arm(&self.tables, rec.net.0);
            }
        }
        debug_assert!(self.front.covers(&self.tables, &self.values));

        // 2. Cancel the sends timed after `t`. Each went out with a local
        // event on an exported net, dropped here: processed up to
        // `last_time`, pending at `last_time + 1`, in send order either way.
        // The pending ones go before the requeue rewinds the wheel, which
        // would spill their bucket into the unordered overflow heap where
        // `t + 64 <= last_time + 1`. An event on a net an owned gate drives
        // is local (settling's, at t = 1, is never after `t`).
        let (me, exports, drives) = (self.me, self.exports, &self.drives);
        let undone_local = |p: &NetEvent| p.time > t && drives[p.net.idx()];
        let mut antis = 0;
        let mut cancel = |p: &NetEvent| {
            let dead = undone_local(p);
            if dead {
                antis += tell(me, exports, *p, true, send);
            }
            dead
        };
        for p in &self.processed[split..] {
            cancel(p);
        }
        debug_assert!(self.pending.iter().all(|p| p.time > self.last_time));
        self.pending.discard(t + 1, self.last_time + 1, &mut cancel);
        self.stats.anti_messages += antis;

        // 3. Requeue the other processed events: reprocessing regenerates
        // the local ones. Nothing pending is at or below `last_time`, so
        // the requeued events refill empty buckets in their old drain
        // order, and a straggler at `t` queues behind them.
        self.stats.rolled_back_events += (self.processed.len() - split) as u64;
        self.replaced.truncate(split);
        for rec in self.processed.drain(split..) {
            if !undone_local(&rec) {
                self.pending.insert(rec);
            }
        }

        self.last_time = t.saturating_sub(1);
    }

    /// Reclaim history strictly below `gvt`.
    pub fn fossil_collect(&mut self, gvt: VTime) {
        if gvt == 0 {
            return;
        }
        let p = self.processed.partition_point(|r| r.time < gvt);
        self.stats.fossil_collected += p as u64;
        self.processed.drain(..p);
        self.replaced.drain(..p);
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

        // Phases 1 and 2: apply changes, logging the values they replace,
        // and collect the owned gates they affect.
        self.front.begin();
        for p in &self.epoch_buf {
            self.stats.events += 1;
            let ni = p.net.idx();
            let old = self.values[ni];
            self.replaced.push(old);
            if old != p.value {
                self.values[ni] = p.value;
                self.stats.net_toggles += 1;
                self.front.applied(&self.tables, p.net.0, old, p.value);
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
                self.pending.insert(ev);
                if gate.exported {
                    self.stats.messages += tell(self.me, self.exports, ev, false, send);
                }
            }
        }
        true
    }
}

/// Send `ev` from cluster `me` to every cluster that reads its net, as a
/// positive or as the anti-message that cancels it; returns how many went.
fn tell(
    me: u32,
    exports: &[(NetId, Vec<u32>)],
    ev: NetEvent,
    anti: bool,
    send: &mut impl FnMut(TwMessage),
) -> u64 {
    let readers = match exports.binary_search_by_key(&ev.net, |e| e.0) {
        Ok(at) => &exports[at].1[..],
        Err(_) => &[],
    };
    for &dst in readers {
        send(TwMessage {
            src: me,
            dst,
            ev,
            anti,
        });
    }
    readers.len() as u64
}
