//! Event queues for the simulation kernels.
//!
//! * [`TimingWheel`] — a calendar queue specialized for the unit-delay model
//!   the paper uses (all gate delays are 1, stimulus arrives at known
//!   times): one bucket per virtual time, O(1) insert and epoch pop within
//!   a bounded look-ahead window. Both kernels run on it. The sequential
//!   simulator only ever moves forward; a Time Warp cluster also rewinds it
//!   below its head ([`TimingWheel::insert`] of a straggler or of events a
//!   rollback requeues) and cancels queued entries in place
//!   ([`TimingWheel::discard`]) when an anti-message or a rollback
//!   invalidates them.
//! * [`HeapQueue`] — a binary heap with a stable (time, sequence) order. It
//!   works for any delay model and holds what the wheel cannot: entries
//!   beyond its look-ahead window.

use crate::logic::Logic;
use dvs_verilog::netlist::NetId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Virtual time, in gate-delay ticks.
pub type VTime = u64;

/// A scheduled net-value change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetEvent {
    pub time: VTime,
    pub net: NetId,
    pub value: Logic,
}

/// What the queues need to know about an entry.
pub trait Timed {
    /// The virtual time the entry is queued for.
    fn time(&self) -> VTime;

    /// Rank among the entries of one virtual time: an epoch drains in
    /// ascending `order`. Entries of equal rank (the default) drain in
    /// insertion order.
    fn order(&self) -> u64 {
        0
    }
}

impl Timed for NetEvent {
    fn time(&self) -> VTime {
        self.time
    }
}

/// Heap entry ordered by (time, seq) so pops are deterministic FIFO within a
/// timestamp.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    time: VTime,
    seq: u64,
    item: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Stable binary-heap event queue.
#[derive(Debug)]
pub struct HeapQueue<E = NetEvent> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E: Timed> HeapQueue<E> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, item: E) {
        self.heap.push(Entry {
            time: item.time(),
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    pub fn peek_time(&self) -> Option<VTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub fn pop(&mut self) -> Option<E> {
        self.heap.pop().map(|e| e.item)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pop every event scheduled at the earliest time into `out`; returns
    /// that time.
    pub fn pop_epoch(&mut self, out: &mut Vec<E>) -> Option<VTime> {
        let t = self.peek_time()?;
        while self.peek_time() == Some(t) {
            out.extend(self.pop());
        }
        Some(t)
    }
}

/// Calendar queue for unit-delay simulation: a ring of buckets indexed by
/// `time % horizon`, one bucket per virtual time in `[now, now + horizon)`.
/// Entries beyond the horizon overflow into a heap and are reloaded lazily.
/// With unit delays the vast majority of events land within a couple of
/// ticks, making this effectively O(1).
///
/// A bucket owns storage only while it holds entries: a drained bucket's
/// allocation goes to the next bucket that starts filling, so the footprint
/// follows the buckets in use, not the horizon.
#[derive(Debug)]
pub struct TimingWheel<E = NetEvent> {
    buckets: Vec<Vec<E>>,
    /// `horizon - 1`; the horizon is a power of two.
    mask: u64,
    now: VTime,
    /// Entries in the ring (the overflow heap counts its own).
    len: usize,
    overflow: HeapQueue<E>,
    /// Allocations of drained buckets, awaiting reuse.
    spare: Vec<Vec<E>>,
}

impl<E: Timed> TimingWheel<E> {
    /// `horizon` (rounded up to a power of two) should exceed the largest
    /// scheduling offset seen in steady state (unit delay ⇒ small; stimulus
    /// may schedule a full period ahead).
    pub fn new(horizon: usize) -> Self {
        assert!(horizon >= 2);
        let horizon = horizon.next_power_of_two();
        TimingWheel {
            buckets: (0..horizon).map(|_| Vec::new()).collect(),
            mask: horizon as u64 - 1,
            now: 0,
            len: 0,
            overflow: HeapQueue::new(),
            spare: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.len + self.overflow.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current epoch time (the earliest time that may still hold events).
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Every queued entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        let overflow = self.overflow.heap.iter().map(|e| &e.item);
        self.buckets.iter().flatten().chain(overflow)
    }

    /// Queue an entry of a forward-only simulation, where nothing may be
    /// scheduled below the current epoch.
    pub fn push(&mut self, item: E) {
        debug_assert!(item.time() >= self.now, "scheduling into the past");
        self.insert(item);
    }

    /// Queue an entry at any time. One below the current epoch — a Time
    /// Warp straggler, or an event a rollback puts back — rewinds the wheel
    /// to it.
    pub fn insert(&mut self, item: E) {
        let t = item.time();
        if t < self.now {
            self.rewind(t);
        }
        if t - self.now > self.mask {
            self.overflow.push(item);
        } else {
            self.file(item);
        }
    }

    /// Append to the ring bucket of `item`'s time, which must be within the
    /// horizon.
    fn file(&mut self, item: E) {
        let bucket = &mut self.buckets[(item.time() & self.mask) as usize];
        if bucket.capacity() == 0 {
            if let Some(storage) = self.spare.pop() {
                *bucket = storage;
            }
        }
        bucket.push(item);
        self.len += 1;
    }

    /// Move the head down to `t`. The ring then covers `[t, t + horizon)`,
    /// so buckets of later times spill into the overflow heap.
    fn rewind(&mut self, t: VTime) {
        let horizon = self.mask + 1;
        let ring_end = self.now.saturating_add(horizon);
        if self.len > 0 {
            for spilled in self.now.max(t.saturating_add(horizon))..ring_end {
                let bucket = &mut self.buckets[(spilled & self.mask) as usize];
                self.len -= bucket.len();
                for item in bucket.drain(..) {
                    self.overflow.push(item);
                }
            }
        }
        self.now = t;
    }

    /// Remove every queued entry with a time in `lo..=hi` that `dead`
    /// selects, keeping the order of the rest; returns how many went.
    pub fn discard(&mut self, lo: VTime, hi: VTime, mut dead: impl FnMut(&E) -> bool) -> usize {
        let mut removed = 0;
        if self.len > 0 {
            for t in lo.max(self.now)..=hi.min(self.now.saturating_add(self.mask)) {
                let bucket = &mut self.buckets[(t & self.mask) as usize];
                let before = bucket.len();
                bucket.retain(|e| !dead(e));
                removed += before - bucket.len();
            }
            self.len -= removed;
        }
        if self.overflow.peek_time().is_some_and(|t| t <= hi) {
            let before = self.overflow.len();
            self.overflow
                .heap
                .retain(|e| e.time < lo || e.time > hi || !dead(&e.item));
            removed += before - self.overflow.len();
        }
        removed
    }

    /// Advance `now` to the next non-empty epoch *without* draining it, and
    /// return its time. `None` when the queue is empty.
    pub fn next_time(&mut self) -> Option<VTime> {
        if self.is_empty() {
            return None;
        }
        loop {
            // Reload overflow events that now fit in the window.
            while self
                .overflow
                .peek_time()
                .is_some_and(|t| t - self.now <= self.mask)
            {
                if let Some(item) = self.overflow.pop() {
                    self.file(item);
                }
            }
            if !self.buckets[(self.now & self.mask) as usize].is_empty() {
                return Some(self.now);
            }
            self.now += 1;
            // If the window is empty but overflow has far-future events,
            // jump straight to them.
            if self.len == 0 {
                self.now = self.overflow.peek_time()?.max(self.now);
            }
        }
    }

    /// Advance to the next non-empty epoch and move its events into `out`,
    /// replacing what `out` held (its allocation is kept for a later
    /// bucket). They come in ascending [`Timed::order`], insertion order
    /// among equals. Returns the epoch time.
    pub fn pop_epoch(&mut self, out: &mut Vec<E>) -> Option<VTime> {
        let t = self.next_time()?;
        let bucket = &mut self.buckets[(t & self.mask) as usize];
        out.clear();
        std::mem::swap(out, bucket);
        if bucket.capacity() > 0 {
            self.spare.push(std::mem::take(bucket));
        }
        self.len -= out.len();
        self.now = t + 1;
        // Only a requeue after a rollback or an overflow reload files an
        // entry behind a higher rank.
        if !out.is_sorted_by_key(E::order) {
            out.sort_by_key(E::order);
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: VTime, net: u32) -> NetEvent {
        NetEvent {
            time,
            net: NetId(net),
            value: Logic::One,
        }
    }

    #[test]
    fn heap_orders_by_time_then_fifo() {
        let mut q = HeapQueue::new();
        q.push(ev(5, 0));
        q.push(ev(3, 1));
        q.push(ev(5, 2));
        q.push(ev(3, 3));
        let order: Vec<(VTime, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.net.0))
            .collect();
        assert_eq!(order, vec![(3, 1), (3, 3), (5, 0), (5, 2)]);
    }

    #[test]
    fn heap_pop_epoch_groups_by_time() {
        let mut q = HeapQueue::new();
        for (t, n) in [(2, 0), (2, 1), (4, 2)] {
            q.push(ev(t, n));
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_epoch(&mut out), Some(2));
        assert_eq!(out.len(), 2);
        out.clear();
        assert_eq!(q.pop_epoch(&mut out), Some(4));
        assert_eq!(out.len(), 1);
        assert_eq!(q.pop_epoch(&mut out), None);
    }

    #[test]
    fn wheel_basic_epochs() {
        let mut w = TimingWheel::new(8);
        w.push(ev(0, 0));
        w.push(ev(1, 1));
        w.push(ev(1, 2));
        let mut out = Vec::new();
        assert_eq!(w.pop_epoch(&mut out), Some(0));
        assert_eq!(out.len(), 1);
        out.clear();
        assert_eq!(w.pop_epoch(&mut out), Some(1));
        assert_eq!(out.len(), 2);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_skips_gaps() {
        let mut w = TimingWheel::new(4);
        w.push(ev(0, 0));
        let mut out = Vec::new();
        w.pop_epoch(&mut out);
        out.clear();
        w.push(ev(3, 1));
        assert_eq!(w.pop_epoch(&mut out), Some(3));
    }

    #[test]
    fn wheel_overflow_beyond_horizon() {
        let mut w = TimingWheel::new(4);
        w.push(ev(0, 0));
        w.push(ev(100, 1)); // far beyond horizon → overflow heap
        w.push(ev(101, 2));
        let mut out = Vec::new();
        assert_eq!(w.pop_epoch(&mut out), Some(0));
        out.clear();
        assert_eq!(w.pop_epoch(&mut out), Some(100));
        assert_eq!(out[0].net.0, 1);
        out.clear();
        assert_eq!(w.pop_epoch(&mut out), Some(101));
        assert!(w.is_empty());
        assert_eq!(w.pop_epoch(&mut out), None);
    }

    #[test]
    fn wheel_interleaved_push_pop() {
        let mut w = TimingWheel::new(8);
        w.push(ev(0, 0));
        let mut out = Vec::new();
        w.pop_epoch(&mut out);
        // Unit-delay style: each epoch schedules the next.
        for t in 1..50u64 {
            w.push(ev(t, t as u32));
            out.clear();
            assert_eq!(w.pop_epoch(&mut out), Some(t));
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn insert_below_the_head_rewinds_and_spills() {
        let mut w = TimingWheel::new(4);
        w.push(ev(10, 0));
        w.push(ev(12, 1));
        assert_eq!(w.next_time(), Some(10));
        // A straggler: the ring now covers 7..11, so 12 waits in overflow.
        w.insert(ev(7, 2));
        assert_eq!(w.len(), 3);
        let mut out = Vec::new();
        for (t, net) in [(7, 2), (10, 0), (12, 1)] {
            assert_eq!(w.pop_epoch(&mut out), Some(t));
            assert_eq!(out, vec![ev(t, net)]);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn discard_cancels_in_ring_and_overflow() {
        let mut w = TimingWheel::new(4);
        for (t, n) in [(1, 0), (1, 1), (2, 2), (90, 3), (90, 4)] {
            w.push(ev(t, n));
        }
        assert_eq!(w.next_time(), Some(1));
        // Emptying the head bucket moves the head on.
        assert_eq!(w.discard(1, 1, |_| true), 2);
        assert_eq!(w.discard(2, 100, |e| e.net.0 == 3), 1);
        assert_eq!(w.discard(0, 100, |e| e.net.0 == 7), 0);
        let mut out = Vec::new();
        assert_eq!(w.pop_epoch(&mut out), Some(2));
        assert_eq!(w.pop_epoch(&mut out), Some(90));
        assert_eq!(out, vec![ev(90, 4)]);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_len_counts_overflow() {
        let mut w = TimingWheel::new(2);
        w.push(ev(0, 0));
        w.push(ev(50, 1));
        assert_eq!(w.len(), 2);
    }

    #[test]
    #[should_panic(expected = "past")]
    #[cfg(debug_assertions)]
    fn wheel_rejects_past_events() {
        let mut w = TimingWheel::new(4);
        w.push(ev(5, 0));
        let mut out = Vec::new();
        w.pop_epoch(&mut out);
        w.push(ev(2, 1));
    }
}
