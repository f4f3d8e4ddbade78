//! Global Virtual Time state shared by all workers.
//!
//! The sampling scheme avoids a coordinator and message acknowledgements:
//!
//! * every worker publishes `lvt[w]` — a lower bound on the timestamp of any
//!   event it may still process or message it may still send;
//! * `in_transit` counts messages sent but not yet *reflected in the
//!   receiver's published LVT* (the receiver decrements only after
//!   publishing);
//! * `send_epoch` increments on every send.
//!
//! A sample `min(lvt)` taken while `in_transit == 0` held both before and
//! after reading all LVTs, with `send_epoch` unchanged across the read, is a
//! correct GVT lower bound: nothing was in flight, so every message is
//! reflected in some published LVT, and no new message appeared while
//! sampling. GVT only advances monotonically; `u64::MAX` signals global
//! quiescence (termination).
//!
//! The same state serves both executors: the free-running threaded workers
//! ([`super::run_timewarp`] in `Threads` mode) sample it concurrently,
//! while the deterministic single-threaded scheduler ([`super::dst`])
//! drives it from one thread — the atomics then cost nothing but keep the
//! code identical, so DST exercises the very bookkeeping the threads use.

use crate::wheel::VTime;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Shared GVT bookkeeping.
#[derive(Debug)]
pub struct GvtState {
    /// Published local virtual time per worker.
    lvt: Vec<AtomicU64>,
    /// Messages sent minus messages incorporated by receivers.
    pub in_transit: AtomicI64,
    /// Incremented on every send; guards sample validity.
    pub send_epoch: AtomicU64,
    /// Current GVT lower bound (monotone; `u64::MAX` = all done).
    pub gvt: AtomicU64,
    /// Successful GVT computations.
    pub gvt_rounds: AtomicU64,
    /// Run-control: a worker died or stalled; everyone abandons the attempt.
    pub abort: AtomicBool,
    /// Run-control: the livelock watchdog tripped (implies `abort`).
    pub stalled: AtomicBool,
    /// Messages actually shipped into channels (threaded transport only;
    /// the wire transports count on the supervisor side instead). Relaxed
    /// ordering: pure telemetry, never part of the GVT protocol.
    pub messages_sent: AtomicU64,
    /// At most one sampler at a time.
    sample_lock: Mutex<()>,
}

impl GvtState {
    pub fn new(k: usize) -> Self {
        GvtState {
            lvt: (0..k).map(|_| AtomicU64::new(0)).collect(),
            in_transit: AtomicI64::new(0),
            send_epoch: AtomicU64::new(0),
            gvt: AtomicU64::new(0),
            gvt_rounds: AtomicU64::new(0),
            abort: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            messages_sent: AtomicU64::new(0),
            sample_lock: Mutex::new(()),
        }
    }

    /// Publish worker `w`'s local virtual time.
    #[inline]
    pub fn publish_lvt(&self, w: usize, t: VTime) {
        self.lvt[w].store(t, Ordering::SeqCst);
    }

    /// Attempt a GVT sample; returns the new GVT if the sample was valid and
    /// advanced it.
    pub fn try_compute_gvt(&self) -> Option<VTime> {
        let _guard = self.sample_lock.try_lock()?;
        let epoch_before = self.send_epoch.load(Ordering::SeqCst);
        if self.in_transit.load(Ordering::SeqCst) != 0 {
            return None;
        }
        let mut min = VTime::MAX;
        for l in &self.lvt {
            min = min.min(l.load(Ordering::SeqCst));
        }
        if self.in_transit.load(Ordering::SeqCst) != 0
            || self.send_epoch.load(Ordering::SeqCst) != epoch_before
        {
            return None; // a send intervened; sample invalid
        }
        let prev = self.gvt.fetch_max(min, Ordering::SeqCst);
        if min > prev {
            self.gvt_rounds.fetch_add(1, Ordering::SeqCst);
            Some(min)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gvt_is_min_of_published_lvts() {
        let g = GvtState::new(3);
        g.publish_lvt(0, 10);
        g.publish_lvt(1, 7);
        g.publish_lvt(2, 12);
        assert_eq!(g.try_compute_gvt(), Some(7));
        assert_eq!(g.gvt.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn gvt_never_regresses() {
        let g = GvtState::new(2);
        g.publish_lvt(0, 100);
        g.publish_lvt(1, 100);
        assert_eq!(g.try_compute_gvt(), Some(100));
        g.publish_lvt(0, 50); // stale publication must not pull GVT back
        assert_eq!(g.try_compute_gvt(), None);
        assert_eq!(g.gvt.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn in_transit_blocks_sampling() {
        let g = GvtState::new(1);
        g.publish_lvt(0, 5);
        g.in_transit.fetch_add(1, Ordering::SeqCst);
        assert_eq!(g.try_compute_gvt(), None);
        g.in_transit.fetch_sub(1, Ordering::SeqCst);
        assert_eq!(g.try_compute_gvt(), Some(5));
    }

    #[test]
    fn quiescence_is_max() {
        let g = GvtState::new(2);
        g.publish_lvt(0, VTime::MAX);
        g.publish_lvt(1, VTime::MAX);
        assert_eq!(g.try_compute_gvt(), Some(VTime::MAX));
    }

    #[test]
    fn rounds_count_only_progress() {
        let g = GvtState::new(1);
        g.publish_lvt(0, 3);
        g.try_compute_gvt();
        g.try_compute_gvt(); // no progress
        assert_eq!(g.gvt_rounds.load(Ordering::SeqCst), 1);
        g.publish_lvt(0, 9);
        g.try_compute_gvt();
        assert_eq!(g.gvt_rounds.load(Ordering::SeqCst), 2);
    }
}
