//! Property tests: the timing wheel is observationally equivalent to the
//! heap it overflows into, and — driven the way a Time Warp cluster drives
//! it, with rewinds and in-place cancellation — to a sorted list.

use dvs_sim::wheel::{HeapQueue, NetEvent, Timed, TimingWheel};
use dvs_sim::Logic;
use dvs_verilog::NetId;
use proptest::prelude::*;

/// A randomized interleaving of pushes and epoch-pops. Pushed times are
/// kept ≥ the wheel's current epoch (the simulator invariant both queues
/// rely on).
#[derive(Debug, Clone)]
enum Op {
    /// Push an event `offset` ticks after the current epoch time.
    Push { offset: u64, net: u32 },
    /// Pop one epoch.
    PopEpoch,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..40, 0u32..16).prop_map(|(offset, net)| Op::Push { offset, net }),
        1 => Just(Op::PopEpoch),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wheel_and_heap_pop_identical_epochs(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut wheel = TimingWheel::new(16);
        let mut heap = HeapQueue::new();
        // The heap has no notion of "now"; mirror the wheel's clock.
        let mut now = 0u64;
        let mut wheel_out: Vec<(u64, Vec<u32>)> = Vec::new();
        let mut heap_out: Vec<(u64, Vec<u32>)> = Vec::new();

        for op in &ops {
            match *op {
                Op::Push { offset, net } => {
                    let ev = NetEvent {
                        time: now + offset,
                        net: NetId(net),
                        value: Logic::One,
                    };
                    wheel.push(ev);
                    heap.push(ev);
                }
                Op::PopEpoch => {
                    let mut wbuf = Vec::new();
                    let wt = wheel.pop_epoch(&mut wbuf);
                    let mut hbuf = Vec::new();
                    let ht = heap.pop_epoch(&mut hbuf);
                    prop_assert_eq!(wt, ht, "epoch times diverge");
                    if let Some(t) = wt {
                        now = now.max(t + 1);
                        // Same multiset of nets per epoch (ordering within an
                        // epoch is implementation-defined).
                        let mut wn: Vec<u32> = wbuf.iter().map(|e| e.net.0).collect();
                        let mut hn: Vec<u32> = hbuf.iter().map(|e| e.net.0).collect();
                        wn.sort_unstable();
                        hn.sort_unstable();
                        wheel_out.push((t, wn));
                        heap_out.push((t, hn));
                    }
                }
            }
        }
        // Drain both to the end.
        loop {
            let mut wbuf = Vec::new();
            let wt = wheel.pop_epoch(&mut wbuf);
            let mut hbuf = Vec::new();
            let ht = heap.pop_epoch(&mut hbuf);
            prop_assert_eq!(wt, ht);
            match wt {
                None => break,
                Some(t) => {
                    let mut wn: Vec<u32> = wbuf.iter().map(|e| e.net.0).collect();
                    let mut hn: Vec<u32> = hbuf.iter().map(|e| e.net.0).collect();
                    wn.sort_unstable();
                    hn.sort_unstable();
                    wheel_out.push((t, wn));
                    heap_out.push((t, hn));
                }
            }
        }
        prop_assert_eq!(wheel_out, heap_out);
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }

    /// Epoch times from either queue are strictly increasing.
    #[test]
    fn epochs_strictly_increase(times in prop::collection::vec(0u64..500, 1..80)) {
        let mut heap = HeapQueue::new();
        for &t in &times {
            heap.push(NetEvent { time: t, net: NetId(0), value: Logic::Zero });
        }
        let mut prev: Option<u64> = None;
        let mut buf = Vec::new();
        while let Some(t) = heap.pop_epoch(&mut buf) {
            if let Some(p) = prev {
                prop_assert!(t > p);
            }
            prev = Some(t);
            buf.clear();
        }
    }
}

/// A pending event as a Time Warp cluster queues it: drained by
/// `(time, order)`, cancelled by message identity or by creation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pend {
    time: u64,
    order: u64,
    /// `Some(created_at)` for a locally scheduled event (`time` is then
    /// `created_at + 1`), `None` for a remote one, which `order` identifies.
    local: Option<u64>,
}

impl Timed for Pend {
    fn time(&self) -> u64 {
        self.time
    }
    fn order(&self) -> u64 {
        self.order
    }
}

#[derive(Debug, Clone)]
enum TwOp {
    /// A new remote event at an absolute time: below the head it rewinds
    /// the wheel, far above it lands in the overflow heap.
    Remote {
        time: u64,
    },
    /// A new local event, one tick after `created_at`.
    Local {
        created_at: u64,
    },
    /// Put the `pick`-th popped event back under its old `order`.
    Requeue {
        pick: usize,
    },
    /// Cancel the `pick`-th queued remote event, as its anti-message would.
    CancelRemote {
        pick: usize,
    },
    /// Drop every queued local event created at or after `t`, as a
    /// rollback to `t` would.
    DiscardLocalFrom {
        t: u64,
    },
    PopEpoch,
}

/// The wheel under test has 8 buckets: times up to 30 wrap it several times
/// over, and 1000+ is a gap no ring of that size spans.
fn time_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![4 => 0u64..30, 1 => 1000u64..1040]
}

fn tw_op_strategy() -> impl Strategy<Value = TwOp> {
    prop_oneof![
        3 => time_strategy().prop_map(|time| TwOp::Remote { time }),
        3 => time_strategy().prop_map(|created_at| TwOp::Local { created_at }),
        2 => (0usize..1 << 16).prop_map(|pick| TwOp::Requeue { pick }),
        2 => (0usize..1 << 16).prop_map(|pick| TwOp::CancelRemote { pick }),
        1 => time_strategy().prop_map(|t| TwOp::DiscardLocalFrom { t }),
        3 => Just(TwOp::PopEpoch),
    ]
}

/// The model: every queued event in one list, the earliest `(time, order)`
/// found by search.
fn model_pop_epoch(model: &mut Vec<Pend>) -> Option<(u64, Vec<Pend>)> {
    let t = model.iter().map(|p| p.time).min()?;
    let mut epoch: Vec<Pend> = model.iter().copied().filter(|p| p.time == t).collect();
    epoch.sort_by_key(|p| p.order);
    model.retain(|p| p.time != t);
    Some((t, epoch))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_matches_a_sorted_list_under_time_warp_use(
        ops in prop::collection::vec(tw_op_strategy(), 1..200),
    ) {
        let mut wheel: TimingWheel<Pend> = TimingWheel::new(8);
        let mut model: Vec<Pend> = Vec::new();
        let mut popped: Vec<Pend> = Vec::new();
        let mut order = 0u64;
        let mut buf = Vec::new();

        for op in &ops {
            match *op {
                TwOp::Remote { time } => {
                    let p = Pend { time, order, local: None };
                    order += 1;
                    wheel.insert(p);
                    model.push(p);
                }
                TwOp::Local { created_at } => {
                    let p = Pend { time: created_at + 1, order, local: Some(created_at) };
                    order += 1;
                    wheel.insert(p);
                    model.push(p);
                }
                TwOp::Requeue { pick } => {
                    if !popped.is_empty() {
                        let p = popped.swap_remove(pick % popped.len());
                        wheel.insert(p);
                        model.push(p);
                    }
                }
                TwOp::CancelRemote { pick } => {
                    let remotes: Vec<Pend> =
                        model.iter().copied().filter(|p| p.local.is_none()).collect();
                    if !remotes.is_empty() {
                        let victim = remotes[pick % remotes.len()];
                        let gone = wheel.discard(victim.time, victim.time, |p| *p == victim);
                        prop_assert_eq!(gone, 1, "cancel of {:?}", victim);
                        model.retain(|p| *p != victim);
                    }
                }
                TwOp::DiscardLocalFrom { t } => {
                    let dead = |p: &Pend| p.local.is_some_and(|created_at| created_at >= t);
                    let gone = wheel.discard(t + 1, u64::MAX, dead);
                    let before = model.len();
                    model.retain(|p| !dead(p));
                    prop_assert_eq!(gone, before - model.len());
                }
                TwOp::PopEpoch => {
                    let expected = model_pop_epoch(&mut model);
                    prop_assert_eq!(wheel.next_time(), expected.as_ref().map(|(t, _)| *t));
                    let t = wheel.pop_epoch(&mut buf);
                    prop_assert_eq!(t.map(|t| (t, buf.clone())), expected);
                    popped.append(&mut buf);
                }
            }
            prop_assert_eq!(wheel.len(), model.len());
        }
        while let Some(expected) = model_pop_epoch(&mut model) {
            let t = wheel.pop_epoch(&mut buf);
            prop_assert_eq!(t.map(|t| (t, buf.clone())), Some(expected));
        }
        prop_assert!(wheel.is_empty());
        prop_assert_eq!(wheel.pop_epoch(&mut buf), None);
    }
}
