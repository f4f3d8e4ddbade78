//! Checkpoint integrity: the GVT-round [`Checkpoint`] images that crash
//! recovery stands on must (a) survive JSON serialization losslessly,
//! (b) restore to a process whose state image is identical to the
//! original's, and (c) make mid-run crash-restore invisible — identical
//! counters to an uninterrupted run — across every schedule policy and a
//! spread of seeds.

use dvs_bench::scenario::{assert_same_run, policies, Built, Circuit, Partition, Scenario};
use dvs_core::{FromJson, Json, ToJson};
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::proc::ClusterProcess;
use dvs_sim::timewarp::{Checkpoint, FaultPlan, StateSaving, TwMessage};
use dvs_sim::wheel::NetEvent;
use dvs_sim::Logic;
use dvs_verilog::Netlist;
use proptest::prelude::*;

/// Drive a two-cluster system by hand for `epochs` scheduling steps,
/// shuttling messages between the processes, and return the processes —
/// a realistic mid-run state with pending events and rollback history.
fn pump_two_clusters<'a>(
    nl: &'a Netlist,
    plan: &'a ClusterPlan,
    stim_seed: u64,
    epochs: u32,
) -> Vec<ClusterProcess<'a>> {
    let stim = VectorStimulus::from_netlist(nl, 10, stim_seed);
    let cycles = 30;
    let mut procs: Vec<ClusterProcess> = (0..2)
        .map(|c| {
            ClusterProcess::new(
                nl,
                plan,
                c,
                stim.clone(),
                cycles,
                StateSaving::IncrementalUndo,
            )
        })
        .collect();
    let mut queues: Vec<Vec<TwMessage>> = vec![Vec::new(); 2];
    for step in 0..epochs {
        let c = (step % 2) as usize;
        // Deliver everything queued for `c` first, then advance one epoch.
        let inbox = std::mem::take(&mut queues[c]);
        let mut outbox: Vec<TwMessage> = Vec::new();
        let mut send = |m: TwMessage| outbox.push(m);
        for m in inbox {
            procs[c].handle_message(m, &mut send);
        }
        procs[c].process_next_epoch(u64::MAX, &mut send);
        for m in outbox {
            queues[m.dst as usize].push(m);
        }
    }
    procs
}

/// A 6-bit counter dealt out round-robin over two clusters.
fn two_cluster_fixture() -> (Netlist, ClusterPlan) {
    let counter = Circuit::Counter { bits: 6 };
    let built = Scenario::new(counter, Partition::Blocks(vec![0, 1]), 0, 30).build();
    (built.nl, built.plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Checkpoint -> json -> Checkpoint` is lossless on realistic mid-run
    /// states, and capturing the same state twice yields byte-identical
    /// artifacts (unordered collections are sorted at capture).
    #[test]
    fn checkpoint_json_roundtrip_is_lossless(
        stim_seed in any::<u64>(),
        epochs in 1u32..40,
        gvt in 0u64..50,
    ) {
        let (nl, plan) = two_cluster_fixture();
        let procs = pump_two_clusters(&nl, &plan, stim_seed, epochs);
        for p in &procs {
            let ck = p.checkpoint(gvt);
            let text = ck.to_json().emit().expect("emit");
            // The streamed encoder a worker ships is the reference, byte
            // for byte.
            prop_assert_eq!(ck.to_text(), text);
            let back = Checkpoint::from_json(&Json::parse(&text).expect("parse"))
                .expect("checkpoint deserializes");
            prop_assert_eq!(&back, &ck, "round-trip lost information");
            // Determinism of capture and of serialization.
            let again = p.checkpoint(gvt);
            prop_assert_eq!(&again, &ck);
            prop_assert_eq!(again.to_json().emit().expect("emit"), text);
        }
    }

    /// Restoring a checkpoint yields a process whose own state image is
    /// identical to the one it was built from — capture/restore is a
    /// fixed point.
    #[test]
    fn restored_process_reproduces_its_image(
        stim_seed in any::<u64>(),
        epochs in 1u32..40,
    ) {
        let (nl, plan) = two_cluster_fixture();
        let stim = VectorStimulus::from_netlist(&nl, 10, stim_seed);
        let procs = pump_two_clusters(&nl, &plan, stim_seed, epochs);
        for p in &procs {
            let ck = p.checkpoint(7);
            let restored = ClusterProcess::from_checkpoint(
                &nl,
                &plan,
                stim.clone(),
                30,
                &ck,
            );
            prop_assert_eq!(restored.checkpoint(7), ck);
        }
    }
}

/// Schema and kind are enforced on read: a tampered artifact is rejected
/// instead of silently misinterpreted.
#[test]
fn checkpoint_rejects_wrong_kind_and_schema() {
    let (nl, plan) = two_cluster_fixture();
    let procs = pump_two_clusters(&nl, &plan, 1, 8);
    let ck = procs[0].checkpoint(3);

    // Another artifact's kind, and the kind of the removed delta images.
    for kind in ["flow_report", "tw_checkpoint_delta"] {
        let mut wrong_kind = ck.to_json();
        if let Json::Object(members) = &mut wrong_kind {
            for (k, v) in members.iter_mut() {
                if k == "kind" {
                    *v = Json::Str(kind.into());
                }
            }
        }
        let err = Checkpoint::from_json(&wrong_kind).unwrap_err();
        assert!(err.msg.contains("expected kind `tw_checkpoint`"), "{err}");
    }

    for schema in [999, 2, 3, 4, 6] {
        let mut wrong_schema = ck.to_json();
        if let Json::Object(members) = &mut wrong_schema {
            for (k, v) in members.iter_mut() {
                if k == "checkpoint_schema" {
                    *v = Json::Int(schema);
                }
            }
        }
        let err = Checkpoint::from_json(&wrong_schema).unwrap_err();
        assert!(err.msg.contains("checkpoint_schema"), "{err}");
    }
}

/// Cluster 0 of `built` on its own, nothing delivered from cluster 1,
/// driven through every epoch at or below `limit`, with what it sent.
fn cluster0_through(built: &Built, limit: u64) -> (ClusterProcess<'_>, Vec<TwMessage>) {
    let mut p = ClusterProcess::new(
        &built.nl,
        &built.plan,
        0,
        built.stim.clone(),
        12,
        StateSaving::IncrementalUndo,
    );
    let mut sent = Vec::new();
    while p.process_next_epoch(limit, &mut |m| sent.push(m)) {}
    (p, sent)
}

/// A rollback leaves exactly the history of a process that never ran past
/// the straggler, and cancels exactly what it sent after it: for every
/// straggler time `t`, cluster 0 driven to a stop and then handed a message
/// at `t` holds the values, processed events and replaced values of a twin
/// driven only through the epochs below `t`, and sends one anti-message for
/// each of its sends timed after `t`, in the order it sent them. It is
/// driven to two stops: the end of the run, and a mid-run stop where
/// exported events it scheduled still wait at `last_time + 1`, so a
/// straggler more than 64 ticks below them makes the rollback's requeue
/// spill their bucket into the wheel's overflow heap.
#[test]
fn rollback_leaves_the_history_of_a_process_that_stopped_short() {
    let hier = Circuit::random_hier(8);
    let built = Scenario::new(hier, Partition::Blocks(vec![0, 1]), 0, 12).build();
    let exports = &built.plan.clusters[0].exports;
    let exported = |e: &NetEvent| exports.iter().any(|(net, _)| *net == e.net);
    let (import, _) = built.plan.clusters[1]
        .exports
        .iter()
        .find(|(_, readers)| readers.contains(&0))
        .expect("cluster 1 feeds cluster 0");
    let end = cluster0_through(&built, u64::MAX).0.checkpoint(0);
    // Settling and epoch 0 both put an event on one net at t = 1, and the
    // later one finds the value it carries: a processed record that
    // changed nothing, which the rollback walk must step over.
    let at_1: Vec<_> = (end.processed.iter().zip(&end.replaced))
        .filter(|(e, _)| e.time == 1)
        .collect();
    assert!(at_1.iter().enumerate().any(|(i, &(e, &old))| {
        e.value == old && at_1[..i].iter().any(|(earlier, _)| earlier.net == e.net)
    }));
    // The first stop above the ring's reach with more than one exported
    // event waiting at `last_time + 1`: their order is what a spill could
    // break.
    let waiting = |limit: u64| {
        let ck = cluster0_through(&built, limit).0.checkpoint(0);
        let next = ck.last_time + 1;
        let n = ck
            .pending
            .iter()
            .filter(|e| e.time == next && exported(e))
            .count();
        (next, n)
    };
    let mid = (64..end.last_time)
        .find(|&limit| waiting(limit).1 > 1)
        .expect("a stop with exported events waiting");
    let mut spilled = 0;
    for limit in [u64::MAX, mid] {
        let last_time = cluster0_through(&built, limit).0.checkpoint(0).last_time;
        for t in 1..=last_time {
            let (mut rolled, sent) = cluster0_through(&built, limit);
            let straggler = TwMessage {
                src: 1,
                dst: 0,
                ev: NetEvent {
                    time: t,
                    net: *import,
                    value: Logic::One,
                },
                anti: false,
            };
            let mut antis = Vec::new();
            rolled.handle_message(straggler, &mut |m| antis.push(m));
            let undone: Vec<_> = (sent.iter())
                .filter(|m| m.ev.time > t)
                .map(|&m| TwMessage { anti: true, ..m })
                .collect();
            assert_eq!(antis, undone, "stop {limit}, straggler at {t}");
            if antis
                .iter()
                .any(|m| m.ev.time == last_time + 1 && t + 64 <= m.ev.time)
            {
                spilled += 1;
            }
            let a = rolled.checkpoint(0);
            let b = cluster0_through(&built, t - 1).0.checkpoint(0);
            assert_eq!(
                (a.values, a.processed, a.replaced),
                (b.values, b.processed, b.replaced),
                "stop {limit}, straggler at {t}"
            );
        }
    }
    assert!(
        spilled > 0,
        "no straggler cancelled a spilled send (stop {mid})"
    );
}

/// The satellite acceptance sweep: a crash-and-restore in the middle of a
/// deterministic run leaves every counter identical to the uninterrupted
/// run, for 16 seeds × all four schedule policies.
#[test]
fn mid_run_restore_is_invisible_for_sixteen_seeds_and_all_policies() {
    let base = Scenario::tiny_viterbi(7, 20);
    let built = base.build();
    for policy in policies(&built.plan) {
        for seed in 0..16u64 {
            let clean = base.in_proc(seed, policy);
            let crash = clean.faulted(FaultPlan::crash((seed % 3) as u32, 20 + seed * 9));
            let (clean, tw) = (clean.run_ok(&built), crash.run_ok(&built));
            let label = format!("{} seed {seed}", policy.name());
            assert_eq!(tw.recovery.crashes, 1, "{label}: fault did not fire");
            assert_same_run(&tw, &clean, &label);
        }
    }
}
