//! Checkpoint integrity: the GVT-round [`Checkpoint`] images that crash
//! recovery stands on must (a) survive JSON serialization losslessly,
//! (b) restore to a process whose state image is identical to the
//! original's, and (c) make mid-run crash-restore invisible — identical
//! counters to an uninterrupted run — across every schedule policy and a
//! spread of seeds.

use dvs_core::multiway::{partition_multiway, MultiwayConfig};
use dvs_core::{FromJson, Json, ToJson};
use dvs_integration_tests::elaborate;
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::dst::first_cut_channel;
use dvs_sim::timewarp::proc::ClusterProcess;
use dvs_sim::timewarp::{
    run_timewarp, Checkpoint, CheckpointCadence, CheckpointDelta, DeltaError, FaultPlan,
    SchedulePolicy, StateSaving, TimeWarpConfig, Transport, TwMessage,
};
use dvs_verilog::Netlist;
use dvs_workloads::seqcirc::generate_counter;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use proptest::prelude::*;

/// Drive a two-cluster system by hand for `epochs` scheduling steps,
/// shuttling messages between the processes, and return the processes —
/// a realistic mid-run state with pending events, rollback
/// history and outstanding output log entries.
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

fn two_cluster_fixture() -> (Netlist, Vec<u32>) {
    let nl = elaborate(&generate_counter(6));
    let gb: Vec<u32> = (0..nl.gate_count()).map(|i| (i % 2) as u32).collect();
    (nl, gb)
}

/// Pump a two-cluster system and capture a per-cluster *sequence* of
/// evolving images, one every `stride` scheduling steps — the raw material
/// for base+delta chains with realistic edits (fossil drains, rollback
/// truncations, fresh appends) between consecutive rounds.
fn image_sequence<'a>(
    nl: &'a Netlist,
    plan: &'a ClusterPlan,
    stim_seed: u64,
    rounds: u32,
    stride: u32,
) -> Vec<Vec<Checkpoint>> {
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
    let mut images: Vec<Vec<Checkpoint>> = vec![Vec::new(); 2];
    let mut step = 0u32;
    for round in 0..rounds {
        for _ in 0..stride {
            let c = (step % 2) as usize;
            step += 1;
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
        for (c, p) in procs.iter().enumerate() {
            images[c].push(p.checkpoint(round as u64));
        }
    }
    images
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
        let (nl, gb) = two_cluster_fixture();
        let plan = ClusterPlan::new(&nl, &gb, 2);
        let procs = pump_two_clusters(&nl, &plan, stim_seed, epochs);
        for p in &procs {
            let ck = p.checkpoint(gvt);
            let text = ck.to_json().emit().expect("emit");
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
        let (nl, gb) = two_cluster_fixture();
        let plan = ClusterPlan::new(&nl, &gb, 2);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `CheckpointDelta -> json -> CheckpointDelta` is lossless and
    /// byte-deterministic on realistic consecutive-round edits, and
    /// applying the decoded delta reproduces the next image exactly.
    #[test]
    fn delta_chain_roundtrip_is_bit_exact(
        stim_seed in any::<u64>(),
        stride in 1u32..8,
    ) {
        let (nl, gb) = two_cluster_fixture();
        let plan = ClusterPlan::new(&nl, &gb, 2);
        let images = image_sequence(&nl, &plan, stim_seed, 6, stride);
        for seq in &images {
            for pair in seq.windows(2) {
                let d = CheckpointDelta::between(&pair[0], &pair[1]);
                let text = d.to_json().emit().expect("emit");
                let back = CheckpointDelta::from_json(&Json::parse(&text).expect("parse"))
                    .expect("delta deserializes");
                prop_assert_eq!(&back, &d, "round-trip lost information");
                prop_assert_eq!(back.to_json().emit().expect("emit"), text);
                let next = pair[0].apply_delta(&back).expect("delta applies");
                prop_assert_eq!(&next, &pair[1], "decoded delta does not reproduce next image");
            }
        }
    }

    /// Restoring from base + replayed deltas equals restoring from the full
    /// image, at every round of the chain — through the actual process
    /// restore path, not just the image algebra.
    #[test]
    fn restore_from_chain_equals_restore_from_full_at_every_round(
        stim_seed in any::<u64>(),
        stride in 1u32..8,
    ) {
        let (nl, gb) = two_cluster_fixture();
        let plan = ClusterPlan::new(&nl, &gb, 2);
        let stim = VectorStimulus::from_netlist(&nl, 10, stim_seed);
        let images = image_sequence(&nl, &plan, stim_seed, 5, stride);
        for seq in &images {
            let base = &seq[0];
            let deltas: Vec<CheckpointDelta> = seq
                .windows(2)
                .map(|pair| CheckpointDelta::between(&pair[0], &pair[1]))
                .collect();
            for (r, expected) in seq.iter().enumerate() {
                prop_assert_eq!(
                    &base.apply_chain(&deltas[..r]).expect("chain applies"),
                    expected,
                    "chain diverged at round {}", r
                );
                let (restored, image) = ClusterProcess::from_chain(
                    &nl,
                    &plan,
                    stim.clone(),
                    30,
                    base,
                    &deltas[..r],
                )
                .expect("process restores from chain");
                prop_assert_eq!(&image, expected);
                prop_assert_eq!(&restored.checkpoint(expected.gvt), expected);
            }
        }
    }
}

/// Broken chains fail with typed [`DeltaError`]s instead of panicking or
/// silently producing a wrong image: out-of-order and truncated chains are
/// chain mismatches, cross-cluster deltas are cluster mismatches, tampered
/// payloads are corruption, and a foreign schema is a schema mismatch.
#[test]
fn broken_delta_chains_fail_with_typed_errors() {
    let (nl, gb) = two_cluster_fixture();
    let plan = ClusterPlan::new(&nl, &gb, 2);
    let images = image_sequence(&nl, &plan, 5, 4, 3);
    let seq = &images[0];
    let deltas: Vec<CheckpointDelta> = seq
        .windows(2)
        .map(|pair| CheckpointDelta::between(&pair[0], &pair[1]))
        .collect();

    // Out of order: the second delta applied straight to the base.
    let err = seq[0].apply_delta(&deltas[1]).unwrap_err();
    assert!(matches!(err, DeltaError::ChainMismatch { .. }), "{err}");

    // Truncated: a chain with the middle link missing.
    let gapped = [deltas[0].clone(), deltas[2].clone()];
    let err = seq[0].apply_chain(&gapped).unwrap_err();
    assert!(matches!(err, DeltaError::ChainMismatch { .. }), "{err}");

    // Cross-cluster: cluster 1's delta against cluster 0's base.
    let foreign = CheckpointDelta::between(&images[1][0], &images[1][1]);
    let err = seq[0].apply_delta(&foreign).unwrap_err();
    assert!(
        matches!(
            err,
            DeltaError::ClusterMismatch { .. } | DeltaError::ChainMismatch { .. }
        ),
        "{err}"
    );

    // Tampered payload: a log window that claims more history than exists.
    let mut corrupt = deltas[0].clone();
    corrupt.processed.drop_front = u32::MAX;
    let err = seq[0].apply_delta(&corrupt).unwrap_err();
    assert!(matches!(err, DeltaError::Corrupt(_)), "{err}");

    // Foreign schema version: a future one, the schema-2 deltas that still
    // carried the removed snapshot fields, and the schema-3 deltas with
    // their tombstone and schedule-log edits.
    for schema in [999, 2, 3] {
        let mut wrong_schema = deltas[0].clone();
        wrong_schema.schema = schema;
        let err = seq[0].apply_delta(&wrong_schema).unwrap_err();
        assert!(matches!(err, DeltaError::SchemaMismatch { .. }), "{err}");
    }
}

/// Schema and kind are enforced on read: a tampered artifact is rejected
/// instead of silently misinterpreted.
#[test]
fn checkpoint_rejects_wrong_kind_and_schema() {
    let (nl, gb) = two_cluster_fixture();
    let plan = ClusterPlan::new(&nl, &gb, 2);
    let procs = pump_two_clusters(&nl, &plan, 1, 8);
    let ck = procs[0].checkpoint(3);

    let mut wrong_kind = ck.to_json();
    if let Json::Object(members) = &mut wrong_kind {
        for (k, v) in members.iter_mut() {
            if k == "kind" {
                *v = Json::Str("flow_report".into());
            }
        }
    }
    assert!(Checkpoint::from_json(&wrong_kind).is_err());

    for schema in [999, 2, 3] {
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

/// The satellite acceptance sweep: a crash-and-restore in the middle of a
/// deterministic run leaves every counter identical to the uninterrupted
/// run, for 16 seeds × all four schedule policies.
#[test]
fn mid_run_restore_is_invisible_for_sixteen_seeds_and_all_policies() {
    let src = generate_viterbi(&ViterbiParams::tiny());
    let nl = elaborate(&src);
    let part = partition_multiway(&nl, &MultiwayConfig::new(3, 20.0));
    let plan = ClusterPlan::new(&nl, &part.gate_blocks, 3);
    let stim = VectorStimulus::from_netlist(&nl, 10, 7);
    let delay = first_cut_channel(&plan).expect("cut channel");
    let policies = [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::SeededRandom,
        SchedulePolicy::StragglerHeavy,
        SchedulePolicy::DelayChannel {
            src: delay.0,
            dst: delay.1,
        },
    ];
    for policy in policies {
        for seed in 0..16u64 {
            let base = TimeWarpConfig::builder()
                .transport(Transport::in_proc(seed, policy))
                .window(8)
                .epochs_per_quantum(2)
                .gvt_interval(1)
                .build()
                .expect("valid config");
            let clean = run_timewarp(&nl, &plan, &stim, 20, &base).expect("clean run stalled");
            let cfg = TimeWarpConfig::builder()
                .transport(Transport::in_proc(seed, policy))
                .window(8)
                .epochs_per_quantum(2)
                .gvt_interval(1)
                .fault(FaultPlan::crash((seed % 3) as u32, 20 + seed * 9))
                .build()
                .expect("valid config");
            let tw = run_timewarp(&nl, &plan, &stim, 20, &cfg).expect("crash run stalled");
            let label = format!("{} seed {seed}", policy.name());
            assert_eq!(tw.recovery.crashes, 1, "{label}: fault did not fire");
            assert_eq!(tw.stats, clean.stats, "{label}: stats diverged");
            assert_eq!(
                tw.cluster_stats, clean.cluster_stats,
                "{label}: cluster stats diverged"
            );
            assert_eq!(tw.values, clean.values, "{label}: values diverged");
            assert_eq!(tw.gvt_rounds, clean.gvt_rounds, "{label}: GVT diverged");
        }
    }
}

/// The delta-cadence leg of the sweep: with bases only every 4th GVT round
/// and deltas in between, a mid-window crash restores from base + replayed
/// deltas + input-log replay — and stays invisible across every policy.
/// Also pins that a cadence-4 run without faults equals a cadence-1 run:
/// the capture path is side-effect-free.
#[test]
fn mid_run_restore_with_delta_cadence_is_invisible() {
    let src = generate_viterbi(&ViterbiParams::tiny());
    let nl = elaborate(&src);
    let part = partition_multiway(&nl, &MultiwayConfig::new(3, 20.0));
    let plan = ClusterPlan::new(&nl, &part.gate_blocks, 3);
    let stim = VectorStimulus::from_netlist(&nl, 10, 7);
    let delay = first_cut_channel(&plan).expect("cut channel");
    let policies = [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::SeededRandom,
        SchedulePolicy::StragglerHeavy,
        SchedulePolicy::DelayChannel {
            src: delay.0,
            dst: delay.1,
        },
    ];
    let build = |seed: u64, policy: SchedulePolicy, cadence: u32, fault: Option<FaultPlan>| {
        let mut b = TimeWarpConfig::builder()
            .transport(Transport::in_proc(seed, policy))
            .window(8)
            .epochs_per_quantum(2)
            .gvt_interval(1)
            .checkpoint_cadence(CheckpointCadence::every_n_rounds(cadence));
        if let Some(fault) = fault {
            b = b.fault(fault);
        }
        b.build().expect("valid config")
    };
    for policy in policies {
        for seed in 0..8u64 {
            let plain = build(seed, policy, 1, None);
            let clean = run_timewarp(&nl, &plan, &stim, 20, &plain).expect("clean run stalled");
            let cadenced = build(seed, policy, 4, None);
            let quiet =
                run_timewarp(&nl, &plan, &stim, 20, &cadenced).expect("cadence run stalled");
            let label = format!("{} seed {seed}", policy.name());
            assert_eq!(quiet.stats, clean.stats, "{label}: cadence perturbed stats");
            assert_eq!(
                quiet.values, clean.values,
                "{label}: cadence perturbed values"
            );

            let faulty = build(
                seed,
                policy,
                4,
                Some(FaultPlan::crash((seed % 3) as u32, 20 + seed * 9)),
            );
            let tw = run_timewarp(&nl, &plan, &stim, 20, &faulty).expect("crash run stalled");
            assert_eq!(tw.recovery.crashes, 1, "{label}: fault did not fire");
            assert_eq!(tw.stats, clean.stats, "{label}: stats diverged");
            assert_eq!(
                tw.cluster_stats, clean.cluster_stats,
                "{label}: cluster stats diverged"
            );
            assert_eq!(tw.values, clean.values, "{label}: values diverged");
            assert_eq!(tw.gvt_rounds, clean.gvt_rounds, "{label}: GVT diverged");
            assert!(
                tw.recovery.checkpoint_bytes_delta > 0,
                "{label}: no delta bytes counted — cadence leg did not exercise deltas"
            );
        }
    }
}
