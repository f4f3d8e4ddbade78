//! The modular-regime workload end to end: on the pipeline SoC, the
//! design-driven partitioner should match the flat baseline's cut at a
//! fraction of the cost, and the Time Warp kernel must stay bit-exact.

use dvs_core::multiway::{partition_multiway, partition_multiway_weighted, MultiwayConfig};
use dvs_hmetis::{partition_kway, HmetisConfig};
use dvs_hypergraph::builder::{cut_size_gates, gate_level};
use dvs_integration_tests::elaborate;
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::{run_timewarp, TimeWarpConfig};
use dvs_workloads::pipeline_soc::{generate_pipeline_soc, PipelineParams};

#[test]
fn design_driven_matches_flat_baseline_on_modular_interconnect() {
    let p = PipelineParams {
        stages: 8,
        width: 8,
        rounds: 2,
    };
    let src = generate_pipeline_soc(&p);
    let nl = elaborate(&src);
    let gh = gate_level(&nl);

    for k in [2u32, 4] {
        let dd = partition_multiway(&nl, &MultiwayConfig::new(k, 7.5));
        let hm = partition_kway(&gh.hg, k, &HmetisConfig::with_balance(7.5, 9));
        let hm_cut = cut_size_gates(&nl, &gh.gate_blocks(&hm));
        assert!(dd.balanced, "k={k}");
        // On modular interconnect the module-boundary cut is optimal: the
        // design-driven result must be within a small factor of (often
        // equal to) the flat baseline's.
        assert!(
            dd.cut <= hm_cut * 2,
            "k={k}: design-driven cut {} vs flat {}",
            dd.cut,
            hm_cut
        );
        // And both cuts must be on the order of the interface width, not
        // the stage internals.
        assert!(
            dd.cut <= ((k as u64) * (p.width as u64 + 4)) * 2,
            "k={k}: cut {} not interface-scale",
            dd.cut
        );
    }
}

#[test]
fn pipeline_timewarp_bit_exact_with_dffr() {
    // The pipeline uses `dffr` flops throughout; run it optimistically
    // across a real partition and compare with the sequential kernel.
    let src = generate_pipeline_soc(&PipelineParams::tiny());
    let nl = elaborate(&src);
    let part = partition_multiway(&nl, &MultiwayConfig::new(2, 15.0));
    let plan = ClusterPlan::new(&nl, &part.gate_blocks, 2);
    let stim = VectorStimulus::from_netlist(&nl, 12, 17);
    let cycles = 30;

    let mut seq = SeqSim::new(
        &nl,
        &SimConfig {
            cycles,
            init_zero: true,
        },
    );
    seq.run(&stim, cycles, &mut NullObserver);
    let tw = run_timewarp(&nl, &plan, &stim, cycles, &TimeWarpConfig::default())
        .expect("time warp run stalled");
    let wrong = seq.mismatches(&nl, &tw.values);
    assert!(wrong.is_empty(), "nets {wrong:?} differ");
}

#[test]
fn activity_metric_handles_pipeline() {
    // The pipeline's stages all churn equally; activity-weighted and
    // gate-count partitions should be comparably balanced, and the API must
    // hold its invariants on a multi-module design.
    use dvs_core::activity::profile_gate_activity;
    let src = generate_pipeline_soc(&PipelineParams::tiny());
    let nl = elaborate(&src);
    let stim = VectorStimulus::from_netlist(&nl, 12, 1);
    let act = profile_gate_activity(&nl, &stim, 40);
    assert_eq!(act.len(), nl.gate_count());
    assert!(act.iter().all(|&a| a >= 1));
    let r = partition_multiway_weighted(&nl, &MultiwayConfig::new(2, 20.0), Some(&act[..]));
    assert_eq!(r.gate_blocks.len(), nl.gate_count());
    assert!(r.balanced, "activity loads {:?}", r.loads);
    // Loads are in activity units and sum to the total activity.
    assert_eq!(r.loads.iter().sum::<u64>(), act.iter().sum::<u64>());
}
