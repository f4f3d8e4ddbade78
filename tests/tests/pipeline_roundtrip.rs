//! End-to-end pipeline integration: generated workload → front end →
//! partitioner → cluster plan → simulators, across every generator.

use dvs_core::multiway::{partition_multiway, MultiwayConfig};
use dvs_hypergraph::builder::cut_size_gates;
use dvs_hypergraph::partition::BalanceConstraint;
use dvs_integration_tests::elaborate;
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::cluster_model::{ClusterModel, ClusterModelConfig};
use dvs_sim::stimulus::VectorStimulus;
use dvs_workloads::random_hier::{generate_random_hier, RandomHierParams};
use dvs_workloads::seqcirc::{generate_counter, generate_lfsr};
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};

/// The whole flow on one source: parse, partition for (k, b), build the
/// cluster plan, run the modeled cluster, and check every invariant that
/// ties the layers together.
fn roundtrip(src: &str, k: u32, b: f64) {
    let nl = elaborate(src);
    nl.validate().expect("generated netlist is consistent");

    let result = partition_multiway(&nl, &MultiwayConfig::new(k, b));
    assert_eq!(result.gate_blocks.len(), nl.gate_count());

    // Load accounting agrees between partitioner and plan.
    let plan = ClusterPlan::new(&nl, &result.gate_blocks, k as usize);
    assert_eq!(plan.loads(), result.loads);
    assert_eq!(plan.loads().iter().sum::<u64>(), nl.gate_count() as u64);

    // Cut accounting: the partitioner's hyperedge cut matches a direct
    // recount; the plan's communication nets are the *driven* subset (a
    // primary input read from two blocks is a cut hyperedge but costs no
    // messages — stimulus is generated locally on every machine).
    assert_eq!(cut_size_gates(&nl, &result.gate_blocks), result.cut);
    assert!(plan.cut_nets() as u64 <= result.cut);

    if result.balanced {
        let c = BalanceConstraint::new(k, nl.gate_count() as u64, b);
        assert!(c.satisfied(&result.loads));
    }

    // The modeled cluster runs and reports sane numbers.
    let model = ClusterModel::new(
        &nl,
        plan,
        ClusterModelConfig::athlon_cluster(nl.gate_count()),
    );
    let stim = VectorStimulus::from_netlist(&nl, 10, 11);
    let run = model.run(&stim, 50);
    assert!(run.wall_seconds > 0.0);
    assert!(run.speedup > 0.0);
    assert_eq!(run.machine_events.iter().sum::<u64>(), run.stats.gate_evals);
    if k == 1 {
        assert_eq!(run.stats.messages, 0);
    }
}

#[test]
fn counter_roundtrip() {
    let src = generate_counter(16);
    roundtrip(&src, 2, 20.0);
    roundtrip(&src, 1, 10.0);
}

#[test]
fn lfsr_roundtrip() {
    let src = generate_lfsr(16, &[16, 14, 13, 11]);
    roundtrip(&src, 2, 25.0);
}

#[test]
fn viterbi_roundtrip_all_k() {
    let src = generate_viterbi(&ViterbiParams::tiny());
    for k in [1u32, 2, 3, 4] {
        roundtrip(&src, k, 15.0);
    }
}

#[test]
fn random_hierarchies_roundtrip() {
    for seed in [3u64, 17, 99] {
        let src = generate_random_hier(&RandomHierParams {
            seed,
            depth: 2,
            ..Default::default()
        });
        roundtrip(&src, 2, 20.0);
        roundtrip(&src, 3, 25.0);
    }
}
