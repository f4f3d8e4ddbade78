//! Ablation benchmarks for the design choices the paper motivates but does
//! not isolate (DESIGN.md §4):
//!
//! * pairing strategy (random / exhaustive / cut-based / gain-based),
//! * cone vs trivial initial partitioning,
//! * super-gate (design-level) vs flat (gate-level) FM granularity.
//!
//! Criterion measures wall time; the companion `repro`-style cut numbers
//! are printed once per run so quality and speed can be compared together.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvs_core::cone::cone_partition;
use dvs_core::multiway::{partition_multiway, MultiwayConfig};
use dvs_core::pairing::PairingStrategy;
use dvs_hypergraph::builder::{design_level, gate_level};
use dvs_hypergraph::fm::{pairwise_fm, FmConfig};
use dvs_hypergraph::partition::{BalanceConstraint, Partition};
use dvs_verilog::flatten::Frontier;
use dvs_verilog::Netlist;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use std::hint::black_box;

fn workload() -> Netlist {
    let src = generate_viterbi(&ViterbiParams::paper_class());
    dvs_verilog::parse_and_elaborate(&src)
        .expect("decoder elaborates")
        .into_netlist()
}

fn bench_pairing_strategies(c: &mut Criterion) {
    let nl = workload();
    let mut group = c.benchmark_group("ablation_pairing");
    group.sample_size(10);
    for strat in [
        PairingStrategy::Random,
        PairingStrategy::Exhaustive,
        PairingStrategy::CutBased,
        PairingStrategy::GainBased,
    ] {
        // Print the quality once so the trade-off is visible next to time.
        let cfg = MultiwayConfig {
            pairing: strat,
            ..MultiwayConfig::new(4, 7.5)
        };
        let r = partition_multiway(&nl, &cfg);
        eprintln!("ablation_pairing/{}: cut = {}", strat.name(), r.cut);
        group.bench_with_input(
            BenchmarkId::from_parameter(strat.name()),
            &strat,
            |b, &strat| {
                let cfg = MultiwayConfig {
                    pairing: strat,
                    ..MultiwayConfig::new(4, 7.5)
                };
                b.iter(|| black_box(partition_multiway(&nl, &cfg)));
            },
        );
    }
    group.finish();
}

fn bench_initial_partitioning(c: &mut Criterion) {
    let nl = workload();
    let hh = design_level(&nl, &Frontier::initial(&nl));
    let balance = BalanceConstraint::new(4, hh.hg.total_vweight(), 7.5);
    let fm_cfg = FmConfig::new(balance);

    // Quality comparison printed once.
    {
        let cone = cone_partition(&nl, &hh, 4);
        let trivial = {
            let assign: Vec<u32> = (0..hh.hg.vertex_count()).map(|i| (i % 4) as u32).collect();
            Partition::from_assignment(&hh.hg, 4, assign)
        };
        eprintln!(
            "ablation_initial: cone cut = {}, round-robin cut = {}",
            cone.hyperedge_cut(&hh.hg),
            trivial.hyperedge_cut(&hh.hg)
        );
    }

    let mut group = c.benchmark_group("ablation_initial");
    group.bench_function("cone", |b| {
        b.iter(|| black_box(cone_partition(&nl, &hh, 4)));
    });
    group.bench_function("cone_plus_one_fm", |b| {
        b.iter(|| {
            let mut p = cone_partition(&nl, &hh, 4);
            black_box(pairwise_fm(&hh.hg, &mut p, 0, 1, &fm_cfg))
        });
    });
    group.finish();
}

fn bench_granularity(c: &mut Criterion) {
    // One FM pass at super-gate granularity vs flat gate granularity —
    // the core size argument of the design-driven approach.
    let nl = workload();
    let dh = design_level(&nl, &Frontier::initial(&nl));
    let gh = gate_level(&nl);
    eprintln!(
        "ablation_granularity: design-level {} vertices, gate-level {} vertices",
        dh.hg.vertex_count(),
        gh.hg.vertex_count()
    );

    let mut group = c.benchmark_group("ablation_granularity");
    group.sample_size(10);
    group.bench_function("design_level_fm", |b| {
        let balance = BalanceConstraint::new(2, dh.hg.total_vweight(), 10.0);
        let cfg = FmConfig::new(balance);
        b.iter(|| {
            let assign: Vec<u32> = (0..dh.hg.vertex_count()).map(|i| (i % 2) as u32).collect();
            let mut p = Partition::from_assignment(&dh.hg, 2, assign);
            black_box(pairwise_fm(&dh.hg, &mut p, 0, 1, &cfg))
        });
    });
    group.bench_function("gate_level_fm", |b| {
        let balance = BalanceConstraint::new(2, gh.hg.total_vweight(), 10.0);
        let cfg = FmConfig::new(balance);
        b.iter(|| {
            let assign: Vec<u32> = (0..gh.hg.vertex_count()).map(|i| (i % 2) as u32).collect();
            let mut p = Partition::from_assignment(&gh.hg, 2, assign);
            black_box(pairwise_fm(&gh.hg, &mut p, 0, 1, &cfg))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pairing_strategies,
    bench_initial_partitioning,
    bench_granularity
);
criterion_main!(benches);
