//! The redesigned `Flow` front door, exercised across crates: builder
//! validation, typed errors, and — the load-bearing property of the
//! multi-threaded search engine — bit-identical reports for every thread
//! count.

use dvs_core::presim::{best_point, heuristic_presim};
use dvs_core::{FlowBuilder, FlowError, FlowReport, Parallelism, Search};
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};

fn small_viterbi() -> String {
    let params = ViterbiParams::tiny();
    generate_viterbi(&params)
}

fn run_with(src: &str, par: Parallelism) -> FlowReport {
    FlowBuilder::from_source(src)
        .search(Search::BruteForce {
            ks: vec![2, 3, 4],
            bs: vec![5.0, 10.0, 15.0],
        })
        .presim_vectors(60)
        .full_vectors(150)
        .parallelism(par)
        .build()
        .expect("valid flow")
        .run()
        .expect("flow runs")
}

/// The acceptance property of the parallel search engine: a 1-thread and a
/// 4-thread run of the same flow produce bit-identical reports (chosen
/// point, every presim point, modeled times, counters). Host wall times in
/// `metrics` are the only thing allowed to differ.
#[test]
fn serial_and_threaded_flows_are_bit_identical() {
    let src = small_viterbi();
    let serial = run_with(&src, Parallelism::Serial);
    let threaded = run_with(&src, Parallelism::Threads(4));

    // Identical chosen point.
    assert_eq!(serial.chosen.k, threaded.chosen.k);
    assert_eq!(serial.chosen.b.to_bits(), threaded.chosen.b.to_bits());
    assert_eq!(serial.chosen.gate_blocks, threaded.chosen.gate_blocks);
    assert_eq!(serial.chosen.cut, threaded.chosen.cut);

    // Identical presim points, position by position (the engine returns
    // grid order regardless of completion order).
    assert_eq!(serial.presim_points.len(), threaded.presim_points.len());
    for (s, t) in serial.presim_points.iter().zip(&threaded.presim_points) {
        assert_eq!((s.k, s.b.to_bits()), (t.k, t.b.to_bits()));
        assert_eq!(s.gate_blocks, t.gate_blocks);
        assert_eq!(s.cut, t.cut);
        assert_eq!(s.messages, t.messages);
        assert_eq!(s.rollbacks, t.rollbacks);
        assert_eq!(s.machine_messages, t.machine_messages);
        assert_eq!(s.machine_rollbacks, t.machine_rollbacks);
        assert_eq!(s.sim_seconds.to_bits(), t.sim_seconds.to_bits());
        assert_eq!(s.seq_seconds.to_bits(), t.seq_seconds.to_bits());
        assert_eq!(s.speedup.to_bits(), t.speedup.to_bits());
        assert_eq!(s.balanced, t.balanced);
        assert_eq!(s.timing.flattens, t.timing.flattens);
        assert_eq!(s.timing.fm_rounds, t.timing.fm_rounds);
    }

    // Identical full run (modeled, so bit-exact).
    assert_eq!(serial.presim_runs, threaded.presim_runs);
    assert_eq!(
        serial.full.wall_seconds.to_bits(),
        threaded.full.wall_seconds.to_bits()
    );
    assert_eq!(
        serial.full_speedup.to_bits(),
        threaded.full_speedup.to_bits()
    );
    assert_eq!(serial.full.stats.messages, threaded.full.stats.messages);
    assert_eq!(serial.full.stats.rollbacks, threaded.full.stats.rollbacks);

    // Deterministic counters agree too; only host wall times may differ.
    assert_eq!(
        serial.metrics.flatten_events,
        threaded.metrics.flatten_events
    );
    assert_eq!(serial.metrics.fm_passes, threaded.metrics.fm_passes);
    assert_eq!(serial.metrics.presim_runs, threaded.metrics.presim_runs);
}

/// The artifact-level form of the same contract, the one CI's bench gate
/// relies on: serializing both runs to the canonical JSON view produces
/// byte-identical text. (The full `to_json` view differs — it includes
/// host wall times and the worker count.)
#[test]
fn serial_and_threaded_canonical_artifacts_are_byte_identical() {
    let src = small_viterbi();
    let serial = run_with(&src, Parallelism::Serial);
    let threaded = run_with(&src, Parallelism::Threads(4));

    let serial_text = serial.canonical_json().emit().expect("emit serial");
    let threaded_text = threaded.canonical_json().emit().expect("emit threaded");
    assert_eq!(serial_text, threaded_text);

    // And the artifact actually carries the load-bearing content.
    for needle in [
        "\"kind\":\"flow_report\"",
        "\"schema_version\":1",
        "\"quality\":",
        "\"fossil_collected\":",
        "\"gate_blocks\":",
    ] {
        assert!(serial_text.contains(needle), "missing {needle} in artifact");
    }
    // No host measurement leaks into the canonical view.
    assert!(!serial_text.contains("search_workers"));
    assert!(!serial_text.contains("partition_seconds"));
}

#[test]
fn heuristic_search_is_thread_count_invariant_too() {
    let src = small_viterbi();
    let build = |par| {
        FlowBuilder::from_source(&src)
            .search(Search::Heuristic { max_k: 4 })
            .presim_vectors(60)
            .full_vectors(150)
            .parallelism(par)
            .build()
            .expect("valid flow")
            .run()
            .expect("flow runs")
    };
    let serial = build(Parallelism::Serial);
    let threaded = build(Parallelism::Threads(3));
    assert_eq!(serial.chosen.k, threaded.chosen.k);
    assert_eq!(serial.chosen.b.to_bits(), threaded.chosen.b.to_bits());
    assert_eq!(serial.presim_runs, threaded.presim_runs);
    for (s, t) in serial.presim_points.iter().zip(&threaded.presim_points) {
        assert_eq!((s.k, s.b.to_bits()), (t.k, t.b.to_bits()));
        assert_eq!(s.speedup.to_bits(), t.speedup.to_bits());
    }
}

/// `Flow` searches through the one public entry point of each mode and
/// counts what the search spent: one profiling pass for the whole
/// brute-force grid; for the heuristic, the rounds and points
/// `heuristic_presim` itself reports on the same netlist and configuration.
#[test]
fn flow_counts_the_profiling_passes_of_its_search() {
    let src = small_viterbi();
    let grid = run_with(&src, Parallelism::Serial);
    assert_eq!(grid.metrics.profile_passes, 1);
    assert_eq!(grid.metrics.presim_runs, 9, "3 k-values x 3 b-values");
    assert_eq!(grid.presim_runs, 9);

    let flow = FlowBuilder::from_source(&src)
        .search(Search::Heuristic { max_k: 4 })
        .presim_vectors(60)
        .full_vectors(150)
        .build()
        .expect("valid flow");
    let report = flow.run().expect("flow runs");
    let cfg = flow.config();
    let (points, rounds) = heuristic_presim(flow.netlist(), 4, &cfg.presim, cfg.parallelism);
    assert!((1..=3).contains(&rounds), "{rounds} rounds");
    assert_eq!(report.metrics.profile_passes, rounds as u64);
    assert_eq!(report.metrics.presim_runs, points.len() as u64);
    assert_eq!(report.presim_runs, points.len());
    let best = best_point(&points).expect("at least one point");
    assert_eq!((report.chosen.k, report.chosen.b), (best.k, best.b));
}

#[test]
fn empty_search_space_is_an_error_not_a_panic() {
    let src = small_viterbi();
    let err = FlowBuilder::from_source(&src)
        .search(Search::BruteForce {
            ks: vec![],
            bs: vec![10.0],
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, FlowError::EmptySearchSpace { .. }));

    let err = FlowBuilder::from_source(&src)
        .search(Search::Heuristic { max_k: 1 })
        .build()
        .unwrap_err();
    assert!(matches!(err, FlowError::EmptySearchSpace { .. }));
}

#[test]
fn parse_errors_surface_as_typed_verilog_errors() {
    let err = FlowBuilder::from_source("module broken(")
        .build()
        .unwrap_err();
    match err {
        FlowError::Verilog(_) => {}
        other => panic!("expected FlowError::Verilog, got {other:?}"),
    }
    // The error chains to the underlying parser error.
    let err = FlowBuilder::from_source("module broken(")
        .build()
        .unwrap_err();
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn seed_overrides_change_the_outcome_deterministically() {
    let src = small_viterbi();
    let run_seeded = |stim: u64| {
        FlowBuilder::from_source(&src)
            .search(Search::BruteForce {
                ks: vec![2],
                bs: vec![10.0],
            })
            .presim_vectors(60)
            .full_vectors(150)
            .stim_seed(stim)
            .build()
            .expect("valid flow")
            .run()
            .expect("flow runs")
    };
    let a1 = run_seeded(1);
    let a2 = run_seeded(1);
    assert_eq!(a1.chosen.gate_blocks, a2.chosen.gate_blocks);
    assert_eq!(a1.chosen.messages, a2.chosen.messages);
}
