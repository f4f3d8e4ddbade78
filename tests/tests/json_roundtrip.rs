//! Cross-crate artifact round-trips: a real `FlowReport` (produced by a
//! real flow run) survives emit → parse → emit as the same tree and the
//! same bytes, Time Warp `SimStats` — which the wire does read back —
//! survive serialize → parse → deserialize exactly, and the emitter's
//! string escaping holds up on hostile content.

use dvs_core::json::{FromJson, Json, ToJson};
use dvs_core::{FlowBuilder, FlowReport, Parallelism, Search};
use dvs_sim::stats::SimStats;
use dvs_sim::timewarp::RecoveryOutcome;
use dvs_workloads::pipeline_soc::{generate_pipeline_soc, PipelineParams};

fn small_report() -> FlowReport {
    let src = generate_pipeline_soc(&PipelineParams::tiny());
    FlowBuilder::from_source(&src)
        .search(Search::BruteForce {
            ks: vec![2, 3],
            bs: vec![7.5, 15.0],
        })
        .presim_vectors(60)
        .full_vectors(150)
        .stim_seed(7)
        .part_seed(11)
        .parallelism(Parallelism::Serial)
        .build()
        .expect("valid flow")
        .run()
        .expect("flow runs")
}

/// An emitted artifact parses back to the tree it was emitted from, and
/// that tree emits the same bytes again — all a consumer of the write-only
/// flow artifacts (the golden test compares fresh trees with the parsed
/// baseline) relies on.
fn assert_text_round_trips(tree: &Json) {
    let first = tree.emit().expect("emit");
    let parsed = Json::parse(&first).expect("parse");
    assert_eq!(&parsed, tree);
    assert_eq!(parsed.emit().expect("re-emit"), first);
}

#[test]
fn flow_report_round_trips_byte_identically() {
    let report = small_report();
    let tree = report.to_json();
    assert_text_round_trips(&tree);
    // The canonical view drops host times and the worker count.
    let canonical = report.canonical_json();
    assert_text_round_trips(&canonical);
    let metrics = canonical.field("metrics").expect("metrics");
    assert!(metrics.get("total_seconds").is_none() && metrics.get("search_workers").is_none());

    // Spot-check that the tree says what the report says.
    let uint = |v: &Json, key: &str| v.field(key).and_then(Json::as_u64).expect(key);
    let chosen = tree.field("chosen").expect("chosen");
    assert_eq!(uint(chosen, "k"), u64::from(report.chosen.k));
    assert_eq!(uint(chosen, "cut"), report.chosen.cut);
    let stats = tree.field("full").and_then(|f| f.field("stats"));
    assert_eq!(
        uint(stats.expect("stats"), "events"),
        report.full.stats.events
    );
    let total = tree.field("metrics").and_then(|m| m.field("total_seconds"));
    let total = total.and_then(Json::as_f64).expect("total_seconds");
    assert_eq!(total.to_bits(), report.metrics.total_seconds.to_bits());
}

/// What the readers' tests used to say about the emitters: a disabled Time
/// Warp leg goes out as an explicit `null`, an enabled one as its stats,
/// and the two wire counters under their own names — a frame carries a
/// delivery run, so they must not be swapped or merged.
#[test]
fn emitters_spell_out_absent_legs_and_both_wire_counters() {
    let mut point = small_report().chosen;
    point.tw = None;
    point.tw_crash = Some(SimStats::default());
    let tree = point.to_json();
    assert_eq!(tree.get("tw"), Some(&Json::Null));
    assert_eq!(tree.get("tw_crash"), Some(&SimStats::default().to_json()));

    let recovery = RecoveryOutcome {
        messages_sent: 4111,
        frames_sent: 1069,
        victims: vec![1, 1, 0],
        ..RecoveryOutcome::default()
    };
    let tree = recovery.to_json();
    assert_text_round_trips(&tree);
    let uint = |key: &str| tree.field(key).and_then(Json::as_u64).expect(key);
    assert_eq!((uint("messages_sent"), uint("frames_sent")), (4111, 1069));
}

#[test]
fn sim_stats_round_trip_is_exact() {
    let stats = SimStats {
        events: u64::MAX,
        gate_evals: 12_345,
        net_toggles: 9,
        cycles: 1,
        end_time: 77,
        messages: 3,
        anti_messages: 2,
        rollbacks: 1,
        rolled_back_events: 4,
        gvt_rounds: 6,
        fossil_collected: 5,
    };
    let text = stats.to_json().emit().expect("emit");
    let back = SimStats::from_json(&Json::parse(&text).expect("parse")).expect("load");
    // Counters above i64::MAX ride as decimal strings (a bare JSON
    // literal that large would be read back as a lossy float), so even
    // u64::MAX round-trips exactly.
    assert_eq!(back, stats);
}

#[test]
fn string_escaping_round_trips_hostile_content() {
    for hostile in [
        "plain",
        "with \"quotes\" and \\backslashes\\",
        "newline\nand\ttab\rand\x08control\x0c",
        "módulo_ünïté_ΔΣ_模块_🚀",
        "\u{0000}\u{001f}",
        "lone slash / and </script>",
    ] {
        let v = Json::Object(vec![(hostile.to_string(), Json::Str(hostile.to_string()))]);
        let text = v.emit().expect("emit");
        let parsed = Json::parse(&text).expect("parse");
        let obj = parsed.as_object().expect("object");
        assert_eq!(obj[0].0, hostile);
        assert_eq!(obj[0].1.as_str().expect("str"), hostile);
        // And emit is stable under the round trip.
        assert_eq!(parsed.emit().expect("re-emit"), text);
    }
}

#[test]
fn pretty_and_compact_forms_parse_to_the_same_value() {
    let report = small_report();
    let v = report.to_json();
    let compact = Json::parse(&v.emit().expect("emit")).expect("parse compact");
    let pretty = Json::parse(&v.emit_pretty().expect("pretty")).expect("parse pretty");
    assert_eq!(compact.emit().expect("emit"), pretty.emit().expect("emit"));
}
