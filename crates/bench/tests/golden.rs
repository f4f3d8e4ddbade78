//! Golden artifacts: five deterministic cases whose canonical reports must
//! equal `results/bench_baseline.json` exactly.
//!
//! * `viterbi_tiny`, `pipeline_soc_tiny` — the smoke grid: the whole flow (a
//!   brute-force (k, b) sweep with its modeled and deterministic Time Warp
//!   pre-simulation legs, the selection, the full run) once with
//!   [`Parallelism::Serial`] and once with `Threads(4)`. The two canonical
//!   reports must be byte-identical — the determinism contract of the search
//!   engine — and the report is the case.
//! * `process_transport`, `tcp_transport`, `tcp_chaos` — the wire cases: real
//!   `tw_worker` OS processes, killed, corrupted or stalled, every leg
//!   byte-identical to the undisturbed in-process run; the case pins the
//!   recovery counters and an FNV-1a hash of the canonical bytes.
//!
//! Every leaf of every report — counters, hashes, partitions, modeled seconds
//! and speedups alike — is compared by `Json` equality: no tolerance, no
//! skipped path. On a mismatch the fresh artifact lands, pretty-printed, in
//! `target/tmp/bench_baseline.json` and the test names each differing leaf.
//! When a change means to move them, review that file's diff like code and
//! copy it over `results/bench_baseline.json`: that is the whole refresh.

use dvs_bench::scenario::{canonical, fnv1a, serial, Built, Executor, Scenario};
use dvs_core::json::{Json, JsonError, ObjBuilder, ToJson, SCHEMA_VERSION};
use dvs_core::{
    partition_multiway, FlowBuilder, MultiwayConfig, Parallelism, Search, TwPresimConfig,
};
use dvs_sim::timewarp::{NetDir, NetFault, NetFaultKind, NetPlan, Transport, TwRunResult};
use dvs_sim::{FaultPlan, SchedulePolicy};
use dvs_workloads::pipeline_soc::{generate_pipeline_soc, PipelineParams};
use dvs_workloads::{generate_viterbi, ViterbiParams};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// The checked-in golden artifact.
const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/bench_baseline.json"
);
/// The worker binary of the wire cases.
const WORKER: &str = env!("CARGO_BIN_EXE_tw_worker");

/// Stimulus seed every case uses. Fixed forever: changing it changes every
/// counter in the baseline.
const STIM_SEED: u64 = 0x5EED_0001;
/// Base partitioner seed every case uses (each (k, b) point derives its own
/// from it).
const PART_SEED: u64 = 0x5EED_0002;
/// Thread count for the parallel leg of the determinism check.
const GATE_THREADS: usize = 4;
/// Scheduler seed for the deterministic Time Warp legs. Fixed forever, like
/// [`STIM_SEED`]: it selects the exact interleaving whose protocol counters
/// (rollbacks, anti-messages, GVT rounds, fossil collections) the baseline
/// records.
const DST_SEED: u64 = 0x5EED_0003;
/// Vectors for the deterministic Time Warp presim leg (it simulates every
/// gate for real, so it is kept shorter than the modeled presim).
const DST_VECTORS: u64 = 40;
/// Crash point of the crash-injected legs: cluster 0 dies at decision 25
/// (early enough to fire on every grid point) and is recovered from its last
/// GVT checkpoint. Fixed forever, like the seeds.
const CRASH_AT: (u32, u64) = (0, 25);
/// Vectors for the wire cases. Short — each run spawns one OS process per
/// cluster — but long enough that the crash at [`CRASH_AT`] fires.
const PROCESS_VECTORS: u64 = 20;
/// The schedule of every wire-case leg: seeded-random, like [`dst_presim`].
const WIRE_POLICY: SchedulePolicy = SchedulePolicy::SeededRandom;
/// Silence deadline of the chaos case's stall leg. Short enough that
/// half-open detection dominates neither the test nor a CI run, long enough
/// that a briefly preempted worker is not declared dead spuriously.
const CHAOS_SILENCE: Duration = Duration::from_millis(300);

/// The deterministic Time Warp leg of every smoke-grid point: a
/// seeded-random schedule, so the case covers a nontrivial interleaving
/// rather than the benign round-robin one. The fault plan adds a second,
/// crash-injected leg whose counters the baseline also pins — recovery must
/// reproduce the undisturbed execution counter for counter.
fn dst_presim() -> TwPresimConfig {
    TwPresimConfig {
        schedule: SchedulePolicy::SeededRandom,
        vectors: DST_VECTORS,
        fault: Some(FaultPlan::crash(CRASH_AT.0, CRASH_AT.1)),
        ..TwPresimConfig::new(DST_SEED)
    }
}

/// One workload of the smoke grid.
struct BenchCase {
    /// Stable name — the key matched against the baseline.
    name: &'static str,
    /// Structural Verilog source.
    source: String,
    ks: Vec<u32>,
    bs: Vec<f64>,
    /// Vectors per pre-simulation run.
    presim_vectors: u64,
    /// Vectors for the full simulation of the chosen partition.
    full_vectors: u64,
}

/// The fixed smoke grid: two small workloads with opposite interconnect
/// structure (the trellis-coupled Viterbi decoder and the modular pipeline
/// SoC), each swept over k ∈ {2, 3} × b ∈ {7.5, 15.0}.
fn smoke_grid() -> Vec<BenchCase> {
    let sweep = |name, source| BenchCase {
        name,
        source,
        ks: vec![2, 3],
        bs: vec![7.5, 15.0],
        presim_vectors: 60,
        full_vectors: 150,
    };
    vec![
        sweep("viterbi_tiny", generate_viterbi(&ViterbiParams::tiny())),
        sweep(
            "pipeline_soc_tiny",
            generate_pipeline_soc(&PipelineParams::tiny()),
        ),
    ]
}

/// Run one case twice — serial and threaded — and hold the two canonical
/// reports to byte identity; the report is the case.
fn run_case(case: &BenchCase) -> Json {
    let leg = |par: Parallelism| {
        FlowBuilder::from_source(&case.source)
            .search(Search::BruteForce {
                ks: case.ks.clone(),
                bs: case.bs.clone(),
            })
            .presim_vectors(case.presim_vectors)
            .full_vectors(case.full_vectors)
            .stim_seed(STIM_SEED)
            .part_seed(PART_SEED)
            .timewarp_presim(dst_presim())
            .parallelism(par)
            .build()
            .and_then(|flow| flow.run())
            .unwrap_or_else(|e| panic!("case `{}`: {e}", case.name))
            .canonical_json()
    };
    let serial = leg(Parallelism::Serial);
    let threaded = leg(Parallelism::Threads(GATE_THREADS));
    assert!(
        serial.emit() == threaded.emit(),
        "case `{}`: Serial and Threads({GATE_THREADS}) canonical artifacts differ \
         — the deterministic-search contract is broken",
        case.name
    );
    serial
}

/// The fixture of the wire cases: the tiny Viterbi decoder on 3 clusters,
/// [`PROCESS_VECTORS`] vectors of [`STIM_SEED`], in-process under
/// [`DST_SEED`] and [`WIRE_POLICY`].
fn wire_fixture() -> Scenario {
    Scenario::tiny_viterbi(STIM_SEED, PROCESS_VECTORS).in_proc(DST_SEED, WIRE_POLICY)
}

/// One leg of case `case`: the run and its canonical bytes, which must equal
/// `clean`, the undisturbed in-process artifact (`None` for the leg that
/// produces it).
fn leg(
    case: &str,
    leg: &str,
    scenario: &Scenario,
    built: &Built,
    clean: Option<&str>,
) -> (TwRunResult, String) {
    let tw = scenario
        .run(built)
        .unwrap_or_else(|e| panic!("case `{case}`: the {leg} leg failed: {e}"));
    let bytes = canonical(&tw);
    assert!(
        clean.is_none_or(|clean| clean == bytes),
        "case `{case}`: the {leg} leg diverged from the undisturbed in-process artifact"
    );
    (tw, bytes)
}

/// `process_transport` over Unix sockets and `tcp_transport` with each
/// worker dialing a localhost listener: a clean in-process run, a clean wire
/// run and a wire run whose cluster-0 worker is `SIGKILL`ed at decision
/// [`CRASH_AT`]`.1` and recovered from its last GVT checkpoint, all three
/// byte-identical. Pins the crashed run's counters and the artifact hash, so
/// drift anywhere in the wire protocol, the checkpoint/replay machinery or
/// the supervisor's decision sequence fails the test.
fn wire_transport_case(name: &'static str, wire: Transport) -> (&'static str, Json) {
    let in_proc = wire_fixture();
    let wire = in_proc.on(Executor::Wire(wire));
    let crash = wire.faulted(FaultPlan::crash(CRASH_AT.0, CRASH_AT.1));
    let built = in_proc.build();

    let (_, clean) = leg(name, "in-process", &in_proc, &built, None);
    leg(name, "clean wire", &wire, &built, Some(&clean));
    let (crashed, _) = leg(name, "crashed", &crash, &built, Some(&clean));
    assert!(
        crashed.recovery.crashes > 0,
        "case `{name}`: the injected crash never fired — move CRASH_AT earlier"
    );
    let report = ObjBuilder::new()
        .str(
            "artifact_fnv1a",
            &format!("{:016x}", fnv1a(clean.as_bytes())),
        )
        .field("stats", crashed.stats.to_json())
        .uint("gvt_rounds", crashed.gvt_rounds)
        .field("recovery", crashed.recovery.to_json())
        .build();
    (name, report)
}

/// `tcp_chaos`: the TCP transport under the deterministic fault-injection
/// shim, two disturbed runs —
///
/// * **corrupt**: one bit of a worker→supervisor frame is flipped in flight;
///   the CRC32 check rejects it (`corrupt_frames` = 1) and the connection is
///   torn down and recovered;
/// * **stall**: the link goes silent both ways mid-run; the supervisor drops
///   the connection once it has been silent for [`CHAOS_SILENCE`]
///   (`silent_peers` = 1) and recovery replaces it.
///
/// Each leg must be byte-identical to the undisturbed in-process run, and
/// each leg's recovery counters are pinned, so drift anywhere in the
/// integrity or liveness machinery fails the test.
fn tcp_chaos_case() -> (&'static str, Json) {
    let name = "tcp_chaos";
    let in_proc = wire_fixture();
    let tcp = Transport::tcp_with_worker(DST_SEED, WIRE_POLICY, WORKER);
    let tcp = in_proc.on(Executor::Wire(tcp));
    let built = in_proc.build();
    let fault = |cluster, dir, frame, kind| {
        let fault = NetFault {
            cluster,
            dir,
            frame,
            kind,
        };
        Some(NetPlan::new().fault(fault))
    };
    let (_, clean) = leg(name, "in-process", &in_proc, &built, None);

    // Leg 1: a bit flipped in a worker→supervisor frame. Frame indices
    // count commands and replies only, so the pinned counters are exact.
    let corrupt = Scenario {
        chaos: fault(
            1,
            NetDir::FromWorker,
            8,
            NetFaultKind::BitFlip { offset: 5 },
        ),
        ..tcp.clone()
    };
    let (corrupt, _) = leg(name, "corrupt", &corrupt, &built, Some(&clean));
    let r = &corrupt.recovery;
    let got = (
        r.corrupt_frames,
        r.chaos_faults_injected,
        r.crashes,
        r.restarts,
    );
    assert_eq!(
        got,
        (1, 1, 1, 1),
        "case `{name}`: corrupt leg (corrupt_frames, chaos, crashes, restarts)"
    );

    // Leg 2: the link stalls silently both ways; only the silence deadline
    // can notice, and it drops the connection once.
    let stalled = Scenario {
        chaos: fault(2, NetDir::ToWorker, 10, NetFaultKind::Stall),
        silence: Some(CHAOS_SILENCE),
        ..tcp
    };
    let (stalled, _) = leg(name, "stall", &stalled, &built, Some(&clean));
    let r = &stalled.recovery;
    let got = (
        r.silent_peers,
        r.chaos_faults_injected,
        r.crashes,
        r.corrupt_frames,
    );
    assert_eq!(
        got,
        (1, 1, 1, 0),
        "case `{name}`: stall leg (silent_peers, chaos, crashes, corrupt)"
    );

    let report = ObjBuilder::new()
        .str(
            "artifact_fnv1a",
            &format!("{:016x}", fnv1a(clean.as_bytes())),
        )
        .field("corrupt_recovery", corrupt.recovery.to_json())
        .field("stall_recovery", stalled.recovery.to_json())
        .build();
    (name, report)
}

/// The artifact `results/bench_baseline.json` holds: `(name, report)` per
/// case.
fn artifact(cases: &[(&str, Json)]) -> Json {
    let case = |(name, report): &(&str, Json)| {
        ObjBuilder::new()
            .str("name", name)
            .field("report", report.clone())
            .build()
    };
    ObjBuilder::new()
        .int("schema_version", SCHEMA_VERSION)
        .str("kind", "bench_artifact")
        .array("cases", cases.iter().map(case).collect())
        .build()
}

/// Compare `current` with `baseline` leaf by leaf, exactly: the number of
/// leaves compared, and one line per difference — a case or a leaf on one
/// side only, or two leaves that are not `==` (an integer never equals a
/// float, a float only its own bits).
fn compare(current: &Json, baseline: &Json) -> Result<(usize, Vec<String>), JsonError> {
    let (cur, base) = (index(current)?, index(baseline)?);
    let mut diffs = Vec::new();
    let mut checked = 0;
    for (name, base_leaves) in &base {
        let Some(cur_leaves) = cur.get(name) else {
            diffs.push(format!("{name}: in the baseline but missing from this run"));
            continue;
        };
        for (path, b) in base_leaves {
            match cur_leaves.get(path) {
                None => diffs.push(format!("{name}: `{path}` is in the baseline, not this run")),
                Some(c) if c != b => diffs.push(format!(
                    "{name}: `{path}` = {} differs from baseline {}",
                    show(c),
                    show(b)
                )),
                Some(_) => checked += 1,
            }
        }
        for path in cur_leaves.keys().filter(|p| !base_leaves.contains_key(*p)) {
            diffs.push(format!("{name}: `{path}` is new, not in the baseline"));
        }
    }
    for name in cur.keys().filter(|n| !base.contains_key(*n)) {
        diffs.push(format!("{name}: not in the baseline"));
    }
    Ok((checked, diffs))
}

fn show(v: &Json) -> String {
    v.emit().unwrap_or_else(|e| format!("<unprintable: {e}>"))
}

/// The leaves of `artifact` grouped for [`compare`]: each case's under
/// "case `<name>`", the artifact's own fields other than `cases` under "the
/// artifact".
fn index(artifact: &Json) -> Result<BTreeMap<String, BTreeMap<String, &Json>>, JsonError> {
    let mut out = BTreeMap::new();
    let mut header = BTreeMap::new();
    for (key, value) in artifact.as_object()? {
        if key != "cases" {
            flatten(key, value, &mut header);
        }
    }
    out.insert("the artifact".to_string(), header);
    for case in artifact.field("cases")?.as_array()? {
        let name = case.field("name")?.as_str()?;
        let mut leaves = BTreeMap::new();
        flatten("", case, &mut leaves);
        leaves.remove("name");
        out.insert(format!("case `{name}`"), leaves);
    }
    Ok(out)
}

/// Flatten a JSON tree into `path → leaf` pairs. Arrays index their elements
/// (`machine_events[2]`); empty containers count as leaves so a shape change
/// never slips through.
fn flatten<'a>(prefix: &str, v: &'a Json, out: &mut BTreeMap<String, &'a Json>) {
    match v {
        Json::Object(members) if !members.is_empty() => {
            for (key, value) in members {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten(&path, value, out);
            }
        }
        Json::Array(items) if !items.is_empty() => {
            for (i, item) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), item, out);
            }
        }
        _ => {
            out.insert(prefix.to_string(), v);
        }
    }
}

#[test]
fn every_case_matches_the_baseline_exactly() {
    let _g = serial();
    let process = Transport::process_with_worker(DST_SEED, WIRE_POLICY, WORKER);
    let tcp = Transport::tcp_with_worker(DST_SEED, WIRE_POLICY, WORKER);
    let mut cases: Vec<_> = smoke_grid().iter().map(|c| (c.name, run_case(c))).collect();
    cases.extend([
        wire_transport_case("process_transport", process),
        wire_transport_case("tcp_transport", tcp),
        tcp_chaos_case(),
    ]);
    let fresh = artifact(&cases);

    let text = std::fs::read_to_string(BASELINE).expect("read results/bench_baseline.json");
    let baseline = Json::parse(&text).expect("results/bench_baseline.json is JSON");
    let (checked, diffs) = compare(&fresh, &baseline).expect("the baseline is an artifact");
    if !diffs.is_empty() {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_baseline.json");
        std::fs::write(&out, fresh.emit_pretty().expect("emit")).expect("write the artifact");
        panic!(
            "{} difference(s) from results/bench_baseline.json \
             ({checked} leaves equal; every leaf compared exactly, no tolerance, no skipped path):\n  \
             {}\nthe fresh artifact is {out:?}: review, then copy over results/bench_baseline.json",
            diffs.len(),
            diffs.join("\n  ")
        );
    }
    eprintln!(
        "{} cases, {checked} leaves equal to results/bench_baseline.json exactly",
        cases.len()
    );
}

/// The paper-class determinism check the nightly workflow runs
/// (`-- --ignored`, release): the [`ViterbiParams::paper_class`] decoder
/// (~12 k gates, 457 module instances — the shape of the paper's 388-module
/// netlist) over a small (k, b) grid, serial and threaded byte-identical. Too
/// slow for every push, and compared with no baseline.
#[test]
#[ignore = "paper-class case, run by the nightly workflow with -- --ignored"]
fn paper_class_serial_and_threaded_agree() {
    run_case(&BenchCase {
        name: "viterbi_paper_class",
        source: generate_viterbi(&ViterbiParams::paper_class()),
        ks: vec![4, 8],
        bs: vec![10.0, 20.0],
        presim_vectors: 40,
        full_vectors: 100,
    });
}

/// [`fnv1a`] over text as it is formatted, so a 1.1 M-gate netlist is hashed
/// without being rendered into one string first.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The paper-scale front end pinned byte for byte, run in release
/// (`-- --ignored`) by CI's `test` job on every push and by the nightly
/// workflow: the [`ViterbiParams::full_scale`] netlist (every net's name and
/// driver; every gate's kind, output, inputs, owner and delay; every
/// instance) and `partition_multiway`'s `cut`, `loads` and `gate_blocks` at
/// the two (k, b) points the repo benchmark partitions it at. The hashes were captured before elaboration stopped copying module
/// bodies per instance and before restarts shared flattened hypergraphs.
#[test]
#[ignore = "1.1 M gates, run in release by CI on every push with -- --ignored"]
fn full_scale_netlist_and_partitions_are_pinned() {
    use dvs_verilog::netlist::{GateId, NetId};
    use std::fmt::Write;
    let source = generate_viterbi(&ViterbiParams::full_scale());
    let nl = dvs_verilog::parse_and_elaborate(&source)
        .expect("the full-scale decoder elaborates")
        .into_netlist();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (i, n) in nl.nets.iter().enumerate() {
        write!(h, "{} {:?};", nl.net_name(NetId(i as u32)), n.driver).unwrap();
    }
    for (i, g) in nl.gates.iter().enumerate() {
        let (kind, out, owner, id) = (g.kind.name(), g.output, g.owner, GateId(i as u32));
        write!(
            h,
            "{kind} {out} {:?} {owner} {:?};",
            nl.inputs(id),
            nl.delay(id)
        )
        .unwrap();
    }
    for i in &nl.instances {
        let (name, module, own, sub) = (&i.name, &i.module, i.own_gates, i.subtree_gates);
        write!(
            h,
            "{name} {module} {:?} {:?} {own} {sub};",
            i.parent, i.children
        )
        .unwrap();
    }
    let (pi, po) = (&nl.primary_inputs, &nl.primary_outputs);
    write!(h, "{pi:?} {po:?} {:?} {:?}", nl.const0_net, nl.const1_net).unwrap();
    let mut pins = vec![format!("netlist {:016x}", h.0)];
    for (k, b) in [(2, 10.0), (4, 7.5)] {
        let r = partition_multiway(&nl, &MultiwayConfig::new(k, b));
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        write!(h, "{} {:?} {:?}", r.cut, r.loads, r.gate_blocks).unwrap();
        pins.push(format!("({k}, {b}) cut {} {:016x}", r.cut, h.0));
    }
    assert_eq!(
        pins,
        [
            "netlist 29b9cdec603feb7a",
            "(2, 10) cut 112 ab9281e01078bd5b",
            "(4, 7.5) cut 187 6f0bcb51826af534",
        ]
    );
}

fn fake_case(cut: u64, speedup: f64) -> (&'static str, Json) {
    let report = ObjBuilder::new()
        .uint("cut", cut)
        .float("speedup", speedup)
        .array("machine_events", vec![Json::Int(5), Json::Int(7)])
        .build();
    ("fake", report)
}

#[test]
fn identical_artifacts_pass() {
    let a = artifact(&[fake_case(10, 1.5)]);
    let (checked, diffs) = compare(&a, &a).unwrap();
    assert!(diffs.is_empty(), "{diffs:?}");
    assert_eq!(checked, 6, "four report leaves, schema_version and kind");
}

/// Every leaf is held exactly: a counter off by one, and a modeled speedup
/// off by its last bit.
#[test]
fn counter_drift_fails_exactly() {
    let base = artifact(&[fake_case(10, 1.5)]);
    let cur = artifact(&[fake_case(11, 1.5)]);
    let (_, diffs) = compare(&cur, &base).unwrap();
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert!(diffs[0].contains("`report.cut`"), "{diffs:?}");

    let cur = artifact(&[fake_case(10, f64::from_bits(1.5f64.to_bits() + 1))]);
    let (_, diffs) = compare(&cur, &base).unwrap();
    assert_eq!(diffs.len(), 1, "{diffs:?}");
    assert!(diffs[0].contains("`report.speedup`"), "{diffs:?}");
}

#[test]
fn missing_and_extra_cases_fail() {
    let cur = artifact(&[fake_case(10, 1.5)]);
    let base = artifact(&[("other", fake_case(10, 1.5).1)]);
    let (_, diffs) = compare(&cur, &base).unwrap();
    assert_eq!(diffs.len(), 2, "{diffs:?}");
    assert!(diffs.iter().any(|d| d.contains("missing from this run")));
    assert!(diffs.iter().any(|d| d.contains("not in the baseline")));
}

#[test]
fn shape_changes_fail() {
    let cur = artifact(&[fake_case(10, 1.5)]);
    let (name, mut report) = fake_case(10, 1.5);
    let Json::Object(members) = &mut report else {
        unreachable!("a report is an object")
    };
    members[2].1 = Json::Array(vec![Json::Int(5), Json::Int(7), Json::Int(9)]);
    members.push(("extra".to_string(), Json::Null));
    let base = artifact(&[(name, report)]);
    let (_, diffs) = compare(&cur, &base).unwrap();
    assert_eq!(diffs.len(), 2, "{diffs:?}");
    assert!(diffs
        .iter()
        .any(|d| d.contains("`report.machine_events[2]`")));
    assert!(diffs.iter().any(|d| d.contains("`report.extra`")));
}

#[test]
fn smoke_case_is_deterministic_end_to_end() {
    let _g = serial();
    let grid = smoke_grid();
    let case = &grid[1]; // pipeline_soc_tiny, the smaller one
    let a = artifact(&[(case.name, run_case(case))]);
    // Self-comparison of a real artifact passes and checks many leaves.
    let (checked, diffs) = compare(&a, &a).unwrap();
    assert!(diffs.is_empty(), "{diffs:?}");
    assert!(checked > 50, "only {checked} leaves");
}
