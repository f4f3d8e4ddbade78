//! The deterministic perf-regression gate behind the `bench_gate` binary.
//!
//! The gate runs a fixed smoke grid — small workloads, fixed seeds, a
//! brute-force (k, b) sweep — once with [`Parallelism::Serial`] and once
//! with [`Parallelism::Threads`]`(4)`, asserts the two canonical artifacts
//! are **byte-identical** (the determinism contract of the search engine),
//! and then compares the run against a checked-in baseline
//! (`results/bench_baseline.json`) with per-metric tolerances:
//!
//! * **counters and parameters** (events, messages, rollbacks, cuts,
//!   loads, chosen k/b, partitions, …) must match the baseline *exactly* —
//!   they are deterministic, so any drift is a behaviour change that either
//!   is a bug or deserves a deliberate baseline refresh;
//! * **times** (modeled seconds, speedups, host wall seconds) get a ±30 %
//!   relative band plus an absolute slack — generous for the deterministic
//!   modeled times (which normally match exactly) and loose enough for
//!   host measurements to absorb CI-runner noise while still catching
//!   order-of-magnitude regressions.
//!
//! A metric present on one side and missing on the other is always a
//! failure: schema growth requires a baseline refresh
//! (`bench_gate --write-baseline`), never a silent pass.

use crate::scenario::{canonical, fnv1a, Built, Executor, Scenario};
use dvs_core::json::{Json, JsonError, ObjBuilder, ToJson, SCHEMA_VERSION};
use dvs_core::{FlowBuilder, Parallelism, Search, TwPresimConfig};
use dvs_sim::timewarp::{NetDir, NetFault, NetFaultKind, NetPlan, Transport, TwRunResult};
use dvs_sim::{FaultPlan, SchedulePolicy};
use dvs_workloads::pipeline_soc::{generate_pipeline_soc, PipelineParams};
use dvs_workloads::{generate_viterbi, ViterbiParams};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Stimulus seed every gate run uses. Fixed forever: changing it changes
/// every counter in the baseline.
pub const STIM_SEED: u64 = 0x5EED_0001;
/// Base partitioner seed every gate run uses (each (k, b) point derives
/// its own from it).
pub const PART_SEED: u64 = 0x5EED_0002;
/// Thread count for the parallel leg of the determinism check.
pub const GATE_THREADS: usize = 4;
/// Scheduler seed for the deterministic Time Warp presim leg. Fixed
/// forever, like [`STIM_SEED`]: it selects the exact interleaving whose
/// protocol counters (rollbacks, anti-messages, GVT rounds, fossil
/// collections) the baseline records.
pub const DST_SEED: u64 = 0x5EED_0003;
/// Vectors for the deterministic Time Warp presim leg (it simulates every
/// gate for real, so it is kept shorter than the modeled presim).
pub const DST_VECTORS: u64 = 40;
/// Crash point of the gate's crash-injected Time Warp leg: cluster 0 dies
/// at decision 25 (early enough to fire on every grid point) and is
/// recovered from its last GVT checkpoint. Fixed forever, like the seeds.
pub const CRASH_AT: (u32, u64) = (0, 25);

/// The deterministic Time Warp leg every gate run enables: a seeded-random
/// schedule, so the gate covers a nontrivial interleaving rather than the
/// benign round-robin one. The fault plan adds a second, crash-injected
/// leg whose counters the baseline also pins exactly — recovery must
/// reproduce the undisturbed execution counter for counter, so any drift
/// in the checkpoint/replay machinery fails the gate.
pub fn dst_presim() -> TwPresimConfig {
    TwPresimConfig {
        schedule: SchedulePolicy::SeededRandom,
        vectors: DST_VECTORS,
        fault: Some(FaultPlan::crash(CRASH_AT.0, CRASH_AT.1)),
        ..TwPresimConfig::new(DST_SEED)
    }
}

/// Vectors for the process-transport leg. Short — each run spawns one OS
/// process per cluster — but long enough that the crash at [`CRASH_AT`]
/// fires and is recovered.
pub const PROCESS_VECTORS: u64 = 20;

/// The process-transport leg of the gate: real `tw_worker` OS processes,
/// one per cluster, over the Unix-socket wire protocol. Three runs — clean
/// in-process, clean process, and a process run whose cluster-0 worker is
/// `SIGKILL`ed at decision [`CRASH_AT`]`.1` and recovered from its last
/// GVT checkpoint — must all emit **byte-identical** canonical artifacts.
/// The resulting case pins the recovery counters and an FNV-1a hash of the
/// canonical bytes exactly, so any drift in the wire protocol, the
/// checkpoint/replay machinery, or the supervisor's decision sequence
/// fails the gate rather than passing silently.
pub fn process_case(worker: &Path) -> Result<CaseArtifact, String> {
    let wire = Transport::process_with_worker(DST_SEED, WIRE_POLICY, worker);
    wire_transport_case("process_transport", wire)
}

/// The TCP-transport leg of the gate: the same three-run byte-identity
/// protocol as [`process_case`], but each `tw_worker` dials a localhost
/// TCP listener (`tw_worker --connect`) instead of accepting a Unix
/// socket, and the injected fault is observed as a dropped connection
/// rather than a reaped child. Pins the recovery counters and the FNV-1a
/// artifact hash exactly, so drift anywhere in the TCP wire path — hello
/// negotiation, the connection broker, reconnect matching, crash-stop
/// recovery — fails the gate.
pub fn tcp_case(worker: &Path) -> Result<CaseArtifact, String> {
    let wire = Transport::tcp_with_worker(DST_SEED, WIRE_POLICY, worker);
    wire_transport_case("tcp_transport", wire)
}

/// The schedule of every wire-case leg: seeded-random, like [`dst_presim`].
const WIRE_POLICY: SchedulePolicy = SchedulePolicy::SeededRandom;

/// The fixture of the gate's wire cases, with the gate's own parameters:
/// the tiny Viterbi decoder on 3 clusters, [`PROCESS_VECTORS`] vectors of
/// [`STIM_SEED`], in-process under [`DST_SEED`] and [`WIRE_POLICY`].
fn wire_fixture() -> Scenario {
    Scenario::tiny_viterbi(STIM_SEED, PROCESS_VECTORS).in_proc(DST_SEED, WIRE_POLICY)
}

/// One timed leg of case `case`: the run, its canonical bytes and its host
/// seconds — an error when the bytes are not `clean`, the undisturbed
/// in-process artifact (`None` for the leg that produces it).
fn leg(
    case: &str,
    leg: &str,
    scenario: &Scenario,
    built: &Built,
    clean: Option<&str>,
) -> Result<(TwRunResult, String, f64), String> {
    let t = Instant::now();
    let tw = scenario
        .run(built)
        .map_err(|e| format!("case `{case}`: {e}"))?;
    let seconds = t.elapsed().as_secs_f64();
    let bytes = canonical(&tw);
    if clean.is_some_and(|clean| clean != bytes) {
        return Err(format!(
            "case `{case}`: the {leg} leg diverged from the undisturbed in-process artifact"
        ));
    }
    Ok((tw, bytes, seconds))
}

/// Shared body of [`process_case`] and [`tcp_case`]: clean in-process run,
/// clean wire-transport run, crash-injected wire-transport run — all three
/// canonical artifacts byte-identical, counters and artifact hash pinned.
fn wire_transport_case(name: &'static str, wire: Transport) -> Result<CaseArtifact, String> {
    let in_proc = wire_fixture();
    let wire = in_proc.on(Executor::Wire(wire));
    let crash = wire.faulted(FaultPlan::crash(CRASH_AT.0, CRASH_AT.1));
    let built = in_proc.build();

    let (_, clean, inproc_seconds) = leg(name, "in-process", &in_proc, &built, None)?;
    let (_, _, transport_seconds) = leg(name, "clean wire", &wire, &built, Some(&clean))?;
    let (crashed, _, crash_seconds) = leg(name, "crashed", &crash, &built, Some(&clean))?;
    if crashed.recovery.crashes == 0 {
        return Err(format!(
            "case `{name}`: the injected crash never fired — move CRASH_AT earlier"
        ));
    }

    Ok(CaseArtifact {
        name: name.to_string(),
        report: ObjBuilder::new()
            .str(
                "artifact_fnv1a",
                &format!("{:016x}", fnv1a(clean.as_bytes())),
            )
            .field("stats", crashed.stats.to_json())
            .uint("gvt_rounds", crashed.gvt_rounds)
            .field("recovery", crashed.recovery.to_json())
            .build(),
        host: ObjBuilder::new()
            .float("inproc_seconds", inproc_seconds)
            .float("transport_seconds", transport_seconds)
            .float("crash_recovery_seconds", crash_seconds)
            .build(),
    })
}

/// Heartbeat idle interval of the chaos gate's stall leg. Short enough
/// that half-open detection (2 × 150 ms) dominates neither the gate nor a
/// CI run, long enough that a briefly preempted worker is not declared
/// dead spuriously.
pub const CHAOS_HEARTBEAT_MS: u64 = 150;
/// Missed-probe budget of the chaos gate's stall leg.
pub const CHAOS_HEARTBEAT_BUDGET: u32 = 2;

/// The network-chaos leg of the gate (`tcp_chaos` case): the TCP transport
/// under the deterministic fault-injection shim, two disturbed runs —
///
/// * **corrupt**: one bit of a worker→supervisor frame is flipped in
///   flight; the CRC32 check rejects it (`corrupt_frames` = 1) and the
///   connection is torn down and recovered;
/// * **stall**: the link goes silent both ways mid-run; the heartbeat
///   prober detects the half-open connection in
///   [`CHAOS_HEARTBEAT_BUDGET`] × [`CHAOS_HEARTBEAT_MS`] ms
///   (`heartbeats_missed` = budget) and recovery replaces it.
///
/// Every disturbed run must emit a canonical artifact **byte-identical**
/// to the undisturbed in-process run, and the exact recovery counters of
/// each leg (`corrupt_frames`, `heartbeats_missed`,
/// `chaos_faults_injected`, crashes, restarts) are pinned in the baseline,
/// so drift anywhere in the integrity or liveness machinery fails the
/// gate rather than passing silently.
pub fn tcp_chaos_case(worker: &Path) -> Result<CaseArtifact, String> {
    let name = "tcp_chaos";
    let in_proc = wire_fixture();
    let tcp = Transport::tcp_with_worker(DST_SEED, WIRE_POLICY, worker);
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
    let (_, clean, clean_seconds) = leg(name, "in-process", &in_proc, &built, None)?;

    // Leg 1: a bit flipped in a worker→supervisor frame. The default
    // heartbeat interval (1 s) never fires on this workload, so the frame
    // sequence — and with it the pinned counters — is exact.
    let corrupt = Scenario {
        chaos: fault(
            1,
            NetDir::FromWorker,
            8,
            NetFaultKind::BitFlip { offset: 5 },
        ),
        ..tcp.clone()
    };
    let (corrupt, _, corrupt_seconds) = leg(name, "corrupt", &corrupt, &built, Some(&clean))?;
    let r = &corrupt.recovery;
    let got = (
        r.corrupt_frames,
        r.chaos_faults_injected,
        r.crashes,
        r.restarts,
    );
    if got != (1, 1, 1, 1) {
        return Err(format!(
            "case `{name}`: corrupt leg counters (corrupt_frames, chaos, crashes, restarts) \
             {got:?} are not the expected (1, 1, 1, 1)"
        ));
    }

    // Leg 2: the link stalls silently both ways; only the heartbeat
    // prober can notice. Budget exhaustion is charged exactly once, at
    // `budget` misses.
    let stalled = Scenario {
        chaos: fault(2, NetDir::ToWorker, 10, NetFaultKind::Stall),
        heartbeat: Some((CHAOS_HEARTBEAT_MS, CHAOS_HEARTBEAT_BUDGET)),
        ..tcp
    };
    let (stalled, _, stall_seconds) = leg(name, "stall", &stalled, &built, Some(&clean))?;
    let r = &stalled.recovery;
    let got = (
        r.heartbeats_missed,
        r.chaos_faults_injected,
        r.crashes,
        r.corrupt_frames,
    );
    if got != (u64::from(CHAOS_HEARTBEAT_BUDGET), 1, 1, 0) {
        return Err(format!(
            "case `{name}`: stall leg counters (heartbeats_missed, chaos, crashes, corrupt) \
             {got:?} are not the expected ({CHAOS_HEARTBEAT_BUDGET}, 1, 1, 0)"
        ));
    }

    Ok(CaseArtifact {
        name: name.to_string(),
        report: ObjBuilder::new()
            .str(
                "artifact_fnv1a",
                &format!("{:016x}", fnv1a(clean.as_bytes())),
            )
            .field("corrupt_recovery", corrupt.recovery.to_json())
            .field("stall_recovery", stalled.recovery.to_json())
            .build(),
        host: ObjBuilder::new()
            .float("inproc_seconds", clean_seconds)
            .float("corrupt_seconds", corrupt_seconds)
            .float("stall_seconds", stall_seconds)
            .build(),
    })
}

/// The nightly paper-scale case (`bench_gate --case large`): the
/// [`ViterbiParams::paper_class`] decoder (~14 k gates, 459 module
/// instances — the shape of the paper's 388-module netlist) swept over a
/// small (k, b) grid with the same serial-vs-threaded byte-identity check
/// as the smoke grid. Too slow for the per-push gate, so it runs from the
/// cron workflow as a tracking artifact (`BENCH_nightly.json`) rather
/// than against the checked-in baseline.
pub fn large_case() -> Result<CaseArtifact, String> {
    run_case(&BenchCase {
        name: "viterbi_paper_class",
        source: generate_viterbi(&ViterbiParams::paper_class()),
        ks: vec![4, 8],
        bs: vec![10.0, 20.0],
        presim_vectors: 40,
        full_vectors: 100,
    })
}

/// One workload of the smoke grid.
pub struct BenchCase {
    /// Stable name — the key used to match against the baseline.
    pub name: &'static str,
    /// Structural Verilog source.
    pub source: String,
    /// Brute-force k values.
    pub ks: Vec<u32>,
    /// Brute-force balance factors.
    pub bs: Vec<f64>,
    /// Vectors per pre-simulation run.
    pub presim_vectors: u64,
    /// Vectors for the full simulation of the chosen partition.
    pub full_vectors: u64,
}

/// The fixed smoke grid: two small workloads with opposite interconnect
/// structure (the trellis-coupled Viterbi decoder and the modular pipeline
/// SoC), each swept over k ∈ {2, 3} × b ∈ {7.5, 15.0}. Small enough that
/// the whole gate — every case run twice — finishes in well under a minute
/// even on a debug build.
pub fn smoke_grid() -> Vec<BenchCase> {
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

/// The product of running one case: its canonical (deterministic) flow
/// report plus the host-side measurements kept outside it.
pub struct CaseArtifact {
    pub name: String,
    /// Canonical flow report — byte-identical across parallelism modes.
    pub report: Json,
    /// Host wall seconds of each leg. Nondeterministic; compared only
    /// within the loose host tolerance.
    pub host: Json,
}

/// Run one case twice — serial and threaded — and check the determinism
/// contract: both legs must emit byte-identical canonical artifacts.
pub fn run_case(case: &BenchCase) -> Result<CaseArtifact, String> {
    let leg = |par: Parallelism| -> Result<(String, f64), String> {
        let t = Instant::now();
        let report = FlowBuilder::from_source(&case.source)
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
            .map_err(|e| format!("case `{}`: {e}", case.name))?
            .run()
            .map_err(|e| format!("case `{}`: {e}", case.name))?;
        let seconds = t.elapsed().as_secs_f64();
        let canonical = report
            .canonical_json()
            .emit()
            .map_err(|e| format!("case `{}`: {e}", case.name))?;
        Ok((canonical, seconds))
    };
    let (serial, serial_seconds) = leg(Parallelism::Serial)?;
    let (threaded, threads_seconds) = leg(Parallelism::Threads(GATE_THREADS))?;
    if serial != threaded {
        return Err(format!(
            "case `{}`: Serial and Threads({GATE_THREADS}) canonical artifacts differ \
             — the deterministic-search contract is broken",
            case.name
        ));
    }
    Ok(CaseArtifact {
        name: case.name.to_string(),
        report: Json::parse(&serial).map_err(|e| format!("case `{}`: {e}", case.name))?,
        host: ObjBuilder::new()
            .float("serial_seconds", serial_seconds)
            .float("threads_seconds", threads_seconds)
            .build(),
    })
}

/// Assemble the schema-versioned `BENCH_<label>.json` artifact.
pub fn bench_artifact(label: &str, cases: &[CaseArtifact]) -> Json {
    ObjBuilder::new()
        .int("schema_version", SCHEMA_VERSION)
        .str("kind", "bench_artifact")
        .str("label", label)
        .array(
            "cases",
            cases
                .iter()
                .map(|c| {
                    ObjBuilder::new()
                        .str("name", &c.name)
                        .field("report", c.report.clone())
                        .field("host", c.host.clone())
                        .build()
                })
                .collect(),
        )
        .build()
}

/// Per-metric comparison tolerances. Counters are always exact; these
/// bands apply to time-valued metrics only.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Relative band for every time metric (0.30 = ±30 %).
    pub time_rel: f64,
    /// Absolute slack (seconds) for modeled times inside the canonical
    /// report. These are deterministic, so the slack only matters across
    /// deliberate model changes.
    pub modeled_abs: f64,
    /// Absolute slack (seconds) for host wall times — wide, because CI
    /// runners are shared and the gate's runs are sub-second.
    pub host_abs: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            time_rel: 0.30,
            modeled_abs: 0.25,
            host_abs: 1.0,
        }
    }
}

/// Outcome of a baseline comparison.
pub struct GateOutcome {
    /// Metrics checked across all cases.
    pub checked: usize,
    /// Human-readable regressions; empty means the gate passes.
    pub regressions: Vec<String>,
}

impl GateOutcome {
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compare a freshly produced artifact against the checked-in baseline.
pub fn compare(
    current: &Json,
    baseline: &Json,
    tol: &Tolerances,
) -> Result<GateOutcome, JsonError> {
    let mut out = GateOutcome {
        checked: 0,
        regressions: Vec::new(),
    };
    let version = baseline.field("schema_version")?.as_i64()?;
    if version != SCHEMA_VERSION {
        out.regressions.push(format!(
            "baseline has schema_version {version}, gate expects {SCHEMA_VERSION} \
             — refresh it with `bench_gate --write-baseline`"
        ));
        return Ok(out);
    }
    let cur = index_cases(current)?;
    let base = index_cases(baseline)?;
    for (name, base_case) in &base {
        match cur.get(name) {
            None => out.regressions.push(format!(
                "case `{name}`: in the baseline but missing from this run"
            )),
            Some(cur_case) => compare_case(name, cur_case, base_case, tol, &mut out),
        }
    }
    for name in cur.keys() {
        if !base.contains_key(name) {
            out.regressions.push(format!(
                "case `{name}`: not in the baseline — refresh it with `bench_gate --write-baseline`"
            ));
        }
    }
    Ok(out)
}

fn index_cases(artifact: &Json) -> Result<BTreeMap<&str, &Json>, JsonError> {
    let mut map = BTreeMap::new();
    for case in artifact.field("cases")?.as_array()? {
        map.insert(case.field("name")?.as_str()?, case);
    }
    Ok(map)
}

fn compare_case(
    name: &str,
    current: &Json,
    baseline: &Json,
    tol: &Tolerances,
    out: &mut GateOutcome,
) {
    let mut cur = BTreeMap::new();
    let mut base = BTreeMap::new();
    flatten("", current, &mut cur);
    flatten("", baseline, &mut base);
    for (path, base_leaf) in &base {
        if path == "name" {
            continue;
        }
        match cur.get(path) {
            None => out.regressions.push(format!(
                "case `{name}`: metric `{path}` is in the baseline but not this run"
            )),
            Some(cur_leaf) => {
                out.checked += 1;
                compare_leaf(name, path, cur_leaf, base_leaf, tol, &mut out.regressions);
            }
        }
    }
    for path in cur.keys() {
        if path != "name" && !base.contains_key(path) {
            out.regressions.push(format!(
                "case `{name}`: new metric `{path}` not in the baseline \
                 — refresh it with `bench_gate --write-baseline`"
            ));
        }
    }
}

/// Flatten a JSON tree into `path → leaf` pairs. Arrays index their
/// elements (`machine_events[2]`); empty containers count as leaves so a
/// shape change never slips through.
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

/// Is this metric a time (tolerance-banded) rather than a counter (exact)?
/// Returns the absolute slack to use, or `None` for exact metrics.
fn time_slack(path: &str, tol: &Tolerances) -> Option<f64> {
    if path.starts_with("host.") {
        return Some(tol.host_abs);
    }
    let last = path
        .rsplit('.')
        .next()
        .unwrap_or(path)
        .trim_end_matches(|c: char| c == ']' || c.is_ascii_digit() || c == '[');
    if last.ends_with("seconds") || last == "speedup" {
        Some(tol.modeled_abs)
    } else {
        None
    }
}

fn compare_leaf(
    name: &str,
    path: &str,
    current: &Json,
    baseline: &Json,
    tol: &Tolerances,
    regressions: &mut Vec<String>,
) {
    if let Some(abs) = time_slack(path, tol) {
        if let (Ok(c), Ok(b)) = (current.as_f64(), baseline.as_f64()) {
            let band = tol.time_rel * b.abs() + abs;
            if (c - b).abs() > band {
                regressions.push(format!(
                    "case `{name}`: time `{path}` = {c:.6} outside \
                     baseline {b:.6} ± {band:.6}"
                ));
            }
            return;
        }
    }
    let show = |v: &Json| v.emit().unwrap_or_else(|e| format!("<unprintable: {e}>"));
    if current != baseline {
        regressions.push(format!(
            "case `{name}`: counter `{path}` = {} differs from baseline {}",
            show(current),
            show(baseline)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_case(cut: u64, speedup: f64, host: f64) -> CaseArtifact {
        CaseArtifact {
            name: "fake".to_string(),
            report: ObjBuilder::new()
                .uint("cut", cut)
                .float("speedup", speedup)
                .float("wall_seconds", speedup / 10.0)
                .array("machine_events", vec![Json::Int(5), Json::Int(7)])
                .build(),
            host: ObjBuilder::new().float("serial_seconds", host).build(),
        }
    }

    fn artifact_of(case: CaseArtifact) -> Json {
        bench_artifact("test", &[case])
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact_of(fake_case(10, 1.5, 0.2));
        let outcome = compare(&a, &a, &Tolerances::default()).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.regressions);
        assert!(outcome.checked >= 5);
    }

    #[test]
    fn counter_drift_fails_exactly() {
        let cur = artifact_of(fake_case(11, 1.5, 0.2));
        let base = artifact_of(fake_case(10, 1.5, 0.2));
        let outcome = compare(&cur, &base, &Tolerances::default()).unwrap();
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.regressions[0].contains("`report.cut`"));
    }

    #[test]
    fn times_get_a_tolerance_band() {
        // +20% on a modeled time: within the band.
        let cur = artifact_of(fake_case(10, 1.8, 0.2));
        let base = artifact_of(fake_case(10, 1.5, 0.2));
        let outcome = compare(&cur, &base, &Tolerances::default()).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.regressions);
        // 10x on a modeled time: outside it.
        let cur = artifact_of(fake_case(10, 15.0, 0.2));
        let outcome = compare(&cur, &base, &Tolerances::default()).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.regressions.iter().any(|r| r.contains("speedup")));
    }

    #[test]
    fn host_times_have_wide_slack() {
        let cur = artifact_of(fake_case(10, 1.5, 0.9));
        let base = artifact_of(fake_case(10, 1.5, 0.1));
        let outcome = compare(&cur, &base, &Tolerances::default()).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.regressions);
    }

    #[test]
    fn missing_and_extra_cases_fail() {
        let cur = artifact_of(fake_case(10, 1.5, 0.2));
        let mut other = fake_case(10, 1.5, 0.2);
        other.name = "other".to_string();
        let base = artifact_of(other);
        let outcome = compare(&cur, &base, &Tolerances::default()).unwrap();
        assert_eq!(outcome.regressions.len(), 2);
        assert!(outcome
            .regressions
            .iter()
            .any(|r| r.contains("missing from this run")));
        assert!(outcome
            .regressions
            .iter()
            .any(|r| r.contains("not in the baseline")));
    }

    #[test]
    fn shape_changes_fail() {
        let cur = artifact_of(fake_case(10, 1.5, 0.2));
        let mut case = fake_case(10, 1.5, 0.2);
        case.report = ObjBuilder::new()
            .uint("cut", 10)
            .float("speedup", 1.5)
            .float("wall_seconds", 0.15)
            .array(
                "machine_events",
                vec![Json::Int(5), Json::Int(7), Json::Int(9)],
            )
            .build();
        let base = artifact_of(case);
        let outcome = compare(&cur, &base, &Tolerances::default()).unwrap();
        assert!(outcome
            .regressions
            .iter()
            .any(|r| r.contains("machine_events[2]")));
    }

    #[test]
    fn smoke_case_is_deterministic_end_to_end() {
        let grid = smoke_grid();
        let case = &grid[1]; // pipeline_soc_tiny, the smaller one
        let artifact = run_case(case).unwrap();
        // Self-comparison of a real artifact passes and checks many metrics.
        let a = bench_artifact("t", &[artifact]);
        let outcome = compare(&a, &a, &Tolerances::default()).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.regressions);
        assert!(outcome.checked > 50, "only {} metrics", outcome.checked);
    }
}
