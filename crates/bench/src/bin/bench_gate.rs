//! `bench_gate` — the deterministic perf-regression gate CI runs on every
//! push.
//!
//! ```text
//! bench_gate [--label NAME] [--baseline PATH] [--out PATH] [--write-baseline]
//!            [--case all|large]
//! ```
//!
//! With `--case all` (the default): runs the fixed smoke grid (see
//! `dvs_bench::gate::smoke_grid`), once serial and once on 4 threads per
//! case, asserts the canonical artifacts of the two legs are
//! byte-identical, then runs the process- and TCP-transport legs
//! (`dvs_bench::gate::{process_case, tcp_case}` — real `tw_worker` OS
//! processes over a Unix socket and over localhost TCP, one worker
//! `SIGKILL`ed and recovered per leg, byte-compared against the
//! in-process run) and the network-chaos leg
//! (`dvs_bench::gate::tcp_chaos_case` — a bit-flipped frame and a stalled
//! link caught by the heartbeat prober, each recovering byte-identically
//! with its exact counters pinned) — five cases in all — writes
//! `BENCH_<label>.json`, and compares against the checked-in baseline.
//!
//! With `--case large`: runs only the paper-scale nightly case
//! (`dvs_bench::gate::large_case`). The serial-vs-threaded determinism
//! check still gates the run, but no baseline comparison happens — the
//! artifact is a nightly tracking record, not a per-push pin.
//!
//! Exit status:
//!
//! * `0` — gate passed (or `--write-baseline` refreshed the baseline);
//! * `1` — determinism broken, a counter drifted, or a time left its
//!   tolerance band;
//! * `2` — usage or I/O error (unreadable baseline, unwritable artifact,
//!   missing `tw_worker` binary).

use dvs_bench::gate::{
    bench_artifact, compare, large_case, process_case, run_case, smoke_grid, tcp_case,
    tcp_chaos_case, Tolerances,
};
use dvs_core::json::Json;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut label = "local".to_string();
    let mut baseline_path = "results/bench_baseline.json".to_string();
    let mut out_path: Option<String> = None;
    let mut write_baseline = false;
    let mut which = "all".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--label" => label = need(&mut args, "--label needs a name"),
            "--baseline" => baseline_path = need(&mut args, "--baseline needs a path"),
            "--out" => out_path = Some(need(&mut args, "--out needs a path")),
            "--write-baseline" => write_baseline = true,
            "--case" => which = need(&mut args, "--case needs a value (all|large)"),
            "--help" | "-h" => {
                println!(
                    "usage: bench_gate [--label NAME] [--baseline PATH] [--out PATH] \
                     [--write-baseline] [--case all|large]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (see --help)");
                std::process::exit(2);
            }
        }
    }
    if which != "all" && which != "large" {
        eprintln!("--case must be `all` or `large`, got `{which}`");
        std::process::exit(2);
    }
    if write_baseline && which != "all" {
        eprintln!("--write-baseline only makes sense with the full `--case all` run");
        std::process::exit(2);
    }
    let out_path = out_path.unwrap_or_else(|| format!("BENCH_{label}.json"));

    let t0 = Instant::now();
    let mut cases = Vec::new();
    if which == "large" {
        let t = Instant::now();
        match large_case() {
            Ok(artifact) => {
                eprintln!(
                    "   case `{}`: serial and threaded legs agree [{:.2?}]",
                    artifact.name,
                    t.elapsed()
                );
                cases.push(artifact);
            }
            Err(e) => {
                eprintln!("FAIL {e}");
                std::process::exit(1);
            }
        }
    } else {
        let grid = smoke_grid();
        for case in &grid {
            let t = Instant::now();
            match run_case(case) {
                Ok(artifact) => {
                    eprintln!(
                        "   case `{}`: serial and threaded legs agree [{:.2?}]",
                        case.name,
                        t.elapsed()
                    );
                    cases.push(artifact);
                }
                Err(e) => {
                    eprintln!("FAIL {e}");
                    std::process::exit(1);
                }
            }
        }

        let worker = find_worker();
        type Leg = fn(&std::path::Path) -> Result<dvs_bench::gate::CaseArtifact, String>;
        for (name, leg) in [
            ("process_transport", process_case as Leg),
            ("tcp_transport", tcp_case as Leg),
            ("tcp_chaos", tcp_chaos_case as Leg),
        ] {
            let t = Instant::now();
            match leg(&worker) {
                Ok(artifact) => {
                    eprintln!(
                        "   case `{name}`: in-process, wire-transport, and \
                         crash-recovered legs agree [{:.2?}]",
                        t.elapsed()
                    );
                    cases.push(artifact);
                }
                Err(e) => {
                    eprintln!("FAIL {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    let artifact = bench_artifact(&label, &cases);
    let pretty = artifact.emit_pretty().unwrap_or_else(|e| {
        eprintln!("cannot serialize artifact: {e}");
        std::process::exit(2);
    });
    write_file(&out_path, &pretty);
    eprintln!("   wrote {out_path}");

    if which == "large" {
        eprintln!(
            "OK nightly tracking run: {} case(s), no baseline comparison [{:.2?}]",
            cases.len(),
            t0.elapsed()
        );
        return;
    }

    if write_baseline {
        // The baseline is the same artifact under a fixed label, so runs
        // on any machine diff only in the host section (tolerance-banded).
        let base = bench_artifact("baseline", &cases);
        let pretty = base.emit_pretty().expect("serialize baseline");
        write_file(&baseline_path, &pretty);
        eprintln!("   wrote {baseline_path} (baseline refreshed)");
        return;
    }

    let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!(
            "cannot read baseline `{baseline_path}`: {e}\n\
             (generate one with `bench_gate --write-baseline`)"
        );
        std::process::exit(2);
    });
    let baseline = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("baseline `{baseline_path}` is not valid JSON: {e}");
        std::process::exit(2);
    });
    let outcome = compare(&artifact, &baseline, &Tolerances::default()).unwrap_or_else(|e| {
        eprintln!("baseline `{baseline_path}` is malformed: {e}");
        std::process::exit(2);
    });
    if !outcome.passed() {
        eprintln!(
            "FAIL bench gate: {} regression(s)",
            outcome.regressions.len()
        );
        for r in &outcome.regressions {
            eprintln!("  - {r}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "OK bench gate: {} cases, {} metrics checked against {baseline_path} [{:.2?}]",
        cases.len(),
        outcome.checked,
        t0.elapsed()
    );
}

/// Locate the `tw_worker` binary for the process-transport leg:
/// `DVS_TW_WORKER` if set, else the sibling of this executable (both are
/// `dvs-bench` targets, so a workspace build places them together).
fn find_worker() -> PathBuf {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("tw_worker")));
    let candidate = std::env::var_os("DVS_TW_WORKER")
        .map(PathBuf::from)
        .or(sibling);
    match candidate {
        Some(p) if p.exists() => p,
        _ => {
            eprintln!(
                "tw_worker binary not found — build it alongside bench_gate \
                 (`cargo build --release -p dvs-bench --bins`) or point \
                 DVS_TW_WORKER at it"
            );
            std::process::exit(2);
        }
    }
}

fn need(args: &mut impl Iterator<Item = String>, msg: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

fn write_file(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                eprintln!("cannot create `{}`: {e}", dir.display());
                std::process::exit(2);
            });
        }
    }
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write `{path}`: {e}");
        std::process::exit(2);
    });
}
