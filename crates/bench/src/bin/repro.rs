//! `repro` — regenerate every table and figure of Li & Tropper (ICPP 2008).
//!
//! ```text
//! repro [--scale quick|paper|full] [--jobs N] [--csv DIR]
//!       [--artifact PATH] [targets...]
//!
//! targets: table1 table2 table3 table4 table5 fig5 fig6 fig7 all
//!          (default: all)
//! ```
//!
//! `--jobs N` fans the per-`k` grid columns out over N worker threads
//! (`--jobs 0`, the default, uses the host's available parallelism). The
//! tables are identical for every value; only wall time changes.
//!
//! `--artifact PATH` additionally writes every emitted table plus the
//! headline numbers as one schema-versioned JSON artifact (the same
//! format family as the golden baseline `results/bench_baseline.json`), for
//! machine consumption instead of scraping the printed tables.

use dvs_bench::experiments::*;
use dvs_core::json::{Json, ObjBuilder, ToJson, SCHEMA_VERSION};
use dvs_core::Parallelism;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::time::Instant;

fn main() {
    let mut scale = "paper".to_string();
    let mut csv_dir: Option<String> = None;
    let mut artifact_path: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut targets: BTreeSet<String> = BTreeSet::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args.next().unwrap_or_else(|| {
                    eprintln!("--scale needs quick|paper|full");
                    std::process::exit(2);
                })
            }
            "--csv" => {
                csv_dir = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--csv needs a directory");
                    std::process::exit(2);
                }))
            }
            "--artifact" => {
                artifact_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--artifact needs a path");
                    std::process::exit(2);
                }))
            }
            "--jobs" => {
                let n = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--jobs needs a thread count (0 = auto)");
                    std::process::exit(2);
                });
                jobs = Some(n);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale quick|paper|full] [--jobs N] [--csv DIR] \
                     [--artifact PATH] [targets...]\n\
                     targets: table1 table2 table3 table4 table5 fig5 fig6 fig7 regime all"
                );
                return;
            }
            t => {
                targets.insert(t.to_string());
            }
        }
    }
    if targets.is_empty() || targets.contains("all") {
        for t in [
            "table1", "table2", "table3", "table4", "table5", "fig5", "fig6", "fig7", "regime",
        ] {
            targets.insert(t.to_string());
        }
        targets.remove("all");
    }

    let mut cfg = match scale.as_str() {
        "quick" => ReproConfig::quick(),
        "paper" => ReproConfig::paper_scaled(),
        "full" => ReproConfig::full(),
        other => {
            eprintln!("unknown scale `{other}` (quick|paper|full)");
            std::process::exit(2);
        }
    };
    cfg.parallelism = match jobs {
        None | Some(0) => Parallelism::Auto,
        Some(1) => Parallelism::Serial,
        Some(n) => Parallelism::Threads(n),
    };

    eprintln!(
        "== workload: Viterbi decoder K={} ({} states, {} banks) ==",
        cfg.viterbi.constraint_len,
        cfg.viterbi.states(),
        cfg.viterbi.banks()
    );
    let t0 = Instant::now();
    let wl = build_workload(&cfg);
    eprintln!(
        "   {} gates, {} nets, {} module instances (paper: 388 modules, ~1.2M gates) \
         [generated+elaborated in {:.2?}]",
        wl.stats.gates,
        wl.stats.nets,
        wl.stats.instances,
        t0.elapsed()
    );
    eprintln!(
        "   presim vectors: {}  full vectors: {}  k: {:?}  b: {:?}",
        cfg.presim_vectors, cfg.full_vectors, cfg.ks, cfg.bs
    );

    let t0 = Instant::now();
    let data = compute_grid(&wl, &cfg);
    eprintln!(
        "   grid of {} (k, b) points computed in {:.2?}\n",
        data.grid.len(),
        t0.elapsed()
    );

    let tables: RefCell<Vec<(String, Json)>> = RefCell::new(Vec::new());
    let emit = |name: &str, title: &str, table: dvs_core::report::Table| {
        println!("== {title} ==");
        println!("{}", table.render());
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, table.to_csv()).expect("write csv");
            eprintln!("   wrote {path}");
        }
        if artifact_path.is_some() {
            tables
                .borrow_mut()
                .push((name.to_string(), table.to_json()));
        }
    };

    if targets.contains("table1") {
        emit(
            "table1",
            "Table 1: cut-size with design-driven partitioning algorithm",
            table1(&data),
        );
    }
    if targets.contains("table2") {
        emit(
            "table2",
            "Table 2: cut-size with hMetis partitioning algorithm",
            table2(&data),
        );
    }
    if targets.contains("table3") {
        println!(
            "(sequential pre-simulation time: {:.2} s; paper: 38.93 s)\n",
            data.seq_presim_seconds
        );
        emit(
            "table3",
            "Table 3: pre-simulation time with design-driven partitioning algorithm",
            table3(&data),
        );
    }
    if targets.contains("table4") {
        emit(
            "table4",
            "Table 4: best partition produced by design-driven partitioning algorithm",
            table4(&data),
        );
    }
    // One full-length simulation serves Table 5, Figure 5 and the headline.
    let t0 = Instant::now();
    let full = full_runs(&wl, &data);
    eprintln!(
        "   {} full-length runs modeled from one {}-vector pass in {:.2?}\n",
        full.by_k.len() + 1,
        cfg.full_vectors,
        t0.elapsed()
    );
    if targets.contains("table5") {
        emit(
            "table5",
            "Table 5: simulation time with design-driven partitioning algorithm (full run)",
            table5(&data, &full),
        );
    }
    if targets.contains("fig5") {
        emit("fig5", "Figure 5: simulation time vs machines", fig5(&full));
    }
    if targets.contains("fig6") {
        emit(
            "fig6",
            "Figure 6: message number during pre-simulation",
            fig6(&data),
        );
    }
    if targets.contains("regime") {
        emit(
            "regime",
            "Supplementary: partitioner regimes (trellis vs modular interconnect)",
            regime_table(&cfg),
        );
    }
    if targets.contains("fig7") {
        emit(
            "fig7",
            "Figure 7: rollback number during pre-simulation",
            fig7(&data),
        );
    }

    let h = headline(&data, &full);
    println!("== Headline (paper §5) ==");
    println!(
        "cut ratio hMetis/design-driven (geomean) : {:.2}x  (paper reports 4.5x)",
        h.cut_ratio_vs_hmetis
    );
    println!(
        "partitioning time ratio hMetis/dd        : {:.0}x",
        h.time_ratio_vs_hmetis
    );
    println!(
        "best full-run speedup                    : {:.2} at k={} b={} (paper: 1.91 at k=4 b=7.5)",
        h.best_full_speedup, h.best_k, h.best_b
    );

    if let Some(path) = &artifact_path {
        let artifact = ObjBuilder::new()
            .int("schema_version", SCHEMA_VERSION)
            .str("kind", "repro_artifact")
            .str("scale", &scale)
            .field("design", wl.stats.to_json())
            .field("tables", Json::Object(tables.into_inner()))
            .field(
                "headline",
                ObjBuilder::new()
                    .float("cut_ratio_vs_hmetis", h.cut_ratio_vs_hmetis)
                    .float("time_ratio_vs_hmetis", h.time_ratio_vs_hmetis)
                    .float("best_full_speedup", h.best_full_speedup)
                    .uint("best_k", h.best_k as u64)
                    .float("best_b", h.best_b)
                    .build(),
            )
            .build();
        let text = artifact.emit_pretty().expect("serialize repro artifact");
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create artifact dir");
            }
        }
        std::fs::write(path, text).expect("write artifact");
        eprintln!("   wrote {path}");
    }
}
