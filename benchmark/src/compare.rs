//! `--compare A.jsonl B.jsonl`: two sets of runs, row by row.
//!
//! Each file holds the run records a set of runs appended to
//! `benchmark/out/runs.jsonl`. For every (workload, metric) both sets
//! measured, print both medians and quartiles, how much worse B's median is
//! than A's, the bound, and a verdict. Exact counts compare by equality,
//! seed by seed.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, PER_LAYER_BOUND};
use crate::stats::{quartiles, relative_worsening, verdict, Verdict};
use crate::workloads::NAMES;
use dvs_json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// (workload, metric) → the (seed, value) of every run that measured it.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn read_runs(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |e: dvs_json::JsonError| format!("{}:{}: {e}", path.display(), i + 1);
        let record = Json::parse(line).map_err(at)?;
        let mut read = || -> Result<(), dvs_json::JsonError> {
            let workload = record.field("workload")?.as_str()?;
            let seed = record.field("seed")?.as_u64()?;
            let metrics = record.field("result")?.field("metrics")?.as_object()?;
            for (name, m) in metrics {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push((seed, m.field("value")?.as_f64()?));
            }
            Ok(())
        };
        read().map_err(at)?;
    }
    Ok(runs)
}

/// Exact counts: every seed both sets ran must read the same.
fn exact_verdict(a: &[(u64, f64)], b: &[(u64, f64)], m: &MetricDef) -> Verdict {
    let by_seed: BTreeMap<u64, f64> = a.iter().copied().collect();
    let shared: Vec<(f64, f64)> = b
        .iter()
        .filter_map(|(seed, vb)| by_seed.get(seed).map(|va| (*va, *vb)))
        .collect();
    if shared.is_empty() {
        return Verdict::Unresolved;
    }
    if shared.iter().all(|(va, vb)| va == vb) {
        return Verdict::Unchanged;
    }
    let values = |runs: &[(u64, f64)]| runs.iter().map(|r| r.1).collect::<Vec<_>>();
    if relative_worsening(&values(a), &values(b), m.better) > 0.0 {
        Verdict::Regressed
    } else {
        Verdict::Improved
    }
}

pub fn compare_files(a: &Path, b: &Path) -> Result<String, String> {
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    let mut out = String::new();
    writeln!(
        out,
        "{:<20} {:<44} {:<8} {:>3} {:>13} {:>13} {:>13} {:>3} {:>13} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "nA", "A q1", "A median", "A q3", "nB", "B q1", "B median",
        "B q3", "worse%", "bound"
    )
    .expect("writing to a string");
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for workload in NAMES {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(ra), Some(rb)) = (runs_a.get(&key), runs_b.get(&key)) else {
                continue;
            };
            let va: Vec<f64> = ra.iter().map(|r| r.1).collect();
            let vb: Vec<f64> = rb.iter().map(|r| r.1).collect();
            // A layer the workload does not exercise reads 0 on both sides.
            if va.iter().chain(&vb).all(|v| *v == 0.0) {
                continue;
            }
            let bound = m.bound.unwrap_or(PER_LAYER_BOUND);
            let (v, bound_text) = if m.exact {
                (exact_verdict(ra, rb, m), "exact".to_string())
            } else {
                (verdict(&va, &vb, m.better, bound), format!("{bound:.2}"))
            };
            *counts.entry(v.name()).or_default() += 1;
            let (a1, a2, a3) = quartiles(&va);
            let (b1, b2, b3) = quartiles(&vb);
            writeln!(
                out,
                "{:<20} {:<44} {:<8} {:>3} {:>13.6e} {:>13.6e} {:>13.6e} {:>3} {:>13.6e} {:>13.6e} {:>13.6e} {:>+8.2} {:>6}  {}",
                workload,
                m.name,
                m.unit,
                va.len(),
                a1,
                a2,
                a3,
                vb.len(),
                b1,
                b2,
                b3,
                100.0 * relative_worsening(&va, &vb, m.better),
                bound_text,
                v.name()
            )
            .expect("writing to a string");
        }
    }
    let summary: Vec<String> = counts.iter().map(|(v, n)| format!("{n} {v}")).collect();
    writeln!(out, "rows: {}", summary.join(", ")).expect("writing to a string");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_compare_by_equality_per_seed() {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == "sim.seq.events")
            .unwrap();
        assert!(m.exact);
        let a = [(1, 100.0), (2, 200.0)];
        assert_eq!(
            exact_verdict(&a, &[(2, 200.0), (1, 100.0)], m),
            Verdict::Unchanged
        );
        assert_eq!(
            exact_verdict(&a, &[(1, 100.0), (2, 201.0)], m),
            Verdict::Regressed
        );
        assert_eq!(
            exact_verdict(&a, &[(1, 99.0), (2, 200.0)], m),
            Verdict::Improved
        );
        assert_eq!(exact_verdict(&a, &[(3, 100.0)], m), Verdict::Unresolved);
    }

    #[test]
    fn two_files_of_records_make_one_row_per_shared_metric() {
        let dir =
            std::env::temp_dir().join(format!("dvs-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let record = |seed: u64, rate: f64, events: u64| {
            format!(
                "{{\"workload\":\"decoder_12k_threads\",\"seed\":{seed},\"trace\":false,\"result\":\
                 {{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{{\
                 \"seq_events_per_s\":{{\"value\":{rate:?},\"unit\":\"events/s\"}},\
                 \"sim.seq.events\":{{\"value\":{events}.0,\"unit\":\"count\"}},\
                 \"hmetis.partition_s\":{{\"value\":0.0,\"unit\":\"s\"}}}}}}}}\n"
            )
        };
        let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
        let set = |rate: f64| -> String {
            (1..=5)
                .map(|seed| record(seed, rate + seed as f64, 5 + seed))
                .collect()
        };
        std::fs::write(&a, set(100.0)).unwrap();
        std::fs::write(&b, set(50.0)).unwrap();
        let table = compare_files(&a, &b).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 4, "{table}");
        assert!(rows[1].contains("seq_events_per_s") && rows[1].ends_with("regressed"));
        assert!(rows[2].contains("sim.seq.events") && rows[2].ends_with("unchanged"));
        assert!(!table.contains("hmetis"), "unexercised layers are skipped");
        assert_eq!(rows[3], "rows: 1 regressed, 1 unchanged");
        assert!(compare_files(&a, Path::new("/nonexistent.jsonl")).is_err());
    }
}
