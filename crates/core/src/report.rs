//! Fixed-width text tables for the reproduction harness.
//!
//! The `repro` binary prints the paper's tables in the same row/column
//! layout; this tiny renderer keeps that output aligned and greppable, and
//! offers CSV for downstream plotting.

use std::fmt::Write as _;

/// A simple right-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatches header"
        );
        self.rows.push(cells);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                write!(out, "{c:>width$}", width = widths[i]).unwrap();
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// JSON view — `{"headers": [...], "rows": [[...], ...]}`. Cells stay
    /// strings, exactly as rendered, so the artifact mirrors the printed
    /// table.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let str_row =
            |cells: &[String]| Json::Array(cells.iter().map(|c| Json::Str(c.clone())).collect());
        Json::Object(vec![
            ("headers".to_string(), str_row(&self.headers)),
            (
                "rows".to_string(),
                Json::Array(self.rows.iter().map(|r| str_row(r)).collect()),
            ),
        ])
    }

    /// Render as CSV (no quoting — cells are numeric or simple words).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Render a flow's per-stage metrics as a two-column table: one row per
/// stage wall time, then the work counters. Host measurements, so the
/// values differ between runs and thread counts — the table is for humans
/// profiling the reproduction, not for comparisons.
pub fn metrics_table(m: &crate::pipeline::FlowMetrics) -> Table {
    let mut t = Table::new(vec!["stage", "value"]);
    t.row(vec![
        "parse+elaborate (s)".to_string(),
        format!("{:.4}", m.parse_elaborate_seconds),
    ]);
    t.row(vec![
        "cone partition (s)".to_string(),
        format!("{:.4}", m.cone_partition_seconds),
    ]);
    t.row(vec![
        "pairwise refine (s)".to_string(),
        format!("{:.4}", m.pairwise_refine_seconds),
    ]);
    for pc in &m.point_costs {
        t.row(vec![
            format!("presim k={} b={} (s)", pc.k, pc.b),
            format!("{:.4}", pc.seconds),
        ]);
    }
    t.row(vec![
        "(k, b) search wall (s)".to_string(),
        format!("{:.4}", m.search_seconds),
    ]);
    t.row(vec![
        "full run (s)".to_string(),
        format!("{:.4}", m.full_run_seconds),
    ]);
    t.row(vec![
        "total (s)".to_string(),
        format!("{:.4}", m.total_seconds),
    ]);
    t.row(vec![
        "flatten events".to_string(),
        m.flatten_events.to_string(),
    ]);
    t.row(vec!["FM passes".to_string(), m.fm_passes.to_string()]);
    t.row(vec!["presim runs".to_string(), m.presim_runs.to_string()]);
    t.row(vec![
        "profiling passes".to_string(),
        m.profile_passes.to_string(),
    ]);
    t.row(vec![
        "search workers".to_string(),
        m.search_workers.to_string(),
    ]);
    t
}

/// Format seconds like the paper's tables (two decimals).
pub fn secs(s: f64) -> String {
    format!("{s:.2}")
}

/// Format a speedup (two decimals).
pub fn speedup(s: f64) -> String {
    format!("{s:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["k", "b", "cut"]);
        t.row(vec!["2", "7.5", "905"]);
        t.row(vec!["10", "12.5", "5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows share the same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[2].contains("905"));
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn json_output_mirrors_the_table() {
        let mut t = Table::new(vec!["k", "cut"]);
        t.row(vec!["2", "905"]);
        let text = t.to_json().emit().unwrap();
        assert_eq!(text, r#"{"headers":["k","cut"],"rows":[["2","905"]]}"#);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1"]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(secs(38.9321), "38.93");
        assert_eq!(speedup(1.957), "1.96");
    }

    #[test]
    fn metrics_table_lists_every_stage_and_counter() {
        let m = crate::pipeline::FlowMetrics {
            point_costs: vec![crate::pipeline::PointCost {
                k: 2,
                b: 7.5,
                seconds: 0.25,
            }],
            flatten_events: 3,
            fm_passes: 17,
            presim_runs: 1,
            search_workers: 4,
            ..Default::default()
        };
        let s = metrics_table(&m).render();
        for needle in [
            "parse+elaborate",
            "cone partition",
            "pairwise refine",
            "presim k=2 b=7.5",
            "full run",
            "flatten events",
            "FM passes",
            "profiling passes",
            "search workers",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }
}
