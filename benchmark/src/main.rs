//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! dvs-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--quick]
//! dvs-benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! One run measures one workload (every workload in turn when none is named),
//! checks every output, prints every metric by name with its unit on standard
//! error and, as the last line of standard output, the result object of the
//! benchmark contract. `--trace 1` is a second, separate run that records
//! spans, makes the per-layer probes and reports the per-layer metrics.

mod compare;
mod metrics;
mod stats;
mod trace;
mod workloads;

use dvs_json::{Json, ObjBuilder};
use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::Options;

const USAGE: &str = "usage: dvs-benchmark [--workload NAME] [--seed N] [--seconds N] \
[--trace 0|1] [--quick]\n       dvs-benchmark --compare A.jsonl B.jsonl";

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

/// Where a run leaves its trace files, its run records and the process
/// transport's sockets: `benchmark/out` under the directory it is run from,
/// which is the root of the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

enum Command {
    Run {
        workload: Option<String>,
        opts: Options,
    },
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 2008,
        seconds: DEFAULT_SECONDS,
        quick: false,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}` (one of {})",
                        workloads::NAMES.join(", ")
                    ));
                }
                workload = Some(name.clone());
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {v}: not a number of seconds"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--quick" => opts.quick = true,
            "--compare" => {
                let (a, b) = (value()?.into(), value()?.into());
                return Ok(Command::Compare(a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run { workload, opts })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dvs-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare(a, b) => match compare::compare_files(&a, &b) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("dvs-benchmark: {e}");
                ExitCode::from(2)
            }
        },
        Command::Run { workload, opts } => {
            let names: Vec<&str> = match &workload {
                Some(name) => vec![name.as_str()],
                None => workloads::NAMES.to_vec(),
            };
            let mut failed = 0;
            for name in names {
                failed += run_workload(name, opts);
            }
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Run one workload, print its metrics and result line, leave its files under
/// [`out_dir`]; returns how many of its operations failed.
fn run_workload(name: &str, opts: Options) -> u64 {
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "== {name}: seed {}, {} s, trace {}, {threads} hardware threads{}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.quick {
            ", QUICK (numbers mean nothing)"
        } else {
            ""
        }
    );
    let (outcome, tracer) = workloads::run(name, opts).expect("name was checked");
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    print_metrics(&outcome, defs);
    let result = outcome.result_json(defs);
    if let Err(e) = leave_files(name, opts, &result, &tracer) {
        eprintln!(
            "dvs-benchmark: cannot write under {}: {e}",
            out_dir().display()
        );
    }
    println!("{}", result.emit().expect("measured values are finite"));
    outcome.failed
}

fn print_metrics(outcome: &Outcome, defs: &[MetricDef]) {
    eprintln!("ops {} failed_ops {}", outcome.attempted, outcome.failed);
    for m in defs {
        if let Some(v) = outcome.values.get(m.name) {
            let exact = if m.exact { " *" } else { "" };
            eprintln!("{:<48} {:>16.6} {}{exact}", m.name, v, m.unit);
        }
    }
}

/// Append the run's record to `runs.jsonl` (the input of `--compare`; quick
/// runs leave none, their numbers are never reported) and, for a traced run,
/// write the Chrome trace and print the per-span table.
fn leave_files(name: &str, opts: Options, result: &Json, tracer: &Tracer) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    if opts.trace {
        let text = tracer
            .chrome_trace(name)
            .emit()
            .expect("span times are finite");
        std::fs::write(dir.join(format!("trace_{name}.json")), text)?;
        eprintln!(
            "{:<32} {:>6} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (span, t) in tracer.totals() {
            eprintln!(
                "{span:<32} {:>6} {:>12.6} {:>12.6}",
                t.count, t.total_s, t.self_s
            );
        }
    }
    if !opts.quick {
        let record = ObjBuilder::new()
            .str("workload", name)
            .uint("seed", opts.seed)
            .bool("trace", opts.trace)
            .field("result", result.clone())
            .build();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("runs.jsonl"))?;
        writeln!(
            file,
            "{}",
            record.emit().expect("measured values are finite")
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cmd = parse_args(&args(
            "--workload flow_search --seed 7 --seconds 3 --trace 1",
        ));
        let Ok(Command::Run { workload, opts }) = cmd else {
            panic!("expected a run");
        };
        assert_eq!(workload.as_deref(), Some("flow_search"));
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace, opts.quick),
            (7, 3.0, true, false)
        );
    }

    #[test]
    fn unknown_flags_workloads_and_values_are_refused() {
        for bad in [
            "--frobnicate",
            "--workload nope",
            "--seed x",
            "--seed",
            "--trace 2",
            "--seconds -1",
            "--compare only_one",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
        assert!(matches!(
            parse_args(&args("--compare a b")),
            Ok(Command::Compare(..))
        ));
        assert!(matches!(
            parse_args(&args("--quick")),
            Ok(Command::Run { workload: None, .. })
        ));
    }
}
