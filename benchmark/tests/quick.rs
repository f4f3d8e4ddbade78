//! One `--quick` end-to-end pass of every workload through the built
//! binaries, untraced and traced: the plumbing works, every output checks,
//! and the result line has the shape `BENCHMARK.json` promises.

use dvs_json::Json;
use std::path::Path;
use std::process::Command;

/// The benchmark runs from the root of the checkout.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dvs-benchmark"))
        .current_dir(ROOT)
        .args(args)
        .output()
        .expect("the harness starts")
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.field(key)
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|m| {
            let text = |k| m.field(k).unwrap().as_str().unwrap().to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn quick_pass_of_every_workload_untraced_and_traced() {
    let manifest = std::fs::read_to_string(Path::new(ROOT).join("BENCHMARK.json")).unwrap();
    let manifest = Json::parse(&manifest).unwrap();
    let workloads = manifest.field("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), 4);
    for workload in workloads {
        let name = workload.field("name").unwrap().as_str().unwrap();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bench(&[
                "--workload",
                name,
                "--seed",
                "7",
                "--trace",
                trace,
                "--quick",
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{name} trace {trace}: {stderr}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
            assert!(
                result.field("correct").unwrap().as_bool().unwrap(),
                "{stderr}"
            );
            assert!(result.field("attempted").unwrap().as_u64().unwrap() >= 1);
            assert_eq!(result.field("failed").unwrap().as_u64().unwrap(), 0);

            let metrics = result.field("metrics").unwrap().as_object().unwrap();
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, m)| (k.clone(), m.field("unit").unwrap().as_str().unwrap().into()))
                .collect();
            assert_eq!(got, listed(&manifest, key), "{name} trace {trace}");
            for (metric, m) in metrics {
                let value = m.field("value").unwrap().as_f64().unwrap();
                assert!(value.is_finite(), "{name} {metric}");
                if trace == "0" {
                    assert!(value > 0.0, "{name} {metric} = {value}");
                }
            }
            if trace == "1" {
                let path = Path::new(ROOT).join(format!("benchmark/out/trace_{name}.json"));
                let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
                assert!(!doc
                    .field("traceEvents")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .is_empty());
            }
        }
    }
}

#[test]
fn bad_command_lines_exit_2_without_a_result() {
    for args in [
        &["--frobnicate"][..],
        &["--workload", "nope"],
        &["--trace", "yes"],
        &["--compare", "missing_a.jsonl", "missing_b.jsonl"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
