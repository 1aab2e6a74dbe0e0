//! A seconds-long miniature of every workload, untraced and traced: every
//! output passes the gate (the traced replicas reproduce their drivers bit
//! for bit), and every metric `BENCHMARK.json` names is emitted with its
//! unit — and nothing else.

use std::path::PathBuf;

use perfbench::run::{run, Options, RunOutput};
use perfbench::workload::{Scale, Workload};
use serde_json::Value;

fn catalogue(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Array(entries) = &json[section] else {
        panic!("{section} is not a list");
    };
    entries
        .iter()
        .map(|e| {
            (
                e["name"].as_str().expect("name").to_string(),
                e["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn mini(workload: Workload, trace: bool) -> RunOutput {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("miniature");
    std::fs::create_dir_all(&out_dir).unwrap();
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Mini,
        out_dir,
    };
    let out = run(&opts).expect("miniature input builds");
    assert!(
        out.correct(),
        "{} trace={trace}: {:?}",
        workload.name(),
        out.failures
    );
    assert!(out.attempted >= workload.fixed_calls() as u64);
    out
}

fn value(out: &RunOutput, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, v, _)| v)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn every_workload_is_in_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Value::Array(entries) = &json["workloads"] else {
        panic!("workloads is not a list");
    };
    let names: Vec<&str> = entries.iter().filter_map(|e| e["name"].as_str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let expected = catalogue(section);
        for w in Workload::ALL {
            let out = mini(w, trace);
            let emitted: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|&(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(emitted, expected, "{} {section}", w.name());
            assert!(out.metrics.iter().all(|(_, v, _)| v.is_finite()));
            let line = out.result_line().to_string();
            for (name, unit) in &expected {
                let entry = format!("\"{name}\":{{\"value\":");
                assert!(line.contains(&entry), "{name} not in {line}");
                assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_positive() {
    for w in Workload::ALL {
        let out = mini(w, false);
        for &(name, v, _) in &out.metrics {
            // A miniature input builds within one 10 ms CPU tick.
            if name != "setup_s" {
                assert!(v > 0.0, "{} {name} = {v}", w.name());
            }
        }
        assert_eq!(value(&out, "valid_frac"), 1.0);
    }
}

#[test]
fn layers_report_only_where_they_run() {
    for w in Workload::ALL {
        let out = mini(w, true);
        let paged =
            value(&out, "pagecache.coarsen.misses") + value(&out, "pagecache.refine.misses");
        assert_eq!(paged > 0.0, w == Workload::PagedRgg, "{}", w.name());
        let comm = value(&out, "comm.refine.frames") + value(&out, "comm.coarsen.collectives");
        assert_eq!(comm > 0.0, w == Workload::DistRgg, "{}", w.name());
        if w != Workload::DistRgg {
            assert_eq!(value(&out, "state.full_builds"), 1.0, "{}", w.name());
            assert!(value(&out, "refine.s") > 0.0);
            assert!(value(&out, "coarsen.levels") > 1.0);
        }
    }
}
