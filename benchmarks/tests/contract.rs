//! The benchmark's own contract: `BENCHMARK.json`, the metric registry,
//! what the binary prints, and `README.md` all name the same workloads
//! and metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use spine::compare::load_rows;
use spine::json::Json;
use spine::metrics::{self, MetricDef};
use spine::workloads::WORKLOADS;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing string '{key}'"))
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn benchmark_json_matches_the_registry() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
        "BENCHMARK.json has exactly the contract's keys"
    );
    let paths: Vec<&str> =
        b.get("paths").unwrap().as_arr().unwrap().iter().map(|p| p.as_str().unwrap()).collect();
    assert_eq!(paths, ["benchmarks"], "crates/bench must stay free for later changes");
    assert_eq!(b.get("run_seconds").unwrap().as_f64(), Some(spine::DEFAULT_RUN_SECONDS));

    let workloads = b.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(listed), ["name", "why"]);
        assert_eq!(str_of(listed, "name"), w.name);
        assert_eq!(str_of(listed, "why"), w.why, "one sentence on why {} exists", w.name);
        assert!(well_formed(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }

    let check = |key: &str, defs: Vec<MetricDef>, bounded: bool| {
        let listed = b.get(key).unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), defs.len(), "{key} length");
        for (entry, def) in listed.iter().zip(&defs) {
            assert!(well_formed(&def.name), "{}", def.name);
            assert_eq!(str_of(entry, "name"), def.name);
            assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
            assert_eq!(str_of(entry, "better"), def.better, "{}", def.name);
            if bounded {
                assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
                let bound = entry.get("bound").unwrap().as_f64().unwrap();
                assert_eq!(bound, metrics::bound(&def.name), "{}", def.name);
            } else {
                assert_eq!(keys(entry), ["name", "unit", "better"]);
            }
        }
    };
    check("end_to_end", metrics::end_to_end(), true);
    check("per_layer", metrics::per_layer(), false);
}

#[test]
fn readme_documents_every_workload_and_metric() {
    let readme = std::fs::read_to_string(manifest_dir().join("README.md")).expect("README.md");
    for w in &WORKLOADS {
        assert!(readme.contains(w.name), "README.md does not mention workload {}", w.name);
    }
    for def in metrics::end_to_end().into_iter().chain(metrics::per_layer()) {
        // Per-segment metrics are documented once as a pattern.
        let needle = if def.name.starts_with("seg.") { "seg.<segment>." } else { &def.name };
        assert!(readme.contains(needle), "README.md does not document {}", def.name);
    }
}

/// `spine all --smoke` prints (and writes) every workload × metric name
/// of BENCHMARK.json exactly once, with no failed operation, and the
/// repeatability rule accepts a set compared with itself.
#[test]
fn smoke_run_prints_exactly_the_listed_names() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let _ = std::fs::remove_dir_all(&out);
    let spine = env!("CARGO_BIN_EXE_spine");
    let run = Command::new(spine)
        .args(["all", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("spine runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "spine all --smoke failed:\n{stdout}");

    let b = benchmark_json();
    let listed = |key: &str| -> Vec<String> {
        b.get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| str_of(m, "name").to_string())
            .collect()
    };
    let rows = load_rows(&out).expect("rows.jsonl");
    for w in b.get("workloads").unwrap().as_arr().unwrap() {
        let workload = str_of(w, "name");
        for (layer, key) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
            for r in rows.iter().filter(|r| r.workload == workload && r.layer == layer) {
                assert!(well_formed(&r.metric), "{}", r.metric);
                assert!(r.value.is_finite(), "{workload} {} is not a number", r.metric);
                *seen.entry(&r.metric).or_default() += 1;
            }
            let want = listed(key);
            assert_eq!(seen.len(), want.len(), "{workload} {layer}: metric count");
            for name in &want {
                assert_eq!(seen.get(name.as_str()), Some(&1), "{workload} {layer} {name}");
                // The table the command prints carries the name too.
                assert!(stdout.contains(name.as_str()), "{name} not printed");
            }
        }
        assert!(stdout.contains(workload));
    }
    assert!(!stdout.contains("FAILED") && !stdout.contains("PROBLEM"), "{stdout}");

    let same = Command::new(spine).arg("compare").arg(&out).arg(&out).output().expect("compare");
    assert!(same.status.success(), "{}", String::from_utf8_lossy(&same.stdout));
}
