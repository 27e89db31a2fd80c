//! One report shape for every harness mode: rows, claims, one writer.
//!
//! A bench report is a list of [`Row`]s (one measured number per arm and
//! metric) and a list of [`Claim`]s (one named predicate each, stated
//! once, next to the report struct it reads). [`emit`] is the only code
//! that prints, writes or judges them: it prints one table, writes
//! `BENCH_<mode>.jsonl` in the benchmark spine's row shape — so
//! `benchmarks/run.sh compare` can load it and every number says whether
//! it is wall-clock, modeled or a count — and returns whether every
//! gating claim held. The file is written before the verdict, so a
//! failing run leaves its full report behind.

use std::fmt::{Debug, Write as _};
use std::path::Path;
use std::time::Duration;

/// What kind of number a row holds (ROADMAP aim 1's real/modeled tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Host CPU time actually spent.
    Real,
    /// Service time charged by a cost model without being slept.
    Modeled,
    /// Wall clock, modeled sleeps included.
    Wall,
    /// An exact counter, or a ratio of counters.
    Count,
}

/// One measured number of one arm of the A/B (`retry`, `weak.r16.hier`).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The arm, unique within the report.
    pub arm: String,
    /// Metric name.
    pub metric: &'static str,
    /// Unit of `value` (`ms`, `B`, `count`, `ratio`).
    pub unit: &'static str,
    /// Whether `value` was measured, modeled or counted.
    pub label: Label,
    /// The number.
    pub value: f64,
}

impl Row {
    /// One row.
    pub fn new(arm: &str, metric: &'static str, unit: &'static str, label: Label, v: f64) -> Row {
        Row { arm: arm.to_string(), metric, unit, label, value: v }
    }

    /// Exact counters of one arm, unit `count`.
    pub fn counts(arm: &str, counters: &[(&'static str, u64)]) -> Vec<Row> {
        counters.iter().map(|&(m, v)| Row::new(arm, m, "count", Label::Count, v as f64)).collect()
    }

    /// A duration in milliseconds.
    pub fn ms(arm: &str, metric: &'static str, label: Label, d: Duration) -> Row {
        Row::new(arm, metric, "ms", label, d.as_secs_f64() * 1e3)
    }
}

/// One named predicate over a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Unique within the report.
    pub name: String,
    /// Whether it held on this run.
    pub holds: bool,
    /// A failed gating claim fails the run; a failed non-gating claim
    /// only warns (it depends on how the OS scheduled the run).
    pub gates: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Claim {
    /// A claim whose failure fails the run.
    pub fn gate(name: impl Into<String>, holds: bool, detail: impl Into<String>) -> Claim {
        Claim { name: name.into(), holds, gates: true, detail: detail.into() }
    }

    /// The gating claim `got == want`.
    pub fn eq(name: &str, got: u64, want: u64) -> Claim {
        Claim::gate(name, got == want, format!("{got} (want {want})"))
    }

    /// The gating claim `a < b`.
    pub fn lt<T: PartialOrd + Debug>(name: &str, a: T, b: T) -> Claim {
        Claim::gate(name, a < b, format!("{a:.3?} < {b:.3?}"))
    }

    /// The gating claim that none of a list of offenders exists.
    pub fn none(name: &str, offenders: Vec<String>) -> Claim {
        Claim::gate(name, offenders.is_empty(), format!("offenders: {offenders:?}"))
    }

    /// A claim whose failure only warns.
    pub fn warn(name: impl Into<String>, holds: bool, detail: impl Into<String>) -> Claim {
        Claim { gates: false, ..Claim::gate(name, holds, detail) }
    }
}

/// What every harness mode's report struct implements.
pub trait Report {
    /// `harness <mode>` writes `BENCH_<mode>.jsonl`.
    fn mode(&self) -> &'static str;
    /// The run's configuration (its `Debug` rendering), written on every line.
    fn config(&self) -> String;
    /// Every measured number.
    fn rows(&self) -> Vec<Row>;
    /// Every predicate the run is judged by, each defined here only.
    fn claims(&self) -> Vec<Claim>;
}

/// `s` inside the spine's name alphabet `[A-Za-z0-9_.-]`.
fn spine_name(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() || "_.-".contains(c) { c } else { '_' })
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

fn git_sha() -> String {
    let git = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output();
    match git {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// The report as JSON Lines: one object per row, then one per claim
/// (`label: claim`, value 1 or 0, plus `gates` and `detail`). JSON has
/// no NaN or infinity: a non-finite value is written `null`.
fn to_jsonl(report: &dyn Report, git_sha: &str) -> String {
    let mode = report.mode();
    let tail = format!(
        ", \"config\": {}, \"git_sha\": {}}}\n",
        json_str(&report.config()),
        json_str(git_sha)
    );
    let mut out = String::new();
    let mut line = |arm: &str, metric: &str, unit: &str, label: &str, value: f64, extra: &str| {
        let value = if value.is_finite() { value.to_string() } else { "null".to_string() };
        out += &format!(
            "{{\"workload\": \"{mode}.{}\", \"layer\": \"harness\", \"metric\": \"{}\", \
             \"unit\": \"{unit}\", \"label\": \"{label}\", \"value\": {value}{extra}{tail}",
            spine_name(arm),
            spine_name(metric),
        );
    };
    for r in report.rows() {
        line(&r.arm, r.metric, r.unit, &format!("{:?}", r.label).to_lowercase(), r.value, "");
    }
    for c in report.claims() {
        let extra = format!(", \"gates\": {}, \"detail\": {}", c.gates, json_str(&c.detail));
        line("claims", &c.name, "bool", "claim", c.holds as u8 as f64, &extra);
    }
    out
}

/// Arms down, metrics across, in first-seen order; then one line per claim.
fn table(report: &dyn Report) -> String {
    let mut rows = report.rows();
    rows.iter_mut().for_each(|r| r.arm = spine_name(&r.arm));
    let (mut arms, mut metrics): (Vec<&str>, Vec<&str>) = (Vec::new(), Vec::new());
    for r in &rows {
        if !arms.contains(&r.arm.as_str()) {
            arms.push(&r.arm);
        }
        if !metrics.contains(&r.metric) {
            metrics.push(r.metric);
        }
    }
    let cell = |arm: &str, metric: &str| -> String {
        match rows.iter().find(|r| r.arm == arm && r.metric == metric) {
            Some(r) if r.value.fract() == 0.0 && r.value.abs() < 1e15 => format!("{:.0}", r.value),
            Some(r) => format!("{:.3}", r.value),
            None => "-".to_string(),
        }
    };
    let arm_w = arms.iter().map(|a| a.len()).max().unwrap_or(0).max(3);
    let mut out = format!("  {:<arm_w$}", "arm");
    for m in &metrics {
        write!(out, "  {m:>10}").expect("write to String");
    }
    for a in &arms {
        write!(out, "\n  {a:<arm_w$}").expect("write to String");
        for m in &metrics {
            write!(out, "  {:>w$}", cell(a, m), w = m.len().max(10)).expect("write to String");
        }
    }
    for c in report.claims() {
        let verdict = match (c.holds, c.gates) {
            (true, _) => "PASS",
            (false, true) => "FAIL",
            (false, false) => "WARN",
        };
        write!(out, "\n  {verdict} {} {}", spine_name(&c.name), c.detail).expect("write to String");
    }
    out + "\n"
}

/// Write `text` to `out_dir/name`, creating the directory. `Err` is the
/// first failure, naming the path it happened on.
pub fn write_text(out_dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let path = out_dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Print the report, write `BENCH_<mode>.jsonl` under `out_dir`, then
/// judge it: `Ok(true)` iff every gating claim held. The file is complete
/// either way; `Err` is [`write_text`]'s.
pub fn emit(report: &dyn Report, out_dir: &Path) -> Result<bool, String> {
    println!("\nharness {}: {}", report.mode(), report.config());
    print!("{}", table(report));
    let name = format!("BENCH_{}.jsonl", report.mode());
    write_text(out_dir, &name, &to_jsonl(report, &git_sha()))?;
    let failed = report.claims().iter().filter(|c| c.gates && !c.holds).count();
    println!("  {}: {failed} gating claims failed", if failed == 0 { "PASS" } else { "FAIL" });
    Ok(failed == 0)
}

/// Panic unless each of `names` is a claim of `report` that holds —
/// what the lib tests assert, through the function the binary gates on.
#[cfg(test)]
pub(crate) fn assert_claims(report: &dyn Report, names: &[&str]) {
    let claims = report.claims();
    for name in names {
        let c = claims.iter().find(|c| c.name == *name);
        let c = c.unwrap_or_else(|| panic!("{}: no claim '{name}'", report.mode()));
        assert!(c.holds, "{}: {}", c.name, c.detail);
    }
}

/// Panic unless every gating claim of `report` holds.
#[cfg(test)]
pub(crate) fn assert_gates(report: &dyn Report) {
    for c in report.claims().iter().filter(|c| c.gates) {
        assert!(c.holds, "{}: {}", c.name, c.detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixture {
        holds: bool,
    }

    impl Report for Fixture {
        fn mode(&self) -> &'static str {
            "fixture"
        }
        fn config(&self) -> String {
            "Fixture { seed: 7 }".to_string()
        }
        fn rows(&self) -> Vec<Row> {
            let mut rows = Row::counts("dag/deep", &[("steals", 3), ("tasks", 40)]);
            rows.push(Row::new("dag/deep", "insitu_ms", "ms", Label::Wall, 1.25));
            rows.push(Row::new("flat", "comm_ms", "ms", Label::Modeled, f64::NAN));
            rows
        }
        fn claims(&self) -> Vec<Claim> {
            vec![
                Claim::gate("bit_identical", self.holds, "a \"quoted\" \\ detail"),
                Claim::warn("cow_reduction_ge_70pct", false, "62.0%"),
            ]
        }
    }

    /// The raw text of `key`'s value on one written line.
    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let start = line.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("{key}: {line}"));
        let rest = &line[start + key.len() + 4..];
        let mut escaped = false;
        let closes = |c: char| {
            let close = c == '"' && !escaped;
            escaped = c == '\\' && !escaped;
            close
        };
        match rest.strip_prefix('"') {
            Some(text) => &rest[..text.find(closes).expect("closing quote") + 2],
            None => &rest[..rest.find([',', '}']).expect("value end")],
        }
    }

    /// Emit `report` into a fresh directory; the verdict and the file.
    fn emitted(report: &Fixture, name: &str) -> (Result<bool, String>, String) {
        let dir = std::env::temp_dir().join(format!("bench_report_{name}_{}", std::process::id()));
        let verdict = emit(report, &dir);
        let text = std::fs::read_to_string(dir.join("BENCH_fixture.jsonl")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (verdict, text)
    }

    #[test]
    fn rows_and_claims_round_trip_through_the_file() {
        let report = Fixture { holds: true };
        let (verdict, text) = emitted(&report, "round_trip");
        assert_eq!(verdict, Ok(true), "a failed warning alone does not fail the run");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), report.rows().len() + report.claims().len());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "one object per line: {line}");
            assert_eq!(field(line, "layer"), "\"harness\"");
            assert_eq!(field(line, "config"), "\"Fixture { seed: 7 }\"");
            assert!(field(line, "git_sha").len() > 2 && field(line, "unit").len() > 2);
            let name = field(line, "workload").trim_matches('"');
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        for (line, row) in lines.iter().zip(report.rows()) {
            assert_eq!(field(line, "workload"), format!("\"fixture.{}\"", spine_name(&row.arm)));
            assert_eq!(field(line, "metric"), format!("\"{}\"", row.metric));
            match field(line, "value") {
                "null" => assert!(row.value.is_nan()),
                v => assert_eq!(v.parse::<f64>().unwrap(), row.value),
            }
        }
        assert_eq!(field(lines[0], "workload"), "\"fixture.dag_deep\"", "inside the alphabet");
        assert_eq!(
            (field(lines[2], "label"), field(lines[3], "label")),
            ("\"wall\"", "\"modeled\"")
        );
        let (claim, warning) = (lines[4], lines[5]);
        assert_eq!(field(claim, "workload"), "\"fixture.claims\"");
        assert_eq!(field(claim, "label"), "\"claim\"");
        assert_eq!((field(claim, "value"), field(claim, "gates")), ("1", "true"));
        assert_eq!(field(claim, "detail"), r#""a \"quoted\" \\ detail""#);
        assert_eq!((field(warning, "value"), field(warning, "gates")), ("0", "false"));
    }

    #[test]
    fn a_failed_gate_fails_the_verdict_after_the_whole_file_is_written() {
        let report = Fixture { holds: false };
        let (verdict, text) = emitted(&report, "failed_gate");
        assert_eq!(verdict, Ok(false));
        assert_eq!(text.lines().count(), report.rows().len() + report.claims().len());
        assert_eq!(field(text.lines().nth(4).unwrap(), "value"), "0");
    }

    #[test]
    fn an_unwritable_out_dir_is_an_error_naming_the_path() {
        let file = std::env::temp_dir().join(format!("bench_report_file_{}", std::process::id()));
        std::fs::write(&file, "occupied").unwrap();
        let err = emit(&Fixture { holds: true }, &file.join("out")).unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(err.starts_with(&format!("creating {}: ", file.join("out").display())), "{err}");
    }

    #[test]
    fn the_table_pivots_arms_by_metric_and_lists_every_claim() {
        let text = table(&Fixture { holds: false });
        let cells: Vec<Vec<&str>> = text.lines().map(|l| l.split_whitespace().collect()).collect();
        assert_eq!(cells[0], ["arm", "steals", "tasks", "insitu_ms", "comm_ms"]);
        assert_eq!(cells[1], ["dag_deep", "3", "40", "1.250", "-"]);
        assert_eq!(cells[3][..2], ["FAIL", "bit_identical"]);
        assert_eq!(cells[4][..2], ["WARN", "cow_reduction_ge_70pct"]);
    }

    /// The 19 greps `ci.sh` ran over the old per-mode JSON files, as
    /// (mode, facts): each must be a claim or a row metric of that mode's
    /// report, or deleting the greps lost a check.
    const FACTS_CI_GREPPED: [(&str, &str); 6] = [
        (
            "chaos",
            "retry.faults_recovered_eq_ranks retry.zero_aborted retry.bit_identical_to_baseline \
             skip_step.one_step_skipped skip_step.zero_aborted \
             faults_recovered faults_skipped faults_aborted",
        ),
        (
            "snapshot",
            "deep.never_shares deep.never_faults cow.shares_every_capture cow.eager_copies_nothing \
             cow.bit_identical_to_deep arrays_shared arrays_copied cow_faults",
        ),
        (
            "dag",
            "dag_deep_steals dag_arms_abort_nothing all_arms_bit_identical_to_inline \
             steals faults_aborted",
        ),
        (
            "scale",
            "bit_identical_every_point hier_fewer_inter_messages fused_one_allreduce_per_step \
             tier_counters_populated",
        ),
        (
            "adaptive",
            "converged_within_tolerance drift_adaptive_beats_all_statics all_bit_identical \
             zero_aborts aborted",
        ),
        (
            "serve",
            "flat_bytes_across_sessions zero_fast_drops results_identical_across_arms \
             steering_bit_identical steers_applied",
        ),
    ];

    #[test]
    fn every_fact_ci_grepped_is_a_claim_or_row_of_its_report() {
        let _serial = crate::serial();
        let (steps, resolution, instances, time_scale) = (2, 8, 2, 0.0);
        let reports: Vec<Box<dyn Report>> = vec![
            Box::new(crate::run_chaos(&crate::ChaosConfig {
                num_devices: 2,
                bodies: 64,
                ..Default::default()
            })),
            Box::new(crate::run_snapshot_bench(&crate::SnapshotBenchConfig {
                bodies: 64,
                steps,
                resolution,
                instances,
                time_scale,
            })),
            Box::new(crate::run_dag_bench(&crate::DagBenchConfig {
                rows: 500,
                steps,
                time_scale,
                ..Default::default()
            })),
            Box::new(crate::run_scale_bench(&crate::ScaleBenchConfig {
                rank_counts: vec![2, 4],
                ranks_per_node: 2,
                resolution,
                ..Default::default()
            })),
            Box::new(crate::run_adaptive_bench(&crate::AdaptiveBenchConfig {
                steady_steps: 3,
                drift_steps: 3,
                drift_at: 1,
                time_scale,
                ..Default::default()
            })),
            Box::new(crate::run_serve_bench(&crate::ServeBenchConfig {
                bodies: 64,
                session_counts: vec![4],
                ..Default::default()
            })),
        ];
        for (report, (mode, facts)) in reports.iter().zip(FACTS_CI_GREPPED) {
            assert_eq!(report.mode(), mode);
            let (claims, rows) = (report.claims(), report.rows());
            for fact in facts.split_whitespace() {
                assert!(
                    claims.iter().any(|c| c.name == fact) || rows.iter().any(|r| r.metric == fact),
                    "{mode}: '{fact}' is neither a claim nor a row"
                );
            }
            // Every timing is tagged wall or modeled, every counter count.
            for r in rows.iter().filter(|r| r.unit != "ratio") {
                let timing = ["s", "ms", "us"].contains(&r.unit);
                assert_eq!(timing, r.label != Label::Count, "{mode}: {r:?}");
            }
        }
    }
}
