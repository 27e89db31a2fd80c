//! `spine compare A B`: the regression rule applied to two sets of rows.
//!
//! For every workload × end-to-end metric it prints each side's median
//! and quartiles, the change of the median, the metric's bound and a
//! verdict: `ok`, `worse` (B's median is worse than A's by more than the
//! bound) or `unresolved` (a side's own spread exceeds the bound, so the
//! runs cannot tell). All end-to-end metrics are lower-is-better.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::metrics;
use crate::stats::{median, quartiles, spread};

/// One `rows.jsonl` row, reduced to what comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub layer: String,
    pub value: f64,
}

impl Row {
    /// Read a row back from its JSON object.
    pub fn from_json(v: &Json) -> Option<Row> {
        Some(Row {
            workload: v.get("workload")?.as_str()?.to_string(),
            metric: v.get("metric")?.as_str()?.to_string(),
            layer: v.get("layer")?.as_str()?.to_string(),
            value: v.get("value")?.as_f64()?,
        })
    }
}

/// Load the rows of `path` (a `rows.jsonl` file, or a directory holding
/// one).
pub fn load_rows(path: &Path) -> Result<Vec<Row>, String> {
    let file = if path.is_dir() { path.join("rows.jsonl") } else { path.to_path_buf() };
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = Json::parse(line).map_err(|e| format!("{}:{}: {e}", file.display(), i + 1))?;
            Row::from_json(&v)
                .ok_or_else(|| format!("{}:{}: not a benchmark row", file.display(), i + 1))
        })
        .collect()
}

/// Outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Apply the rule to one pair of samples (lower is better).
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let noisy = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if median(b) > median(a) * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn end_to_end(rows: &[Row]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut groups: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in rows.iter().filter(|r| r.layer == "end_to_end") {
        groups.entry((r.workload.clone(), r.metric.clone())).or_default().push(r.value);
    }
    groups
}

fn quartile_text(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q3)) => format!("[{q1:.4}, {q3:.4}]"),
        None => "[-, -]".to_string(),
    }
}

/// Print the comparison table; returns how many pairs were `worse`.
/// A pair present on one side only is reported and counted as worse.
pub fn compare(a: &[Row], b: &[Row]) -> usize {
    let (ga, gb) = (end_to_end(a), end_to_end(b));
    println!(
        "{:<26} {:<22} {:>12} {:<22} {:>12} {:<22} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "delta%",
        "bound%"
    );
    let mut worse = 0;
    for (key, va) in &ga {
        let Some(vb) = gb.get(key) else {
            println!("{:<26} {:<22} missing from B", key.0, key.1);
            worse += 1;
            continue;
        };
        let bound = metrics::bound(&key.1);
        let verdict = judge(va, vb, bound);
        let (ma, mb) = (median(va), median(vb));
        println!(
            "{:<26} {:<22} {:>12.4} {:<22} {:>12.4} {:<22} {:>+8.2} {:>6.1}  {}",
            key.0,
            key.1,
            ma,
            quartile_text(va),
            mb,
            quartile_text(vb),
            (mb - ma) / ma * 100.0,
            bound * 100.0,
            verdict.name()
        );
        if verdict == Verdict::Worse {
            worse += 1;
        }
    }
    for key in gb.keys().filter(|k| !ga.contains_key(*k)) {
        println!("{:<26} {:<22} missing from A", key.0, key.1);
        worse += 1;
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(judge(&steady, &[10.2, 10.3, 10.1, 10.2], 0.08), Verdict::Ok);
        assert_eq!(judge(&steady, &[11.5, 11.6, 11.4, 11.5], 0.08), Verdict::Worse);
        // Faster is never worse.
        assert_eq!(judge(&steady, &[5.0, 5.1, 4.9, 5.0], 0.08), Verdict::Ok);
        // A side noisier than the bound cannot resolve a change.
        assert_eq!(
            judge(&[8.0, 10.0, 12.0, 14.0], &[20.0, 20.0, 20.0, 20.0], 0.08),
            Verdict::Unresolved
        );
        // Single samples have no spread: judged on the medians alone.
        assert_eq!(judge(&[10.0], &[10.5], 0.08), Verdict::Ok);
        assert_eq!(judge(&[10.0], &[11.0], 0.08), Verdict::Worse);
    }

    #[test]
    fn rows_round_trip_and_only_end_to_end_rows_are_compared() {
        let line = r#"{"workload": "w", "metric": "run_ms_per_step", "layer": "end_to_end", "value": 2.5, "unit": "ms"}"#;
        let row = Row::from_json(&Json::parse(line).unwrap()).unwrap();
        assert_eq!(row.value, 2.5);
        let layer = Row {
            layer: "per_layer".into(),
            metric: "devsim.kernels_per_step".into(),
            ..row.clone()
        };
        let slow = Row { value: 9.0, ..row.clone() };
        assert_eq!(compare(&[row.clone(), layer.clone()], &[row.clone(), layer]), 0);
        assert_eq!(compare(std::slice::from_ref(&row), &[slow]), 1);
        assert_eq!(compare(&[row], &[]), 1);
    }
}
