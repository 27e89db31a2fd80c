//! Running one workload in this process and shaping its report.
//!
//! With tracing off every segment runs `ROUNDS` rounds under the time
//! budget and the five end-to-end metrics are reported. With tracing on
//! each segment runs twice at the same step count — once untraced, once
//! recording spans — so the per-layer report carries its own tracing
//! overhead, and the probes run afterwards.

use std::collections::BTreeMap;

use crate::calib::REFERENCE_MS;
use crate::json::Json;
use crate::metrics::{self, Agg, MetricDef};
use crate::probes::{self, ProbePlan, ProbeResult};
use crate::segment::{put_span_metrics, run_round, RoundOutcome, StepPlan};
use crate::stats::median;
use crate::trace::{self, Span};
use crate::workloads::{Source, Workload, RANKS};

/// Options of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    /// Wall seconds the timed loops of all segments together should take.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Tiny sizes and step counts: checks the plumbing, measures nothing.
    pub smoke: bool,
}

/// Rounds per segment in an end-to-end run. Every round is a fresh node
/// and world (so a fresh placement of the program's threads on the
/// cores) with its own set-up; rounds of different segments alternate so
/// that a slow spell of the machine lands on all of them. A segment's
/// value is the mean over its rounds, its `setup_s` the median.
const ROUNDS: usize = 3;
/// Share of the time budget each of the two passes of a traced run gets.
const TRACED_PASS_SHARE: f64 = 0.35;
/// Per-segment value (detail JSON and table only) bounding what the span
/// recorder itself cost in the traced round.
const RECORDER_PCT: &str = "trace.recorder_cost_pct";
/// Sizes of a smoke run.
const SMOKE_ROWS: usize = 4096;
const SMOKE_WARMUP: u64 = 2;
const SMOKE_STEPS: u64 = 3;

/// One segment's part of the report.
#[derive(Debug)]
pub struct SegmentReport {
    pub name: &'static str,
    /// Timed steps per rank, over all rounds.
    pub steps: u64,
    /// Samples behind `insitu_apparent_ms` (rank 0's timed steps).
    pub insitu_samples: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    pub values: BTreeMap<String, f64>,
    /// First and last simulation step id of the traced round's timed loop.
    pub step_range: (u64, u64),
    pub spans: Vec<Span>,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct WorkloadReport {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    /// Timed steps × ranks, over all segments, rounds and passes.
    pub attempted: u64,
    pub failed: u64,
    /// Violations found outside the per-operation checks (span tree).
    pub problems: Vec<String>,
    /// The reported metrics, in registry order.
    pub metrics: Vec<(MetricDef, f64)>,
    pub segments: Vec<SegmentReport>,
    pub probes: Vec<ProbeResult>,
}

/// Fold a segment's rounds: mean of every per-step value, median set-up.
fn fold_rounds(name: &'static str, rounds: Vec<RoundOutcome>) -> SegmentReport {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for r in &rounds {
        for (k, v) in &r.values {
            *values.entry(k.clone()).or_default() += v / rounds.len() as f64;
        }
    }
    let setups: Vec<f64> = rounds.iter().map(|r| r.values[metrics::SETUP_S]).collect();
    values.insert(metrics::SETUP_S.into(), median(&setups));
    let steps = rounds.iter().map(|r| r.steps).sum();
    SegmentReport {
        name,
        steps,
        insitu_samples: steps,
        failed: rounds.iter().map(|r| r.failed).sum(),
        messages: rounds.into_iter().flat_map(|r| r.messages).collect(),
        values,
        step_range: (0, 0),
        spans: Vec::new(),
    }
}

/// Run `workload` and fold its segments into the workload's metrics.
pub fn run_workload(workload: &Workload, opts: &RunOptions) -> WorkloadReport {
    let mut w = *workload;
    if opts.smoke {
        w.warmup_steps = SMOKE_WARMUP;
        w.oracle_steps = w.oracle_steps.min(SMOKE_WARMUP);
        w.min_steps = 1;
        if let Source::Rows { .. } = w.source {
            w.source = Source::Rows { rows_per_rank: SMOKE_ROWS };
        }
    }
    let rounds = if opts.trace || opts.smoke { 1 } else { ROUNDS };
    let share = if opts.trace { TRACED_PASS_SHARE } else { 1.0 };
    let round_seconds = opts.seconds * share / (w.segments.len() * rounds) as f64;

    // Untraced rounds, alternating over the segments.
    let mut per_segment: Vec<Vec<RoundOutcome>> = w.segments.iter().map(|_| Vec::new()).collect();
    for _ in 0..rounds {
        for (segment, done) in w.segments.iter().zip(&mut per_segment) {
            let plan = if opts.smoke {
                StepPlan::Fixed(SMOKE_STEPS)
            } else {
                // Later rounds know what a step of this segment costs.
                let step_s = done.last().map(|r: &RoundOutcome| r.timed_s / r.steps as f64);
                StepPlan::Budget { seconds: round_seconds, step_s }
            };
            done.push(run_round(&w, segment, opts.seed, plan, false));
        }
    }
    let mut segments: Vec<SegmentReport> = w
        .segments
        .iter()
        .zip(per_segment)
        .map(|(segment, rounds)| fold_rounds(segment.name, rounds))
        .collect();

    // The traced pass: same seed, same step count, spans on.
    let mut problems = Vec::new();
    if opts.trace {
        let span_cost_ns = trace::span_cost_ns();
        for (segment, report) in w.segments.iter().zip(&mut segments) {
            let traced = run_round(&w, segment, opts.seed, StepPlan::Fixed(report.steps), true);
            report.steps += traced.steps;
            report.failed += traced.failed;
            report.messages.extend(traced.messages);
            report.step_range = (w.warmup_steps + 1, w.warmup_steps + traced.steps);
            match trace::summarize(&traced.spans, report.step_range, RANKS, segment.lockstep()) {
                Ok(summary) => put_span_metrics(
                    &mut report.values,
                    &summary,
                    traced.values[metrics::CALIBRATION_MS],
                ),
                Err(e) => problems.push(format!("{}/{}: {e}", w.name, segment.name)),
            }
            let (plain_run, traced_run) =
                (report.values[metrics::RUN_MS], traced.values[metrics::RUN_MS]);
            report
                .values
                .insert("trace.overhead_pct".into(), (traced_run - plain_run) / plain_run * 100.0);
            // Not a registered metric: the recorder's own cost, as if
            // every span of the round were on the blocking path.
            let recorder_s = traced.spans.len() as f64 * span_cost_ns * 1e-9;
            report.values.insert(RECORDER_PCT.into(), recorder_s / traced.timed_s * 100.0);
            report.spans = traced.spans;
        }
    }
    let attempted = segments.iter().map(|s| s.steps).sum::<u64>() * RANKS as u64;
    let failed = segments.iter().map(|s| s.failed).sum();

    let probes = if opts.trace {
        let rows = match w.source {
            Source::Newton { bodies } => bodies / RANKS,
            Source::Rows { rows_per_rank } => rows_per_rank,
        };
        let plan = if opts.smoke { ProbePlan::SMOKE } else { ProbePlan::FULL };
        probes::run_all(&w, rows, opts.seed, plan)
    } else {
        Vec::new()
    };

    let defs = if opts.trace { metrics::per_layer() } else { metrics::end_to_end() };
    let mut overlay: BTreeMap<String, f64> = probes::to_values(&probes).into_iter().collect();
    for s in &segments {
        for metric in metrics::SEGMENT_METRICS {
            overlay.insert(metrics::seg_name(s.name, metric), s.values[metric]);
        }
    }
    let metrics = defs
        .into_iter()
        .map(|def| {
            let per_segment: Vec<f64> =
                segments.iter().filter_map(|s| s.values.get(&def.name).copied()).collect();
            let value = if let Some(v) = overlay.get(&def.name) {
                *v
            } else if per_segment.is_empty() {
                // A segment this workload does not have.
                0.0
            } else if def.name == metrics::SETUP_S {
                // One pass over the workload sets every segment up once.
                per_segment.iter().sum()
            } else {
                match def.agg {
                    Agg::Mean => per_segment.iter().sum::<f64>() / per_segment.len() as f64,
                    Agg::Max => per_segment.iter().copied().fold(f64::MIN, f64::max),
                }
            };
            (def, value)
        })
        .collect();

    WorkloadReport {
        workload: *workload,
        seed: opts.seed,
        trace: opts.trace,
        attempted,
        failed,
        problems,
        metrics,
        segments,
        probes,
    }
}

impl WorkloadReport {
    /// Outputs were right: no failed operation, no malformed span tree.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The one-line result the benchmark contract asks for.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(def, value)| {
                    let entry =
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]);
                    (def.name.clone(), entry)
                })),
            ),
        ])
    }

    /// Every metric by name with its unit and clock label, then the
    /// operation counts and any failure messages.
    pub fn print_table(&self) {
        let kind = if self.trace { "per-layer (traced run)" } else { "end-to-end (tracing off)" };
        println!("== {} · seed {} · {kind}", self.workload.name, self.seed);
        for (def, value) in &self.metrics {
            println!("  {:<44} {:>16.6} {:<6} [{}]", def.name, value, def.unit, def.label);
        }
        for s in &self.segments {
            println!(
                "  segment {:<16} {:>5} timed steps/rank  run {:>10.4} ms  in situ {:>10.4} ms  cpu {:>10.4} ms  set-up {:>7.3} s",
                s.name,
                s.steps,
                s.values[metrics::RUN_MS],
                s.values[metrics::INSITU_MS],
                s.values[metrics::CPU_MS],
                s.values[metrics::SETUP_S],
            );
        }
        if self.trace {
            let recorder: Vec<String> = self
                .segments
                .iter()
                .map(|s| format!("{} {:.4} %", s.name, s.values[RECORDER_PCT]))
                .collect();
            println!(
                "  recorder: spans x measured cost per span / traced wall time = {}",
                recorder.join(", ")
            );
        }
        let calibration =
            self.segments.iter().map(|s| s.values[metrics::CALIBRATION_MS]).sum::<f64>()
                / self.segments.len() as f64;
        println!(
            "  machine: calibration kernel {calibration:.3} ms (reference {REFERENCE_MS} ms); times above are at reference speed, raw = shown x {:.4}",
            calibration / REFERENCE_MS,
        );
        println!("  operations: {} attempted, {} failed", self.attempted, self.failed);
        for s in &self.segments {
            for m in &s.messages {
                println!("  FAILED {}: {m}", s.name);
            }
        }
        for p in &self.problems {
            println!("  PROBLEM {p}");
        }
    }

    /// The detailed record written to `<out>/<workload>.json` (or
    /// `.traced.json`).
    pub fn to_json(&self, env: &Json) -> Json {
        let segments = self.segments.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("timed_steps", Json::Num(s.steps as f64)),
                ("insitu_samples", Json::Num(s.insitu_samples as f64)),
                ("failed", Json::Num(s.failed as f64)),
                ("messages", Json::Arr(s.messages.iter().map(Json::str).collect())),
                ("values", Json::obj(s.values.iter().map(|(k, v)| (k.clone(), Json::Num(*v))))),
            ])
        });
        let probes = self.probes.iter().map(|p| {
            Json::obj([
                ("name", Json::str(p.name)),
                ("median_ns", Json::Num(p.median_ns)),
                ("p95_ns", Json::Num(p.p95_ns)),
                ("samples", Json::Num(p.samples as f64)),
                ("ops", Json::Num(p.ops as f64)),
                ("computed_bytes", Json::Num(p.computed_bytes as f64)),
            ])
        });
        Json::obj([
            ("workload", Json::str(self.workload.name)),
            ("why", Json::str(self.workload.why)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("time_scale", Json::Num(self.workload.time_scale)),
            ("env", env.clone()),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("problems", Json::Arr(self.problems.iter().map(Json::str).collect())),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(def, value)| {
                    let entry = Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(def.unit)),
                        ("label", Json::str(def.label)),
                    ]);
                    (def.name.clone(), entry)
                })),
            ),
            ("segments", Json::Arr(segments.collect())),
            ("probes", Json::Arr(probes.collect())),
        ])
    }

    /// The span file of a traced run.
    pub fn trace_json(&self) -> Json {
        let segments = self.segments.iter().map(|s| {
            let spans = s.spans.iter().map(|sp| {
                Json::obj([
                    ("id", Json::Num(f64::from(sp.id))),
                    ("parent", Json::Num(f64::from(sp.parent))),
                    ("name", Json::str(sp.name)),
                    ("rank", Json::Num(f64::from(sp.rank))),
                    ("thread", Json::Num(f64::from(sp.thread))),
                    ("step", Json::Num(sp.step as f64)),
                    ("start_ns", Json::Num(sp.start_ns as f64)),
                    ("end_ns", Json::Num(sp.end_ns as f64)),
                ])
            });
            Json::obj([
                ("segment", Json::str(s.name)),
                ("first_timed_step", Json::Num(s.step_range.0 as f64)),
                ("last_timed_step", Json::Num(s.step_range.1 as f64)),
                ("spans", Json::Arr(spans.collect())),
            ])
        });
        Json::obj([
            ("workload", Json::str(self.workload.name)),
            ("seed", Json::Num(self.seed as f64)),
            ("segments", Json::Arr(segments.collect())),
        ])
    }
}
