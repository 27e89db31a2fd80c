//! Online adaptive placement & autotuning: the closed profiler loop
//! under the fused binning workload.
//!
//! Two experiments, both driven by the bridge-resident
//! [`sensei::AdaptiveController`]:
//!
//! * **steady** — a fixed per-step cost surface over the placement. The
//!   static arms sweep both sides of that surface;
//!   the adaptive arm starts from the *worst* static configuration and
//!   must converge, within a bounded number of steps, to within
//!   tolerance of the *best* static arm's steady-state apparent cost.
//! * **drift** — the workload's per-step cost profile changes mid-run
//!   (the stand-in for write rates / device contention shifting): phase
//!   one favors a device placement, phase two inverts the surface so
//!   the devices saturate and the host wins.
//!   Every static configuration is on the wrong side of one phase, so
//!   the adaptive arm — which re-probes when its settled baseline
//!   drifts — must beat *all* of them on end-to-end apparent cost.
//!
//! The per-step cost is injected as a modeled dispatch-side delay on top
//! of the real fused binning pass, so the controller tunes against the
//! same apparent-cost signal the profiler records, while the binned
//! *results* stay a pure function of the simulation step — every arm,
//! static or adaptive, must be bit-identical to the reference. A
//! mid-run engine rebuild that perturbed a value would fail the report,
//! not just a tolerance.

use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::SimNode;
use minimpi::World;
use parking_lot::Mutex;
use sensei::{
    AdaptiveConfig, AnalysisAdaptor, AnalysisCounters, ArrayMetadata, BackendControls, Bridge,
    DataAdaptor, DataRequirements, DeviceSpec, ExecContext, ExecutionMethod, MeshMetadata,
};
use svtk::{Allocator, DataObject, FieldAssociation, HamrStream, StreamMode, TableData};

use binning::{BinnedResult, BinningAnalysis, BinningSpec, BinningSuite, ResultSink, VarOp};

use crate::case::bench_node_config;
use crate::chaos::results_bit_identical;
use crate::report::{Claim, Label, Report, Row};

/// Scale of the adaptive bench.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveBenchConfig {
    /// Rows in the synthetic particle table.
    pub rows: usize,
    /// Steps per steady arm.
    pub steady_steps: u64,
    /// Steps per drift arm.
    pub drift_steps: u64,
    /// Step at which the drift workload's cost surface inverts.
    pub drift_at: u64,
    /// The steady adaptive arm must be settled by this step.
    pub converge_within: u64,
    /// Binning mesh resolution per axis.
    pub resolution: usize,
    /// Multiplier on the injected modeled per-step costs.
    pub time_scale: f64,
    /// Devices on the modeled node.
    pub num_devices: usize,
}

impl Default for AdaptiveBenchConfig {
    fn default() -> Self {
        AdaptiveBenchConfig {
            rows: 512,
            steady_steps: 36,
            drift_steps: 90,
            drift_at: 30,
            converge_within: 24,
            resolution: 8,
            time_scale: 1.0,
            num_devices: 4,
        }
    }
}

/// The steady adaptive arm must land within this fraction of the best
/// static arm's steady-state apparent cost (the issue's ~10% bar).
pub const ADAPTIVE_TOLERANCE: f64 = 0.10;

/// The static placements: the two sides of the cost surface. First
/// entry is the bit-identity reference; the adaptive arms start from
/// whichever of these measures worst.
pub const STATIC_ARMS: [DeviceSpec; 2] = [DeviceSpec::Host, DeviceSpec::Explicit(0)];

/// Which per-step cost surface an arm runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Phase-one surface for the whole run.
    Steady,
    /// Phase one until `drift_at`, inverted surface after.
    Drifting,
}

/// Modeled apparent cost (microseconds, before `time_scale`) of one
/// dispatch under the phase-one surface: the devices are fast and the
/// host is slow.
fn phase1_us(c: &BackendControls) -> f64 {
    match c.device {
        DeviceSpec::Host => 6200.0,
        _ => 1200.0,
    }
}

/// Phase-two surface: the devices saturate (contention / shifted write
/// rates) and the host wins. Phase one's winner is this phase's loser.
fn phase2_us(c: &BackendControls) -> f64 {
    match c.device {
        DeviceSpec::Host => 2000.0,
        _ => 5200.0,
    }
}

fn modeled_cost(workload: Workload, drift_at: u64, scale: f64) -> CostFn {
    Arc::new(move |step: u64, c: &BackendControls| {
        let us = match workload {
            Workload::Steady => phase1_us(c),
            Workload::Drifting if step < drift_at => phase1_us(c),
            Workload::Drifting => phase2_us(c),
        };
        Duration::from_nanos((us * 1e3 * scale) as u64)
    })
}

type CostFn = Arc<dyn Fn(u64, &BackendControls) -> Duration + Send + Sync>;

/// The fused binning suite with the workload's modeled per-step cost
/// charged on the dispatch path — the controller and the profiler see
/// it as apparent cost, exactly like a real placement-dependent kernel,
/// while the binned results stay a pure function of the step.
struct ModeledSuite {
    inner: BinningAnalysis,
    cost: CostFn,
}

impl AnalysisAdaptor for ModeledSuite {
    fn name(&self) -> &str {
        "adaptive_binning"
    }
    fn controls(&self) -> &BackendControls {
        self.inner.controls()
    }
    fn controls_mut(&mut self) -> &mut BackendControls {
        self.inner.controls_mut()
    }
    fn required_arrays(&self) -> DataRequirements {
        self.inner.required_arrays()
    }
    fn counters(&self) -> Option<Arc<AnalysisCounters>> {
        self.inner.counters()
    }
    fn execute(&mut self, data: &dyn DataAdaptor, ctx: &ExecContext<'_>) -> sensei::Result<bool> {
        let delay = (self.cost)(data.time_step(), self.inner.controls());
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        self.inner.execute(data, ctx)
    }
    fn finalize(&mut self, ctx: &ExecContext<'_>) -> sensei::Result<()> {
        self.inner.finalize(ctx)
    }
}

/// The four columns of the synthetic particle table.
const FIELDS: [&str; 4] = ["x", "y", "m", "e"];

/// Deterministic per-(step, field, row) value (splitmix64): every arm
/// publishes bit-identical data.
fn field_value(step: u64, field: usize, i: usize) -> f64 {
    let mut z = step
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((field as u64) << 32)
        .wrapping_add(i as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    match field {
        0 | 1 => u * 4.0 - 2.0,
        2 => 0.5 + u,
        _ => u * 100.0,
    }
}

/// A simulation stand-in that republishes the particle table each step.
struct AdaptiveProducer {
    node: Arc<SimNode>,
    rows: usize,
    step: u64,
    table: TableData,
}

impl AdaptiveProducer {
    fn new(node: Arc<SimNode>, rows: usize) -> hamr::Result<Self> {
        let mut p = AdaptiveProducer { node, rows, step: 0, table: TableData::new() };
        p.produce()?;
        Ok(p)
    }

    fn produce(&mut self) -> hamr::Result<()> {
        let mut table = TableData::new();
        for (f, name) in FIELDS.iter().enumerate() {
            let vals: Vec<f64> = (0..self.rows).map(|i| field_value(self.step, f, i)).collect();
            let arr = svtk::HamrDoubleArray::from_slice(
                *name,
                self.node.clone(),
                &vals,
                1,
                Allocator::Malloc,
                None,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )?;
            table.set_column(arr.as_array_ref());
        }
        self.table = table;
        Ok(())
    }

    fn advance(&mut self) -> hamr::Result<()> {
        self.step += 1;
        self.produce()
    }
}

impl DataAdaptor for AdaptiveProducer {
    fn num_meshes(&self) -> usize {
        1
    }

    fn mesh_metadata(&self, _i: usize) -> sensei::Result<MeshMetadata> {
        Ok(MeshMetadata {
            name: "particles".into(),
            arrays: FIELDS
                .iter()
                .map(|&name| ArrayMetadata {
                    name: name.to_string(),
                    association: FieldAssociation::Point,
                    components: 1,
                    type_name: "double",
                    device: None,
                })
                .collect(),
        })
    }

    fn mesh(&self, name: &str) -> sensei::Result<DataObject> {
        if name != "particles" {
            return Err(sensei::Error::NoSuchMesh { name: name.to_string() });
        }
        Ok(DataObject::Table(self.table.clone()))
    }

    fn time(&self) -> f64 {
        self.step as f64
    }

    fn time_step(&self) -> u64 {
        self.step
    }
}

/// The workload: two fused multi-op instances over the particle axes.
fn adaptive_specs(resolution: usize) -> Vec<BinningSpec> {
    let parse = |s: &str| VarOp::parse(s).expect("valid op");
    vec![
        BinningSpec::new(
            "particles",
            ("x", "y"),
            resolution,
            vec![parse("count()"), parse("sum(m)"), parse("avg(e)")],
        ),
        BinningSpec::new(
            "particles",
            ("y", "x"),
            resolution,
            vec![parse("count()"), parse("min(m)"), parse("max(e)")],
        ),
    ]
}

/// Outcome of one arm, static or adaptive.
#[derive(Debug, Clone)]
pub struct AdaptiveArm {
    /// Human-readable arm label, e.g. `static host`.
    pub label: String,
    /// The configuration the arm started from.
    pub start: BackendControls,
    /// The configuration it finished with (== `start` for statics).
    pub final_controls: BackendControls,
    /// The sink: one [`BinnedResult`] per (step, spec).
    pub results: Vec<BinnedResult>,
    /// Per-step apparent in situ cost, seconds, in step order.
    pub apparent_s: Vec<f64>,
    /// The step at which the controller (last) settled, if adaptive.
    pub converged_by: Option<u64>,
    /// Adaptive decisions applied (probes + commits + reverts).
    pub decisions: usize,
    /// The decision log, one `step action detail` line per decision.
    pub decision_log: Vec<String>,
    /// Probe-budget consumption at finalize.
    pub probes_used: u32,
    /// Aborted dispatches (must be zero everywhere).
    pub aborted: u64,
    /// Wall time for the whole arm.
    pub total_wall: Duration,
}

impl AdaptiveArm {
    /// Sum of per-step apparent cost — the end-to-end figure of merit.
    pub fn total_apparent(&self) -> f64 {
        self.apparent_s.iter().sum()
    }

    /// Mean apparent cost over the settled tail: steps at or after
    /// `converged_by` for adaptive arms, everything past the warm-up
    /// step for statics.
    pub fn steady_mean(&self) -> f64 {
        let from = self.converged_by.unwrap_or(1) as usize;
        let tail = &self.apparent_s[from.min(self.apparent_s.len().saturating_sub(1))..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// One workload's sweep: the static arms plus the adaptive arm that
/// started from the measured-worst static configuration.
#[derive(Debug, Clone)]
pub struct AdaptiveSweep {
    /// Which cost surface the sweep ran under.
    pub workload: Workload,
    /// Static arms, in [`STATIC_ARMS`] order.
    pub statics: Vec<AdaptiveArm>,
    /// The closed-loop arm.
    pub adaptive: AdaptiveArm,
}

impl AdaptiveSweep {
    /// The static arm with the lowest end-to-end apparent cost.
    pub fn best_static(&self) -> &AdaptiveArm {
        self.statics
            .iter()
            .min_by(|a, b| a.total_apparent().total_cmp(&b.total_apparent()))
            .expect("at least one static arm")
    }

    /// The static arm with the highest end-to-end apparent cost — the
    /// adaptive arm's deliberately bad starting point.
    pub fn worst_static(&self) -> &AdaptiveArm {
        self.statics
            .iter()
            .max_by(|a, b| a.total_apparent().total_cmp(&b.total_apparent()))
            .expect("at least one static arm")
    }

    /// True when every arm's results match the first static arm bit for
    /// bit — reconfiguration must never perturb a value.
    pub fn bit_identical(&self) -> bool {
        let reference = &self.statics[0].results;
        self.statics.iter().all(|a| results_bit_identical(reference, &a.results))
            && results_bit_identical(reference, &self.adaptive.results)
    }

    /// True when no arm aborted a dispatch.
    pub fn zero_aborts(&self) -> bool {
        self.statics.iter().all(|a| a.aborted == 0) && self.adaptive.aborted == 0
    }
}

/// The full adaptive report: both workloads' sweeps.
#[derive(Debug, Clone)]
pub struct AdaptiveBenchReport {
    /// The configuration that produced this report.
    pub config: AdaptiveBenchConfig,
    /// The steady-workload sweep.
    pub steady: AdaptiveSweep,
    /// The drifting-workload sweep.
    pub drift: AdaptiveSweep,
}

impl AdaptiveBenchReport {
    /// The headline convergence claim: starting from the worst static
    /// configuration, the controller settled within the step bound and
    /// its steady-state apparent cost is within `tolerance` of the best
    /// static arm's.
    pub fn converged_within(&self, tolerance: f64) -> bool {
        let a = &self.steady.adaptive;
        match a.converged_by {
            None => false,
            Some(step) => {
                step <= self.config.converge_within
                    && a.steady_mean()
                        <= self.steady.best_static().steady_mean() * (1.0 + tolerance)
            }
        }
    }

    /// The drift claim: the adaptive arm's end-to-end apparent cost
    /// beats every static arm's (each static is on the wrong side of
    /// one phase; the controller switches sides).
    pub fn drift_adaptive_wins(&self) -> bool {
        let total = self.drift.adaptive.total_apparent();
        self.drift.statics.iter().all(|s| total < s.total_apparent())
    }

    /// True when both sweeps are bit-identical to their references.
    pub fn all_bit_identical(&self) -> bool {
        self.steady.bit_identical() && self.drift.bit_identical()
    }

    /// True when no arm in either sweep aborted a dispatch.
    pub fn zero_aborts(&self) -> bool {
        self.steady.zero_aborts() && self.drift.zero_aborts()
    }
}

impl Report for AdaptiveBenchReport {
    fn mode(&self) -> &'static str {
        "adaptive"
    }

    fn config(&self) -> String {
        format!("{:?} tolerance {ADAPTIVE_TOLERANCE}", self.config)
    }

    fn rows(&self) -> Vec<Row> {
        // Placements as numbers, the way the decision log spells them.
        let device = |c: &BackendControls| match c.device {
            DeviceSpec::Explicit(d) => d as f64,
            DeviceSpec::Host | DeviceSpec::Auto => -1.0,
        };
        let mut rows = Vec::new();
        for (sweep_name, sweep) in [("steady", &self.steady), ("drift", &self.drift)] {
            for a in sweep.statics.iter().chain(std::iter::once(&sweep.adaptive)) {
                let arm = format!("{sweep_name}.{}", a.label);
                let ms = |metric, s: f64| Row::new(&arm, metric, "ms", Label::Wall, s * 1e3);
                rows.push(ms("total_apparent_ms", a.total_apparent()));
                rows.push(ms("steady_mean_ms", a.steady_mean()));
                let (start, landed) = (device(&a.start), device(&a.final_controls));
                rows.push(Row::new(&arm, "start_device", "device", Label::Count, start));
                rows.push(Row::new(&arm, "final_device", "device", Label::Count, landed));
                let counters = [
                    ("steps", a.apparent_s.len() as u64),
                    ("results", a.results.len() as u64),
                    ("decisions", a.decisions as u64),
                    ("probes_used", a.probes_used as u64),
                    ("aborted", a.aborted),
                ];
                rows.extend(Row::counts(&arm, &counters));
                if let Some(step) = a.converged_by {
                    rows.extend(Row::counts(&arm, &[("converged_by_step", step)]));
                }
            }
        }
        rows
    }

    fn claims(&self) -> Vec<Claim> {
        let (steady, drift) = (&self.steady.adaptive, &self.drift.adaptive);
        let (steady_best, drift_best) = (self.steady.best_static(), self.drift.best_static());
        let converged = format!(
            "from {}: settled at step {} (bound {}), {:.3} ms/iter vs best static ({}) {:.3} \
             ms/iter, tolerance {:.0}%",
            controls_label(&steady.start),
            steady.converged_by.map_or("never".to_string(), |s| s.to_string()),
            self.config.converge_within,
            steady.steady_mean() * 1e3,
            steady_best.label,
            steady_best.steady_mean() * 1e3,
            ADAPTIVE_TOLERANCE * 100.0,
        );
        let drift_wins = format!(
            "adaptive {:.3} ms vs best static ({}) {:.3} ms end to end; decisions {:?}",
            drift.total_apparent() * 1e3,
            drift_best.label,
            drift_best.total_apparent() * 1e3,
            drift.decision_log,
        );
        vec![
            Claim::gate("all_bit_identical", self.all_bit_identical(), "every arm vs a static arm"),
            Claim::gate("zero_aborts", self.zero_aborts(), "aborted dispatches, every arm"),
            Claim::gate(
                "converged_within_tolerance",
                self.converged_within(ADAPTIVE_TOLERANCE),
                converged,
            ),
            Claim::gate("drift_adaptive_beats_all_statics", self.drift_adaptive_wins(), drift_wins),
        ]
    }
}

/// Human-readable configuration label.
pub fn controls_label(c: &BackendControls) -> String {
    match c.device {
        DeviceSpec::Host => "host".to_string(),
        DeviceSpec::Explicit(d) => format!("device{d}"),
        DeviceSpec::Auto => "auto".to_string(),
    }
}

fn base_controls(device: DeviceSpec) -> BackendControls {
    BackendControls { execution: ExecutionMethod::Lockstep, device, ..Default::default() }
}

/// Run one arm. `adaptive` enables the closed loop (the placement
/// dimension; execution and snapshot tuning are exercised by the
/// sensei-level tests — under lockstep the apparent-cost objective is
/// the dispatch itself, which is what the injected model shapes).
pub fn run_adaptive_arm(
    cfg: &AdaptiveBenchConfig,
    workload: Workload,
    start: BackendControls,
    adaptive: bool,
) -> AdaptiveArm {
    let steps = match workload {
        Workload::Steady => cfg.steady_steps,
        Workload::Drifting => cfg.drift_steps,
    };
    // The node's intrinsic time model is disabled: the injected cost
    // surface *is* the workload under test, and the real fused binning
    // pass (a few hundred rows) contributes equally to every arm. Left
    // on, the device placements' launch/alloc overheads would blur the
    // surface the controller is being graded against.
    let node = SimNode::new(bench_node_config(cfg.num_devices, 0.0));
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
    let cost = modeled_cost(workload, cfg.drift_at, cfg.time_scale);

    let cfg = *cfg;
    let run_node = node.clone();
    let run_sink = sink.clone();
    type ArmOut = (Vec<f64>, Option<u64>, Vec<String>, u32, u64, BackendControls, Duration);
    let outcomes: Vec<ArmOut> = World::new(1).run(move |comm| {
        let node = run_node.clone();
        let t0 = Instant::now();

        let sink = run_sink.clone();
        let resolution = cfg.resolution;
        let cost = cost.clone();
        let factory: sensei::AdaptorFactory = Box::new(move |controls: &BackendControls| {
            let suite = BinningSuite::new(adaptive_specs(resolution))
                .map_err(|e| sensei::Error::Analysis(format!("binning suite: {e}")))?
                .with_controls(*controls)
                .with_sink(sink.clone());
            Ok(Box::new(ModeledSuite { inner: suite, cost: cost.clone() })
                as Box<dyn AnalysisAdaptor>)
        });

        let mut bridge = Bridge::new(node.clone());
        bridge.add_reconfigurable_analysis(start, factory, &comm).expect("attach suite");
        if adaptive {
            bridge.enable_adaptive(AdaptiveConfig {
                window: 2,
                warmup: 1,
                cooldown: 1,
                // The injected drift is a >4x cost jump; demanding 2x
                // before re-probing keeps sleep-timer jitter (which can
                // overshoot well past the default 1.5x on a ~1 ms floor)
                // from burning probe budget on phantom drift.
                drift_margin: 1.0,
                tune_execution: false,
                tune_snapshot: false,
                ..Default::default()
            });
        }

        let mut producer = AdaptiveProducer::new(node.clone(), cfg.rows).expect("producer");
        let mut converged_by: Option<u64> = None;
        for step in 0..steps {
            bridge.execute(&producer, &comm, Duration::from_millis(1)).expect("in situ execute");
            // Settling is sticky until drift re-opens probing; keep the
            // *last* settle step so the drift arm reports its re-converge.
            if let Some(ctrl) = bridge.adaptive_controller() {
                if ctrl.settled() && converged_by.is_none() {
                    converged_by = Some(step);
                } else if !ctrl.settled() {
                    converged_by = None;
                }
            }
            producer.advance().expect("producer step");
        }
        let final_controls = bridge.backend_controls(0).expect("backend 0");
        let probes = bridge.adaptive_controller().map_or(0, |c| c.probes_used());
        let profiler = bridge.finalize(&comm).expect("finalize");
        let mut apparent = vec![0.0f64; steps as usize];
        for s in profiler.backend_samples() {
            if let Some(slot) = apparent.get_mut(s.step as usize) {
                *slot += s.apparent.as_secs_f64();
            }
        }
        let decision_log: Vec<String> = profiler
            .adaptive_samples()
            .iter()
            .map(|s| format!("{} {} {}", s.step, s.action, s.detail))
            .collect();
        let aborted = profiler.counters_total().faults.aborted;
        (apparent, converged_by, decision_log, probes, aborted, final_controls, t0.elapsed())
    });

    let (apparent_s, converged_by, decision_log, probes_used, aborted, final_controls, total_wall) =
        outcomes.into_iter().next().expect("one rank");
    let decisions = decision_log.len();
    let results = sink.lock().clone();
    AdaptiveArm {
        label: if adaptive {
            format!("adaptive from {}", controls_label(&start))
        } else {
            format!("static {}", controls_label(&start))
        },
        start,
        final_controls,
        results,
        apparent_s,
        converged_by,
        decisions,
        decision_log,
        probes_used,
        aborted,
        total_wall,
    }
}

fn run_sweep(cfg: &AdaptiveBenchConfig, workload: Workload) -> AdaptiveSweep {
    let statics: Vec<AdaptiveArm> = STATIC_ARMS
        .iter()
        .map(|&device| run_adaptive_arm(cfg, workload, base_controls(device), false))
        .collect();
    let worst = statics
        .iter()
        .max_by(|a, b| a.total_apparent().total_cmp(&b.total_apparent()))
        .expect("static arms")
        .start;
    let adaptive = run_adaptive_arm(cfg, workload, worst, true);
    AdaptiveSweep { workload, statics, adaptive }
}

/// Run the full adaptive bench: static and closed-loop arms over
/// both workloads.
pub fn run_adaptive_bench(cfg: &AdaptiveBenchConfig) -> AdaptiveBenchReport {
    AdaptiveBenchReport {
        config: *cfg,
        steady: run_sweep(cfg, Workload::Steady),
        drift: run_sweep(cfg, Workload::Drifting),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AdaptiveBenchConfig {
        AdaptiveBenchConfig {
            rows: 197,
            steady_steps: 24,
            drift_steps: 60,
            drift_at: 20,
            converge_within: 20,
            resolution: 8,
            // Full-scale injected costs (ms-range sleeps): the drift
            // watcher compares a settled baseline against later windows,
            // and sub-ms sleeps get stretched enough by an oversubscribed
            // debug test run to mask the surface's inversion under the 2x
            // drift margin. One device trims the dedicated-device probes
            // the full harness config exercises.
            time_scale: 1.0,
            num_devices: 1,
        }
    }

    /// One run of both sweeps, shared by the two tests below.
    fn report() -> &'static AdaptiveBenchReport {
        static REPORT: std::sync::OnceLock<AdaptiveBenchReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| {
            let _serial = crate::serial();
            run_adaptive_bench(&tiny())
        })
    }

    #[test]
    fn steady_adaptive_converges_from_the_worst_corner() {
        let report = report();
        // (The tolerance claim is the harness's: a debug test run
        // stretches the slept costs past its 10%.)
        crate::report::assert_claims(report, &["all_bit_identical", "zero_aborts"]);
        let sweep = &report.steady;
        assert_eq!(sweep.adaptive.start, sweep.worst_static().start, "starts from the worst arm");
        assert!(
            sweep.adaptive.converged_by.is_some(),
            "controller settled: log {:?} apparent {:?}",
            sweep.adaptive.decision_log,
            sweep.adaptive.apparent_s
        );
        // The cost surface's best side is the device; the controller
        // must land there from the host.
        assert_ne!(sweep.adaptive.final_controls.device, DeviceSpec::Host);
        assert!(sweep.adaptive.decisions > 0, "the decision log is populated");
    }

    #[test]
    fn drifting_workload_beats_every_static_arm() {
        let report = report();
        crate::report::assert_claims(
            report,
            &["all_bit_identical", "zero_aborts", "drift_adaptive_beats_all_statics"],
        );
        // After the drift the controller must have crossed to the host
        // side of the surface.
        assert_eq!(report.drift.adaptive.final_controls.device, DeviceSpec::Host);
    }

    #[test]
    fn arm_accounting_is_structurally_sound() {
        let _serial = crate::serial();
        let cfg = AdaptiveBenchConfig { steady_steps: 4, time_scale: 0.0, ..tiny() };
        let arm = run_adaptive_arm(&cfg, Workload::Steady, base_controls(DeviceSpec::Host), false);
        assert_eq!(arm.apparent_s.len(), cfg.steady_steps as usize);
        assert_eq!(arm.results.len(), cfg.steady_steps as usize * 2, "one result per (step, spec)");
        assert_eq!(arm.converged_by, None, "statics never report convergence");
        assert_eq!(arm.decisions, 0);
        assert_eq!(arm.final_controls, arm.start);
    }
}
