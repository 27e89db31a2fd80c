//! Layout A/B: the layout-polymorphic data model under the fused
//! binning workload.
//!
//! A synthetic particle producer publishes the same four-column table
//! under each candidate physical layout — dense scalar arrays, or one
//! interleaved backing block arranged AoS / SoA / AoSoA — and the fused
//! [`binning::BinningSuite`] consumes it lockstep, so the apparent in
//! situ cost *is* the modeled cost of the layout-aware fetch + kernels:
//!
//! * **host placement** — a grouped table is fetched zero-copy through
//!   its layout maps and binned by the lane-vectorized kernel, whose
//!   modeled cost drops with the lane width (`fused_bin_cost_layout`).
//!   The AoSoA arms must beat the scalar-array reference here.
//! * **device placement** — a grouped table pays an in-flight pack to
//!   dense on upload (charged, and surfaced as `relayout_bytes`), so
//!   dense scalar columns tend to win. Which layout wins is placement-
//!   dependent — exactly what the autopick is for.
//!
//! The autopick runs a short probe of every candidate per placement,
//! picks the one with the lowest measured apparent cost, and re-runs it
//! at full length; the report asserts the pick lands within tolerance
//! of the best static layout. Every arm's binned results must be
//! bit-identical to the scalar reference — relayout is never allowed to
//! perturb a value.

use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::{NodeConfig, SimNode};
use hamr::Layout;
use minimpi::World;
use parking_lot::Mutex;
use sensei::{
    ArrayMetadata, BackendControls, Bridge, CounterSnapshot, DataAdaptor, DeviceSpec,
    ExecutionMethod, MeshMetadata, SnapshotMode,
};
use svtk::{Allocator, DataObject, FieldAssociation, HamrStream, StreamMode, TableData};

use binning::{BinnedResult, BinningSpec, BinningSuite, ResultSink, VarOp};

use crate::case::bench_node_config;
use crate::chaos::results_bit_identical;

/// The layouts the sweep and the autopick consider. Scalar (dense
/// per-column allocations) is the reference arm and always first.
pub const CANDIDATE_LAYOUTS: [Layout; 5] = [
    Layout::Scalar,
    Layout::AoS,
    Layout::SoA,
    Layout::AoSoA { lane_width: 4 },
    Layout::AoSoA { lane_width: 8 },
];

/// Scale of the layout A/B workload.
#[derive(Debug, Clone, Copy)]
pub struct LayoutBenchConfig {
    /// Rows in the synthetic particle table.
    pub rows: usize,
    /// Steps per full arm.
    pub steps: u64,
    /// Steps per autopick probe run.
    pub probe_steps: u64,
    /// Binning mesh resolution per axis.
    pub resolution: usize,
    /// Multiplier on modeled durations.
    pub time_scale: f64,
}

impl Default for LayoutBenchConfig {
    fn default() -> Self {
        LayoutBenchConfig { rows: 16384, steps: 6, probe_steps: 2, resolution: 32, time_scale: 1.0 }
    }
}

/// Outcome of one (layout, placement) arm.
#[derive(Debug, Clone)]
pub struct LayoutArm {
    /// The physical layout the producer published.
    pub layout: Layout,
    /// Where the suite ran (`None` = host).
    pub device: Option<usize>,
    /// The sink: one [`BinnedResult`] per (step, spec).
    pub results: Vec<BinnedResult>,
    /// The suite's work counters, including `relayout_bytes`.
    pub counters: CounterSnapshot,
    /// Mean apparent in situ time per iteration.
    pub mean_insitu: Duration,
    /// Wall time for the whole arm.
    pub total: Duration,
}

/// One placement's full sweep plus its autopick.
#[derive(Debug, Clone)]
pub struct PlacementSweep {
    /// The placement (`None` = host).
    pub device: Option<usize>,
    /// Full-length arms, in [`CANDIDATE_LAYOUTS`] order.
    pub arms: Vec<LayoutArm>,
    /// The probe's measured apparent cost per candidate.
    pub probe_insitu: Vec<Duration>,
    /// The layout the probe picked.
    pub picked: Layout,
    /// A fresh full-length run of the picked layout.
    pub auto_arm: LayoutArm,
}

impl PlacementSweep {
    /// Human-readable placement name.
    pub fn placement_name(&self) -> String {
        match self.device {
            None => "host".into(),
            Some(d) => format!("device{d}"),
        }
    }

    /// The scalar reference arm.
    pub fn scalar(&self) -> &LayoutArm {
        &self.arms[0]
    }

    /// The full arm that ran `layout`.
    pub fn arm(&self, layout: Layout) -> &LayoutArm {
        self.arms.iter().find(|a| a.layout == layout).expect("candidate layout")
    }

    /// The full arm with the lowest apparent cost.
    pub fn best_static(&self) -> &LayoutArm {
        self.arms.iter().min_by(|a, b| a.mean_insitu.cmp(&b.mean_insitu)).expect("at least one arm")
    }

    /// True when every arm (and the autopicked run) matches the scalar
    /// reference bit for bit.
    pub fn bit_identical(&self) -> bool {
        let reference = &self.scalar().results;
        self.arms.iter().all(|a| results_bit_identical(reference, &a.results))
            && results_bit_identical(reference, &self.auto_arm.results)
    }

    /// True when the autopick landed within `tolerance` (fractional) of
    /// the best static layout. Picking the best static arm's own layout
    /// is optimal by construction — the configurations are identical, so
    /// any wall-clock delta between the two runs is scheduler noise, not
    /// a policy cost; the tolerance guards the cost of a *different*
    /// pick.
    pub fn autopick_within(&self, tolerance: f64) -> bool {
        let best = self.best_static();
        self.picked == best.layout
            || self.auto_arm.mean_insitu.as_secs_f64()
                <= best.mean_insitu.as_secs_f64() * (1.0 + tolerance)
    }
}

/// The layout A/B across both placements.
#[derive(Debug, Clone)]
pub struct LayoutReport {
    /// The configuration that produced this report.
    pub config: LayoutBenchConfig,
    /// The host-placed sweep.
    pub host: PlacementSweep,
    /// The device-placed sweep.
    pub device: PlacementSweep,
}

impl LayoutReport {
    /// Both sweeps in report order.
    pub fn sweeps(&self) -> [&PlacementSweep; 2] {
        [&self.host, &self.device]
    }

    /// The headline claim: the widest AoSoA arm beats the scalar-array
    /// reference on the host-vectorized fused path.
    pub fn aosoa_beats_scalar_host(&self) -> bool {
        let aosoa = self.host.arm(Layout::AoSoA { lane_width: 8 });
        aosoa.mean_insitu < self.host.scalar().mean_insitu
    }

    /// True when every sweep's arms are bit-identical to scalar.
    pub fn all_bit_identical(&self) -> bool {
        self.sweeps().iter().all(|s| s.bit_identical())
    }

    /// True when both sweeps' autopicks land within `tolerance`.
    pub fn autopick_within(&self, tolerance: f64) -> bool {
        self.sweeps().iter().all(|s| s.autopick_within(tolerance))
    }
}

/// The modeled node for the layout arms. Built from the bench node with
/// the host's per-task overhead shrunk and its memory bandwidth slowed:
/// the claim under test is about kernel *byte traffic* (the AoSoA lane
/// kernel halves the modeled bytes per fused pass), so the byte term
/// must dominate the fixed per-task overhead that would otherwise swamp
/// the layouts' differences.
fn layout_node_config(time_scale: f64) -> NodeConfig {
    let mut cfg = bench_node_config(1, time_scale);
    cfg.host.task_overhead = Duration::from_micros(20);
    cfg.host.bytes_per_sec = 2.5e9;
    cfg
}

/// The four columns of the synthetic particle table.
const FIELDS: [&str; 4] = ["x", "y", "m", "e"];

/// Deterministic per-(step, field, row) value — a splitmix64-style hash
/// so every layout arm publishes bit-identical data without sharing
/// state across runs.
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
        // Coordinates span the binned plane.
        0 | 1 => u * 4.0 - 2.0,
        // Mass.
        2 => 0.5 + u,
        // Energy.
        _ => u * 100.0,
    }
}

/// A simulation stand-in that republishes the particle table each step,
/// arranged in the arm's physical layout: dense scalar columns, or the
/// same columns regrouped into one interleaved block
/// ([`TableData::group_columns`]).
struct LayoutProducer {
    node: Arc<SimNode>,
    layout: Layout,
    rows: usize,
    step: u64,
    table: TableData,
}

impl LayoutProducer {
    fn new(node: Arc<SimNode>, layout: Layout, rows: usize) -> hamr::Result<Self> {
        let mut p = LayoutProducer { node, layout, rows, step: 0, table: TableData::new() };
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
        if self.layout != Layout::Scalar {
            table.group_columns(&FIELDS, self.layout, &self.node)?;
        }
        self.table = table;
        Ok(())
    }

    fn advance(&mut self) -> hamr::Result<()> {
        self.step += 1;
        self.produce()
    }
}

impl DataAdaptor for LayoutProducer {
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
fn layout_specs(resolution: usize) -> Vec<BinningSpec> {
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

fn run_arm_with(
    cfg: &LayoutBenchConfig,
    layout: Layout,
    device: Option<usize>,
    steps: u64,
    execution: ExecutionMethod,
    snapshot: SnapshotMode,
) -> LayoutArm {
    let node = SimNode::new(layout_node_config(cfg.time_scale));
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));

    let cfg = *cfg;
    let run_node = node.clone();
    let run_sink = sink.clone();
    let outcomes: Vec<(CounterSnapshot, Duration, Duration)> = World::new(1).run(move |comm| {
        let node = run_node.clone();
        let t0 = Instant::now();

        let controls = BackendControls {
            execution,
            device: match device {
                None => DeviceSpec::Host,
                Some(d) => DeviceSpec::Explicit(d),
            },
            queue_depth: steps.max(1) as usize,
            layout,
            ..Default::default()
        };
        let suite = BinningSuite::new(layout_specs(cfg.resolution))
            .expect("suite over layout specs")
            .with_controls(controls)
            .with_sink(run_sink.clone());
        let mut bridge = Bridge::new(node.clone());
        bridge.set_snapshot_mode(snapshot);
        bridge.add_analysis(Box::new(suite), &comm).expect("attach suite");

        let mut producer =
            LayoutProducer::new(node.clone(), layout, cfg.rows).expect("layout producer");
        for _ in 0..steps {
            // The producer's table rebuild stands in for the solver; a
            // fixed nominal solver time keeps the profiler's ratio
            // fields meaningful without modeling a solver.
            bridge.execute(&producer, &comm, Duration::from_millis(1)).expect("in situ execute");
            producer.advance().expect("producer step");
        }
        let profiler = bridge.finalize(&comm).expect("finalize");
        let summary = profiler.summary();
        (profiler.counters_total(), summary.mean_insitu, t0.elapsed())
    });

    let (counters, mean_insitu, total) = outcomes[0];
    let results = sink.lock().clone();
    LayoutArm { layout, device, results, counters, mean_insitu, total }
}

/// Run one full-length lockstep arm — the building block of the sweep,
/// also driven directly by the Criterion A/B.
pub fn run_layout_arm(
    cfg: &LayoutBenchConfig,
    layout: Layout,
    device: Option<usize>,
    steps: u64,
) -> LayoutArm {
    run_arm_with(cfg, layout, device, steps, ExecutionMethod::Lockstep, SnapshotMode::Deep)
}

fn run_sweep(cfg: &LayoutBenchConfig, device: Option<usize>) -> PlacementSweep {
    // Probe: short runs, pick the cheapest candidate by measured
    // first-window apparent cost.
    let probe_insitu: Vec<Duration> = CANDIDATE_LAYOUTS
        .iter()
        .map(|&l| run_layout_arm(cfg, l, device, cfg.probe_steps).mean_insitu)
        .collect();
    let picked = CANDIDATE_LAYOUTS[probe_insitu
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.cmp(b.1))
        .map(|(i, _)| i)
        .expect("at least one candidate")];

    // Full-length statics, then a fresh full run of the pick.
    let arms: Vec<LayoutArm> =
        CANDIDATE_LAYOUTS.iter().map(|&l| run_layout_arm(cfg, l, device, cfg.steps)).collect();
    let auto_arm = run_layout_arm(cfg, picked, device, cfg.steps);
    PlacementSweep { device, arms, probe_insitu, picked, auto_arm }
}

/// Run the full layout A/B: both placements' static sweeps plus their
/// probe-based autopicks.
pub fn run_layout_bench(cfg: &LayoutBenchConfig) -> LayoutReport {
    LayoutReport { config: *cfg, host: run_sweep(cfg, None), device: run_sweep(cfg, Some(0)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LayoutBenchConfig {
        LayoutBenchConfig {
            // Not a lane-width multiple: every grouped arm carries a
            // ragged AoSoA tail through the bridge.
            rows: 197,
            steps: 3,
            probe_steps: 1,
            resolution: 8,
            time_scale: 0.0,
        }
    }

    #[test]
    fn grouped_tables_are_bit_identical_across_modes_and_placements() {
        let cfg = tiny();
        let reference = run_layout_arm(&cfg, Layout::Scalar, None, cfg.steps);
        assert_eq!(reference.results.len(), cfg.steps as usize * 2, "one result per (step, spec)");

        for layout in [
            Layout::AoS,
            Layout::SoA,
            Layout::AoSoA { lane_width: 1 },
            Layout::AoSoA { lane_width: 4 },
            Layout::AoSoA { lane_width: 8 },
        ] {
            // Lockstep feeds the live grouped table straight to the
            // lane kernels (host) or through the charged in-flight pack
            // (device); asynchronous modes densify through the snapshot
            // layer's deep/cow captures. All must agree bit for
            // bit with the scalar lockstep reference.
            let cases = [
                (None, ExecutionMethod::Lockstep, SnapshotMode::Deep),
                (Some(0), ExecutionMethod::Lockstep, SnapshotMode::Deep),
                (None, ExecutionMethod::Asynchronous, SnapshotMode::Deep),
                (None, ExecutionMethod::Asynchronous, SnapshotMode::Cow),
            ];
            for (device, execution, snapshot) in cases {
                let arm = run_arm_with(&cfg, layout, device, cfg.steps, execution, snapshot);
                assert!(
                    results_bit_identical(&reference.results, &arm.results),
                    "{} on {:?} under {}/{} must match the scalar reference",
                    layout.name(),
                    device,
                    execution.name(),
                    snapshot.name(),
                );
            }
        }
    }

    #[test]
    fn relayout_bytes_surface_on_the_device_placement_only() {
        let cfg = tiny();
        let host = run_layout_arm(&cfg, Layout::AoS, None, cfg.steps);
        let device = run_layout_arm(&cfg, Layout::AoS, Some(0), cfg.steps);
        assert_eq!(
            host.counters.relayout_bytes, 0,
            "host fetch of a grouped table is zero-copy through the maps"
        );
        assert!(
            device.counters.relayout_bytes > 0,
            "device fetch of a grouped table pays the charged in-flight pack"
        );
    }

    #[test]
    fn sweep_report_is_structurally_sound_and_bit_identical() {
        let cfg = tiny();
        let report = run_layout_bench(&cfg);
        for sweep in report.sweeps() {
            assert_eq!(sweep.arms.len(), CANDIDATE_LAYOUTS.len());
            assert_eq!(sweep.probe_insitu.len(), CANDIDATE_LAYOUTS.len());
            assert!(CANDIDATE_LAYOUTS.contains(&sweep.picked), "autopick must choose a candidate");
            assert!(
                sweep.bit_identical(),
                "{} sweep must be bit-identical",
                sweep.placement_name()
            );
            for arm in &sweep.arms {
                assert_eq!(arm.results.len(), cfg.steps as usize * 2);
            }
        }
    }
}
