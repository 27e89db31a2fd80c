//! Hierarchical vs flat collective scaling sweep (the paper's 128-node /
//! 512-GPU Perlmutter configuration, §4.1, shrunk to modeled time).
//!
//! Two sweeps over a list of rank counts, both running the same
//! deterministic packed-allreduce workload under the two
//! [`CollectiveMode`]s on one shared node grouping:
//!
//! * **weak scaling** — per-rank work held constant as ranks grow;
//! * **strong scaling** — total work held constant, divided over ranks.
//!
//! Per sweep point the harness runs a *flat* arm (all-to-root
//! collectives, the historical algorithms) and a *hierarchical* arm
//! (node-local reduce, binomial tree among node leaders, node-local
//! broadcast) and compares them on:
//!
//! * **bit identity** — both arms must produce the same `f64` bits on
//!   every rank at every count (both realise the topology's canonical
//!   merge order, see `minimpi::collectives`);
//! * **inter-node traffic** — the hierarchical arm must put fewer
//!   messages on the slow interconnect tier;
//! * **modeled total time** — modeled per-rank compute plus the summed
//!   per-rank network occupancy under [`NetworkParams`]; the tiered
//!   path must win at scale.
//!
//! A separate **check arm** runs the real fused [`BinningSuite`] on a
//! small multi-node world and verifies the PR-long invariant: one packed
//! allreduce per step per rank survives the tiered path, and the suite's
//! per-tier comm counters are populated.

use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::timemodel::host_duration;
use devsim::{HostParams, KernelCost, NetworkParams, SimNode};
use minimpi::{CollectiveMode, Segment, SegmentOp, TierSnapshot, World};
use parking_lot::Mutex;

use binning::{BinningSuite, ResultSink};
use sensei::{BackendControls, Bridge, CounterSnapshot, DeviceSpec};

use crate::case::bench_node_config;
use crate::dag::{skewed_binning_specs, DagBenchConfig, SkewTable};
use crate::report::{Claim, Label, Report, Row};

/// Scale of the hierarchical-vs-flat sweep.
#[derive(Debug, Clone)]
pub struct ScaleBenchConfig {
    /// Rank counts to sweep, ascending (the paper's 4 → 64 → 512).
    pub rank_counts: Vec<usize>,
    /// Ranks per simulated node (the paper's 4 GPUs per Perlmutter node).
    pub ranks_per_node: usize,
    /// Grid resolution per axis; the packed payload is
    /// `4 * resolution^2` doubles (count, sum, min, max planes).
    pub resolution: usize,
    /// Steps per arm — one packed allreduce each.
    pub steps: u64,
    /// Modeled per-rank rows for the weak-scaling sweep (constant).
    pub rows_per_rank: usize,
    /// Modeled total rows for the strong-scaling sweep (divided).
    pub total_rows: usize,
    /// The two-tier network cost model both arms are charged against.
    pub net: NetworkParams,
}

impl Default for ScaleBenchConfig {
    fn default() -> Self {
        ScaleBenchConfig {
            rank_counts: vec![4, 64, 512],
            ranks_per_node: 4,
            resolution: 32,
            steps: 3,
            rows_per_rank: 200_000,
            total_rows: 800_000,
            net: NetworkParams::default(),
        }
    }
}

impl ScaleBenchConfig {
    /// Length of the packed payload in doubles.
    pub fn payload_len(&self) -> usize {
        4 * self.resolution * self.resolution
    }

    /// The payload's segment layout: count and mass-sum planes under
    /// `Sum`, then a `Min` and a `Max` plane (NaN identities exercise
    /// the tiered merge exactly like the binning suite's grids).
    pub fn segments(&self) -> Vec<Segment> {
        let nb = self.resolution * self.resolution;
        vec![
            Segment::new(SegmentOp::Sum, nb),
            Segment::new(SegmentOp::Sum, nb),
            Segment::new(SegmentOp::Min, nb),
            Segment::new(SegmentOp::Max, nb),
        ]
    }
}

/// One collective mode's outcome at one sweep point.
#[derive(Debug, Clone, Copy)]
pub struct ScaleArm {
    /// Tier counters summed over every rank (aggregate network
    /// occupancy, not critical path).
    pub comm: TierSnapshot,
    /// Modeled per-rank compute for the whole run (identical across
    /// arms; what the comm term is weighed against).
    pub compute: Duration,
    /// Wall time of the simulated run itself.
    pub wall: Duration,
}

impl ScaleArm {
    /// Modeled total: per-rank compute plus summed network occupancy.
    pub fn modeled_total(&self) -> Duration {
        self.compute + self.comm.modeled()
    }
}

/// Flat vs hierarchical at one rank count.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Ranks in the world.
    pub ranks: usize,
    /// Simulated nodes those ranks group into.
    pub nodes: usize,
    /// Modeled rows per rank at this point (sweep-dependent).
    pub rows_per_rank: usize,
    /// The all-to-root baseline.
    pub flat: ScaleArm,
    /// The tiered path.
    pub hier: ScaleArm,
    /// Every rank of both arms produced the same result bits.
    pub bit_identical: bool,
}

impl ScalePoint {
    /// The tiered path put fewer messages on the interconnect.
    pub fn hier_fewer_inter_messages(&self) -> bool {
        self.hier.comm.inter_messages < self.flat.comm.inter_messages
    }

    /// Modeled-total speedup of hierarchical over flat.
    pub fn speedup(&self) -> f64 {
        self.flat.modeled_total().as_secs_f64() / self.hier.modeled_total().as_secs_f64().max(1e-12)
    }
}

/// One sweep (weak or strong) over every rank count.
#[derive(Debug, Clone)]
pub struct ScaleSweep {
    /// `weak` or `strong`.
    pub kind: &'static str,
    /// One point per configured rank count, ascending.
    pub points: Vec<ScalePoint>,
}

/// The fused-suite check arm: the real [`BinningSuite`] on a small
/// multi-node world, proving the 1-packed-allreduce-per-step invariant
/// survives the tiered path and the tier counters reach the profiler.
#[derive(Debug, Clone)]
pub struct ScaleCheck {
    /// Ranks in the check world.
    pub ranks: usize,
    /// Ranks per node in the check world.
    pub ranks_per_node: usize,
    /// Steps the suite executed.
    pub steps: u64,
    /// Each rank's counter totals, in rank order.
    pub per_rank: Vec<CounterSnapshot>,
}

impl ScaleCheck {
    /// Every rank issued exactly one packed allreduce per step.
    pub fn one_allreduce_per_step(&self) -> bool {
        self.per_rank.iter().all(|c| c.allreduces == self.steps)
    }

    /// The suite's per-tier comm counters saw both tiers.
    pub fn tier_counters_populated(&self) -> bool {
        let mut total = TierSnapshot::default();
        for c in &self.per_rank {
            total.accumulate(&c.comm);
        }
        total.intra_messages > 0 && total.inter_messages > 0
    }
}

/// The full scale report: both sweeps plus the fused-suite check.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// The configuration that produced this report.
    pub config: ScaleBenchConfig,
    /// Per-rank work held constant.
    pub weak: ScaleSweep,
    /// Total work held constant.
    pub strong: ScaleSweep,
    /// The fused binning suite on a small multi-node world.
    pub check: ScaleCheck,
}

impl ScaleReport {
    /// Every point of both sweeps, labeled with its sweep kind.
    pub fn points(&self) -> Vec<(&'static str, &ScalePoint)> {
        self.weak
            .points
            .iter()
            .map(|p| ("weak", p))
            .chain(self.strong.points.iter().map(|p| ("strong", p)))
            .collect()
    }
}

impl Report for ScaleReport {
    fn mode(&self) -> &'static str {
        "scale"
    }

    fn config(&self) -> String {
        format!("{:?}", self.config)
    }

    fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for (kind, p) in self.points() {
            for (mode, a) in [("flat", &p.flat), ("hier", &p.hier)] {
                let arm = format!("{kind}.r{}.{mode}", p.ranks);
                let counters = [
                    ("nodes", p.nodes as u64),
                    ("rows_per_rank", p.rows_per_rank as u64),
                    ("intra_messages", a.comm.intra_messages),
                    ("intra_bytes", a.comm.intra_bytes),
                    ("inter_messages", a.comm.inter_messages),
                    ("inter_bytes", a.comm.inter_bytes),
                ];
                rows.extend(Row::counts(&arm, &counters));
                rows.push(Row::ms(&arm, "comm_ms", Label::Modeled, a.comm.modeled()));
                rows.push(Row::ms(&arm, "compute_ms", Label::Modeled, a.compute));
                rows.push(Row::ms(&arm, "modeled_total_ms", Label::Modeled, a.modeled_total()));
                rows.push(Row::ms(&arm, "wall_ms", Label::Wall, a.wall));
            }
            let arm = format!("{kind}.r{}.hier", p.ranks);
            rows.push(Row::new(&arm, "speedup_modeled", "ratio", Label::Modeled, p.speedup()));
        }
        let c = &self.check;
        let mut comm = TierSnapshot::default();
        c.per_rank.iter().for_each(|r| comm.accumulate(&r.comm));
        let counters = [
            ("ranks", c.ranks as u64),
            ("ranks_per_node", c.ranks_per_node as u64),
            ("steps", c.steps),
            ("allreduces", c.per_rank.iter().map(|r| r.allreduces).sum()),
            ("intra_messages", comm.intra_messages),
            ("inter_messages", comm.inter_messages),
        ];
        rows.extend(Row::counts("check", &counters));
        rows
    }

    fn claims(&self) -> Vec<Claim> {
        let points_where = |bad: &dyn Fn(&ScalePoint) -> bool| -> Vec<String> {
            let points = self.points().into_iter().filter(|(_, p)| bad(p));
            points.map(|(kind, p)| format!("{kind}@{}", p.ranks)).collect()
        };
        // The headline: the tiered path wins on modeled total time at the
        // largest count of a sweep (a single-node point has nothing to win).
        let wins_at_largest = |sweep: &ScaleSweep| {
            let last = sweep.points.last().expect("at least one rank count");
            let (hier, flat) = (last.hier.modeled_total(), last.flat.modeled_total());
            Claim::gate(
                format!("{}.hier_wins_modeled_total_at_largest", sweep.kind),
                last.nodes <= 1 || hier < flat,
                format!("{} ranks: {hier:.3?} vs flat {flat:.3?}", last.ranks),
            )
        };
        let c = &self.check;
        vec![
            // Correctness before speed: the tiered path must never perturb
            // a bit, and on every multi-node point it must put fewer
            // messages on the interconnect.
            Claim::none("bit_identical_every_point", points_where(&|p| !p.bit_identical)),
            Claim::none(
                "hier_fewer_inter_messages",
                points_where(&|p| p.nodes > 1 && !p.hier_fewer_inter_messages()),
            ),
            wins_at_largest(&self.weak),
            wins_at_largest(&self.strong),
            // The fused suite's invariant survives the tiered path.
            Claim::gate("fused_one_allreduce_per_step", c.one_allreduce_per_step(), ""),
            Claim::gate("tier_counters_populated", c.tier_counters_populated(), ""),
        ]
    }
}

/// SplitMix64: the sweep's deterministic value source.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic, rank/step/index-dependent value with deliberately
/// mixed magnitudes, so any re-parenthesisation of the `Sum` segments
/// would change the result bits.
fn synth_value(seed: u64, rank: usize, step: u64, i: usize) -> f64 {
    let z = splitmix64(splitmix64(splitmix64(seed ^ rank as u64) ^ step) ^ i as u64);
    let mant = ((z & 0xFFFF) as f64) / 32768.0 - 1.0;
    let mag = match (z >> 16) & 3 {
        0 => 1.0,
        1 => 1.0e8,
        2 => 1.0e-8,
        _ => 1.0e15,
    };
    mant * mag
}

/// Modeled per-rank compute for `rows` rows over the whole run: the
/// binning pass is ~30 flops/row/step on the host model. Identical for
/// both arms — the sweeps compare communication, not kernels.
fn modeled_compute(rows: usize, steps: u64) -> Duration {
    let per_step =
        host_duration(KernelCost::flops(rows as f64 * 30.0), &HostParams::default(), 1.0);
    per_step * steps as u32
}

/// Run one collective mode at one rank count and collect result bits
/// (per rank) plus the arm's aggregate tier counters.
fn run_mode(
    cfg: &ScaleBenchConfig,
    ranks: usize,
    rows_per_rank: usize,
    seed: u64,
    mode: CollectiveMode,
) -> (Vec<Vec<u64>>, ScaleArm) {
    let segments = cfg.segments();
    let len = cfg.payload_len();
    let steps = cfg.steps;
    let t0 = Instant::now();
    let out = World::new(ranks)
        .with_ranks_per_node(cfg.ranks_per_node)
        .with_net(cfg.net, 1.0)
        .with_collective_mode(mode)
        .run(move |c| {
            let mut last = Vec::new();
            for step in 0..steps {
                let data: Vec<f64> =
                    (0..len).map(|i| synth_value(seed, c.rank(), step, i)).collect();
                last = c.allreduce_packed(data, &segments).expect("packed allreduce");
            }
            assert_eq!(c.allreduce_count(), steps, "one packed round per step");
            (last.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(), c.tier_stats())
        });
    let wall = t0.elapsed();
    let mut comm = TierSnapshot::default();
    let mut bits = Vec::with_capacity(ranks);
    for (b, t) in out {
        bits.push(b);
        comm.accumulate(&t);
    }
    (bits, ScaleArm { comm, compute: modeled_compute(rows_per_rank, steps), wall })
}

/// One flat-vs-hierarchical comparison at one rank count.
fn run_point(cfg: &ScaleBenchConfig, ranks: usize, rows_per_rank: usize, seed: u64) -> ScalePoint {
    let (flat_bits, flat) = run_mode(cfg, ranks, rows_per_rank, seed, CollectiveMode::Flat);
    let (hier_bits, hier) = run_mode(cfg, ranks, rows_per_rank, seed, CollectiveMode::Hierarchical);
    let bit_identical = flat_bits == hier_bits
        && flat_bits.iter().all(|b| b == &flat_bits[0])
        && hier_bits.iter().all(|b| b == &hier_bits[0]);
    let nodes = ranks.div_ceil(cfg.ranks_per_node);
    ScalePoint { ranks, nodes, rows_per_rank, flat, hier, bit_identical }
}

/// The fused-suite check arm: lockstep [`BinningSuite`] on a 4-rank,
/// 2-per-node world.
fn run_check(steps: u64) -> ScaleCheck {
    let (ranks, ranks_per_node) = (4, 2);
    let dag_cfg = DagBenchConfig {
        rows: 2_000,
        steps,
        resolution: 8,
        num_devices: 1,
        time_scale: 0.0,
        queue_depth: 2,
        heavy_instances: 1,
        light_instances: 1,
    };
    let counters = World::new(ranks).with_ranks_per_node(ranks_per_node).run(move |comm| {
        let node = SimNode::new(bench_node_config(dag_cfg.num_devices, dag_cfg.time_scale));
        let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
        let controls = BackendControls { device: DeviceSpec::Explicit(0), ..Default::default() };
        let suite = BinningSuite::new(skewed_binning_specs(&dag_cfg))
            .expect("suite over skewed specs")
            .with_sink(sink)
            .with_controls(controls);
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(suite), &comm).expect("attach suite");
        let mut sim = SkewTable::new(node, comm.rank(), dag_cfg.rows);
        for step in 0..steps {
            sim.step = step;
            bridge.execute(&sim, &comm, Duration::ZERO).expect("in situ execute");
        }
        bridge.finalize(&comm).expect("finalize").counters_total()
    });
    ScaleCheck { ranks, ranks_per_node, steps, per_rank: counters }
}

/// Run both sweeps and the check arm.
pub fn run_scale_bench(cfg: &ScaleBenchConfig) -> ScaleReport {
    let weak = ScaleSweep {
        kind: "weak",
        points: cfg
            .rank_counts
            .iter()
            .map(|&n| run_point(cfg, n, cfg.rows_per_rank, 0x5ca1e))
            .collect(),
    };
    let strong = ScaleSweep {
        kind: "strong",
        points: cfg
            .rank_counts
            .iter()
            .map(|&n| run_point(cfg, n, (cfg.total_rows / n).max(1), 0x5706))
            .collect(),
    };
    let check = run_check(cfg.steps.max(2));
    ScaleReport { config: cfg.clone(), weak, strong, check }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleBenchConfig {
        ScaleBenchConfig {
            rank_counts: vec![2, 6],
            ranks_per_node: 2,
            resolution: 4,
            steps: 2,
            rows_per_rank: 10_000,
            total_rows: 60_000,
            ..Default::default()
        }
    }

    /// One run of both sweeps and the check arm, shared by the tests below.
    fn report() -> &'static ScaleReport {
        static REPORT: std::sync::OnceLock<ScaleReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| {
            let _serial = crate::serial();
            run_scale_bench(&tiny())
        })
    }

    #[test]
    fn sweeps_are_bit_identical_and_cut_inter_traffic() {
        let report = report();
        crate::report::assert_gates(report);
        for (kind, p) in report.points().into_iter().filter(|(_, p)| p.nodes > 1) {
            assert!(
                p.hier.comm.modeled() < p.flat.comm.modeled(),
                "{kind} @ {} ranks: tiered comm must cost less",
                p.ranks
            );
        }
    }

    #[test]
    fn strong_scaling_divides_the_rows() {
        let report = report();
        let rows: Vec<usize> = report.strong.points.iter().map(|p| p.rows_per_rank).collect();
        assert_eq!(rows, vec![30_000, 10_000]);
        let weak: Vec<usize> = report.weak.points.iter().map(|p| p.rows_per_rank).collect();
        assert_eq!(weak, vec![10_000, 10_000]);
    }

    #[test]
    fn check_arm_keeps_the_fused_invariant_on_the_tiered_path() {
        let report = report();
        assert_eq!(report.check.per_rank.len(), 4);
        crate::report::assert_claims(
            report,
            &["fused_one_allreduce_per_step", "tier_counters_populated"],
        );
    }
}
