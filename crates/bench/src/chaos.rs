//! Chaos mode: the bounded fused binning workload under a deterministic
//! fault schedule.
//!
//! Three arms of the same workload (Newton++ feeding a
//! [`binning::BinningSuite`] over the bounded paper specs):
//!
//! 1. **baseline** — injection disabled; captures the reference
//!    [`BinnedResult`]s on rank 0.
//! 2. **retry** — every rank's first two armed kernel launches fail
//!    (`stream.launch`), plus a slow-rank delay on rank 0's first two
//!    armed collectives (`mpi.collective`); the suite runs lockstep on
//!    all ranks under [`RecoveryPolicy::Retry`]. Retrying a failed
//!    execute is collective-safe here because every injection site the
//!    schedule touches (fetch copies, kernel launches, pooled
//!    allocations) fires *before* the step's single packed allreduce and
//!    the sink push happens after it: a failed attempt is rank-local,
//!    and the eventual successful attempt issues the step's one
//!    collective, keeping the communicator matched. The recovered run's
//!    results must therefore be bit-identical to the baseline.
//! 3. **skip_step** — a single-rank asynchronous run where one pooled
//!    allocation fails in the in situ worker; under
//!    [`RecoveryPolicy::SkipStep`] the worker drops that step and keeps
//!    consuming, the solver runs to completion, and exactly one step's
//!    results are missing from the sink.
//!
//! Faults only fire on armed threads, so the solver itself is never
//! injected — the chaos claims are about the in situ path staying
//! recoverable, not about surviving solver corruption.

use std::sync::Arc;
use std::time::Duration;

use devsim::fault::site;
use devsim::{FaultConfig, FaultRule, SimNode};
use minimpi::World;
use newtonpp::{forces::Gravity, ic::UniformIc, IcKind, Newton, NewtonAdaptor, NewtonConfig};
use parking_lot::Mutex;
use sensei::{
    select_device, BackendControls, Bridge, ExecutionMethod, FaultSnapshot, Placement,
    RecoveryPolicy,
};

use binning::{BinnedResult, BinningSuite, ResultSink};

use crate::case::bench_node_config;
use crate::report::{Claim, Report, Row};
use crate::workload::paper_binning_specs_bounded;

/// Scale of the chaos workload. The schedule's rules fire with
/// probability 1 under occurrence caps, so the hard assertions hold for
/// any `seed`; the seed still reshuffles any probabilistic rules a user
/// adds on top.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed mixed into every fault-sampling decision.
    pub seed: u64,
    /// Devices on the simulated node == ranks of the multi-rank arms.
    pub num_devices: usize,
    /// Global body count.
    pub bodies: usize,
    /// Simulation steps per arm.
    pub steps: u64,
    /// Binning mesh resolution per axis.
    pub resolution: usize,
    /// Binning instances in the suite.
    pub instances: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { seed: 7, num_devices: 4, bodies: 256, steps: 6, resolution: 16, instances: 3 }
    }
}

/// Outcome of one chaos arm.
#[derive(Debug, Clone)]
pub struct ChaosArm {
    /// Arm name: `baseline`, `retry`, or `skip_step`.
    pub arm: &'static str,
    /// Ranks the arm ran on.
    pub ranks: usize,
    /// Solver steps completed per rank (the solver must always finish).
    pub steps_completed: u64,
    /// `bridge.execute` calls that returned an error.
    pub dispatch_errors: u64,
    /// Rank 0's sink: one [`BinnedResult`] per (delivered step, spec).
    pub results: Vec<BinnedResult>,
    /// Recovery outcomes summed over every rank's back-ends.
    pub faults: FaultSnapshot,
    /// Error-kind injections the node's injector actually performed.
    pub injector_errors: u64,
    /// Delay-kind injections (slow-rank stalls) actually performed.
    pub injector_delays: u64,
}

/// The three chaos arms of one seeded run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The configuration that produced this report.
    pub config: ChaosConfig,
    /// Fault-free reference.
    pub baseline: ChaosArm,
    /// Multi-rank lockstep arm under `Retry`.
    pub retry: ChaosArm,
    /// Single-rank asynchronous arm under `SkipStep`.
    pub skip: ChaosArm,
}

impl ChaosReport {
    /// True when the retry arm's recovered results match the baseline
    /// bit for bit.
    pub fn retry_bit_identical(&self) -> bool {
        results_bit_identical(&self.baseline.results, &self.retry.results)
    }
}

impl Report for ChaosReport {
    fn mode(&self) -> &'static str {
        "chaos"
    }

    fn config(&self) -> String {
        format!("{:?}", self.config)
    }

    fn rows(&self) -> Vec<Row> {
        let arm_rows = |a: &ChaosArm| {
            let counters = [
                ("ranks", a.ranks as u64),
                ("steps_completed", a.steps_completed),
                ("dispatch_errors", a.dispatch_errors),
                ("results", a.results.len() as u64),
                ("faults_injected", a.faults.injected),
                ("faults_retried", a.faults.retried),
                ("faults_recovered", a.faults.recovered),
                ("faults_skipped", a.faults.skipped),
                ("faults_aborted", a.faults.aborted),
                ("injector_errors", a.injector_errors),
                ("injector_delays", a.injector_delays),
            ];
            Row::counts(a.arm, &counters)
        };
        [&self.baseline, &self.retry, &self.skip].into_iter().flat_map(arm_rows).collect()
    }

    fn claims(&self) -> Vec<Claim> {
        let (b, r, s) = (&self.baseline, &self.retry, &self.skip);
        let (steps, per_step, ranks) =
            (self.config.steps, self.config.instances as u64, r.ranks as u64);
        let clean = b.faults == FaultSnapshot::default();
        vec![
            Claim::gate("baseline.injects_nothing", clean, format!("{:?}", b.faults)),
            Claim::eq("baseline.zero_dispatch_errors", b.dispatch_errors, 0),
            Claim::eq("baseline.delivers_every_step", b.results.len() as u64, steps * per_step),
            // Retry: every rank's dispatch fails twice and recovers on
            // the third attempt; the solver loop never sees an error and
            // the recovered results match the fault-free run bit for bit.
            Claim::eq("retry.solver_finishes", r.steps_completed, steps),
            Claim::eq("retry.zero_dispatch_errors", r.dispatch_errors, 0),
            Claim::eq("retry.one_injected_dispatch_per_rank", r.faults.injected, ranks),
            Claim::eq("retry.two_retries_per_rank", r.faults.retried, 2 * ranks),
            Claim::eq("retry.faults_recovered_eq_ranks", r.faults.recovered, ranks),
            Claim::eq("retry.zero_aborted", r.faults.aborted, 0),
            Claim::lt("retry.slow_rank_delay_fired", 0, r.injector_delays),
            Claim::gate("retry.bit_identical_to_baseline", self.retry_bit_identical(), ""),
            // Skip: the worker drops exactly the faulted step and keeps
            // going; the simulation still runs to completion.
            Claim::eq("skip_step.solver_finishes", s.steps_completed, steps),
            Claim::eq("skip_step.zero_dispatch_errors", s.dispatch_errors, 0),
            Claim::eq("skip_step.one_step_skipped", s.faults.skipped, 1),
            Claim::eq("skip_step.zero_aborted", s.faults.aborted, 0),
            Claim::eq(
                "skip_step.one_steps_results_missing",
                s.results.len() as u64,
                (steps - 1) * per_step,
            ),
        ]
    }
}

/// Bit-exact comparison of two result streams: same length and order,
/// same steps/axes/grids, and every output array equal under
/// `f64::to_bits` (no tolerance — recovery must not perturb the data).
pub fn results_bit_identical(a: &[BinnedResult], b: &[BinnedResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.step == y.step
                && x.axes == y.axes
                && x.grid == y.grid
                && x.arrays.len() == y.arrays.len()
                && x.arrays.iter().zip(&y.arrays).all(|((xn, xv), (yn, yv))| {
                    xn == yn
                        && xv.len() == yv.len()
                        && xv.iter().zip(yv).all(|(p, q)| p.to_bits() == q.to_bits())
                })
        })
}

/// Run the three arms and collect their outcomes.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let baseline = run_arm(
        cfg,
        "baseline",
        None,
        RecoveryPolicy::Abort,
        ExecutionMethod::Lockstep,
        cfg.num_devices,
    );

    // Every rank's first two armed kernel launches fail (per-rank rules:
    // `max_injections` caps a rule globally, so each rank gets its own),
    // and rank 0 stalls 2 ms at its first two armed collectives. Two
    // consecutive failures stay inside the 3-retry budget.
    let mut retry_schedule = FaultConfig::seeded(cfg.seed).with_rule(
        FaultRule::delay(site::MPI_COLLECTIVE, Duration::from_millis(2))
            .with_max_injections(2)
            .for_rank(0),
    );
    for rank in 0..cfg.num_devices {
        retry_schedule = retry_schedule
            .with_rule(FaultRule::error(site::STREAM_LAUNCH).with_max_injections(2).for_rank(rank));
    }
    let retry = run_arm(
        cfg,
        "retry",
        Some(retry_schedule),
        RecoveryPolicy::Retry { max_retries: 3, backoff_ms: 1 },
        ExecutionMethod::Lockstep,
        cfg.num_devices,
    );

    // One pooled allocation fails inside the asynchronous in situ worker;
    // single-rank so the dropped step skips no collectives.
    let skip_schedule = FaultConfig::seeded(cfg.seed)
        .with_rule(FaultRule::error(site::POOL_ALLOC).with_max_injections(1));
    let skip = run_arm(
        cfg,
        "skip_step",
        Some(skip_schedule),
        RecoveryPolicy::SkipStep,
        ExecutionMethod::Asynchronous,
        1,
    );

    ChaosReport { config: *cfg, baseline, retry, skip }
}

fn run_arm(
    cfg: &ChaosConfig,
    arm: &'static str,
    schedule: Option<FaultConfig>,
    recovery: RecoveryPolicy,
    execution: ExecutionMethod,
    ranks: usize,
) -> ChaosArm {
    // Modeled time is irrelevant to the recovery claims; scale 0 keeps
    // the chaos arms fast enough for CI.
    let node = SimNode::new(bench_node_config(ranks, 0.0));
    match &schedule {
        Some(f) => node.fault().configure(f.clone()),
        None => node.fault().clear(),
    }
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));

    let cfg = *cfg;
    let run_node = node.clone();
    let run_sink = sink.clone();
    let outcomes: Vec<(u64, u64, sensei::CounterSnapshot)> = World::new(ranks).run(move |comm| {
        let node = run_node.clone();

        // Slow-rank modeling: every collective consults the injector at
        // entry. Armed (in situ) collectives can be stalled by
        // `mpi.collective` delay rules; the solver's collectives run
        // unarmed and are exempt. Installed before the bridge attaches
        // back-ends so dup'd per-backend communicators inherit it.
        let fault = node.fault().clone();
        comm.set_collective_hook(Arc::new(move |_seq| {
            let _ = fault.check(site::MPI_COLLECTIVE);
        }));

        let placement = Placement::SameDevice;
        let sim_selector = placement.sim_selector(ranks);
        let sim_device = select_device(comm.rank(), ranks, &sim_selector);
        let (device_spec, selector) = placement.insitu_spec(ranks);
        let controls = BackendControls {
            execution,
            device: device_spec,
            selector,
            queue_depth: cfg.steps.max(1) as usize,
            recovery,
            ..Default::default()
        };

        let specs: Vec<binning::BinningSpec> =
            paper_binning_specs_bounded(cfg.resolution).into_iter().take(cfg.instances).collect();
        let mut suite =
            BinningSuite::new(specs).expect("suite over paper specs").with_controls(controls);
        if comm.rank() == 0 {
            suite = suite.with_sink(run_sink.clone());
        }
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(suite), &comm).expect("attach suite");

        // The IC seed is fixed (independent of the fault seed) so every
        // arm simulates identical data — the bit-identical claim compares
        // recovery arms against the baseline, not seeds against seeds.
        let newton_cfg = NewtonConfig {
            ic: IcKind::Uniform(UniformIc {
                n: cfg.bodies,
                seed: 20230817,
                half_width: 1.0,
                mass_range: (0.5, 1.5),
                velocity_scale: 0.1,
                central_mass: cfg.bodies as f64,
            }),
            dt: 1e-4,
            grav: Gravity { g: 1.0, eps: 0.05 },
            x_extent: (-2.0, 2.0),
            repartition_every: None,
        };
        let mut sim = Newton::new(node.clone(), &comm, sim_device, newton_cfg)
            .expect("simulation initialization");

        let mut steps_completed = 0u64;
        let mut dispatch_errors = 0u64;
        for _ in 0..cfg.steps {
            // The solver must survive every arm: faults never target it.
            let solver_time = sim.step(&comm).expect("solver step survives chaos");
            let adaptor = NewtonAdaptor::new(&sim);
            if bridge.execute(&adaptor, &comm, solver_time).is_err() {
                dispatch_errors += 1;
            }
            steps_completed += 1;
        }
        let profiler = bridge.finalize(&comm).expect("finalize survives recovery");
        comm.clear_collective_hook();
        (steps_completed, dispatch_errors, profiler.counters_total())
    });

    let stats = node.fault().stats();
    node.fault().clear();

    let mut faults = FaultSnapshot::default();
    let mut steps_completed = 0u64;
    let mut dispatch_errors = 0u64;
    for (steps, errors, counters) in &outcomes {
        faults.accumulate(&counters.faults);
        steps_completed = steps_completed.max(*steps);
        dispatch_errors += errors;
    }
    let results = sink.lock().clone();

    ChaosArm {
        arm,
        ranks,
        steps_completed,
        dispatch_errors,
        results,
        faults,
        injector_errors: stats.injected_errors,
        injector_delays: stats.injected_delays,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosConfig {
        ChaosConfig { num_devices: 2, bodies: 64, steps: 3, resolution: 8, instances: 2, seed: 11 }
    }

    /// One run of the three arms, shared by the tests below.
    fn report() -> &'static ChaosReport {
        static REPORT: std::sync::OnceLock<ChaosReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| {
            let _serial = crate::serial();
            run_chaos(&tiny())
        })
    }

    #[test]
    fn retry_arm_recovers_bit_identically() {
        let report = report();
        crate::report::assert_gates(report);
        assert_eq!(
            report.retry.injector_delays, 2,
            "rank 0 stalled at its first two armed collectives"
        );
    }

    #[test]
    fn skip_arm_drops_one_step_and_finishes() {
        let report = report();
        assert_eq!(report.skip.ranks, 1);
        crate::report::assert_claims(
            report,
            &[
                "skip_step.solver_finishes",
                "skip_step.zero_dispatch_errors",
                "skip_step.one_step_skipped",
                "skip_step.zero_aborted",
                "skip_step.one_steps_results_missing",
            ],
        );
    }
}
