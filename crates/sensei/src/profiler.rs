//! Per-iteration timing, the data behind the paper's Figures 2 and 3.

use std::time::{Duration, Instant};

use devsim::PoolStats;

use crate::counters::{CounterSnapshot, SnapshotCounterSnapshot};
#[cfg(test)]
use crate::counters::{FaultSnapshot, ServeSnapshot};
use crate::scheduler::SchedulerSnapshot;
use crate::serve::ServeStepStats;

/// Timings for one simulation iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationRecord {
    /// Simulation time step.
    pub step: u64,
    /// Time spent in the solver this iteration.
    pub solver: Duration,
    /// *Apparent* in situ cost this iteration: for lockstep execution the
    /// full analysis time, for asynchronous execution just the deep copy
    /// and thread hand-off (the analysis itself overlaps the solver).
    pub insitu: Duration,
}

/// Aggregate view of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSummary {
    /// Iterations recorded.
    pub iterations: usize,
    /// Mean solver time per iteration (Figure 3's cyan bars).
    pub mean_solver: Duration,
    /// Mean apparent in situ time per iteration (Figure 3's red/blue bars).
    pub mean_insitu: Duration,
    /// Total wall-clock from profiler start to finalize (Figure 2).
    pub total_runtime: Duration,
}

/// One back-end's apparent cost at one step (what the simulation waited
/// for: the full analysis under lockstep, the copy + hand-off under
/// asynchronous execution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSample {
    /// Simulation time step.
    pub step: u64,
    /// Back-end instance name.
    pub backend: String,
    /// Apparent cost of dispatching this back-end.
    pub apparent: Duration,
    /// True when this step's dispatch retried or recovered from an
    /// injected fault: the retry backoff's wall clock (capped at 250 ms)
    /// is charged into `apparent`, so the sample measures the recovery
    /// machinery, not the configuration. Consumers comparing
    /// configurations (the adaptive controller's sliding window) must
    /// skip tainted samples.
    pub tainted: bool,
}

/// One adaptive-controller action: a probe, commit, or revert of a
/// back-end's controls (or of the bridge's snapshot mode), recorded so
/// a run's reconfiguration history is data alongside its timings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveSample {
    /// Simulation time step the decision was applied at.
    pub step: u64,
    /// Back-end instance name, or `bridge` for snapshot-mode decisions.
    pub backend: String,
    /// What kind of decision (`probe`, `commit`, `revert`).
    pub action: String,
    /// Human-readable description of the configuration applied.
    pub detail: String,
}

/// One back-end's aggregate apparent cost over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendBreakdown {
    /// Back-end instance name.
    pub backend: String,
    /// Dispatches recorded.
    pub dispatches: usize,
    /// Total apparent time across dispatches.
    pub total_apparent: Duration,
    /// Mean apparent time per dispatch.
    pub mean_apparent: Duration,
}

/// One back-end's work-counter totals at the end of a run — the data
/// behind fused-vs-per-op comparisons (passes, launches, downloads, and
/// allreduce rounds actually performed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Back-end instance name.
    pub backend: String,
    /// The back-end's counter totals.
    pub counters: CounterSnapshot,
}

/// The snapshot layer's totals at the end of a run: arrays shared vs
/// copied, bytes moved and CoW faults, labeled with the capture mode so
/// A/B harness runs identify their arm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSample {
    /// Capture mode name (`deep`, `cow`).
    pub mode: String,
    /// The snapshot-layer counter totals.
    pub counters: SnapshotCounterSnapshot,
}

/// One back-end's work-stealing scheduler totals at the end of a run
/// (dag execution only): tasks executed, cross-worker steals, worker idle
/// time, and the accumulated critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSample {
    /// Back-end instance name.
    pub backend: String,
    /// The scheduler counter totals.
    pub counters: SchedulerSnapshot,
}

/// One memory space's caching-pool counters at the end of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSample {
    /// Memory-space label (`host`, `device0`, ...).
    pub space: String,
    /// The pool counters for that space.
    pub stats: PoolStats,
}

/// Records per-iteration solver/in situ costs and the total run time.
#[derive(Debug)]
pub struct Profiler {
    records: Vec<IterationRecord>,
    backend_samples: Vec<BackendSample>,
    pool_samples: Vec<PoolSample>,
    counter_samples: Vec<CounterSample>,
    snapshot_samples: Vec<SnapshotSample>,
    scheduler_samples: Vec<SchedulerSample>,
    adaptive_samples: Vec<AdaptiveSample>,
    serve_samples: Vec<ServeStepStats>,
    started: Instant,
    total: Option<Duration>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Start the run clock.
    pub fn new() -> Self {
        Profiler {
            records: Vec::new(),
            backend_samples: Vec::new(),
            pool_samples: Vec::new(),
            counter_samples: Vec::new(),
            snapshot_samples: Vec::new(),
            scheduler_samples: Vec::new(),
            adaptive_samples: Vec::new(),
            serve_samples: Vec::new(),
            started: Instant::now(),
            total: None,
        }
    }

    /// Record one iteration.
    pub fn record(&mut self, step: u64, solver: Duration, insitu: Duration) {
        self.records.push(IterationRecord { step, solver, insitu });
    }

    /// Record one back-end's apparent cost at `step`.
    pub fn record_backend(&mut self, step: u64, backend: impl Into<String>, apparent: Duration) {
        self.record_backend_tainted(step, backend, apparent, false);
    }

    /// Like [`Profiler::record_backend`], marking the sample tainted when
    /// the step's dispatch retried or recovered from a fault (the retry
    /// backoff's wall clock is inside `apparent`).
    pub fn record_backend_tainted(
        &mut self,
        step: u64,
        backend: impl Into<String>,
        apparent: Duration,
        tainted: bool,
    ) {
        self.backend_samples.push(BackendSample {
            step,
            backend: backend.into(),
            apparent,
            tainted,
        });
    }

    /// Record one adaptive-controller decision.
    pub fn record_adaptive(
        &mut self,
        step: u64,
        backend: impl Into<String>,
        action: impl Into<String>,
        detail: impl Into<String>,
    ) {
        self.adaptive_samples.push(AdaptiveSample {
            step,
            backend: backend.into(),
            action: action.into(),
            detail: detail.into(),
        });
    }

    /// Every recorded adaptive decision, in application order.
    pub fn adaptive_samples(&self) -> &[AdaptiveSample] {
        &self.adaptive_samples
    }

    /// Every recorded per-backend sample, in dispatch order.
    pub fn backend_samples(&self) -> &[BackendSample] {
        &self.backend_samples
    }

    /// Per-backend aggregate apparent costs, in first-dispatch order.
    pub fn backend_breakdown(&self) -> Vec<BackendBreakdown> {
        let mut order: Vec<String> = Vec::new();
        for s in &self.backend_samples {
            if !order.contains(&s.backend) {
                order.push(s.backend.clone());
            }
        }
        order
            .into_iter()
            .map(|backend| {
                let samples = self.backend_samples.iter().filter(|s| s.backend == backend);
                let (mut n, mut total) = (0usize, Duration::ZERO);
                for s in samples {
                    n += 1;
                    total += s.apparent;
                }
                BackendBreakdown {
                    backend,
                    dispatches: n,
                    total_apparent: total,
                    mean_apparent: if n == 0 { Duration::ZERO } else { total / n as u32 },
                }
            })
            .collect()
    }

    /// Record one memory space's caching-pool counters (the bridge does
    /// this for the host and every device at finalize).
    pub fn record_pool_stats(&mut self, space: impl Into<String>, stats: PoolStats) {
        self.pool_samples.push(PoolSample { space: space.into(), stats });
    }

    /// Every recorded per-space pool sample.
    pub fn pool_samples(&self) -> &[PoolSample] {
        &self.pool_samples
    }

    /// Record one back-end's work-counter totals (the bridge does this at
    /// finalize for every back-end that keeps counters).
    pub fn record_counters(&mut self, backend: impl Into<String>, counters: CounterSnapshot) {
        self.counter_samples.push(CounterSample { backend: backend.into(), counters });
    }

    /// Every recorded per-backend counter sample.
    pub fn counter_samples(&self) -> &[CounterSample] {
        &self.counter_samples
    }

    /// Counter totals summed over every recorded back-end.
    pub fn counters_total(&self) -> CounterSnapshot {
        let mut total = CounterSnapshot::default();
        for s in &self.counter_samples {
            total.accumulate(&s.counters);
        }
        total
    }

    /// Record the snapshot layer's counter totals (the bridge does this
    /// at finalize, labeled with the active capture mode).
    pub fn record_snapshot_counters(
        &mut self,
        mode: impl Into<String>,
        counters: SnapshotCounterSnapshot,
    ) {
        self.snapshot_samples.push(SnapshotSample { mode: mode.into(), counters });
    }

    /// Every recorded snapshot-layer sample.
    pub fn snapshot_samples(&self) -> &[SnapshotSample] {
        &self.snapshot_samples
    }

    /// Record one back-end's scheduler counter totals (the bridge does
    /// this at finalize for every engine that executes task graphs).
    pub fn record_scheduler_counters(
        &mut self,
        backend: impl Into<String>,
        counters: SchedulerSnapshot,
    ) {
        self.scheduler_samples.push(SchedulerSample { backend: backend.into(), counters });
    }

    /// Every recorded scheduler sample.
    pub fn scheduler_samples(&self) -> &[SchedulerSample] {
        &self.scheduler_samples
    }

    /// Scheduler counters summed over every recorded back-end.
    pub fn scheduler_total(&self) -> SchedulerSnapshot {
        let mut total = SchedulerSnapshot::default();
        for s in &self.scheduler_samples {
            total.accumulate(&s.counters);
        }
        total
    }

    /// Record one step's live-serving aggregates (the bridge drains the
    /// hub's per-step stats into these at finalize).
    pub fn record_serve(&mut self, stats: ServeStepStats) {
        self.serve_samples.push(stats);
    }

    /// Every recorded per-step serving sample, in step order.
    pub fn serve_samples(&self) -> &[ServeStepStats] {
        &self.serve_samples
    }

    /// Pool counters summed over every recorded space.
    pub fn pool_total(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for s in &self.pool_samples {
            total.accumulate(&s.stats);
        }
        total
    }

    /// Stop the run clock (idempotent; called by the bridge at finalize).
    pub fn stop(&mut self) {
        if self.total.is_none() {
            self.total = Some(self.started.elapsed());
        }
    }

    /// The recorded iterations.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Aggregate the run.
    pub fn summary(&self) -> ProfileSummary {
        let n = self.records.len();
        let sum =
            |f: fn(&IterationRecord) -> Duration| -> Duration { self.records.iter().map(f).sum() };
        ProfileSummary {
            iterations: n,
            mean_solver: if n == 0 { Duration::ZERO } else { sum(|r| r.solver) / n as u32 },
            mean_insitu: if n == 0 { Duration::ZERO } else { sum(|r| r.insitu) / n as u32 },
            total_runtime: self.total.unwrap_or_else(|| self.started.elapsed()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_profiler() {
        let p = Profiler::new();
        let s = p.summary();
        assert_eq!(s.iterations, 0);
        assert_eq!(s.mean_solver, Duration::ZERO);
        assert_eq!(s.mean_insitu, Duration::ZERO);
    }

    #[test]
    fn means_are_computed_per_iteration() {
        let mut p = Profiler::new();
        p.record(0, Duration::from_millis(10), Duration::from_millis(2));
        p.record(1, Duration::from_millis(30), Duration::from_millis(4));
        let s = p.summary();
        assert_eq!(s.iterations, 2);
        assert_eq!(s.mean_solver, Duration::from_millis(20));
        assert_eq!(s.mean_insitu, Duration::from_millis(3));
    }

    #[test]
    fn stop_freezes_total_runtime() {
        let mut p = Profiler::new();
        std::thread::sleep(Duration::from_millis(10));
        p.stop();
        let t1 = p.summary().total_runtime;
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(p.summary().total_runtime, t1, "stop() freezes the clock");
        assert!(t1 >= Duration::from_millis(9));
    }

    #[test]
    fn backend_breakdown_aggregates_per_backend() {
        let mut p = Profiler::new();
        p.record_backend(0, "binning", Duration::from_millis(4));
        p.record_backend(0, "histogram", Duration::from_millis(1));
        p.record_backend(1, "binning", Duration::from_millis(6));
        let bd = p.backend_breakdown();
        assert_eq!(bd.len(), 2);
        assert_eq!(bd[0].backend, "binning");
        assert_eq!(bd[0].dispatches, 2);
        assert_eq!(bd[0].total_apparent, Duration::from_millis(10));
        assert_eq!(bd[0].mean_apparent, Duration::from_millis(5));
        assert_eq!(bd[1].backend, "histogram");
        assert_eq!(bd[1].dispatches, 1);
        assert_eq!(p.backend_samples().len(), 3);
        assert!(p.backend_samples().iter().all(|s| !s.tainted));
    }

    #[test]
    fn tainted_backend_samples_carry_the_flag() {
        let mut p = Profiler::new();
        p.record_backend(0, "binning", Duration::from_millis(4));
        p.record_backend_tainted(1, "binning", Duration::from_millis(254), true);
        assert!(!p.backend_samples()[0].tainted);
        assert!(p.backend_samples()[1].tainted);
        // Taint excludes a sample from comparisons, not from the
        // aggregate: the breakdown still counts every dispatch.
        assert_eq!(p.backend_breakdown()[0].dispatches, 2);
    }

    #[test]
    fn adaptive_samples_record_and_dump() {
        let mut p = Profiler::new();
        p.record_adaptive(4, "binning_suite", "probe", "device=0 mode=lockstep");
        p.record_adaptive(8, "binning_suite", "commit", "device=-1 mode=dag");
        p.record_adaptive(8, "bridge", "commit", "snapshot=cow");
        let s = p.adaptive_samples();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].step, s[0].action.as_str()), (4, "probe"));
        assert_eq!(s[0].detail, "device=0 mode=lockstep");
        assert_eq!((s[2].backend.as_str(), s[2].detail.as_str()), ("bridge", "snapshot=cow"));
    }

    #[test]
    fn pool_samples_aggregate_and_dump() {
        let mut p = Profiler::new();
        let host =
            PoolStats { hits: 3, misses: 1, bytes_served_from_cache: 1536, ..Default::default() };
        let dev = PoolStats { hits: 5, misses: 5, high_water_bytes: 4096, ..Default::default() };
        p.record_pool_stats("host", host);
        p.record_pool_stats("device0", dev);
        assert_eq!(p.pool_samples().len(), 2);
        let total = p.pool_total();
        assert_eq!(total.hits, 8);
        assert_eq!(total.misses, 6);
        assert_eq!(total.high_water_bytes, 4096);
        assert_eq!(p.pool_samples()[0].space, "host");
        assert_eq!(p.pool_samples()[0].stats.hit_rate(), 0.75);
        assert_eq!(p.pool_samples()[1].stats.hit_rate(), 0.5);
    }

    #[test]
    fn counter_samples_aggregate_and_dump() {
        let mut p = Profiler::new();
        p.record_counters(
            "binning_suite",
            CounterSnapshot {
                table_passes: 9,
                kernel_launches: 9,
                downloads: 9,
                allreduces: 1,
                fetches: 12,
                faults: FaultSnapshot::default(),
                comm: minimpi::TierSnapshot::default(),
                serve: ServeSnapshot::default(),
            },
        );
        p.record_counters(
            "data_binning",
            CounterSnapshot {
                table_passes: 90,
                kernel_launches: 90,
                downloads: 90,
                allreduces: 10,
                fetches: 27,
                faults: FaultSnapshot {
                    injected: 2,
                    retried: 3,
                    recovered: 2,
                    skipped: 0,
                    aborted: 0,
                },
                comm: minimpi::TierSnapshot {
                    intra_messages: 18,
                    intra_bytes: 1440,
                    intra_modeled_ns: 90,
                    inter_messages: 6,
                    inter_bytes: 480,
                    inter_modeled_ns: 210,
                },
                serve: ServeSnapshot {
                    delivered: 7,
                    dropped: 1,
                    payload_bytes: 640,
                    ..Default::default()
                },
            },
        );
        let total = p.counters_total();
        assert_eq!(total.table_passes, 99);
        assert_eq!(total.allreduces, 11);
        assert_eq!(total.faults.injected, 2);
        assert_eq!(total.faults.recovered, 2);
        assert_eq!(p.counter_samples().len(), 2);
        // A run without faults, tiered communication, or serving samples
        // explicit zeros.
        let quiet = &p.counter_samples()[0].counters;
        assert_eq!(quiet.faults, FaultSnapshot::default());
        assert_eq!(quiet.comm, minimpi::TierSnapshot::default());
        assert_eq!(quiet.serve, ServeSnapshot::default());
        assert_eq!(p.counter_samples()[1].counters.serve.payload_bytes, 640);
        assert_eq!(p.counters_total().comm.inter_bytes, 480);
    }

    #[test]
    fn snapshot_samples_dump_with_mode_label() {
        let mut p = Profiler::new();
        p.record_snapshot_counters(
            "cow",
            SnapshotCounterSnapshot {
                arrays_shared: 1080,
                arrays_copied: 0,
                bytes_copied: 98304,
                cow_faults: 3,
            },
        );
        assert_eq!(p.snapshot_samples().len(), 1);
        let s = &p.snapshot_samples()[0];
        assert_eq!(s.mode, "cow");
        assert_eq!((s.counters.arrays_shared, s.counters.cow_faults), (1080, 3));
    }

    #[test]
    fn scheduler_samples_aggregate_and_dump() {
        let mut p = Profiler::new();
        p.record_scheduler_counters(
            "binning_suite",
            SchedulerSnapshot { tasks: 40, steals: 7, idle_ns: 1200, critical_path_ns: 900 },
        );
        p.record_scheduler_counters(
            "histogram",
            SchedulerSnapshot { tasks: 10, steals: 0, idle_ns: 300, critical_path_ns: 100 },
        );
        let total = p.scheduler_total();
        assert_eq!((total.tasks, total.steals), (50, 7));
        assert_eq!((total.idle_ns, total.critical_path_ns), (1500, 1000));
        assert_eq!(p.scheduler_samples()[0].backend, "binning_suite");
        assert_eq!(p.scheduler_samples()[1].counters.steals, 0);
    }

    #[test]
    fn serve_samples_record_and_dump() {
        let mut p = Profiler::new();
        p.record_serve(ServeStepStats {
            step: 2,
            sessions: 512,
            delivered: 1024,
            dropped: 3,
            p50_ns: 42_000,
            p99_ns: 910_000,
            bytes_copied: 8192,
        });
        assert_eq!(p.serve_samples().len(), 1);
        assert_eq!((p.serve_samples()[0].step, p.serve_samples()[0].bytes_copied), (2, 8192));
    }
}
