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

    /// Dump the adaptive decision log as CSV.
    pub fn adaptive_csv(&self) -> String {
        let mut out = String::from("step,backend,action,detail\n");
        for s in &self.adaptive_samples {
            out.push_str(&format!("{},{},{},{}\n", s.step, s.backend, s.action, s.detail));
        }
        out
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

    /// Dump the per-backend counter samples as CSV: work counters, the
    /// failure/recovery outcome counters, then the per-tier communication
    /// traffic (intra- vs inter-node messages, bytes, and modeled time).
    ///
    /// The schema is fixed: every column is emitted for every row, with
    /// explicit zeros for features a run never exercised (no ragged or
    /// blank rows), so window-parsing consumers — the adaptive
    /// controller's offline analysis included — can rely on column
    /// positions. The full header is pinned by `csv_headers_are_pinned`.
    pub fn counters_csv(&self) -> String {
        let mut out = String::from(
            "backend,table_passes,kernel_launches,downloads,allreduces,fetches,\
             faults_injected,faults_retried,faults_recovered,faults_skipped,faults_aborted,\
             intra_messages,intra_bytes,intra_modeled_ns,\
             inter_messages,inter_bytes,inter_modeled_ns,\
             serve_delivered,serve_dropped,serve_bytes\n",
        );
        for s in &self.counter_samples {
            let c = &s.counters;
            let f = &c.faults;
            let m = &c.comm;
            let v = &c.serve;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                s.backend,
                c.table_passes,
                c.kernel_launches,
                c.downloads,
                c.allreduces,
                c.fetches,
                f.injected,
                f.retried,
                f.recovered,
                f.skipped,
                f.aborted,
                m.intra_messages,
                m.intra_bytes,
                m.intra_modeled_ns,
                m.inter_messages,
                m.inter_bytes,
                m.inter_modeled_ns,
                v.delivered,
                v.dropped,
                v.payload_bytes,
            ));
        }
        out
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

    /// Dump the snapshot-layer samples as CSV.
    pub fn snapshot_csv(&self) -> String {
        let mut out = String::from("mode,arrays_shared,arrays_copied,bytes_copied,cow_faults\n");
        for s in &self.snapshot_samples {
            let c = &s.counters;
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                s.mode, c.arrays_shared, c.arrays_copied, c.bytes_copied, c.cow_faults,
            ));
        }
        out
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

    /// Dump the per-backend scheduler samples as CSV.
    pub fn scheduler_csv(&self) -> String {
        let mut out = String::from("backend,tasks,steals,idle_ns,critical_path_ns\n");
        for s in &self.scheduler_samples {
            let c = &s.counters;
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                s.backend, c.tasks, c.steals, c.idle_ns, c.critical_path_ns,
            ));
        }
        out
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

    /// Dump the per-step serving samples as CSV: sessions registered,
    /// frames delivered/dropped, client-observed delivery-latency
    /// percentiles, and the bytes publication serialized (once per step,
    /// independent of session count).
    pub fn serve_csv(&self) -> String {
        let mut out = String::from("step,sessions,delivered,dropped,p50_ns,p99_ns,bytes_copied\n");
        for s in &self.serve_samples {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                s.step, s.sessions, s.delivered, s.dropped, s.p50_ns, s.p99_ns, s.bytes_copied,
            ));
        }
        out
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

    /// Dump the records as CSV (`step,solver_s,insitu_s`), the format the
    /// analysis scripts in the paper's reproducibility appendix consume.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("step,solver_s,insitu_s\n");
        for r in &self.records {
            out.push_str(&format!(
                "{},{:.9},{:.9}\n",
                r.step,
                r.solver.as_secs_f64(),
                r.insitu.as_secs_f64()
            ));
        }
        out
    }

    /// Dump the per-backend samples as CSV
    /// (`step,backend,apparent_s,tainted`).
    pub fn backend_csv(&self) -> String {
        let mut out = String::from("step,backend,apparent_s,tainted\n");
        for s in &self.backend_samples {
            out.push_str(&format!(
                "{},{},{:.9},{}\n",
                s.step,
                s.backend,
                s.apparent.as_secs_f64(),
                s.tainted as u8
            ));
        }
        out
    }

    /// Dump the per-space pool samples as CSV.
    pub fn pool_csv(&self) -> String {
        let mut out = String::from(
            "space,hits,misses,hit_rate,bytes_from_cache,raw_allocs,raw_alloc_bytes,\
             high_water_bytes,reclaims,trims\n",
        );
        for s in &self.pool_samples {
            let st = &s.stats;
            out.push_str(&format!(
                "{},{},{},{:.4},{},{},{},{},{},{}\n",
                s.space,
                st.hits,
                st.misses,
                st.hit_rate(),
                st.bytes_served_from_cache,
                st.raw_allocs,
                st.raw_alloc_bytes,
                st.high_water_bytes,
                st.reclaims,
                st.trims,
            ));
        }
        out
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

        let csv = p.backend_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "step,backend,apparent_s,tainted");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("0,binning,0.004"));
        assert!(lines[1].ends_with(",0"), "untainted samples dump a 0 flag");
    }

    #[test]
    fn tainted_backend_samples_carry_the_flag_through_the_csv() {
        let mut p = Profiler::new();
        p.record_backend(0, "binning", Duration::from_millis(4));
        p.record_backend_tainted(1, "binning", Duration::from_millis(254), true);
        assert!(!p.backend_samples()[0].tainted);
        assert!(p.backend_samples()[1].tainted);
        let lines: Vec<_> = p.backend_csv().lines().map(String::from).collect();
        assert!(lines[1].ends_with(",0"));
        assert!(lines[2].ends_with(",1"));
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
        assert_eq!(p.adaptive_samples().len(), 3);
        let lines: Vec<_> = p.adaptive_csv().lines().map(String::from).collect();
        assert_eq!(lines[0], "step,backend,action,detail");
        assert_eq!(lines[1], "4,binning_suite,probe,device=0 mode=lockstep");
        assert_eq!(lines[3], "8,bridge,commit,snapshot=cow");
    }

    /// Every CSV the profiler emits has a fixed schema: the full headers
    /// are pinned here so a column appended without updating every
    /// consumer (the adaptive controller's window parsing included) fails
    /// loudly instead of silently misaligning.
    #[test]
    fn csv_headers_are_pinned() {
        let p = Profiler::new();
        assert_eq!(p.to_csv(), "step,solver_s,insitu_s\n");
        assert_eq!(p.backend_csv(), "step,backend,apparent_s,tainted\n");
        assert_eq!(
            p.counters_csv(),
            "backend,table_passes,kernel_launches,downloads,allreduces,fetches,\
             faults_injected,faults_retried,faults_recovered,faults_skipped,faults_aborted,\
             intra_messages,intra_bytes,intra_modeled_ns,\
             inter_messages,inter_bytes,inter_modeled_ns,\
             serve_delivered,serve_dropped,serve_bytes\n"
        );
        assert_eq!(p.snapshot_csv(), "mode,arrays_shared,arrays_copied,bytes_copied,cow_faults\n");
        assert_eq!(p.scheduler_csv(), "backend,tasks,steals,idle_ns,critical_path_ns\n");
        assert_eq!(
            p.pool_csv(),
            "space,hits,misses,hit_rate,bytes_from_cache,raw_allocs,raw_alloc_bytes,\
             high_water_bytes,reclaims,trims\n"
        );
        assert_eq!(p.adaptive_csv(), "step,backend,action,detail\n");
        assert_eq!(p.serve_csv(), "step,sessions,delivered,dropped,p50_ns,p99_ns,bytes_copied\n");
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

        let csv = p.pool_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("space,hits,misses,hit_rate"));
        assert!(lines[1].starts_with("host,3,1,0.7500,1536"));
        assert!(lines[2].starts_with("device0,5,5,0.5000"));
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
        let csv = p.counters_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "backend,table_passes,kernel_launches,downloads,allreduces,fetches,\
             faults_injected,faults_retried,faults_recovered,faults_skipped,faults_aborted,\
             intra_messages,intra_bytes,intra_modeled_ns,\
             inter_messages,inter_bytes,inter_modeled_ns,\
             serve_delivered,serve_dropped,serve_bytes"
        );
        // A run without faults, tiered communication, or serving dumps
        // explicit zeros in every column — never a ragged row.
        assert_eq!(lines[1], "binning_suite,9,9,9,1,12,0,0,0,0,0,0,0,0,0,0,0,0,0,0");
        assert_eq!(lines[2], "data_binning,90,90,90,10,27,2,3,2,0,0,18,1440,90,6,480,210,7,1,640");
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
        let csv = p.snapshot_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "mode,arrays_shared,arrays_copied,bytes_copied,cow_faults");
        assert_eq!(lines[1], "cow,1080,0,98304,3");
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
        let csv = p.scheduler_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "backend,tasks,steals,idle_ns,critical_path_ns");
        assert_eq!(lines[1], "binning_suite,40,7,1200,900");
        assert_eq!(lines[2], "histogram,10,0,300,100");
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
        let lines: Vec<_> = p.serve_csv().lines().map(String::from).collect();
        assert_eq!(lines[0], "step,sessions,delivered,dropped,p50_ns,p99_ns,bytes_copied");
        assert_eq!(lines[1], "2,512,1024,3,42000,910000,8192");
    }

    #[test]
    fn csv_has_header_and_one_row_per_record() {
        let mut p = Profiler::new();
        p.record(5, Duration::from_secs(1), Duration::from_millis(500));
        let csv = p.to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "step,solver_s,insitu_s");
        assert!(lines[1].starts_with("5,1.0"));
    }
}
