//! Worker-failure paths: analyses that error or panic mid-run must not
//! take the solver down, must surface at finalize, and must not leak
//! snapshots or pool blocks — under every overflow policy and recovery
//! policy, and under both policies of the one worker engine (`Flaky`
//! plans no task graphs, so `dag` must behave exactly like
//! `asynchronous` here).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use devsim::{MemSpace, NodeConfig, SimNode};
use minimpi::World;
use sensei::{
    AnalysisAdaptor, AnalysisCounters, BackendControls, Bridge, DataAdaptor, ExecContext,
    ExecutionMethod, MeshMetadata, OverflowPolicy, RecoveryPolicy, Result,
};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

/// A simulation-side adaptor publishing one host column (deep-copied into
/// every asynchronous snapshot, so leaked snapshots show up as leaked
/// host-pool bytes).
struct Sim {
    node: Arc<SimNode>,
    values: Vec<f64>,
    step: u64,
}

impl DataAdaptor for Sim {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
        Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
    }
    fn mesh(&self, name: &str) -> Result<DataObject> {
        assert_eq!(name, "bodies");
        let mut t = TableData::new();
        let arr = HamrDataArray::<f64>::from_slice(
            "v",
            self.node.clone(),
            &self.values,
            1,
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .map_err(sensei::Error::Hamr)?;
        t.set_column(arr.as_array_ref());
        Ok(DataObject::Table(t))
    }
    fn time(&self) -> f64 {
        self.step as f64
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

/// A back-end that errors or panics on chosen execute attempts (0-based
/// attempt index, counted across retries).
struct Flaky {
    controls: BackendControls,
    counters: Arc<AnalysisCounters>,
    attempts: Arc<AtomicU64>,
    successes: Arc<AtomicU64>,
    finalizes: Arc<AtomicU64>,
    fail_on: Vec<u64>,
    panic_instead: bool,
}

impl Flaky {
    fn boxed(
        execution: ExecutionMethod,
        overflow: OverflowPolicy,
        recovery: RecoveryPolicy,
        fail_on: Vec<u64>,
        panic_instead: bool,
    ) -> (Box<dyn AnalysisAdaptor>, Arc<AnalysisCounters>, Arc<AtomicU64>, Arc<AtomicU64>) {
        let counters = AnalysisCounters::new();
        let attempts = Arc::new(AtomicU64::new(0));
        let successes = Arc::new(AtomicU64::new(0));
        let adaptor = Box::new(Flaky {
            controls: BackendControls { execution, overflow, recovery, ..Default::default() },
            counters: counters.clone(),
            attempts: attempts.clone(),
            successes: successes.clone(),
            finalizes: Arc::new(AtomicU64::new(0)),
            fail_on,
            panic_instead,
        });
        (adaptor, counters, attempts, successes)
    }
}

impl AnalysisAdaptor for Flaky {
    fn name(&self) -> &str {
        "flaky"
    }
    fn controls(&self) -> &BackendControls {
        &self.controls
    }
    fn controls_mut(&mut self) -> &mut BackendControls {
        &mut self.controls
    }
    fn counters(&self) -> Option<Arc<AnalysisCounters>> {
        Some(self.counters.clone())
    }
    fn execute(&mut self, data: &dyn DataAdaptor, _ctx: &ExecContext<'_>) -> Result<bool> {
        let attempt = self.attempts.fetch_add(1, Ordering::SeqCst);
        if self.fail_on.contains(&attempt) {
            if self.panic_instead {
                panic!("flaky analysis panicked on attempt {attempt}");
            }
            return Err(sensei::Error::Analysis(format!("flaky failure on attempt {attempt}")));
        }
        // Touch the data like a real back-end (reads the snapshot copy on
        // the worker thread).
        let mesh = data.mesh("bodies")?;
        let col = mesh.as_table().unwrap().column("v").unwrap().clone();
        let _sum: f64 = svtk::downcast::<f64>(&col)
            .unwrap()
            .to_vec()
            .map_err(sensei::Error::Hamr)?
            .iter()
            .sum();
        self.counters.add_table_passes(1);
        self.successes.fetch_add(1, Ordering::SeqCst);
        Ok(true)
    }
    fn finalize(&mut self, _ctx: &ExecContext<'_>) -> Result<()> {
        self.finalizes.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// The snapshot-fed modes: one worker engine, the mode is its policy.
const WORKER_MODES: [ExecutionMethod; 2] = [ExecutionMethod::Asynchronous, ExecutionMethod::Dag];

/// Run `test` on a fresh one-rank world under each worker mode.
fn each_worker_mode(test: impl Fn(ExecutionMethod, minimpi::Comm) + Send + Sync) {
    for mode in WORKER_MODES {
        World::new(1).run(|comm| test(mode, comm));
    }
}

/// Drive `steps` bridge iterations, tolerating per-step dispatch errors
/// (the solver keeps stepping regardless), and return how many execute
/// calls errored.
fn run_tolerant(bridge: &mut Bridge, sim: &mut Sim, comm: &minimpi::Comm, steps: u64) -> u64 {
    let mut errors = 0;
    for step in 0..steps {
        sim.step = step;
        if bridge.execute(sim as &dyn DataAdaptor, comm, Duration::ZERO).is_err() {
            errors += 1;
        }
    }
    errors
}

#[test]
fn erroring_async_worker_surfaces_at_finalize_under_each_policy() {
    for mode in WORKER_MODES {
        for overflow in [OverflowPolicy::Block, OverflowPolicy::DropOldest, OverflowPolicy::Error] {
            World::new(1).run(move |comm| {
                let node = SimNode::new(NodeConfig::fast_test(1));
                let baseline = node.pool_stats(MemSpace::Host).live_bytes;
                let (adaptor, counters, _attempts, successes) =
                    Flaky::boxed(mode, overflow, RecoveryPolicy::Abort, vec![1], false);
                let mut bridge = Bridge::new(node.clone());
                bridge.add_analysis(adaptor, &comm).unwrap();
                let mut sim = Sim { node: node.clone(), values: vec![1.0, 2.0, 3.0], step: 0 };
                // The solver completes all 6 steps even though the worker
                // dies on its second snapshot.
                run_tolerant(&mut bridge, &mut sim, &comm, 6);
                let err = bridge.finalize(&comm).unwrap_err();
                assert!(
                    matches!(err, sensei::Error::Analysis(_)),
                    "({mode:?}, {overflow:?}) finalize reports the worker failure, got {err:?}"
                );
                assert_eq!(
                    successes.load(Ordering::SeqCst),
                    1,
                    "({mode:?}, {overflow:?}) first step ran"
                );
                let f = counters.snapshot().faults;
                assert_eq!((f.injected, f.aborted), (1, 1), "({mode:?}, {overflow:?})");
                // No snapshot or pool blocks leak: queued snapshots are
                // freed when the engine shuts down.
                assert_eq!(
                    node.pool_stats(MemSpace::Host).live_bytes,
                    baseline,
                    "({mode:?}, {overflow:?}) host pool back to baseline"
                );
            });
        }
    }
}

#[test]
fn failed_worker_partial_counters_survive_finalize() {
    // Regression: a worker that aborts at step N still completed steps
    // 0..N; `Bridge::finalize` used to drop the profiler (and with it the
    // merged counter samples) when surfacing the typed error, losing
    // those partial totals. `finalize_partial` returns both.
    each_worker_mode(|mode, comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let (adaptor, counters, _attempts, successes) =
            Flaky::boxed(mode, OverflowPolicy::Block, RecoveryPolicy::Abort, vec![2], false);
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(adaptor, &comm).unwrap();
        let mut sim = Sim { node: node.clone(), values: vec![1.0, 2.0], step: 0 };
        run_tolerant(&mut bridge, &mut sim, &comm, 6);
        let (profiler, err) = bridge.finalize_partial(&comm);
        let err = err.expect("the aborted worker must surface its typed error");
        assert!(matches!(err, sensei::Error::Analysis(_)), "got {err:?}");
        assert_eq!(successes.load(Ordering::SeqCst), 2, "two steps completed before the abort");

        // The partial totals from the completed steps were merged into the
        // profiler before the error surfaced.
        let sample = profiler
            .counter_samples()
            .iter()
            .find(|s| s.backend == "flaky")
            .expect("failed worker's counters are still recorded");
        assert_eq!(sample.counters.table_passes, 2, "partial work counters survive");
        assert_eq!((sample.counters.faults.injected, sample.counters.faults.aborted), (1, 1));
        assert_eq!(sample.counters, counters.snapshot());
    });
}

#[test]
fn panicking_async_worker_is_reported_not_fatal() {
    each_worker_mode(|mode, comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let baseline = node.pool_stats(MemSpace::Host).live_bytes;
        let (adaptor, counters, _attempts, _successes) =
            Flaky::boxed(mode, OverflowPolicy::Block, RecoveryPolicy::Abort, vec![0], true);
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(adaptor, &comm).unwrap();
        let mut sim = Sim { node: node.clone(), values: vec![4.0], step: 0 };
        run_tolerant(&mut bridge, &mut sim, &comm, 4);
        let err = bridge.finalize(&comm).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("panicked"), "panic converted to a typed error, got: {msg}");
        assert_eq!(counters.snapshot().faults.aborted, 1);
        assert_eq!(node.pool_stats(MemSpace::Host).live_bytes, baseline, "no leaked snapshot");
    });
}

#[test]
fn skip_step_keeps_the_worker_alive_through_failures() {
    each_worker_mode(|mode, comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        // Attempts 1 and 3 fail; under SkipStep the worker drops those
        // iterations and keeps consuming.
        let (adaptor, counters, attempts, successes) =
            Flaky::boxed(mode, OverflowPolicy::Block, RecoveryPolicy::SkipStep, vec![1, 3], false);
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(adaptor, &comm).unwrap();
        let mut sim = Sim { node: node.clone(), values: vec![1.0], step: 0 };
        let errors = run_tolerant(&mut bridge, &mut sim, &comm, 6);
        assert_eq!(errors, 0, "skip_step never fails a dispatch");
        bridge.finalize(&comm).expect("skipped steps are not a finalize failure");
        assert_eq!(attempts.load(Ordering::SeqCst), 6, "every snapshot was attempted");
        assert_eq!(successes.load(Ordering::SeqCst), 4, "two iterations dropped");
        let f = counters.snapshot().faults;
        assert_eq!((f.injected, f.skipped, f.aborted), (2, 2, 0));
    });
}

#[test]
fn retry_recovers_an_async_panic_within_budget() {
    each_worker_mode(|mode, comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let (adaptor, counters, _attempts, successes) = Flaky::boxed(
            mode,
            OverflowPolicy::Block,
            RecoveryPolicy::Retry { max_retries: 2, backoff_ms: 0 },
            vec![2],
            true,
        );
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(adaptor, &comm).unwrap();
        let mut sim = Sim { node: node.clone(), values: vec![1.0], step: 0 };
        let errors = run_tolerant(&mut bridge, &mut sim, &comm, 4);
        assert_eq!(errors, 0);
        bridge.finalize(&comm).unwrap();
        assert_eq!(successes.load(Ordering::SeqCst), 4, "all 4 steps eventually processed");
        let f = counters.snapshot().faults;
        assert_eq!((f.injected, f.retried, f.recovered, f.aborted), (1, 1, 1, 0));
    });
}

#[test]
fn inline_panic_is_caught_and_recovered_by_retry() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let (adaptor, counters, _attempts, successes) = Flaky::boxed(
            ExecutionMethod::Lockstep,
            OverflowPolicy::Block,
            RecoveryPolicy::Retry { max_retries: 3, backoff_ms: 0 },
            vec![0],
            true,
        );
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(adaptor, &comm).unwrap();
        let mut sim = Sim { node: node.clone(), values: vec![2.0], step: 0 };
        let errors = run_tolerant(&mut bridge, &mut sim, &comm, 3);
        assert_eq!(errors, 0, "the panic is retried inline, the solver never sees it");
        bridge.finalize(&comm).unwrap();
        assert_eq!(successes.load(Ordering::SeqCst), 3);
        let f = counters.snapshot().faults;
        assert_eq!((f.injected, f.retried, f.recovered), (1, 1, 1));
    });
}

#[test]
fn inline_abort_propagates_but_solver_chooses_to_continue() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let (adaptor, counters, _attempts, successes) = Flaky::boxed(
            ExecutionMethod::Lockstep,
            OverflowPolicy::Block,
            RecoveryPolicy::Abort,
            vec![1],
            false,
        );
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(adaptor, &comm).unwrap();
        let mut sim = Sim { node: node.clone(), values: vec![2.0], step: 0 };
        let errors = run_tolerant(&mut bridge, &mut sim, &comm, 4);
        assert_eq!(errors, 1, "exactly the failing step errored");
        bridge.finalize(&comm).unwrap();
        assert_eq!(successes.load(Ordering::SeqCst), 3);
        assert_eq!(counters.snapshot().faults.aborted, 1);
    });
}
