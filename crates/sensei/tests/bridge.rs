//! Integration tests of the bridge: lockstep vs asynchronous execution,
//! snapshot isolation, cross-rank reduction from in situ threads, and
//! failure propagation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use devsim::{NodeConfig, SimNode};
use minimpi::World;
use parking_lot::Mutex;
use sensei::{
    AnalysisAdaptor, BackendControls, Bridge, DataAdaptor, ExecContext, ExecutionMethod,
    MeshMetadata, Result,
};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

/// A simulation-side adaptor publishing one mutable column.
struct Sim {
    node: Arc<SimNode>,
    values: Vec<f64>,
    step: u64,
}

impl Sim {
    fn new(node: Arc<SimNode>, values: Vec<f64>) -> Self {
        Sim { node, values, step: 0 }
    }
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

/// Test back-end: sums its input column (allreduced across ranks),
/// recording one result per execute, with an optional artificial delay.
struct SummingAnalysis {
    controls: BackendControls,
    results: Arc<Mutex<Vec<f64>>>,
    executes: Arc<AtomicU64>,
    finalizes: Arc<AtomicU64>,
    delay: Duration,
    fail_on_execute: bool,
}

impl SummingAnalysis {
    fn boxed(
        execution: ExecutionMethod,
        results: Arc<Mutex<Vec<f64>>>,
        executes: Arc<AtomicU64>,
        finalizes: Arc<AtomicU64>,
        delay: Duration,
    ) -> Box<dyn AnalysisAdaptor> {
        Box::new(SummingAnalysis {
            controls: BackendControls { execution, ..Default::default() },
            results,
            executes,
            finalizes,
            delay,
            fail_on_execute: false,
        })
    }
}

impl AnalysisAdaptor for SummingAnalysis {
    fn name(&self) -> &str {
        "summing"
    }
    fn controls(&self) -> &BackendControls {
        &self.controls
    }
    fn controls_mut(&mut self) -> &mut BackendControls {
        &mut self.controls
    }
    fn execute(&mut self, data: &dyn DataAdaptor, ctx: &ExecContext<'_>) -> Result<bool> {
        if self.fail_on_execute {
            return Err(sensei::Error::Analysis("injected failure".into()));
        }
        std::thread::sleep(self.delay);
        let mesh = data.mesh("bodies")?;
        let col = mesh.as_table().unwrap().column("v").unwrap().clone();
        let local: f64 = svtk::downcast::<f64>(&col)
            .unwrap()
            .to_vec()
            .map_err(sensei::Error::Hamr)?
            .iter()
            .sum();
        let global = ctx.comm.allreduce(local, |a, b| a + b);
        self.results.lock().push(global);
        self.executes.fetch_add(1, Ordering::SeqCst);
        Ok(true)
    }
    fn finalize(&mut self, _ctx: &ExecContext<'_>) -> Result<()> {
        self.finalizes.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

#[test]
fn lockstep_executes_inline_across_ranks() {
    let results = Arc::new(Mutex::new(Vec::new()));
    let executes = Arc::new(AtomicU64::new(0));
    let finalizes = Arc::new(AtomicU64::new(0));
    let (r2, e2, f2) = (results.clone(), executes.clone(), finalizes.clone());

    World::new(3).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let mut bridge = Bridge::new(node.clone());
        bridge
            .add_analysis(
                SummingAnalysis::boxed(
                    ExecutionMethod::Lockstep,
                    r2.clone(),
                    e2.clone(),
                    f2.clone(),
                    Duration::ZERO,
                ),
                &comm,
            )
            .unwrap();
        let mut sim = Sim::new(node, vec![comm.rank() as f64 + 1.0]);
        for step in 0..4 {
            sim.step = step;
            assert!(bridge.execute(&sim, &comm, Duration::from_millis(1)).unwrap());
        }
        let profiler = bridge.finalize(&comm).unwrap();
        assert_eq!(profiler.records().len(), 4);
    });

    // 3 ranks x 4 steps, every execute saw the global sum 1+2+3 = 6.
    assert_eq!(executes.load(Ordering::SeqCst), 12);
    assert_eq!(finalizes.load(Ordering::SeqCst), 3);
    let r = results.lock();
    assert_eq!(r.len(), 12);
    assert!(r.iter().all(|&v| v == 6.0));
}

#[test]
fn async_execution_overlaps_and_drains_at_finalize() {
    let results = Arc::new(Mutex::new(Vec::new()));
    let executes = Arc::new(AtomicU64::new(0));
    let finalizes = Arc::new(AtomicU64::new(0));
    let (r2, e2, f2) = (results.clone(), executes.clone(), finalizes.clone());

    World::new(2).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let mut bridge = Bridge::new(node.clone());
        // Each analysis execute takes >= 30ms; the simulation's call must
        // return in far less (deep copy + enqueue only).
        bridge
            .add_analysis(
                SummingAnalysis::boxed(
                    ExecutionMethod::Asynchronous,
                    r2.clone(),
                    e2.clone(),
                    f2.clone(),
                    Duration::from_millis(30),
                ),
                &comm,
            )
            .unwrap();
        let mut sim = Sim::new(node, vec![10.0 * (comm.rank() as f64 + 1.0)]);
        for step in 0..3 {
            sim.step = step;
            let t0 = std::time::Instant::now();
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
            assert!(
                t0.elapsed() < Duration::from_millis(25),
                "async submission must not wait for the analysis"
            );
        }
        // Finalize drains the queue: all 3 steps complete.
        let profiler = bridge.finalize(&comm).unwrap();
        // Apparent in situ cost is small even though each analysis ran 30ms.
        let s = profiler.summary();
        assert!(s.mean_insitu < Duration::from_millis(25), "apparent cost {:?}", s.mean_insitu);
    });

    assert_eq!(executes.load(Ordering::SeqCst), 6, "2 ranks x 3 steps all processed");
    assert_eq!(finalizes.load(Ordering::SeqCst), 2);
    assert!(results.lock().iter().all(|&v| v == 30.0), "allreduce on in situ threads");
}

#[test]
fn async_snapshot_isolates_from_simulation_mutation() {
    let results = Arc::new(Mutex::new(Vec::new()));
    let r2 = results.clone();

    World::new(1).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut bridge = Bridge::new(node.clone());
        bridge
            .add_analysis(
                SummingAnalysis::boxed(
                    ExecutionMethod::Asynchronous,
                    r2.clone(),
                    Arc::new(AtomicU64::new(0)),
                    Arc::new(AtomicU64::new(0)),
                    Duration::from_millis(20),
                ),
                &comm,
            )
            .unwrap();
        let mut sim = Sim::new(node, vec![1.0]);
        bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        // The simulation overwrites its state while the analysis of the
        // old snapshot may still be running.
        sim.values = vec![100.0];
        sim.step = 1;
        bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        bridge.finalize(&comm).unwrap();
    });

    assert_eq!(*results.lock(), vec![1.0, 100.0], "each step sees its own snapshot");
}

#[test]
fn mixed_backends_run_in_attachment_order_per_step() {
    let results = Arc::new(Mutex::new(Vec::new()));
    let (r_lock, r_async) = (results.clone(), results.clone());
    let _ = (r_lock, r_async);
    let lock_exec = Arc::new(AtomicU64::new(0));
    let async_exec = Arc::new(AtomicU64::new(0));
    let (le, ae) = (lock_exec.clone(), async_exec.clone());
    let res2 = results.clone();

    World::new(2).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut bridge = Bridge::new(node.clone());
        bridge
            .add_analysis(
                SummingAnalysis::boxed(
                    ExecutionMethod::Lockstep,
                    res2.clone(),
                    le.clone(),
                    Arc::new(AtomicU64::new(0)),
                    Duration::ZERO,
                ),
                &comm,
            )
            .unwrap();
        bridge
            .add_analysis(
                SummingAnalysis::boxed(
                    ExecutionMethod::Asynchronous,
                    res2.clone(),
                    ae.clone(),
                    Arc::new(AtomicU64::new(0)),
                    Duration::ZERO,
                ),
                &comm,
            )
            .unwrap();
        assert_eq!(bridge.num_backends(), 2);
        let mut sim = Sim::new(node, vec![comm.rank() as f64]);
        for step in 0..5 {
            sim.step = step;
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        }
        bridge.finalize(&comm).unwrap();
    });

    assert_eq!(lock_exec.load(Ordering::SeqCst), 10);
    assert_eq!(async_exec.load(Ordering::SeqCst), 10);
}

#[test]
fn async_analysis_error_surfaces_at_finalize() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut bridge = Bridge::new(node.clone());
        let failing = Box::new(SummingAnalysis {
            controls: BackendControls {
                execution: ExecutionMethod::Asynchronous,
                ..Default::default()
            },
            results: Arc::new(Mutex::new(Vec::new())),
            executes: Arc::new(AtomicU64::new(0)),
            finalizes: Arc::new(AtomicU64::new(0)),
            delay: Duration::ZERO,
            fail_on_execute: true,
        });
        bridge.add_analysis(failing, &comm).unwrap();
        let mut sim = Sim::new(node, vec![1.0]);
        sim.step = 0;
        // Submission itself succeeds (the failure happens on the worker).
        bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        let err = bridge.finalize(&comm).unwrap_err();
        assert!(matches!(err, sensei::Error::Analysis(_)), "got {err:?}");
    });
}

#[test]
fn profiler_records_solver_and_insitu_times() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut bridge = Bridge::new(node.clone());
        bridge
            .add_analysis(
                SummingAnalysis::boxed(
                    ExecutionMethod::Lockstep,
                    Arc::new(Mutex::new(Vec::new())),
                    Arc::new(AtomicU64::new(0)),
                    Arc::new(AtomicU64::new(0)),
                    Duration::from_millis(10),
                ),
                &comm,
            )
            .unwrap();
        let mut sim = Sim::new(node, vec![1.0]);
        for step in 0..2 {
            sim.step = step;
            bridge.execute(&sim, &comm, Duration::from_millis(42)).unwrap();
        }
        let profiler = bridge.finalize(&comm).unwrap();
        let recs = profiler.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].step, 0);
        assert_eq!(recs[0].solver, Duration::from_millis(42));
        assert!(recs[0].insitu >= Duration::from_millis(9), "lockstep cost measured");
        let s = profiler.summary();
        assert!(s.total_runtime >= Duration::from_millis(20));
    });
}

#[test]
fn frequency_gates_backend_execution() {
    let executes = Arc::new(AtomicU64::new(0));
    let async_execs = Arc::new(AtomicU64::new(0));
    let (e2, a2) = (executes.clone(), async_execs.clone());
    World::new(1).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut bridge = Bridge::new(node.clone());
        // Lockstep back-end every 3rd step...
        let mut lock = SummingAnalysis::boxed(
            ExecutionMethod::Lockstep,
            Arc::new(Mutex::new(Vec::new())),
            e2.clone(),
            Arc::new(AtomicU64::new(0)),
            Duration::ZERO,
        );
        lock.controls_mut().frequency = 3;
        bridge.add_analysis(lock, &comm).unwrap();
        // ...and an asynchronous one every 2nd step.
        let mut asy = SummingAnalysis::boxed(
            ExecutionMethod::Asynchronous,
            Arc::new(Mutex::new(Vec::new())),
            a2.clone(),
            Arc::new(AtomicU64::new(0)),
            Duration::ZERO,
        );
        asy.controls_mut().frequency = 2;
        bridge.add_analysis(asy, &comm).unwrap();

        let mut sim = Sim::new(node, vec![1.0]);
        for step in 1..=12 {
            sim.step = step;
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        }
        bridge.finalize(&comm).unwrap();
    });
    assert_eq!(executes.load(Ordering::SeqCst), 4, "steps 3, 6, 9, 12");
    assert_eq!(async_execs.load(Ordering::SeqCst), 6, "steps 2, 4, ..., 12");
}

/// What one [`Planner`] saw of its group in one call: its id, whether it
/// ran in a group, whether it ran last, and the ids the earlier members
/// handed it (taken only by the last).
type Seen = (usize, bool, bool, Vec<usize>);

/// Test back-end that plans task graphs (or not), with the name, mesh and
/// controls a grouping test varies. Every member but the last of a group
/// puts its id into the step's slot; the last takes them.
struct Planner {
    id: usize,
    name: &'static str,
    mesh: &'static str,
    plans: bool,
    controls: BackendControls,
    seen: Arc<Mutex<Vec<Seen>>>,
}

impl Planner {
    fn boxed(id: usize, execution: ExecutionMethod, seen: &Arc<Mutex<Vec<Seen>>>) -> Box<Self> {
        Box::new(Planner {
            id,
            name: "planner",
            mesh: "bodies",
            plans: true,
            controls: BackendControls { execution, ..Default::default() },
            seen: seen.clone(),
        })
    }

    fn record(&self, ctx: &ExecContext<'_>) {
        let slot = ctx.group_slot();
        let mut handed = Vec::new();
        match slot {
            Some(slot) if !ctx.is_last_member() => slot.put(Box::new(self.id)),
            Some(slot) => {
                handed = slot.take().into_iter().map(|s| *s.downcast().unwrap()).collect()
            }
            None => {}
        }
        self.seen.lock().push((self.id, slot.is_some(), ctx.is_last_member(), handed));
    }
}

impl AnalysisAdaptor for Planner {
    fn name(&self) -> &str {
        self.name
    }
    fn controls(&self) -> &BackendControls {
        &self.controls
    }
    fn controls_mut(&mut self) -> &mut BackendControls {
        &mut self.controls
    }
    fn required_arrays(&self) -> sensei::DataRequirements {
        sensei::DataRequirements::none().with_mesh(self.mesh)
    }
    fn execute(&mut self, _data: &dyn DataAdaptor, ctx: &ExecContext<'_>) -> Result<bool> {
        self.record(ctx);
        Ok(true)
    }
    fn supports_dag(&self) -> bool {
        self.plans
    }
    fn execute_dag(
        &mut self,
        _data: &dyn DataAdaptor,
        ctx: &ExecContext<'_>,
        _sched: &mut sensei::DagScheduler,
    ) -> Result<bool> {
        self.record(ctx);
        Ok(true)
    }
}

#[test]
fn compatible_back_ends_share_one_engine_and_run_in_attach_order() {
    for execution in
        [ExecutionMethod::Lockstep, ExecutionMethod::Asynchronous, ExecutionMethod::Dag]
    {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        World::new(1).run(move |comm| {
            let node = SimNode::new(NodeConfig::fast_test(1));
            let mut bridge = Bridge::new(node.clone());
            for id in 0..3 {
                bridge.add_analysis(Planner::boxed(id, execution, &log), &comm).unwrap();
            }
            assert_eq!((bridge.num_backends(), bridge.num_engines()), (3, 1));
            assert_eq!(bridge.backend_controls(2).unwrap().execution, execution);
            let mut sim = Sim::new(node, vec![1.0]);
            for step in 0..2 {
                sim.step = step;
                bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
            }
            let profiler = bridge.finalize(&comm).unwrap();
            // One row per member under its own label, and one sample of
            // apparent time per member and step.
            let labels: Vec<_> =
                profiler.counter_samples().iter().map(|s| s.backend.as_str()).collect();
            assert_eq!(labels, ["planner", "planner#2", "planner#3"]);
            assert_eq!(profiler.scheduler_samples().len(), 3);
            assert_eq!(profiler.backend_samples().len(), 6);
        });
        let step =
            [(0, true, false, vec![]), (1, true, false, vec![]), (2, true, true, vec![0, 1])];
        let expect: Vec<Seen> = step.iter().chain(&step).cloned().collect();
        assert_eq!(*seen.lock(), expect, "{execution:?}");
    }
}

#[test]
fn only_compatible_back_ends_share_an_engine() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    World::new(1).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let mut bridge = Bridge::new(node.clone());
        let lockstep = |id| Planner::boxed(id, ExecutionMethod::Lockstep, &seen);
        let mut attach = |b: Box<Planner>, engines: usize| {
            bridge.add_analysis(b, &comm).unwrap();
            assert_eq!(bridge.num_engines(), engines, "after back-end {}", bridge.num_backends());
        };
        attach(lockstep(0), 1);
        attach(Box::new(Planner { name: "other", ..*lockstep(1) }), 2);
        attach(Box::new(Planner { mesh: "other", ..*lockstep(2) }), 3);
        attach(Box::new(Planner { plans: false, ..*lockstep(3) }), 4);
        let mut b = lockstep(4);
        b.controls.frequency = 2;
        attach(b, 5);
        let mut b = lockstep(5);
        b.controls.device = sensei::DeviceSpec::Host;
        attach(b, 6);
        // A second non-graph back-end does not join the first either.
        attach(Box::new(Planner { plans: false, ..*lockstep(6) }), 7);
        // Same as back-end 0: joins its engine.
        attach(lockstep(7), 7);

        // A reconfigurable back-end runs alone, and its engine takes no
        // compatible back-end attached after it.
        let (seen2, controls) = (seen.clone(), *lockstep(8).controls());
        let factory: sensei::AdaptorFactory = Box::new(move |c: &BackendControls| {
            let mut b = Planner::boxed(8, c.execution, &seen2);
            b.controls = *c;
            Ok(b as Box<dyn AnalysisAdaptor>)
        });
        bridge.add_reconfigurable_analysis(controls, factory, &comm).unwrap();
        assert_eq!(bridge.num_engines(), 8);
        let mut one = Bridge::new(node.clone());
        let (seen3, seen4) = (seen.clone(), seen.clone());
        one.add_reconfigurable_analysis(
            controls,
            Box::new(move |c: &BackendControls| {
                Ok(Planner::boxed(9, c.execution, &seen3) as Box<dyn AnalysisAdaptor>)
            }),
            &comm,
        )
        .unwrap();
        one.add_analysis(Planner::boxed(10, ExecutionMethod::Lockstep, &seen4), &comm).unwrap();
        assert_eq!(one.num_engines(), 2);

        // A worker that has started takes no new member.
        let asynchronous = |id| Planner::boxed(id, ExecutionMethod::Asynchronous, &seen);
        let mut late = Bridge::new(node.clone());
        late.add_analysis(asynchronous(11), &comm).unwrap();
        late.add_analysis(asynchronous(12), &comm).unwrap();
        assert_eq!(late.num_engines(), 1);
        late.execute(&Sim::new(node.clone(), vec![1.0]), &comm, Duration::ZERO).unwrap();
        late.add_analysis(asynchronous(13), &comm).unwrap();
        assert_eq!(late.num_engines(), 2);
        for b in [bridge, one, late] {
            b.finalize(&comm).unwrap();
        }
    });
}
