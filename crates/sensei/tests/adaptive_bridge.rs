//! The closed profiler loop at the bridge level: taint-marked samples
//! (retry backoff must not look like real cost), mid-run reconfiguration
//! that changes *when* work runs but never *what* it computes, and the
//! measurement-driven controller converging on a real bridge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use devsim::{NodeConfig, SimNode};
use minimpi::World;
use sensei::{
    AdaptiveConfig, AnalysisAdaptor, AnalysisCounters, BackendControls, Bridge, DataAdaptor,
    DeviceSpec, ExecContext, ExecutionMethod, MeshMetadata, RecoveryPolicy, Result, SnapshotMode,
};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

/// A simulation adaptor publishing one deterministic host column whose
/// values depend only on the step (splitmix64, same idiom as the bench
/// producers).
struct Sim {
    node: Arc<SimNode>,
    rows: usize,
    step: u64,
}

fn field_value(step: u64, i: u64) -> f64 {
    let mut z = step.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) as f64 / u64::MAX as f64
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
        let values: Vec<f64> = (0..self.rows).map(|i| field_value(self.step, i as u64)).collect();
        let mut t = TableData::new();
        let arr = HamrDataArray::<f64>::from_slice(
            "v",
            self.node.clone(),
            &values,
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

/// A deterministic reduction back-end streaming per-step sums into a
/// shared sink (position-independent: a rebuild mid-run changes nothing
/// about what any step computes). Optionally sleeps per dispatch as a
/// placement-dependent synthetic cost, and optionally fails chosen
/// attempts to exercise retry recovery.
struct Summer {
    controls: BackendControls,
    counters: Arc<AnalysisCounters>,
    sink: Arc<Mutex<Vec<(u64, f64)>>>,
    attempts: Arc<AtomicU64>,
    fail_on: Vec<u64>,
    host_cost: Duration,
    device_cost: Duration,
}

impl AnalysisAdaptor for Summer {
    fn name(&self) -> &str {
        "summer"
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
            return Err(sensei::Error::Analysis(format!("injected fault on attempt {attempt}")));
        }
        let cost = match self.controls.device {
            DeviceSpec::Host => self.host_cost,
            _ => self.device_cost,
        };
        if !cost.is_zero() {
            std::thread::sleep(cost);
        }
        let mesh = data.mesh("bodies")?;
        let col = mesh.as_table().unwrap().column("v").unwrap().clone();
        let sum: f64 = svtk::downcast::<f64>(&col)
            .unwrap()
            .to_vec()
            .map_err(sensei::Error::Hamr)?
            .iter()
            .sum();
        self.counters.add_table_passes(1);
        self.sink.lock().unwrap().push((data.time_step(), sum));
        Ok(true)
    }
}

struct SummerSpec {
    sink: Arc<Mutex<Vec<(u64, f64)>>>,
    attempts: Arc<AtomicU64>,
    fail_on: Vec<u64>,
    host_cost: Duration,
    device_cost: Duration,
}

impl SummerSpec {
    fn quiet() -> Self {
        SummerSpec {
            sink: Arc::new(Mutex::new(Vec::new())),
            attempts: Arc::new(AtomicU64::new(0)),
            fail_on: Vec::new(),
            host_cost: Duration::ZERO,
            device_cost: Duration::ZERO,
        }
    }

    fn build(&self, controls: BackendControls) -> Box<dyn AnalysisAdaptor> {
        Box::new(Summer {
            controls,
            counters: AnalysisCounters::new(),
            sink: self.sink.clone(),
            attempts: self.attempts.clone(),
            fail_on: self.fail_on.clone(),
            host_cost: self.host_cost,
            device_cost: self.device_cost,
        })
    }

    fn factory(&self) -> sensei::AdaptorFactory {
        let sink = self.sink.clone();
        let attempts = self.attempts.clone();
        let fail_on = self.fail_on.clone();
        let (host_cost, device_cost) = (self.host_cost, self.device_cost);
        Box::new(move |controls: &BackendControls| {
            Ok(Box::new(Summer {
                controls: *controls,
                counters: AnalysisCounters::new(),
                sink: sink.clone(),
                attempts: attempts.clone(),
                fail_on: fail_on.clone(),
                host_cost,
                device_cost,
            }) as Box<dyn AnalysisAdaptor>)
        })
    }

    fn sorted_results(&self) -> Vec<(u64, f64)> {
        let mut v = self.sink.lock().unwrap().clone();
        v.sort_by_key(|(s, _)| *s);
        v
    }
}

fn drive(bridge: &mut Bridge, sim: &mut Sim, comm: &minimpi::Comm, steps: u64) {
    for step in 0..steps {
        sim.step = step;
        bridge.execute(sim as &dyn DataAdaptor, comm, Duration::from_millis(1)).unwrap();
    }
}

/// Satellite regression: one injected fault under `Retry` sleeps a real
/// backoff inside dispatch; the sample must be flagged tainted and the
/// controller's window must skip it instead of reading the backoff as a
/// workload shift.
#[test]
fn retry_backoff_taints_the_sample_and_the_window_skips_it() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let mut spec = SummerSpec::quiet();
        spec.fail_on = vec![4];
        let controls = BackendControls {
            execution: ExecutionMethod::Lockstep,
            device: DeviceSpec::Host,
            recovery: RecoveryPolicy::Retry { max_retries: 2, backoff_ms: 20 },
            ..Default::default()
        };
        let mut bridge = Bridge::new(node.clone());
        bridge.add_reconfigurable_analysis(controls, spec.factory(), &comm).unwrap();
        // All tuning off: the controller settles immediately and only
        // watches for drift — exactly the state a backoff spike would
        // corrupt into a spurious re-probe if it were not tainted.
        bridge.enable_adaptive(AdaptiveConfig {
            window: 2,
            warmup: 0,
            tune_placement: false,
            tune_execution: false,
            tune_snapshot: false,
            ..Default::default()
        });
        let mut sim = Sim { node: node.clone(), rows: 64, step: 0 };
        drive(&mut bridge, &mut sim, &comm, 10);

        let ctrl = bridge.adaptive_controller().expect("adaptive enabled");
        assert!(ctrl.settled());
        assert_eq!(ctrl.tainted_skipped(), 1, "exactly the faulted step was skipped");
        assert_eq!(ctrl.probes_used(), 0, "no spurious exploration");

        let profiler = bridge.finalize(&comm).unwrap();
        let tainted: Vec<u64> =
            profiler.backend_samples().iter().filter(|s| s.tainted).map(|s| s.step).collect();
        assert_eq!(tainted, vec![4], "only the retried step is flagged");
        assert!(profiler.adaptive_samples().is_empty(), "no decision made off the spike");
    });
}

/// Mid-run reconfiguration across execution modes and placements
/// computes bit-identical per-step results to a static run —
/// reconfiguration changes *when* work runs, never *what* it computes.
#[test]
fn reconfiguration_is_bit_identical_to_static() {
    World::new(1).run(|comm| {
        let steps = 12;
        // Static reference: lockstep on host throughout.
        let node = SimNode::new(NodeConfig::fast_test(2));
        let spec_static = SummerSpec::quiet();
        let base = BackendControls {
            execution: ExecutionMethod::Lockstep,
            device: DeviceSpec::Host,
            ..Default::default()
        };
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(spec_static.build(base), &comm).unwrap();
        let mut sim = Sim { node, rows: 256, step: 0 };
        drive(&mut bridge, &mut sim, &comm, steps);
        bridge.finalize(&comm).unwrap();
        let reference = spec_static.sorted_results();
        assert_eq!(reference.len(), steps as usize);

        // Reconfigured run: flip mode/placement every few steps.
        let node = SimNode::new(NodeConfig::fast_test(2));
        let spec = SummerSpec::quiet();
        let mut bridge = Bridge::new(node.clone());
        bridge.add_reconfigurable_analysis(base, spec.factory(), &comm).unwrap();
        let mut sim = Sim { node, rows: 256, step: 0 };
        let schedule: Vec<(u64, BackendControls)> = vec![
            (3, BackendControls { execution: ExecutionMethod::Asynchronous, ..base }),
            (
                6,
                BackendControls {
                    execution: ExecutionMethod::Lockstep,
                    device: DeviceSpec::Explicit(1),
                    ..base
                },
            ),
            (
                9,
                BackendControls {
                    execution: ExecutionMethod::Asynchronous,
                    device: DeviceSpec::Host,
                    queue_depth: 2,
                    ..base
                },
            ),
        ];
        for step in 0..steps {
            if let Some((_, c)) = schedule.iter().find(|(at, _)| *at == step) {
                bridge.reconfigure_backend(0, *c, &comm).unwrap();
                assert_eq!(bridge.backend_controls(0), Some(*c));
            }
            sim.step = step;
            bridge.execute(&sim as &dyn DataAdaptor, &comm, Duration::from_millis(1)).unwrap();
        }
        let profiler = bridge.finalize(&comm).unwrap();
        assert_eq!(spec.sorted_results(), reference, "bit-identical across reconfigurations");
        // Each engine incarnation merged its counters at retirement: the
        // per-label rows sum to one table pass per step, none lost.
        assert_eq!(profiler.counters_total().table_passes, steps);
    });
}

/// The full loop on a real bridge: a placement-dependent cost (host 5 ms,
/// device ~0) and a controller that must find the device and settle.
#[test]
fn controller_converges_on_a_live_bridge() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let mut spec = SummerSpec::quiet();
        spec.host_cost = Duration::from_millis(5);
        let start = BackendControls {
            execution: ExecutionMethod::Lockstep,
            device: DeviceSpec::Host,
            ..Default::default()
        };
        let mut bridge = Bridge::new(node.clone());
        bridge.add_reconfigurable_analysis(start, spec.factory(), &comm).unwrap();
        bridge.enable_adaptive(AdaptiveConfig {
            window: 2,
            warmup: 1,
            cooldown: 1,
            tune_execution: false,
            tune_snapshot: false,
            ..Default::default()
        });
        let mut sim = Sim { node, rows: 64, step: 0 };
        drive(&mut bridge, &mut sim, &comm, 30);
        let ctrl = bridge.adaptive_controller().unwrap();
        assert!(ctrl.settled(), "exploration ended");
        let placed = bridge.backend_controls(0).unwrap().device;
        assert_ne!(placed, DeviceSpec::Host, "the 50x cheaper device won, got {placed:?}");
        let profiler = bridge.finalize(&comm).unwrap();
        assert!(
            profiler.adaptive_samples().iter().any(|s| s.action == "probe"),
            "decision log records the exploration"
        );
    });
}

/// Reconfiguration is gated on how the back-end was attached.
#[test]
fn reconfigure_requires_a_factory_and_a_valid_index() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let spec = SummerSpec::quiet();
        let mut bridge = Bridge::new(node);
        bridge.add_analysis(spec.build(BackendControls::default()), &comm).unwrap();
        let err = bridge.reconfigure_backend(0, BackendControls::default(), &comm).unwrap_err();
        assert!(matches!(err, sensei::Error::Config(_)), "no factory: {err}");
        let err = bridge.reconfigure_backend(7, BackendControls::default(), &comm).unwrap_err();
        assert!(matches!(err, sensei::Error::Config(_)), "bad index: {err}");
        bridge.finalize(&comm).unwrap();
    });
}

/// Satellite: every back-end gets a scheduler row — explicit zeros for
/// engines without a task-graph scheduler — so `scheduler_samples()` has
/// one entry per back-end whatever mix of modes a run used.
#[test]
fn scheduler_samples_carry_explicit_zero_rows_for_non_dag_backends() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let spec = SummerSpec::quiet();
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(spec.build(BackendControls::default()), &comm).unwrap();
        let mut sim = Sim { node, rows: 16, step: 0 };
        drive(&mut bridge, &mut sim, &comm, 2);
        let profiler = bridge.finalize(&comm).unwrap();
        assert_eq!(profiler.scheduler_samples().len(), 1, "one row per back-end");
        let row = &profiler.scheduler_samples()[0];
        assert_eq!(row.backend, "summer");
        assert_eq!(row.counters, sensei::SchedulerSnapshot::default(), "explicit zeros");
    });
}

/// Snapshot-mode switches mid-run (the controller's snapshot dimension)
/// keep results bit-identical too.
#[test]
fn snapshot_mode_flips_preserve_results() {
    World::new(1).run(|comm| {
        let steps = 9;
        let node = SimNode::new(NodeConfig::fast_test(1));
        let reference_spec = SummerSpec::quiet();
        let controls =
            BackendControls { execution: ExecutionMethod::Asynchronous, ..Default::default() };
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(reference_spec.build(controls), &comm).unwrap();
        let mut sim = Sim { node, rows: 128, step: 0 };
        drive(&mut bridge, &mut sim, &comm, steps);
        bridge.finalize(&comm).unwrap();
        let reference = reference_spec.sorted_results();

        let node = SimNode::new(NodeConfig::fast_test(1));
        let spec = SummerSpec::quiet();
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(spec.build(controls), &comm).unwrap();
        let mut sim = Sim { node, rows: 128, step: 0 };
        for step in 0..steps {
            match step {
                3 => bridge.set_snapshot_mode(SnapshotMode::Cow),
                6 => bridge.set_snapshot_mode(SnapshotMode::Deep),
                _ => {}
            }
            sim.step = step;
            bridge.execute(&sim as &dyn DataAdaptor, &comm, Duration::from_millis(1)).unwrap();
        }
        bridge.finalize(&comm).unwrap();
        assert_eq!(spec.sorted_results(), reference, "bit-identical across snapshot modes");
    });
}
