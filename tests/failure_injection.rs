//! Failure injection across crate boundaries: errors raised deep in the
//! substrate must surface through the mediation layer, not hang or
//! silently corrupt. Includes the asynchronous backpressure paths: a full
//! bounded queue under each overflow policy, and worker errors/panics
//! surfacing from both `execute` and `finalize`.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use devsim::{DeviceParams, NodeConfig, SimNode};
use minimpi::World;
use sensei::{
    AnalysisAdaptor, AnalysisRegistry, BackendControls, Bridge, ConfigurableAnalysis,
    CreateContext, DataAdaptor, DeviceSpec, Error, ExecContext, ExecutionMethod, MeshMetadata,
    OverflowPolicy, Result,
};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

use binning::{BinningAnalysis, BinningSpec, VarOp};

/// A table with columns `x, y, mass` on the host.
struct Tiny {
    table: TableData,
}

impl Tiny {
    fn new(node: Arc<SimNode>) -> Self {
        let mut table = TableData::new();
        for name in ["x", "y", "mass"] {
            let a = HamrDataArray::<f64>::from_slice(
                name,
                node.clone(),
                &[0.5, 0.25],
                1,
                Allocator::Malloc,
                None,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .unwrap();
            table.set_column(a.as_array_ref());
        }
        Tiny { table }
    }
}

impl DataAdaptor for Tiny {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
        Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
    }
    fn mesh(&self, name: &str) -> Result<DataObject> {
        if name == "bodies" {
            Ok(DataObject::Table(self.table.clone()))
        } else {
            Err(Error::NoSuchMesh { name: name.into() })
        }
    }
    fn time(&self) -> f64 {
        0.0
    }
    fn time_step(&self) -> u64 {
        0
    }
}

#[test]
fn missing_variable_surfaces_as_no_such_array() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let spec = BinningSpec::new(
            "bodies",
            ("x", "y"),
            4,
            vec![VarOp::parse("sum(not_a_column)").unwrap()],
        );
        let analysis = BinningAnalysis::new(spec)
            .with_controls(BackendControls { device: DeviceSpec::Host, ..Default::default() });
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        let sim = Tiny::new(node);
        let err = bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap_err();
        assert!(matches!(err, Error::NoSuchArray { .. }), "got {err:?}");
    });
}

#[test]
fn missing_mesh_surfaces_as_no_such_mesh() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let spec =
            BinningSpec::new("wrong_mesh", ("x", "y"), 4, vec![VarOp::parse("count()").unwrap()]);
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(BinningAnalysis::new(spec)), &comm).unwrap();
        let sim = Tiny::new(node);
        let err = bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap_err();
        assert!(matches!(err, Error::NoSuchMesh { .. }), "got {err:?}");
    });
}

#[test]
fn device_oom_propagates_through_the_stack() {
    World::new(1).run(|comm| {
        // A device too small for the binning scratch allocations.
        let node = SimNode::new(NodeConfig {
            num_devices: 1,
            device: DeviceParams { memory_bytes: 64, ..DeviceParams::default() },
            time_scale: 0.0,
            ..NodeConfig::default()
        });
        let spec =
            BinningSpec::new("bodies", ("x", "y"), 64, vec![VarOp::parse("count()").unwrap()]);
        let analysis = BinningAnalysis::new(spec).with_controls(BackendControls {
            device: DeviceSpec::Explicit(0),
            ..Default::default()
        });
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        let sim = Tiny::new(node);
        let err = bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap_err();
        match err {
            Error::Device(devsim::Error::OutOfMemory { .. }) => {}
            Error::Hamr(hamr::Error::Device(devsim::Error::OutOfMemory { .. })) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    });
}

#[test]
fn execute_after_finalize_is_rejected() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut bridge = Bridge::new(node.clone());
        let spec =
            BinningSpec::new("bodies", ("x", "y"), 4, vec![VarOp::parse("count()").unwrap()]);
        bridge.add_analysis(Box::new(BinningAnalysis::new(spec)), &comm).unwrap();
        let sim = Tiny::new(node);
        bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        // finalize consumes the bridge; attaching afterwards is a compile
        // error by construction, which is the strongest rejection. The
        // runtime check covers the internal flag path.
        let profiler = bridge.finalize(&comm).unwrap();
        assert_eq!(profiler.records().len(), 1);
    });
}

#[test]
fn bad_xml_configurations_error_cleanly() {
    let reg = {
        let mut r = AnalysisRegistry::new();
        binning::register(&mut r);
        r
    };
    let node = SimNode::new(NodeConfig::fast_test(1));
    let ctx = CreateContext { node, rank: 0, size: 1 };

    // Unknown back-end type.
    let cfg = ConfigurableAnalysis::from_xml(r#"<sensei><analysis type="warp_drive"/></sensei>"#)
        .unwrap();
    assert!(matches!(cfg.instantiate(&reg, &ctx), Err(Error::UnknownAnalysisType { .. })));

    // Back-end specific validation failure (no axes).
    let cfg = ConfigurableAnalysis::from_xml(
        r#"<sensei><analysis type="data_binning"><operations>count()</operations></analysis></sensei>"#,
    )
    .unwrap();
    assert!(matches!(cfg.instantiate(&reg, &ctx), Err(Error::Config(_))));

    // Malformed document.
    assert!(ConfigurableAnalysis::from_xml("<sensei><analysis").is_err());
}

#[test]
fn mismatched_column_type_is_reported() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        // A table whose `mass` column is i32, not double.
        let mut table = TableData::new();
        for name in ["x", "y"] {
            let a = HamrDataArray::<f64>::from_slice(
                name,
                node.clone(),
                &[0.5],
                1,
                Allocator::Malloc,
                None,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .unwrap();
            table.set_column(a.as_array_ref());
        }
        let bad = HamrDataArray::<i32>::from_slice(
            "mass",
            node.clone(),
            &[1],
            1,
            Allocator::Malloc,
            None,
            HamrStream::default_stream(),
            StreamMode::Sync,
        )
        .unwrap();
        table.set_column(bad.as_array_ref());

        struct Holder {
            table: TableData,
        }
        impl DataAdaptor for Holder {
            fn num_meshes(&self) -> usize {
                1
            }
            fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
                Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
            }
            fn mesh(&self, _n: &str) -> Result<DataObject> {
                Ok(DataObject::Table(self.table.clone()))
            }
            fn time(&self) -> f64 {
                0.0
            }
            fn time_step(&self) -> u64 {
                0
            }
        }

        let spec =
            BinningSpec::new("bodies", ("x", "y"), 4, vec![VarOp::parse("sum(mass)").unwrap()]);
        let analysis = BinningAnalysis::new(spec)
            .with_controls(BackendControls { device: DeviceSpec::Host, ..Default::default() });
        let mut bridge = Bridge::new(node);
        bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        let err = bridge.execute(&Holder { table }, &comm, std::time::Duration::ZERO).unwrap_err();
        assert!(matches!(err, Error::Analysis(_)), "got {err:?}");
    });
}

// ---------------------------------------------------------------------------
// Asynchronous backpressure and worker-failure injection.
// ---------------------------------------------------------------------------

/// A one-way latch both sides can wait on with a timeout.
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Wait until opened; false on timeout.
    fn wait_for(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut open = self.open.lock().unwrap();
        while !*open {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self.cv.wait_timeout(open, left).unwrap();
            open = guard;
        }
        true
    }
}

/// `Tiny` with a settable time step, so queued snapshots are tellable
/// apart.
struct Stepped {
    inner: Tiny,
    step: u64,
}

impl DataAdaptor for Stepped {
    fn num_meshes(&self) -> usize {
        self.inner.num_meshes()
    }
    fn mesh_metadata(&self, i: usize) -> Result<MeshMetadata> {
        self.inner.mesh_metadata(i)
    }
    fn mesh(&self, name: &str) -> Result<DataObject> {
        self.inner.mesh(name)
    }
    fn time(&self) -> f64 {
        self.step as f64
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

/// An asynchronous back-end whose worker blocks on `release` (opened once
/// by the test) and records the snapshot steps it processed. While the
/// worker sits on the first snapshot the test can fill the bounded queue
/// deterministically.
struct Gated {
    controls: BackendControls,
    started: Arc<Latch>,
    release: Arc<Latch>,
    processed: Arc<Mutex<Vec<u64>>>,
}

impl AnalysisAdaptor for Gated {
    fn name(&self) -> &str {
        "gated"
    }
    fn controls(&self) -> &BackendControls {
        &self.controls
    }
    fn controls_mut(&mut self) -> &mut BackendControls {
        &mut self.controls
    }
    fn execute(&mut self, data: &dyn DataAdaptor, _ctx: &ExecContext<'_>) -> Result<bool> {
        self.processed.lock().unwrap().push(data.time_step());
        self.started.open();
        assert!(self.release.wait_for(Duration::from_secs(30)), "test never released worker");
        Ok(true)
    }
}

fn async_controls(queue_depth: usize, overflow: OverflowPolicy) -> BackendControls {
    BackendControls {
        execution: ExecutionMethod::Asynchronous,
        device: DeviceSpec::Host,
        queue_depth,
        overflow,
        ..Default::default()
    }
}

struct GatedSetup {
    started: Arc<Latch>,
    release: Arc<Latch>,
    processed: Arc<Mutex<Vec<u64>>>,
}

fn gated(queue_depth: usize, overflow: OverflowPolicy) -> (Gated, GatedSetup) {
    let setup = GatedSetup {
        started: Arc::new(Latch::default()),
        release: Arc::new(Latch::default()),
        processed: Arc::new(Mutex::new(Vec::new())),
    };
    let adaptor = Gated {
        controls: async_controls(queue_depth, overflow),
        started: setup.started.clone(),
        release: setup.release.clone(),
        processed: setup.processed.clone(),
    };
    (adaptor, setup)
}

#[test]
fn full_queue_with_error_policy_fails_the_submit() {
    // Both snapshot-fed modes share the one worker engine and its queue.
    for mode in [ExecutionMethod::Asynchronous, ExecutionMethod::Dag] {
        World::new(1).run(move |comm| {
            let node = SimNode::new(NodeConfig::fast_test(1));
            let (mut adaptor, setup) = gated(2, OverflowPolicy::Error);
            adaptor.controls.execution = mode;
            let mut bridge = Bridge::new(node.clone());
            bridge.add_analysis(Box::new(adaptor), &comm).unwrap();

            let mut sim = Stepped { inner: Tiny::new(node), step: 0 };
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
            assert!(setup.started.wait_for(Duration::from_secs(10)), "worker never started");

            // Worker holds snapshot 0; these two fill the depth-2 queue.
            for step in [1, 2] {
                sim.step = step;
                bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
            }
            sim.step = 3;
            let err = bridge.execute(&sim, &comm, Duration::ZERO).unwrap_err();
            assert!(matches!(err, Error::Analysis(_)), "({mode:?}) got {err:?}");
            assert!(err.to_string().contains("full"), "({mode:?}) got {err}");

            setup.release.open();
            bridge.finalize(&comm).unwrap();
            assert_eq!(*setup.processed.lock().unwrap(), vec![0, 1, 2], "step 3 was rejected");
        });
    }
}

#[test]
fn full_queue_with_drop_oldest_policy_evicts_the_oldest_snapshot() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let (adaptor, setup) = gated(2, OverflowPolicy::DropOldest);
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(adaptor), &comm).unwrap();

        let mut sim = Stepped { inner: Tiny::new(node), step: 0 };
        bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        assert!(setup.started.wait_for(Duration::from_secs(10)), "worker never started");

        // Queue fills with snapshots 1 and 2; snapshot 3 evicts 1.
        for step in [1, 2, 3] {
            sim.step = step;
            bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        }

        setup.release.open();
        bridge.finalize(&comm).unwrap();
        assert_eq!(
            *setup.processed.lock().unwrap(),
            vec![0, 2, 3],
            "the oldest queued snapshot was dropped, the rest kept their order"
        );
    });
}

#[test]
fn full_queue_with_block_policy_waits_for_space() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let (adaptor, setup) = gated(1, OverflowPolicy::Block);
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(adaptor), &comm).unwrap();

        let mut sim = Stepped { inner: Tiny::new(node), step: 0 };
        bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        assert!(setup.started.wait_for(Duration::from_secs(10)), "worker never started");

        // Worker holds snapshot 0 and the depth-1 queue holds snapshot 1.
        sim.step = 1;
        bridge.execute(&sim, &comm, Duration::ZERO).unwrap();

        // Snapshot 2 must block until the worker (released from another
        // thread after a delay) dequeues snapshot 1.
        let hold = Duration::from_millis(150);
        let release = setup.release.clone();
        let opener = std::thread::spawn(move || {
            std::thread::sleep(hold);
            release.open();
        });
        let t0 = Instant::now();
        sim.step = 2;
        bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        assert!(
            t0.elapsed() >= hold / 2,
            "submit returned after {:?}; it should have blocked on the full queue",
            t0.elapsed()
        );
        opener.join().unwrap();

        bridge.finalize(&comm).unwrap();
        assert_eq!(*setup.processed.lock().unwrap(), vec![0, 1, 2], "nothing was dropped");
    });
}

/// An asynchronous back-end whose worker fails on its first snapshot.
struct Exploding {
    controls: BackendControls,
    by_panic: bool,
}

impl AnalysisAdaptor for Exploding {
    fn name(&self) -> &str {
        "exploding"
    }
    fn controls(&self) -> &BackendControls {
        &self.controls
    }
    fn controls_mut(&mut self) -> &mut BackendControls {
        &mut self.controls
    }
    fn execute(&mut self, _data: &dyn DataAdaptor, _ctx: &ExecContext<'_>) -> Result<bool> {
        if self.by_panic {
            panic!("injected worker panic");
        }
        Err(Error::Analysis("injected worker failure".into()))
    }
}

#[test]
fn worker_error_surfaces_from_finalize() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let adaptor =
            Exploding { controls: async_controls(4, OverflowPolicy::Block), by_panic: false };
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(adaptor), &comm).unwrap();

        let sim = Stepped { inner: Tiny::new(node), step: 0 };
        bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        let err = bridge.finalize(&comm).unwrap_err();
        assert!(matches!(err, Error::Analysis(_)), "got {err:?}");
        assert!(err.to_string().contains("injected worker failure"), "got {err}");
    });
}

#[test]
fn worker_panic_surfaces_from_finalize() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let adaptor =
            Exploding { controls: async_controls(4, OverflowPolicy::Block), by_panic: true };
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(adaptor), &comm).unwrap();

        let sim = Stepped { inner: Tiny::new(node), step: 0 };
        bridge.execute(&sim, &comm, Duration::ZERO).unwrap();
        let err = bridge.finalize(&comm).unwrap_err();
        assert!(matches!(err, Error::Analysis(_)), "got {err:?}");
        assert!(err.to_string().contains("panicked"), "got {err}");
    });
}

#[test]
fn worker_death_surfaces_from_a_later_execute() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let adaptor =
            Exploding { controls: async_controls(4, OverflowPolicy::Block), by_panic: false };
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(adaptor), &comm).unwrap();

        let mut sim = Stepped { inner: Tiny::new(node), step: 0 };
        bridge.execute(&sim, &comm, Duration::ZERO).unwrap();

        // The worker dies on snapshot 0; a subsequent submit must fail
        // with the worker's error rather than queueing into the void.
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = loop {
            std::thread::sleep(Duration::from_millis(5));
            sim.step += 1;
            match bridge.execute(&sim, &comm, Duration::ZERO) {
                Ok(_) => assert!(Instant::now() < deadline, "worker death never surfaced"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, Error::Analysis(_)), "got {err:?}");
        assert!(err.to_string().contains("injected worker failure"), "got {err}");
    });
}
