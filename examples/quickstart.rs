//! Quickstart: couple a toy simulation to an in situ analysis through
//! the SENSEI bridge in ~100 lines.
//!
//! Run with: `cargo run --example quickstart`
//!
//! The flow is the one every SENSEI-instrumented code follows:
//! 1. build the heterogeneous node and the communicator,
//! 2. attach analysis back-ends to a [`sensei::Bridge`],
//! 3. each iteration: advance the simulation, call `bridge.execute`,
//! 4. `bridge.finalize` and read the profiler.

use std::sync::Arc;
use std::time::Duration;

use binning::{BinOp, BinningAnalysis, BinningSpec, ResultSink, VarOp};
use devsim::{NodeConfig, SimNode};
use minimpi::World;
use parking_lot::Mutex;
use sensei::{BackendControls, Bridge, DataAdaptor, DeviceSpec, MeshMetadata, Result};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

/// A miniature "simulation": particles on a circle that spin each step.
struct SpinningRing {
    node: Arc<SimNode>,
    angle: f64,
    n: usize,
    step: u64,
}

impl DataAdaptor for SpinningRing {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
        Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
    }
    fn mesh(&self, _name: &str) -> Result<DataObject> {
        // Publish x, y, mass columns; a real simulation would hand out
        // zero-copy handles to device memory (see the nbody example).
        let mut xs = Vec::with_capacity(self.n);
        let mut ys = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let theta = self.angle + i as f64 / self.n as f64 * std::f64::consts::TAU;
            xs.push(theta.cos());
            ys.push(theta.sin());
        }
        let mass = vec![1.0; self.n];
        let mut table = TableData::new();
        for (name, data) in [("x", &xs), ("y", &ys), ("mass", &mass)] {
            let col = HamrDataArray::<f64>::from_slice(
                name,
                self.node.clone(),
                data,
                1,
                Allocator::Malloc,
                None,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .map_err(sensei::Error::Hamr)?;
            table.set_column(col.as_array_ref());
        }
        Ok(DataObject::Table(table))
    }
    fn time(&self) -> f64 {
        self.angle
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

fn main() {
    // 2 MPI ranks (threads) on a node with 2 simulated devices.
    let results: ResultSink = Arc::new(Mutex::new(Vec::new()));
    let sink = results.clone();

    World::new(2).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));

        // An in situ back-end: histogram + mass sum on a 8x8 mesh over
        // (x, y), running on an automatically selected device.
        let spec = BinningSpec::new(
            "bodies",
            ("x", "y"),
            8,
            vec![
                VarOp { var: String::new(), op: BinOp::Count },
                VarOp { var: "mass".into(), op: BinOp::Sum },
            ],
        );
        let analysis = BinningAnalysis::new(spec)
            .with_sink(sink.clone())
            .with_controls(BackendControls { device: DeviceSpec::Auto, ..Default::default() });

        // The back-end's execution method picks the engine: "lockstep"
        // (the default here) runs inline on this thread; "asynchronous"
        // and "dag" hand snapshots to a worker thread.
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(analysis), &comm).unwrap();

        // The simulation loop: rank r owns half of the ring.
        let mut sim = SpinningRing { node, angle: comm.rank() as f64, n: 512, step: 0 };
        for step in 0..5 {
            sim.step = step;
            sim.angle += 0.1; // "solve"
            bridge.execute(&sim, &comm, Duration::from_millis(1)).unwrap();
        }
        let profiler = bridge.finalize(&comm).unwrap();
        if comm.rank() == 0 {
            let s = profiler.summary();
            println!(
                "ran {} iterations; mean in situ cost {:.3} ms/iteration",
                s.iterations,
                s.mean_insitu.as_secs_f64() * 1e3
            );
        }
    });

    let results = results.lock();
    let last = results.last().expect("at least one result");
    let count = last.array("count").unwrap();
    let mass = last.array("sum_mass").unwrap();
    println!(
        "step {}: {} particles binned over both ranks, total mass {}",
        last.step,
        count.iter().sum::<f64>(),
        mass.iter().sum::<f64>()
    );
    assert_eq!(count.iter().sum::<f64>(), 1024.0, "2 ranks x 512 particles");
    println!("quickstart OK");
}
