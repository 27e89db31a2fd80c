//! Property: a run whose snapshot mode flips mid-run through
//! `Bridge::set_snapshot_mode` is bit-identical to its lockstep-host
//! reference, whatever the schedule — random flip points × snapshot modes
//! from a random static start (placement × execution method). Placement,
//! execution, and snapshot policy decide *when and where* work runs, never
//! *what* it computes.

use std::sync::Arc;

use devsim::{NodeConfig, SimNode};
use minimpi::World;
use parking_lot::Mutex;
use proptest::prelude::*;
use sensei::{
    ArrayMetadata, BackendControls, Bridge, DataAdaptor, DeviceSpec, ExecutionMethod, MeshMetadata,
    SnapshotMode,
};
use svtk::{Allocator, DataObject, FieldAssociation, HamrStream, StreamMode, TableData};

use bench::results_bit_identical;
use binning::{BinnedResult, BinningSpec, BinningSuite, ResultSink, VarOp};

const FIELDS: [&str; 4] = ["x", "y", "m", "e"];
const NUM_DEVICES: usize = 2;

fn field_value(step: u64, field: usize, i: usize) -> f64 {
    let mut z = step
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((field as u64) << 32)
        .wrapping_add(i as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    match field {
        0 | 1 => u * 4.0 - 2.0,
        2 => 0.5 + u,
        _ => u * 100.0,
    }
}

/// Publishes the particle table each step.
struct Producer {
    node: Arc<SimNode>,
    rows: usize,
    step: u64,
    table: TableData,
}

impl Producer {
    fn new(node: Arc<SimNode>, rows: usize) -> Self {
        let mut p = Producer { node, rows, step: 0, table: TableData::new() };
        p.produce();
        p
    }

    fn produce(&mut self) {
        let mut table = TableData::new();
        for (f, name) in FIELDS.iter().enumerate() {
            let vals: Vec<f64> = (0..self.rows).map(|i| field_value(self.step, f, i)).collect();
            let arr = svtk::HamrDoubleArray::from_slice(
                *name,
                self.node.clone(),
                &vals,
                1,
                Allocator::Malloc,
                None,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .expect("column");
            table.set_column(arr.as_array_ref());
        }
        self.table = table;
    }

    fn advance(&mut self) {
        self.step += 1;
        self.produce();
    }
}

impl DataAdaptor for Producer {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> sensei::Result<MeshMetadata> {
        Ok(MeshMetadata {
            name: "particles".into(),
            arrays: FIELDS
                .iter()
                .map(|&name| ArrayMetadata {
                    name: name.to_string(),
                    association: FieldAssociation::Point,
                    components: 1,
                    type_name: "double",
                    device: None,
                })
                .collect(),
        })
    }
    fn mesh(&self, name: &str) -> sensei::Result<DataObject> {
        assert_eq!(name, "particles");
        Ok(DataObject::Table(self.table.clone()))
    }
    fn time(&self) -> f64 {
        self.step as f64
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

fn specs(resolution: usize) -> Vec<BinningSpec> {
    let parse = |s: &str| VarOp::parse(s).expect("valid op");
    vec![
        BinningSpec::new(
            "particles",
            ("x", "y"),
            resolution,
            vec![parse("count()"), parse("sum(m)"), parse("avg(e)")],
        ),
        BinningSpec::new(
            "particles",
            ("y", "x"),
            resolution,
            vec![parse("count()"), parse("min(m)"), parse("max(e)")],
        ),
    ]
}

/// One scheduled mid-run change: flip the bridge-wide snapshot mode.
#[derive(Debug, Clone, Copy)]
struct Flip {
    at: u64,
    snapshot: SnapshotMode,
}

/// Run `steps` with `schedule` applied at its steps; return the sink
/// sorted by (step, axes) so asynchronous completion order cannot leak
/// into the comparison.
fn run_scheduled(
    steps: u64,
    rows: usize,
    start: BackendControls,
    schedule: &[Flip],
) -> Vec<BinnedResult> {
    let node = SimNode::new(NodeConfig::fast_test(NUM_DEVICES));
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
    let run_node = node.clone();
    let run_sink = sink.clone();
    let schedule = schedule.to_vec();
    World::new(1).run(move |comm| {
        let node = run_node.clone();
        let suite = BinningSuite::new(specs(6))
            .expect("suite")
            .with_controls(start)
            .with_sink(run_sink.clone());
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(suite), &comm).expect("attach");
        let mut producer = Producer::new(node.clone(), rows);
        for step in 0..steps {
            for f in schedule.iter().filter(|f| f.at == step) {
                bridge.set_snapshot_mode(f.snapshot);
            }
            bridge
                .execute(&producer, &comm, std::time::Duration::from_micros(100))
                .expect("execute");
            producer.advance();
        }
        bridge.finalize(&comm).expect("finalize");
    });
    let mut results = sink.lock().clone();
    results.sort_by(|a, b| (a.step, &a.axes).cmp(&(b.step, &b.axes)));
    results
}

fn execution() -> impl Strategy<Value = ExecutionMethod> {
    proptest::sample::select(vec![
        ExecutionMethod::Lockstep,
        ExecutionMethod::Asynchronous,
        ExecutionMethod::Dag,
    ])
}

fn device() -> impl Strategy<Value = DeviceSpec> {
    proptest::sample::select(vec![
        DeviceSpec::Host,
        DeviceSpec::Explicit(0),
        DeviceSpec::Explicit(NUM_DEVICES - 1),
    ])
}

fn snapshot() -> impl Strategy<Value = SnapshotMode> {
    proptest::sample::select(vec![SnapshotMode::Deep, SnapshotMode::Cow])
}

fn controls() -> impl Strategy<Value = BackendControls> {
    (execution(), device()).prop_map(|(execution, device)| BackendControls {
        execution,
        device,
        queue_depth: 4,
        ..Default::default()
    })
}

fn flip(steps: u64) -> impl Strategy<Value = Flip> {
    (0..steps, snapshot()).prop_map(|(at, snapshot)| Flip { at, snapshot })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any schedule of snapshot-mode flips — arbitrary points and modes,
    /// from any static placement and execution method — yields results
    /// bit-identical to the untouched lockstep-host reference.
    #[test]
    fn scheduled_snapshot_mode_flips_are_bit_identical(
        start in controls(),
        schedule in proptest::collection::vec(flip(10), 1..4),
    ) {
        let steps = 10u64;
        let rows = 64usize;
        let reference = run_scheduled(
            steps,
            rows,
            BackendControls {
                execution: ExecutionMethod::Lockstep,
                device: DeviceSpec::Host,
                ..Default::default()
            },
            &[],
        );
        prop_assert_eq!(reference.len(), steps as usize * 2);
        let flipped = run_scheduled(steps, rows, start, &schedule);
        prop_assert!(
            results_bit_identical(&reference, &flipped),
            "schedule {:?} from {:?} must not perturb results",
            schedule,
            start
        );
    }
}
