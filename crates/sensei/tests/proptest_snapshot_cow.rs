//! Property test pinning copy-on-write snapshots to the deep-copy
//! reference under arbitrary interleavings of solver writes and
//! captures.
//!
//! At every capture point the test takes both a CoW capture (through a
//! [`SnapshotPipeline`]) and an eager deep copy
//! ([`SnapshotAdaptor::capture`]) of the same state. However the solver
//! then overwrites its arrays — including writes landing while several
//! snapshots hold pins on the same allocation — each live CoW snapshot
//! must keep reading exactly what its deep-copy twin holds.

use std::sync::Arc;

use devsim::{NodeConfig, SimNode};
use proptest::prelude::*;
use sensei::{
    ArrayMetadata, DataAdaptor, DataRequirements, MeshMetadata, Result, SnapshotAdaptor,
    SnapshotMode, SnapshotPipeline,
};
use svtk::{
    downcast, Allocator, ArrayRef, DataObject, FieldAssociation, HamrDataArray, HamrStream,
    StreamMode, TableData,
};

const COLUMNS: [&str; 3] = ["a", "b", "c"];
const LEN: usize = 8;

/// A solver stand-in publishing three host-resident columns.
struct ToySolver {
    table: TableData,
}

impl ToySolver {
    fn new(node: &Arc<SimNode>) -> Self {
        let mut table = TableData::new();
        for (i, name) in COLUMNS.iter().enumerate() {
            let init: Vec<f64> = (0..LEN).map(|j| (i * LEN + j) as f64).collect();
            let col = HamrDataArray::<f64>::from_slice(
                *name,
                node.clone(),
                &init,
                1,
                Allocator::Malloc,
                None,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .unwrap();
            table.set_column(col.as_array_ref());
        }
        ToySolver { table }
    }

    /// Overwrite one element of one column through a write-intent host
    /// view — the path that bumps the allocation's write generation and
    /// faults any unresolved CoW pins.
    fn write(&self, col: usize, elem: usize, value: f64) {
        let name = COLUMNS[col % COLUMNS.len()];
        let cells = downcast::<f64>(self.table.column(name).unwrap()).unwrap().data();
        cells.host_f64().unwrap().set(elem % LEN, value);
    }
}

impl DataAdaptor for ToySolver {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
        Ok(MeshMetadata {
            name: "bodies".into(),
            arrays: self
                .table
                .columns()
                .iter()
                .map(|c| ArrayMetadata {
                    name: c.name().to_string(),
                    association: FieldAssociation::Point,
                    components: c.num_components(),
                    type_name: c.type_name(),
                    device: c.device(),
                })
                .collect(),
        })
    }
    fn mesh(&self, name: &str) -> Result<DataObject> {
        if name == "bodies" {
            Ok(DataObject::Table(self.table.clone()))
        } else {
            Err(sensei::Error::NoSuchMesh { name: name.into() })
        }
    }
    fn time(&self) -> f64 {
        0.0
    }
    fn time_step(&self) -> u64 {
        0
    }
}

fn column(snap: &SnapshotAdaptor, name: &str) -> ArrayRef {
    snap.mesh("bodies").unwrap().as_table().unwrap().column(name).unwrap().clone()
}

fn values(arr: &ArrayRef) -> Vec<f64> {
    downcast::<f64>(arr).unwrap().to_vec().unwrap()
}

/// Assert every column of the CoW capture reads bit-identical to its
/// deep-copied twin.
fn assert_matches_reference(cow: &SnapshotAdaptor, reference: &SnapshotAdaptor) {
    for name in COLUMNS {
        let got = values(&column(cow, name));
        let want = values(&column(reference, name));
        assert_eq!(got, want, "cow snapshot diverged from deep reference on column '{name}'");
    }
}

/// One step of the interleaving. Encoded from `(kind, col, elem, val)`
/// tuples the strategy draws.
enum Op {
    /// Solver overwrites `col[elem] = val` — faults pinned snapshots.
    Write { col: usize, elem: usize, val: f64 },
    /// Take a CoW capture plus its deep-copy reference.
    Capture,
    /// Drop the oldest live snapshot pair (releases its pins via Drop).
    DropOldest,
    /// Verify the oldest pair, then release its shares and retire it —
    /// the consumer-done path, after which writes skip the fault copy.
    FinishOldest,
}

fn decode(kind: u8, col: usize, elem: usize, val: i32) -> Op {
    match kind % 4 {
        0 | 1 => Op::Write { col, elem, val: val as f64 },
        2 => Op::Capture,
        3 if kind & 1 == 0 => Op::DropOldest,
        _ => Op::FinishOldest,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the solver writes while snapshots are pinned, every live
    /// CoW capture reads exactly the deep copy taken at the same point.
    #[test]
    fn cow_snapshots_match_deep_reference_under_any_interleaving(
        ops in proptest::collection::vec(
            (any::<u8>(), 0usize..COLUMNS.len(), 0usize..LEN, -1000i32..1000),
            1..48,
        ),
    ) {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let solver = ToySolver::new(&node);
        let mut pipeline = SnapshotPipeline::new(SnapshotMode::Cow);
        // Live (cow, deep-reference) pairs, oldest first.
        let mut live: Vec<(SnapshotAdaptor, SnapshotAdaptor)> = Vec::new();

        for (kind, col, elem, val) in ops {
            match decode(kind, col, elem, val) {
                Op::Write { col, elem, val } => solver.write(col, elem, val),
                Op::Capture => {
                    let cow = pipeline
                        .capture(&solver, &DataRequirements::All, &node)
                        .unwrap();
                    let reference = SnapshotAdaptor::capture(&solver).unwrap();
                    live.push((cow, reference));
                }
                Op::DropOldest => {
                    if !live.is_empty() {
                        live.remove(0);
                    }
                }
                Op::FinishOldest => {
                    if !live.is_empty() {
                        let (cow, reference) = live.remove(0);
                        assert_matches_reference(&cow, &reference);
                        cow.release_shared();
                        // Released shares alias the live buffer again, so
                        // the pair is retired rather than re-checked.
                    }
                }
            }
            // The invariant holds after *every* op, not just at the end.
            for (cow, reference) in &live {
                assert_matches_reference(cow, reference);
            }
        }
        for (cow, reference) in &live {
            assert_matches_reference(cow, reference);
        }

        // Bookkeeping sanity: every capture shared all three columns and
        // copied nothing eagerly.
        let c = pipeline.counters().snapshot();
        prop_assert_eq!(c.arrays_copied, 0);
        prop_assert_eq!(c.arrays_shared % COLUMNS.len() as u64, 0);
    }
}
