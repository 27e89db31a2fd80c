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
    ImageData, StreamMode, TableData,
};

/// Every array the solver publishes, as (mesh, association, name): three
/// table columns, and point and cell data on a uniform grid, so every
/// property below covers both mesh kinds.
const ARRAYS: [(&str, FieldAssociation, &str); 5] = [
    ("bodies", FieldAssociation::Point, "a"),
    ("bodies", FieldAssociation::Point, "b"),
    ("bodies", FieldAssociation::Point, "c"),
    ("grid", FieldAssociation::Point, "phi"),
    ("grid", FieldAssociation::Cell, "rho"),
];
const LEN: usize = 8;
/// A 3 x 1 x 1-cell grid: 16 points, 3 cells.
const GRID_CELLS: [usize; 3] = [3, 1, 1];

fn host_array(node: &Arc<SimNode>, name: &str, init: &[f64]) -> ArrayRef {
    HamrDataArray::<f64>::from_slice(
        name,
        node.clone(),
        init,
        1,
        Allocator::Malloc,
        None,
        HamrStream::default_stream(),
        StreamMode::Sync,
    )
    .unwrap()
    .as_array_ref()
}

/// The array `name` with association `assoc` on a published mesh.
fn array(obj: &DataObject, assoc: FieldAssociation, name: &str) -> Option<ArrayRef> {
    match obj {
        DataObject::Table(t) => t.column(name).cloned(),
        DataObject::Image(img) => img.data(assoc).array(name).cloned(),
        DataObject::Multi(_) => None,
    }
}

/// A solver stand-in publishing host-resident table columns and grid
/// point and cell data.
struct ToySolver {
    table: TableData,
    grid: ImageData,
}

impl ToySolver {
    fn new(node: &Arc<SimNode>) -> Self {
        let mut table = TableData::new();
        let mut grid = ImageData::from_bounds(GRID_CELLS, [0.0; 3], [1.0; 3]);
        for (i, (mesh, assoc, name)) in ARRAYS.into_iter().enumerate() {
            let len = match mesh {
                "bodies" => LEN,
                _ if assoc == FieldAssociation::Point => grid.num_points(),
                _ => grid.num_cells(),
            };
            let init: Vec<f64> = (0..len).map(|j| (i * 100 + j) as f64).collect();
            let arr = host_array(node, name, &init);
            match mesh {
                "bodies" => table.set_column(arr),
                _ => grid.data_mut(assoc).set_array(arr),
            }
        }
        ToySolver { table, grid }
    }

    /// Overwrite one element of one array through a write-intent host
    /// view — the path that bumps the allocation's write generation and
    /// faults any unresolved CoW pins.
    fn write(&self, which: usize, elem: usize, value: f64) {
        let (mesh, assoc, name) = ARRAYS[which % ARRAYS.len()];
        let arr = array(&self.mesh(mesh).unwrap(), assoc, name).unwrap();
        let cells = downcast::<f64>(&arr).unwrap().data();
        cells.host_f64().unwrap().set(elem % arr.num_tuples(), value);
    }
}

fn metadata(arrays: &[ArrayRef], association: FieldAssociation) -> Vec<ArrayMetadata> {
    arrays
        .iter()
        .map(|c| ArrayMetadata {
            name: c.name().to_string(),
            association,
            components: c.num_components(),
            type_name: c.type_name(),
            device: c.device(),
        })
        .collect()
}

impl DataAdaptor for ToySolver {
    fn num_meshes(&self) -> usize {
        2
    }
    fn mesh_metadata(&self, i: usize) -> Result<MeshMetadata> {
        Ok(if i == 0 {
            MeshMetadata {
                name: "bodies".into(),
                arrays: metadata(self.table.columns(), FieldAssociation::Point),
            }
        } else {
            let mut arrays = Vec::new();
            for assoc in [FieldAssociation::Point, FieldAssociation::Cell] {
                arrays.extend(metadata(self.grid.data(assoc).arrays(), assoc));
            }
            MeshMetadata { name: "grid".into(), arrays }
        })
    }
    fn mesh(&self, name: &str) -> Result<DataObject> {
        match name {
            "bodies" => Ok(DataObject::Table(self.table.clone())),
            "grid" => Ok(DataObject::Image(self.grid.clone())),
            _ => Err(sensei::Error::NoSuchMesh { name: name.into() }),
        }
    }
    fn time(&self) -> f64 {
        0.0
    }
    fn time_step(&self) -> u64 {
        0
    }
}

fn values(snap: &SnapshotAdaptor, (mesh, assoc, name): (&str, FieldAssociation, &str)) -> Vec<f64> {
    let arr = array(&snap.mesh(mesh).unwrap(), assoc, name)
        .unwrap_or_else(|| panic!("snapshot lost {mesh}/{}/{name}", assoc.name()));
    downcast::<f64>(&arr).unwrap().to_vec().unwrap()
}

/// Assert every array of the CoW capture reads bit-identical to its
/// deep-copied twin, and both describe the meshes alike.
fn assert_matches_reference(cow: &SnapshotAdaptor, reference: &SnapshotAdaptor) {
    for which in ARRAYS {
        assert_eq!(
            values(cow, which),
            values(reference, which),
            "cow snapshot diverged from deep reference on {}/{}",
            which.0,
            which.2
        );
    }
    for i in 0..2 {
        assert_eq!(cow.mesh_metadata(i).unwrap(), reference.mesh_metadata(i).unwrap());
    }
}

/// One step of the interleaving. Encoded from `(kind, col, elem, val)`
/// tuples the strategy draws.
enum Op {
    /// Solver overwrites element `elem` of `ARRAYS[col]` with `val` —
    /// faults pinned snapshots.
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
            (any::<u8>(), 0usize..ARRAYS.len(), 0usize..16, -1000i32..1000),
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
                    // A whole capture describes every mesh as published.
                    for i in 0..solver.num_meshes() {
                        assert_eq!(cow.mesh_metadata(i).unwrap(), solver.mesh_metadata(i).unwrap());
                    }
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

        // Bookkeeping sanity: every capture shared every array and copied
        // nothing eagerly.
        let c = pipeline.counters().snapshot();
        prop_assert_eq!(c.arrays_copied, 0);
        prop_assert_eq!(c.arrays_shared % ARRAYS.len() as u64, 0);
    }
}
