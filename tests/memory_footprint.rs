//! The memory-footprint motivation of §2: "data transfers between the
//! simulation and back end data consumer are ideally made in place, or
//! zero-copy, whenever they can be, in order to avoid the increased
//! memory footprint and data movement overheads associated with making a
//! deep copy."
//!
//! These tests measure actual device memory while the coupling runs:
//! lockstep + same-device placement adds (almost) nothing on top of the
//! simulation's own footprint; the asynchronous method pays one deep
//! copy of the published arrays per in-flight snapshot.

use std::sync::Arc;

use devsim::{NodeConfig, SimNode};
use minimpi::World;
use sensei::{DataAdaptor, SnapshotAdaptor};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

const N: usize = 4096;
const COLUMNS: usize = 4;

struct Sim {
    table: TableData,
    step: u64,
}

impl Sim {
    fn new(node: Arc<SimNode>) -> Self {
        let mut table = TableData::new();
        for name in ["a", "b", "c", "d"] {
            let data: Vec<f64> = (0..N).map(|i| i as f64).collect();
            let col = HamrDataArray::<f64>::from_slice(
                name,
                node.clone(),
                &data,
                1,
                Allocator::OpenMp,
                Some(0),
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .unwrap();
            table.set_column(col.as_array_ref());
        }
        Sim { table, step: 0 }
    }
}

impl DataAdaptor for Sim {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> sensei::Result<sensei::MeshMetadata> {
        Ok(sensei::MeshMetadata { name: "bodies".into(), arrays: vec![] })
    }
    fn mesh(&self, _name: &str) -> sensei::Result<DataObject> {
        Ok(DataObject::Table(self.table.clone()))
    }
    fn time(&self) -> f64 {
        0.0
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

const SIM_BYTES: usize = N * COLUMNS * 8;

#[test]
fn zero_copy_coupling_adds_no_device_memory() {
    World::new(1).run(|_comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = Sim::new(node.clone());
        let dev = node.device(0).unwrap();
        assert_eq!(dev.used_bytes(), SIM_BYTES, "simulation footprint");

        // A lockstep consumer accessing the table in place: handing out
        // the mesh and taking same-device views allocates nothing.
        let mesh = sim.mesh("bodies").unwrap();
        let table = mesh.as_table().unwrap();
        let views: Vec<_> = table
            .columns()
            .iter()
            .map(|c| svtk::downcast::<f64>(c).unwrap().cuda_accessible(0).unwrap())
            .collect();
        assert!(views.iter().all(|v| v.is_direct()));
        assert_eq!(dev.used_bytes(), SIM_BYTES, "zero-copy access must not increase the footprint");
    });
}

#[test]
fn async_snapshot_doubles_the_published_footprint_until_dropped() {
    World::new(1).run(|_comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = Sim::new(node.clone());
        let dev = node.device(0).unwrap();
        let before = dev.used_bytes();

        // The asynchronous method's deep copy: one extra copy of every
        // published array while the snapshot is alive...
        let snapshot = SnapshotAdaptor::capture(&sim).unwrap();
        assert_eq!(dev.used_bytes(), before + SIM_BYTES, "deep copy doubles the published data");
        // ...released as soon as the in situ thread is done with it.
        drop(snapshot);
        assert_eq!(dev.used_bytes(), before, "snapshot memory returned");
    });
}

#[test]
fn mismatched_placement_pays_replicas_that_die_with_the_data() {
    World::new(1).run(|_comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let sim = Sim::new(node.clone());
        let dev1 = node.device(1).unwrap();
        assert_eq!(dev1.used_bytes(), 0);

        // Accessing device-0 data from device 1 allocates a replica per
        // column...
        let request = || -> Vec<_> {
            let mesh = sim.mesh("bodies").unwrap();
            let table = mesh.as_table().unwrap();
            table
                .columns()
                .iter()
                .map(|c| svtk::downcast::<f64>(c).unwrap().cuda_accessible(1).unwrap())
                .collect()
        };
        let views = request();
        assert!(views.iter().all(|v| !v.is_direct()));
        assert_eq!(dev1.used_bytes(), SIM_BYTES, "one replica per column");

        // ...which the arrays keep when the views drop, so asking again
        // costs no second copy of the data, in memory or over the link...
        drop(views);
        let moved = node.stats().total_link_bytes();
        drop(request());
        assert_eq!(dev1.used_bytes(), SIM_BYTES, "the same replicas, granted again");
        assert_eq!(node.stats().total_link_bytes(), moved);

        // ...and which are released at the end of a run, or with the data.
        node.drop_replicas();
        assert_eq!(dev1.used_bytes(), 0, "replicas freed when the run finalizes");
        drop(request());
        drop(sim);
        assert_eq!(dev1.used_bytes(), 0, "replicas freed with the arrays they copy");
    });
}

#[test]
fn partial_snapshot_pays_only_for_the_requested_arrays() {
    World::new(1).run(|_comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sim = Sim::new(node.clone());
        let dev = node.device(0).unwrap();
        let before = dev.used_bytes();

        // A back-end that declares it reads only `a` and `c` gets a
        // snapshot holding exactly those two columns: half the copy, half
        // the footprint of a full deep copy.
        let req = sensei::DataRequirements::none().with_arrays(
            "bodies",
            svtk::FieldAssociation::Point,
            ["a", "c"],
        );
        let snapshot = SnapshotAdaptor::capture_with(&sim, &req).unwrap();
        let copied = dev.used_bytes() - before;
        assert_eq!(copied, 2 * N * 8, "partial snapshot copies exactly the two requested columns");
        assert!(copied < SIM_BYTES, "strictly fewer bytes than a full snapshot");

        let mesh = snapshot.mesh("bodies").unwrap();
        let table = mesh.as_table().unwrap();
        assert_eq!(table.columns().len(), 2);
        assert!(table.column("a").is_some() && table.column("c").is_some());
        assert!(table.column("b").is_none() && table.column("d").is_none());

        drop(mesh);
        drop(snapshot);
        assert_eq!(dev.used_bytes(), before, "partial snapshot memory returned");
    });
}
