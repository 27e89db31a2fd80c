//! End-to-end tests: the data-binning back-end coupled through the SENSEI
//! bridge, across ranks, placements, and execution methods.

use std::sync::Arc;

use devsim::{NodeConfig, SimNode};
use minimpi::World;
use parking_lot::Mutex;
use sensei::{
    AnalysisRegistry, BackendControls, Bridge, ConfigurableAnalysis, CreateContext, DataAdaptor,
    DeviceSpec, ExecutionMethod, MeshMetadata, Result,
};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

use binning::{BinOp, BinningAnalysis, BinningSpec, ResultSink, VarOp};

/// Simulation adaptor publishing a fixed particle table, optionally
/// device-resident. The table (with its uploads) is built once at
/// construction; `mesh()` hands out zero-copy handles, as a real
/// simulation adaptor would.
struct Particles {
    table: TableData,
    step: u64,
}

impl Particles {
    fn new(
        node: Arc<SimNode>,
        device: Option<usize>,
        xs: Vec<f64>,
        ys: Vec<f64>,
        mass: Vec<f64>,
    ) -> Self {
        let alloc = if device.is_some() { Allocator::OpenMp } else { Allocator::Malloc };
        let mut table = TableData::new();
        for (name, data) in [("x", &xs), ("y", &ys), ("mass", &mass)] {
            let col = HamrDataArray::<f64>::from_slice(
                name,
                node.clone(),
                data,
                1,
                alloc,
                device,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .unwrap();
            table.set_column(col.as_array_ref());
        }
        Particles { table, step: 0 }
    }
}

impl DataAdaptor for Particles {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
        Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
    }
    fn mesh(&self, _name: &str) -> Result<DataObject> {
        Ok(DataObject::Table(self.table.clone()))
    }
    fn time(&self) -> f64 {
        self.step as f64 * 0.1
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

fn spec() -> BinningSpec {
    let mut s = BinningSpec::new(
        "bodies",
        ("x", "y"),
        2,
        vec![
            VarOp { var: String::new(), op: BinOp::Count },
            VarOp { var: "mass".into(), op: BinOp::Sum },
            VarOp { var: "mass".into(), op: BinOp::Average },
        ],
    );
    s.bounds = Some(([0.0, 2.0], [0.0, 2.0]));
    s
}

/// Each rank owns one point in cell (rank % 4) with mass rank+1.
fn rank_particles(node: Arc<SimNode>, device: Option<usize>, rank: usize) -> Particles {
    let cell = rank % 4;
    let (cx, cy) = ((cell % 2) as f64 + 0.5, (cell / 2) as f64 + 0.5);
    Particles::new(node, device, vec![cx], vec![cy], vec![rank as f64 + 1.0])
}

fn run_case(
    ranks: usize,
    device_spec: DeviceSpec,
    execution: ExecutionMethod,
) -> Vec<binning::BinnedResult> {
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
    let sink2 = sink.clone();
    World::new(ranks).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let analysis =
            BinningAnalysis::new(spec()).with_sink(sink2.clone()).with_controls(BackendControls {
                execution,
                device: device_spec,
                ..Default::default()
            });
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        let device = match device_spec {
            DeviceSpec::Host => None,
            DeviceSpec::Explicit(d) => Some(d),
            DeviceSpec::Auto => Some(comm.rank() % 2),
        };
        let mut sim = rank_particles(node, device, comm.rank());
        for step in 0..3 {
            sim.step = step;
            bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        }
        bridge.finalize(&comm).unwrap();
    });
    let results = sink.lock().clone();
    results
}

fn check_global_result(results: &[binning::BinnedResult], ranks: usize) {
    assert_eq!(results.len(), 3, "one result per step");
    for r in results {
        let count = r.array("count").unwrap();
        let sum = r.array("sum_mass").unwrap();
        let avg = r.array("avg_mass").unwrap();
        // With 4 ranks: one particle per cell, masses 1..=4.
        let total: f64 = count.iter().sum();
        assert_eq!(total as usize, ranks);
        let mass_total: f64 = sum.iter().sum();
        assert_eq!(mass_total, (ranks * (ranks + 1)) as f64 / 2.0);
        for b in 0..4 {
            if count[b] > 0.0 {
                assert!((avg[b] - sum[b] / count[b]).abs() < 1e-12);
            } else {
                assert!(avg[b].is_nan());
            }
        }
    }
}

#[test]
fn lockstep_on_host() {
    let results = run_case(4, DeviceSpec::Host, ExecutionMethod::Lockstep);
    check_global_result(&results, 4);
}

#[test]
fn lockstep_on_devices() {
    let results = run_case(4, DeviceSpec::Auto, ExecutionMethod::Lockstep);
    check_global_result(&results, 4);
}

#[test]
fn asynchronous_on_host() {
    let results = run_case(4, DeviceSpec::Host, ExecutionMethod::Asynchronous);
    check_global_result(&results, 4);
}

#[test]
fn asynchronous_on_devices() {
    let results = run_case(4, DeviceSpec::Auto, ExecutionMethod::Asynchronous);
    check_global_result(&results, 4);
}

#[test]
fn host_and_device_binning_agree_bitwise_on_sums() {
    let host = run_case(2, DeviceSpec::Host, ExecutionMethod::Lockstep);
    let dev = run_case(2, DeviceSpec::Explicit(1), ExecutionMethod::Lockstep);
    for (h, d) in host.iter().zip(&dev) {
        assert_eq!(h.array("count").unwrap(), d.array("count").unwrap());
        assert_eq!(h.array("sum_mass").unwrap(), d.array("sum_mass").unwrap());
    }
}

#[test]
fn same_device_access_is_zero_copy() {
    // Data on device 0, binning on device 0: access views must be direct
    // — no h2d/d2h/d2d traffic beyond the result download.
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let analysis = BinningAnalysis::new(spec()).with_controls(BackendControls {
            device: DeviceSpec::Explicit(0),
            ..Default::default()
        });
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        let mut sim = rank_particles(node.clone(), Some(0), 0);
        let before = node.stats();
        sim.step = 1;
        bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        let after = node.stats();
        assert_eq!(after.copies_h2d, before.copies_h2d, "inputs are accessed in place");
        assert_eq!(after.copies_d2d, before.copies_d2d, "no inter-device movement");
        // Result download (one d2h per binning kernel + bounds) is expected.
        assert!(after.copies_d2h > before.copies_d2h);
        bridge.finalize(&comm).unwrap();
    });
}

#[test]
fn host_placement_moves_data_off_device() {
    // Data on device, binning on host: columns must be moved d2h.
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let analysis = BinningAnalysis::new(spec())
            .with_controls(BackendControls { device: DeviceSpec::Host, ..Default::default() });
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        let mut sim = rank_particles(node.clone(), Some(0), 0);
        let before = node.stats();
        sim.step = 1;
        bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        let after = node.stats();
        assert!(after.copies_d2h > before.copies_d2h, "device data must move to the host");
        bridge.finalize(&comm).unwrap();
    });
}

#[test]
fn xml_configured_binning_runs_through_registry() {
    const XML: &str = r#"
      <sensei>
        <analysis type="data_binning" mode="lockstep" device="-1">
          <axes>x,y</axes>
          <operations>count(),sum(mass)</operations>
          <resolution x="2" y="2"/>
          <bounds xlo="0" xhi="2" ylo="0" yhi="2"/>
        </analysis>
      </sensei>"#;
    World::new(2).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut registry = AnalysisRegistry::new();
        binning::register(&mut registry);
        let cfg = ConfigurableAnalysis::from_xml(XML).unwrap();
        let ctx = CreateContext { node: node.clone(), rank: comm.rank(), size: comm.size() };
        let backends = cfg.instantiate(&registry, &ctx).unwrap();
        assert_eq!(backends.len(), 1);

        let mut bridge = Bridge::new(node.clone());
        for b in backends {
            bridge.add_analysis(b, &comm).unwrap();
        }
        let mut sim = rank_particles(node, None, comm.rank());
        sim.step = 0;
        assert!(bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap());
        bridge.finalize(&comm).unwrap();
    });
}

#[test]
fn auto_bounds_cover_all_ranks_data() {
    // No manual bounds: the analysis computes global min/max on the fly.
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
    let sink2 = sink.clone();
    World::new(3).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut s = spec();
        s.bounds = None;
        let analysis = BinningAnalysis::new(s).with_sink(sink2.clone());
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        // rank r's particle sits at (r, r) with mass 1.
        let mut sim = Particles::new(
            node,
            Some(0),
            vec![comm.rank() as f64],
            vec![comm.rank() as f64],
            vec![1.0],
        );
        bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        sim.step = 1;
        bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        bridge.finalize(&comm).unwrap();
    });
    let results = sink.lock();
    for r in results.iter() {
        // Every particle is inside the auto bounds: total count = 3.
        assert_eq!(r.array("count").unwrap().iter().sum::<f64>(), 3.0);
        assert_eq!(r.grid.lo[0], 0.0);
        assert_eq!(r.grid.hi[0], 2.0);
    }
}

#[test]
fn multiblock_tables_are_binned_per_block() {
    World::new(1).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
        let analysis = BinningAnalysis::new(spec()).with_sink(sink.clone());
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(analysis), &comm).unwrap();

        struct MultiSim {
            node: Arc<SimNode>,
        }
        impl DataAdaptor for MultiSim {
            fn num_meshes(&self) -> usize {
                1
            }
            fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
                Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
            }
            fn mesh(&self, _name: &str) -> Result<DataObject> {
                let mk = |xs: &[f64], m: &[f64]| {
                    let mut t = TableData::new();
                    for (name, d) in [("x", xs), ("y", xs), ("mass", m)] {
                        let a = HamrDataArray::<f64>::from_slice(
                            name,
                            self.node.clone(),
                            d,
                            1,
                            Allocator::Malloc,
                            None,
                            HamrStream::default_stream(),
                            StreamMode::Sync,
                        )
                        .unwrap();
                        t.set_column(a.as_array_ref());
                    }
                    DataObject::Table(t)
                };
                let mut mb = svtk::MultiBlock::new(3);
                mb.set_block(0, mk(&[0.5], &[2.0]));
                mb.set_block(2, mk(&[1.5, 1.6], &[3.0, 4.0]));
                Ok(DataObject::Multi(mb))
            }
            fn time(&self) -> f64 {
                0.0
            }
            fn time_step(&self) -> u64 {
                0
            }
        }

        let sim = MultiSim { node };
        bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        bridge.finalize(&comm).unwrap();
        let results = sink.lock();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.array("count").unwrap().iter().sum::<f64>(), 3.0);
        assert_eq!(r.array("sum_mass").unwrap().iter().sum::<f64>(), 9.0);
    });
}

/// Read an image's cell arrays back through the accessor path: every
/// array is materialized with `to_vec` (host-accessible view), whatever
/// its placement, and keyed by name.
fn image_cell_arrays(img: &svtk::ImageData) -> Vec<(String, Vec<u64>)> {
    img.data(svtk::FieldAssociation::Cell)
        .arrays()
        .iter()
        .map(|a| {
            let vals = svtk::downcast::<f64>(a).unwrap().to_vec().unwrap();
            (a.name().to_string(), vals.iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

#[test]
fn to_image_host_and_device_agree() {
    // `BinnedResult::to_image` and `to_image_on(Some(d))` publish the
    // same result: read back through the accessor path, the device image
    // is bit-identical to the host image.
    let n = 13;
    let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37) % 2.0).collect();
    let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73) % 2.0).collect();
    let ms: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();

    World::new(1).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
        let analysis = BinningAnalysis::new(spec()).with_sink(sink.clone());
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        let sim = Particles::new(node.clone(), None, xs.clone(), ys.clone(), ms.clone());
        bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        bridge.finalize(&comm).unwrap();
        let result = sink.lock().last().cloned().unwrap();
        let host = image_cell_arrays(&result.to_image(&node).unwrap());
        let dev = image_cell_arrays(&result.to_image_on(&node, Some(0)).unwrap());
        assert_eq!(host.len(), 3, "count, sum_mass, avg_mass");
        assert_eq!(host, dev, "device publication reads back identical to host");
    });
}
