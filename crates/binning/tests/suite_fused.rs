//! Fused-suite equivalence: a fused back-end over many specs
//! ([`binning::BinningSuite::new`]: shared per-step fetch, batched
//! kernels, one packed allreduce) must produce grids
//! bit-identical to independent per-op [`binning::BinningAnalysis`]
//! instances, while doing provably less work per step.

use std::sync::Arc;

use devsim::{NodeConfig, SimNode};
use minimpi::World;
use parking_lot::Mutex;
use sensei::{
    AnalysisAdaptor, BackendControls, Bridge, DataAdaptor, DeviceSpec, MeshMetadata, Result,
};
use svtk::{Allocator, DataObject, HamrDataArray, HamrStream, StreamMode, TableData};

use binning::{BinOp, BinnedResult, BinningAnalysis, BinningSpec, BinningSuite, ResultSink, VarOp};

/// Particle table with four columns; each rank owns a deterministic
/// pseudo-random slice.
struct Particles {
    table: TableData,
    step: u64,
}

impl Particles {
    fn new(node: Arc<SimNode>, device: Option<usize>, rank: usize) -> Self {
        let n = 200;
        let col = |seed: usize| -> Vec<f64> {
            (0..n).map(|i| (((i * seed + rank * 7919) % 1000) as f64) / 500.0 - 1.0).collect()
        };
        let cols =
            [("x", 37), ("y", 53), ("z", 71), ("m", 97)].map(|(name, seed)| (name, col(seed)));
        Particles::of(node, device, &cols)
    }

    /// A table of the given columns, resident on `device` (or the host).
    fn of(node: Arc<SimNode>, device: Option<usize>, cols: &[(&str, Vec<f64>)]) -> Self {
        let alloc = if device.is_some() { Allocator::OpenMp } else { Allocator::Malloc };
        let mut table = TableData::new();
        for (name, values) in cols {
            let arr = HamrDataArray::<f64>::from_slice(
                *name,
                node.clone(),
                values,
                1,
                alloc,
                device,
                HamrStream::default_stream(),
                StreamMode::Sync,
            )
            .unwrap();
            table.set_column(arr.as_array_ref());
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

/// Three coordinate systems, five ops each, prescribed bounds.
fn specs() -> Vec<BinningSpec> {
    [("x", "y"), ("x", "z"), ("y", "z")]
        .iter()
        .map(|(a, b)| {
            let mut s = BinningSpec::new(
                "bodies",
                (*a, *b),
                4,
                vec![
                    VarOp { var: String::new(), op: BinOp::Count },
                    VarOp { var: "m".into(), op: BinOp::Sum },
                    VarOp { var: "m".into(), op: BinOp::Min },
                    VarOp { var: "m".into(), op: BinOp::Max },
                    VarOp { var: "m".into(), op: BinOp::Average },
                ],
            );
            s.bounds = Some(([-1.0, 1.0], [-1.0, 1.0]));
            s
        })
        .collect()
}

/// [`specs`], optionally with the bounds computed on the fly.
fn specs_with(auto_bounds: bool) -> Vec<BinningSpec> {
    let mut specs = specs();
    if auto_bounds {
        for s in &mut specs {
            s.bounds = None;
        }
    }
    specs
}

/// Attach the back-end `build` makes around a sink, step it over the
/// particle fixture, and return what reached the sink plus rank 0's
/// counters — read through the handle taken **before** `build`'s
/// back-end has its placement applied through `controls_mut()`, the
/// order the XML registry path (and so the benchmark) uses.
fn run_backend(
    ranks: usize,
    device_spec: DeviceSpec,
    steps: u64,
    build: impl Fn(ResultSink) -> Box<dyn AnalysisAdaptor> + Send + Sync,
) -> (Vec<BinnedResult>, sensei::CounterSnapshot) {
    let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
    let snaps = World::new(ranks).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let mut backend = build(sink.clone());
        let counters = backend.counters().unwrap();
        backend.controls_mut().device = device_spec;
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(backend, &comm).unwrap();
        let device = match device_spec {
            DeviceSpec::Host => None,
            DeviceSpec::Explicit(d) => Some(d),
            DeviceSpec::Auto => Some(comm.rank() % 2),
        };
        let mut sim = Particles::new(node, device, comm.rank());
        for step in 0..steps {
            sim.step = step;
            bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        }
        bridge.finalize(&comm).unwrap();
        counters.snapshot()
    });
    let results = sink.lock().clone();
    (results, snaps[0])
}

fn run_suite_of(
    specs: Vec<BinningSpec>,
    ranks: usize,
    device_spec: DeviceSpec,
    steps: u64,
) -> (Vec<BinnedResult>, sensei::CounterSnapshot) {
    run_backend(ranks, device_spec, steps, |sink| {
        Box::new(BinningSuite::new(specs.clone()).unwrap().with_sink(sink))
    })
}

fn run_suite(
    ranks: usize,
    device_spec: DeviceSpec,
    steps: u64,
    auto_bounds: bool,
) -> (Vec<BinnedResult>, sensei::CounterSnapshot) {
    run_suite_of(specs_with(auto_bounds), ranks, device_spec, steps)
}

fn run_per_op_reference(
    ranks: usize,
    device_spec: DeviceSpec,
    steps: u64,
    auto_bounds: bool,
) -> Vec<Vec<BinnedResult>> {
    let specs = specs_with(auto_bounds);
    let sinks: Vec<ResultSink> = specs.iter().map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    let sinks2 = sinks.clone();
    World::new(ranks).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let mut bridge = Bridge::new(node.clone());
        for (spec, sink) in specs.clone().into_iter().zip(&sinks2) {
            let analysis = BinningAnalysis::new(spec)
                .with_fused(false)
                .with_sink(sink.clone())
                .with_controls(BackendControls { device: device_spec, ..Default::default() });
            bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        }
        let device = match device_spec {
            DeviceSpec::Host => None,
            DeviceSpec::Explicit(d) => Some(d),
            DeviceSpec::Auto => Some(comm.rank() % 2),
        };
        let mut sim = Particles::new(node, device, comm.rank());
        for step in 0..steps {
            sim.step = step;
            bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        }
        bridge.finalize(&comm).unwrap();
    });
    sinks.iter().map(|s| s.lock().clone()).collect()
}

fn assert_bit_identical(suite: &[BinnedResult], reference: &[Vec<BinnedResult>], steps: usize) {
    let num_specs = reference.len();
    assert_eq!(suite.len(), num_specs * steps, "one suite result per spec per step");
    for step in 0..steps {
        for (si, per_spec) in reference.iter().enumerate() {
            let s = &suite[step * num_specs + si];
            let r = &per_spec[step];
            assert_eq!(s.axes, r.axes);
            assert_eq!(s.arrays.len(), r.arrays.len());
            for ((sn, sv), (rn, rv)) in s.arrays.iter().zip(&r.arrays) {
                assert_eq!(sn, rn);
                assert_eq!(
                    sv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    rv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "spec {si} step {step} array {sn}"
                );
            }
        }
    }
}

#[test]
fn suite_matches_per_op_instances_on_host() {
    let (suite, _) = run_suite(2, DeviceSpec::Host, 3, false);
    let reference = run_per_op_reference(2, DeviceSpec::Host, 3, false);
    assert_bit_identical(&suite, &reference, 3);
}

#[test]
fn suite_matches_per_op_instances_on_device() {
    let (suite, _) = run_suite(2, DeviceSpec::Explicit(0), 3, false);
    let reference = run_per_op_reference(2, DeviceSpec::Explicit(0), 3, false);
    assert_bit_identical(&suite, &reference, 3);
}

#[test]
fn suite_matches_per_op_instances_with_auto_bounds() {
    let (suite, _) = run_suite(2, DeviceSpec::Host, 2, true);
    let reference = run_per_op_reference(2, DeviceSpec::Host, 2, true);
    assert_bit_identical(&suite, &reference, 2);
}

#[test]
fn suite_issues_one_allreduce_per_step() {
    // Prescribed bounds: the only collective is the packed grid
    // reduction — exactly one allreduce round per step for all 3 specs
    // x 6 grids.
    let steps = 4;
    let (_, counters) = run_suite(2, DeviceSpec::Host, steps, false);
    assert_eq!(counters.allreduces, steps, "one packed allreduce per step");
}

#[test]
fn suite_launches_one_kernel_and_download_per_table_per_step() {
    let steps = 3;
    let (_, counters) = run_suite(1, DeviceSpec::Explicit(0), steps, false);
    // Prescribed bounds: no bounds kernels; one fused kernel and one
    // packed download per fetched block, whatever the number of
    // coordinate systems (three here).
    assert_eq!(counters.kernel_launches, steps, "one fused kernel per table");
    assert_eq!(counters.downloads, steps, "one packed download per table");
    assert_eq!(counters.allreduces, steps);

    // Two local blocks: two of each per step, still one allreduce.
    let two_tables = World::new(1).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let ctx = sensei::ExecContext::new(&comm, &node);
        let blocks = [0, 1].map(|b| Particles::new(node.clone(), Some(0), b));
        let mut sim = TwoTables { blocks, step: 0 };
        let mut suite = BinningSuite::new(specs()).unwrap();
        suite.controls_mut().device = DeviceSpec::Explicit(0);
        for step in 0..steps {
            sim.step = step;
            suite.execute(&sim, &ctx).unwrap();
        }
        suite.finalize(&ctx).unwrap();
        suite.counters().unwrap().snapshot()
    });
    let work = |c: &sensei::CounterSnapshot| (c.kernel_launches, c.downloads, c.allreduces);
    assert_eq!(work(&two_tables[0]), (2 * steps, 2 * steps, steps));
}

#[test]
fn xml_configured_suite_runs_through_registry() {
    const XML: &str = r#"
      <sensei>
        <analysis type="binning_suite" mode="lockstep" device="-1">
          <instance>
            <mesh name="bodies"/>
            <axes>x,y</axes>
            <operations>count(),sum(m)</operations>
            <resolution x="2" y="2"/>
            <bounds xlo="-1" xhi="1" ylo="-1" yhi="1"/>
          </instance>
          <instance>
            <mesh name="bodies"/>
            <axes>x,z</axes>
            <operations>count(),max(m)</operations>
            <resolution x="2" y="2"/>
            <bounds xlo="-1" xhi="1" ylo="-1" yhi="1"/>
          </instance>
        </analysis>
      </sensei>"#;
    use sensei::{AnalysisRegistry, ConfigurableAnalysis, CreateContext};
    World::new(2).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let mut registry = AnalysisRegistry::new();
        binning::register_suite(&mut registry);
        let cfg = ConfigurableAnalysis::from_xml(XML).unwrap();
        let ctx = CreateContext { node: node.clone(), rank: comm.rank(), size: comm.size() };
        let backends = cfg.instantiate(&registry, &ctx).unwrap();
        assert_eq!(backends.len(), 1, "two instances collapse into one suite back-end");

        let mut bridge = Bridge::new(node.clone());
        for b in backends {
            bridge.add_analysis(b, &comm).unwrap();
        }
        let mut sim = Particles::new(node, None, comm.rank());
        sim.step = 0;
        assert!(bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap());
        bridge.finalize(&comm).unwrap();
    });
}

#[test]
fn the_fused_attribute_is_rejected_on_both_xml_types() {
    // XML-configured binning always runs the fused step; the per-op
    // reference is reachable from code only (`with_fused(false)`).
    use sensei::{AnalysisRegistry, ConfigurableAnalysis, CreateContext, Error};
    let mut registry = AnalysisRegistry::new();
    binning::register(&mut registry);
    binning::register_suite(&mut registry);
    let ctx = CreateContext { node: SimNode::new(NodeConfig::fast_test(1)), rank: 0, size: 1 };
    let spec = "<axes>x,y</axes><operations>count(),sum(m)</operations>";
    for (ty, body) in [
        ("data_binning", spec.to_string()),
        ("binning_suite", format!("<instance>{spec}</instance>")),
    ] {
        let xml = |attr: &str| {
            format!(r#"<sensei><analysis type="{ty}"{attr}>{body}</analysis></sensei>"#)
        };
        let instantiate =
            |xml: String| ConfigurableAnalysis::from_xml(&xml)?.instantiate(&registry, &ctx);
        assert_eq!(instantiate(xml("")).unwrap().len(), 1, "{ty}");
        for fused in ["on", "off", "maybe"] {
            match instantiate(xml(&format!(r#" fused="{fused}""#))).err() {
                Some(Error::Config(msg)) => {
                    assert!(msg.contains("fused") && msg.contains("removed"), "{ty}: {msg}");
                    assert!(msg.contains(ty), "{ty}: {msg}");
                }
                other => panic!("{ty} fused={fused}: {other:?}"),
            }
        }
    }
}

#[test]
fn suite_fetches_union_once_per_step() {
    let steps = 2;
    let (_, counters) = run_suite(1, DeviceSpec::Host, steps, false);
    // Union of variables across all specs: x, y, z, m — not the 9
    // per-spec fetches (3 specs x 3 variables).
    assert_eq!(counters.fetches, 4 * steps);
}

#[test]
fn count_reads_the_count_grid_wherever_it_is_listed() {
    // The fused step keeps one count grid per spec and publishes every
    // listed `count()` from it: first, in the middle, twice, or not at
    // all, the arrays come out in listed order, bit-identical to the
    // per-op reference, which bins a grid per listed op.
    let op = |var: &str, op| VarOp { var: var.into(), op };
    let lists = [
        vec![op("", BinOp::Count), op("m", BinOp::Sum), op("x", BinOp::Min)],
        vec![op("m", BinOp::Sum), op("", BinOp::Count), op("m", BinOp::Average)],
        vec![op("", BinOp::Count), op("z", BinOp::Max), op("", BinOp::Count)],
        vec![op("m", BinOp::Average), op("y", BinOp::Max)],
    ];
    let specs: Vec<BinningSpec> = lists
        .iter()
        .zip([("x", "y"), ("x", "z"), ("y", "z"), ("y", "m")])
        .map(|(ops, axes)| BinningSpec::new("bodies", axes, 4, ops.clone()))
        .collect();
    for device in [DeviceSpec::Host, DeviceSpec::Explicit(0)] {
        let (fused, _) = run_suite_of(specs.clone(), 2, device, 2);
        let (per_op, _) = run_backend(2, device, 2, |sink| {
            Box::new(BinningSuite::new(specs.clone()).unwrap().with_fused(false).with_sink(sink))
        });
        assert_eq!(fused.len(), 2 * specs.len());
        for (r, spec) in fused.iter().zip(specs.iter().cycle()) {
            let names: Vec<_> = r.arrays.iter().map(|(n, _)| n.clone()).collect();
            let listed: Vec<_> = spec.ops.iter().map(VarOp::output_name).collect();
            assert_eq!(names, listed, "{device:?}");
        }
        assert!(bits_of(&fused) == bits_of(&per_op), "{device:?}: fused differs from per-op");
    }
}

/// One `data_binning` back-end over the first fixture spec (auto bounds),
/// on the fused or the per-op reference path.
fn run_data_binning(
    ranks: usize,
    device_spec: DeviceSpec,
    steps: u64,
    fused: bool,
) -> (Vec<BinnedResult>, sensei::CounterSnapshot) {
    run_backend(ranks, device_spec, steps, move |sink| {
        let spec = specs_with(true).swap_remove(0);
        Box::new(BinningAnalysis::new(spec).with_fused(fused).with_sink(sink))
    })
}

#[test]
fn data_binning_wrapper_contract() {
    // What the benchmark relies on of a one-spec back-end on the fused
    // step. `run_backend` takes the counters handle before the
    // placement goes in through `controls_mut()`.
    let spec = specs_with(true).swap_remove(0);
    assert_eq!(BinningAnalysis::new(spec.clone()).name(), "data_binning");

    let steps = 3;
    for device_spec in [DeviceSpec::Host, DeviceSpec::Explicit(0)] {
        let (results, wrapper) = run_data_binning(2, device_spec, steps, true);
        // One result per step reaches the sink, from rank 0 only.
        assert_eq!(
            results.iter().map(|r| r.step).collect::<Vec<_>>(),
            (0..steps).collect::<Vec<_>>(),
            "{device_spec:?}"
        );
        // The early handle kept counting, and step for step the wrapper
        // does exactly a one-spec suite's work.
        let (_, suite) = run_suite_of(vec![spec.clone()], 2, device_spec, steps);
        let work = |c: &sensei::CounterSnapshot| {
            [c.table_passes, c.kernel_launches, c.downloads, c.allreduces, c.fetches]
        };
        assert_eq!(work(&wrapper), work(&suite), "{device_spec:?}");
        assert_eq!(wrapper.allreduces, 2 * steps, "bounds + grids, one packed round each");
        assert_eq!(wrapper.fetches, 3 * steps, "x, y, m");
    }

    // Placement may change between steps: each step's kernels run on the
    // stream of the device it resolved that step.
    World::new(1).run({
        let spec = spec.clone();
        move |comm| {
            let node = SimNode::new(NodeConfig::fast_test(2));
            let sim = Particles::new(node.clone(), None, comm.rank());
            let ctx = sensei::ExecContext::new(&comm, &node);
            let mut analysis = BinningAnalysis::new(spec.clone());
            let submitted = |d: usize| node.device(d).unwrap().default_stream().submitted();
            for d in [0, 1, 0] {
                analysis.controls_mut().device = DeviceSpec::Explicit(d);
                let before = [submitted(0), submitted(1)];
                analysis.execute(&sim, &ctx).unwrap();
                assert!(submitted(d) > before[d], "device {d} ran the step");
                assert_eq!(submitted(1 - d), before[1 - d], "device {} sat it out", 1 - d);
            }
        }
    });

    // `output` is the directory the files land in, not a parent of
    // per-spec directories.
    let dir = std::env::temp_dir().join(format!("data_binning_contract_{}", std::process::id()));
    let dir2 = dir.clone();
    World::new(1).run(move |comm| {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let analysis = BinningAnalysis::new(spec.clone()).with_output_dir(&dir2);
        let mut bridge = Bridge::new(node.clone());
        bridge.add_analysis(Box::new(analysis), &comm).unwrap();
        let sim = Particles::new(node, None, comm.rank());
        bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
        bridge.finalize(&comm).unwrap();
    });
    assert!(dir.join("x_y_count.csv").exists(), "results are written into `output` itself");
    assert!(!dir.join("spec0").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn data_binning_reports_its_communication() {
    // Both paths issue collectives on a 2-rank run (bounds + grids), and
    // both must charge them to the back-end's counters.
    for fused in [true, false] {
        let (_, counters) = run_data_binning(2, DeviceSpec::Host, 2, fused);
        let comm = counters.comm;
        assert!(
            comm.intra_messages + comm.inter_messages > 0,
            "fused={fused}: no comm messages counted"
        );
        assert!(comm.intra_bytes + comm.inter_bytes > 0, "fused={fused}: no comm bytes counted");
        assert!(counters.allreduces > 0, "fused={fused}");
    }
}

/// Two particle tables per rank, published as the local blocks of one
/// multiblock.
struct TwoTables {
    blocks: [Particles; 2],
    step: u64,
}

impl DataAdaptor for TwoTables {
    fn num_meshes(&self) -> usize {
        1
    }
    fn mesh_metadata(&self, _i: usize) -> Result<MeshMetadata> {
        Ok(MeshMetadata { name: "bodies".into(), arrays: vec![] })
    }
    fn mesh(&self, _name: &str) -> Result<DataObject> {
        let mut mb = svtk::MultiBlock::new(2);
        for (i, block) in self.blocks.iter().enumerate() {
            mb.set_block(i, DataObject::Table(block.table.clone()));
        }
        Ok(DataObject::Multi(mb))
    }
    fn time(&self) -> f64 {
        self.step as f64 * 0.1
    }
    fn time_step(&self) -> u64 {
        self.step
    }
}

#[test]
fn all_specs_host_pass_merges_multiblock_tables_table_major() {
    // The host arm bins every spec in ONE pass per table. Each table's
    // partial grids must still start from the identities and be merged
    // into the step's accumulator table by table — (a1 + a2) + (b1 + b2),
    // not one running sum over both tables' rows — which is what the
    // per-op reference does one (table, op) at a time. Sums of these
    // fixture values round differently under the two orders, so bit
    // identity with the reference pins the merge order.
    let steps = 2;
    let run = |build: &(dyn Fn(ResultSink) -> Vec<Box<dyn AnalysisAdaptor>> + Sync)| {
        let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
        let snaps = World::new(2).run(|comm| {
            let node = SimNode::new(NodeConfig::fast_test(1));
            let mut bridge = Bridge::new(node.clone());
            let mut counters = Vec::new();
            for mut backend in build(sink.clone()) {
                counters.push(backend.counters().unwrap());
                backend.controls_mut().device = DeviceSpec::Host;
                bridge.add_analysis(backend, &comm).unwrap();
            }
            let blocks = [0, 1].map(|b| Particles::new(node.clone(), None, 2 * comm.rank() + b));
            let mut sim = TwoTables { blocks, step: 0 };
            for step in 0..steps {
                sim.step = step;
                bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
            }
            bridge.finalize(&comm).unwrap();
            counters.iter().map(|c| c.snapshot().table_passes).sum::<u64>()
        });
        let results = sink.lock().clone();
        (results, snaps[0])
    };

    let (suite, suite_passes) = run(&|sink| {
        vec![Box::new(BinningSuite::new(specs()).unwrap().with_sink(sink))
            as Box<dyn AnalysisAdaptor>]
    });
    let (per_op, per_op_passes) = run(&|sink| {
        specs()
            .into_iter()
            .map(|spec| {
                let analysis = BinningAnalysis::new(spec).with_fused(false).with_sink(sink.clone());
                Box::new(analysis) as Box<dyn AnalysisAdaptor>
            })
            .collect()
    });

    // Both sinks hold one result per spec per step, in (step, spec) order.
    assert_eq!(suite.len(), specs().len() * steps as usize);
    assert_eq!(suite.len(), per_op.len());
    for (s, r) in suite.iter().zip(&per_op) {
        assert_eq!((s.step, &s.axes), (r.step, &r.axes));
        for ((sn, sv), (rn, rv)) in s.arrays.iter().zip(&r.arrays) {
            assert_eq!(sn, rn);
            assert_eq!(
                sv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                rv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "step {} axes {:?} array {sn}",
                s.step,
                s.axes
            );
        }
    }
    // One pass per host table for all three specs, against one per
    // (table, spec, op) on the reference path (6 grids per spec).
    assert_eq!(suite_passes, 2 * steps);
    assert_eq!(per_op_passes, 2 * 3 * 6 * steps);
}

/// Every published array as `(step, "x/y/name", value bits)`.
fn bits_of(results: &[BinnedResult]) -> Vec<(u64, String, Vec<u64>)> {
    let arrays = |r: &BinnedResult| {
        let (step, (a, b)) = (r.step, r.axes.clone());
        let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect();
        r.arrays
            .iter()
            .map(move |(n, v)| (step, format!("{a}/{b}/{n}"), bits(v)))
            .collect::<Vec<_>>()
    };
    results.iter().flat_map(arrays).collect()
}

#[test]
fn placement_change_mid_run_rebuilds_the_device_side() {
    // A caller can move a live back-end through `controls_mut()`
    // between steps. The suite's streams and resident blocks belong to
    // the device they were made on, so every move must rebuild them:
    // device 0 -> device 1 -> host -> device 0, each step bit-identical to
    // a fresh suite that only ever ran at that placement.
    World::new(2).run(|comm| {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let ctx = sensei::ExecContext::new(&comm, &node);
        let mut sim = Particles::new(node.clone(), None, comm.rank());
        let sink: ResultSink = Arc::default();
        let mut suite = BinningSuite::new(specs_with(true)).unwrap().with_sink(sink.clone());
        let placements = [Some(0), Some(1), None, Some(0)];
        for (step, placement) in placements.into_iter().enumerate() {
            let spec = placement.map_or(DeviceSpec::Host, DeviceSpec::Explicit);
            sim.step = step as u64;
            suite.controls_mut().device = spec;
            suite.execute(&sim, &ctx).unwrap();

            let fresh_sink: ResultSink = Arc::default();
            let mut fresh =
                BinningSuite::new(specs_with(true)).unwrap().with_sink(fresh_sink.clone());
            fresh.controls_mut().device = spec;
            fresh.execute(&sim, &ctx).unwrap();
            fresh.finalize(&ctx).unwrap();
            if comm.rank() == 0 {
                let moved = std::mem::take(&mut *sink.lock());
                assert_eq!(moved.len(), 3);
                assert_eq!(bits_of(&moved), bits_of(&fresh_sink.lock()), "step {step} on {spec:?}");
            }
        }
        suite.finalize(&ctx).unwrap();
        assert_eq!(suite.executes(), 4);
    });
}

/// Coordinate systems over the edge-case tables: sums and averages read
/// `m` (finite values, signed zeros, NaN, +inf), minima and maxima read
/// `w` (both infinities and NaN too). They differ in resolution and in op
/// list, so their segments of a packed device block differ in length and
/// in number. At `resolution` 144 the three accumulators are 0.7 to 1.0
/// MB each and 2.5 MB together: more than an L2 holds, which is when the
/// fused core walks the rows in long blocks.
fn edge_specs(resolution: usize) -> Vec<BinningSpec> {
    let op = |var: &str, op| VarOp { var: var.into(), op };
    let spec = |axes: (&str, &str), ops| {
        let mut s = BinningSpec::new("bodies", axes, resolution, ops);
        s.bounds = Some(([-1.0, 1.0], [-1.0, 1.0]));
        s
    };
    let mut specs = vec![
        spec(
            ("x", "y"),
            vec![
                op("", BinOp::Count),
                op("m", BinOp::Sum),
                op("w", BinOp::Min),
                op("w", BinOp::Max),
                op("m", BinOp::Average),
            ],
        ),
        spec(("y", "x"), vec![op("w", BinOp::Max), op("m", BinOp::Average), op("m", BinOp::Sum)]),
        spec(
            ("x", "y"),
            vec![
                op("w", BinOp::Min),
                op("", BinOp::Count),
                op("m", BinOp::Sum),
                op("m", BinOp::Average),
            ],
        ),
    ];
    specs[1].resolution = (resolution - 1, resolution + 1);
    specs
}

/// One of the edge-case tables, `n` rows: every row of bin (0, 0) sums
/// -0.0, other bins see NaN, +inf and ordinary values; `shift` moves all
/// rows out of the mesh.
fn edge_table(
    node: &Arc<SimNode>,
    device: Option<usize>,
    n: usize,
    salt: usize,
    shift: f64,
) -> Particles {
    let coord = |seed: usize| -> Vec<f64> {
        (0..n).map(|i| (((i * seed + salt * 7919) % 1000) as f64) / 500.0 - 1.0 + shift).collect()
    };
    let (x, y) = (coord(37), coord(53));
    let special = [f64::NAN, f64::INFINITY, 0.25, -3.5, 1.0e15, -0.0];
    let m: Vec<f64> = (0..n)
        .map(
            |i| if x[i] < -0.5 && y[i] < -0.5 { -0.0 } else { special[(i + salt) % special.len()] },
        )
        .collect();
    let w: Vec<f64> = (0..n)
        .map(|i| [f64::NEG_INFINITY, 2.0, f64::NAN, f64::INFINITY, -7.0][(i * 3 + salt) % 5])
        .collect();
    Particles::of(node.clone(), device, &[("x", x), ("y", y), ("m", m), ("w", w)])
}

#[test]
fn first_table_copied_later_tables_merged_matches_per_op_on_edge_cases() {
    // The fused step seeds each grid segment with the first table's
    // partial and merges the second table's into it; the per-op reference
    // starts every grid at its identities and merges both. Same bits, on
    // host and device placement, lockstep and as a task graph, over: sums
    // of -0.0 only, NaN / +-inf values, an empty first or second table,
    // a table whose rows all fall outside the mesh, and tables of several
    // long blocks under specs whose accumulators call for them.
    use sensei::ExecutionMethod;
    // (mesh resolution, (rows, shift) of the two local tables).
    let cases = [
        (4, [(150, 0.0), (90, 0.0)]),
        (4, [(0, 0.0), (120, 0.0)]),
        (4, [(120, 0.0), (0, 0.0)]),
        (4, [(80, 5.0), (100, 0.0)]),
        (4, [(100, 0.0), (80, 5.0)]),
        (4, [(0, 0.0), (0, 0.0)]),
        (144, [(40_000, 0.0), (500, 0.0)]),
    ];
    for device_spec in [DeviceSpec::Explicit(0), DeviceSpec::Host] {
        for (resolution, case) in cases {
            let run = |execution: ExecutionMethod,
                       build: &(dyn Fn(ResultSink) -> Vec<Box<dyn AnalysisAdaptor>> + Sync)| {
                let sink: ResultSink = Arc::default();
                World::new(2).run(|comm| {
                    let node = SimNode::new(NodeConfig::fast_test(2));
                    let mut bridge = Bridge::new(node.clone());
                    for mut backend in build(sink.clone()) {
                        backend.controls_mut().device = device_spec;
                        backend.controls_mut().execution = execution;
                        bridge.add_analysis(backend, &comm).unwrap();
                    }
                    let device = match device_spec {
                        DeviceSpec::Explicit(d) => Some(d),
                        _ => None,
                    };
                    let blocks = [0, 1].map(|b| {
                        let (rows, shift) = case[b];
                        edge_table(&node, device, rows, 2 * comm.rank() + b, shift)
                    });
                    let mut sim = TwoTables { blocks, step: 0 };
                    for step in 0..2 {
                        sim.step = step;
                        bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
                    }
                    bridge.finalize(&comm).unwrap();
                });
                let mut results = std::mem::take(&mut *sink.lock());
                // Per-op instances fill the sink spec-major within a step;
                // asynchronous engines interleave them freely.
                results.sort_by(|a, b| (a.step, &a.axes).cmp(&(b.step, &b.axes)));
                bits_of(&results)
            };
            let reference = run(ExecutionMethod::Lockstep, &|sink| {
                edge_specs(resolution)
                    .into_iter()
                    .map(|spec| {
                        let a =
                            BinningAnalysis::new(spec).with_fused(false).with_sink(sink.clone());
                        Box::new(a) as Box<dyn AnalysisAdaptor>
                    })
                    .collect()
            });
            assert_eq!(reference.len(), 2 * (5 + 3 + 4), "two steps of 5 + 3 + 4 arrays");
            for execution in [ExecutionMethod::Lockstep, ExecutionMethod::Dag] {
                let fused = run(execution, &|sink| {
                    vec![Box::new(
                        BinningSuite::new(edge_specs(resolution)).unwrap().with_sink(sink),
                    ) as Box<dyn AnalysisAdaptor>]
                });
                assert!(
                    fused == reference,
                    "{device_spec:?} {execution:?} resolution {resolution} tables {case:?}"
                );
            }
        }
    }
}

/// A sum whose bin meets both infinities and a NaN value is NaN whatever
/// order its adds ran in, but the NaN's sign bit depends on that order,
/// which the fused fold and the per-op kernel, a block merge and a dense
/// allreduce, need not share. What a result publishes is the one
/// `f64::NAN` there: fused and per-op (`with_fused(false)`) back-ends over
/// one table whose `sum` and `avg` columns put NaN, `+inf` and `-inf` into
/// one bin in every order, on host and device, on one and two ranks,
/// publish the same bits.
#[test]
fn a_published_nan_is_the_canonical_nan_on_every_path() {
    let spec = || {
        let op = |var: &str, op| VarOp { var: var.into(), op };
        let ops = [BinOp::Count, BinOp::Sum, BinOp::Average, BinOp::Min, BinOp::Max];
        let ops = ops.map(|o| op(if o == BinOp::Count { "" } else { "m" }, o)).to_vec();
        let mut s = BinningSpec::new("bodies", ("x", "y"), 2, ops);
        s.bounds = Some(([-1.0, 1.0], [-1.0, 1.0]));
        s
    };
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    // Per bin of the 2 x 2 mesh, the values its rows carry, in row order.
    let bins = [vec![inf, -inf, nan], vec![nan, inf, -inf], vec![inf, nan, -inf], vec![-inf, inf]];
    for device_spec in [DeviceSpec::Host, DeviceSpec::Explicit(0)] {
        for ranks in [1, 2] {
            let run = |fused: bool| {
                let sink: ResultSink = Arc::default();
                World::new(ranks).run(|comm| {
                    let node = SimNode::new(NodeConfig::fast_test(2));
                    let mut bridge = Bridge::new(node.clone());
                    let analysis = BinningAnalysis::new(spec())
                        .with_fused(fused)
                        .with_sink(sink.clone())
                        .with_controls(BackendControls {
                            device: device_spec,
                            ..Default::default()
                        });
                    bridge.add_analysis(Box::new(analysis), &comm).unwrap();
                    // Rank 1 walks each bin's values in reverse, so a merge
                    // meets the other rank's NaN from either side.
                    let (mut x, mut y, mut m) = (Vec::new(), Vec::new(), Vec::new());
                    for (b, values) in bins.iter().enumerate() {
                        let mut values = values.clone();
                        if comm.rank() == 1 {
                            values.reverse();
                        }
                        let (bx, by) = ([-0.5, 0.5][b % 2], [-0.5, 0.5][b / 2]);
                        x.extend(values.iter().map(|_| bx));
                        y.extend(values.iter().map(|_| by));
                        m.extend(values);
                    }
                    let device = match device_spec {
                        DeviceSpec::Explicit(d) => Some(d),
                        _ => None,
                    };
                    let sim = Particles::of(node, device, &[("x", x), ("y", y), ("m", m)]);
                    bridge.execute(&sim, &comm, std::time::Duration::ZERO).unwrap();
                    bridge.finalize(&comm).unwrap();
                });
                let results = std::mem::take(&mut *sink.lock());
                assert_eq!(results.len(), 1, "one step from rank 0");
                bits_of(&results)
            };
            let (fused, per_op) = (run(true), run(false));
            let what = format!("{device_spec:?} on {ranks} ranks");
            for (_, name, bits) in &fused {
                let nans = bits.iter().filter(|b| f64::from_bits(**b).is_nan());
                let sum_or_avg = name.ends_with("sum_m") || name.ends_with("avg_m");
                assert_eq!(nans.clone().count(), if sum_or_avg { 4 } else { 0 }, "{what}: {name}");
                assert!(nans.into_iter().all(|&b| b == nan.to_bits()), "{what}: {name} {bits:x?}");
            }
            assert!(fused == per_op, "{what}: fused {fused:x?} per-op {per_op:x?}");
        }
    }
}
