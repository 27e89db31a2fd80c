//! Figure 1: an n-body run with in situ data binning of the sum of mass
//! in the x-y and x-z planes.
//!
//! The paper's Figure 1 shows a 100k-body run on 64 GPUs with 256x256
//! binning; this binary reproduces the same pipeline at configurable
//! scale and writes the binned mass-sum grids as PGM images and CSVs.
//!
//! ```text
//! figure1 [--bodies N] [--steps N] [--resolution N] [--ranks N] [--out DIR]
//! ```

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::sync::Arc;

use bench::bench_node_config;
use binning::{BinOp, BinningAnalysis, BinningSpec, ResultSink, VarOp};
use devsim::SimNode;
use minimpi::World;
use newtonpp::{forces::Gravity, ic::UniformIc, IcKind, Newton, NewtonAdaptor, NewtonConfig};
use parking_lot::Mutex;
use sensei::{BackendControls, Bridge, DeviceSpec};

struct Args {
    bodies: usize,
    steps: u64,
    resolution: usize,
    ranks: usize,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        bodies: 10_000,
        steps: 20,
        resolution: 256,
        ranks: 4,
        out: PathBuf::from("results/figure1"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let next = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| panic!("missing value after {}", args[*i - 1])).clone()
        };
        match args[i].as_str() {
            "--bodies" => a.bodies = next(&mut i).parse().expect("--bodies"),
            "--steps" => a.steps = next(&mut i).parse().expect("--steps"),
            "--resolution" => a.resolution = next(&mut i).parse().expect("--resolution"),
            "--ranks" => a.ranks = next(&mut i).parse().expect("--ranks"),
            "--out" => a.out = PathBuf::from(next(&mut i)),
            other => panic!("unknown argument '{other}'"),
        }
        i += 1;
    }
    a
}

fn main() {
    let a = parse_args();
    println!(
        "Figure 1 reproduction: {} bodies, {} steps, {}x{} bins, {} ranks",
        a.bodies, a.steps, a.resolution, a.resolution, a.ranks
    );
    // Functional run: the time model is irrelevant for image output.
    let node = SimNode::new(devsim::NodeConfig {
        time_scale: 0.0,
        ..bench_node_config(a.ranks.max(1), 0.0)
    });

    let xy_sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
    let xz_sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
    let (xy2, xz2) = (xy_sink.clone(), xz_sink.clone());
    let (bodies, steps, resolution, ranks) = (a.bodies, a.steps, a.resolution, a.ranks);
    let node2 = node.clone();

    World::new(ranks).run(move |comm| {
        let cfg = NewtonConfig {
            ic: IcKind::Uniform(UniformIc {
                n: bodies,
                seed: 20230817,
                half_width: 1.0,
                mass_range: (0.5, 1.5),
                velocity_scale: 0.1,
                central_mass: bodies as f64, // the massive body at the origin
            }),
            dt: 1e-4,
            grav: Gravity { g: 1.0, eps: 0.05 },
            x_extent: (-2.0, 2.0),
            repartition_every: None,
        };
        let device = comm.rank() % node2.num_devices();
        let mut sim = Newton::new(node2.clone(), &comm, device, cfg).expect("init");

        let mut bridge = Bridge::new(node2.clone());
        for (axes, sink) in [(("x", "y"), &xy2), (("x", "z"), &xz2)] {
            let spec = BinningSpec::new(
                "bodies",
                axes,
                resolution,
                vec![
                    VarOp { var: "mass".into(), op: BinOp::Sum },
                    VarOp { var: String::new(), op: BinOp::Count },
                ],
            );
            let analysis = BinningAnalysis::new(spec)
                .with_sink(sink.clone())
                .with_controls(BackendControls { device: DeviceSpec::Auto, ..Default::default() });
            bridge.add_analysis(Box::new(analysis), &comm).expect("attach");
        }

        for s in 0..steps {
            sim.step(&comm).expect("step");
            let adaptor = NewtonAdaptor::new(&sim);
            bridge.execute(&adaptor, &comm, std::time::Duration::ZERO).expect("in situ");
            if comm.rank() == 0 && (s + 1) % 5 == 0 {
                eprintln!("step {}/{}", s + 1, steps);
            }
        }
        bridge.finalize(&comm).expect("finalize");
    });

    std::fs::create_dir_all(&a.out).expect("output dir");
    for (name, sink) in [("xy", xy_sink), ("xz", xz_sink)] {
        let results = sink.lock();
        let last = results.last().expect("at least one result");
        let sum = last.array("sum_mass").expect("sum_mass output");
        let pgm = binning::io::to_pgm(last.grid.nx, last.grid.ny, sum, true);
        let path = a.out.join(format!("mass_sum_{name}.pgm"));
        std::fs::write(&path, pgm).expect("write pgm");
        std::fs::write(
            a.out.join(format!("mass_sum_{name}.csv")),
            binning::io::to_csv(last.grid.nx, last.grid.ny, sum),
        )
        .expect("write csv");
        let total: f64 = sum.iter().sum();
        println!(
            "{}: wrote {} (total binned mass {:.1}, grid {}x{})",
            name,
            path.display(),
            total,
            last.grid.nx,
            last.grid.ny
        );
    }
    println!("done; view the PGMs with any image viewer (cf. paper Figure 1, middle/right panels)");
}
