//! The experiment harness: regenerates Table 1, Figure 2, and Figure 3,
//! and runs the A/B modes.
//!
//! ```text
//! harness [table1|figure2|figure3|all] [--bodies N] [--steps N]
//!         [--resolution N] [--instances N] [--devices N] [--scale F]
//!         [--pool on|off] [--fused on|off] [--out DIR]
//! harness binning [--bodies N] [--steps N] [--resolution N]
//!         [--instances N] [--devices N] [--scale F] [--out DIR]
//! harness chaos [--seed N] [--out DIR]
//! harness dag [--steps N] [--devices N] [--scale F] [--out DIR]
//! harness snapshot [--bodies N] [--steps N] [--resolution N]
//!         [--instances N] [--scale F] [--out DIR]
//! harness scale [--rank-counts N,N,...] [--steps N] [--out DIR]
//! harness serve [--sessions N,N,...] [--out DIR]
//! harness run-config <sensei.xml> [--bodies N] [--steps N] [--devices N]
//!         [--scale F]
//! ```
//!
//! Every A/B mode is run → print → write → verdict through
//! [`bench::report::emit`]: the mode's report struct (see the `bench`
//! module of the same name for the arms and what they isolate) lists its
//! rows and its claims, `emit` prints them as one table, writes
//! `BENCH_<mode>.jsonl` under `--out` (default `results/`) in the
//! benchmark spine's row shape, and the process exits 1 iff a gating
//! claim failed — after the file is written. The claims are defined once,
//! in `impl Report for <Mode>Report`, and the `bench` lib tests check the
//! same list.
//!
//! `figure2`/`figure3` run the full 8-case matrix (4 placements × 2
//! execution methods), print the paper-shaped bar charts, write the two
//! figure CSVs (`figure2_figure3.csv`, `backend_breakdown.csv`) and the
//! matrix's timings and caching-pool counters as `BENCH_pool.jsonl`;
//! §4.4's "asynchronous beats lockstep" finding is a non-gating claim per
//! placement.
//!
//! `run-config` runs Newton++ against a SENSEI XML configuration (the
//! files under `configs/sensei_xml/`), with back-end selection, placement,
//! and execution method all controlled by the XML, as in the paper's
//! appendix. An optional `<topology>` element groups the ranks into
//! simulated nodes and routes collectives hierarchically.

#![deny(unsafe_code)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::report::{emit, write_text, Report};
use bench::{ascii_bars, ascii_stack, bench_node_config, run_case, AggregatedCase, CaseConfig};
use sensei::{ExecutionMethod, Placement};

fn parse_args() -> (String, CaseConfig, PathBuf, Option<PathBuf>, u64, Vec<usize>, Vec<usize>) {
    let mut mode = "all".to_string();
    let mut cfg = CaseConfig::small(Placement::Host, ExecutionMethod::Lockstep);
    let mut out = PathBuf::from("results");
    let mut xml = None;
    let mut chaos_seed = 7u64;
    let mut rank_counts = vec![4, 64, 512];
    let mut session_counts = vec![64, 512, 4096];
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let next = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| panic!("missing value after {}", args[*i - 1])).clone()
        };
        match args[i].as_str() {
            "table1" | "figure2" | "figure3" | "binning" | "chaos" | "snapshot" | "dag"
            | "scale" | "serve" | "all" => mode = args[i].clone(),
            "run-config" => {
                mode = "run-config".into();
                xml = Some(PathBuf::from(next(&mut i)));
            }
            "--bodies" => cfg.bodies = next(&mut i).parse().expect("--bodies"),
            "--steps" => cfg.steps = next(&mut i).parse().expect("--steps"),
            "--resolution" => cfg.resolution = next(&mut i).parse().expect("--resolution"),
            "--instances" => cfg.instances = next(&mut i).parse().expect("--instances"),
            "--devices" => cfg.num_devices = next(&mut i).parse().expect("--devices"),
            "--scale" => cfg.time_scale = next(&mut i).parse().expect("--scale"),
            "--pool" => {
                cfg.pool = match next(&mut i).as_str() {
                    "on" => true,
                    "off" => false,
                    other => panic!("--pool takes 'on' or 'off', got '{other}'"),
                }
            }
            "--fused" => {
                cfg.fused = match next(&mut i).as_str() {
                    "on" => true,
                    "off" => false,
                    other => panic!("--fused takes 'on' or 'off', got '{other}'"),
                }
            }
            "--seed" => chaos_seed = next(&mut i).parse().expect("--seed"),
            "--rank-counts" => {
                rank_counts = next(&mut i)
                    .split(',')
                    .map(|s| s.trim().parse().expect("--rank-counts takes a comma list"))
                    .collect();
                assert!(!rank_counts.is_empty(), "--rank-counts needs at least one count");
            }
            "--sessions" => {
                session_counts = next(&mut i)
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sessions takes a comma list"))
                    .collect();
                assert!(!session_counts.is_empty(), "--sessions needs at least one count");
            }
            "--out" => out = PathBuf::from(next(&mut i)),
            other => panic!("unknown argument '{other}'"),
        }
        i += 1;
    }
    (mode, cfg, out, xml, chaos_seed, rank_counts, session_counts)
}

/// Run Newton++ against a SENSEI XML configuration: back-end selection,
/// placement, and execution method all come from the file.
fn run_config(xml_path: &PathBuf, base: &CaseConfig) {
    use devsim::SimNode;
    use minimpi::World;
    use newtonpp::{forces::Gravity, ic::UniformIc, IcKind, Newton, NewtonAdaptor, NewtonConfig};
    use sensei::{AnalysisRegistry, Bridge, ConfigurableAnalysis, CreateContext};

    let xml = std::fs::read_to_string(xml_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", xml_path.display()));
    let node = SimNode::new(bench_node_config(base.num_devices, base.time_scale));
    let ranks = base.num_devices;
    let (bodies, steps, seed) = (base.bodies, base.steps, base.seed);
    println!("running {} on {ranks} ranks, {bodies} bodies, {steps} steps", xml_path.display());

    // An optional <topology> element groups the ranks into simulated
    // nodes, selects the collective routing, and sets the two-tier
    // network cost model the world charges messages against.
    let mut world = World::new(ranks);
    if let Some(t) = ConfigurableAnalysis::from_xml(&xml).expect("parse XML").topology_config() {
        let topo = t.topology(ranks);
        println!(
            "topology: {} ranks on {} nodes ({} per node), {:?} collectives",
            ranks,
            topo.num_nodes(),
            t.ranks_per_node,
            t.mode
        );
        world = world.with_topology(topo).with_collective_mode(t.mode).with_net(t.net, 1.0);
    }

    let summaries = world.run(move |comm| {
        let node = node.clone();
        let mut registry = AnalysisRegistry::new();
        binning::register(&mut registry);
        binning::register_suite(&mut registry);
        let config = ConfigurableAnalysis::from_xml(&xml).expect("parse XML");
        let ctx = CreateContext { node: node.clone(), rank: comm.rank(), size: comm.size() };
        let backends = config.instantiate(&registry, &ctx).expect("instantiate");
        if comm.rank() == 0 {
            println!("instantiated {} back-ends", backends.len());
            for b in &backends {
                println!(
                    "  {}: {} on {:?}",
                    b.name(),
                    b.controls().execution.name(),
                    b.controls().device
                );
            }
        }

        let newton_cfg = NewtonConfig {
            ic: IcKind::Uniform(UniformIc {
                n: bodies,
                seed,
                half_width: 1.0,
                mass_range: (0.5, 1.5),
                velocity_scale: 0.1,
                central_mass: bodies as f64,
            }),
            dt: 1e-4,
            grav: Gravity { g: 1.0, eps: 0.05 },
            x_extent: (-2.0, 2.0),
            repartition_every: None,
        };
        let mut sim =
            Newton::new(node.clone(), &comm, comm.rank() % node.num_devices(), newton_cfg)
                .expect("init simulation");
        let mut bridge = Bridge::new(node);
        if let Some(mode) = config.snapshot_mode() {
            if comm.rank() == 0 {
                println!("snapshot mode: {}", mode.name());
            }
            bridge.set_snapshot_mode(mode);
        }
        for b in backends {
            bridge.add_analysis(b, &comm).expect("attach");
        }
        for _ in 0..steps {
            let solver = sim.step(&comm).expect("step");
            let adaptor = NewtonAdaptor::new(&sim);
            bridge.execute(&adaptor, &comm, solver).expect("in situ");
        }
        let profiler = bridge.finalize(&comm).expect("finalize");
        (profiler.summary(), profiler.backend_breakdown())
    });
    for (rank, (s, backends)) in summaries.iter().enumerate() {
        println!(
            "rank {rank}: {} iterations, mean solver {:.2} ms, apparent in situ {:.2} ms, total {:.3} s",
            s.iterations,
            s.mean_solver.as_secs_f64() * 1e3,
            s.mean_insitu.as_secs_f64() * 1e3,
            s.total_runtime.as_secs_f64()
        );
        for b in backends {
            println!(
                "    {:<24} {:>3} dispatches, mean apparent {:.3} ms",
                b.backend,
                b.dispatches,
                b.mean_apparent.as_secs_f64() * 1e3
            );
        }
    }
}

fn case_label(c: &CaseConfig) -> String {
    format!("{:<20} {}", c.placement.label(), c.execution.name())
}

fn print_table1(base: &CaseConfig) {
    println!("\nTable 1: runs made to investigate in situ placement");
    println!(
        "(paper: 128 nodes / 512 GPUs; here: 1 simulated node / {} devices)\n",
        base.num_devices
    );
    println!("  In-Situ    In-Situ       Ranks                 In-Situ");
    println!("  Method                   per node       Total  Location");
    for placement in Placement::paper_placements() {
        for execution in [ExecutionMethod::Lockstep, ExecutionMethod::Asynchronous] {
            let ranks = placement.ranks_per_node(base.num_devices);
            println!(
                "  {:<10} {:<13} {:<14} {:<6} {}",
                execution.name(),
                "",
                ranks,
                ranks, // single-node: total == per node
                placement.label()
            );
        }
    }
}

fn run_matrix(base: &CaseConfig) -> Vec<AggregatedCase> {
    let cases = CaseConfig::matrix(base);
    let mut results = Vec::with_capacity(cases.len());
    for (i, case) in cases.iter().enumerate() {
        let t0 = Instant::now();
        eprint!(
            "[{}/{}] {} / {} ... ",
            i + 1,
            cases.len(),
            case.placement.label(),
            case.execution.name()
        );
        let out = run_case(case);
        eprintln!("done in {:.2?} (total={:.3?})", t0.elapsed(), out.total);
        results.push(out);
    }
    results
}

fn placement_execution(r: &AggregatedCase) -> String {
    format!("{},{}", r.config.placement.label().replace(' ', "_"), r.config.execution.name())
}

/// Figure 2/3's data: one line per case.
fn matrix_csv(results: &[AggregatedCase]) -> String {
    let mut csv = String::from("placement,execution,ranks,total_s,mean_solver_s,mean_insitu_s\n");
    for r in results {
        csv.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6}\n",
            placement_execution(r),
            r.ranks,
            r.total.as_secs_f64(),
            r.mean_solver.as_secs_f64(),
            r.mean_insitu.as_secs_f64(),
        ));
    }
    csv
}

/// What each attached instance cost the simulation per dispatch,
/// averaged over ranks: one line per case and back-end.
fn backend_csv(results: &[AggregatedCase]) -> String {
    let mut csv =
        String::from("placement,execution,backend,dispatches,mean_apparent_s,total_apparent_s\n");
    for r in results {
        for b in &r.backends {
            csv.push_str(&format!(
                "{},{},{},{:.9},{:.9}\n",
                placement_execution(r),
                b.backend,
                b.dispatches,
                b.mean_apparent.as_secs_f64(),
                b.total_apparent.as_secs_f64(),
            ));
        }
    }
    csv
}

/// Table 1 and the 8-case matrix behind Figures 2 and 3.
fn figures(mode: &str, base: &CaseConfig, out_dir: &Path) -> Result<bool, String> {
    let node_cfg = bench_node_config(base.num_devices, base.time_scale);
    println!("== SENSEI heterogeneous-extensions experiment harness ==");
    println!(
        "workload: {} bodies, {} steps, {} binning instances x {} ops on {}^2 bins",
        base.bodies,
        base.steps,
        base.instances,
        bench::VARIABLE_OPS.len(),
        base.resolution
    );
    println!(
        "time model: device {:.1e} F/s {:.1e} B/s, host {} slots x {:.1e} F/s, scale {}",
        node_cfg.device.flops_per_sec,
        node_cfg.device.bytes_per_sec,
        node_cfg.host.slots,
        node_cfg.host.flops_per_sec,
        node_cfg.time_scale
    );
    if mode == "table1" || mode == "all" {
        print_table1(base);
    }
    if mode == "table1" {
        return Ok(true);
    }
    let results = run_matrix(base);

    // Figure 2: total run time per case, grouped by placement.
    let rows: Vec<(String, std::time::Duration)> =
        results.iter().map(|r| (case_label(&r.config), r.total)).collect();
    println!("\n{}", ascii_bars("Figure 2: total run time (lockstep vs asynchronous)", &rows, 50));

    // Figure 3: mean per-iteration solver + in situ stacks.
    let stacks: Vec<(String, std::time::Duration, std::time::Duration)> =
        results.iter().map(|r| (case_label(&r.config), r.mean_solver, r.mean_insitu)).collect();
    println!(
        "{}",
        ascii_stack(
            "Figure 3: average time per iteration (solver + apparent in situ)",
            &stacks,
            50
        )
    );

    write_text(out_dir, "figure2_figure3.csv", &matrix_csv(&results))?;
    write_text(out_dir, "backend_breakdown.csv", &backend_csv(&results))?;
    emit(&bench::PoolReport(&results), out_dir)
}

/// Run one A/B mode at the scale the command line asked for.
fn run_mode(
    mode: &str,
    base: &CaseConfig,
    seed: u64,
    rank_counts: &[usize],
    session_counts: &[usize],
) -> Option<Box<dyn Report>> {
    Some(match mode {
        "binning" => Box::new(bench::run_binning_bench(base)),
        "chaos" => Box::new(bench::run_chaos(&bench::ChaosConfig { seed, ..Default::default() })),
        "snapshot" => Box::new(bench::run_snapshot_bench(&bench::SnapshotBenchConfig {
            bodies: base.bodies,
            steps: base.steps,
            resolution: base.resolution.min(32),
            instances: base.instances,
            time_scale: base.time_scale,
        })),
        "dag" => Box::new(bench::run_dag_bench(&bench::DagBenchConfig {
            steps: base.steps,
            num_devices: base.num_devices.max(2),
            // `--scale` multiplies the dag workload's own (deliberately
            // high) default time scale; the A/B must stay kernel-bound in
            // modeled time for device overlap to be measurable.
            time_scale: base.time_scale * bench::DagBenchConfig::default().time_scale,
            ..Default::default()
        })),
        "scale" => Box::new(bench::run_scale_bench(&bench::ScaleBenchConfig {
            rank_counts: rank_counts.to_vec(),
            steps: base.steps.max(2),
            ..Default::default()
        })),
        "serve" => Box::new(bench::run_serve_bench(&bench::ServeBenchConfig {
            session_counts: session_counts.to_vec(),
            ..Default::default()
        })),
        _ => return None,
    })
}

fn main() {
    let (mode, base, out_dir, xml, chaos_seed, rank_counts, session_counts) = parse_args();
    if mode == "run-config" {
        run_config(&xml.expect("run-config needs an XML path"), &base);
        return;
    }
    let t0 = Instant::now();
    let outcome = match run_mode(&mode, &base, chaos_seed, &rank_counts, &session_counts) {
        Some(report) => {
            eprintln!("{mode}: arms done in {:.2?}", t0.elapsed());
            emit(report.as_ref(), &out_dir)
        }
        None => figures(&mode, &base, &out_dir),
    };
    // The one verdict: a failed gating claim, or a report that could not
    // be written.
    let passed = outcome.unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        false
    });
    if !passed {
        std::process::exit(1);
    }
}
