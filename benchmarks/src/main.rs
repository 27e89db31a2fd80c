//! `spine` — the benchmark's command line.
//!
//! ```text
//! spine run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! spine all [--seed N] [--seconds S] [--out DIR] [--repeat K] [--smoke]
//! spine compare A B
//! ```
//!
//! `run` measures one workload in this process and prints, as the last
//! line of standard output, the one-line JSON result. `all` runs every
//! workload twice (end-to-end, then traced), each in its own child
//! process, and writes one JSON per run plus `rows.jsonl`. `compare`
//! applies the regression rule to two sets of rows.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use spine::compare::{compare, load_rows, Row};
use spine::json::Json;
use spine::run::{run_workload, RunOptions, WorkloadReport};
use spine::workloads::{find, DEFAULT_SEED, RANKS, WORKLOADS};
use spine::{env, procstat};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  spine run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n  \
         spine all [--seed N] [--seconds S] [--out DIR] [--repeat K] [--smoke]\n  spine compare A B\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(64)
}

/// Parsed `--key value` options (and bare flags) of a subcommand.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    repeat: usize,
    smoke: bool,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spine::DEFAULT_RUN_SECONDS,
        trace: false,
        out: None,
        repeat: 1,
        smoke: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let number = |name: &str, v: &String| -> Result<f64, String> {
            v.parse::<f64>().map_err(|_| format!("{name} takes a number, got '{v}'"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                let v = value("--seed")?;
                a.seed = v.parse().map_err(|_| format!("--seed takes an integer, got '{v}'"))?;
            }
            "--seconds" => {
                a.seconds = number("--seconds", value("--seconds")?)?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--repeat" => {
                let v = value("--repeat")?;
                a.repeat = v.parse().map_err(|_| format!("--repeat takes a count, got '{v}'"))?;
                if a.repeat == 0 || a.repeat > 64 {
                    return Err("--repeat must be between 1 and 64".into());
                }
            }
            "--smoke" => a.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            other => a.positional.push(other.to_string()),
        }
    }
    Ok(a)
}

/// One `rows.jsonl` row per metric of `report`.
fn rows_of(report: &WorkloadReport, env: &Json) -> Vec<Json> {
    let layer = if report.trace { "per_layer" } else { "end_to_end" };
    let timed_steps: u64 = report.segments.iter().map(|s| s.steps).sum();
    let samples: u64 = report.segments.iter().map(|s| s.insitu_samples).sum();
    report
        .metrics
        .iter()
        .map(|(def, value)| {
            let mut row = vec![
                ("workload".to_string(), Json::str(report.workload.name)),
                ("layer".to_string(), Json::str(layer)),
                ("metric".to_string(), Json::str(&def.name)),
                ("unit".to_string(), Json::str(def.unit)),
                ("label".to_string(), Json::str(def.label)),
                ("value".to_string(), Json::Num(*value)),
                ("seed".to_string(), Json::Num(report.seed as f64)),
                ("time_scale".to_string(), Json::Num(report.workload.time_scale)),
                ("timed_steps".to_string(), Json::Num(timed_steps as f64)),
                ("insitu_samples".to_string(), Json::Num(samples as f64)),
            ];
            row.extend(env.as_obj().unwrap_or(&[]).iter().cloned());
            Json::Obj(row)
        })
        .collect()
}

fn write_outputs(dir: &Path, report: &WorkloadReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let env = env::collect();
    let name = report.workload.name;
    let detail = if report.trace { format!("{name}.traced.json") } else { format!("{name}.json") };
    std::fs::write(dir.join(detail), report.to_json(&env).to_line() + "\n")?;
    if report.trace {
        std::fs::write(
            dir.join(format!("{name}.trace.json")),
            report.trace_json().to_line() + "\n",
        )?;
    }
    let mut rows =
        std::fs::OpenOptions::new().create(true).append(true).open(dir.join("rows.jsonl"))?;
    for row in rows_of(report, &env) {
        writeln!(rows, "{}", row.to_line())?;
    }
    rows.flush()
}

fn cmd_run(a: &Args) -> ExitCode {
    let Some(name) = &a.workload else { return usage() };
    let Some(workload) = find(name) else {
        eprintln!("spine: no workload named '{name}'");
        return usage();
    };
    // The closed loop runs one thread per rank; more ranks than cores
    // would time-slice the ranks and measure the scheduler instead.
    let cores = procstat::nproc();
    if RANKS > cores {
        eprintln!("spine: {RANKS} ranks need {RANKS} cores, this machine offers {cores}");
        return ExitCode::from(2);
    }
    let opts = RunOptions { seed: a.seed, seconds: a.seconds, trace: a.trace, smoke: a.smoke };
    let report = run_workload(workload, &opts);
    report.print_table();
    if let Some(dir) = &a.out {
        if let Err(e) = write_outputs(dir, &report) {
            eprintln!("spine: writing to {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", report.result_line().to_line());
    ExitCode::SUCCESS
}

/// Run one workload in a child process; returns whether its outputs were
/// correct.
fn run_child(
    exe: &Path,
    a: &Args,
    workload: &str,
    trace: bool,
    dir: &Path,
) -> Result<bool, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(dir)
        .stdout(Stdio::piped());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("starting {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} (trace {}) exited with {}", trace as u8, output.status));
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    Ok(result.get("correct").and_then(Json::as_bool) == Some(true))
}

fn cmd_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("spine: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let out = a.out.clone().unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));
    let mut all_correct = true;
    let mut sets: Vec<Vec<Row>> = Vec::new();
    for set in 1..=a.repeat {
        let dir = if a.repeat == 1 { out.clone() } else { out.join(format!("set{set}")) };
        // Each invocation writes its own set of rows; rows are keyed by
        // git SHA, so sets from different commits can be concatenated.
        let _ = std::fs::remove_file(dir.join("rows.jsonl"));
        for w in &WORKLOADS {
            for trace in [false, true] {
                match run_child(&exe, a, w.name, trace, &dir) {
                    Ok(correct) => all_correct &= correct,
                    Err(e) => {
                        eprintln!("spine: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
        match load_rows(&dir) {
            Ok(rows) => sets.push(rows),
            Err(e) => {
                eprintln!("spine: {e}");
                return ExitCode::from(2);
            }
        }
        println!("wrote {}", dir.join("rows.jsonl").display());
    }
    let mut worse = 0;
    if a.repeat > 1 {
        // The repeatability gate: the same code measured twice must agree
        // with itself. Odd-numbered sets against even-numbered ones, so a
        // slow drift of the machine lands on both sides.
        let side = |parity: usize| -> Vec<Row> {
            sets.iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .flat_map(|(_, s)| s.clone())
                .collect()
        };
        println!("== repeatability: odd sets (A) against even sets (B)");
        worse = compare(&side(0), &side(1));
    }
    if all_correct && worse == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "spine: {} incorrect run(s), {worse} metric(s) worse",
            if all_correct { "no" } else { "some" }
        );
        ExitCode::from(1)
    }
}

fn cmd_compare(a: &Args) -> ExitCode {
    let [pa, pb] = a.positional.as_slice() else { return usage() };
    match (load_rows(Path::new(pa)), load_rows(Path::new(pb))) {
        (Ok(ra), Ok(rb)) => {
            if compare(&ra, &rb) == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("spine: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else { return usage() };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spine: {e}");
            return usage();
        }
    };
    match command.as_str() {
        "run" => cmd_run(&args),
        "all" => cmd_all(&args),
        "compare" => cmd_compare(&args),
        _ => usage(),
    }
}
