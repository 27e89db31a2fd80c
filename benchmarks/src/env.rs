//! The environment record attached to every output row: which code, on
//! which machine, built by which compiler.

use std::process::Command;

use crate::json::Json;
use crate::procstat;
use crate::workloads::{node_params, RANKS};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Git SHA of the working directory's checkout (`unknown` outside a
/// repository, e.g. in an exported tree).
pub fn git_sha() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// Collect the record. Spawns `git` and `rustc` once each and waits for
/// both to exit.
pub fn collect() -> Json {
    Json::obj([
        ("git_sha", Json::str(git_sha())),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("nproc", Json::Num(procstat::nproc() as f64)),
        ("cpu_model", Json::str(procstat::cpu_model())),
        ("ranks", Json::Num(RANKS as f64)),
        ("node", Json::obj(node_params().into_iter().map(|(k, v)| (k, Json::Num(v))))),
    ])
}
