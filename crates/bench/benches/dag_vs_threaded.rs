//! Dag vs threaded execution A/B on the skewed mixed-cost binning
//! workload.
//!
//! Both arms run the same spec set (heavy 13-op instances interleaved
//! with count-only ones) through a shallow snapshot queue; the only
//! difference is the worker engine's mode:
//!
//! * `threaded` — `asynchronous`: the suite's inline `execute` on one
//!   persistent worker, every kernel routed to one device's streams;
//! * `dag` — the suite emits a task graph per step and
//!   the work-stealing scheduler spreads kernel tasks across every
//!   device, overlapping downloads by construction.
//!
//! `iter_custom` reports the mean *apparent in situ* cost per iteration
//! — with the queue kept shallow this tracks actual worker throughput,
//! the quantity the harness's `dag` mode asserts on.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use bench::{run_dag_arm, DagBenchConfig};
use sensei::{ExecutionMethod, SnapshotMode};

fn ab_config() -> DagBenchConfig {
    DagBenchConfig {
        rows: 4_000,
        steps: 4,
        resolution: 24,
        num_devices: 2,
        time_scale: 4.0,
        queue_depth: 2,
        heavy_instances: 2,
        light_instances: 2,
    }
}

fn dag_vs_threaded(c: &mut Criterion) {
    let cfg = ab_config();
    let mut group = c.benchmark_group("dag_vs_threaded");
    group.sample_size(10);
    for (id, execution) in
        [("threaded", ExecutionMethod::Asynchronous), ("dag", ExecutionMethod::Dag)]
    {
        group.bench_function(id, |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    total += run_dag_arm(&cfg, id, execution, SnapshotMode::Deep).mean_insitu;
                }
                total
            });
        });
    }
    group.finish();
}

criterion_group!(benches, dag_vs_threaded);
criterion_main!(benches);
