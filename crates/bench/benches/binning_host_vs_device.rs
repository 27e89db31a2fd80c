//! Host vs device binning (§4.4: "data binning is not an ideal algorithm
//! for GPUs since it requires the use of atomic memory updates").
//!
//! Runs with the time model disabled, so this measures the real cost of
//! the two implementations in this codebase: the host path's plain
//! stores vs the device path's CAS-based atomic updates. The reproduced
//! shape is the paper's: the device implementation does not beat the
//! host implementation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

use binning::{device_impl, host_impl, BinOp, GridParams};
use devsim::{NodeConfig, SimNode};

fn make_rows(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (0..n).map(|i| ((i * 37 % 1000) as f64 / 500.0) - 1.0).collect();
    let ys: Vec<f64> = (0..n).map(|i| ((i * 53 % 1000) as f64 / 500.0) - 1.0).collect();
    let vs: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
    (xs, ys, vs)
}

fn upload(node: &Arc<SimNode>, data: &[f64]) -> devsim::CellBuffer {
    let host = node.host_alloc_f64(data.len());
    host.host_f64().unwrap().copy_from_slice(data);
    let dev = node.device(0).unwrap().alloc_f64(data.len()).unwrap();
    let s = node.device(0).unwrap().default_stream();
    s.copy(&host, &dev).unwrap();
    s.synchronize().unwrap();
    dev
}

fn binning_paths(c: &mut Criterion) {
    let grid = GridParams::new(256, 256, [-1.0, -1.0], [1.0, 1.0]);
    let mut group = c.benchmark_group("binning_host_vs_device");
    for &n in &[10_000usize, 100_000] {
        let (xs, ys, vs) = make_rows(n);
        group.throughput(Throughput::Elements(n as u64));

        group.bench_with_input(BenchmarkId::new("host_sum", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(host_impl::bin_host(
                    &xs[..],
                    &ys[..],
                    Some(&vs[..]),
                    BinOp::Sum,
                    &grid,
                ))
            });
        });

        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let (dx, dy, dv) = (upload(&node, &xs), upload(&node, &ys), upload(&node, &vs));
        group.bench_with_input(BenchmarkId::new("device_sum_atomic", n), &n, |b, _| {
            b.iter(|| {
                let bins = device_impl::bin_device(
                    &node,
                    0,
                    &stream,
                    &dx,
                    &dy,
                    Some(&dv),
                    BinOp::Sum,
                    grid,
                )
                .unwrap();
                stream.synchronize().unwrap();
                std::hint::black_box(bins);
            });
        });

        group.bench_with_input(BenchmarkId::new("host_count", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(host_impl::bin_host(
                    &xs[..],
                    &ys[..],
                    None,
                    BinOp::Count,
                    &grid,
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("device_count_atomic", n), &n, |b, _| {
            b.iter(|| {
                let bins =
                    device_impl::bin_device(&node, 0, &stream, &dx, &dy, None, BinOp::Count, grid)
                        .unwrap();
                stream.synchronize().unwrap();
                std::hint::black_box(bins);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, binning_paths);
criterion_main!(benches);
