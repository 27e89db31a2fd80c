//! Layout × placement A/B: the fused binning suite consuming the same
//! synthetic particle table published as dense scalar columns vs as one
//! interleaved AoS / SoA / AoSoA block, host- and device-placed.
//!
//! Wall time per arm includes the modeled costs (zero time scale keeps
//! sleeps out), so the comparison measures the real per-layout overhead
//! of the accessor path: map-translated host fetches and tile gathers,
//! and the device arms' in-flight pack to dense.

use criterion::{criterion_group, criterion_main, Criterion};

use bench::{run_layout_arm, LayoutBenchConfig, CANDIDATE_LAYOUTS};

fn bench_cfg() -> LayoutBenchConfig {
    LayoutBenchConfig { rows: 4096, steps: 2, probe_steps: 1, resolution: 16, time_scale: 0.0 }
}

fn layout_ab(c: &mut Criterion) {
    let cfg = bench_cfg();
    let mut group = c.benchmark_group("layout_ab");
    group.sample_size(10);
    for placement in [None, Some(0usize)] {
        for layout in CANDIDATE_LAYOUTS {
            let id = format!(
                "{}/{}",
                match placement {
                    None => "host".to_string(),
                    Some(d) => format!("device{d}"),
                },
                layout.name(),
            );
            group.bench_function(&id, |b| {
                b.iter(|| std::hint::black_box(run_layout_arm(&cfg, layout, placement, cfg.steps)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, layout_ab);
criterion_main!(benches);
