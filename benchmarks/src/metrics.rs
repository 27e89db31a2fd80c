//! The metric registry: every name the benchmark prints, with its unit,
//! direction, clock label, and how segment values fold into the
//! workload's value. `BENCHMARK.json` lists exactly these names (a test
//! holds the two together); `README.md` documents them.

use crate::workloads::all_segment_names;

/// How a workload's value is folded from its segments' values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Arithmetic mean over segments (and over probes' single sample).
    Mean,
    /// Largest segment value (peaks and tail percentiles).
    Max,
}

/// One metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// `real` (host CPU / wall with no modeled sleeping), `modeled`
    /// (devsim / network service time), `wall` (wall clock: real work plus
    /// whatever modeled time is slept at the workload's `time_scale`), or
    /// `count` (a work counter or computed byte count; repeats exactly on
    /// lockstep segments), or `sampled` (a state of the pool or the OS read
    /// at a sampling point; depends on timing).
    pub label: &'static str,
    pub agg: Agg,
}

fn def(name: &str, unit: &'static str, label: &'static str) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better: "lower", label, agg: Agg::Mean }
}

// End-to-end metric names.
pub const SETUP_S: &str = "setup_s";
pub const RUN_MS: &str = "run_ms_per_step";
pub const INSITU_MS: &str = "insitu_apparent_ms";
pub const CPU_MS: &str = "cpu_ms_per_step";
pub const LINK_BYTES: &str = "link_bytes_per_step";
/// The calibration kernel's raw time (per-layer): which speed regime the
/// machine was in, and the factor back to raw wall time.
pub const CALIBRATION_MS: &str = "proc.calibration_ms";

/// The end-to-end metrics, reported for every workload with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def(SETUP_S, "s", "wall"),
        def(RUN_MS, "ms", "wall"),
        def(INSITU_MS, "ms", "wall"),
        def(CPU_MS, "ms", "real"),
        def(LINK_BYTES, "B", "count"),
    ]
}

/// The start bounds of the end-to-end metrics: the share of the parent's
/// median by which a metric may worsen before a change is rejected.
pub fn bound(name: &str) -> f64 {
    match name {
        SETUP_S => 0.25,
        RUN_MS => 0.25,
        INSITU_MS => 0.25,
        CPU_MS => 0.25,
        LINK_BYTES => 0.02,
        _ => panic!("'{name}' is not an end-to-end metric"),
    }
}

/// The per-segment views of the three time-like end-to-end metrics.
pub const SEGMENT_METRICS: [&str; 3] = [RUN_MS, INSITU_MS, CPU_MS];

/// Name of a per-segment metric.
pub fn seg_name(segment: &str, metric: &str) -> String {
    format!("seg.{segment}.{metric}")
}

/// The per-layer metrics, reported for every workload from a traced run.
/// A segment a workload does not have reports 0.
pub fn per_layer() -> Vec<MetricDef> {
    let max = |mut d: MetricDef| {
        d.agg = Agg::Max;
        d
    };
    let higher = |mut d: MetricDef| {
        d.better = "higher";
        d
    };
    let mut m = vec![
        // newtonpp
        def("newtonpp.step_ms", "ms", "wall"),
        // sensei: bridge / engine
        max(def("sensei.execute_p95_ms", "ms", "wall")),
        def("sensei.execute_self_ms", "ms", "wall"),
        def("sensei.finalize_ms", "ms", "wall"),
        // sensei: snapshot
        def("sensei.snapshot_bytes_per_step", "B", "count"),
        def("sensei.snapshot_arrays_copied_per_step", "count", "count"),
        higher(def("sensei.snapshot_arrays_shared_per_step", "count", "count")),
        def("sensei.cow_faults_per_step", "count", "count"),
        def("probe.sensei.snapshot_capture_us", "us", "real"),
        // sensei: scheduler
        def("sensei.sched_tasks_per_step", "count", "count"),
        def("sensei.sched_steals_per_step", "count", "count"),
        // binning
        def("binning.execute_ms", "ms", "wall"),
        def("binning.table_passes_per_step", "count", "count"),
        def("binning.kernel_launches_per_step", "count", "count"),
        def("binning.downloads_per_step", "count", "count"),
        def("binning.allreduces_per_step", "count", "count"),
        def("binning.fetches_per_step", "count", "count"),
        def("probe.binning.execute_us", "us", "real"),
        // svtk / hamr
        def("svtk.fetch_ms", "ms", "wall"),
        def("svtk.fetch_calls_per_step", "count", "count"),
        def("probe.hamr.access_inplace_ns", "ns", "real"),
        def("probe.hamr.access_move_us", "us", "real"),
        def("probe.hamr.alloc_init_us", "us", "real"),
        def("probe.svtk.deep_copy_us", "us", "real"),
        // devsim
        def("devsim.kernels_per_step", "count", "count"),
        def("devsim.host_tasks_per_step", "count", "count"),
        def("devsim.copies_per_step", "count", "count"),
        def("devsim.h2d_bytes_per_step", "B", "count"),
        def("devsim.d2h_bytes_per_step", "B", "count"),
        def("devsim.d2d_bytes_per_step", "B", "count"),
        def("devsim.stream_syncs_per_step", "count", "count"),
        def("devsim.device_allocs_per_step", "count", "count"),
        higher(def("devsim.pool_hit_rate", "ratio", "sampled")),
        def("devsim.pool_raw_allocs_per_step", "count", "sampled"),
        max(def("devsim.pool_high_water_mb", "MiB", "sampled")),
        def("probe.devsim.launch_sync_us", "us", "real"),
        def("probe.devsim.alloc_hit_us", "us", "real"),
        def("probe.devsim.copy_h2d_us", "us", "real"),
        // minimpi
        def("minimpi.collectives_per_step", "count", "count"),
        def("minimpi.messages_per_step", "count", "count"),
        def("minimpi.bytes_per_step", "B", "count"),
        def("minimpi.modeled_us_per_step", "us", "modeled"),
        def("probe.minimpi.allreduce_packed_us", "us", "real"),
        def("probe.minimpi.barrier_us", "us", "real"),
        // xmlcfg + sensei configuration
        def("probe.xmlcfg.parse_us", "us", "real"),
        def("probe.sensei.instantiate_us", "us", "real"),
        // sensei::serve
        def("probe.serve.publish_us", "us", "real"),
        def("probe.serve.bytes_per_publish", "B", "count"),
        // process
        def("proc.cpu_user_ms_per_step", "ms", "real"),
        def("proc.cpu_sys_ms_per_step", "ms", "real"),
        def("proc.ctx_switches_per_step", "count", "sampled"),
        max(def("proc.threads_peak", "count", "sampled")),
        max(def("proc.peak_rss_mb", "MiB", "sampled")),
        def("probe.null_ns", "ns", "real"),
        def(CALIBRATION_MS, "ms", "real"),
        def("trace.overhead_pct", "%", "wall"),
    ];
    for segment in all_segment_names() {
        for metric in SEGMENT_METRICS {
            let label = if metric == CPU_MS { "real" } else { "wall" };
            m.push(def(&seg_name(segment, metric), "ms", label));
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_within_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64, "{}", m.name);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(all[..i].iter().all(|o| o.name != m.name), "duplicate {}", m.name);
        }
        assert!(per_layer().len() <= 128);
        for m in end_to_end() {
            assert!(bound(&m.name) > 0.0 && bound(&m.name) <= 0.25);
        }
    }
}
