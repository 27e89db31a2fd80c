//! The four workloads, their segments, and the node cost model — all
//! owned by the benchmark so that changes to `configs/` or `crates/bench`
//! cannot move a number here.

use std::time::Duration;

use devsim::{DeviceParams, HostParams, LinkParams, NodeConfig, PoolConfig};
use xmlcfg::{Element, Node};

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 20230817;

/// Ranks of every workload: one per core of the 2-core reference box, so
/// rank threads never outnumber cores (asserted at start-up).
pub const RANKS: usize = 2;

/// Binning mesh resolution per axis in both workload XML files.
pub const RESOLUTION: usize = 64;

/// Where a workload's table comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Newton++ with this many bodies in total (slab-decomposed over the
    /// ranks), every rank's state resident on its own device.
    Newton { bodies: usize },
    /// The benchmark's synthetic `bodies` table with this many rows per
    /// rank (see `synth`).
    Rows { rows_per_rank: usize },
}

/// Where a `Source::Rows` table lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataHome {
    Host,
    Device,
}

/// One segment: a fresh node and world running the workload's XML under
/// one placement / execution method.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub name: &'static str,
    /// Devices on the simulated node.
    pub devices: usize,
    /// `mode` attribute written onto every `<analysis>`.
    pub mode: &'static str,
    /// `device` attribute: `-1` host, `-2` automatic (Eq. 1).
    pub device: &'static str,
    /// `(n_use, offset)` of the automatic selection, when not default.
    pub selector: Option<(&'static str, &'static str)>,
    /// `<snapshot mode=..>` to add, when not the default deep copy.
    pub snapshot: Option<&'static str>,
    /// Residency of the synthetic table (ignored for Newton++).
    pub data: DataHome,
}

impl Segment {
    pub fn lockstep(&self) -> bool {
        self.mode == "lockstep"
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One sentence on why the workload exists (also in BENCHMARK.json).
    pub why: &'static str,
    /// The SENSEI XML the segments specialize.
    pub xml: &'static str,
    /// Drop the XML's `<bounds>` so axis bounds are computed on the fly.
    /// Needed wherever Newton++ feeds a bounded document: its integrator
    /// ejects the odd body after a few hundred steps, and the number of
    /// rows inside fixed bounds is then unknowable from outside.
    pub auto_bounds: bool,
    pub source: Source,
    /// Multiplier on modeled durations: 1 = modeled service time is slept,
    /// 0 = wall time is host CPU work only.
    pub time_scale: f64,
    pub segments: &'static [Segment],
    /// Untimed steps before the timed loop (pool fill, lazy threads).
    pub warmup_steps: u64,
    /// How many of the warm-up steps are compared bit for bit with the
    /// host / lockstep / per-op oracle.
    pub oracle_steps: u64,
    /// Fewest timed steps a segment runs however short `--seconds` is.
    pub min_steps: u64,
}

const PAPER90_XML: &str = include_str!("../workloads/paper90.xml");
const FUSED90_XML: &str = include_str!("../workloads/fused90.xml");

const fn seg(
    name: &'static str,
    devices: usize,
    mode: &'static str,
    device: &'static str,
    selector: Option<(&'static str, &'static str)>,
) -> Segment {
    Segment { name, devices, mode, device, selector, snapshot: None, data: DataHome::Device }
}

/// Table 1's three two-rank placements: in situ on the host, on the
/// simulation's own device, and on dedicated devices (`n_use=2 offset=2`
/// maps rank r to device 2 + r while the solver keeps device r).
const fn placements(mode: &'static str) -> [Segment; 3] {
    [
        seg("host", 2, mode, "-1", None),
        seg("same_device", 2, mode, "-2", None),
        seg("dedicated", 4, mode, "-2", Some(("2", "2"))),
    ]
}

/// Host-placed lockstep execution of a workload's XML (what the binning
/// probe runs; not a segment of any workload).
pub const HOST_LOCKSTEP: Segment = seg("host_lockstep", 2, "lockstep", "-1", None);

const LOCKSTEP_PLACEMENTS: [Segment; 3] = placements("lockstep");
const ASYNC_PLACEMENTS: [Segment; 3] = placements("asynchronous");

const FUSED_SEGMENTS: [Segment; 2] = [
    seg("lockstep", 2, "lockstep", "-2", None),
    Segment {
        name: "dag_cow",
        devices: 2,
        mode: "dag",
        device: "-2",
        selector: None,
        snapshot: Some("cow"),
        data: DataHome::Device,
    },
];

const ROWS_SEGMENTS: [Segment; 3] = [
    Segment { data: DataHome::Host, ..seg("host_inplace", 2, "lockstep", "-1", None) },
    seg("device_inplace", 2, "lockstep", "-2", None),
    seg("device_to_host", 2, "lockstep", "-1", None),
];

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper90_lockstep_modeled",
        why: "The paper's section 4.3 config as published (nine per-op data_binning instances, auto bounds) in lockstep on host, same-device and dedicated placements: every layer is on the blocking path.",
        xml: PAPER90_XML,
        auto_bounds: false,
        source: Source::Newton { bodies: 2048 },
        time_scale: 1.0,
        segments: &LOCKSTEP_PLACEMENTS,
        warmup_steps: 20,
        oracle_steps: 20,
        min_steps: 20,
    },
    Workload {
        name: "paper90_async_modeled",
        why: "The same three placements run asynchronously with deep snapshots and an unbounded queue, drain included: only capture and enqueue block the solver, the rest acts through worker throughput.",
        xml: PAPER90_XML,
        auto_bounds: false,
        source: Source::Newton { bodies: 2048 },
        time_scale: 1.0,
        segments: &ASYNC_PLACEMENTS,
        warmup_steps: 20,
        oracle_steps: 20,
        min_steps: 20,
    },
    Workload {
        name: "fused90_real",
        why: "One fused 90-op binning_suite on ~512-row tables with nothing slept, lockstep and dag+cow: kernel work is negligible, so dispatch, scheduler, CoW, pool and collective overhead are the cost.",
        xml: FUSED90_XML,
        auto_bounds: true,
        source: Source::Newton { bodies: 1024 },
        time_scale: 0.0,
        segments: &FUSED_SEGMENTS,
        warmup_steps: 20,
        oracle_steps: 20,
        min_steps: 50,
    },
    Workload {
        name: "rows_real",
        why: "The fused suite over a 131072-row-per-rank synthetic table with no modeled sleeping, host in place, device in place and device to host: kernel- and movement-bound where fused90_real is overhead-bound.",
        xml: FUSED90_XML,
        auto_bounds: false,
        source: Source::Rows { rows_per_rank: 131_072 },
        time_scale: 0.0,
        segments: &ROWS_SEGMENTS,
        warmup_steps: 3,
        oracle_steps: 3,
        min_steps: 6,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every segment name of every workload, in report order, once each.
pub fn all_segment_names() -> Vec<&'static str> {
    let mut names = Vec::new();
    for w in &WORKLOADS {
        for s in w.segments {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
    }
    names
}

/// The modeled node: a copy of `bench::bench_node_config` as of the PR
/// that added the benchmark (slowed device and host throughputs so that,
/// at `time_scale` 1, modeled service time is comparable to the real
/// closure time). Kept here so retuning the harness does not silently
/// re-baseline the benchmark.
pub fn node_config(devices: usize, time_scale: f64) -> NodeConfig {
    NodeConfig {
        num_devices: devices,
        device: DeviceParams {
            slots: 1,
            flops_per_sec: 5e9,
            bytes_per_sec: 5e10,
            launch_overhead: Duration::from_micros(100),
            alloc_overhead: Duration::from_micros(50),
            memory_bytes: 4 << 30,
        },
        host: HostParams {
            slots: devices,
            flops_per_sec: 2.5e9,
            bytes_per_sec: 2.5e10,
            task_overhead: Duration::from_micros(500),
        },
        link: LinkParams {
            h2d_bytes_per_sec: 5e9,
            d2d_bytes_per_sec: 2e10,
            latency: Duration::from_micros(20),
        },
        pool: PoolConfig::default(),
        time_scale,
    }
}

/// The node parameters as `(name, value)` pairs, recorded in every
/// output row.
pub fn node_params() -> Vec<(&'static str, f64)> {
    let c = node_config(1, 1.0);
    vec![
        ("device_flops_per_sec", c.device.flops_per_sec),
        ("device_bytes_per_sec", c.device.bytes_per_sec),
        ("device_launch_overhead_us", c.device.launch_overhead.as_secs_f64() * 1e6),
        ("device_alloc_overhead_us", c.device.alloc_overhead.as_secs_f64() * 1e6),
        ("host_flops_per_sec", c.host.flops_per_sec),
        ("host_bytes_per_sec", c.host.bytes_per_sec),
        ("host_task_overhead_us", c.host.task_overhead.as_secs_f64() * 1e6),
        ("link_h2d_bytes_per_sec", c.link.h2d_bytes_per_sec),
        ("link_d2d_bytes_per_sec", c.link.d2d_bytes_per_sec),
        ("link_latency_us", c.link.latency.as_secs_f64() * 1e6),
    ]
}

/// Queue depth written onto asynchronous back-ends: effectively the
/// paper's unbounded queue (the queue allocates on demand).
const UNBOUNDED_QUEUE: &str = "1000000";

/// The workload's XML as a DOM, with `<bounds>` removed when the
/// workload computes them on the fly.
pub fn document(workload: &Workload) -> Element {
    fn strip_bounds(el: &mut Element) {
        el.children.retain(|n| !matches!(n, Node::Element(e) if e.name == "bounds"));
        for child in &mut el.children {
            if let Node::Element(e) = child {
                strip_bounds(e);
            }
        }
    }
    let mut root = xmlcfg::parse(workload.xml).expect("benchmark-owned XML parses");
    if workload.auto_bounds {
        strip_bounds(&mut root);
    }
    root
}

fn set_attr(el: &mut Element, key: &str, value: &str) {
    el.attributes.retain(|(k, _)| k != key);
    el.attributes.push((key.to_string(), value.to_string()));
}

/// Specialize the workload's XML for one segment: execution mode,
/// placement and queue depth go onto every `<analysis>`, the snapshot
/// mode becomes a `<snapshot>` child of the root. The result is an
/// ordinary SENSEI configuration document.
pub fn segment_xml(workload: &Workload, segment: &Segment) -> String {
    let mut root = document(workload);
    for child in &mut root.children {
        let Node::Element(el) = child else { continue };
        if el.name != "analysis" {
            continue;
        }
        set_attr(el, "mode", segment.mode);
        set_attr(el, "device", segment.device);
        if let Some((n_use, offset)) = segment.selector {
            set_attr(el, "n_use", n_use);
            set_attr(el, "offset", offset);
        }
        if !segment.lockstep() {
            set_attr(el, "queue_depth", UNBOUNDED_QUEUE);
            set_attr(el, "overflow", "block");
        }
    }
    if let Some(mode) = segment.snapshot {
        root.children.insert(0, Node::Element(Element::new("snapshot").with_attr("mode", mode)));
    }
    xmlcfg::write(&root)
}

/// The oracle's configuration for the same specs: every coordinate
/// system as its own `data_binning` instance on the host, lockstep, per
/// operation (`fused="off"`) — the reference path the repository's
/// bit-identity invariant is stated against.
pub fn oracle_xml(workload: &Workload) -> String {
    let root = document(workload);
    let mut out = Element::new("sensei");
    for inst in instances(&root) {
        let mut el = Element::new("analysis")
            .with_attr("type", "data_binning")
            .with_attr("mode", "lockstep")
            .with_attr("device", "-1")
            .with_attr("fused", "off");
        el.children = inst.children.clone();
        out.children.push(Node::Element(el));
    }
    xmlcfg::write(&out)
}

/// The elements that each hold one binning spec, in configuration order:
/// every `<instance>` of a `binning_suite`, every other `<analysis>`
/// itself.
pub fn instances(root: &Element) -> Vec<&Element> {
    root.find_all("analysis")
        .flat_map(|analysis| match analysis.attr("type") {
            Some("binning_suite") => analysis.find_all("instance").collect(),
            _ => vec![analysis],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensei::{ConfigurableAnalysis, DeviceSpec, ExecutionMethod, SnapshotMode};

    #[test]
    fn every_segment_specializes_to_a_valid_configuration() {
        for w in &WORKLOADS {
            for s in w.segments {
                let cfg = ConfigurableAnalysis::from_xml(&segment_xml(w, s)).unwrap();
                assert!(!cfg.configs().is_empty());
                for c in cfg.configs() {
                    assert_eq!(c.controls.execution.name(), s.mode, "{}/{}", w.name, s.name);
                    assert_eq!(c.controls.device.code().to_string(), s.device);
                }
                let snapshot = cfg.snapshot_mode().map(|m| m.name());
                assert_eq!(snapshot, s.snapshot, "{}/{}", w.name, s.name);
            }
        }
    }

    #[test]
    fn dedicated_placement_uses_the_upper_devices() {
        let w = find("paper90_async_modeled").unwrap();
        let cfg = ConfigurableAnalysis::from_xml(&segment_xml(w, &w.segments[2])).unwrap();
        let c = &cfg.configs()[0].controls;
        assert_eq!(c.execution, ExecutionMethod::Asynchronous);
        assert_eq!(c.device, DeviceSpec::Auto);
        assert_eq!((c.resolve_device(0, 4), c.resolve_device(1, 4)), (Some(2), Some(3)));
        assert_eq!(c.queue_depth, 1_000_000);
        assert_eq!(cfg.snapshot_mode().unwrap_or(SnapshotMode::Deep), SnapshotMode::Deep);
    }

    #[test]
    fn oracle_is_nine_per_op_host_instances_for_both_documents() {
        for w in &WORKLOADS {
            let cfg = ConfigurableAnalysis::from_xml(&oracle_xml(w)).unwrap();
            assert_eq!(cfg.configs().len(), 9, "{}", w.name);
            for c in cfg.configs() {
                assert_eq!(c.type_name, "data_binning");
                assert_eq!(c.controls.device, DeviceSpec::Host);
                assert_eq!(c.element.attr("fused"), Some("off"));
                let bounded = c.element.find_child("bounds").is_some();
                assert_eq!(bounded, w.name == "rows_real", "{}", w.name);
            }
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let ok = |s: &str| s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        let mut seen = Vec::new();
        for w in &WORKLOADS {
            assert!(ok(w.name) && !seen.contains(&w.name));
            seen.push(w.name);
            assert!(w.why.len() <= 200, "{} why is {} chars", w.name, w.why.len());
            assert!(w.oracle_steps <= w.warmup_steps);
        }
        assert_eq!(all_segment_names().len(), 8);
    }
}
