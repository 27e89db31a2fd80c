//! `ConfigurableAnalysis`: back-end selection from run-time XML.
//!
//! The paper's experiments are "orchestrated by SENSEI using its XML
//! configuration feature" (§4.3) — the 90 binning operations are 9
//! sequential `data_binning` instances configured from one file. The
//! execution-model extensions surface in the XML as the `mode`
//! (lockstep/asynchronous), `device` / `n_use` / `stride` / `offset`,
//! `queue_depth` / `overflow` (asynchronous backpressure), and
//! `on_error` / `max_retries` / `retry_backoff_ms` (failure recovery)
//! attributes, available on *every* analysis element.
//!
//! ```xml
//! <sensei>
//!   <faults seed="7">
//!     <fault site="stream.launch" probability="0.05" max="3"/>
//!     <fault site="mpi.collective" delay_ms="5" rank="0"/>
//!   </faults>
//!   <analysis type="data_binning" enabled="1"
//!             mode="asynchronous" device="-2" n_use="1" offset="3"
//!             queue_depth="4" overflow="block"
//!             on_error="retry" max_retries="3" retry_backoff_ms="10">
//!     ...back-end specific content...
//!   </analysis>
//! </sensei>
//! ```
//!
//! The optional `<faults>` element installs a deterministic fault
//! schedule on the node's [`devsim::FaultInjector`] at instantiate time:
//! `seed` fixes the sampling sequence; each `<fault>` child names an
//! injection site (`site`), fires with `probability` per armed occurrence
//! (default 1), optionally stalls for `delay_ms` instead of erroring,
//! skips the first `after` occurrences, stops after `max` injections, and
//! can be pinned to one `rank`.

use std::time::Duration;

use devsim::{FaultConfig, FaultKind, FaultRule, NetworkParams};
use minimpi::Topology;
use xmlcfg::Element;

use crate::adaptor::AnalysisAdaptor;
use crate::controls::{BackendControls, DeviceSpec};
use crate::device_select::DeviceSelector;
use crate::error::{Error, Result};
use crate::execution::ExecutionMethod;
use crate::queue::OverflowPolicy;
use crate::recovery::RecoveryPolicy;
use crate::registry::{AnalysisRegistry, CreateContext};
use crate::snapshot::SnapshotMode;

/// One `<analysis>` entry of a configuration.
pub struct BackendConfig {
    /// The back-end type name.
    pub type_name: String,
    /// Whether the entry is enabled.
    pub enabled: bool,
    /// Execution-model controls parsed from the element's attributes.
    pub controls: BackendControls,
    /// The full element, for back-end specific parameters.
    pub element: Element,
}

impl BackendConfig {
    /// Rebuild the `<analysis>` element: back-end specific children are
    /// preserved from the source document, while every execution-model
    /// control is written back as an attribute (so
    /// parse → [`ConfigurableAnalysis::to_xml`] → parse round-trips).
    pub fn to_element(&self) -> Element {
        let mut el = self.element.clone();
        let set = |el: &mut Element, key: &str, value: String| {
            el.attributes.retain(|(k, _)| k != key);
            el.attributes.push((key.to_string(), value));
        };
        set(&mut el, "type", self.type_name.clone());
        set(&mut el, "enabled", (self.enabled as u8).to_string());
        let c = &self.controls;
        set(&mut el, "mode", c.execution.name().to_string());
        set(&mut el, "device", c.device.code().to_string());
        match c.selector.n_use {
            Some(n) => set(&mut el, "n_use", n.to_string()),
            None => el.attributes.retain(|(k, _)| k != "n_use"),
        }
        set(&mut el, "stride", c.selector.stride.to_string());
        set(&mut el, "offset", c.selector.offset.to_string());
        set(&mut el, "frequency", c.frequency.to_string());
        set(&mut el, "queue_depth", c.queue_depth.to_string());
        set(&mut el, "overflow", c.overflow.name().to_string());
        set(&mut el, "on_error", c.recovery.name().to_string());
        match c.recovery {
            RecoveryPolicy::Retry { max_retries, backoff_ms } => {
                set(&mut el, "max_retries", max_retries.to_string());
                set(&mut el, "retry_backoff_ms", backoff_ms.to_string());
            }
            _ => {
                el.attributes.retain(|(k, _)| k != "max_retries" && k != "retry_backoff_ms");
            }
        }
        el
    }
}

/// Parsed `<topology>` element: how ranks group into simulated nodes and
/// the two-tier network cost model their messages are charged against.
///
/// ```xml
/// <topology ranks_per_node="4"
///           intra_gbps="200" inter_gbps="25"
///           intra_latency_ns="1000" inter_latency_ns="5000"/>
/// ```
///
/// A world whose ranks span more than one node routes its collectives
/// over the tiered path (DESIGN.md §14); there is no routing choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyConfig {
    /// Ranks per simulated node (consecutive fill, last node partial).
    pub ranks_per_node: usize,
    /// The intra-/inter-node cost model.
    pub net: NetworkParams,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig { ranks_per_node: 4, net: NetworkParams::default() }
    }
}

impl TopologyConfig {
    /// The rank → node grouping for a world of `n` ranks.
    pub fn topology(&self, n: usize) -> Topology {
        Topology::grouped(n, self.ranks_per_node)
    }
}

/// A parsed SENSEI run-time configuration.
pub struct ConfigurableAnalysis {
    configs: Vec<BackendConfig>,
    faults: Option<FaultConfig>,
    snapshot: Option<SnapshotMode>,
    topology: Option<TopologyConfig>,
}

impl ConfigurableAnalysis {
    /// Parse a configuration document.
    pub fn from_xml(xml: &str) -> Result<Self> {
        let root = xmlcfg::parse(xml)?;
        Self::from_element(&root)
    }

    /// Parse from an already-built DOM.
    pub fn from_element(root: &Element) -> Result<Self> {
        if root.name != "sensei" {
            return Err(Error::Config(format!("expected <sensei> root, found <{}>", root.name)));
        }
        // Older configs may carry it, in any form; an ignored element
        // would let them claim pool tuning that no longer exists.
        if root.find_child("memory_pool").is_some() {
            return Err(Error::Config(
                "<memory_pool> was removed: the pool's size classes and cache ceiling are \
                 fixed, and its one switch is NodeConfig.pool, set before SimNode::new \
                 (delete the element)"
                    .into(),
            ));
        }
        let faults = match root.find_child("faults") {
            None => None,
            Some(el) => {
                let seed = el.parse_attr_or::<u64>("seed", 0).map_err(Error::Xml)?;
                let mut schedule = FaultConfig::seeded(seed);
                for f in el.find_all("fault") {
                    let site = f.req_attr("site").map_err(Error::Xml)?;
                    let mut rule = match f.parse_attr::<u64>("delay_ms").map_err(Error::Xml)? {
                        Some(ms) => FaultRule::delay(site, Duration::from_millis(ms)),
                        None => FaultRule::error(site),
                    };
                    let p = f.parse_attr_or::<f64>("probability", 1.0).map_err(Error::Xml)?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(Error::Config(format!("fault probability {p} outside [0, 1]")));
                    }
                    rule = rule.with_probability(p);
                    rule = rule.with_after(f.parse_attr_or::<u64>("after", 0).map_err(Error::Xml)?);
                    if let Some(max) = f.parse_attr::<u64>("max").map_err(Error::Xml)? {
                        rule = rule.with_max_injections(max);
                    }
                    if let Some(rank) = f.parse_attr::<usize>("rank").map_err(Error::Xml)? {
                        rule = rule.for_rank(rank);
                    }
                    schedule = schedule.with_rule(rule);
                }
                Some(schedule)
            }
        };
        let snapshot = match root.find_child("snapshot") {
            None => None,
            Some(el) => {
                let mode = el.attr_or("mode", "deep");
                Some(SnapshotMode::parse(mode).ok_or_else(|| {
                    Error::Config(format!("bad snapshot mode '{mode}' (expected deep or cow)"))
                })?)
            }
        };
        let topology = match root.find_child("topology") {
            None => None,
            Some(el) => {
                let d = TopologyConfig::default();
                let ranks_per_node = el
                    .parse_attr_or::<usize>("ranks_per_node", d.ranks_per_node)
                    .map_err(Error::Xml)?;
                if ranks_per_node == 0 {
                    return Err(Error::Config("topology ranks_per_node must be at least 1".into()));
                }
                if let Some(mode) = el.attr("mode") {
                    return Err(Error::Config(format!(
                        "mode=\"{mode}\" on <topology> was removed: collectives on a \
                         topology that spans nodes always take the tiered path \
                         (delete the attribute)"
                    )));
                }
                let gbps = |attr: &str, default: f64| -> Result<f64> {
                    let v = el.parse_attr_or::<f64>(attr, default / 1e9).map_err(Error::Xml)? * 1e9;
                    // NaN compares false both ways: test for what is valid.
                    if !(v.is_finite() && v > 0.0) {
                        return Err(Error::Config(format!(
                            "topology {attr} must be finite and positive"
                        )));
                    }
                    Ok(v)
                };
                let latency = |attr: &str, default: Duration| -> Result<Duration> {
                    let ns = el
                        .parse_attr_or::<u64>(attr, default.as_nanos() as u64)
                        .map_err(Error::Xml)?;
                    Ok(Duration::from_nanos(ns))
                };
                let net = NetworkParams {
                    intra_bytes_per_sec: gbps("intra_gbps", d.net.intra_bytes_per_sec)?,
                    inter_bytes_per_sec: gbps("inter_gbps", d.net.inter_bytes_per_sec)?,
                    intra_latency: latency("intra_latency_ns", d.net.intra_latency)?,
                    inter_latency: latency("inter_latency_ns", d.net.inter_latency)?,
                };
                Some(TopologyConfig { ranks_per_node, net })
            }
        };
        // Older configs may carry it, in any form; an ignored element
        // would let them claim an autotuner that no longer exists.
        if root.find_child("adaptive").is_some() {
            return Err(Error::Config(
                "<adaptive> was removed: adaptive autotuning is gone, placement is set \
                 with device= (Eq. 1) (delete the element)"
                    .into(),
            ));
        }
        // Nothing applied it: a parsed element would let a config claim
        // a serving layer that only code attaches.
        if root.find_child("serve").is_some() {
            return Err(Error::Config(
                "<serve> was removed: nothing applied it, a serving layer is a ServeHub \
                 attached with Bridge::attach_serve, as harness serve does (delete the element)"
                    .into(),
            ));
        }
        let mut configs = Vec::new();
        for el in root.find_all("analysis") {
            let type_name = el.req_attr("type").map_err(Error::Xml)?.to_string();
            let enabled = el.parse_attr_or::<u8>("enabled", 1).map_err(Error::Xml)? != 0;
            let execution = match el.attr("mode") {
                None => ExecutionMethod::Lockstep,
                Some(s) => ExecutionMethod::parse(s)
                    .ok_or_else(|| Error::Config(format!("bad mode '{s}'")))?,
            };
            let device_code = el.parse_attr_or::<i64>("device", -2).map_err(Error::Xml)?;
            let device = DeviceSpec::from_code(device_code)
                .ok_or_else(|| Error::Config(format!("bad device code {device_code}")))?;
            let selector = DeviceSelector {
                n_use: el.parse_attr::<usize>("n_use").map_err(Error::Xml)?,
                stride: el.parse_attr_or::<usize>("stride", 1).map_err(Error::Xml)?,
                offset: el.parse_attr_or::<usize>("offset", 0).map_err(Error::Xml)?,
            };
            let frequency = el.parse_attr_or::<u64>("frequency", 1).map_err(Error::Xml)?;
            let defaults = BackendControls::default();
            let queue_depth = el
                .parse_attr_or::<usize>("queue_depth", defaults.queue_depth)
                .map_err(Error::Xml)?;
            if queue_depth == 0 {
                return Err(Error::Config("queue_depth must be at least 1".into()));
            }
            let overflow = match el.attr("overflow") {
                None => defaults.overflow,
                Some(s) => OverflowPolicy::parse(s)
                    .ok_or_else(|| Error::Config(format!("bad overflow policy '{s}'")))?,
            };
            // Older configs may carry it; an ignored child would run them
            // dense while they claim otherwise.
            if el.find_child("layout").is_some() {
                return Err(Error::Config(format!(
                    "<layout> on analysis '{type_name}' was removed: layout selection is \
                     gone, columns are dense (delete the element)"
                )));
            }
            let recovery = match el.attr("on_error") {
                None => defaults.recovery,
                Some(s) => {
                    let base = RecoveryPolicy::parse(s)
                        .ok_or_else(|| Error::Config(format!("bad on_error policy '{s}'")))?;
                    match base {
                        RecoveryPolicy::Retry { max_retries, backoff_ms } => {
                            RecoveryPolicy::Retry {
                                max_retries: el
                                    .parse_attr_or::<u32>("max_retries", max_retries)
                                    .map_err(Error::Xml)?,
                                backoff_ms: el
                                    .parse_attr_or::<u64>("retry_backoff_ms", backoff_ms)
                                    .map_err(Error::Xml)?,
                            }
                        }
                        other => other,
                    }
                }
            };
            configs.push(BackendConfig {
                type_name,
                enabled,
                controls: BackendControls {
                    execution,
                    device,
                    selector,
                    frequency,
                    queue_depth,
                    overflow,
                    recovery,
                },
                element: el.clone(),
            });
        }
        Ok(ConfigurableAnalysis { configs, faults, snapshot, topology })
    }

    /// All entries (including disabled ones).
    pub fn configs(&self) -> &[BackendConfig] {
        &self.configs
    }

    /// The `<faults>` schedule, if the document carries the element.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.faults.as_ref()
    }

    /// The `<snapshot mode="deep|cow">` selection, if the document
    /// carries the element. The caller applies it with
    /// [`crate::Bridge::set_snapshot_mode`]; absent means the deep-copy
    /// default.
    pub fn snapshot_mode(&self) -> Option<SnapshotMode> {
        self.snapshot
    }

    /// The `<topology>` settings, if the document carries the element.
    /// The harness applies them when it builds the [`minimpi::World`]
    /// (node grouping and network cost model); absent means the
    /// single-node default.
    pub fn topology_config(&self) -> Option<TopologyConfig> {
        self.topology
    }

    /// Serialize back to XML text. Parsing the result yields the same
    /// entries and controls (attributes are normalized: defaults are
    /// written out explicitly).
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("sensei");
        if let Some(mode) = self.snapshot {
            let mut el = Element::new("snapshot");
            el.attributes.push(("mode".to_string(), mode.name().to_string()));
            root.children.push(xmlcfg::Node::Element(el));
        }
        if let Some(t) = self.topology {
            let mut el = Element::new("topology");
            el.attributes.push(("ranks_per_node".to_string(), t.ranks_per_node.to_string()));
            el.attributes
                .push(("intra_gbps".to_string(), (t.net.intra_bytes_per_sec / 1e9).to_string()));
            el.attributes
                .push(("inter_gbps".to_string(), (t.net.inter_bytes_per_sec / 1e9).to_string()));
            el.attributes
                .push(("intra_latency_ns".to_string(), t.net.intra_latency.as_nanos().to_string()));
            el.attributes
                .push(("inter_latency_ns".to_string(), t.net.inter_latency.as_nanos().to_string()));
            root.children.push(xmlcfg::Node::Element(el));
        }
        if let Some(f) = &self.faults {
            let mut el = Element::new("faults");
            el.attributes.push(("seed".to_string(), f.seed.to_string()));
            for r in &f.rules {
                let mut fe = Element::new("fault");
                fe.attributes.push(("site".to_string(), r.site.clone()));
                if let FaultKind::Delay(d) = r.kind {
                    fe.attributes.push(("delay_ms".to_string(), d.as_millis().to_string()));
                }
                fe.attributes.push(("probability".to_string(), r.probability.to_string()));
                if r.after != 0 {
                    fe.attributes.push(("after".to_string(), r.after.to_string()));
                }
                if r.max_injections != u64::MAX {
                    fe.attributes.push(("max".to_string(), r.max_injections.to_string()));
                }
                if let Some(rank) = r.rank {
                    fe.attributes.push(("rank".to_string(), rank.to_string()));
                }
                el.children.push(xmlcfg::Node::Element(fe));
            }
            root.children.push(xmlcfg::Node::Element(el));
        }
        for cfg in &self.configs {
            root.children.push(xmlcfg::Node::Element(cfg.to_element()));
        }
        xmlcfg::write(&root)
    }

    /// Instantiate every enabled back-end via `registry`, with the parsed
    /// execution-model controls applied.
    pub fn instantiate(
        &self,
        registry: &AnalysisRegistry,
        ctx: &CreateContext,
    ) -> Result<Vec<Box<dyn AnalysisAdaptor>>> {
        if let Some(f) = &self.faults {
            ctx.node.fault().configure(f.clone());
        }
        let mut backends = Vec::new();
        for cfg in self.configs.iter().filter(|c| c.enabled) {
            let mut backend = registry.create(&cfg.type_name, &cfg.element, ctx)?;
            *backend.controls_mut() = cfg.controls;
            backends.push(backend);
        }
        Ok(backends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptor::{DataAdaptor, ExecContext};
    use devsim::{NodeConfig, SimNode};

    const XML: &str = r#"
        <sensei>
          <faults seed="7">
            <fault site="stream.launch" probability="0.25" after="2" max="3"/>
            <fault site="mpi.collective" delay_ms="5" rank="1"/>
          </faults>
          <analysis type="binning" mode="asynchronous" device="-2"
                    n_use="1" offset="3" stride="1"
                    queue_depth="8" overflow="drop_oldest"
                    on_error="retry" max_retries="5" retry_backoff_ms="2">
            <axes>x,y</axes>
          </analysis>
          <analysis type="binning" enabled="0"/>
          <analysis type="writer" device="-1" overflow="error" on_error="skip_step"/>
          <analysis type="probe" device="2"/>
        </sensei>"#;

    #[test]
    fn parses_all_entries_and_controls() {
        let cfg = ConfigurableAnalysis::from_xml(XML).unwrap();
        assert_eq!(cfg.configs().len(), 4);

        let b = &cfg.configs()[0];
        assert_eq!(b.type_name, "binning");
        assert!(b.enabled);
        assert_eq!(b.controls.execution, ExecutionMethod::Asynchronous);
        assert_eq!(b.controls.device, DeviceSpec::Auto);
        assert_eq!(b.controls.selector, DeviceSelector { n_use: Some(1), stride: 1, offset: 3 });
        assert_eq!(b.controls.queue_depth, 8);
        assert_eq!(b.controls.overflow, OverflowPolicy::DropOldest);
        assert_eq!(b.element.find_child("axes").unwrap().text(), "x,y");

        assert_eq!(b.controls.recovery, RecoveryPolicy::Retry { max_retries: 5, backoff_ms: 2 });

        assert!(!cfg.configs()[1].enabled);
        assert_eq!(cfg.configs()[1].controls.queue_depth, 4, "queue_depth defaults to 4");
        assert_eq!(cfg.configs()[1].controls.recovery, RecoveryPolicy::Abort, "default");
        assert_eq!(cfg.configs()[2].controls.device, DeviceSpec::Host);
        assert_eq!(cfg.configs()[2].controls.overflow, OverflowPolicy::Error);
        assert_eq!(cfg.configs()[2].controls.recovery, RecoveryPolicy::SkipStep);
        assert_eq!(cfg.configs()[3].controls.device, DeviceSpec::Explicit(2));
        assert_eq!(cfg.configs()[3].controls.execution, ExecutionMethod::Lockstep);
        assert_eq!(cfg.configs()[3].controls.overflow, OverflowPolicy::Block);
    }

    #[test]
    fn faults_element_parses_and_round_trips() {
        use devsim::FaultKind;

        let cfg = ConfigurableAnalysis::from_xml(XML).unwrap();
        let f = cfg.fault_config().expect("faults element present");
        assert_eq!(f.seed, 7);
        assert_eq!(f.rules.len(), 2);
        let r0 = &f.rules[0];
        assert_eq!(r0.site, "stream.launch");
        assert_eq!(r0.kind, FaultKind::Error);
        assert_eq!(r0.probability, 0.25);
        assert_eq!((r0.after, r0.max_injections, r0.rank), (2, 3, None));
        let r1 = &f.rules[1];
        assert_eq!(r1.kind, FaultKind::Delay(Duration::from_millis(5)));
        assert_eq!(r1.rank, Some(1));

        let text = cfg.to_xml();
        let again = ConfigurableAnalysis::from_xml(&text).unwrap();
        let g = again.fault_config().unwrap();
        assert_eq!(g.seed, f.seed);
        assert_eq!(g.rules.len(), 2);
        assert_eq!(g.rules[0].probability, 0.25);
        assert_eq!(g.rules[1].kind, FaultKind::Delay(Duration::from_millis(5)));

        // Absent element -> no schedule.
        assert!(ConfigurableAnalysis::from_xml("<sensei/>").unwrap().fault_config().is_none());
    }

    #[test]
    fn bad_fault_and_recovery_values_are_rejected() {
        assert!(matches!(
            ConfigurableAnalysis::from_xml(
                r#"<sensei><faults><fault site="x" probability="1.5"/></faults></sensei>"#
            ),
            Err(Error::Config(_))
        ));
        assert!(matches!(
            ConfigurableAnalysis::from_xml(r#"<sensei><faults><fault/></faults></sensei>"#),
            Err(Error::Xml(_))
        ));
        assert!(matches!(
            ConfigurableAnalysis::from_xml(
                r#"<sensei><analysis type="x" on_error="explode"/></sensei>"#
            ),
            Err(Error::Config(_))
        ));
    }

    #[test]
    fn instantiate_installs_the_fault_schedule() {
        let cfg = ConfigurableAnalysis::from_xml(
            r#"<sensei><faults seed="3"><fault site="pool.alloc"/></faults></sensei>"#,
        )
        .unwrap();
        let reg = AnalysisRegistry::new();
        let ctx = CreateContext { node: SimNode::new(NodeConfig::fast_test(1)), rank: 0, size: 1 };
        assert!(!ctx.node.fault().is_enabled());
        cfg.instantiate(&reg, &ctx).unwrap();
        assert!(ctx.node.fault().is_enabled(), "schedule applied to the node's injector");
    }

    #[test]
    fn removed_memory_pool_element_is_rejected_and_never_emitted() {
        // Every form reports the removal, an out-of-range value too.
        for xml in [
            "<sensei><memory_pool/></sensei>",
            r#"<sensei><memory_pool enabled="0"/></sensei>"#,
            r#"<sensei><memory_pool enabled="1" granularity="128" trim_threshold="65536"/></sensei>"#,
            r#"<sensei><memory_pool granularity="0"/></sensei>"#,
        ] {
            match ConfigurableAnalysis::from_xml(xml) {
                Err(Error::Config(msg)) => {
                    assert!(msg.contains("<memory_pool> was removed"), "{msg}")
                }
                other => panic!("{xml} must be a Config error, got {:?}", other.map(|_| ())),
            }
        }
        let text = ConfigurableAnalysis::from_xml(XML).unwrap().to_xml();
        assert!(!text.contains("<memory_pool"), "{text}");
    }

    #[test]
    fn snapshot_element_parses_and_round_trips() {
        let cfg =
            ConfigurableAnalysis::from_xml(r#"<sensei><snapshot mode="cow"/></sensei>"#).unwrap();
        assert_eq!(cfg.snapshot_mode(), Some(SnapshotMode::Cow));
        let text = cfg.to_xml();
        assert!(text.contains(r#"<snapshot mode="cow"/>"#));
        let again = ConfigurableAnalysis::from_xml(&text).unwrap();
        assert_eq!(again.snapshot_mode(), Some(SnapshotMode::Cow));

        // A bare element means the deep default; an absent one means no
        // override at all.
        let bare = ConfigurableAnalysis::from_xml("<sensei><snapshot/></sensei>").unwrap();
        assert_eq!(bare.snapshot_mode(), Some(SnapshotMode::Deep));
        assert_eq!(ConfigurableAnalysis::from_xml("<sensei/>").unwrap().snapshot_mode(), None);

        // An unknown mode is a typed error naming the valid ones, never
        // a silent default — `delta`, which older configs may carry,
        // included.
        for bad in ["shallow", "delta"] {
            let doc = format!(r#"<sensei><snapshot mode="{bad}"/></sensei>"#);
            match ConfigurableAnalysis::from_xml(&doc) {
                Err(Error::Config(msg)) => {
                    assert!(msg.contains(bad) && msg.contains("expected deep or cow"), "{msg}")
                }
                other => panic!("mode '{bad}' must be rejected, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn topology_element_parses_and_round_trips() {
        let cfg = ConfigurableAnalysis::from_xml(
            r#"<sensei>
                 <topology ranks_per_node="8"
                           intra_gbps="100" inter_gbps="12.5"
                           intra_latency_ns="500" inter_latency_ns="7000"/>
               </sensei>"#,
        )
        .unwrap();
        let t = cfg.topology_config().expect("topology element present");
        assert_eq!(t.ranks_per_node, 8);
        assert_eq!(t.net.intra_bytes_per_sec, 100e9);
        assert_eq!(t.net.inter_bytes_per_sec, 12.5e9);
        assert_eq!(t.net.intra_latency, Duration::from_nanos(500));
        assert_eq!(t.net.inter_latency, Duration::from_micros(7));
        let topo = t.topology(10);
        assert_eq!(topo.num_nodes(), 2);
        assert!(topo.same_node(0, 7) && !topo.same_node(7, 8));

        let text = cfg.to_xml();
        assert!(!text.contains("mode="), "{text}");
        let again = ConfigurableAnalysis::from_xml(&text).unwrap();
        assert_eq!(again.topology_config(), Some(t));

        // A bare element means the defaults (4 per node, Perlmutter-shaped
        // network); an absent one means single-node.
        let bare = ConfigurableAnalysis::from_xml("<sensei><topology/></sensei>").unwrap();
        assert_eq!(bare.topology_config(), Some(TopologyConfig::default()));
        assert_eq!(ConfigurableAnalysis::from_xml("<sensei/>").unwrap().topology_config(), None);
    }

    #[test]
    fn removed_serve_element_is_rejected_and_never_emitted() {
        match ConfigurableAnalysis::from_xml("<sensei><serve/></sensei>") {
            Err(Error::Config(msg)) => assert!(msg.contains("Bridge::attach_serve"), "{msg}"),
            other => panic!("<serve/> must be a Config error, got {:?}", other.map(|_| ())),
        }
        let text = ConfigurableAnalysis::from_xml(XML).unwrap().to_xml();
        assert!(!text.contains("<serve"), "{text}");
    }

    #[test]
    fn bad_serve_values_are_rejected() {
        // The element is rejected before any attribute is read, so a bad
        // value reports the removal, not a range.
        for xml in [
            r#"<sensei><serve sessions="0"/></sensei>"#,
            r#"<sensei><serve queue_depth="0"/></sensei>"#,
            r#"<sensei><serve overflow="spill"/></sensei>"#,
        ] {
            match ConfigurableAnalysis::from_xml(xml) {
                Err(Error::Config(msg)) => assert!(msg.contains("<serve> was removed"), "{msg}"),
                other => panic!("{xml} must be a Config error, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn bad_topology_values_are_rejected() {
        for xml in [
            r#"<sensei><topology ranks_per_node="0"/></sensei>"#,
            r#"<sensei><topology mode="diagonal"/></sensei>"#,
            r#"<sensei><topology mode="flat"/></sensei>"#,
            r#"<sensei><topology mode="hierarchical"/></sensei>"#,
            r#"<sensei><topology inter_gbps="-3"/></sensei>"#,
            r#"<sensei><topology intra_gbps="0"/></sensei>"#,
            // NaN is neither <= 0 nor > 0; it would panic the time model
            // at the first charged message.
            r#"<sensei><topology intra_gbps="nan"/></sensei>"#,
            r#"<sensei><topology inter_gbps="NaN"/></sensei>"#,
            r#"<sensei><topology inter_gbps="inf"/></sensei>"#,
        ] {
            assert!(matches!(ConfigurableAnalysis::from_xml(xml), Err(Error::Config(_))), "{xml}");
        }
    }

    #[test]
    fn removed_layout_options_are_rejected_and_never_emitted() {
        let dense = "columns are dense";
        for (xml, names, why) in [
            (
                r#"<sensei><analysis type="binning"><layout>aosoa4</layout></analysis></sensei>"#,
                "<layout>",
                dense,
            ),
            (
                r#"<sensei><analysis type="binning"><layout>scalar</layout></analysis></sensei>"#,
                "<layout>",
                dense,
            ),
            // The autotuner's layout stage went first; its element went
            // with the autotuner.
            (r#"<sensei><adaptive tune_layout="0"/></sensei>"#, "<adaptive>", "device="),
            (
                r#"<sensei><adaptive enabled="0" tune_layout="1"/></sensei>"#,
                "<adaptive>",
                "device=",
            ),
        ] {
            match ConfigurableAnalysis::from_xml(xml) {
                Err(Error::Config(msg)) => {
                    assert!(msg.contains(names), "{msg}");
                    assert!(msg.contains("removed") && msg.contains(why), "{msg}");
                }
                other => panic!("{xml} must be a Config error, got {:?}", other.map(|_| ())),
            }
        }

        let cfg = ConfigurableAnalysis::from_xml(
            r#"<sensei><analysis type="binning" mode="dag"/></sensei>"#,
        )
        .unwrap();
        let text = cfg.to_xml();
        assert!(!text.contains("layout") && !text.contains("adaptive"), "{text}");
        let again = ConfigurableAnalysis::from_xml(&text).unwrap();
        assert_eq!(again.configs()[0].controls, cfg.configs()[0].controls);
    }

    #[test]
    fn bad_queue_depth_and_overflow_are_rejected() {
        assert!(matches!(
            ConfigurableAnalysis::from_xml(
                r#"<sensei><analysis type="x" queue_depth="0"/></sensei>"#
            ),
            Err(Error::Config(_))
        ));
        assert!(matches!(
            ConfigurableAnalysis::from_xml(
                r#"<sensei><analysis type="x" overflow="discard"/></sensei>"#
            ),
            Err(Error::Config(_))
        ));
    }

    #[test]
    fn xml_round_trips_through_to_xml() {
        let cfg = ConfigurableAnalysis::from_xml(XML).unwrap();
        let text = cfg.to_xml();
        let again = ConfigurableAnalysis::from_xml(&text).unwrap();
        assert_eq!(again.configs().len(), cfg.configs().len());
        for (a, b) in cfg.configs().iter().zip(again.configs()) {
            assert_eq!(a.type_name, b.type_name);
            assert_eq!(a.enabled, b.enabled);
            assert_eq!(a.controls, b.controls);
        }
        // Back-end specific children survive the round trip.
        assert_eq!(again.configs()[0].element.find_child("axes").unwrap().text(), "x,y");
        // And the controls are normalized into explicit attributes.
        assert!(text.contains(r#"queue_depth="8""#));
        assert!(text.contains(r#"overflow="drop_oldest""#));
        assert!(text.contains(r#"overflow="block""#), "defaults written explicitly");
    }

    #[test]
    fn bad_root_mode_and_device_are_rejected() {
        assert!(matches!(ConfigurableAnalysis::from_xml("<nope/>"), Err(Error::Config(_))));
        assert!(matches!(
            ConfigurableAnalysis::from_xml(r#"<sensei><analysis type="x" mode="weird"/></sensei>"#),
            Err(Error::Config(_))
        ));
        assert!(matches!(
            ConfigurableAnalysis::from_xml(r#"<sensei><analysis type="x" device="-9"/></sensei>"#),
            Err(Error::Config(_))
        ));
        assert!(matches!(
            ConfigurableAnalysis::from_xml(r#"<sensei><analysis/></sensei>"#),
            Err(Error::Xml(_))
        ));
    }

    struct Probe {
        controls: BackendControls,
        label: String,
    }

    impl AnalysisAdaptor for Probe {
        fn name(&self) -> &str {
            &self.label
        }
        fn controls(&self) -> &BackendControls {
            &self.controls
        }
        fn controls_mut(&mut self) -> &mut BackendControls {
            &mut self.controls
        }
        fn execute(&mut self, _d: &dyn DataAdaptor, _c: &ExecContext<'_>) -> Result<bool> {
            Ok(true)
        }
    }

    #[test]
    fn instantiate_applies_controls_and_skips_disabled() {
        let cfg = ConfigurableAnalysis::from_xml(XML).unwrap();
        let mut reg = AnalysisRegistry::new();
        for t in ["binning", "writer", "probe"] {
            reg.register(t, move |el, _| {
                Ok(Box::new(Probe {
                    controls: BackendControls::default(),
                    label: el.attr_or("type", "?").to_string(),
                }) as Box<dyn AnalysisAdaptor>)
            });
        }
        let ctx = CreateContext { node: SimNode::new(NodeConfig::fast_test(4)), rank: 0, size: 1 };
        let backends = cfg.instantiate(&reg, &ctx).unwrap();
        assert_eq!(backends.len(), 3, "the disabled entry is skipped");
        assert_eq!(backends[0].controls().execution, ExecutionMethod::Asynchronous);
        assert_eq!(backends[0].controls().selector.offset, 3);
        assert_eq!(backends[1].controls().device, DeviceSpec::Host);
    }
}
