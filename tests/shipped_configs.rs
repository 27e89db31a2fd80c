//! Every XML file shipped under `configs/sensei_xml/` must parse,
//! instantiate against the stock registry, and survive a write → parse
//! round trip — so a schema change cannot strand a shipped config.

use std::path::Path;

use devsim::{NodeConfig, SimNode};
use sensei::{AnalysisRegistry, ConfigurableAnalysis, CreateContext, Error};

/// The registry the harness's `run-config` instantiates against.
fn stock_registry() -> AnalysisRegistry {
    let mut registry = AnalysisRegistry::new();
    binning::register(&mut registry);
    binning::register_suite(&mut registry);
    registry
}

#[test]
fn shipped_configs_parse_instantiate_and_round_trip() {
    let registry = stock_registry();

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/sensei_xml");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("configs/sensei_xml exists")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "xml"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no shipped configs found under {}", dir.display());

    let instantiate = |config: &ConfigurableAnalysis, what: &str| {
        // A fresh node per document: instantiation applies the document's
        // `<memory_pool>` / `<faults>` elements to the node it is given.
        let ctx = CreateContext { node: SimNode::new(NodeConfig::fast_test(4)), rank: 0, size: 1 };
        config.instantiate(&registry, &ctx).unwrap_or_else(|e| panic!("{what}: instantiate: {e}"))
    };
    for path in files {
        let name = path.display().to_string();
        let xml = std::fs::read_to_string(&path).expect("readable config");
        let config =
            ConfigurableAnalysis::from_xml(&xml).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let backends = instantiate(&config, &name);
        assert!(!backends.is_empty(), "{name}: no enabled back-end");

        let again = ConfigurableAnalysis::from_xml(&config.to_xml())
            .unwrap_or_else(|e| panic!("{name}: re-parse of to_xml(): {e}"));
        assert_eq!(again.configs().len(), config.configs().len(), "{name}: configured back-ends");
        assert_eq!(
            instantiate(&again, &name).len(),
            backends.len(),
            "{name}: instantiated back-ends after the round trip"
        );
    }
}

/// The histogram, statistics, autocorrelation and particle-writer
/// back-ends were removed: a document naming one still parses, and
/// instantiating it is a typed error naming the type.
#[test]
fn removed_back_end_types_are_unknown_analysis_types() {
    let registry = stock_registry();
    assert_eq!(registry.type_names(), ["binning_suite", "data_binning"]);
    for removed in ["histogram", "descriptive_stats", "autocorrelation", "particle_writer"] {
        let xml = format!(r#"<sensei><analysis type="{removed}" enabled="1"/></sensei>"#);
        let config = ConfigurableAnalysis::from_xml(&xml)
            .unwrap_or_else(|e| panic!("{removed}: parse: {e}"));
        let ctx = CreateContext { node: SimNode::new(NodeConfig::fast_test(1)), rank: 0, size: 1 };
        match config.instantiate(&registry, &ctx) {
            Err(Error::UnknownAnalysisType { type_name }) => assert_eq!(type_name, removed),
            Err(e) => panic!("{removed}: expected UnknownAnalysisType, got {e}"),
            Ok(_) => panic!("{removed}: instantiated a removed back-end type"),
        }
    }
}

/// The online autotuner was removed: an `<adaptive>` element, in any form
/// (disabled or naming the long-gone layout stage included), makes a
/// shipped config a typed config error pointing at `device=` (Eq. 1).
#[test]
fn removed_adaptive_element_is_a_config_error() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/sensei_xml/binning_90ops_fused.xml");
    let xml = std::fs::read_to_string(&path).expect("readable config");
    assert!(ConfigurableAnalysis::from_xml(&xml).is_ok(), "the base config parses");
    for adaptive in [
        "<adaptive/>",
        r#"<adaptive window="4" hysteresis="0.10" probe_budget="24"/>"#,
        r#"<adaptive enabled="0"/>"#,
        r#"<adaptive tune_layout="1"/>"#,
    ] {
        let with = xml.replacen("<sensei>", &format!("<sensei>{adaptive}"), 1);
        assert_ne!(with, xml, "the element went in");
        match ConfigurableAnalysis::from_xml(&with) {
            Err(Error::Config(msg)) => {
                assert!(msg.contains("<adaptive> was removed"), "{adaptive}: {msg}");
                assert!(msg.contains("device=") && msg.contains("Eq. 1"), "{adaptive}: {msg}");
            }
            Err(e) => panic!("{adaptive}: expected a Config error, got {e}"),
            Ok(_) => panic!("{adaptive}: parsed a removed element"),
        }
    }
}

/// `<serve>` was removed, since nothing applied it: the element, in any
/// form (disabled included), makes a shipped config a typed config error
/// pointing at `Bridge::attach_serve` and `harness serve`.
#[test]
fn removed_serve_element_is_a_config_error() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/sensei_xml/binning_90ops_fused.xml");
    let xml = std::fs::read_to_string(&path).expect("readable config");
    assert!(ConfigurableAnalysis::from_xml(&xml).is_ok(), "the base config parses");
    for serve in [
        "<serve/>",
        r#"<serve enabled="0"/>"#,
        r#"<serve enabled="1" sessions="512" queue_depth="4" overflow="drop_oldest" steering="1"/>"#,
    ] {
        let with = xml.replacen("<sensei>", &format!("<sensei>{serve}"), 1);
        assert_ne!(with, xml, "the element went in");
        match ConfigurableAnalysis::from_xml(&with) {
            Err(Error::Config(msg)) => {
                assert!(msg.contains("<serve> was removed"), "{serve}: {msg}");
                assert!(
                    msg.contains("Bridge::attach_serve") && msg.contains("harness serve"),
                    "{serve}: {msg}"
                );
            }
            Err(e) => panic!("{serve}: expected a Config error, got {e}"),
            Ok(_) => panic!("{serve}: parsed a removed element"),
        }
    }
}

/// The pool's size classes and cache ceiling are fixed and its switch is
/// set in code, and collectives on a multi-node topology always route
/// tiered: a `<memory_pool>` element in any form, or a `mode` attribute
/// on `<topology>` with either old value, makes a shipped config a typed
/// config error naming the removal.
#[test]
fn removed_memory_pool_and_topology_mode_are_config_errors() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/sensei_xml/binning_hierarchical.xml");
    let xml = std::fs::read_to_string(&path).expect("readable config");
    assert!(ConfigurableAnalysis::from_xml(&xml).is_ok(), "the base config parses");
    let mut cases = Vec::new();
    for pool in ["<memory_pool/>", r#"<memory_pool enabled="0" granularity="128"/>"#] {
        let with = xml.replacen("<sensei>", &format!("<sensei>{pool}"), 1);
        cases.push((pool.to_string(), with, "<memory_pool> was removed"));
    }
    for mode in ["flat", "hierarchical"] {
        let with = xml.replacen("<topology ", &format!(r#"<topology mode="{mode}" "#), 1);
        cases.push((format!("mode=\"{mode}\""), with, "on <topology> was removed"));
    }
    for (what, with, names) in cases {
        assert_ne!(with, xml, "{what} went in");
        match ConfigurableAnalysis::from_xml(&with) {
            Err(Error::Config(msg)) => assert!(msg.contains(names), "{what}: {msg}"),
            Err(e) => panic!("{what}: expected a Config error, got {e}"),
            Ok(_) => panic!("{what}: parsed a removed option"),
        }
    }
}
