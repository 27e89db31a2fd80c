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
