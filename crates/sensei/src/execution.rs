//! Execution methods (§3): lockstep and asynchronous, plus the dataflow
//! variant of asynchronous.

/// How an analysis back-end executes relative to the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMethod {
    /// The simulation and the in situ code take turns: the simulation
    /// waits for the analysis to complete before proceeding. Zero-copy
    /// data access is possible because the simulation's arrays are
    /// guaranteed not to change during the analysis.
    #[default]
    Lockstep,
    /// The in situ code deep-copies the data it needs, is handed to a
    /// separate thread, and the call returns immediately; simulation and
    /// analysis proceed concurrently.
    Asynchronous,
    /// Asynchronous, but a back-end's step nodes
    /// (`Fetch → Kernel → Download → Reduce → Publish`) are planned with
    /// its kernels spread over the node's devices, and run on a compute
    /// and a copy stream per device instead of each device's default
    /// stream. Back-ends that do not plan their own nodes run as under
    /// plain asynchronous execution.
    Dag,
}

impl ExecutionMethod {
    /// The XML spelling used in run-time configuration.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutionMethod::Lockstep => "lockstep",
            ExecutionMethod::Asynchronous => "asynchronous",
            ExecutionMethod::Dag => "dag",
        }
    }

    /// Parse the XML spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "lockstep" => Some(ExecutionMethod::Lockstep),
            "asynchronous" => Some(ExecutionMethod::Asynchronous),
            "dag" => Some(ExecutionMethod::Dag),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for m in [ExecutionMethod::Lockstep, ExecutionMethod::Asynchronous, ExecutionMethod::Dag] {
            assert_eq!(ExecutionMethod::parse(m.name()), Some(m));
        }
    }

    #[test]
    fn aliases_are_rejected() {
        assert_eq!(ExecutionMethod::parse(" Lockstep "), Some(ExecutionMethod::Lockstep));
        for alias in ["sync", "synchronous", "async", "ASYNC", "threaded", "dataflow", "bogus"] {
            assert_eq!(ExecutionMethod::parse(alias), None, "{alias}");
            let xml = format!(r#"<sensei><analysis type="x" mode="{alias}"/></sensei>"#);
            match crate::ConfigurableAnalysis::from_xml(&xml) {
                Err(crate::Error::Config(msg)) => assert!(msg.contains(alias), "{msg}"),
                other => {
                    panic!("mode '{alias}' must be a Config error, got {:?}", other.map(|_| ()))
                }
            }
        }
    }
}
