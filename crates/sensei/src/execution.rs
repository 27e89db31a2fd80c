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
    /// Asynchronous, but a back-end's task graph
    /// (`Fetch → Kernel → Download → Reduce → Publish`) runs under a
    /// work-stealing scheduler spanning every device slot and stream
    /// instead of in order. Back-ends that do not plan task graphs run as
    /// under plain asynchronous execution.
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

    /// Parse the XML spelling (a few aliases accepted).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "lockstep" | "sync" | "synchronous" => Some(ExecutionMethod::Lockstep),
            "asynchronous" | "async" | "threaded" => Some(ExecutionMethod::Asynchronous),
            "dag" | "dataflow" => Some(ExecutionMethod::Dag),
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
    fn aliases_parse() {
        assert_eq!(ExecutionMethod::parse("ASYNC"), Some(ExecutionMethod::Asynchronous));
        assert_eq!(ExecutionMethod::parse("sync"), Some(ExecutionMethod::Lockstep));
        assert_eq!(ExecutionMethod::parse("dataflow"), Some(ExecutionMethod::Dag));
        assert_eq!(ExecutionMethod::parse("bogus"), None);
    }
}
