//! Back-end control parameters shared by every analysis adaptor.
//!
//! The paper defines the new execution-model controls "in the base class
//! for SENSEI analysis back-ends and therefore available to all
//! back-ends". Rust has no base classes; [`BackendControls`] is the
//! struct every back-end embeds and exposes through
//! [`crate::AnalysisAdaptor::controls`].

use crate::device_select::{select_device, DeviceSelector};
use crate::execution::ExecutionMethod;
use crate::queue::OverflowPolicy;
use crate::recovery::RecoveryPolicy;

/// Where an analysis should run, before rank-specific resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceSpec {
    /// Run on the host CPU.
    Host,
    /// Explicit device id (manual selection).
    Explicit(usize),
    /// Automatic selection via Eq. (1).
    #[default]
    Auto,
}

impl DeviceSpec {
    /// Parse the XML encoding: `-1` = host, `-2` = automatic, `>= 0` =
    /// explicit device id.
    pub fn from_code(code: i64) -> Option<DeviceSpec> {
        match code {
            -1 => Some(DeviceSpec::Host),
            -2 => Some(DeviceSpec::Auto),
            d if d >= 0 => Some(DeviceSpec::Explicit(d as usize)),
            _ => None,
        }
    }

    /// The XML encoding of this spec.
    pub fn code(&self) -> i64 {
        match self {
            DeviceSpec::Host => -1,
            DeviceSpec::Auto => -2,
            DeviceSpec::Explicit(d) => *d as i64,
        }
    }
}

/// The execution-model control parameters every back-end carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendControls {
    /// Lockstep or asynchronous execution (§3).
    pub execution: ExecutionMethod,
    /// Placement target before resolution.
    pub device: DeviceSpec,
    /// Automatic-selection parameters (Eq. 1).
    pub selector: DeviceSelector,
    /// Execute every `frequency` steps (1 = every iteration, as in the
    /// paper's runs). The bridge skips the back-end on other steps.
    pub frequency: u64,
    /// Maximum snapshots in flight for asynchronous execution (each holds
    /// a deep copy of the back-end's required arrays). Minimum 1.
    pub queue_depth: usize,
    /// What snapshot submission does when `queue_depth` is reached.
    pub overflow: OverflowPolicy,
    /// What the owning engine does when one dispatch of this back-end
    /// fails (abort / skip the step / retry with backoff).
    pub recovery: RecoveryPolicy,
}

impl Default for BackendControls {
    fn default() -> Self {
        BackendControls {
            execution: ExecutionMethod::default(),
            device: DeviceSpec::default(),
            selector: DeviceSelector::default(),
            frequency: 1,
            queue_depth: 4,
            overflow: OverflowPolicy::default(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl BackendControls {
    /// True when the back-end should run at `step`.
    pub fn due_at(&self, step: u64) -> bool {
        self.frequency <= 1 || step.is_multiple_of(self.frequency)
    }
}

impl BackendControls {
    /// Resolve the placement for `rank` on a node with `n_avail` devices:
    /// `None` = host, `Some(d)` = device `d`.
    pub fn resolve_device(&self, rank: usize, n_avail: usize) -> Option<usize> {
        match self.device {
            DeviceSpec::Host => None,
            DeviceSpec::Explicit(d) => Some(d.min(n_avail.saturating_sub(1))),
            DeviceSpec::Auto => Some(select_device(rank, n_avail, &self.selector)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for spec in [DeviceSpec::Host, DeviceSpec::Auto, DeviceSpec::Explicit(3)] {
            assert_eq!(DeviceSpec::from_code(spec.code()), Some(spec));
        }
        assert_eq!(DeviceSpec::from_code(-3), None);
    }

    #[test]
    fn host_resolves_to_none() {
        let c = BackendControls { device: DeviceSpec::Host, ..Default::default() };
        assert_eq!(c.resolve_device(0, 4), None);
    }

    #[test]
    fn explicit_is_clamped_to_available() {
        let c = BackendControls { device: DeviceSpec::Explicit(9), ..Default::default() };
        assert_eq!(c.resolve_device(0, 4), Some(3));
        let c2 = BackendControls { device: DeviceSpec::Explicit(2), ..Default::default() };
        assert_eq!(c2.resolve_device(7, 4), Some(2));
    }

    #[test]
    fn auto_uses_the_selector() {
        let c = BackendControls {
            device: DeviceSpec::Auto,
            selector: DeviceSelector { n_use: Some(1), offset: 3, stride: 1 },
            ..Default::default()
        };
        for rank in 0..5 {
            assert_eq!(c.resolve_device(rank, 4), Some(3));
        }
    }

    #[test]
    fn default_is_auto_round_robin_lockstep_every_step() {
        let c = BackendControls::default();
        assert_eq!(c.execution, ExecutionMethod::Lockstep);
        assert_eq!(c.resolve_device(5, 4), Some(1));
        assert_eq!(c.frequency, 1);
        assert!(c.due_at(0) && c.due_at(1) && c.due_at(7));
        assert_eq!(c.queue_depth, 4);
        assert_eq!(c.overflow, OverflowPolicy::Block);
        assert_eq!(c.recovery, RecoveryPolicy::Abort, "failures surface by default");
    }

    #[test]
    fn frequency_gates_execution() {
        let c = BackendControls { frequency: 3, ..Default::default() };
        assert!(c.due_at(0));
        assert!(!c.due_at(1));
        assert!(!c.due_at(2));
        assert!(c.due_at(3));
        assert!(c.due_at(6));
        // Frequency 0 behaves like 1 (always due).
        let c0 = BackendControls { frequency: 0, ..Default::default() };
        assert!(c0.due_at(5));
    }
}
