//! Failure-recovery policies for analysis back-ends.
//!
//! An in situ fault — an injected device error, a transient allocation
//! failure, a panicking analysis — should not be forced to take the whole
//! simulation down. Each back-end carries a [`RecoveryPolicy`] in its
//! [`crate::BackendControls`] choosing what happens when one node of its
//! step fails. Every step is a sequence of typed nodes, each run at
//! once by [`Step::run`](crate::Step::run) inside one
//! [`DagScheduler::step`](crate::DagScheduler::step) — a back-end that
//! plans none runs `execute` as one node — and one function applies the
//! policy to a node:
//!
//! * [`RecoveryPolicy::Abort`] (the default) propagates the error, which
//!   preserves the pre-existing contract that analysis failures surface at
//!   `Bridge::finalize`.
//! * [`RecoveryPolicy::SkipStep`] drops the rest of the failed iteration
//!   (`run` returns [`Halt::Skipped`](crate::Halt::Skipped), which the
//!   step's code passes on with `?`) and keeps the solver running —
//!   graceful degradation: the analysis output has a hole, the
//!   simulation does not.
//! * [`RecoveryPolicy::Retry`] re-runs the failed node with capped
//!   exponential backoff, falling back to abort once the budget is spent.
//!
//! Every outcome is recorded in the back-end's
//! [`FaultCounters`](crate::FaultCounters) so harnesses can assert recovery
//! behaviour instead of trusting it.

use std::time::Duration;

use crate::counters::AnalysisCounters;
use crate::error::{Error, Result};
use crate::scheduler::DagOutcome;

/// Longest single backoff sleep `Retry` will take; keeps exhausted retry
/// budgets from stalling the worker for seconds.
const MAX_BACKOFF_MS: u64 = 250;

/// What happens when one task node of a back-end's step fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Propagate the failure (surfaces at `Bridge::finalize`).
    #[default]
    Abort,
    /// Drop the failed iteration and keep going.
    SkipStep,
    /// Re-run the failed node up to `max_retries` times with capped
    /// exponential backoff starting at `backoff_ms`.
    Retry {
        /// Additional attempts after the first failure.
        max_retries: u32,
        /// Initial backoff; doubles per attempt, capped at 250 ms.
        backoff_ms: u64,
    },
}

impl RecoveryPolicy {
    /// The XML spelling used in run-time configuration.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::Abort => "abort",
            RecoveryPolicy::SkipStep => "skip_step",
            RecoveryPolicy::Retry { .. } => "retry",
        }
    }

    /// Parse the XML spelling. `retry` gets a
    /// default budget of 3 attempts / 10 ms; configuration attributes can
    /// override the fields afterwards.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "abort" => Some(RecoveryPolicy::Abort),
            "skip_step" => Some(RecoveryPolicy::SkipStep),
            "retry" => Some(RecoveryPolicy::Retry { max_retries: 3, backoff_ms: 10 }),
            _ => None,
        }
    }
}

/// Run `attempt` under `policy`, recording every outcome on `counters`:
/// the one place a policy is applied, by [`Step::run`](crate::Step::run)
/// to every node — a back-end that plans no nodes runs its `execute` as
/// one node.
///
/// The first failure counts as `injected`; what happens next depends on
/// the policy (see the module docs). `SkipStep` reports
/// [`DagOutcome::Skipped`]: the caller drops the rest of the step and the
/// simulation keeps running. `label` names the attempt in the error of
/// exhausted retries, and is built only then.
pub(crate) fn recover(
    policy: RecoveryPolicy,
    counters: &AnalysisCounters,
    label: impl FnOnce() -> String,
    mut attempt: impl FnMut() -> Result<()>,
) -> Result<DagOutcome> {
    let Err(first_err) = attempt() else { return Ok(DagOutcome::Completed) };
    let faults = counters.faults();
    faults.add_injected(1);
    match policy {
        RecoveryPolicy::Abort => {
            faults.add_aborted(1);
            Err(first_err)
        }
        RecoveryPolicy::SkipStep => {
            faults.add_skipped(1);
            Ok(DagOutcome::Skipped)
        }
        RecoveryPolicy::Retry { max_retries, backoff_ms } => {
            let mut last_err = first_err;
            for attempt_no in 0..max_retries {
                let delay =
                    backoff_ms.saturating_mul(1u64 << attempt_no.min(16)).min(MAX_BACKOFF_MS);
                if delay > 0 {
                    std::thread::sleep(Duration::from_millis(delay));
                }
                faults.add_retried(1);
                match attempt() {
                    Ok(()) => {
                        faults.add_recovered(1);
                        return Ok(DagOutcome::Completed);
                    }
                    Err(err) => last_err = err,
                }
            }
            faults.add_aborted(1);
            Err(Error::Analysis(format!(
                "analysis '{}' failed after {max_retries} retries: {last_err}",
                label()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn failing_n_times(n: u32) -> impl FnMut() -> Result<()> {
        let mut left = n;
        move || {
            if left > 0 {
                left -= 1;
                Err(Error::Analysis("boom".into()))
            } else {
                Ok(())
            }
        }
    }

    fn label() -> String {
        "b".into()
    }

    #[test]
    fn names_roundtrip_and_aliases_are_rejected() {
        for p in [
            RecoveryPolicy::Abort,
            RecoveryPolicy::SkipStep,
            RecoveryPolicy::Retry { max_retries: 3, backoff_ms: 10 },
        ] {
            assert_eq!(RecoveryPolicy::parse(p.name()).map(|q| q.name()), Some(p.name()));
        }
        for alias in ["fail", "skip-step", "skip", "SKIP", "nope"] {
            assert_eq!(RecoveryPolicy::parse(alias), None, "{alias}");
            let xml = format!(r#"<sensei><analysis type="x" on_error="{alias}"/></sensei>"#);
            match crate::ConfigurableAnalysis::from_xml(&xml) {
                Err(crate::Error::Config(msg)) => assert!(msg.contains(alias), "{msg}"),
                other => panic!("'{alias}' must be a Config error, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn success_touches_no_fault_counters() {
        let c = AnalysisCounters::new();
        let out = recover(RecoveryPolicy::Abort, &c, label, || Ok(()));
        assert_eq!(out.unwrap(), DagOutcome::Completed);
        assert_eq!(c.snapshot().faults, crate::FaultSnapshot::default());
    }

    #[test]
    fn abort_counts_and_propagates() {
        let c = AnalysisCounters::new();
        let out = recover(RecoveryPolicy::Abort, &c, label, failing_n_times(1));
        assert!(out.is_err());
        let f = c.snapshot().faults;
        assert_eq!((f.injected, f.aborted, f.retried, f.recovered, f.skipped), (1, 1, 0, 0, 0));
    }

    #[test]
    fn skip_step_swallows_the_failure_and_proceeds() {
        let c = AnalysisCounters::new();
        let out = recover(RecoveryPolicy::SkipStep, &c, label, failing_n_times(5));
        assert_eq!(out.unwrap(), DagOutcome::Skipped, "a skipped step is not an error");
        let f = c.snapshot().faults;
        assert_eq!((f.injected, f.skipped, f.aborted), (1, 1, 0));
    }

    #[test]
    fn retry_recovers_within_budget() {
        let c = AnalysisCounters::new();
        let policy = RecoveryPolicy::Retry { max_retries: 3, backoff_ms: 0 };
        let out = recover(policy, &c, label, failing_n_times(2));
        assert_eq!(out.unwrap(), DagOutcome::Completed);
        let f = c.snapshot().faults;
        assert_eq!((f.injected, f.retried, f.recovered, f.aborted), (1, 2, 1, 0));
    }

    #[test]
    fn retry_exhaustion_aborts_with_context() {
        let c = AnalysisCounters::new();
        let policy = RecoveryPolicy::Retry { max_retries: 2, backoff_ms: 0 };
        let err = recover(policy, &c, || "binning".into(), failing_n_times(10)).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("binning") && msg.contains("2 retries"), "got: {msg}");
        let f = c.snapshot().faults;
        assert_eq!((f.injected, f.retried, f.recovered, f.aborted), (1, 2, 0, 1));
    }

    #[test]
    fn the_label_is_built_only_when_retries_are_exhausted() {
        let c = AnalysisCounters::new();
        let built = Cell::new(0);
        let label = || {
            built.set(built.get() + 1);
            "binning/kernel:t0s0".to_string()
        };
        let policy = RecoveryPolicy::Retry { max_retries: 2, backoff_ms: 0 };
        recover(policy, &c, label, || Ok(())).unwrap();
        recover(policy, &c, label, failing_n_times(2)).unwrap();
        recover(RecoveryPolicy::SkipStep, &c, label, failing_n_times(1)).unwrap();
        recover(RecoveryPolicy::Abort, &c, label, failing_n_times(1)).unwrap_err();
        assert_eq!(built.get(), 0, "no label is built unless retries run out");
        let msg = recover(policy, &c, label, failing_n_times(3)).unwrap_err().to_string();
        assert_eq!(built.get(), 1);
        assert!(msg.contains("'binning/kernel:t0s0'") && msg.contains("2 retries"), "got: {msg}");
    }

    #[test]
    fn backoff_is_capped() {
        // 1 << 20 ms would sleep ~17 minutes if uncapped; with the cap the
        // whole retry run stays well under a second.
        let c = AnalysisCounters::new();
        let policy = RecoveryPolicy::Retry { max_retries: 2, backoff_ms: 200 };
        let t0 = std::time::Instant::now();
        let _ = recover(policy, &c, label, failing_n_times(10));
        assert!(t0.elapsed() < Duration::from_secs(2));
    }
}
