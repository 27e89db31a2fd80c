//! # analyses — additional SENSEI analysis back-ends
//!
//! SENSEI's value is coupling one instrumentation to *many* back-ends
//! with run-time switching. Besides the paper's data-binning operator
//! (crate `binning`), this crate provides the other back-ends a SENSEI
//! deployment typically ships, all carrying the heterogeneous
//! execution-model controls (placement, lockstep/asynchronous):
//!
//! * [`Histogram`] — 1-D histogram of one variable (host or device
//!   execution, MPI-reduced) — XML type `histogram`;
//! * [`DescriptiveStats`] — per-variable count/min/max/mean/std per step
//!   — XML type `descriptive_stats`;
//! * [`Autocorrelation`] — time-lag autocorrelation of a variable over a
//!   sliding window — XML type `autocorrelation`;
//! * [`ParticleWriter`] — VTK output every `k` steps for *post hoc*
//!   analysis — XML type `particle_writer`.
//!
//! [`register_all`] adds every back-end (including `data_binning` when
//! combined with `binning::register`) to an [`sensei::AnalysisRegistry`].

#![deny(unsafe_code)]

mod autocorrelation;
mod common;
mod histogram;
mod stats;
mod writer;

pub use autocorrelation::{Autocorrelation, AutocorrelationResult};
pub use histogram::{Histogram, HistogramResult};
pub use stats::{DescriptiveStats, VariableStats};
pub use writer::ParticleWriter;

use sensei::AnalysisRegistry;

/// Register every back-end of this crate with `registry`.
pub fn register_all(registry: &mut AnalysisRegistry) {
    histogram::register(registry);
    stats::register(registry);
    autocorrelation::register(registry);
    writer::register(registry);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_all_types() {
        let mut reg = AnalysisRegistry::new();
        register_all(&mut reg);
        for t in ["histogram", "descriptive_stats", "autocorrelation", "particle_writer"] {
            assert!(reg.contains(t), "missing {t}");
        }
    }
}
