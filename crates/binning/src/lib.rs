//! # binning — the in situ data-binning analysis
//!
//! The analysis technique the paper uses to exercise its data- and
//! execution-model extensions (§4.2): given tabular data, pick two
//! variables as the coordinate axes of a uniform Cartesian mesh, locate
//! each row's bin, and reduce the remaining variables into the bins.
//! Supported reductions: count (histogram), summation, minimum, maximum,
//! and average.
//!
//! Two implementations are provided, as in the paper:
//!
//! * [`host_impl`] — runs on the host CPU;
//! * [`device_impl`] — runs as a kernel on an assigned device, using
//!   atomic memory updates "to deal with races between GPU threads
//!   accessing the same bin" (§4.4).
//!
//! Cross-rank reduction merges per-rank grids with MPI-style collectives
//! ([`reduce`]). [`BinningAnalysis`] packages everything as the one SENSEI
//! analysis back-end type: a list of specs over one mesh, run through one
//! fused step. The XML type `data_binning` ([`register`]) is a list of one;
//! `binning_suite` ([`register_suite`], [`BinningSuite::new`]) is N
//! instances of the same back-end run as one.

#![deny(unsafe_code)]

pub mod bounds;
pub mod device_impl;
pub mod host_impl;
pub mod io;
pub mod reduce;

mod adaptor;
mod arena;
mod fused;
mod grid;
mod spec;

pub use adaptor::{
    register, register_suite, BinnedResult, BinningAnalysis, BinningSuite, ResultSink,
};
pub use grid::GridParams;
pub use spec::{BinOp, BinningSpec, VarOp};
