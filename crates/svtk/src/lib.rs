//! # svtk — the SENSEI data model
//!
//! The SENSEI data model is "VTK plus heterogeneous arrays" (SC-W 2023
//! §2): datasets describe mesh geometry and attach node-, cell-, and
//! un-centered data arrays; the arrays themselves are `svtkDataArray`
//! subclasses. VTK's stock subclasses manage host memory only, so the
//! paper adds `svtkHAMRDataArray` — an array backed by the HAMR memory
//! resource that also manages device memory and provides PM
//! interoperability.
//!
//! This crate implements the subset of that model the SENSEI mediation
//! paths actually touch:
//!
//! * [`DataArray`] — the abstract array interface ( name, tuple count,
//!   component count, element type), with downcasting;
//! * [`HamrDataArray`] — the heterogeneous array (the paper's HDA),
//!   including zero-copy adoption and location/PM-agnostic access;
//! * [`FieldData`] — a named collection of arrays with an association
//!   ([`FieldAssociation::Point`], [`Cell`](FieldAssociation::Cell), or
//!   uncentered [`Field`](FieldAssociation::Field) data);
//! * [`TableData`] — tabular data (columns over co-occurring rows), the
//!   input shape of the data-binning analysis;
//! * [`ImageData`] — a uniform Cartesian mesh, the output shape of the
//!   data-binning analysis;
//! * [`MultiBlock`] — the per-rank block container SENSEI passes between
//!   simulation and analysis adaptors.

#![deny(unsafe_code)]

mod attributes;
mod data_array;
mod dataset;
mod hamr_array;
mod image_data;
mod multiblock;
mod table;

pub use attributes::{FieldAssociation, FieldData};
pub use data_array::{ArrayRef, DataArray};
pub use dataset::DataObject;
pub use hamr_array::{
    downcast, HamrDataArray, HamrDoubleArray, HamrFloatArray, HamrIdArray, HamrIntArray,
    HamrUCharArray,
};
pub use image_data::ImageData;
pub use multiblock::MultiBlock;
pub use table::TableData;

pub use hamr::{Allocator, HamrStream, Pm, StreamMode};
