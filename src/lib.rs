//! # sensei-insitu — SENSEI extensions for heterogeneous architectures
//!
//! A Rust reproduction of *"Extensions to the SENSEI In situ Framework
//! for Heterogeneous Architectures"* (Loring, Weber, Bethel, Mahoney;
//! SC-W 2023). This facade crate re-exports the workspace's public API;
//! see `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.
//!
//! The layers, bottom up:
//!
//! * [`minimpi`] — in-process MPI (ranks are threads);
//! * [`devsim`] — the simulated heterogeneous node (devices, streams,
//!   events, kernels, transfers, virtual-time cost model);
//! * [`hamr`] — the heterogeneous memory resource (PM-aware allocators,
//!   zero-copy adoption, location/PM-agnostic access);
//! * [`svtk`] — the SENSEI data model (`HamrDataArray`, tables, meshes);
//! * [`xmlcfg`] — run-time XML configuration;
//! * [`sensei`] — the framework core with the paper's execution-model
//!   extensions (lockstep/asynchronous, placement, Eq. 1);
//! * [`newtonpp`] — the Newton++ n-body simulation;
//! * [`binning`] — the in situ data-binning analysis;
//! * `bench` — the experiment harness for Table 1 and Figures 1–3.
//!
//! ## Quickstart
//!
//! ```
//! use devsim::{NodeConfig, SimNode};
//! use svtk::{Allocator, HamrDataArray, HamrStream, StreamMode};
//!
//! // A node with two simulated accelerators.
//! let node = SimNode::new(NodeConfig::fast_test(2));
//!
//! // A heterogeneous data array on device 0...
//! let a = HamrDataArray::<f64>::from_slice(
//!     "a", node.clone(), &[1.0, 2.0, 3.0], 1,
//!     Allocator::Cuda, Some(0),
//!     HamrStream::default_stream(), StreamMode::Sync,
//! ).unwrap();
//!
//! // ...accessible anywhere through one API: in place on device 0,
//! // moved automatically to the host.
//! assert!(a.cuda_accessible(0).unwrap().is_direct());
//! let host_view = a.host_accessible().unwrap();
//! a.synchronize().unwrap();
//! assert_eq!(host_view.to_vec().unwrap(), vec![1.0, 2.0, 3.0]);
//! ```

pub use ::bench;
pub use binning;
pub use devsim;
pub use hamr;
pub use minimpi;
pub use newtonpp;
pub use sensei;
pub use svtk;
pub use xmlcfg;
