//! # oscillators — the SENSEI miniapp
//!
//! SENSEI's canonical demonstration simulation: a set of oscillator
//! sources (periodic, damped, or decaying) evaluated over a uniform
//! Cartesian grid that is block-decomposed across MPI ranks. Next to
//! Newton++'s tabular data, this miniapp exercises the *mesh* side of the
//! data model: each rank publishes its block of the global grid as
//! `svtk::ImageData` inside a `svtk::MultiBlock`, with the field array
//! adopted zero-copy from device memory.
//!
//! ```
//! use minimpi::World;
//! use devsim::{NodeConfig, SimNode};
//! use oscillators::{Oscillator, OscillatorsConfig, OscillatorsSim};
//!
//! let sums = World::new(2).run(|comm| {
//!     let node = SimNode::new(NodeConfig::fast_test(2));
//!     let cfg = OscillatorsConfig {
//!         oscillators: vec![Oscillator::periodic([0.5, 0.5, 0.0], 0.3, 6.0, 1.0)],
//!         ..OscillatorsConfig::small()
//!     };
//!     let mut sim = OscillatorsSim::new(node, &comm, comm.rank(), cfg).unwrap();
//!     sim.step(&comm).unwrap();
//!     sim.local_field().unwrap().iter().sum::<f64>()
//! });
//! assert!(sums.iter().all(|s| s.is_finite()));
//! ```

#![deny(unsafe_code)]

mod model;
mod sim;

pub use model::{Oscillator, OscillatorKind};
pub use sim::{OscillatorsAdaptor, OscillatorsConfig, OscillatorsSim};
