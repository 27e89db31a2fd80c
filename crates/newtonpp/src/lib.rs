//! # newtonpp — the Newton++ n-body simulation
//!
//! A Rust reimplementation of the simulation code used in the paper's
//! evaluation (§4.1): "an open source direct n-body simulation with a
//! second order, time reversible, symplectic integration scheme ...
//! parallelized with MPI and OpenMP device offload. Each MPI rank owns a
//! unique spatial subdomain of the simulated volume and is responsible
//! for integrating bodies within its subdomain. As bodies evolve in
//! time, a repartitioning phase migrates bodies that have moved outside
//! of a given subdomain to the correct MPI rank."
//!
//! Structure:
//!
//! * [`BodySet`] — host-side body storage (struct of arrays);
//! * [`ic`] — initial conditions: the paper's uniform-random
//!   distribution with a massive central body, plus a disk-galaxy
//!   generator standing in for MAGI;
//! * [`Domain`] — slab decomposition and body ownership;
//! * [`repartition`] — cross-rank body migration (`alltoallv`);
//! * [`forces`], [`integrator`] — softened gravity and the
//!   kick-drift-kick leapfrog (2nd-order symplectic, time reversible);
//! * [`Newton`] — the device-offloaded distributed simulation;
//! * [`NewtonAdaptor`] — the SENSEI data adaptor publishing the bodies
//!   as a table of heterogeneous arrays, zero-copy.

#![deny(unsafe_code)]

pub mod energy;
pub mod forces;
pub mod ic;
pub mod integrator;
pub mod io;
pub mod repartition;

mod adaptor;
mod body;
mod domain;
mod sim;

pub use adaptor::NewtonAdaptor;
pub use body::BodySet;
pub use domain::Domain;
pub use sim::{IcKind, Newton, NewtonConfig};
