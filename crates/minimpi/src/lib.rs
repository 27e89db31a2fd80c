//! # minimpi — an in-process MPI-style communicator
//!
//! `minimpi` provides the message-passing substrate used throughout this
//! reproduction of the SENSEI heterogeneous-architecture extensions. The
//! original system runs across nodes with MPI; here every MPI *rank* is an
//! OS thread inside one process, and all communication happens through
//! shared memory. The API mirrors the MPI subset that SENSEI, Newton++, and
//! the data-binning analysis actually exercise:
//!
//! * point-to-point: [`Comm::send`], [`Comm::recv`]
//! * collectives: [`Comm::barrier`], [`Comm::bcast`], [`Comm::reduce`],
//!   [`Comm::allreduce`], [`Comm::allreduce_packed`],
//!   [`Comm::reduce_scatter_with`], [`Comm::gather`], [`Comm::allgather`],
//!   [`Comm::allgather_into`], [`Comm::alltoall`]
//! * communicator management: [`Comm::dup`]
//!
//! # Topology
//!
//! Ranks can be grouped into simulated *nodes* ([`Topology`], configured
//! through [`World::with_ranks_per_node`] / [`World::with_topology`]).
//! Every message is then charged against the intra- or inter-node tier of
//! a [`devsim::NetworkParams`] cost model, and `allreduce` /
//! `allreduce_packed` / `bcast` / `barrier` take a tiered path: node-local
//! reduce, a binomial tree among node leaders across the interconnect,
//! node-local broadcast. The tiered fold realises the topology's canonical
//! merge order, the same one [`Comm::reduce`] applies at its root, so an
//! allreduce equals `reduce` then `bcast` bit for bit.
//! [`Comm::reduce_scatter_with`] exchanges directly on every topology and
//! folds each share in that same order. The default world is a single
//! node, whose collectives take the direct all-to-root path.
//!
//! # Semantics
//!
//! As in MPI, every rank of a communicator must call each collective in the
//! same order. Messages are matched on `(source, destination, tag)` in FIFO
//! order. Message payloads are moved (not serialized); any `Send + 'static`
//! type can be sent, and [`Comm::recv`] returns an error if the queued
//! payload's type does not match the requested type.
//!
//! # Example
//!
//! ```
//! use minimpi::World;
//!
//! let sums = World::new(4).run(|comm| {
//!     let r = comm.rank() as i64;
//!     comm.allreduce(r, |a, b| a + b)
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

#![deny(unsafe_code)]

mod barrier;
mod collectives;
mod comm;
mod error;
mod mailbox;
pub mod ops;
mod topology;
mod world;

pub use collectives::{Segment, SegmentOp};
pub use comm::{CollectiveHook, Comm};
pub use error::{Error, Result};
pub use topology::{TierSnapshot, Topology};
pub use world::World;
