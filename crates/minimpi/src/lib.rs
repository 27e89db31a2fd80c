//! # minimpi — an in-process MPI-style communicator
//!
//! `minimpi` provides the message-passing substrate used throughout this
//! reproduction of the SENSEI heterogeneous-architecture extensions. The
//! original system runs across nodes with MPI; here every MPI *rank* is an
//! OS thread inside one process, and all communication happens through
//! shared memory. The API mirrors the MPI subset that SENSEI, Newton++, and
//! the data-binning analysis actually exercise:
//!
//! * point-to-point: [`Comm::send`], [`Comm::recv`], [`Comm::sendrecv`]
//! * collectives: [`Comm::barrier`], [`Comm::bcast`], [`Comm::reduce`],
//!   [`Comm::allreduce`], [`Comm::allreduce_packed`], [`Comm::gather`],
//!   [`Comm::allgather`], [`Comm::alltoall`], [`Comm::alltoallv`],
//!   [`Comm::scan`]
//! * communicator management: [`Comm::split`], [`Comm::dup`],
//!   [`Comm::split_node`], [`Comm::split_leaders`]
//!
//! # Topology
//!
//! Ranks can be grouped into simulated *nodes* ([`Topology`], configured
//! through [`World::with_ranks_per_node`] / [`World::with_topology`]).
//! Every message is then charged against the intra- or inter-node tier of
//! a [`devsim::NetworkParams`] cost model, and `allreduce` /
//! `allreduce_packed` / `bcast` / `barrier` take a tiered path: node-local
//! reduce, a binomial tree among node leaders across the interconnect,
//! node-local broadcast. Results are bit-identical to the flat algorithms
//! ([`CollectiveMode::Flat`]) because both realise the topology's
//! canonical merge order. The default world is a single node, which keeps
//! the historical flat behaviour.
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
pub use topology::{CollectiveMode, TierSnapshot, Topology};
pub use world::World;

/// Wildcard source for [`Comm::recv_any`]: match a message from any rank.
pub const ANY_SOURCE: usize = usize::MAX;
