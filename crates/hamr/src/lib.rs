//! # hamr — the Heterogeneous Accelerator Memory Resource
//!
//! A Rust reimplementation of the HAMR library the SENSEI heterogeneous
//! extensions build on (Loring, *HAMR*, 2022; SC-W 2023 §2). It provides
//! the four capabilities the paper's data-model extensions need:
//!
//! 1. **PM-aware allocation** — [`Allocator`] enumerates the allocator of
//!    every supported programming model (malloc/new on the host; CUDA
//!    sync/async/UVA/pinned; HIP sync/async; OpenMP target offload), and
//!    [`HamrBuffer::new`] allocates through the simulated runtime of the
//!    matching PM.
//! 2. **Stream-ordered, optionally asynchronous operation** —
//!    [`HamrStream`] abstracts PM streams; [`StreamMode`] selects whether
//!    buffer operations complete before returning ([`StreamMode::Sync`]) or
//!    are merely enqueued ([`StreamMode::Async`], requiring an explicit
//!    [`HamrBuffer::synchronize`]).
//! 3. **Zero-copy adoption** — [`HamrBuffer::adopt`] wraps externally
//!    allocated memory (the simulation's own buffers) without copying,
//!    with shared life-cycle management (dropping the last handle frees
//!    the allocation).
//! 4. **Location- and PM-agnostic access** — [`HamrBuffer::host_accessible`]
//!    and [`HamrBuffer::device_accessible`] return a view of the data in
//!    the requested place and PM: direct (zero-copy) when the data is
//!    already accessible there, otherwise backed by a **replica** the
//!    allocation keeps in that place, tagged with the write generation
//!    it was filled at: a repeat request is granted from it, and the
//!    data crosses the link again only after it has been written.

#![deny(unsafe_code)]

mod access;
mod allocator;
mod buffer;
mod element;
mod error;
mod stream;

pub use access::{AccessIter, AccessView};
pub use allocator::{Allocator, Pm};
pub use buffer::HamrBuffer;
pub use element::Element;
pub use error::{Error, Result};
pub use stream::{HamrStream, StreamMode};

/// Convenience alias for the most common buffer type in the data model.
pub type DoubleBuffer = HamrBuffer<f64>;
