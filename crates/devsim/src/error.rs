//! Error type for simulated-device operations.

use std::fmt;

use crate::memory::MemSpace;

/// Result alias for devsim operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the simulated node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Requested device id does not exist on the node.
    NoSuchDevice { device: usize, available: usize },
    /// Device memory capacity would be exceeded. Carries the failing
    /// space's pool counters so failure-injection diagnostics show what
    /// was live, what the pool was holding, and how it got there — not
    /// just the failed request size.
    OutOfMemory {
        device: usize,
        requested: usize,
        free: usize,
        /// Bytes held by live allocations at failure time.
        live_bytes: usize,
        /// Bytes sitting in the pool's free lists (nothing trimmable was
        /// left, or trimming still did not make the request fit).
        cached_bytes: usize,
        /// The space's live+cached high-water mark.
        high_water_bytes: usize,
        /// Pool hits up to the failure.
        pool_hits: u64,
        /// Pool misses up to the failure (this request included).
        pool_misses: u64,
    },
    /// A kernel or view tried to touch memory from the wrong space, e.g.
    /// host code reading device-resident cells without a transfer.
    WrongSpace { expected: MemSpace, actual: MemSpace },
    /// A kernel was launched on a stream of one device with a buffer
    /// resident on another.
    CrossDeviceAccess { stream_device: usize, buffer_space: MemSpace },
    /// Source and destination of a copy have different lengths.
    CopyLengthMismatch { src: usize, dst: usize },
    /// The length a counted copy read from its source's first cell
    /// ([`crate::Stream::copy_counted`]) is zero or exceeds the source or
    /// the destination.
    CopyCountOutOfRange { count: u64, src: usize, dst: usize },
    /// The stream's worker thread is gone (node shut down).
    StreamClosed,
    /// A configured fault fired at the named injection site (see
    /// [`crate::fault`]).
    FaultInjected { site: String },
    /// A read view and a write (a write view, a copy into the allocation
    /// or a replica fill) would overlap on the allocation `alloc_id`.
    Aliased { alloc_id: u64 },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoSuchDevice { device, available } => {
                write!(f, "device {device} does not exist (node has {available})")
            }
            Error::OutOfMemory {
                device,
                requested,
                free,
                live_bytes,
                cached_bytes,
                high_water_bytes,
                pool_hits,
                pool_misses,
            } => {
                write!(
                    f,
                    "device {device} out of memory: requested {requested} bytes, {free} free \
                     (live {live_bytes} B, pool-cached {cached_bytes} B, \
                     high water {high_water_bytes} B, pool {pool_hits} hits / {pool_misses} misses)"
                )
            }
            Error::WrongSpace { expected, actual } => {
                write!(
                    f,
                    "memory space mismatch: expected {expected:?}, buffer lives in {actual:?}"
                )
            }
            Error::CrossDeviceAccess { stream_device, buffer_space } => {
                write!(
                    f,
                    "kernel on device {stream_device} cannot access buffer in {buffer_space:?} directly"
                )
            }
            Error::CopyLengthMismatch { src, dst } => {
                write!(f, "copy length mismatch: src has {src} cells, dst has {dst}")
            }
            Error::CopyCountOutOfRange { count, src, dst } => {
                write!(
                    f,
                    "counted copy of {count} cells out of range: src has {src} cells, dst has {dst}"
                )
            }
            Error::StreamClosed => write!(f, "stream worker has shut down"),
            Error::FaultInjected { site } => {
                write!(f, "injected fault at site '{site}'")
            }
            Error::Aliased { alloc_id } => {
                write!(f, "allocation {alloc_id} is read and written at once")
            }
        }
    }
}

impl std::error::Error for Error {}
