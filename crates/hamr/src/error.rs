//! Error type for HAMR operations.

use std::fmt;

/// Result alias for hamr operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by HAMR buffers and views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The underlying simulated runtime failed (OOM, bad device, ...).
    Device(devsim::Error),
    /// An async allocator was selected without providing a stream.
    AsyncNeedsStream { allocator: &'static str },
    /// A host allocator was paired with a device placement or vice versa.
    PlacementMismatch { allocator: &'static str, wanted_device: bool },
    /// An element index was out of bounds.
    IndexOutOfBounds { index: usize, len: usize },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Device(e) => write!(f, "device runtime error: {e}"),
            Error::AsyncNeedsStream { allocator } => {
                write!(f, "allocator {allocator} is asynchronous and requires a stream")
            }
            Error::PlacementMismatch { allocator, wanted_device } => {
                if *wanted_device {
                    write!(
                        f,
                        "allocator {allocator} allocates host memory but a device was requested"
                    )
                } else {
                    write!(
                        f,
                        "allocator {allocator} allocates device memory but no device was given"
                    )
                }
            }
            Error::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for buffer of length {len}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<devsim::Error> for Error {
    fn from(e: devsim::Error) -> Self {
        Error::Device(e)
    }
}
