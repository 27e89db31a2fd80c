//! Error type for communicator operations.

use std::fmt;

/// Result alias for minimpi operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by communicator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A rank argument was outside `0..size`.
    RankOutOfRange { rank: usize, size: usize },
    /// `recv` matched a message whose payload type differs from the
    /// requested type.
    TypeMismatch { expected: &'static str },
    /// The communicator has been shut down (its world has finished).
    Shutdown,
    /// A vector argument's length did not match the communicator size.
    LengthMismatch { expected: usize, got: usize },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            Error::TypeMismatch { expected } => {
                write!(f, "received message payload is not of type {expected}")
            }
            Error::Shutdown => write!(f, "communicator has been shut down"),
            Error::LengthMismatch { expected, got } => {
                write!(f, "argument length {got} does not match communicator size {expected}")
            }
        }
    }
}

impl std::error::Error for Error {}
