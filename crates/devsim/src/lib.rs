//! # devsim — a simulated heterogeneous compute node
//!
//! This crate is the hardware substitute for this reproduction of the
//! SENSEI heterogeneous-architecture extensions (SC-W 2023). The paper runs
//! on Perlmutter nodes with four A100 GPUs; this crate models one such node
//! entirely in process:
//!
//! * a [`SimNode`] owns `N` [`Device`]s plus a [`HostExec`];
//! * every device has its **own memory space** — host code cannot touch
//!   device-resident cells except through explicit [`transfers`](Stream)
//!   (the API simply does not hand out host views of device memory);
//! * work is submitted to **streams** ([`Stream`]): FIFO queues whose
//!   commands execute in order, asynchronously with respect to the
//!   submitting thread, exactly like CUDA/HIP streams;
//! * [`Event`]s provide cross-stream and host-side synchronization;
//! * kernels and transfers *really execute* (their closures run on real
//!   memory, so analysis results are bit-checkable), **and** they occupy a
//!   device slot for a modeled service time derived from
//!   [`KernelCost`] and the device's throughput parameters.
//!
//! The modeled service time is the load-bearing substitution: it makes
//! concurrency behaviour (overlap, serialization on a shared device,
//! placement trade-offs) reproduce the paper's multi-GPU shapes even on a
//! single-core machine, because a device "busy" in modeled time is a
//! sleeping thread, and sleeping threads overlap perfectly.
//!
//! ## Example
//!
//! ```
//! use devsim::{KernelCost, NodeConfig, SimNode};
//!
//! let node = SimNode::new(NodeConfig::fast_test(2));
//! let dev = node.device(0).unwrap();
//! let buf = dev.alloc_f64(16).unwrap();
//! let stream = dev.create_stream();
//!
//! let b = buf.clone();
//! stream.launch("fill", KernelCost::ZERO, move |scope| {
//!     let v = b.f64_view(scope)?;
//!     for i in 0..v.len() {
//!         v.set(i, i as f64);
//!     }
//!     Ok(())
//! }).unwrap();
//! stream.synchronize().unwrap();
//!
//! let host = node.host_alloc_f64(16);
//! stream.copy(&buf, &host).unwrap();
//! stream.synchronize().unwrap();
//! assert_eq!(host.host_f64().unwrap().to_vec()[3], 3.0);
//! ```

#![deny(unsafe_code)]

mod device;
mod error;
mod event;
pub mod fault;
mod host;
#[allow(unsafe_code)]
mod lease;
mod memory;
mod node;
mod pool;
mod sem;
mod stats;
mod stream;
pub mod timemodel;

pub use device::{Device, DeviceLedger};
pub use error::{Error, Result};
pub use event::Event;
pub use fault::{FaultConfig, FaultInjector, FaultInjectorStats, FaultKind, FaultRule};
pub use host::HostExec;
pub use lease::{ReadView, Word};
pub use memory::{
    max_select, min_select, CellBuffer, F64View, HostF64View, HostU64View, KernelScope, MemSpace,
    PinStats, U64View,
};
pub use node::{NodeConfig, SimNode};
pub use pool::{MemoryPool, PoolConfig, PoolStats};
pub use stats::{NodeStats, StatsSnapshot};
pub use stream::Stream;
pub use timemodel::{
    message_duration, DeviceParams, HostParams, KernelCost, LinkParams, NetworkParams,
};

/// Pseudo-device id used for the host in placement decisions.
pub const HOST_DEVICE: i32 = -1;
