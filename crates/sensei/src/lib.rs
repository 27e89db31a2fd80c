//! # sensei — the generic *in situ* framework, extended for heterogeneous
//! architectures
//!
//! SENSEI couples simulation codes to back-end data-processing and
//! visualization libraries through a single instrumentation, with run-time
//! switching between back-ends. This crate reproduces the core mediation
//! layer together with the two extension sets the SC-W 2023 paper
//! contributes:
//!
//! **Data-model extensions (§2)** live in the [`svtk`]/[`hamr`] crates
//! (re-exported here): heterogeneous data arrays with PM interoperability
//! and zero-copy transfer.
//!
//! **Execution-model extensions (§3)** live here:
//!
//! * [`ExecutionMethod`] — *lockstep* (simulation and in situ take turns),
//!   *asynchronous* (in situ deep-copies its inputs and runs in a
//!   separate thread, concurrently with the simulation), or *dag*
//!   (asynchronous, each step a sequence of typed nodes whose kernels
//!   are spread over the node's devices as they are reached);
//! * [`Placement`] — run-time control over whether in situ work runs on
//!   the host, on the data's device, or on dedicated device(s);
//! * [`DeviceSelector`] — automatic device selection, Eq. (1):
//!   `d = (r mod n_u * s + d_0) mod n_a`;
//! * [`BackendControls`] — the new control parameters, defined once and
//!   available to every analysis back-end (the paper puts them in the
//!   back-end base class);
//! * [`Engine`] — runs one back-end, or a group of compatible ones, where
//!   its mode says: lockstep on the simulation's thread, asynchronous and
//!   dag on a persistent worker fed through a bounded snapshot queue with
//!   a configurable [`OverflowPolicy`] (block / drop-oldest / error).
//!   Every mode runs a step the same way: through a [`DagScheduler`],
//!   whose [`DagScheduler::step`] runs the step's typed nodes one after
//!   another as its code reaches them ([`Step::run`]) — on the engine's
//!   thread, on default streams under lockstep and asynchronous, on its
//!   own per-device streams under dag — with the back-end's
//!   [`RecoveryPolicy`] applied per node. A back-end that plans its own
//!   nodes runs them in `execute_dag`; any other runs `execute` as one
//!   node. The members of a group run in attach order and see the step's
//!   [`GroupSlot`] through their [`ExecContext`], so the last can run
//!   one merged step for all;
//! * [`DataRequirements`] — what each back-end declares it reads
//!   ([`AnalysisAdaptor::required_arrays`]); asynchronous snapshots deep
//!   copy only the union of the due back-ends' requirements;
//! * [`ConfigurableAnalysis`] — back-end instantiation from SENSEI's
//!   run-time XML configuration (including `queue_depth` / `overflow`);
//! * [`Bridge`] — the simulation-facing instrumentation
//!   (initialize / execute-per-iteration / finalize) with a built-in
//!   [`Profiler`] recording per-iteration solver and in situ times plus a
//!   per-backend apparent-cost breakdown (the data behind the paper's
//!   Figures 2 and 3).

#![deny(unsafe_code)]

mod adaptor;
mod bridge;
mod configurable;
mod controls;
mod counters;
mod dag;
mod device_select;
mod engine;
mod error;
mod execution;
mod payload;
mod placement;
mod profiler;
pub mod queue;
mod recovery;
mod registry;
mod requirements;
mod scheduler;
pub mod serve;
mod snapshot;

pub use payload::{collect_columns, StepPayload};
pub use serve::{
    Frame, PublishStats, ServeCounters, ServeHub, ServeSnapshot, ServeStepStats, SessionConfig,
    SessionHandle, StepPin, Topic,
};

pub use adaptor::{
    AnalysisAdaptor, ArrayMetadata, DataAdaptor, ExecContext, GroupSlot, MeshMetadata,
};
pub use bridge::Bridge;
pub use configurable::{BackendConfig, ConfigurableAnalysis, TopologyConfig};
pub use controls::{BackendControls, DeviceSpec};
pub use counters::{
    AnalysisCounters, CommCounters, CounterSnapshot, FaultCounters, FaultSnapshot,
    SnapshotCounterSnapshot, SnapshotCounters,
};
pub use dag::{DeviceStreams, TaskCtx, TaskKind};
pub use device_select::{select_device, DeviceSelector};
pub use engine::Engine;
pub use error::{Error, Result};
pub use execution::ExecutionMethod;
pub use placement::Placement;
pub use profiler::{
    BackendBreakdown, BackendSample, CounterSample, IterationRecord, PoolSample, ProfileSummary,
    Profiler, SchedulerSample, SnapshotSample,
};
pub use queue::OverflowPolicy;
pub use recovery::RecoveryPolicy;
pub use registry::{AnalysisFactory, AnalysisRegistry, CreateContext};
pub use requirements::{ArraySelection, DataRequirements, MeshRequirements};
pub use scheduler::{DagOutcome, DagScheduler, Halt, SchedulerCounters, SchedulerSnapshot, Step};
pub use snapshot::{SnapshotAdaptor, SnapshotMode, SnapshotPipeline};
