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
//!   (asynchronous, each step a task graph under a work-stealing
//!   scheduler);
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
//!   Every mode runs a step the same way: as a task graph run by a
//!   [`DagScheduler`] — in order on the engine's thread under lockstep and
//!   asynchronous, work-stealing across the node's devices under dag —
//!   with the back-end's [`RecoveryPolicy`] applied per task node. A
//!   back-end that plans task graphs builds its own; any other runs
//!   `execute` as a one-node graph. The members of a group run in attach
//!   order and see the step's [`GroupSlot`] through their
//!   [`ExecContext`], so the last can run one merged step for all;
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

mod adaptive;
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
    Frame, PublishStats, ServeConfig, ServeHub, ServeKnobs, ServeStepStats, SessionConfig,
    SessionHandle, Steer, SteeringCommand, StepPin, Topic,
};

pub use adaptive::{
    AdaptiveAction, AdaptiveConfig, AdaptiveController, AdaptiveDecision, AdaptiveEnv,
    BackendObservation, StepObservation,
};
pub use adaptor::{
    AnalysisAdaptor, ArrayMetadata, DataAdaptor, ExecContext, GroupSlot, MeshMetadata,
};
pub use bridge::{AdaptorFactory, Bridge};
pub use configurable::{BackendConfig, ConfigurableAnalysis, TopologyConfig};
pub use controls::{BackendControls, DeviceSpec};
pub use counters::{
    AnalysisCounters, CommCounters, CounterSnapshot, FaultCounters, FaultSnapshot, ServeCounters,
    ServeSnapshot, SnapshotCounterSnapshot, SnapshotCounters,
};
pub use dag::{DeviceStreams, TaskCtx, TaskGraph, TaskId, TaskKind, TaskSite};
pub use device_select::{select_device, DeviceSelector};
pub use engine::Engine;
pub use error::{Error, Result};
pub use execution::ExecutionMethod;
pub use placement::Placement;
pub use profiler::{
    AdaptiveSample, BackendBreakdown, BackendSample, CounterSample, IterationRecord, PoolSample,
    ProfileSummary, Profiler, SchedulerSample, SnapshotSample,
};
pub use queue::OverflowPolicy;
pub use recovery::RecoveryPolicy;
pub use registry::{AnalysisFactory, AnalysisRegistry, CreateContext};
pub use requirements::{ArraySelection, DataRequirements, MeshRequirements};
pub use scheduler::{DagOutcome, DagScheduler, SchedulerCounters, SchedulerSnapshot};
pub use snapshot::{SnapshotAdaptor, SnapshotMode, SnapshotPipeline};
