//! The two adaptor interfaces SENSEI mediates between.
//!
//! A simulation exposes its state through a [`DataAdaptor`]; a back-end
//! consumes it through an [`AnalysisAdaptor`]. The bridge connects the
//! two, applying the execution-model extensions (placement, lockstep vs
//! asynchronous execution).

use std::sync::Arc;

use devsim::SimNode;
use minimpi::Comm;
use svtk::{DataObject, FieldAssociation};

use crate::controls::BackendControls;
use crate::counters::AnalysisCounters;
use crate::error::Result;
use crate::requirements::DataRequirements;

/// Description of one array available on a mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayMetadata {
    /// Array name.
    pub name: String,
    /// Centering.
    pub association: FieldAssociation,
    /// Components per tuple.
    pub components: usize,
    /// Element type name ("double", ...).
    pub type_name: &'static str,
    /// Current residency (`None` = host).
    pub device: Option<usize>,
}

/// Description of one mesh a simulation publishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshMetadata {
    /// Mesh name (how analyses request it).
    pub name: String,
    /// Arrays attached to the mesh.
    pub arrays: Vec<ArrayMetadata>,
}

/// The simulation side of the coupling: read-only access to the
/// simulation's current state in data-model form.
pub trait DataAdaptor: Send {
    /// Number of meshes the simulation publishes.
    fn num_meshes(&self) -> usize;

    /// Metadata for mesh `i`.
    fn mesh_metadata(&self, i: usize) -> Result<MeshMetadata>;

    /// The named mesh with its data arrays attached. Implementations
    /// should return zero-copy handles to the simulation's own arrays
    /// (the consuming back-end decides whether it needs a deep copy).
    fn mesh(&self, name: &str) -> Result<DataObject>;

    /// Current simulated time.
    fn time(&self) -> f64;

    /// Current time step.
    fn time_step(&self) -> u64;

    /// Hint that the caller is done *reading* array data through this
    /// adaptor. Snapshot adaptors holding copy-on-write shares release
    /// their pins here so later producer writes skip the fault copy;
    /// back-ends should call it as soon as they have materialized what
    /// they need. The default does nothing.
    fn release_shared(&self) {}
}

/// Per-invocation context handed to analysis back-ends.
pub struct ExecContext<'a> {
    /// The communicator the back-end should use for cross-rank reduction.
    /// Under asynchronous execution this is a dedicated duplicate owned by
    /// the in situ thread, so analysis traffic cannot interfere with the
    /// simulation's communication.
    pub comm: &'a Comm,
    /// The heterogeneous node the rank runs on.
    pub node: &'a Arc<SimNode>,
}

impl<'a> ExecContext<'a> {
    /// Construct a context.
    pub fn new(comm: &'a Comm, node: &'a Arc<SimNode>) -> Self {
        ExecContext { comm, node }
    }
}

/// The back-end side of the coupling.
///
/// Implementations embed a [`BackendControls`] (the paper defines these
/// controls in the back-end base class so every back-end inherits them)
/// and expose it through [`controls`](Self::controls) /
/// [`controls_mut`](Self::controls_mut).
pub trait AnalysisAdaptor: Send {
    /// The back-end's type name (matches the XML `type` attribute).
    fn name(&self) -> &str;

    /// The shared execution-model controls.
    fn controls(&self) -> &BackendControls;

    /// Mutable access to the controls (used by the bridge and the
    /// run-time configuration).
    fn controls_mut(&mut self) -> &mut BackendControls;

    /// The arrays this back-end reads, used to limit what asynchronous
    /// execution deep-copies into its snapshot. The default — everything —
    /// is always correct; back-ends that know their inputs should narrow
    /// it so snapshots copy (and hold) only what is used.
    fn required_arrays(&self) -> DataRequirements {
        DataRequirements::All
    }

    /// The back-end's work counters, if it keeps any. Back-ends that
    /// return a handle here get their pass/launch/download/allreduce
    /// totals recorded into the profiler at finalize, which is how fused
    /// and per-op execution paths are compared quantitatively.
    fn counters(&self) -> Option<Arc<AnalysisCounters>> {
        None
    }

    /// Process the simulation's current state. Returns `Ok(true)` to
    /// continue, `Ok(false)` to request the simulation stop.
    fn execute(&mut self, data: &dyn DataAdaptor, ctx: &ExecContext<'_>) -> Result<bool>;

    /// True when this back-end can plan its step as a task graph for
    /// [`execute_dag`](Self::execute_dag). The engine then runs every step
    /// through `execute_dag` — the graph in order under `lockstep` and
    /// `asynchronous`, work-stealing under `dag` — and otherwise through
    /// [`execute`](Self::execute).
    fn supports_dag(&self) -> bool {
        false
    }

    /// Dataflow variant of [`execute`](Self::execute): plan the step as a
    /// [`crate::TaskGraph`] and hand it to `sched` (typically via
    /// [`crate::DagScheduler::run`]). Recovery applies per task node
    /// inside the scheduler, so the engine does not re-wrap this call in
    /// [`crate::run_with_recovery`]. The default ignores the scheduler
    /// and delegates to the monolithic path.
    fn execute_dag(
        &mut self,
        data: &dyn DataAdaptor,
        ctx: &ExecContext<'_>,
        sched: &mut crate::scheduler::DagScheduler,
    ) -> Result<bool> {
        let _ = sched;
        self.execute(data, ctx)
    }

    /// Called once after the last `execute`; flush outputs here.
    fn finalize(&mut self, _ctx: &ExecContext<'_>) -> Result<()> {
        Ok(())
    }
}
