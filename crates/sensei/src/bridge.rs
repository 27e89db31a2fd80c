//! The simulation-facing bridge: initialize, execute per iteration,
//! finalize.
//!
//! Each attached back-end runs on an [`Engine`] that runs it where its
//! [`crate::ExecutionMethod`] says: lockstep on the simulation's thread,
//! asynchronous and dag on a snapshot-fed worker. Back-ends the bridge can
//! prove compatible share one engine as a group ([`Bridge::add_analysis`]),
//! so a group's members can run one merged step. Snapshot capture is
//! requirements-driven: per iteration the bridge unions the
//! [`crate::DataRequirements`] of the due snapshot-consuming engines and
//! deep-copies exactly that.

use std::sync::Arc;
use std::time::{Duration, Instant};

use devsim::SimNode;
use minimpi::Comm;

use crate::adaptor::{AnalysisAdaptor, DataAdaptor};
use crate::controls::BackendControls;
use crate::counters::AnalysisCounters;
use crate::engine::Engine;
use crate::error::{Error, Result};
use crate::profiler::Profiler;
use crate::requirements::DataRequirements;
use crate::serve::ServeHub;
use crate::snapshot::{SnapshotMode, SnapshotPipeline};

/// The SENSEI bridge: the single instrumentation point a simulation calls.
///
/// Back-ends are attached with [`Bridge::add_analysis`] (directly or from
/// XML via [`crate::ConfigurableAnalysis`]); every iteration the
/// simulation calls [`Bridge::execute`] with its data adaptor; at shutdown
/// [`Bridge::finalize`] drains asynchronous workers and returns the
/// [`Profiler`] with the run's per-iteration timings (including a
/// per-backend apparent-time breakdown).
pub struct Bridge {
    node: Arc<SimNode>,
    engines: Vec<Engine>,
    /// Every attached back-end, in attach order.
    backends: Vec<Attached>,
    profiler: Profiler,
    pipeline: SnapshotPipeline,
    serve: Option<Arc<ServeHub>>,
    finalized: bool,
}

/// One attached back-end: the engine that runs it plus the label the
/// profiler uses (the back-end name, suffixed `#2`, `#3`, ... for repeated
/// instances so the breakdown keeps them apart).
struct Attached {
    label: String,
    /// Index into the bridge's engines.
    engine: usize,
    /// Its own work and fault counters.
    counters: Arc<AnalysisCounters>,
}

impl Bridge {
    /// A bridge for one rank on `node`.
    pub fn new(node: Arc<SimNode>) -> Self {
        Bridge {
            node,
            engines: Vec::new(),
            backends: Vec::new(),
            profiler: Profiler::new(),
            pipeline: SnapshotPipeline::new(SnapshotMode::Deep),
            serve: None,
            finalized: false,
        }
    }

    /// Select how per-iteration snapshots are captured (deep copy or
    /// copy-on-write). The default is the paper's unconditional deep
    /// copy.
    pub fn set_snapshot_mode(&mut self, mode: SnapshotMode) {
        self.pipeline.set_mode(mode);
    }

    /// The active snapshot capture mode.
    pub fn snapshot_mode(&self) -> SnapshotMode {
        self.pipeline.mode()
    }

    /// Attach a live-serving hub ([`crate::serve`]): from the next step
    /// on, the session pool counts as one consumer of each captured
    /// snapshot (the hub pins it until the last session's frame drops).
    pub fn attach_serve(&mut self, hub: Arc<ServeHub>) {
        self.serve = Some(hub);
    }

    /// Attach a back-end. Its [`crate::ExecutionMethod`] selects where it
    /// runs: lockstep back-ends on the simulation's thread; asynchronous
    /// and dag back-ends on a persistent worker thread with a bounded
    /// snapshot queue and a dedicated duplicate of `comm` (collective:
    /// every rank must attach the same back-ends in the same order).
    ///
    /// A back-end joins the first existing engine that accepts it
    /// ([`Engine::join`]: both plan their own nodes under equal controls, share
    /// a name and read one and the same mesh, and the engine's worker has
    /// not started) instead of getting its own. The group's members run in
    /// attach order on that engine's thread and queue, and it is one
    /// consumer of each snapshot. Each member still counts as a back-end:
    /// [`Bridge::num_backends`], [`Bridge::backend_controls`] and the
    /// profiler's per-label rows go by attach order. A back-end keeps the
    /// controls it was attached with for the whole run.
    pub fn add_analysis(&mut self, adaptor: Box<dyn AnalysisAdaptor>, comm: &Comm) -> Result<()> {
        if self.finalized {
            return Err(Error::Finalized);
        }
        let name = adaptor.name().to_string();
        let (engine, counters) = self.join_existing(adaptor).unwrap_or_else(|adaptor| {
            let engine = Engine::new(adaptor, comm, &self.node);
            let counters = engine.counters()[0].clone();
            self.engines.push(engine);
            (self.engines.len() - 1, counters)
        });
        let copies = self.backends.iter().filter(|a| self.engines[a.engine].backend_name() == name);
        let copies = copies.count();
        let label = if copies == 0 { name } else { format!("{}#{}", name, copies + 1) };
        self.backends.push(Attached { label, engine, counters });
        Ok(())
    }

    /// Add `adaptor` to the first engine that accepts it, returning the
    /// engine's index and the new member's counters; or hand `adaptor`
    /// back.
    fn join_existing(
        &mut self,
        mut adaptor: Box<dyn AnalysisAdaptor>,
    ) -> std::result::Result<(usize, Arc<AnalysisCounters>), Box<dyn AnalysisAdaptor>> {
        for (e, engine) in self.engines.iter_mut().enumerate() {
            match engine.join(adaptor) {
                Ok(counters) => return Ok((e, counters)),
                Err(refused) => adaptor = refused,
            }
        }
        Err(adaptor)
    }

    /// Number of attached back-ends.
    pub fn num_backends(&self) -> usize {
        self.backends.len()
    }

    /// Number of engines the attached back-ends run on: fewer than
    /// [`num_backends`](Self::num_backends) when some share one as a group.
    pub fn num_engines(&self) -> usize {
        self.engines.len()
    }

    /// The controls back-end `idx` (attach order) runs under.
    pub fn backend_controls(&self, idx: usize) -> Option<BackendControls> {
        self.backends.get(idx).map(|a| *self.engines[a.engine].controls())
    }

    /// Process the simulation's current state through every back-end.
    ///
    /// `solver_time` is the solver cost of the iteration just completed
    /// (recorded alongside the measured apparent in situ cost). Returns
    /// `Ok(false)` when a back-end requests the simulation stop.
    pub fn execute(
        &mut self,
        data: &dyn DataAdaptor,
        comm: &Comm,
        solver_time: Duration,
    ) -> Result<bool> {
        if self.finalized {
            return Err(Error::Finalized);
        }
        let step = data.time_step();

        let t0 = Instant::now();

        // One deep-copied snapshot per iteration, shared by every due
        // snapshot-consuming engine (§4.3: "the in situ code deep copies
        // the relevant data" — once, not once per back-end), containing
        // the union of their declared requirements and nothing else.
        let mut requirements: Option<DataRequirements> = None;
        let mut consumers = 0;
        for engine in &self.engines {
            if engine.needs_snapshot() && engine.controls().due_at(step) {
                consumers += 1;
                let req = engine.requirements();
                match &mut requirements {
                    Some(union) => union.union_with(&req),
                    None => requirements = Some(req),
                }
            }
        }
        // The session pool is one more consumer of the step's snapshot:
        // the hub pins it (StepPin) until the last session's frame for
        // this step drops, so a slow viewer can keep reading the step's
        // arrays zero-copy while the solver has long moved on.
        let hub_consumes =
            requirements.is_some() && self.serve.as_ref().is_some_and(|h| h.has_sessions());
        if hub_consumes {
            consumers += 1;
        }
        let snapshot = match &requirements {
            Some(req) => {
                let snap = self.pipeline.capture(data, req, &self.node)?;
                // Every due engine gets the same snapshot: CoW pins may
                // only drop once the *last* of them has released, or an
                // early releaser would expose the rest to post-capture
                // producer writes.
                snap.expect_consumers(consumers);
                let snap = Arc::new(snap);
                if hub_consumes {
                    self.serve.as_ref().expect("hub_consumes").offer_snapshot(&snap);
                }
                Some(snap)
            }
            None => None,
        };

        let mut proceed = true;
        let mut dispatched = vec![Duration::ZERO; self.engines.len()];
        for (engine, apparent) in self.engines.iter_mut().zip(&mut dispatched) {
            if engine.controls().due_at(step) {
                let te0 = Instant::now();
                proceed &= engine.dispatch(data, snapshot.as_ref(), comm, &self.node)?;
                // A group's members share its dispatch time evenly.
                *apparent = te0.elapsed() / engine.counters().len() as u32;
            }
        }
        for a in &self.backends {
            if self.engines[a.engine].controls().due_at(step) {
                self.profiler.record_backend(step, a.label.as_str(), dispatched[a.engine]);
            }
        }
        self.profiler.record(step, solver_time, t0.elapsed());
        Ok(proceed)
    }

    /// Finalize every back-end (draining asynchronous queues) and return
    /// the run's profiler.
    ///
    /// On failure the profiler — with every counter merged up to the
    /// failure — is discarded with the bridge; callers that want the
    /// partial counters alongside the typed error use
    /// [`Bridge::finalize_partial`].
    pub fn finalize(self, comm: &Comm) -> Result<Profiler> {
        let (profiler, err) = self.finalize_partial(comm);
        match err {
            Some(e) => Err(e),
            None => Ok(profiler),
        }
    }

    /// Like [`Bridge::finalize`], but always returns the profiler.
    ///
    /// A worker that fails at step N still did the work of steps 0..N;
    /// its counters are shared atomics, so they are merged into the
    /// profiler *before* the typed error is surfaced — partial totals are
    /// data, not collateral of the failure.
    pub fn finalize_partial(mut self, comm: &Comm) -> (Profiler, Option<Error>) {
        self.finalized = true;
        let mut first_err = None;
        for engine in &mut self.engines {
            if let Err(e) = engine.finalize(comm, &self.node) {
                first_err.get_or_insert(e);
            }
        }
        // The simulation's arrays outlive the run, and so would the
        // replicas the run's access requests left on them.
        self.node.drop_replicas();
        // Work counters are read only after every engine has finalized
        // (asynchronous workers joined), so the totals are exact — and
        // they are read even when an engine failed: a worker that aborted
        // at step N still completed steps 0..N and those counts (plus the
        // fault counters describing the failure itself) must survive.
        // Every back-end gets a scheduler row — explicit zeros for
        // engines that run their steps in order — so `scheduler_samples()`
        // has one entry per back-end whatever mix of modes a run used.
        // A group's scheduler counters go on the row of its last member,
        // the one that runs the merged step.
        for (idx, a) in self.backends.iter().enumerate() {
            self.profiler.record_counters(a.label.as_str(), a.counters.snapshot());
            let last = self.backends.iter().rposition(|b| b.engine == a.engine) == Some(idx);
            let sched = match last {
                true => self.engines[a.engine].scheduler_counters().snapshot(),
                false => Default::default(),
            };
            self.profiler.record_scheduler_counters(a.label.as_str(), sched);
        }
        // Snapshot-layer totals (shares vs copies, CoW faults) are exact
        // now too: every worker that could fault a pinned array has
        // joined.
        self.profiler.record_snapshot_counters(
            self.pipeline.mode().name(),
            self.pipeline.counters().snapshot(),
        );
        // Serving totals: close every session queue (clients drain what
        // is buffered, then see end-of-stream) and fold the per-step
        // delivery stats into `serve_samples()`. The hub's lifetime
        // counters stay on the hub (`ServeHub::counter_snapshot`).
        if let Some(hub) = &self.serve {
            hub.shutdown();
            for s in hub.drain_step_stats() {
                self.profiler.record_serve(s);
            }
        }
        // Freeze the run's caching-pool counters into the profiler so the
        // harness can report hit rates alongside the timings.
        self.profiler.record_pool_stats("host", self.node.pool_stats(devsim::MemSpace::Host));
        for d in 0..self.node.num_devices() {
            self.profiler.record_pool_stats(
                format!("device{d}"),
                self.node.pool_stats(devsim::MemSpace::Device(d)),
            );
        }
        self.profiler.stop();
        (std::mem::take(&mut self.profiler), first_err)
    }
}
