//! A suite of binning specs sharing one fetch per step.
//!
//! The paper's asynchronous workload runs many binning instances over the
//! same particle table (nine coordinate systems, ten operations each).
//! Run as independent [`crate::BinningAnalysis`] back-ends, every
//! instance fetches its columns, computes its bounds, and reduces its
//! grids on its own — nine fetches, nine bounds collectives, and nine
//! grid allreduces per step.
//!
//! [`BinningSuite`] executes the same specs as one back-end: one fused
//! step ([`crate::fused`]) over all of them — one shared fetch, one fused
//! bounds pass and collective, one packed grid allreduce — run inline, or
//! planned as a task graph under the `dag` execution method.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use devsim::{CellBuffer, Event, ReadView};
use parking_lot::Mutex;
use sensei::{
    AnalysisAdaptor, AnalysisCounters, AnalysisRegistry, BackendControls, DagOutcome, DagScheduler,
    DataAdaptor, DataRequirements, Error, ExecContext, Result, TaskGraph, TaskKind, TaskSite,
};
use svtk::FieldAssociation;

use crate::adaptor::{local_tables, BinnedResult, CommMark, Delivery, Fetched, ResultSink};
use crate::arena::{Slot, StepArena};
use crate::device_impl;
use crate::fused::{host_pass, plan_pass, spec_ops, FusedStep, StepLayout};
use crate::grid::GridParams;
use crate::host_impl::{self, KernelScratch};
use crate::spec::BinningSpec;

/// Where one (table, spec) kernel's partial grids live between the
/// kernel, download and reduce nodes of the step's task graph.
enum StagedPart {
    /// Host placement: the arena scratch holding the grids of one fused
    /// host table pass, given back once the step is over.
    Host(KernelScratch),
    /// Device kernel enqueued on `device`: its arena slot's packed device
    /// block and host block, plus the event its compute stream records
    /// after the launch (the download node's cross-stream ordering point).
    Device { device: usize, packed: CellBuffer, host: CellBuffer, ready: Event },
    /// Download enqueued: the packed host buffer, valid once the download
    /// node's event fires.
    Downloaded(CellBuffer),
}

/// Shared mutable state of one step's task graph. Worker-task bodies may
/// only capture `Send` state, so everything the fetch node produces and
/// the kernel/download/reduce nodes consume crosses through here.
struct DagState {
    /// Resolved grid of every spec (fetch node output).
    grids: Mutex<Vec<GridParams>>,
    /// Host placement: per table, the union columns' read views, shared
    /// by the table's kernel tasks and dropped before the reduce node
    /// tells the snapshot its shares are no longer read.
    #[allow(clippy::type_complexity)]
    host_tables: Mutex<Vec<Arc<HashMap<String, ReadView<f64>>>>>,
    /// Device placement: `(table, device)` -> resident union columns.
    /// Seeded on the primary device by the fetch node; the first kernel
    /// stolen onto another device asks for the columns' versions there.
    #[allow(clippy::type_complexity)]
    dev_cols: Mutex<HashMap<(usize, usize), Arc<HashMap<String, CellBuffer>>>>,
    /// One slot per `(table, spec)`, indexed `table * nspecs + spec`.
    staged: Vec<Mutex<Option<StagedPart>>>,
    /// Globally reduced flat buffer (reduce node output).
    merged: Mutex<Option<Vec<f64>>>,
    /// Finished step results (publish node output).
    results: Mutex<Vec<BinnedResult>>,
}

impl DagState {
    /// The union columns of table `ti` on device `dw`: on a thief, the
    /// fetched columns' versions there, asked for on `stream` (its compute
    /// stream) so the kernel launched right after is stream-ordered behind
    /// them. The columns keep those versions, so a later step's steal
    /// refreshes them, or is granted them if the producer left the
    /// column alone.
    fn columns_on(
        &self,
        node: &devsim::SimNode,
        ti: usize,
        dw: usize,
        primary: usize,
        stream: &devsim::Stream,
    ) -> Result<Arc<HashMap<String, CellBuffer>>> {
        let mut cache = self.dev_cols.lock();
        if let Some(cols) = cache.get(&(ti, dw)) {
            return Ok(cols.clone());
        }
        let fetched = cache
            .get(&(ti, primary))
            .ok_or_else(|| Error::Analysis(format!("dag kernel: table {ti} was not fetched")))?;
        let cols = fetched
            .iter()
            .map(|(name, buf)| Ok((name.clone(), node.replica(buf, Some(dw), stream)?)))
            .collect::<Result<HashMap<_, _>>>()?;
        Ok(cache.entry((ti, dw)).or_insert(Arc::new(cols)).clone())
    }
}

/// The scheduler's cost hint for downloading one `(table, spec)` block
/// of `ops` grids over `bins` bins, filled from `rows` rows: the bytes of
/// the largest block such a kernel can fill.
fn download_cost(rows: usize, ops: usize, bins: usize) -> f64 {
    (device_impl::spec_cells_bound(rows, ops, bins) * 8) as f64
}

/// Many binning specs over one mesh, executed as a single fused back-end.
pub struct BinningSuite {
    controls: BackendControls,
    specs: Vec<BinningSpec>,
    delivery: Delivery,
    counters: Arc<AnalysisCounters>,
    /// The step's resident memory and device stream pool.
    arena: StepArena,
}

impl BinningSuite {
    /// A suite over `specs`, which must all consume the same mesh.
    pub fn new(specs: Vec<BinningSpec>) -> Result<Self> {
        let mesh = match specs.first() {
            None => return Err(Error::Config("binning suite needs at least one spec".into())),
            Some(s) => &s.mesh,
        };
        if let Some(other) = specs.iter().find(|s| s.mesh != *mesh) {
            return Err(Error::Config(format!(
                "binning suite specs must share one mesh: '{}' vs '{}'",
                mesh, other.mesh
            )));
        }
        Ok(BinningSuite {
            controls: BackendControls::default(),
            specs,
            delivery: Delivery::default(),
            counters: AnalysisCounters::new(),
            arena: StepArena::default(),
        })
    }

    /// Send every step's results (one per spec, in spec order) to `sink`.
    pub fn with_sink(mut self, sink: ResultSink) -> Self {
        self.delivery.sink = Some(sink);
        self
    }

    /// Write each spec's final result to `dir/spec<i>` at finalize,
    /// rank 0 only.
    pub fn with_output_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.delivery.output_dir = Some(dir.into());
        self
    }

    /// Set the execution-model controls at construction time.
    pub fn with_controls(mut self, controls: BackendControls) -> Self {
        self.controls = controls;
        self
    }

    /// Number of completed executes (diagnostic).
    pub fn executes(&self) -> u64 {
        self.delivery.executes()
    }

    /// The specs the suite computes.
    pub fn specs(&self) -> &[BinningSpec] {
        &self.specs
    }

    /// The fused step over this suite's specs.
    fn step(&self) -> FusedStep<'_> {
        FusedStep { specs: &self.specs, counters: &self.counters }
    }
}

impl AnalysisAdaptor for BinningSuite {
    fn name(&self) -> &str {
        "binning_suite"
    }

    fn controls(&self) -> &BackendControls {
        &self.controls
    }

    fn controls_mut(&mut self) -> &mut BackendControls {
        &mut self.controls
    }

    fn required_arrays(&self) -> DataRequirements {
        DataRequirements::none().with_arrays(
            &self.specs[0].mesh,
            FieldAssociation::Point,
            self.step().union_variables(),
        )
    }

    fn execute(&mut self, data: &dyn DataAdaptor, ctx: &ExecContext<'_>) -> Result<bool> {
        let comm_mark = CommMark::new(ctx.comm);
        let device = self.controls.resolve_device(ctx.comm.rank(), ctx.node.num_devices());
        let publish = self.delivery.wanted(ctx.comm);
        let results = self.step().run(data, ctx, device, &self.arena, publish)?;
        comm_mark.charge(ctx.comm, &self.counters);
        self.delivery.deliver(ctx.comm, results);
        Ok(true)
    }

    fn supports_dag(&self) -> bool {
        true
    }

    /// The step as a task graph: one coordinator `Fetch` node (data
    /// movement, fused bounds, the bounds collective), one `Kernel` and
    /// one `Download` node per `(table, spec)` — stealable across device
    /// workers, with downloads on per-device copy streams ordered by
    /// events — one coordinator `Reduce` node merging every partial in
    /// the inline engine's exact order before the single packed
    /// allreduce, and one `Publish` node. Results are bit-identical to
    /// [`BinningSuite::execute`]: the merge order is fixed table-major
    /// and the same kernels run whatever worker executes them.
    fn execute_dag(
        &mut self,
        data: &dyn DataAdaptor,
        ctx: &ExecContext<'_>,
        sched: &mut DagScheduler,
    ) -> Result<bool> {
        let comm_mark = CommMark::new(ctx.comm);
        let tables = local_tables(&data.mesh(&self.specs[0].mesh)?)?;
        let device = self.controls.resolve_device(ctx.comm.rank(), ctx.node.num_devices());
        self.arena.place(device);
        let policy = self.controls.recovery;
        let nspecs = self.specs.len();
        let ntables = tables.len();
        let row_counts: Vec<usize> = tables.iter().map(|t| t.num_rows()).collect();

        let state = Arc::new(DagState {
            grids: Mutex::new(Vec::new()),
            host_tables: Mutex::new(Vec::new()),
            dev_cols: Mutex::new(HashMap::new()),
            staged: (0..ntables * nspecs).map(|_| Mutex::new(None)).collect(),
            merged: Mutex::new(None),
            results: Mutex::new(Vec::new()),
        });
        let this = &*self;
        let step = this.step();
        let arena = &this.arena;
        let publish = this.delivery.wanted(ctx.comm);
        let node = ctx.node.clone();

        let mut g = TaskGraph::new(this.name(), this.counters.clone(), policy);

        // Fetch: the union of every spec's variables, once per table, plus
        // the fused bounds pass and its packed collective — coordinator
        // because of the collective and the data-adaptor borrow.
        let fetch = {
            let state = state.clone();
            g.add_coordinator_task(TaskKind::Fetch, "tables+bounds", move |_| {
                // Idempotent under retry: the step's staging is rebuilt
                // from scratch on every attempt.
                state.host_tables.lock().clear();
                state.dev_cols.lock().clear();
                let fetched = step.fetch(data, &tables, device)?;
                *state.grids.lock() = step.resolve_grids(&fetched, device, ctx)?;
                for (ti, f) in fetched.into_iter().enumerate() {
                    match f {
                        Fetched::Host(cols) => state.host_tables.lock().push(Arc::new(cols)),
                        Fetched::Device(views) => {
                            let p = device.expect("device fetch implies device placement");
                            let cols: HashMap<String, CellBuffer> =
                                views.iter().map(|(k, v)| (k.clone(), v.cells().clone())).collect();
                            state.dev_cols.lock().insert((ti, p), Arc::new(cols));
                        }
                    }
                }
                Ok(())
            })
        };

        // One kernel + download pair per (table, spec). Kernel tasks are
        // homed on the resolved device but stealable by any idle device
        // worker; the download node enqueues the packed D2H copy on the
        // copy stream of whichever device actually ran the kernel.
        let mut download_events = Vec::with_capacity(ntables * nspecs);
        let mut downloads = Vec::with_capacity(ntables * nspecs);
        for (ti, &rows) in row_counts.iter().enumerate() {
            for (si, spec) in this.specs.iter().enumerate() {
                let idx = ti * nspecs + si;
                let all_ops = spec_ops(spec);
                let nbins = spec.resolution.0 * spec.resolution.1;
                let kc = device_impl::fused_bin_cost(rows, all_ops.len());
                let dl_event = Event::new();

                let kernel = {
                    let state = state.clone();
                    let node = node.clone();
                    let counters = this.counters.clone();
                    let axes = spec.axes.clone();
                    let ops = all_ops.clone();
                    let label = format!("t{ti}s{si}");
                    match device {
                        Some(primary) => {
                            let site = TaskSite::AnyDevice;
                            let k = g.add_worker_task(TaskKind::Kernel, label, site, move |tctx| {
                                let dw = tctx.device().ok_or_else(|| {
                                    Error::Analysis("binning kernel needs a device worker".into())
                                })?;
                                let stream = tctx
                                    .stream()
                                    .ok_or_else(|| {
                                        Error::Analysis(format!("no compute stream on device {dw}"))
                                    })?
                                    .clone();
                                let grid = state.grids.lock()[si];
                                let resident = state.columns_on(&node, ti, dw, primary, &stream)?;
                                let (names, pass) = plan_pass([(&axes, &ops[..], grid)]);
                                let cols: Vec<&CellBuffer> =
                                    names.iter().map(|name| &resident[*name]).collect();
                                let len = device_impl::block_len(&pass);
                                let slot = arena.slot(&node, idx, dw, len, &stream)?;
                                device_impl::bin_all_device(
                                    &stream,
                                    &cols,
                                    &pass,
                                    &slot.packed,
                                    arena.scratches(),
                                )?;
                                counters.add_kernel_launches(1);
                                let ready = Event::new();
                                stream.record(&ready).map_err(Error::Device)?;
                                let Slot { packed, host } = slot;
                                *state.staged[idx].lock() =
                                    Some(StagedPart::Device { device: dw, packed, host, ready });
                                Ok(())
                            });
                            g.set_home(k, primary);
                            k
                        }
                        None => {
                            g.add_worker_task(TaskKind::Kernel, label, TaskSite::Host, move |_| {
                                let grid = state.grids.lock()[si];
                                let cols = state.host_tables.lock()[ti].clone();
                                counters.add_table_passes(1);
                                let (names, pass) = plan_pass([(&axes, &ops[..], grid)]);
                                let mut scratch = arena.scratches().take();
                                host_pass(&node, &cols, &names, &pass, |cols| {
                                    host_impl::bin_all_host(cols, &pass, &mut scratch);
                                });
                                *state.staged[idx].lock() = Some(StagedPart::Host(scratch));
                                Ok(())
                            })
                        }
                    }
                };
                g.set_cost(kernel, kc.flops + kc.bytes);
                g.add_dep(kernel, fetch);

                let download = match device {
                    Some(primary) => {
                        let state = state.clone();
                        let counters = this.counters.clone();
                        let ev = dl_event.clone();
                        let d = g.add_worker_task(
                            TaskKind::Download,
                            format!("t{ti}s{si}"),
                            TaskSite::AnyDevice,
                            move |tctx| {
                                let part = match state.staged[idx].lock().as_ref() {
                                    Some(StagedPart::Device { device, packed, host, ready }) => {
                                        Some((*device, packed.clone(), host.clone(), ready.clone()))
                                    }
                                    // A retried submission already landed.
                                    Some(StagedPart::Downloaded(_)) => None,
                                    _ => {
                                        return Err(Error::Analysis(format!(
                                            "dag download: kernel partial {idx} missing"
                                        )))
                                    }
                                };
                                if let Some((dev, packed, host, ready)) = part {
                                    let cp = tctx
                                        .copy_stream(dev)
                                        .ok_or_else(|| {
                                            Error::Analysis(format!(
                                                "no copy stream on device {dev}"
                                            ))
                                        })?
                                        .clone();
                                    cp.wait_event(&ready).map_err(Error::Device)?;
                                    cp.copy_counted(&packed, &host).map_err(Error::Device)?;
                                    cp.record(&ev).map_err(Error::Device)?;
                                    counters.add_downloads(1);
                                    *state.staged[idx].lock() = Some(StagedPart::Downloaded(host));
                                }
                                Ok(())
                            },
                        );
                        g.set_home(d, primary);
                        g.set_cost(d, download_cost(rows, all_ops.len(), nbins));
                        d
                    }
                    None => {
                        // Host partials are already in place; the node
                        // exists to keep the graph shape uniform and to
                        // release the reduce gate.
                        let ev = dl_event.clone();
                        g.add_worker_task(
                            TaskKind::Download,
                            format!("t{ti}s{si}"),
                            TaskSite::Host,
                            move |_| {
                                ev.signal();
                                Ok(())
                            },
                        )
                    }
                };
                g.add_dep(download, kernel);
                download_events.push(dl_event);
                downloads.push(download);
            }
        }

        // Reduce: merge every staged partial into the flat accumulator in
        // ascending (table, spec) order — exactly the inline engine's
        // merge order, so the grids stay bit-identical — then the step's
        // single packed allreduce. Gated on the download events so the
        // host buffers are complete without any blocking synchronize.
        let reduce = {
            let state = state.clone();
            g.add_coordinator_task(TaskKind::Reduce, "packed-allreduce", move |_| {
                let layout = StepLayout::new(step.specs, &state.grids.lock());
                let mut flat = layout.flat(arena, ntables > 0 && device.is_none());
                for (idx, slot) in state.staged.iter().enumerate() {
                    let (first, si) = (idx < nspecs, idx % nspecs);
                    match slot.lock().as_ref() {
                        Some(StagedPart::Host(scratch)) => {
                            layout.land_host(&mut flat, si, first, &scratch.grids()[0])
                        }
                        Some(StagedPart::Downloaded(host)) => {
                            layout.land_downloaded(&mut flat, si..si + 1, first, host)?
                        }
                        _ => {
                            return Err(Error::Analysis(format!(
                                "dag reduce: partial {idx} missing"
                            )))
                        }
                    }
                }
                // Every kernel has run: drop the step's views of the
                // fetched columns, then the snapshot may let go of the
                // CoW shares they read in place.
                state.host_tables.lock().clear();
                state.dev_cols.lock().clear();
                data.release_shared();
                *state.merged.lock() = Some(layout.allreduce(ctx.comm, flat)?);
                Ok(())
            })
        };
        for d in downloads {
            g.add_dep(reduce, d);
        }
        for ev in download_events {
            g.gate_on_event(reduce, ev);
        }

        // Publish: unpack the reduced buffer into per-spec results where
        // the rank consumes them; the buffer goes back to the arena.
        let publish = {
            let state = state.clone();
            g.add_coordinator_task(TaskKind::Publish, "results", move |_| {
                let merged =
                    state.merged.lock().take().ok_or_else(|| {
                        Error::Analysis("dag publish: reduced grids missing".into())
                    })?;
                if publish {
                    let grids = state.grids.lock().clone();
                    let layout = StepLayout::new(step.specs, &grids);
                    *state.results.lock() = layout.publish(step.specs, &grids, &merged, data);
                }
                arena.keep_flat(merged);
                Ok(())
            })
        };
        g.add_dep(publish, reduce);

        let outcome = sched.run(g)?;
        for slot in &state.staged {
            if let Some(StagedPart::Host(scratch)) = slot.lock().take() {
                self.arena.scratches().give(scratch);
            }
        }
        comm_mark.charge(ctx.comm, &self.counters);
        if outcome == DagOutcome::Skipped {
            return Ok(true);
        }
        let results = std::mem::take(&mut *state.results.lock());
        self.delivery.deliver(ctx.comm, results);
        Ok(true)
    }

    fn finalize(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        self.arena.release();
        if let Some((dir, results)) = self.delivery.output(ctx.comm) {
            for (i, result) in results.iter().enumerate() {
                crate::io::write_result(&dir.join(format!("spec{i}")), result)
                    .map_err(|e| Error::Analysis(format!("writing results: {e}")))?;
            }
        }
        Ok(())
    }

    fn counters(&self) -> Option<Arc<AnalysisCounters>> {
        Some(self.counters.clone())
    }
}

/// Register the `binning_suite` back-end type: one `<analysis>` element
/// holding one `<instance>` child per spec, each with the same content as
/// a `data_binning` element.
pub fn register_suite(registry: &mut AnalysisRegistry) {
    registry.register("binning_suite", |el, _ctx| {
        let specs: Vec<BinningSpec> =
            el.find_all("instance").map(BinningSpec::from_element).collect::<Result<_>>()?;
        let mut suite = BinningSuite::new(specs)?;
        if let Some(dir) = el.attr("output") {
            suite = suite.with_output_dir(dir);
        }
        Ok(Box::new(suite))
    });
}

#[cfg(test)]
mod tests {
    use super::download_cost;

    #[test]
    fn the_download_hint_never_exceeds_the_dense_block() {
        for (ops, bins) in [(1, 1), (3, 7), (11, 4096), (11, 16_384)] {
            let dense = (ops * bins * 8) as f64;
            for rows in [0, 1, 17, 341, 372, 4096, 1 << 20] {
                let hint = download_cost(rows, ops, bins);
                assert!(hint <= dense, "rows {rows} ops {ops} bins {bins}: {hint} > {dense}");
                // No more bins than rows are touched: few rows, small hint.
                assert!(hint <= (rows * (ops + 1) * 8) as f64);
            }
        }
        assert_eq!(download_cost(10, 11, 4096), (10 * 12 * 8) as f64);
        assert_eq!(download_cost(1 << 20, 11, 4096), (11 * 4096 * 8) as f64);
    }
}
