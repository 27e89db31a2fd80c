//! The fused step as a task graph, for the `dag` execution method.
//!
//! One coordinator `Fetch` node (data movement, fused bounds, the bounds
//! collective), one `Kernel` node per `(table, spec)` — stealable across
//! device workers — and, on a device, one `Download` node per kernel on
//! the copy stream of the device that ran it, ordered by events; then one
//! coordinator `Reduce` node merging every partial in the inline step's
//! exact order before the single packed allreduce, and one `Publish` node.
//! Results are bit-identical to [`BinningAnalysis::execute`]: the merge
//! order is fixed table-major and the same kernels run whatever worker
//! executes them.

use std::collections::HashMap;
use std::sync::Arc;

use devsim::{CellBuffer, Event, ReadView};
use parking_lot::Mutex;
use sensei::{
    AnalysisAdaptor, DagOutcome, DagScheduler, DataAdaptor, Error, ExecContext, Result, TaskGraph,
    TaskKind, TaskSite,
};

use super::{local_tables, BinnedResult, BinningAnalysis, CommMark, Fetched};
use crate::arena::Slot;
use crate::device_impl;
use crate::fused::{host_pass, plan_pass, spec_ops, StepLayout};
use crate::grid::GridParams;
use crate::host_impl::{self, KernelScratch};

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

impl BinningAnalysis {
    /// The step as a task graph handed to `sched` (see the module docs).
    pub(super) fn run_graph(
        &mut self,
        data: &dyn DataAdaptor,
        ctx: &ExecContext<'_>,
        sched: &mut DagScheduler,
    ) -> Result<bool> {
        let comm_mark = CommMark::new(ctx.comm);
        let tables = local_tables(&data.mesh(&self.specs[0].mesh)?)?;
        let device = self.controls.resolve_device(ctx.comm.rank(), ctx.node.num_devices());
        self.arena.place(device);
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
        let publish = this.publishes(ctx.comm);
        let node = ctx.node.clone();

        let mut g = TaskGraph::new(this.name(), this.counters.clone(), this.controls.recovery);

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

        // One kernel per (table, spec), and on a device its download. Kernel
        // tasks are homed on the resolved device but stealable by any idle
        // device worker; the download node enqueues the packed D2H copy on
        // the copy stream of whichever device actually ran the kernel. A
        // host kernel's partial is in place when it returns: the reduce
        // node depends on the kernel itself.
        let mut download_events = Vec::new();
        let mut partials = Vec::with_capacity(ntables * nspecs);
        for (ti, &rows) in row_counts.iter().enumerate() {
            for (si, spec) in this.specs.iter().enumerate() {
                let idx = ti * nspecs + si;
                let all_ops = spec_ops(spec);
                let nbins = spec.resolution.0 * spec.resolution.1;
                let kc = device_impl::fused_bin_cost(rows, all_ops.len());
                let label = format!("t{ti}s{si}");

                let kernel = {
                    let state = state.clone();
                    let node = node.clone();
                    let axes = spec.axes.clone();
                    let ops = all_ops.clone();
                    let label = label.clone();
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
                                step.counters.add_kernel_launches(1);
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
                                step.counters.add_table_passes(1);
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

                let Some(primary) = device else {
                    partials.push(kernel);
                    continue;
                };
                let landed = Event::new();
                let download = {
                    let state = state.clone();
                    let ev = landed.clone();
                    g.add_worker_task(TaskKind::Download, label, TaskSite::AnyDevice, move |tctx| {
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
                                    Error::Analysis(format!("no copy stream on device {dev}"))
                                })?
                                .clone();
                            cp.wait_event(&ready).map_err(Error::Device)?;
                            cp.copy_counted(&packed, &host).map_err(Error::Device)?;
                            cp.record(&ev).map_err(Error::Device)?;
                            step.counters.add_downloads(1);
                            *state.staged[idx].lock() = Some(StagedPart::Downloaded(host));
                        }
                        Ok(())
                    })
                };
                g.set_home(download, primary);
                g.set_cost(download, download_cost(rows, all_ops.len(), nbins));
                g.add_dep(download, kernel);
                download_events.push(landed);
                partials.push(download);
            }
        }

        // Reduce: merge every staged partial into the flat accumulator in
        // ascending (table, spec) order — exactly the inline engine's
        // merge order, so the grids stay bit-identical — then the step's
        // single packed allreduce. On a device, gated on the download
        // events so the host buffers are complete without any blocking
        // synchronize.
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
        for p in partials {
            g.add_dep(reduce, p);
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
        self.deliver(ctx.comm, results);
        Ok(true)
    }
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
