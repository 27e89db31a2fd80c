//! The fused step as a task graph — the only form of the step, run by
//! every execution method.
//!
//! One `Fetch` node (data movement, fused bounds, the bounds collective),
//! one `Kernel` node per (table, spec range) and, on a device, one
//! `Download` node per kernel on the copy stream of the device that runs
//! it, ordered by events; then one `Reduce` node merging every partial
//! block table-major into the step's block, cutting it per owner of the
//! specs and running the single grid reduce-scatter, and one `Publish`
//! node in which each owner finalizes its specs and rank 0 gathers the
//! results. Neither node returns an error before its collective is over:
//! a malformed part or a failed publish travels to rank 0 in the gather.
//! Under `dag` on a device the graph has one kernel per spec, each
//! placed when the graph is planned on the device least loaded so far by
//! its modeled cost (the placement device on ties), so kernels on
//! different devices run side by side on the scheduler's streams.
//! Otherwise — lockstep, asynchronous, or `dag` on the host — one kernel
//! per table covers every spec: one launch, one download and one host
//! pass per table. Results are bit-identical either way: the merge order
//! is fixed table-major, and a grid is the same whichever pass or device
//! computes it.
//!
//! In a group of fused back-ends sharing one engine, every member but the
//! last hands its specs and outlet forward as a [`Share`], and the last
//! runs this graph once over all of them — the members' specs in attach
//! order — then delivers each member its own results. The group's step is
//! all or nothing: a skipped or failed graph delivers to no member.

use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use devsim::{CellBuffer, Event, ReadView};
use sensei::{
    AnalysisAdaptor, DagOutcome, DagScheduler, DataAdaptor, Error, ExecContext, ExecutionMethod,
    GroupSlot, Result, TaskGraph, TaskKind,
};

use super::{local_tables, BinnedResult, BinningAnalysis, CommMark, Fetched, Outlet};
use crate::arena::{Slot, StepArena};
use crate::block::{self, block_len};
use crate::device_impl;
use crate::fused::{host_pass, num_grids, plan_pass, FusedStep, StepLayout};
use crate::host_impl::{self, PassSpec};
use crate::spec::BinningSpec;

/// Where one (table, spec range) kernel's partial grids live between the
/// kernel, download and reduce nodes of the step's task graph.
enum StagedPart {
    /// Host placement: the block of one fused host table pass, an arena
    /// block given back once the step is over.
    Host(Vec<f64>),
    /// Device kernel enqueued: its arena slot's packed device block and
    /// host block, plus — when the device's copy stream is not the
    /// kernel's — the event its stream records after the launch (the
    /// download node's cross-stream ordering point).
    Device { packed: CellBuffer, host: CellBuffer, ready: Option<Event> },
    /// Download enqueued: the packed host buffer, valid once the download
    /// node's event fires.
    Downloaded(CellBuffer),
}

/// What the step's nodes hand each other: everything the fetch node
/// produces and the kernel/download/reduce nodes consume.
#[derive(Default)]
struct DagState {
    /// Every spec's resolved grid and the step's block shape (fetch node
    /// output).
    layout: RefCell<Option<StepLayout>>,
    /// Host placement: per table, the union columns' read views, shared
    /// by the table's kernel tasks and dropped before the reduce node
    /// tells the snapshot its shares are no longer read.
    host_tables: RefCell<Vec<HashMap<String, ReadView<f64>>>>,
    /// Device placement: `(table, device)` -> resident union columns.
    /// Seeded on the placement device by the fetch node; the first kernel
    /// placed on another device asks for the columns' versions there.
    #[allow(clippy::type_complexity)]
    dev_cols: RefCell<HashMap<(usize, usize), Arc<HashMap<String, CellBuffer>>>>,
    /// One slot per (table, spec range), indexed `table * nranges + range`.
    staged: Vec<RefCell<Option<StagedPart>>>,
    /// The globally merged block of the specs this rank owns, with
    /// whether rank 0 consumes results as its trailing word — or why the
    /// round failed here (reduce node output).
    owned: RefCell<Option<Result<Vec<f64>>>>,
    /// Finished step results (publish node output).
    results: RefCell<Vec<BinnedResult>>,
}

impl DagState {
    /// The step's resolved grids and block shape: set by the fetch node,
    /// which runs before every other node.
    fn layout(&self) -> Ref<'_, StepLayout> {
        Ref::map(self.layout.borrow(), |layout| {
            layout.as_ref().expect("the fetch node resolved the step's grids")
        })
    }

    /// The union columns of table `ti` on device `dw`: off the placement
    /// device, the fetched columns' versions there, asked for on `stream`
    /// (the kernel's compute stream) so the kernel launched right after
    /// is stream-ordered behind them. The columns keep those versions, so
    /// a later step's request refreshes them, or is granted them if the
    /// producer left the column alone.
    fn columns_on(
        &self,
        node: &devsim::SimNode,
        ti: usize,
        dw: usize,
        primary: usize,
        stream: &devsim::Stream,
    ) -> Result<Arc<HashMap<String, CellBuffer>>> {
        let mut cache = self.dev_cols.borrow_mut();
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

    /// This rank's block of the step: every staged block merged in
    /// ascending (table, spec) order, or the untouched block where the rank
    /// has no tables. Blocks come from `arena` and merge through `scratch`.
    fn local_block(
        &self,
        arena: &StepArena,
        ranges: &[Range<usize>],
        ntables: usize,
        scratch: &mut block::Scratch,
    ) -> Result<Vec<f64>> {
        let layout = self.layout();
        let specs = &layout.pass[..];
        let nranges = ranges.len();
        let mut merged: Option<Vec<f64>> = None;
        for ti in 0..ntables {
            let slots = &self.staged[ti * nranges..][..nranges];
            // A host pass over every spec hands its table's block over
            // whole.
            if merged.is_none() && nranges == 1 {
                let host = |part: &mut StagedPart| matches!(part, StagedPart::Host(_));
                if let Some(StagedPart::Host(out)) = slots[0].borrow_mut().take_if(host) {
                    merged = Some(out);
                    continue;
                }
            }
            let held: Vec<_> = slots.iter().map(|slot| slot.borrow()).collect();
            let mut views = Vec::new();
            for part in &held {
                if let Some(StagedPart::Downloaded(host)) = part.as_ref() {
                    views.push(host.host_f64_ro().map_err(Error::Device)?);
                }
            }
            let (mut views, mut parts) = (views.iter(), Vec::with_capacity(specs.len()));
            for (part, range) in held.iter().zip(ranges) {
                let table: &[f64] = match part.as_ref() {
                    Some(StagedPart::Host(out)) => out,
                    Some(StagedPart::Downloaded(_)) => views.next().expect("viewed above"),
                    _ => {
                        return Err(Error::Analysis(format!(
                            "dag reduce: table {ti} partial {} missing",
                            range.start
                        )))
                    }
                };
                let shapes = block::shapes(&specs[range.clone()]);
                parts.extend(block::spec_parts(table, shapes)?);
            }
            match merged.as_mut() {
                Some(acc) => block::merge_parts(specs, acc, &parts, scratch)?,
                None => {
                    let mut out = arena.take_block(room(specs));
                    block::assemble(&mut out, specs, &parts, scratch);
                    merged = Some(out);
                }
            }
        }
        Ok(merged.unwrap_or_else(|| {
            let mut out = arena.take_block(room(specs));
            block::untouched(&mut out, specs.len());
            out
        }))
    }
}

/// Room for a block of `specs` and the trailing word a reduce-scatter part
/// carries: every host block of the step is taken with it, so whichever
/// role a pooled block plays next, it never grows.
fn room(specs: &[PassSpec]) -> usize {
    block_len(specs) + 1
}

/// Whether the rank that sent a reduce-scatter part, or any rank whose
/// part a merged one folds, consumes results: its trailing word, 1 or 0.
fn trailer_of(part: &[f64]) -> f64 {
    part.last().copied().unwrap_or(0.0)
}

/// What an owner's gathered results put on the wire: their values' bytes.
fn result_bytes(published: &Result<Vec<BinnedResult>>) -> usize {
    let results = published.as_deref().unwrap_or_default();
    results
        .iter()
        .flat_map(|r| &r.arrays)
        .map(|(_, values)| std::mem::size_of_val(&values[..]))
        .sum()
}

/// The device least loaded so far — `primary` on ties, else the lowest
/// index — charged `cost`.
fn least_loaded(loads: &mut [f64], primary: usize, cost: f64) -> usize {
    let d = (0..loads.len()).fold(primary, |best, d| if loads[d] < loads[best] { d } else { best });
    loads[d] += cost;
    d
}

/// The pass of the specs in `range` over their resolved grids.
fn plan<'a>(
    specs: &'a [BinningSpec],
    layout: &'a StepLayout,
    range: &Range<usize>,
) -> (Vec<&'a str>, Vec<PassSpec>) {
    plan_pass(range.clone().map(|si| (&specs[si].axes, &layout.ops[si][..], layout.grids[si])))
}

/// What a member of a group hands the member that runs the merged step:
/// its specs, and where their results go.
struct Share {
    specs: Vec<BinningSpec>,
    outlet: Outlet,
}

impl BinningAnalysis {
    /// The step as a task graph handed to `sched` (see the module docs);
    /// in a group, only the last member plans it.
    pub(super) fn run_graph(
        &self,
        data: &dyn DataAdaptor,
        ctx: &ExecContext<'_>,
        sched: &mut DagScheduler,
    ) -> Result<bool> {
        if let Some(slot) = ctx.group_slot().filter(|_| !ctx.is_last_member()) {
            slot.put(Box::new(Share { specs: self.specs.clone(), outlet: self.outlet.clone() }));
            return Ok(true);
        }
        // Every member's specs in attach order, this one's last, and per
        // member where its run of them goes.
        let shares = ctx.group_slot().map(GroupSlot::take).unwrap_or_default();
        let mut outlets = Vec::with_capacity(shares.len() + 1);
        let mut merged = Vec::new();
        for share in shares {
            let share = share.downcast::<Share>().map_err(|_| {
                Error::Analysis("binning group: a member handed forward no binning share".into())
            })?;
            outlets.push((share.outlet, share.specs.len()));
            merged.extend(share.specs);
        }
        outlets.push((self.outlet.clone(), self.specs.len()));
        let specs: &[BinningSpec] = match merged.is_empty() {
            true => &self.specs,
            false => {
                merged.extend(self.specs.iter().cloned());
                &merged
            }
        };

        let comm_mark = CommMark::new(ctx.comm);
        let tables = local_tables(&data.mesh(&specs[0].mesh)?)?;
        let device = self.controls.resolve_device(ctx.comm.rank(), ctx.node.num_devices());
        self.arena.place(device);
        let nspecs = specs.len();
        let ntables = tables.len();
        let row_counts: Vec<usize> = tables.iter().map(|t| t.num_rows()).collect();
        // Under `dag` on a device, a kernel per spec, to spread over the
        // devices; otherwise one pass per table over every spec.
        let spread = device.is_some() && self.controls.execution == ExecutionMethod::Dag;
        let ranges: Vec<Range<usize>> = match spread {
            true => (0..nspecs).map(|si| si..si + 1).collect(),
            false => std::iter::once(0..nspecs).collect(),
        };
        let (ranges, nranges) = (&ranges, ranges.len());
        let mut loads = vec![0.0; ctx.node.num_devices()];

        let state = DagState {
            staged: (0..ntables * nranges).map(|_| RefCell::default()).collect(),
            ..DagState::default()
        };
        let state = &state;
        let step = FusedStep { specs, counters: &self.counters };
        let arena = &self.arena;
        let consumes = outlets.iter().any(|(outlet, _)| outlet.publishes(ctx.comm));
        let node = ctx.node;

        let mut g = TaskGraph::new(self.name(), self.counters.clone(), self.controls.recovery);

        // Fetch: the union of every spec's variables, once per table, plus
        // the fused bounds pass and its packed collective.
        g.add_task(TaskKind::Fetch, "tables+bounds", None, move |_| {
            // Idempotent under retry: the step's staging is rebuilt from
            // scratch on every attempt.
            state.host_tables.borrow_mut().clear();
            state.dev_cols.borrow_mut().clear();
            let fetched = step.fetch(data, &tables, device)?;
            let grids = step.resolve_grids(&fetched, device, ctx)?;
            *state.layout.borrow_mut() = Some(StepLayout::new(step.specs, grids));
            for (ti, f) in fetched.into_iter().enumerate() {
                match f {
                    Fetched::Host(cols) => state.host_tables.borrow_mut().push(cols),
                    Fetched::Device(views) => {
                        let p = device.expect("device fetch implies device placement");
                        let cols: HashMap<String, CellBuffer> =
                            views.iter().map(|(k, v)| (k.clone(), v.cells().clone())).collect();
                        state.dev_cols.borrow_mut().insert((ti, p), Arc::new(cols));
                    }
                }
            }
            Ok(())
        });

        // One kernel per (table, spec range), and on a device its download
        // on the copy stream of the kernel's device. A host kernel's
        // partial is in place when it returns.
        let mut download_events = Vec::new();
        for (ti, &rows) in row_counts.iter().enumerate() {
            for (ri, range) in ranges.iter().enumerate() {
                let idx = ti * nranges + ri;
                let label = format!("t{ti}s{}", range.start);
                let Some(primary) = device else {
                    g.add_task(TaskKind::Kernel, label, None, move |_| {
                        let tables = state.host_tables.borrow();
                        step.counters.add_table_passes(1);
                        let layout = state.layout();
                        let (names, pass) = plan(step.specs, &layout, range);
                        let mut scratch = arena.scratches().take();
                        let mut out = arena.take_block(room(&layout.pass));
                        host_pass(node, &tables[ti], &names, &pass, |cols| {
                            host_impl::bin_all_block(cols, &pass, &mut scratch, &mut out);
                        });
                        arena.scratches().give(scratch);
                        *state.staged[idx].borrow_mut() = Some(StagedPart::Host(out));
                        Ok(())
                    });
                    continue;
                };
                let dw = match spread {
                    true => {
                        let cost =
                            |si: usize| device_impl::fused_bin_cost(rows, num_grids(&specs[si]));
                        let cost = range.clone().map(|si| cost(si).flops + cost(si).bytes).sum();
                        least_loaded(&mut loads, primary, cost)
                    }
                    false => primary,
                };
                g.add_task(TaskKind::Kernel, label.clone(), Some(dw), move |tctx| {
                    let stream = tctx.stream().ok_or_else(|| {
                        Error::Analysis(format!("no compute stream on device {dw}"))
                    })?;
                    let resident = state.columns_on(node, ti, dw, primary, stream)?;
                    let layout = state.layout();
                    let (names, pass) = plan(step.specs, &layout, range);
                    let cols: Vec<&CellBuffer> =
                        names.iter().map(|name| &resident[*name]).collect();
                    let len = block_len(&pass);
                    let slot = arena.slot(node, idx, dw, len, stream)?;
                    device_impl::bin_all_device(
                        stream,
                        &cols,
                        &pass,
                        &slot.packed,
                        arena.scratches(),
                    )?;
                    step.counters.add_kernel_launches(1);
                    // A download on the kernel's own stream (in order) is
                    // ordered behind it already.
                    let ready = match tctx.copy_stream(dw) {
                        Some(cp) if !Arc::ptr_eq(cp, stream) => {
                            let ready = Event::new();
                            stream.record(&ready).map_err(Error::Device)?;
                            Some(ready)
                        }
                        _ => None,
                    };
                    let Slot { packed, host } = slot;
                    *state.staged[idx].borrow_mut() =
                        Some(StagedPart::Device { packed, host, ready });
                    Ok(())
                });
                let landed = Event::new();
                let ev = landed.clone();
                g.add_task(TaskKind::Download, label, Some(dw), move |tctx| {
                    let part = match state.staged[idx].borrow().as_ref() {
                        Some(StagedPart::Device { packed, host, ready }) => {
                            (packed.clone(), host.clone(), ready.clone())
                        }
                        // A retried submission already landed.
                        Some(StagedPart::Downloaded(_)) => return Ok(()),
                        _ => {
                            return Err(Error::Analysis(format!(
                                "dag download: kernel partial {idx} missing"
                            )))
                        }
                    };
                    let (packed, host, ready) = part;
                    let cp = tctx
                        .copy_stream(dw)
                        .ok_or_else(|| Error::Analysis(format!("no copy stream on device {dw}")))?;
                    if let Some(ready) = &ready {
                        cp.wait_event(ready).map_err(Error::Device)?;
                    }
                    cp.copy_counted(&packed, &host).map_err(Error::Device)?;
                    cp.record(&ev).map_err(Error::Device)?;
                    step.counters.add_downloads(1);
                    *state.staged[idx].borrow_mut() = Some(StagedPart::Downloaded(host));
                    Ok(())
                });
                download_events.push(landed);
            }
        }

        // Reduce: merge every staged block into the step's block in
        // ascending (table, spec) order — the same whatever the spec
        // ranges, so the grids stay bit-identical — cut it into one block
        // per owner of the step's coordinate systems, and reduce-scatter
        // the cuts: each rank ends with the merged block of the specs it
        // owns. On a device, gated on the download events so the host
        // blocks are complete.
        let reduce = g.add_task(TaskKind::Reduce, "block-reduce-scatter", None, move |_| {
            let layout = state.layout();
            let specs = &layout.pass[..];
            let room = room(specs);
            let mut scratch = arena.take_merge(room);
            let local = state.local_block(arena, ranges, ntables, &mut scratch);
            // Every kernel has run: drop the step's views of the fetched
            // columns, then the snapshot may let go of the CoW shares
            // they read in place.
            state.host_tables.borrow_mut().clear();
            state.dev_cols.borrow_mut().clear();
            data.release_shared();
            let owners = layout.owners(ctx.comm.size());
            let mut parts: Vec<Vec<f64>> = owners.iter().map(|_| arena.take_block(room)).collect();
            let cut = local.and_then(|local| {
                let cut = block::split(&local, specs, &owners, &mut parts);
                arena.keep_block(local);
                cut
            });
            // A rank that has no block to cut still joins the round, with
            // parts its owners reject; behind every good part rides whether
            // this rank consumes results.
            let trailer = f64::from(u8::from(consumes));
            for part in &mut parts {
                match cut {
                    Ok(()) => part.push(trailer),
                    Err(_) => part.clear(),
                }
            }
            // A malformed part is reported once the round is over, so no
            // rank is left waiting on the collective.
            let failed = RefCell::new(cut.err());
            let mine = owners[ctx.comm.rank()].clone();
            let scratch = RefCell::new(scratch);
            let owned = ctx.comm.reduce_scatter_with(parts, |acc, part| {
                let consumes = trailer_of(acc).max(trailer_of(&part));
                let mut scratch = scratch.borrow_mut();
                match block::merge_blocks(&specs[mine.clone()], acc, &part, &mut scratch) {
                    Ok(()) => acc.push(consumes),
                    Err(e) => {
                        failed.borrow_mut().get_or_insert(e);
                    }
                }
                arena.keep_block(part);
            });
            arena.keep_merge(scratch.into_inner());
            *state.owned.borrow_mut() = Some(match failed.into_inner() {
                Some(e) => {
                    arena.keep_block(owned);
                    Err(Error::Analysis(format!("grid reduce-scatter: {e}")))
                }
                None => Ok(owned),
            });
            Ok(())
        });
        for ev in download_events {
            g.gate_on_event(reduce, ev);
        }

        // Publish: each owner finalizes its specs when rank 0 consumes
        // results, and every owner's results — or its error — are gathered
        // at rank 0 in rank order, which is spec order.
        g.add_task(TaskKind::Publish, "results", None, move |_| {
            let mine = match state.owned.borrow_mut().take() {
                Some(Ok(mut owned)) => {
                    let layout = state.layout();
                    let range = layout.owners(ctx.comm.size())[ctx.comm.rank()].clone();
                    let published = match owned.pop() == Some(1.0) {
                        true => layout.publish(step.specs, range, &owned, data),
                        false => Ok(Vec::new()),
                    };
                    arena.keep_block(owned);
                    published
                }
                Some(Err(e)) => Err(e),
                None => Err(Error::Analysis("dag publish: reduced block missing".into())),
            };
            let failed = mine.as_ref().err().cloned();
            let gathered = ctx.comm.gather(0, mine, result_bytes);
            let gathered = gathered.map_err(|e| Error::Analysis(format!("results gather: {e}")))?;
            let Some(gathered) = gathered else {
                return failed.map_or(Ok(()), Err);
            };
            let mut results = state.results.borrow_mut();
            for (rank, published) in gathered.into_iter().enumerate() {
                match published {
                    Ok(published) => results.extend(published),
                    Err(e) => {
                        results.clear();
                        return Err(Error::Analysis(format!(
                            "binning results of rank {rank}: {e}"
                        )));
                    }
                }
            }
            Ok(())
        });

        let outcome = sched.run(g)?;
        for slot in &state.staged {
            if let Some(StagedPart::Host(out)) = slot.borrow_mut().take() {
                self.arena.keep_block(out);
            }
        }
        comm_mark.charge(ctx.comm, &self.counters);
        if outcome == DagOutcome::Skipped {
            return Ok(true);
        }
        let mut results = state.results.take().into_iter();
        for (outlet, n) in &outlets {
            outlet.deliver(ctx.comm, results.by_ref().take(*n).collect());
        }
        Ok(true)
    }
}
