//! The fused step as straight-line code over typed nodes — the only form
//! of the step, run by every execution method.
//!
//! One `Fetch` node (data movement, fused bounds, the bounds collective),
//! one `Kernel` node per (table, spec range) and, on a device, one
//! `Download` node per kernel on the copy stream of the device that runs
//! it, ordered by events; then one `Reduce` node writing, per owner of the
//! specs, this rank's cut straight from the partial blocks, table-major,
//! and running the single grid reduce-scatter, and one `Publish` node in
//! which each owner finalizes its specs and rank 0 gathers the owners'
//! results. Each node runs when the step's code reaches it
//! ([`sensei::Step::run`]) and hands what it made to the next as a plain
//! local. Neither collective node returns an error before its collective
//! is over: a malformed part or a failed publish travels to rank 0 in the
//! gather. Whatever the step's outcome, its host blocks go back to the
//! arena and its collectives are charged to the counters.
//!
//! Under `dag` on a device the step has one kernel per spec, each placed,
//! as it is reached, on the device least loaded so far by its modeled
//! cost (the placement device on ties), so kernels on different devices
//! run side by side on the scheduler's streams. Otherwise — lockstep,
//! asynchronous, or `dag` on the host — one kernel per table covers every
//! spec: one launch, one download and one host pass per table. Results
//! are bit-identical either way: the merge order is fixed table-major,
//! and a grid is the same whichever pass or device computes it.
//!
//! In a group of fused back-ends sharing one engine, every member but the
//! last hands its specs and outlet forward as a [`Share`], and the last
//! runs this step once over all of them — the members' specs in attach
//! order — then delivers each member its own results. The group's step is
//! all or nothing: a skipped or failed step delivers to no member.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use devsim::{CellBuffer, Event};
use sensei::{
    AnalysisAdaptor, DagScheduler, DataAdaptor, Error, ExecContext, ExecutionMethod, GroupSlot,
    Result, TaskKind,
};

use super::{local_tables, BinnedResult, BinningAnalysis, CommMark, Fetched, Outlet};
use crate::arena::Slot;
use crate::block::{self, block_len};
use crate::device_impl;
use crate::fused::{host_pass, num_grids, plan_pass, FusedStep, StepLayout};
use crate::host_impl::{self, PassSpec};
use crate::spec::BinningSpec;

/// One (table, spec range) kernel's partial block, as the reduce node
/// reads it.
enum Staged {
    /// Host placement: the block of one fused host table pass, an arena
    /// block given back once the step is over.
    Host(Vec<f64>),
    /// Device placement: the packed host buffer of the kernel's download,
    /// valid once the download's event fires.
    Device(CellBuffer),
}

/// Device placement: `(table, device)` -> resident union columns. Seeded
/// on the placement device by the fetch node; the first kernel placed on
/// another device asks for the columns' versions there.
type DeviceColumns = HashMap<(usize, usize), Arc<HashMap<String, CellBuffer>>>;

/// The union columns of table `ti` on device `dw`: off the placement
/// device, the fetched columns' versions there, asked for on `stream` (the
/// kernel's compute stream) so the kernel launched right after is
/// stream-ordered behind them. The columns keep those versions, so a later
/// step's request refreshes them, or is granted them if the producer left
/// the column alone.
fn columns_on(
    cache: &mut DeviceColumns,
    node: &devsim::SimNode,
    ti: usize,
    dw: usize,
    primary: usize,
    stream: &devsim::Stream,
) -> Result<Arc<HashMap<String, CellBuffer>>> {
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

/// Write to `cuts[d]` this rank's block of the specs `owners[d]` out of
/// the tables' staged blocks, `ranges.len()` a table ([`block::write_cut`]),
/// merging through `scratch`.
fn write_cuts(
    staged: &[Staged],
    specs: &[PassSpec],
    ranges: &[Range<usize>],
    owners: &[Range<usize>],
    cuts: &mut [Vec<f64>],
    scratch: &mut block::Scratch,
) -> Result<()> {
    let mut views = Vec::new();
    for part in staged {
        if let Staged::Device(host) = part {
            views.push(host.host_f64_ro().map_err(Error::Device)?);
        }
    }
    let mut views = views.iter();
    let mut tables = Vec::new();
    for table in staged.chunks(ranges.len()) {
        let mut parts = Vec::with_capacity(specs.len());
        for (part, range) in table.iter().zip(ranges) {
            let table: &[f64] = match part {
                Staged::Host(out) => out,
                Staged::Device(_) => views.next().expect("viewed above"),
            };
            parts.extend(block::spec_parts(table, block::shapes(&specs[range.clone()]))?);
        }
        tables.push(parts);
    }
    for (owned, cut) in owners.iter().zip(cuts) {
        let parts = tables.iter().map(|parts| &parts[owned.clone()]);
        block::write_cut(cut, &specs[owned.clone()], parts, scratch)?;
    }
    Ok(())
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
    /// The step's nodes, run through `sched` (see the module docs); in a
    /// group, only the last member runs them.
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
        // Under `dag` on a device, a kernel per spec, to spread over the
        // devices; otherwise one pass per table over every spec.
        let spread = device.is_some() && self.controls.execution == ExecutionMethod::Dag;
        let ranges: Vec<Range<usize>> = match spread {
            true => (0..nspecs).map(|si| si..si + 1).collect(),
            false => std::iter::once(0..nspecs).collect(),
        };
        let step = FusedStep { specs, counters: &self.counters };
        let arena = &self.arena;
        let consumes = outlets.iter().any(|(outlet, _)| outlet.publishes(ctx.comm));
        let node = ctx.node;
        // One partial block per (table, spec range), table-major: outside
        // the step, so its host blocks go back to the arena however the
        // step ends.
        let mut staged = Vec::with_capacity(tables.len() * ranges.len());

        let policy = self.controls.recovery;
        let stepped = sched.step(self.name(), &self.counters, policy, |s| {
            // Fetch: the union of every spec's variables, once per table,
            // plus the fused bounds pass and its packed collective. Each
            // attempt returns staging of its own, so a retry starts clean.
            let fetch = || "tables+bounds".to_string();
            let (layout, mut host_tables, mut dev_cols) =
                s.run(TaskKind::Fetch, fetch, None, &[], |_| {
                    let fetched = step.fetch(data, &tables, device)?;
                    let grids = step.resolve_grids(&fetched, device, ctx)?;
                    let (mut host_tables, mut dev_cols) = (Vec::new(), DeviceColumns::new());
                    for (ti, f) in fetched.into_iter().enumerate() {
                        match f {
                            Fetched::Host(cols) => host_tables.push(cols),
                            Fetched::Device(views) => {
                                let p = device.expect("device fetch implies device placement");
                                let cols: HashMap<String, CellBuffer> = views
                                    .iter()
                                    .map(|(k, v)| (k.clone(), v.cells().clone()))
                                    .collect();
                                dev_cols.insert((ti, p), Arc::new(cols));
                            }
                        }
                    }
                    Ok((StepLayout::new(step.specs, grids), host_tables, dev_cols))
                })?;

            // One kernel per (table, spec range), and on a device its
            // download on the copy stream of the kernel's device. A host
            // kernel's partial is in place when it returns.
            let mut loads = vec![0.0; node.num_devices()];
            let mut landed = Vec::new();
            for (ti, table) in tables.iter().enumerate() {
                for (ri, range) in ranges.iter().enumerate() {
                    let label = || format!("t{ti}s{}", range.start);
                    let Some(primary) = device else {
                        let out = s.run(TaskKind::Kernel, label, None, &[], |_| {
                            step.counters.add_table_passes(1);
                            let (names, pass) = plan(step.specs, &layout, range);
                            let mut scratch = arena.scratches().take();
                            let mut out = arena.take_block(room(&layout.pass));
                            host_pass(node, &host_tables[ti], &names, &pass, |cols| {
                                host_impl::bin_all_block(cols, &pass, &mut scratch, &mut out);
                            });
                            arena.scratches().give(scratch);
                            Ok(out)
                        })?;
                        staged.push(Staged::Host(out));
                        continue;
                    };
                    let dw = match spread {
                        true => {
                            let rows = table.num_rows();
                            let cost = |si: usize| {
                                device_impl::fused_bin_cost(rows, num_grids(&specs[si]))
                            };
                            let cost = range.clone().map(|si| cost(si).flops + cost(si).bytes);
                            least_loaded(&mut loads, primary, cost.sum())
                        }
                        false => primary,
                    };
                    let idx = ti * ranges.len() + ri;
                    let kernel = s.run(TaskKind::Kernel, label, Some(dw), &[], |tctx| {
                        let stream = tctx.stream().ok_or_else(|| {
                            Error::Analysis(format!("no compute stream on device {dw}"))
                        })?;
                        let resident = columns_on(&mut dev_cols, node, ti, dw, primary, stream)?;
                        let (names, pass) = plan(step.specs, &layout, range);
                        let cols: Vec<&CellBuffer> =
                            names.iter().map(|name| &resident[*name]).collect();
                        let slot = arena.slot(node, idx, dw, block_len(&pass), stream)?;
                        let scratches = arena.scratches();
                        device_impl::bin_all_device(stream, &cols, &pass, &slot.packed, scratches)?;
                        step.counters.add_kernel_launches(1);
                        // A download on the kernel's own stream (in order)
                        // is ordered behind it already.
                        let ready = match tctx.copy_stream(dw) {
                            Some(cp) if !Arc::ptr_eq(cp, stream) => {
                                let ready = Event::new();
                                stream.record(&ready).map_err(Error::Device)?;
                                Some(ready)
                            }
                            _ => None,
                        };
                        Ok((slot, ready))
                    })?;
                    let (Slot { packed, host }, ready) = kernel;
                    let ev = Event::new();
                    s.run(TaskKind::Download, label, Some(dw), &[], |tctx| {
                        let cp = tctx.copy_stream(dw).ok_or_else(|| {
                            Error::Analysis(format!("no copy stream on device {dw}"))
                        })?;
                        if let Some(ready) = &ready {
                            cp.wait_event(ready).map_err(Error::Device)?;
                        }
                        cp.copy_counted(&packed, &host).map_err(Error::Device)?;
                        cp.record(&ev).map_err(Error::Device)?;
                        step.counters.add_downloads(1);
                        Ok(())
                    })?;
                    staged.push(Staged::Device(host));
                    landed.push(ev);
                }
            }

            // Reduce: write this rank's cut of the step for each owner of
            // its coordinate systems straight from the staged blocks, in
            // ascending (table, spec) order — the same whatever the spec
            // ranges, so the grids stay bit-identical — and reduce-scatter
            // the cuts: each owner ends with the merged block of the specs
            // it owns, and a rank that owns none receives nothing. On a
            // device, after the download events, so the host blocks are
            // complete.
            let reduce = || "block-reduce-scatter".to_string();
            let owned = s.run(TaskKind::Reduce, reduce, None, &landed, |_| {
                let specs = &layout.pass[..];
                let room = room(specs);
                let owners = layout.owners(ctx.comm.size());
                let mut scratch = arena.take_merge(room);
                let mut cuts: Vec<Vec<f64>> =
                    owners.iter().map(|_| arena.take_block(room)).collect();
                let cut = write_cuts(&staged, specs, &ranges, &owners, &mut cuts, &mut scratch);
                // Every kernel has run: drop the step's views of the
                // fetched columns, then the snapshot may let go of the CoW
                // shares they read in place.
                host_tables.clear();
                dev_cols.clear();
                data.release_shared();
                // A rank whose cuts failed still joins the round, with cuts
                // its owners reject; behind every good cut rides whether
                // this rank consumes results.
                let trailer = f64::from(u8::from(consumes));
                for cut_block in &mut cuts {
                    match cut {
                        Ok(()) => cut_block.push(trailer),
                        Err(_) => cut_block.clear(),
                    }
                }
                // A malformed part is reported once the round is over, so
                // no rank is left waiting on the collective.
                let failed = RefCell::new(cut.err());
                let rank = ctx.comm.rank();
                let mine = owners.get(rank).cloned().unwrap_or_default();
                // The cuts sent away leave this rank's blocks: it keeps as
                // many of the parts it merges in, and lets the rest go.
                let spare = Cell::new(owners.len() - usize::from(rank < owners.len()));
                let scratch = RefCell::new(scratch);
                let owned = ctx.comm.reduce_scatter_with(cuts, |acc, part| {
                    let consumes = trailer_of(acc).max(trailer_of(&part));
                    let mut scratch = scratch.borrow_mut();
                    match block::merge_blocks(&specs[mine.clone()], acc, &part, &mut scratch) {
                        Ok(()) => acc.push(consumes),
                        Err(e) => {
                            failed.borrow_mut().get_or_insert(e);
                        }
                    }
                    if spare.get() > 0 {
                        spare.set(spare.get() - 1);
                        arena.keep_block(part);
                    }
                });
                arena.keep_merge(scratch.into_inner());
                Ok(match failed.into_inner() {
                    Some(e) => {
                        arena.keep_block(owned);
                        Err(Error::Analysis(format!("grid reduce-scatter: {e}")))
                    }
                    None => Ok(owned),
                })
            })?;

            // Publish: each owner finalizes its specs when rank 0 consumes
            // results, and every owner's results — or its error — are
            // gathered at rank 0 in rank order, which is spec order. A rank
            // that owns no spec sends nothing.
            let mut owned = Some(owned);
            let publish = || "results".to_string();
            let results = s.run(TaskKind::Publish, publish, None, &[], |_| {
                let owners = layout.owners(ctx.comm.size());
                let mine = match owned.take() {
                    Some(Ok(mut owned)) => {
                        let range = owners.get(ctx.comm.rank()).cloned().unwrap_or_default();
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
                let gathered = ctx.comm.gather(0, owners.len(), mine, result_bytes);
                let gathered =
                    gathered.map_err(|e| Error::Analysis(format!("results gather: {e}")))?;
                let Some(gathered) = gathered else {
                    return failed.map_or(Ok(Vec::new()), Err);
                };
                let mut results = Vec::new();
                for (rank, published) in gathered.into_iter().enumerate() {
                    match published {
                        Ok(published) => results.extend(published),
                        Err(e) => {
                            return Err(Error::Analysis(format!(
                                "binning results of rank {rank}: {e}"
                            )))
                        }
                    }
                }
                Ok(results)
            })?;
            Ok(results)
        });

        // Whatever the outcome, the step's host blocks go back to the
        // arena and its collectives are charged.
        for part in staged {
            if let Staged::Host(out) = part {
                self.arena.keep_block(out);
            }
        }
        comm_mark.charge(ctx.comm, &self.counters);
        let Some(results) = stepped? else { return Ok(true) };
        let mut results = results.into_iter();
        for (outlet, n) in &outlets {
            outlet.deliver(ctx.comm, results.by_ref().take(*n).collect());
        }
        Ok(true)
    }
}
