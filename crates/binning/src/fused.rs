//! The fused binning step, written once.
//!
//! A fused [`crate::BinningAnalysis`] runs it over its specs — one for
//! `data_binning`, N for `binning_suite` — inline, and its task graph
//! under `dag` calls the same stages through the [`FusedStep`] view:
//!
//! * the union of every spec's required variables is fetched/moved
//!   **once per table per step** and shared across all specs;
//! * auto-computed axis bounds for **all** specs share one min/max stage
//!   per table (on the host one charge over a per-column traversal, on a
//!   device one kernel) and one packed bounds allreduce;
//! * nothing fetched is copied: a host-placed step reads every column
//!   through a read view of the memory the access API granted, a
//!   device-placed one through kernel views;
//! * on either placement each table is walked **once** for every spec
//!   (shared axis indices, one value gather per row block, the blocks
//!   sized by the pass's shape): on the host in one charged pass, on a
//!   device in one kernel that commits every spec's grids into one packed
//!   block — each spec's touched bins only, or dense where that is smaller
//!   ([`device_impl::bin_all_device`]) — followed by one download of as
//!   much of the block as the kernel filled ([`Stream::copy_counted`]).
//!   Tables are routed to the least-loaded of a small pool of
//!   streams (by accumulated modeled kernel cost), so the blocks of a
//!   multiblock overlap instead of serializing on one stream and uneven
//!   blocks don't pile up the way position-based round-robin lets them;
//! * every spec's grids (counts + ops) accumulate in a single segmented
//!   buffer that is reduced with **one** allreduce per step;
//! * every grid-sized buffer on the way lives in the caller's
//!   [`StepArena`] and each hop writes where the next one reads: a
//!   table's first partial is *written* to its segment of the flat buffer
//!   — every bin of a host pass's, the touched bins of a downloaded
//!   block's over the identities the flat is seeded with (a kernel's
//!   partial starts from the reduction identities, so merging it into an
//!   identity grid would change no bit of it) — later tables merge, and
//!   the reduced buffer comes back as the next step's flat.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use devsim::{CellBuffer, ReadView, Stream};
use minimpi::{Comm, Segment};
use sensei::{AnalysisCounters, DataAdaptor, Error, ExecContext, Result};
use svtk::TableData;

use crate::adaptor::{fetch_tables, local_tables, BinnedResult, Fetched};
use crate::arena::StepArena;
use crate::bounds;
use crate::device_impl;
use crate::grid::GridParams;
use crate::host_impl::{self, FusedGrids, PassSpec};
use crate::reduce;
use crate::spec::{BinOp, BinningSpec, VarOp};

/// Index of the stream with the smallest accumulated relative kernel
/// cost. Ties break to the lowest index, so a uniform-cost spec set
/// degenerates to the old round-robin rotation — the policies only
/// diverge when costs are skewed, which is exactly when round-robin
/// piles heavy kernels onto one stream.
fn least_loaded_stream(loads: &[f64]) -> usize {
    let mut best = 0;
    for (i, load) in loads.iter().enumerate().skip(1) {
        if *load < loads[best] {
            best = i;
        }
    }
    best
}

/// The ops of `spec`, counts first (the layout of its grids everywhere
/// downstream).
pub(crate) fn spec_ops(spec: &BinningSpec) -> Vec<VarOp> {
    let mut ops = vec![VarOp { var: String::new(), op: BinOp::Count }];
    ops.extend(spec.ops.iter().cloned());
    ops
}

/// What a fused pass over some coordinate systems reads and computes:
/// the column names (deduped, first-seen order) and every `(axes, ops,
/// grid)` resolved to indices into them — the argument shape of the
/// fused host and device kernels.
pub(crate) fn plan_pass<'a>(
    systems: impl IntoIterator<Item = (&'a (String, String), &'a [VarOp], GridParams)>,
) -> (Vec<&'a str>, Vec<PassSpec>) {
    let mut names: Vec<&str> = Vec::new();
    let mut index = |name: &'a str| host_impl::intern(&mut names, name);
    let pass = systems
        .into_iter()
        .map(|(axes, ops, grid)| PassSpec {
            axes: [index(&axes.0), index(&axes.1)],
            grid,
            ops: ops
                .iter()
                .map(|vo| (vo.op, (vo.op != BinOp::Count).then(|| index(&vo.var))))
                .collect(),
        })
        .collect();
    (names, pass)
}

/// One fused host pass of every coordinate system in `pass` over one
/// table: `kernel` runs over the table's columns (`names`, read in place
/// through `table`'s views), charged to the host as the sum of the
/// systems' traversals.
pub(crate) fn host_pass<R>(
    node: &devsim::SimNode,
    table: &HashMap<String, ReadView<f64>>,
    names: &[&str],
    pass: &[PassSpec],
    kernel: impl FnOnce(&[&[f64]]) -> R,
) -> R {
    let cols: Vec<&[f64]> = names.iter().map(|name| &table[*name][..]).collect();
    let cost = device_impl::pass_cost(cols.first().map_or(0, |c| c.len()), pass);
    node.host().run("bin_fused_host", cost, || kernel(&cols))
}

/// Layout of a step's flat accumulation buffer: every spec's grids
/// (counts first) laid back to back. The flat buffer doubles as the
/// packed-collective payload, so local accumulation, the allreduce, and
/// the unpack all work on one allocation with no repacking.
pub(crate) struct StepLayout {
    /// Per spec, its ops with the implicit count grid first.
    pub ops: Vec<Vec<VarOp>>,
    /// Per spec, the start of its grids in the flat buffer and the bins
    /// of each of them.
    spans: Vec<(usize, usize)>,
    /// One segment per (spec, op), in buffer order.
    segments: Vec<Segment>,
    /// Length of the flat buffer.
    len: usize,
}

impl StepLayout {
    /// The step's flat-buffer layout over the resolved grids.
    pub fn new(specs: &[BinningSpec], grids: &[GridParams]) -> Self {
        let mut ops = Vec::with_capacity(specs.len());
        let mut spans = Vec::with_capacity(specs.len());
        let mut segments = Vec::new();
        let mut total = 0;
        for (spec, grid) in specs.iter().zip(grids) {
            spans.push((total, grid.num_bins()));
            let spec_ops = spec_ops(spec);
            for vo in &spec_ops {
                segments.push(Segment::new(reduce::segment_op(vo.op), grid.num_bins()));
                total += grid.num_bins();
            }
            ops.push(spec_ops);
        }
        StepLayout { ops, spans, segments, len: total }
    }

    /// Where grid `k` of spec `si` lives in the flat buffer.
    fn segment(&self, si: usize, k: usize) -> Range<usize> {
        let (off, nb) = self.spans[si];
        off + k * nb..off + (k + 1) * nb
    }

    /// The flat accumulator of a step, out of `arena`, seeded with the
    /// reduction identities — what a rank without tables contributes, and
    /// what a downloaded block leaves in every bin its table did not touch
    /// ([`Self::land_downloaded`]) — unless `dense_first`: the step's
    /// first table is a host pass, which writes every element
    /// ([`Self::land_host`]).
    pub fn flat(&self, arena: &StepArena, dense_first: bool) -> Vec<f64> {
        let mut flat = arena.take_flat(self.len);
        if !dense_first {
            for (si, ops) in self.ops.iter().enumerate() {
                for (k, vo) in ops.iter().enumerate() {
                    flat[self.segment(si, k)].fill(host_impl::identity(vo.op));
                }
            }
        }
        flat
    }

    /// Land spec `si`'s partial grids of one host pass in `flat`; `first`
    /// on the step's first table.
    pub fn land_host(&self, flat: &mut [f64], si: usize, first: bool, part: &FusedGrids) {
        for (k, grid) in part.grids() {
            reduce::land(self.ops[si][k].op, first, &mut flat[self.segment(si, k)], grid);
        }
    }

    /// Land the partial grids of one device kernel over `specs`,
    /// downloaded into `packed` ([`device_impl::bin_all_device`]'s
    /// block), in `flat`, grid by grid straight from the host view;
    /// `first` on the step's first table. A spec the block holds dense
    /// lands like a host pass's; one it holds sparse writes or merges its
    /// touched bins only, over the identities [`Self::flat`] seeded.
    pub fn land_downloaded(
        &self,
        flat: &mut [f64],
        specs: Range<usize>,
        first: bool,
        packed: &CellBuffer,
    ) -> Result<()> {
        let packed = packed.host_f64_ro().map_err(Error::Device)?;
        let shapes = specs.clone().map(|si| (self.ops[si].len(), self.spans[si].1));
        let parts = device_impl::spec_parts(&packed, shapes)?;
        for (si, part) in specs.zip(parts) {
            for (k, vo) in self.ops[si].iter().enumerate() {
                part.land(k, vo.op, first, &mut flat[self.segment(si, k)]);
            }
        }
        Ok(())
    }

    /// The step's single packed allreduce: the flat accumulator IS the
    /// collective's payload, one round covers every spec's grids.
    pub fn allreduce(&self, comm: &Comm, flat: Vec<f64>) -> Result<Vec<f64>> {
        comm.allreduce_packed(flat, &self.segments)
            .map_err(|e| Error::Analysis(format!("packed grid allreduce: {e}")))
    }

    /// Unpack the globally reduced buffer into one finalized result per
    /// spec, in spec order.
    pub fn publish(
        &self,
        specs: &[BinningSpec],
        grids: &[GridParams],
        merged: &[f64],
        data: &dyn DataAdaptor,
    ) -> Vec<BinnedResult> {
        let mut results = Vec::with_capacity(specs.len());
        for (si, (spec, grid)) in specs.iter().zip(grids).enumerate() {
            let counts = &merged[self.segment(si, 0)];
            let mut arrays = Vec::with_capacity(spec.ops.len());
            for (k, vo) in self.ops[si].iter().enumerate().skip(1) {
                let mut values = merged[self.segment(si, k)].to_vec();
                host_impl::finalize(vo.op, &mut values, counts);
                arrays.push((vo.output_name(), values));
            }
            results.push(BinnedResult {
                step: data.time_step(),
                time: data.time(),
                axes: spec.axes.clone(),
                grid: *grid,
                arrays,
            });
        }
        results
    }
}

/// The fused step over `specs` (which share one mesh), counting its work
/// into `counters`: a back-end's view of what the step reads, `Copy` so
/// every node of its task graph can hold one.
#[derive(Clone, Copy)]
pub(crate) struct FusedStep<'a> {
    pub specs: &'a [BinningSpec],
    pub counters: &'a AnalysisCounters,
}

impl<'a> FusedStep<'a> {
    /// Union of every spec's required variables, deduped in first-seen
    /// order (the shared per-step fetch list).
    pub fn union_variables(&self) -> Vec<&'a str> {
        let mut vars: Vec<&str> = Vec::new();
        for spec in self.specs {
            for v in spec.required_variables() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        vars
    }

    /// One fetch of the union of every spec's variables per table.
    pub fn fetch(
        &self,
        data: &dyn DataAdaptor,
        tables: &[TableData],
        device: Option<usize>,
    ) -> Result<Vec<Fetched>> {
        fetch_tables(data, tables, &self.union_variables(), device, self.counters)
    }

    /// Resolve every spec's grid. Manual bounds come straight from the
    /// spec; automatic bounds share one min/max stage per table over the
    /// union of auto-bounded axis columns (host: per-column traversals
    /// under one charge; device: one kernel) and a single packed allreduce
    /// across all of them.
    pub fn resolve_grids(
        &self,
        fetched: &[Fetched],
        device: Option<usize>,
        ctx: &ExecContext<'_>,
    ) -> Result<Vec<GridParams>> {
        // Unique axis columns of specs whose bounds are computed on the
        // fly (specs share axes across coordinate systems).
        let mut auto_cols: Vec<&str> = Vec::new();
        for spec in self.specs.iter().filter(|s| s.bounds.is_none()) {
            for ax in [spec.axes.0.as_str(), spec.axes.1.as_str()] {
                if !auto_cols.contains(&ax) {
                    auto_cols.push(ax);
                }
            }
        }

        let mut merged: HashMap<&str, (f64, f64)> = HashMap::new();
        if !auto_cols.is_empty() {
            let mut local = vec![(f64::INFINITY, f64::NEG_INFINITY); auto_cols.len()];
            for f in fetched {
                let pairs = match f {
                    Fetched::Host(table) => {
                        let cols: Vec<&[f64]> = auto_cols.iter().map(|c| &table[*c][..]).collect();
                        let total: usize = cols.iter().map(|c| c.len()).sum();
                        self.counters.add_table_passes(1);
                        ctx.node.host().run(
                            "bin_bounds_fused",
                            devsim::KernelCost::bytes((total * 8) as f64),
                            || bounds::minmax_multi(&cols),
                        )
                    }
                    Fetched::Device(views) => {
                        let d = device.expect("device fetch implies device placement");
                        let stream = ctx.node.device(d)?.default_stream();
                        let cols: Vec<&CellBuffer> =
                            auto_cols.iter().map(|c| views[*c].cells()).collect();
                        self.counters.add_kernel_launches(1);
                        self.counters.add_downloads(1);
                        device_impl::minmax_multi_device(ctx.node, d, &stream, &cols)?
                    }
                };
                for (acc, (lo, hi)) in local.iter_mut().zip(pairs) {
                    acc.0 = acc.0.min(lo);
                    acc.1 = acc.1.max(hi);
                }
            }
            let global = bounds::global_bounds_packed(ctx.comm, &local)?;
            for (col, pair) in auto_cols.iter().zip(global) {
                merged.insert(col, pair);
            }
        }

        Ok(self
            .specs
            .iter()
            .map(|spec| {
                let (bx, by) = spec.bounds.unwrap_or_else(|| {
                    let (xlo, xhi) = merged[spec.axes.0.as_str()];
                    let (ylo, yhi) = merged[spec.axes.1.as_str()];
                    let x = bounds::usable_range(xlo, xhi);
                    let y = bounds::usable_range(ylo, yhi);
                    ([x.0, x.1], [y.0, y.1])
                });
                spec.grid(bx, by)
            })
            .collect())
    }

    /// Local fused binning of every spec over every fetched table,
    /// accumulated into the arena's flat buffer laid out by `layout` — the
    /// exact payload of the step's packed allreduce. Each table is one
    /// pass: on a device, one kernel on the stream of the arena's pool
    /// with the least accumulated modeled cost, which fills the table's
    /// resident device block, of which as much as it filled is downloaded
    /// into its resident host block; all streams are synchronized once at
    /// the end, then the partials land straight from the host views.
    fn bin_local(
        &self,
        fetched: &[Fetched],
        grids: &[GridParams],
        layout: &StepLayout,
        device: Option<usize>,
        ctx: &ExecContext<'_>,
        arena: &StepArena,
    ) -> Result<Vec<f64>> {
        let mut flat = layout.flat(arena, matches!(fetched.first(), Some(Fetched::Host(_))));
        // Per table, the packed host block its download is landing in.
        let mut staged: Vec<CellBuffer> = Vec::new();
        let pool: Vec<Arc<Stream>> = match device.filter(|_| !fetched.is_empty()) {
            None => Vec::new(),
            Some(_) => arena.streams(ctx.node, fetched.len())?,
        };
        // Accumulated relative cost routed to each stream this step (the
        // streams drain fully at the step's closing synchronize, so loads
        // reset per call).
        let mut stream_loads = vec![0.0; pool.len()];
        let systems = self.specs.iter().zip(grids).zip(&layout.ops);
        let (names, pass) =
            plan_pass(systems.map(|((spec, grid), ops)| (&spec.axes, &ops[..], *grid)));
        let all = 0..self.specs.len();

        // Partials land table-major per grid, on either placement: the
        // first table seeds every segment, later ones merge in order.
        for (ti, f) in fetched.iter().enumerate() {
            match f {
                Fetched::Host(table) => {
                    self.counters.add_table_passes(1);
                    let mut scratch = arena.scratches().take();
                    host_pass(ctx.node, table, &names, &pass, |cols| {
                        host_impl::bin_all_host_each(cols, &pass, &mut scratch, |si, part| {
                            layout.land_host(&mut flat, si, ti == 0, part)
                        })
                    });
                    arena.scratches().give(scratch);
                }
                Fetched::Device(views) => {
                    let d = device.expect("device fetch implies device placement");
                    let cols: Vec<&CellBuffer> = names.iter().map(|n| views[*n].cells()).collect();
                    let kc = device_impl::pass_cost(cols.first().map_or(0, |c| c.len()), &pass);
                    let sidx = least_loaded_stream(&stream_loads);
                    stream_loads[sidx] += kc.flops + kc.bytes;
                    let stream = &pool[sidx];
                    let len = device_impl::block_len(&pass);
                    let slot = arena.slot(ctx.node, ti, d, len, stream)?;
                    let scratches = arena.scratches();
                    device_impl::bin_all_device(stream, &cols, &pass, &slot.packed, scratches)?;
                    stream.copy_counted(&slot.packed, &slot.host).map_err(Error::Device)?;
                    self.counters.add_kernel_launches(1);
                    self.counters.add_downloads(1);
                    staged.push(slot.host);
                }
            }
        }

        if !staged.is_empty() {
            for stream in &pool {
                stream.synchronize().map_err(Error::Device)?;
            }
            for (ti, host) in staged.iter().enumerate() {
                layout.land_downloaded(&mut flat, all.clone(), ti == 0, host)?;
            }
        }
        Ok(flat)
    }

    /// The whole step on `device`, in `arena`'s memory: fetch, resolve
    /// grids, bin locally, one packed allreduce — and, where `publish`
    /// says the rank has a consumer for them, one result per spec, in spec
    /// order (no results otherwise).
    pub fn run(
        &self,
        data: &dyn DataAdaptor,
        ctx: &ExecContext<'_>,
        device: Option<usize>,
        arena: &StepArena,
        publish: bool,
    ) -> Result<Vec<BinnedResult>> {
        arena.place(device);
        let tables = local_tables(&data.mesh(&self.specs[0].mesh)?)?;
        let fetched = self.fetch(data, &tables, device)?;
        let grids = self.resolve_grids(&fetched, device, ctx)?;
        let layout = StepLayout::new(self.specs, &grids);
        let flat = self.bin_local(&fetched, &grids, &layout, device, ctx, arena)?;
        // The last view of the fetched columns is gone: a snapshot whose
        // CoW shares they read in place may let go of them.
        drop(fetched);
        data.release_shared();
        let merged = layout.allreduce(ctx.comm, flat)?;
        let results =
            if publish { layout.publish(self.specs, &grids, &merged, data) } else { Vec::new() };
        arena.keep_flat(merged);
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulate routing a sequence of kernel costs over `n` streams and
    /// return each kernel's stream index.
    fn route(costs: &[f64], n: usize) -> Vec<usize> {
        let mut loads = vec![0.0; n];
        costs
            .iter()
            .map(|c| {
                let i = least_loaded_stream(&loads);
                loads[i] += c;
                i
            })
            .collect()
    }

    #[test]
    fn skewed_costs_split_heavy_kernels_across_streams() {
        // Heavy/light alternation over two streams: round-robin by
        // position would put both heavy kernels on stream 0; least-loaded
        // routing pairs each heavy kernel with a light one.
        let (heavy, light) = (1000.0, 1.0);
        let picks = route(&[heavy, light, heavy, light], 2);
        assert_eq!(picks, vec![0, 1, 1, 0]);
        let mut per_stream = [0.0f64; 2];
        for (pick, cost) in picks.iter().zip([heavy, light, heavy, light]) {
            per_stream[*pick] += cost;
        }
        assert_eq!(per_stream[0], per_stream[1], "loads must balance");
    }

    #[test]
    fn uniform_costs_degenerate_to_round_robin() {
        let picks = route(&[5.0; 8], 4);
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn ties_break_to_the_lowest_index() {
        assert_eq!(least_loaded_stream(&[2.0, 1.0, 1.0]), 1);
        assert_eq!(least_loaded_stream(&[0.0]), 0);
    }
}
