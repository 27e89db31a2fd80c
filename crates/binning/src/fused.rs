//! The fused binning step's stages, written once.
//!
//! A fused [`crate::BinningAnalysis`] plans each step as one task graph
//! (`crate::adaptor::dag`) over its specs — one for `data_binning`, N for
//! `binning_suite` — whose nodes call these stages through the
//! [`FusedStep`] view:
//!
//! * the union of every spec's required variables is fetched/moved
//!   **once per table per step** and shared across all specs;
//! * auto-computed axis bounds for **all** specs share one min/max stage
//!   per table (on the host one charge over a per-column traversal, on a
//!   device one kernel) and one packed bounds allreduce;
//! * nothing fetched is copied: a host-placed step reads every column
//!   through a read view of the memory the access API granted, a
//!   device-placed one through kernel views;
//! * a kernel node walks its table **once** for every spec it covers
//!   (shared axis indices, one value gather per row block, the blocks
//!   sized by the pass's shape): on the host in one charged pass, on a
//!   device in one kernel that commits every spec's grids into one packed
//!   block — each spec's touched bins only, or dense where that is smaller
//!   ([`device_impl::bin_all_device`]) — followed by one download of as
//!   much of the block as the kernel filled ([`devsim::Stream::copy_counted`]);
//! * every spec's grids (counts + ops) accumulate in a single segmented
//!   buffer that is reduced with **one** allreduce per step;
//! * every grid-sized buffer on the way lives in the back-end's
//!   [`crate::arena::StepArena`] and each hop writes where the next one
//!   reads: a table's first partial is *written* to its segment of the
//!   flat buffer — every bin of a host pass's, the touched bins of a
//!   downloaded block's over the identities the flat is seeded with (a
//!   kernel's partial starts from the reduction identities, so merging it
//!   into an identity grid would change no bit of it) — later tables
//!   merge, and the reduced buffer comes back as the next step's flat.

use std::collections::HashMap;
use std::ops::Range;

use devsim::{CellBuffer, ReadView};
use minimpi::{Comm, Segment};
use sensei::{AnalysisCounters, DataAdaptor, Error, ExecContext, Result};
use svtk::TableData;

use crate::adaptor::{fetch_tables, BinnedResult, Fetched};
use crate::arena::StepArena;
use crate::bounds;
use crate::device_impl;
use crate::grid::GridParams;
use crate::host_impl::{self, FusedGrids, PassSpec};
use crate::reduce;
use crate::spec::{BinOp, BinningSpec, VarOp};

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

/// A step's resolved grids and the layout of its flat accumulation
/// buffer: every spec's grids (counts first) laid back to back. The flat
/// buffer doubles as the packed-collective payload, so local
/// accumulation, the allreduce, and the unpack all work on one allocation
/// with no repacking.
pub(crate) struct StepLayout {
    /// Per spec, its resolved grid.
    pub grids: Vec<GridParams>,
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
    /// The step's flat-buffer layout over the resolved `grids`.
    pub fn new(specs: &[BinningSpec], grids: Vec<GridParams>) -> Self {
        let mut ops = Vec::with_capacity(specs.len());
        let mut spans = Vec::with_capacity(specs.len());
        let mut segments = Vec::new();
        let mut total = 0;
        for (spec, grid) in specs.iter().zip(&grids) {
            spans.push((total, grid.num_bins()));
            let spec_ops = spec_ops(spec);
            for vo in &spec_ops {
                segments.push(Segment::new(reduce::segment_op(vo.op), grid.num_bins()));
                total += grid.num_bins();
            }
            ops.push(spec_ops);
        }
        StepLayout { grids, ops, spans, segments, len: total }
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
        merged: &[f64],
        data: &dyn DataAdaptor,
    ) -> Vec<BinnedResult> {
        let mut results = Vec::with_capacity(specs.len());
        for (si, (spec, grid)) in specs.iter().zip(&self.grids).enumerate() {
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
        let mut vars = Vec::new();
        for v in self.specs.iter().flat_map(BinningSpec::required_variables) {
            host_impl::intern(&mut vars, v);
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
            host_impl::intern(&mut auto_cols, &spec.axes.0);
            host_impl::intern(&mut auto_cols, &spec.axes.1);
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
}
