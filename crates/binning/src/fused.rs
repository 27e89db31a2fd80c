//! The fused binning step's stages, written once.
//!
//! A fused [`crate::BinningAnalysis`] runs each step as one sequence of
//! typed nodes (`crate::adaptor::dag`) over its specs — one for `data_binning`, N for
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
//!   sized by the pass's shape) and commits every spec's grids into one
//!   compacted block ([`crate::block`]) — each spec's touched bins only,
//!   or dense where that is smaller: on the host in one charged pass
//!   ([`host_impl::bin_all_block`]), on a device in one kernel
//!   ([`device_impl::bin_all_device`]) followed by one download of as much
//!   of the block as the kernel filled ([`devsim::Stream::copy_counted`]);
//! * each rank writes one cut of its tables' blocks per rank that owns some
//!   of the specs ([`StepLayout::owners`]), merged table-major straight
//!   from the blocks' parts; **one** reduce-scatter per step merges every
//!   rank's cut at its owner, each owner finalizes its specs straight from
//!   its merged block, and only the owners' finished results travel to
//!   rank 0, which delivers them;
//! * every grid-sized buffer on the way lives in the back-end's
//!   [`crate::arena::StepArena`] and is used again by the next step.

use std::collections::HashMap;
use std::ops::Range;

use devsim::{CellBuffer, ReadView};
use sensei::{AnalysisCounters, DataAdaptor, ExecContext, Result};
use svtk::TableData;

use crate::adaptor::{fetch_tables, BinnedResult, Fetched};
use crate::block;
use crate::bounds;
use crate::device_impl;
use crate::grid::GridParams;
use crate::host_impl::{self, PassSpec};
use crate::spec::{BinOp, BinningSpec, VarOp};

/// The ops of `spec`, counts first (the per-op path's grids, one per
/// listed op).
pub(crate) fn spec_ops(spec: &BinningSpec) -> Vec<VarOp> {
    let mut ops = vec![VarOp { var: String::new(), op: BinOp::Count }];
    ops.extend(spec.ops.iter().cloned());
    ops
}

/// The grids the fused step accumulates for `spec`: the implicit count
/// grid first, then every listed op that is not a count. An explicit
/// `count()` reads grid 0 wherever it is listed ([`StepLayout::publish`]).
pub(crate) fn grid_ops(spec: &BinningSpec) -> Vec<VarOp> {
    let count = VarOp { var: String::new(), op: BinOp::Count };
    let others = spec.ops.iter().filter(|vo| vo.op != BinOp::Count).cloned();
    std::iter::once(count).chain(others).collect()
}

/// How many grids [`grid_ops`] lays out for `spec`.
pub(crate) fn num_grids(spec: &BinningSpec) -> usize {
    1 + spec.ops.iter().filter(|vo| vo.op != BinOp::Count).count()
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

/// A step's resolved grids and the shape of its blocks: every spec's
/// grids ([`grid_ops`]: one count grid, then the other ops), in spec
/// order. Blocks of this shape carry a step's partial grids from the table
/// kernels to the grid reduce-scatter, which leaves each rank the merged
/// block of the specs it owns ([`StepLayout::owners`]) to publish
/// ([`crate::block`]).
pub(crate) struct StepLayout {
    /// Per spec, its resolved grid.
    pub grids: Vec<GridParams>,
    /// Per spec, its [`grid_ops`]: the count grid first, then every op
    /// that is not a count.
    pub ops: Vec<Vec<VarOp>>,
    /// Every spec's grids as one pass: the shape of the step's blocks.
    pub pass: Vec<PassSpec>,
}

impl StepLayout {
    /// The step's block shape over the resolved `grids`.
    pub fn new(specs: &[BinningSpec], grids: Vec<GridParams>) -> Self {
        let ops: Vec<Vec<VarOp>> = specs.iter().map(grid_ops).collect();
        let systems = specs.iter().zip(&ops).zip(&grids);
        let (_, pass) = plan_pass(systems.map(|((spec, ops), &grid)| (&spec.axes, &ops[..], grid)));
        StepLayout { grids, ops, pass }
    }

    /// Which coordinate systems the owners among `ranks` ranks merge and
    /// finalize: one contiguous range each for ranks `0..min(ranks, specs)`,
    /// balanced by dense cells (ops × bins); every other rank owns none
    /// ([`deal`]).
    pub fn owners(&self, ranks: usize) -> Vec<Range<usize>> {
        let cells: Vec<usize> = self.pass.iter().map(|s| s.ops.len() * s.grid.num_bins()).collect();
        deal(&cells, ranks)
    }

    /// Publish `owned`, the globally merged block of the specs in `range`,
    /// as one finalized result per spec, in spec order, with one array per
    /// listed op in listed order: every `count()` reads the spec's count
    /// grid.
    pub fn publish(
        &self,
        specs: &[BinningSpec],
        range: Range<usize>,
        owned: &[f64],
        data: &dyn DataAdaptor,
    ) -> Result<Vec<BinnedResult>> {
        let parts = block::spec_parts(owned, block::shapes(&self.pass[range.clone()]))?;
        let mut results = Vec::with_capacity(range.len());
        for ((spec, grid), part) in specs[range.clone()].iter().zip(&self.grids[range]).zip(parts) {
            let mut arrays = Vec::with_capacity(spec.ops.len());
            let mut k = 0;
            for vo in &spec.ops {
                if vo.op != BinOp::Count {
                    k += 1;
                }
                let g = if vo.op == BinOp::Count { 0 } else { k };
                arrays.push((vo.output_name(), part.finalized(g, vo.op, grid.num_bins())));
            }
            results.push(BinnedResult {
                step: data.time_step(),
                time: data.time(),
                axes: spec.axes.clone(),
                grid: *grid,
                arrays,
            });
        }
        Ok(results)
    }
}

/// Deal specs of `cells` dense cells each over `ranks` ranks as contiguous
/// ranges: ranks `0..min(ranks, specs)` own at least one spec each, and
/// the boundary after rank `k` is the last that gives ranks `0..=k` no more
/// than their even share of the cells, so a remainder goes to the higher
/// ranks — rank 0 also gathers and delivers the results. One range per
/// owner: every other rank owns nothing.
pub(crate) fn deal(cells: &[usize], ranks: usize) -> Vec<Range<usize>> {
    let (n, owners) = (cells.len(), ranks.min(cells.len()));
    let total: usize = cells.iter().sum();
    let prefix: Vec<usize> = std::iter::once(0)
        .chain(cells.iter().scan(0, |sum, &c| {
            *sum += c;
            Some(*sum)
        }))
        .collect();
    let mut start = 0;
    (0..owners)
        .map(|k| {
            let end = match k + 1 < owners {
                // Leave every later owner a spec of its own.
                true => (start + 1..=n - (owners - k - 1))
                    .rev()
                    .find(|&b| prefix[b] * owners <= (k + 1) * total)
                    .unwrap_or(start + 1),
                false => n,
            };
            let range = start..end;
            start = end;
            range
        })
        .collect()
}

/// The fused step over `specs` (which share one mesh), counting its work
/// into `counters`: a back-end's view of what the step reads, `Copy` so
/// every node of the step can hold one.
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
                    acc.0 = devsim::min_select(acc.0, lo);
                    acc.1 = devsim::max_select(acc.1, hi);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_dealt_in_contiguous_runs_balanced_by_cells_the_remainder_high() {
        // Nine equal specs on two ranks: four, then five.
        assert_eq!(deal(&[10; 9], 2), [0..4, 4..9]);
        // Two specs on four ranks: one each, and two ranks own nothing.
        assert_eq!(deal(&[10, 10], 4), [0..1, 1..2]);
        // Cells, not specs, are balanced; every owner keeps at least one.
        assert_eq!(deal(&[40, 10, 10, 10, 10], 2), [0..1, 1..5]);
        assert_eq!(deal(&[100, 1, 1], 3), [0..1, 1..2, 2..3]);
        assert_eq!(deal(&[1, 1, 1, 1, 100], 2), [0..4, 4..5]);
        assert_eq!(deal(&[7], 3), vec![0..1]);
    }

    #[test]
    fn an_explicit_count_reads_the_one_count_grid_of_its_spec() {
        let op = |var: &str, op| VarOp { var: var.into(), op };
        let lists = [
            vec![op("", BinOp::Count), op("m", BinOp::Sum)],
            vec![op("m", BinOp::Sum), op("", BinOp::Count), op("m", BinOp::Min)],
            vec![op("", BinOp::Count), op("m", BinOp::Max), op("", BinOp::Count)],
            vec![op("m", BinOp::Average)],
        ];
        let specs: Vec<BinningSpec> =
            lists.into_iter().map(|ops| BinningSpec::new("bodies", ("x", "y"), 3, ops)).collect();
        let grids = specs.iter().map(|s| s.grid([0.0, 1.0], [0.0, 1.0])).collect();
        let layout = StepLayout::new(&specs, grids);
        for (si, spec) in specs.iter().enumerate() {
            let ops = &layout.ops[si];
            assert_eq!(ops.iter().filter(|vo| vo.op == BinOp::Count).count(), 1, "spec {si}");
            assert_eq!(ops[0].op, BinOp::Count, "spec {si}: the count grid comes first");
            assert_eq!(ops.len(), num_grids(spec), "spec {si}");
            let listed: Vec<_> = spec.ops.iter().filter(|vo| vo.op != BinOp::Count).collect();
            assert!(ops[1..].iter().eq(listed), "spec {si}: every other op, in listed order");
        }
        let grids: usize = specs.iter().map(num_grids).sum();
        assert_eq!(grids, 2 + 3 + 2 + 2);
        let pass_grids: usize = layout.pass.iter().map(|p| p.ops.len()).sum();
        assert_eq!((pass_grids, block::block_len(&layout.pass)), (grids, 1 + 4 + grids * 9));
    }
}
