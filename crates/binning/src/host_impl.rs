//! The host (CPU) binning implementation and the blocked fused core the
//! device kernel shares.
//!
//! The kernels read plain `&[f64]` columns: a host read view of the
//! producer's own allocation and a device kernel's read view both deref
//! to one ([`devsim::ReadView`]), so the row loops are written — and
//! compiled — once.

use parking_lot::Mutex;

use crate::grid::GridParams;
use crate::spec::BinOp;

/// Initial value for a reduction's accumulation buffer.
pub fn identity(op: BinOp) -> f64 {
    match op {
        BinOp::Count | BinOp::Sum | BinOp::Average => 0.0,
        BinOp::Min => f64::INFINITY,
        BinOp::Max => f64::NEG_INFINITY,
    }
}

/// Fold one value into an accumulator.
#[inline]
pub fn accumulate(op: BinOp, acc: f64, v: f64) -> f64 {
    match op {
        BinOp::Count => acc + 1.0,
        BinOp::Sum | BinOp::Average => acc + v,
        BinOp::Min => acc.min(v),
        BinOp::Max => acc.max(v),
    }
}

/// The column `op` reduces, checked against the `rows` coordinate rows;
/// `None` for counts, which read no values.
fn value_column(op: BinOp, values: Option<&[f64]>, rows: usize) -> Option<&[f64]> {
    if op == BinOp::Count {
        return None;
    }
    let v = values.unwrap_or_else(|| panic!("operation {} needs a value column", op.name()));
    assert_eq!(v.len(), rows, "value column must be co-occurring");
    Some(v)
}

/// Bin one variable on the host — the per-op reference kernel: returns
/// the per-bin accumulation buffer (average returns the running sum;
/// finalize with the count separately).
///
/// `values` is ignored for [`BinOp::Count`]. Rows outside the mesh are
/// dropped, as in the paper's implementation.
///
/// # Panics
/// Panics when the coordinate columns' lengths differ, a non-count
/// reduction's value column is missing, or its length differs from the
/// coordinates.
pub fn bin_host(
    xs: &[f64],
    ys: &[f64],
    values: Option<&[f64]>,
    op: BinOp,
    grid: &GridParams,
) -> Vec<f64> {
    assert_eq!(xs.len(), ys.len(), "coordinate columns must be co-occurring");
    let values = value_column(op, values, xs.len());
    let mut bins = vec![identity(op); grid.num_bins()];
    for i in 0..xs.len() {
        if let Some(b) = grid.bin_index(xs[i], ys[i]) {
            bins[b] = accumulate(op, bins[b], values.map_or(0.0, |v| v[i]));
        }
    }
    bins
}

/// One coordinate system of a fused pass, its columns given as indices
/// into the pass's column list.
#[derive(Debug, Clone, PartialEq)]
pub struct PassSpec {
    /// The two axis columns.
    pub axes: [usize; 2],
    /// The binning mesh.
    pub grid: GridParams,
    /// Each reduction with its value column (`None` for [`BinOp::Count`]).
    pub ops: Vec<(BinOp, Option<usize>)>,
}

/// The row count of a pass over columns whose lengths `len` looks up, or
/// why the pass is malformed.
pub(crate) fn pass_rows(len: impl Fn(usize) -> usize, specs: &[PassSpec]) -> Result<usize, String> {
    let rows = specs.first().map_or(0, |s| len(s.axes[0]));
    for spec in specs {
        if spec.axes.iter().any(|&c| len(c) != rows) {
            return Err("coordinate columns must be co-occurring".into());
        }
        for &(op, values) in spec.ops.iter().filter(|(op, _)| *op != BinOp::Count) {
            match values {
                Some(c) if len(c) == rows => {}
                Some(_) => return Err("value column must be co-occurring".into()),
                None => return Err(format!("operation {} needs a value column", op.name())),
            }
        }
    }
    Ok(rows)
}

/// Rows per block of a pass whose accumulators stay cache-resident — or
/// cannot be: the block's axis indices and staged values never leave L1.
const TILE: usize = 256;

/// Rows per block of a pass whose accumulators rotate each other out of
/// the cache (see [`block_rows`]).
const BLOCK: usize = 16_384;

/// The per-core L2 the measurements in [`block_rows`] were taken on.
const L2_BYTES: usize = 2 << 20;

/// Rows per block of [`bin_all_host`]'s walk, from the pass's own shape.
///
/// A block is indexed, gathered, and then folded into one spec's
/// accumulator after another, so between two folds into the same
/// accumulator every other spec's has been walked. While the accumulators
/// together fit L2 that rotation costs nothing and the short [`TILE`]
/// wins. Once they outgrow it, a short block makes nearly every fold a
/// miss — the other accumulators evicted this one since its last 256
/// rows — so the rows are walked [`BLOCK`] at a time: long enough that an
/// accumulator is re-used from L2 while its block folds, at the price of
/// an index and a stage that no longer fit L1. That price buys nothing
/// for an accumulator too large to stay in L2 beside a block's stage —
/// it misses in any order — nor for a one-spec pass, whose accumulator
/// nothing rotates out.
///
/// Measured on 131 072 rows x 12 columns, specs of 11 slots, one thread,
/// 2 MiB L2, whole pass, 256 against 16 384 rows per block:
///
/// | pass                              | accumulators | 256      | 16 384   |
/// |-----------------------------------|--------------|----------|----------|
/// | nine specs, 64 x 64 bins          | 2.9 MB       | 23-24 ms | 16-22 ms |
/// | the same nine, one pass each      | 9 x 327 KB   | 20-22 ms | 42-52 ms |
/// | three / five of them              | 1.1 / 1.8 MB | 4.5-6.4 / 10-12 ms | 6.2-7.7 / 10-11 ms |
/// | six / seven of them               | 2.2 / 2.5 MB | 12-13 / 16-18 ms | 12 / 13-15 ms |
/// | nine specs, 96 x 96 bins          | 9 x 811 KB   | 25-42 ms | 22-27 ms |
/// | two specs, 128 x 128 bins         | 2 x 1.4 MB   | 5.8-6.4 ms | 7.3-7.7 ms |
///
/// 16 384 was the best of 256, 2 048, 8 192, 16 384 and 32 768 on the
/// first row, 8 192 within noise of it.
fn block_rows(specs: &[PassSpec]) -> usize {
    let acc_bytes = |s: &PassSpec| s.ops.len() * s.grid.num_bins() * 8;
    let total: usize = specs.iter().map(acc_bytes).sum();
    let largest = specs.iter().map(acc_bytes).max().unwrap_or(0);
    if total > L2_BYTES && largest <= L2_BYTES / 2 {
        BLOCK
    } else {
        TILE
    }
}

/// The position of `key` in `pool`, appended when new.
pub(crate) fn intern<T: PartialEq>(pool: &mut Vec<T>, key: T) -> usize {
    pool.iter().position(|k| *k == key).unwrap_or_else(|| {
        pool.push(key);
        pool.len() - 1
    })
}

/// Fold one block into a spec's accumulator: row `r` of the row-major
/// `stage` goes to bin `iy[r] * nx + ix[r]` of the bin-major `acc`. Both
/// hold `width` slots per row — adds up to `adds`, mins up to `mins`,
/// maxes after. Out of line so the slices keep their no-alias guarantee
/// and the three loops vectorize without overlap checks.
#[inline(never)]
fn fold_tile(
    acc: &mut [f64],
    stage: &[f64],
    ix: &[u32],
    iy: &[u32],
    nx: usize,
    [adds, mins, width]: [usize; 3],
) {
    if width == 0 {
        return;
    }
    assert!(adds <= mins && mins <= width, "slot groups are ordered");
    for ((&i, &j), row) in ix.iter().zip(iy).zip(stage.chunks_exact(width)) {
        if i.max(j) == u32::MAX {
            continue;
        }
        let acc = &mut acc[(j as usize * nx + i as usize) * width..][..width];
        let (acc_add, acc_rest) = acc.split_at_mut(adds);
        let (acc_min, acc_max) = acc_rest.split_at_mut(mins - adds);
        let (row_add, row_rest) = row.split_at(adds);
        let (row_min, row_max) = row_rest.split_at(mins - adds);
        acc_add.iter_mut().zip(row_add).for_each(|(a, v)| *a += *v);
        acc_min.iter_mut().zip(row_min).for_each(|(a, v)| *a = a.min(*v));
        acc_max.iter_mut().zip(row_max).for_each(|(a, v)| *a = a.max(*v));
    }
}

/// One spec's grids out of [`bin_all_host`], still in the kernel's
/// op-interleaved layout (`[bin][slot]`): read them through
/// [`FusedGrids::grids`], [`FusedGrids::rows`], or [`FusedGrids::packed`]
/// for `[op][bin]`.
#[derive(Default)]
pub struct FusedGrids {
    /// `order[slot]` is the op (an index into `spec.ops`) a slot accumulates.
    order: Vec<usize>,
    /// One bin's worth of reduction identities, in slot order.
    identities: Vec<f64>,
    acc: Vec<f64>,
    axes: [usize; 2],
    stage: usize,
    /// End of the add slots, end of the min slots, slot count.
    ends: [usize; 3],
}

/// One op's grid inside a [`FusedGrids`], bin by bin.
pub type Grid<'a> =
    std::iter::Copied<std::iter::StepBy<std::iter::Skip<std::slice::Iter<'a, f64>>>>;

impl FusedGrids {
    /// Every op's grid as `(index into spec.ops, cells)` — each op once,
    /// in the accumulator's slot order, not in `spec.ops` order.
    pub fn grids(&self) -> impl Iterator<Item = (usize, Grid<'_>)> {
        let width = self.order.len();
        self.order
            .iter()
            .enumerate()
            .map(move |(s, &op)| (op, self.acc.iter().skip(s).step_by(width).copied()))
    }

    /// The accumulator as it lies in memory — one row per bin, one value
    /// per slot — and the op (an index into `spec.ops`) of each slot.
    pub fn rows(&self) -> (&[f64], &[usize]) {
        (&self.acc, &self.order)
    }

    /// The grids packed back to back in `spec.ops` order (`[op][bin]`).
    pub fn packed(&self) -> Vec<f64> {
        let bins = self.acc.len() / self.order.len().max(1);
        let mut packed = vec![0.0; self.acc.len()];
        for (op, grid) in self.grids() {
            packed[op * bins..][..bins].iter_mut().zip(grid).for_each(|(p, a)| *p = a);
        }
        packed
    }
}

/// Everything [`bin_all_host`] allocates: the per-spec plans with their
/// accumulators, the block's axis indices and staged values. A caller that
/// keeps one across launches pays for them once; each launch re-plans and
/// re-initialises them in place.
#[derive(Default)]
pub struct KernelScratch {
    axes: Vec<(usize, f64, f64, usize)>,
    stages: Vec<Vec<Option<usize>>>,
    plans: Vec<FusedGrids>,
    index: Vec<u32>,
    staged: Vec<Vec<f64>>,
    /// The one accumulator every spec of a one-block pass folds into when
    /// its grids are handed over rather than kept.
    shared: Vec<f64>,
}

impl KernelScratch {
    /// The grids of the last pass run in this scratch, one per spec.
    pub fn grids(&self) -> &[FusedGrids] {
        &self.plans
    }
}

/// [`KernelScratch`]es between launches. A launch takes one — a fresh one
/// when every pooled scratch is in use — and gives it back when its grids
/// have been read, so the pool grows to the launches in flight and then
/// stops allocating.
#[derive(Default)]
pub struct ScratchPool(Mutex<Vec<KernelScratch>>);

impl ScratchPool {
    /// A scratch nobody else holds.
    pub fn take(&self) -> KernelScratch {
        self.0.lock().pop().unwrap_or_default()
    }

    /// Return `scratch` for the next launch.
    pub fn give(&self, scratch: KernelScratch) {
        self.0.lock().push(scratch);
    }

    /// Free every pooled scratch.
    pub fn clear(&self) {
        self.0.lock().clear();
    }
}

/// Fused blocked binning of every spec in `specs` over one table's `cols`,
/// in `scratch`: per spec, the grids of its ops.
///
/// The rows are walked once, a block (`block_rows`) at a time. Per
/// block, (1) each **unique** axis `(column, lo, hi, cells)` is
/// range-checked and indexed once, whatever number of specs share it; (2)
/// the value columns are gathered once into a row-major stage whose slots
/// are a spec's ops grouped by kind — adds (count stages `1.0`), then
/// mins, then maxes — shared by every spec with the same op list; (3)
/// each spec folds its in-range rows into a private bin-major accumulator
/// `[bin][slot]` with three branch-free slice loops. That layout is the
/// kernel's own choice; [`FusedGrids`] hands the grids out op by op.
///
/// Every `(op, bin)` accumulator starts at its reduction identity and
/// folds its rows in ascending row order with the per-op kernel's own
/// operations, so each grid is **bit-identical** to [`bin_host`] over the
/// same logical values, whatever the column storage — and combining it
/// with an identity grid changes no bit of it.
///
/// # Panics
/// Panics when the columns a spec reads differ in length or a non-count
/// reduction has no value column.
pub fn bin_all_host<'s>(
    cols: &[&[f64]],
    specs: &[PassSpec],
    scratch: &'s mut KernelScratch,
) -> &'s [FusedGrids] {
    pass(cols, specs, scratch, true, |_, _| {});
    &scratch.plans
}

/// [`bin_all_host`] for a caller that consumes each spec's grids at once:
/// `done` gets them (with the spec's index in `specs`, in ascending order)
/// as soon as the spec's last row is folded, and they are not kept.
///
/// An accumulator is initialised right before its first fold and handed
/// over right after its last, so a consumer that reads it there — the
/// device commit, the landing in the step's flat buffer — finds it in
/// cache. On a table of one block that is the whole life of an
/// accumulator, and every spec then folds into the same one: the pass
/// touches one accumulator's worth of memory, hot, instead of all of them.
pub fn bin_all_host_each(
    cols: &[&[f64]],
    specs: &[PassSpec],
    scratch: &mut KernelScratch,
    done: impl FnMut(usize, &FusedGrids),
) {
    pass(cols, specs, scratch, false, done);
}

/// The pass behind [`bin_all_host`] (`keep`: every spec's grids stay in
/// `scratch`) and [`bin_all_host_each`].
fn pass(
    cols: &[&[f64]],
    specs: &[PassSpec],
    scratch: &mut KernelScratch,
    keep: bool,
    mut done: impl FnMut(usize, &FusedGrids),
) {
    let rows = pass_rows(|c| cols[c].len(), specs).unwrap_or_else(|e| panic!("{e}"));
    let KernelScratch { axes, stages, plans, index, staged, shared } = scratch;

    // An empty table is one block of no rows: every spec still gets its
    // identities and its `done`.
    let block = block_rows(specs);
    let tile = block.min(rows).max(1);
    let blocks = rows.div_ceil(block).max(1);
    // Grids that are handed over and complete after the only block can
    // all be accumulated in one buffer, spec after spec.
    let share = !keep && blocks == 1;

    axes.clear();
    stages.clear();
    plans.resize_with(specs.len(), FusedGrids::default);
    for (plan, spec) in plans.iter_mut().zip(specs) {
        let g = &spec.grid;
        assert!(g.nx.max(g.ny) < u32::MAX as usize, "axis resolution exceeds the index scratch");
        let kind = |k: &usize| match spec.ops[*k].0 {
            BinOp::Count | BinOp::Sum | BinOp::Average => 0,
            BinOp::Min => 1,
            BinOp::Max => 2,
        };
        let FusedGrids { order, identities, acc, .. } = plan;
        order.clear();
        order.extend(0..spec.ops.len());
        order.sort_by_key(kind);
        plan.ends = [1, 2, 3].map(|k| order.partition_point(|o| kind(o) < k));
        let slots = order.iter().map(|&k| spec.ops[k].1.filter(|_| spec.ops[k].0 != BinOp::Count));
        plan.stage = intern(stages, slots.collect());
        plan.axes = [
            intern(axes, (spec.axes[0], g.lo[0], g.hi[0], g.nx)),
            intern(axes, (spec.axes[1], g.lo[1], g.hi[1], g.ny)),
        ];
        identities.clear();
        identities.extend(order.iter().map(|&k| identity(spec.ops[k].0)));
        if !share {
            acc.resize(identities.len() * g.num_bins(), 0.0);
        }
    }

    // Out-of-range rows are marked `u32::MAX`; count slots keep their 1.0.
    index.clear();
    index.resize(axes.len() * tile, u32::MAX);
    staged.resize_with(stages.len(), Vec::new);
    for (slots, stage) in stages.iter().zip(staged.iter_mut()) {
        stage.clear();
        stage.resize(slots.len() * tile, 1.0);
    }
    for b in 0..blocks {
        let start = b * block;
        let m = tile.min(rows - start);
        let rows = start..start + m;
        for (&(c, lo, hi, cells), out) in axes.iter().zip(index.chunks_mut(tile)) {
            let (span, scale, last) = (hi - lo, cells as f64, (cells - 1) as u32);
            for (out, &v) in out.iter_mut().zip(&cols[c][rows.clone()]) {
                let i = (((v - lo) / span * scale) as u32).min(last);
                *out = if v.is_finite() && v >= lo && v <= hi { i } else { u32::MAX };
            }
        }
        for (slots, stage) in stages.iter().zip(staged.iter_mut()) {
            for (s, c) in slots.iter().enumerate() {
                let Some(col) = c.map(|c| &cols[c][rows.clone()]) else { continue };
                for (row, &v) in stage.chunks_exact_mut(slots.len()).zip(col) {
                    row[s] = v;
                }
            }
        }
        for (si, (plan, spec)) in plans.iter_mut().zip(specs).enumerate() {
            if share {
                // The spec borrows the shared accumulator for its one block.
                std::mem::swap(&mut plan.acc, shared);
                plan.acc.resize(plan.identities.len() * spec.grid.num_bins(), 0.0);
            }
            if b == 0 && !plan.identities.is_empty() {
                let width = plan.identities.len();
                plan.acc
                    .chunks_exact_mut(width)
                    .for_each(|bin| bin.copy_from_slice(&plan.identities));
            }
            let [ix, iy] = plan.axes.map(|a| &index[a * tile..][..m]);
            fold_tile(&mut plan.acc, &staged[plan.stage], ix, iy, spec.grid.nx, plan.ends);
            if b + 1 == blocks {
                done(si, plan);
            }
            if share {
                std::mem::swap(&mut plan.acc, shared);
            }
        }
    }
}

/// Finalize an accumulation buffer into presentable values:
/// * min/max: bins that never saw a value become NaN;
/// * average: running sum divided by count (NaN where count is zero);
/// * count/sum: unchanged.
pub fn finalize(op: BinOp, bins: &mut [f64], counts: &[f64]) {
    match op {
        BinOp::Count | BinOp::Sum => {}
        BinOp::Min => {
            for b in bins.iter_mut() {
                if *b == f64::INFINITY {
                    *b = f64::NAN;
                }
            }
        }
        BinOp::Max => {
            for b in bins.iter_mut() {
                if *b == f64::NEG_INFINITY {
                    *b = f64::NAN;
                }
            }
        }
        BinOp::Average => {
            assert_eq!(bins.len(), counts.len(), "average needs a matching count buffer");
            for (b, &c) in bins.iter_mut().zip(counts) {
                *b = if c > 0.0 { *b / c } else { f64::NAN };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2x2() -> GridParams {
        GridParams::new(2, 2, [0.0, 0.0], [2.0, 2.0])
    }

    // Four points, one per quadrant cell, values 10/20/30/40.
    const XS: [f64; 4] = [0.5, 1.5, 0.5, 1.5];
    const YS: [f64; 4] = [0.5, 0.5, 1.5, 1.5];
    const VS: [f64; 4] = [10.0, 20.0, 30.0, 40.0];

    #[test]
    fn count_histogram() {
        let bins = bin_host(&XS[..], &YS[..], None, BinOp::Count, &grid2x2());
        assert_eq!(bins, vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn sum_per_bin() {
        let bins = bin_host(&XS[..], &YS[..], Some(&VS[..]), BinOp::Sum, &grid2x2());
        assert_eq!(bins, vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn min_max_and_empty_bins() {
        // All four points into cell 0.
        let xs = &[0.1, 0.2, 0.3, 0.4][..];
        let ys = &[0.1, 0.2, 0.3, 0.4][..];
        let g = grid2x2();
        let mut mins = bin_host(xs, ys, Some(&VS[..]), BinOp::Min, &g);
        let mut maxs = bin_host(xs, ys, Some(&VS[..]), BinOp::Max, &g);
        let counts = bin_host(xs, ys, None, BinOp::Count, &g);
        finalize(BinOp::Min, &mut mins, &counts);
        finalize(BinOp::Max, &mut maxs, &counts);
        assert_eq!(mins[0], 10.0);
        assert_eq!(maxs[0], 40.0);
        for b in 1..4 {
            assert!(mins[b].is_nan(), "empty bin min must be NaN");
            assert!(maxs[b].is_nan(), "empty bin max must be NaN");
        }
    }

    #[test]
    fn average_divides_by_count() {
        let xs = &[0.5, 0.6, 1.5][..];
        let ys = &[0.5, 0.6, 1.7][..];
        let vs = &[2.0, 4.0, 9.0][..];
        let g = grid2x2();
        let counts = bin_host(xs, ys, None, BinOp::Count, &g);
        let mut avg = bin_host(xs, ys, Some(vs), BinOp::Average, &g);
        finalize(BinOp::Average, &mut avg, &counts);
        assert_eq!(avg[0], 3.0);
        assert_eq!(avg[3], 9.0);
        assert!(avg[1].is_nan() && avg[2].is_nan());
    }

    #[test]
    fn out_of_range_rows_are_dropped() {
        let xs = &[0.5, 10.0, f64::NAN][..];
        let ys = &[0.5, 0.5, 0.5][..];
        let vs = &[1.0, 2.0, 3.0][..];
        let bins = bin_host(xs, ys, Some(vs), BinOp::Sum, &grid2x2());
        assert_eq!(bins.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn empty_input_yields_identity_grid() {
        let bins = bin_host(&[], &[], None, BinOp::Count, &grid2x2());
        assert_eq!(bins, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "co-occurring")]
    fn mismatched_columns_panic() {
        bin_host(&[1.0], &[1.0, 2.0], None, BinOp::Count, &grid2x2());
    }

    const ALL: [BinOp; 5] = [BinOp::Count, BinOp::Sum, BinOp::Min, BinOp::Max, BinOp::Average];

    /// One fused pass of `ops` (all reducing `vs`) over the `xs`/`ys`
    /// axes, split into per-op grids.
    fn fused(
        xs: &[f64],
        ys: &[f64],
        vs: Option<&[f64]>,
        ops: &[BinOp],
        g: &GridParams,
    ) -> Vec<Vec<f64>> {
        let value = |op| if op == BinOp::Count { None } else { vs.map(|_| 2) };
        let spec = PassSpec {
            axes: [0, 1],
            grid: *g,
            ops: ops.iter().map(|&op| (op, value(op))).collect(),
        };
        let mut scratch = KernelScratch::default();
        let packed = bin_all_host(&[xs, ys, vs.unwrap_or(xs)], &[spec], &mut scratch)[0].packed();
        packed.chunks(g.num_bins()).map(<[f64]>::to_vec).collect()
    }

    fn bits(grid: &[f64]) -> Vec<u64> {
        grid.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fused_pass_matches_per_op_reference_bitwise() {
        let g = grid2x2();
        let grids = fused(&XS[..], &YS[..], Some(&VS[..]), &ALL, &g);
        for (op, grid) in ALL.iter().zip(&grids) {
            let reference = bin_host(&XS[..], &YS[..], Some(&VS[..]), *op, &g);
            assert_eq!(bits(grid), bits(&reference), "op {op:?}");
        }
    }

    #[test]
    fn fused_pass_on_empty_input_yields_identities() {
        let ops = [BinOp::Count, BinOp::Min, BinOp::Max];
        let grids = fused(&[], &[], Some(&[]), &ops, &grid2x2());
        assert_eq!(grids[0], vec![0.0; 4]);
        assert_eq!(grids[1], vec![f64::INFINITY; 4]);
        assert_eq!(grids[2], vec![f64::NEG_INFINITY; 4]);
    }

    #[test]
    fn block_length_follows_the_accumulators_of_the_pass() {
        let spec = |n: usize, slots: usize| PassSpec {
            axes: [0, 1],
            grid: GridParams::new(n, n, [0.0, 0.0], [1.0, 1.0]),
            ops: vec![(BinOp::Count, None); slots],
        };
        // Nine 64 x 64 systems of eleven slots: 2.9 MB rotating through
        // a 2 MiB L2.
        assert_eq!(block_rows(&vec![spec(64, 11); 9]), BLOCK);
        assert_eq!(block_rows(&vec![spec(64, 11); 7]), BLOCK);
        // Together in L2, alone in the pass, or too large to stay cached
        // under any order: short tiles.
        assert_eq!(block_rows(&vec![spec(64, 11); 5]), TILE);
        assert_eq!(block_rows(&vec![spec(16, 11); 9]), TILE);
        assert_eq!(block_rows(&[spec(64, 11)]), TILE);
        assert_eq!(block_rows(&[spec(1024, 11)]), TILE);
        assert_eq!(block_rows(&vec![spec(128, 11); 2]), TILE);
        assert_eq!(block_rows(&[]), TILE);
    }

    #[test]
    #[should_panic(expected = "needs a value column")]
    fn fused_pass_rejects_missing_value_column() {
        fused(&XS[..], &YS[..], None, &[BinOp::Sum], &grid2x2());
    }
}
