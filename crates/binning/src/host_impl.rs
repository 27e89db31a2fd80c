//! The host (CPU) binning implementation and the blocked fused core the
//! device kernel shares.
//!
//! The kernels read plain `&[f64]` columns: a host read view of the
//! producer's own allocation and a device kernel's read view both deref
//! to one ([`devsim::ReadView`]), so the row loops are written — and
//! compiled — once.

use devsim::{max_select, min_select};
use parking_lot::Mutex;

use crate::block;
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

/// Fold one value into an accumulator: a minimum or maximum by the one
/// tie rule of [`min_select`] / [`max_select`].
#[inline]
pub fn accumulate(op: BinOp, acc: f64, v: f64) -> f64 {
    match op {
        BinOp::Count => acc + 1.0,
        BinOp::Sum | BinOp::Average => acc + v,
        BinOp::Min => min_select(acc, v),
        BinOp::Max => max_select(acc, v),
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

/// Rows per block of a pass whose accumulators stay cache-resident, and
/// per chunk of every block's stage gather: a tile's axis indices and
/// staged values (20 KB for the paper's ten ops) stay in L1.
const TILE: usize = 256;

/// Rows per block of a pass whose accumulators rotate each other out of
/// the cache (see [`block_rows`]).
const BLOCK: usize = 16_384;

/// The per-core L2 the measurements in [`block_rows`] were taken on.
const L2_BYTES: usize = 2 << 20;

/// Rows per block of [`bin_all_block`]'s walk, from the pass's own shape.
///
/// A block is indexed, gathered, and then folded into one spec's
/// accumulator after another, so between two folds into the same
/// accumulator every other spec's has been walked. While the accumulators
/// together fill at most half the L2 — the other half holds what streams
/// past them — that rotation costs little and the short [`TILE`] wins.
/// Beyond it, a short block makes folds miss — the other accumulators
/// evicted this one since its last 256 rows — so the rows are walked
/// [`BLOCK`] at a time: long enough that an accumulator is re-used from
/// L2 while its block folds, at the price of an index that no longer fits
/// L1 (the stage is gathered a tile at a time whatever the block length).
/// A one-spec pass walks tiles: nothing rotates its accumulator out.
///
/// The accumulator bytes are what the pass allocates: every lane's
/// slots, pads included ([`row_width`]).
///
/// Measured on 131 072 rows x 12 columns, specs of the paper's ten ops
/// (one lane, no pads), one thread, 2 MiB L2, whole pass, 256 against
/// 16 384 rows per block, median (range) of six alternating runs, and
/// the runs the long block won:
///
/// | pass                      | accumulators | 256 rows, ms     | 16 384 rows, ms  | won |
/// |---------------------------|--------------|------------------|------------------|-----|
/// | nine specs, 64 x 64 bins  | 2.9 MB       | 19.5 (19.4-19.9) | 14.7 (14.6-15.3) | 6/6 |
/// | seven of them             | 2.3 MB       | 14.6 (11.3-16.9) | 12.4 (9.0-13.1)  | 5/6 |
/// | six of them               | 2.0 MB       | 14.0 (13.7-14.6) | 11.7 (11.3-12.3) | 6/6 |
/// | five of them              | 1.6 MB       | 12.3 (11.9-13.0) | 10.5 (10.3-11.4) | 6/6 |
/// | four of them              | 1.3 MB       | 9.6 (9.1-10.9)   | 9.0 (8.7-9.3)    | 5/6 |
/// | three of them             | 0.98 MB      | 6.0 (5.7-6.3)    | 6.4 (6.2-6.7)    | 0/6 |
/// | one of them               | 0.33 MB      | 3.0 (3.0-3.1)    | 3.6 (3.5-3.7)    | 0/6 |
/// | nine specs, 96 x 96 bins  | 9 x 737 KB   | 19.9 (17.2-28.1) | 16.9 (15.3-19.0) | 5/6 |
/// | two specs, 128 x 128 bins | 2 x 1.3 MB   | 8.0 (6.7-9.3)    | 7.6 (6.6-8.8)    | 5/6 |
/// | two specs, 256 x 256 bins | 2 x 5.2 MB   | 14.7 (14.0-17.2) | 13.1 (12.8-15.5) | 6/6 |
///
/// The long block wins from four specs on, and for two accumulators each
/// larger than half the L2; three specs and one keep to tiles. In six
/// more runs a single 128 x 128 spec ran 2.7 ms in tiles against 3.6 ms
/// (tiles won 5/6). With the earlier runtime-width fold, 16 384 was the
/// best of 256, 2 048, 8 192, 16 384 and 32 768 on the first row.
fn block_rows(specs: &[PassSpec]) -> usize {
    let acc_bytes = |s: &PassSpec| row_width(&s.ops) * s.grid.num_bins() * 8;
    let total: usize = specs.iter().map(acc_bytes).sum();
    if specs.len() > 1 && total > L2_BYTES / 2 {
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

/// Which fold a reduction takes: `0` adds (counts add the `1.0` staged
/// for them), `1` takes the minimum, `2` the maximum.
fn kind(op: BinOp) -> usize {
    match op {
        BinOp::Count | BinOp::Sum | BinOp::Average => 0,
        BinOp::Min => 1,
        BinOp::Max => 2,
    }
}

/// The most add slots of a lane.
const LANE_ADDS: usize = 8;

/// The lanes a spec of `ops` deals its grids into: their shape, add, min
/// and max slots per lane, and how many there are. The fewest lanes that
/// hold the spec's ops, then the smallest shape that holds them in that
/// many: adds 0 or a power of two up to [`LANE_ADDS`], mins and maxes 0 or
/// 1 — the only shapes [`fold_lanes`] instantiates.
fn lane_plan(ops: &[(BinOp, Option<usize>)]) -> ([usize; 3], usize) {
    let [adds, mins, maxes] = [0, 1, 2].map(|k| ops.iter().filter(|o| kind(o.0) == k).count());
    let lanes = adds.div_ceil(LANE_ADDS).max(mins).max(maxes);
    if lanes == 0 {
        return ([0; 3], 0);
    }
    let per_lane = match adds.div_ceil(lanes) {
        0 => 0,
        n => n.next_power_of_two(),
    };
    ([per_lane, mins.min(1), maxes.min(1)], lanes)
}

/// Accumulator slots per bin of a spec of `ops`: its lanes, pads included.
fn row_width(ops: &[(BinOp, Option<usize>)]) -> usize {
    let (shape, lanes) = lane_plan(ops);
    lanes * shape.iter().sum::<usize>()
}

/// Set `order` to the lane slots of a spec of `ops` in accumulator order:
/// `lanes` lanes of `shape`, each its adds, then its min, then its max.
/// The ops of a kind are dealt across the lanes in list order; a slot no
/// op is dealt to is a pad (`None`).
fn deal(
    ops: &[(BinOp, Option<usize>)],
    [adds, mins, maxes]: [usize; 3],
    lanes: usize,
    order: &mut Vec<Option<usize>>,
) {
    let width = adds + mins + maxes;
    order.clear();
    order.resize(lanes * width, None);
    let mut dealt = [0; 3];
    for (k, &(op, _)) in ops.iter().enumerate() {
        let (group, n) = (kind(op), dealt[kind(op)]);
        order[n % lanes * width + [0, adds, adds + mins][group] + n / lanes] = Some(k);
        dealt[group] += 1;
    }
}

/// The identity a pad at `slot` of a lane of `shape` holds, in the stage
/// and in the accumulator: folding it changes nothing.
fn pad_identity([adds, mins, _]: [usize; 3], slot: usize) -> f64 {
    match slot {
        s if s < adds => 0.0,
        s if s < adds + mins => f64::INFINITY,
        _ => f64::NEG_INFINITY,
    }
}

/// Fold one block into a spec's accumulator of `lanes` lanes of shape
/// `(A, M, X)`, `W` slots each: row `r` of the row-major `stage` goes to
/// bin `iy[r] * nx + ix[r]` of the bin-major `acc`, lane by lane — its `A`
/// add slots, then `M` min slots, then `X` max slots. The lane's shape is
/// a constant, so its slots are folded with no loop or bounds check left;
/// so is the lane count of a one-lane spec. Out of line so the slices
/// keep their no-alias guarantee.
#[inline(never)]
fn fold<const A: usize, const M: usize, const X: usize, const W: usize>(
    acc: &mut [f64],
    stage: &[f64],
    ix: &[u32],
    iy: &[u32],
    nx: usize,
    lanes: usize,
) {
    const { assert!(W == A + M + X && W > 0, "a lane is its slots") };
    #[inline(always)]
    fn rows<const A: usize, const M: usize, const W: usize>(
        acc: &mut [f64],
        stage: &[f64],
        ix: &[u32],
        iy: &[u32],
        nx: usize,
        lanes: usize,
    ) {
        let width = lanes * W;
        for ((&i, &j), row) in ix.iter().zip(iy).zip(stage.chunks_exact(width)) {
            if i.max(j) == u32::MAX {
                continue;
            }
            let acc = &mut acc[(j as usize * nx + i as usize) * width..][..width];
            for (acc, row) in acc.chunks_exact_mut(W).zip(row.chunks_exact(W)) {
                let acc: &mut [f64; W] = acc.try_into().expect("a whole lane");
                let row: &[f64; W] = row.try_into().expect("a whole lane");
                acc[..A].iter_mut().zip(&row[..A]).for_each(|(a, v)| *a += *v);
                acc[A..A + M]
                    .iter_mut()
                    .zip(&row[A..A + M])
                    .for_each(|(a, v)| *a = min_select(*a, *v));
                acc[A + M..]
                    .iter_mut()
                    .zip(&row[A + M..])
                    .for_each(|(a, v)| *a = max_select(*a, *v));
            }
        }
    }
    match lanes {
        1 => rows::<A, M, W>(acc, stage, ix, iy, nx, 1),
        _ => rows::<A, M, W>(acc, stage, ix, iy, nx, lanes),
    }
}

/// [`fold`] instantiated for every shape [`lane_plan`] deals into.
macro_rules! fold_shapes {
    ($shape:expr, $args:tt; $(($a:literal, $m:literal, $x:literal)),* $(,)?) => {
        match $shape {
            [0, 0, 0] => {}
            $([$a, $m, $x] => fold::<$a, $m, $x, { $a + $m + $x }> $args,)*
            shape => unreachable!("no fold for lane shape {shape:?}"),
        }
    };
}

/// Fold one block into `plan`'s accumulator with the fold of its lanes'
/// shape.
fn fold_lanes(plan: &mut FusedGrids, stage: &[f64], ix: &[u32], iy: &[u32], nx: usize) {
    let (acc, lanes) = (&mut plan.acc[..], plan.lanes);
    fold_shapes!(plan.shape, (acc, stage, ix, iy, nx, lanes);
        (0, 0, 1), (0, 1, 0), (0, 1, 1),
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
        (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1),
        (4, 0, 0), (4, 0, 1), (4, 1, 0), (4, 1, 1),
        (8, 0, 0), (8, 0, 1), (8, 1, 0), (8, 1, 1),
    )
}

/// One spec's grids out of [`bin_all_block`]'s pass, still in the
/// kernel's op-interleaved layout (`[bin][slot]`): read them through
/// [`FusedGrids::rows`].
#[derive(Default)]
pub(crate) struct FusedGrids {
    /// `order[slot]` is the op (an index into `spec.ops`) a slot
    /// accumulates, or `None` for a pad.
    order: Vec<Option<usize>>,
    /// One bin's worth of reduction identities, in slot order.
    identities: Vec<f64>,
    acc: Vec<f64>,
    axes: [usize; 2],
    stage: usize,
    /// Add, min and max slots per lane ([`lane_plan`]).
    shape: [usize; 3],
    /// Lanes per bin.
    lanes: usize,
    /// The slot of the spec's first count, if it has one.
    count: Option<usize>,
    /// Whether only the bins in `touched` were initialised.
    sparse: bool,
    /// The bins the pass's rows fell into, ascending, when it has a count.
    touched: Vec<u32>,
    /// One bit per bin: touched by a row of this pass.
    marks: Vec<u64>,
}

impl FusedGrids {
    /// The accumulator as it lies in memory — one row per bin, one value
    /// per slot — and the op (an index into `spec.ops`) of each slot, or
    /// `None` for a pad, which holds its reduction's identity and no grid.
    /// When [`Self::initialised_touched_only`], only the rows of the
    /// [touched](Self::touched) bins hold grids; the others hold whatever
    /// an earlier pass left.
    pub fn rows(&self) -> (&[f64], &[Option<usize>]) {
        (&self.acc, &self.order)
    }

    /// The bins a row fell into, ascending; `None` for a spec without a
    /// count.
    pub fn touched(&self) -> Option<&[u32]> {
        self.count.is_some().then_some(&self.touched[..])
    }

    /// Whether the pass initialised only the [touched](Self::touched)
    /// bins: a spec that can never go dense ([`crate::block`]), whose
    /// untouched bins nothing reads.
    pub fn initialised_touched_only(&self) -> bool {
        self.sparse
    }

    /// List the touched bins, ascending: out of the marks when only they
    /// were initialised (clearing them), else where the count is not zero.
    fn find_touched(&mut self) {
        self.touched.clear();
        if self.sparse {
            for (w, marks) in self.marks.iter_mut().enumerate() {
                let mut bits = std::mem::take(marks);
                while bits != 0 {
                    self.touched.push((w * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        } else if let Some(c) = self.count {
            let counts = self.acc.iter().skip(c).step_by(self.order.len());
            let touched = (0..).zip(counts).filter(|&(_, &n)| n != 0.0).map(|(b, _)| b);
            self.touched.extend(touched);
        }
    }
}

/// Everything [`bin_all_block`] allocates: the per-spec plans with their
/// accumulators, the block's axis indices and staged values, and the block
/// a device launch commits into before storing it. A caller that keeps one
/// across launches pays for them once; each launch re-plans and
/// re-initialises them in place.
#[derive(Default)]
pub struct KernelScratch {
    /// The host block [`crate::device_impl::bin_all_device`] commits into.
    pub(crate) block: Vec<f64>,
    axes: Vec<(usize, f64, f64, usize)>,
    stages: Vec<Vec<Staged>>,
    plans: Vec<FusedGrids>,
    index: Vec<u32>,
    staged: Vec<Vec<f64>>,
    /// The one accumulator every spec of a one-block pass folds into.
    shared: Vec<f64>,
}

/// What a slot of a stage holds for every row of a block.
#[derive(Clone, Copy, PartialEq)]
enum Staged {
    /// The row's value in this column.
    Column(usize),
    /// The same value in every row: a count's `1.0`, a pad's identity.
    Constant(f64),
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

/// One fused host pass of every spec in `specs` over one table's `cols`
/// into the host block `out` ([`crate::block`]), which is cleared first:
/// each spec is committed in its smaller form as soon as its grids are
/// complete. [`crate::device_impl::bin_all_device`] runs this pass too, and
/// stores its block into the device block.
///
/// The rows are walked once, a block (`block_rows`) at a time. Per
/// block, (1) each **unique** axis `(column, lo, hi, cells)` is
/// range-checked and indexed once, whatever number of specs share it; (2)
/// the value columns are gathered once into a row-major stage whose slots
/// are a spec's lanes (`lane_plan`) — each lane's adds (a count stages
/// `1.0`), then its min, then its max, pads staged at their identity —
/// shared by every spec with the same op list; (3) each spec folds its
/// in-range rows into a private bin-major accumulator `[bin][lane][slot]`
/// with the fold compiled for its lane shape (`fold`). That layout is
/// the kernel's own choice; the commit reads the grids out op by op.
///
/// Every `(op, bin)` accumulator starts at its reduction identity and
/// folds its rows in ascending row order with the per-op kernel's own
/// operations, so each grid is **bit-identical** to [`bin_host`] over the
/// same logical values, whatever the column storage — and combining it
/// with an identity grid changes no bit of it.
///
/// An accumulator is initialised right before its first fold and
/// committed right after its last, so the commit finds it in cache. On a
/// table of one block that is the whole life of an accumulator, and every
/// spec then folds into the same one: the pass touches one accumulator's
/// worth of memory, hot, instead of all of them.
///
/// A spec that can never go dense in a block — `rows·(ops+1) < ops·bins` —
/// has only the bins its rows touch initialised: a per-spec bitmap, set
/// from each block's axis indices before its fold, marks a bin on its
/// first row, which writes the bin's identities, and yields the touched
/// bins. Every other spec's bins all start at their identities, and a
/// walk of its count slot finds the touched ones.
///
/// # Panics
/// Panics when the columns a spec reads differ in length or a non-count
/// reduction has no value column.
pub fn bin_all_block(
    cols: &[&[f64]],
    specs: &[PassSpec],
    scratch: &mut KernelScratch,
    out: &mut Vec<f64>,
) {
    let rows = pass_rows(|c| cols[c].len(), specs).unwrap_or_else(|e| panic!("{e}"));
    let KernelScratch { axes, stages, plans, index, staged, shared, .. } = scratch;
    block::begin(out, specs.len());

    // An empty table is one block of no rows: every spec still gets its
    // identities and its commit.
    let block = block_rows(specs);
    let tile = block.min(rows).max(1);
    let blocks = rows.div_ceil(block).max(1);
    // Grids that are complete after the only block can all be
    // accumulated in one buffer, spec after spec.
    let share = blocks == 1;

    axes.clear();
    stages.clear();
    plans.resize_with(specs.len(), FusedGrids::default);
    for (plan, spec) in plans.iter_mut().zip(specs) {
        let g = &spec.grid;
        assert!(g.nx.max(g.ny) < u32::MAX as usize, "axis resolution exceeds the index scratch");
        let (shape, lanes) = lane_plan(&spec.ops);
        (plan.shape, plan.lanes) = (shape, lanes);
        let FusedGrids { order, identities, acc, marks, .. } = plan;
        deal(&spec.ops, shape, lanes, order);
        let lane = shape.iter().sum::<usize>().max(1);
        plan.count = order.iter().position(|o| o.is_some_and(|k| spec.ops[k].0 == BinOp::Count));
        plan.sparse = block::always_sparse(rows, spec);
        if plan.sparse {
            marks.clear();
            marks.resize(g.num_bins().div_ceil(64), 0);
        }
        let slots = order.iter().enumerate().map(|(s, o)| match o.map(|k| spec.ops[k]) {
            Some((BinOp::Count, _)) => Staged::Constant(1.0),
            Some((_, c)) => Staged::Column(c.expect("pass_rows checked the value columns")),
            None => Staged::Constant(pad_identity(shape, s % lane)),
        });
        plan.stage = intern(stages, slots.collect());
        plan.axes = [
            intern(axes, (spec.axes[0], g.lo[0], g.hi[0], g.nx)),
            intern(axes, (spec.axes[1], g.lo[1], g.hi[1], g.ny)),
        ];
        identities.clear();
        identities.extend(order.iter().enumerate().map(|(s, o)| match o {
            Some(k) => identity(spec.ops[*k].0),
            None => pad_identity(shape, s % lane),
        }));
        if !share {
            acc.resize(identities.len() * g.num_bins(), 0.0);
        }
    }

    // Out-of-range rows are marked `u32::MAX`; constant slots (a count's
    // 1.0, a pad's identity) are staged once for the whole pass.
    index.clear();
    index.resize(axes.len() * tile, u32::MAX);
    staged.resize_with(stages.len(), Vec::new);
    for (slots, stage) in stages.iter().zip(staged.iter_mut()) {
        stage.clear();
        stage.resize(slots.len() * tile, 0.0);
        for (s, slot) in slots.iter().enumerate() {
            let Staged::Constant(v) = *slot else { continue };
            stage.iter_mut().skip(s).step_by(slots.len()).for_each(|c| *c = v);
        }
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
        // Gathered TILE rows at a time, so each column's strided writes
        // land in a stretch of the stage that L1 still holds.
        for at in (0..m).step_by(TILE) {
            let n = TILE.min(m - at);
            for (slots, stage) in stages.iter().zip(staged.iter_mut()) {
                let width = slots.len();
                let chunk = &mut stage[at * width..][..n * width];
                for (s, slot) in slots.iter().enumerate() {
                    let Staged::Column(c) = *slot else { continue };
                    let col = &cols[c][start + at..][..n];
                    for (row, &v) in chunk.chunks_exact_mut(width).zip(col) {
                        row[s] = v;
                    }
                }
            }
        }
        for (si, (plan, spec)) in plans.iter_mut().zip(specs).enumerate() {
            if share {
                // The spec borrows the shared accumulator for its one block.
                std::mem::swap(&mut plan.acc, shared);
                plan.acc.resize(plan.identities.len() * spec.grid.num_bins(), 0.0);
            }
            let [ix, iy] = plan.axes.map(|a| &index[a * tile..][..m]);
            if plan.sparse {
                touch(&mut plan.acc, &plan.identities, &mut plan.marks, ix, iy, spec.grid.nx);
            } else if b == 0 && !plan.identities.is_empty() {
                let width = plan.identities.len();
                plan.acc
                    .chunks_exact_mut(width)
                    .for_each(|bin| bin.copy_from_slice(&plan.identities));
            }
            fold_lanes(plan, &staged[plan.stage], ix, iy, spec.grid.nx);
            if b + 1 == blocks {
                plan.find_touched();
                block::commit(out, si, spec, plan);
            }
            if share {
                std::mem::swap(&mut plan.acc, shared);
            }
        }
    }
    block::finish(out);
}

/// Set the marks of the bins the rows `ix`/`iy` fall into, writing each
/// newly marked bin's identities to its row of `acc` first.
fn touch(
    acc: &mut [f64],
    identities: &[f64],
    marks: &mut [u64],
    ix: &[u32],
    iy: &[u32],
    nx: usize,
) {
    let width = identities.len();
    for (&i, &j) in ix.iter().zip(iy) {
        if i.max(j) == u32::MAX {
            continue;
        }
        let b = j as usize * nx + i as usize;
        let (word, bit) = (&mut marks[b / 64], 1u64 << (b % 64));
        if *word & bit == 0 {
            *word |= bit;
            acc[b * width..][..width].copy_from_slice(identities);
        }
    }
}

/// Finalize an accumulation buffer into presentable values:
/// * min/max: bins that never saw a value become NaN;
/// * average: running sum divided by count (NaN where count is zero);
/// * count/sum: unchanged;
/// * every NaN is the one `f64::NAN`, whatever sign its sum had.
pub fn finalize(op: BinOp, bins: &mut [f64], counts: &[f64]) {
    let empty = match op {
        BinOp::Min => f64::INFINITY,
        BinOp::Max => f64::NEG_INFINITY,
        // No bin equals NaN.
        BinOp::Count | BinOp::Sum | BinOp::Average => f64::NAN,
    };
    if op == BinOp::Average {
        assert_eq!(bins.len(), counts.len(), "average needs a matching count buffer");
        for (b, &c) in bins.iter_mut().zip(counts) {
            *b = if c > 0.0 { *b / c } else { f64::NAN };
        }
    }
    bins.iter_mut().for_each(|b| *b = if *b == empty { f64::NAN } else { canonical(*b) });
}

/// `v`, or `f64::NAN` if `v` is any NaN. A sum that meets both
/// infinities and a NaN value is a NaN whose sign depends on which operand
/// of an add the compiled loop puts first — the fused fold and the per-op
/// kernel, a merge and a landing, need not agree — so a published cell
/// carries no NaN but this one.
pub(crate) fn canonical(v: f64) -> f64 {
    if v.is_nan() {
        f64::NAN
    } else {
        v
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

    /// The grids of `specs` in a host block, dense: per spec, its ops'
    /// grids, each bin a row never touched at its reduction's identity.
    fn unpack(block: &[f64], specs: &[PassSpec]) -> Vec<Vec<Vec<f64>>> {
        let shapes = specs.iter().map(|s| (s.ops.len(), s.grid.num_bins()));
        let parts = block::spec_parts(block, shapes).unwrap();
        let grids = specs.iter().zip(parts).map(|(spec, part)| {
            let ops = spec.ops.iter().enumerate();
            ops.map(|(k, &(op, _))| {
                let mut grid = vec![identity(op); spec.grid.num_bins()];
                part.land(k, op, true, &mut grid);
                grid
            })
            .collect()
        });
        grids.collect()
    }

    /// One fused pass of `ops` (all reducing `vs`) over the `xs`/`ys`
    /// axes, committed to a host block and read back as per-op grids.
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
        let (mut scratch, mut out) = (KernelScratch::default(), Vec::new());
        let specs = [spec];
        bin_all_block(&[xs, ys, vs.unwrap_or(xs)], &specs, &mut scratch, &mut out);
        unpack(&out, &specs).remove(0)
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

    /// Every sequence of up to three values drawn from `±0.0`, NaN and
    /// `±inf`: each order of each pair and triple, repeats included.
    fn tie_orders() -> Vec<Vec<f64>> {
        let values = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let n = values.len();
        (0..=3u32)
            .flat_map(|len| (0..n.pow(len)).map(move |k| (len, k)))
            .map(|(len, k)| (0..len).map(|d| values[k / n.pow(d) % n]).collect())
            .collect()
    }

    #[test]
    fn min_and_max_skip_nan_and_keep_the_first_of_a_tie_on_every_path() {
        let node = devsim::SimNode::new(devsim::NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let upload = |data: &[f64]| {
            let host = node.host_alloc_f64(data.len());
            host.host_f64().unwrap().copy_from_slice(data);
            let dev = node.device(0).unwrap().alloc_f64(data.len()).unwrap();
            stream.copy(&host, &dev).unwrap();
            dev
        };
        let one = GridParams::new(1, 1, [0.0, 0.0], [1.0, 1.0]);
        // The rule spelled out: the first value equal to the extreme of
        // those `keep` admits, the identity if there is none.
        let first_extreme = |vs: &[f64], op, keep: fn(&f64) -> bool| {
            let kept = vs.iter().copied().filter(keep);
            let extreme = match op {
                BinOp::Min => kept.min_by(f64::total_cmp),
                _ => kept.max_by(f64::total_cmp),
            };
            extreme.map_or(identity(op), |e| *vs.iter().find(|&&v| v == e).unwrap())
        };
        for vs in tie_orders() {
            let xs = vec![0.5; vs.len()];
            let fused = fused(&xs, &xs, Some(&vs), &[BinOp::Count, BinOp::Min, BinOp::Max], &one);
            let (dx, dv) = (upload(&xs), upload(&vs));
            for (k, op) in [(1, BinOp::Min), (2, BinOp::Max)] {
                let want = first_extreme(&vs, op, |v| !v.is_nan());
                let folded = vs.iter().fold(identity(op), |a, &v| accumulate(op, a, v));
                let per_op =
                    crate::device_impl::bin_device(&node, 0, &stream, &dx, &dx, Some(&dv), op, one)
                        .unwrap();
                let host = node.host_alloc_f64(1);
                stream.copy(&per_op, &host).unwrap();
                stream.synchronize().unwrap();
                let atomic = host.host_f64_ro().unwrap().get(0);
                for (path, got) in
                    [("accumulate", folded), ("fused", fused[k][0]), ("atomic", atomic)]
                {
                    assert_eq!(got.to_bits(), want.to_bits(), "{op:?} of {vs:?} by {path}");
                }
            }
            // The auto-bounds skip every non-finite value, on the host as
            // in the device kernel.
            let want = [BinOp::Min, BinOp::Max].map(|op| first_extreme(&vs, op, |v| v.is_finite()));
            let host = crate::bounds::minmax(&vs);
            let device = crate::device_impl::minmax_device(&node, 0, &stream, &dv).unwrap();
            for (path, (lo, hi)) in [("host", host), ("device", device)] {
                let got = [lo, hi].map(f64::to_bits);
                assert_eq!(got, want.map(f64::to_bits), "bounds of {vs:?} by {path}");
            }
        }
    }

    /// Folded from its identity, the select is the bits `f64::min` and
    /// `f64::max` compute on x86-64: stating the rule moved no grid value.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn from_an_identity_the_select_computes_what_f64_min_and_max_do() {
        use std::hint::black_box;
        type Fold = fn(f64, f64) -> f64;
        for vs in tie_orders() {
            let fold = |start: f64, f: Fold| vs.iter().fold(start, |a, &v| f(black_box(a), v));
            for (start, select, std) in [
                (f64::INFINITY, min_select as Fold, f64::min as Fold),
                (f64::NEG_INFINITY, max_select, f64::max),
            ] {
                let (select, std) = (fold(start, select), fold(start, std));
                assert_eq!(select.to_bits(), std.to_bits(), "from {start} over {vs:?}");
            }
        }
    }

    /// The paper's op list as the fused step lays out its grids: the
    /// count, five sums, a minimum, a maximum and two averages.
    fn paper_ops() -> Vec<(BinOp, Option<usize>)> {
        let mut ops = vec![(BinOp::Count, None)];
        ops.extend([BinOp::Sum; 5].map(|op| (op, Some(2))));
        ops.extend([(BinOp::Min, Some(2)), (BinOp::Max, Some(2))]);
        ops.extend([BinOp::Average; 2].map(|op| (op, Some(2))));
        ops
    }

    #[test]
    fn block_length_follows_the_accumulators_of_the_pass() {
        let spec = |n: usize, ops: Vec<(BinOp, Option<usize>)>| PassSpec {
            axes: [0, 1],
            grid: GridParams::new(n, n, [0.0, 0.0], [1.0, 1.0]),
            ops,
        };
        let paper = |n| spec(n, paper_ops());
        // Two or more systems past half a 2 MiB L2 together — nine, five
        // or four 64 x 64 systems of the paper's ten slots (2.9, 1.6 and
        // 1.3 MB), two of 128 x 128 or 256 x 256 — rotate each other out.
        for n in [9, 5, 4] {
            assert_eq!(block_rows(&vec![paper(64); n]), BLOCK, "{n} specs");
        }
        assert_eq!(block_rows(&vec![paper(128); 2]), BLOCK);
        assert_eq!(block_rows(&vec![paper(256); 2]), BLOCK);
        // Within half the L2 together, or alone in the pass: short tiles.
        assert_eq!(block_rows(&vec![paper(64); 3]), TILE);
        assert_eq!(block_rows(&vec![paper(16); 9]), TILE);
        assert_eq!(block_rows(&[paper(64)]), TILE);
        assert_eq!(block_rows(&[paper(1024)]), TILE);
        assert_eq!(block_rows(&[]), TILE);
        // Pads count: eleven counts fill two lanes of eight, so three such
        // 56 x 56 systems allocate 1.2 MB, though their grids are 0.83 MB.
        assert_eq!(block_rows(&vec![spec(56, vec![(BinOp::Count, None); 11]); 3]), BLOCK);
    }

    #[test]
    fn the_paper_list_fills_one_lane_and_every_plan_deals_each_op_once() {
        let ops = paper_ops();
        assert_eq!(lane_plan(&ops), ([8, 1, 1], 1));
        let mut order = Vec::new();
        deal(&ops, [8, 1, 1], 1, &mut order);
        assert!(order.iter().all(Option::is_some), "no pads");

        let mut folded = Vec::new();
        for [adds, mins, maxes] in (0..=20).flat_map(|a| (0..16).map(move |mx| [a, mx / 4, mx % 4]))
        {
            // The kinds interleaved — each kind's first op, then each
            // one's second, … — and a count first among the adds.
            let mut kinds: Vec<(usize, usize)> = [adds, mins, maxes]
                .iter()
                .enumerate()
                .flat_map(|(k, &n)| (0..n).map(move |i| (i, k)))
                .collect();
            kinds.sort();
            let ops: Vec<_> = kinds
                .iter()
                .map(|&(i, k)| match (k, i) {
                    (0, 0) => (BinOp::Count, None),
                    (0, i) => ([BinOp::Sum, BinOp::Average][i % 2], Some(2)),
                    (1, _) => (BinOp::Min, Some(2)),
                    _ => (BinOp::Max, Some(2)),
                })
                .collect();
            let n = ops.len();
            let (shape, lanes) = lane_plan(&ops);
            assert_eq!(lanes, adds.div_ceil(LANE_ADDS).max(mins).max(maxes), "the fewest lanes");
            assert!([0, 1, 2, 4, 8].contains(&shape[0]) && shape[1] <= 1 && shape[2] <= 1);
            let width = shape.iter().sum::<usize>();
            deal(&ops, shape, lanes, &mut order);
            assert_eq!(order.len(), lanes * width);
            let mut dealt = vec![0; n];
            for (s, k) in order.iter().enumerate().filter_map(|(s, o)| o.map(|k| (s, k))) {
                dealt[k] += 1;
                // In a slot of its own kind: the pad there would hold its
                // identity.
                assert_eq!(pad_identity(shape, s % width), identity(ops[k].0), "{ops:?}");
            }
            assert!(dealt.iter().all(|&d| d == 1), "{ops:?} dealt {dealt:?}");
            if !folded.contains(&(shape, lanes > 1)) {
                folded.push((shape, lanes > 1));
                // Each shape's fold, one lane and several, pads and all, is
                // the per-op kernel's.
                let grids = fused(
                    &XS[..],
                    &YS[..],
                    Some(&VS[..]),
                    &ops.iter().map(|o| o.0).collect::<Vec<_>>(),
                    &grid2x2(),
                );
                for (&(op, _), grid) in ops.iter().zip(&grids) {
                    assert_eq!(
                        bits(grid),
                        bits(&bin_host(&XS[..], &YS[..], Some(&VS[..]), op, &grid2x2()))
                    );
                }
            }
        }
        // Every instantiated shape, and the empty one.
        let shapes: Vec<_> = folded.iter().filter(|f| !f.1).collect();
        assert_eq!(shapes.len(), 20);
    }

    #[test]
    #[should_panic(expected = "needs a value column")]
    fn fused_pass_rejects_missing_value_column() {
        fused(&XS[..], &YS[..], None, &[BinOp::Sum], &grid2x2());
    }

    /// The block of `specs` over `cols` as the block format defines it,
    /// out of the grids of a pass in a fresh scratch, read back dense: per
    /// spec, its touched bins are where its count is not zero, and it goes
    /// in the smaller of its two forms. The grids are the fold's own: where
    /// a bin's sum meets both infinities and a NaN value, the per-op
    /// kernel may give that NaN the other sign (an add's NaN sign is
    /// unspecified), and only published cells are made canonical.
    fn reference_block(cols: &[&[f64]], specs: &[PassSpec]) -> Vec<f64> {
        let (mut scratch, mut fresh) = (KernelScratch::default(), Vec::new());
        bin_all_block(cols, specs, &mut scratch, &mut fresh);
        let mut out = vec![0.0; 1 + specs.len()];
        for (si, (spec, grids)) in specs.iter().zip(unpack(&fresh, specs)).enumerate() {
            let (ops, bins) = (spec.ops.len(), spec.grid.num_bins());
            let packed = grids.concat();
            let count = spec.ops.iter().position(|&(op, _)| op == BinOp::Count);
            let touched: Vec<usize> = count
                .map(|c| (0..bins).filter(|&b| packed[c * bins + b] != 0.0).collect())
                .unwrap_or_default();
            if count.is_some() && touched.len() * (ops + 1) < ops * bins {
                out[1 + si] = f64::from_bits(touched.len() as u64);
                out.extend(touched.iter().map(|&b| f64::from_bits(b as u64)));
                for k in 0..ops {
                    out.extend(touched.iter().map(|&b| packed[k * bins + b]));
                }
            } else {
                out[1 + si] = f64::from_bits(block::DENSE);
                out.extend(packed);
            }
        }
        out[0] = f64::from_bits(out.len() as u64);
        out
    }

    /// Columns x, y, v of `rows` rows: some rows NaN or out of range, the
    /// values `-0.0`, NaN and both infinities among others.
    fn touched_columns(rows: usize, salt: usize) -> Vec<Vec<f64>> {
        let coord = |i: usize, k: usize| match (i * k + salt) % 97 {
            0 => f64::NAN,
            1 => 1.5,
            r => r as f64 / 97.0,
        };
        let value = |i: usize| match (i + salt) % 11 {
            0 => -0.0,
            1 => f64::NAN,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            r => r as f64 - 6.5,
        };
        vec![
            (0..rows).map(|i| coord(i, 31)).collect(),
            (0..rows).map(|i| coord(i, 57)).collect(),
            (0..rows).map(value).collect(),
        ]
    }

    #[test]
    fn specs_that_never_go_dense_initialise_only_their_touched_bins() {
        let fine = GridParams::new(64, 64, [0.0, 0.0], [1.0, 1.0]);
        let coarse = GridParams::new(4, 4, [0.0, 0.0], [1.0, 1.0]);
        let spec =
            |grid, axes, ops: &[(BinOp, Option<usize>)]| PassSpec { axes, grid, ops: ops.to_vec() };
        let (c, v) = ((BinOp::Count, None), |op| (op, Some(2)));
        let specs = [
            // rows·(ops+1) < ops·bins: never dense.
            spec(fine, [0, 1], &[c, v(BinOp::Sum), v(BinOp::Min), v(BinOp::Max)]),
            // The same, counts listed twice and not first.
            spec(fine, [1, 0], &[v(BinOp::Sum), c, v(BinOp::Average), c]),
            // Sixteen bins, which these rows nearly all touch: dense.
            spec(coarse, [0, 1], &[c, v(BinOp::Max)]),
            // No count: dense whatever it touched.
            spec(fine, [0, 1], &[v(BinOp::Sum), v(BinOp::Min)]),
        ];
        let mut scratch = KernelScratch::default();
        let mut out = Vec::new();
        // One tile (every spec folds into one shared accumulator), and
        // several tiles with a short last one.
        for rows in [200, 3 * TILE + 17] {
            assert_eq!(block_rows(&specs), TILE);
            // An earlier pass over other rows leaves its partials in the
            // accumulators the touched-only specs do not clear.
            let earlier = touched_columns(rows, 5);
            let earlier: Vec<&[f64]> = earlier.iter().map(|c| &c[..]).collect();
            bin_all_block(&earlier, &specs, &mut scratch, &mut out);
            let cols = touched_columns(rows, 0);
            let cols: Vec<&[f64]> = cols.iter().map(|c| &c[..]).collect();
            bin_all_block(&cols, &specs, &mut scratch, &mut out);
            assert_eq!(bits(&out), bits(&reference_block(&cols, &specs)), "rows {rows}");
            let touched_only: Vec<bool> =
                scratch.plans.iter().map(FusedGrids::initialised_touched_only).collect();
            assert_eq!(touched_only, [true, true, false, false], "rows {rows}");
            let words: Vec<bool> = out[1..5].iter().map(|w| w.to_bits() == block::DENSE).collect();
            assert_eq!(words, [false, false, true, true], "rows {rows}");
        }
    }
}
