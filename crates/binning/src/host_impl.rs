//! The host (CPU) binning implementation.
//!
//! The kernels are generic over [`Column`], so the storage a column is
//! read through — a plain slice, or a [`MappedCol`] over a layout group's
//! interleaved block — is the only thing that varies between the
//! monomorphised copies; the row loops are written once.

use hamr::{LayoutMap, Mapping};

use crate::grid::GridParams;
use crate::spec::BinOp;

/// A column of doubles the host kernels can traverse.
pub trait Column {
    /// Logical element count.
    fn len(&self) -> usize;

    /// True when the column holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical element `i`.
    fn get(&self, i: usize) -> f64;

    /// Rows per contiguous block of the backing storage: above 1 (an
    /// AoSoA group) the fused kernel walks the rows in blocks of this
    /// width; 1 means a plain row loop.
    fn lane_width(&self) -> usize;
}

impl Column for [f64] {
    #[inline]
    fn len(&self) -> usize {
        <[f64]>::len(self)
    }

    #[inline]
    fn get(&self, i: usize) -> f64 {
        self[i]
    }

    #[inline]
    fn lane_width(&self) -> usize {
        1
    }
}

/// A column read out of a shared backing block through a [`LayoutMap`]
/// (identity-mapped for plain dense columns). Reads go through the host
/// view's atomic cells, so a kernel can consume a layout group's
/// interleaved block zero-copy.
pub struct MappedCol {
    view: devsim::HostF64View,
    map: LayoutMap,
}

impl MappedCol {
    /// A column over `view` read through `map`.
    pub fn new(view: devsim::HostF64View, map: LayoutMap) -> Self {
        MappedCol { view, map }
    }

    /// A plain dense column of `len` elements (identity mapping).
    pub fn dense(view: devsim::HostF64View, len: usize) -> Self {
        MappedCol { view, map: LayoutMap::new(hamr::Layout::Scalar, len, 1, 0) }
    }
}

impl Column for MappedCol {
    fn len(&self) -> usize {
        self.map.len()
    }

    #[inline]
    fn get(&self, i: usize) -> f64 {
        self.view.get(self.map.index(i))
    }

    fn lane_width(&self) -> usize {
        self.map.layout().lane_width().max(1)
    }
}

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
fn value_column<C: Column + ?Sized>(op: BinOp, values: Option<&C>, rows: usize) -> Option<&C> {
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
pub fn bin_host<C: Column + ?Sized>(
    xs: &C,
    ys: &C,
    values: Option<&C>,
    op: BinOp,
    grid: &GridParams,
) -> Vec<f64> {
    assert_eq!(xs.len(), ys.len(), "coordinate columns must be co-occurring");
    let values = value_column(op, values, xs.len());
    let mut bins = vec![identity(op); grid.num_bins()];
    for i in 0..xs.len() {
        if let Some(b) = grid.bin_index(xs.get(i), ys.get(i)) {
            bins[b] = accumulate(op, bins[b], values.map_or(0.0, |v| v.get(i)));
        }
    }
    bins
}

/// Fused single-pass binning: compute each row's bin index once and
/// scatter it into **every** operation's grid, instead of re-traversing
/// the coordinate columns once per operation. `ops[i]` pairs a reduction
/// with its value column (`None` for [`BinOp::Count`]); the returned
/// grids are index-aligned with `ops`.
///
/// Columns whose [`Column::lane_width`] is above 1 are walked in lane
/// blocks: one lane pass computes the block's bin indices (the
/// vectorizable part — for an AoSoA group the lane's coordinates are
/// contiguous in the backing block), then each op scatters the block's
/// rows in ascending order. Either way every `(op, bin)` accumulator
/// folds its rows in ascending global row order, so each returned grid is
/// **bit-identical** to [`bin_host`] over the same logical values,
/// whatever the storage — including the ragged final block when the row
/// count is not a lane multiple.
///
/// # Panics
/// Panics when the coordinate columns' lengths differ, a non-count
/// reduction's value column is missing, or its length differs from the
/// coordinates.
pub fn bin_all_host<C: Column + ?Sized>(
    xs: &C,
    ys: &C,
    ops: &[(BinOp, Option<&C>)],
    grid: &GridParams,
) -> Vec<Vec<f64>> {
    assert_eq!(xs.len(), ys.len(), "coordinate columns must be co-occurring");
    let n = xs.len();
    let ops: Vec<(BinOp, Option<&C>)> =
        ops.iter().map(|&(op, values)| (op, value_column(op, values, n))).collect();
    let mut grids: Vec<Vec<f64>> =
        ops.iter().map(|(op, _)| vec![identity(*op); grid.num_bins()]).collect();
    let lane = xs.lane_width();
    if lane <= 1 {
        for i in 0..n {
            let Some(b) = grid.bin_index(xs.get(i), ys.get(i)) else { continue };
            for (&(op, values), bins) in ops.iter().zip(grids.iter_mut()) {
                bins[b] = accumulate(op, bins[b], values.map_or(0.0, |v| v.get(i)));
            }
        }
        return grids;
    }
    // Per-lane scratch: the block's bin indices, None for dropped rows.
    let mut bidx: Vec<Option<usize>> = vec![None; lane];
    for start in (0..n).step_by(lane) {
        let m = lane.min(n - start);
        for (l, slot) in bidx.iter_mut().take(m).enumerate() {
            *slot = grid.bin_index(xs.get(start + l), ys.get(start + l));
        }
        for (&(op, values), bins) in ops.iter().zip(grids.iter_mut()) {
            for (l, slot) in bidx.iter().take(m).enumerate() {
                let Some(b) = *slot else { continue };
                bins[b] = accumulate(op, bins[b], values.map_or(0.0, |v| v.get(start + l)));
            }
        }
    }
    grids
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
        let bins = bin_host::<[f64]>(&[], &[], None, BinOp::Count, &grid2x2());
        assert_eq!(bins, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "co-occurring")]
    fn mismatched_columns_panic() {
        bin_host::<[f64]>(&[1.0], &[1.0, 2.0], None, BinOp::Count, &grid2x2());
    }

    #[test]
    fn fused_pass_matches_per_op_reference_bitwise() {
        let g = grid2x2();
        let ops: Vec<(BinOp, Option<&[f64]>)> = vec![
            (BinOp::Count, None),
            (BinOp::Sum, Some(&VS)),
            (BinOp::Min, Some(&VS)),
            (BinOp::Max, Some(&VS)),
            (BinOp::Average, Some(&VS)),
        ];
        let fused = bin_all_host(&XS[..], &YS[..], &ops, &g);
        for ((op, values), fused_grid) in ops.iter().zip(&fused) {
            let reference = bin_host(&XS[..], &YS[..], *values, *op, &g);
            assert_eq!(
                fused_grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "op {op:?}"
            );
        }
    }

    #[test]
    fn fused_pass_on_empty_input_yields_identities() {
        let ops: Vec<(BinOp, Option<&[f64]>)> =
            vec![(BinOp::Count, None), (BinOp::Min, Some(&[])), (BinOp::Max, Some(&[]))];
        let fused = bin_all_host::<[f64]>(&[], &[], &ops, &grid2x2());
        assert_eq!(fused[0], vec![0.0; 4]);
        assert_eq!(fused[1], vec![f64::INFINITY; 4]);
        assert_eq!(fused[2], vec![f64::NEG_INFINITY; 4]);
    }

    #[test]
    #[should_panic(expected = "needs a value column")]
    fn fused_pass_rejects_missing_value_column() {
        bin_all_host(&XS[..], &YS[..], &[(BinOp::Sum, None)], &grid2x2());
    }

    /// Pack `fields` (all the same length) into one backing block laid
    /// out by `layout`, returning one mapped column per field.
    fn group(
        node: &std::sync::Arc<devsim::SimNode>,
        layout: hamr::Layout,
        fields: &[&[f64]],
    ) -> Vec<MappedCol> {
        let n = fields[0].len();
        let block = node.host_alloc_f64(layout.block_cells(n, fields.len()));
        let view = block.host_f64().unwrap();
        let mut cols = Vec::with_capacity(fields.len());
        for (f, vals) in fields.iter().enumerate() {
            let map = LayoutMap::new(layout, n, fields.len(), f);
            for (i, &v) in vals.iter().enumerate() {
                view.set(map.index(i), v);
            }
            cols.push(MappedCol::new(block.host_f64().unwrap(), map));
        }
        cols
    }

    #[test]
    fn kernels_are_bit_identical_across_column_storages() {
        let node = devsim::SimNode::new(devsim::NodeConfig::fast_test(1));
        // n = 7: not a multiple of lane 4 or 8, forcing a ragged tail.
        let xs: Vec<f64> = vec![0.5, 1.5, 0.5, 1.5, 0.5, 10.0, f64::NAN];
        let ys: Vec<f64> = vec![0.5, 0.5, 1.5, 1.5, 0.7, 0.5, 0.5];
        let vs: Vec<f64> = vec![10.0, 20.0, 30.0, -40.0, 5.5, 7.0, 8.0];
        let g = grid2x2();
        let ops: Vec<(BinOp, Option<&[f64]>)> = vec![
            (BinOp::Count, None),
            (BinOp::Sum, Some(&vs)),
            (BinOp::Min, Some(&vs)),
            (BinOp::Max, Some(&vs)),
            (BinOp::Average, Some(&vs)),
        ];
        let reference = bin_all_host(&xs[..], &ys[..], &ops, &g);

        // Scalar is exercised through the identity-mapped view; a
        // multi-field group needs an interleaving layout.
        let dense_cols: Vec<MappedCol> = [&xs, &ys, &vs]
            .iter()
            .map(|vals| {
                let buf = node.host_alloc_f64(vals.len());
                let view = buf.host_f64().unwrap();
                for (i, &v) in vals.iter().enumerate() {
                    view.set(i, v);
                }
                MappedCol::dense(buf.host_f64().unwrap(), vals.len())
            })
            .collect();
        let dense_ops: Vec<(BinOp, Option<&MappedCol>)> =
            ops.iter().map(|(op, v)| (*op, v.map(|_| &dense_cols[2]))).collect();
        let dense = bin_all_host(&dense_cols[0], &dense_cols[1], &dense_ops, &g);
        for (lane_grid, ref_grid) in dense.iter().zip(&reference) {
            assert_eq!(
                lane_grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ref_grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "dense identity mapping"
            );
        }

        for layout in [
            hamr::Layout::AoS,
            hamr::Layout::SoA,
            hamr::Layout::AoSoA { lane_width: 1 },
            hamr::Layout::AoSoA { lane_width: 4 },
            hamr::Layout::AoSoA { lane_width: 8 },
        ] {
            let cols = group(&node, layout, &[&xs, &ys, &vs]);
            let mops: Vec<(BinOp, Option<&MappedCol>)> =
                ops.iter().map(|(op, v)| (*op, v.map(|_| &cols[2]))).collect();
            let lanes = bin_all_host(&cols[0], &cols[1], &mops, &g);
            for ((op, _), (lane_grid, ref_grid)) in ops.iter().zip(lanes.iter().zip(&reference)) {
                assert_eq!(
                    lane_grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    ref_grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{} under {}",
                    op.name(),
                    layout.name()
                );
                // The per-op mapped reference agrees too.
                let per_op = bin_host(
                    &cols[0],
                    &cols[1],
                    (*op != BinOp::Count).then_some(&cols[2]),
                    *op,
                    &g,
                );
                assert_eq!(
                    per_op.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    ref_grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "per-op {} under {}",
                    op.name(),
                    layout.name()
                );
            }
        }
    }

    #[test]
    fn mapped_bounds_match_dense_bounds_bitwise() {
        let node = devsim::SimNode::new(devsim::NodeConfig::fast_test(1));
        let a: Vec<f64> = vec![1.0, f64::NAN, -2.0, 3.0, 0.25, -7.5, 9.0];
        let b: Vec<f64> = vec![9.0, -9.0, 0.0, f64::INFINITY, 1.0, 2.0, 3.0];
        let dense = crate::bounds::minmax_multi(&[&a[..], &b[..]]);
        for layout in [hamr::Layout::AoS, hamr::Layout::SoA, hamr::Layout::AoSoA { lane_width: 4 }]
        {
            let cols = group(&node, layout, &[&a, &b]);
            let mapped = crate::bounds::minmax_multi(&[&cols[0], &cols[1]]);
            assert_eq!(mapped, dense, "bounds under {}", layout.name());
            assert_eq!(crate::bounds::minmax(&cols[0]), dense[0]);
            assert_eq!(crate::bounds::minmax(&cols[1]), dense[1]);
        }
    }
}
