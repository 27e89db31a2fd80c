//! On-the-fly axis bounds: local min/max of the coordinate columns,
//! combined across MPI ranks.

use minimpi::{Comm, Segment, SegmentOp};
use sensei::{Error, Result};

/// Min/max of a host-resident column, skipping non-finite values.
pub fn minmax(col: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in col {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (lo, hi)
}

/// [`minmax`] of each of several host-resident columns: `(lo, hi)` per
/// column, one traversal per column (column-major — the rows are not
/// fused). Columns may have different lengths; empty columns return
/// `(+inf, -inf)`.
pub fn minmax_multi(cols: &[&[f64]]) -> Vec<(f64, f64)> {
    cols.iter().map(|col| minmax(col)).collect()
}

/// Combine per-rank `(lo, hi)` pairs into the global bounds with an
/// allreduce (§4.2: bounds "obtained on the fly by calculating the
/// minimum and maximum of the respective coordinate variables").
pub fn global_bounds(comm: &Comm, local: (f64, f64)) -> (f64, f64) {
    comm.allreduce(local, |a, b| (a.0.min(b.0), a.1.max(b.1)))
}

/// Combine per-rank `(lo, hi)` pairs for **several** axes in a single
/// packed allreduce (alternating min/max segments), instead of one
/// allreduce per axis.
pub fn global_bounds_packed(comm: &Comm, local: &[(f64, f64)]) -> Result<Vec<(f64, f64)>> {
    let mut data = Vec::with_capacity(2 * local.len());
    let mut segments = Vec::with_capacity(2 * local.len());
    for &(lo, hi) in local {
        data.push(lo);
        data.push(hi);
        segments.push(Segment::new(SegmentOp::Min, 1));
        segments.push(Segment::new(SegmentOp::Max, 1));
    }
    let merged = comm
        .allreduce_packed(data, &segments)
        .map_err(|e| Error::Analysis(format!("packed bounds allreduce: {e}")))?;
    Ok(merged.chunks_exact(2).map(|p| (p[0], p[1])).collect())
}

/// Widen possibly degenerate bounds into a usable bin range: empty data
/// becomes the unit interval, a single point gets a symmetric margin.
pub fn usable_range(lo: f64, hi: f64) -> (f64, f64) {
    if !lo.is_finite() || !hi.is_finite() {
        return (0.0, 1.0);
    }
    if hi > lo {
        return (lo, hi);
    }
    // All values identical: center a unit-ish interval on them.
    let pad = if lo == 0.0 { 0.5 } else { lo.abs() * 0.5 };
    (lo - pad, hi + pad)
}

/// Full pipeline for one axis: local min/max → allreduce → usable range.
pub fn axis_bounds(comm: &Comm, local_col: &[f64]) -> Result<(f64, f64)> {
    let local = minmax(local_col);
    let (lo, hi) = global_bounds(comm, local);
    Ok(usable_range(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minimpi::World;

    #[test]
    fn host_minmax_skips_nonfinite() {
        let (lo, hi) = minmax(&[1.0, f64::NAN, -2.0, f64::INFINITY, 3.0]);
        assert_eq!((lo, hi), (-2.0, 3.0));
    }

    #[test]
    fn empty_column_gives_unit_interval() {
        let (lo, hi) = minmax(&[]);
        assert_eq!(usable_range(lo, hi), (0.0, 1.0));
    }

    #[test]
    fn degenerate_column_is_padded() {
        let (lo, hi) = usable_range(4.0, 4.0);
        assert!(lo < 4.0 && hi > 4.0);
        let (lo, hi) = usable_range(0.0, 0.0);
        assert_eq!((lo, hi), (-0.5, 0.5));
        let (lo, hi) = usable_range(-3.0, -3.0);
        assert!(lo < -3.0 && hi > -3.0);
    }

    #[test]
    fn multi_column_minmax_matches_per_column() {
        let a = &[1.0, f64::NAN, -2.0, 3.0][..];
        let b = &[9.0, -9.0][..];
        let got = minmax_multi(&[a, b, &[]]);
        assert_eq!(got[0], minmax(a));
        assert_eq!(got[1], minmax(b));
        assert_eq!(got[2], (f64::INFINITY, f64::NEG_INFINITY));
        assert!(minmax_multi(&[]).is_empty());
    }

    #[test]
    fn packed_bounds_match_per_axis_bounds_with_one_allreduce() {
        let got = World::new(4).run(|c| {
            let r = c.rank() as f64;
            let local = vec![(r, r + 5.0), (-r, r * 10.0)];
            let before = c.allreduce_count();
            let packed = global_bounds_packed(&c, &local).unwrap();
            let rounds = c.allreduce_count() - before;
            (packed, rounds)
        });
        for (packed, rounds) in got {
            assert_eq!(packed, vec![(0.0, 8.0), (-3.0, 30.0)]);
            assert_eq!(rounds, 1, "both axes must share one allreduce round");
        }
    }

    #[test]
    fn bounds_reduce_across_ranks() {
        let got = World::new(4).run(|c| {
            // rank r holds values around r*10.
            let col: Vec<f64> = vec![c.rank() as f64 * 10.0, c.rank() as f64 * 10.0 + 5.0];
            axis_bounds(&c, &col).unwrap()
        });
        for (lo, hi) in got {
            assert_eq!((lo, hi), (0.0, 35.0));
        }
    }
}
