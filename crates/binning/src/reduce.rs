//! Cross-rank reduction of per-rank binning grids.
//!
//! Each rank bins its local rows; the global result is the element-wise
//! combination of all per-rank grids under the operation's own semantics
//! (sums add, minima take min, ...). Averages are reduced as
//! (sum, count) pairs and finalized after the reduction — reducing
//! per-rank averages would weight ranks, not rows.

use minimpi::{Comm, SegmentOp};

use crate::spec::BinOp;

/// The packed-collective merge semantics of one accumulation grid:
/// counts, sums, and average running-sums add; minima take min; maxima
/// take max — identical to [`merge_grids`], expressed per segment.
pub fn segment_op(op: BinOp) -> SegmentOp {
    match op {
        BinOp::Count | BinOp::Sum | BinOp::Average => SegmentOp::Sum,
        BinOp::Min => SegmentOp::Min,
        BinOp::Max => SegmentOp::Max,
    }
}

/// Evaluate `$body` with `$f` bound to `$op`'s element combine — the one
/// statement of how a grid's elements merge. The op is matched once,
/// outside whatever loop `$body` runs, and each arm binds a plain function,
/// so every arm's loop is compiled (and vectorised) on its own.
macro_rules! with_combine {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            BinOp::Count | BinOp::Sum | BinOp::Average => {
                let $f = |a: f64, b: f64| a + b;
                $body
            }
            BinOp::Min => {
                let $f = f64::min;
                $body
            }
            BinOp::Max => {
                let $f = f64::max;
                $body
            }
        }
    };
}

/// Element-wise in-place combination of `part` into `acc` under `op`.
pub fn merge_into(op: BinOp, acc: &mut [f64], part: impl ExactSizeIterator<Item = f64>) {
    assert_eq!(acc.len(), part.len(), "grids must have identical shape");
    let pairs = acc.iter_mut().zip(part);
    with_combine!(op, f => pairs.for_each(|(x, y)| *x = f(*x, y)))
}

/// Land the partial grid `part` in `acc`: written over it when `write` (a
/// step's first table seeds the segment), else [`merge_into`] it.
pub fn land(op: BinOp, write: bool, acc: &mut [f64], part: impl ExactSizeIterator<Item = f64>) {
    if write {
        assert_eq!(acc.len(), part.len(), "grids must have identical shape");
        acc.iter_mut().zip(part).for_each(|(a, v)| *a = v);
    } else {
        merge_into(op, acc, part);
    }
}

/// [`land`] of a grid given only at the bins `at`: `part[j]` is its value
/// at bin `at[j]`, every other bin holds `op`'s identity, and only the
/// bins `at` are written or merged.
///
/// Skipping the identities is exact: a kernel's sums start at `+0.0` and
/// so are never `-0.0` (which `+0.0` would turn into `+0.0`), and its
/// minima and maxima never NaN, so folding an identity into one changes no
/// bit of it.
pub fn land_at(
    op: BinOp,
    write: bool,
    acc: &mut [f64],
    at: impl ExactSizeIterator<Item = usize>,
    part: &[f64],
) {
    assert_eq!(at.len(), part.len(), "one value per bin");
    let pairs = at.zip(part);
    if write {
        pairs.for_each(|(b, &v)| acc[b] = v)
    } else {
        with_combine!(op, f => pairs.for_each(|(b, &v)| acc[b] = f(acc[b], v)))
    }
}

/// Element-wise combination of two accumulation grids under `op`.
pub fn merge_grids(op: BinOp, mut a: Vec<f64>, b: Vec<f64>) -> Vec<f64> {
    merge_into(op, &mut a, b.into_iter());
    a
}

/// Allreduce a per-rank accumulation grid into the global grid.
pub fn allreduce_grid(comm: &Comm, op: BinOp, local: Vec<f64>) -> Vec<f64> {
    comm.allreduce(local, move |a, b| merge_grids(op, a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridParams;
    use crate::host_impl::{bin_host, finalize};
    use minimpi::World;

    #[test]
    fn merge_semantics_per_op() {
        let a = vec![1.0, f64::INFINITY, 5.0];
        let b = vec![2.0, 3.0, f64::NEG_INFINITY];
        assert_eq!(
            merge_grids(BinOp::Sum, a.clone(), b.clone()),
            vec![3.0, f64::INFINITY, f64::NEG_INFINITY]
        );
        assert_eq!(
            merge_grids(BinOp::Min, a.clone(), b.clone()),
            vec![1.0, 3.0, f64::NEG_INFINITY]
        );
        assert_eq!(merge_grids(BinOp::Max, a, b), vec![2.0, f64::INFINITY, 5.0]);
    }

    #[test]
    fn distributed_binning_equals_serial_binning() {
        // 4 ranks each bin a slice of a global dataset; the reduced grid
        // must equal binning the whole dataset serially.
        let n = 400;
        let xs: Vec<f64> = (0..n).map(|i| (i * 29 % 100) as f64 / 100.0).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i * 31 % 100) as f64 / 100.0).collect();
        let vs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 100.0).collect();
        let grid = GridParams::new(5, 5, [0.0, 0.0], [1.0, 1.0]);

        for op in [BinOp::Count, BinOp::Sum, BinOp::Min, BinOp::Max, BinOp::Average] {
            let mut serial = bin_host(&xs[..], &ys[..], Some(&vs[..]), op, &grid);
            let serial_counts = bin_host(&xs[..], &ys[..], None, BinOp::Count, &grid);
            finalize(op, &mut serial, &serial_counts);

            let (xs2, ys2, vs2, g2) = (xs.clone(), ys.clone(), vs.clone(), grid);
            let got = World::new(4).run(move |comm| {
                let chunk = n / comm.size();
                let s = comm.rank() * chunk;
                let e = if comm.rank() + 1 == comm.size() { n } else { s + chunk };
                let local = bin_host(&xs2[s..e], &ys2[s..e], Some(&vs2[s..e]), op, &g2);
                let mut global = allreduce_grid(&comm, op, local);
                let counts = allreduce_grid(
                    &comm,
                    BinOp::Count,
                    bin_host(&xs2[s..e], &ys2[s..e], None, BinOp::Count, &g2),
                );
                finalize(op, &mut global, &counts);
                global
            });
            for rank_grid in got {
                for (i, (g, e)) in rank_grid.iter().zip(&serial).enumerate() {
                    assert!(
                        (g - e).abs() < 1e-9 || (g.is_nan() && e.is_nan()),
                        "op {op:?} bin {i}: {g} vs {e}"
                    );
                }
            }
        }
    }
}
