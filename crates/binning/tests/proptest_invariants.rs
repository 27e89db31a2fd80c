//! Property tests on the binning invariants: conservation, ordering, and
//! host/device agreement over arbitrary data.

use std::sync::Arc;

use binning::{bounds, device_impl, host_impl, reduce, BinOp, GridParams};
use devsim::{CellBuffer, NodeConfig, SimNode, Stream};
use hamr::{Layout, LayoutMap, Mapping};
use proptest::prelude::*;

fn rows() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    proptest::collection::vec(
        (
            -1.5f64..1.5,   // x (grid covers [-1, 1]: some rows fall outside)
            -1.5f64..1.5,   // y
            -10.0f64..10.0, // value
        ),
        0..200,
    )
}

fn grid() -> GridParams {
    GridParams::new(7, 5, [-1.0, -1.0], [1.0, 1.0])
}

fn split3(v: &[(f64, f64, f64)]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let xs = v.iter().map(|r| r.0).collect();
    let ys = v.iter().map(|r| r.1).collect();
    let vs = v.iter().map(|r| r.2).collect();
    (xs, ys, vs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Total count equals the number of in-range rows; total sum equals
    /// the sum of in-range values.
    #[test]
    fn conservation(data in rows()) {
        let g = grid();
        let (xs, ys, vs) = split3(&data);
        let counts = host_impl::bin_host(&xs[..], &ys[..], None, BinOp::Count, &g);
        let sums = host_impl::bin_host(&xs[..], &ys[..], Some(&vs[..]), BinOp::Sum, &g);
        let in_range: Vec<&(f64, f64, f64)> =
            data.iter().filter(|r| g.bin_index(r.0, r.1).is_some()).collect();
        prop_assert_eq!(counts.iter().sum::<f64>() as usize, in_range.len());
        let expect: f64 = in_range.iter().map(|r| r.2).sum();
        prop_assert!((sums.iter().sum::<f64>() - expect).abs() < 1e-9);
    }

    /// Per bin: min <= avg <= max, and empty bins are NaN after finalize.
    #[test]
    fn per_bin_ordering(data in rows()) {
        let g = grid();
        let (xs, ys, vs) = split3(&data);
        let counts = host_impl::bin_host(&xs[..], &ys[..], None, BinOp::Count, &g);
        let mut mins = host_impl::bin_host(&xs[..], &ys[..], Some(&vs[..]), BinOp::Min, &g);
        let mut maxs = host_impl::bin_host(&xs[..], &ys[..], Some(&vs[..]), BinOp::Max, &g);
        let mut avgs = host_impl::bin_host(&xs[..], &ys[..], Some(&vs[..]), BinOp::Average, &g);
        host_impl::finalize(BinOp::Min, &mut mins, &counts);
        host_impl::finalize(BinOp::Max, &mut maxs, &counts);
        host_impl::finalize(BinOp::Average, &mut avgs, &counts);
        for b in 0..g.num_bins() {
            if counts[b] == 0.0 {
                prop_assert!(mins[b].is_nan() && maxs[b].is_nan() && avgs[b].is_nan());
            } else {
                prop_assert!(mins[b] <= avgs[b] + 1e-12, "bin {b}");
                prop_assert!(avgs[b] <= maxs[b] + 1e-12, "bin {b}");
            }
        }
    }

    /// The fused single-pass scatter is bit-identical to the per-op
    /// reference for **every** operation, over arbitrary data (including
    /// empty inputs and empty bins — Min/Max identities survive intact).
    #[test]
    fn fused_host_pass_is_bit_identical_per_op(data in rows()) {
        let g = grid();
        let (xs, ys, vs) = split3(&data);
        let ops: Vec<(BinOp, Option<&[f64]>)> = vec![
            (BinOp::Count, None),
            (BinOp::Sum, Some(&vs)),
            (BinOp::Min, Some(&vs)),
            (BinOp::Max, Some(&vs)),
            (BinOp::Average, Some(&vs)),
        ];
        let fused = host_impl::bin_all_host(&xs[..], &ys[..], &ops, &g);
        let counts = fused[0].clone();
        for ((op, vals), fused_grid) in ops.iter().zip(&fused) {
            let reference = host_impl::bin_host(&xs[..], &ys[..], *vals, *op, &g);
            prop_assert_eq!(
                fused_grid.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "op {:?}", op
            );
            // Finalized grids are NaN-free except where the bin is empty.
            let mut fin = fused_grid.clone();
            host_impl::finalize(*op, &mut fin, &counts);
            for (b, v) in fin.iter().enumerate() {
                if counts[b] > 0.0 {
                    prop_assert!(!v.is_nan(), "op {:?} bin {b} has data but is NaN", op);
                } else if matches!(op, BinOp::Min | BinOp::Max | BinOp::Average) {
                    prop_assert!(v.is_nan(), "op {:?} empty bin {b} must finalize to NaN", op);
                }
            }
        }
    }

    /// Binning is partition-invariant: splitting the rows arbitrarily and
    /// merging the partial grids equals binning everything at once.
    #[test]
    fn partition_invariance(data in rows(), split_at in 0usize..200) {
        let g = grid();
        let k = split_at.min(data.len());
        for op in [BinOp::Count, BinOp::Sum, BinOp::Min, BinOp::Max] {
            let (xs, ys, vs) = split3(&data);
            let whole = host_impl::bin_host(&xs[..], &ys[..], Some(&vs[..]), op, &g);

            let (xa, ya, va) = split3(&data[..k]);
            let (xb, yb, vb) = split3(&data[k..]);
            let pa = host_impl::bin_host(&xa[..], &ya[..], Some(&va[..]), op, &g);
            let pb = host_impl::bin_host(&xb[..], &yb[..], Some(&vb[..]), op, &g);
            let merged = reduce::merge_grids(op, pa, pb);
            for (m, w) in merged.iter().zip(&whole) {
                prop_assert!((m - w).abs() < 1e-9 || (m.is_infinite() && w.is_infinite()));
            }
        }
    }
}

/// Scatter `fields` into one interleaved backing block arranged as
/// `layout` and wrap each field as a map-translated column — the shape
/// a grouped table's columns reach the binning kernels in.
fn group(
    node: &Arc<SimNode>,
    layout: Layout,
    fields: &[&[f64]],
) -> (CellBuffer, Vec<host_impl::MappedCol>) {
    let n = fields[0].len();
    let block = node.host_alloc_f64(layout.block_cells(n, fields.len()));
    let view = block.host_f64().unwrap();
    let mut cols = Vec::with_capacity(fields.len());
    for (f, vals) in fields.iter().enumerate() {
        let map = LayoutMap::new(layout, n, fields.len(), f);
        for (i, &v) in vals.iter().enumerate() {
            view.set(map.index(i), v);
        }
        cols.push(host_impl::MappedCol::new(block.host_f64().unwrap(), map));
    }
    (block, cols)
}

proptest! {
    // Each case builds small node-backed buffers; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generic kernels over every grouped layout — AoS, SoA, and
    /// AoSoA at lane widths 1, 4, and 8 (arbitrary row counts, so ragged
    /// tails of the lane-blocked walk are routine) — are bit-identical to
    /// the same kernels over dense slices for **every** operation, fused,
    /// per-op and bounds alike.
    #[test]
    fn grouped_layouts_are_bit_identical_to_scalar(data in rows()) {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let g = grid();
        let (xs, ys, vs) = split3(&data);

        // Dense scalar references.
        let all = [BinOp::Count, BinOp::Sum, BinOp::Min, BinOp::Max, BinOp::Average];
        let dense_ops: Vec<(BinOp, Option<&[f64]>)> =
            all.iter().map(|&op| (op, (op != BinOp::Count).then_some(&vs[..]))).collect();
        let reference = host_impl::bin_all_host(&xs[..], &ys[..], &dense_ops, &g);
        let ref_bounds = bounds::minmax_multi(&[&xs[..], &ys[..]]);

        for layout in [
            Layout::AoS,
            Layout::SoA,
            Layout::AoSoA { lane_width: 1 },
            Layout::AoSoA { lane_width: 4 },
            Layout::AoSoA { lane_width: 8 },
        ] {
            let (_block, cols) = group(&node, layout, &[&xs, &ys, &vs]);
            let (cx, cy, cv) = (&cols[0], &cols[1], &cols[2]);

            let ops: Vec<(BinOp, Option<&host_impl::MappedCol>)> =
                all.iter().map(|&op| (op, (op != BinOp::Count).then_some(cv))).collect();
            let fused = host_impl::bin_all_host(cx, cy, &ops, &g);
            for ((op, _), (got, want)) in all.iter().zip(&ops).zip(fused.iter().zip(&reference)) {
                prop_assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{} fused op {:?}", layout.name(), op
                );
            }

            for &op in &all {
                let vals = (op != BinOp::Count).then_some(cv);
                let per_op = host_impl::bin_host(cx, cy, vals, op, &g);
                let want = host_impl::bin_host(&xs[..], &ys[..], Some(&vs[..]), op, &g);
                prop_assert_eq!(
                    per_op.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{} per-op {:?}", layout.name(), op
                );
            }

            let mapped_bounds = bounds::minmax_multi(&[cx, cy]);
            for (axis, ((lo, hi), (rlo, rhi))) in
                mapped_bounds.iter().zip(&ref_bounds).enumerate()
            {
                prop_assert_eq!(lo.to_bits(), rlo.to_bits(), "{} axis {axis} lo", layout.name());
                prop_assert_eq!(hi.to_bits(), rhi.to_bits(), "{} axis {axis} hi", layout.name());
            }
        }
    }
}

fn upload(node: &Arc<SimNode>, stream: &Arc<Stream>, data: &[f64]) -> CellBuffer {
    let host = node.host_alloc_f64(data.len());
    host.host_f64().unwrap().copy_from_slice(data);
    let dev = node.device(0).unwrap().alloc_f64(data.len()).unwrap();
    stream.copy(&host, &dev).unwrap();
    dev
}

proptest! {
    // Device runs spin up threads; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The device kernel agrees with the host implementation exactly.
    #[test]
    fn device_matches_host(data in rows()) {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let g = grid();
        let (xs, ys, vs) = split3(&data);
        let dx = upload(&node, &stream, &xs);
        let dy = upload(&node, &stream, &ys);
        let dv = upload(&node, &stream, &vs);
        for op in [BinOp::Count, BinOp::Sum, BinOp::Min, BinOp::Max] {
            let vals = if op == BinOp::Count { None } else { Some(&dv) };
            let dbins = device_impl::bin_device(&node, 0, &stream, &dx, &dy, vals, op, g).unwrap();
            let host_out = node.host_alloc_f64(g.num_bins());
            stream.copy(&dbins, &host_out).unwrap();
            stream.synchronize().unwrap();
            let got = host_out.host_f64().unwrap().to_vec();
            let expect = host_impl::bin_host(&xs[..], &ys[..], Some(&vs[..]), op, &g);
            for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                    "op {:?} bin {i}: {a} vs {b}", op
                );
            }
        }
    }

    /// The fused multi-op device kernel is bit-identical to the per-op
    /// device kernels for every operation over arbitrary data.
    #[test]
    fn fused_device_pass_is_bit_identical_per_op(data in rows()) {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let g = grid();
        let (xs, ys, vs) = split3(&data);
        let dx = upload(&node, &stream, &xs);
        let dy = upload(&node, &stream, &ys);
        let dv = upload(&node, &stream, &vs);
        let all = [BinOp::Count, BinOp::Sum, BinOp::Min, BinOp::Max, BinOp::Average];
        let ops: Vec<(BinOp, Option<&CellBuffer>)> = all
            .iter()
            .map(|&op| (op, if op == BinOp::Count { None } else { Some(&dv) }))
            .collect();
        let packed = device_impl::bin_all_device(&node, 0, &stream, &dx, &dy, &ops, g).unwrap();
        let host_out = node.host_alloc_f64(packed.len());
        stream.copy(&packed, &host_out).unwrap();
        stream.synchronize().unwrap();
        let fused = host_out.host_f64().unwrap().to_vec();
        for (seg, &op) in all.iter().enumerate() {
            let vals = if op == BinOp::Count { None } else { Some(&dv) };
            let dbins = device_impl::bin_device(&node, 0, &stream, &dx, &dy, vals, op, g).unwrap();
            let ref_out = node.host_alloc_f64(g.num_bins());
            stream.copy(&dbins, &ref_out).unwrap();
            stream.synchronize().unwrap();
            let reference = ref_out.host_f64().unwrap().to_vec();
            let got = &fused[seg * g.num_bins()..(seg + 1) * g.num_bins()];
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "op {:?}", op
            );
        }
    }
}
