//! Property tests on the binning invariants: conservation, ordering, and
//! host/device agreement over arbitrary data.

use std::ops::Range;
use std::sync::Arc;

use binning::host_impl::PassSpec;
use binning::{block, device_impl, host_impl, reduce, BinOp, GridParams};
use devsim::{CellBuffer, NodeConfig, SimNode, Stream};
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

const ALL: [BinOp; 5] = [BinOp::Count, BinOp::Sum, BinOp::Min, BinOp::Max, BinOp::Average];

fn bits(grid: &[f64]) -> Vec<u64> {
    grid.iter().map(|v| v.to_bits()).collect()
}

/// The one-spec pass over columns `[xs, ys, vs]`: `ops`, all reducing `vs`.
fn xyv_spec(ops: &[BinOp], grid: GridParams) -> PassSpec {
    let ops = ops.iter().map(|&op| (op, (op != BinOp::Count).then_some(2))).collect();
    PassSpec { axes: [0, 1], grid, ops }
}

/// One fused pass of `spec` over `cols`, split into per-op grids.
fn fused_grids(cols: &[&[f64]], spec: &PassSpec) -> Vec<Vec<f64>> {
    let packed = packed_grids(cols, std::slice::from_ref(spec)).remove(0);
    packed.chunks(spec.grid.num_bins()).map(<[f64]>::to_vec).collect()
}

/// One fused pass of `specs` over `cols`, committed to a host block and
/// read back dense: per spec, its grids packed `[op][bin]`. The pass runs
/// in a scratch an earlier launch — the same specs in reverse order — has
/// left its plans and partials in, as every launch after a back-end's
/// first does.
fn packed_grids(cols: &[&[f64]], specs: &[PassSpec]) -> Vec<Vec<f64>> {
    let (mut scratch, mut block) = (host_impl::KernelScratch::default(), Vec::new());
    let earlier: Vec<PassSpec> = specs.iter().rev().cloned().collect();
    host_impl::bin_all_block(cols, &earlier, &mut scratch, &mut block);
    host_impl::bin_all_block(cols, specs, &mut scratch, &mut block);
    let mut grids = unpack(&block, specs).into_iter();
    let sizes = specs.iter().map(|s| s.ops.len() * s.grid.num_bins());
    sizes.map(|n| grids.by_ref().take(n).collect()).collect()
}

/// The grids of `specs` in a block ([`device_impl::bin_all_device`] or
/// [`host_impl::bin_all_block`] filled it), dense: spec after spec, each
/// spec's `[op][bin]`.
fn unpack(block: &[f64], specs: &[PassSpec]) -> Vec<f64> {
    let shapes = specs.iter().map(|s| (s.ops.len(), s.grid.num_bins()));
    let parts = block::spec_parts(block, shapes).unwrap();
    let mut grids = Vec::new();
    for (spec, part) in specs.iter().zip(parts) {
        for (k, &(op, _)) in spec.ops.iter().enumerate() {
            let mut grid = vec![host_impl::identity(op); spec.grid.num_bins()];
            part.land(k, op, true, &mut grid);
            grids.extend(grid);
        }
    }
    grids
}

/// One fused device pass of `spec` over `cols`, launched twice into the
/// same resident block through `scratches`: the block, whose grids must
/// not depend on what it or the scratch held before.
fn fused_device(
    node: &Arc<SimNode>,
    stream: &Arc<Stream>,
    cols: &[&CellBuffer],
    spec: &PassSpec,
    scratches: &Arc<host_impl::ScratchPool>,
) -> CellBuffer {
    let len = block::block_len(std::slice::from_ref(spec));
    let packed = node.device(0).unwrap().alloc_cells_on_stream(len, stream).unwrap();
    for _ in 0..2 {
        device_impl::bin_all_device(stream, cols, std::slice::from_ref(spec), &packed, scratches)
            .unwrap();
    }
    packed
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
        let fused = fused_grids(&[&xs[..], &ys[..], &vs[..]], &xyv_spec(&ALL, g));
        let counts = fused[0].clone();
        for (op, fused_grid) in ALL.iter().zip(&fused) {
            let reference = host_impl::bin_host(&xs[..], &ys[..], Some(&vs[..]), *op, &g);
            prop_assert_eq!(bits(fused_grid), bits(&reference), "op {:?}", op);
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

/// splitmix64: a case's table and spec set follow from its seed alone.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Rows per short tile and per long block of the fused core (private
/// constants of `host_impl`, which picks between them by the pass's
/// accumulator bytes); the row counts below sit on both sides of one and
/// of several of each.
const TILE: usize = 256;
const BLOCK: usize = 16_384;
const ROW_COUNTS: [usize; 7] = [0, 1, 7, TILE - 1, TILE, TILE + 1, 2 * TILE + 13];
const BLOCK_ROW_COUNTS: [usize; 9] =
    [0, 1, TILE - 1, TILE, TILE + 1, BLOCK - 1, BLOCK, BLOCK + 1, 40_000];

/// Columns of a random table: 0..3 are axis-only and carry NaN, both
/// infinities, out-of-range values and values exactly on a bound; 3..6
/// serve as axes and as values. Columns 3 and 4 carry both infinities;
/// column 5 carries NaN and, one row in ten, `+0.0` or `-0.0`, so a bin's
/// minimum or maximum meets signed-zero ties and skips NaN values. No
/// value column holds both: a sum that met `inf + -inf` and a NaN value is
/// a NaN whose sign Rust leaves to the add's operand order.
const NUM_COLS: usize = 6;

/// A random table of `rows` rows and a random spec set over it. Specs
/// draw their axes from every column and their mesh from a small pool,
/// so some share an axis with its bounds and resolution (one shared
/// index), some share only the column, some nothing; op lists are fresh
/// (none to twenty ops, ops and value columns repeating freely, so a
/// spec may need several lanes of any shape the kernel instantiates), a
/// copy of the previous spec's (one shared stage) or its reverse (the
/// same slots in another order).
fn random_pass(seed: u64, rows: usize) -> (Vec<Vec<f64>>, Vec<PassSpec>) {
    let mut rng = Mix(seed);
    let mut cell = |c: usize| match (c, rng.below(if c < 3 { 12 } else { 40 })) {
        (0..=4, 0) => f64::INFINITY,
        (0..=4, 1) => f64::NEG_INFINITY,
        (0..=2 | 5, 2) => f64::NAN,
        (0..=2, 3) => 7.5,
        (0..=2, 4) => 1.0,
        (0..=2, 5) => -1.0,
        (5, 3 | 4) => 0.0,
        (5, 5 | 6) => -0.0,
        _ => (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.5 - 1.25,
    };
    let cols: Vec<Vec<f64>> = (0..NUM_COLS).map(|c| (0..rows).map(|_| cell(c)).collect()).collect();

    let meshes = [
        GridParams::new(7, 5, [-1.0, -1.0], [1.0, 1.0]),
        GridParams::new(7, 5, [-1.0, -1.0], [1.0, 1.0]),
        GridParams::new(7, 3, [-1.0, -0.5], [1.0, 1.25]),
        GridParams::new(4, 9, [-0.25, -1.0], [0.75, 1.0]),
        GridParams::new(1, 1, [-1.0, -1.0], [1.0, 1.0]),
    ];
    let mut specs: Vec<PassSpec> = Vec::new();
    for _ in 0..1 + rng.below(5) {
        let ops = match (specs.last(), rng.below(3)) {
            (Some(prev), 0) => prev.ops.clone(),
            (Some(prev), 1) => prev.ops.iter().rev().cloned().collect(),
            _ => (0..rng.below(21))
                .map(|_| {
                    let op = ALL[rng.below(ALL.len())];
                    (op, (op != BinOp::Count).then(|| 3 + rng.below(NUM_COLS - 3)))
                })
                .collect(),
        };
        let axes = [rng.below(NUM_COLS), rng.below(NUM_COLS)];
        specs.push(PassSpec { axes, grid: meshes[rng.below(meshes.len())], ops });
    }
    (cols, specs)
}

/// Four coordinate systems over the columns of a [`random_pass`] table
/// that differ in resolution and in op list; the first and the third
/// share an axis index and a stage, and the fourth lists the paper's ten
/// ops (the count, five sums, a minimum, a maximum and two averages: one
/// lane with no pads). At `scale` 1 their accumulators are a few KB and
/// the core walks short tiles; at `scale` 22 they are 0.8 to 0.9 MB each
/// (pads included) and 3.4 MB together — more than half an L2, which is
/// when a pass of several specs walks long blocks.
fn boundary_pass(scale: usize) -> Vec<PassSpec> {
    let a = [
        (BinOp::Count, None),
        (BinOp::Sum, Some(3)),
        (BinOp::Min, Some(5)),
        (BinOp::Max, Some(4)),
        (BinOp::Average, Some(3)),
    ];
    let b = [
        (BinOp::Max, Some(3)),
        (BinOp::Count, None),
        (BinOp::Sum, Some(4)),
        (BinOp::Min, Some(3)),
        (BinOp::Average, Some(5)),
        (BinOp::Sum, Some(5)),
    ];
    let mut paper = vec![(BinOp::Count, None)];
    paper.extend((0..5).map(|k| (BinOp::Sum, Some(3 + k % 3))));
    paper.extend([(BinOp::Min, Some(4)), (BinOp::Max, Some(5))]);
    paper.extend([(BinOp::Average, Some(5)), (BinOp::Average, Some(3))]);
    let square = GridParams::new(6 * scale, 6 * scale, [-1.0, -1.0], [1.0, 1.0]);
    let oblong = GridParams::new(8 * scale, 5 * scale, [-0.25, -1.0], [0.75, 1.0]);
    let coarse = GridParams::new(5 * scale, 4 * scale, [-1.25, -1.0], [1.25, 1.0]);
    vec![
        PassSpec { axes: [0, 1], grid: square, ops: a.to_vec() },
        PassSpec { axes: [1, 2], grid: oblong, ops: b.to_vec() },
        PassSpec { axes: [0, 4], grid: square, ops: a.iter().rev().cloned().collect() },
        PassSpec { axes: [3, 5], grid: coarse, ops: paper },
    ]
}

/// Compare `packed` — the grids of `specs` spec after spec, each spec's
/// `[op][bin]` — with the per-op `oracle`, bit for bit.
fn assert_packed_matches(
    packed: &[f64],
    specs: &[PassSpec],
    oracle: impl Fn(&PassSpec, BinOp, Option<usize>) -> Vec<f64>,
    what: &str,
) {
    let mut cells = packed.iter().copied();
    for (si, spec) in specs.iter().enumerate() {
        for (k, &(op, values)) in spec.ops.iter().enumerate() {
            let got: Vec<f64> = cells.by_ref().take(spec.grid.num_bins()).collect();
            assert!(
                bits(&got) == bits(&oracle(spec, op, values)),
                "{what}: spec {si} op {k} {op:?}"
            );
        }
    }
    assert_eq!(cells.next(), None, "{what}: cells beyond the last grid");
}

/// The blocked core over plain slices and over host read views — what a
/// host-placed step borrows — committed spec by spec into a host block as
/// the fused step consumes them (on a table of one block out of one shared
/// accumulator, touched bins only where a spec can never go dense) and
/// read back dense, equals the per-op host kernel bit for bit at row
/// counts around the short tile, around the long block and over several
/// long blocks, with NaN, infinite and out-of-range rows.
#[test]
fn blocked_core_matches_per_op_on_slices_and_host_views_across_block_boundaries() {
    let node = SimNode::new(NodeConfig::fast_test(1));
    for scale in [1, 22] {
        let specs = boundary_pass(scale);
        let mut scratch = host_impl::KernelScratch::default();
        for rows in BLOCK_ROW_COUNTS {
            let (cols, _) = random_pass(rows as u64 + 1, rows);
            let dense: Vec<&[f64]> = cols.iter().map(|c| &c[..]).collect();
            let oracle = |spec: &PassSpec, op, values: Option<usize>| {
                let [xs, ys] = spec.axes.map(|c| dense[c]);
                host_impl::bin_host(xs, ys, values.map(|c| dense[c]), op, &spec.grid)
            };
            let what = format!("scale {scale} rows {rows}");

            let mut block = Vec::new();
            host_impl::bin_all_block(&dense, &specs, &mut scratch, &mut block);
            let packed = unpack(&block, &specs);
            assert_packed_matches(&packed, &specs, oracle, &format!("{what} slices"));

            let views: Vec<devsim::ReadView<f64>> = cols
                .iter()
                .map(|c| {
                    let buf = node.host_alloc_f64(c.len());
                    buf.host_f64().unwrap().copy_from_slice(c);
                    buf.host_f64_ro().unwrap()
                })
                .collect();
            let views: Vec<&[f64]> = views.iter().map(|v| &v[..]).collect();
            host_impl::bin_all_block(&views, &specs, &mut scratch, &mut block);
            let packed = unpack(&block, &specs);
            assert_packed_matches(&packed, &specs, oracle, &format!("{what} host views"));
        }
    }
}

proptest! {
    // Each case walks every row count.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tiled core over random spec sets is bit-identical to the per-op
    /// reference for every `(spec, op)`, at row counts around the tile
    /// size.
    #[test]
    fn tiled_core_matches_per_op_over_random_spec_sets(seed in any::<u64>()) {
        for rows in ROW_COUNTS {
            let (cols, specs) = random_pass(seed ^ rows as u64, rows);
            let dense: Vec<&[f64]> = cols.iter().map(|c| &c[..]).collect();
            let fused = packed_grids(&dense, &specs);
            prop_assert_eq!(fused.len(), specs.len());
            for (si, (spec, packed)) in specs.iter().zip(&fused).enumerate() {
                let bins = spec.grid.num_bins();
                prop_assert_eq!(packed.len(), spec.ops.len() * bins);
                for (k, &(op, values)) in spec.ops.iter().enumerate() {
                    let [xs, ys] = spec.axes.map(|c| dense[c]);
                    let want = host_impl::bin_host(xs, ys, values.map(|c| dense[c]), op, &spec.grid);
                    prop_assert_eq!(
                        bits(&packed[k * bins..(k + 1) * bins]),
                        bits(&want),
                        "rows {rows} spec {si} {:?} op {k} {:?}", spec, op
                    );
                }
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

/// One multi-spec device launch — specs of unequal segment lengths in one
/// packed block, committed twice into the same resident block — equals
/// the per-op device kernels bit for bit at the same row counts.
#[test]
fn multi_spec_device_launch_matches_per_op_across_block_boundaries() {
    let node = SimNode::new(NodeConfig::fast_test(1));
    let stream = node.device(0).unwrap().create_stream();
    let download = |buf: &CellBuffer| {
        let host = node.host_alloc_f64(buf.len());
        stream.copy(buf, &host).unwrap();
        stream.synchronize().unwrap();
        host.host_f64_ro().unwrap().to_vec()
    };
    let scratches = Arc::default();
    for scale in [1, 22] {
        let specs = boundary_pass(scale);
        let len = block::block_len(&specs);
        let packed = node.device(0).unwrap().alloc_cells_on_stream(len, &stream).unwrap();
        for rows in BLOCK_ROW_COUNTS {
            let (cols, _) = random_pass(rows as u64 + 1, rows);
            let dev: Vec<CellBuffer> = cols.iter().map(|c| upload(&node, &stream, c)).collect();
            let dev_refs: Vec<&CellBuffer> = dev.iter().collect();
            for _ in 0..2 {
                device_impl::bin_all_device(&stream, &dev_refs, &specs, &packed, &scratches)
                    .unwrap();
            }
            let oracle = |spec: &PassSpec, op, values: Option<usize>| {
                let [dx, dy] = spec.axes.map(|c| &dev[c]);
                let values = values.map(|c| &dev[c]);
                let per_op =
                    device_impl::bin_device(&node, 0, &stream, dx, dy, values, op, spec.grid);
                download(&per_op.unwrap())
            };
            let what = format!("scale {scale} rows {rows} device");
            assert_packed_matches(&unpack(&download(&packed), &specs), &specs, oracle, &what);
        }
    }
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
        let spec = xyv_spec(&ALL, g);
        let packed = fused_device(&node, &stream, &[&dx, &dy, &dv], &spec, &Arc::default());
        let host_out = node.host_alloc_f64(packed.len());
        stream.copy(&packed, &host_out).unwrap();
        stream.synchronize().unwrap();
        let fused = unpack(&host_out.host_f64_ro().unwrap(), std::slice::from_ref(&spec));
        for (seg, &op) in ALL.iter().enumerate() {
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

    /// The privatized device kernel over random spec sets — every launch
    /// through one scratch pool — equals the per-op device kernels bit for
    /// bit, and a bin no row fell into holds its reduction's identity.
    #[test]
    fn privatized_device_kernel_matches_per_op_and_spares_untouched_bins(seed in any::<u64>()) {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let download = |buf: &CellBuffer| {
            let host = node.host_alloc_f64(buf.len());
            stream.copy(buf, &host).unwrap();
            stream.synchronize().unwrap();
            host.host_f64_ro().unwrap().to_vec()
        };
        let scratches = Arc::default();
        for rows in [0, 1, TILE + 1] {
            let (cols, specs) = random_pass(seed ^ rows as u64, rows);
            let dev: Vec<CellBuffer> = cols.iter().map(|c| upload(&node, &stream, c)).collect();
            let dev_refs: Vec<&CellBuffer> = dev.iter().collect();
            for (si, spec) in specs.iter().enumerate() {
                let g = spec.grid;
                let bins = g.num_bins();
                let block = download(&fused_device(&node, &stream, &dev_refs, spec, &scratches));
                let fused = unpack(&block, std::slice::from_ref(spec));
                prop_assert_eq!(fused.len(), spec.ops.len() * bins);
                let [xs, ys] = spec.axes.map(|c| &cols[c][..]);
                let counts = host_impl::bin_host(xs, ys, None, BinOp::Count, &g);
                for (k, &(op, values)) in spec.ops.iter().enumerate() {
                    let [dx, dy] = spec.axes.map(|c| &dev[c]);
                    let per_op = device_impl::bin_device(
                        &node, 0, &stream, dx, dy, values.map(|c| &dev[c]), op, g,
                    )
                    .unwrap();
                    let got = &fused[k * bins..(k + 1) * bins];
                    prop_assert_eq!(
                        bits(got), bits(&download(&per_op)), "rows {rows} spec {si} op {k} {:?}", op
                    );
                    let identity = host_impl::identity(op).to_bits();
                    for (b, v) in got.iter().enumerate().filter(|(b, _)| counts[*b] == 0.0) {
                        prop_assert_eq!(v.to_bits(), identity, "untouched bin {b} of {:?}", op);
                    }
                }
            }
        }
    }
}

/// The tables of a sparse-against-dense landing case, all over the
/// columns of one [`random_pass`] spec set: empty, touching no bin (every
/// row NaN, infinite or out of range), touching nearly all of them, or a
/// few rows with NaN, infinities, `-0.0` and out-of-range values.
fn landing_tables(seed: u64) -> (Vec<Vec<Vec<f64>>>, Vec<PassSpec>) {
    let mut rng = Mix(seed);
    let (_, specs) = random_pass(seed, 0);
    let tables = (0..1 + rng.below(4))
        .map(|t| {
            let salt = seed ^ (t as u64 + 1) << 32;
            match rng.below(4) {
                0 => vec![Vec::new(); NUM_COLS],
                1 => {
                    let outside = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 7.5];
                    let col = |c: usize| (0..9).map(|r| outside[(r + c) % 4]).collect();
                    (0..NUM_COLS).map(col).collect()
                }
                2 => random_pass(salt, 3_000).0,
                _ => {
                    let (mut cols, _) = random_pass(salt, 1 + rng.below(40));
                    for col in &mut cols[3..] {
                        col.iter_mut().step_by(3).for_each(|v| *v = -0.0);
                    }
                    cols
                }
            }
        })
        .collect();
    (tables, specs)
}

/// Land one block per table, table-major — the first writes, later ones
/// merge — into `flat`, laid out as `specs`' grids back to back.
fn land_blocks(blocks: &[Vec<f64>], specs: &[PassSpec], flat: &mut [f64]) {
    for (ti, block) in blocks.iter().enumerate() {
        let shapes = specs.iter().map(|s| (s.ops.len(), s.grid.num_bins()));
        let mut at = 0;
        for (spec, part) in specs.iter().zip(block::spec_parts(block, shapes).unwrap()) {
            let bins = spec.grid.num_bins();
            for (k, &(op, _)) in spec.ops.iter().enumerate() {
                part.land(k, op, ti == 0, &mut flat[at..at + bins]);
                at += bins;
            }
        }
    }
}

/// One landing case: every table's device block as the kernel fills it
/// and downloads it, landed over the identities, against the same grids
/// written into all-dense blocks and landed over garbage. Returns, per
/// block, whether it held a spec sparse and one dense.
fn sparse_landing_equals_dense(seed: u64) -> Vec<[bool; 2]> {
    let (tables, specs) = landing_tables(seed);
    let node = SimNode::new(NodeConfig::fast_test(1));
    let stream = node.device(0).unwrap().create_stream();
    let len = block::block_len(&specs);
    let scratches = Arc::default();
    let mut sparse_blocks = Vec::new();
    let mut dense_blocks = Vec::new();
    let mut formats = Vec::new();
    for cols in &tables {
        let dev: Vec<CellBuffer> = cols.iter().map(|c| upload(&node, &stream, c)).collect();
        let dev_refs: Vec<&CellBuffer> = dev.iter().collect();
        let packed = node.device(0).unwrap().alloc_cells_on_stream(len, &stream).unwrap();
        device_impl::bin_all_device(&stream, &dev_refs, &specs, &packed, &scratches).unwrap();
        let host = node.host_alloc_f64(len);
        stream.copy_counted(&packed, &host).unwrap();
        stream.synchronize().unwrap();
        let block = host.host_f64_ro().unwrap().to_vec();
        let words = &block[1..1 + specs.len()];
        let dense = |w: &f64| w.to_bits() == block::DENSE;
        formats.push([words.iter().any(|w| !dense(w)), words.iter().any(dense)]);
        let mut all_dense = vec![f64::from_bits(len as u64)];
        all_dense.extend(specs.iter().map(|_| f64::from_bits(block::DENSE)));
        all_dense.extend(unpack(&block, &specs));
        sparse_blocks.push(block);
        dense_blocks.push(all_dense);
    }
    let identities: Vec<f64> = specs
        .iter()
        .flat_map(|s| {
            s.ops.iter().flat_map(|&(op, _)| vec![host_impl::identity(op); s.grid.num_bins()])
        })
        .collect();
    let mut from_sparse = identities.clone();
    land_blocks(&sparse_blocks, &specs, &mut from_sparse);
    let mut from_dense = vec![f64::from_bits(0x7ff4_dead_beef_0000); identities.len()];
    land_blocks(&dense_blocks, &specs, &mut from_dense);
    assert_eq!(bits(&from_sparse), bits(&from_dense), "seed {seed}: {specs:?}");
    formats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flat buffer landed from the blocks the kernel fills — each spec
    /// sparse or dense by the size rule — equals, bit for bit, the one
    /// landed from the same grids held dense, over multi-table inputs.
    #[test]
    fn sparse_blocks_land_bit_identical_to_dense_blocks(seed in any::<u64>()) {
        sparse_landing_equals_dense(seed);
    }
}

/// The landing cases reach what the property is about: blocks holding
/// every spec sparse, every spec dense, and both at once.
#[test]
fn landing_cases_mix_sparse_and_dense_specs_in_one_block() {
    let formats: Vec<[bool; 2]> = (0..48).flat_map(sparse_landing_equals_dense).collect();
    for want in [[true, false], [false, true], [true, true]] {
        assert!(formats.contains(&want), "no block with formats {want:?}");
    }
}

/// A step's specs over the columns of a [`random_pass`] table, as the
/// fused step lays them out: per spec, its listed ops — counts repeating
/// freely, averages among them — and its grids, the count first and then
/// every listed op that is not a count.
fn step_specs(seed: u64) -> (Vec<Vec<BinOp>>, Vec<PassSpec>) {
    let mut rng = Mix(seed ^ 0x5eed);
    let (_, specs) = random_pass(seed, 0);
    specs
        .into_iter()
        .map(|spec| {
            let listed: Vec<BinOp> = (0..rng.below(6)).map(|_| ALL[rng.below(ALL.len())]).collect();
            let mut value = || 3 + rng.below(NUM_COLS - 3);
            let mut ops = vec![(BinOp::Count, None)];
            for &op in listed.iter().filter(|&&op| op != BinOp::Count) {
                ops.push((op, Some(value())));
            }
            (listed, PassSpec { ops, ..spec })
        })
        .unzip()
}

/// One rank's step: its tables' blocks out of the host block kernel,
/// those blocks merged table-major, and the same tables' blocks read back
/// dense and landed in a flat buffer as the step once did — the first
/// table written, later ones merged, the identities where a rank has no
/// table.
fn rank_step(tables: &[Vec<Vec<f64>>], specs: &[PassSpec]) -> RankStep {
    let mut scratch = host_impl::KernelScratch::default();
    let (mut merged, mut table, mut blocks) = (Vec::new(), Vec::new(), Vec::new());
    let mut spare = block::Scratch::default();
    let mut flat: Vec<f64> = specs
        .iter()
        .flat_map(|s| {
            s.ops.iter().flat_map(|&(op, _)| vec![host_impl::identity(op); s.grid.num_bins()])
        })
        .collect();
    for (ti, cols) in tables.iter().enumerate() {
        let cols: Vec<&[f64]> = cols.iter().map(|c| &c[..]).collect();
        host_impl::bin_all_block(&cols, specs, &mut scratch, &mut table);
        blocks.push(table.clone());
        let dense = unpack(&table, specs);
        match ti {
            0 => std::mem::swap(&mut merged, &mut table),
            _ => block::merge_blocks(specs, &mut merged, &table, &mut spare).unwrap(),
        }
        let mut at = 0;
        for spec in specs {
            for &(op, _) in &spec.ops {
                let (seg, part) = (&mut flat[at..][..spec.grid.num_bins()], &dense[at..]);
                reduce::land(op, ti == 0, seg, part[..seg.len()].iter().copied());
                at += spec.grid.num_bins();
            }
        }
    }
    if tables.is_empty() {
        merged = vec![0.0; 1 + specs.len()];
        merged[0] = f64::from_bits(merged.len() as u64);
    }
    RankStep { blocks, merged, flat }
}

/// What [`rank_step`] makes of one rank's tables.
#[derive(Clone)]
struct RankStep {
    /// Each table's block.
    blocks: Vec<Vec<f64>>,
    /// The blocks merged table-major.
    merged: Vec<f64>,
    /// The blocks' grids merged dense, table-major.
    flat: Vec<f64>,
}

/// Dense cells of `specs`' grids.
fn cells(specs: &[PassSpec]) -> usize {
    specs.iter().map(|s| s.ops.len() * s.grid.num_bins()).sum()
}

/// The cut of `blocks` — one rank's tables' blocks of `specs` — that the
/// owner of the specs `cut` receives, written from the blocks' parts.
fn write_cut(blocks: &[Vec<f64>], specs: &[PassSpec], cut: Range<usize>) -> Vec<f64> {
    let shapes = || specs.iter().map(|s| (s.ops.len(), s.grid.num_bins()));
    let parts: Vec<_> = blocks.iter().map(|b| block::spec_parts(b, shapes()).unwrap()).collect();
    // Garbage the writer must clear.
    let mut out = vec![f64::NAN; 3];
    let tables = parts.iter().map(|parts| &parts[cut.clone()]);
    block::write_cut(&mut out, &specs[cut.clone()], tables, &mut block::Scratch::default())
        .unwrap();
    out
}

/// Contiguous runs of `n` specs dealt to the first `min(ranks, n)` of
/// `ranks` ranks, one each; every other rank owns nothing.
fn owner_cuts(n: usize, ranks: usize) -> Vec<Range<usize>> {
    let owners = ranks.min(n);
    (0..owners).map(|d| d * n / owners..(d + 1) * n / owners).collect()
}

/// One case of the owners' cuts against the dense merge: a rank of zero
/// to four tables, its specs dealt over one to six ranks, each owner's cut
/// read dense equals that owner's slice of the table-major dense merge.
/// Returns, per cut, whether a later table was merged into it, and whether
/// it held a spec sparse and one dense.
fn cuts_equal_dense_slices(seed: u64) -> Vec<(bool, [bool; 2])> {
    let (_, specs) = step_specs(seed);
    let mut rng = Mix(seed ^ 0xc075);
    let (tables, _) = landing_tables(seed);
    let tables = &tables[..rng.below(tables.len() + 1)];
    let step = rank_step(tables, &specs);
    let mut seen = Vec::new();
    for cut in owner_cuts(specs.len(), 1 + rng.below(6)) {
        let out = write_cut(&step.blocks, &specs, cut.clone());
        let slice = &step.flat[cells(&specs[..cut.start])..][..cells(&specs[cut.clone()])];
        let what = format!("seed {seed}, {} tables, cut {cut:?}", tables.len());
        assert_eq!(bits(&unpack(&out, &specs[cut.clone()])), bits(slice), "{what}: {specs:?}");
        let words = &out[1..1 + cut.len()];
        let dense = |w: &f64| w.to_bits() == block::DENSE;
        seen.push((tables.len() > 1, [words.iter().any(|w| !dense(w)), words.iter().any(dense)]));
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An owner's cut written straight from a rank's tables' parts — the
    /// first table's copied, later ones merged in, untouched parts where
    /// the rank has no table — equals, bit for bit, that owner's slice of
    /// the tables' dense grids merged table-major, whichever ranks own
    /// which specs.
    #[test]
    fn an_owners_cut_equals_its_slice_of_the_table_major_dense_merge(seed in any::<u64>()) {
        cuts_equal_dense_slices(seed);
    }
}

/// The cut cases reach what the property is about: later tables merged
/// into cuts holding every spec sparse, every spec dense, and both.
#[test]
fn owner_cut_cases_merge_later_tables_into_sparse_and_dense_specs() {
    let seen: Vec<(bool, [bool; 2])> = (0..48).flat_map(cuts_equal_dense_slices).collect();
    for want in [[true, false], [false, true], [true, true]] {
        assert!(seen.contains(&(true, want)), "no merged cut with formats {want:?}");
    }
}

/// The dense flat buffer's segments, one per grid.
fn grid_segments(specs: &[PassSpec]) -> Vec<minimpi::Segment> {
    use minimpi::{Segment, SegmentOp};
    let op = |op| match op {
        BinOp::Count | BinOp::Sum | BinOp::Average => SegmentOp::Sum,
        BinOp::Min => SegmentOp::Min,
        BinOp::Max => SegmentOp::Max,
    };
    let grids = specs.iter().flat_map(|s| s.ops.iter().map(|&(o, _)| (o, s.grid.num_bins())));
    grids.map(|(o, bins)| Segment::new(op(o), bins)).collect()
}

/// One case of the block allreduce against the dense one, on 4 ranks of
/// one node (the direct path) or of 2 nodes (the tiered path): every
/// rank's merged block, read dense, equals the dense segment merge bit for
/// bit, and rank 0's results published from the block equal those
/// published from the dense buffer — counts copied for every `count()`,
/// empty minima, maxima and averages NaN, averages divided by the count.
/// Returns, per rank, whether the merged block held a spec sparse and one
/// dense.
fn block_allreduce_equals_dense(seed: u64, ranks_per_node: usize) -> Vec<[bool; 2]> {
    let (listed, specs) = step_specs(seed);
    let steps: Vec<RankStep> = (0..4u64)
        .map(|r| {
            let (mut tables, _) = landing_tables(seed ^ (r + 1).wrapping_mul(0x9e37_79b9));
            // `+0.0` beside the `-0.0` some tables hold: a minimum or
            // maximum of either sign, so a combine's operand order shows.
            for col in tables.iter_mut().flat_map(|cols| &mut cols[3..]) {
                col.iter_mut().skip(r as usize).step_by(5).for_each(|v| *v = 0.0);
            }
            let tables = if Mix(seed ^ r).below(5) == 0 { Vec::new() } else { tables };
            rank_step(&tables, &specs)
        })
        .collect();
    let segments = grid_segments(&specs);
    let world = minimpi::World::new(4).with_ranks_per_node(ranks_per_node);
    // The step's cuts: contiguous runs of specs, ranks past the owners
    // owning none.
    let cuts = owner_cuts(specs.len(), 4);
    let out = world.run(|c| {
        let RankStep { blocks, merged: local, flat } = steps[c.rank()].clone();
        let spare = std::cell::RefCell::new(block::Scratch::default());
        let merged = c.allreduce_with(local, |acc, part| {
            block::merge_blocks(&specs, acc, part, &mut spare.borrow_mut()).unwrap()
        });
        let parts = cuts.iter().map(|cut| write_cut(&blocks, &specs, cut.clone())).collect();
        let mine = &specs[cuts.get(c.rank()).cloned().unwrap_or_default()];
        let owned = c.reduce_scatter_with(parts, |acc, part| {
            block::merge_blocks(mine, acc, &part, &mut spare.borrow_mut()).unwrap()
        });
        (merged, c.allreduce_packed(flat, &segments).unwrap(), owned)
    });
    let mut formats = Vec::new();
    for (rank, (merged, dense, owned)) in out.iter().enumerate() {
        let what = format!("seed {seed}, {ranks_per_node} ranks per node, rank {rank}");
        assert_eq!(bits(&unpack(merged, &specs)), bits(dense), "{what}: {specs:?}");
        // An owner's share of the reduce-scatter over the cuts is its
        // slice of the allreduce; every other rank receives nothing.
        match cuts.get(rank).cloned() {
            Some(cut) => {
                let slice = &dense[cells(&specs[..cut.start])..][..cells(&specs[cut.clone()])];
                assert_eq!(bits(&unpack(owned, &specs[cut])), bits(slice), "{what}: the cut");
            }
            None => assert!(owned.is_empty(), "{what}: a rank that owns nothing"),
        }
        let words = &merged[1..1 + specs.len()];
        let dense_word = |w: &f64| w.to_bits() == block::DENSE;
        formats.push([words.iter().any(|w| !dense_word(w)), words.iter().any(dense_word)]);
    }
    let (merged, dense, _) = &out[0];
    let shapes = specs.iter().map(|s| (s.ops.len(), s.grid.num_bins()));
    let parts = block::spec_parts(merged, shapes).unwrap();
    let mut at = 0;
    for (si, ((spec, listed), part)) in specs.iter().zip(&listed).zip(parts).enumerate() {
        let bins = spec.grid.num_bins();
        let counts = &dense[at..][..bins];
        let mut k = 0;
        for &op in listed {
            k += usize::from(op != BinOp::Count);
            let g = if op == BinOp::Count { 0 } else { k };
            let mut want = dense[at + g * bins..][..bins].to_vec();
            host_impl::finalize(op, &mut want, counts);
            let got = part.finalized(g, op, bins);
            assert_eq!(bits(&got), bits(&want), "seed {seed}: spec {si} {op:?} published");
        }
        at += spec.ops.len() * bins;
    }
    formats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The grid allreduce over compacted blocks — random touched sets,
    /// specs sparse and dense, one to four tables per rank or none, values
    /// with `-0.0`, NaN and both infinities — equals the dense `[op][bin]`
    /// segment merge bit for bit on a flat and on a tiered topology, and
    /// so do each rank's share of the step's reduce-scatter over the
    /// blocks' cuts and what is published from a merged block.
    #[test]
    fn block_allreduce_and_publish_equal_the_dense_segment_merge(seed in any::<u64>()) {
        block_allreduce_equals_dense(seed, 4);
        block_allreduce_equals_dense(seed, 2);
    }
}

/// The block allreduce cases reach what the property is about: merged
/// blocks holding every spec sparse, every spec dense, and both at once.
#[test]
fn block_allreduce_cases_mix_sparse_and_dense_specs() {
    let formats: Vec<[bool; 2]> =
        (0..32).flat_map(|seed| block_allreduce_equals_dense(seed, 2)).collect();
    for want in [[true, false], [false, true], [true, true]] {
        assert!(formats.contains(&want), "no merged block with formats {want:?}");
    }
}
