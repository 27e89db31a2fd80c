//! The device (accelerator) binning implementation.
//!
//! Binning on a device requires atomic memory updates "to deal with races
//! between GPU threads accessing the same bin" (§4.4) — the kernel here
//! uses the simulated device's CAS-based `atomic_add`/`atomic_min`/
//! `atomic_max`, so concurrent kernels sharing an output buffer stay
//! correct, and the cost of atomic traffic is part of the kernel's
//! modeled service time.

use std::sync::Arc;

use devsim::{CellBuffer, KernelCost, SimNode, Stream};
use sensei::{Error, Result};

use crate::block::{self, block_len, DeviceSink};
use crate::grid::GridParams;
use crate::host_impl::{self, identity, PassSpec, ScratchPool};
use crate::spec::BinOp;

/// Modeled cost of binning `n` rows: a few flops of index arithmetic per
/// row plus the reads of the coordinate/value columns and the atomic
/// read-modify-write on the bins.
pub fn bin_cost(n: usize) -> KernelCost {
    KernelCost { flops: 20.0 * n as f64, bytes: 5.0 * 8.0 * n as f64 }
}

/// Modeled cost of the fused pass binning `num_ops` operations over `n`
/// rows: the coordinate reads and index arithmetic are paid **once**,
/// then each op adds its value read and atomic bin update. With
/// `num_ops == 1` this is exactly [`bin_cost`]; for `k` ops it saves
/// `(k-1)` coordinate traversals and index recomputations (plus `k-1`
/// launch overheads, which the time model charges per launch).
pub fn fused_bin_cost(n: usize, num_ops: usize) -> KernelCost {
    let (n, k) = (n as f64, num_ops as f64);
    KernelCost { flops: (12.0 + 8.0 * k) * n, bytes: (16.0 + 24.0 * k) * n }
}

/// Bin one variable on `device`: allocates the per-bin accumulation
/// buffer on the device, initializes it to the reduction's identity, and
/// runs the binning kernel on `stream`. Returns the device-resident
/// accumulation buffer (synchronize the stream before copying it out).
///
/// `xs`, `ys`, and (for non-count ops) `values` must be resident on
/// `device` — obtain them with the HDA access API, which moves them only
/// if needed.
#[allow(clippy::too_many_arguments)] // mirrors the CUDA kernel-launch shape
pub fn bin_device(
    node: &Arc<SimNode>,
    device: usize,
    stream: &Arc<Stream>,
    xs: &CellBuffer,
    ys: &CellBuffer,
    values: Option<&CellBuffer>,
    op: BinOp,
    grid: GridParams,
) -> Result<CellBuffer> {
    let n = xs.len();
    if ys.len() != n {
        return Err(Error::Analysis("coordinate columns must be co-occurring".into()));
    }
    if op != BinOp::Count {
        match values {
            Some(v) if v.len() == n => {}
            Some(_) => return Err(Error::Analysis("value column must be co-occurring".into())),
            None => {
                return Err(Error::Analysis(format!(
                    "operation {} needs a value column",
                    op.name()
                )))
            }
        }
    }

    let bins = node.device(device)?.alloc_cells(grid.num_bins())?;

    // Initialize the accumulation buffer to the reduction identity.
    let init = identity(op);
    let bins_for_init = bins.clone();
    stream
        .launch("bin_init", KernelCost::bytes((grid.num_bins() * 8) as f64), move |scope| {
            bins_for_init.f64_view(scope)?.fill(init);
            Ok(())
        })
        .map_err(Error::Device)?;

    // The binning kernel proper.
    let xs = xs.clone();
    let ys = ys.clone();
    let values = values.cloned();
    let out = bins.clone();
    stream
        .launch("bin_reduce", bin_cost(n), move |scope| {
            let xv = xs.f64_view_ro(scope)?;
            let yv = ys.f64_view_ro(scope)?;
            let vv = values.as_ref().map(|v| v.f64_view_ro(scope)).transpose()?;
            let bv = out.f64_view(scope)?;
            for i in 0..xv.len() {
                let Some(b) = grid.bin_index(xv.get(i), yv.get(i)) else { continue };
                match op {
                    BinOp::Count => bv.atomic_add(b, 1.0),
                    BinOp::Sum | BinOp::Average => {
                        bv.atomic_add(b, vv.as_ref().expect("validated above").get(i))
                    }
                    BinOp::Min => bv.atomic_min(b, vv.as_ref().expect("validated above").get(i)),
                    BinOp::Max => bv.atomic_max(b, vv.as_ref().expect("validated above").get(i)),
                }
            }
            Ok(())
        })
        .map_err(Error::Device)?;

    Ok(bins)
}

/// Modeled cost of one fused pass of `specs` over `n` rows, on either
/// placement: the sum of the coordinate systems' [`fused_bin_cost`]s.
pub fn pass_cost(n: usize, specs: &[PassSpec]) -> KernelCost {
    specs.iter().map(|s| fused_bin_cost(n, s.ops.len())).sum()
}

/// Bin **every** operation of every coordinate system in `specs` in one
/// batched kernel over the device-resident `cols` they index, into the
/// caller's device block `packed`, [`block_len`] cells long. Download it
/// with one [`Stream::copy_counted`]: one launch plus one download per
/// fetched block, versus two launches and one download *per op* with
/// [`bin_device`].
///
/// The block is written compacted, with no holes ([`crate::block`]): its
/// header, then spec after spec its grids, each spec in the smaller of its
/// touched-bins and dense forms.
///
/// The launch runs the blocked core ([`host_impl::bin_all_host_each`],
/// reading the columns through their kernel views, in a scratch borrowed
/// from `scratches`) into launch-private accumulators in ascending row
/// order, and commits each as soon as it is complete: a transposing store
/// writes its touched bins' `(op, bin)` cells, or every one. The kernel
/// runs as one block that owns `packed` for the launch, and its partials
/// started from the reduction identities, so what a zero-initialised grid
/// would hold after an `atomic_add`/`atomic_min`/`atomic_max` of a partial
/// *is* the partial, bit for bit — the grids stay bit-identical to
/// [`bin_device`]'s, whatever `packed` held before.
pub fn bin_all_device(
    stream: &Arc<Stream>,
    cols: &[&CellBuffer],
    specs: &[PassSpec],
    packed: &CellBuffer,
    scratches: &Arc<ScratchPool>,
) -> Result<()> {
    let n = host_impl::pass_rows(|c| cols[c].len(), specs).map_err(Error::Analysis)?;
    if packed.len() != block_len(specs) {
        return Err(Error::Analysis("packed block must hold a header and every grid".into()));
    }
    // The accumulator cells a spec's commit can write: a spec that never
    // goes dense initialises and commits at most one bin per row.
    let cells = |s: &PassSpec| match block::always_sparse(n, s) {
        true => n * (s.ops.len() + 1),
        false => s.ops.len() * s.grid.num_bins(),
    };
    let cells: usize = specs.iter().map(cells).sum();

    let cols: Vec<CellBuffer> = cols.iter().map(|&c| c.clone()).collect();
    let specs = specs.to_vec();
    let out = packed.clone();
    let scratches = scratches.clone();
    let cost = pass_cost(n, &specs) + KernelCost::bytes((cells * 8) as f64);
    stream
        .launch("bin_fused", cost, move |scope| {
            let views =
                cols.iter().map(|c| c.f64_view_ro(scope)).collect::<devsim::Result<Vec<_>>>()?;
            let views: Vec<&[f64]> = views.iter().map(|v| &v[..]).collect();
            let view = out.f64_view(scope)?;
            let mut scratch = scratches.take();
            // Each spec's partial is committed while it is still in cache,
            // spec after spec through the block.
            let mut sink = DeviceSink { view: &view, used: 1 + specs.len() };
            host_impl::bin_all_host_each(&views, &specs, &mut scratch, |si, grids| {
                block::commit(&mut sink, si, &specs[si], grids)
            });
            block::finish(&mut sink);
            scratches.give(scratch);
            Ok(())
        })
        .map_err(Error::Device)
}

/// Compute the minimum and maximum of a device-resident column — the
/// on-the-fly bounds computation of §4.2, run where the data lives.
/// Returns host values after synchronizing the reduction.
pub fn minmax_device(
    node: &Arc<SimNode>,
    device: usize,
    stream: &Arc<Stream>,
    col: &CellBuffer,
) -> Result<(f64, f64)> {
    let scratch = node.device(device)?.alloc_cells(2)?;
    let col2 = col.clone();
    let s2 = scratch.clone();
    stream
        .launch(
            "minmax",
            KernelCost { flops: 2.0 * col.len() as f64, bytes: 8.0 * col.len() as f64 },
            move |scope| {
                let c = col2.f64_view_ro(scope)?;
                let s = s2.f64_view(scope)?;
                s.set(0, f64::INFINITY);
                s.set(1, f64::NEG_INFINITY);
                for i in 0..c.len() {
                    let v = c.get(i);
                    if v.is_finite() {
                        s.atomic_min(0, v);
                        s.atomic_max(1, v);
                    }
                }
                Ok(())
            },
        )
        .map_err(Error::Device)?;
    let host = node.host_alloc_f64(2);
    stream.copy(&scratch, &host).map_err(Error::Device)?;
    stream.synchronize().map_err(Error::Device)?;
    let v = host.host_f64_ro().map_err(Error::Device)?;
    Ok((v.get(0), v.get(1)))
}

/// Fused min/max over several device-resident columns: one kernel walks
/// all columns and one packed download returns every `(lo, hi)` pair —
/// instead of one kernel + copy + sync per column. Columns may have
/// different lengths; empty columns return `(+inf, -inf)` like
/// [`crate::bounds::minmax`].
pub fn minmax_multi_device(
    node: &Arc<SimNode>,
    device: usize,
    stream: &Arc<Stream>,
    cols: &[&CellBuffer],
) -> Result<Vec<(f64, f64)>> {
    if cols.is_empty() {
        return Ok(Vec::new());
    }
    let scratch = node.device(device)?.alloc_cells_on_stream(2 * cols.len(), stream.as_ref())?;
    let cols_owned: Vec<CellBuffer> = cols.iter().map(|c| (*c).clone()).collect();
    let s2 = scratch.clone();
    let total_len: usize = cols.iter().map(|c| c.len()).sum();
    stream
        .launch(
            "minmax_fused",
            KernelCost { flops: 2.0 * total_len as f64, bytes: 8.0 * total_len as f64 },
            move |scope| {
                let s = s2.f64_view(scope)?;
                for (k, col) in cols_owned.iter().enumerate() {
                    let c = col.f64_view_ro(scope)?;
                    s.set(2 * k, f64::INFINITY);
                    s.set(2 * k + 1, f64::NEG_INFINITY);
                    for i in 0..c.len() {
                        let v = c.get(i);
                        if v.is_finite() {
                            s.atomic_min(2 * k, v);
                            s.atomic_max(2 * k + 1, v);
                        }
                    }
                }
                Ok(())
            },
        )
        .map_err(Error::Device)?;
    let host = node.host_alloc_f64(2 * cols.len());
    stream.copy(&scratch, &host).map_err(Error::Device)?;
    stream.synchronize().map_err(Error::Device)?;
    let v = host.host_f64_ro().map_err(Error::Device)?;
    Ok((0..cols.len()).map(|k| (v.get(2 * k), v.get(2 * k + 1))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{is_dense, spec_parts, SpecPart, DENSE};
    use crate::host_impl::bin_host;
    use devsim::NodeConfig;

    fn upload(
        node: &Arc<SimNode>,
        stream: &Arc<Stream>,
        device: usize,
        data: &[f64],
    ) -> CellBuffer {
        let host = node.host_alloc_f64(data.len());
        host.host_f64().unwrap().copy_from_slice(data);
        let dev = node.device(device).unwrap().alloc_f64(data.len()).unwrap();
        stream.copy(&host, &dev).unwrap();
        dev
    }

    fn download(node: &Arc<SimNode>, stream: &Arc<Stream>, buf: &CellBuffer) -> Vec<f64> {
        let host = node.host_alloc_f64(buf.len());
        stream.copy(buf, &host).unwrap();
        stream.synchronize().unwrap();
        host.host_f64_ro().unwrap().to_vec()
    }

    /// The grids of `spec` in a block [`bin_all_device`] filled, dense and
    /// `[op][bin]`, and whether the block holds them dense.
    fn unpack(block: &[f64], spec: &PassSpec) -> (Vec<f64>, bool) {
        let bins = spec.grid.num_bins();
        let part = spec_parts(block, [(spec.ops.len(), bins)].into_iter()).unwrap()[0];
        let mut grids = Vec::new();
        for (k, &(op, _)) in spec.ops.iter().enumerate() {
            let mut grid = vec![identity(op); bins];
            part.land(k, op, true, &mut grid);
            grids.extend(grid);
        }
        (grids, matches!(part, SpecPart::Dense(_)))
    }

    #[test]
    fn device_binning_matches_host_for_every_op() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let grid = GridParams::new(8, 8, [-1.0, -1.0], [1.0, 1.0]);

        // Pseudo-random but deterministic test data.
        let n = 500;
        let xs: Vec<f64> = (0..n).map(|i| ((i * 37 % 200) as f64 / 100.0) - 1.0).collect();
        let ys: Vec<f64> = (0..n).map(|i| ((i * 53 % 200) as f64 / 100.0) - 1.0).collect();
        let vs: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 30.0).collect();

        let dx = upload(&node, &stream, 0, &xs);
        let dy = upload(&node, &stream, 0, &ys);
        let dv = upload(&node, &stream, 0, &vs);

        for op in [BinOp::Count, BinOp::Sum, BinOp::Min, BinOp::Max, BinOp::Average] {
            let vals = if op == BinOp::Count { None } else { Some(&dv) };
            let dbins = bin_device(&node, 0, &stream, &dx, &dy, vals, op, grid).unwrap();
            let got = download(&node, &stream, &dbins);
            let expect = bin_host(&xs[..], &ys[..], Some(&vs[..]), op, &grid);
            for (b, (g, e)) in got.iter().zip(&expect).enumerate() {
                assert!(
                    (g - e).abs() < 1e-9 || (g.is_infinite() && e.is_infinite()),
                    "op {:?} bin {b}: device {g} vs host {e}",
                    op
                );
            }
        }
    }

    #[test]
    fn fused_device_binning_matches_per_op_device_binning_bitwise() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let grid = GridParams::new(8, 8, [-1.0, -1.0], [1.0, 1.0]);

        let n = 500;
        let xs: Vec<f64> = (0..n).map(|i| ((i * 37 % 200) as f64 / 100.0) - 1.0).collect();
        let ys: Vec<f64> = (0..n).map(|i| ((i * 53 % 200) as f64 / 100.0) - 1.0).collect();
        let vs: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 30.0).collect();

        let dx = upload(&node, &stream, 0, &xs);
        let dy = upload(&node, &stream, 0, &ys);
        let dv = upload(&node, &stream, 0, &vs);

        let all = [BinOp::Count, BinOp::Sum, BinOp::Min, BinOp::Max, BinOp::Average];
        let ops = all.iter().map(|&op| (op, (op != BinOp::Count).then_some(2))).collect();
        let spec = PassSpec { axes: [0, 1], grid, ops };
        // A resident block still holding an earlier launch's cells: the
        // commit overwrites every one it leaves in use.
        let packed = node.device(0).unwrap().alloc_f64(2 + all.len() * grid.num_bins()).unwrap();
        stream
            .launch("dirty", KernelCost::bytes(0.0), {
                let packed = packed.clone();
                move |scope| {
                    packed.f64_view(scope)?.fill(f64::NAN);
                    Ok(())
                }
            })
            .unwrap();
        let scratches = Arc::new(ScratchPool::default());
        for _ in 0..2 {
            let pass = std::slice::from_ref(&spec);
            bin_all_device(&stream, &[&dx, &dy, &dv], pass, &packed, &scratches).unwrap();
        }
        let (fused, dense) = unpack(&download(&node, &stream, &packed), &spec);
        assert!(dense, "500 rows touch every one of 64 bins");

        for (seg, &op) in all.iter().enumerate() {
            let vals = if op == BinOp::Count { None } else { Some(&dv) };
            let dbins = bin_device(&node, 0, &stream, &dx, &dy, vals, op, grid).unwrap();
            let reference = download(&node, &stream, &dbins);
            let got = &fused[seg * grid.num_bins()..(seg + 1) * grid.num_bins()];
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "op {op:?}"
            );
        }
    }

    #[test]
    fn a_block_holds_each_spec_in_its_smaller_form() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let grid = GridParams::new(4, 4, [0.0, 0.0], [4.0, 4.0]);
        // Three rows in bins 0 and 5; a NaN row and one out of range.
        let xs = upload(&node, &stream, 0, &[0.5, 1.5, 0.25, f64::NAN, 9.0]);
        let ys = upload(&node, &stream, 0, &[0.5, 1.5, 0.75, 0.5, 0.5]);
        let vs = upload(&node, &stream, 0, &[-0.0, 2.0, f64::NAN, 1.0, 1.0]);
        let ops = vec![(BinOp::Count, None), (BinOp::Sum, Some(2)), (BinOp::Min, Some(2))];
        let sparse = PassSpec { axes: [0, 1], grid, ops: ops.clone() };
        // One bin: touched, and dense at once.
        let single =
            PassSpec { grid: GridParams::new(1, 1, [0.0, 0.0], [4.0, 4.0]), ..sparse.clone() };
        // No count: dense whatever it touched.
        let uncounted = PassSpec { ops: ops[1..].to_vec(), ..sparse.clone() };
        let specs = [sparse, single, uncounted];
        let packed = node.device(0).unwrap().alloc_f64(block_len(&specs)).unwrap();
        let scratches = Arc::new(ScratchPool::default());
        bin_all_device(&stream, &[&xs, &ys, &vs], &specs, &packed, &scratches).unwrap();
        let block = download(&node, &stream, &packed);

        let words: Vec<u64> = block[..4].iter().map(|v| v.to_bits()).collect();
        let used = 4 + 2 * 4 + 3 + 2 * 16;
        assert_eq!(words, [used as u64, 2, DENSE, DENSE]);
        // Touched bins 0 and 5, then counts, sums and minima there: bin 0
        // summed a NaN, which its minimum ignores.
        let body: Vec<u64> = block[4..12].iter().map(|v| v.to_bits()).collect();
        let bits = |v: f64| v.to_bits();
        let sums = [bits(f64::NAN), bits(2.0)];
        assert_eq!(body, [0, 5, bits(2.0), bits(1.0), sums[0], sums[1], bits(-0.0), bits(2.0)]);
        // Every spec's grids equal the per-op kernel's.
        let parts = spec_parts(&block, specs.iter().map(|s| (s.ops.len(), s.grid.num_bins())));
        assert_eq!(parts.unwrap().len(), 3);
        for (si, spec) in specs.iter().enumerate() {
            let one = std::slice::from_ref(spec);
            let own = node.device(0).unwrap().alloc_f64(block_len(one)).unwrap();
            bin_all_device(&stream, &[&xs, &ys, &vs], one, &own, &scratches).unwrap();
            let (grids, _) = unpack(&download(&node, &stream, &own), spec);
            for (k, &(op, values)) in spec.ops.iter().enumerate() {
                let vals = values.map(|_| &vs);
                let per_op = bin_device(&node, 0, &stream, &xs, &ys, vals, op, spec.grid).unwrap();
                let want: Vec<u64> =
                    download(&node, &stream, &per_op).iter().map(|v| v.to_bits()).collect();
                let bins = spec.grid.num_bins();
                let got: Vec<u64> = grids[k * bins..][..bins].iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "spec {si} op {k}");
            }
        }
    }

    #[test]
    fn a_malformed_block_is_an_error() {
        let shapes = || [(2, 4)].into_iter();
        let word = |w: u64| f64::from_bits(w);
        let block = |words: &[u64]| words.iter().map(|&w| word(w)).collect::<Vec<_>>();
        assert!(spec_parts(&block(&[5, 1, 3, 7, 8]), shapes()).is_ok());
        for bad in [
            block(&[]),
            block(&[9, 1, 3, 7, 8]), // longer than the block
            block(&[1, 1, 3, 7, 8]), // shorter than the header
            block(&[5, 5, 3, 7, 8]), // more touched than bins
            block(&[5, 1, 4, 7, 8]), // a bin past the grid
            block(&[4, 1, 3, 7, 8]), // truncated
            block(&[5, 0, 3, 7, 8]), // cells past the last spec
        ] {
            assert!(spec_parts(&bad, shapes()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_size_rule_and_its_bound() {
        // 11 grids of 4096 bins: sparse up to 3754 touched.
        assert!(!is_dense(3754, 11, 4096));
        assert!(is_dense(3755, 11, 4096));
        assert!(is_dense(1, 1, 1) && is_dense(0, 0, 4));
        assert!(!is_dense(0, 1, 1));
    }

    #[test]
    fn fused_device_binning_validates_inputs() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let grid = GridParams::new(2, 2, [0.0, 0.0], [1.0, 1.0]);
        let a = node.device(0).unwrap().alloc_f64(4).unwrap();
        let b = node.device(0).unwrap().alloc_f64(3).unwrap();
        // One spec's header and grid; 3 cells hold less.
        let packed = node.device(0).unwrap().alloc_f64(6).unwrap();
        let scratches = Arc::new(ScratchPool::default());
        let pass = |cols: &[&CellBuffer], op, values, packed: &CellBuffer| {
            let spec = PassSpec { axes: [0, 1], grid, ops: vec![(op, values)] };
            bin_all_device(&stream, cols, &[spec], packed, &scratches)
        };
        assert!(pass(&[&a, &b], BinOp::Count, None, &packed).is_err());
        assert!(pass(&[&a, &a], BinOp::Sum, None, &packed).is_err());
        assert!(pass(&[&a, &a, &b], BinOp::Sum, Some(2), &packed).is_err());
        assert!(pass(&[&a, &a, &a], BinOp::Sum, Some(2), &b).is_err());
        assert!(pass(&[&a, &a, &a], BinOp::Sum, Some(2), &packed).is_ok());
        // Several specs: every spec is checked, and the block holds all
        // of their grids.
        let count = PassSpec { axes: [0, 1], grid, ops: vec![(BinOp::Count, None)] };
        let ragged = PassSpec { axes: [0, 2], ..count.clone() };
        let two = node.device(0).unwrap().alloc_f64(11).unwrap();
        let pass = |specs: &[PassSpec], packed| {
            bin_all_device(&stream, &[&a, &a, &b], specs, packed, &scratches)
        };
        assert!(pass(&[count.clone(), ragged], &two).is_err());
        assert!(pass(&[count.clone(), count.clone()], &packed).is_err());
        assert!(pass(&[count.clone(), count], &two).is_ok());
    }

    #[test]
    fn fused_cost_matches_per_op_cost_for_single_op() {
        assert_eq!(fused_bin_cost(1000, 1), bin_cost(1000));
        let k = 10;
        let fused = fused_bin_cost(1000, k);
        assert_eq!(fused, KernelCost { flops: 92_000.0, bytes: 256_000.0 });
        let per_op = bin_cost(1000);
        assert!(fused.flops < k as f64 * per_op.flops);
        assert!(fused.bytes < k as f64 * per_op.bytes);
    }

    #[test]
    fn fused_minmax_matches_per_column_reduction() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let a = upload(&node, &stream, 0, &[3.5, -1.25, 7.0, 0.0, 2.5]);
        let b = upload(&node, &stream, 0, &[10.0, -10.0]);
        let got = minmax_multi_device(&node, 0, &stream, &[&a, &b]).unwrap();
        assert_eq!(got, vec![(-1.25, 7.0), (-10.0, 10.0)]);
        assert!(minmax_multi_device(&node, 0, &stream, &[]).unwrap().is_empty());
    }

    #[test]
    fn minmax_matches_scalar_reduction() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let data = [3.5, -1.25, 7.0, 0.0, 2.5];
        let d = upload(&node, &stream, 0, &data);
        let (lo, hi) = minmax_device(&node, 0, &stream, &d).unwrap();
        assert_eq!(lo, -1.25);
        assert_eq!(hi, 7.0);
    }

    #[test]
    fn validation_errors() {
        let node = SimNode::new(NodeConfig::fast_test(1));
        let stream = node.device(0).unwrap().create_stream();
        let grid = GridParams::new(2, 2, [0.0, 0.0], [1.0, 1.0]);
        let a = node.device(0).unwrap().alloc_f64(4).unwrap();
        let b = node.device(0).unwrap().alloc_f64(3).unwrap();
        assert!(bin_device(&node, 0, &stream, &a, &b, None, BinOp::Count, grid).is_err());
        assert!(bin_device(&node, 0, &stream, &a, &a, None, BinOp::Sum, grid).is_err());
        assert!(bin_device(&node, 0, &stream, &a, &a, Some(&b), BinOp::Sum, grid).is_err());
    }

    #[test]
    fn wrong_device_surfaces_as_stream_error() {
        let node = SimNode::new(NodeConfig::fast_test(2));
        let stream = node.device(1).unwrap().create_stream();
        let grid = GridParams::new(2, 2, [0.0, 0.0], [1.0, 1.0]);
        // Buffers live on device 0, kernel launched on device 1.
        let a = node.device(0).unwrap().alloc_f64(4).unwrap();
        bin_device(&node, 1, &stream, &a, &a, None, BinOp::Count, grid).unwrap();
        assert!(stream.synchronize().is_err());
    }
}
