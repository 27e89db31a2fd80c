//! The compacted block: the one form of a step's partial grids, from the
//! kernel that fills it to the publish that reads it.
//!
//! A block is a header — the number of cells in use, then per spec its
//! touched count or [`DENSE`] — then spec after spec its grids, read back
//! with [`spec_parts`]. A bin is *touched* when its count is not zero;
//! every other bin holds its reductions' identities. A spec goes in as its
//! touched bins' indices (as `u64` bits, ascending) followed by each op's
//! values at them, `[op][touched]`, unless `is_dense` says that is no
//! smaller; then, and for a spec without a count, as every op's grid back
//! to back, `[op][bin]`.
//!
//! A kernel commits each spec into a block as soon as its grids are
//! complete (`commit`): a device kernel into its packed device block, a
//! host pass into a `Vec`. The step merges its tables' blocks and cuts the
//! result into one block per rank that owns some of the specs ([`split`]).
//! The step's grid reduce-scatter merges every rank's cut of those specs
//! at their owner ([`merge_blocks`]), and each owner finalizes its specs
//! straight from its merged block ([`SpecPart::finalized`]).
//!
//! Merging only the bins a block holds is exact: a kernel's sums start at
//! `+0.0` and so are never `-0.0` (which `+0.0` would turn into `+0.0`),
//! and its minima and maxima are never NaN, so folding a reduction's
//! identity into a partial changes no bit of it. A merged block holds, bin
//! for bin, what merging the dense grids would.

use std::ops::Range;

use devsim::F64View;
use sensei::{Error, Result};

use crate::host_impl::{canonical, finalize, identity, FusedGrids, PassSpec};
use crate::reduce::{self, with_combine};
use crate::spec::BinOp;

/// The header word of a spec whose grids a block holds dense (a touched
/// count never reaches it).
pub const DENSE: u64 = u64::MAX;

/// Whether a spec of `ops` grids over `bins` bins, `touched` of them
/// touched, goes into a block dense: when its sparse form — the touched
/// bins' indices, then each op's values there — would be no smaller.
pub(crate) fn is_dense(touched: usize, ops: usize, bins: usize) -> bool {
    touched * (ops + 1) >= ops * bins
}

/// Whether a pass of `rows` rows can only ever put `spec` into a block
/// sparse: it has a count, and even if every row touched its own bin the
/// sparse form would be the smaller. Such a spec's kernel initialises
/// only the bins its rows touch.
pub(crate) fn always_sparse(rows: usize, spec: &PassSpec) -> bool {
    let counted = spec.ops.iter().any(|&(op, _)| op == BinOp::Count);
    counted && !is_dense(rows, spec.ops.len(), spec.grid.num_bins())
}

/// Cells of a block of `specs` at its largest — every spec dense: the
/// header (the length in use, then one word per spec) and every grid.
pub fn block_len(specs: &[PassSpec]) -> usize {
    1 + specs.len() + specs.iter().map(|s| s.ops.len() * s.grid.num_bins()).sum::<usize>()
}

/// One spec's grids in a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecPart<'a> {
    /// Every op's grid, `[op][bin]`.
    Dense(&'a [f64]),
    /// The bins a row fell into (their indices, as `u64` bits, ascending)
    /// and each op's values at them, `[op][touched]`. Every other bin
    /// holds its op's reduction identity.
    Sparse { touched: &'a [f64], values: &'a [f64] },
}

/// The part of a spec no row touched: every bin holds its identity.
const UNTOUCHED: SpecPart<'static> = SpecPart::Sparse { touched: &[], values: &[] };

impl SpecPart<'_> {
    /// The part's header word: [`DENSE`], or its touched count.
    fn word(&self) -> u64 {
        match *self {
            SpecPart::Dense(_) => DENSE,
            SpecPart::Sparse { touched, .. } => touched.len() as u64,
        }
    }

    /// Cells the part takes in a block's body.
    fn cells(&self) -> usize {
        match *self {
            SpecPart::Dense(grids) => grids.len(),
            SpecPart::Sparse { touched, values } => touched.len() + values.len(),
        }
    }

    /// Land op `k`'s grid, of the reduction `op`, in `seg`: written over
    /// it when `first`, merged into it otherwise. A sparse part touches
    /// only its bins: `seg` must already hold the identities elsewhere
    /// for a first landing to equal the dense grid.
    pub fn land(&self, k: usize, op: BinOp, first: bool, seg: &mut [f64]) {
        match *self {
            SpecPart::Dense(grids) => {
                let part = grids[k * seg.len()..][..seg.len()].iter().copied();
                reduce::land(op, first, seg, part);
            }
            SpecPart::Sparse { touched, values } => {
                let values = &values[k * touched.len()..][..touched.len()];
                let at = touched.iter().map(|b| b.to_bits() as usize);
                reduce::land_at(op, first, seg, at, values);
            }
        }
    }

    /// Op `k`'s grid, of the reduction `op`, over `bins` bins, finalized
    /// against the part's count grid, grid 0 ([`finalize`]): the array a
    /// result publishes.
    pub fn finalized(&self, k: usize, op: BinOp, bins: usize) -> Vec<f64> {
        match *self {
            SpecPart::Dense(grids) => {
                let mut grid = grids[k * bins..][..bins].to_vec();
                finalize(op, &mut grid, &grids[..bins]);
                grid
            }
            SpecPart::Sparse { touched, values } => {
                let t = touched.len();
                let (values, counts) = (&values[k * t..][..t], &values[..t]);
                let at = touched.iter().map(|b| b.to_bits() as usize);
                // What `finalize` makes of every untouched bin, then of
                // each touched one: no bin but a touched one has a count.
                let (mut grid, unset) = match op {
                    BinOp::Count | BinOp::Sum => (vec![0.0; bins], f64::NAN),
                    _ => (vec![f64::NAN; bins], identity(op)),
                };
                match op {
                    BinOp::Average => {
                        for (b, (&v, &c)) in at.zip(values.iter().zip(counts)) {
                            grid[b] = if c > 0.0 { canonical(v / c) } else { f64::NAN };
                        }
                    }
                    _ => at.zip(values).for_each(|(b, &v)| {
                        grid[b] = if v == unset { f64::NAN } else { canonical(v) }
                    }),
                }
                grid
            }
        }
    }
}

/// The parts of the specs `shapes` — each one's `(ops, bins)` — in a
/// block, in spec order; why not, if the block is not one of theirs.
pub fn spec_parts(
    block: &[f64],
    shapes: impl ExactSizeIterator<Item = (usize, usize)>,
) -> Result<Vec<SpecPart<'_>>> {
    let bad = |why: &str| Error::Analysis(format!("malformed binning block: {why}"));
    let header = 1 + shapes.len();
    let used = block.first().map_or(0, |w| w.to_bits());
    let used = usize::try_from(used).ok().filter(|&n| n >= header && n <= block.len());
    let used = used.ok_or_else(|| bad("length out of range"))?;
    let (words, mut body) = block[..used].split_at(header);
    let mut parts = Vec::with_capacity(shapes.len());
    for (&word, (ops, bins)) in words[1..].iter().zip(shapes) {
        let word = word.to_bits();
        let cells = match word {
            DENSE => ops * bins,
            t if t as usize <= bins => t as usize * (ops + 1),
            _ => return Err(bad("more touched bins than the grid has")),
        };
        if body.len() < cells {
            return Err(bad("truncated"));
        }
        let (cells, rest) = body.split_at(cells);
        body = rest;
        parts.push(if word == DENSE {
            SpecPart::Dense(cells)
        } else {
            let (touched, values) = cells.split_at(word as usize);
            if touched.iter().any(|b| b.to_bits() >= bins as u64) {
                return Err(bad("touched bin out of range"));
            }
            if touched.windows(2).any(|w| w[0].to_bits() >= w[1].to_bits()) {
                return Err(bad("touched bins out of order"));
            }
            SpecPart::Sparse { touched, values }
        });
    }
    if !body.is_empty() {
        return Err(bad("cells beyond the last spec"));
    }
    Ok(parts)
}

/// Where a kernel commits its specs: a block whose header is in place and
/// whose body grows spec by spec.
pub(crate) trait Sink {
    /// Cells of the block written so far, header included.
    fn used(&self) -> usize;
    /// Store `word` as header cell `i`.
    fn set_word(&mut self, i: usize, word: u64);
    /// Append every op's grid, `[op][bin]`, out of the bin-major `rows`,
    /// whose slot `s` accumulates op `order[s]` or is a pad (`None`).
    fn put_dense(&mut self, rows: &[f64], order: &[Option<usize>]);
    /// Append the bins `touched`, then each op's values there.
    fn put_sparse(&mut self, rows: &[f64], order: &[Option<usize>], touched: &[u32]);
}

/// The number of ops whose slots `order` lays out: every slot but the pads.
fn ops_of(order: &[Option<usize>]) -> usize {
    order.iter().flatten().count()
}

/// The slot of `rows` that accumulates op `k`.
fn slot_of(order: &[Option<usize>], k: usize) -> usize {
    order.iter().position(|&o| o == Some(k)).expect("every op has a slot")
}

/// A host block: a `Vec` holding the header, then appended to.
impl Sink for Vec<f64> {
    fn used(&self) -> usize {
        self.len()
    }

    fn set_word(&mut self, i: usize, word: u64) {
        self[i] = f64::from_bits(word);
    }

    fn put_dense(&mut self, rows: &[f64], order: &[Option<usize>]) {
        let width = order.len();
        for k in 0..ops_of(order) {
            let s = slot_of(order, k);
            self.extend(rows.chunks_exact(width).map(|bin| bin[s]));
        }
    }

    fn put_sparse(&mut self, rows: &[f64], order: &[Option<usize>], touched: &[u32]) {
        let width = order.len();
        self.extend(touched.iter().map(|&b| f64::from_bits(u64::from(b))));
        for k in 0..ops_of(order) {
            let s = slot_of(order, k);
            self.extend(touched.iter().map(|&b| rows[b as usize * width + s]));
        }
    }
}

/// A device block, written through a kernel's view of it.
pub(crate) struct DeviceSink<'v> {
    pub view: &'v F64View,
    pub used: usize,
}

impl Sink for DeviceSink<'_> {
    fn used(&self) -> usize {
        self.used
    }

    fn set_word(&mut self, i: usize, word: u64) {
        self.view.store_words(i, [word].into_iter());
    }

    fn put_dense(&mut self, rows: &[f64], order: &[Option<usize>]) {
        let bins = rows.len() / order.len().max(1);
        let starts: Vec<Option<usize>> =
            order.iter().map(|o| o.map(|k| self.used + k * bins)).collect();
        self.view.store_columns(rows, &starts);
        self.used += ops_of(order) * bins;
    }

    fn put_sparse(&mut self, rows: &[f64], order: &[Option<usize>], touched: &[u32]) {
        let t = touched.len();
        self.view.store_words(self.used, touched.iter().map(|&b| u64::from(b)));
        let starts: Vec<Option<usize>> =
            order.iter().map(|o| o.map(|k| self.used + t + k * t)).collect();
        self.view.store_picked(rows, touched, &starts);
        self.used += t * (ops_of(order) + 1);
    }
}

/// Commit spec `si`'s grids, complete in `grids`, to `sink` behind the
/// specs before it, in the smaller of its two forms, and set its header
/// word. Only a spec whose touched bins the pass found can go sparse.
pub(crate) fn commit(sink: &mut impl Sink, si: usize, spec: &PassSpec, grids: &FusedGrids) {
    let (ops, bins) = (spec.ops.len(), spec.grid.num_bins());
    let (rows, order) = grids.rows();
    let word = match grids.touched() {
        Some(touched) if !is_dense(touched.len(), ops, bins) => {
            sink.put_sparse(rows, order, touched);
            touched.len() as u64
        }
        _ => {
            debug_assert!(!grids.initialised_touched_only(), "a dense commit reads every bin");
            sink.put_dense(rows, order);
            DENSE
        }
    };
    sink.set_word(1 + si, word);
}

/// Start a block of `specs` specs in `block`: its header, to be filled.
pub(crate) fn begin(block: &mut Vec<f64>, specs: usize) {
    block.clear();
    block.resize(1 + specs, 0.0);
}

/// Close a block: its first cell records the cells in use.
pub(crate) fn finish(sink: &mut impl Sink) {
    let used = sink.used() as u64;
    sink.set_word(0, used);
}

/// The block of `specs` in which no row touched any bin: what a rank
/// without tables contributes.
pub(crate) fn untouched(block: &mut Vec<f64>, specs: usize) {
    begin(block, specs);
    finish(block);
}

/// Which of two blocks holds a run of bins of their union: the first, the
/// second, or both.
#[derive(Clone, Copy, PartialEq)]
enum Held {
    A,
    B,
    Both,
}

/// What merging blocks reuses from one merge to the next: the block an
/// out-of-place merge writes, and a union's runs.
#[derive(Default)]
pub struct Scratch {
    block: Vec<f64>,
    runs: Vec<(Held, usize)>,
}

impl Scratch {
    /// Make room for a block of `cells` cells, so no merge up to that size
    /// grows the scratch block.
    pub(crate) fn reserve(&mut self, cells: usize) {
        self.block.clear();
        self.block.reserve_exact(cells);
    }
}

/// Append to `out` the ascending union of the touched bins `a` and `b`,
/// and set `runs` to it as runs of bins held alike, each with its length.
fn union(out: &mut Vec<f64>, runs: &mut Vec<(Held, usize)>, a: &[f64], b: &[f64]) {
    runs.clear();
    let mut add = |held: Held, n: usize| match runs.last_mut() {
        Some((last, len)) if *last == held => *len += n,
        _ if n > 0 => runs.push((held, n)),
        _ => {}
    };
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i].to_bits(), b[j].to_bits());
        add(
            match x.cmp(&y) {
                std::cmp::Ordering::Less => Held::A,
                std::cmp::Ordering::Greater => Held::B,
                std::cmp::Ordering::Equal => Held::Both,
            },
            1,
        );
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        out.push(f64::from_bits(x.min(y)));
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    add(Held::A, a.len() - i);
    add(Held::B, b.len() - j);
}

/// Append `spec`'s part `a ⊕ p` to `out` — every combine with `a`'s value
/// on the left — in the smaller form, and return its header word.
fn merge_part(
    out: &mut Vec<f64>,
    runs: &mut Vec<(Held, usize)>,
    spec: &PassSpec,
    a: SpecPart<'_>,
    p: SpecPart<'_>,
) -> u64 {
    let (ops, bins) = (spec.ops.len(), spec.grid.num_bins());
    let start = out.len();
    let grid = |k: usize| start + k * bins..start + (k + 1) * bins;
    match (a, p) {
        (SpecPart::Dense(ga), SpecPart::Dense(gp)) => {
            for (k, &(op, _)) in spec.ops.iter().enumerate() {
                let pairs = ga[k * bins..][..bins].iter().zip(&gp[k * bins..][..bins]);
                with_combine!(op, f => out.extend(pairs.map(|(&a, &p)| f(a, p))));
            }
            DENSE
        }
        (SpecPart::Dense(grids), p) => {
            out.extend_from_slice(grids);
            for (k, &(op, _)) in spec.ops.iter().enumerate() {
                let seg = grid(k);
                p.land(k, op, false, &mut out[seg]);
            }
            DENSE
        }
        (SpecPart::Sparse { touched, values }, SpecPart::Dense(grids)) => {
            out.extend_from_slice(grids);
            let t = touched.len();
            for (k, &(op, _)) in spec.ops.iter().enumerate() {
                let seg = grid(k);
                let (seg, values) = (&mut out[seg], &values[k * t..][..t]);
                let pairs = touched.iter().map(|b| b.to_bits() as usize).zip(values);
                with_combine!(op, f => pairs.for_each(|(b, &v)| seg[b] = f(v, seg[b])));
            }
            DENSE
        }
        (
            SpecPart::Sparse { touched: ta, values: va },
            SpecPart::Sparse { touched: tp, values: vp },
        ) => {
            union(out, runs, ta, tp);
            let u = out.len() - start;
            if is_dense(u, ops, bins) {
                out.truncate(start);
                for (k, &(op, _)) in spec.ops.iter().enumerate() {
                    out.resize(start + (k + 1) * bins, identity(op));
                    let seg = grid(k);
                    a.land(k, op, true, &mut out[seg.clone()]);
                    p.land(k, op, false, &mut out[seg]);
                }
                return DENSE;
            }
            // Each op's values over the union, run by run: copied where
            // one block holds the bins, combined where both do.
            let (ta, tp) = (ta.len(), tp.len());
            for (k, &(op, _)) in spec.ops.iter().enumerate() {
                let (va, vp) = (&va[k * ta..][..ta], &vp[k * tp..][..tp]);
                let (mut i, mut j) = (0, 0);
                with_combine!(op, f => for &(held, n) in runs.iter() {
                    match held {
                        Held::A => out.extend_from_slice(&va[i..i + n]),
                        Held::B => out.extend_from_slice(&vp[j..j + n]),
                        Held::Both => {
                            let pairs = va[i..i + n].iter().zip(&vp[j..j + n]);
                            out.extend(pairs.map(|(&a, &p)| f(a, p)))
                        }
                    }
                    i += if held == Held::B { 0 } else { n };
                    j += if held == Held::A { 0 } else { n };
                });
            }
            u as u64
        }
    }
}

/// The shapes [`spec_parts`] reads a block of `specs` with.
pub(crate) fn shapes(specs: &[PassSpec]) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
    specs.iter().map(|s| (s.ops.len(), s.grid.num_bins()))
}

/// Write to `out` the block of `specs` whose spec `si` is the `si`-th
/// pair's `a ⊕ p`.
fn write<'p>(
    out: &mut Vec<f64>,
    runs: &mut Vec<(Held, usize)>,
    specs: &[PassSpec],
    pairs: impl ExactSizeIterator<Item = (SpecPart<'p>, SpecPart<'p>)>,
) {
    assert_eq!(pairs.len(), specs.len(), "one part per spec");
    begin(out, specs.len());
    for (si, (spec, (a, p))) in specs.iter().zip(pairs).enumerate() {
        let word = merge_part(out, runs, spec, a, p);
        out.set_word(1 + si, word);
    }
    finish(out);
}

/// Write to `out` the block of `specs` whose spec `si` is `parts[si]`
/// alone (in its smaller form).
pub(crate) fn assemble(
    out: &mut Vec<f64>,
    specs: &[PassSpec],
    parts: &[SpecPart<'_>],
    scratch: &mut Scratch,
) {
    write(out, &mut scratch.runs, specs, parts.iter().map(|&p| (UNTOUCHED, p)));
}

/// Merge the parts `parts` of `specs` into the block `acc`, spec by spec
/// with `acc`'s value on the left of each combine. The merged block is
/// written to `scratch`'s block and swapped with `acc`, which leaves
/// `acc`'s old allocation in `scratch` for the next merge.
pub(crate) fn merge_parts(
    specs: &[PassSpec],
    acc: &mut Vec<f64>,
    parts: &[SpecPart<'_>],
    scratch: &mut Scratch,
) -> Result<()> {
    assert_eq!(parts.len(), specs.len(), "one part per spec");
    let own = spec_parts(acc, shapes(specs))?;
    let Scratch { block, runs } = scratch;
    write(block, runs, specs, own.into_iter().zip(parts.iter().copied()));
    std::mem::swap(acc, block);
    Ok(())
}

/// Cut the block of `specs` into one block per range of `cuts`, written to
/// the same index of `outs`. The cuts run through the specs in order, and
/// a block holds its specs' payloads back to back, so each cut is a new
/// header and one contiguous copy of its specs' payloads, re-encoding
/// nothing. An empty cut is the block of no spec.
pub fn split(
    block: &[f64],
    specs: &[PassSpec],
    cuts: &[Range<usize>],
    outs: &mut [Vec<f64>],
) -> Result<()> {
    assert_eq!(cuts.len(), outs.len(), "one block per cut");
    let parts = spec_parts(block, shapes(specs))?;
    let (mut next, mut at) = (0, 1 + specs.len());
    for (cut, out) in cuts.iter().zip(outs) {
        assert!(cut.start == next && cut.end <= specs.len(), "cuts run through the specs in order");
        let parts = &parts[cut.clone()];
        begin(out, parts.len());
        for (i, part) in parts.iter().enumerate() {
            out.set_word(1 + i, part.word());
        }
        let cells: usize = parts.iter().map(SpecPart::cells).sum();
        out.extend_from_slice(&block[at..at + cells]);
        finish(out);
        (next, at) = (cut.end, at + cells);
    }
    Ok(())
}

/// Merge the block `part` of `specs` into the block `acc`: every spec of
/// the result equals merging the two dense `[op][bin]` grids element-wise
/// with `acc` on the left, bit for bit. The merge writes `scratch`'s block
/// and swaps it with `acc`, leaving `acc`'s old allocation in `scratch`.
pub fn merge_blocks(
    specs: &[PassSpec],
    acc: &mut Vec<f64>,
    part: &[f64],
    scratch: &mut Scratch,
) -> Result<()> {
    let parts = spec_parts(part, shapes(specs))?;
    merge_parts(specs, acc, &parts, scratch)
}
