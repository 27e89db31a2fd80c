//! Output checking. Every back-end the benchmark instantiates streams its
//! per-step results into a shared sink; between steps (outside the timed
//! intervals) the sink is drained and each result folded to a checksum.
//!
//! * The first `oracle_steps` warm-up steps must equal, bit for bit, an
//!   oracle run of the same specs and seed on the host, in lockstep, per
//!   operation, with no time model — the repository's cross-placement /
//!   engine / snapshot bit-identity invariant.
//! * On every step each coordinate system must deliver exactly one
//!   result whose `count` grid sums to the number of in-range rows.
//!
//! Every miss is one failed operation.

use std::collections::HashMap;

use binning::{BinnedResult, BinningSpec, ResultSink};

/// Most failure messages kept verbatim (the count is always exact).
const MAX_MESSAGES: usize = 8;

/// FNV-1a over the result's geometry, array names and value bits.
pub fn checksum(result: &BinnedResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in result.grid.lo.iter().chain(&result.grid.hi) {
        eat(&v.to_bits().to_le_bytes());
    }
    for (name, values) in &result.arrays {
        eat(name.as_bytes());
        for v in values {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Sum of the result's `count` grid (whole numbers, exact in `f64`).
fn count_sum(result: &BinnedResult) -> Option<u64> {
    result.array("count").map(|c| c.iter().sum::<f64>() as u64)
}

/// Checksums of an oracle run, keyed by `(step, coordinate system)`.
pub type Oracle = HashMap<(u64, usize), u64>;

/// Folds drained results and keeps the failure tally of one segment.
pub struct Checker {
    /// Axes of each coordinate system, in configuration order.
    axes: Vec<(String, String)>,
    /// In-range rows per coordinate system (global over ranks).
    expected_rows: Vec<u64>,
    oracle: Oracle,
    seen: HashMap<(u64, usize), u32>,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checker {
    pub fn new(specs: &[BinningSpec], expected_rows: Vec<u64>, oracle: Oracle) -> Self {
        assert_eq!(specs.len(), expected_rows.len());
        Checker {
            axes: specs.iter().map(|s| s.axes.clone()).collect(),
            expected_rows,
            oracle,
            seen: HashMap::new(),
            failed: 0,
            messages: Vec::new(),
        }
    }

    /// Record one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Take everything the back-ends delivered so far and check it.
    /// Returns how many results were folded.
    pub fn drain(&mut self, sink: &ResultSink) -> usize {
        let results = std::mem::take(&mut *sink.lock());
        for r in &results {
            let Some(instance) = self.axes.iter().position(|a| *a == r.axes) else {
                self.fail(format!("step {}: result for unknown axes {:?}", r.step, r.axes));
                continue;
            };
            *self.seen.entry((r.step, instance)).or_default() += 1;
            match count_sum(r) {
                Some(n) if n == self.expected_rows[instance] => {}
                got => self.fail(format!(
                    "step {} {:?}: count grid sums to {:?}, {} rows are in range",
                    r.step, r.axes, got, self.expected_rows[instance]
                )),
            }
            if let Some(want) = self.oracle.get(&(r.step, instance)) {
                let got = checksum(r);
                if got != *want {
                    self.fail(format!(
                        "step {} {:?}: checksum {got:016x} differs from the oracle's {want:016x}",
                        r.step, r.axes
                    ));
                }
            }
        }
        results.len()
    }

    /// True once every coordinate system has delivered steps
    /// `first..=last`.
    pub fn has_all(&self, first: u64, last: u64) -> bool {
        (first..=last).all(|step| (0..self.axes.len()).all(|i| self.seen.contains_key(&(step, i))))
    }

    /// After the run: every coordinate system must have delivered each of
    /// the steps `first..=last` exactly once.
    pub fn finish(&mut self, first: u64, last: u64) {
        for step in first..=last {
            for i in 0..self.axes.len() {
                let n = self.seen.get(&(step, i)).copied().unwrap_or(0);
                if n != 1 {
                    let axes = self.axes[i].clone();
                    self.fail(format!("step {step} {axes:?}: {n} results delivered, expected 1"));
                }
            }
        }
    }
}

/// Fold an oracle run's sink into its checksum table.
pub fn fold_oracle(specs: &[BinningSpec], sink: &ResultSink) -> Oracle {
    let results = std::mem::take(&mut *sink.lock());
    let mut oracle = Oracle::new();
    for r in &results {
        let instance = specs
            .iter()
            .position(|s| s.axes == r.axes)
            .expect("oracle results come from the oracle's own specs");
        oracle.insert((r.step, instance), checksum(r));
    }
    oracle
}

#[cfg(test)]
mod tests {
    use super::*;
    use binning::{GridParams, VarOp};
    use std::sync::Arc;

    fn spec() -> BinningSpec {
        BinningSpec::new("bodies", ("x", "y"), 2, vec![VarOp::parse("count()").unwrap()])
    }

    fn result(step: u64, counts: [f64; 4]) -> BinnedResult {
        BinnedResult {
            step,
            time: 0.0,
            axes: ("x".into(), "y".into()),
            grid: GridParams::new(2, 2, [0.0, 0.0], [1.0, 1.0]),
            arrays: vec![("count".into(), counts.to_vec())],
        }
    }

    fn sink_of(results: Vec<BinnedResult>) -> ResultSink {
        Arc::new(parking_lot::Mutex::new(results))
    }

    #[test]
    fn accepts_matching_results_once_per_step() {
        let good = result(1, [1.0, 2.0, 3.0, 4.0]);
        let oracle = Oracle::from([((1, 0), checksum(&good))]);
        let mut c = Checker::new(&[spec()], vec![10], oracle);
        assert_eq!(c.drain(&sink_of(vec![good, result(2, [10.0, 0.0, 0.0, 0.0])])), 2);
        assert!(c.has_all(1, 2));
        c.finish(1, 2);
        assert_eq!(c.failed, 0, "{:?}", c.messages);
    }

    #[test]
    fn counts_every_kind_of_miss() {
        let oracle = Oracle::from([((1, 0), 0xdead)]);
        let mut c = Checker::new(&[spec()], vec![10], oracle);
        // Wrong checksum (1), wrong row count (1), duplicate (1 at finish),
        // missing step 3 (1 at finish).
        c.drain(&sink_of(vec![
            result(1, [10.0, 0.0, 0.0, 0.0]),
            result(2, [9.0, 0.0, 0.0, 0.0]),
            result(2, [10.0, 0.0, 0.0, 0.0]),
        ]));
        assert!(!c.has_all(1, 3));
        c.finish(1, 3);
        assert_eq!(c.failed, 4, "{:?}", c.messages);
    }

    #[test]
    fn checksum_sees_value_bits_and_bounds() {
        let a = result(1, [1.0, 2.0, 3.0, 4.0]);
        let mut b = a.clone();
        b.arrays[0].1[3] = f64::from_bits(4.0f64.to_bits() + 1);
        assert_ne!(checksum(&a), checksum(&b));
        let mut c = a.clone();
        c.grid.hi[1] = 2.0;
        assert_ne!(checksum(&a), checksum(&c));
    }
}
