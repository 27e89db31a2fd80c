//! The synthetic `bodies` table of `rows_real`: Newton++'s published
//! variables at a row count Newton++'s O(n²) solver cannot reach, on the
//! host or on a device, with a producer that drifts the positions in
//! place each step. Generated here from the benchmark seed; the program
//! only ever sees the columns.

use std::sync::Arc;

use devsim::{CellBuffer, KernelCost, SimNode, Stream};
use hamr::{Allocator, HamrStream, StreamMode};
use sensei::{ArrayMetadata, DataAdaptor, Error, MeshMetadata};
use svtk::{DataObject, FieldAssociation, HamrDataArray, TableData};

use crate::workloads::DataHome;

/// The published columns: `newtonpp::NewtonAdaptor::VARIABLES`, checked
/// against it by a test so the two tables stay interchangeable.
pub const VARIABLES: [&str; 12] =
    ["x", "y", "z", "vx", "vy", "vz", "mass", "px", "py", "pz", "ke", "speed"];

/// Positions start inside ±`POS_HALF_WIDTH` and move by at most
/// `VEL_LIMIT * DRIFT_DT` per step, so for `MAX_STEPS` steps they stay
/// inside the ±2 position bounds of `fused90.xml`.
const POS_HALF_WIDTH: f64 = 1.5;
const VEL_LIMIT: f64 = 250.0;
const DRIFT_DT: f64 = 1e-6;
/// Most steps a table may be advanced before a position could leave the
/// binned range.
pub const MAX_STEPS: u64 = 1500;
/// One row in this many gets a `vz` outside the ±300 velocity bounds, so
/// the out-of-range path of every `vz` coordinate system is exercised and
/// its row count is checkable.
const VZ_OUTLIER_EVERY: usize = 64;

/// splitmix64: the benchmark's own generator, so inputs depend on the
/// seed and nothing else.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The generated columns of one rank, in `VARIABLES` order.
pub fn generate(seed: u64, rank: usize, rows: usize) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(seed ^ (rank as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut cols: Vec<Vec<f64>> = (0..VARIABLES.len()).map(|_| Vec::with_capacity(rows)).collect();
    for i in 0..rows {
        let pos: [f64; 3] = std::array::from_fn(|_| rng.uniform(-POS_HALF_WIDTH, POS_HALF_WIDTH));
        let mut vel: [f64; 3] = std::array::from_fn(|_| rng.uniform(-VEL_LIMIT, VEL_LIMIT));
        if i % VZ_OUTLIER_EVERY == VZ_OUTLIER_EVERY - 1 {
            vel[2] = rng.uniform(320.0, 400.0) * if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        }
        let mass = rng.uniform(0.5, 1.5);
        let v2 = vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2];
        let row = [
            pos[0],
            pos[1],
            pos[2],
            vel[0],
            vel[1],
            vel[2],
            mass,
            mass * vel[0],
            mass * vel[1],
            mass * vel[2],
            0.5 * mass * v2,
            v2.sqrt(),
        ];
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
    }
    cols
}

/// Rows of `cols` whose `(ax, ay)` values both fall inside `bounds`
/// (closed intervals, as `binning::GridParams::bin_index` treats them).
/// Position columns drift but stay in range by construction, so the count
/// holds for every step up to [`MAX_STEPS`].
pub fn rows_in_range(cols: &[Vec<f64>], axes: (&str, &str), bounds: ([f64; 2], [f64; 2])) -> u64 {
    let col = |name: &str| -> &[f64] {
        &cols[VARIABLES.iter().position(|v| *v == name).expect("axis is a published variable")]
    };
    let inside = |v: f64, b: [f64; 2]| v.is_finite() && v >= b[0] && v <= b[1];
    col(axes.0)
        .iter()
        .zip(col(axes.1))
        .filter(|(x, y)| inside(**x, bounds.0) && inside(**y, bounds.1))
        .count() as u64
}

/// The producer: owns the column buffers and republishes them zero-copy.
pub struct SynthBodies {
    node: Arc<SimNode>,
    /// `Some` when the table lives on a device.
    stream: Option<Arc<Stream>>,
    device: Option<usize>,
    cells: Vec<CellBuffer>,
    table: TableData,
    rows: usize,
    step: u64,
}

impl SynthBodies {
    /// Place `cols` (in `VARIABLES` order) on the host or on `device`.
    pub fn new(
        node: Arc<SimNode>,
        home: DataHome,
        device: usize,
        cols: &[Vec<f64>],
    ) -> sensei::Result<Self> {
        let rows = cols[0].len();
        let (stream, device) = match home {
            DataHome::Host => (None, None),
            DataHome::Device => (Some(node.device(device)?.create_stream()), Some(device)),
        };
        let mut cells = Vec::with_capacity(cols.len());
        for col in cols {
            let host = node.host_alloc_f64(rows);
            host.host_f64()?.copy_from_slice(col);
            cells.push(match (&stream, device) {
                (Some(s), Some(d)) => {
                    let buf = node.device(d)?.alloc_f64(rows)?;
                    s.copy(&host, &buf)?;
                    buf
                }
                _ => host,
            });
        }
        if let Some(s) = &stream {
            s.synchronize()?;
        }
        let mut table = TableData::new();
        for (name, buf) in VARIABLES.iter().zip(&cells) {
            // The same adoption Newton++'s adaptor performs: device
            // columns carry the producer's stream in asynchronous mode,
            // so consumers batch their moves behind one synchronization.
            let arr = match &stream {
                Some(s) => HamrDataArray::<f64>::adopt(
                    *name,
                    node.clone(),
                    buf.clone(),
                    1,
                    Allocator::OpenMp,
                    HamrStream::new(s.clone()),
                    StreamMode::Async,
                )?,
                None => HamrDataArray::<f64>::adopt(
                    *name,
                    node.clone(),
                    buf.clone(),
                    1,
                    Allocator::Malloc,
                    HamrStream::default_stream(),
                    StreamMode::Sync,
                )?,
            };
            table.set_column(arr.as_array_ref());
        }
        Ok(SynthBodies { node, stream, device, cells, table, rows, step: 0 })
    }

    /// One producer step: `x,y,z += v * dt` in place, where the data is.
    pub fn advance(&mut self) -> sensei::Result<()> {
        assert!(self.step < MAX_STEPS, "synthetic positions would leave the binned range");
        let bytes = (6 * 8 * self.rows) as f64;
        let cost = KernelCost { flops: 6.0 * self.rows as f64, bytes };
        match &self.stream {
            Some(stream) => {
                let c: [CellBuffer; 6] = std::array::from_fn(|i| self.cells[i].clone());
                stream.launch("synth_drift", cost, move |scope| {
                    for axis in 0..3 {
                        let (p, v) = (c[axis].f64_view(scope)?, c[axis + 3].f64_view_ro(scope)?);
                        for i in 0..p.len() {
                            p.set(i, p.get(i) + v.get(i) * DRIFT_DT);
                        }
                    }
                    Ok(())
                })?;
                stream.synchronize()?;
            }
            None => {
                let cells = &self.cells;
                self.node.host().run("synth_drift", cost, || -> devsim::Result<()> {
                    for axis in 0..3 {
                        let (p, v) = (cells[axis].host_f64()?, cells[axis + 3].host_f64_ro()?);
                        for i in 0..p.len() {
                            p.set(i, p.get(i) + v.get(i) * DRIFT_DT);
                        }
                    }
                    Ok(())
                })?;
            }
        }
        self.step += 1;
        Ok(())
    }
}

impl DataAdaptor for SynthBodies {
    fn num_meshes(&self) -> usize {
        1
    }

    fn mesh_metadata(&self, _i: usize) -> sensei::Result<MeshMetadata> {
        Ok(MeshMetadata {
            name: "bodies".into(),
            arrays: VARIABLES
                .iter()
                .map(|&name| ArrayMetadata {
                    name: name.to_string(),
                    association: FieldAssociation::Point,
                    components: 1,
                    type_name: "double",
                    device: self.device,
                })
                .collect(),
        })
    }

    fn mesh(&self, name: &str) -> sensei::Result<DataObject> {
        if name != "bodies" {
            return Err(Error::NoSuchMesh { name: name.to_string() });
        }
        Ok(DataObject::Table(self.table.clone()))
    }

    fn time(&self) -> f64 {
        self.step as f64 * DRIFT_DT
    }

    fn time_step(&self) -> u64 {
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_match_newton_adaptor() {
        assert_eq!(VARIABLES, newtonpp::NewtonAdaptor::VARIABLES);
    }

    #[test]
    fn same_seed_same_table_and_ranks_differ() {
        assert_eq!(generate(7, 0, 256), generate(7, 0, 256));
        assert_ne!(generate(7, 0, 256)[0], generate(7, 1, 256)[0]);
        assert_ne!(generate(7, 0, 256)[0], generate(8, 0, 256)[0]);
    }

    #[test]
    fn positions_stay_in_range_and_vz_outliers_are_counted() {
        let cols = generate(1, 0, 1024);
        let travel = VEL_LIMIT * DRIFT_DT * MAX_STEPS as f64;
        assert!(POS_HALF_WIDTH + travel < 2.0);
        let pos = ([-2.0, 2.0], [-2.0, 2.0]);
        assert_eq!(rows_in_range(&cols, ("x", "y"), pos), 1024);
        let mixed = ([-2.0, 2.0], [-300.0, 300.0]);
        assert_eq!(rows_in_range(&cols, ("z", "vz"), mixed), 1024 - 1024 / 64);
        assert_eq!(rows_in_range(&cols, ("x", "vx"), mixed), 1024);
    }
}
