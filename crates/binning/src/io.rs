//! Output writers: portable graymap (PGM) images and CSV dumps of binned
//! grids — the post hoc artifacts behind the paper's Figure 1 panels.

use std::io::Write;
use std::path::Path;

use crate::adaptor::BinnedResult;

/// Render a grid as an 8-bit PGM, normalizing finite values to 0..255
/// (NaN/empty bins render black). `log_scale` applies `ln(1 + v)` first,
/// which is how the paper's mass-sum panels are typically displayed.
pub fn to_pgm(nx: usize, ny: usize, values: &[f64], log_scale: bool) -> Vec<u8> {
    assert_eq!(values.len(), nx * ny, "grid shape mismatch");
    let xform = |v: f64| if log_scale { (1.0 + v.max(0.0)).ln() } else { v };
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).map(xform).collect();
    let (lo, hi) = finite.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
        (devsim::min_select(l, v), devsim::max_select(h, v))
    });
    let span = if hi > lo { hi - lo } else { 1.0 };

    let mut out = Vec::with_capacity(32 + nx * ny);
    out.extend_from_slice(format!("P5\n{nx} {ny}\n255\n").as_bytes());
    // PGM rows go top to bottom; our grids are y-up, so flip.
    for j in (0..ny).rev() {
        for i in 0..nx {
            let v = values[j * nx + i];
            let px = if v.is_finite() {
                (((xform(v) - lo) / span) * 255.0).round().clamp(0.0, 255.0) as u8
            } else {
                0
            };
            out.push(px);
        }
    }
    out
}

/// Dump a grid as CSV (one row per y index, x fastest).
pub fn to_csv(nx: usize, ny: usize, values: &[f64]) -> String {
    assert_eq!(values.len(), nx * ny, "grid shape mismatch");
    let mut out = String::new();
    for j in 0..ny {
        for i in 0..nx {
            if i > 0 {
                out.push(',');
            }
            let v = values[j * nx + i];
            if v.is_nan() {
                out.push_str("nan");
            } else {
                out.push_str(&format!("{v}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Write every output array of a result into `dir` as
/// `<axes>_<name>.pgm` and `.csv`.
pub fn write_result(dir: &Path, result: &BinnedResult) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let (nx, ny) = (result.grid.nx, result.grid.ny);
    for (name, values) in &result.arrays {
        let stem = format!("{}_{}_{}", result.axes.0, result.axes.1, name);
        let mut pgm = std::fs::File::create(dir.join(format!("{stem}.pgm")))?;
        pgm.write_all(&to_pgm(nx, ny, values, true))?;
        std::fs::write(dir.join(format!("{stem}.csv")), to_csv(nx, ny, values))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_header_and_size() {
        let img = to_pgm(4, 2, &[0.0; 8], false);
        assert!(img.starts_with(b"P5\n4 2\n255\n"));
        assert_eq!(img.len(), b"P5\n4 2\n255\n".len() + 8);
    }

    #[test]
    fn pgm_normalizes_range_and_flips_y() {
        // 2x2 grid: bottom row 0, top row 10 -> first output row (top) white.
        let img = to_pgm(2, 2, &[0.0, 0.0, 10.0, 10.0], false);
        let pixels = &img[img.len() - 4..];
        assert_eq!(pixels, &[255, 255, 0, 0]);
    }

    #[test]
    fn pgm_nan_renders_black_and_constant_grid_is_uniform() {
        let img = to_pgm(2, 1, &[f64::NAN, 5.0], false);
        let pixels = &img[img.len() - 2..];
        assert_eq!(pixels[0], 0);
        // Single finite value: span fallback avoids division by zero and
        // maps the value to the bottom of the range.
        assert_eq!(pixels[1], 0);
    }

    #[test]
    fn csv_layout() {
        let csv = to_csv(2, 2, &[1.0, 2.0, 3.0, f64::NAN]);
        assert_eq!(csv, "1,2\n3,nan\n");
    }

    #[test]
    fn write_result_creates_files() {
        let dir = std::env::temp_dir().join(format!("binning_io_test_{}", std::process::id()));
        let result = BinnedResult {
            step: 3,
            time: 1.5,
            axes: ("x".into(), "y".into()),
            grid: crate::GridParams::new(2, 2, [0.0, 0.0], [1.0, 1.0]),
            arrays: vec![("count".into(), vec![1.0, 2.0, 3.0, 4.0])],
        };
        write_result(&dir, &result).unwrap();
        assert!(dir.join("x_y_count.pgm").exists());
        assert!(dir.join("x_y_count.csv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
