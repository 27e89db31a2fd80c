//! The classic SENSEI histogram back-end: a 1-D histogram of one
//! variable, computed on the host or on an assigned device.

use std::sync::Arc;

use devsim::KernelCost;
use hamr::Pm;
use parking_lot::Mutex;
use sensei::{
    AnalysisAdaptor, AnalysisRegistry, BackendControls, DataAdaptor, DataRequirements, Error,
    ExecContext, Result, ANY_MESH,
};

use crate::common::{array_host, as_f64, collect_arrays};

/// One histogram (global across ranks).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramResult {
    /// Step the histogram was computed at.
    pub step: u64,
    /// Variable name.
    pub variable: String,
    /// Bin edges' range `[lo, hi]`.
    pub range: (f64, f64),
    /// Per-bin counts.
    pub counts: Vec<u64>,
}

impl HistogramResult {
    /// Total number of values histogrammed.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Shared sink for results.
pub type HistogramSink = Arc<Mutex<Vec<HistogramResult>>>;

/// A 1-D histogram analysis back-end (XML type `histogram`).
///
/// ```xml
/// <analysis type="histogram" variable="mass" bins="64" device="-1"/>
/// ```
pub struct Histogram {
    controls: BackendControls,
    variable: String,
    bins: usize,
    range: Option<(f64, f64)>,
    sink: Option<HistogramSink>,
    last: Option<HistogramResult>,
}

impl Histogram {
    /// A histogram of `variable` with `bins` bins (auto range).
    pub fn new(variable: impl Into<String>, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        Histogram {
            controls: BackendControls::default(),
            variable: variable.into(),
            bins,
            range: None,
            sink: None,
            last: None,
        }
    }

    /// Fix the histogram range instead of computing min/max on the fly.
    pub fn with_range(mut self, lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "degenerate histogram range");
        self.range = Some((lo, hi));
        self
    }

    /// Record every step's result into `sink`.
    pub fn with_sink(mut self, sink: HistogramSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Set the execution-model controls.
    pub fn with_controls(mut self, controls: BackendControls) -> Self {
        self.controls = controls;
        self
    }

    /// The most recent result.
    pub fn last(&self) -> Option<&HistogramResult> {
        self.last.as_ref()
    }

    fn bin_host(values: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<u64> {
        let mut counts = vec![0u64; bins];
        let span = hi - lo;
        for &v in values {
            if v.is_finite() && v >= lo && v <= hi {
                let i = (((v - lo) / span) * bins as f64) as usize;
                counts[i.min(bins - 1)] += 1;
            }
        }
        counts
    }
}

impl AnalysisAdaptor for Histogram {
    fn name(&self) -> &str {
        "histogram"
    }

    fn controls(&self) -> &BackendControls {
        &self.controls
    }

    fn controls_mut(&mut self) -> &mut BackendControls {
        &mut self.controls
    }

    fn required_arrays(&self) -> DataRequirements {
        // The back-end histograms whichever mesh is published first, so it
        // cannot name the mesh statically; the wildcard scopes the
        // requirement to the one variable on any mesh.
        DataRequirements::none().with_named(ANY_MESH, [self.variable.clone()])
    }

    fn execute(&mut self, data: &dyn DataAdaptor, ctx: &ExecContext<'_>) -> Result<bool> {
        // Histogram the first published mesh (tabular or grid data alike).
        let md = data.mesh_metadata(0)?;
        let mesh = data.mesh(&md.name)?;
        let arrays = collect_arrays(&mesh, &self.variable)?;
        let device = self.controls.resolve_device(ctx.comm.rank(), ctx.node.num_devices());

        // Range: manual or global min/max.
        let (lo, hi) = match self.range {
            Some(r) => r,
            None => {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for a in &arrays {
                    // Walk the view in place instead of materializing a copy.
                    let typed = as_f64(a)?;
                    let view = typed.host_accessible()?;
                    typed.synchronize()?;
                    for v in view.iter()? {
                        if v.is_finite() {
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                    }
                }
                let (lo, hi) = ctx.comm.allreduce((lo, hi), |a, b| (a.0.min(b.0), a.1.max(b.1)));
                if hi > lo {
                    (lo, hi)
                } else {
                    (lo - 0.5, hi + 0.5)
                }
            }
        };

        // Local histogram, on the host or as a device kernel.
        let mut local = vec![0u64; self.bins];
        for array in &arrays {
            let part: Vec<u64> = match device {
                None => {
                    let vals = array_host(array)?;
                    ctx.node.host().run(
                        "histogram",
                        KernelCost {
                            flops: 5.0 * vals.len() as f64,
                            bytes: 8.0 * vals.len() as f64,
                        },
                        || Self::bin_host(&vals, lo, hi, self.bins),
                    )
                }
                Some(d) => {
                    let typed = as_f64(array)?;
                    let view = typed.device_accessible(d, Pm::Cuda)?;
                    typed.synchronize()?;
                    let stream = ctx.node.device(d)?.default_stream();
                    let out = ctx.node.device(d)?.alloc_cells(self.bins)?;
                    let cells = view.cells().clone();
                    let o = out.clone();
                    let (bins, n) = (self.bins, view.len());
                    stream
                        .launch(
                            "histogram",
                            KernelCost { flops: 5.0 * n as f64, bytes: 16.0 * n as f64 },
                            move |scope| {
                                let v = cells.f64_view_ro(scope)?;
                                let h = o.u64_view(scope)?;
                                let span = hi - lo;
                                for i in 0..v.len() {
                                    let x = v.get(i);
                                    if x.is_finite() && x >= lo && x <= hi {
                                        let b = (((x - lo) / span) * bins as f64) as usize;
                                        h.atomic_add(b.min(bins - 1), 1);
                                    }
                                }
                                Ok(())
                            },
                        )
                        .map_err(Error::Device)?;
                    let host = ctx.node.host_alloc_f64(self.bins);
                    stream.copy(&out, &host).map_err(Error::Device)?;
                    stream.synchronize().map_err(Error::Device)?;
                    host.host_u64_ro().map_err(Error::Device)?.to_vec()
                }
            };
            for (a, b) in local.iter_mut().zip(part) {
                *a += b;
            }
        }

        // Global reduction.
        let counts = ctx.comm.allreduce(local, |mut a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        });
        let result = HistogramResult {
            step: data.time_step(),
            variable: self.variable.clone(),
            range: (lo, hi),
            counts,
        };
        if let Some(sink) = &self.sink {
            if ctx.comm.rank() == 0 {
                sink.lock().push(result.clone());
            }
        }
        self.last = Some(result);
        Ok(true)
    }
}

/// Register the `histogram` type with a registry.
pub fn register(registry: &mut AnalysisRegistry) {
    registry.register("histogram", |el, _ctx| {
        let variable = el.req_attr("variable").map_err(Error::Xml)?.to_string();
        let bins = el.parse_attr_or::<usize>("bins", 64).map_err(Error::Xml)?;
        if bins == 0 {
            return Err(Error::Config("histogram needs at least one bin".into()));
        }
        let mut h = Histogram::new(variable, bins);
        let lo = el.parse_attr::<f64>("min").map_err(Error::Xml)?;
        let hi = el.parse_attr::<f64>("max").map_err(Error::Xml)?;
        if let (Some(lo), Some(hi)) = (lo, hi) {
            if hi <= lo {
                return Err(Error::Config("histogram range is degenerate".into()));
            }
            h = h.with_range(lo, hi);
        }
        Ok(Box::new(h))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_binning_is_correct() {
        let vals = [0.0, 0.49, 0.5, 0.99, 1.0, -0.1, 1.1, f64::NAN];
        let counts = Histogram::bin_host(&vals, 0.0, 1.0, 2);
        // in-range: 0.0, 0.49 -> bin 0; 0.5, 0.99, 1.0 -> bin 1.
        assert_eq!(counts, vec![2, 3]);
    }

    #[test]
    fn upper_edge_goes_to_last_bin() {
        let counts = Histogram::bin_host(&[1.0], 0.0, 1.0, 4);
        assert_eq!(counts, vec![0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        Histogram::new("x", 0);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_range_rejected() {
        let _ = Histogram::new("x", 4).with_range(1.0, 1.0);
    }
}
