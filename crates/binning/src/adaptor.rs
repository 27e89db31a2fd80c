//! The SENSEI analysis back-end wrapping the binning implementations.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use devsim::ReadView;
use hamr::Pm;
use minimpi::Comm;
use parking_lot::Mutex;
use sensei::{
    AnalysisAdaptor, AnalysisCounters, AnalysisRegistry, BackendControls, DagScheduler,
    DataAdaptor, DataRequirements, Error, ExecContext, Result,
};
use svtk::FieldAssociation;
use svtk::{DataObject, HamrDataArray, TableData};
use xmlcfg::Element;

use crate::arena::StepArena;
use crate::bounds;
use crate::device_impl;
use crate::fused::{spec_ops, FusedStep};
use crate::grid::GridParams;
use crate::host_impl;
use crate::reduce;
use crate::spec::{BinOp, BinningSpec, VarOp};

mod dag;

/// One finalized binning result (global across ranks).
#[derive(Debug, Clone)]
pub struct BinnedResult {
    /// Simulation step the result was computed at.
    pub step: u64,
    /// Simulated time.
    pub time: f64,
    /// The coordinate variables used as axes.
    pub axes: (String, String),
    /// Mesh geometry.
    pub grid: GridParams,
    /// Output arrays: `(output name, finalized per-bin values)`.
    pub arrays: Vec<(String, Vec<f64>)>,
}

impl BinnedResult {
    /// Look up an output array by name.
    pub fn array(&self, name: &str) -> Option<&[f64]> {
        self.arrays.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_slice())
    }

    /// Publish as an `svtk::ImageData` with one cell array per output,
    /// host-resident. Allocations go through the caching host pool.
    pub fn to_image(&self, node: &Arc<devsim::SimNode>) -> Result<svtk::ImageData> {
        self.to_image_on(node, None)
    }

    /// Publish as an `svtk::ImageData` with one cell array per output.
    /// With `device = Some(d)` the arrays are placed on device `d` through
    /// one stream-ordered pooled allocation path: every array's
    /// allocation and upload is enqueued asynchronously on a single
    /// stream and the stream is synchronized **once** — instead of a
    /// synchronous default-stream allocation and blocking upload per
    /// array.
    pub fn to_image_on(
        &self,
        node: &Arc<devsim::SimNode>,
        device: Option<usize>,
    ) -> Result<svtk::ImageData> {
        let mut img = self.grid.to_image();
        match device {
            None => {
                for (name, values) in &self.arrays {
                    // Host arrays come from the caching host pool; no
                    // stream is involved.
                    let arr = HamrDataArray::<f64>::from_slice(
                        name.clone(),
                        node.clone(),
                        values,
                        1,
                        hamr::Allocator::Malloc,
                        None,
                        hamr::HamrStream::default_stream(),
                        hamr::StreamMode::Sync,
                    )?;
                    img.data_mut(svtk::FieldAssociation::Cell).set_array(arr.as_array_ref());
                }
            }
            Some(d) => {
                let stream = node.device(d)?.default_stream();
                let hstream = hamr::HamrStream::new(stream.clone());
                for (name, values) in &self.arrays {
                    let arr = HamrDataArray::<f64>::from_slice(
                        name.clone(),
                        node.clone(),
                        values,
                        1,
                        hamr::Allocator::CudaAsync,
                        Some(d),
                        hstream.clone(),
                        hamr::StreamMode::Async,
                    )?;
                    img.data_mut(svtk::FieldAssociation::Cell).set_array(arr.as_array_ref());
                }
                // All uploads were enqueued in order; one wait covers them.
                stream.synchronize().map_err(Error::Device)?;
            }
        }
        Ok(img)
    }
}

/// Shared sink examples and tests read results from (the analysis may be
/// moved into an in situ worker thread, so results flow out through an
/// `Arc`).
pub type ResultSink = Arc<Mutex<Vec<BinnedResult>>>;

/// A communicator's collective totals when a binning step starts.
struct CommMark {
    allreduces: u64,
    tiers: minimpi::TierSnapshot,
}

impl CommMark {
    /// Mark `comm`'s current totals.
    pub fn new(comm: &Comm) -> Self {
        CommMark { allreduces: comm.allreduce_count(), tiers: comm.tier_stats() }
    }

    /// Charge what `comm` issued since the mark — allreduce rounds, and
    /// messages and bytes per network tier — to `counters`.
    pub fn charge(self, comm: &Comm, counters: &AnalysisCounters) {
        counters.add_allreduces(comm.allreduce_count() - self.allreduces);
        counters.add_comm(&comm.tier_stats().delta_since(&self.tiers));
    }
}

/// The data-binning analysis back-end (§4.2) over a list of specs that
/// consume one mesh.
///
/// "We provide a CPU implementation that runs on the host as well as a
/// CUDA implementation that runs on an assigned device. Both
/// implementations can run asynchronously in a C++ thread." Placement and
/// execution method come from the embedded [`BackendControls`]; data
/// access and movement go through the HDA access API, so data already
/// resident where the analysis runs is used zero-copy.
///
/// [`BinningAnalysis::new`] builds the XML type `data_binning`, one spec;
/// [`BinningSuite::new`] builds `binning_suite`, N of them — §4.3's
/// instances of the one back-end, computed by one fused step that shares
/// each step's fetch, bounds pass and grid allreduce across every spec.
/// The step is one task graph, whatever the execution method: the engine
/// runs it in order under lockstep and asynchronous, work-stealing under
/// `dag`.
pub struct BinningAnalysis {
    controls: BackendControls,
    /// Non-empty, every spec on one mesh.
    specs: Vec<BinningSpec>,
    /// Built by [`BinningSuite::new`]: named `binning_suite`, and spec
    /// `i`'s result is written under `dir/spec<i>`.
    suite: bool,
    /// `true` (default): the fused step's task graph over every spec.
    /// `false`: the per-op reference path (one pass/kernel/download/allreduce per
    /// operation per spec), kept for A/B comparison and as the
    /// correctness reference.
    fused: bool,
    sink: Option<ResultSink>,
    output_dir: Option<PathBuf>,
    /// Rank 0 with an `output` directory: the last step's results, written
    /// at finalize.
    last: Vec<BinnedResult>,
    executes: u64,
    counters: Arc<AnalysisCounters>,
    /// The fused step's resident memory (unused by the per-op path).
    arena: StepArena,
}

/// The XML type `binning_suite`: a [`BinningAnalysis`] over many specs.
/// Only a constructor; there is no value of this type.
pub enum BinningSuite {}

impl BinningSuite {
    /// A back-end over `specs`, which must all consume the same mesh.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(specs: Vec<BinningSpec>) -> Result<BinningAnalysis> {
        let Some(first) = specs.first() else {
            return Err(Error::Config("binning suite needs at least one spec".into()));
        };
        if let Some(other) = specs.iter().find(|s| s.mesh != first.mesh) {
            return Err(Error::Config(format!(
                "binning suite specs must share one mesh: '{}' vs '{}'",
                first.mesh, other.mesh
            )));
        }
        Ok(BinningAnalysis::over(specs, true))
    }
}

impl BinningAnalysis {
    /// A back-end computing `spec`.
    pub fn new(spec: BinningSpec) -> Self {
        BinningAnalysis::over(vec![spec], false)
    }

    fn over(specs: Vec<BinningSpec>, suite: bool) -> Self {
        BinningAnalysis {
            controls: BackendControls::default(),
            specs,
            suite,
            fused: true,
            sink: None,
            output_dir: None,
            last: Vec::new(),
            executes: 0,
            counters: AnalysisCounters::new(),
            arena: StepArena::default(),
        }
    }

    /// Select the fused (`true`, default) or per-op reference (`false`)
    /// execution path.
    pub fn with_fused(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Send every step's results (one per spec, in spec order) to `sink`.
    pub fn with_sink(mut self, sink: ResultSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Write the final results (PGM + CSV) at finalize, rank 0 only: into
    /// `dir` for `data_binning`, spec `i`'s into `dir/spec<i>` for
    /// `binning_suite`.
    pub fn with_output_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.output_dir = Some(dir.into());
        self
    }

    /// Set the execution-model controls at construction time.
    pub fn with_controls(mut self, controls: BackendControls) -> Self {
        self.controls = controls;
        self
    }

    /// Number of completed executes (diagnostic).
    pub fn executes(&self) -> u64 {
        self.executes
    }

    /// The fused step over this back-end's specs.
    fn step(&self) -> FusedStep<'_> {
        FusedStep { specs: &self.specs, counters: &self.counters }
    }

    /// True when this rank consumes the step's results: only rank 0 has a
    /// consumer, so no other rank builds or retains results.
    fn publishes(&self, comm: &Comm) -> bool {
        comm.rank() == 0 && (self.sink.is_some() || self.output_dir.is_some())
    }

    /// The one tail of every step: rank 0 keeps its results when an
    /// `output` directory wants the last step's written at finalize, and
    /// moves them into the sink.
    fn deliver(&mut self, comm: &Comm, results: Vec<BinnedResult>) {
        self.executes += 1;
        if comm.rank() != 0 {
            return;
        }
        if self.output_dir.is_some() {
            self.last.clone_from(&results);
        }
        if let Some(sink) = &self.sink {
            sink.lock().extend(results);
        }
    }

    /// The per-op reference step: one fetch of every spec's variables,
    /// then each spec's stages once per operation (or per axis), nothing
    /// packed — spec for spec what a one-spec per-op back-end computes.
    fn per_op_step(
        &self,
        data: &dyn DataAdaptor,
        ctx: &ExecContext<'_>,
        device: Option<usize>,
    ) -> Result<Vec<BinnedResult>> {
        let tables = local_tables(&data.mesh(&self.specs[0].mesh)?)?;
        let vars = self.step().union_variables();
        // The reference path reads plain vectors: every host column is
        // copied out of its view, and nothing aliases the adaptor's
        // allocations once it has been.
        let fetched: Vec<Fetched<Vec<f64>>> =
            fetch_tables(data, &tables, &vars, device, &self.counters)?
                .into_iter()
                .map(Fetched::copied)
                .collect();
        if device.is_none() {
            data.release_shared();
        }
        let mut results = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            let (bx, by) = self.per_op_bounds(spec, &fetched, device, ctx)?;
            let grid = spec.grid(bx, by);

            // Counts first (averages finalize with them), then one
            // allreduce per requested operation.
            let mut local = self.per_op_bin(spec, &fetched, grid, device, ctx)?.into_iter();
            let (_, count_local) = local.next().expect("counts are always computed");
            let counts = reduce::allreduce_grid(ctx.comm, BinOp::Count, count_local);
            let mut arrays = Vec::with_capacity(spec.ops.len());
            for (vo, local_grid) in local {
                let values = if vo.op == BinOp::Count {
                    counts.clone()
                } else {
                    let mut global = reduce::allreduce_grid(ctx.comm, vo.op, local_grid);
                    host_impl::finalize(vo.op, &mut global, &counts);
                    global
                };
                arrays.push((vo.output_name(), values));
            }
            let (step, time, axes) = (data.time_step(), data.time(), spec.axes.clone());
            results.push(BinnedResult { step, time, axes, grid, arrays });
        }
        Ok(results)
    }

    /// Per-op reference bounds: manual, or one min/max pass per axis
    /// where the data is and one allreduce per axis.
    fn per_op_bounds(
        &self,
        spec: &BinningSpec,
        fetched: &[Fetched<Vec<f64>>],
        device: Option<usize>,
        ctx: &ExecContext<'_>,
    ) -> Result<([f64; 2], [f64; 2])> {
        if let Some(b) = spec.bounds {
            return Ok(b);
        }
        let mut ranges = [[f64::INFINITY, f64::NEG_INFINITY]; 2];
        for f in fetched {
            for (range, name) in ranges.iter_mut().zip([&spec.axes.0, &spec.axes.1]) {
                let (lo, hi) = match f {
                    Fetched::Host(cols) => {
                        let vals = cols[name.as_str()].as_slice();
                        self.counters.add_table_passes(1);
                        ctx.node.host().run(
                            "bin_bounds",
                            devsim::KernelCost::bytes((vals.len() * 8) as f64),
                            || bounds::minmax(vals),
                        )
                    }
                    Fetched::Device(views) => {
                        let d = device.expect("device fetch implies device placement");
                        let stream = ctx.node.device(d)?.default_stream();
                        self.counters.add_kernel_launches(1);
                        self.counters.add_downloads(1);
                        device_impl::minmax_device(
                            ctx.node,
                            d,
                            &stream,
                            views[name.as_str()].cells(),
                        )?
                    }
                };
                range[0] = range[0].min(lo);
                range[1] = range[1].max(hi);
            }
        }
        let [x, y] = ranges.map(|[lo, hi]| {
            let (lo, hi) = bounds::global_bounds(ctx.comm, (lo, hi));
            let (lo, hi) = bounds::usable_range(lo, hi);
            [lo, hi]
        });
        Ok((x, y))
    }

    /// Per-op reference binning: the local accumulation grid of every
    /// operation (counts first) over the fetched tables, one pass — or
    /// kernel pair (init + reduce) plus download — per op per block.
    /// Device work is enqueued for all blocks before a single
    /// synchronization.
    fn per_op_bin(
        &self,
        spec: &BinningSpec,
        fetched: &[Fetched<Vec<f64>>],
        grid: GridParams,
        device: Option<usize>,
        ctx: &ExecContext<'_>,
    ) -> Result<Vec<(VarOp, Vec<f64>)>> {
        let mut results: Vec<(VarOp, Vec<f64>)> = spec_ops(spec)
            .into_iter()
            .map(|vo| {
                let bins = vec![host_impl::identity(vo.op); grid.num_bins()];
                (vo, bins)
            })
            .collect();
        let (x, y) = (spec.axes.0.as_str(), spec.axes.1.as_str());

        // (op index, host buffer) downloads staged across all device
        // blocks; synchronized once before merging.
        let mut staged = Vec::new();
        let mut dev_stream = None;

        for f in fetched {
            match f {
                Fetched::Host(cols) => {
                    let col = |name: &str| cols[name].as_slice();
                    let (xs, ys) = (col(x), col(y));
                    for (vo, acc) in results.iter_mut() {
                        let vals = (vo.op != BinOp::Count).then(|| col(&vo.var));
                        self.counters.add_table_passes(1);
                        let part = ctx.node.host().run(
                            "bin_host",
                            device_impl::bin_cost(xs.len()),
                            || host_impl::bin_host(xs, ys, vals, vo.op, &grid),
                        );
                        reduce::merge_into(vo.op, acc, part.into_iter());
                    }
                }
                Fetched::Device(views) => {
                    let d = device.expect("device fetch implies device placement");
                    let stream = ctx.node.device(d)?.default_stream();
                    for (k, (vo, _)) in results.iter().enumerate() {
                        let vals = (vo.op != BinOp::Count).then(|| views[vo.var.as_str()].cells());
                        let dbins = device_impl::bin_device(
                            ctx.node,
                            d,
                            &stream,
                            views[x].cells(),
                            views[y].cells(),
                            vals,
                            vo.op,
                            grid,
                        )?;
                        let host = ctx.node.host_alloc_f64(grid.num_bins());
                        stream.copy(&dbins, &host).map_err(Error::Device)?;
                        self.counters.add_kernel_launches(2);
                        self.counters.add_downloads(1);
                        staged.push((k, host));
                    }
                    dev_stream = Some(stream);
                }
            }
        }

        if let Some(stream) = dev_stream {
            stream.synchronize().map_err(Error::Device)?;
            for (k, host) in staged {
                let (vo, acc) = &mut results[k];
                let part = host.host_f64_ro().map_err(Error::Device)?.to_vec();
                reduce::merge_into(vo.op, acc, part.into_iter());
            }
        }
        Ok(results)
    }
}

/// A table's required variables, resident in the execution space.
pub(crate) enum Fetched<H = ReadView<f64>> {
    /// Host placement: the columns by name. The fused step reads them
    /// through read views of the memory the access API granted — the
    /// producer's own under lockstep, the snapshot's share of it under the
    /// asynchronous methods, the array's host replica when the data was on
    /// a device. A view pins its allocation while it lives, and a writer
    /// that meets one on a CoW-shared column faults a copy and waits for
    /// it to drop instead of racing it.
    Host(HashMap<String, H>),
    /// Device placement: access views (zero-copy when already resident).
    Device(HashMap<String, hamr::AccessView<f64>>),
}

impl Fetched {
    /// The same table with every host column copied out of its view.
    fn copied(self) -> Fetched<Vec<f64>> {
        match self {
            Fetched::Host(cols) => {
                Fetched::Host(cols.into_iter().map(|(name, v)| (name, v.to_vec())).collect())
            }
            Fetched::Device(views) => Fetched::Device(views),
        }
    }
}

/// The tables making up the requested mesh (a bare table, or the local
/// blocks of a multiblock).
pub(crate) fn local_tables(obj: &DataObject) -> Result<Vec<TableData>> {
    match obj {
        DataObject::Table(t) => Ok(vec![t.clone()]),
        DataObject::Multi(mb) => {
            let mut out = Vec::new();
            for (_, block) in mb.local_blocks() {
                match block {
                    DataObject::Table(t) => out.push(t.clone()),
                    other => {
                        return Err(Error::Analysis(format!(
                            "data binning needs tabular blocks, got {}",
                            other.class_name()
                        )))
                    }
                }
            }
            Ok(out)
        }
        other => Err(Error::Analysis(format!(
            "data binning needs tabular data, got {}",
            other.class_name()
        ))),
    }
}

fn column<'t>(table: &'t TableData, name: &str) -> Result<&'t HamrDataArray<f64>> {
    let col = table
        .column(name)
        .ok_or_else(|| Error::NoSuchArray { mesh: "table".into(), array: name.to_string() })?;
    svtk::downcast::<f64>(col).ok_or_else(|| {
        Error::Analysis(format!("column '{name}' is {}, binning needs double", col.type_name()))
    })
}

/// Move `vars` of `table` into the execution space (host read views or
/// device views) with one batched synchronization: all moves are enqueued
/// first and waited for once. Data already in place is granted zero-copy.
/// Also returns whether any view was granted in place, i.e. reads the
/// adaptor's own allocations.
fn fetch_table(table: &TableData, vars: &[&str], device: Option<usize>) -> Result<(Fetched, bool)> {
    let mut views = Vec::with_capacity(vars.len());
    for name in vars {
        let col = column(table, name)?;
        let view = match device {
            None => col.host_accessible()?,
            Some(d) => col.device_accessible(d, Pm::Cuda)?,
        };
        views.push((name.to_string(), col, view));
    }
    // One blocking wait; subsequent synchronizes are free.
    for (_, col, _) in &views {
        col.synchronize()?;
    }
    let in_place = views.iter().any(|(_, _, view)| view.is_direct());
    let fetched = match device {
        None => Fetched::Host(
            views
                .into_iter()
                .map(|(name, _, view)| {
                    Ok((name, view.cells().host_f64_ro().map_err(Error::Device)?))
                })
                .collect::<Result<_>>()?,
        ),
        Some(_) => Fetched::Device(views.into_iter().map(|(name, _, view)| (name, view)).collect()),
    };
    Ok((fetched, in_place))
}

/// [`fetch_table`] for every one of `tables`, counted as fetches. When no
/// column was granted in place — every one is read from its array's
/// replica in the execution space — nothing fetched aliases the snapshot's CoW shares, and the
/// snapshot is told so at once ([`DataAdaptor::release_shared`]): the
/// producer's writes during the analysis then skip the fault copy. A
/// caller whose views do read the shares in place gives the hint itself,
/// once the last of them is dropped. The snapshot honors the hint only
/// when this analysis is its sole remaining consumer — other engines
/// reading the same shared snapshot keep their pins until the last one
/// finishes.
pub(crate) fn fetch_tables(
    data: &dyn DataAdaptor,
    tables: &[TableData],
    vars: &[&str],
    device: Option<usize>,
    counters: &AnalysisCounters,
) -> Result<Vec<Fetched>> {
    counters.add_fetches(vars.len() as u64 * tables.len() as u64);
    let mut in_place = false;
    let mut fetched = Vec::with_capacity(tables.len());
    for table in tables {
        let (f, direct) = fetch_table(table, vars, device)?;
        in_place |= direct;
        fetched.push(f);
    }
    if !in_place {
        data.release_shared();
    }
    Ok(fetched)
}

impl AnalysisAdaptor for BinningAnalysis {
    fn name(&self) -> &str {
        if self.suite {
            "binning_suite"
        } else {
            "data_binning"
        }
    }

    fn controls(&self) -> &BackendControls {
        &self.controls
    }

    fn controls_mut(&mut self) -> &mut BackendControls {
        &mut self.controls
    }

    fn required_arrays(&self) -> DataRequirements {
        // Binning reads exactly the axis and operand columns of its mesh,
        // so an asynchronous snapshot need not copy anything else.
        DataRequirements::none().with_arrays(
            &self.specs[0].mesh,
            FieldAssociation::Point,
            self.step().union_variables(),
        )
    }

    /// The engine calls [`execute_dag`](AnalysisAdaptor::execute_dag) for
    /// a fused back-end; a caller that calls `execute` instead gets the
    /// same task graph, run in order on its thread.
    fn execute(&mut self, data: &dyn DataAdaptor, ctx: &ExecContext<'_>) -> Result<bool> {
        if self.fused {
            let mut sched = DagScheduler::in_order(ctx.node.clone(), ctx.comm.rank());
            return self.run_graph(data, ctx, &mut sched);
        }
        let comm_mark = CommMark::new(ctx.comm);
        let device = self.controls.resolve_device(ctx.comm.rank(), ctx.node.num_devices());
        let results = self.per_op_step(data, ctx, device)?;
        comm_mark.charge(ctx.comm, &self.counters);
        self.deliver(ctx.comm, results);
        Ok(true)
    }

    /// The fused step plans task graphs; the per-op reference does not.
    fn supports_dag(&self) -> bool {
        self.fused
    }

    fn execute_dag(
        &mut self,
        data: &dyn DataAdaptor,
        ctx: &ExecContext<'_>,
        sched: &mut DagScheduler,
    ) -> Result<bool> {
        self.run_graph(data, ctx, sched)
    }

    fn finalize(&mut self, ctx: &ExecContext<'_>) -> Result<()> {
        self.arena.release();
        let Some(dir) = self.output_dir.as_ref().filter(|_| ctx.comm.rank() == 0) else {
            return Ok(());
        };
        for (i, result) in self.last.iter().enumerate() {
            let dir = if self.suite { dir.join(format!("spec{i}")) } else { dir.clone() };
            crate::io::write_result(&dir, result)
                .map_err(|e| Error::Analysis(format!("writing results: {e}")))?;
        }
        Ok(())
    }

    fn counters(&self) -> Option<Arc<AnalysisCounters>> {
        Some(self.counters.clone())
    }
}

/// Register the `data_binning` back-end type with a registry, so XML
/// configurations can instantiate it: one spec, the element's own content.
pub fn register(registry: &mut AnalysisRegistry) {
    registry.register("data_binning", |el, _ctx| from_element(el, false));
}

/// Register the `binning_suite` back-end type: one `<analysis>` element
/// holding one `<instance>` child per spec, each with the same content as
/// a `data_binning` element.
pub fn register_suite(registry: &mut AnalysisRegistry) {
    registry.register("binning_suite", |el, _ctx| from_element(el, true));
}

/// The one factory behind both XML types.
fn from_element(el: &Element, suite: bool) -> Result<Box<dyn AnalysisAdaptor>> {
    let mut analysis = if suite {
        let specs =
            el.find_all("instance").map(BinningSpec::from_element).collect::<Result<_>>()?;
        BinningSuite::new(specs)?
    } else {
        BinningAnalysis::new(BinningSpec::from_element(el)?)
    };
    if el.attr("fused").is_some() {
        return Err(Error::Config(format!(
            "fused on analysis '{}' was removed: XML-configured binning always runs the fused \
             step (delete the attribute)",
            analysis.name()
        )));
    }
    analysis.output_dir = el.attr("output").map(PathBuf::from);
    Ok(Box::new(analysis))
}
