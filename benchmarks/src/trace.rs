//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Nothing here reaches into the program: the seams are
//! timers around the public entry points, a delegating `DataAdaptor` and
//! a delegating `AnalysisAdaptor`.
//!
//! Spans live in per-thread buffers (no shared lock on the recording
//! path); a thread's buffer moves to the global collector when the thread
//! exits or calls [`flush_thread`]. The recorder is off unless a traced
//! pass switches it on, so end-to-end numbers are measured without it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sensei::{
    AnalysisAdaptor, AnalysisCounters, BackendControls, DagScheduler, DataAdaptor,
    DataRequirements, ExecContext, MeshMetadata,
};
use svtk::DataObject;

/// Span names, one per seam.
pub const SOLVER_STEP: &str = "newtonpp.step";
pub const BRIDGE_EXECUTE: &str = "sensei.execute";
pub const BRIDGE_FINALIZE: &str = "sensei.finalize";
pub const FETCH: &str = "svtk.fetch";
pub const BACKEND_EXECUTE: &str = "binning.execute";
pub const BACKEND_FINALIZE: &str = "binning.finalize";

/// One completed span. `parent` is the id of the span that was open on
/// the same thread when this one started (0 = none); spans of one
/// simulation step share `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub rank: u32,
    pub thread: u32,
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct ThreadBuf {
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if !self.spans.is_empty() {
            // A poisoned collector only means another thread panicked
            // mid-append; the spans already there are still whole.
            let mut all = COLLECTED.lock().unwrap_or_else(|e| e.into_inner());
            all.append(&mut self.spans);
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switch recording on or off (a traced pass brackets its timed loop).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Run `f` inside a span. With the recorder off this is one atomic load.
pub fn span<R>(name: &'static str, rank: usize, step: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = BUF.with(|b| {
        let mut b = b.borrow_mut();
        let parent = b.open.last().copied().unwrap_or(0);
        b.open.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.open.pop();
        let thread = b.thread;
        b.spans.push(Span { id, parent, name, rank: rank as u32, thread, step, start_ns, end_ns });
    });
    out
}

/// Move the calling thread's spans to the collector now (rank threads
/// call this before they return; program-owned worker threads flush when
/// they exit, which `Bridge::finalize` waits for).
pub fn flush_thread() {
    BUF.with(|b| b.borrow_mut().flush());
}

/// Take every collected span, leaving the collector empty.
pub fn take_all() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *COLLECTED.lock().unwrap_or_else(|e| e.into_inner()))
}

/// What recording one span costs, in nanoseconds: the recorder timed on
/// a scratch thread whose spans are thrown away. The difference between
/// a traced and an untraced round is buried in the machine's noise; this
/// times the recorder itself.
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let was = ENABLED.swap(true, Ordering::SeqCst);
    let cost = std::thread::spawn(|| {
        let t0 = Instant::now();
        for i in 0..SPANS {
            span("cost", 0, u64::from(i), || std::hint::black_box(()));
        }
        let ns = t0.elapsed().as_nanos() as f64 / f64::from(SPANS);
        BUF.with(|b| b.borrow_mut().spans.clear());
        ns
    })
    .join()
    .expect("the scratch thread only records spans");
    ENABLED.store(was, Ordering::SeqCst);
    cost
}

/// Delegating data adaptor handed to `Bridge::execute`: times `mesh()`,
/// the call through which every consumer (a lockstep back-end, or the
/// bridge's snapshot capture) obtains the simulation's arrays. Workers of
/// asynchronous engines read the captured snapshot instead, which is the
/// program's own adaptor and records nothing.
pub struct TracedData<'a, D: DataAdaptor + Sync> {
    inner: &'a D,
    rank: usize,
}

impl<'a, D: DataAdaptor + Sync> TracedData<'a, D> {
    pub fn new(inner: &'a D, rank: usize) -> Self {
        TracedData { inner, rank }
    }
}

impl<D: DataAdaptor + Sync> DataAdaptor for TracedData<'_, D> {
    fn num_meshes(&self) -> usize {
        self.inner.num_meshes()
    }
    fn mesh_metadata(&self, i: usize) -> sensei::Result<MeshMetadata> {
        self.inner.mesh_metadata(i)
    }
    fn mesh(&self, name: &str) -> sensei::Result<DataObject> {
        span(FETCH, self.rank, self.inner.time_step(), || self.inner.mesh(name))
    }
    fn time(&self) -> f64 {
        self.inner.time()
    }
    fn time_step(&self) -> u64 {
        self.inner.time_step()
    }
    fn release_shared(&self) {
        self.inner.release_shared()
    }
}

/// Delegating analysis back-end: times `execute`, `execute_dag` and
/// `finalize` on whatever thread the engine calls them from, and forwards
/// everything else untouched so the engine sees the wrapped back-end's
/// controls, requirements, counters and dag capability.
pub struct TracedAnalysis {
    inner: Box<dyn AnalysisAdaptor>,
    rank: usize,
    last_step: u64,
}

impl TracedAnalysis {
    pub fn new(inner: Box<dyn AnalysisAdaptor>, rank: usize) -> Self {
        TracedAnalysis { inner, rank, last_step: 0 }
    }
}

impl AnalysisAdaptor for TracedAnalysis {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn controls(&self) -> &BackendControls {
        self.inner.controls()
    }
    fn controls_mut(&mut self) -> &mut BackendControls {
        self.inner.controls_mut()
    }
    fn required_arrays(&self) -> DataRequirements {
        self.inner.required_arrays()
    }
    fn counters(&self) -> Option<Arc<AnalysisCounters>> {
        self.inner.counters()
    }
    fn execute(&mut self, data: &dyn DataAdaptor, ctx: &ExecContext<'_>) -> sensei::Result<bool> {
        self.last_step = data.time_step();
        span(BACKEND_EXECUTE, self.rank, self.last_step, || self.inner.execute(data, ctx))
    }
    fn supports_dag(&self) -> bool {
        self.inner.supports_dag()
    }
    fn execute_dag(
        &mut self,
        data: &dyn DataAdaptor,
        ctx: &ExecContext<'_>,
        sched: &mut DagScheduler,
    ) -> sensei::Result<bool> {
        self.last_step = data.time_step();
        span(BACKEND_EXECUTE, self.rank, self.last_step, || {
            self.inner.execute_dag(data, ctx, sched)
        })
    }
    fn finalize(&mut self, ctx: &ExecContext<'_>) -> sensei::Result<()> {
        span(BACKEND_FINALIZE, self.rank, self.last_step, || self.inner.finalize(ctx))
    }
}

/// Per-step figures derived from one segment's spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SpanSummary {
    /// Mean `newtonpp.step` duration (ms) over ranks and steps.
    pub solver_step_ms: f64,
    /// 95th percentile of rank 0's `sensei.execute` durations (ms).
    pub execute_p95_ms: f64,
    /// Mean self time of `sensei.execute` (ms): duration minus the fetch
    /// and back-end spans directly under it.
    pub execute_self_ms: f64,
    /// Longest `sensei.finalize` over ranks (ms).
    pub finalize_ms: f64,
    /// Sum of back-end `execute` spans per step per rank (ms).
    pub backend_execute_ms: f64,
    /// Sum of `mesh()` spans per step per rank (ms).
    pub fetch_ms: f64,
    /// `mesh()` calls per step per rank.
    pub fetch_calls: f64,
    /// Spans summarized.
    pub spans: usize,
}

/// Check the span tree of one segment and summarize it. `steps` is the
/// inclusive range of simulation step ids of the timed loop; spans of
/// other steps (warm-up work still draining) are ignored. On lockstep
/// segments every fetch and back-end span must descend from the
/// `sensei.execute` span of its own step.
pub fn summarize(
    spans: &[Span],
    steps: (u64, u64),
    ranks: usize,
    lockstep: bool,
) -> Result<SpanSummary, String> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} '{}' ends before it starts", s.id, s.name));
        }
        if s.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&s.parent)
            .ok_or_else(|| format!("span {} '{}' has no recorded parent", s.id, s.name))?;
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} '{}' is not inside its parent '{}'",
                s.id, s.name, p.name
            ));
        }
        if s.step != p.step || s.rank != p.rank || s.thread != p.thread {
            return Err(format!(
                "span {} '{}' (step {}) and its parent '{}' (step {}) disagree on step, rank or thread",
                s.id, s.name, s.step, p.name, p.step
            ));
        }
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    for s in spans {
        if child_ns.get(&s.id).copied().unwrap_or(0) > s.dur_ns() {
            return Err(format!("span {} '{}' has negative self time", s.id, s.name));
        }
    }

    let timed = |s: &&Span| s.step >= steps.0 && s.step <= steps.1;
    if lockstep {
        for s in spans.iter().filter(timed).filter(|s| s.name == FETCH || s.name == BACKEND_EXECUTE)
        {
            let mut cur = s.parent;
            let mut found = false;
            while let Some(p) = by_id.get(&cur) {
                if p.name == BRIDGE_EXECUTE {
                    found = p.step == s.step;
                    break;
                }
                cur = p.parent;
            }
            if !found {
                return Err(format!(
                    "lockstep span {} '{}' of step {} is not under that step's sensei.execute",
                    s.id, s.name, s.step
                ));
            }
        }
    }

    let n_steps = (steps.1 + 1 - steps.0) as f64;
    let per_rank_step = n_steps * ranks as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let total = |name: &str| -> u64 {
        spans.iter().filter(timed).filter(|s| s.name == name).map(Span::dur_ns).sum()
    };
    let mut exec0: Vec<f64> = spans
        .iter()
        .filter(timed)
        .filter(|s| s.name == BRIDGE_EXECUTE && s.rank == 0)
        .map(|s| ms(s.dur_ns()))
        .collect();
    if exec0.len() as f64 != n_steps {
        return Err(format!(
            "expected {} sensei.execute spans on rank 0, recorded {}",
            n_steps,
            exec0.len()
        ));
    }
    exec0.sort_by(f64::total_cmp);
    let execute_self: u64 = spans
        .iter()
        .filter(timed)
        .filter(|s| s.name == BRIDGE_EXECUTE)
        .map(|s| s.dur_ns() - child_ns.get(&s.id).copied().unwrap_or(0))
        .sum();
    Ok(SpanSummary {
        solver_step_ms: ms(total(SOLVER_STEP)) / per_rank_step,
        execute_p95_ms: crate::stats::quantile_sorted(&exec0, 0.95),
        execute_self_ms: ms(execute_self) / per_rank_step,
        finalize_ms: spans
            .iter()
            .filter(|s| s.name == BRIDGE_FINALIZE)
            .map(|s| ms(s.dur_ns()))
            .fold(0.0, f64::max),
        backend_execute_ms: ms(total(BACKEND_EXECUTE)) / per_rank_step,
        fetch_ms: ms(total(FETCH)) / per_rank_step,
        fetch_calls: spans.iter().filter(timed).filter(|s| s.name == FETCH).count() as f64
            / per_rank_step,
        spans: spans.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, step: u64, start: u64, end: u64) -> Span {
        Span { id, parent, name, rank: 0, thread: 1, step, start_ns: start, end_ns: end }
    }

    #[test]
    fn summarizes_a_well_formed_lockstep_tree() {
        let spans = vec![
            sp(1, 0, SOLVER_STEP, 5, 0, 1_000_000),
            sp(2, 0, BRIDGE_EXECUTE, 5, 1_000_000, 4_000_000),
            sp(3, 2, BACKEND_EXECUTE, 5, 1_500_000, 3_500_000),
            sp(4, 3, FETCH, 5, 1_600_000, 1_700_000),
        ];
        let s = summarize(&spans, (5, 5), 1, true).unwrap();
        assert_eq!(s.solver_step_ms, 1.0);
        assert_eq!(s.backend_execute_ms, 2.0);
        assert_eq!(s.execute_self_ms, 1.0);
        assert_eq!(s.fetch_calls, 1.0);
    }

    #[test]
    fn rejects_children_outside_parents_and_orphans_under_lockstep() {
        let outside = vec![sp(1, 0, BRIDGE_EXECUTE, 1, 0, 10), sp(2, 1, BACKEND_EXECUTE, 1, 5, 20)];
        assert!(summarize(&outside, (1, 1), 1, true).is_err());
        let orphan = vec![sp(1, 0, BRIDGE_EXECUTE, 1, 0, 10), sp(2, 0, FETCH, 1, 2, 3)];
        assert!(summarize(&orphan, (1, 1), 1, true).is_err());
        assert!(summarize(&orphan, (1, 1), 1, false).is_ok());
    }

    #[test]
    fn recorder_links_parents_on_one_thread_and_is_off_by_default() {
        std::thread::spawn(|| {
            span("off", 0, 0, || ());
            set_enabled(true);
            span(BRIDGE_EXECUTE, 0, 7, || span(FETCH, 0, 7, || ()));
            set_enabled(false);
        })
        .join()
        .unwrap();
        let spans = take_all();
        assert!(spans.iter().all(|s| s.name != "off"));
        let outer = spans.iter().find(|s| s.name == BRIDGE_EXECUTE).unwrap();
        let inner = spans.iter().find(|s| s.name == FETCH).unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
    }
}
