//! Online adaptive placement and autotuning: the profiler loop, closed.
//!
//! PRs 2–8 built every signal needed to answer the paper's central
//! question — *where should an analysis run on a heterogeneous node* —
//! but answered it statically from XML. [`AdaptiveController`] answers it
//! online: it samples a sliding window of profiler observations
//! (per-backend apparent cost, taint, and the share of arrays written at
//! the last capture) and at step boundaries re-places analyses (host ↔
//! device ↔ dedicated device), flips lockstep ↔ asynchronous ↔ dag, and
//! re-picks the snapshot mode from observed write rates.
//!
//! Decisions are *measured*, not modeled: the controller probes one
//! candidate at a time (coordinate descent over placement → execution
//! per back-end, then the bridge-wide snapshot mode), compares the
//! candidate's windowed mean apparent cost against the incumbent's, and
//! commits only when the candidate wins by more than the hysteresis
//! margin. A shared probe budget bounds total exploration so the
//! controller cannot oscillate; once the budget is spent every dimension
//! commits its incumbent and the controller settles into drift
//! monitoring. Samples from steps where retry recovery slept a backoff
//! (nonzero retried/recovered deltas) arrive flagged *tainted* and are
//! skipped — one injected fault must not trigger a spurious re-placement.
//!
//! The controller itself is pure decision logic: it never touches an
//! engine. The bridge applies [`AdaptiveDecision`]s through the same
//! reconfiguration path PR 4's recovery proved safe, and on multi-rank
//! runs rank 0 decides and broadcasts so every rank reconfigures
//! identically (engine rebuilds are collective).

use crate::controls::{BackendControls, DeviceSpec};
use crate::execution::ExecutionMethod;
use crate::snapshot::SnapshotMode;

/// Tuning knobs for the [`AdaptiveController`], settable from XML via the
/// `<adaptive>` element of [`crate::ConfigurableAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Samples per measurement window (per candidate / incumbent).
    pub window: usize,
    /// Untainted samples discarded after every reconfiguration before the
    /// window starts filling (engine rebuild transients).
    pub warmup: usize,
    /// A candidate must beat the incumbent's windowed mean by this
    /// fraction to be committed (0.10 = must be >10% cheaper).
    pub hysteresis: f64,
    /// Total candidate probes the controller may spend, across all
    /// dimensions and drift re-probes. Exhausted ⇒ commit incumbents and
    /// settle.
    pub probe_budget: u32,
    /// Steps to sit out after each dimension commits, before the next
    /// dimension starts measuring.
    pub cooldown: u64,
    /// Once settled, a windowed mean exceeding the settled baseline by
    /// this fraction re-opens probing (workload drift).
    pub drift_margin: f64,
    /// Tune per-backend placement (host / device / dedicated device).
    pub tune_placement: bool,
    /// Tune per-backend execution mode (lockstep / asynchronous / dag).
    pub tune_execution: bool,
    /// Tune the bridge-wide snapshot mode (deep / cow).
    pub tune_snapshot: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window: 4,
            warmup: 1,
            hysteresis: 0.10,
            probe_budget: 24,
            cooldown: 2,
            drift_margin: 0.5,
            tune_placement: true,
            tune_execution: true,
            tune_snapshot: true,
        }
    }
}

/// What the controller wants changed. Carried whole (not as a diff) so a
/// follower rank can apply a broadcast decision without any local state.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptiveAction {
    /// Rebuild back-end `backend` under `controls`.
    Reconfigure {
        /// Index of the back-end (bridge attach order).
        backend: usize,
        /// The full control block to rebuild under.
        controls: BackendControls,
    },
    /// Switch the bridge-wide snapshot capture mode.
    SetSnapshotMode {
        /// The mode to capture under from the next step on.
        mode: SnapshotMode,
    },
}

/// One decision the bridge must apply at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveDecision {
    /// The step whose boundary the decision was taken at.
    pub step: u64,
    /// The change to apply before the next dispatch.
    pub action: AdaptiveAction,
    /// Why: `probe` (exploration), `commit` (candidate won), `revert`
    /// (incumbent kept after a losing probe), `drift` (re-probe opener).
    pub cause: &'static str,
}

/// Per-backend observation for one step, fed by the bridge.
#[derive(Debug, Clone, Copy)]
pub struct BackendObservation {
    /// Apparent in situ cost of this back-end's dispatch, seconds.
    pub apparent_s: f64,
    /// True when retry recovery slept a backoff inside this sample
    /// (nonzero retried/recovered counter delta) — the window skips it.
    pub tainted: bool,
}

/// Bridge-wide observation for one step.
#[derive(Debug, Clone, Copy)]
pub struct StepObservation {
    /// The step just executed.
    pub step: u64,
    /// Total apparent in situ cost of the step (capture + dispatches).
    pub insitu_s: f64,
    /// Share of arrays whose write generation advanced at the last
    /// capture ([`crate::SnapshotPipeline::written_fraction`]).
    pub written_fraction: f64,
}

/// What the controller may touch, described by the bridge each step.
pub struct AdaptiveEnv<'a> {
    /// Devices on the node (0 ⇒ host-only placement).
    pub num_devices: usize,
    /// Currently applied controls, per back-end (attach order).
    pub controls: &'a [BackendControls],
    /// Back-ends the bridge can rebuild (attached with a factory).
    pub reconfigurable: &'a [bool],
    /// Currently active snapshot mode.
    pub snapshot_mode: SnapshotMode,
    /// True when at least one engine consumes snapshots.
    pub snapshot_consumers: bool,
}

/// One tunable dimension of one target.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dim {
    Placement,
    Execution,
    Snapshot,
}

#[derive(Debug, Clone, Copy)]
struct Stage {
    /// `Some(i)` for per-backend dims, `None` for the snapshot dim.
    backend: Option<usize>,
    dim: Dim,
}

/// A concrete configuration under measurement.
#[derive(Debug, Clone, PartialEq)]
enum Candidate {
    Controls(usize, BackendControls),
    Snapshot(SnapshotMode),
}

impl Candidate {
    fn decision(&self, step: u64, cause: &'static str) -> AdaptiveDecision {
        let action = match self {
            Candidate::Controls(b, c) => AdaptiveAction::Reconfigure { backend: *b, controls: *c },
            Candidate::Snapshot(m) => AdaptiveAction::SetSnapshotMode { mode: *m },
        };
        AdaptiveDecision { step, action, cause }
    }
}

/// Sliding window of untainted cost samples.
#[derive(Debug, Default)]
struct Window {
    cap: usize,
    samples: std::collections::VecDeque<f64>,
}

impl Window {
    fn new(cap: usize) -> Self {
        Window { cap: cap.max(1), samples: std::collections::VecDeque::new() }
    }

    fn push(&mut self, x: f64) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back(x);
    }

    fn full(&self) -> bool {
        self.samples.len() == self.cap
    }

    fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    fn clear(&mut self) {
        self.samples.clear();
    }
}

#[derive(Debug)]
enum Phase {
    /// Measuring the incumbent of the current stage.
    Baseline,
    /// Measuring probe candidates of the current stage.
    Probing,
    /// Sitting out after a commit before the next stage measures.
    Cooldown { until: u64 },
    /// Every stage committed; watching the total for drift.
    Settled,
}

/// The measurement-driven autotuner. Feed it one [`StepObservation`] per
/// step via [`AdaptiveController::observe_and_decide`]; apply the
/// decisions it returns before the next dispatch.
pub struct AdaptiveController {
    config: AdaptiveConfig,
    stages: Vec<Stage>,
    stage_idx: usize,
    phase: Phase,
    window: Window,
    warmup_left: usize,
    probes_used: u32,
    /// Probe state for the current stage.
    incumbent: Option<Candidate>,
    incumbent_cost: f64,
    candidates: Vec<Candidate>,
    cand_idx: usize,
    cand_costs: Vec<f64>,
    /// Settled-state drift baseline (windowed mean total insitu cost).
    settled_baseline: Option<f64>,
    /// Consecutive elevated drift windows seen while settled.
    drift_strikes: u32,
    /// Tainted samples dropped so far (observability).
    tainted_skipped: u64,
}

/// Consecutive elevated (tumbling) windows required before a settled
/// controller re-opens probing: one elevated window is routinely noise.
const DRIFT_STRIKES: u32 = 2;

impl AdaptiveController {
    /// A controller with `config`'s knobs; stages are derived from the
    /// environment on the first observation.
    pub fn new(config: AdaptiveConfig) -> Self {
        AdaptiveController {
            window: Window::new(config.window),
            config,
            stages: Vec::new(),
            stage_idx: 0,
            phase: Phase::Baseline,
            warmup_left: 0,
            probes_used: 0,
            incumbent: None,
            incumbent_cost: 0.0,
            candidates: Vec::new(),
            cand_idx: 0,
            cand_costs: Vec::new(),
            settled_baseline: None,
            drift_strikes: 0,
            tainted_skipped: 0,
        }
    }

    /// The knobs this controller runs under.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Probes spent so far (≤ `probe_budget`).
    pub fn probes_used(&self) -> u32 {
        self.probes_used
    }

    /// Tainted samples the window skipped so far.
    pub fn tainted_skipped(&self) -> u64 {
        self.tainted_skipped
    }

    /// True once every dimension has committed and the controller is only
    /// watching for drift.
    pub fn settled(&self) -> bool {
        matches!(self.phase, Phase::Settled)
    }

    fn build_stages(&mut self, env: &AdaptiveEnv) {
        for (b, _) in env.controls.iter().enumerate() {
            if !env.reconfigurable.get(b).copied().unwrap_or(false) {
                continue;
            }
            if self.config.tune_placement && env.num_devices > 0 {
                self.stages.push(Stage { backend: Some(b), dim: Dim::Placement });
            }
            if self.config.tune_execution {
                self.stages.push(Stage { backend: Some(b), dim: Dim::Execution });
            }
        }
        if self.config.tune_snapshot && env.snapshot_consumers {
            self.stages.push(Stage { backend: None, dim: Dim::Snapshot });
        }
    }

    /// The stage's cost sample for this step, plus its taint flag.
    fn stage_cost(
        stage: &Stage,
        obs: &StepObservation,
        backends: &[BackendObservation],
    ) -> (f64, bool) {
        match stage.backend {
            Some(b) => match backends.get(b) {
                Some(s) => (s.apparent_s, s.tainted),
                None => (obs.insitu_s, false),
            },
            // The snapshot mode shifts cost between capture and CoW
            // faults billed to dispatches, so its objective is the whole
            // step; any backend's backoff pollutes that total.
            None => (obs.insitu_s, backends.iter().any(|s| s.tainted)),
        }
    }

    /// The currently applied configuration of `stage`.
    fn applied(stage: &Stage, env: &AdaptiveEnv) -> Candidate {
        match stage.backend {
            Some(b) => Candidate::Controls(b, env.controls[b]),
            None => Candidate::Snapshot(env.snapshot_mode),
        }
    }

    /// Candidates for `stage`, excluding the incumbent configuration.
    fn build_candidates(
        &self,
        stage: &Stage,
        env: &AdaptiveEnv,
        obs: &StepObservation,
    ) -> Vec<Candidate> {
        match (stage.backend, stage.dim) {
            (Some(b), Dim::Placement) => {
                let cur = env.controls[b];
                let mut specs = vec![DeviceSpec::Host, DeviceSpec::Explicit(0)];
                if env.num_devices > 1 {
                    // "Dedicated device": the highest-numbered device, by
                    // convention away from device 0 where producers and
                    // auto-placed peers land.
                    specs.push(DeviceSpec::Explicit(env.num_devices - 1));
                }
                specs
                    .into_iter()
                    .filter(|d| *d != cur.device)
                    .map(|device| Candidate::Controls(b, BackendControls { device, ..cur }))
                    .collect()
            }
            (Some(b), Dim::Execution) => {
                let cur = env.controls[b];
                [ExecutionMethod::Lockstep, ExecutionMethod::Asynchronous, ExecutionMethod::Dag]
                    .into_iter()
                    .filter(|m| *m != cur.execution)
                    .map(|execution| Candidate::Controls(b, BackendControls { execution, ..cur }))
                    .collect()
            }
            (_, Dim::Snapshot) => {
                let wf = obs.written_fraction;
                [SnapshotMode::Deep, SnapshotMode::Cow]
                    .into_iter()
                    .filter(|m| *m != env.snapshot_mode)
                    // The write-generation signal prunes deep when most
                    // arrays are stale: cow fault-copies only the arrays
                    // the producer rewrites, deep copies them all, so
                    // probing deep wastes budget.
                    .filter(|m| !(matches!(m, SnapshotMode::Deep) && wf < 0.5))
                    .map(Candidate::Snapshot)
                    .collect()
            }
            (None, _) => Vec::new(),
        }
    }

    fn enter_cooldown(&mut self, step: u64) {
        self.stage_idx += 1;
        self.phase = Phase::Cooldown { until: step + self.config.cooldown };
        self.window.clear();
        self.incumbent = None;
        self.candidates.clear();
        self.cand_costs.clear();
        self.cand_idx = 0;
    }

    /// Feed the step's observations; returns the decisions to apply
    /// before the next dispatch (at most one per call).
    pub fn observe_and_decide(
        &mut self,
        env: &AdaptiveEnv,
        obs: &StepObservation,
        backends: &[BackendObservation],
    ) -> Vec<AdaptiveDecision> {
        if self.stages.is_empty() && self.stage_idx == 0 && !self.settled() {
            self.build_stages(env);
            if self.stages.is_empty() {
                self.phase = Phase::Settled;
            }
        }

        match self.phase {
            Phase::Cooldown { until } => {
                if obs.step >= until {
                    if self.stage_idx < self.stages.len() {
                        self.phase = Phase::Baseline;
                    } else {
                        self.phase = Phase::Settled;
                        self.settled_baseline = None;
                        self.drift_strikes = 0;
                    }
                    self.window.clear();
                    self.warmup_left = 0;
                }
                Vec::new()
            }
            Phase::Settled => self.watch_drift(obs, backends),
            Phase::Baseline => self.measure_baseline(env, obs, backends),
            Phase::Probing => self.measure_probe(env, obs, backends),
        }
    }

    fn measure_baseline(
        &mut self,
        env: &AdaptiveEnv,
        obs: &StepObservation,
        backends: &[BackendObservation],
    ) -> Vec<AdaptiveDecision> {
        let stage = self.stages[self.stage_idx];
        let (cost, tainted) = Self::stage_cost(&stage, obs, backends);
        if tainted {
            self.tainted_skipped += 1;
            return Vec::new();
        }
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
            return Vec::new();
        }
        self.window.push(cost);
        if !self.window.full() {
            return Vec::new();
        }
        self.incumbent = Some(Self::applied(&stage, env));
        self.incumbent_cost = self.window.mean();
        self.candidates = self.build_candidates(&stage, env, obs);
        if self.candidates.is_empty() || self.probes_used >= self.config.probe_budget {
            self.enter_cooldown(obs.step);
            return Vec::new();
        }
        self.cand_idx = 0;
        self.cand_costs.clear();
        self.probes_used += 1;
        self.window.clear();
        self.warmup_left = self.config.warmup;
        self.phase = Phase::Probing;
        vec![self.candidates[0].decision(obs.step, "probe")]
    }

    fn measure_probe(
        &mut self,
        env: &AdaptiveEnv,
        obs: &StepObservation,
        backends: &[BackendObservation],
    ) -> Vec<AdaptiveDecision> {
        let stage = self.stages[self.stage_idx];
        let (cost, tainted) = Self::stage_cost(&stage, obs, backends);
        if tainted {
            self.tainted_skipped += 1;
            return Vec::new();
        }
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
            return Vec::new();
        }
        self.window.push(cost);
        if !self.window.full() {
            return Vec::new();
        }
        self.cand_costs.push(self.window.mean());
        self.cand_idx += 1;
        if self.cand_idx < self.candidates.len() && self.probes_used < self.config.probe_budget {
            self.probes_used += 1;
            self.window.clear();
            self.warmup_left = self.config.warmup;
            return vec![self.candidates[self.cand_idx].decision(obs.step, "probe")];
        }

        // All candidates measured (or budget dry): pick the winner.
        let _ = env;
        let mut best_i = 0;
        for (i, c) in self.cand_costs.iter().enumerate() {
            if *c < self.cand_costs[best_i] {
                best_i = i;
            }
        }
        let threshold = self.incumbent_cost * (1.0 - self.config.hysteresis);
        let last_applied = self.candidates[self.cand_idx - 1].clone();
        let (winner, cause) = if self.cand_costs[best_i] < threshold {
            (self.candidates[best_i].clone(), "commit")
        } else {
            (self.incumbent.clone().expect("incumbent recorded at baseline"), "revert")
        };
        let step = obs.step;
        let decision =
            if winner != last_applied { Some(winner.decision(step, cause)) } else { None };
        self.enter_cooldown(step);
        decision.into_iter().collect()
    }

    fn watch_drift(
        &mut self,
        obs: &StepObservation,
        backends: &[BackendObservation],
    ) -> Vec<AdaptiveDecision> {
        if backends.iter().any(|s| s.tainted) {
            self.tainted_skipped += 1;
            return Vec::new();
        }
        self.window.push(obs.insitu_s);
        if !self.window.full() {
            return Vec::new();
        }
        // Tumbling windows: each verdict consumes a fresh batch of
        // samples, so one slow step cannot keep re-tripping the check
        // as it slides through overlapping windows.
        let mean = self.window.mean();
        self.window.clear();
        match self.settled_baseline {
            None => {
                self.settled_baseline = Some(mean);
                Vec::new()
            }
            Some(base) => {
                if mean > base * (1.0 + self.config.drift_margin) {
                    // One elevated window is routinely scheduler noise;
                    // demand consecutive confirmations before spending
                    // probe budget. A spurious re-probe is worse than a
                    // late one — re-settling mid-shift captures the
                    // drifted cost as the new baseline.
                    self.drift_strikes += 1;
                    if self.drift_strikes >= DRIFT_STRIKES
                        && self.probes_used < self.config.probe_budget
                    {
                        // The workload moved out from under the
                        // committed configuration: re-open probing from
                        // the first stage, budget permitting.
                        self.stage_idx = 0;
                        self.phase = Phase::Baseline;
                        self.warmup_left = 0;
                        self.settled_baseline = None;
                        self.drift_strikes = 0;
                    }
                } else {
                    self.drift_strikes = 0;
                }
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synthetic world: cost is a pure function of the applied
    /// configuration, so the controller's convergence is deterministic.
    struct Sim {
        controls: Vec<BackendControls>,
        snapshot_mode: SnapshotMode,
        cost: fn(&BackendControls, SnapshotMode) -> f64,
    }

    impl Sim {
        fn apply(&mut self, d: &AdaptiveDecision) {
            match &d.action {
                AdaptiveAction::Reconfigure { backend, controls } => {
                    self.controls[*backend] = *controls;
                }
                AdaptiveAction::SetSnapshotMode { mode } => self.snapshot_mode = *mode,
            }
        }

        /// One step: observe the current cost, apply what comes back.
        fn step(
            &mut self,
            ctrl: &mut AdaptiveController,
            step: u64,
            written_fraction: f64,
            tainted: bool,
        ) -> Vec<AdaptiveDecision> {
            let c = (self.cost)(&self.controls[0], self.snapshot_mode);
            let obs = StepObservation { step, insitu_s: c, written_fraction };
            let backends = [BackendObservation { apparent_s: c, tainted }];
            let reconf = [true];
            let controls = self.controls.clone();
            let env = AdaptiveEnv {
                num_devices: 2,
                controls: &controls,
                reconfigurable: &reconf,
                snapshot_mode: self.snapshot_mode,
                snapshot_consumers: true,
            };
            let decisions = ctrl.observe_and_decide(&env, &obs, &backends);
            for d in &decisions {
                self.apply(d);
            }
            decisions
        }

        fn run(
            &mut self,
            ctrl: &mut AdaptiveController,
            steps: u64,
            written_fraction: f64,
            tainted_at: &[u64],
        ) -> Vec<AdaptiveDecision> {
            (0..steps)
                .flat_map(|step| {
                    self.step(ctrl, step, written_fraction, tainted_at.contains(&step))
                })
                .collect()
        }
    }

    fn placement_cost(c: &BackendControls, _m: SnapshotMode) -> f64 {
        match c.device {
            DeviceSpec::Explicit(1) => 0.001,
            DeviceSpec::Explicit(_) => 0.004,
            _ => 0.010,
        }
    }

    fn placement_only() -> AdaptiveConfig {
        AdaptiveConfig {
            window: 2,
            warmup: 0,
            cooldown: 1,
            tune_execution: false,
            tune_snapshot: false,
            ..Default::default()
        }
    }

    #[test]
    fn converges_to_the_cheapest_placement_and_settles() {
        let mut sim = Sim {
            controls: vec![BackendControls { device: DeviceSpec::Host, ..Default::default() }],
            snapshot_mode: SnapshotMode::Deep,
            cost: placement_cost,
        };
        let mut ctrl = AdaptiveController::new(placement_only());
        let log = sim.run(&mut ctrl, 40, 1.0, &[]);
        assert_eq!(sim.controls[0].device, DeviceSpec::Explicit(1), "picked the dedicated GPU");
        assert!(ctrl.settled(), "probing ends");
        // The winner was the last-probed candidate, so it is already
        // applied and no redundant commit decision is emitted.
        assert!(log.iter().filter(|d| d.cause == "probe").count() >= 2);
        // Settled ⇒ no further decisions even over a long tail.
        let tail = sim.run(&mut ctrl, 40, 1.0, &[]);
        assert!(tail.is_empty(), "no oscillation after settling: {tail:?}");
    }

    #[test]
    fn hysteresis_keeps_the_incumbent_on_marginal_wins() {
        // Device is only 5% cheaper than host — inside the 10% band.
        fn cost(c: &BackendControls, _m: SnapshotMode) -> f64 {
            match c.device {
                DeviceSpec::Host => 0.0100,
                _ => 0.0095,
            }
        }
        let mut sim = Sim {
            controls: vec![BackendControls { device: DeviceSpec::Host, ..Default::default() }],
            snapshot_mode: SnapshotMode::Deep,
            cost,
        };
        let mut ctrl = AdaptiveController::new(placement_only());
        let log = sim.run(&mut ctrl, 40, 1.0, &[]);
        assert_eq!(sim.controls[0].device, DeviceSpec::Host, "marginal probe reverted");
        assert!(log.iter().all(|d| d.cause != "commit"));
        assert!(ctrl.settled());
    }

    #[test]
    fn tainted_samples_never_reach_the_window() {
        let mut sim = Sim {
            controls: vec![BackendControls { device: DeviceSpec::Host, ..Default::default() }],
            snapshot_mode: SnapshotMode::Deep,
            cost: placement_cost,
        };
        let mut ctrl = AdaptiveController::new(placement_only());
        // Every step tainted: the controller must sit in baseline forever.
        let all: Vec<u64> = (0..30).collect();
        let log = sim.run(&mut ctrl, 30, 1.0, &all);
        assert!(log.is_empty(), "no decisions from polluted samples");
        assert!(!ctrl.settled());
        assert_eq!(ctrl.tainted_skipped(), 30);
    }

    #[test]
    fn probe_budget_bounds_exploration() {
        let cfg = AdaptiveConfig { probe_budget: 1, ..placement_only() };
        let mut sim = Sim {
            controls: vec![BackendControls { device: DeviceSpec::Host, ..Default::default() }],
            snapshot_mode: SnapshotMode::Deep,
            cost: placement_cost,
        };
        let mut ctrl = AdaptiveController::new(cfg);
        let log = sim.run(&mut ctrl, 60, 1.0, &[]);
        assert!(ctrl.settled());
        assert_eq!(ctrl.probes_used(), 1);
        let probes = log.iter().filter(|d| d.cause == "probe").count();
        assert_eq!(probes, 1, "budget of one probe respected: {log:?}");
    }

    #[test]
    fn drift_reopens_probing_when_budget_remains() {
        // Host starts cheapest; after the flip the device wins by 10x.
        use std::sync::atomic::{AtomicBool, Ordering};
        static FLIPPED: AtomicBool = AtomicBool::new(false);
        fn cost(c: &BackendControls, _m: SnapshotMode) -> f64 {
            let flipped = FLIPPED.load(Ordering::Relaxed);
            match (c.device, flipped) {
                (DeviceSpec::Host, false) => 0.001,
                (DeviceSpec::Host, true) => 0.020,
                (_, false) => 0.004,
                (_, true) => 0.002,
            }
        }
        FLIPPED.store(false, Ordering::Relaxed);
        let mut sim = Sim {
            controls: vec![BackendControls { device: DeviceSpec::Host, ..Default::default() }],
            snapshot_mode: SnapshotMode::Deep,
            cost,
        };
        let mut ctrl = AdaptiveController::new(placement_only());
        sim.run(&mut ctrl, 40, 1.0, &[]);
        assert_eq!(sim.controls[0].device, DeviceSpec::Host, "host wins pre-drift");
        assert!(ctrl.settled());
        FLIPPED.store(true, Ordering::Relaxed);
        sim.run(&mut ctrl, 60, 1.0, &[]);
        assert_ne!(sim.controls[0].device, DeviceSpec::Host, "drift re-probe re-placed");
    }

    #[test]
    fn write_rate_prunes_deep_from_snapshot_candidates() {
        let cfg = AdaptiveConfig {
            window: 2,
            warmup: 0,
            cooldown: 1,
            tune_placement: false,
            tune_execution: false,
            ..Default::default()
        };
        // Cow is cheapest; deep is probed only if wf allows it.
        fn cost(_c: &BackendControls, m: SnapshotMode) -> f64 {
            match m {
                SnapshotMode::Deep => 0.010,
                SnapshotMode::Cow => 0.001,
            }
        }
        let probes_deep = |written_fraction: f64| {
            let mut sim = Sim {
                controls: vec![BackendControls::default()],
                snapshot_mode: SnapshotMode::Cow,
                cost,
            };
            let mut ctrl = AdaptiveController::new(cfg);
            let log = sim.run(&mut ctrl, 40, written_fraction, &[]);
            assert_eq!(sim.snapshot_mode, SnapshotMode::Cow);
            log.iter().any(|d| {
                matches!(d.action, AdaptiveAction::SetSnapshotMode { mode: SnapshotMode::Deep })
            })
        };
        assert!(!probes_deep(0.2), "deep pruned by write rate");
        assert!(probes_deep(1.0), "deep is a candidate when every array is rewritten");
    }

    #[test]
    fn default_stages_are_placement_execution_snapshot_and_no_probe_is_a_no_op() {
        // Async on the dedicated device under cow is cheapest, so every
        // stage has a winner and every candidate gets probed.
        fn cost(c: &BackendControls, m: SnapshotMode) -> f64 {
            let place = match c.device {
                DeviceSpec::Explicit(1) => 0.001,
                DeviceSpec::Explicit(_) => 0.004,
                _ => 0.010,
            };
            let exec = if c.execution == ExecutionMethod::Asynchronous { 0.5 } else { 1.0 };
            let snap = if m == SnapshotMode::Cow { 0.5 } else { 1.0 };
            place * exec * snap
        }
        let mut sim = Sim {
            controls: vec![BackendControls { device: DeviceSpec::Host, ..Default::default() }],
            snapshot_mode: SnapshotMode::Deep,
            cost,
        };
        let mut ctrl = AdaptiveController::new(AdaptiveConfig::default());
        let mut probes = 0;
        for step in 0..200 {
            for d in sim.step(&mut ctrl, step, 1.0, false) {
                if d.cause != "probe" {
                    continue;
                }
                probes += 1;
                match (d.action, ctrl.incumbent.clone()) {
                    (
                        AdaptiveAction::Reconfigure { controls, .. },
                        Some(Candidate::Controls(_, inc)),
                    ) => assert!(
                        controls.device != inc.device || controls.execution != inc.execution,
                        "probe {controls:?} measures the incumbent {inc:?} again"
                    ),
                    (AdaptiveAction::SetSnapshotMode { .. }, Some(Candidate::Snapshot(_))) => {}
                    other => panic!("probe and incumbent of different kinds: {other:?}"),
                }
            }
        }
        let dims: Vec<Dim> = ctrl.stages.iter().map(|s| s.dim).collect();
        assert_eq!(dims, [Dim::Placement, Dim::Execution, Dim::Snapshot]);
        assert!(ctrl.settled());
        assert_eq!(probes, 5, "2 placements + 2 execution modes + 1 snapshot mode");
        assert_eq!(sim.controls[0].device, DeviceSpec::Explicit(1));
        assert_eq!(sim.controls[0].execution, ExecutionMethod::Asynchronous);
        assert_eq!(sim.snapshot_mode, SnapshotMode::Cow);
    }

    #[test]
    fn no_stages_means_immediately_settled() {
        let cfg = AdaptiveConfig {
            tune_placement: false,
            tune_execution: false,
            tune_snapshot: false,
            ..Default::default()
        };
        let mut sim = Sim {
            controls: vec![BackendControls::default()],
            snapshot_mode: SnapshotMode::Deep,
            cost: placement_cost,
        };
        let mut ctrl = AdaptiveController::new(cfg);
        let log = sim.run(&mut ctrl, 10, 1.0, &[]);
        assert!(log.is_empty());
        assert!(ctrl.settled());
    }
}
