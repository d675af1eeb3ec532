//! The Ansor-TenSet baseline: evolutionary schedule search plus the
//! round-based multi-task tuning loop (paper §5, Zheng et al. OSDI '20).
//!
//! This crate also hosts the *shared* tuning infrastructure — [`SearchTask`]
//! states, the [`Proposer`] abstraction, per-round measurement/fine-tuning,
//! and the task scheduler — because the paper keeps everything except the
//! candidate-proposal algorithm identical between Ansor and Felix for a fair
//! comparison (§3.5: Felix adopts Ansor's round-based tuning and task
//! scheduler).

pub mod evolution;

pub use evolution::EvolutionaryProposer;

use felix_cost::{fine_tune, ingest_sample, Mlp, Sample};
use felix_features::{extract_features, FeatureSet};
use felix_graph::lower::lower_subgraph;
use felix_graph::Task;
use felix_sim::clock::ClockCosts;
use felix_sim::vendor::hardware_params;
use felix_sim::{candidate_key, FaultKind, FaultPlan, MeasureOutcome, Simulator, TuningClock};
use felix_tir::sketch::generate_sketches;
use felix_tir::Program;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// One symbolic sketch of a task, with its extracted feature formulas.
#[derive(Clone, Debug)]
pub struct SketchState {
    /// Sketch label.
    pub name: &'static str,
    /// The symbolic program.
    pub program: Program,
    /// The 82 feature formulas over this sketch's schedule variables.
    pub features: FeatureSet,
    /// Tape-compiled feature evaluator (hot path of candidate scoring).
    pub compiled: felix_expr::CompiledExprs,
}

impl SketchState {
    /// Raw feature values of a concrete schedule via the compiled tape
    /// (identical to `features.eval`, minus the full-pool walk).
    pub fn eval_features(&self, values: &[f64], scratch: &mut Vec<f64>) -> Vec<f64> {
        self.compiled.eval_into(values, scratch)
    }

    /// [`SketchState::eval_features`] into a caller-owned output buffer
    /// (cleared first); with both buffers reused, scoring loops allocate
    /// nothing per candidate.
    pub fn eval_features_into(
        &self,
        values: &[f64],
        scratch: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        self.compiled.eval_write(values, scratch, out);
    }
}

/// Which proposal algorithm a sketch is currently tuned with — the rungs of
/// the supervisor's degradation ladder. Every sketch starts at
/// [`SketchMode::Gradient`]; the descent supervisor escalates a sketch one
/// rung at a time when its seeds keep failing, and de-escalates
/// [`SketchMode::ClippedGradient`] back to full gradient descent after a
/// clean round. [`SketchMode::Evolutionary`] is sticky: a sketch that
/// reached the bottom rung (panicking or pathological objective, or clipped
/// descent still diverging) stays on the discrete proposer, which cannot
/// diverge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SketchMode {
    /// Full-speed gradient descent (the healthy default).
    #[default]
    Gradient,
    /// Gradient descent with a tight gradient-norm clip (first rung of
    /// degradation; recoverable).
    ClippedGradient,
    /// The evolutionary fallback proposer (final rung; sticky).
    Evolutionary,
}

impl SketchMode {
    /// Stable wire label (persisted in health records and checkpoints).
    pub fn label(self) -> &'static str {
        match self {
            SketchMode::Gradient => "gd",
            SketchMode::ClippedGradient => "gd-clipped",
            SketchMode::Evolutionary => "evo",
        }
    }

    /// Parses a [`Self::label`] string.
    pub fn from_label(label: &str) -> Option<SketchMode> {
        match label {
            "gd" => Some(SketchMode::Gradient),
            "gd-clipped" => Some(SketchMode::ClippedGradient),
            "evo" => Some(SketchMode::Evolutionary),
            _ => None,
        }
    }

    /// The next rung down the degradation ladder.
    pub fn escalated(self) -> SketchMode {
        match self {
            SketchMode::Gradient => SketchMode::ClippedGradient,
            SketchMode::ClippedGradient | SketchMode::Evolutionary => SketchMode::Evolutionary,
        }
    }

    /// Whether this mode still runs gradient descent.
    pub fn uses_gradient(self) -> bool {
        self != SketchMode::Evolutionary
    }
}

/// What the descent supervisor observed during one `propose` call: numeric
/// failure counters plus the per-sketch escalation/recovery decisions. A
/// clean report is all-zero/empty — the invariant behind the healthy-run
/// bit-parity guarantee.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthReport {
    /// NaN/Inf/overflow events (objective, gradient, or feature outputs).
    pub nonfinite_events: usize,
    /// Monotone-divergence events over the supervisor's sliding window.
    pub divergence_events: usize,
    /// Seeds restarted from their dedicated RNG substreams.
    pub seed_restarts: usize,
    /// Gradient-norm clips applied.
    pub grad_clips: usize,
    /// Worker panics caught (each poisons one sketch, not the process).
    pub panics_caught: usize,
    /// Wall-clock descent overrun charged to the tuning clock (seconds).
    pub deadline_overrun_s: f64,
    /// Sketches whose every seed exhausted its restart budget this round
    /// (escalated one rung).
    pub exhausted_sketches: Vec<usize>,
    /// Sketches whose objective panicked this round (escalated straight to
    /// [`SketchMode::Evolutionary`]).
    pub poisoned_sketches: Vec<usize>,
    /// Sketches whose tape compiled to a pathological (non-finite at the
    /// probe point) objective (escalated straight to
    /// [`SketchMode::Evolutionary`]).
    pub pathological_sketches: Vec<usize>,
    /// Clipped-mode sketches that completed a clean descent this round
    /// (de-escalated back to [`SketchMode::Gradient`]).
    pub recovered_sketches: Vec<usize>,
}

impl HealthReport {
    /// True when nothing noteworthy happened — no counters, no
    /// escalations, no recoveries.
    pub fn is_clean(&self) -> bool {
        self.nonfinite_events == 0
            && self.divergence_events == 0
            && self.seed_restarts == 0
            && self.grad_clips == 0
            && self.panics_caught == 0
            && self.deadline_overrun_s == 0.0
            && self.exhausted_sketches.is_empty()
            && self.poisoned_sketches.is_empty()
            && self.pathological_sketches.is_empty()
            && self.recovered_sketches.is_empty()
    }

    /// Sketches this report degrades (exhausted ∪ poisoned ∪ pathological,
    /// deduplicated).
    pub fn degraded_sketches(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self
            .exhausted_sketches
            .iter()
            .chain(&self.poisoned_sketches)
            .chain(&self.pathological_sketches)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Folds another report into this one (counters add, sketch lists
    /// union).
    pub fn merge(&mut self, other: &HealthReport) {
        self.nonfinite_events += other.nonfinite_events;
        self.divergence_events += other.divergence_events;
        self.seed_restarts += other.seed_restarts;
        self.grad_clips += other.grad_clips;
        self.panics_caught += other.panics_caught;
        self.deadline_overrun_s += other.deadline_overrun_s;
        for (dst, src) in [
            (&mut self.exhausted_sketches, &other.exhausted_sketches),
            (&mut self.poisoned_sketches, &other.poisoned_sketches),
            (&mut self.pathological_sketches, &other.pathological_sketches),
            (&mut self.recovered_sketches, &other.recovered_sketches),
        ] {
            dst.extend(src.iter().copied());
            dst.sort_unstable();
            dst.dedup();
        }
    }
}

/// Search state of one tuning task (fused subgraph).
#[derive(Clone, Debug)]
pub struct SearchTask {
    /// Display name.
    pub name: String,
    /// Stable workload identity ([`felix_graph::Subgraph::workload_key`]):
    /// unique per deduplicated subgraph, unlike `name`, and therefore the
    /// key under which this task's measurements are persisted and matched
    /// on replay.
    pub workload_key: String,
    /// Occurrences in the network.
    pub weight: usize,
    /// The generated sketches.
    pub sketches: Vec<SketchState>,
    /// Best measured latency so far (ms), `INFINITY` before any measurement.
    pub best_latency_ms: f64,
    /// Best (sketch, values) found.
    pub best_schedule: Option<(usize, Vec<f64>)>,
    /// All measurements `(sketch, values, latency_ms)`.
    pub measured: Vec<(usize, Vec<f64>, f64)>,
    /// Training samples of every measurement (replay buffer for the
    /// cost-model updates). Failed measurements never enter this buffer.
    pub samples: Vec<Sample>,
    /// Candidates whose measurement failed after exhausting retries:
    /// `(sketch, values, fault kind)`. They count as "measured" for dedup
    /// so the proposer never re-spends budget on them.
    pub failed: Vec<(usize, Vec<f64>, FaultKind)>,
    /// Failure/retry counters, consumed by the task scheduler to
    /// deprioritize tasks burning their budget on faults.
    pub fault_stats: TaskFaultStats,
    /// Dedup set of measured candidates.
    measured_keys: HashSet<String>,
    /// Consecutive failed candidates per sketch (reset by any success).
    fail_streak: Vec<usize>,
    /// Sketches quarantined after persistent failures; proposers skip them
    /// until a success on the sketch lifts the quarantine.
    quarantined: Vec<bool>,
    /// Per-sketch degradation-ladder rung, updated by
    /// [`SearchTask::apply_health`] (all-[`SketchMode::Gradient`] until the
    /// supervisor reports trouble).
    sketch_modes: Vec<SketchMode>,
    /// Cached warm-start hints `(sketch, values)` — schedules transferred
    /// from a structurally identical task in a schedule store. Proposers
    /// may seed descent from them; they are never measured directly and an
    /// empty list leaves every proposer byte-identical to a hint-free run.
    pub warm_hints: Vec<(usize, Vec<f64>)>,
    /// Rounds spent on this task.
    pub rounds: usize,
}

/// Failure and retry counters of one task's measurement history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskFaultStats {
    /// Candidates lost to compile failures.
    pub build_errors: usize,
    /// Candidates lost to watchdog timeouts (after retries).
    pub timeouts: usize,
    /// Candidates lost to device/RPC errors (after retries).
    pub device_errors: usize,
    /// Total retry attempts spent (including ones that later succeeded).
    pub retries: usize,
}

impl TaskFaultStats {
    /// Total candidates lost to faults.
    pub fn failures(&self) -> usize {
        self.build_errors + self.timeouts + self.device_errors
    }

    /// Measurement-budget attempts wasted on faults (failures + retries).
    pub fn wasted_attempts(&self) -> usize {
        self.failures() + self.retries
    }
}

impl SearchTask {
    /// Builds the search state for a fused subgraph on a device.
    pub fn from_task(task: &Task, sim: &Simulator) -> Self {
        let hw = hardware_params(&sim.device);
        let p0 = lower_subgraph(&task.subgraph);
        let sketches: Vec<SketchState> = generate_sketches(&p0, &hw)
            .into_iter()
            .map(|sk| {
                let mut program = sk.program;
                let features = extract_features(&mut program);
                let compiled =
                    felix_expr::CompiledExprs::compile(&program.pool, &features.exprs);
                SketchState { name: sk.name, program, features, compiled }
            })
            .collect();
        let n_sketches = sketches.len();
        SearchTask {
            name: task.subgraph.name(),
            workload_key: task.subgraph.workload_key(),
            weight: task.weight,
            sketches,
            best_latency_ms: f64::INFINITY,
            best_schedule: None,
            measured: Vec::new(),
            samples: Vec::new(),
            failed: Vec::new(),
            fault_stats: TaskFaultStats::default(),
            measured_keys: HashSet::new(),
            fail_streak: vec![0; n_sketches],
            quarantined: vec![false; n_sketches],
            sketch_modes: vec![SketchMode::Gradient; n_sketches],
            warm_hints: Vec::new(),
            rounds: 0,
        }
    }

    /// Consecutive candidate failures on one sketch that trigger
    /// quarantine.
    pub const QUARANTINE_STREAK: usize = 6;

    fn key(sketch: usize, vals: &[f64]) -> String {
        format!("{sketch}:{vals:?}")
    }

    /// Whether a candidate has already been measured.
    pub fn already_measured(&self, sketch: usize, vals: &[f64]) -> bool {
        self.measured_keys.contains(&Self::key(sketch, vals))
    }

    /// Records a measurement, updating the incumbent. A success also clears
    /// the sketch's failure streak and lifts any quarantine (the fault was
    /// evidently transient).
    pub fn record(&mut self, sketch: usize, vals: Vec<f64>, latency_ms: f64) {
        self.measured_keys.insert(Self::key(sketch, &vals));
        if latency_ms < self.best_latency_ms {
            self.best_latency_ms = latency_ms;
            self.best_schedule = Some((sketch, vals.clone()));
        }
        if let Some(streak) = self.fail_streak.get_mut(sketch) {
            *streak = 0;
        }
        if let Some(q) = self.quarantined.get_mut(sketch) {
            *q = false;
        }
        self.measured.push((sketch, vals, latency_ms));
    }

    /// Records a candidate whose measurement failed after exhausting its
    /// retry budget. The candidate joins the dedup set (never re-proposed),
    /// the per-kind counters advance, and a sketch whose candidates fail
    /// [`Self::QUARANTINE_STREAK`] times in a row is quarantined.
    pub fn record_failure(&mut self, sketch: usize, vals: Vec<f64>, kind: FaultKind) {
        self.measured_keys.insert(Self::key(sketch, &vals));
        match kind {
            FaultKind::BuildError => self.fault_stats.build_errors += 1,
            FaultKind::Timeout => self.fault_stats.timeouts += 1,
            FaultKind::DeviceError => self.fault_stats.device_errors += 1,
        }
        if let Some(streak) = self.fail_streak.get_mut(sketch) {
            *streak += 1;
            if *streak >= Self::QUARANTINE_STREAK {
                self.quarantined[sketch] = true;
            }
        }
        self.failed.push((sketch, vals, kind));
    }

    /// Whether a sketch is currently quarantined.
    pub fn is_quarantined(&self, sketch: usize) -> bool {
        self.quarantined.get(sketch).copied().unwrap_or(false)
    }

    /// Indices of sketches proposers should draw from: every
    /// non-quarantined sketch, or all sketches when everything is
    /// quarantined (so a fully-faulted task still probes for recovery).
    pub fn active_sketches(&self) -> Vec<usize> {
        let active: Vec<usize> = (0..self.sketches.len())
            .filter(|&i| !self.quarantined[i])
            .collect();
        if active.is_empty() {
            (0..self.sketches.len()).collect()
        } else {
            active
        }
    }

    /// The degradation-ladder rung of one sketch.
    pub fn sketch_mode(&self, sketch: usize) -> SketchMode {
        self.sketch_modes.get(sketch).copied().unwrap_or_default()
    }

    /// Per-sketch degradation-ladder rungs.
    pub fn sketch_modes(&self) -> &[SketchMode] {
        &self.sketch_modes
    }

    /// Overwrites the per-sketch modes — the replay path, where a persisted
    /// health record (not a fresh supervisor decision) is authoritative.
    ///
    /// # Panics
    ///
    /// Panics if `modes` does not have one entry per sketch.
    pub fn set_sketch_modes(&mut self, modes: &[SketchMode]) {
        assert_eq!(modes.len(), self.sketches.len(), "sketch count changed");
        self.sketch_modes.copy_from_slice(modes);
    }

    /// Applies one round's supervisor decisions to the per-sketch modes:
    /// exhausted sketches step one rung down the degradation ladder,
    /// poisoned (panicking) and pathological sketches jump straight to the
    /// evolutionary fallback, and recovered clipped sketches step back up.
    /// Returns whether any mode changed.
    pub fn apply_health(&mut self, report: &HealthReport) -> bool {
        let mut changed = false;
        let mut set = |modes: &mut Vec<SketchMode>, sk: usize, mode: SketchMode| {
            if let Some(m) = modes.get_mut(sk) {
                if *m != mode {
                    *m = mode;
                    changed = true;
                }
            }
        };
        for &sk in &report.exhausted_sketches {
            let next = self.sketch_mode(sk).escalated();
            set(&mut self.sketch_modes, sk, next);
        }
        for &sk in report
            .poisoned_sketches
            .iter()
            .chain(&report.pathological_sketches)
        {
            set(&mut self.sketch_modes, sk, SketchMode::Evolutionary);
        }
        for &sk in &report.recovered_sketches {
            if self.sketch_mode(sk) == SketchMode::ClippedGradient {
                set(&mut self.sketch_modes, sk, SketchMode::Gradient);
            }
        }
        changed
    }

    /// Captures the complete mutable search state for checkpointing.
    ///
    /// `fail_streak` and `quarantined` are copied explicitly rather than
    /// replayed: the interleaving of `measured` and `failed` (which a
    /// success-resets-the-streak replay would need) is not recoverable from
    /// the two separate vectors.
    pub fn snapshot(&self) -> TaskSnapshot {
        TaskSnapshot {
            workload_key: self.workload_key.clone(),
            best_latency_ms: self.best_latency_ms,
            best_schedule: self.best_schedule.clone(),
            measured: self.measured.clone(),
            failed: self.failed.clone(),
            fault_stats: self.fault_stats,
            fail_streak: self.fail_streak.clone(),
            quarantined: self.quarantined.clone(),
            sketch_modes: self.sketch_modes.clone(),
            warm_hints: self.warm_hints.clone(),
            rounds: self.rounds,
        }
    }

    /// Restores a snapshot into a freshly built task (same subgraph and
    /// device, so the same sketches). The dedup set and the replay-buffer
    /// samples are rebuilt deterministically from `measured` — features are
    /// closed-form functions of the schedule values, so re-evaluating them
    /// reproduces every sample bit for bit and they need not be persisted.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's workload key or sketch-shaped vectors do
    /// not match this task (checkpoint from a different network or device).
    pub fn restore(&mut self, snap: TaskSnapshot) {
        assert_eq!(
            snap.workload_key, self.workload_key,
            "checkpoint task mismatch (different network or task order?)"
        );
        assert_eq!(snap.fail_streak.len(), self.sketches.len(), "sketch count changed");
        assert_eq!(snap.quarantined.len(), self.sketches.len(), "sketch count changed");
        assert_eq!(snap.sketch_modes.len(), self.sketches.len(), "sketch count changed");
        self.best_latency_ms = snap.best_latency_ms;
        self.best_schedule = snap.best_schedule;
        self.fault_stats = snap.fault_stats;
        self.fail_streak = snap.fail_streak;
        self.quarantined = snap.quarantined;
        self.sketch_modes = snap.sketch_modes;
        self.warm_hints = snap.warm_hints;
        self.rounds = snap.rounds;
        self.measured_keys = snap
            .measured
            .iter()
            .map(|(sk, vals, _)| Self::key(*sk, vals))
            .chain(snap.failed.iter().map(|(sk, vals, _)| Self::key(*sk, vals)))
            .collect();
        self.samples = snap
            .measured
            .iter()
            .map(|(sk, vals, latency)| {
                let st = &self.sketches[*sk];
                ingest_sample(&st.program, &st.features, vals, *latency)
            })
            .collect();
        self.measured = snap.measured;
        self.failed = snap.failed;
    }
}

/// The complete mutable search state of a [`SearchTask`], detached from the
/// (deterministically rebuildable) sketches — what a checkpoint persists.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSnapshot {
    /// [`SearchTask::workload_key`], verified on restore.
    pub workload_key: String,
    /// Best measured latency (ms).
    pub best_latency_ms: f64,
    /// Best (sketch, values) found.
    pub best_schedule: Option<(usize, Vec<f64>)>,
    /// All successful measurements in order.
    pub measured: Vec<(usize, Vec<f64>, f64)>,
    /// All exhausted-retry failures in order.
    pub failed: Vec<(usize, Vec<f64>, FaultKind)>,
    /// Fault counters.
    pub fault_stats: TaskFaultStats,
    /// Per-sketch consecutive-failure streaks.
    pub fail_streak: Vec<usize>,
    /// Per-sketch quarantine flags.
    pub quarantined: Vec<bool>,
    /// Per-sketch degradation-ladder rungs.
    pub sketch_modes: Vec<SketchMode>,
    /// Cached warm-start hints (schedule-store transfers).
    pub warm_hints: Vec<(usize, Vec<f64>)>,
    /// Rounds spent on the task.
    pub rounds: usize,
}

/// Per-round observability counters of a proposer, drained via
/// [`Proposer::take_stats`]. One entry is recorded per `propose` call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TunerStats {
    /// Gradient-descent steps executed this round (seeds × steps for the
    /// gradient proposer; zero for proposers without a descent phase).
    pub grad_steps: usize,
    /// Wall-clock descent throughput, in steps per second.
    pub steps_per_sec: f64,
    /// Rounded trajectory points examined this round.
    pub candidates: usize,
    /// Fraction of rounded points rejected because a validity constraint
    /// was violated (the penalty terms failed to keep the seed feasible).
    pub penalty_violation_rate: f64,
    /// Fraction of rounded points rejected as duplicates of an earlier
    /// point or of an already-measured schedule (rounding collapsed distinct
    /// relaxed points onto one lattice point).
    pub rounding_rejection_rate: f64,
    /// Sketch objectives built this round (tape-cache misses and stale
    /// rebuilds).
    pub cache_misses: usize,
    /// Worker threads the round ran on (1 = serial).
    pub threads: usize,
    /// Total expression-pool nodes across this round's sketch objectives
    /// (what a full pool sweep would walk per evaluation).
    pub pool_nodes: usize,
    /// Total compiled-tape instructions across this round's sketch
    /// objectives (what the fused forward+reverse passes actually touch).
    pub tape_nodes: usize,
    /// Seconds spent compiling the gradient tapes behind this round's
    /// objectives (paid once at objective build time; later rounds report
    /// the same amortized figure for cached objectives).
    pub tape_compile_s: f64,
    /// Candidates lost to measurement faults this round (after retries).
    pub measure_failures: usize,
    /// Measurement retry attempts spent this round.
    pub measure_retries: usize,
    /// Seeds the descent supervisor restarted this round.
    pub seed_restarts: usize,
    /// Non-finite objective/gradient/feature events this round.
    pub nonfinite_events: usize,
    /// Worker panics caught and quarantined this round.
    pub panics_caught: usize,
    /// Sketches running degraded (below [`SketchMode::Gradient`]) after
    /// this round.
    pub degraded_sketches: usize,
    /// Wall-clock descent overrun charged to the tuning clock this round
    /// (seconds; zero unless the deadline watchdog fired).
    pub deadline_overrun_s: f64,
    /// Sketch objectives served from the tape cache this round — built in
    /// an earlier round or by another task with an identical objective.
    pub tape_cache_hits: usize,
    /// Tape-cache entries evicted as stale (built under a different
    /// sketch-generator fingerprint) while looking up this round's
    /// objectives.
    pub tape_cache_stale: usize,
}

impl TunerStats {
    /// One-line human-readable rendering for bench binaries and logs.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "steps {} ({:.0}/s, {} thr) cand {} viol {:.0}% dup {:.0}% cache {}/{} tape {}/{} nodes ({:.1} ms compile) fail {} retry {}",
            self.grad_steps,
            self.steps_per_sec,
            self.threads,
            self.candidates,
            self.penalty_violation_rate * 100.0,
            self.rounding_rejection_rate * 100.0,
            self.tape_cache_hits,
            self.tape_cache_hits + self.cache_misses,
            self.tape_nodes,
            self.pool_nodes,
            self.tape_compile_s * 1e3,
            self.measure_failures,
            self.measure_retries,
        );
        if self.seed_restarts > 0
            || self.nonfinite_events > 0
            || self.panics_caught > 0
            || self.degraded_sketches > 0
            || self.deadline_overrun_s > 0.0
        {
            line.push_str(&format!(
                " health[restart {} nonfinite {} panic {} degraded {} overrun {:.1}s]",
                self.seed_restarts,
                self.nonfinite_events,
                self.panics_caught,
                self.degraded_sketches,
                self.deadline_overrun_s,
            ));
        }
        if self.tape_cache_stale > 0 {
            line.push_str(&format!(" tape-cache[stale {}]", self.tape_cache_stale));
        }
        line
    }
}

/// A candidate-proposal algorithm: the only part that differs between Ansor
/// (evolutionary) and Felix (gradient descent).
pub trait Proposer {
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Per-round observability counters since the last drain (empty for
    /// proposers that do not record any).
    fn take_stats(&mut self) -> Vec<TunerStats> {
        Vec::new()
    }

    /// Proposes up to `n` unmeasured candidates `(sketch_idx, values)` for
    /// one round, charging its own search time to `clock`.
    fn propose(
        &mut self,
        task: &SearchTask,
        model: &Mlp,
        n: usize,
        clock: &mut TuningClock,
        costs: &ClockCosts,
        rng: &mut StdRng,
    ) -> Vec<(usize, Vec<f64>)>;

    /// Chronological predicted scores of every candidate examined in the
    /// last `propose` call (for the paper's Fig. 8); drained on read.
    fn take_prediction_trace(&mut self) -> Vec<f64> {
        Vec::new()
    }

    /// Drains the supervisor health report of the last `propose` call.
    /// Default: a clean report (proposers without a descent phase cannot
    /// diverge).
    fn take_health(&mut self) -> HealthReport {
        HealthReport::default()
    }

    /// Informs the proposer how the measurement of its last `propose` batch
    /// went, so failure/retry counters can land in the same per-round stats
    /// record as the search counters. Default: ignored.
    fn note_measurement(&mut self, _report: &RoundReport) {}
}

/// One finished measurement (success, or failure after exhausting retries),
/// as delivered to a [`MeasurementSink`] the moment the tuner records it.
#[derive(Clone, Copy, Debug)]
pub struct MeasurementEvent<'a> {
    /// The task's stable workload key ([`SearchTask::workload_key`]).
    pub workload_key: &'a str,
    /// The task's display name.
    pub task_name: &'a str,
    /// Sketch index of the candidate.
    pub sketch: usize,
    /// Sketch label (validates sketch identity on replay).
    pub sketch_name: &'static str,
    /// The concrete schedule-variable assignment.
    pub values: &'a [f64],
    /// Measured latency (ms) or the final fault.
    pub outcome: Result<f64, FaultKind>,
    /// Retry attempts this candidate consumed.
    pub retries: usize,
    /// Simulated tuning-clock time when the measurement completed.
    pub time_s: f64,
}

/// One round's supervisor health report the moment its degradation
/// decisions were applied to the task, as delivered to a
/// [`MeasurementSink`].
#[derive(Clone, Debug)]
pub struct HealthEvent<'a> {
    /// The task's stable workload key ([`SearchTask::workload_key`]).
    pub workload_key: &'a str,
    /// The task's display name.
    pub task_name: &'a str,
    /// Tuning round (0-based) whose descent produced the report.
    pub round: usize,
    /// The supervisor's counters and escalation/recovery decisions.
    pub report: &'a HealthReport,
    /// Per-sketch modes *after* applying the report — the authoritative
    /// state a replay restores.
    pub modes: &'a [SketchMode],
    /// Simulated tuning-clock time when the report was recorded.
    pub time_s: f64,
}

/// A consumer of measurement events — the hook a durable record log (or any
/// other observer) attaches to the tuning loop. Sinks only *observe*: they
/// must not touch the RNG or the clock, so a run with a sink attached stays
/// bit-identical to one without.
pub trait MeasurementSink {
    /// Called once per finished measurement, in execution order.
    fn record(&mut self, event: &MeasurementEvent<'_>);

    /// Called once per round whose health report is non-clean or changed a
    /// sketch mode (fault-free rounds emit nothing, keeping their logs
    /// byte-identical to pre-supervisor ones). Default: ignored.
    fn record_health(&mut self, _event: &HealthEvent<'_>) {}
}

/// Retry-with-backoff policy for failed measurements, charged against the
/// tuning clock (a retried candidate costs real tuning time, exactly as a
/// flaky device does in AutoTVM/MetaSchedule).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeasurePolicy {
    /// Maximum retries per candidate after the first attempt (build errors
    /// are never retried — rebuilding the same kernel cannot succeed).
    pub max_retries: usize,
    /// Backoff before the first retry, in simulated seconds.
    pub backoff_s: f64,
    /// Multiplier applied to the backoff after each retry (exponential
    /// backoff).
    pub backoff_mult: f64,
}

impl Default for MeasurePolicy {
    fn default() -> Self {
        MeasurePolicy { max_retries: 2, backoff_s: 0.5, backoff_mult: 2.0 }
    }
}

impl MeasurePolicy {
    /// Backoff before retry number `retry` (0-based), in seconds.
    pub fn backoff_for(&self, retry: usize) -> f64 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
        {
            self.backoff_s * self.backoff_mult.powi(retry as i32)
        }
    }
}

/// What one call of [`tune_task_round`] did with its measurement budget,
/// plus the descent supervisor's health report for the round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundReport {
    /// Candidates measured successfully.
    pub measured: usize,
    /// Candidates lost to faults after exhausting retries.
    pub failed: usize,
    /// Retry attempts spent (including retries that eventually succeeded).
    pub retries: usize,
    /// The proposer's supervisor report (clean for proposers without a
    /// descent phase and for healthy rounds).
    pub health: HealthReport,
}

/// Options of the round-based tuner.
#[derive(Clone, Copy, Debug)]
pub struct TuneOptions {
    /// Hardware measurements per round (Felix 16, Ansor 64; §5).
    pub measurements_per_round: usize,
    /// Whether to fine-tune the cost model on each round's measurements.
    pub update_model: bool,
    /// Fine-tuning epochs.
    pub fine_tune_epochs: usize,
    /// Fine-tuning learning rate.
    pub fine_tune_lr: f32,
    /// Fault injection applied to measurements (zero by default; with the
    /// zero plan the whole pipeline is byte-identical to one without the
    /// fault layer).
    pub fault_plan: FaultPlan,
    /// Retry/backoff policy for failed measurements.
    pub measure_policy: MeasurePolicy,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            measurements_per_round: 16,
            update_model: true,
            fine_tune_epochs: 5,
            fine_tune_lr: 4e-4,
            fault_plan: FaultPlan::none(),
            measure_policy: MeasurePolicy::default(),
        }
    }
}

/// Runs one tuning round on a task: propose → measure (with retry/backoff
/// on transient faults) → update model (Algorithm 1). Returns what happened
/// to the measurement budget.
#[allow(clippy::too_many_arguments)]
pub fn tune_task_round(
    task: &mut SearchTask,
    proposer: &mut dyn Proposer,
    model: &mut Mlp,
    sim: &Simulator,
    clock: &mut TuningClock,
    costs: &ClockCosts,
    opts: &TuneOptions,
    rng: &mut StdRng,
) -> RoundReport {
    tune_task_round_with_sink(task, proposer, model, sim, clock, costs, opts, rng, None)
}

/// [`tune_task_round`] with an optional [`MeasurementSink`] receiving every
/// finished measurement. With `None` (or a sink attached) the search state,
/// RNG stream, and clock evolve identically — the sink is a pure observer.
#[allow(clippy::too_many_arguments)]
pub fn tune_task_round_with_sink(
    task: &mut SearchTask,
    proposer: &mut dyn Proposer,
    model: &mut Mlp,
    sim: &Simulator,
    clock: &mut TuningClock,
    costs: &ClockCosts,
    opts: &TuneOptions,
    rng: &mut StdRng,
    mut sink: Option<&mut (dyn MeasurementSink + '_)>,
) -> RoundReport {
    let candidates = proposer.propose(task, model, opts.measurements_per_round, clock, costs, rng);
    // Apply the supervisor's escalation/recovery decisions before anything
    // else consumes the round: degradation takes effect from the next
    // propose call, and the decision point is what the record log persists
    // (so a replay re-applies the exact same ladder moves).
    let health = proposer.take_health();
    let modes_changed = task.apply_health(&health);
    if modes_changed || !health.is_clean() {
        if let Some(s) = sink.as_deref_mut() {
            s.record_health(&HealthEvent {
                workload_key: &task.workload_key,
                task_name: &task.name,
                round: task.rounds,
                report: &health,
                modes: task.sketch_modes(),
                time_s: clock.now_s(),
            });
        }
    }
    let mut new_samples = Vec::new();
    let mut report = RoundReport { health, ..RoundReport::default() };
    for (sketch, vals) in candidates {
        if task.already_measured(sketch, &vals) {
            continue;
        }
        let st = &task.sketches[sketch];
        if !st.program.constraints_ok(&vals, 1e-9) {
            continue;
        }
        // Attempt loop: transient faults (timeouts, device errors) are
        // retried up to the policy bound with exponential backoff; build
        // errors are deterministic and fail immediately. Every attempt —
        // successful, failed, or retried — is charged to the tuning clock.
        // With a zero-rate plan this loop runs exactly one iteration and
        // consumes the measurement RNG and clock identically to the
        // fault-free pipeline.
        let key = candidate_key(sketch, &vals);
        let mut attempt = 0u32;
        let fate = loop {
            let outcome = sim.measure_outcome(
                &st.program,
                &st.features,
                &vals,
                rng,
                &opts.fault_plan,
                key,
                attempt,
            );
            match outcome {
                MeasureOutcome::Ok(latency) => {
                    clock.charge_measurement(sim.device.rpc, costs);
                    break Ok(latency);
                }
                MeasureOutcome::Fail(kind) => {
                    clock.charge_failed_measurement(kind, sim.device.rpc, costs);
                    let retries_spent = attempt as usize;
                    if kind.retryable() && retries_spent < opts.measure_policy.max_retries {
                        clock.advance(opts.measure_policy.backoff_for(retries_spent));
                        report.retries += 1;
                        task.fault_stats.retries += 1;
                        attempt += 1;
                        continue;
                    }
                    break Err(kind);
                }
            }
        };
        if let Some(s) = sink.as_deref_mut() {
            s.record(&MeasurementEvent {
                workload_key: &task.workload_key,
                task_name: &task.name,
                sketch,
                sketch_name: st.name,
                values: &vals,
                outcome: fate,
                retries: attempt as usize,
                time_s: clock.now_s(),
            });
        }
        match fate {
            Ok(latency) => {
                new_samples.push(ingest_sample(&st.program, &st.features, &vals, latency));
                task.record(sketch, vals, latency);
                report.measured += 1;
            }
            Err(kind) => {
                task.record_failure(sketch, vals, kind);
                report.failed += 1;
            }
        }
    }
    if opts.update_model && !new_samples.is_empty() {
        let n_new = new_samples.len();
        task.samples.extend(new_samples);
        // Fine-tune on a replay buffer (new measurements plus a window of
        // history) so repeated tiny updates don't drift the model, with the
        // epoch count scaled to the amount of new data so tools with
        // different measurements-per-round apply the same total update
        // strength per measurement.
        let window = 192usize;
        let start = task.samples.len().saturating_sub(window);
        let epochs = ((opts.fine_tune_epochs * n_new).div_ceil(64)).max(1);
        fine_tune(model, &task.samples[start..], epochs, opts.fine_tune_lr);
        clock.charge_model_update(costs);
    }
    task.rounds += 1;
    proposer.note_measurement(&report);
    report
}

/// A point on a tuning curve: simulated seconds vs. network latency in ms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurvePoint {
    /// Simulated tuning time in seconds.
    pub time_s: f64,
    /// End-to-end network latency estimate at that time (ms).
    pub latency_ms: f64,
}

/// Result of tuning a whole network.
#[derive(Clone, Debug)]
pub struct NetworkTuneResult {
    /// Best-latency-so-far curve, one point per round.
    pub curve: Vec<CurvePoint>,
    /// Final per-task best latencies (ms).
    pub task_latencies: Vec<f64>,
    /// Final end-to-end latency (ms).
    pub final_latency_ms: f64,
    /// Per-round measurement reports, in execution order.
    pub round_reports: Vec<RoundReport>,
    /// Tasks that ended the run without a single successful measurement
    /// (their best latency is still infinite, so `final_latency_ms` is too).
    pub unmeasured_tasks: usize,
}

/// End-to-end latency = Σ weight × best task latency (+ launch gaps folded
/// into the per-kernel launch overhead already).
pub fn network_latency(tasks: &[SearchTask]) -> f64 {
    tasks
        .iter()
        .map(|t| t.weight as f64 * t.best_latency_ms)
        .sum()
}

/// Rounds of bounded immediate retry granted to a task that has never
/// produced a successful measurement, before [`select_next_task`] demotes it
/// below every healthy task.
pub const SEED_RETRY_ROUNDS: usize = 3;

/// One task's marginal-benefit score in the gradient-allocation scheduler:
/// its weighted latency headroom, decayed by rounds already spent and by
/// the fraction of measurement attempts it wastes on faults. Tasks still
/// without any measurement score below every healthy task (healthy scores
/// are positive), ordered by fewest rounds first.
///
/// This is the exact scoring expression [`select_next_task`] applies (same
/// floating-point operations, same order), extracted so higher layers —
/// the serving tier's cross-tenant job ranking — can rank *groups* of
/// tasks by the same yardstick the in-process scheduler uses.
pub fn task_priority(t: &SearchTask) -> f64 {
    if t.best_latency_ms.is_infinite() {
        -(t.rounds as f64)
    } else {
        let wasted = t.fault_stats.wasted_attempts() as f64;
        let fault_penalty = 1.0 + wasted / (t.measured.len() as f64 + 1.0);
        t.weight as f64 * t.best_latency_ms / (t.rounds as f64).sqrt() / fault_penalty
    }
}

/// The marginal benefit of granting one more round to a whole *job* (a set
/// of tasks tuned together): infinite while any task is still unseeded or
/// inside its bounded [`SEED_RETRY_ROUNDS`] retries — mirroring the
/// seeding precedence of [`select_next_task`] — and otherwise the best
/// [`task_priority`] across the job's tasks (the next round goes to the
/// highest-priority task, so that task's score *is* the round's payoff).
pub fn job_priority(tasks: &[SearchTask]) -> f64 {
    if tasks.iter().any(|t| {
        t.rounds == 0 || (t.best_latency_ms.is_infinite() && t.rounds < SEED_RETRY_ROUNDS)
    }) {
        return f64::INFINITY;
    }
    tasks.iter().map(task_priority).fold(f64::NEG_INFINITY, f64::max)
}

/// Ansor's task scheduler (simplified gradient allocation): after seeding
/// every task once, repeatedly picks the task with the largest weighted
/// latency headroom.
pub fn select_next_task(tasks: &[SearchTask]) -> usize {
    // First: any never-tuned task, in order.
    if let Some(i) = tasks.iter().position(|t| t.rounds == 0) {
        return i;
    }
    // A task whose incumbent is still infinite gets a few bounded retry
    // rounds (its first round may have lost every candidate to faults), but
    // only a few: an infinite `best_latency_ms` would otherwise make its
    // headroom score infinite and the scheduler would pick it forever,
    // starving every healthy task.
    if let Some(i) = tasks
        .iter()
        .position(|t| t.best_latency_ms.is_infinite() && t.rounds < SEED_RETRY_ROUNDS)
    {
        return i;
    }
    // Then: the task with the biggest expected payoff — see
    // [`task_priority`]. A fault-free task divides by exactly 1.0, keeping
    // the schedule byte-identical to the fault-unaware scheduler.
    let mut best = 0;
    let mut best_score = f64::NEG_INFINITY;
    for (i, t) in tasks.iter().enumerate() {
        let score = task_priority(t);
        if score > best_score {
            best_score = score;
            best = i;
        }
    }
    best
}

/// Tunes a whole network for `n_rounds` rounds (Algorithm 2), producing the
/// time-vs-latency curve.
#[allow(clippy::too_many_arguments)]
pub fn tune_network(
    tasks: &mut [SearchTask],
    proposer: &mut dyn Proposer,
    model: &mut Mlp,
    sim: &Simulator,
    clock: &mut TuningClock,
    costs: &ClockCosts,
    opts: &TuneOptions,
    n_rounds: usize,
    rng: &mut StdRng,
) -> NetworkTuneResult {
    tune_network_with_sink(tasks, proposer, model, sim, clock, costs, opts, n_rounds, rng, None)
}

/// [`tune_network`] with an optional [`MeasurementSink`] observing every
/// measurement across all tasks, in execution order.
#[allow(clippy::too_many_arguments)]
pub fn tune_network_with_sink(
    tasks: &mut [SearchTask],
    proposer: &mut dyn Proposer,
    model: &mut Mlp,
    sim: &Simulator,
    clock: &mut TuningClock,
    costs: &ClockCosts,
    opts: &TuneOptions,
    n_rounds: usize,
    rng: &mut StdRng,
    mut sink: Option<&mut (dyn MeasurementSink + '_)>,
) -> NetworkTuneResult {
    let mut curve = Vec::with_capacity(n_rounds);
    let mut round_reports = Vec::with_capacity(n_rounds);
    for _ in 0..n_rounds {
        let next = select_next_task(tasks);
        let report = tune_task_round_with_sink(
            &mut tasks[next],
            proposer,
            model,
            sim,
            clock,
            costs,
            opts,
            rng,
            sink.as_deref_mut(),
        );
        round_reports.push(report);
        if tasks.iter().all(|t| t.best_latency_ms.is_finite()) {
            curve.push(CurvePoint { time_s: clock.now_s(), latency_ms: network_latency(tasks) });
        }
    }
    let task_latencies = tasks.iter().map(|t| t.best_latency_ms).collect();
    NetworkTuneResult {
        final_latency_ms: network_latency(tasks),
        curve,
        task_latencies,
        round_reports,
        unmeasured_tasks: tasks.iter().filter(|t| t.best_latency_ms.is_infinite()).count(),
    }
}

/// A trivial proposer measuring random valid schedules (sanity baseline and
/// ablation).
#[derive(Debug, Default)]
pub struct RandomProposer;

impl Proposer for RandomProposer {
    fn name(&self) -> &'static str {
        "random"
    }

    fn propose(
        &mut self,
        task: &SearchTask,
        _model: &Mlp,
        n: usize,
        _clock: &mut TuningClock,
        _costs: &ClockCosts,
        rng: &mut StdRng,
    ) -> Vec<(usize, Vec<f64>)> {
        // Draw sketches from the non-quarantined set. With nothing
        // quarantined `active` is the identity list, so the RNG stream is
        // exactly the fault-free one.
        let active = task.active_sketches();
        (0..n)
            .map(|_| {
                let sk = active[rng.gen_range(0..active.len())];
                let vals =
                    felix_cost::random_schedule(&task.sketches[sk].program, rng, 64);
                (sk, vals)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_graph::{Op, Subgraph};
    use felix_sim::DeviceConfig;
    use rand::SeedableRng;

    fn dense_task() -> Task {
        Task {
            subgraph: Subgraph { ops: vec![Op::Dense { m: 256, k: 512, n: 512 }] },
            weight: 2,
        }
    }

    fn quick_model() -> Mlp {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = felix_cost::generate_dataset(&DeviceConfig::a5000(), 6, 12, 3);
        let mut mlp = Mlp::new(&mut rng);
        felix_cost::pretrain(
            &mut mlp,
            &ds.samples,
            &felix_cost::TrainConfig { epochs: 10, batch_size: 64, lr: 1e-3, seed: 0, ..Default::default() },
        );
        mlp
    }

    #[test]
    fn search_task_builds_sketches() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let st = SearchTask::from_task(&dense_task(), &sim);
        assert_eq!(st.sketches.len(), 2);
        assert!(st.best_latency_ms.is_infinite());
    }

    #[test]
    fn random_rounds_improve_best() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut task = SearchTask::from_task(&dense_task(), &sim);
        let mut model = quick_model();
        let mut clock = TuningClock::new();
        let costs = ClockCosts::default();
        let opts = TuneOptions { measurements_per_round: 8, update_model: false, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(1);
        let mut proposer = RandomProposer;
        tune_task_round(&mut task, &mut proposer, &mut model, &sim, &mut clock, &costs, &opts, &mut rng);
        let after_one = task.best_latency_ms;
        assert!(after_one.is_finite());
        for _ in 0..5 {
            tune_task_round(&mut task, &mut proposer, &mut model, &sim, &mut clock, &costs, &opts, &mut rng);
        }
        assert!(task.best_latency_ms <= after_one);
        assert!(clock.now_s() > 0.0);
        assert!(task.measured.len() > 8);
    }

    #[test]
    fn record_tracks_incumbent_and_dedup() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut task = SearchTask::from_task(&dense_task(), &sim);
        task.record(0, vec![1.0, 2.0], 5.0);
        task.record(0, vec![1.0, 3.0], 3.0);
        task.record(0, vec![1.0, 4.0], 9.0);
        assert_eq!(task.best_latency_ms, 3.0);
        assert!(task.already_measured(0, &[1.0, 2.0]));
        assert!(!task.already_measured(1, &[1.0, 2.0]));
    }

    #[test]
    fn scheduler_seeds_all_tasks_first() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut tasks = vec![
            SearchTask::from_task(&dense_task(), &sim),
            SearchTask::from_task(&dense_task(), &sim),
        ];
        assert_eq!(select_next_task(&tasks), 0);
        tasks[0].rounds = 1;
        tasks[0].best_latency_ms = 1.0;
        assert_eq!(select_next_task(&tasks), 1);
        tasks[1].rounds = 1;
        tasks[1].best_latency_ms = 50.0;
        // Both seeded: pick the one with more headroom (task 1).
        assert_eq!(select_next_task(&tasks), 1);
    }

    #[test]
    fn network_latency_weights_tasks() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut tasks = vec![SearchTask::from_task(&dense_task(), &sim)];
        tasks[0].best_latency_ms = 2.0;
        assert_eq!(network_latency(&tasks), 4.0); // weight 2
    }

    #[test]
    fn scheduler_does_not_starve_on_persistent_faults() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut tasks = vec![
            SearchTask::from_task(&dense_task(), &sim),
            SearchTask::from_task(&dense_task(), &sim),
        ];
        // Task 0 was seeded but lost every candidate to faults: its
        // incumbent is still infinite. Task 1 is healthy.
        tasks[0].rounds = 1;
        tasks[0].fault_stats.build_errors = 16;
        tasks[1].rounds = 1;
        tasks[1].best_latency_ms = 5.0;
        let mut picks = [0usize; 2];
        for _ in 0..10 {
            let i = select_next_task(&tasks);
            picks[i] += 1;
            tasks[i].rounds += 1;
        }
        // An infinite incumbent must not win the headroom score forever:
        // the failing task gets its bounded retries, the healthy task gets
        // every remaining round.
        assert!(picks[1] > 0, "healthy task starved: picks {picks:?}");
        assert!(
            picks[0] <= SEED_RETRY_ROUNDS,
            "failing task must be retry-bounded: picks {picks:?}"
        );
    }

    #[test]
    fn scheduler_round_robins_when_every_task_is_failing() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut tasks = vec![
            SearchTask::from_task(&dense_task(), &sim),
            SearchTask::from_task(&dense_task(), &sim),
        ];
        tasks[0].rounds = SEED_RETRY_ROUNDS;
        tasks[1].rounds = SEED_RETRY_ROUNDS;
        for _ in 0..6 {
            let i = select_next_task(&tasks);
            tasks[i].rounds += 1;
        }
        // Fewest-rounds-first keeps all-failing tasks within one round of
        // each other instead of hammering one.
        assert_eq!(tasks[0].rounds, tasks[1].rounds);
    }

    #[test]
    fn sink_observes_measurements_without_perturbing_the_search() {
        #[derive(Default)]
        struct Capture(Vec<(String, usize, Result<f64, FaultKind>, f64)>);
        impl MeasurementSink for Capture {
            fn record(&mut self, event: &MeasurementEvent<'_>) {
                self.0.push((
                    event.workload_key.to_string(),
                    event.sketch,
                    event.outcome,
                    event.time_s,
                ));
            }
        }

        let sim = Simulator::new(DeviceConfig::a5000());
        let mut model = quick_model();
        let mut clock = TuningClock::new();
        let costs = ClockCosts::default();
        let opts = TuneOptions { measurements_per_round: 6, update_model: false, ..Default::default() };

        let mut with_sink = SearchTask::from_task(&dense_task(), &sim);
        let mut capture = Capture::default();
        let mut rng = StdRng::seed_from_u64(3);
        let report = tune_task_round_with_sink(
            &mut with_sink, &mut RandomProposer, &mut model, &sim, &mut clock, &costs,
            &opts, &mut rng, Some(&mut capture),
        );
        assert_eq!(capture.0.len(), report.measured + report.failed);
        assert!(capture.0.iter().all(|(wk, _, _, _)| wk == &with_sink.workload_key));
        // Events arrive in measurement order with nondecreasing clock times.
        assert!(capture.0.windows(2).all(|w| w[0].3 <= w[1].3));

        // The identical run without a sink produces the identical state.
        let mut without = SearchTask::from_task(&dense_task(), &sim);
        let mut clock2 = TuningClock::new();
        let mut rng2 = StdRng::seed_from_u64(3);
        tune_task_round(
            &mut without, &mut RandomProposer, &mut model, &sim, &mut clock2, &costs,
            &opts, &mut rng2,
        );
        assert_eq!(without.measured, with_sink.measured);
        assert_eq!(without.best_latency_ms.to_bits(), with_sink.best_latency_ms.to_bits());
        assert_eq!(clock2.now_s().to_bits(), clock.now_s().to_bits());
    }

    #[test]
    fn sketch_mode_labels_round_trip() {
        for mode in [SketchMode::Gradient, SketchMode::ClippedGradient, SketchMode::Evolutionary] {
            assert_eq!(SketchMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(SketchMode::from_label("warp-drive"), None);
    }

    #[test]
    fn apply_health_walks_the_degradation_ladder() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut task = SearchTask::from_task(&dense_task(), &sim);
        assert!(task.sketch_modes().iter().all(|&m| m == SketchMode::Gradient));

        // Clean report: no change.
        assert!(!task.apply_health(&HealthReport::default()));

        // Exhausted restart budget: one rung down (GD -> clipped GD).
        let exhausted = HealthReport { exhausted_sketches: vec![0], ..Default::default() };
        assert!(task.apply_health(&exhausted));
        assert_eq!(task.sketch_mode(0), SketchMode::ClippedGradient);
        assert_eq!(task.sketch_mode(1), SketchMode::Gradient);

        // Exhausted again while clipped: bottom rung (evolutionary).
        assert!(task.apply_health(&exhausted));
        assert_eq!(task.sketch_mode(0), SketchMode::Evolutionary);

        // A panic jumps straight to evolutionary regardless of rung.
        let poisoned = HealthReport { poisoned_sketches: vec![1], ..Default::default() };
        assert!(task.apply_health(&poisoned));
        assert_eq!(task.sketch_mode(1), SketchMode::Evolutionary);

        // Recovery only lifts the clipped rung; evolutionary is sticky.
        let recovered = HealthReport { recovered_sketches: vec![0, 1], ..Default::default() };
        assert!(!task.apply_health(&recovered));
        assert_eq!(task.sketch_mode(0), SketchMode::Evolutionary);
        assert_eq!(task.sketch_mode(1), SketchMode::Evolutionary);

        // Recovery from clipped mode steps back up to full gradient.
        task.set_sketch_modes(&[SketchMode::ClippedGradient, SketchMode::Evolutionary]);
        assert!(task.apply_health(&HealthReport {
            recovered_sketches: vec![0],
            ..Default::default()
        }));
        assert_eq!(task.sketch_mode(0), SketchMode::Gradient);
    }

    #[test]
    fn health_report_merge_and_cleanliness() {
        let mut a = HealthReport { seed_restarts: 2, exhausted_sketches: vec![1], ..Default::default() };
        let b = HealthReport {
            seed_restarts: 1,
            nonfinite_events: 4,
            exhausted_sketches: vec![0, 1],
            poisoned_sketches: vec![0],
            ..Default::default()
        };
        assert!(HealthReport::default().is_clean());
        assert!(!a.is_clean());
        a.merge(&b);
        assert_eq!(a.seed_restarts, 3);
        assert_eq!(a.nonfinite_events, 4);
        assert_eq!(a.exhausted_sketches, vec![0, 1], "sketch lists union");
        assert_eq!(a.degraded_sketches(), vec![0, 1]);
    }

    #[test]
    fn degraded_sketch_modes_survive_snapshot_restore() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut task = SearchTask::from_task(&dense_task(), &sim);
        task.apply_health(&HealthReport { poisoned_sketches: vec![1], ..Default::default() });
        let snap = task.snapshot();
        let mut fresh = SearchTask::from_task(&dense_task(), &sim);
        fresh.restore(snap);
        assert_eq!(fresh.sketch_modes(), task.sketch_modes());
        assert_eq!(fresh.sketch_mode(1), SketchMode::Evolutionary);
    }

    #[test]
    fn snapshot_restore_round_trips_search_state() {
        let sim = Simulator::new(DeviceConfig::a5000());
        let mut task = SearchTask::from_task(&dense_task(), &sim);
        let mut model = quick_model();
        let mut clock = TuningClock::new();
        let costs = ClockCosts::default();
        let opts = TuneOptions { measurements_per_round: 6, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2 {
            tune_task_round(
                &mut task, &mut RandomProposer, &mut model, &sim, &mut clock, &costs,
                &opts, &mut rng,
            );
        }
        task.record_failure(0, vec![999.0, 999.0], FaultKind::Timeout);

        let snap = task.snapshot();
        let mut fresh = SearchTask::from_task(&dense_task(), &sim);
        fresh.restore(snap);
        assert_eq!(fresh.measured, task.measured);
        assert_eq!(fresh.failed, task.failed);
        assert_eq!(fresh.best_latency_ms.to_bits(), task.best_latency_ms.to_bits());
        assert_eq!(fresh.best_schedule, task.best_schedule);
        assert_eq!(fresh.fault_stats, task.fault_stats);
        assert_eq!(fresh.rounds, task.rounds);
        assert!(fresh.already_measured(0, &[999.0, 999.0]), "dedup set rebuilt");
        // Replay-buffer samples rebuild bit-exactly from the measurements.
        assert_eq!(fresh.samples.len(), task.samples.len());
        for (a, b) in fresh.samples.iter().zip(&task.samples) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(
                a.logfeats.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.logfeats.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
    }
}
