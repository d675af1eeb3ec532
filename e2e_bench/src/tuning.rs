//! The two tuning workloads: quickstart-scale ResNet-50 on the Xavier NX,
//! tuned by Felix's gradient proposer or by Ansor's evolutionary proposer,
//! for a fixed number of rounds through
//! [`felix_ansor::tune_network_with_sink`] — one round per call, the way
//! `Optimizer::optimize_all` runs rounds when it checkpoints.

use crate::report::Accounting;
use crate::trace::{SpanId, Tracer};
use felix::{
    extract_subgraphs, pretrained_cost_model, FelixOptions, GradientProposer, ModelQuality,
};
use felix_ansor::evolution::EvolutionConfig;
use felix_ansor::{
    tune_network_with_sink, EvolutionaryProposer, HealthReport, MeasurementEvent, MeasurementSink,
    Proposer, RoundReport, SearchTask, TuneOptions, TunerStats,
};
use felix_cost::Mlp;
use felix_sim::clock::ClockCosts;
use felix_sim::{DeviceConfig, FaultPlan, Simulator, TuningClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::rc::Rc;
use std::time::Instant;

/// Rounds per tuning session: two per ResNet-50 task, as the quickstart
/// example runs. The scheduler's seeding pass gives every task one round,
/// and the second 27 go to the tasks with the most latency headroom.
pub const ROUNDS: usize = 54;

/// Half-width, in standard deviations of the simulator's measurement
/// noise, of the band in which a reported task latency must agree with its
/// best schedule's noise-free latency. A best latency is one noisy
/// measurement (the lowest of a task's), so it sits within a few standard
/// deviations of the noise-free figure.
pub const NOISE_BAND_SD: f64 = 6.0;

/// Which search algorithm a tuning workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tool {
    /// Felix: gradient descent through the cost model, 16 measurements per
    /// round.
    Felix,
    /// Ansor: evolutionary search (population 1024 × 4 generations), 64
    /// measurements per round.
    Ansor,
}

impl Tool {
    /// Hardware measurements per round.
    pub fn measures(self) -> usize {
        match self {
            Tool::Felix => 16,
            Tool::Ansor => 64,
        }
    }

    /// A fresh proposer, as a new `Optimizer` would hold.
    pub fn proposer(self) -> Box<dyn Proposer> {
        match self {
            Tool::Felix => Box::new(GradientProposer::new(FelixOptions::default())),
            Tool::Ansor => Box::new(EvolutionaryProposer::new(EvolutionConfig {
                population: 1024,
                generations: 4,
                ..Default::default()
            })),
        }
    }
}

/// The seed of a session's round RNG, derived from the workload seed.
pub fn round_seed(seed: u64) -> u64 {
    seed ^ 0xF311_0000_0000_0000
}

/// What tuning set-up produces: the pretrained model and the search tasks.
#[derive(Clone)]
pub struct Setup {
    /// The device simulator.
    pub sim: Simulator,
    /// The pretrained cost model (cloned into every session).
    pub model: Mlp,
    /// Search tasks built from the subgraphs (cloned into every session).
    pub tasks: Vec<SearchTask>,
}

/// Cost-model pretraining + `extract_subgraphs` + `SearchTask::from_task`
/// for every task of `graph`, with spans when a tracer is given.
pub fn setup(graph: &felix_graph::Graph, tracer: Option<&mut Tracer>) -> Setup {
    let device = DeviceConfig::xavier_nx();
    let t0 = Instant::now();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let t1 = Instant::now();
    let graphs = extract_subgraphs(graph);
    let t2 = Instant::now();
    let sim = Simulator::new(device);
    let tasks: Vec<SearchTask> = graphs
        .iter()
        .map(|t| SearchTask::from_task(t, &sim))
        .collect();
    let t3 = Instant::now();
    if let Some(tr) = tracer {
        let root = tr.record("setup", None, 0, t0, t3);
        tr.record("cost.pretrain", Some(root), 0, t0, t1);
        tr.record("graph.extract_subgraphs", Some(root), 0, t1, t2);
        tr.record("ansor.task_build", Some(root), 0, t2, t3);
    }
    Setup { sim, model, tasks }
}

/// One finished tuning session.
pub struct Session {
    /// Wall seconds spent in the rounds (set-up excluded).
    pub wall_s: f64,
    /// Simulated tuning clock at the end, in seconds.
    pub sim_s: f64,
    /// Final network latency on the simulated device, in ms.
    pub latency_ms: f64,
    /// Final per-task best latencies, as the tuner reported them.
    pub task_latencies: Vec<f64>,
    /// Tasks left without any successful measurement.
    pub unmeasured: usize,
    /// The tasks' final search state.
    pub tasks: Vec<SearchTask>,
    /// Per-round measurement reports.
    pub reports: Vec<RoundReport>,
    /// Per-round proposer statistics (empty for the evolutionary proposer).
    pub stats: Vec<TunerStats>,
}

/// Per-round timings gathered by the traced proposer and sink.
#[derive(Default)]
pub struct RoundTrace {
    /// The spans.
    pub tracer: Tracer,
    run: u32,
    round: Option<SpanId>,
    propose_end: Option<Instant>,
    last_event: Option<Instant>,
    /// Measurement events seen.
    pub events: usize,
    /// Retries those events consumed.
    pub retries: usize,
    /// Candidates the proposer scored with the cost model.
    pub predictions: usize,
    /// Rounds whose measurements fine-tuned the model.
    pub fine_tune_calls: usize,
}

impl RoundTrace {
    /// An empty round trace whose spans share `epoch`.
    pub fn with_epoch(epoch: Instant) -> RoundTrace {
        RoundTrace {
            tracer: Tracer::with_epoch(epoch),
            ..Default::default()
        }
    }
}

/// A timing decorator over the public [`Proposer`] trait: spans `propose`,
/// and splits the rest of the round at the sink's last measurement event
/// into measurement and fine-tuning (`note_measurement` is called right
/// after the round's fine-tune).
struct Timed<'a> {
    inner: &'a mut dyn Proposer,
    rt: Rc<RefCell<RoundTrace>>,
}

impl Proposer for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn take_stats(&mut self) -> Vec<TunerStats> {
        self.inner.take_stats()
    }

    fn propose(
        &mut self,
        task: &SearchTask,
        model: &Mlp,
        n: usize,
        clock: &mut TuningClock,
        costs: &ClockCosts,
        rng: &mut StdRng,
    ) -> Vec<(usize, Vec<f64>)> {
        let t0 = Instant::now();
        let out = self.inner.propose(task, model, n, clock, costs, rng);
        let t1 = Instant::now();
        let scored = self.inner.take_prediction_trace().len();
        let mut rt = self.rt.borrow_mut();
        let (round, run) = (rt.round, rt.run);
        rt.tracer.record("ansor.propose", round, run, t0, t1);
        rt.propose_end = Some(t1);
        rt.last_event = None;
        rt.predictions += scored;
        out
    }

    fn take_health(&mut self) -> HealthReport {
        self.inner.take_health()
    }

    fn note_measurement(&mut self, report: &RoundReport) {
        let now = Instant::now();
        {
            let mut rt = self.rt.borrow_mut();
            let (round, run) = (rt.round, rt.run);
            let measured_from = rt.propose_end.unwrap_or(now);
            let measured_to = rt.last_event.unwrap_or(measured_from);
            rt.tracer
                .record("sim.measure", round, run, measured_from, measured_to);
            rt.tracer
                .record("cost.fine_tune", round, run, measured_to, now);
            if report.measured > 0 {
                rt.fine_tune_calls += 1;
            }
        }
        self.inner.note_measurement(report);
    }
}

/// Timestamps every finished measurement.
struct EventTimer(Rc<RefCell<RoundTrace>>);

impl MeasurementSink for EventTimer {
    fn record(&mut self, event: &MeasurementEvent<'_>) {
        let mut rt = self.0.borrow_mut();
        rt.last_event = Some(Instant::now());
        rt.events += 1;
        rt.retries += event.retries;
    }
}

/// Runs one session of `rounds` rounds from fresh copies of the set-up
/// state. With `trace`, the proposer and sink are wrapped in timers and
/// every round gets a span under one `session` span of run `run`.
pub fn run_session(
    tool: Tool,
    setup: &Setup,
    seed: u64,
    rounds: usize,
    faults: FaultPlan,
    trace: Option<(&Rc<RefCell<RoundTrace>>, u32)>,
) -> Session {
    let mut tasks = setup.tasks.clone();
    let mut model = setup.model.clone();
    let mut clock = TuningClock::new();
    let costs = ClockCosts::default();
    let opts = TuneOptions {
        measurements_per_round: tool.measures(),
        fault_plan: faults,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(round_seed(seed));
    let mut proposer = tool.proposer();
    let mut reports = Vec::with_capacity(rounds);
    let mut last = None;
    let start = Instant::now();
    match trace {
        None => {
            for _ in 0..rounds {
                let r = tune_network_with_sink(
                    &mut tasks,
                    proposer.as_mut(),
                    &mut model,
                    &setup.sim,
                    &mut clock,
                    &costs,
                    &opts,
                    1,
                    &mut rng,
                    None,
                );
                reports.extend(r.round_reports.iter().cloned());
                last = Some(r);
            }
        }
        Some((rt, run)) => {
            let session = {
                let mut g = rt.borrow_mut();
                g.run = run;
                g.tracer.open("session", None, run)
            };
            let mut timed = Timed {
                inner: proposer.as_mut(),
                rt: rt.clone(),
            };
            let mut sink = EventTimer(rt.clone());
            for _ in 0..rounds {
                let round = rt.borrow_mut().tracer.open("round", Some(session), run);
                rt.borrow_mut().round = Some(round);
                let r = tune_network_with_sink(
                    &mut tasks,
                    &mut timed,
                    &mut model,
                    &setup.sim,
                    &mut clock,
                    &costs,
                    &opts,
                    1,
                    &mut rng,
                    Some(&mut sink),
                );
                rt.borrow_mut().tracer.close(round);
                reports.extend(r.round_reports.iter().cloned());
                last = Some(r);
            }
            rt.borrow_mut().tracer.close(session);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let last = last.expect("at least one round");
    Session {
        wall_s,
        sim_s: clock.now_s(),
        latency_ms: last.final_latency_ms,
        task_latencies: last.task_latencies,
        unmeasured: last.unmeasured_tasks,
        stats: proposer.take_stats(),
        tasks,
        reports,
    }
}

/// Output checks of a session. Returns the session's fingerprint (best
/// schedules, their latencies, the network latency and the simulated
/// clock, bit for bit) and the list of failed checks.
///
/// The per-task latencies the tuner reports are checked against `sim`
/// independently of the tuner's bookkeeping: each task's best schedule,
/// re-evaluated noise-free with [`Simulator::latency_ms`], must agree with
/// the reported latency within [`NOISE_BAND_SD`] standard deviations of
/// the simulator's lognormal measurement noise.
pub fn check(session: &Session, sim: &Simulator) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let mut fp = DefaultHasher::new();
    if session.unmeasured > 0 {
        problems.push(format!("{} tasks left unmeasured", session.unmeasured));
    }
    let band = NOISE_BAND_SD * sim.noise_sd;
    let mut sum = 0.0;
    for (i, t) in session.tasks.iter().enumerate() {
        let reported = session.task_latencies.get(i).copied().unwrap_or(f64::NAN);
        sum += t.weight as f64 * reported;
        let Some((sk, vals)) = &t.best_schedule else {
            problems.push(format!("task {}: no best schedule", t.name));
            continue;
        };
        let sketch = &t.sketches[*sk];
        if let Err(errs) = felix_tir::verify::verify(&sketch.program, vals) {
            problems.push(format!(
                "task {}: best schedule fails verify ({} errors)",
                t.name,
                errs.len()
            ));
        }
        if !sketch.program.constraints_ok(vals, 1e-9) {
            problems.push(format!(
                "task {}: best schedule violates its constraints",
                t.name
            ));
        }
        let simulated = sim.latency_ms(&sketch.program, &sketch.features, vals);
        let off = (reported / simulated).ln().abs();
        if off.is_nan() || off > band {
            problems.push(format!(
                "task {}: reported latency {reported} ms, its best schedule simulates to {simulated} ms",
                t.name
            ));
        }
        sk.hash(&mut fp);
        vals.iter().for_each(|v| v.to_bits().hash(&mut fp));
        t.best_latency_ms.to_bits().hash(&mut fp);
    }
    if sum.to_bits() != session.latency_ms.to_bits() {
        problems.push(format!(
            "per-task latencies sum to {sum} ms, reported {} ms",
            session.latency_ms
        ));
    }
    if !session.latency_ms.is_finite() {
        problems.push("network latency is not finite".to_string());
    }
    session.latency_ms.to_bits().hash(&mut fp);
    session.sim_s.to_bits().hash(&mut fp);
    (fp.finish(), problems)
}

/// Failure accounting: candidates lost after retries plus unmeasured
/// tasks, over measurement attempts (first attempts plus retries).
pub fn accounting(session: &Session) -> Accounting {
    let mut acc = Accounting::default();
    for r in &session.reports {
        acc.attempted += (r.measured + r.failed + r.retries) as u64;
        acc.failed += r.failed as u64;
    }
    acc.failed += session.unmeasured as u64;
    acc
}

/// Seeds per descent chunk: what the batched MLP and tape calls see.
pub fn chunk_width(options: &FelixOptions) -> usize {
    let threads = felix::parallel::effective_threads(options.threads);
    let workers = threads.min(options.n_seeds).max(1);
    options.n_seeds.div_ceil(workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_catch_a_latency_the_best_schedule_does_not_have() {
        let setup = setup(&felix_graph::models::dcgan(1), None);
        let rounds = setup.tasks.len();
        let mut session = run_session(Tool::Felix, &setup, 3, rounds, FaultPlan::none(), None);
        let (_, problems) = check(&session, &setup.sim);
        assert!(problems.is_empty(), "{problems:?}");
        // Scale one task's reported latency and the network total alike, so
        // only the re-evaluation on the simulator can tell.
        let name = session.tasks[0].name.clone();
        session.task_latencies[0] *= 1.2;
        session.latency_ms = session
            .tasks
            .iter()
            .zip(&session.task_latencies)
            .map(|(t, l)| t.weight as f64 * l)
            .sum();
        let (_, problems) = check(&session, &setup.sim);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with(&format!("task {name}:")),
            "{problems:?}"
        );
    }
}
