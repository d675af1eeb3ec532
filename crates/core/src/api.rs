//! The user-facing programming interface, mirroring the paper's Fig. 5.

use crate::cache::ScheduleCache;
use crate::gd::{FelixOptions, GradientProposer};
use crate::persist::{self, CheckpointState, RecordLogSink};
use felix_ansor::{
    network_latency, tune_network_with_sink, MeasurementSink, NetworkTuneResult, Proposer,
    SearchTask, TuneOptions, TunerStats,
};
use felix_cost::{fine_tune, generate_dataset, pretrain, Mlp, TrainConfig};
use felix_graph::{partition, Graph, Task};
use felix_ansor::MeasurePolicy;
use felix_sim::clock::ClockCosts;
use felix_sim::{DeviceConfig, FaultPlan, Simulator, TuningClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// How thoroughly to pretrain the cost model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelQuality {
    /// Small corpus, few epochs — seconds; fine for tests and examples.
    Fast,
    /// TenSet-scale corpus and epochs — the experiment-harness setting.
    Full,
}

/// Extracts the tuning tasks (fused subgraphs) from a network, as
/// `felix.extract_subgraphs` does in Fig. 5.
pub fn extract_subgraphs(graph: &Graph) -> Vec<Task> {
    partition(graph)
}

/// Returns a cost model pretrained for the target device, as
/// `felix.pretrained_cost_model` does in Fig. 5. Training is deterministic
/// per device + quality, and the result is memoized per (device, quality)
/// within a process — repeated calls (test suites, examples looping over
/// devices) pay the pretraining cost once.
pub fn pretrained_cost_model(device: &DeviceConfig, quality: ModelQuality) -> Mlp {
    use std::sync::Mutex;
    static CACHE: Mutex<Vec<((&'static str, ModelQuality), Mlp)>> = Mutex::new(Vec::new());
    let key = (device.name, quality);
    if let Some((_, m)) = CACHE.lock().expect("model cache").iter().find(|(k, _)| *k == key) {
        return m.clone();
    }
    let (n_workloads, schedules, epochs) = match quality {
        ModelQuality::Fast => (6, 12, 10),
        ModelQuality::Full => (120, 96, 40),
    };
    let ds = generate_dataset(device, n_workloads, schedules, 0xFE11C5);
    let mut rng = StdRng::seed_from_u64(0xC0571);
    let mut mlp = Mlp::new(&mut rng);
    let (train, _) = ds.split(0);
    pretrain(
        &mut mlp,
        &train,
        &TrainConfig { epochs, batch_size: 128, lr: 7e-4, seed: 1, ..Default::default() },
    );
    CACHE.lock().expect("model cache").push((key, mlp.clone()));
    mlp
}

/// The Felix optimizer: owns the tasks, cost model, simulator, and tuning
/// clock, and runs the full-graph tuning loop (Fig. 5 / Algorithm 2).
pub struct Optimizer {
    tasks: Vec<SearchTask>,
    model: Mlp,
    sim: Simulator,
    clock: TuningClock,
    costs: ClockCosts,
    proposer: GradientProposer,
    rng: StdRng,
    fault_plan: FaultPlan,
    measure_policy: MeasurePolicy,
    sink: Option<RecordLogSink>,
    schedule_store: Option<ScheduleCache>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    rounds_done: usize,
    /// Curve of (time, latency) across all rounds run so far.
    pub history: Vec<felix_ansor::CurvePoint>,
    /// Per-round tuner observability records, accumulated across all
    /// `optimize_all` calls (one entry per `propose` round).
    pub stats: Vec<TunerStats>,
}

impl Optimizer {
    /// Sets up the search space and objective for every subgraph.
    pub fn new(graphs: Vec<Task>, cost_model: Mlp, device: DeviceConfig) -> Self {
        Self::with_options(graphs, cost_model, device, FelixOptions::default())
    }

    /// [`Optimizer::new`] with explicit search hyperparameters.
    pub fn with_options(
        graphs: Vec<Task>,
        cost_model: Mlp,
        device: DeviceConfig,
        options: FelixOptions,
    ) -> Self {
        let sim = Simulator::new(device);
        let tasks = graphs.iter().map(|t| SearchTask::from_task(t, &sim)).collect();
        Optimizer {
            tasks,
            model: cost_model,
            sim,
            clock: TuningClock::new(),
            costs: ClockCosts::default(),
            proposer: GradientProposer::new(options),
            rng: StdRng::seed_from_u64(0xF311),
            fault_plan: FaultPlan::none(),
            measure_policy: MeasurePolicy::default(),
            sink: None,
            schedule_store: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            rounds_done: 0,
            history: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// Injects measurement faults during tuning (testing / chaos runs). The
    /// default zero-rate plan leaves every result byte-identical to an
    /// optimizer without a fault layer.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Overrides the retry/backoff policy applied to failed measurements.
    pub fn with_measure_policy(mut self, policy: MeasurePolicy) -> Self {
        self.measure_policy = policy;
        self
    }

    /// Overrides the descent-supervision options
    /// ([`crate::health::SupervisorOptions`]): seed health monitoring,
    /// deterministic restarts, panic isolation, and degradation to the
    /// evolutionary fallback. Supervision is on by default with thresholds
    /// a healthy run never trips.
    pub fn with_supervisor(mut self, supervisor: crate::health::SupervisorOptions) -> Self {
        self.proposer.options.supervisor = supervisor;
        self
    }

    /// Attaches a durable tuning-record log at `path`. Existing records
    /// matching this optimizer's tasks (by workload key + device) are
    /// replayed into the search state first — rebuilding each task's
    /// incumbent, dedup set, fault statistics, supervision modes, and
    /// replay buffer — and the
    /// cost model is warm-started on the replayed measurements with the same
    /// fine-tuning hyperparameters a live round uses. New measurements are
    /// then appended to the log as they finish.
    ///
    /// Replay touches neither the tuning clock nor the master RNG, and the
    /// attached sink is a pure observer, so with an *empty* log this is
    /// bit-identical to a run without persistence.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading or opening the log.
    pub fn with_record_log(mut self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let device = self.sim.device.name;
        let (sink, records) = RecordLogSink::open(path, device)?;
        for task in &mut self.tasks {
            let n_new = persist::replay_records(task, &records, device);
            if n_new > 0 {
                // Same replay-window / epoch-scaling / learning-rate rule as
                // `tune_task_round`'s post-measurement update.
                let window = 192usize;
                let start = task.samples.len().saturating_sub(window);
                let epochs = ((5 * n_new).div_ceil(64)).max(1);
                fine_tune(&mut self.model, &task.samples[start..], epochs, 4e-4);
            }
        }
        self.sink = Some(sink);
        Ok(self)
    }

    /// Attaches the global schedule store at `path` and applies it to every
    /// task that has no search state yet:
    ///
    /// - an **exact hit** (same workload key + device, schedule still valid
    ///   for the live sketches) is recorded as the task's incumbent —
    ///   serving a tuned schedule with *zero* measurement budget, RNG
    ///   draws, or clock advancement;
    /// - a **structural near-miss** (same [`crate::cache::structure_hash`],
    ///   different extents) becomes a warm-start hint, seeding descent from
    ///   the cached optimum while leaving every RNG substream untouched;
    /// - tuning rounds publish each task's incumbent back to the store.
    ///
    /// Entries written by a different sketch-generator version (a stale
    /// fingerprint — see `felix_tir::sketch::generator_hash`) are rejected
    /// as clean misses and counted, never served.
    ///
    /// Cache activity (hits, warm starts, stale rejections) is read from
    /// [`Optimizer::schedule_cache`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening or replaying the store.
    pub fn with_schedule_store(self, path: impl AsRef<Path>) -> std::io::Result<Self> {
        self.with_schedule_store_namespaced(path, "")
    }

    /// [`Optimizer::with_schedule_store`] scoped to tenant namespace `ns`
    /// (empty = the unscoped global namespace): lookups and publishes are
    /// keyed under the namespace, so tenants sharing a store file can
    /// neither hit nor warm-start from each other's schedules. The serving
    /// tier uses this for per-tenant isolation.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening or replaying the store.
    pub fn with_schedule_store_namespaced(
        mut self,
        path: impl AsRef<Path>,
        ns: &str,
    ) -> std::io::Result<Self> {
        let mut cache = ScheduleCache::open(path)?.with_namespace(ns);
        let device = self.sim.device.name;
        for task in &mut self.tasks {
            cache.apply(task, device);
        }
        self.schedule_store = Some(cache);
        Ok(self)
    }

    /// Replaces the proposer's private tape cache
    /// ([`crate::tape_cache::TapeCache`]) with a shared one, so
    /// sketch-objective builds (the smoothing → substitution →
    /// simplification → tape-compile pipeline, by far the most expensive
    /// per-task setup step) are shared across every optimizer holding a
    /// clone of the same `Arc`. Builds are deterministic in exactly the
    /// fingerprinted inputs, so tuning results are bit-identical whichever
    /// cache serves them; entries from a different sketch-generator
    /// fingerprint are evicted as stale and rebuilt, never served.
    #[must_use]
    pub fn with_shared_tape_cache(mut self, cache: std::sync::Arc<crate::TapeCache>) -> Self {
        self.proposer = self.proposer.with_shared_tape_cache(cache);
        self
    }

    /// Replaces the cost model with one pretrained elsewhere — typically a
    /// transfer model from [`felix_cost::pretrain_transfer`] over other
    /// tasks' record logs. Purely a different starting point for the same
    /// deterministic fine-tuning; no search mechanics change.
    pub fn with_transfer_model(mut self, model: Mlp) -> Self {
        self.model = model;
        self
    }

    /// Enables checkpointing: after every `every_rounds` tuning rounds (and
    /// at the end of each `optimize_all` call) the full tuner state — task
    /// snapshots, cost-model weights, clock, and RNG position — is written
    /// atomically under `dir`. [`Optimizer::resume_from_checkpoint`] then
    /// continues the run byte-identically.
    pub fn with_checkpointing(mut self, dir: impl AsRef<Path>, every_rounds: usize) -> Self {
        self.checkpoint_dir = Some(dir.as_ref().to_path_buf());
        self.checkpoint_every = every_rounds.max(1);
        self
    }

    /// Writes a checkpoint now (no-op without [`Optimizer::with_checkpointing`]).
    ///
    /// The model file is committed first, under its content-addressed name
    /// ([`persist::model_file_name`]); the state document naming it is
    /// committed second; superseded model files are removed last. A kill at
    /// any point leaves a state document whose model file is on disk: the
    /// previous checkpoint's until the new document lands, the new one
    /// after.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the state or model files.
    pub fn save_checkpoint(&self) -> std::io::Result<()> {
        let Some(dir) = &self.checkpoint_dir else { return Ok(()) };
        std::fs::create_dir_all(dir)?;
        let mut model_bytes = Vec::new();
        self.model.save(&mut model_bytes)?;
        let model_file = persist::model_file_name(&model_bytes);
        felix_records::atomic_write(dir.join(&model_file), &model_bytes)?;
        let state = CheckpointState {
            device_name: self.sim.device.name.to_string(),
            clock_s: self.clock.now_s(),
            rng_state: self.rng.state(),
            rounds_done: self.rounds_done,
            checkpoint_every: self.checkpoint_every,
            record_log: self.sink.as_ref().map(|s| s.path().display().to_string()),
            schedule_store: self
                .schedule_store
                .as_ref()
                .map(|s| s.path().display().to_string()),
            schedule_ns: self
                .schedule_store
                .as_ref()
                .and_then(|s| s.namespace().map(str::to_string)),
            history: self.history.clone(),
            tasks: self.tasks.iter().map(SearchTask::snapshot).collect(),
            model_file,
        };
        felix_records::write_document(
            dir.join(persist::STATE_FILE),
            &persist::checkpoint_to_json(&state),
        )?;
        // Best effort: a superseded model file left behind costs only disk,
        // and the next checkpoint retries its removal.
        for entry in std::fs::read_dir(dir)?.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("model-") && name.ends_with(".bin") && name != state.model_file {
                std::fs::remove_file(entry.path()).ok();
            }
        }
        Ok(())
    }

    /// Rebuilds an optimizer from a checkpoint directory written by
    /// [`Optimizer::save_checkpoint`], restoring the cost model, every
    /// task's search state, the tuning clock, and the master RNG position.
    /// Continuing with `optimize_all` reproduces the exact time-vs-latency
    /// curve the uninterrupted run would have produced, byte for byte.
    ///
    /// `graphs` and `device` must be the ones the checkpointed run used
    /// (the tasks are rebuilt from them and verified by workload key). A
    /// record log attached to the original run is reattached for appending;
    /// re-run rounds may append duplicate records, which replay skips.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a malformed or mismatched checkpoint —
    /// including a model file whose bytes do not hash to the name the
    /// state document records — plus any underlying I/O error.
    pub fn resume_from_checkpoint(
        graphs: Vec<Task>,
        device: DeviceConfig,
        options: FelixOptions,
        dir: impl AsRef<Path>,
    ) -> std::io::Result<Optimizer> {
        use std::io::{Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
        let dir = dir.as_ref();
        let doc = felix_records::read_document(dir.join(persist::STATE_FILE))?;
        let state = persist::checkpoint_from_json(&doc)
            .ok_or_else(|| bad("malformed or incompatible checkpoint document"))?;
        if state.device_name != device.name {
            return Err(bad("checkpoint was written for a different device"));
        }
        let model_bytes = std::fs::read(dir.join(&state.model_file))?;
        if persist::model_file_name(&model_bytes) != state.model_file {
            return Err(bad("checkpoint model file does not match its recorded hash"));
        }
        let model = Mlp::load(model_bytes.as_slice())?;
        let mut opt = Optimizer::with_options(graphs, model, device, options);
        if state.tasks.len() != opt.tasks.len() {
            return Err(bad("checkpoint task count does not match the network"));
        }
        for (task, snap) in opt.tasks.iter_mut().zip(state.tasks) {
            if snap.workload_key != task.workload_key {
                return Err(bad("checkpoint task does not match the network"));
            }
            task.restore(snap);
        }
        // `new() + advance(x)` is `0.0 + x`, which is bit-exact.
        opt.clock.advance(state.clock_s);
        opt.rng = StdRng::from_state(state.rng_state);
        opt.rounds_done = state.rounds_done;
        opt.history = state.history;
        opt.checkpoint_dir = Some(dir.to_path_buf());
        opt.checkpoint_every = state.checkpoint_every;
        if let Some(log_path) = state.record_log {
            opt.sink = Some(RecordLogSink::open(log_path, device.name)?.0);
        }
        if let Some(store_path) = state.schedule_store {
            // Reattached for publishing only: every task carries restored
            // state, so `apply` would skip it anyway, and warm hints travel
            // in the task snapshots.
            let cache = ScheduleCache::open(store_path)?
                .with_namespace(state.schedule_ns.as_deref().unwrap_or(""));
            opt.schedule_store = Some(cache);
        }
        Ok(opt)
    }

    /// Total tuning rounds completed (across resumes).
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// The tuning tasks.
    pub fn tasks(&self) -> &[SearchTask] {
        &self.tasks
    }

    /// Simulated tuning time spent so far, in seconds.
    pub fn tuning_time_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// The master RNG's current position. Lets callers assert that pure
    /// state restoration (cache hits, config loads, checkpoint replays)
    /// consumed zero randomness.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// The attached schedule cache, if any.
    pub fn schedule_cache(&self) -> Option<&ScheduleCache> {
        self.schedule_store.as_ref()
    }

    /// Runs `n_total_rounds` rounds of tuning with `measure_per_round`
    /// hardware measurements each (Fig. 5's `optimize_all`).
    ///
    /// With checkpointing enabled the rounds run one at a time so every
    /// checkpoint lands on a round boundary; the per-round loop evolves the
    /// search state identically to a single n-round call (the scheduler and
    /// round pipeline carry no cross-call state).
    pub fn optimize_all(
        &mut self,
        n_total_rounds: usize,
        measure_per_round: usize,
    ) -> NetworkTuneResult {
        let opts = TuneOptions {
            measurements_per_round: measure_per_round,
            fault_plan: self.fault_plan,
            measure_policy: self.measure_policy,
            ..Default::default()
        };
        let res = if self.checkpoint_dir.is_some() {
            let mut acc = NetworkTuneResult {
                curve: Vec::new(),
                task_latencies: self.tasks.iter().map(|t| t.best_latency_ms).collect(),
                final_latency_ms: network_latency(&self.tasks),
                round_reports: Vec::new(),
                unmeasured_tasks: self
                    .tasks
                    .iter()
                    .filter(|t| t.best_latency_ms.is_infinite())
                    .count(),
            };
            for i in 0..n_total_rounds {
                let chunk = self.run_rounds(&opts, 1);
                self.history.extend(chunk.curve.iter().copied());
                acc.curve.extend(chunk.curve);
                acc.task_latencies = chunk.task_latencies;
                acc.final_latency_ms = chunk.final_latency_ms;
                acc.round_reports.extend(chunk.round_reports);
                acc.unmeasured_tasks = chunk.unmeasured_tasks;
                self.rounds_done += 1;
                // Publish on the same boundary as the checkpoint so a
                // killed run leaves its incumbents in the store.
                if let Some(cache) = &mut self.schedule_store {
                    cache.publish(&self.tasks, self.sim.device.name);
                }
                if (i + 1) % self.checkpoint_every == 0 || i + 1 == n_total_rounds {
                    if let Err(e) = self.save_checkpoint() {
                        eprintln!("[felix] checkpoint write failed: {e}");
                    }
                }
            }
            acc
        } else {
            let res = self.run_rounds(&opts, n_total_rounds);
            self.history.extend(res.curve.iter().copied());
            self.rounds_done += n_total_rounds;
            res
        };
        self.stats.extend(self.proposer.take_stats());
        if let Some(cache) = &mut self.schedule_store {
            cache.publish(&self.tasks, self.sim.device.name);
        }
        res
    }

    /// Runs exactly one tuning round — the building block for an external
    /// job loop (the serving tier's worker shards), which interleaves
    /// rounds of *different* optimizers under its own scheduling policy.
    ///
    /// Identical to `optimize_all(1, measure_per_round)`: the per-round
    /// loop evolves the search state exactly as one longer call would
    /// (the scheduler and round pipeline carry no cross-call state), so
    /// `n` ticks ≡ `optimize_all(n, m)` byte for byte, however the ticks
    /// are interleaved with other optimizers' work.
    pub fn tick(&mut self, measure_per_round: usize) -> NetworkTuneResult {
        self.optimize_all(1, measure_per_round)
    }

    fn run_rounds(&mut self, opts: &TuneOptions, n_rounds: usize) -> NetworkTuneResult {
        tune_network_with_sink(
            &mut self.tasks,
            &mut self.proposer,
            &mut self.model,
            &self.sim,
            &mut self.clock,
            &self.costs,
            opts,
            n_rounds,
            &mut self.rng,
            self.sink.as_mut().map(|s| s as &mut dyn MeasurementSink),
        )
    }

    /// Applies the best schedule found for each subgraph and produces a
    /// compiled module (Fig. 5's `compile_with_best_configs`).
    ///
    /// # Panics
    ///
    /// Panics if called before any tuning round measured every task.
    pub fn compile_with_best_configs(&self) -> CompiledModule {
        let mut kernels = Vec::with_capacity(self.tasks.len());
        for t in &self.tasks {
            let (sketch, vals) = t
                .best_schedule
                .clone()
                .expect("optimize_all must run (and measure every task) before compiling");
            kernels.push(CompiledKernel {
                task_name: t.name.clone(),
                sketch_name: t.sketches[sketch].name,
                sketch,
                values: vals,
                weight: t.weight,
                latency_ms: t.best_latency_ms,
            });
        }
        CompiledModule { device: self.sim.device, kernels }
    }
}

/// One tuned kernel of a compiled module.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// Subgraph name.
    pub task_name: String,
    /// Which sketch won.
    pub sketch_name: &'static str,
    /// Sketch index.
    pub sketch: usize,
    /// The concrete schedule-variable assignment.
    pub values: Vec<f64>,
    /// Occurrences in the network.
    pub weight: usize,
    /// Measured kernel latency (ms).
    pub latency_ms: f64,
}

/// A "compiled" network: the best schedule per subgraph plus the device it
/// was tuned for. `run` replays an inference through the simulator.
#[derive(Clone, Debug)]
pub struct CompiledModule {
    /// The target device.
    pub device: DeviceConfig,
    /// Tuned kernels in task order.
    pub kernels: Vec<CompiledKernel>,
}

impl Optimizer {
    /// Saves the best configurations found so far in a simple line format
    /// (the `save_res="resnet50.json"` step of Fig. 5).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save_configs<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "# felix tuned configs for {}", self.sim.device.name)?;
        for t in &self.tasks {
            if let Some((sketch, vals)) = &t.best_schedule {
                let vals: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
                writeln!(
                    w,
                    "{}\t{}\t{}\t{}\t{}",
                    t.name,
                    t.weight,
                    sketch,
                    t.best_latency_ms,
                    vals.join(",")
                )?;
            }
        }
        Ok(())
    }

    /// Restores best configurations saved by [`Optimizer::save_configs`]
    /// into matching tasks (by name), enabling
    /// `compile_with_best_configs` without re-tuning (the
    /// `configs_file="resnet50.json"` step of Fig. 5).
    ///
    /// # Errors
    ///
    /// Returns an error for unreadable input or malformed lines.
    pub fn load_configs<R: std::io::BufRead>(&mut self, r: R) -> std::io::Result<usize> {
        use std::io::{Error, ErrorKind};
        let mut loaded = 0;
        for line in r.lines() {
            let line = line?;
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split('\t').collect();
            if parts.len() != 5 {
                return Err(Error::new(ErrorKind::InvalidData, "malformed config line"));
            }
            fn bad<E>(_: E) -> Error {
                Error::new(ErrorKind::InvalidData, "malformed number")
            }
            let sketch: usize = parts[2].parse().map_err(bad)?;
            let latency: f64 = parts[3].parse().map_err(bad)?;
            let vals: Vec<f64> = parts[4]
                .split(',')
                .map(|v| v.parse().map_err(bad))
                .collect::<Result<_, _>>()?;
            // Display names can collide (e.g. two dense layers differing
            // only in the reduction size); fill un-restored tasks first.
            let target = self
                .tasks
                .iter_mut()
                .filter(|t| t.name == parts[0])
                .min_by_key(|t| t.best_schedule.is_some());
            if let Some(t) = target {
                if sketch < t.sketches.len()
                    && t.sketches[sketch].program.constraints_ok(&vals, 1e-9)
                {
                    t.record(sketch, vals, latency);
                    loaded += 1;
                }
            }
        }
        Ok(loaded)
    }
}

impl CompiledModule {
    /// End-to-end latency estimate in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.kernels.iter().map(|k| k.weight as f64 * k.latency_ms).sum()
    }

    /// Simulates one inference, returning a noisy end-to-end latency.
    pub fn run(&self, rng: &mut impl rand::Rng) -> f64 {
        self.kernels
            .iter()
            .map(|k| {
                k.weight as f64 * k.latency_ms * felix_sim::lognormal(rng, 0.02)
            })
            .sum()
    }

    /// A human-readable summary table.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "compiled for {}: {:.4} ms", self.device.name, self.latency_ms());
        for k in &self.kernels {
            let _ = writeln!(
                out,
                "  {:40} x{:<3} {:>10.4} ms  [{}]",
                k.task_name, k.weight, k.latency_ms, k.sketch_name
            );
        }
        out
    }
}

/// Convenience: current end-to-end latency of an optimizer's tasks.
pub fn current_network_latency(opt: &Optimizer) -> f64 {
    network_latency(opt.tasks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_graph::models;

    #[test]
    fn fig5_workflow_end_to_end() {
        // The paper's Fig. 5 flow on a scaled-down LLaMA so the test is fast.
        let device = DeviceConfig::a5000();
        let dnn = models::llama_with_config(1, 32, 256, 4, 688, 2);
        let graphs = extract_subgraphs(&dnn);
        assert!(graphs.len() >= 5);
        let cost_model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut opt = Optimizer::with_options(
            graphs,
            cost_model,
            device,
            FelixOptions { n_seeds: 2, n_steps: 20, ..Default::default() },
        );
        let n_tasks = opt.tasks().len();
        let res = opt.optimize_all(n_tasks + 2, 4);
        assert!(res.final_latency_ms.is_finite());
        assert!(opt.tuning_time_s() > 0.0);
        let module = opt.compile_with_best_configs();
        assert_eq!(module.kernels.len(), n_tasks);
        assert!((module.latency_ms() - res.final_latency_ms).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(0);
        let sample = module.run(&mut rng);
        assert!((sample / module.latency_ms() - 1.0).abs() < 0.3);
        assert!(module.summary().contains("compiled for"));
        // One stats record per proposer round, drained from the proposer.
        assert_eq!(opt.stats.len(), n_tasks + 2);
        assert!(opt.stats.iter().all(|s| s.grad_steps > 0 && s.threads >= 1));
    }

    #[test]
    fn configs_save_and_load_round_trip() {
        let device = DeviceConfig::a5000();
        let dnn = models::llama_with_config(1, 16, 128, 4, 344, 2);
        let cost_model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut opt = Optimizer::with_options(
            extract_subgraphs(&dnn),
            cost_model.clone(),
            device,
            FelixOptions { n_seeds: 2, n_steps: 15, ..Default::default() },
        );
        let n_tasks = opt.tasks().len();
        opt.optimize_all(n_tasks * 2, 4);
        let tuned = opt
            .tasks()
            .iter()
            .filter(|t| t.best_schedule.is_some())
            .count();
        assert_eq!(tuned, n_tasks, "every task measured at least once");
        let mut buf = Vec::new();
        opt.save_configs(&mut buf).expect("save");
        // A fresh optimizer (no tuning) restores the configs and compiles.
        let mut fresh = Optimizer::new(extract_subgraphs(&dnn), cost_model, device);
        let loaded = fresh.load_configs(std::io::BufReader::new(buf.as_slice())).expect("load");
        assert_eq!(loaded, n_tasks);
        let module = fresh.compile_with_best_configs();
        assert_eq!(module.kernels.len(), n_tasks);
        assert!((module.latency_ms() - opt.compile_with_best_configs().latency_ms()).abs() < 1e-9);
    }

    #[test]
    fn load_configs_rejects_garbage() {
        let device = DeviceConfig::a5000();
        let dnn = models::dcgan(1);
        let cost_model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut opt = Optimizer::new(extract_subgraphs(&dnn), cost_model, device);
        let err = opt.load_configs(std::io::BufReader::new(&b"bad line without tabs\n"[..]));
        assert!(err.is_err());
        // Comments and blank lines are fine.
        let ok = opt.load_configs(std::io::BufReader::new(&b"# comment\n\n"[..]));
        assert_eq!(ok.expect("comments ok"), 0);
    }

    #[test]
    fn tuning_improves_over_rounds() {
        let device = DeviceConfig::a5000();
        let dnn = models::dcgan(1);
        let graphs = extract_subgraphs(&dnn);
        let cost_model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut opt = Optimizer::with_options(
            graphs,
            cost_model,
            device,
            FelixOptions { n_seeds: 2, n_steps: 25, ..Default::default() },
        );
        let n_tasks = opt.tasks().len();
        let res = opt.optimize_all(n_tasks * 2, 6);
        let first = res.curve.first().expect("curve").latency_ms;
        let last = res.curve.last().expect("curve").latency_ms;
        assert!(last <= first, "latency must not regress: {first} -> {last}");
    }
}
