//! Gradient-descent schedule search (Algorithm 1, §3.4).
//!
//! `nSeeds` relaxed schedules are optimized simultaneously with Adam over
//! the differentiable objective of [`crate::objective`]; every point visited
//! is rounded back to a valid integer schedule (tile sizes round to factors
//! in log space), validated, ranked by cost-model-predicted performance, and
//! the top `nMeasure` go to the hardware (simulator).
//!
//! # Parallel, batched execution
//!
//! Each sketch's objective is built once and kept in the proposer's
//! [`TapeCache`], the one objective cache: later rounds of a task, and
//! structurally identical sketches of other tasks, look it up by exact
//! fingerprint instead of rebuilding it.
//!
//! Both halves of each Adam step are batched. The expression side runs on
//! each sketch's compiled gradient tape
//! ([`felix_expr::CompiledGradTape`]): seeds sharing a sketch sweep the
//! tape's fused forward and reverse passes in one structure-of-arrays pass
//! over all lanes, with per-worker scratch buffers reused across steps so
//! the steady-state loop is allocation-free. The cost model is evaluated
//! in matrix-shaped batches: each Adam step makes one
//! [`Mlp::input_gradient_batch_cols`] call over all the seeds a worker owns
//! instead of `nSeeds` scalar calls, and candidate ranking batches its
//! predictions the same way. Independent seeds (and independent sketch
//! objectives) run on a scoped-thread pool ([`crate::parallel`]) whose
//! workers self-schedule from a shared queue. Every batched MLP row is
//! bit-identical to the scalar path and all randomness is drawn from the
//! master RNG in a fixed serial order (per-seed work uses derived `StdRng`
//! streams), so the search result is **bit-identical at every thread
//! count** — `threads: 1` is the proof path, `threads: 0` (one worker per
//! core) the fast path.

use crate::health::{restart_salt, restart_stream, ChunkHealth, SeedHealth, SupervisorOptions};
use crate::objective::{EvalScratch, PipelineOptions, SketchObjective};
use crate::parallel::{effective_threads, parallel_map};
use crate::tape_cache::{objective_fingerprint, sketch_bucket, TapeCache, TapeLookup};
use felix_ansor::evolution::EvolutionConfig;
use felix_ansor::{
    EvolutionaryProposer, HealthReport, Proposer, SearchTask, SketchMode, TunerStats,
};
use felix_cost::{
    log_transform, total_cmp_desc_nan_last, total_cmp_nan_last, AdamOpt, Mlp, MlpScratch,
};
use felix_features::FEATURE_COUNT;
use felix_sim::clock::ClockCosts;
use felix_sim::TuningClock;
use felix_tir::sketch::round_to_valid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Random draws per non-warm seed slot; the best-predicted draw becomes the
/// slot's starting point (a single blind draw frequently lands in a poor
/// basin of the multi-modal relaxed landscape).
const SEED_INIT_DRAWS: usize = 8;

/// Candidates per batched scoring chunk (one `predict_batch` call each).
const SCORE_CHUNK: usize = 64;

/// Hyperparameters of the gradient-descent search (paper §5 defaults).
#[derive(Clone, Copy, Debug)]
pub struct FelixOptions {
    /// Schedules optimized simultaneously (`nSeeds`, default 8).
    pub n_seeds: usize,
    /// Gradient-descent steps per round (`nSteps`, default 200).
    pub n_steps: usize,
    /// Constraint-penalty coefficient `λ`.
    pub lambda: f64,
    /// Adam learning rate in `y = ln x` space.
    pub lr: f64,
    /// Worker threads: `0` = one per available core, `1` = serial. The
    /// search result is bit-identical for every setting.
    pub threads: usize,
    /// Which rewriting stages to apply (ablation knob; all on by default).
    pub pipeline: PipelineOptions,
    /// Descent supervision: per-seed health monitoring, deterministic
    /// restarts, panic isolation, and graceful degradation. The defaults
    /// never trip on a healthy run, so enabling supervision leaves
    /// fault-free searches bit-identical.
    pub supervisor: SupervisorOptions,
}

impl Default for FelixOptions {
    fn default() -> Self {
        FelixOptions {
            // 16 seeds per chunk: the compiled tape's per-sweep costs
            // (instruction-stream traversal, dispatch, row setup) amortize
            // across the seed batch, so the wider batch is ~17% cheaper per
            // seed than 8 on dense-512 while exploring more restarts.
            n_seeds: 16,
            n_steps: 200,
            lambda: 1.0,
            lr: 0.08,
            threads: 0,
            pipeline: PipelineOptions::default(),
            supervisor: SupervisorOptions::default(),
        }
    }
}

/// One descending schedule: its sketch, current y-space point, Adam state,
/// and supervision state.
struct Seed {
    sketch: usize,
    y: Vec<f64>,
    opt: AdamOpt,
    health: SeedHealth,
}

/// The gradient-descent candidate proposer (Felix's search algorithm).
pub struct GradientProposer {
    /// Hyperparameters.
    pub options: FelixOptions,
    tape_cache: Arc<TapeCache>,
    trace: Vec<f64>,
    stats: Vec<TunerStats>,
    health: HealthReport,
}

impl GradientProposer {
    /// A proposer with the given options and a fresh, private tape cache.
    pub fn new(options: FelixOptions) -> Self {
        GradientProposer {
            options,
            tape_cache: Arc::new(TapeCache::new()),
            trace: Vec::new(),
            stats: Vec::new(),
            health: HealthReport::default(),
        }
    }

    /// Replaces the proposer's private tape cache with a shared one, so
    /// structurally identical sketches compile their gradient tapes once
    /// across every optimizer holding the same `Arc`. Objective builds are
    /// deterministic in exactly the fingerprinted inputs, so search results
    /// are bit-identical whichever cache serves them.
    #[must_use]
    pub fn with_shared_tape_cache(mut self, cache: Arc<TapeCache>) -> Self {
        self.tape_cache = cache;
        self
    }

    /// Returns `task`'s compiled sketch objectives: each sketch is looked
    /// up in the tape cache by bucket and exact fingerprint, and built (in
    /// parallel over sketches — each build is deterministic and
    /// independent) and inserted on a miss. Reports builds
    /// (`cache_misses`), hits and stale evictions into `stats`.
    ///
    /// The fingerprint covers every pool constant, so two tasks whose
    /// sketches share names but differ in extents (two dense layers
    /// differing only in the reduction size) never share an objective.
    fn objectives_for(
        &self,
        task: &SearchTask,
        pipeline: PipelineOptions,
        threads: usize,
        stats: &mut TunerStats,
    ) -> Vec<Arc<SketchObjective>> {
        let cache = &self.tape_cache;
        let found = parallel_map(task.sketches.len(), threads, |i| {
            let sk = &task.sketches[i];
            let bucket = sketch_bucket(sk.name, sk.program.sched_vars.len());
            let fp = objective_fingerprint(&sk.program, &sk.features.exprs, pipeline);
            match cache.lookup(bucket, fp) {
                TapeLookup::Hit(obj) => (obj, true, false),
                outcome => {
                    let obj = Arc::new(SketchObjective::build_with(
                        &sk.program,
                        &sk.features.exprs,
                        pipeline,
                    ));
                    cache.insert(bucket, fp, obj.clone());
                    (obj, false, matches!(outcome, TapeLookup::Stale))
                }
            }
        });
        let mut objs = Vec::with_capacity(found.len());
        for (obj, hit, stale) in found {
            stats.tape_cache_hits += usize::from(hit);
            stats.cache_misses += usize::from(!hit);
            stats.tape_cache_stale += usize::from(stale);
            stats.pool_nodes += obj.program.pool.len();
            stats.tape_nodes += obj.tape.len();
            stats.tape_compile_s += obj.tape_compile_s;
            objs.push(obj);
        }
        objs
    }
}

/// Tape-evaluates and batch-predicts `cands`, in parallel chunks. Chunk
/// results are concatenated in index order and every batch row is
/// bit-identical to a scalar `predict`, so the scores do not depend on the
/// thread count.
fn score_candidates(
    task: &SearchTask,
    model: &Mlp,
    threads: usize,
    cands: &[(usize, Vec<f64>)],
) -> Vec<f64> {
    let n_chunks = cands.len().div_ceil(SCORE_CHUNK);
    parallel_map(n_chunks, threads, |ci| {
        let chunk = &cands[ci * SCORE_CHUNK..((ci + 1) * SCORE_CHUNK).min(cands.len())];
        let mut scratch = Vec::new();
        let feats: Vec<Vec<f64>> = chunk
            .iter()
            .map(|(sk, x)| {
                let st = &task.sketches[*sk];
                log_transform(&st.eval_features(x, &mut scratch))
            })
            .collect();
        model.predict_batch(&feats)
    })
    .concat()
}

/// Runs `f`, catching panics when supervision is `enabled` (returning
/// `false` on a caught panic). With supervision off, panics propagate
/// exactly as before the supervisor existed.
fn run_guarded(enabled: bool, f: impl FnOnce()) -> bool {
    if !enabled {
        f();
        return true;
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_ok()
}

/// Restarts one seed from its dedicated RNG substream: a fresh random
/// schedule drawn from `restart_stream(salt, global_idx, restart_count)`
/// and a fresh Adam state with the learning rate backed off by
/// `trust_backoff^restarts` (a shrinking trust region). Never touches the
/// master RNG, so seeds that don't restart are unaffected. Freezes the
/// seed instead when its restart budget is spent.
#[allow(clippy::too_many_arguments)]
fn restart_seed(
    seed: &mut Seed,
    task: &SearchTask,
    objectives: &[Arc<SketchObjective>],
    sup: &SupervisorOptions,
    base_lr: f64,
    salt: u64,
    global_idx: usize,
    health: &mut ChunkHealth,
) {
    if !seed.health.consume_restart(sup.restart_budget) {
        return;
    }
    health.seed_restarts += 1;
    let stream = restart_stream(salt, global_idx, seed.health.restarts);
    let mut srng = StdRng::seed_from_u64(stream);
    let st = &task.sketches[seed.sketch];
    let x = felix_cost::random_schedule(&st.program, &mut srng, 64);
    seed.y = objectives[seed.sketch].to_y_space(&x);
    let lr = base_lr * sup.trust_backoff.powi(seed.health.restarts as i32);
    let nv = seed.y.len();
    seed.opt = AdamOpt::new(nv, lr);
}

/// Runs the full Adam descent for one worker's seeds. Seeds are grouped by
/// sketch (stable first-seen order); per step each group runs ONE batched
/// forward tape sweep across its lanes, the chunk makes ONE matrix-shaped
/// MLP call over all features (in seed order), then each group runs ONE
/// batched reverse sweep and the Adam updates apply per seed. All scratch
/// buffers live outside the step loop, so steady state allocates only the
/// per-step score/history rows. Lane layout never changes accumulation
/// order, so scores and trajectories are bit-identical to a serial
/// seed-at-a-time descent. Returns per-step predicted scores, `(sketch, y)`
/// trajectory snapshots (both in seed order), and the chunk's supervision
/// counters.
///
/// With supervision enabled, every step of every lane is health-checked
/// (non-finite objective/gradient/tape roots, monotone divergence,
/// gradient-norm clip) and each sketch group's tape work runs inside a
/// panic-isolation boundary: a panicking sketch is poisoned — its lanes
/// freeze and their feature rows zero-fill so the shared MLP batch keeps
/// its shape — while every other sketch's descent continues untouched.
/// `base` is the chunk's first global seed index (chunks are contiguous,
/// so `base + i` is thread-count invariant), used to derive restart RNG
/// substreams.
#[allow(clippy::type_complexity, clippy::too_many_lines, clippy::too_many_arguments)]
fn descend_chunk(
    objectives: &[Arc<SketchObjective>],
    task: &SearchTask,
    model: &Mlp,
    opts: &FelixOptions,
    modes: &[SketchMode],
    salt: u64,
    base: usize,
    seeds: &mut [Seed],
) -> (Vec<Vec<f64>>, Vec<Vec<(usize, Vec<f64>)>>, ChunkHealth) {
    let sup = opts.supervisor;
    let mut health = ChunkHealth::default();
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, s) in seeds.iter().enumerate() {
        match groups.iter_mut().find(|(sk, _)| *sk == s.sketch) {
            Some((_, lanes)) => lanes.push(i),
            None => groups.push((s.sketch, vec![i])),
        }
    }
    if sup.enabled {
        for (sk, lanes) in &groups {
            health.sketch_mut(*sk).lanes += lanes.len();
        }
    }
    let mut poisoned = vec![false; groups.len()];
    let mut scratches: Vec<EvalScratch> = vec![EvalScratch::default(); groups.len()];
    // Feature matrix, feature-major (`feats_t[k * n_seeds + i]` is seed
    // `i`'s feature `k`): the transposed extraction pass writes contiguous
    // root rows into it, and the batched MLP kernels — whose internal
    // activations use the same layout — consume it without reshaping.
    let mut feats_t: Vec<f64> = vec![0.0; FEATURE_COUNT * seeds.len()];
    let mut grad: Vec<f64> = Vec::new();
    let mut pen: Vec<f64> = vec![0.0; seeds.len()];
    // Tape-level finiteness verdicts, derived for free inside
    // `write_feats_cols`/`seed_penalties_all` (which already read every
    // root) — a
    // standalone root scan per lane per step costs a cache-hostile pass
    // over the tape values and blows the supervision overhead budget.
    let mut feat_ok: Vec<bool> = vec![true; seeds.len()];
    let mut pen_ok: Vec<bool> = vec![true; seeds.len()];
    // MLP arena: the flat batched kernels reuse these across all steps, so
    // the per-step cost-model call allocates nothing in steady state.
    let mut mlp_scratch = MlpScratch::default();
    let mut mlp_scores: Vec<f64> = Vec::new();
    let mut mlp_grads: Vec<f64> = Vec::new();
    let mut scores = Vec::with_capacity(opts.n_steps);
    let mut history = Vec::with_capacity(opts.n_steps);
    for step in 0..opts.n_steps {
        for (gi, ((sk, lanes), scratch)) in groups.iter().zip(&mut scratches).enumerate() {
            if poisoned[gi] {
                continue;
            }
            let obj = &objectives[*sk];
            let seeds_ro: &[Seed] = seeds;
            let ok = run_guarded(sup.enabled, || {
                if step == 0 && sup.inject_panic_sketch == Some(*sk) {
                    panic!("injected descent panic (sketch {sk})");
                }
                obj.begin_batch(scratch, lanes.len());
                for (lane, &i) in lanes.iter().enumerate() {
                    obj.set_lane(scratch, lane, &seeds_ro[i].y);
                }
                obj.forward_batch(scratch);
                // Feature extraction transposed over all lanes (roots
                // outer, lanes inner), straight into the feature-major
                // MLP input.
                obj.write_feats_cols(scratch, lanes, seeds_ro.len(), &mut feats_t, |lane, ok| {
                    feat_ok[lanes[lane]] = ok;
                });
            });
            if !ok {
                poisoned[gi] = true;
                health.panics_caught += 1;
                health.sketch_mut(*sk).poisoned = true;
                for k in 0..FEATURE_COUNT {
                    for &i in lanes {
                        feats_t[k * seeds.len() + i] = 0.0;
                    }
                }
            }
        }
        model.input_gradient_batch_cols(
            &feats_t,
            seeds.len(),
            &mut mlp_scratch,
            &mut mlp_scores,
            &mut mlp_grads,
        );
        let mut step_scores = vec![0.0; seeds.len()];
        for (gi, ((sk, lanes), scratch)) in groups.iter().zip(&mut scratches).enumerate() {
            let obj = &objectives[*sk];
            if poisoned[gi] {
                for &i in lanes {
                    step_scores[i] = mlp_scores[i];
                }
                continue;
            }
            let ok = run_guarded(sup.enabled, || {
                for &i in lanes.iter() {
                    step_scores[i] = mlp_scores[i];
                }
                // Feature seeding straight from the feature-major MLP
                // gradient buffer (roots outer, lanes inner; contiguous
                // lane runs are pure row sweeps).
                obj.seed_feats_cols(scratch, lanes, seeds.len(), &mlp_grads);
                // Penalty seeding batched over all lanes (roots outer,
                // lanes inner).
                obj.seed_penalties_all(scratch, opts.lambda, |lane, p, ok| {
                    let i = lanes[lane];
                    pen[i] = p;
                    pen_ok[i] = ok;
                });
                obj.backward_batch(scratch);
                for (lane, &i) in lanes.iter().enumerate() {
                    if sup.enabled && seeds[i].health.exhausted {
                        continue;
                    }
                    obj.grad_lane(scratch, lane, &mut grad);
                    if sup.enabled {
                        // Minimized objective: O = -score + λ·penalty. The
                        // squared gradient norm doubles as the finiteness
                        // probe (a NaN/Inf component poisons the sum) and
                        // as the clip test below — one pass over the
                        // gradient covers both.
                        let obj_val = -step_scores[i] + pen[i];
                        let norm_sq = grad.iter().map(|g| g * g).sum::<f64>();
                        let finite = obj_val.is_finite()
                            && norm_sq.is_finite()
                            && feat_ok[i]
                            && pen_ok[i];
                        if !finite {
                            health.nonfinite_events += 1;
                            health.sketch_mut(*sk).events += 1;
                            restart_seed(
                                &mut seeds[i], task, objectives, &sup, opts.lr, salt,
                                base + i, &mut health,
                            );
                            continue;
                        }
                        if seeds[i].health.note_objective(
                            obj_val, sup.window, sup.divergence_min_rise,
                        ) {
                            health.divergence_events += 1;
                            health.sketch_mut(*sk).events += 1;
                            restart_seed(
                                &mut seeds[i], task, objectives, &sup, opts.lr, salt,
                                base + i, &mut health,
                            );
                            continue;
                        }
                        let clip = if modes[*sk] == SketchMode::ClippedGradient {
                            sup.clipped_grad_clip
                        } else {
                            sup.grad_clip
                        };
                        if norm_sq > clip * clip {
                            let scale = clip / norm_sq.sqrt();
                            for g in &mut grad {
                                *g *= scale;
                            }
                            health.grad_clips += 1;
                            health.sketch_mut(*sk).events += 1;
                        }
                    }
                    seeds[i].opt.step(&mut seeds[i].y, &grad);
                }
            });
            if !ok {
                poisoned[gi] = true;
                health.panics_caught += 1;
                health.sketch_mut(*sk).poisoned = true;
                for k in 0..FEATURE_COUNT {
                    for &i in lanes {
                        feats_t[k * seeds.len() + i] = 0.0;
                    }
                }
            }
        }
        scores.push(step_scores);
        history.push(seeds.iter().map(|s| (s.sketch, s.y.clone())).collect());
    }
    if sup.enabled {
        for (sk, lanes) in &groups {
            let ex = lanes.iter().filter(|&&i| seeds[i].health.exhausted).count();
            health.sketch_mut(*sk).exhausted_lanes += ex;
        }
    }
    (scores, history, health)
}

impl Default for GradientProposer {
    fn default() -> Self {
        Self::new(FelixOptions::default())
    }
}

impl Proposer for GradientProposer {
    fn name(&self) -> &'static str {
        "felix-gradient"
    }

    #[allow(clippy::too_many_lines)]
    fn propose(
        &mut self,
        task: &SearchTask,
        model: &Mlp,
        n: usize,
        clock: &mut TuningClock,
        costs: &ClockCosts,
        rng: &mut StdRng,
    ) -> Vec<(usize, Vec<f64>)> {
        let opts = self.options;
        let sup = opts.supervisor;
        let threads = effective_threads(opts.threads);
        let mut stats = TunerStats { threads, ..TunerStats::default() };
        let objectives = self.objectives_for(task, opts.pipeline, threads, &mut stats);

        // --- Supervision state ---------------------------------------------
        // The task's per-sketch modes (degradation ladder position) gate
        // which sketches still descend by gradient. Sketches whose compiled
        // tape is pathological (non-finite at the neutral point) are routed
        // to the evolutionary fallback outright — descending them would only
        // burn the restart budget. With supervision off the ladder is
        // ignored and the loop is exactly the pre-supervisor search.
        let modes: Vec<SketchMode> = if sup.enabled {
            task.sketch_modes().to_vec()
        } else {
            vec![SketchMode::Gradient; task.sketches.len()]
        };
        let mut pathological: Vec<usize> = Vec::new();
        if sup.enabled {
            for (i, o) in objectives.iter().enumerate() {
                if o.pathological && modes[i].uses_gradient() && !task.is_quarantined(i) {
                    pathological.push(i);
                }
            }
        }

        // --- Seed initialization -------------------------------------------
        // Warm-start half the seeds from the best schedules measured in
        // earlier rounds (local refinement); the remaining slots explore,
        // each starting from the best-predicted of SEED_INIT_DRAWS random
        // draws. Exploration slots use per-slot StdRng streams whose seeds
        // are drawn from the master RNG serially, so slot initialization can
        // run on the pool without perturbing any other random draw.
        // Quarantined sketches (persistent measurement failures) and
        // degraded sketches (evolutionary mode or pathological tape) are
        // skipped by warm starts and exploration slots. With nothing
        // quarantined or degraded the gradient-eligible list is the identity
        // permutation, so every RNG draw matches the supervision-unaware
        // search bit for bit.
        let active = task.active_sketches();
        let gd_active: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&s| modes[s].uses_gradient() && !pathological.contains(&s))
            .collect();
        let evo_active: Vec<usize> = active
            .iter()
            .copied()
            .filter(|s| !gd_active.contains(s))
            .collect();
        let mut elites: Vec<&(usize, Vec<f64>, f64)> = task
            .measured
            .iter()
            .filter(|(sk, _, _)| gd_active.contains(sk))
            .collect();
        elites.sort_by(|a, b| total_cmp_nan_last(&a.2, &b.2));
        let n_warm = (opts.n_seeds / 2).min(elites.len());
        let mut seeds: Vec<Seed> = Vec::with_capacity(opts.n_seeds);
        for e in elites.iter().take(n_warm) {
            let y = objectives[e.0].to_y_space(&e.1);
            let nv = y.len();
            seeds.push(Seed {
                sketch: e.0,
                y,
                opt: AdamOpt::new(nv, opts.lr),
                health: SeedHealth::default(),
            });
        }
        // Schedule-cache warm hints fill whatever warm slots the elites left
        // (a task with measurements ignores hints — its own history wins).
        // Hints consume no RNG: with none set, `slots` below starts at the
        // same index with the same master-RNG position, so a hint-free task
        // is byte-identical to a cache-unaware run.
        for (sketch, x) in &task.warm_hints {
            if seeds.len() >= (opts.n_seeds / 2).max(1) {
                break;
            }
            if !gd_active.contains(sketch)
                || x.len() != task.sketches[*sketch].program.vars.len()
                || !task.sketches[*sketch].program.constraints_ok(x, 1e-9)
            {
                continue;
            }
            let y = objectives[*sketch].to_y_space(x);
            let nv = y.len();
            seeds.push(Seed {
                sketch: *sketch,
                y,
                opt: AdamOpt::new(nv, opts.lr),
                health: SeedHealth::default(),
            });
        }
        let slots: Vec<(usize, u64)> = if gd_active.is_empty() {
            Vec::new()
        } else {
            (seeds.len()..opts.n_seeds)
                .map(|i| (gd_active[i % gd_active.len()], rng.gen::<u64>()))
                .collect()
        };
        let inits: Vec<Vec<f64>> = parallel_map(slots.len(), threads, |j| {
            let (sketch, stream) = slots[j];
            let mut srng = StdRng::seed_from_u64(stream);
            let st = &task.sketches[sketch];
            let cands: Vec<Vec<f64>> = (0..SEED_INIT_DRAWS)
                .map(|_| felix_cost::random_schedule(&st.program, &mut srng, 64))
                .collect();
            let mut scratch = Vec::new();
            let feats: Vec<Vec<f64>> = cands
                .iter()
                .map(|x| log_transform(&st.eval_features(x, &mut scratch)))
                .collect();
            let scores = model.predict_batch(&feats);
            let best = scores
                .iter()
                .enumerate()
                .max_by(|a, b| total_cmp_desc_nan_last(b.1, a.1))
                .map_or(0, |(i, _)| i);
            cands.into_iter().nth(best).expect("SEED_INIT_DRAWS >= 1")
        });
        clock.charge_batched_predictions(slots.len() * SEED_INIT_DRAWS, costs);
        for ((sketch, _), x) in slots.iter().zip(inits) {
            let y = objectives[*sketch].to_y_space(&x);
            let nv = y.len();
            seeds.push(Seed {
                sketch: *sketch,
                y,
                opt: AdamOpt::new(nv, opts.lr),
                health: SeedHealth::default(),
            });
        }

        // --- Adam descent, recording the whole trajectory (line 15-19) -----
        // Seeds are split into one contiguous chunk per worker; each worker
        // runs its chunk's descent in lockstep with one batched MLP call per
        // step. Chunks are merged back in seed order, so the trace and
        // trajectory are identical to a serial, fully-batched run.
        let n_live = seeds.len();
        for _ in 0..opts.n_steps {
            clock.charge_gradient_step(n_live, costs);
        }
        let salt = restart_salt(&task.name, task.rounds);
        let workers = threads.min(n_live).max(1);
        let chunk_size = n_live.div_ceil(workers).max(1);
        let descent_start = std::time::Instant::now();
        let chunks: Vec<Mutex<Vec<Seed>>> = {
            let mut chunks = Vec::with_capacity(workers);
            let mut rest = seeds;
            while !rest.is_empty() {
                let tail = rest.split_off(chunk_size.min(rest.len()));
                chunks.push(Mutex::new(rest));
                rest = tail;
            }
            chunks
        };
        let per_chunk = parallel_map(chunks.len(), threads, |ci| {
            let mut chunk_seeds =
                std::mem::take(&mut *chunks[ci].lock().expect("chunk slot"));
            descend_chunk(
                &objectives,
                task,
                model,
                &opts,
                &modes,
                salt,
                ci * chunk_size,
                &mut chunk_seeds,
            )
        });
        let descent_s = descent_start.elapsed().as_secs_f64();
        stats.grad_steps = n_live * opts.n_steps;
        stats.steps_per_sec = stats.grad_steps as f64 / descent_s.max(1e-12);
        let mut history: Vec<(usize, Vec<f64>)> =
            Vec::with_capacity(n_live * opts.n_steps);
        for step in 0..opts.n_steps {
            for (scores, hist, _) in &per_chunk {
                self.trace.extend_from_slice(&scores[step]);
                history.extend(hist[step].iter().cloned());
            }
        }

        // --- Health accounting ---------------------------------------------
        // Chunk counters merge in chunk order (deterministic at any thread
        // count: chunks are contiguous seed ranges). The per-round deadline
        // watchdog charges wall-clock overrun to the simulated tuning clock
        // so a stalling descent pays for its time on the curve.
        let mut merged = ChunkHealth::default();
        for (_, _, h) in &per_chunk {
            merged.merge(h);
        }
        let mut deadline_overrun = 0.0;
        if sup.enabled && descent_s > sup.deadline_s {
            deadline_overrun = descent_s - sup.deadline_s;
            clock.advance(deadline_overrun);
        }
        let mut health = HealthReport {
            nonfinite_events: merged.nonfinite_events,
            divergence_events: merged.divergence_events,
            seed_restarts: merged.seed_restarts,
            grad_clips: merged.grad_clips,
            panics_caught: merged.panics_caught,
            deadline_overrun_s: deadline_overrun,
            ..HealthReport::default()
        };
        for s in &merged.sketches {
            if s.poisoned {
                health.poisoned_sketches.push(s.sketch);
            } else if s.lanes > 0 && s.exhausted_lanes == s.lanes {
                health.exhausted_sketches.push(s.sketch);
            } else if modes[s.sketch] == SketchMode::ClippedGradient && s.events == 0 {
                health.recovered_sketches.push(s.sketch);
            }
        }
        health.pathological_sketches.clone_from(&pathological);
        health.exhausted_sketches.sort_unstable();
        health.poisoned_sketches.sort_unstable();
        health.recovered_sketches.sort_unstable();
        stats.seed_restarts = health.seed_restarts;
        stats.nonfinite_events = health.nonfinite_events;
        stats.panics_caught = health.panics_caught;
        stats.deadline_overrun_s = health.deadline_overrun_s;
        let flagged = health.degraded_sketches();
        stats.degraded_sketches = (0..task.sketches.len())
            .filter(|&i| modes[i] != SketchMode::Gradient || flagged.contains(&i))
            .count();
        self.health.merge(&health);

        // --- Round, validate, dedupe (line 20) ------------------------------
        // A BTreeMap keeps candidate order independent of hasher state, so
        // runs (and thread counts) are exactly reproducible.
        stats.candidates = history.len();
        let mut violations = 0usize;
        let mut duplicates = 0usize;
        let mut unique: BTreeMap<String, (usize, Vec<f64>)> = BTreeMap::new();
        for (sk, y) in history {
            let obj = &objectives[sk];
            let program = &task.sketches[sk].program;
            let x_relaxed = obj.to_x_space(&y, program.vars.len());
            let x = round_to_valid(program, &x_relaxed);
            if !program.constraints_ok(&x, 1e-9) {
                violations += 1;
                continue;
            }
            if task.already_measured(sk, &x) || unique.insert(format!("{sk}:{x:?}"), (sk, x)).is_some() {
                duplicates += 1;
            }
        }
        if stats.candidates > 0 {
            stats.penalty_violation_rate = violations as f64 / stats.candidates as f64;
            stats.rounding_rejection_rate = duplicates as f64 / stats.candidates as f64;
        }

        // --- Rank by predicted performance on the exact features (line 21),
        // via the compiled feature tapes, in parallel batches.
        let cands: Vec<(usize, Vec<f64>)> = unique.into_values().collect();
        let cand_scores = score_candidates(task, model, threads, &cands);
        clock.charge_batched_predictions(cands.len(), costs);
        let mut ranked: Vec<(f64, usize, Vec<f64>)> = cand_scores
            .into_iter()
            .zip(cands)
            .map(|(s, (sk, x))| (s, sk, x))
            .collect();
        ranked.sort_by(|a, b| total_cmp_desc_nan_last(&a.0, &b.0));

        // --- Discretization repair: nearest rounding can lose the relaxed
        // optimum badly when an axis has few factors (coarse lattice), so
        // also score the single factor-move lattice neighbors of the best
        // rounded candidates and fold them into the ranking (§3.3 rounds to
        // the nearest factor; the neighbors are the adjacent discretizations
        // of the same relaxed point). Mutations draw from the master RNG in
        // a fixed serial order; only their scoring fans out.
        let mut seen: std::collections::HashSet<String> = ranked
            .iter()
            .map(|(_, sk, x)| format!("{sk}:{x:?}"))
            .collect();
        let mut neighbors: Vec<(usize, Vec<f64>)> = Vec::new();
        for (_, sk, x) in ranked.iter().take(8).cloned().collect::<Vec<_>>() {
            let program = &task.sketches[sk].program;
            for _ in 0..24 {
                let nb = felix_cost::mutate_schedule(program, &x, rng, 4);
                let key = format!("{sk}:{nb:?}");
                if seen.contains(&key) || task.already_measured(sk, &nb) {
                    continue;
                }
                seen.insert(key);
                neighbors.push((sk, nb));
            }
        }
        let nb_scores = score_candidates(task, model, threads, &neighbors);
        clock.charge_batched_predictions(neighbors.len(), costs);
        ranked.extend(
            nb_scores
                .into_iter()
                .zip(neighbors)
                .map(|(s, (sk, x))| (s, sk, x)),
        );
        ranked.sort_by(|a, b| total_cmp_desc_nan_last(&a.0, &b.0));

        // Greedy diverse selection: the trajectory of one seed yields many
        // near-identical rounded schedules; measuring 16 of those wastes the
        // hardware budget. Walk the ranking and skip candidates too close
        // (in log-schedule space) to an already-selected one; relax the
        // radius if the pool runs dry.
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x.max(1.0).ln() - y.max(1.0).ln()).abs())
                .sum()
        };
        // Degraded sketches get a proportional slice of the measurement
        // budget, filled by the evolutionary fallback below; with nothing
        // degraded the gradient path keeps the whole budget (n_gd == n) and
        // the selection is exactly the supervision-unaware one.
        let n_evo = if evo_active.is_empty() {
            0
        } else {
            ((n * evo_active.len()) / task.sketches.len()).clamp(1, n)
        };
        let n_gd = n - n_evo;
        let mut out: Vec<(usize, Vec<f64>)> = Vec::with_capacity(n);
        for radius in [1.4, 0.7, 0.0] {
            for (_, sk, x) in &ranked {
                if out.len() >= n_gd {
                    break;
                }
                let dup = out.iter().any(|(s, v)| {
                    s == sk && (v == x || dist(v, x) <= radius)
                });
                if !dup {
                    out.push((*sk, x.clone()));
                }
            }
            if out.len() >= n_gd {
                break;
            }
        }

        // --- Evolutionary fallback for degraded sketches --------------------
        // Sketches that fell off the gradient ladder (evolutionary mode or
        // pathological tape) still get measured: a fresh evolutionary
        // proposer searches just those sketches for their budget slice.
        if n_evo > 0 {
            let mut evo = EvolutionaryProposer::new(EvolutionConfig {
                population: 128,
                generations: 2,
                ..Default::default()
            });
            let evo_cands =
                evo.propose_for_sketches(task, model, n_evo, clock, costs, rng, &evo_active);
            for (sk, x) in evo_cands {
                if out.len() >= n {
                    break;
                }
                if !out.iter().any(|(s, v)| *s == sk && *v == x) {
                    out.push((sk, x));
                }
            }
        }
        self.stats.push(stats);
        out
    }

    fn take_prediction_trace(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.trace)
    }

    fn take_stats(&mut self) -> Vec<TunerStats> {
        std::mem::take(&mut self.stats)
    }

    fn take_health(&mut self) -> HealthReport {
        std::mem::take(&mut self.health)
    }

    fn note_measurement(&mut self, report: &felix_ansor::RoundReport) {
        // Fold the measurement outcome into the stats record `propose`
        // pushed for this round, so one `TunerStats` entry tells the whole
        // story of the round (search counters + fault counters).
        if let Some(stats) = self.stats.last_mut() {
            stats.measure_failures = report.failed;
            stats.measure_retries = report.retries;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felix_ansor::{tune_task_round, EvolutionaryProposer, TuneOptions};
    use felix_cost::{generate_dataset, pretrain, TrainConfig};
    use felix_graph::{Op, Subgraph, Task};
    use felix_sim::{DeviceConfig, Simulator};

    /// Pretraining dominates this suite's runtime, so every test shares one
    /// deterministic pretrained model (tests only read it or clone it).
    fn shared_model() -> &'static Mlp {
        static MODEL: std::sync::OnceLock<Mlp> = std::sync::OnceLock::new();
        MODEL.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0);
            let ds = generate_dataset(&DeviceConfig::a5000(), 6, 14, 5);
            let mut mlp = Mlp::new(&mut rng);
            pretrain(
                &mut mlp,
                &ds.samples,
                &TrainConfig { epochs: 10, batch_size: 64, lr: 1e-3, seed: 0, ..Default::default() },
            );
            mlp
        })
    }

    fn setup() -> (SearchTask, Mlp, Simulator) {
        let sim = Simulator::new(DeviceConfig::a5000());
        let task = SearchTask::from_task(
            &Task {
                subgraph: Subgraph { ops: vec![Op::Dense { m: 512, k: 512, n: 512 }] },
                weight: 1,
            },
            &sim,
        );
        (task, shared_model().clone(), sim)
    }

    fn quick_opts() -> FelixOptions {
        FelixOptions { n_seeds: 4, n_steps: 40, ..Default::default() }
    }

    #[test]
    fn proposes_valid_unmeasured_candidates() {
        let (task, model, _sim) = setup();
        let mut prop = GradientProposer::new(quick_opts());
        let mut clock = TuningClock::new();
        let costs = ClockCosts::default();
        let mut rng = StdRng::seed_from_u64(1);
        let cands = prop.propose(&task, &model, 8, &mut clock, &costs, &mut rng);
        assert!(!cands.is_empty(), "gradient search must yield candidates");
        for (sk, vals) in &cands {
            assert!(
                task.sketches[*sk].program.constraints_ok(vals, 1e-9),
                "invalid candidate {vals:?}"
            );
            // Every value is integral (rounded).
            assert!(vals.iter().all(|v| (v - v.round()).abs() < 1e-9));
        }
        assert!(clock.now_s() > 0.0);
    }

    #[test]
    fn nan_cost_model_does_not_panic_gradient_search() {
        // NaN predictions flood the descent trajectories and candidate
        // scores; seed selection, ranking, and elite sorting must all
        // tolerate them (the old `partial_cmp(..).expect(..)` comparators
        // aborted). No useful candidates are required — just no panic.
        let (task, _model, _sim) = setup();
        let mut rng = StdRng::seed_from_u64(13);
        let nan_model = {
            // Patch the (private) output-layer bias to NaN through the
            // serialized form; hidden-layer NaNs never reach the output
            // because the ReLU's `f32::max` swallows them.
            let mlp = Mlp::new(&mut rng);
            let mut bytes = Vec::new();
            mlp.save(&mut bytes).expect("save");
            let d = mlp.input_mean.len();
            let off = bytes.len() - 2 * (8 + 4 * d) - 4;
            bytes[off..off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
            Mlp::load(bytes.as_slice()).expect("load")
        };
        let mut prop = GradientProposer::new(FelixOptions {
            n_seeds: 2,
            n_steps: 10,
            ..Default::default()
        });
        let mut clock = TuningClock::new();
        let costs = ClockCosts::default();
        let cands = prop.propose(&task, &nan_model, 4, &mut clock, &costs, &mut rng);
        for (sk, vals) in &cands {
            assert!(task.sketches[*sk].program.constraints_ok(vals, 1e-9));
        }
    }

    #[test]
    fn descent_improves_predicted_score() {
        // The average predicted score of the population must improve from
        // the first steps to the last steps (Fig. 8's qualitative claim).
        let (task, model, _sim) = setup();
        let mut prop = GradientProposer::new(FelixOptions {
            n_seeds: 4,
            n_steps: 80,
            ..Default::default()
        });
        let mut clock = TuningClock::new();
        let costs = ClockCosts::default();
        let mut rng = StdRng::seed_from_u64(2);
        prop.propose(&task, &model, 8, &mut clock, &costs, &mut rng);
        let trace = prop.take_prediction_trace();
        assert_eq!(trace.len(), 4 * 80);
        let early: f64 = trace[..40].iter().sum::<f64>() / 40.0;
        let late: f64 = trace[trace.len() - 40..].iter().sum::<f64>() / 40.0;
        assert!(
            late > early + 0.1,
            "gradient descent should raise predicted score: {early} -> {late}"
        );
    }

    #[test]
    fn stats_record_descent_and_cache_behaviour() {
        let (task, model, _sim) = setup();
        let mut prop = GradientProposer::new(quick_opts());
        let mut clock = TuningClock::new();
        let costs = ClockCosts::default();
        let mut rng = StdRng::seed_from_u64(7);
        prop.propose(&task, &model, 8, &mut clock, &costs, &mut rng);
        prop.propose(&task, &model, 8, &mut clock, &costs, &mut rng);
        let stats = prop.take_stats();
        assert_eq!(stats.len(), 2);
        // First round builds every sketch objective, second serves them
        // from the proposer's tape cache.
        assert_eq!(stats[0].cache_misses, task.sketches.len());
        assert_eq!(stats[0].tape_cache_hits, 0);
        assert_eq!(stats[1].tape_cache_hits, task.sketches.len());
        assert_eq!(stats[1].cache_misses, 0);
        for s in &stats {
            assert_eq!(s.grad_steps, 4 * 40);
            assert!(s.steps_per_sec > 0.0);
            assert!(s.candidates > 0);
            assert!(s.threads >= 1);
            assert!((0.0..=1.0).contains(&s.penalty_violation_rate));
            assert!((0.0..=1.0).contains(&s.rounding_rejection_rate));
            assert!(!s.summary().is_empty());
        }
        assert!(prop.take_stats().is_empty(), "stats drain");
    }

    #[test]
    fn same_sketch_names_at_other_extents_build_their_own_objectives() {
        // Two dense layers differing only in the reduction size share
        // every sketch name; the tape cache's exact fingerprint must still
        // keep their objectives apart. The second task therefore builds its
        // own, and its round matches a fresh proposer's bit for bit.
        let (wide, model, sim) = setup();
        let narrow = SearchTask::from_task(
            &Task {
                subgraph: Subgraph { ops: vec![Op::Dense { m: 512, k: 256, n: 512 }] },
                weight: 1,
            },
            &sim,
        );
        let names = |t: &SearchTask| t.sketches.iter().map(|s| s.name).collect::<Vec<_>>();
        assert_eq!(names(&wide), names(&narrow));
        assert_ne!(wide.workload_key, narrow.workload_key);
        let costs = ClockCosts::default();
        let run = |prop: &mut GradientProposer| {
            let mut clock = TuningClock::new();
            let mut rng = StdRng::seed_from_u64(21);
            let cands = prop.propose(&narrow, &model, 8, &mut clock, &costs, &mut rng);
            (cands, prop.take_prediction_trace(), clock.now_s())
        };

        let mut shared = GradientProposer::new(quick_opts());
        let mut rng = StdRng::seed_from_u64(20);
        shared.propose(&wide, &model, 8, &mut TuningClock::new(), &costs, &mut rng);
        shared.take_prediction_trace();
        let (cands, trace, clock_s) = run(&mut shared);
        let stats = shared.take_stats();
        assert_eq!(stats[1].cache_misses, narrow.sketches.len());
        assert_eq!(stats[1].tape_cache_hits, 0);

        let (ref_cands, ref_trace, ref_clock) = run(&mut GradientProposer::new(quick_opts()));
        assert_eq!(cands, ref_cands);
        assert_eq!(trace.len(), ref_trace.len());
        for (a, b) in trace.iter().zip(&ref_trace) {
            assert_eq!(a.to_bits(), b.to_bits(), "trace not bit-identical");
        }
        assert_eq!(clock_s.to_bits(), ref_clock.to_bits());
    }

    #[test]
    fn parallel_search_is_bit_identical_to_serial() {
        // The determinism guarantee: with the same RNG seed, the proposer
        // returns byte-for-byte the same candidates, prediction trace, and
        // simulated clock at every thread count. Batched MLP rows are
        // bit-identical to scalar calls and all master-RNG draws happen in
        // a fixed serial order, so this holds exactly, not approximately.
        let (task, model, _sim) = setup();
        let costs = ClockCosts::default();
        let mut runs = Vec::new();
        for threads in [1, 2, 4] {
            let mut prop = GradientProposer::new(FelixOptions {
                threads,
                ..quick_opts()
            });
            let mut clock = TuningClock::new();
            let mut rng = StdRng::seed_from_u64(5);
            let cands = prop.propose(&task, &model, 8, &mut clock, &costs, &mut rng);
            let trace = prop.take_prediction_trace();
            runs.push((cands, trace, clock.now_s()));
        }
        let (ref_cands, ref_trace, ref_clock) = &runs[0];
        for (i, (cands, trace, clock_s)) in runs.iter().enumerate().skip(1) {
            assert_eq!(cands, ref_cands, "candidates differ at run {i}");
            assert_eq!(trace.len(), ref_trace.len());
            for (a, b) in trace.iter().zip(ref_trace) {
                assert_eq!(a.to_bits(), b.to_bits(), "trace not bit-identical");
            }
            assert_eq!(clock_s.to_bits(), ref_clock.to_bits(), "clock differs");
        }
    }

    #[test]
    fn felix_finds_good_schedules_with_few_measurements() {
        let (mut task, mut model, sim) = setup();
        let costs = ClockCosts::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut clock = TuningClock::new();
        let mut felix = GradientProposer::new(quick_opts());
        let opts = TuneOptions { measurements_per_round: 8, ..Default::default() };
        for _ in 0..2 {
            tune_task_round(
                &mut task, &mut felix, &mut model, &sim, &mut clock, &costs, &opts, &mut rng,
            );
        }
        // 16 measurements must already land within 3x of a competent expert
        // schedule (the vendor baseline without the vendor factor).
        let expert = {
            let st = &task.sketches[1];
            let vals = felix_sim::vendor::expert_values(&st.program, "multi-level-tiling");
            sim.latency_ms(&st.program, &st.features, &vals)
        };
        assert!(
            task.best_latency_ms < expert * 3.0,
            "felix best {} vs expert {expert}",
            task.best_latency_ms
        );
    }

    #[test]
    fn felix_converges_faster_than_evolution_per_candidate() {
        // Same number of measured candidates; Felix's measured set should be
        // at least competitive (paper: much better early).
        let (mut ftask, mut model, sim) = setup();
        let mut etask = ftask.clone();
        let costs = ClockCosts::default();
        let opts = TuneOptions { measurements_per_round: 8, update_model: false, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(4);
        let mut felix = GradientProposer::new(quick_opts());
        let mut fclock = TuningClock::new();
        tune_task_round(
            &mut ftask, &mut felix, &mut model, &sim, &mut fclock, &costs, &opts, &mut rng,
        );
        let mut evo = EvolutionaryProposer::new(felix_ansor::evolution::EvolutionConfig {
            population: 128,
            generations: 2,
            ..Default::default()
        });
        let mut eclock = TuningClock::new();
        tune_task_round(
            &mut etask, &mut evo, &mut model, &sim, &mut eclock, &costs, &opts, &mut rng,
        );
        assert!(
            ftask.best_latency_ms <= etask.best_latency_ms * 2.0,
            "felix {} vs evolution {}",
            ftask.best_latency_ms,
            etask.best_latency_ms
        );
    }
}
