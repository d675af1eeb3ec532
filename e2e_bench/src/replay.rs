//! Layer replays: for a layer reached only inside another layer, the
//! traced run calls that layer's public entry point directly, on the
//! workload's own sketches, features and batch widths, and reports the
//! per-call time. The caller scales it by the workload's call counts.

use felix::{EvalScratch, SketchObjective};
use felix_ansor::SearchTask;
use felix_cost::{log_transform_into, random_schedule, Mlp, MlpScratch, LAYER_SIZES};
use felix_features::FEATURE_COUNT;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Multiply-accumulates per MLP pass per point: `Σ in × out` over layers.
pub fn mlp_macs_per_pass() -> usize {
    LAYER_SIZES.windows(2).map(|w| w[0] * w[1]).sum()
}

/// A built objective with the sketch program it came from.
pub struct BuiltObjective {
    /// Index of the task in the workload's task list.
    pub task: usize,
    /// Sketch index within the task.
    pub sketch: usize,
    /// The compiled objective.
    pub objective: SketchObjective,
}

/// Builds every sketch objective of `tasks` with `SketchObjective::build`
/// (the default pipeline, as `FelixOptions::default()` uses), timing each
/// build. Returns the objectives and the per-build times in ms.
pub fn build_objectives(tasks: &[SearchTask]) -> (Vec<BuiltObjective>, Vec<f64>) {
    let mut out = Vec::new();
    let mut ms = Vec::new();
    for (ti, t) in tasks.iter().enumerate() {
        for (si, sk) in t.sketches.iter().enumerate() {
            let t0 = Instant::now();
            let objective = SketchObjective::build(&sk.program, &sk.features.exprs);
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.push(BuiltObjective {
                task: ti,
                sketch: si,
                objective,
            });
        }
    }
    (out, ms)
}

/// Per-point timings of one descent step's layers at a fixed chunk width.
#[derive(Clone, Copy, Debug, Default)]
pub struct DescentReplay {
    /// Tape forward pass plus feature extraction, µs per point.
    pub tape_fwd_us: f64,
    /// Gradient seeding plus tape backward pass, µs per point.
    pub tape_bwd_us: f64,
    /// `Mlp::input_gradient_batch_cols`, µs per point.
    pub mlp_grad_us: f64,
    /// MLP giga-multiply-accumulates per second (forward + input gradient).
    pub mlp_gmac_per_s: f64,
    /// f32 weight bytes the MLP call reads per point (forward + backward
    /// weight sweeps, divided by the batch).
    pub mlp_weight_bytes_per_point: f64,
}

/// Replays `iters` descent steps per objective at `width` lanes: the tape
/// forward pass with feature extraction (`forward_batch` +
/// `write_feats_cols`), the MLP input gradient
/// (`input_gradient_batch_cols`), and the backward pass (`seed_feats_cols`,
/// `seed_penalties_all`, `backward_batch`) — the calls `descend_chunk`
/// makes, in its layout. Starting points are random valid schedules.
pub fn descent(
    objectives: &[BuiltObjective],
    tasks: &[SearchTask],
    model: &Mlp,
    width: usize,
    iters: usize,
    seed: u64,
) -> DescentReplay {
    let mut rng = StdRng::seed_from_u64(seed);
    let cols: Vec<usize> = (0..width).collect();
    let mut scratch = EvalScratch::default();
    let mut mlp_scratch = MlpScratch::default();
    let mut feats_t = vec![0.0; FEATURE_COUNT * width];
    let (mut scores, mut grads) = (Vec::new(), Vec::new());
    let (mut fwd, mut mlp, mut bwd) = (0.0, 0.0, 0.0);
    let mut points = 0usize;
    for b in objectives {
        let obj = &b.objective;
        let program = &tasks[b.task].sketches[b.sketch].program;
        let ys: Vec<Vec<f64>> = (0..width)
            .map(|_| obj.to_y_space(&random_schedule(program, &mut rng, 64)))
            .collect();
        for _ in 0..iters {
            let t0 = Instant::now();
            obj.begin_batch(&mut scratch, width);
            for (lane, y) in ys.iter().enumerate() {
                obj.set_lane(&mut scratch, lane, y);
            }
            obj.forward_batch(&mut scratch);
            obj.write_feats_cols(&mut scratch, &cols, width, &mut feats_t, |_, _| {});
            let t1 = Instant::now();
            model.input_gradient_batch_cols(
                &feats_t,
                width,
                &mut mlp_scratch,
                &mut scores,
                &mut grads,
            );
            let t2 = Instant::now();
            obj.seed_feats_cols(&mut scratch, &cols, width, &grads);
            obj.seed_penalties_all(&mut scratch, 1.0, |_, _, _| {});
            obj.backward_batch(&mut scratch);
            let t3 = Instant::now();
            fwd += (t1 - t0).as_secs_f64();
            mlp += (t2 - t1).as_secs_f64();
            bwd += (t3 - t2).as_secs_f64();
            points += width;
        }
    }
    let per_point = |s: f64| {
        if points == 0 {
            0.0
        } else {
            s * 1e6 / points as f64
        }
    };
    let macs = 2.0 * mlp_macs_per_pass() as f64;
    DescentReplay {
        tape_fwd_us: per_point(fwd),
        tape_bwd_us: per_point(bwd),
        mlp_grad_us: per_point(mlp),
        mlp_gmac_per_s: if mlp > 0.0 {
            macs * points as f64 / mlp / 1e9
        } else {
            0.0
        },
        mlp_weight_bytes_per_point: 2.0 * mlp_macs_per_pass() as f64 * 4.0 / width as f64,
    }
}

/// Candidate-scoring timings.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScoringReplay {
    /// `SketchState::eval_features_into`, µs per candidate.
    pub eval_us: f64,
    /// `Mlp::predict_batch` at the scoring width (`Mlp::predict` at width
    /// 1), µs per point.
    pub predict_us: f64,
}

/// Replays candidate scoring: `per_sketch` random schedules per sketch of
/// every task go through `eval_features_into` (timed per candidate) and
/// `log_transform_into`, then through `predict_batch` in batches of
/// `width` rows (timed per batch). At width 1 the replay calls
/// `Mlp::predict`, the call the evolutionary proposer makes per candidate.
pub fn scoring(
    tasks: &[SearchTask],
    model: &Mlp,
    width: usize,
    per_sketch: usize,
    seed: u64,
) -> ScoringReplay {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut scratch, mut raw) = (Vec::new(), Vec::new());
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut eval_s = 0.0;
    for t in tasks {
        for sk in &t.sketches {
            for _ in 0..per_sketch {
                let vals = random_schedule(&sk.program, &mut rng, 32);
                let t0 = Instant::now();
                sk.eval_features_into(&vals, &mut scratch, &mut raw);
                eval_s += t0.elapsed().as_secs_f64();
                let mut row = Vec::with_capacity(raw.len());
                log_transform_into(&raw, &mut row);
                rows.push(row);
            }
        }
    }
    let mut predict_s = 0.0;
    for batch in rows.chunks(width.max(1)) {
        let t0 = Instant::now();
        if let [row] = batch {
            std::hint::black_box(model.predict(row));
        } else {
            std::hint::black_box(model.predict_batch(batch));
        }
        predict_s += t0.elapsed().as_secs_f64();
    }
    let n = rows.len().max(1) as f64;
    ScoringReplay {
        eval_us: eval_s * 1e6 / n,
        predict_us: predict_s * 1e6 / n,
    }
}
