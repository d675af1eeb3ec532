//! The learned cost model and its training infrastructure.
//!
//! Reimplements the TenSet MLP cost model (paper §4/§5): a 4-linear-layer
//! perceptron (~250K parameters) mapping log-transformed program features to
//! a performance score (`−ln latency`), trained once per device on a
//! synthetic dataset ([`dataset`]) and fine-tuned online during search.
//!
//! Unlike a framework-backed implementation, the forward pass, backward
//! pass, Adam optimizer, and — crucially for Felix — the **gradient with
//! respect to the inputs** are implemented from scratch, because Felix
//! chains `∂score/∂feature` into the reverse-mode sweep over the symbolic
//! feature formulas.
//!
//! Every production query runs one kernel pair over feature-major batches:
//! a batched forward ([`Mlp::predict_batch`], and inside training) and a
//! batched input-gradient backward ([`Mlp::input_gradient_batch_cols`],
//! the descent step). The scalar [`Mlp::predict`] and
//! [`Mlp::input_gradient`] are the reference each batched row is checked
//! against bit for bit.

pub mod dataset;
pub mod sampling;
pub mod trainer;
pub mod transfer;

pub use dataset::{generate_dataset, ingest_sample, Dataset, Sample};
pub use sampling::{crossover_schedules, mutate_schedule, random_schedule};
pub use trainer::{
    fine_tune, finite_sample_indices, nonfinite_sample_count, pretrain, TrainConfig,
};
pub use transfer::{
    pretrain_transfer, TransferBuilder, TransferDataset, TransferStats, TRANSFER_INIT_SEED,
};

use felix_features::FEATURE_COUNT;
use rand::Rng;

/// The layer widths of the cost model (4 linear layers, as in TenSet).
pub const LAYER_SIZES: [usize; 5] = [FEATURE_COUNT, 256, 256, 256, 1];

/// Ascending total order with every NaN ranked *after* every number.
///
/// The ranking sorts of the search pipeline use this instead of
/// `partial_cmp(..).expect(..)`: one NaN prediction from a diverging
/// fine-tune must lose the ranking, not abort the whole tuning run. For
/// non-NaN inputs this is `f64::total_cmp`, which agrees with `partial_cmp`
/// everywhere except the (harmless) `-0.0 < 0.0` tie-break.
pub fn total_cmp_nan_last(a: &f64, b: &f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.total_cmp(b),
    }
}

/// Descending total order with every NaN ranked *after* every number — the
/// "best score first" companion of [`total_cmp_nan_last`]. Note NaN sorts
/// last under both orders: it is ranked as the worst value, not mirrored.
pub fn total_cmp_desc_nan_last(a: &f64, b: &f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(a),
    }
}

/// Converts a measured latency to the training target score (higher =
/// faster).
pub fn latency_to_score(latency_ms: f64) -> f64 {
    -(latency_ms.max(1e-6)).ln()
}

/// Converts a predicted score back to a latency estimate in milliseconds.
pub fn score_to_latency(score: f64) -> f64 {
    (-score).exp()
}

/// Log-transforms a raw feature vector (`ln(1+f)`), the same transform the
/// symbolic pipeline applies (paper §3.3).
pub fn log_transform(raw: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    log_transform_into(raw, &mut out);
    out
}

/// [`log_transform`] into a caller-owned buffer (cleared first), so hot
/// scoring loops stay allocation-free.
pub fn log_transform_into(raw: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(raw.iter().map(|&x| (1.0 + x.max(-0.999_999)).ln()));
}

/// A fully-connected ReLU network with input normalization.
#[derive(Clone, Debug)]
pub struct Mlp {
    /// Row-major weight matrices, one per layer (`out x in`).
    w: Vec<Vec<f32>>,
    /// Bias vectors, one per layer.
    b: Vec<Vec<f32>>,
    /// Per-input-feature normalization mean (in log-feature space).
    pub input_mean: Vec<f32>,
    /// Per-input-feature normalization standard deviation.
    pub input_std: Vec<f32>,
}

fn layer_dims() -> Vec<(usize, usize)> {
    LAYER_SIZES.windows(2).map(|w| (w[1], w[0])).collect()
}

/// Reusable flat buffers for the batched MLP kernels, so the descent hot
/// loop runs one `input_gradient` batch per step without allocating.
///
/// All buffers are feature-major ("transposed"): `acts_t[layer][i * n + s]`
/// for batch size `n`. Create once, pass to
/// [`Mlp::input_gradient_batch_cols`] every step; buffers grow to the
/// high-water mark and stay there.
#[derive(Clone, Debug, Default)]
pub struct MlpScratch {
    /// Post-activation values per layer (layer 0 = normalized inputs).
    acts_t: Vec<Vec<f32>>,
    /// Current backward gradient, `[out_dim * n]` for the layer in flight.
    grad_t: Vec<f32>,
    /// Next layer's input gradient being accumulated, `[in_dim * n]`.
    gin_t: Vec<f32>,
}

impl Mlp {
    /// A randomly initialized model (He initialization).
    pub fn new(rng: &mut impl Rng) -> Self {
        let mut w = Vec::new();
        let mut b = Vec::new();
        for (out, inp) in layer_dims() {
            let scale = (2.0 / inp as f32).sqrt();
            w.push(
                (0..out * inp)
                    .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
                    .collect(),
            );
            b.push(vec![0.0; out]);
        }
        Mlp {
            w,
            b,
            input_mean: vec![0.0; FEATURE_COUNT],
            input_std: vec![1.0; FEATURE_COUNT],
        }
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.w.iter().map(Vec::len).sum::<usize>() + self.b.iter().map(Vec::len).sum::<usize>()
    }

    /// Fits the input normalization to a set of log-feature vectors.
    pub fn fit_normalization(&mut self, inputs: &[Vec<f64>]) {
        assert!(!inputs.is_empty(), "need at least one sample");
        let n = inputs.len() as f64;
        for k in 0..FEATURE_COUNT {
            let mean = inputs.iter().map(|x| x[k]).sum::<f64>() / n;
            let var = inputs.iter().map(|x| (x[k] - mean).powi(2)).sum::<f64>() / n;
            self.input_mean[k] = mean as f32;
            self.input_std[k] = (var.sqrt() as f32).max(1e-3);
        }
    }

    fn normalize(&self, logfeats: &[f64]) -> Vec<f32> {
        logfeats
            .iter()
            .enumerate()
            .map(|(k, &x)| (x as f32 - self.input_mean[k]) / self.input_std[k])
            .collect()
    }

    /// Forward pass caching pre-activations; returns (activations, score).
    fn forward_cached(&self, x: &[f32]) -> (Vec<Vec<f32>>, f64) {
        let mut acts: Vec<Vec<f32>> = vec![x.to_vec()];
        let n_layers = self.w.len();
        for (li, (w, b)) in self.w.iter().zip(&self.b).enumerate() {
            let inp = acts.last().expect("input activation");
            let out_dim = b.len();
            let in_dim = inp.len();
            let mut out = vec![0.0f32; out_dim];
            for o in 0..out_dim {
                let row = &w[o * in_dim..(o + 1) * in_dim];
                let mut acc = b[o];
                for (r, i) in row.iter().zip(inp.iter()) {
                    acc += r * i;
                }
                // ReLU on hidden layers only.
                out[o] = if li + 1 < n_layers { acc.max(0.0) } else { acc };
            }
            acts.push(out);
        }
        let score = acts.last().expect("output")[0] as f64;
        (acts, score)
    }

    /// Predicted performance score (higher = faster) for one log-feature
    /// vector.
    ///
    /// The scalar reference: production scoring runs the batched
    /// [`Mlp::predict_batch`], and the tests (and the pool-walking
    /// objective oracle, `cost_and_grad_pool`) check that path against this
    /// one bit for bit.
    pub fn predict(&self, logfeats: &[f64]) -> f64 {
        let x = self.normalize(logfeats);
        self.forward_cached(&x).1
    }

    /// The one batched forward pass, over a flat feature-major buffer
    /// (`feats_t[k * n + s]`, the layout the descent loop's transposed
    /// feature extraction writes). Fills `scratch.acts_t` (layer 0 =
    /// normalized inputs, `acts_t[layer][i * n + s]`) and returns the
    /// per-sample scores in `scores`.
    ///
    /// One weight traversal per layer for the whole batch, with output rows
    /// register-blocked four at a time so each input column load feeds four
    /// accumulator rows and the weight tile stays L1/L2-resident across
    /// the batch. Each sample's accumulation runs in exactly the order of
    /// [`Mlp::forward_cached`] — bias first, then ascending input index,
    /// one sequential chain per `(row, sample)` — so every result is
    /// bit-identical to the scalar path. Row blocking never reassociates a
    /// sum (the four rows have independent accumulators); batching buys
    /// locality, never a different answer. The tuner's serial/parallel
    /// equivalence guarantee rests on this.
    fn forward_batch_cols(
        &self,
        feats_t: &[f64],
        n: usize,
        scratch: &mut MlpScratch,
        scores: &mut Vec<f64>,
    ) {
        assert_eq!(feats_t.len(), FEATURE_COUNT * n, "feature buffer length");
        scores.clear();
        if n == 0 {
            return;
        }
        let n_layers = self.w.len();
        scratch.acts_t.resize_with(n_layers + 1, Vec::new);
        let x0 = &mut scratch.acts_t[0];
        x0.clear();
        x0.resize(FEATURE_COUNT * n, 0.0);
        for (i, (row, dst)) in
            feats_t.chunks_exact(n).zip(x0.chunks_exact_mut(n)).enumerate()
        {
            let (m, sd) = (self.input_mean[i], self.input_std[i]);
            for (d, &x) in dst.iter_mut().zip(row) {
                *d = (x as f32 - m) / sd;
            }
        }
        self.forward_layers(n, scratch, scores);
    }

    /// The layer sweeps of [`Mlp::forward_batch_cols`]; assumes
    /// `scratch.acts_t[0]` holds the normalized inputs.
    fn forward_layers(&self, n: usize, scratch: &mut MlpScratch, scores: &mut Vec<f64>) {
        let n_layers = self.w.len();
        for (li, (w, b)) in self.w.iter().zip(&self.b).enumerate() {
            let out_dim = b.len();
            let in_dim = w.len() / out_dim;
            let relu = li + 1 < n_layers;
            let (head, tail) = scratch.acts_t.split_at_mut(li + 1);
            let inp = &head[li];
            let out = &mut tail[0];
            debug_assert_eq!(inp.len(), in_dim * n);
            out.clear();
            out.resize(out_dim * n, 0.0);
            let mut o = 0;
            // Four-row register block: one input column load feeds four
            // independent accumulator rows.
            while o + 4 <= out_dim {
                let block = &mut out[o * n..(o + 4) * n];
                let (y0, rest) = block.split_at_mut(n);
                let (y1, rest) = rest.split_at_mut(n);
                let (y2, y3) = rest.split_at_mut(n);
                y0.fill(b[o]);
                y1.fill(b[o + 1]);
                y2.fill(b[o + 2]);
                y3.fill(b[o + 3]);
                for i in 0..in_dim {
                    let col = &inp[i * n..(i + 1) * n];
                    let c0 = w[o * in_dim + i];
                    let c1 = w[(o + 1) * in_dim + i];
                    let c2 = w[(o + 2) * in_dim + i];
                    let c3 = w[(o + 3) * in_dim + i];
                    for (s, &x) in col.iter().enumerate() {
                        y0[s] += c0 * x;
                        y1[s] += c1 * x;
                        y2[s] += c2 * x;
                        y3[s] += c3 * x;
                    }
                }
                if relu {
                    for y in block.iter_mut() {
                        *y = y.max(0.0);
                    }
                }
                o += 4;
            }
            while o < out_dim {
                let y = &mut out[o * n..(o + 1) * n];
                y.fill(b[o]);
                for i in 0..in_dim {
                    let col = &inp[i * n..(i + 1) * n];
                    let c = w[o * in_dim + i];
                    for (s, &x) in col.iter().enumerate() {
                        y[s] += c * x;
                    }
                }
                if relu {
                    for v in y.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                o += 1;
            }
        }
        let last = scratch.acts_t.last().expect("output layer");
        scores.clear();
        scores.extend(last[..n].iter().map(|&v| v as f64));
    }

    /// Batch prediction: packs the rows feature-major and runs the one
    /// batched forward; row `i` is bit-identical to
    /// `predict(&logfeats[i])`.
    pub fn predict_batch(&self, logfeats: &[Vec<f64>]) -> Vec<f64> {
        let mut scores = Vec::new();
        self.forward_rows(logfeats, &mut MlpScratch::default(), &mut scores);
        scores
    }

    /// [`Mlp::forward_batch_cols`] over sample-major rows, packed
    /// feature-major first.
    fn forward_rows(&self, rows: &[Vec<f64>], scratch: &mut MlpScratch, scores: &mut Vec<f64>) {
        let n = rows.len();
        let mut feats_t = vec![0.0; FEATURE_COUNT * n];
        for (s, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), FEATURE_COUNT, "feature vector length");
            for (k, &x) in row.iter().enumerate() {
                feats_t[k * n + s] = x;
            }
        }
        self.forward_batch_cols(&feats_t, n, scratch, scores);
    }

    /// Batched [`Mlp::input_gradient`] over one flat feature-major buffer
    /// (`feats_t[k * n + s]`): one weight traversal per layer in each
    /// direction, four-row register blocks in both sweeps. Fills `scores`
    /// (per sample) and `grads_t`, feature-major too
    /// (`grads_t[k * n + s]`), matching the backward sweep's internal
    /// layout so extraction is a pure contiguous rescale — consumers that
    /// seed gradient tapes row-by-root read it without a transpose.
    ///
    /// Sample `s` is bit-identical to `input_gradient` on the same
    /// sample's feature column: the backward accumulation per
    /// `(input, sample)` runs over ascending output rows as one sequential
    /// chain, and a zero-gated contribution adds `±0.0`, which cannot flip
    /// any accumulator bit (accumulators start at `+0.0` and finite
    /// additions never yield `-0.0`), so the reference's ReLU skip is
    /// unnecessary and the inner loops stay pure sweeps across samples.
    pub fn input_gradient_batch_cols(
        &self,
        feats_t: &[f64],
        n: usize,
        scratch: &mut MlpScratch,
        scores: &mut Vec<f64>,
        grads_t: &mut Vec<f64>,
    ) {
        grads_t.clear();
        self.forward_batch_cols(feats_t, n, scratch, scores);
        if n == 0 {
            return;
        }
        self.backward_input_gradients(n, scratch);
        let gfinal = &scratch.grad_t;
        debug_assert_eq!(gfinal.len(), FEATURE_COUNT * n);
        grads_t.resize(FEATURE_COUNT * n, 0.0);
        for (k, (row, src)) in grads_t.chunks_exact_mut(n).zip(gfinal.chunks_exact(n)).enumerate() {
            let sd = self.input_std[k];
            for (d, &gv) in row.iter_mut().zip(src) {
                // Undo normalization in f32 (as the scalar path does), then
                // widen.
                *d = (gv / sd) as f64;
            }
        }
    }

    /// The reverse sweeps of [`Mlp::input_gradient_batch_cols`]; assumes
    /// a forward pass has filled `scratch.acts_t`. Leaves the raw
    /// feature-major input gradients (pre-normalization-unscale, `f32`) in
    /// `scratch.grad_t`.
    fn backward_input_gradients(&self, n: usize, scratch: &mut MlpScratch) {
        let n_layers = self.w.len();
        // d(score)/d(out) = 1 for the single output unit.
        let g = &mut scratch.grad_t;
        g.clear();
        g.resize(n, 1.0);
        for li in (0..n_layers).rev() {
            let out_t = &scratch.acts_t[li + 1];
            let w = &self.w[li];
            let out_dim = self.b[li].len();
            let in_dim = w.len() / out_dim;
            // ReLU gate in place: hidden activations are stored post-ReLU,
            // so `act > 0` is the derivative gate (a NaN activation gates
            // to zero too, via the explicit `is_nan` arm). The final layer
            // is linear and passes through.
            let g = &mut scratch.grad_t;
            debug_assert_eq!(g.len(), out_dim * n);
            if li + 1 < n_layers {
                for (gv, &a) in g.iter_mut().zip(out_t.iter()) {
                    if a <= 0.0 || a.is_nan() {
                        *gv = 0.0;
                    }
                }
            }
            let gin = &mut scratch.gin_t;
            gin.clear();
            gin.resize(in_dim * n, 0.0);
            let mut o = 0;
            while o + 4 <= out_dim {
                let g0 = &g[o * n..(o + 1) * n];
                let g1 = &g[(o + 1) * n..(o + 2) * n];
                let g2 = &g[(o + 2) * n..(o + 3) * n];
                let g3 = &g[(o + 3) * n..(o + 4) * n];
                for i in 0..in_dim {
                    let c0 = w[o * in_dim + i];
                    let c1 = w[(o + 1) * in_dim + i];
                    let c2 = w[(o + 2) * in_dim + i];
                    let c3 = w[(o + 3) * in_dim + i];
                    let dst = &mut gin[i * n..(i + 1) * n];
                    for (s, d) in dst.iter_mut().enumerate() {
                        // Four sequential adds, ascending `o` — the same
                        // order as four separate output-row passes.
                        let mut acc = *d;
                        acc += g0[s] * c0;
                        acc += g1[s] * c1;
                        acc += g2[s] * c2;
                        acc += g3[s] * c3;
                        *d = acc;
                    }
                }
                o += 4;
            }
            while o < out_dim {
                let gr = &g[o * n..(o + 1) * n];
                for i in 0..in_dim {
                    let c = w[o * in_dim + i];
                    let dst = &mut gin[i * n..(i + 1) * n];
                    for (s, d) in dst.iter_mut().enumerate() {
                        *d += gr[s] * c;
                    }
                }
                o += 1;
            }
            std::mem::swap(&mut scratch.grad_t, &mut scratch.gin_t);
        }
    }

    /// Predicted score and its gradient with respect to the (log) features.
    ///
    /// This is the `∂C/∂feat` that Felix seeds the expression-DAG reverse
    /// sweep with (paper §3.4). The scalar reference: descent runs the
    /// batched [`Mlp::input_gradient_batch_cols`], and the tests (and the
    /// pool-walking objective oracle, `cost_and_grad_pool`) check that path
    /// against this one bit for bit.
    pub fn input_gradient(&self, logfeats: &[f64]) -> (f64, Vec<f64>) {
        let x = self.normalize(logfeats);
        let (acts, score) = self.forward_cached(&x);
        // Backward from d(score)/d(out) = 1.
        let mut grad = vec![1.0f32];
        let n_layers = self.w.len();
        for li in (0..n_layers).rev() {
            let inp = &acts[li];
            let out = &acts[li + 1];
            let in_dim = inp.len();
            let out_dim = out.len();
            let w = &self.w[li];
            // For hidden layers the stored activation is post-ReLU; the
            // derivative gate is act > 0. The final layer is linear.
            let gated: Vec<f32> = if li + 1 < n_layers {
                (0..out_dim)
                    .map(|o| if out[o] > 0.0 { grad[o] } else { 0.0 })
                    .collect()
            } else {
                grad.clone()
            };
            let mut gin = vec![0.0f32; in_dim];
            for o in 0..out_dim {
                if gated[o] == 0.0 {
                    continue;
                }
                let row = &w[o * in_dim..(o + 1) * in_dim];
                for i in 0..in_dim {
                    gin[i] += gated[o] * row[i];
                }
            }
            grad = gin;
        }
        // Undo normalization: d/d(logfeat) = d/d(x_norm) / std.
        let g = grad
            .iter()
            .enumerate()
            .map(|(k, &v)| (v / self.input_std[k]) as f64)
            .collect();
        (score, g)
    }

    /// One training forward+backward on a minibatch with MSE loss; returns
    /// the loss and accumulates parameter gradients into `gw`/`gb`.
    pub fn loss_and_param_grads(
        &self,
        inputs: &[Vec<f64>],
        targets: &[f64],
        gw: &mut [Vec<f32>],
        gb: &mut [Vec<f32>],
    ) -> f64 {
        // Forward once to get scores, derive MSE seeds, backprop.
        let mut scratch = MlpScratch::default();
        let mut scores = Vec::new();
        self.forward_rows(inputs, &mut scratch, &mut scores);
        let bs = inputs.len() as f64;
        let mut loss = 0.0;
        let seeds: Vec<f32> = scores
            .iter()
            .zip(targets)
            .map(|(s, t)| {
                let err = s - t;
                loss += err * err;
                (2.0 * err / bs) as f32
            })
            .collect();
        self.backprop_with_seeds(&scratch, inputs.len(), &seeds, gw, gb);
        loss / bs
    }

    /// Pairwise logistic ranking loss over the minibatch (TenSet's ranking
    /// objective): for every pair where `target_i > target_j`, penalize
    /// `log(1 + exp(−(score_i − score_j)))`. Returns the mean pair loss.
    pub fn rank_loss_and_param_grads(
        &self,
        inputs: &[Vec<f64>],
        targets: &[f64],
        gw: &mut [Vec<f32>],
        gb: &mut [Vec<f32>],
    ) -> f64 {
        let n = inputs.len();
        if n < 2 {
            return 0.0;
        }
        let mut scratch = MlpScratch::default();
        let mut scores = Vec::new();
        self.forward_rows(inputs, &mut scratch, &mut scores);
        let mut seeds = vec![0.0f64; n];
        let mut loss = 0.0;
        let mut pairs = 0usize;
        for i in 0..n {
            for j in 0..n {
                if targets[i] <= targets[j] {
                    continue;
                }
                let d = scores[i] - scores[j];
                loss += (1.0 + (-d).exp()).ln();
                // dL/dd = -sigmoid(-d).
                let g = -1.0 / (1.0 + d.exp());
                seeds[i] += g;
                seeds[j] -= g;
                pairs += 1;
            }
        }
        if pairs == 0 {
            return 0.0;
        }
        let seeds: Vec<f32> = seeds.iter().map(|s| (*s / pairs as f64) as f32).collect();
        self.backprop_with_seeds(&scratch, n, &seeds, gw, gb);
        loss / pairs as f64
    }

    /// Backpropagates per-sample output seeds into parameter gradients,
    /// reading each sample's activations from the batch-`n` forward pass
    /// that filled `scratch.acts_t`. Samples accumulate one at a time in
    /// batch order, so every parameter gradient sums in the same order as
    /// a per-sample scalar backward would. The layer-0 input gradient is
    /// never needed and never computed.
    fn backprop_with_seeds(
        &self,
        scratch: &MlpScratch,
        n: usize,
        seeds: &[f32],
        gw: &mut [Vec<f32>],
        gb: &mut [Vec<f32>],
    ) {
        let n_layers = self.w.len();
        let mut acts: Vec<Vec<f32>> = LAYER_SIZES.iter().map(|&d| vec![0.0; d]).collect();
        for (s, &seed) in seeds.iter().enumerate() {
            if seed == 0.0 {
                continue;
            }
            for (dst, src) in acts.iter_mut().zip(&scratch.acts_t) {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = src[i * n + s];
                }
            }
            let mut grad = vec![seed];
            for li in (0..n_layers).rev() {
                let inp = &acts[li];
                let out = &acts[li + 1];
                let in_dim = inp.len();
                let out_dim = out.len();
                let gated: Vec<f32> = if li + 1 < n_layers {
                    (0..out_dim)
                        .map(|o| if out[o] > 0.0 { grad[o] } else { 0.0 })
                        .collect()
                } else {
                    grad.clone()
                };
                for o in 0..out_dim {
                    if gated[o] == 0.0 {
                        continue;
                    }
                    gb[li][o] += gated[o];
                    let row = &mut gw[li][o * in_dim..(o + 1) * in_dim];
                    for i in 0..in_dim {
                        row[i] += gated[o] * inp[i];
                    }
                }
                if li == 0 {
                    break;
                }
                let w = &self.w[li];
                let mut gin = vec![0.0f32; in_dim];
                for o in 0..out_dim {
                    if gated[o] == 0.0 {
                        continue;
                    }
                    let row = &w[o * in_dim..(o + 1) * in_dim];
                    for i in 0..in_dim {
                        gin[i] += gated[o] * row[i];
                    }
                }
                grad = gin;
            }
        }
    }

    /// Zero-shaped gradient buffers matching the parameters.
    pub fn zero_grads(&self) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        (
            self.w.iter().map(|w| vec![0.0; w.len()]).collect(),
            self.b.iter().map(|b| vec![0.0; b.len()]).collect(),
        )
    }

    /// Applies an Adam update given gradient buffers.
    pub fn apply_adam(
        &mut self,
        gw: &[Vec<f32>],
        gb: &[Vec<f32>],
        adam: &mut AdamState,
        lr: f32,
    ) {
        adam.t += 1;
        let t = adam.t as f32;
        let bc1 = 1.0 - adam.beta1.powf(t);
        let bc2 = 1.0 - adam.beta2.powf(t);
        let mut idx = 0usize;
        let mut update = |p: &mut f32, g: f32, adam: &mut AdamState| {
            let m = &mut adam.m[idx];
            let v = &mut adam.v[idx];
            *m = adam.beta1 * *m + (1.0 - adam.beta1) * g;
            *v = adam.beta2 * *v + (1.0 - adam.beta2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + adam.eps);
            idx += 1;
        };
        for li in 0..self.w.len() {
            for (p, &g) in self.w[li].iter_mut().zip(&gw[li]) {
                update(p, g, adam);
            }
            for (p, &g) in self.b[li].iter_mut().zip(&gb[li]) {
                update(p, g, adam);
            }
        }
    }
}

impl Mlp {
    /// Serializes the model to a simple little-endian binary format.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let write_vec = |w: &mut W, v: &[f32]| -> std::io::Result<()> {
            w.write_all(&(v.len() as u64).to_le_bytes())?;
            for x in v {
                w.write_all(&x.to_le_bytes())?;
            }
            Ok(())
        };
        w.write_all(b"FELIXMLP")?;
        w.write_all(&(self.w.len() as u64).to_le_bytes())?;
        for (wi, bi) in self.w.iter().zip(&self.b) {
            write_vec(&mut w, wi)?;
            write_vec(&mut w, bi)?;
        }
        write_vec(&mut w, &self.input_mean)?;
        write_vec(&mut w, &self.input_std)?;
        Ok(())
    }

    /// Deserializes a model written by [`Mlp::save`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error on truncated or mismatched data.
    pub fn load<R: std::io::Read>(mut r: R) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let read_u64 = |r: &mut R| -> std::io::Result<u64> {
            let mut b = [0u8; 8];
            r.read_exact(&mut b)?;
            Ok(u64::from_le_bytes(b))
        };
        let read_vec = |r: &mut R| -> std::io::Result<Vec<f32>> {
            let n = read_u64(r)? as usize;
            if n > 100_000_000 {
                return Err(Error::new(ErrorKind::InvalidData, "vector too large"));
            }
            let mut out = Vec::with_capacity(n);
            let mut b = [0u8; 4];
            for _ in 0..n {
                r.read_exact(&mut b)?;
                out.push(f32::from_le_bytes(b));
            }
            Ok(out)
        };
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != b"FELIXMLP" {
            return Err(Error::new(ErrorKind::InvalidData, "bad magic"));
        }
        let n_layers = read_u64(&mut r)? as usize;
        if n_layers != LAYER_SIZES.len() - 1 {
            return Err(Error::new(ErrorKind::InvalidData, "layer count mismatch"));
        }
        let mut w = Vec::with_capacity(n_layers);
        let mut b = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            w.push(read_vec(&mut r)?);
            b.push(read_vec(&mut r)?);
        }
        let input_mean = read_vec(&mut r)?;
        let input_std = read_vec(&mut r)?;
        if input_mean.len() != FEATURE_COUNT || input_std.len() != FEATURE_COUNT {
            return Err(Error::new(ErrorKind::InvalidData, "normalization size"));
        }
        Ok(Mlp { w, b, input_mean, input_std })
    }
}

/// Adam optimizer state over a flat parameter vector.
#[derive(Clone, Debug)]
pub struct AdamState {
    /// First-moment estimates.
    pub m: Vec<f32>,
    /// Second-moment estimates.
    pub v: Vec<f32>,
    /// Step count.
    pub t: u64,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
}

impl AdamState {
    /// Zeroed state for `n` parameters.
    pub fn new(n: usize) -> Self {
        AdamState { m: vec![0.0; n], v: vec![0.0; n], t: 0, beta1: 0.9, beta2: 0.999, eps: 1e-8 }
    }

    /// Zeroed state sized for a model.
    pub fn for_model(mlp: &Mlp) -> Self {
        Self::new(mlp.num_params())
    }
}

/// A plain-`f64` Adam optimizer used for the *schedule variable* search
/// (Algorithm 1 line 14); kept separate from [`AdamState`] because the
/// schedule search minimizes over a handful of variables per seed.
#[derive(Clone, Debug)]
pub struct AdamOpt {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    /// Learning rate.
    pub lr: f64,
}

impl AdamOpt {
    /// New optimizer for `n` variables with learning rate `lr`.
    pub fn new(n: usize, lr: f64) -> Self {
        AdamOpt { m: vec![0.0; n], v: vec![0.0; n], t: 0, lr }
    }

    /// Applies one descent step in place given `grad` of the objective.
    pub fn step(&mut self, x: &mut [f64], grad: &[f64]) {
        let (b1, b2, eps) = (0.9, 0.999, 1e-8);
        self.t += 1;
        let bc1 = 1.0 - b1f(b1, self.t);
        let bc2 = 1.0 - b1f(b2, self.t);
        for i in 0..x.len() {
            let g = grad[i];
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            x[i] -= self.lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

fn b1f(b: f64, t: u64) -> f64 {
    b.powf(t as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn model_size_matches_tenset_scale() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&mut rng);
        // ~150-250K parameters (TenSet MLP is ~250K).
        assert!(mlp.num_params() > 100_000, "{}", mlp.num_params());
        assert!(mlp.num_params() < 400_000);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&mut rng);
        let x: Vec<f64> = (0..FEATURE_COUNT).map(|i| (i as f64 * 0.37).sin()).collect();
        let (score, grad) = mlp.input_gradient(&x);
        let eps = 1e-3;
        for k in [0usize, 7, 33, 81] {
            let mut xp = x.clone();
            xp[k] += eps;
            let hi = mlp.predict(&xp);
            xp[k] -= 2.0 * eps;
            let lo = mlp.predict(&xp);
            let num = (hi - lo) / (2.0 * eps);
            assert!(
                (grad[k] - num).abs() < 1e-2 * (1.0 + num.abs()),
                "k={k}: ad {} vs fd {num} (score {score})",
                grad[k]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_toy_function() {
        // Learn score = sum of first 4 log-features.
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&mut rng);
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..96 {
            let x: Vec<f64> = (0..FEATURE_COUNT).map(|_| rng.gen_range(-1.0..1.0)).collect();
            targets.push(x[0] + x[1] + x[2] + x[3]);
            inputs.push(x);
        }
        mlp.fit_normalization(&inputs);
        let mut adam = AdamState::for_model(&mlp);
        let (mut gw, mut gb) = mlp.zero_grads();
        let first_loss = mlp.loss_and_param_grads(&inputs, &targets, &mut gw, &mut gb);
        for _ in 0..40 {
            let (mut gw, mut gb) = mlp.zero_grads();
            mlp.loss_and_param_grads(&inputs, &targets, &mut gw, &mut gb);
            mlp.apply_adam(&gw, &gb, &mut adam, 1e-3);
        }
        let (mut gw2, mut gb2) = mlp.zero_grads();
        let final_loss = mlp.loss_and_param_grads(&inputs, &targets, &mut gw2, &mut gb2);
        assert!(
            final_loss < first_loss * 0.5,
            "loss {first_loss} -> {final_loss}"
        );
    }

    /// Runs `n` rows (values keyed by `salt`) through `predict_batch` and,
    /// packed feature-major, through `input_gradient_batch_cols` with
    /// `scratch`, and checks every row bitwise against scalar `predict` and
    /// `input_gradient`. The tuner's serial/parallel determinism guarantee
    /// requires every batch row to match the scalar path exactly, not
    /// approximately.
    fn assert_batch_matches_scalar(mlp: &Mlp, n: usize, salt: usize, scratch: &mut MlpScratch) {
        let batch: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                (0..FEATURE_COUNT)
                    .map(|i| ((s * 31 + i + salt) as f64 * 0.17).sin() * 3.0)
                    .collect()
            })
            .collect();
        let mut feats_t = vec![0.0; FEATURE_COUNT * n];
        for (s, x) in batch.iter().enumerate() {
            for (k, &v) in x.iter().enumerate() {
                feats_t[k * n + s] = v;
            }
        }
        let (mut scores, mut grads_t) = (Vec::new(), Vec::new());
        let predicted = mlp.predict_batch(&batch);
        mlp.input_gradient_batch_cols(&feats_t, n, scratch, &mut scores, &mut grads_t);
        assert_eq!(predicted.len(), n);
        assert_eq!(scores.len(), n);
        assert_eq!(grads_t.len(), FEATURE_COUNT * n);
        for (s, x) in batch.iter().enumerate() {
            let p = mlp.predict(x);
            assert_eq!(predicted[s].to_bits(), p.to_bits(), "n={n} row {s} predict");
            let (gs, gg) = mlp.input_gradient(x);
            assert_eq!(scores[s].to_bits(), gs.to_bits(), "n={n} row {s} grad score");
            for (k, g) in gg.iter().enumerate() {
                assert_eq!(
                    grads_t[k * n + s].to_bits(),
                    g.to_bits(),
                    "n={n} row {s} grad[{k}]"
                );
            }
        }
    }

    #[test]
    fn batched_paths_are_bit_identical_to_scalar() {
        // One `MlpScratch` serves every size, growing to 17 and shrinking
        // back to the empty batch, as the descent loop's does when seeds
        // drop out: stale high-water data must never leak into a smaller
        // batch.
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(&mut rng);
        let mut scratch = MlpScratch::default();
        for n in (1..=17).chain((0..17).rev()) {
            assert_batch_matches_scalar(&mlp, n, 7 * n, &mut scratch);
        }
    }

    #[test]
    fn mlp_scratch_reuse_across_batch_sizes_is_bit_identical() {
        // Irregular shrink/grow steps, as when poisoned seeds drop out and
        // warm-start rounds add seeds back.
        let mut rng = StdRng::seed_from_u64(11);
        let mlp = Mlp::new(&mut rng);
        let mut scratch = MlpScratch::default();
        for &n in &[5usize, 3, 8, 1] {
            assert_batch_matches_scalar(&mlp, n, 0, &mut scratch);
        }
    }

    #[test]
    fn feature_major_cols_path_is_bit_identical_to_scalar() {
        // A fresh scratch per call, at sizes on both sides of the SIMD lane
        // width, so each batch starts from cold buffers.
        let mut rng = StdRng::seed_from_u64(13);
        let mlp = Mlp::new(&mut rng);
        for &n in &[1usize, 7, 16, 17] {
            assert_batch_matches_scalar(&mlp, n, 13, &mut MlpScratch::default());
        }
    }

    #[test]
    fn batched_paths_handle_empty_and_singleton() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&mut rng);
        assert!(mlp.predict_batch(&[]).is_empty());
        for n in [0usize, 1] {
            assert_batch_matches_scalar(&mlp, n, 0, &mut MlpScratch::default());
        }
    }

    #[test]
    fn nan_aware_orders_rank_nan_last() {
        use std::cmp::Ordering;
        let mut asc = [2.0, f64::NAN, -1.0, 0.5];
        asc.sort_by(total_cmp_nan_last);
        assert_eq!(&asc[..3], &[-1.0, 0.5, 2.0]);
        assert!(asc[3].is_nan());
        let mut desc = [2.0, f64::NAN, -1.0, 0.5];
        desc.sort_by(total_cmp_desc_nan_last);
        assert_eq!(&desc[..3], &[2.0, 0.5, -1.0]);
        assert!(desc[3].is_nan());
        assert_eq!(total_cmp_nan_last(&f64::NAN, &f64::NAN), Ordering::Equal);
        // max_by with the swapped-argument descending order never picks NaN.
        let best = [f64::NAN, 1.0, f64::NAN, 3.0, 2.0]
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| total_cmp_desc_nan_last(&b.1, &a.1))
            .map(|(i, _)| i);
        assert_eq!(best, Some(3));
    }

    #[test]
    fn score_latency_round_trip() {
        for l in [0.01, 1.0, 250.0] {
            let s = latency_to_score(l);
            assert!((score_to_latency(s) - l).abs() / l < 1e-9);
        }
        // Faster latency = higher score.
        assert!(latency_to_score(0.1) > latency_to_score(10.0));
    }

    #[test]
    fn adam_opt_descends_quadratic() {
        // Minimize (x-3)^2 + (y+1)^2.
        let mut x = vec![0.0, 0.0];
        let mut opt = AdamOpt::new(2, 0.1);
        for _ in 0..300 {
            let g = vec![2.0 * (x[0] - 3.0), 2.0 * (x[1] + 1.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "{x:?}");
        assert!((x[1] + 1.0).abs() < 0.05, "{x:?}");
    }

    #[test]
    fn save_load_round_trips() {
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(&mut rng);
        let mut buf = Vec::new();
        mlp.save(&mut buf).expect("save to vec");
        let loaded = Mlp::load(buf.as_slice()).expect("load from vec");
        let x: Vec<f64> = (0..FEATURE_COUNT).map(|i| (i as f64).sin()).collect();
        assert_eq!(mlp.predict(&x), loaded.predict(&x));
        assert_eq!(loaded.num_params(), mlp.num_params());
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(Mlp::load(&b"NOTAMODEL"[..]).is_err());
        assert!(Mlp::load(&b"FELIXMLP"[..]).is_err());
    }

    #[test]
    fn normalization_standardizes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&mut rng);
        let inputs: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..FEATURE_COUNT).map(|_| rng.gen_range(5.0..15.0)).collect())
            .collect();
        mlp.fit_normalization(&inputs);
        assert!((mlp.input_mean[0] - 10.0).abs() < 1.0);
        assert!(mlp.input_std[0] > 1.0 && mlp.input_std[0] < 5.0);
    }
}
