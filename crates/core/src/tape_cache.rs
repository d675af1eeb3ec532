//! The cache of compiled sketch objectives (gradient tapes).
//!
//! Building a [`SketchObjective`] is the expensive, once-per-sketch part of
//! attaching the gradient proposer to a task: smoothing, exponential
//! substitution, equality-saturation simplification, and the tape compile
//! together cost orders of magnitude more than a descent step. Every
//! [`GradientProposer`](crate::GradientProposer) holds one of these caches
//! — its only objective cache, always on — and looks up each sketch every
//! round, so a task's later rounds reuse its objectives and two dense
//! layers with identical shapes in different subgraphs compile their tapes
//! once. Optimizers handed the same `Arc` share one cache.
//!
//! Keying is two-level, mirroring the schedule store's transfer scheme:
//!
//! - the **bucket** is the extent-free structural key from the
//!   [`structure_hash`](crate::cache::structure_hash) family — sketch name
//!   plus schedule-variable count — so candidate entries are found without
//!   scanning the whole cache;
//! - within a bucket, an **exact fingerprint** (FNV-1a over the sketch
//!   program's pool nodes with full constant bits, variables, buffers,
//!   stages, constraints, schedule-variable metadata, the feature roots,
//!   and the pipeline options) decides reuse. Constants carry the loop
//!   extents, so two structurally identical sketches at different sizes
//!   get different fingerprints and never share a tape.
//!
//! Objective builds are deterministic functions of exactly the
//! fingerprinted inputs, so serving a cached `Arc` is bit-identical to
//! rebuilding — the cache can never change a search result, only skip
//! redundant compiles (asserted by `tests/tape_cache.rs`).
//!
//! Entries are stamped with the live sketch-generator fingerprint
//! ([`generator_hash`]); a generator bump invalidates every cached tape
//! (counted as `stale`, then rebuilt), mirroring the schedule store's
//! staleness rule.

use crate::objective::{PipelineOptions, SketchObjective};
use felix_expr::{ENode, ExprId};
use felix_records::{fnv1a, FNV_OFFSET};
use felix_tir::sketch::generator_hash;
use felix_tir::Program;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A running [`fnv1a`] state, the repo-wide fingerprint hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }
    fn mix(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
    fn u64(&mut self, v: u64) {
        self.mix(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.mix(&v.to_le_bytes());
    }
}

/// The extent-free bucket key for one sketch: name + schedule-variable
/// count, the per-sketch analogue of [`crate::cache::structure_hash`].
pub fn sketch_bucket(name: &str, n_sched_vars: usize) -> u64 {
    let mut h = Fnv::new();
    h.mix(name.as_bytes());
    h.mix(b"\x00");
    h.u64(n_sched_vars as u64);
    h.0
}

/// Exact fingerprint of everything [`SketchObjective::build_with`] reads:
/// the sketch program (pool nodes with full constant bits, variable names,
/// buffers, stages, constraints, schedule-variable metadata), the feature
/// roots, and the pipeline options. Two calls with equal fingerprints build
/// bit-identical objectives.
pub fn objective_fingerprint(
    program: &Program,
    features: &[ExprId],
    pipeline: PipelineOptions,
) -> u64 {
    let mut h = Fnv::new();
    // Pool nodes, in topological (construction) order. Encoded manually:
    // the pool's Debug form includes its hash-cons memo, whose iteration
    // order is nondeterministic.
    h.u64(program.pool.len() as u64);
    for node in program.pool.nodes() {
        match *node {
            ENode::Const(bits) => {
                h.mix(b"C");
                h.u64(bits);
            }
            ENode::Var(v) => {
                h.mix(b"V");
                h.u32(v.index() as u32);
            }
            ENode::Un(op, a) => {
                h.mix(b"U");
                h.mix(&[op as u8]);
                h.u32(a.index() as u32);
            }
            ENode::Bin(op, a, b) => {
                h.mix(b"B");
                h.mix(&[op as u8]);
                h.u32(a.index() as u32);
                h.u32(b.index() as u32);
            }
            ENode::Cmp(op, a, b) => {
                h.mix(b"P");
                h.mix(&[op as u8]);
                h.u32(a.index() as u32);
                h.u32(b.index() as u32);
            }
            ENode::Select(c, t, e) => {
                h.mix(b"S");
                h.u32(c.index() as u32);
                h.u32(t.index() as u32);
                h.u32(e.index() as u32);
            }
        }
    }
    h.u64(program.vars.len() as u64);
    for (_, name) in program.vars.iter() {
        h.mix(name.as_bytes());
        h.mix(b"\x00");
    }
    // The remaining program fields are plain Vec-of-struct data with
    // deterministic Debug renderings (no hash maps anywhere below), so the
    // derived format is an adequate canonical encoding.
    h.mix(format!("{:?}", program.buffers).as_bytes());
    h.mix(format!("{:?}", program.stages).as_bytes());
    h.mix(format!("{:?}", program.constraints).as_bytes());
    h.mix(format!("{:?}", program.sched_vars).as_bytes());
    h.u64(features.len() as u64);
    for f in features {
        h.u32(f.index() as u32);
    }
    h.mix(&[
        u8::from(pipeline.smoothing),
        u8::from(pipeline.log_features),
        u8::from(pipeline.exp_substitution),
        u8::from(pipeline.simplify),
    ]);
    h.0
}

/// What a [`TapeCache::lookup`] found.
pub enum TapeLookup {
    /// A current entry; reuse it.
    Hit(Arc<SketchObjective>),
    /// An entry from a different sketch-generator fingerprint was evicted;
    /// rebuild.
    Stale,
    /// Nothing cached; build and [`TapeCache::insert`].
    Miss,
}

/// One cached objective, stamped with the generator fingerprint that was
/// live when it was built.
struct Entry {
    fingerprint: u64,
    generator: u64,
    obj: Arc<SketchObjective>,
}

#[derive(Default)]
struct Inner {
    /// Generator fingerprint entries are checked against. Normally
    /// [`generator_hash`]; overridable to drill the staleness path.
    generator: u64,
    buckets: HashMap<u64, Vec<Entry>>,
    hits: usize,
    misses: usize,
    stale: usize,
}

/// Point-in-time counters of a [`TapeCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TapeCacheStats {
    /// Lookups served a cached objective.
    pub hits: usize,
    /// Lookups that found nothing (the caller builds and inserts).
    pub misses: usize,
    /// Entries evicted because they were built under a different
    /// sketch-generator fingerprint.
    pub stale: usize,
    /// Objectives currently cached.
    pub entries: usize,
}

/// A thread-safe cache of compiled sketch objectives: one per proposer,
/// or shared across optimizers via
/// [`crate::Optimizer::with_shared_tape_cache`] /
/// [`crate::GradientProposer::with_shared_tape_cache`].
pub struct TapeCache {
    inner: Mutex<Inner>,
}

impl Default for TapeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TapeCache {
    /// An empty cache bound to the live sketch-generator fingerprint.
    pub fn new() -> TapeCache {
        TapeCache {
            inner: Mutex::new(Inner { generator: generator_hash(), ..Inner::default() }),
        }
    }

    /// Looks up the objective for `(bucket, fingerprint)`. An entry built
    /// under a *different* generator fingerprint is evicted and reported
    /// [`TapeLookup::Stale`] — the caller rebuilds, exactly as on a miss,
    /// but the degradation is observable.
    pub fn lookup(&self, bucket: u64, fingerprint: u64) -> TapeLookup {
        let mut inner = self.inner.lock().expect("tape cache");
        let generator = inner.generator;
        let mut outcome = TapeLookup::Miss;
        if let Some(entries) = inner.buckets.get_mut(&bucket) {
            if let Some(pos) = entries.iter().position(|e| e.fingerprint == fingerprint) {
                if entries[pos].generator == generator {
                    outcome = TapeLookup::Hit(entries[pos].obj.clone());
                } else {
                    entries.remove(pos);
                    outcome = TapeLookup::Stale;
                }
            }
        }
        match &outcome {
            TapeLookup::Hit(_) => inner.hits += 1,
            TapeLookup::Stale => inner.stale += 1,
            TapeLookup::Miss => inner.misses += 1,
        }
        outcome
    }

    /// Inserts a freshly built objective. A concurrent builder may have
    /// inserted the same fingerprint first; the earlier entry wins (both
    /// are bit-identical builds, so which `Arc` survives is immaterial).
    pub fn insert(&self, bucket: u64, fingerprint: u64, obj: Arc<SketchObjective>) {
        let mut inner = self.inner.lock().expect("tape cache");
        let generator = inner.generator;
        let entries = inner.buckets.entry(bucket).or_default();
        if entries.iter().any(|e| e.fingerprint == fingerprint && e.generator == generator) {
            return;
        }
        entries.push(Entry { fingerprint, generator, obj });
    }

    /// Current counters.
    pub fn stats(&self) -> TapeCacheStats {
        let inner = self.inner.lock().expect("tape cache");
        TapeCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            stale: inner.stale,
            entries: inner.buckets.values().map(Vec::len).sum(),
        }
    }

    /// Overrides the generator fingerprint lookups are checked against —
    /// simulates a sketch-generator bump without recompiling the crate, so
    /// tests and ops drills can exercise the staleness path. Every entry
    /// built under the old fingerprint becomes stale on its next lookup.
    pub fn override_generator(&self, generator: u64) {
        self.inner.lock().expect("tape cache").generator = generator;
    }
}
