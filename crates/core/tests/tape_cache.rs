//! End-to-end tests of the compiled-tape cache: tuning with a shared cache
//! attached is bit-identical to tuning with the proposer's private one at
//! every thread count, a second optimizer over the same workloads reuses
//! every compiled objective, different extents never share a tape, and a
//! sketch-generator bump invalidates cached entries instead of serving
//! them.

use felix::{
    extract_subgraphs, pretrained_cost_model, FelixOptions, ModelQuality, Optimizer, TapeCache,
};
use felix_graph::models;
use felix_sim::DeviceConfig;
use std::sync::Arc;

fn tiny_network() -> Vec<felix_graph::Task> {
    extract_subgraphs(&models::llama_with_config(1, 16, 128, 4, 344, 2))
}

/// Same architecture as [`tiny_network`] at different extents: structurally
/// identical sketches whose loop extents (and therefore tape constants)
/// differ.
fn scaled_network() -> Vec<felix_graph::Task> {
    extract_subgraphs(&models::llama_with_config(1, 32, 256, 4, 688, 2))
}

fn quick_options(threads: usize) -> FelixOptions {
    FelixOptions { n_seeds: 2, n_steps: 15, threads, ..Default::default() }
}

fn history_bits(opt: &Optimizer) -> Vec<(u64, u64)> {
    opt.history.iter().map(|p| (p.time_s.to_bits(), p.latency_ms.to_bits())).collect()
}

fn assert_tasks_bit_identical(a: &Optimizer, b: &Optimizer) {
    for (ta, tb) in a.tasks().iter().zip(b.tasks()) {
        assert_eq!(ta.best_latency_ms.to_bits(), tb.best_latency_ms.to_bits());
        assert_eq!(ta.best_schedule, tb.best_schedule);
        assert_eq!(ta.measured.len(), tb.measured.len());
        for (ma, mb) in ta.measured.iter().zip(&tb.measured) {
            assert_eq!(ma.0, mb.0);
            assert_eq!(
                ma.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                mb.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(ma.2.to_bits(), mb.2.to_bits());
        }
        assert_eq!(ta.failed, tb.failed);
    }
}

#[test]
fn tape_cache_is_bit_identical_at_every_thread_count() {
    // The cache may only skip redundant compiles, never change a result:
    // at each thread count, a cache-backed run must reproduce the plain
    // run's curve, task states, and RNG position bit for bit — and a
    // second optimizer over the same workloads must serve every objective
    // from the cache and still match.
    for threads in [1usize, 2, 4] {
        let device = DeviceConfig::a5000();
        let model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut plain =
            Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads));
        let n_rounds = plain.tasks().len() + 1;
        plain.optimize_all(n_rounds, 4);

        let cache = Arc::new(TapeCache::new());
        let mut first =
            Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads))
                .with_shared_tape_cache(cache.clone());
        first.optimize_all(n_rounds, 4);
        assert_eq!(history_bits(&plain), history_bits(&first), "{threads} threads, cold cache");
        assert_tasks_bit_identical(&plain, &first);
        assert_eq!(plain.rng_state(), first.rng_state());
        let cold = cache.stats();
        assert!(cold.entries > 0, "cold run must populate the cache");
        assert_eq!(cold.misses, cold.entries, "each distinct objective built once");
        // Every round after a task's first is served from the cache.
        let later_round_sketches: usize =
            first.tasks().iter().map(|t| t.rounds.saturating_sub(1) * t.sketches.len()).sum();
        assert_eq!(cold.hits, later_round_sketches, "later rounds hit");

        // Second optimizer, same workloads, same cache: every sketch
        // objective of every round is served from the cache and the run is
        // still bit-identical.
        let mut second =
            Optimizer::with_options(tiny_network(), model, device, quick_options(threads))
                .with_shared_tape_cache(cache.clone());
        second.optimize_all(n_rounds, 4);
        assert_eq!(history_bits(&plain), history_bits(&second), "{threads} threads, warm cache");
        assert_tasks_bit_identical(&plain, &second);
        assert_eq!(plain.rng_state(), second.rng_state());
        let warm = cache.stats();
        assert_eq!(warm.entries, cold.entries, "warm run must not add entries");
        assert_eq!(second.stats.iter().map(|s| s.cache_misses).sum::<usize>(), 0);
        // The proposer reports the reuse per round.
        let round_sketches: usize =
            second.tasks().iter().map(|t| t.rounds * t.sketches.len()).sum();
        assert_eq!(
            second.stats.iter().map(|s| s.tape_cache_hits).sum::<usize>(),
            round_sketches
        );
    }
}

#[test]
fn different_extents_never_share_a_tape() {
    // The bucket key is extent-free (that is what makes lookups cheap),
    // but the exact fingerprint includes every pool constant — so the
    // scaled network, structurally identical to the tiny one, must miss.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let cache = Arc::new(TapeCache::new());
    let mut tiny = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
        .with_shared_tape_cache(cache.clone());
    tiny.optimize_all(1, 2);
    let after_tiny = cache.stats();

    let mut plain =
        Optimizer::with_options(scaled_network(), model.clone(), device, quick_options(1));
    plain.optimize_all(1, 2);
    let mut scaled = Optimizer::with_options(scaled_network(), model, device, quick_options(1))
        .with_shared_tape_cache(cache.clone());
    scaled.optimize_all(1, 2);
    let after_scaled = cache.stats();
    assert_eq!(after_scaled.hits, after_tiny.hits, "no cross-extent hits");
    assert!(after_scaled.entries > after_tiny.entries, "scaled entries added");
    assert_eq!(history_bits(&plain), history_bits(&scaled));
    assert_tasks_bit_identical(&plain, &scaled);
}

#[test]
fn generator_bump_invalidates_cached_tapes() {
    // Entries built under an older sketch-generator fingerprint must be
    // evicted and rebuilt — counted as stale, never served — and the
    // rebuilt run must still match a cache-free run bit for bit.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let cache = Arc::new(TapeCache::new());
    let mut warmup =
        Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
            .with_shared_tape_cache(cache.clone());
    warmup.optimize_all(1, 2);
    let populated = cache.stats();
    assert!(populated.entries > 0);

    cache.override_generator(populated.entries as u64 ^ 0xDEAD_BEEF);
    let mut plain =
        Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1));
    plain.optimize_all(1, 2);
    let mut bumped = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_shared_tape_cache(cache.clone());
    bumped.optimize_all(1, 2);
    let after = cache.stats();
    assert_eq!(after.hits, populated.hits, "stale entries must not be served");
    assert_eq!(after.stale, populated.stale + populated.entries, "every entry evicted");
    assert_eq!(after.entries, populated.entries, "rebuilt under the new fingerprint");
    assert_eq!(
        bumped.stats.iter().map(|s| s.tape_cache_stale).sum::<usize>(),
        populated.entries
    );
    assert_eq!(history_bits(&plain), history_bits(&bumped));
    assert_tasks_bit_identical(&plain, &bumped);
}
