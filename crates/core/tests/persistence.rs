//! End-to-end tests of the durable tuning-record store and crash-safe
//! checkpoint/resume: resuming a killed run reproduces the uninterrupted
//! time-vs-latency curve byte for byte, replaying a record log warm-starts
//! a fresh optimizer, and — with the store disabled or the log empty — the
//! persistence layer perturbs nothing at any thread count.

use felix::persist::STATE_FILE;
use felix::{extract_subgraphs, pretrained_cost_model, FelixOptions, ModelQuality, Optimizer};
use felix_graph::models;
use felix_sim::{DeviceConfig, FaultPlan};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn tiny_network() -> Vec<felix_graph::Task> {
    extract_subgraphs(&models::llama_with_config(1, 16, 128, 4, 344, 2))
}

fn quick_options(threads: usize) -> FelixOptions {
    FelixOptions { n_seeds: 2, n_steps: 15, threads, ..Default::default() }
}

/// A unique scratch directory per call (tests in one binary may run in
/// parallel; directories must not collide).
fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "felix-persistence-{}-{}-{tag}",
        std::process::id(),
        n
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
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
        assert_eq!(ta.fault_stats, tb.fault_stats);
        assert_eq!(ta.samples.len(), tb.samples.len());
        for (sa, sb) in ta.samples.iter().zip(&tb.samples) {
            assert_eq!(sa.score.to_bits(), sb.score.to_bits());
            assert_eq!(
                sa.logfeats.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                sb.logfeats.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn resume_from_checkpoint_matches_uninterrupted_curve() {
    // The tentpole acceptance bar: checkpoint every round, kill the run
    // halfway (drop the optimizer), resume from disk, and finish. The
    // concatenated time-vs-latency curve — and the final task states —
    // must be byte-identical to a run that was never interrupted (and
    // never persisted anything), at 1 and 4 tuner threads.
    for threads in [1usize, 4] {
        let device = DeviceConfig::a5000();
        let model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut base =
            Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads));
        let n_rounds = base.tasks().len() + 2;
        base.optimize_all(n_rounds, 4);

        let dir = tmp_dir("resume");
        let m = n_rounds / 2;
        {
            let mut first =
                Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads))
                    .with_checkpointing(&dir, 1);
            first.optimize_all(m, 4);
            assert_eq!(first.rounds_done(), m);
            // Dropped here: the "crash".
        }
        let mut resumed =
            Optimizer::resume_from_checkpoint(tiny_network(), device, quick_options(threads), &dir)
                .expect("resume from checkpoint");
        assert_eq!(resumed.rounds_done(), m);
        resumed.optimize_all(n_rounds - m, 4);

        assert_eq!(history_bits(&resumed), history_bits(&base), "{threads} threads");
        assert_eq!(resumed.tuning_time_s().to_bits(), base.tuning_time_s().to_bits());
        assert_tasks_bit_identical(&base, &resumed);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Copies every file of `dir` (no subdirectories in a checkpoint) into a
/// name → bytes map.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list checkpoint dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("read checkpoint file"))
        })
        .collect()
}

#[test]
fn every_kill_state_between_two_checkpoints_resumes_byte_identically() {
    // `save_checkpoint` commits the model file (tmp, rename), then the
    // state document (tmp, rename), then removes the superseded model. A
    // kill can stop it after any of those steps, or halfway through a tmp
    // write. Build each such directory out of the files of checkpoints k
    // and k+1, resume from it, finish, and require the uninterrupted run.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let mut base = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1));
    let n_rounds = base.tasks().len() + 2;
    base.optimize_all(n_rounds, 4);

    let k = n_rounds / 2;
    let live = tmp_dir("kill-live");
    let mut run = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_checkpointing(&live, 1);
    run.optimize_all(k, 4);
    let at_k = dir_files(&live);
    run.optimize_all(1, 4);
    let at_k1 = dir_files(&live);
    drop(run);
    std::fs::remove_dir_all(&live).ok();

    let model_of = |files: &BTreeMap<String, Vec<u8>>| {
        let mut models = files.iter().filter(|(n, _)| n.starts_with("model-"));
        let (name, bytes) = models.next().expect("a model file");
        assert!(models.next().is_none(), "superseded models are removed");
        (name.clone(), bytes.clone())
    };
    let (model_k, model_k_bytes) = model_of(&at_k);
    let (model_k1, model_k1_bytes) = model_of(&at_k1);
    assert_ne!(model_k, model_k1, "the round must change the model");
    let state_k = at_k[STATE_FILE].clone();
    let state_k1 = at_k1[STATE_FILE].clone();
    let model_tmp = Path::new(&model_k1).with_extension("tmp").display().to_string();
    let state_tmp = Path::new(STATE_FILE).with_extension("tmp").display().to_string();
    let half = |b: &[u8]| b[..b.len() / 2].to_vec();

    let old = vec![
        (STATE_FILE.to_string(), state_k.clone()),
        (model_k.clone(), model_k_bytes.clone()),
    ];
    let with = |base: &[(String, Vec<u8>)], extra: &[(&str, &[u8])]| {
        let mut files = base.to_vec();
        files.extend(extra.iter().map(|(n, b)| (n.to_string(), b.to_vec())));
        files
    };
    let model_renamed = with(&old, &[(&model_k1, &model_k1_bytes)]);
    let new_state = vec![
        (STATE_FILE.to_string(), state_k1.clone()),
        (model_k.clone(), model_k_bytes.clone()),
        (model_k1.clone(), model_k1_bytes.clone()),
    ];
    let kill_states = [
        ("before the model write", old.clone()),
        ("model tmp torn", with(&old, &[(&model_tmp, &half(&model_k1_bytes))])),
        ("model tmp written, not renamed", with(&old, &[(&model_tmp, &model_k1_bytes)])),
        ("model renamed, state not yet written", model_renamed.clone()),
        ("state tmp torn", with(&model_renamed, &[(&state_tmp, &half(&state_k1))])),
        ("state tmp written, not renamed", with(&model_renamed, &[(&state_tmp, &state_k1)])),
        ("state renamed, old model not yet removed", new_state.clone()),
        ("old model removed", new_state[..1].iter().chain(&new_state[2..]).cloned().collect()),
    ];
    for (what, files) in kill_states {
        let dir = tmp_dir("kill-state");
        for (name, bytes) in &files {
            std::fs::write(dir.join(name), bytes).expect("write kill state");
        }
        let mut resumed =
            Optimizer::resume_from_checkpoint(tiny_network(), device, quick_options(1), &dir)
                .unwrap_or_else(|e| panic!("{what}: resume failed: {e}"));
        let left = n_rounds - resumed.rounds_done();
        resumed.optimize_all(left, 4);
        assert_eq!(history_bits(&resumed), history_bits(&base), "{what}");
        assert_eq!(resumed.tuning_time_s().to_bits(), base.tuning_time_s().to_bits(), "{what}");
        assert_tasks_bit_identical(&base, &resumed);
        std::fs::remove_dir_all(&dir).ok();
    }

    // A model file whose bytes no longer hash to its recorded name is
    // rejected rather than loaded.
    let dir = tmp_dir("kill-corrupt");
    let mut corrupt = model_k1_bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 1;
    std::fs::write(dir.join(STATE_FILE), &state_k1).expect("write state");
    std::fs::write(dir.join(&model_k1), &corrupt).expect("write model");
    let err = Optimizer::resume_from_checkpoint(tiny_network(), device, quick_options(1), &dir)
        .err()
        .expect("a corrupt model must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_mismatched_checkpoints() {
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("mismatch");
    let mut opt = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_checkpointing(&dir, 1);
    opt.optimize_all(1, 4);
    // Wrong device.
    let err = Optimizer::resume_from_checkpoint(
        tiny_network(),
        DeviceConfig::xavier_nx(),
        quick_options(1),
        &dir,
    );
    assert!(err.is_err(), "device mismatch must be rejected");
    // Wrong network (different task set).
    let other = extract_subgraphs(&models::dcgan(1));
    let err = Optimizer::resume_from_checkpoint(other, device, quick_options(1), &dir);
    assert!(err.is_err(), "network mismatch must be rejected");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_record_log_is_bit_identical_at_every_thread_count() {
    // Store-disabled parity: attaching a record log that starts empty must
    // not perturb a single bit of the run — the sink is a pure observer
    // and replaying zero records touches neither the clock nor the RNG.
    for threads in [1usize, 2, 4] {
        let device = DeviceConfig::a5000();
        let model = pretrained_cost_model(&device, ModelQuality::Fast);
        let mut plain =
            Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(threads));
        let n_rounds = plain.tasks().len() + 1;
        plain.optimize_all(n_rounds, 4);

        let dir = tmp_dir("empty-log");
        let log = dir.join("records.jsonl");
        let mut logged =
            Optimizer::with_options(tiny_network(), model, device, quick_options(threads))
                .with_record_log(&log)
                .expect("open record log");
        logged.optimize_all(n_rounds, 4);

        assert_eq!(history_bits(&plain), history_bits(&logged), "{threads} threads");
        assert_eq!(plain.tuning_time_s().to_bits(), logged.tuning_time_s().to_bits());
        assert_tasks_bit_identical(&plain, &logged);
        // And the log actually captured every measurement outcome.
        let records = felix_records::read_records(&log).expect("read log");
        let outcomes: usize =
            logged.tasks().iter().map(|t| t.measured.len() + t.failed.len()).sum();
        assert_eq!(records.len(), outcomes);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn record_log_replay_warm_starts_a_fresh_optimizer() {
    // Startup replay: a fresh optimizer pointed at an existing log rebuilds
    // every task's incumbent, dedup set, replay buffer, and fault stats
    // bit-for-bit from the records alone.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("warm-start");
    let log = dir.join("records.jsonl");
    let mut tuned = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
        .with_record_log(&log)
        .expect("open record log");
    let n_rounds = tuned.tasks().len() + 1;
    tuned.optimize_all(n_rounds, 4);
    assert!(tuned.tasks().iter().all(|t| !t.measured.is_empty()));

    let replayed = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_record_log(&log)
        .expect("replay record log");
    assert_tasks_bit_identical(&tuned, &replayed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_record_log_replay_restores_fault_state() {
    // Replay under injected faults: failures, retry counters, and sketch
    // quarantine flags all come back from the log exactly as the live run
    // left them.
    let device = DeviceConfig::a5000();
    let model = pretrained_cost_model(&device, ModelQuality::Fast);
    let dir = tmp_dir("chaos-replay");
    let log = dir.join("records.jsonl");
    let mut tuned = Optimizer::with_options(tiny_network(), model.clone(), device, quick_options(1))
        .with_fault_plan(FaultPlan::chaos(0x7A5, 0.3))
        .with_record_log(&log)
        .expect("open record log");
    let n_rounds = tuned.tasks().len() * 2;
    tuned.optimize_all(n_rounds, 6);
    let failures: usize = tuned.tasks().iter().map(|t| t.fault_stats.failures()).sum();
    let retries: usize = tuned.tasks().iter().map(|t| t.fault_stats.retries).sum();
    assert!(failures + retries > 0, "chaos must actually inject faults");

    let replayed = Optimizer::with_options(tiny_network(), model, device, quick_options(1))
        .with_record_log(&log)
        .expect("replay record log");
    assert_tasks_bit_identical(&tuned, &replayed);
    for (ta, tb) in tuned.tasks().iter().zip(replayed.tasks()) {
        for sketch in 0..ta.sketches.len() {
            assert_eq!(ta.is_quarantined(sketch), tb.is_quarantined(sketch));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
