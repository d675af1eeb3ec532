//! The persistent best-schedule store.
//!
//! Where [`crate::RecordLog`] remembers every measurement, the
//! [`ScheduleStore`] remembers only the *answer*: the best known schedule
//! per task, keyed by the same FNV-1a [`crate::task_key`] the record log
//! uses. A tuner that finds its task in the store can serve the cached
//! schedule in microseconds instead of re-tuning; a tuner that finds a
//! *structurally identical* task at different extents (matched by
//! [`StoredSchedule::structure_hash`]) can warm-start its descent from the
//! cached optimum's values.
//!
//! On disk the store is an improvement log in the crate's one
//! [`AppendLog`] format, with the same durability contract as the record
//! log. Replaying the improvement lines keeps the best entry per key, so
//! concurrent histories merge to the same state regardless of
//! interleaving. [`ScheduleStore::compact`] rewrites the file to one line
//! per key through [`crate::atomic_write`], in deterministic (ascending
//! task-key) order.
//!
//! All floats — schedule values and the latency incumbent — are encoded as
//! 16-hex-digit bit patterns ([`Json::f64_bits`]), so a schedule read back
//! from the store is bit-identical to the one the tuner measured. That is
//! what lets a cache hit feed directly into the bit-reproducible search
//! state without perturbing it.

use crate::durable::{AppendLog, LogRecord};
use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Version of the schedule-store wire format. Bumped whenever a field is
/// added, removed, or re-encoded; readers skip lines from a newer version
/// instead of guessing at their meaning.
pub const SCHEDULE_STORE_VERSION: usize = 1;

/// One cached optimum: the best known schedule for a task, plus the
/// identity needed to validate it against a live search task before use.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredSchedule {
    /// Canonical task identity: [`crate::task_key`] of workload key + device.
    pub task_key: u64,
    /// The subgraph's stable dedup key (display/debugging; matching uses
    /// `task_key`).
    pub workload_key: String,
    /// Device the schedule was tuned for.
    pub device: String,
    /// Hash of the task's sketch *structure* (sketch names and variable
    /// counts, not extents). Two tasks that share it are the same operator
    /// shape at different sizes, so one's optimum is a sensible warm start
    /// for the other. Collisions are harmless: cached values are always
    /// re-validated against the live task's constraints before use.
    pub structure_hash: u64,
    /// Sketch index within the task.
    pub sketch: usize,
    /// Sketch name, validated on use so entries from a stale sketch
    /// generator are ignored instead of corrupting the search state.
    pub sketch_name: String,
    /// Fingerprint of the sketch generator that produced this schedule
    /// (`felix_tir::sketch::generator_hash` in the tuner). An entry whose
    /// fingerprint differs from the live generator's is *stale*: its sketch
    /// index and variable vector may no longer mean what they did, so cache
    /// layers skip it (and count the skip) instead of trusting name/arity
    /// validation to catch the drift. Entries written before versioning
    /// existed decode as `0`, which no live generator produces.
    pub generator: u64,
    /// The schedule-variable assignment (bit-exact).
    pub values: Vec<f64>,
    /// The measured latency of this schedule in milliseconds (bit-exact).
    pub latency_ms: f64,
}

impl LogRecord for StoredSchedule {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str("schedule".to_string())),
            ("v", Json::Num(SCHEDULE_STORE_VERSION as f64)),
            ("task", Json::u64_hex(self.task_key)),
            ("workload", Json::Str(self.workload_key.clone())),
            ("device", Json::Str(self.device.clone())),
            ("structure", Json::u64_hex(self.structure_hash)),
            ("sketch", Json::Num(self.sketch as f64)),
            ("sketch_name", Json::Str(self.sketch_name.clone())),
            ("gen", Json::u64_hex(self.generator)),
            (
                "values",
                Json::Arr(self.values.iter().map(|&v| Json::f64_bits(v)).collect()),
            ),
            ("latency_ms", Json::f64_bits(self.latency_ms)),
        ])
    }

    /// Returns `None` for non-schedule lines and for lines written by a
    /// newer format version.
    fn from_json(doc: &Json) -> Option<StoredSchedule> {
        if doc.get("kind")?.as_str()? != "schedule" {
            return None;
        }
        if doc.get("v")?.as_usize()? > SCHEDULE_STORE_VERSION {
            return None;
        }
        Some(StoredSchedule {
            task_key: doc.get("task")?.as_u64_hex()?,
            workload_key: doc.get("workload")?.as_str()?.to_string(),
            device: doc.get("device")?.as_str()?.to_string(),
            structure_hash: doc.get("structure")?.as_u64_hex()?,
            sketch: doc.get("sketch")?.as_usize()?,
            sketch_name: doc.get("sketch_name")?.as_str()?.to_string(),
            // Pre-versioning lines carry no fingerprint; 0 marks them as
            // from-an-unknown-generator (always stale to a live tuner).
            generator: doc.get("gen").and_then(Json::as_u64_hex).unwrap_or(0),
            values: doc
                .get("values")?
                .as_arr()?
                .iter()
                .map(Json::as_f64_bits)
                .collect::<Option<Vec<f64>>>()?,
            latency_ms: doc.get("latency_ms")?.as_f64_bits()?,
        })
    }
}

/// A persistent map from task key to best known schedule.
///
/// Inserts append one improvement line; opening replays the intact lines
/// and keeps the best entry per key. The in-memory index is a `BTreeMap`,
/// so every iteration order exposed by the store is deterministic.
#[derive(Debug)]
pub struct ScheduleStore {
    log: AppendLog<StoredSchedule>,
    entries: BTreeMap<u64, StoredSchedule>,
    /// Last-update sequence number per task key (in-memory only): replay
    /// order on open, then insert order. Feeds the eviction tiebreak, so
    /// it lives beside the entries rather than in [`StoredSchedule`] —
    /// the wire format and entry equality stay untouched.
    seq: BTreeMap<u64, u64>,
    next_seq: u64,
    max_entries: Option<usize>,
}

impl ScheduleStore {
    /// Opens (creating if needed) a store at `path`, replaying any existing
    /// improvement lines (see [`AppendLog::open`] for which lines count).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading or opening the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<ScheduleStore> {
        let (log, lines) = AppendLog::open(path)?;
        let mut store = ScheduleStore {
            log,
            entries: BTreeMap::new(),
            seq: BTreeMap::new(),
            next_seq: 0,
            max_entries: None,
        };
        for entry in lines {
            let key = entry.task_key;
            if merge_entry(&mut store.entries, entry) {
                store.seq.insert(key, store.next_seq);
                store.next_seq += 1;
            }
        }
        Ok(store)
    }

    /// Bounds the store to at most `max` entries, enforced at
    /// [`ScheduleStore::compact`] time by deterministic oldest-worst
    /// eviction (see there). Appends between compactions may exceed the
    /// bound transiently; the on-disk improvement log is already bounded
    /// by compaction itself.
    pub fn with_max_entries(mut self, max: usize) -> ScheduleStore {
        self.max_entries = Some(max);
        self
    }

    /// The configured entry bound, if any.
    pub fn max_entries(&self) -> Option<usize> {
        self.max_entries
    }

    /// The store's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Number of distinct tasks with a cached schedule.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The best known schedule for a task, if any.
    pub fn get(&self, task_key: u64) -> Option<&StoredSchedule> {
        self.entries.get(&task_key)
    }

    /// All entries in ascending task-key order.
    pub fn entries(&self) -> impl Iterator<Item = &StoredSchedule> {
        self.entries.values()
    }

    /// The lowest-latency entry on `device` whose structure hash matches —
    /// the warm-start donor for a task that misses exactly but shares its
    /// sketch structure with a cached one. `exclude_task_key` keeps a task
    /// from donating to itself. Ties break toward the smaller task key
    /// (deterministic via the `BTreeMap` iteration order).
    pub fn best_for_structure(
        &self,
        structure_hash: u64,
        device: &str,
        exclude_task_key: u64,
    ) -> Option<&StoredSchedule> {
        let mut best: Option<&StoredSchedule> = None;
        for entry in self.entries.values() {
            if entry.structure_hash != structure_hash
                || entry.device != device
                || entry.task_key == exclude_task_key
                || !entry.latency_ms.is_finite()
            {
                continue;
            }
            if best.is_none_or(|b| entry.latency_ms < b.latency_ms) {
                best = Some(entry);
            }
        }
        best
    }

    /// Records `entry` if it strictly improves on the stored schedule for
    /// its task (or the task is new). An equal-or-worse entry is a no-op
    /// that leaves the file byte-identical; a non-finite latency is always
    /// rejected. Returns whether the entry was written.
    ///
    /// Exception: an entry whose `generator` fingerprint differs from the
    /// stored one always supersedes it, whatever the latencies — inserts
    /// come from live tuning runs, so the incoming fingerprint is the
    /// current one and the stored entry is stale (its latency belongs to a
    /// schedule the current generator may not even produce).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from appending.
    pub fn insert(&mut self, entry: StoredSchedule) -> std::io::Result<bool> {
        if !entry.latency_ms.is_finite() {
            return Ok(false);
        }
        if let Some(existing) = self.entries.get(&entry.task_key) {
            if existing.generator == entry.generator && existing.latency_ms <= entry.latency_ms {
                return Ok(false);
            }
        }
        self.log.append(&entry)?;
        self.seq.insert(entry.task_key, self.next_seq);
        self.next_seq += 1;
        self.entries.insert(entry.task_key, entry);
        Ok(true)
    }

    /// Rewrites the file to exactly one line per task, in ascending
    /// task-key order, through [`AppendLog::compact`] — a reader
    /// concurrent with a compaction sees either the old improvement log or
    /// the compacted one, never a torn mix.
    ///
    /// When a [`ScheduleStore::with_max_entries`] bound is set and the
    /// store exceeds it, compaction first evicts down to the bound,
    /// oldest-worst first: the eviction order is highest latency first,
    /// ties broken toward the least recently updated entry, then toward
    /// the smaller task key — fully deterministic, so two stores that saw
    /// the same update sequence compact to byte-identical files. Evicted
    /// entries leave the in-memory index too (the store forgets them).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing, syncing, renaming, or reopening
    /// the append handle.
    pub fn compact(&mut self) -> std::io::Result<()> {
        if let Some(max) = self.max_entries {
            while self.entries.len() > max {
                let victim = self
                    .entries
                    .values()
                    .max_by(|a, b| {
                        let seq = |e: &StoredSchedule| self.seq.get(&e.task_key).copied();
                        a.latency_ms
                            .total_cmp(&b.latency_ms)
                            .then(seq(b).cmp(&seq(a)))
                            .then(b.task_key.cmp(&a.task_key))
                    })
                    .map(|e| e.task_key)
                    .expect("non-empty: len > max >= 0");
                self.entries.remove(&victim);
                self.seq.remove(&victim);
            }
        }
        self.log.compact(self.entries.values())
    }
}

/// Better-only merge within one generator fingerprint (replaying such
/// lines in any order converges to the same per-key minimum); a line with
/// a *different* fingerprint supersedes unconditionally, so in append
/// order the latest generation's improvement log wins. Returns whether
/// the entry landed (callers track update recency off this).
fn merge_entry(entries: &mut BTreeMap<u64, StoredSchedule>, entry: StoredSchedule) -> bool {
    if !entry.latency_ms.is_finite() {
        return false;
    }
    match entries.get(&entry.task_key) {
        Some(existing)
            if existing.generator == entry.generator
                && existing.latency_ms <= entry.latency_ms =>
        {
            false
        }
        _ => {
            entries.insert(entry.task_key, entry);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task_key;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "felix-store-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn sample_entry(i: usize) -> StoredSchedule {
        let workload = format!("dense[{}]", 256 << i);
        StoredSchedule {
            task_key: task_key(&workload, "RTX A5000"),
            workload_key: workload,
            device: "RTX A5000".to_string(),
            structure_hash: 0xABCD_0000 + (i as u64 % 2),
            sketch: i % 2,
            sketch_name: "multi-level-tiling".to_string(),
            generator: 0x5EED_FACE,
            values: vec![2.0, 16.0, 4.0 + i as f64, 0.1 + 0.2],
            latency_ms: 1.25 + i as f64 * 0.1,
        }
    }

    #[test]
    fn round_trips_awkward_floats_bit_exactly() {
        let path = tmp_path("bits");
        let mut store = ScheduleStore::open(&path).expect("open");
        let mut entry = sample_entry(0);
        entry.values = vec![
            0.1 + 0.2,
            1.234_567_890_123_456_7 * (1.0 + 1e-15),
            -0.0,
            f64::MIN_POSITIVE,
            2.225_073_858_507_201e-308,
            std::f64::consts::PI,
        ];
        entry.latency_ms = 1.0 / 3.0;
        assert!(store.insert(entry.clone()).expect("insert"));
        drop(store);
        let store = ScheduleStore::open(&path).expect("reopen");
        let back = store.get(entry.task_key).expect("entry");
        assert_eq!(back, &entry);
        for (a, b) in back.values.iter().zip(&entry.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.latency_ms.to_bits(), entry.latency_ms.to_bits());
        // The wire format stores every float as a 16-hex-digit bit pattern,
        // never as a decimal number.
        let text = std::fs::read_to_string(&path).expect("read");
        let doc = Json::parse(text.trim_end()).expect("parse");
        for v in doc.get("values").unwrap().as_arr().unwrap() {
            assert!(matches!(v, Json::Str(s) if s.len() == 16), "{v:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_at_every_byte_offset_of_final_entry_recovers_prefix() {
        let path = tmp_path("trunc");
        let mut store = ScheduleStore::open(&path).expect("open");
        for i in 0..3 {
            assert!(store.insert(sample_entry(i)).expect("insert"));
        }
        drop(store);
        let full = std::fs::read(&path).expect("read bytes");
        let last_line_start = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        let mut prefix: Vec<StoredSchedule> = (0..2).map(sample_entry).collect();
        prefix.sort_by_key(|e| e.task_key); // entries() iterates in key order
        for cut in last_line_start..full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncate");
            let store = ScheduleStore::open(&path).expect("open truncated");
            assert_eq!(
                store.entries().cloned().collect::<Vec<_>>(),
                prefix,
                "cut at byte {cut}/{}",
                full.len()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn equal_or_worse_reinsert_leaves_file_byte_identical() {
        let path = tmp_path("idem");
        let mut store = ScheduleStore::open(&path).expect("open");
        let entry = sample_entry(0);
        assert!(store.insert(entry.clone()).expect("insert"));
        let before = std::fs::read(&path).expect("read");
        // Bit-identical re-insert: no-op.
        assert!(!store.insert(entry.clone()).expect("reinsert"));
        // Strictly worse: no-op.
        let mut worse = entry.clone();
        worse.latency_ms = entry.latency_ms + 0.5;
        assert!(!store.insert(worse).expect("worse"));
        // Non-finite: always rejected.
        let mut bad = entry.clone();
        bad.latency_ms = f64::NAN;
        assert!(!store.insert(bad).expect("nan"));
        assert_eq!(std::fs::read(&path).expect("read"), before);
        assert_eq!(store.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn improvements_append_and_replay_keeps_best() {
        let path = tmp_path("improve");
        let mut store = ScheduleStore::open(&path).expect("open");
        let mut entry = sample_entry(0);
        entry.latency_ms = 2.0;
        assert!(store.insert(entry.clone()).expect("insert"));
        entry.latency_ms = 1.5;
        entry.values[0] = 4.0;
        assert!(store.insert(entry.clone()).expect("improve"));
        drop(store);
        // Both lines are on disk; replay keeps the improvement.
        let lines = std::fs::read_to_string(&path).expect("read");
        assert_eq!(lines.lines().count(), 2);
        let store = ScheduleStore::open(&path).expect("reopen");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(entry.task_key), Some(&entry));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_rewrites_one_line_per_task_atomically() {
        let path = tmp_path("compact");
        let mut store = ScheduleStore::open(&path).expect("open");
        for latency in [3.0, 2.0, 1.0] {
            let mut entry = sample_entry(0);
            entry.latency_ms = latency;
            assert!(store.insert(entry).expect("insert"));
        }
        assert!(store.insert(sample_entry(1)).expect("insert"));
        store.compact().expect("compact");
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        let lines = std::fs::read_to_string(&path).expect("read");
        assert_eq!(lines.lines().count(), 2, "one line per task");
        // The append handle follows the compacted file.
        let mut improved = sample_entry(1);
        improved.latency_ms -= 1.0;
        assert!(store.insert(improved.clone()).expect("insert"));
        drop(store);
        let store = ScheduleStore::open(&path).expect("reopen");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(improved.task_key), Some(&improved));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn structure_lookup_picks_best_match_excluding_self() {
        let path = tmp_path("structure");
        let mut store = ScheduleStore::open(&path).expect("open");
        // Entries 0 and 2 share structure hash (i % 2 == 0); entry 2 is
        // slower than entry 0.
        for i in 0..4 {
            assert!(store.insert(sample_entry(i)).expect("insert"));
        }
        let e0 = sample_entry(0);
        let e2 = sample_entry(2);
        let hit = store
            .best_for_structure(e0.structure_hash, "RTX A5000", e2.task_key)
            .expect("donor");
        assert_eq!(hit.task_key, e0.task_key);
        // Excluding the best leaves the runner-up.
        let hit = store
            .best_for_structure(e0.structure_hash, "RTX A5000", e0.task_key)
            .expect("donor");
        assert_eq!(hit.task_key, e2.task_key);
        // Wrong device: no donor.
        assert!(store
            .best_for_structure(e0.structure_hash, "A10G", 0)
            .is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn eviction_parks_at_bound_and_keeps_newest_best() {
        let path = tmp_path("evict");
        let mut store = ScheduleStore::open(&path).expect("open").with_max_entries(2);
        assert_eq!(store.max_entries(), Some(2));
        // Insert 4 tasks: latencies 1.25, 1.35, 1.45, 1.55 (sample_entry
        // order). Worst two (i = 2, 3) must go.
        for i in 0..4 {
            assert!(store.insert(sample_entry(i)).expect("insert"));
        }
        store.compact().expect("compact");
        assert_eq!(store.len(), 2);
        assert!(store.get(sample_entry(0).task_key).is_some());
        assert!(store.get(sample_entry(1).task_key).is_some());
        assert!(store.get(sample_entry(2).task_key).is_none());
        // The file matches the in-memory survivors.
        drop(store);
        let store = ScheduleStore::open(&path).expect("reopen");
        assert_eq!(store.len(), 2);
        // Latency ties evict the least recently updated entry: re-insert
        // two evicted tasks at one latency, refresh the first, bound 1.
        let mut store = store.with_max_entries(1);
        let mut a = sample_entry(2);
        let mut b = sample_entry(3);
        a.latency_ms = 0.5;
        b.latency_ms = 0.5;
        assert!(store.insert(a.clone()).expect("insert"));
        assert!(store.insert(b.clone()).expect("insert"));
        a.values[0] += 1.0;
        a.latency_ms = 0.25; // improvement refreshes a's recency…
        assert!(store.insert(a.clone()).expect("refresh"));
        b.latency_ms = 0.25; // …then b's, so a and b tie at 0.25 with a older
        b.values[0] += 1.0;
        assert!(store.insert(b.clone()).expect("refresh"));
        store.compact().expect("compact");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(b.task_key), Some(&b), "older tie loses: a evicted");
        std::fs::remove_file(&path).ok();
    }

    /// Property: under a random update sequence, bounded compaction (a)
    /// never exceeds the bound, (b) keeps exactly the lowest-latency
    /// entries (recency only breaks ties), and (c) is deterministic — the
    /// same sequence replayed into a fresh store compacts to a
    /// byte-identical file.
    #[test]
    fn eviction_property_random_sequences() {
        let mut rng = 0x00C0_FFEE_D00D_5EEDu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for case in 0..20 {
            let max = 1 + (next() as usize % 5);
            let updates: Vec<(usize, f64)> = (0..(next() as usize % 40))
                .map(|_| {
                    let task = next() as usize % 8;
                    let latency = 0.25 + (next() % 1000) as f64 / 128.0;
                    (task, latency)
                })
                .collect();
            let run = |tag: &str| {
                let path = tmp_path(tag);
                let mut store =
                    ScheduleStore::open(&path).expect("open").with_max_entries(max);
                for (task, latency) in &updates {
                    let mut entry = sample_entry(*task);
                    entry.latency_ms = *latency;
                    store.insert(entry).expect("insert");
                }
                let before: Vec<StoredSchedule> = store.entries().cloned().collect();
                store.compact().expect("compact");
                let after: Vec<StoredSchedule> = store.entries().cloned().collect();
                let bytes = std::fs::read(&path).expect("read");
                std::fs::remove_file(&path).ok();
                (before, after, bytes)
            };
            let (before, after, bytes) = run(&format!("prop-a-{case}"));
            let (_, after_b, bytes_b) = run(&format!("prop-b-{case}"));
            assert!(after.len() <= max, "case {case}: bound respected");
            assert_eq!(after.len(), before.len().min(max), "case {case}: evicts only past bound");
            // Survivors are the best `max` latencies of the pre-compaction
            // state (ties may go either way on identity, never on count).
            let mut latencies: Vec<f64> = before.iter().map(|e| e.latency_ms).collect();
            latencies.sort_by(f64::total_cmp);
            let mut kept: Vec<f64> = after.iter().map(|e| e.latency_ms).collect();
            kept.sort_by(f64::total_cmp);
            assert_eq!(kept, latencies[..after.len()], "case {case}: keeps the best");
            assert_eq!(after, after_b, "case {case}: deterministic survivors");
            assert_eq!(bytes, bytes_b, "case {case}: byte-identical files");
        }
    }

    #[test]
    fn pre_versioning_lines_decode_with_generator_zero() {
        let mut doc = sample_entry(0).to_json();
        let Json::Obj(fields) = &mut doc else { panic!("obj") };
        fields.retain(|(k, _)| k != "gen");
        let back = StoredSchedule::from_json(&doc).expect("decode");
        assert_eq!(back.generator, 0, "missing fingerprint reads as unknown");
        let mut expected = sample_entry(0);
        expected.generator = 0;
        assert_eq!(back, expected);
    }

    #[test]
    fn newer_version_lines_are_skipped() {
        let path = tmp_path("future");
        let mut store = ScheduleStore::open(&path).expect("open");
        assert!(store.insert(sample_entry(0)).expect("insert"));
        drop(store);
        let mut doc = sample_entry(1).to_json();
        let Json::Obj(fields) = &mut doc else { panic!("obj") };
        fields[1].1 = Json::Num((SCHEDULE_STORE_VERSION + 1) as f64);
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        writeln!(f, "{}", doc.write()).expect("write");
        drop(f);
        let store = ScheduleStore::open(&path).expect("reopen");
        assert_eq!(store.entries().cloned().collect::<Vec<_>>(), vec![sample_entry(0)]);
        std::fs::remove_file(&path).ok();
    }
}
