//! Crash-recovery property test: truncating the log at **every** byte
//! offset of the final line must recover exactly the intact prefix, with
//! no error — the reader's contract is that an interrupted append never
//! costs more than the record being written.

use felix_records::{
    read_log, read_records, task_key, AppendLog, JobRecord, Json, LogRecord, Record, RecordLog,
    RecordOutcome, StoredSchedule, TuningRecord,
};
use std::fmt::Debug;
use std::io::Write as _;
use std::path::PathBuf;

fn tmp_path(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "felix-records-prop-{tag}-{}-{n}.jsonl",
        std::process::id()
    ))
}

/// Deterministic but varied record stream: mixed outcomes, retries, value
/// lengths, and awkward floats (negative zero, subnormals, long fractions).
fn make_record(i: usize) -> TuningRecord {
    let outcome = match i % 4 {
        0 => RecordOutcome::Fault("timeout".to_string()),
        1 => RecordOutcome::Fault("device-error".to_string()),
        _ => RecordOutcome::Ok(0.1 + (i as f64) / 3.0),
    };
    TuningRecord {
        task_key: task_key(&format!("matmul[{}]", 64 << (i % 3)), "sim-gpu"),
        task_name: format!("matmul[{}, 128]", 64 << (i % 3)),
        sketch: i % 3,
        sketch_name: if i.is_multiple_of(2) { "tile-3" } else { "tile-2" }.to_string(),
        values: (0..(1 + i % 4))
            .map(|j| match (i + j) % 3 {
                0 => -0.0,
                1 => f64::MIN_POSITIVE / 2.0,
                _ => (i * 7 + j) as f64 / 9.0,
            })
            .collect(),
        outcome,
        retries: i % 3,
        time_s: i as f64 * 1.5 + 0.333_333_333_333_333_3,
    }
}

#[test]
fn truncation_at_every_offset_of_final_line_recovers_prefix() {
    const N: usize = 8;
    let path = tmp_path("every-offset");
    let records: Vec<TuningRecord> = (0..N).map(make_record).collect();
    {
        let (mut log, _) = RecordLog::open(&path).expect("open log");
        for r in &records {
            log.append(&Record::Measurement(r.clone())).expect("append");
        }
    }
    let full = std::fs::read(&path).expect("read log bytes");
    assert_eq!(*full.last().expect("non-empty log"), b'\n');

    // Byte offset where the final record's line starts.
    let last_line_start = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);

    // Truncate at every offset within the final line, from "line entirely
    // missing" through "line complete except the newline". In all of these
    // the reader must return exactly the first N-1 records.
    for cut in last_line_start..full.len() {
        std::fs::write(&path, &full[..cut]).expect("truncate");
        let recovered = read_records(&path)
            .unwrap_or_else(|e| panic!("reader errored at cut {cut}: {e}"));
        assert_eq!(
            recovered,
            records[..N - 1],
            "wrong recovery at cut {cut} (line starts at {last_line_start}, full {})",
            full.len()
        );
    }

    // And with the full file intact, all N come back.
    std::fs::write(&path, &full).expect("restore");
    assert_eq!(read_records(&path).expect("read"), records);
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncation_within_earlier_lines_still_recovers_each_intact_prefix() {
    // Stronger than the satellite asks: cut at *every* byte of the whole
    // file and check the reader returns precisely the records whose lines
    // survived complete.
    const N: usize = 5;
    let path = tmp_path("all-offsets");
    let records: Vec<TuningRecord> = (0..N).map(make_record).collect();
    let mut line_ends = Vec::new();
    {
        let (mut log, _) = RecordLog::open(&path).expect("open log");
        for r in &records {
            log.append(&Record::Measurement(r.clone())).expect("append");
            line_ends.push(std::fs::metadata(&path).expect("meta").len() as usize);
        }
    }
    let full = std::fs::read(&path).expect("read log bytes");

    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).expect("truncate");
        let intact = line_ends.iter().take_while(|&&end| end <= cut).count();
        let recovered = read_records(&path)
            .unwrap_or_else(|e| panic!("reader errored at cut {cut}: {e}"));
        assert_eq!(recovered, records[..intact], "wrong recovery at cut {cut}");
    }
    std::fs::remove_file(&path).ok();
}

/// Writes `before`, tears the log as a crash mid-append would (half of the
/// next line, no newline), reopens it, appends `after`, and checks that
/// every acknowledged record replays — none is glued onto the fragment.
fn torn_tail_then_append<R: LogRecord + Clone + Debug + PartialEq>(
    tag: &str,
    before: &[R],
    after: &[R],
) {
    let path = tmp_path(tag);
    let (mut log, _) = AppendLog::<R>::open(&path).expect("open");
    for r in before {
        log.append(r).expect("append");
    }
    drop(log);
    let torn = after[0].to_json().write();
    let mut f = std::fs::OpenOptions::new().append(true).open(&path).expect("open raw");
    f.write_all(&torn.as_bytes()[..torn.len() / 2]).expect("tear");
    drop(f);

    let (mut log, replayed) = AppendLog::<R>::open(&path).expect("reopen");
    assert_eq!(replayed, before, "{tag}: intact prefix replays");
    for r in after {
        log.append(r).expect("append");
    }
    drop(log);
    let all: Vec<R> = before.iter().chain(after).cloned().collect();
    assert_eq!(read_log::<R>(&path).expect("read"), all, "{tag}: every acked record replays");
    let (_, reopened) = AppendLog::<R>::open(&path).expect("reopen again");
    assert_eq!(reopened, all, "{tag}: a clean tail is left alone");
    std::fs::remove_file(&path).ok();
}

#[test]
fn append_after_a_torn_tail_keeps_every_acked_record() {
    let measurements: Vec<Record> = (0..3).map(|i| Record::Measurement(make_record(i))).collect();
    torn_tail_then_append("torn-log", &measurements[..2], &measurements[2..]);

    let schedules: Vec<StoredSchedule> = (0..2)
        .map(|i| {
            let workload = format!("conv2d[{}]", 32 << i);
            StoredSchedule {
                task_key: task_key(&workload, "sim-gpu"),
                workload_key: workload,
                device: "sim-gpu".to_string(),
                structure_hash: 0xABCD,
                sketch: 0,
                sketch_name: "tile-3".to_string(),
                generator: 0x5EED,
                values: vec![4.0, 0.1 + 0.2],
                latency_ms: 1.5 + i as f64,
            }
        })
        .collect();
    torn_tail_then_append("torn-store", &schedules[..1], &schedules[1..]);

    let submits: Vec<JobRecord> = (0..2)
        .map(|job_id| JobRecord::Submitted {
            job_id,
            tenant: "acme".to_string(),
            spec: Json::obj(vec![("model", Json::Str("dcgan".to_string()))]),
            submitted_at_ms: 1_700_000_000_000 + job_id,
        })
        .collect();
    torn_tail_then_append("torn-wal", &submits[..1], &submits[1..]);
}
