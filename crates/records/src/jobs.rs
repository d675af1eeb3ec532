//! Durable job-queue records for the tuning service.
//!
//! The serving tier (`felix-serve`) fronts the tuner with a write-ahead
//! log: every submitted job is appended here *before* the client sees an
//! acknowledgment, every terminal transition is appended *after* the job's
//! result document is durably on disk. Because the WAL is the only
//! authority on queue membership, a worker killed at any instant recovers
//! the exact queue by replaying the log — claims are observability-only
//! and carry no recovery weight (a claimed-but-incomplete job is simply
//! still pending).
//!
//! ## Job lifecycle
//!
//! Every job walks a durable state machine:
//!
//! ```text
//! submitted ──────────────► done         (job-done)
//!     │      run to budget
//!     ├─────────────────────► cancelled   (job-cancel … job-cancelled)
//!     │      cancel honored between ticks
//!     ├─────────────────────► expired     (job-expired, deadline hit)
//!     │
//!     └─────────────────────► quarantined (job-crash ×N … job-quarantined)
//!            worker panics/dies N times
//! ```
//!
//! The four terminal states are each proven by their own WAL line,
//! appended only after the job's result document is atomically on disk, so
//! a terminal line is proof the (possibly partial) result can be served.
//! `job-cancel` records the *request* (durable before the cancel is
//! acknowledged); the matching `job-cancelled` terminal line lands when a
//! worker honors it between tuning rounds. `job-crash` persists a
//! cumulative per-job crash counter so a poison job is parked as
//! `quarantined` on replay instead of crash-looping the daemon forever.
//!
//! The WAL is an [`AppendLog`] of [`JobRecord`]s, so it follows the crate's
//! house rules: one record per line, each appended whole, torn tails
//! skipped on read, and every fractional number encoded as a 16-hex-digit
//! bit pattern so replay is bit-exact. Compacting it with
//! [`QueueState::canonical_records`] rewrites the log to its minimal form
//! (one submit line plus at most cancel/crash/terminal lines per job)
//! through [`crate::atomic_write`], so terminal jobs stop costing startup
//! time and disk.

use crate::durable::{read_log, AppendLog, LogRecord};
use crate::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Version of the job-record wire format. Bumped whenever a field is
/// added, removed, or re-encoded; readers skip lines from a newer version
/// instead of guessing at their meaning. Version 2 added the lifecycle
/// records (`job-cancel`, `job-crash`, and the non-`done` terminal lines)
/// and the submit timestamp; version-1 lines still decode (the timestamp
/// reads as 0).
pub const JOB_RECORD_VERSION: usize = 2;

/// How a job left the queue — the four terminal states of the lifecycle
/// state machine. Exactly one terminal WAL line exists per finished job
/// (duplicates from idempotent re-finalization keep the first).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran its full round budget.
    Done,
    /// A durable cancel request was honored between tuning rounds; the
    /// result document holds the partial state at the last round boundary.
    Cancelled,
    /// The job's wall-clock deadline elapsed before its budget did; the
    /// result document holds the partial state at the last round boundary.
    Expired,
    /// The job crashed its worker too many times and is parked; the result
    /// document is an error report.
    Quarantined,
}

impl JobOutcome {
    /// The WAL line kind for this terminal state.
    pub fn kind(self) -> &'static str {
        match self {
            JobOutcome::Done => "job-done",
            JobOutcome::Cancelled => "job-cancelled",
            JobOutcome::Expired => "job-expired",
            JobOutcome::Quarantined => "job-quarantined",
        }
    }

    /// The client-facing state string (`"done"`, `"cancelled"`,
    /// `"expired"`, `"quarantined"`).
    pub fn state(self) -> &'static str {
        match self {
            JobOutcome::Done => "done",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::Expired => "expired",
            JobOutcome::Quarantined => "quarantined",
        }
    }

    fn from_kind(kind: &str) -> Option<JobOutcome> {
        Some(match kind {
            "job-done" => JobOutcome::Done,
            "job-cancelled" => JobOutcome::Cancelled,
            "job-expired" => JobOutcome::Expired,
            "job-quarantined" => JobOutcome::Quarantined,
            _ => return None,
        })
    }
}

/// One line of the job WAL.
///
/// The job spec and result travel as opaque [`Json`] documents: the WAL
/// layer guarantees durability and ordering, while the serving tier owns
/// the schema — so a spec-format change never forces a WAL-format bump.
#[derive(Clone, Debug, PartialEq)]
pub enum JobRecord {
    /// A job entered the queue. Appended (and flushed) before the client
    /// is acknowledged, so an acked job can never be lost.
    Submitted {
        /// Queue-wide job identity, assigned by the frontend.
        job_id: u64,
        /// Owning tenant (namespaces the schedule store and fairness).
        tenant: String,
        /// Opaque job spec, interpreted by the serving tier.
        spec: Json,
        /// Wall-clock submission time (Unix milliseconds). Anchors the
        /// job's deadline across restarts; `0` for pre-deadline lines.
        /// Observability and deadline arithmetic only — it never feeds the
        /// deterministic tuning state.
        submitted_at_ms: u64,
    },
    /// A worker shard picked the job up. Observability only: replay
    /// ignores claims for recovery, so a crash between claim and
    /// completion leaves the job pending, exactly as required — and
    /// compaction drops claim lines entirely.
    Claimed {
        /// The claimed job.
        job_id: u64,
        /// Claiming worker shard index.
        shard: usize,
    },
    /// A cancel request was durably accepted. The job stays pending until
    /// a worker honors the request between ticks and appends the
    /// [`JobOutcome::Cancelled`] terminal line; a crash in between leaves
    /// the request standing, so the cancel is honored on replay.
    CancelRequested {
        /// The job to cancel.
        job_id: u64,
    },
    /// The job's worker crashed (panicked or died) while running it.
    /// `count` is cumulative, so replay takes the maximum and duplicate
    /// lines are harmless. At the quarantine threshold the next
    /// adoption parks the job instead of running it.
    CrashCounted {
        /// The crashing job.
        job_id: u64,
        /// Total crashes attributed to this job so far.
        count: u32,
    },
    /// The job reached a terminal state and its result document is
    /// durable. Appended *after* the result write, so a terminal line is
    /// proof the result can be served.
    Finished {
        /// The finished job.
        job_id: u64,
        /// Which terminal state.
        outcome: JobOutcome,
        /// Tuning rounds the job consumed.
        rounds: usize,
        /// Best end-to-end latency achieved (milliseconds; bit-exact on
        /// the wire; `inf` when nothing was measured).
        latency_ms: f64,
        /// Opaque result summary, interpreted by the serving tier.
        result: Json,
    },
}

impl JobRecord {
    /// A [`JobOutcome::Done`] terminal record (the common completion
    /// path).
    pub fn done(job_id: u64, rounds: usize, latency_ms: f64, result: Json) -> JobRecord {
        JobRecord::Finished { job_id, outcome: JobOutcome::Done, rounds, latency_ms, result }
    }

    /// The record's job id.
    pub fn job_id(&self) -> u64 {
        match *self {
            JobRecord::Submitted { job_id, .. }
            | JobRecord::Claimed { job_id, .. }
            | JobRecord::CancelRequested { job_id }
            | JobRecord::CrashCounted { job_id, .. }
            | JobRecord::Finished { job_id, .. } => job_id,
        }
    }

    /// Serializes the record as a single JSON line (no newline).
    pub fn to_json(&self) -> Json {
        let (kind, mut fields) = match self {
            JobRecord::Submitted { job_id, tenant, spec, submitted_at_ms } => (
                "job-submit",
                vec![
                    ("job", Json::u64_hex(*job_id)),
                    ("tenant", Json::Str(tenant.clone())),
                    ("spec", spec.clone()),
                    ("at_ms", Json::u64_hex(*submitted_at_ms)),
                ],
            ),
            JobRecord::Claimed { job_id, shard } => (
                "job-claim",
                vec![
                    ("job", Json::u64_hex(*job_id)),
                    ("shard", Json::Num(*shard as f64)),
                ],
            ),
            JobRecord::CancelRequested { job_id } => {
                ("job-cancel", vec![("job", Json::u64_hex(*job_id))])
            }
            JobRecord::CrashCounted { job_id, count } => (
                "job-crash",
                vec![
                    ("job", Json::u64_hex(*job_id)),
                    ("count", Json::Num(f64::from(*count))),
                ],
            ),
            JobRecord::Finished { job_id, outcome, rounds, latency_ms, result } => (
                outcome.kind(),
                vec![
                    ("job", Json::u64_hex(*job_id)),
                    ("rounds", Json::Num(*rounds as f64)),
                    ("latency_ms", Json::f64_bits(*latency_ms)),
                    ("result", result.clone()),
                ],
            ),
        };
        let mut all = vec![
            ("kind", Json::Str(kind.to_string())),
            ("v", Json::Num(JOB_RECORD_VERSION as f64)),
        ];
        all.append(&mut fields);
        Json::obj(all)
    }

    /// Decodes a job record parsed from one WAL line. Returns `None` for
    /// non-job lines and for lines written by a newer format version.
    pub fn from_json(doc: &Json) -> Option<JobRecord> {
        let kind = doc.get("kind")?.as_str()?;
        if !kind.starts_with("job-") {
            return None;
        }
        if doc.get("v")?.as_usize()? > JOB_RECORD_VERSION {
            return None;
        }
        let job_id = doc.get("job")?.as_u64_hex()?;
        if let Some(outcome) = JobOutcome::from_kind(kind) {
            return Some(JobRecord::Finished {
                job_id,
                outcome,
                rounds: doc.get("rounds")?.as_usize()?,
                latency_ms: doc.get("latency_ms")?.as_f64_bits()?,
                result: doc.get("result")?.clone(),
            });
        }
        match kind {
            "job-submit" => Some(JobRecord::Submitted {
                job_id,
                tenant: doc.get("tenant")?.as_str()?.to_string(),
                spec: doc.get("spec")?.clone(),
                // Version-1 lines predate deadlines and carry no stamp.
                submitted_at_ms: doc.get("at_ms").and_then(Json::as_u64_hex).unwrap_or(0),
            }),
            "job-claim" => Some(JobRecord::Claimed {
                job_id,
                shard: doc.get("shard")?.as_usize()?,
            }),
            "job-cancel" => Some(JobRecord::CancelRequested { job_id }),
            "job-crash" => Some(JobRecord::CrashCounted {
                job_id,
                count: u32::try_from(doc.get("count")?.as_usize()?).ok()?,
            }),
            _ => None,
        }
    }
}

/// Delegates to the inherent codec, which stays public for readers that do
/// not import [`LogRecord`].
impl LogRecord for JobRecord {
    fn to_json(&self) -> Json {
        JobRecord::to_json(self)
    }

    fn from_json(doc: &Json) -> Option<JobRecord> {
        JobRecord::from_json(doc)
    }
}

/// The job WAL. Compact it with [`QueueState::canonical_records`]: claim
/// lines drop out (they carry no recovery weight) and duplicate or
/// superseded lines collapse to one each, so the old and the compacted log
/// replay to the same recovery state.
pub type JobWal = AppendLog<JobRecord>;

/// Reads the intact job records of a WAL at `path`, in append order. A
/// missing file reads as an empty log; torn, corrupt, non-job, or
/// newer-version lines are skipped.
///
/// # Errors
///
/// Returns I/O errors other than the file not existing.
pub fn read_job_records(path: impl AsRef<Path>) -> std::io::Result<Vec<JobRecord>> {
    read_log(path)
}

/// A job still in the queue (submitted, not yet terminal).
#[derive(Clone, Debug, PartialEq)]
pub struct SubmittedJob {
    /// Queue-wide job identity.
    pub job_id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Opaque job spec as submitted.
    pub spec: Json,
    /// Wall-clock submission time (Unix milliseconds; `0` for
    /// pre-deadline WAL lines). Anchors the job's deadline across
    /// restarts.
    pub submitted_at_ms: u64,
}

/// A job in a terminal state, as proven by its terminal WAL line.
#[derive(Clone, Debug, PartialEq)]
pub struct TerminalJob {
    /// Which terminal state the job reached.
    pub outcome: JobOutcome,
    /// Tuning rounds the job consumed.
    pub rounds: usize,
    /// Best end-to-end latency achieved (milliseconds; `inf` when nothing
    /// was measured).
    pub latency_ms: f64,
    /// Opaque result summary (partial for cancelled/expired jobs, an
    /// error report for quarantined ones).
    pub result: Json,
}

/// The queue state a WAL replays to. Deterministic: the same record
/// sequence always yields the same state, and claims never affect
/// recovery.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueState {
    /// Every submitted job, in WAL (= acknowledgment) order, including
    /// terminal ones. Duplicate submit lines for one id keep the first.
    pub submitted: Vec<SubmittedJob>,
    /// Last observed claim per job (observability only; dropped by
    /// compaction).
    pub claims: BTreeMap<u64, usize>,
    /// Jobs with a standing cancel request and no terminal record yet —
    /// the worker honors these between ticks (or at adoption after a
    /// restart). Requests against already-terminal jobs are normalized
    /// away at the end of replay.
    pub cancel_requested: BTreeSet<u64>,
    /// Cumulative crash count per non-terminal job (duplicate lines merge
    /// by maximum). Counts for terminal jobs are normalized away — their
    /// story ended, one way or another.
    pub crash_counts: BTreeMap<u64, u32>,
    /// Finished jobs by id, whatever their terminal state. Duplicate
    /// terminal lines for one id keep the first (re-finalization after a
    /// crash re-appends identically).
    pub terminal: BTreeMap<u64, TerminalJob>,
}

impl QueueState {
    /// Replays a record sequence (as read by [`read_job_records`]) into
    /// the queue state.
    ///
    /// The result is *normalized*: cancel requests and crash counts that
    /// target terminal or never-submitted jobs are dropped, so replaying a
    /// log and replaying its [`QueueState::canonical_records`] compaction
    /// yield the same state (claims aside, which compaction drops).
    pub fn replay(records: &[JobRecord]) -> QueueState {
        let mut state = QueueState::default();
        for rec in records {
            match rec {
                JobRecord::Submitted { job_id, tenant, spec, submitted_at_ms } => {
                    if !state.submitted.iter().any(|j| j.job_id == *job_id) {
                        state.submitted.push(SubmittedJob {
                            job_id: *job_id,
                            tenant: tenant.clone(),
                            spec: spec.clone(),
                            submitted_at_ms: *submitted_at_ms,
                        });
                    }
                }
                JobRecord::Claimed { job_id, shard } => {
                    state.claims.insert(*job_id, *shard);
                }
                JobRecord::CancelRequested { job_id } => {
                    state.cancel_requested.insert(*job_id);
                }
                JobRecord::CrashCounted { job_id, count } => {
                    let entry = state.crash_counts.entry(*job_id).or_insert(0);
                    *entry = (*entry).max(*count);
                }
                JobRecord::Finished { job_id, outcome, rounds, latency_ms, result } => {
                    state.terminal.entry(*job_id).or_insert_with(|| TerminalJob {
                        outcome: *outcome,
                        rounds: *rounds,
                        latency_ms: *latency_ms,
                        result: result.clone(),
                    });
                }
            }
        }
        let submitted: BTreeSet<u64> = state.submitted.iter().map(|j| j.job_id).collect();
        let live = |id: &u64| submitted.contains(id) && !state.terminal.contains_key(id);
        state.cancel_requested.retain(live);
        state.crash_counts.retain(|id, _| live(id));
        state
    }

    /// Jobs submitted but not yet terminal, in submission order. A job
    /// with a standing cancel request is still pending: a worker must
    /// adopt it to checkpoint its partial result and write the terminal
    /// line.
    pub fn pending(&self) -> Vec<&SubmittedJob> {
        self.submitted
            .iter()
            .filter(|j| !self.terminal.contains_key(&j.job_id))
            .collect()
    }

    /// Number of live (non-terminal) jobs — the quantity admission
    /// control bounds.
    pub fn live(&self) -> usize {
        self.submitted.len() - self.terminal.len()
    }

    /// Number of live (non-terminal) jobs owned by `tenant` — the
    /// quantity the per-tenant quota bounds.
    pub fn tenant_live(&self, tenant: &str) -> usize {
        self.submitted
            .iter()
            .filter(|j| j.tenant == tenant && !self.terminal.contains_key(&j.job_id))
            .count()
    }

    /// The submitted job with this id, if any.
    pub fn job(&self, job_id: u64) -> Option<&SubmittedJob> {
        self.submitted.iter().find(|j| j.job_id == job_id)
    }

    /// The smallest id strictly greater than every submitted job's —
    /// what the frontend assigns to the next submission.
    pub fn next_job_id(&self) -> u64 {
        self.submitted.iter().map(|j| j.job_id + 1).max().unwrap_or(0)
    }

    /// The canonical minimal record sequence that replays to this state:
    /// per job, in submission order — its submit line, then (live jobs
    /// only) its cancel request and crash count if any, then its terminal
    /// line if any. Claims are omitted; they carry no recovery weight.
    /// This is what a [`JobWal`] compacts to.
    pub fn canonical_records(&self) -> Vec<JobRecord> {
        let mut out = Vec::new();
        for job in &self.submitted {
            out.push(JobRecord::Submitted {
                job_id: job.job_id,
                tenant: job.tenant.clone(),
                spec: job.spec.clone(),
                submitted_at_ms: job.submitted_at_ms,
            });
            if let Some(done) = self.terminal.get(&job.job_id) {
                out.push(JobRecord::Finished {
                    job_id: job.job_id,
                    outcome: done.outcome,
                    rounds: done.rounds,
                    latency_ms: done.latency_ms,
                    result: done.result.clone(),
                });
                continue;
            }
            if self.cancel_requested.contains(&job.job_id) {
                out.push(JobRecord::CancelRequested { job_id: job.job_id });
            }
            if let Some(&count) = self.crash_counts.get(&job.job_id) {
                if count > 0 {
                    out.push(JobRecord::CrashCounted { job_id: job.job_id, count });
                }
            }
        }
        out
    }

    /// Number of lines [`QueueState::canonical_records`] would write —
    /// the lower bound a size-triggered compaction compares the actual
    /// line count against.
    pub fn canonical_len(&self) -> usize {
        self.canonical_records().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "felix-jobs-{tag}-{}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn sample_records() -> Vec<JobRecord> {
        vec![
            JobRecord::Submitted {
                job_id: 0,
                tenant: "acme".to_string(),
                spec: Json::obj(vec![("model", Json::Str("dcgan".to_string()))]),
                submitted_at_ms: 1_700_000_000_123,
            },
            JobRecord::Submitted {
                job_id: 1,
                tenant: "globex".to_string(),
                spec: Json::obj(vec![("rounds", Json::Num(3.0))]),
                submitted_at_ms: 1_700_000_000_456,
            },
            JobRecord::Claimed { job_id: 0, shard: 1 },
            JobRecord::Finished {
                job_id: 0,
                outcome: JobOutcome::Done,
                rounds: 3,
                latency_ms: 0.1 + 0.2, // non-representable sum
                result: Json::obj(vec![("best", Json::f64_bits(1.25))]),
            },
        ]
    }

    /// One record of every lifecycle kind, exercising every terminal
    /// outcome plus the request/counter lines.
    fn lifecycle_records() -> Vec<JobRecord> {
        let mut records = sample_records();
        records.extend([
            JobRecord::Submitted {
                job_id: 2,
                tenant: "initech".to_string(),
                spec: Json::obj(vec![("deadline_ms", Json::Num(0.0))]),
                submitted_at_ms: 1_700_000_001_000,
            },
            JobRecord::Submitted {
                job_id: 3,
                tenant: "initech".to_string(),
                spec: Json::Null,
                submitted_at_ms: 1_700_000_002_000,
            },
            JobRecord::Submitted {
                job_id: 4,
                tenant: "hooli".to_string(),
                spec: Json::Null,
                submitted_at_ms: 1_700_000_003_000,
            },
            JobRecord::Submitted {
                job_id: 5,
                tenant: "hooli".to_string(),
                spec: Json::Null,
                submitted_at_ms: 1_700_000_004_000,
            },
            JobRecord::CancelRequested { job_id: 1 },
            JobRecord::Finished {
                job_id: 1,
                outcome: JobOutcome::Cancelled,
                rounds: 1,
                latency_ms: f64::INFINITY,
                result: Json::obj(vec![("state", Json::Str("cancelled".to_string()))]),
            },
            JobRecord::Finished {
                job_id: 2,
                outcome: JobOutcome::Expired,
                rounds: 0,
                latency_ms: f64::INFINITY,
                result: Json::obj(vec![("state", Json::Str("expired".to_string()))]),
            },
            JobRecord::CrashCounted { job_id: 3, count: 1 },
            JobRecord::CrashCounted { job_id: 3, count: 2 },
            JobRecord::CrashCounted { job_id: 4, count: 3 },
            JobRecord::Finished {
                job_id: 4,
                outcome: JobOutcome::Quarantined,
                rounds: 1,
                latency_ms: f64::INFINITY,
                result: Json::obj(vec![("error", Json::Str("quarantined".to_string()))]),
            },
            JobRecord::CancelRequested { job_id: 5 },
        ]);
        records
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let path = tmp_path("roundtrip");
        let (mut wal, _) = JobWal::open(&path).expect("open");
        for r in lifecycle_records() {
            wal.append(&r).expect("append");
        }
        let back = read_job_records(wal.path()).expect("read");
        assert_eq!(back, lifecycle_records());
        let JobRecord::Finished { latency_ms, .. } = &back[3] else { panic!("done") };
        assert_eq!(latency_ms.to_bits(), (0.1f64 + 0.2).to_bits());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_ignores_claims_and_orders_pending() {
        let state = QueueState::replay(&sample_records());
        assert_eq!(state.submitted.len(), 2);
        assert_eq!(state.claims.get(&0), Some(&1));
        assert!(state.terminal.contains_key(&0));
        let pending = state.pending();
        assert_eq!(pending.len(), 1, "claimed-but-incomplete stays pending");
        assert_eq!(pending[0].job_id, 1);
        assert_eq!(pending[0].tenant, "globex");
        assert_eq!(state.next_job_id(), 2);
        assert_eq!(state.live(), 1);
        assert_eq!(state.tenant_live("acme"), 0);
        assert_eq!(state.tenant_live("globex"), 1);
    }

    #[test]
    fn replay_folds_the_full_lifecycle() {
        let state = QueueState::replay(&lifecycle_records());
        assert_eq!(state.submitted.len(), 6);
        // Terminal states land with their outcomes; first line wins.
        assert_eq!(state.terminal[&0].outcome, JobOutcome::Done);
        assert_eq!(state.terminal[&1].outcome, JobOutcome::Cancelled);
        assert_eq!(state.terminal[&2].outcome, JobOutcome::Expired);
        assert_eq!(state.terminal[&4].outcome, JobOutcome::Quarantined);
        // Cancel/crash markers on terminal jobs are normalized away…
        assert!(!state.cancel_requested.contains(&1));
        assert!(!state.crash_counts.contains_key(&4));
        // …but stand on live jobs (counts merge by maximum).
        assert!(state.cancel_requested.contains(&5));
        assert_eq!(state.crash_counts.get(&3), Some(&2));
        // Pending = the two live jobs, in order; one is cancel-requested.
        let pending: Vec<u64> = state.pending().iter().map(|j| j.job_id).collect();
        assert_eq!(pending, vec![3, 5]);
        assert_eq!(state.live(), 2);
        assert_eq!(state.tenant_live("hooli"), 1);
    }

    #[test]
    fn replay_is_idempotent_under_duplicates() {
        let mut records = lifecycle_records();
        // A crash between result write and terminal-append re-finalizes:
        // the WAL can hold the same terminal (and claim, cancel, crash)
        // line twice.
        records.push(JobRecord::Claimed { job_id: 0, shard: 1 });
        records.push(records[3].clone());
        records.push(records[0].clone());
        records.push(JobRecord::CancelRequested { job_id: 5 });
        records.push(JobRecord::CrashCounted { job_id: 3, count: 1 });
        assert_eq!(
            QueueState::replay(&records),
            QueueState::replay(&lifecycle_records())
        );
    }

    #[test]
    fn torn_tail_and_foreign_lines_are_skipped() {
        let path = tmp_path("torn");
        let (mut wal, _) = JobWal::open(&path).expect("open");
        for r in sample_records() {
            wal.append(&r).expect("append");
        }
        drop(wal);
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        // A foreign (non-job) line, a newer-version job line, then a torn
        // tail with no newline.
        writeln!(f, "{{\"kind\":\"health\",\"v\":1}}").expect("write");
        writeln!(
            f,
            "{{\"kind\":\"job-claim\",\"v\":{},\"job\":\"0000000000000002\",\"shard\":0}}",
            JOB_RECORD_VERSION + 1
        )
        .expect("write");
        write!(f, "{{\"kind\":\"job-submit\",\"v\":1,\"job\":\"00").expect("write");
        drop(f);
        assert_eq!(read_job_records(&path).expect("read"), sample_records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_one_submit_lines_still_decode() {
        // A v1 line has no `at_ms`; it must decode with timestamp 0, not
        // be dropped — pre-upgrade WALs stay replayable.
        let doc = Json::parse(
            "{\"kind\":\"job-submit\",\"v\":1,\"job\":\"0000000000000007\",\
             \"tenant\":\"acme\",\"spec\":null}",
        )
        .expect("parse");
        assert_eq!(
            JobRecord::from_json(&doc),
            Some(JobRecord::Submitted {
                job_id: 7,
                tenant: "acme".to_string(),
                spec: Json::Null,
                submitted_at_ms: 0,
            })
        );
    }

    /// Satellite: the torn-tail rule holds for every new lifecycle line —
    /// truncating the WAL at every byte offset of the final line recovers
    /// exactly the intact prefix, whichever record kind the final line is.
    #[test]
    fn truncation_at_every_byte_offset_of_each_lifecycle_line_recovers_prefix() {
        let records = lifecycle_records();
        // Keep every record kind in final position at least once by
        // sweeping the last four lines (cancel, crash, quarantine-finish,
        // cancel-request) plus the expired/cancelled terminals.
        for keep in [8, 9, 10, 11, 12, 13, records.len()] {
            let prefix = &records[..keep];
            let path = tmp_path("lifecycle-torn");
            let (mut wal, _) = JobWal::open(&path).expect("open");
            for r in prefix {
                wal.append(&r.clone()).expect("append");
            }
            drop(wal);
            let full = std::fs::read(&path).expect("read bytes");
            let last_line_start = full[..full.len() - 1]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            for cut in last_line_start..full.len() {
                std::fs::write(&path, &full[..cut]).expect("truncate");
                assert_eq!(
                    read_job_records(&path).expect("read truncated"),
                    prefix[..keep - 1],
                    "keep {keep}, cut at byte {cut}/{}",
                    full.len()
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn compaction_preserves_recovery_state_and_drops_claims() {
        let path = tmp_path("compact");
        let (mut wal, _) = JobWal::open(&path).expect("open");
        let mut records = lifecycle_records();
        // Pile on redundancy: duplicate terminals, claims from three
        // restarts, superseded crash counts.
        records.push(JobRecord::Claimed { job_id: 3, shard: 0 });
        records.push(JobRecord::Claimed { job_id: 3, shard: 0 });
        records.push(JobRecord::Claimed { job_id: 5, shard: 0 });
        records.push(records[3].clone());
        records.push(JobRecord::CancelRequested { job_id: 5 });
        for r in &records {
            wal.append(r).expect("append");
        }
        let before = QueueState::replay(&read_job_records(wal.path()).expect("read"));
        wal.compact(&before.canonical_records()).expect("compact");
        let lines = wal.lines();
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        let on_disk = std::fs::read_to_string(&path).expect("read");
        assert_eq!(on_disk.lines().count(), lines);
        assert!(lines < records.len(), "compaction must shrink the log");
        assert_eq!(lines, before.canonical_len());
        // Replay of the compacted log equals the original recovery state,
        // claims aside (observability only, deliberately dropped).
        let mut reference = before.clone();
        reference.claims.clear();
        let after = QueueState::replay(&read_job_records(wal.path()).expect("read"));
        assert_eq!(after, reference);
        // The append handle follows the compacted file.
        let mut wal = wal;
        wal.append(&JobRecord::CancelRequested { job_id: 3 }).expect("append");
        let state = QueueState::replay(&read_job_records(&path).expect("read"));
        assert!(state.cancel_requested.contains(&3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_is_idempotent() {
        let path = tmp_path("compact-idem");
        let (mut wal, _) = JobWal::open(&path).expect("open");
        for r in lifecycle_records() {
            wal.append(&r).expect("append");
        }
        let state = QueueState::replay(&read_job_records(wal.path()).expect("read"));
        wal.compact(&state.canonical_records()).expect("compact");
        let once = std::fs::read(&path).expect("read");
        let state = QueueState::replay(&read_job_records(wal.path()).expect("read"));
        wal.compact(&state.canonical_records()).expect("compact again");
        assert_eq!(std::fs::read(&path).expect("read"), once, "second compact is a no-op");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_wal_reads_empty() {
        assert!(read_job_records(tmp_path("missing")).expect("read").is_empty());
        let state = QueueState::replay(&[]);
        assert!(state.pending().is_empty());
        assert_eq!(state.next_job_id(), 0);
        assert_eq!(state.live(), 0);
    }
}
