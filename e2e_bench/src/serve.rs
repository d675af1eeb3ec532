//! The serving workload: the `felix-served` daemon (started in this
//! process through `felix_serve::Server::start`, exactly what the binary's
//! `main` does) on a fresh data directory, driven over TCP by a closed
//! loop of clients. Each client owns its tenants and submits one job at a
//! time, polling until the job is `done` before it submits the next.

use crate::report::{quantile, Accounting};
use crate::trace::{SpanId, Tracer};
use felix::{extract_subgraphs, FelixOptions, Optimizer};
use felix_ansor::SearchTask;
use felix_records::{read_job_records, JobRecord, Json};
use felix_serve::{job_dir, Client, ClientError, JobSpec, ServeConfig, Server, WAL_FILE};
use felix_sim::Simulator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Target device of every job.
pub const DEVICE: &str = "Xavier NX";
/// Jobs per closed-loop pass: sixteen lie beyond the p90.
pub const JOBS: usize = 160;
/// Jobs per pass in the traced run, the head of the list: ten lie beyond
/// the p90.
pub const TRACED_JOBS: usize = 100;
/// The catalog models of the mix. Each gets an equal share of the jobs,
/// and half of each model's jobs set `warm_cache`: the even split, since
/// no measured traffic says which models or cache modes dominate.
pub const MODELS: [&str; 4] = ["dcgan", "vit_b32", "resnet50", "mobilenet_v2"];
/// Status poll interval; it sits well below the job-done median.
pub const POLL: Duration = Duration::from_millis(5);
/// A job not done within this bound counts as a client timeout.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// A `JobSpec::quick`-sized spec (2 seeds × 15 steps, 4 measurements) for
/// `model`, with one round per task: the fewest rounds that measure every
/// task, so every kernel latency in the result is finite.
pub fn job_spec(model: &str, n_tasks: usize, warm: bool) -> JobSpec {
    let mut spec = JobSpec::quick(model, vec![1], DEVICE, n_tasks);
    spec.warm_cache = warm;
    spec
}

/// Tuning tasks of a catalog model at batch 1.
pub fn task_count(model: &str) -> usize {
    let spec = JobSpec::quick(model, vec![1], DEVICE, 1);
    extract_subgraphs(&spec.resolve_graph().expect("catalog model")).len()
}

/// One job of the generated load.
#[derive(Clone, Debug)]
pub struct PlannedJob {
    /// Client that submits it.
    pub client: usize,
    /// Tenant it is submitted under: its client's one tenant.
    pub tenant: String,
    /// The spec.
    pub spec: JobSpec,
}

/// The seeded job list. The whole list holds exact shares — [`JOBS`] / 4
/// jobs of each of the [`MODELS`], half of them warm — in (model, warm)
/// order, and is dealt round-robin to `clients`. So the counts do not
/// depend on the client count, and every client's share of each (model,
/// warm) class is within one job of any other client's. Each client
/// shuffles its own list with the seed. Client `c`'s `k`-th job sits at
/// index `k * clients + c` while every client still has jobs.
pub fn plan(seed: u64, clients: usize) -> Vec<PlannedJob> {
    let clients = clients.max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7E_0000_0000_0000);
    let classes = 2 * MODELS.len();
    let mut lists: Vec<Vec<(usize, bool)>> = vec![Vec::new(); clients];
    for i in 0..JOBS {
        let class = i * classes / JOBS;
        lists[i % clients].push((class / 2, class % 2 == 1));
    }
    for list in &mut lists {
        shuffle(list, &mut rng);
    }
    let counts: Vec<usize> = MODELS.iter().map(|m| task_count(m)).collect();
    let mut jobs = Vec::with_capacity(JOBS);
    for k in 0..lists[0].len() {
        for (client, list) in lists.iter().enumerate() {
            if let Some(&(m, warm)) = list.get(k) {
                jobs.push(PlannedJob {
                    client,
                    tenant: format!("c{client}"),
                    spec: job_spec(MODELS[m], counts[m], warm),
                });
            }
        }
    }
    jobs
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

/// Share of jobs whose spec was already submitted earlier under another
/// tenant.
pub fn cross_tenant_repeat_share(jobs: &[PlannedJob]) -> f64 {
    let repeats = jobs
        .iter()
        .enumerate()
        .filter(|(i, j)| {
            jobs[..*i]
                .iter()
                .any(|p| p.spec == j.spec && p.tenant != j.tenant)
        })
        .count();
    repeats as f64 / jobs.len().max(1) as f64
}

/// Set-up: daemon start, first answered ping, and a warm-up job (which
/// pays the lazy cost-model pretraining). Returns the daemon and seconds.
pub fn setup(data_dir: &Path, shards: usize) -> (Server, f64) {
    let t0 = Instant::now();
    let server =
        Server::start(&ServeConfig::new("127.0.0.1:0", data_dir, shards)).expect("daemon starts");
    let mut client = Client::connect(server.addr).expect("connect");
    client.ping().expect("first ping");
    let spec = job_spec("dcgan", task_count("dcgan"), false);
    let id = client.submit("warmup", &spec).expect("warm-up submit");
    let (state, _) = client.wait_done(id, JOB_TIMEOUT).expect("warm-up job");
    assert_eq!(state, "done", "warm-up job must finish");
    (server, t0.elapsed().as_secs_f64())
}

/// Client-side record of one job.
#[derive(Clone, Debug)]
pub struct JobRun {
    /// Index into the planned job list.
    pub index: usize,
    /// Daemon job id (0 when the submit failed).
    pub job_id: u64,
    /// Terminal state, or the client error that ended the job.
    pub state: String,
    /// The result document (done jobs).
    pub result: Option<Json>,
    /// Submit call to ack, ms.
    pub ack_ms: f64,
    /// Ack to first observed `running`, ms (`None` if never observed).
    pub queue_wait_ms: Option<f64>,
    /// First observed `running` to observed `done`, ms.
    pub run_ms: Option<f64>,
    /// Start of the submit call until `done` was observed, ms.
    pub done_ms: f64,
    /// Status round trips, ms.
    pub status_rtt_ms: Vec<f64>,
}

/// One closed-loop pass over the job list.
pub struct Pass {
    /// Wall seconds from the first submit until the last client has seen
    /// its last job `done`.
    pub wall_s: f64,
    /// Per-job records, in planned order.
    pub jobs: Vec<JobRun>,
    /// Client spans (when traced).
    pub tracer: Option<Tracer>,
}

/// Runs the closed loop: one thread per client, each submitting its jobs
/// one at a time and polling every [`POLL`] until the job is terminal.
/// A client that has finished its list keeps submitting filler jobs (its
/// list again, results unused) until every client has finished, so the
/// daemon stays under the same load until the last measured job is done;
/// filler jobs still running then are left to the daemon's drain.
pub fn run_pass(addr: SocketAddr, jobs: &[PlannedJob], clients: usize, traced: bool) -> Pass {
    let epoch = Instant::now();
    let finished = AtomicUsize::new(0);
    let per_client: Vec<(Vec<JobRun>, Instant, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let finished = &finished;
                s.spawn(move || {
                    let mine: Vec<(usize, &PlannedJob)> = jobs
                        .iter()
                        .enumerate()
                        .filter(|(_, j)| j.client == c)
                        .collect();
                    let run = traced.then_some(c as u32 + 1);
                    client_loop(addr, &mine, epoch, run, finished, clients)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut wall_s: f64 = 0.0;
    let mut runs: Vec<JobRun> = Vec::with_capacity(jobs.len());
    let mut tracer = traced.then(|| Tracer::with_epoch(epoch));
    for (r, list_done, t) in per_client {
        wall_s = wall_s.max((list_done - epoch).as_secs_f64());
        runs.extend(r);
        if let (Some(all), Some(t)) = (tracer.as_mut(), t) {
            all.merge(t);
        }
    }
    runs.sort_by_key(|r| r.index);
    Pass {
        wall_s,
        jobs: runs,
        tracer,
    }
}

fn client_loop(
    addr: SocketAddr,
    jobs: &[(usize, &PlannedJob)],
    epoch: Instant,
    run: Option<u32>,
    finished: &AtomicUsize,
    clients: usize,
) -> (Vec<JobRun>, Instant, Option<Tracer>) {
    let mut tracer = run.map(|_| Tracer::with_epoch(epoch));
    let root = tracer
        .as_mut()
        .map(|t| t.open("client", None, run.unwrap_or(0)));
    let mut client = Client::connect(addr).ok();
    let mut out = Vec::with_capacity(jobs.len());
    for &(index, job) in jobs {
        let trace = tracer.as_mut().map(|t| (t, root, run.unwrap_or(0)));
        out.push(run_job(&mut client, addr, index, job, || false, trace));
    }
    let list_done = Instant::now();
    if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
        tr.close(root);
    }
    finished.fetch_add(1, Ordering::SeqCst);
    let all_done = || finished.load(Ordering::SeqCst) >= clients;
    for &(index, job) in jobs.iter().cycle() {
        if all_done() {
            break;
        }
        run_job(&mut client, addr, index, job, all_done, None);
    }
    (out, list_done, tracer)
}

/// Submits `job` and polls every [`POLL`] until it is terminal, or until
/// `abandon()` holds. Reconnects after transport failures.
fn run_job(
    client: &mut Option<Client>,
    addr: SocketAddr,
    index: usize,
    job: &PlannedJob,
    abandon: impl Fn() -> bool,
    trace: Option<(&mut Tracer, Option<SpanId>, u32)>,
) -> JobRun {
    let mut jr = JobRun {
        index,
        job_id: 0,
        state: String::new(),
        result: None,
        ack_ms: 0.0,
        queue_wait_ms: None,
        run_ms: None,
        done_ms: 0.0,
        status_rtt_ms: Vec::new(),
    };
    let t0 = Instant::now();
    let Some(c) = client.as_mut() else {
        jr.state = "client error: not connected".to_string();
        *client = Client::connect(addr).ok();
        return jr;
    };
    let ack = c.submit(&job.tenant, &job.spec);
    let t_ack = Instant::now();
    jr.ack_ms = (t_ack - t0).as_secs_f64() * 1e3;
    let id = match ack {
        Ok(id) => id,
        Err(e) => {
            jr.state = format!("submit error: {e}");
            jr.done_ms = jr.ack_ms;
            if matches!(e, ClientError::Timeout | ClientError::Transport(_)) {
                *client = Client::connect(addr).ok();
            }
            return jr;
        }
    };
    jr.job_id = id;
    let mut running_at: Option<Instant> = None;
    let done_at = loop {
        std::thread::sleep(POLL);
        if abandon() {
            jr.state = "abandoned".to_string();
            return jr;
        }
        let ts = Instant::now();
        let status = c.status(id);
        let te = Instant::now();
        match status {
            Ok(state) => {
                jr.status_rtt_ms.push((te - ts).as_secs_f64() * 1e3);
                if state == "running" && running_at.is_none() {
                    running_at = Some(te);
                }
                if matches!(
                    state.as_str(),
                    "done" | "cancelled" | "expired" | "quarantined"
                ) {
                    jr.state = state;
                    break te;
                }
            }
            Err(e) => {
                jr.state = format!("status error: {e}");
                *client = Client::connect(addr).ok();
                return jr;
            }
        }
        if t0.elapsed() > JOB_TIMEOUT {
            jr.state = "client timeout".to_string();
            *client = Client::connect(addr).ok();
            return jr;
        }
    };
    jr.done_ms = (done_at - t0).as_secs_f64() * 1e3;
    jr.queue_wait_ms = running_at.map(|r| (r - t_ack).as_secs_f64() * 1e3);
    jr.run_ms = running_at.map(|r| (done_at - r).as_secs_f64() * 1e3);
    if let Some((tr, root, run)) = trace {
        let span = tr.record("job", root, run, t0, done_at);
        tr.record("serve.submit", Some(span), run, t0, t_ack);
        let started = running_at.unwrap_or(t_ack);
        if started > t_ack {
            tr.record("serve.queue_wait", Some(span), run, t_ack, started);
        }
        tr.record("serve.run", Some(span), run, started, done_at);
    }
    match c.result(id) {
        Ok(doc) => jr.result = Some(doc),
        Err(e) => jr.state = format!("result error: {e}"),
    }
    jr
}

/// Failure accounting: non-`done` terminals, admission rejections and
/// client errors or timeouts, over jobs submitted.
pub fn accounting(runs: &[JobRun]) -> Accounting {
    Accounting {
        attempted: runs.len() as u64,
        failed: runs
            .iter()
            .filter(|r| r.state != "done" || r.result.is_none())
            .count() as u64,
    }
}

/// Output checks: every job `done` with a result whose network and
/// per-kernel latencies are finite, and identical cold specs with
/// byte-identical results (tenant field aside). Returns the failed checks.
pub fn check(jobs: &[PlannedJob], runs: &[JobRun]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut cold: Vec<(&JobSpec, String)> = Vec::new();
    for (job, run) in jobs.iter().zip(runs) {
        if run.state != "done" {
            problems.push(format!("job {}: ended {:?}", run.index, run.state));
            continue;
        }
        let Some(doc) = &run.result else {
            problems.push(format!("job {}: no result", run.index));
            continue;
        };
        let latency = doc.get("latency_ms").and_then(Json::as_f64_bits);
        if !latency.is_some_and(f64::is_finite) {
            problems.push(format!(
                "job {}: network latency missing or not finite",
                run.index
            ));
        }
        let kernels = doc.get("kernels").and_then(Json::as_arr).unwrap_or(&[]);
        if kernels.is_empty()
            || !kernels.iter().all(|k| {
                k.get("latency_ms")
                    .and_then(Json::as_f64_bits)
                    .is_some_and(f64::is_finite)
            })
        {
            problems.push(format!(
                "job {}: a kernel latency is missing or not finite",
                run.index
            ));
        }
        if !job.spec.warm_cache {
            let bytes = without_tenant(doc).write();
            match cold.iter().find(|(s, _)| **s == job.spec) {
                Some((_, first)) if *first != bytes => problems.push(format!(
                    "job {}: result differs from an identical cold spec's",
                    run.index
                )),
                Some(_) => {}
                None => cold.push((&job.spec, bytes)),
            }
        }
    }
    problems
}

fn without_tenant(doc: &Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "tenant")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Σ of the jobs' network latencies, ms (in planned order).
pub fn total_latency_ms(runs: &[JobRun]) -> f64 {
    runs.iter()
        .filter_map(|r| r.result.as_ref()?.get("latency_ms")?.as_f64_bits())
        .sum()
}

/// Σ of the done jobs' simulated tuning clocks, read from each job's final
/// checkpoint, in seconds, and the number of done jobs whose checkpoint
/// could not be read.
pub fn total_sim_s(data_dir: &Path, runs: &[JobRun]) -> (f64, usize) {
    let mut missing = 0;
    let mut total = 0.0;
    for r in runs.iter().filter(|r| r.state == "done") {
        let path = job_dir(data_dir, r.job_id).join(felix::persist::STATE_FILE);
        let clock = felix_records::read_document(path)
            .ok()
            .and_then(|doc| felix::persist::checkpoint_from_json(&doc))
            .map(|state| state.clock_s);
        match clock {
            Some(c) => total += c,
            None => missing += 1,
        }
    }
    (total, missing)
}

/// Bytes under `path`, recursively.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return std::fs::metadata(path).map_or(0, |m| m.len());
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

/// Bytes the measured jobs hold in the WAL: every record of theirs but
/// claim lines, which compaction drops at a moment that depends on timing.
/// Filler jobs and the warm-up job are not counted.
pub fn wal_bytes(data_dir: &Path, runs: &[JobRun]) -> u64 {
    let ids: HashSet<u64> = runs
        .iter()
        .map(|r| r.job_id)
        .filter(|&id| id != 0)
        .collect();
    let records = read_job_records(data_dir.join(WAL_FILE)).unwrap_or_default();
    records
        .iter()
        .filter(|r| ids.contains(&r.job_id()) && !matches!(r, JobRecord::Claimed { .. }))
        .map(|r| r.to_json().write().len() as u64 + 1)
        .sum()
}

/// Bytes of the measured jobs' directories (final checkpoint and result
/// document each).
pub fn job_dir_bytes(data_dir: &Path, runs: &[JobRun]) -> u64 {
    runs.iter()
        .filter(|r| r.job_id != 0)
        .map(|r| dir_bytes(&job_dir(data_dir, r.job_id)))
        .sum()
}

/// p50 of `f` over the done jobs.
pub fn p50_of(runs: &[JobRun], f: impl Fn(&JobRun) -> Option<f64>) -> f64 {
    let v: Vec<f64> = runs
        .iter()
        .filter(|r| r.state == "done")
        .filter_map(f)
        .collect();
    quantile(&v, 0.5)
}

/// Replays `Optimizer::save_checkpoint` at serve-job size: for the first
/// done cold job of each model, resumes its final checkpoint and times
/// `reps` saves. Returns the p50 per model, averaged over the job list.
pub fn checkpoint_replay_ms(
    data_dir: &Path,
    jobs: &[PlannedJob],
    runs: &[JobRun],
    reps: usize,
) -> f64 {
    let mut per_model: Vec<(&str, f64)> = Vec::new();
    for (job, run) in jobs.iter().zip(runs) {
        if job.spec.warm_cache
            || run.state != "done"
            || per_model.iter().any(|(m, _)| *m == job.spec.model)
        {
            continue;
        }
        let spec = &job.spec;
        let graphs = extract_subgraphs(&spec.resolve_graph().expect("valid spec"));
        let device = spec.resolve_device().expect("valid device");
        let options = FelixOptions {
            n_seeds: spec.n_seeds,
            n_steps: spec.n_steps,
            threads: 1,
            ..Default::default()
        };
        let dir: PathBuf = job_dir(data_dir, run.job_id);
        let Ok(opt) = Optimizer::resume_from_checkpoint(graphs, device, options, &dir) else {
            continue;
        };
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                opt.save_checkpoint().expect("checkpoint write");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        per_model.push((spec.model.as_str(), quantile(&times, 0.5)));
    }
    weighted_by_jobs(jobs, &per_model)
}

/// The per-job set-up the daemon's worker repeats for every job, replayed
/// once per model of the mix.
pub struct JobSetupReplay {
    /// `extract_subgraphs`, seconds per job (averaged over the job list).
    pub extract_s: f64,
    /// `SearchTask::from_task` for every task, seconds per job.
    pub task_build_s: f64,
    /// Objective builds over the whole job list: every task of a job gets
    /// a round, and a task's first round builds one objective per sketch.
    pub objective_builds: f64,
    /// The tasks of every model in the mix.
    pub tasks: Vec<SearchTask>,
}

/// Replays each job's set-up per model of the mix and weights it by the
/// job list.
pub fn job_setup_replay(jobs: &[PlannedJob]) -> JobSetupReplay {
    let sim = Simulator::new(felix_sim::DeviceConfig::xavier_nx());
    let (mut extract, mut build, mut sketches) = (Vec::new(), Vec::new(), Vec::new());
    let mut tasks = Vec::new();
    for model in MODELS {
        let spec = JobSpec::quick(model, vec![1], DEVICE, 1);
        let graph = spec.resolve_graph().expect("catalog model");
        let t0 = Instant::now();
        let graphs = extract_subgraphs(&graph);
        let t1 = Instant::now();
        let built: Vec<SearchTask> = graphs
            .iter()
            .map(|t| SearchTask::from_task(t, &sim))
            .collect();
        extract.push((model, (t1 - t0).as_secs_f64()));
        build.push((model, t1.elapsed().as_secs_f64()));
        sketches.push((
            model,
            built.iter().map(|t| t.sketches.len()).sum::<usize>() as f64,
        ));
        tasks.extend(built);
    }
    JobSetupReplay {
        extract_s: weighted_by_jobs(jobs, &extract),
        task_build_s: weighted_by_jobs(jobs, &build),
        objective_builds: weighted_by_jobs(jobs, &sketches) * jobs.len() as f64,
        tasks,
    }
}

fn weighted_by_jobs(jobs: &[PlannedJob], per_model: &[(&str, f64)]) -> f64 {
    let total: f64 = jobs
        .iter()
        .filter_map(|j| {
            per_model
                .iter()
                .find(|(m, _)| *m == j.spec.model)
                .map(|(_, v)| *v)
        })
        .sum();
    total / jobs.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(jobs: &[PlannedJob], model: &str, warm: bool) -> usize {
        jobs.iter()
            .filter(|j| j.spec.model == model && j.spec.warm_cache == warm)
            .count()
    }

    #[test]
    fn plan_has_exact_shares_for_any_client_count() {
        for clients in [1, 2, 3, 8, 16, 32, 64] {
            let jobs = plan(5, clients);
            assert_eq!(jobs.len(), JOBS);
            for model in MODELS {
                for warm in [false, true] {
                    assert_eq!(count(&jobs, model, warm), JOBS / 8, "{clients} clients");
                    let per_client: Vec<usize> = (0..clients)
                        .map(|c| {
                            let mine: Vec<PlannedJob> =
                                jobs.iter().filter(|j| j.client == c).cloned().collect();
                            count(&mine, model, warm)
                        })
                        .collect();
                    let (lo, hi) = (per_client.iter().min(), per_client.iter().max());
                    assert!(
                        hi.unwrap() - lo.unwrap() <= 1,
                        "{clients} clients: {per_client:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_is_a_function_of_the_seed() {
        let specs = |seed| -> Vec<(usize, String, JobSpec)> {
            plan(seed, 2)
                .into_iter()
                .map(|j| (j.client, j.tenant, j.spec))
                .collect()
        };
        assert_eq!(specs(1), specs(1));
        assert_ne!(specs(1), specs(2));
    }
}
