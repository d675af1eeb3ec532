//! Runs one workload end to end: set-up (repeated, median), the measured
//! work, the output checks, and — in the traced run — the per-layer split.

use crate::replay;
use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::serve;
use crate::trace::Tracer;
use crate::tuning::{self, RoundTrace, Tool};
use crate::{Args, END_TO_END, PER_LAYER};
use felix::FelixOptions;
use felix_ansor::TunerStats;
use felix_graph::models;
use felix_sim::{FaultPlan, Simulator};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

/// Set-ups per untraced run; the reported `setup_s` is their median. All
/// but one run in child processes, so each pays the in-process cost-model
/// memo afresh.
pub const SETUP_REPS: usize = 5;

/// Candidates per `predict_batch` call in the gradient proposer's final
/// scoring pass.
pub const GRADIENT_SCORING_WIDTH: usize = 64;

/// Working directory for daemon data and trace files, relative to the
/// directory the benchmark runs in.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".e2e_bench")
}

fn cores() -> usize {
    felix::parallel::effective_threads(0)
}

/// Runs set-up once and returns its seconds (the `--setup-only` mode).
pub fn setup_once(args: &Args) -> f64 {
    if args.workload == "serve_mixed" {
        let dir = scratch_dir(args, "setup");
        let (server, secs) = serve::setup(&dir, cores());
        server.shutdown_and_wait();
        let _ = std::fs::remove_dir_all(&dir);
        secs
    } else {
        let t0 = Instant::now();
        tuning::setup(&models::resnet50(1), None);
        t0.elapsed().as_secs_f64()
    }
}

/// Set-up times of `SETUP_REPS - 1` child processes of this binary.
fn child_setups(args: &Args) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable");
    (1..SETUP_REPS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--setup-only",
                    "--workload",
                    &args.workload,
                    "--seed",
                    &args.seed.to_string(),
                ])
                .output()
                .expect("set-up child runs");
            assert!(
                out.status.success(),
                "set-up child failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .find_map(|l| l.strip_prefix("setup_s ")?.trim().parse().ok())
                .expect("set-up child prints setup_s")
        })
        .collect()
}

fn scratch_dir(args: &Args, what: &str) -> PathBuf {
    let dir = work_dir().join(format!(
        "{}-{}-{}-{what}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn trace_path(args: &Args) -> PathBuf {
    work_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "felix_resnet50" => run_tuning(args, Tool::Felix),
        "ansor_resnet50" => run_tuning(args, Tool::Ansor),
        _ => run_serve(args),
    }
}

/// Fills `outcome` with every metric of `names` from `values` (0 where a
/// layer is not on this workload's path).
fn emit(
    outcome: &mut Outcome,
    names: &[(&'static str, &'static str)],
    values: &HashMap<&str, f64>,
) {
    for &(name, unit) in names {
        outcome.push(name, unit, values.get(name).copied().unwrap_or(0.0));
    }
}

fn run_tuning(args: &Args, tool: Tool) -> Outcome {
    let mut outcome = Outcome::default();
    let mut values: HashMap<&str, f64> = HashMap::new();
    let graph = models::resnet50(1);
    if !args.trace {
        let mut setups = child_setups(args);
        let t0 = Instant::now();
        let setup = tuning::setup(&graph, None);
        setups.push(t0.elapsed().as_secs_f64());
        let start = Instant::now();
        let mut sessions = Vec::new();
        while sessions.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            sessions.push(tuning::run_session(
                tool,
                &setup,
                args.seed,
                tuning::ROUNDS,
                FaultPlan::none(),
                None,
            ));
        }
        check_sessions(&sessions, &setup.sim, &mut outcome);
        let walls: Vec<f64> = sessions.iter().map(|s| s.wall_s).collect();
        eprintln!("setup samples (s): {setups:?}; session walls (s): {walls:?}");
        values.insert("setup_s", median(&setups));
        values.insert("wall_s", median(&walls));
        values.insert("tuned_latency_ms", sessions[0].latency_ms);
        values.insert("sim_tuning_s", sessions[0].sim_s);
        values.insert("peak_rss_mb", peak_rss_mb());
        emit(&mut outcome, &END_TO_END, &values);
        return outcome;
    }

    // Traced run: one untraced session (the overhead baseline), one traced
    // session, then the layer replays. Two sessions keep the run well
    // inside the per-run time limit.
    let epoch = Instant::now();
    let mut tracer = Tracer::with_epoch(epoch);
    let setup = tuning::setup(&graph, Some(&mut tracer));
    let plain = tuning::run_session(
        tool,
        &setup,
        args.seed,
        tuning::ROUNDS,
        FaultPlan::none(),
        None,
    );
    let rt = Rc::new(RefCell::new(RoundTrace::with_epoch(epoch)));
    let traced = tuning::run_session(
        tool,
        &setup,
        args.seed,
        tuning::ROUNDS,
        FaultPlan::none(),
        Some((&rt, 1)),
    );
    let sessions = [plain, traced];
    check_sessions(&sessions, &setup.sim, &mut outcome);
    let [plain, traced] = sessions;
    let rt = Rc::try_unwrap(rt)
        .ok()
        .expect("trace released")
        .into_inner();
    tracer.merge(rt.tracer);

    values.insert("cost.pretrain_s", tracer.total("cost.pretrain"));
    values.insert("graph.extract_s", tracer.total("graph.extract_subgraphs"));
    values.insert("ansor.task_build_s", tracer.total("ansor.task_build"));
    let propose_s = tracer.total("ansor.propose");
    values.insert("ansor.rounds", traced.reports.len() as f64);
    values.insert("ansor.propose_s", propose_s);
    values.insert("ansor.propose_share", propose_s / traced.wall_s);
    values.insert("ansor.predictions", rt.predictions as f64);
    values.insert("sim.measurements", rt.events as f64);
    values.insert("sim.measure_retries", rt.retries as f64);
    values.insert("sim.measure_s", tracer.total("sim.measure"));
    values.insert("cost.fine_tune_calls", rt.fine_tune_calls as f64);
    values.insert("cost.fine_tune_s", tracer.total("cost.fine_tune"));
    descent_stats(&traced.stats, propose_s, &mut values);
    values.insert("error_rate", outcome.accounting.error_rate());
    values.insert("trace.coverage", tracer.coverage("session", &["round"]));
    values.insert("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0);

    let t = Instant::now();
    let replay_root = tracer.open("replay", None, 2);
    match tool {
        Tool::Felix => {
            let (objectives, build_ms) = replay::build_objectives(&setup.tasks);
            values.insert("core.objective_build_ms", median(&build_ms));
            let width = tuning::chunk_width(&FelixOptions::default());
            let d = replay::descent(
                &objectives,
                &setup.tasks,
                &setup.model,
                width,
                10,
                args.seed,
            );
            insert_descent(&d, &mut values);
            let s = replay::scoring(
                &setup.tasks,
                &setup.model,
                GRADIENT_SCORING_WIDTH,
                16,
                args.seed,
            );
            values.insert("features.eval_us_per_candidate", s.eval_us);
            values.insert("cost.mlp_predict_us_per_point", s.predict_us);
        }
        Tool::Ansor => {
            // The evolutionary proposer scores one candidate per `predict`
            // call: the scoring width is 1.
            let s = replay::scoring(&setup.tasks, &setup.model, 1, 64, args.seed);
            values.insert("features.eval_us_per_candidate", s.eval_us);
            values.insert("cost.mlp_predict_us_per_point", s.predict_us);
        }
    }
    tracer.close(replay_root);
    eprintln!("layer replays took {:.1} s", t.elapsed().as_secs_f64());
    write_trace(args, &tracer);
    emit(&mut outcome, &PER_LAYER, &values);
    outcome
}

fn check_sessions(sessions: &[tuning::Session], sim: &Simulator, outcome: &mut Outcome) {
    let mut fingerprints = Vec::new();
    for s in sessions {
        let (fp, problems) = tuning::check(s, sim);
        fingerprints.push(fp);
        outcome.problems.extend(problems);
        outcome.accounting.add(tuning::accounting(s));
    }
    if fingerprints.windows(2).any(|w| w[0] != w[1]) {
        outcome.problems.push(format!(
            "sessions with one seed disagree: {fingerprints:x?}"
        ));
    }
    eprintln!(
        "fingerprint {:016x}; tuned latency {:?} ms; simulated tuning {:?} s",
        fingerprints[0], sessions[0].latency_ms, sessions[0].sim_s
    );
    outcome.correct = outcome.problems.is_empty() && outcome.accounting.attempted > 0;
}

/// Descent counters from the gradient proposer's per-round statistics.
fn descent_stats(stats: &[TunerStats], propose_s: f64, values: &mut HashMap<&str, f64>) {
    let steps: usize = stats.iter().map(|s| s.grad_steps).sum();
    let cands: usize = stats.iter().map(|s| s.candidates).sum();
    let weighted = |f: fn(&TunerStats) -> f64| {
        stats
            .iter()
            .map(|s| s.candidates as f64 * f(s))
            .sum::<f64>()
            / cands.max(1) as f64
    };
    values.insert("core.descent_steps", steps as f64);
    values.insert(
        "core.steps_per_s",
        if steps > 0 {
            steps as f64 / propose_s
        } else {
            0.0
        },
    );
    if cands > 0 {
        values.insert(
            "core.unique_candidate_ratio",
            1.0 - weighted(|s| s.rounding_rejection_rate),
        );
        values.insert(
            "core.penalty_violation_rate",
            weighted(|s| s.penalty_violation_rate),
        );
    }
    values.insert(
        "core.objective_builds",
        stats.iter().map(|s| s.cache_misses).sum::<usize>() as f64,
    );
    values.insert(
        "core.tape_cache_hits",
        stats.iter().map(|s| s.tape_cache_hits).sum::<usize>() as f64,
    );
}

fn insert_descent(d: &replay::DescentReplay, values: &mut HashMap<&str, f64>) {
    values.insert("expr.tape_fwd_us_per_point", d.tape_fwd_us);
    values.insert("expr.tape_bwd_us_per_point", d.tape_bwd_us);
    values.insert("cost.mlp_grad_us_per_point", d.mlp_grad_us);
    values.insert("cost.mlp_grad_gmac_per_s", d.mlp_gmac_per_s);
    values.insert(
        "cost.mlp_weight_bytes_per_point",
        d.mlp_weight_bytes_per_point,
    );
}

fn write_trace(args: &Args, tracer: &Tracer) {
    let path = trace_path(args);
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("span file {} not written: {e}", path.display()),
    }
}

fn run_serve(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut values: HashMap<&str, f64> = HashMap::new();
    let clients = cores();
    let mut jobs = serve::plan(args.seed, clients);
    if args.trace {
        // The traced run makes two passes (untraced baseline, traced) over
        // the head of the list, so it stays well inside the per-run time
        // limit.
        jobs.truncate(serve::TRACED_JOBS);
    }
    let mut setups = if args.trace {
        Vec::new()
    } else {
        child_setups(args)
    };
    // The daemon pretrains its model lazily, inside the warm-up job; the
    // traced run times that call on its own first (the result is memoized
    // per process, so the daemon's call then returns it at once).
    let pretrain = args.trace.then(|| {
        let t0 = Instant::now();
        felix::pretrained_cost_model(
            &felix_sim::DeviceConfig::xavier_nx(),
            felix::ModelQuality::Fast,
        );
        (t0, Instant::now())
    });
    let mut passes = Vec::new();
    let mut dirs = Vec::new();
    let start = Instant::now();
    // Untraced passes until the measured time has passed; the traced run
    // makes one untraced pass (the overhead baseline) and one traced pass.
    loop {
        let traced = args.trace && !passes.is_empty();
        let dir = scratch_dir(args, &format!("pass{}", passes.len()));
        let (server, secs) = serve::setup(&dir, clients);
        // Later set-ups in this process find the model memoized.
        if passes.is_empty() {
            setups.push(secs);
        }
        let pass = serve::run_pass(server.addr, &jobs, clients, traced);
        server.shutdown_and_wait();
        eprintln!(
            "pass {}: {} jobs in {:.2} s",
            passes.len(),
            pass.jobs.len(),
            pass.wall_s
        );
        passes.push(pass);
        dirs.push(dir);
        let enough = if args.trace {
            passes.len() == 2
        } else {
            start.elapsed().as_secs_f64() >= args.seconds
        };
        if enough {
            break;
        }
    }
    let mut latency = None;
    let mut sim_s = None;
    for (pass, dir) in passes.iter().zip(&dirs) {
        outcome.problems.extend(serve::check(&jobs, &pass.jobs));
        outcome.accounting.add(serve::accounting(&pass.jobs));
        let l = serve::total_latency_ms(&pass.jobs);
        let (s, missing) = serve::total_sim_s(dir, &pass.jobs);
        if missing > 0 {
            outcome.problems.push(format!(
                "{missing} done jobs have no readable final checkpoint"
            ));
        }
        if latency.get_or_insert(l).to_bits() != l.to_bits()
            || sim_s.get_or_insert(s).to_bits() != s.to_bits()
        {
            outcome
                .problems
                .push("passes with one seed disagree on their results".to_string());
        }
    }
    outcome.correct = outcome.problems.is_empty() && outcome.accounting.attempted > 0;
    let (latency, sim_s) = (latency.unwrap_or(0.0), sim_s.unwrap_or(0.0));
    eprintln!(
        "jobs' latency sum {latency:?} ms; simulated tuning sum {sim_s:?} s; setups {setups:?}"
    );

    if !args.trace {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        values.insert("setup_s", median(&setups));
        values.insert("wall_s", median(&walls));
        values.insert("tuned_latency_ms", latency);
        values.insert("sim_tuning_s", sim_s);
        values.insert("peak_rss_mb", peak_rss_mb());
        emit(&mut outcome, &END_TO_END, &values);
        cleanup(&dirs);
        return outcome;
    }

    let mut tracer = passes[1].tracer.take().unwrap_or_default();
    let (plain, traced) = (&passes[0], &passes[1]);
    let runs = &traced.jobs;
    let done: Vec<f64> = runs
        .iter()
        .filter(|r| r.state == "done")
        .map(|r| r.done_ms)
        .collect();
    values.insert("serve.jobs_per_s", runs.len() as f64 / traced.wall_s);
    values.insert("serve.job_done_p50_ms", quantile(&done, 0.5));
    values.insert("serve.job_done_p90_ms", quantile(&done, 0.9));
    values.insert(
        "serve.submit_ack_ms",
        serve::p50_of(runs, |r| Some(r.ack_ms)),
    );
    let rtts: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.status_rtt_ms.iter().copied())
        .collect();
    values.insert("serve.status_rtt_ms", quantile(&rtts, 0.5));
    values.insert(
        "serve.queue_wait_ms",
        serve::p50_of(runs, |r| r.queue_wait_ms),
    );
    values.insert("serve.run_ms", serve::p50_of(runs, |r| r.run_ms));
    values.insert("serve.poll_interval_ms", serve::POLL.as_secs_f64() * 1e3);
    let warm = jobs.iter().filter(|j| j.spec.warm_cache).count();
    values.insert("serve.warm_share", warm as f64 / jobs.len() as f64);
    values.insert(
        "serve.repeat_share",
        serve::cross_tenant_repeat_share(&jobs),
    );
    values.insert("records.wal_bytes", serve::wal_bytes(&dirs[1], runs) as f64);
    values.insert(
        "records.data_dir_bytes",
        serve::job_dir_bytes(&dirs[1], runs) as f64,
    );
    values.insert("ansor.rounds", rounds_served(runs));
    values.insert("error_rate", outcome.accounting.error_rate());
    values.insert("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0);
    values.insert("trace.coverage", tracer.coverage("client", &["job"]));
    if let Some((t0, t1)) = pretrain {
        tracer.record("cost.pretrain", None, 0, t0, t1);
        values.insert("cost.pretrain_s", (t1 - t0).as_secs_f64());
    }

    let t = Instant::now();
    let replay_root = tracer.open("replay", None, 0);
    let model = felix::pretrained_cost_model(
        &felix_sim::DeviceConfig::xavier_nx(),
        felix::ModelQuality::Fast,
    );
    let setup = serve::job_setup_replay(&jobs);
    values.insert("graph.extract_s", setup.extract_s);
    values.insert("ansor.task_build_s", setup.task_build_s);
    values.insert("core.objective_builds", setup.objective_builds);
    let tasks = setup.tasks;
    let (objectives, build_ms) = replay::build_objectives(&tasks);
    values.insert("core.objective_build_ms", median(&build_ms));
    let width = tuning::chunk_width(&FelixOptions {
        n_seeds: jobs[0].spec.n_seeds,
        threads: 1,
        ..Default::default()
    });
    let d = replay::descent(&objectives, &tasks, &model, width, 10, args.seed);
    insert_descent(&d, &mut values);
    let s = replay::scoring(&tasks, &model, GRADIENT_SCORING_WIDTH, 8, args.seed);
    values.insert("features.eval_us_per_candidate", s.eval_us);
    values.insert("cost.mlp_predict_us_per_point", s.predict_us);
    values.insert(
        "core.checkpoint_ms",
        serve::checkpoint_replay_ms(&dirs[1], &jobs, runs, 10),
    );
    tracer.close(replay_root);
    eprintln!("layer replays took {:.1} s", t.elapsed().as_secs_f64());
    write_trace(args, &tracer);
    emit(&mut outcome, &PER_LAYER, &values);
    cleanup(&dirs);
    outcome
}

fn rounds_served(runs: &[serve::JobRun]) -> f64 {
    runs.iter()
        .filter_map(|r| r.result.as_ref()?.get("rounds")?.as_usize())
        .sum::<usize>() as f64
}

fn cleanup(dirs: &[PathBuf]) {
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}
