//! `error_rate` counts what its definition lists: measurement faults
//! injected through the public `FaultPlan` and a spec the daemon rejects
//! are both counted against attempts.
//!
//! ```sh
//! cargo test --release --manifest-path e2e_bench/Cargo.toml
//! ```

use e2e_bench::serve::{self, PlannedJob};
use e2e_bench::tuning::{self, Tool};
use felix_serve::JobSpec;
use felix_sim::FaultPlan;

#[test]
fn injected_measurement_faults_count_against_attempts() {
    let setup = tuning::setup(&felix_graph::models::dcgan(1), None);
    let rounds = setup.tasks.len() + 3;
    let faulty = tuning::run_session(
        Tool::Felix,
        &setup,
        7,
        rounds,
        FaultPlan::chaos(11, 0.5),
        None,
    );
    let acc = tuning::accounting(&faulty);
    let measured: usize = faulty.reports.iter().map(|r| r.measured).sum();
    let lost: usize = faulty.reports.iter().map(|r| r.failed).sum();
    let retries: usize = faulty.reports.iter().map(|r| r.retries).sum();
    assert!(
        lost > 0 && retries > 0,
        "the plan must lose candidates and force retries"
    );
    assert_eq!(acc.failed, (lost + faulty.unmeasured) as u64);
    assert_eq!(acc.attempted, (measured + lost + retries) as u64);
    assert!(acc.error_rate() > 0.0);

    let clean = tuning::run_session(Tool::Felix, &setup, 7, rounds, FaultPlan::none(), None);
    let acc = tuning::accounting(&clean);
    assert_eq!(acc.failed, 0);
    assert!(acc.attempted > 0);
    assert!(
        tuning::check(&clean, &setup.sim).1.is_empty(),
        "a fault-free session passes its output checks"
    );
}

#[test]
fn rejected_specs_count_against_jobs_submitted() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("failure-accounting-serve");
    let _ = std::fs::remove_dir_all(&dir);
    let (server, setup_s) = serve::setup(&dir, 1);
    assert!(setup_s > 0.0);
    let good = serve::job_spec("dcgan", serve::task_count("dcgan"), false);
    let bad = JobSpec::quick("no_such_model", vec![1], serve::DEVICE, 3);
    let jobs = vec![
        PlannedJob {
            client: 0,
            tenant: "t".to_string(),
            spec: good,
        },
        PlannedJob {
            client: 0,
            tenant: "t".to_string(),
            spec: bad,
        },
    ];
    let pass = serve::run_pass(server.addr, &jobs, 1, false);
    server.shutdown_and_wait();
    let acc = serve::accounting(&pass.jobs);
    assert_eq!((acc.attempted, acc.failed), (2, 1));
    assert_eq!(pass.jobs[0].state, "done");
    assert!(
        pass.jobs[1].state.starts_with("submit error"),
        "{}",
        pass.jobs[1].state
    );
    let problems = serve::check(&jobs, &pass.jobs);
    assert_eq!(problems.len(), 1, "{problems:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
