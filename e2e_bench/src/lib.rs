//! End-to-end tuning and serving benchmark for the Felix workspace.
//!
//! One command runs a named workload through the public APIs of `felix`,
//! `felix-ansor` and `felix-serve`, checks its outputs, and prints one JSON
//! result line: the end-to-end metrics, or with `--trace 1` the per-layer
//! split measured from the benchmark's own calls into each layer. See
//! `README.md` in this directory for the workloads, the metric tables and
//! how to run it.

pub mod replay;
pub mod report;
pub mod run;
pub mod serve;
pub mod trace;
pub mod tuning;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["felix_resnet50", "ansor_resnet50", "serve_mixed"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("tuned_latency_ms", "ms"),
    ("sim_tuning_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A metric
/// whose layer is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("cost.pretrain_s", "s"),
    ("graph.extract_s", "s"),
    ("ansor.task_build_s", "s"),
    ("ansor.rounds", "count"),
    ("ansor.propose_s", "s"),
    ("ansor.propose_share", "ratio"),
    ("ansor.predictions", "count"),
    ("sim.measurements", "count"),
    ("sim.measure_retries", "count"),
    ("sim.measure_s", "s"),
    ("cost.fine_tune_calls", "count"),
    ("cost.fine_tune_s", "s"),
    ("core.descent_steps", "count"),
    ("core.steps_per_s", "1/s"),
    ("core.unique_candidate_ratio", "ratio"),
    ("core.penalty_violation_rate", "ratio"),
    ("core.objective_builds", "count"),
    ("core.tape_cache_hits", "count"),
    ("core.objective_build_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("expr.tape_fwd_us_per_point", "us"),
    ("expr.tape_bwd_us_per_point", "us"),
    ("cost.mlp_grad_us_per_point", "us"),
    ("cost.mlp_grad_gmac_per_s", "GMAC/s"),
    ("cost.mlp_weight_bytes_per_point", "B"),
    ("cost.mlp_predict_us_per_point", "us"),
    ("features.eval_us_per_candidate", "us"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.job_done_p50_ms", "ms"),
    ("serve.job_done_p90_ms", "ms"),
    ("serve.submit_ack_ms", "ms"),
    ("serve.status_rtt_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.poll_interval_ms", "ms"),
    ("serve.warm_share", "ratio"),
    ("serve.repeat_share", "ratio"),
    ("records.wal_bytes", "B"),
    ("records.data_dir_bytes", "B"),
    ("error_rate", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: all generated inputs derive from it.
    pub seed: u64,
    /// Minimum measured seconds; whole units of work run until it passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Internal: run set-up once, print `setup_s <seconds>`, and exit.
    pub setup_only: bool,
}

/// Usage line.
pub const USAGE: &str =
    "usage: e2e-bench --workload <felix_resnet50|ansor_resnet50|serve_mixed> --seed <n> --seconds <n> --trace <0|1>";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds`, `--trace` (and the
    /// internal `--setup-only`).
    ///
    /// # Errors
    ///
    /// Returns a message for a missing, unknown or malformed argument.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            setup_only: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    };
                }
                "--setup-only" => args.setup_only = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload serve_mixed --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 10.0, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload serve_mixed --trace 2").is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        use felix_records::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Json::as_str)
                        .expect("a string")
                        .to_string()
                })
                .collect()
        };
        let ours = |ms: &[(&str, &str)], i: usize| -> Vec<String> {
            ms.iter()
                .map(|m| if i == 0 { m.0 } else { m.1 }.to_string())
                .collect()
        };
        assert_eq!(list("end_to_end", "name"), ours(&END_TO_END, 0));
        assert_eq!(list("end_to_end", "unit"), ours(&END_TO_END, 1));
        assert_eq!(list("per_layer", "name"), ours(&PER_LAYER, 0));
        assert_eq!(list("per_layer", "unit"), ours(&PER_LAYER, 1));
        assert!(list("workloads", "name")
            .iter()
            .all(|w| WORKLOADS.contains(&w.as_str())));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
