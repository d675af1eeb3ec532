//! `e2e-bench` — runs one benchmark workload and prints its result line.
//!
//! ```text
//! e2e-bench --workload <felix_resnet50|ansor_resnet50|serve_mixed> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Human-readable progress goes to standard error; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use e2e_bench::{run, Args, USAGE};

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.setup_only {
        println!("setup_s {}", run::setup_once(&args));
        return;
    }
    let outcome = run::run(&args);
    for m in &outcome.metrics {
        eprintln!("{:>34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    eprintln!(
        "correct {} · failed {} of {} attempted",
        outcome.correct, outcome.accounting.failed, outcome.accounting.attempted
    );
    println!("{}", outcome.json_line());
}
