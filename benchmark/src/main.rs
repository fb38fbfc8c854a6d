//! Run one workload of the repository benchmark.
//!
//! ```text
//! hamband-repo-bench --workload <bank|gset|counter|bank-failover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`).
//! Exits non-zero when an output check fails, when a run overstays the
//! watchdog's deadline, or when a knob that would change the
//! workloads is set in the environment.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};

use hamband_repo_bench::cluster::Watch;
use hamband_repo_bench::metrics::Metric;
use hamband_repo_bench::provenance::{knobs_set, provenance_json};
use hamband_repo_bench::run::{run_workload, setup_seconds, Outcome};
use hamband_repo_bench::workloads::{workload, Workload, NAMES};

/// The whole invocation must end well inside three minutes.
const OVERALL_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload(name)
        .ok_or_else(|| format!("unknown workload {name:?}; expected one of {NAMES:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
    };
    let seconds = number("--seconds")?;
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds must be 1 to 120, got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: hamband-repo-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let set = knobs_set();
    if !set.is_empty() {
        eprintln!("error: {set:?} set in the environment; these change the workloads. Unset them.");
        std::process::exit(2);
    }

    // Set-up is timed here, before the worker thread exists, so every
    // invocation samples the same allocator state.
    let setup = (!args.trace).then(|| setup_seconds(&args.workload, args.seed));
    let watch = Watch::new();
    let (tx, rx) = channel();
    let worker = {
        let watch = watch.clone();
        let w = args.workload.clone();
        let (seed, budget, trace) = (args.seed, Duration::from_secs(args.seconds), args.trace);
        std::thread::Builder::new()
            .name("bench-run".into())
            .spawn(move || {
                let outcome = run_workload(&w, seed, budget, trace, &watch);
                // The receiver only goes away when the process exits.
                let _ = tx.send(outcome);
            })
            .expect("spawn the benchmark worker thread")
    };

    let start = Instant::now();
    let outcome = loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(o) => break o,
            Err(RecvTimeoutError::Timeout) => {
                let expired = watch.expired().or_else(|| {
                    (start.elapsed() > OVERALL_LIMIT)
                        .then(|| ("the whole invocation".to_string(), Vec::new()))
                });
                if let Some((label, statuses)) = expired {
                    // A wedged run cannot be stopped from outside its
                    // threads; exiting the process ends them.
                    eprintln!("watchdog: {label} overstayed its deadline; last node status:");
                    for s in statuses {
                        eprintln!("  {s}");
                    }
                    std::process::exit(3);
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                let _ = worker.join();
                eprintln!("error: the benchmark run panicked");
                std::process::exit(4);
            }
        }
    };
    worker
        .join()
        .expect("the worker thread already delivered its result");
    let mut outcome = outcome;
    if let Some(s) = setup {
        outcome.metrics.push(Metric::new("setup_s", s, "s"));
    }

    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    eprintln!(
        "{} repetition(s) in {:.1} s",
        outcome.reps,
        start.elapsed().as_secs_f64()
    );
    println!(
        "{}",
        provenance_json(&args.workload, args.seed, args.seconds, args.trace)
    );
    println!("{}", result_json(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}
