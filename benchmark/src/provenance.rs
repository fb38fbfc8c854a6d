//! What produced a result: source revision, machine, toolchain, and
//! the knobs that would silently change a workload.

use std::path::Path;
use std::process::Command;

use crate::workloads::Workload;

/// Environment variables the runtime reads silently while sizing a run
/// (`RunConfig::new`, `RuntimeConfig::default()`, `WorkloadSpec::ops`).
/// Any of them set would change the workloads, so the benchmark
/// refuses to run.
pub(crate) const PINNED_KNOBS: [&str; 5] = [
    "HAMBAND_BACKEND",
    "HAMBAND_MAX_BATCH",
    "HAMBAND_SYNC_SHARDS",
    "HAMBAND_DURABILITY",
    "HAMBAND_OFFERED_LOAD",
];

/// The pinned knobs that are set in this process's environment.
pub fn knobs_set() -> Vec<&'static str> {
    PINNED_KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit checked out in the working directory, if it is a git
/// checkout.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One JSON object recording where and how a result was produced.
pub fn provenance_json(w: &Workload, seed: u64, seconds: u64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"provenance\": {{\"git_rev\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \
         \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {traced}, \
         \"sim_ops\": {}, \"threaded_ops\": {}, \"nodes\": {}}}}}",
        json_str(&git_rev()),
        json_str(&cpu_model()),
        json_str(&rustc),
        json_str(w.name),
        w.ops,
        w.threaded_ops.unwrap_or(0),
        w.nodes,
    )
}
