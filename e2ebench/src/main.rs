//! End-to-end benchmark of umpa-rs: two workloads, one command.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload direct --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `direct` and `hybrid`, closed loops through the mapping
//! pipeline. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer metrics of a traced run; `direct`'s traced run also drives
//! `MappingService` under an open-loop arrival stream, and `hybrid`'s
//! the multilevel engine.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. Any failed operation or
//! correctness check makes the exit code 1. See README.md for the
//! workloads and the metrics.

mod closed;
mod fixtures;
mod report;
mod serve;
mod stats;
mod trace;

#[cfg(test)]
mod selftest;

use closed::Closed;
use fixtures::Size;
use report::Report;

/// The benchmark's workloads, as named on the command line.
pub const WORKLOADS: [&str; 2] = ["direct", "hybrid"];

/// A parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?} (expected one of {WORKLOADS:?})"
                ))
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload and returns its checked report.
pub fn run(workload: &str, size: Size, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = match workload {
        "direct" => closed::run(Closed::Direct, size, seed, seconds, trace),
        "hybrid" => closed::run(Closed::Hybrid, size, seed, seconds, trace),
        other => unreachable!("workload {other} passed argument parsing"),
    };
    if !trace {
        rep.set(
            "ok_frac",
            1.0 - rep.failed as f64 / rep.attempted.max(1) as f64,
        );
    }
    rep.finish(trace);
    rep
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "e2ebench: workload {} seed {} seconds {} trace {} ({} CPUs)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let rep = run(
        &args.workload,
        Size::Full,
        args.seed,
        args.seconds,
        args.trace,
    );
    for e in rep.errors() {
        eprintln!("e2ebench: FAILED: {e}");
    }
    println!("{}", rep.json(args.trace));
    if !rep.correct() {
        std::process::exit(1);
    }
}
