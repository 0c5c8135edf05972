//! End-to-end benchmark of the barrier-less MapReduce executor.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets up, measures for
//! the given seconds, checks every output against a reference kept in
//! this package, and prints one JSON line last: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Earlier
//! lines starting with `#` carry the machine stamp and notes. Exits
//! non-zero when an output mismatches its reference.

mod cluster_sim;
mod gen;
mod grep_sort;
mod harness;
mod machine;
mod reference;
mod report;
mod service;
mod spans;
mod stats;
mod wordcount;

use report::{render, render_incorrect, Outcome, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: &[&str] = &[
    "wordcount-zipf",
    "grep-sort-spill",
    "service-tenants",
    "sim-cluster",
];

/// Everything a workload needs to know about this run.
pub struct Ctx {
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: Duration,
    /// The separate traced run: per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Pool width of every timed run.
    pub nproc: usize,
    /// Scratch space for spill files, inside the working directory.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Where the traced run writes its spans.
    fn trace_path(&self, workload: &str) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!("{workload}-seed{}.trace.json", self.seed))
    }
}

/// Output directory, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        nproc: machine::nproc(),
        scratch: PathBuf::from(OUT_DIR).join(format!("scratch-{}", std::process::id())),
    };
    Ok((workload, ctx))
}

/// Prints the traced run's self times and writes its spans.
fn finish_trace(ctx: &Ctx, workload: &str, tracer: &Tracer) -> Result<(), String> {
    println!("# self times (span, count, total_s, self_s):");
    for (name, (count, total, own)) in tracer.self_times() {
        println!("#   {name:<32} {count:>6} {total:>12.6} {own:>12.6}");
    }
    let path = ctx.trace_path(workload);
    tracer
        .write_chrome(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(())
}

fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    let outcome = match workload {
        "wordcount-zipf" => wordcount::run(ctx, &mut tracer),
        "grep-sort-spill" => grep_sort::run(ctx, &mut tracer),
        "service-tenants" => service::run(ctx, &mut tracer),
        "sim-cluster" => cluster_sim::run(ctx, &mut tracer),
        _ => unreachable!("workload names are checked in parse_args"),
    }?;
    if ctx.trace {
        finish_trace(ctx, workload, &tracer)?;
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# stamp {}", machine::stamp_json());
    println!(
        "# workload {workload} seed {} seconds {} trace {} pool_workers {}",
        ctx.seed,
        ctx.seconds.as_secs_f64(),
        u8::from(ctx.trace),
        ctx.nproc
    );
    let result = run(&workload, &ctx);
    // Spill files live under the scratch directory; the stores remove
    // their own, this removes what an error left behind.
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !outcome.correct {
        eprintln!("perfbench: {workload}: an output did not match its reference");
        println!("{}", render_incorrect(outcome.attempted, outcome.failed));
        return ExitCode::FAILURE;
    }
    let (defs, missing_is_error) = if ctx.trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    match render(&outcome, defs, missing_is_error) {
        Ok((line, missing)) => {
            if !missing.is_empty() {
                println!(
                    "# not exercised by {workload}, reported as 0: {}",
                    missing.join(", ")
                );
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
