//! Timing loops shared by the workloads.

use crate::machine;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::median;
use barrier_mapreduce::core::counters::names;
use barrier_mapreduce::core::{Counters, SpanKind, TraceQuery};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Fewest timed jobs a closed loop runs, however long they take.
pub const MIN_JOBS: usize = 5;

/// Fewest traced/untraced pairs behind `trace.overhead_frac`.
pub const MIN_PAIRS: usize = 3;

/// Single-threaded layer passes per traced run; the layer metrics are
/// their medians.
const LAYER_PASSES: u64 = 2;

/// Per-pass seconds of each layer, from the traced run's layer passes.
pub struct Layers {
    by_name: HashMap<&'static str, Vec<f64>>,
    sums: Vec<f64>,
}

impl Layers {
    /// Median seconds per pass spent in spans named `name`.
    pub fn median(&self, name: &str) -> f64 {
        median(&self.by_name[name]).expect("LAYER_PASSES >= 1")
    }

    /// Median per-pass sum over every layer.
    pub fn sum(&self) -> f64 {
        median(&self.sums).expect("LAYER_PASSES >= 1")
    }
}

/// Runs `pass` `LAYER_PASSES` times, each under a `layers` span, and
/// totals the spans named in `names` per pass. `pass` returns whether
/// its output matched the reference.
pub fn layer_passes(
    tracer: &mut Tracer,
    names: &[&'static str],
    mut pass: impl FnMut(&mut Tracer, u64) -> Result<bool, String>,
) -> Result<(Layers, bool), String> {
    let mut layers = Layers {
        by_name: HashMap::new(),
        sums: Vec::new(),
    };
    let mut matched = true;
    for req in 0..LAYER_PASSES {
        let mark = tracer.mark();
        matched &= tracer.span("layers", req, |tr| pass(tr, req))?;
        let mut sum = 0.0;
        for &name in names {
            let s = tracer.sum_since(mark, name);
            layers.by_name.entry(name).or_default().push(s);
            sum += s;
        }
        layers.sums.push(sum);
    }
    Ok((layers, matched))
}

/// Wall and process-CPU seconds of one call.
pub struct Timed<T> {
    pub value: T,
    pub wall: f64,
    pub cpu: f64,
}

/// Times `f` in wall-clock and process-CPU seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let cpu0 = machine::process_cpu_secs();
    let t0 = Instant::now();
    let value = f();
    let wall = t0.elapsed().as_secs_f64();
    Timed {
        value,
        wall,
        cpu: machine::process_cpu_secs() - cpu0,
    }
}

/// Per-job wall samples of a closed loop, and their total CPU time.
#[derive(Default)]
pub struct Samples {
    pub wall: Vec<f64>,
    pub cpu_total: f64,
}

impl Samples {
    pub fn push(&mut self, wall: f64, cpu: f64) {
        self.wall.push(wall);
        self.cpu_total += cpu;
    }
}

/// Runs `job` back to back for `seconds` (and at least `MIN_JOBS`
/// times). `job` returns its own timing, so it can keep input
/// preparation and output checks outside the clock.
pub fn closed_loop<T>(
    seconds: Duration,
    mut job: impl FnMut() -> Result<Timed<T>, String>,
) -> Result<Samples, String> {
    let start = Instant::now();
    let mut samples = Samples::default();
    while samples.wall.len() < MIN_JOBS || start.elapsed() < seconds {
        let t = job()?;
        samples.push(t.wall, t.cpu);
    }
    Ok(samples)
}

/// Sets the end-to-end metrics every workload reports: the per-job wall
/// median, CPU seconds per job (the mean: CPU time is counted in 10 ms
/// ticks, too coarse for one short job), the set-up median, and the
/// process's peak memory.
pub fn set_end_to_end(out: &mut Outcome, jobs: &Samples, setups: &[f64]) -> Result<(), String> {
    let med = |v: &[f64], what: &str| median(v).ok_or_else(|| format!("no {what} samples"));
    out.set("job_s", med(&jobs.wall, "job")?);
    out.set("cpu_s", jobs.cpu_total / jobs.wall.len().max(1) as f64);
    out.set("setup_s", med(setups, "setup")?);
    out.set(
        "peak_rss_mb",
        machine::peak_rss_mb().ok_or("VmHWM unavailable in /proc/self/status")?,
    );
    if jobs.wall.len() <= 100 {
        let all: Vec<String> = jobs.wall.iter().map(|w| format!("{w:.3}")).collect();
        println!("# job seconds: {}", all.join(" "));
    }
    println!(
        "# {} timed jobs: job_s median {:.6}, min {:.6}, max {:.6}; set-ups {:?}",
        jobs.wall.len(),
        median(&jobs.wall).unwrap_or(0.0),
        jobs.wall.iter().copied().fold(f64::INFINITY, f64::min),
        jobs.wall.iter().copied().fold(0.0, f64::max),
        setups,
    );
    Ok(())
}

/// Tracing overhead as the median of `on / off - 1` over interleaved
/// pairs; `pair(i, tracing)` runs one job and returns its wall seconds.
/// Odd pairs run the untraced job first, so drift cancels.
pub fn paired_overhead(
    seconds: Duration,
    mut pair: impl FnMut(usize, bool) -> Result<f64, String>,
) -> Result<(f64, Vec<f64>), String> {
    let start = Instant::now();
    let (mut ratios, mut offs) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < MIN_PAIRS || start.elapsed() < seconds {
        let (on, off) = if i % 2 == 0 {
            let on = pair(i, true)?;
            (on, pair(i, false)?)
        } else {
            let off = pair(i, false)?;
            (pair(i, true)?, off)
        };
        ratios.push(on / off - 1.0);
        offs.push(off);
        i += 1;
    }
    Ok((median(&ratios).expect("at least MIN_PAIRS pairs"), offs))
}

/// What the executor's own trace says, per traced job (medians).
#[derive(Default)]
pub struct ProgramTrace {
    map_task_s: Vec<f64>,
    reduce_task_s: Vec<f64>,
    critical_path_s: Vec<f64>,
    events: Vec<f64>,
    counters: Counters,
    peak_entries: usize,
}

impl ProgramTrace {
    /// Sets the span-derived metrics only: per-job medians of task time,
    /// critical path and trace size.
    pub fn report_tasks(&self, out: &mut Outcome) {
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        out.set("local.map_task_s", med(&self.map_task_s));
        out.set("local.reduce_task_s", med(&self.reduce_task_s));
        out.set("local.critical_path_s", med(&self.critical_path_s));
        out.set("trace.events", med(&self.events));
    }

    /// Adds one traced job: its trace, its counters, and its stores'
    /// summed peak entries.
    pub fn record(&mut self, q: &TraceQuery<'_>, counters: &Counters, peak_entries: usize) {
        let sum = |kind| {
            q.spans_by_kind(kind)
                .iter()
                .map(|s| s.duration_secs())
                .sum::<f64>()
        };
        self.map_task_s.push(sum(SpanKind::Map));
        self.reduce_task_s.push(sum(SpanKind::ShuffleReduce));
        self.critical_path_s
            .push(q.critical_path().iter().map(|s| s.duration_secs()).sum());
        self.events.push(q.log().len() as f64);
        self.counters = counters.clone();
        self.peak_entries = peak_entries;
    }

    /// Sets the executor-side metrics: medians of the span sums, and the
    /// last job's counters (deterministic per seed).
    pub fn report(&self, out: &mut Outcome) {
        self.report_tasks(out);
        let c = &self.counters;
        out.set("shuffle.batches", c.get(names::SHUFFLE_BATCHES) as f64);
        out.set("shuffle.records", c.get(names::SHUFFLE_RECORDS) as f64);
        let combine_in = c.get(names::COMBINE_INPUT_RECORDS);
        if combine_in > 0 {
            out.set(
                "combine.out_per_in",
                c.get(names::COMBINE_OUTPUT_RECORDS) as f64 / combine_in as f64,
            );
        }
        out.set("store.peak_entries", self.peak_entries as f64);
        out.set("store.spill_files", c.get(names::SPILL_FILES) as f64);
        out.set("store.spill_bytes", c.get(names::SPILL_BYTES) as f64);
    }
}
