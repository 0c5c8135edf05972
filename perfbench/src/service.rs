//! `service-tenants`: an open loop of small WordCount jobs from four
//! tenants through one `serve` session with the shared result cache on.
//! A quarter of the submissions repeat one of a small hot set of inputs
//! (whole-job cache hits once the set-up pre-filled the cache); the rest
//! carry inputs the cache has not seen.
//!
//! The generator is this thread alone. It submits on a fixed schedule,
//! times each job from its due time, and detects completions by polling
//! `JobHandle::is_done` (waiting in submission order would mis-time jobs
//! the fair scheduler finishes out of order).

use crate::gen::{Splits, ZipfText};
use crate::machine::{process_cpu_secs, thread_cpu_secs};
use crate::reference::{counts_match, word_counts};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::Ctx;
use barrier_mapreduce::apps::WordCount;
use barrier_mapreduce::core::counters::names;
use barrier_mapreduce::core::local::LocalRunner;
use barrier_mapreduce::core::{
    serve, CacheBudget, Counters, Engine, HashPartitioner, JobConfig, JobHandle, JobService,
    MemoryPolicy, ServiceConfig, ServiceReport, SharedCache, SubmitError, TraceLog, TracePolicy,
    TraceQuery,
};
use barrier_mapreduce::workloads::mix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const TENANTS: usize = 4;
const VOCAB: usize = 50_000;
/// Inputs that recur: a quarter of all submissions pick one of these.
const HOT_INPUTS: usize = 8;
const HOT_SHARE: f64 = 0.25;
/// Word streams the other submissions draw from; each submission gets
/// fresh line keys, so its input is new to the cache.
const BASE_INPUTS: usize = 64;
/// 2 splits x 160 lines x 10 words = 3,200 words per job.
const SPLITS_PER_JOB: usize = 2;
const LINES_PER_SPLIT: usize = 160;
const WORDS_PER_LINE: usize = 10;
const REDUCERS: usize = 2;
/// A job slower than this, from its due time, counts as failed.
const LATENCY_LIMIT_S: f64 = 0.1;
/// Jobs per second of the light load (the end-to-end figures).
const LIGHT_RATE: f64 = 100.0;
/// Jobs per second near the knee, where latency rises first.
const BUSY_RATE: f64 = 400.0;
/// The fixed rates `svc_max_jobs_s` picks from, ascending.
const PROBE_RATES: [f64; 8] = [250.0, 300.0, 350.0, 400.0, 450.0, 500.0, 550.0, 600.0];
/// Sessions started per run (each: start-up plus cache pre-fill);
/// `setup_s` is their median.
const SETUPS: usize = 31;
/// How often the generator wakes to poll for completions.
const POLL: Duration = Duration::from_micros(100);

fn job_config(ctx: &Ctx, tracing: bool) -> JobConfig {
    JobConfig::new(REDUCERS)
        .engine(Engine::BarrierLess {
            memory: MemoryPolicy::InMemory,
        })
        .cache(CacheBudget::enabled())
        .trace(if tracing {
            TracePolicy::Enabled
        } else {
            TracePolicy::Disabled
        })
        .pool_workers(ctx.nproc)
        .scratch_dir(&ctx.scratch)
        .seed(ctx.seed)
}

fn service_config(ctx: &Ctx) -> ServiceConfig {
    ServiceConfig::new(TENANTS)
        .pool_workers(ctx.nproc)
        .cache(CacheBudget::enabled())
        .seed(ctx.seed)
}

/// Which input a submission carries.
#[derive(Clone, Copy)]
enum Pick {
    Hot(usize),
    /// A base word stream under line keys shifted by the offset.
    Fresh(usize, u64),
}

struct Inputs {
    hot: Vec<Splits>,
    base: Vec<Splits>,
    /// References: the hot inputs', then the base streams'.
    want: Vec<HashMap<String, u64>>,
    gen_s: f64,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let t0 = Instant::now();
        let text = ZipfText::new(VOCAB, 1.0);
        let gen = |stream: u64| {
            text.splits(
                mix(seed, stream),
                SPLITS_PER_JOB,
                LINES_PER_SPLIT,
                WORDS_PER_LINE,
            )
        };
        let hot: Vec<Splits> = (0..HOT_INPUTS as u64).map(gen).collect();
        let base: Vec<Splits> = (0..BASE_INPUTS as u64).map(|b| gen(1_000 + b)).collect();
        let gen_s = t0.elapsed().as_secs_f64();
        let want = hot.iter().chain(&base).map(word_counts).collect();
        Inputs {
            hot,
            base,
            want,
            gen_s,
        }
    }

    fn splits(&self, pick: Pick) -> Splits {
        match pick {
            Pick::Hot(h) => self.hot[h].clone(),
            Pick::Fresh(b, offset) => self.base[b]
                .iter()
                .map(|split| {
                    split
                        .iter()
                        .map(|(k, line)| (k + offset, line.clone()))
                        .collect()
                })
                .collect(),
        }
    }

    fn want(&self, pick: Pick) -> &HashMap<String, u64> {
        match pick {
            Pick::Hot(h) => &self.want[h],
            Pick::Fresh(b, _) => &self.want[HOT_INPUTS + b],
        }
    }
}

/// One phase's fixed schedule: submission `i` is due at `i / rate`.
struct Plan {
    rate: f64,
    jobs: Vec<(usize, Pick)>,
}

impl Plan {
    /// `rate` jobs per second for `secs`, tenants and inputs drawn from
    /// `stream` of the seed. `serial` numbers fresh inputs across phases.
    fn new(seed: u64, stream: u64, rate: f64, secs: f64, serial: &mut u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, stream));
        let n = ((rate * secs).round() as usize).max(1);
        let jobs = (0..n)
            .map(|_| {
                let tenant = rng.gen_range(0..TENANTS);
                let pick = if rng.gen_bool(HOT_SHARE) {
                    Pick::Hot(rng.gen_range(0..HOT_INPUTS))
                } else {
                    *serial += 1;
                    Pick::Fresh(rng.gen_range(0..BASE_INPUTS), *serial << 32)
                };
                (tenant, pick)
            })
            .collect();
        Plan { rate, jobs }
    }
}

/// A submitted job the generator has not seen finish.
struct Pending {
    handle: JobHandle<WordCount>,
    due: f64,
    pick: Pick,
    submitted_at: f64,
}

/// A finished traced job: when it was submitted and seen done (tracer
/// time), and its own trace.
struct TracedJob {
    id: u64,
    submitted_at: f64,
    done_at: f64,
    log: TraceLog,
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    scheduled: usize,
    /// Seconds from due time to seen done, per completed job.
    latency: Vec<f64>,
    /// Seconds the generator submitted after the due time.
    lateness: Vec<f64>,
    /// Seconds spent inside `submit`.
    submit: Vec<f64>,
    rejected: u64,
    errors: u64,
    mismatched: bool,
    /// Jobs still outstanding when the last one was submitted.
    backlog: usize,
    /// CPU seconds of every thread but the generator's.
    cpu: f64,
    counters: Counters,
    traced: Vec<TracedJob>,
}

impl Phase {
    fn missed(&self) -> u64 {
        self.latency
            .iter()
            .filter(|&&l| l > LATENCY_LIMIT_S)
            .count() as u64
    }

    fn failed(&self) -> u64 {
        self.rejected + self.errors + self.missed()
    }

    fn p(&self, q: f64) -> f64 {
        quantile(&self.latency, q).unwrap_or(f64::INFINITY)
    }

    /// Met the latency limit at p99 with nothing rejected or failed and
    /// no backlog beyond what the limit itself allows.
    fn sustained(&self, rate: f64) -> bool {
        let allowed = (rate * LATENCY_LIMIT_S).ceil() as usize;
        self.rejected == 0
            && self.errors == 0
            && self.p(0.99) <= LATENCY_LIMIT_S
            && self.backlog <= allowed
    }

    fn finish(&mut self, p: Pending, now: f64, inputs: &Inputs, clock: &Tracer) {
        self.latency.push(now - p.due);
        let id = p.handle.id;
        match p.handle.wait() {
            Ok(out) => {
                if !counts_match(inputs.want(p.pick), out.partitions.iter().flatten()) {
                    self.mismatched = true;
                }
                self.counters.merge(&out.counters);
                if !out.trace.is_empty() {
                    self.traced.push(TracedJob {
                        id,
                        submitted_at: p.submitted_at,
                        done_at: clock.now(),
                        log: out.trace,
                    });
                }
            }
            Err(_) => self.errors += 1,
        }
    }
}

/// Runs one phase of `plan` through `svc`, returning once every job it
/// submitted has finished.
fn run_phase(
    svc: &JobService<WordCount>,
    cfg: &JobConfig,
    inputs: &Inputs,
    plan: &Plan,
    clock: &Tracer,
) -> Phase {
    let mut ph = Phase {
        scheduled: plan.jobs.len(),
        ..Phase::default()
    };
    let prepare = |i: usize| {
        plan.jobs
            .get(i)
            .map(|&(t, pick)| (t, pick, inputs.splits(pick)))
    };
    let (cpu0, gen_cpu0) = (process_cpu_secs(), thread_cpu_secs());
    let start = Instant::now();
    let mut outstanding: Vec<Pending> = Vec::new();
    let mut next = 0;
    // Each submission's input is cloned before its due time.
    let mut prepared = prepare(0);
    loop {
        let now = start.elapsed().as_secs_f64();
        let mut i = 0;
        while i < outstanding.len() {
            if outstanding[i].handle.is_done() {
                ph.finish(outstanding.swap_remove(i), now, inputs, clock);
            } else {
                i += 1;
            }
        }
        let Some((tenant, pick, splits)) = prepared.take() else {
            if outstanding.is_empty() {
                break;
            }
            std::thread::sleep(POLL);
            continue;
        };
        let due = next as f64 / plan.rate;
        if now < due {
            prepared = Some((tenant, pick, splits));
            std::thread::sleep(POLL.min(Duration::from_secs_f64(due - now)));
            continue;
        }
        let submitted_at = clock.now();
        let t = Instant::now();
        ph.lateness.push(start.elapsed().as_secs_f64() - due);
        let res = svc.submit(tenant, splits, cfg);
        ph.submit.push(t.elapsed().as_secs_f64());
        match res {
            Ok(handle) => outstanding.push(Pending {
                handle,
                due,
                pick,
                submitted_at,
            }),
            Err(SubmitError::Rejected { .. }) => ph.rejected += 1,
            Err(SubmitError::InvalidConfig(_)) => ph.errors += 1,
        }
        next += 1;
        if next == plan.jobs.len() {
            ph.backlog = outstanding.len();
        }
        prepared = prepare(next);
    }
    ph.cpu = (process_cpu_secs() - cpu0) - (thread_cpu_secs() - gen_cpu0);
    ph
}

/// Starts a `serve` session, pre-fills the cache with the hot inputs,
/// then hands the service to `body` with the set-up seconds (start-up
/// plus pre-fill). Returns `body`'s result and the session report.
fn session<R>(
    ctx: &Ctx,
    inputs: &Inputs,
    mismatched: &mut bool,
    body: impl FnOnce(&JobService<WordCount>, f64) -> R,
) -> Result<(R, ServiceReport), String> {
    let cfg = job_config(ctx, false);
    let t0 = Instant::now();
    let (out, report) = serve(&WordCount, &HashPartitioner, &service_config(ctx), |svc| {
        let handles: Vec<_> = (0..HOT_INPUTS)
            .map(|h| svc.submit(h % TENANTS, inputs.hot[h].clone(), &cfg))
            .collect();
        for (h, handle) in handles.into_iter().enumerate() {
            let out = handle
                .map_err(|e| format!("pre-fill submit: {e}"))?
                .wait()
                .map_err(|e| format!("pre-fill job: {e}"))?;
            if !counts_match(&inputs.want[h], out.partitions.iter().flatten()) {
                *mismatched = true;
            }
        }
        Ok::<_, String>(body(svc, t0.elapsed().as_secs_f64()))
    })
    .map_err(|e| format!("serve: {e}"))?;
    Ok((out?, report))
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let inputs = Inputs::new(ctx.seed);
    let mut out = Outcome::new();
    let mut mismatched = false;
    let result = if ctx.trace {
        traced(ctx, tracer, &inputs, &mut out, &mut mismatched)
    } else {
        end_to_end(ctx, tracer, &inputs, &mut out, &mut mismatched)
    };
    out.correct = !mismatched;
    result.map(|()| out)
}

fn end_to_end(
    ctx: &Ctx,
    tracer: &Tracer,
    inputs: &Inputs,
    out: &mut Outcome,
    mismatched: &mut bool,
) -> Result<(), String> {
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (setup, _) = session(ctx, inputs, mismatched, |_, setup| setup)?;
        setups.push(setup);
    }
    let mut serial = 0;
    let plan = Plan::new(
        ctx.seed,
        1,
        LIGHT_RATE,
        ctx.seconds.as_secs_f64(),
        &mut serial,
    );
    let cfg = job_config(ctx, false);
    let ((light, setup), _) = session(ctx, inputs, mismatched, |svc, setup| {
        (run_phase(svc, &cfg, inputs, &plan, tracer), setup)
    })?;
    setups.push(setup);
    *mismatched |= light.mismatched;
    out.attempted = light.scheduled as u64;
    out.failed = light.failed();
    let samples = crate::harness::Samples {
        wall: light.latency.clone(),
        cpu_total: light.cpu,
    };
    crate::harness::set_end_to_end(out, &samples, &setups)?;
    println!(
        "# light load {LIGHT_RATE} jobs/s: {} jobs, p50 {:.3} ms, p99 {:.3} ms, {} rejected, {} over the {} ms limit",
        light.scheduled,
        light.p(0.5) * 1e3,
        light.p(0.99) * 1e3,
        light.rejected,
        light.missed(),
        LATENCY_LIMIT_S * 1e3
    );
    Ok(())
}

fn traced(
    ctx: &Ctx,
    tracer: &mut Tracer,
    inputs: &Inputs,
    out: &mut Outcome,
    mismatched: &mut bool,
) -> Result<(), String> {
    let secs = ctx.seconds.as_secs_f64();
    let (off_cfg, on_cfg) = (job_config(ctx, false), job_config(ctx, true));
    let mut serial = 0;
    let seed = ctx.seed;
    // The service's trace clock starts inside `serve`, microseconds after
    // this instant, so queue waits read that much short.
    let serve_at = tracer.now();
    let ((light, busy, probes, pairs), report) = session(ctx, inputs, mismatched, |svc, _| {
        let light_plan = Plan::new(seed, 1, LIGHT_RATE, 0.5 * secs, &mut serial);
        let light = tracer.span("service.light", 0, |tr| {
            run_phase(svc, &off_cfg, inputs, &light_plan, tr)
        });
        let busy_plan = Plan::new(seed, 2, BUSY_RATE, 0.25 * secs, &mut serial);
        let busy = tracer.span("service.busy", 0, |tr| {
            run_phase(svc, &off_cfg, inputs, &busy_plan, tr)
        });
        let mut probes = Vec::new();
        for (i, &rate) in PROBE_RATES.iter().enumerate() {
            let plan = Plan::new(seed, 10 + i as u64, rate, 0.05 * secs, &mut serial);
            let ph = tracer.span("service.probe", rate as u64, |tr| {
                run_phase(svc, &off_cfg, inputs, &plan, tr)
            });
            let ok = ph.sustained(rate);
            probes.push((rate, ph));
            if !ok {
                break;
            }
        }
        // Interleaved traced/untraced pairs at the light rate.
        let mut pairs = Vec::new();
        for i in 0..crate::harness::MIN_PAIRS {
            let mut run = |tracing: bool| {
                let cfg = if tracing { &on_cfg } else { &off_cfg };
                let plan = Plan::new(seed, 100 + i as u64, LIGHT_RATE, 0.05 * secs, &mut serial);
                let name = if tracing {
                    "service.traced"
                } else {
                    "service.untraced"
                };
                tracer.span(name, i as u64, |tr| run_phase(svc, cfg, inputs, &plan, tr))
            };
            let (on, off) = if i % 2 == 0 {
                let on = run(true);
                (on, run(false))
            } else {
                let off = run(false);
                (run(true), off)
            };
            pairs.push((on, off));
        }
        (light, busy, probes, pairs)
    })?;
    // The light-load phases count toward attempted and failed; the busy
    // and probe phases measure capacity, so only their errors count.
    for ph in std::iter::once(&light).chain(pairs.iter().flat_map(|(a, b)| [a, b])) {
        out.attempted += ph.scheduled as u64;
        out.failed += ph.failed();
    }
    for ph in std::iter::once(&busy).chain(probes.iter().map(|(_, p)| p)) {
        out.failed += ph.errors;
    }
    for ph in [&light, &busy]
        .into_iter()
        .chain(probes.iter().map(|(_, p)| p))
        .chain(pairs.iter().flat_map(|(a, b)| [a, b]))
    {
        *mismatched |= ph.mismatched;
    }
    out.set("svc_p50_ms", light.p(0.5) * 1e3);
    out.set("svc_p99_ms", light.p(0.99) * 1e3);
    out.set("svc_p99_ms_busy", busy.p(0.99) * 1e3);
    let max_rate = probes
        .iter()
        .take_while(|(rate, ph)| ph.sustained(*rate))
        .map(|(rate, _)| *rate)
        .last()
        .unwrap_or(0.0);
    out.set("svc_max_jobs_s", max_rate);
    out.set(
        "service.submit_us_p99",
        quantile(&light.submit, 0.99).unwrap_or(0.0) * 1e6,
    );
    out.set(
        "gen.lag_ms_p99",
        quantile(&light.lateness, 0.99).unwrap_or(0.0) * 1e3,
    );
    out.set("gen.s", inputs.gen_s);
    out.set("service.rejected", report.rejected as f64);
    out.set(
        "service.backlog_max",
        light.backlog.max(busy.backlog) as f64,
    );
    out.set("pool.peak_threads", report.pool.peak_threads as f64);
    let c = &light.counters;
    let (hits, misses) = (c.get(names::CACHE_HITS), c.get(names::CACHE_MISSES));
    out.set(
        "cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("cache.hit_bytes", c.get(names::CACHE_HIT_BYTES) as f64);
    out.set("cache.evict_count", c.get(names::CACHE_EVICTIONS) as f64);

    // The traced halves: queueing and running per job, from the
    // tenant-stamped service trace.
    let mut program = crate::harness::ProgramTrace::default();
    let (mut queue_wait, mut run_ms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let phase_spans: Vec<usize> = tracer.indices_of("service.traced");
    for ((on, off), &phase) in pairs.iter().zip(&phase_spans) {
        ratios.push(on.p(0.5) / off.p(0.5) - 1.0);
        for job in &on.traced {
            let q = TraceQuery::new(&job.log);
            let spans = q.spans();
            let first = spans
                .iter()
                .map(|s| s.start_secs())
                .chain(q.cache_marks(job.id as u32).iter().map(|m| m.0))
                .fold(f64::INFINITY, f64::min);
            if first.is_finite() {
                queue_wait.push(serve_at + first - job.submitted_at);
            }
            if let (Some(s), Some(e)) = (
                spans.iter().map(|s| s.start_secs()).reduce(f64::min),
                spans.iter().map(|s| s.end_secs()).reduce(f64::max),
            ) {
                run_ms.push((e - s) * 1e3);
            }
            program.record(&q, &Counters::new(), 0);
            let idx =
                tracer.record_under(phase, "service.job", job.submitted_at, job.done_at, job.id);
            tracer.merge_program_at(idx, &q, serve_at);
        }
    }
    out.set(
        "service.queue_wait_ms_p99",
        quantile(&queue_wait, 0.99).unwrap_or(0.0) * 1e3,
    );
    out.set("service.run_ms_p50", median(&run_ms).unwrap_or(0.0));
    program.report_tasks(out);
    out.set("trace.overhead_frac", median(&ratios).unwrap_or(0.0));
    let (hit_ms, miss_ms) = cache_paths(ctx, inputs, mismatched)?;
    out.set("cache.hit_job_ms", hit_ms);
    out.set("cache.miss_job_ms", miss_ms);
    println!(
        "# light {} jobs p50 {:.3} ms p99 {:.3} ms; busy {} jobs at {BUSY_RATE}/s p99 {:.3} ms; probes {:?}",
        light.scheduled,
        light.p(0.5) * 1e3,
        light.p(0.99) * 1e3,
        busy.scheduled,
        busy.p(0.99) * 1e3,
        probes
            .iter()
            .map(|(r, p)| format!("{r}/s p99 {:.1} ms backlog {} rejected {}", p.p(0.99) * 1e3, p.backlog, p.rejected))
            .collect::<Vec<_>>()
    );
    Ok(())
}

/// `run_cached` outside the service: median milliseconds of a whole-job
/// hit on a hot input and of a run over an input the cache has not seen.
fn cache_paths(ctx: &Ctx, inputs: &Inputs, mismatched: &mut bool) -> Result<(f64, f64), String> {
    const REPS: u64 = 20;
    let cfg = job_config(ctx, false);
    let cache = SharedCache::new(CacheBudget::enabled().bytes().expect("enabled"));
    let runner = LocalRunner::new(ctx.nproc);
    let mut run = |pick: Pick| -> Result<f64, String> {
        let splits = inputs.splits(pick);
        let t = Instant::now();
        let out = runner
            .run_cached(&WordCount, splits, &cfg, &HashPartitioner, &cache)
            .map_err(|e| format!("run_cached: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if !counts_match(inputs.want(pick), out.partitions.iter().flatten()) {
            *mismatched = true;
        }
        Ok(ms)
    };
    run(Pick::Hot(0))?;
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for i in 0..REPS {
        hit.push(run(Pick::Hot(0))?);
        miss.push(run(Pick::Fresh(
            i as usize % BASE_INPUTS,
            (1 << 62) + (i << 32),
        ))?);
    }
    Ok((
        median(&hit).expect("REPS > 0"),
        median(&miss).expect("REPS > 0"),
    ))
}
