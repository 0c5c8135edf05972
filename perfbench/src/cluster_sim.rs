//! `sim-cluster`: host time of the simulated 16-machine cluster (15
//! workers), one round = three simulations over pre-generated chunks:
//! WordCount at node-speed spread sigma 0.8 with speculation on, the
//! WordCount -> TopK streaming chain, and the multi-tenant service with
//! one node failure. Simulated seconds are deterministic per seed and are
//! reported, not timed.
//!
//! The simulators are single-threaded. A timed sample runs one stream of
//! rounds per CPU for a one-second window and divides their summed host
//! seconds by the simulations they finished. On a shared host one vCPU
//! can run 1.4x slower than the other for tens of seconds while its host
//! core is busy; one stream measures that vCPU's luck, one per CPU their
//! combined speed, the way a figure sweep on this machine would use it.

use crate::gen::{Splits, ZipfText};
use crate::harness::{self, set_end_to_end, timed, Samples, MIN_JOBS};
use crate::reference::{counts_match, top_k, word_counts};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::median;
use crate::Ctx;
use barrier_mapreduce::apps::{TopK, WordCount};
use barrier_mapreduce::cluster::{
    ChainSimExecutor, ClusterParams, CostModel, FnInput, ServiceParams, ServiceSimExecutor,
    SimExecutor, SimJobSpec,
};
use barrier_mapreduce::core::{
    ChainSpec, Engine, HandoffMode, HashPartitioner, JobConfig, MemoryPolicy, SpeculationPolicy,
    TracePolicy,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const VOCAB: usize = 50_000;
const LINES_PER_CHUNK: usize = 120;
const WORDS_PER_LINE: usize = 8;
/// 8 GB of 64 MB chunks.
const SINGLE_CHUNKS: usize = 128;
const SINGLE_REDUCERS: usize = 8;
const HETERO_SIGMA: f64 = 0.8;
/// 2 GB chain input.
const CHAIN_CHUNKS: usize = 32;
const TOP_K: usize = 20;
const SERVICE_JOBS: usize = 48;
const CHUNKS_PER_SERVICE_JOB: usize = 4;
const SERVICE_GAP_SECS: f64 = 2.0;
/// The service run loses node 3 at this simulated second.
const FAIL_AT_SECS: f64 = 20.0;
const SIMS_PER_ROUND: f64 = 3.0;
/// Warm-up rounds per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Length of one timed sample.
const WINDOW: Duration = Duration::from_secs(1);

/// The calibrated WordCount cost model the figure sweeps use.
fn costs() -> CostModel {
    CostModel {
        map_cpu_per_chunk: 45.0,
        shuffle_selectivity: 1.0,
        reduce_cpu_per_record: 5.0e-4,
        combine_cpu_per_record: 2.0e-4,
        absorb_extra_per_record: 0.0,
        kv_cpu_per_record: 0.03,
        sort_cpu_coeff: 3.2e-4,
        finalize_cpu_per_entry: 1.0e-3,
        snapshot_cpu_per_record: 2.0e-4,
        output_selectivity: 0.5,
        chain_map_cpu_per_record: 5.0e-3,
        chain_handoff_byte_scale: 4096.0,
        speculation_launch_overhead_secs: 1.0,
        speculation_cancel_overhead_secs: 0.5,
    }
}

fn trace_policy(tracing: bool) -> TracePolicy {
    if tracing {
        TracePolicy::Enabled
    } else {
        TracePolicy::Disabled
    }
}

fn job_config(ctx: &Ctx, reducers: usize, tracing: bool) -> JobConfig {
    JobConfig::new(reducers)
        .engine(Engine::BarrierLess {
            memory: MemoryPolicy::InMemory,
        })
        .trace(trace_policy(tracing))
        .pool_workers(ctx.nproc)
        .scratch_dir(&ctx.scratch)
        .seed(ctx.seed)
}

fn cluster(ctx: &Ctx, tracing: bool) -> ClusterParams {
    let mut p = ClusterParams::paper_testbed(ctx.seed);
    p.trace = Some(trace_policy(tracing));
    p
}

struct Input {
    chunks: Splits,
    want_single: HashMap<String, u64>,
    want_top: Vec<(u64, (String, u64))>,
    want_jobs: Vec<HashMap<String, u64>>,
    gen_s: f64,
}

fn service_chunks(job: usize) -> impl Iterator<Item = usize> {
    (0..CHUNKS_PER_SERVICE_JOB).map(move |c| (job * CHUNKS_PER_SERVICE_JOB + c) % SINGLE_CHUNKS)
}

impl Input {
    fn new(seed: u64) -> Self {
        let t0 = Instant::now();
        let chunks =
            ZipfText::new(VOCAB, 1.0).splits(seed, SINGLE_CHUNKS, LINES_PER_CHUNK, WORDS_PER_LINE);
        let gen_s = t0.elapsed().as_secs_f64();
        let want_top = top_k(&word_counts(&chunks[..CHAIN_CHUNKS]), TOP_K);
        let want_jobs = (0..SERVICE_JOBS)
            .map(|j| word_counts(service_chunks(j).map(|c| &chunks[c])))
            .collect();
        Input {
            want_single: word_counts(&chunks),
            want_top,
            want_jobs,
            chunks,
            gen_s,
        }
    }
}

/// One round's results.
struct Round {
    host_s: [f64; 3],
    sim_s: [f64; 3],
    trace_events: usize,
    correct: bool,
}

fn round(ctx: &Ctx, input: &Input, tracing: bool) -> Result<Round, String> {
    let chunks = &input.chunks;
    let feed = FnInput(|c: u64| chunks[c as usize].clone());
    let costs = costs();
    let mut correct = true;

    let mut params = cluster(ctx, tracing);
    params.hetero_sigma = HETERO_SIGMA;
    params.speculation = Some(SpeculationPolicy::enabled());
    let cfg = job_config(ctx, SINGLE_REDUCERS, tracing);
    let single = timed(|| {
        SimExecutor::new(params).run(
            &WordCount,
            &feed,
            SINGLE_CHUNKS as u64,
            &cfg,
            &costs,
            &HashPartitioner,
        )
    });
    let single_sim = single
        .value
        .outcome
        .completion_secs()
        .ok_or("speculative WordCount did not complete")?;
    let out = single
        .value
        .output
        .as_ref()
        .ok_or("speculative WordCount has no output")?;
    correct &= counts_match(&input.want_single, out.partitions.iter().flatten());

    let spec = ChainSpec::new(vec![
        job_config(ctx, SINGLE_REDUCERS, tracing),
        job_config(ctx, 2, tracing),
    ])
    .handoff(HandoffMode::Streaming);
    let chain = timed(|| {
        ChainSimExecutor::new(cluster(ctx, tracing)).run_chain2(
            &WordCount,
            &TopK::new(TOP_K),
            &feed,
            CHAIN_CHUNKS as u64,
            &spec,
            &costs,
            &HashPartitioner,
            &HashPartitioner,
        )
    });
    let chain_sim = chain
        .value
        .outcome
        .completion_secs()
        .ok_or("WordCount -> TopK chain did not complete")?;
    let top = chain.value.output.as_ref().ok_or("chain has no output")?;
    let mut ranked: Vec<_> = top.partitions.iter().flatten().cloned().collect();
    ranked.sort_by_key(|(rank, _)| *rank);
    correct &= ranked == input.want_top;

    let mut sparams = ServiceParams::new(4);
    sparams.cluster = cluster(ctx, tracing);
    let jobs: Vec<SimJobSpec<WordCount>> = (0..SERVICE_JOBS)
        .map(|j| SimJobSpec {
            tenant: j % 4,
            submit_at_secs: j as f64 * SERVICE_GAP_SECS,
            splits: service_chunks(j).map(|c| chunks[c].clone()).collect(),
            reducers: 2,
            chained: false,
        })
        .collect();
    let service = timed(|| {
        ServiceSimExecutor::run(
            &WordCount,
            &HashPartitioner,
            &sparams,
            jobs,
            &[(FAIL_AT_SECS, 3)],
        )
    });
    let report = service
        .value
        .map_err(|e| format!("service simulation: {e}"))?;
    if let Some((at, why)) = &report.failure {
        return Err(format!("service simulation died at {at} s: {why}"));
    }
    let mut service_sim: f64 = 0.0;
    for (j, job) in report.jobs.iter().enumerate() {
        let done = job
            .completed_at
            .ok_or_else(|| format!("service job {j} did not complete"))?;
        service_sim = service_sim.max(done);
        correct &= counts_match(&input.want_jobs[j], job.output.iter().flatten());
    }
    let trace_events = single.value.trace.len() + chain.value.trace.len() + report.trace.len();
    Ok(Round {
        host_s: [single.wall, chain.wall, service.wall],
        sim_s: [single_sim, chain_sim, service_sim],
        trace_events,
        correct,
    })
}

/// One timed sample.
struct Window {
    /// Host seconds of every simulation the window finished, summed.
    host_s: f64,
    /// Process CPU seconds over the window.
    cpu_s: f64,
    sims: u64,
    correct: bool,
}

/// Runs `ctx.nproc` streams of rounds side by side until `WINDOW` has
/// passed, each stream at least one round.
fn window(ctx: &Ctx, input: &Input) -> Result<Window, String> {
    let cpu0 = crate::machine::process_cpu_secs();
    let end = Instant::now() + WINDOW;
    let streams = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.nproc)
            .map(|_| {
                s.spawn(|| {
                    let (mut host_s, mut rounds, mut correct) = (0.0, 0, true);
                    while rounds == 0 || Instant::now() < end {
                        let r = round(ctx, input, false)?;
                        host_s += r.host_s.iter().sum::<f64>();
                        correct &= r.correct;
                        rounds += 1;
                    }
                    Ok::<_, String>((host_s, rounds, correct))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a simulation stream panicked")?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut w = Window {
        host_s: 0.0,
        cpu_s: crate::machine::process_cpu_secs() - cpu0,
        sims: 0,
        correct: true,
    };
    for (host_s, rounds, correct) in streams {
        w.host_s += host_s;
        w.sims += rounds * SIMS_PER_ROUND as u64;
        w.correct &= correct;
    }
    Ok(w)
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let input = Input::new(ctx.seed);
    let mut out = Outcome::new();
    let one_round = |tracer: &mut Tracer, name: &str, tracing: bool, out: &mut Outcome| {
        let r = tracer.span(name, out.attempted, |_| round(ctx, &input, tracing))?;
        out.attempted += SIMS_PER_ROUND as u64;
        out.correct &= r.correct;
        Ok::<_, String>(r)
    };
    if !ctx.trace {
        let setups = (0..SETUPS)
            .map(|_| one_round(tracer, "setup", false, &mut out).map(|r| r.host_s.iter().sum()))
            .collect::<Result<Vec<f64>, _>>()?;
        // Only the timed rounds count as attempted.
        out.attempted = 0;
        let start = Instant::now();
        let mut samples = Samples::default();
        while samples.wall.len() < MIN_JOBS || start.elapsed() < ctx.seconds {
            let w = tracer.span("window", out.attempted, |_| window(ctx, &input))?;
            out.attempted += w.sims;
            out.correct &= w.correct;
            samples.push(w.host_s / w.sims as f64, w.cpu_s / w.sims as f64);
        }
        set_end_to_end(&mut out, &samples, &setups)?;
        return Ok(out);
    }
    // Untraced rounds for host time; then traced/untraced pairs.
    let start = Instant::now();
    let mut host: [Vec<f64>; 3] = Default::default();
    let mut sim_s = [0.0; 3];
    while host[0].len() < MIN_JOBS || start.elapsed() < ctx.seconds / 2 {
        let r = one_round(tracer, "round", false, &mut out)?;
        for (h, s) in host.iter_mut().zip(r.host_s) {
            h.push(s);
        }
        sim_s = r.sim_s;
    }
    let mut events = 0;
    let (overhead, _) = harness::paired_overhead(ctx.seconds / 2, |_, tracing| {
        let name = if tracing { "round.traced" } else { "round" };
        let r = one_round(tracer, name, tracing, &mut out)?;
        if tracing {
            events = r.trace_events;
        }
        Ok(r.host_s.iter().sum())
    })?;
    let med = |v: &[f64]| median(v).expect("at least MIN_JOBS rounds");
    out.set("cluster.host_s_single", med(&host[0]));
    out.set("cluster.host_s_chain", med(&host[1]));
    out.set("cluster.host_s_service", med(&host[2]));
    out.set("cluster.sim_completion_s", sim_s[0]);
    out.set("cluster.sim_completion_s_chain", sim_s[1]);
    out.set("cluster.sim_completion_s_service", sim_s[2]);
    out.set("cluster.trace_events", events as f64);
    out.set("trace.events", events as f64);
    out.set("trace.overhead_frac", overhead);
    out.set("gen.s", input.gen_s);
    Ok(out)
}
