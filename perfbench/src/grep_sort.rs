//! `grep-sort-spill`: a two-stage streaming chain, `Grep("level=error")`
//! → `Sort`, over log lines keyed by random 64-bit request ids. Stage 2
//! spills its partial state (`SpillMerge`, threshold well below the
//! partition state) under a `RangePartitioner`.

use crate::gen::{log_splits, Splits};
use crate::harness::{
    closed_loop, layer_passes, paired_overhead, set_end_to_end, timed, ProgramTrace, Timed,
};
use crate::reference::sorted_matching_ids;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::median;
use crate::Ctx;
use barrier_mapreduce::apps::sort::RangePartitioner;
use barrier_mapreduce::apps::{Grep, Sort};
use barrier_mapreduce::core::engine::pipeline::IncrementalDriver;
use barrier_mapreduce::core::local::LocalRunner;
use barrier_mapreduce::core::{
    Application, ChainOutput, ChainSpec, ChainableApplication, Counters, Engine, FnEmit,
    HandoffMode, HashPartitioner, JobConfig, MemoryPolicy, MrError, Partitioner, TracePolicy,
    TraceQuery,
};
use std::time::Instant;

const PATTERN: &str = "level=error";
const SPLITS: usize = 40;
const LINES_PER_SPLIT: usize = 50_000;
const REDUCERS: usize = 4;
/// Stage-2 spill threshold in modelled bytes: far below a partition's
/// partial state, so every reducer spills many runs.
const SPILL_THRESHOLD: u64 = 1 << 20;
/// Warm-up chains per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn stage(ctx: &Ctx, tracing: bool, memory: MemoryPolicy) -> JobConfig {
    JobConfig::new(REDUCERS)
        .engine(Engine::BarrierLess { memory })
        .trace(if tracing {
            TracePolicy::Enabled
        } else {
            TracePolicy::Disabled
        })
        .pool_workers(ctx.nproc)
        .scratch_dir(&ctx.scratch)
        .seed(ctx.seed)
}

fn sort_stage(ctx: &Ctx, tracing: bool) -> JobConfig {
    stage(
        ctx,
        tracing,
        MemoryPolicy::SpillMerge {
            threshold_bytes: SPILL_THRESHOLD,
        },
    )
}

fn spec(ctx: &Ctx, tracing: bool) -> ChainSpec {
    ChainSpec::new(vec![
        stage(ctx, tracing, MemoryPolicy::InMemory),
        sort_stage(ctx, tracing),
    ])
    .handoff(HandoffMode::Streaming)
}

struct Input {
    splits: Splits,
    want: Vec<u64>,
    gen_s: f64,
}

fn job(
    ctx: &Ctx,
    input: &Input,
    tracing: bool,
    out: &mut Outcome,
) -> Result<Timed<ChainOutput<Sort>>, String> {
    let spec = spec(ctx, tracing);
    let splits = input.splits.clone();
    let t = timed(|| {
        LocalRunner::new(ctx.nproc).run_chain2(
            &Grep::new(PATTERN),
            &Sort,
            splits,
            &spec,
            &HashPartitioner,
            &RangePartitioner::uniform(REDUCERS),
        )
    });
    out.attempted += 1;
    let value = t
        .value
        .map_err(|e| format!("grep-sort chain failed: {e}"))?;
    // Range partitions in order, each key-sorted: the concatenation is
    // the sorted id list.
    let ids = value.output.partitions.iter().flatten().map(|(id, ())| *id);
    if !ids.eq(input.want.iter().copied()) {
        out.correct = false;
    }
    Ok(Timed {
        value,
        wall: t.wall,
        cpu: t.cpu,
    })
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let splits = log_splits(ctx.seed, SPLITS, LINES_PER_SPLIT);
    let input = Input {
        gen_s: t0.elapsed().as_secs_f64(),
        want: sorted_matching_ids(&splits, PATTERN),
        splits,
    };
    println!(
        "# input: {} lines, {} matching, {} splits",
        SPLITS * LINES_PER_SPLIT,
        input.want.len(),
        SPLITS
    );
    let mut out = Outcome::new();
    if ctx.trace {
        traced(ctx, tracer, &input, &mut out)?;
        return Ok(out);
    }
    let setups = (0..SETUPS)
        .map(|_| job(ctx, &input, false, &mut out).map(|t| t.wall))
        .collect::<Result<Vec<_>, _>>()?;
    // Only the timed chains count as attempted.
    out.attempted = 0;
    let samples = closed_loop(ctx.seconds, || job(ctx, &input, false, &mut out))?;
    set_end_to_end(&mut out, &samples, &setups)?;
    Ok(out)
}

/// One single-threaded pass through both stages' layers. Returns the
/// sorted ids.
fn layer_pass(
    ctx: &Ctx,
    tracer: &mut Tracer,
    input: &Input,
    req: u64,
) -> Result<Vec<u64>, MrError> {
    let grep = Grep::new(PATTERN);
    let range = RangePartitioner::uniform(REDUCERS);
    let matched: Vec<(u64, String)> = tracer.span("apps.map", req, |_| {
        let mut records = Vec::new();
        let mut emit = FnEmit(|k, v| records.push((k, v)));
        for (k, v) in input.splits.iter().flatten() {
            grep.map(k, v, &mut emit);
        }
        records
    });
    let parts1 = tracer.span("partition", req, |_| partition(matched, &HashPartitioner));
    // Stage 1 keeps no per-key state: its reduce passes records through.
    let mut stage1_out = Vec::new();
    let cfg1 = stage(ctx, false, MemoryPolicy::InMemory);
    for (p, records) in parts1.into_iter().enumerate() {
        let mut driver = IncrementalDriver::new(&grep, &cfg1, p)?;
        tracer.span("store.absorb", req, |_| {
            let mut emit = FnEmit(|k, v| stage1_out.push((k, v)));
            for (k, v) in records {
                driver.push(&grep, k, v, &mut emit)?;
            }
            driver.finish(&grep, &mut Counters::new(), &mut emit)
        })?;
    }
    let adapted: Vec<(u64, u64)> = tracer.span("chain.adapt", req, |_| {
        stage1_out
            .into_iter()
            .map(|(id, line)| Sort.adapt_input(id, line))
            .collect()
    });
    let mapped: Vec<(u64, ())> = tracer.span("apps.map", req, |_| {
        let mut records = Vec::new();
        let mut emit = FnEmit(|k, v| records.push((k, v)));
        for (k, v) in &adapted {
            Sort.map(k, v, &mut emit);
        }
        records
    });
    let parts2 = tracer.span("partition", req, |_| partition(mapped, &range));
    let cfg2 = sort_stage(ctx, false);
    let mut ids = Vec::new();
    for (p, records) in parts2.into_iter().enumerate() {
        let mut sorted = Vec::new();
        let mut driver = IncrementalDriver::new(&Sort, &cfg2, p)?;
        tracer.span("store.absorb", req, |_| {
            let mut emit = FnEmit(|k, v| sorted.push((k, v)));
            for (k, v) in records {
                driver.push(&Sort, k, v, &mut emit)?;
            }
            Ok::<_, MrError>(())
        })?;
        tracer.span("store.finish", req, |_| {
            let mut emit = FnEmit(|k, v| sorted.push((k, v)));
            driver.finish(&Sort, &mut Counters::new(), &mut emit)
        })?;
        ids.extend(sorted.into_iter().map(|(id, ())| id));
    }
    Ok(ids)
}

fn partition<K, V>(records: Vec<(K, V)>, partitioner: &impl Partitioner<K>) -> Vec<Vec<(K, V)>> {
    let mut parts: Vec<Vec<(K, V)>> = (0..REDUCERS).map(|_| Vec::new()).collect();
    for (k, v) in records {
        parts[partitioner.partition(&k, REDUCERS)].push((k, v));
    }
    parts
}

fn traced(ctx: &Ctx, tracer: &mut Tracer, input: &Input, out: &mut Outcome) -> Result<(), String> {
    let start = Instant::now();
    let names = [
        "apps.map",
        "partition",
        "store.absorb",
        "chain.adapt",
        "store.finish",
    ];
    let (layers, matched) = layer_passes(tracer, &names, |tr, req| {
        let ids = layer_pass(ctx, tr, input, req).map_err(|e| format!("layer pass failed: {e}"))?;
        Ok(ids == input.want)
    })?;
    out.correct &= matched;
    out.set("apps.map_s", layers.median("apps.map"));
    out.set("partition.s", layers.median("partition"));
    out.set("store.absorb_s", layers.median("store.absorb"));
    out.set("store.finish_s", layers.median("store.finish"));

    let mut program = ProgramTrace::default();
    let (mut first_handoff, mut stage1_finish, mut handoff_records) = (Vec::new(), Vec::new(), 0);
    let left = ctx.seconds.saturating_sub(start.elapsed());
    let (overhead, offs) = paired_overhead(left, |i, tracing| {
        let name = if tracing {
            "chain.run"
        } else {
            "chain.run.untraced"
        };
        let t = tracer.span(name, 100 + i as u64, |_| job(ctx, input, tracing, out))?;
        if tracing {
            let chain = &t.value;
            let q = TraceQuery::new(&chain.trace);
            program.record(
                &q,
                &chain.total_counters(),
                chain.output.total_peak_entries(),
            );
            tracer.merge_program(name, &q);
            let s1 = &chain.stages[0];
            first_handoff.push(
                q.first_handoff_secs(0)
                    .or(s1.first_handoff_secs)
                    .ok_or("the streaming chain handed nothing off")?,
            );
            stage1_finish.push(s1.finished_secs);
            handoff_records = chain.handoff_records();
        }
        Ok(t.wall)
    })?;
    out.set("trace.overhead_frac", overhead);
    program.report(out);
    out.set(
        "chain.first_handoff_s",
        median(&first_handoff).expect("traced pairs ran"),
    );
    out.set(
        "chain.stage1_finish_s",
        median(&stage1_finish).expect("traced pairs ran"),
    );
    out.set("chain.handoff_records", handoff_records as f64);
    let job_s = median(&offs).expect("pairs ran");
    let layer_sum = layers.sum();
    out.set("local.overhead_s", job_s * ctx.nproc as f64 - layer_sum);
    out.set("gen.s", input.gen_s);
    println!("# traced pairs: untraced job_s median {job_s:.6}, single-threaded layer sum {layer_sum:.6}");
    Ok(())
}
