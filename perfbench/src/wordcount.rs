//! `wordcount-zipf`: one large barrier-less WordCount job over Zipf(1.0)
//! text, combiner on, in-memory hashed store, 4 reducers.

use crate::gen::{self, Splits, ZipfText};
use crate::harness::{
    closed_loop, layer_passes, paired_overhead, set_end_to_end, timed, ProgramTrace, Timed,
};
use crate::reference::{counts_match, word_counts};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::median;
use crate::Ctx;
use barrier_mapreduce::apps::WordCount;
use barrier_mapreduce::core::engine::pipeline::IncrementalDriver;
use barrier_mapreduce::core::local::LocalRunner;
use barrier_mapreduce::core::{
    Application, CombinerBuffer, CombinerPolicy, Counters, Engine, FnEmit, HashPartitioner,
    JobConfig, JobOutput, MemoryPolicy, Partitioner, StoreIndex, TracePolicy, TraceQuery,
};
use std::collections::HashMap;
use std::time::Instant;

/// Distinct words: enough that the partial stores outgrow L2.
const VOCAB: usize = 200_000;
const SPLITS: usize = 64;
const LINES_PER_SPLIT: usize = 5_000;
const WORDS_PER_LINE: usize = 10;
const REDUCERS: usize = 4;
/// Warm-up jobs per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn config(ctx: &Ctx, tracing: bool) -> JobConfig {
    JobConfig::new(REDUCERS)
        .engine(Engine::BarrierLess {
            memory: MemoryPolicy::InMemory,
        })
        .combiner(CombinerPolicy::enabled())
        .store_index(StoreIndex::Hashed)
        .trace(if tracing {
            TracePolicy::Enabled
        } else {
            TracePolicy::Disabled
        })
        .pool_workers(ctx.nproc)
        .scratch_dir(&ctx.scratch)
        .seed(ctx.seed)
}

/// The workload's input and its reference answer.
struct Input {
    splits: Splits,
    want: HashMap<String, u64>,
    gen_s: f64,
}

/// One job on the local executor: splits cloned before the clock starts,
/// output checked after it stops.
fn job(
    ctx: &Ctx,
    input: &Input,
    tracing: bool,
    out: &mut Outcome,
) -> Result<Timed<JobOutput<WordCount>>, String> {
    let cfg = config(ctx, tracing);
    let splits = input.splits.clone();
    let t = timed(|| LocalRunner::new(ctx.nproc).run(&WordCount, splits, &cfg));
    out.attempted += 1;
    let value = t.value.map_err(|e| format!("wordcount job failed: {e}"))?;
    if !counts_match(&input.want, value.partitions.iter().flatten()) {
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
    let splits =
        ZipfText::new(VOCAB, 1.0).splits(ctx.seed, SPLITS, LINES_PER_SPLIT, WORDS_PER_LINE);
    let input = Input {
        gen_s: t0.elapsed().as_secs_f64(),
        want: word_counts(&splits),
        splits,
    };
    println!(
        "# input: {} words, {} distinct, {} splits",
        gen::word_count(&input.splits),
        input.want.len(),
        SPLITS
    );
    let mut out = Outcome::new();
    if ctx.trace {
        traced(ctx, tracer, &input, &mut out)?;
        return Ok(out);
    }
    // Set-up: the warm-up job a cold process needs before its timings
    // settle (allocator growth, first-touch page faults).
    let setups = (0..SETUPS)
        .map(|_| job(ctx, &input, false, &mut out).map(|t| t.wall))
        .collect::<Result<Vec<_>, _>>()?;
    // Only the timed jobs count as attempted.
    out.attempted = 0;
    let samples = closed_loop(ctx.seconds, || job(ctx, &input, false, &mut out))?;
    set_end_to_end(&mut out, &samples, &setups)?;
    Ok(out)
}

/// One single-threaded pass through the layers a job crosses: map,
/// partition, combine (per split and reducer, as a map task does), then
/// absorb and finish per reduce partition. Returns the output partitions
/// and store peak entries.
fn layer_pass(
    ctx: &Ctx,
    tracer: &mut Tracer,
    input: &Input,
    req: u64,
) -> Result<Vec<Vec<(String, u64)>>, String> {
    let app = WordCount;
    let cfg = config(ctx, false);
    let mapped: Vec<Vec<(String, u64)>> = tracer.span("apps.map", req, |_| {
        input
            .splits
            .iter()
            .map(|split| {
                let mut records = Vec::new();
                let mut emit = FnEmit(|k, v| records.push((k, v)));
                for (k, v) in split {
                    app.map(k, v, &mut emit);
                }
                records
            })
            .collect()
    });
    let partitioned: Vec<Vec<Vec<(String, u64)>>> = tracer.span("partition", req, |_| {
        mapped
            .into_iter()
            .map(|records| {
                let mut parts: Vec<Vec<(String, u64)>> = vec![Vec::new(); REDUCERS];
                for (k, v) in records {
                    parts[HashPartitioner.partition(&k, REDUCERS)].push((k, v));
                }
                parts
            })
            .collect()
    });
    let budget = cfg.combiner.budget_bytes().expect("combiner enabled") as usize;
    let combined: Vec<Vec<(String, u64)>> = tracer.span("combine", req, |_| {
        let mut combined: Vec<Vec<(String, u64)>> = vec![Vec::new(); REDUCERS];
        for parts in partitioned {
            for (p, records) in parts.into_iter().enumerate() {
                let sink = &mut combined[p];
                let mut buf = CombinerBuffer::new(&app, budget, cfg.store_index);
                let mut emit = |k, v| sink.push((k, v));
                for (k, v) in records {
                    buf.push(&app, k, v, &mut emit);
                }
                buf.drain(&app, &mut emit);
            }
        }
        combined
    });
    let mut outputs = Vec::with_capacity(REDUCERS);
    for (p, records) in combined.into_iter().enumerate() {
        let mut output = Vec::new();
        let mut driver = IncrementalDriver::new(&app, &cfg, p).map_err(|e| e.to_string())?;
        tracer
            .span("store.absorb", req, |_| {
                let mut emit = FnEmit(|k, v| output.push((k, v)));
                for (k, v) in records {
                    driver.push(&app, k, v, &mut emit)?;
                }
                Ok::<_, barrier_mapreduce::core::MrError>(())
            })
            .map_err(|e| e.to_string())?;
        tracer
            .span("store.finish", req, |_| {
                let mut emit = FnEmit(|k, v| output.push((k, v)));
                driver.finish(&app, &mut Counters::new(), &mut emit)
            })
            .map_err(|e| e.to_string())?;
        outputs.push(output);
    }
    Ok(outputs)
}

fn traced(ctx: &Ctx, tracer: &mut Tracer, input: &Input, out: &mut Outcome) -> Result<(), String> {
    let start = Instant::now();
    let names = [
        "apps.map",
        "partition",
        "combine",
        "store.absorb",
        "store.finish",
    ];
    let (layers, matched) = layer_passes(tracer, &names, |tr, req| {
        let outputs = layer_pass(ctx, tr, input, req)?;
        Ok(counts_match(&input.want, outputs.iter().flatten()))
    })?;
    out.correct &= matched;
    out.set("apps.map_s", layers.median("apps.map"));
    out.set("partition.s", layers.median("partition"));
    out.set("combine.s", layers.median("combine"));
    out.set("store.absorb_s", layers.median("store.absorb"));
    out.set("store.finish_s", layers.median("store.finish"));

    // The executor, traced and untraced in interleaved pairs.
    let mut program = ProgramTrace::default();
    let left = ctx.seconds.saturating_sub(start.elapsed());
    let (overhead, offs) = paired_overhead(left, |i, tracing| {
        let name = if tracing {
            "local.run"
        } else {
            "local.run.untraced"
        };
        let t = tracer.span(name, 100 + i as u64, |_| job(ctx, input, tracing, out))?;
        if tracing {
            let q = TraceQuery::new(&t.value.trace);
            program.record(&q, &t.value.counters, t.value.total_peak_entries());
            tracer.merge_program(name, &q);
        }
        Ok(t.wall)
    })?;
    out.set("trace.overhead_frac", overhead);
    let job_s = median(&offs).expect("pairs ran");
    let layer_sum = layers.sum();
    out.set("local.overhead_s", job_s * ctx.nproc as f64 - layer_sum);
    program.report(out);
    out.set("gen.s", input.gen_s);
    println!("# traced pairs: untraced job_s median {job_s:.6}, single-threaded layer sum {layer_sum:.6}");
    Ok(())
}
