//! One small, obviously-correct reference interpreter, and one sweep
//! that checks every local entry point against it.
//!
//! The pairwise equivalence tests elsewhere (warm vs cold, service vs
//! solo, chain vs hand-composed) compare two runs of the same program,
//! so a bug shared by both sides passes. Here every run is compared
//! with [`reference`]: map everything in split order, route each record
//! with the job's partitioner, group each partition by key in sorted
//! order, and hand each group to `reduce_grouped`. No pool, no store,
//! no combiner, no cache.
//!
//! The sweep covers engine × store index × combiner × pool width, over
//! WordCount, Sort under a `RangePartitioner`, and the WordCount → TopK
//! chain. Every app here produces output that is a pure function of its
//! input multiset, so partitions are compared exactly.

use barrier_mapreduce::apps::sort::RangePartitioner;
use barrier_mapreduce::apps::{Sort, TopK, WordCount};
use barrier_mapreduce::cluster::{
    ChainSimExecutor, ClusterParams, CostModel, FnInput, SimExecutor,
};
use barrier_mapreduce::core::local::LocalRunner;
use barrier_mapreduce::core::{
    serve, Application, CacheBudget, ChainSpec, ChainableApplication, CombinerPolicy, Engine,
    FnEmit, HandoffMode, HashPartitioner, InputAdapter, JobConfig, JobOutput, MemoryPolicy,
    MrResult, Partitioner, ServiceConfig, SharedCache, SizeEstimate, StableHash, StoreIndex,
};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

type Splits<A> = Vec<Vec<(<A as Application>::InKey, <A as Application>::InValue)>>;
type Parts<A> = Vec<Vec<(<A as Application>::OutKey, <A as Application>::OutValue)>>;
/// The uncached single-job entry point under test (`run` or
/// `run_with_partitioner`, bound to its app and partitioner).
type PlainRunner<'r, A> = dyn Fn(Splits<A>, &JobConfig) -> MrResult<JobOutput<A>> + 'r;

/// The reference interpreter: sequential map, the job's partitioner,
/// sorted grouping, `reduce_grouped`, then `flush_shared`.
fn reference<A, P>(
    app: &A,
    splits: &[Vec<(A::InKey, A::InValue)>],
    reducers: usize,
    p: &P,
) -> Parts<A>
where
    A: Application,
    P: Partitioner<A::MapKey>,
{
    let mut groups: Vec<BTreeMap<A::MapKey, Vec<A::MapValue>>> =
        (0..reducers).map(|_| BTreeMap::new()).collect();
    let mut emit = FnEmit(|k: A::MapKey, v: A::MapValue| {
        groups[p.partition(&k, reducers)]
            .entry(k)
            .or_default()
            .push(v);
    });
    for (k, v) in splits.iter().flatten() {
        app.map(k, v, &mut emit);
    }
    groups
        .into_iter()
        .map(|partition| {
            let mut out = Vec::new();
            let mut shared = app.new_shared();
            for (key, values) in partition {
                app.reduce_grouped(&key, values, &mut shared, &mut out);
            }
            app.flush_shared(shared, &mut out);
            out
        })
        .collect()
}

/// The barrier handoff of the reference: upstream partition `i`, adapted
/// record by record, becomes downstream split `i`.
fn handoff<B, UK, UV>(second: &B, parts: Vec<Vec<(UK, UV)>>) -> Splits<B>
where
    B: ChainableApplication<UK, UV>,
{
    parts
        .into_iter()
        .map(|p| {
            p.into_iter()
                .map(|(k, v)| second.adapt_input(k, v))
                .collect()
        })
        .collect()
}

static SERIAL: AtomicU64 = AtomicU64::new(0);

/// One test's scratch root; every spill directory it hands out lives
/// under it, and the whole tree is removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        Scratch(std::env::temp_dir().join(format!("mr-oracle-{}-{test}", std::process::id())))
    }

    fn dir(&self) -> PathBuf {
        self.0
            .join(SERIAL.fetch_add(1, Ordering::Relaxed).to_string())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every engine × store index × combiner × pool width, as labelled
/// configs with `reducers` partitions.
fn matrix(reducers: usize, scratch: &Scratch) -> Vec<(String, JobConfig)> {
    let engines = [
        Engine::Barrier,
        Engine::BarrierLess {
            memory: MemoryPolicy::InMemory,
        },
        Engine::BarrierLess {
            memory: MemoryPolicy::SpillMerge {
                threshold_bytes: 700,
            },
        },
        Engine::BarrierLess {
            memory: MemoryPolicy::KvStore { cache_bytes: 512 },
        },
    ];
    let mut out = Vec::new();
    for engine in &engines {
        for index in [StoreIndex::Ordered, StoreIndex::Hashed] {
            for combiner in [CombinerPolicy::Disabled, CombinerPolicy::enabled()] {
                for workers in [1usize, 2, 4] {
                    let cfg = JobConfig::new(reducers)
                        .engine(engine.clone())
                        .store_index(index)
                        .combiner(combiner)
                        .pool_workers(workers)
                        .scratch_dir(scratch.dir());
                    let label = format!("{engine:?} {index:?} {combiner:?} {workers}w");
                    out.push((label, cfg));
                }
            }
        }
    }
    out
}

/// A tiny deterministic generator (64-bit LCG), so inputs need no RNG.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

fn text_splits(seed: u64, n_splits: usize, lines: usize) -> Vec<Vec<(u64, String)>> {
    let mut s = seed;
    (0..n_splits)
        .map(|i| {
            (0..lines)
                .map(|j| {
                    let n = 1 + lcg(&mut s) % 6;
                    let line: Vec<String> =
                        (0..n).map(|_| format!("w{}", lcg(&mut s) % 23)).collect();
                    ((i * lines + j) as u64, line.join(" "))
                })
                .collect()
        })
        .collect()
}

fn sort_splits() -> Vec<Vec<(u64, u64)>> {
    let mut s = 7;
    (0..5)
        .map(|_| (0..20).map(|i| (i, lcg(&mut s) % 1000)).collect())
        .collect()
}

/// Checks the single-job entry points for one app against the
/// reference: the plain runner (`run` or `run_with_partitioner`, via
/// `plain`), `run_cached` cold then warm, `run_many`, and `serve` with
/// a shared cache (the third submission repeats the first, a whole-job
/// hit).
fn check_single_job<A, P>(
    app: &A,
    splits: &Splits<A>,
    reducers: usize,
    partitioner: &P,
    plain: &PlainRunner<'_, A>,
    scratch: &Scratch,
) where
    A: Application,
    P: Partitioner<A::MapKey> + Sync,
    A::InKey: StableHash,
    A::InValue: StableHash,
    A::MapKey: Sync,
    A::MapValue: Sync,
    A::OutKey: Sync + SizeEstimate + Debug,
    A::OutValue: Sync + SizeEstimate + Debug + PartialEq,
{
    let expect = reference(app, splits, reducers, partitioner);
    assert!(expect.iter().any(|p| !p.is_empty()), "vacuous input");
    let runner = LocalRunner::new(2);
    for (label, cfg) in matrix(reducers, scratch) {
        let out = plain(splits.clone(), &cfg).unwrap();
        assert_eq!(out.partitions, expect, "plain runner: {label}");

        let cached = cfg.clone().cache(CacheBudget::enabled());
        let cache = SharedCache::new(64 << 20);
        for pass in ["cold", "warm"] {
            let out = runner
                .run_cached(app, splits.clone(), &cached, partitioner, &cache)
                .unwrap();
            assert_eq!(out.partitions, expect, "run_cached {pass}: {label}");
        }

        let many = runner
            .run_many(app, vec![splits.clone(), splits.clone()], &cfg, partitioner)
            .unwrap();
        for job in many.jobs {
            assert_eq!(job.unwrap().partitions, expect, "run_many: {label}");
        }

        let svc_cfg = ServiceConfig::new(2)
            .pool_workers(cfg.pool_workers)
            .cache(CacheBudget::enabled());
        let (outs, _) = serve(app, partitioner, &svc_cfg, |svc| -> Vec<_> {
            let handles: Vec<_> = (0..3)
                .map(|i| svc.submit(i % 2, splits.clone(), &cached).unwrap())
                .collect();
            handles.into_iter().map(|h| h.wait().unwrap()).collect()
        })
        .unwrap();
        for out in outs {
            assert_eq!(out.partitions, expect, "serve: {label}");
        }
    }
}

#[test]
fn wordcount_entry_points_match_the_reference() {
    let scratch = Scratch::new("wordcount");
    let splits = text_splits(11, 6, 8);
    let runner = LocalRunner::new(2);
    let plain = |s, cfg: &JobConfig| runner.run(&WordCount, s, cfg);
    check_single_job(&WordCount, &splits, 3, &HashPartitioner, &plain, &scratch);
    // One seed of the simulated cluster over the same input.
    let chunks = splits.len() as u64;
    let cfg = JobConfig::new(3)
        .engine(Engine::barrierless())
        .scratch_dir(scratch.dir());
    let input = splits.clone();
    let report = SimExecutor::new(ClusterParams::paper_testbed(5)).run(
        &WordCount,
        &FnInput(move |c| input[c as usize].clone()),
        chunks,
        &cfg,
        &CostModel::default_for_tests(),
        &HashPartitioner,
    );
    assert!(report.outcome.is_completed());
    assert_eq!(
        report.output.expect("completed").partitions,
        reference(&WordCount, &splits, 3, &HashPartitioner),
        "SimExecutor"
    );
}

#[test]
fn sort_under_range_partitioner_matches_the_reference() {
    let scratch = Scratch::new("sort");
    let splits = sort_splits();
    let range = RangePartitioner {
        bounds: vec![300, 700],
    };
    let runner = LocalRunner::new(2);
    let plain = |s, cfg: &JobConfig| runner.run_with_partitioner(&Sort, s, cfg, &range);
    check_single_job(&Sort, &splits, 3, &range, &plain, &scratch);
}

#[test]
fn chain_entry_points_match_the_reference() {
    let scratch = Scratch::new("chain");
    let splits = text_splits(23, 5, 6);
    let extra = text_splits(29, 3, 6);
    let topk = TopK::new(5);
    let (r1, r2) = (3, 2);
    let expect = reference(
        &topk,
        &handoff(&topk, reference(&WordCount, &splits, r1, &HashPartitioner)),
        r2,
        &HashPartitioner,
    );
    // Fan-in: each branch is its own WordCount job, and the downstream
    // job sees both branches' handoffs.
    let mut fanin_input = handoff(&topk, reference(&WordCount, &splits, r1, &HashPartitioner));
    fanin_input.extend(handoff(
        &topk,
        reference(&WordCount, &extra, r1, &HashPartitioner),
    ));
    let expect_fanin = reference(&topk, &fanin_input, r2, &HashPartitioner);
    // A homogeneous chainable app for the iterative driver: each
    // generation's words feed the next generation's text.
    let iter_app = InputAdapter::new(WordCount, |word: String, count: u64| {
        (count, format!("{word} x{count}"))
    });
    let mut current = splits.clone();
    let mut expect_iter = Vec::new();
    for _ in 0..3 {
        expect_iter = reference(&iter_app, &current, r1, &HashPartitioner);
        current = handoff(&iter_app, expect_iter.clone());
    }

    let runner = LocalRunner::new(2);
    let (p, h) = (&HashPartitioner, &HashPartitioner);
    for (label, cfg) in matrix(r1, &scratch) {
        let mut cfg2 = cfg.clone().scratch_dir(scratch.dir());
        cfg2.reducers = r2;
        for mode in [HandoffMode::Barrier, HandoffMode::Streaming] {
            let spec = ChainSpec::new(vec![cfg.clone(), cfg2.clone()]).handoff(mode);
            let out = runner
                .run_chain2(&WordCount, &topk, splits.clone(), &spec, p, h)
                .unwrap();
            assert_eq!(
                out.output.partitions, expect,
                "run_chain2 {mode:?}: {label}"
            );

            let cached = ChainSpec::new(vec![
                cfg.clone().cache(CacheBudget::enabled()),
                cfg2.clone().cache(CacheBudget::enabled()),
            ])
            .handoff(mode);
            let cache = SharedCache::new(64 << 20);
            for pass in ["cold", "warm"] {
                let out = runner
                    .run_chain2_cached(&WordCount, &topk, splits.clone(), &cached, p, h, &cache)
                    .unwrap();
                assert_eq!(
                    out.output.partitions, expect,
                    "run_chain2_cached {mode:?} {pass}: {label}"
                );
            }

            let fanin = ChainSpec::new(vec![
                cfg.clone(),
                cfg.clone().scratch_dir(scratch.dir()),
                cfg2.clone(),
            ])
            .handoff(mode);
            let out = runner
                .run_chain_fanin2(
                    &[&WordCount, &WordCount],
                    &topk,
                    vec![splits.clone(), extra.clone()],
                    &fanin,
                    p,
                    h,
                )
                .unwrap();
            assert_eq!(
                out.output.partitions, expect_fanin,
                "run_chain_fanin2 {mode:?}: {label}"
            );

            let iter = ChainSpec::new(
                (0..3)
                    .map(|_| cfg.clone().scratch_dir(scratch.dir()))
                    .collect(),
            )
            .handoff(mode);
            let out = runner
                .run_chain_iter(&iter_app, splits.clone(), &iter, p)
                .unwrap();
            assert_eq!(
                out.output.partitions, expect_iter,
                "run_chain_iter {mode:?}: {label}"
            );
        }
    }

    // One seed of the simulated chain over the same input.
    let spec = ChainSpec::new(vec![
        JobConfig::new(r1)
            .engine(Engine::barrierless())
            .scratch_dir(scratch.dir()),
        JobConfig::new(r2)
            .engine(Engine::barrierless())
            .scratch_dir(scratch.dir()),
    ])
    .handoff(HandoffMode::Streaming);
    let input = splits.clone();
    let report = ChainSimExecutor::new(ClusterParams::paper_testbed(3)).run_chain2(
        &WordCount,
        &topk,
        &FnInput(move |c| input[c as usize].clone()),
        splits.len() as u64,
        &spec,
        &CostModel::default_for_tests(),
        p,
        h,
    );
    assert!(report.outcome.is_completed());
    assert_eq!(
        report.output.expect("completed").partitions,
        expect,
        "ChainSimExecutor"
    );
}
