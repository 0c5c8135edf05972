//! Memoized re-runs (§8 future work) through the shared result cache:
//! unchanged splits skip the map function, changed splits re-map, and
//! output always equals a cold run.

use barrier_mapreduce::apps::WordCount;
use barrier_mapreduce::core::counters::names;
use barrier_mapreduce::core::local::LocalRunner;
use barrier_mapreduce::core::{CacheBudget, Engine, HashPartitioner, JobConfig, SharedCache};

type Split = Vec<(u64, String)>;

fn splits() -> Vec<Split> {
    vec![
        vec![(0, "alpha beta alpha".into())],
        vec![(1, "beta gamma".into())],
        vec![(2, "gamma gamma delta".into())],
    ]
}

fn cached(reducers: usize, engine: Engine) -> JobConfig {
    JobConfig::new(reducers)
        .engine(engine)
        .cache(CacheBudget::enabled())
}

#[test]
fn warm_run_skips_all_maps_and_agrees() {
    for engine in [Engine::Barrier, Engine::barrierless()] {
        let cfg = cached(2, engine.clone());
        let runner = LocalRunner::new(2);
        let cache = SharedCache::new(16 << 20);

        let cold = runner
            .run_cached(&WordCount, splits(), &cfg, &HashPartitioner, &cache)
            .unwrap();
        assert_eq!(cold.counters.get(names::MAP_OUTPUT_RECORDS), 8);
        // Three split artifacts plus the whole-job artifact.
        assert_eq!(cold.counters.get(names::CACHE_MISSES), 4);

        let warm = runner
            .run_cached(&WordCount, splits(), &cfg, &HashPartitioner, &cache)
            .unwrap();
        // No map function ran on the warm pass.
        assert_eq!(warm.counters.get(names::MAP_OUTPUT_RECORDS), 0);
        assert_eq!(warm.counters.get(names::CACHE_HITS), 1);
        assert_eq!(
            cold.into_sorted_output(),
            warm.into_sorted_output(),
            "engine {engine:?}"
        );
    }
}

#[test]
fn changed_split_is_remapped_incrementally() {
    let cfg = cached(2, Engine::barrierless());
    let runner = LocalRunner::new(2);
    let cache = SharedCache::new(16 << 20);
    runner
        .run_cached(&WordCount, splits(), &cfg, &HashPartitioner, &cache)
        .unwrap();

    // Change one split's content: its key changes with it.
    let mut updated = splits();
    updated[1] = vec![(1, "beta epsilon".into())];
    let out = runner
        .run_cached(&WordCount, updated.clone(), &cfg, &HashPartitioner, &cache)
        .unwrap();
    // Only the changed split was mapped: 2 words.
    assert_eq!(out.counters.get(names::MAP_OUTPUT_RECORDS), 2);
    assert_eq!(out.counters.get(names::CACHE_HITS), 2);

    // Result equals a from-scratch run over the updated input.
    let fresh = LocalRunner::new(2).run(&WordCount, updated, &cfg).unwrap();
    assert_eq!(out.into_sorted_output(), fresh.into_sorted_output());
}

#[test]
fn memoized_matches_plain_runner() {
    let cfg = cached(3, Engine::barrierless());
    let cache = SharedCache::new(16 << 20);
    let memo_out = LocalRunner::new(2)
        .run_cached(&WordCount, splits(), &cfg, &HashPartitioner, &cache)
        .unwrap();
    let plain_out = LocalRunner::new(2).run(&WordCount, splits(), &cfg).unwrap();
    assert_eq!(
        memo_out.into_sorted_output(),
        plain_out.into_sorted_output()
    );
}
