//! Sort — the Sorting class (§4.2, §6.1.1).
//!
//! "The only prominent kind of operation … that requires a strict ordering
//! on the output keys." With the barrier, Sort is an identity program: the
//! framework's shuffle sort does all the work. Without the barrier the
//! Reduce side must sort by itself, via an ordered map of key → duplicate
//! count — the paper's degenerate case where barrier-less *loses* by a few
//! percent, because merge sort beats red-black-tree insertion.
//!
//! Original reduce logic: [`original`]; barrier-less rewrite:
//! [`barrierless`] (the +240% LoC row of Table 2).

pub mod barrierless;
pub mod original;

use mr_core::{Application, ChainableApplication, Emit, IdentityWriter, Partitioner};

/// TeraSort-style total-order sort of `u64` keys.
#[derive(Debug, Clone, Default)]
pub struct Sort;

/// Range partitioner sending each key to the reducer owning its interval,
/// so that concatenated per-partition outputs are globally sorted —
/// Hadoop's TotalOrderPartitioner.
#[derive(Debug, Clone)]
pub struct RangePartitioner {
    /// Upper-boundary sample points, ascending; partition i takes keys in
    /// `[bounds[i-1], bounds[i])`.
    pub bounds: Vec<u64>,
}

impl RangePartitioner {
    /// Even boundaries over the full `u64` key space for `partitions`.
    pub fn uniform(partitions: usize) -> Self {
        assert!(partitions >= 1);
        let step = u64::MAX / partitions as u64;
        RangePartitioner {
            bounds: (1..partitions as u64).map(|i| i * step).collect(),
        }
    }
}

impl Partitioner<u64> for RangePartitioner {
    fn partition(&self, key: &u64, partitions: usize) -> usize {
        debug_assert_eq!(self.bounds.len() + 1, partitions);
        let _ = partitions;
        self.bounds.partition_point(|b| key >= b)
    }

    fn cache_identity(&self, w: &mut dyn IdentityWriter) -> bool {
        w.write_u64(self.bounds.len() as u64);
        for &b in &self.bounds {
            w.write_u64(b);
        }
        true
    }
}

impl Application for Sort {
    type InKey = u64;
    type InValue = u64;
    type MapKey = u64;
    type MapValue = ();
    type OutKey = u64;
    type OutValue = ();
    type State = u64;
    type Shared = ();

    /// Identity map: the record's value *is* the sort key.
    fn map(&self, _id: &u64, key: &u64, out: &mut dyn Emit<u64, ()>) {
        out.emit(*key, ());
    }

    fn new_shared(&self) {}

    fn reduce_grouped(
        &self,
        key: &u64,
        values: Vec<()>,
        _shared: &mut (),
        out: &mut dyn Emit<u64, ()>,
    ) {
        original::reduce(*key, values.len() as u64, out);
    }

    fn init(&self, key: &u64) -> u64 {
        barrierless::init(*key)
    }

    fn absorb(
        &self,
        key: &u64,
        state: &mut u64,
        _v: (),
        _shared: &mut (),
        out: &mut dyn Emit<u64, ()>,
    ) {
        barrierless::absorb(*key, state, out);
    }

    fn merge(&self, key: &u64, a: u64, b: u64) -> u64 {
        barrierless::merge(*key, a, b)
    }

    fn finalize(&self, key: u64, state: u64, _shared: &mut (), out: &mut dyn Emit<u64, ()>) {
        barrierless::finalize(key, state, out);
    }

    fn requires_sorted_output(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "sort"
    }
}

/// The `grep → sort` chain boundary (log analysis): grep emits matching
/// `(line id, line text)` records; the sort stage orders the matching
/// line ids (timestamps in a time-keyed log). The text served its
/// purpose at the filter — the sort key is the id.
impl ChainableApplication<u64, String> for Sort {
    fn adapt_input(&self, id: u64, _line: String) -> (u64, u64) {
        (id, id)
    }

    fn handoff_bytes(&self, _id: &u64, line: &String) -> usize {
        std::mem::size_of::<u64>() + line.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_core::local::LocalRunner;
    use mr_core::{Engine, JobConfig, MemoryPolicy};
    use mr_workloads::SortWorkload;

    fn splits(chunks: u64, per_chunk: usize, key_range: u64) -> Vec<Vec<(u64, u64)>> {
        let w = SortWorkload {
            seed: 77,
            records_per_chunk: per_chunk,
            key_range,
        };
        (0..chunks).map(|c| w.chunk(c)).collect()
    }

    fn is_sorted(v: &[(u64, ())]) -> bool {
        v.windows(2).all(|w| w[0].0 <= w[1].0)
    }

    #[test]
    fn barrier_engine_emits_each_partition_sorted() {
        let out = LocalRunner::new(4)
            .run_with_partitioner(
                &Sort,
                splits(6, 200, u64::MAX),
                &JobConfig::new(4),
                &RangePartitioner::uniform(4),
            )
            .unwrap();
        let mut total = 0;
        let mut last_max = 0u64;
        for p in &out.partitions {
            assert!(is_sorted(p), "partition not sorted");
            if let (Some(first), Some(last)) = (p.first(), p.last()) {
                assert!(first.0 >= last_max, "partitions overlap");
                last_max = last.0;
            }
            total += p.len();
        }
        assert_eq!(total, 6 * 200);
    }

    #[test]
    fn barrierless_sort_matches_barrier_sort() {
        let input = splits(5, 150, 1000); // narrow range -> duplicates
        let barrier = LocalRunner::new(4)
            .run_with_partitioner(
                &Sort,
                input.clone(),
                &JobConfig::new(3),
                &RangePartitioner::uniform(3),
            )
            .unwrap();
        let pipelined = LocalRunner::new(4)
            .run_with_partitioner(
                &Sort,
                input,
                &JobConfig::new(3).engine(Engine::barrierless()),
                &RangePartitioner::uniform(3),
            )
            .unwrap();
        for (bp, pp) in barrier.partitions.iter().zip(&pipelined.partitions) {
            assert!(is_sorted(pp), "barrier-less partition not sorted");
            assert_eq!(bp, pp);
        }
    }

    #[test]
    fn duplicates_survive_the_counting_representation() {
        let input = vec![vec![(0u64, 5u64), (1, 5), (2, 5), (3, 1)]];
        let out = LocalRunner::new(1)
            .run(
                &Sort,
                input,
                &JobConfig::new(1).engine(Engine::barrierless()),
            )
            .unwrap();
        let keys: Vec<u64> = out.partitions[0].iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 5, 5, 5]);
    }

    #[test]
    fn spill_merge_preserves_sortedness_and_duplicates() {
        let input = splits(4, 300, 500);
        let expect = {
            let mut all: Vec<u64> = input.iter().flatten().map(|(_, k)| *k).collect();
            all.sort();
            all
        };
        let cfg = JobConfig::new(1)
            .engine(Engine::BarrierLess {
                memory: MemoryPolicy::SpillMerge {
                    threshold_bytes: 2048,
                },
            })
            .scratch_dir(std::env::temp_dir().join("mr-apps-sort-spill"));
        let out = LocalRunner::new(2).run(&Sort, input, &cfg).unwrap();
        assert!(out.reports[0].store.spill_files > 0, "test should spill");
        let keys: Vec<u64> = out.partitions[0].iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn grep_to_sort_chain_is_identical_under_both_handoffs() {
        use crate::grep::Grep;
        use mr_core::{ChainSpec, HandoffMode, HashPartitioner};
        // A log where every third line is an error; the chain filters
        // then orders the matching line ids.
        let splits: Vec<Vec<(u64, String)>> = (0..4)
            .map(|s| {
                (0..30u64)
                    .map(|l| {
                        let id = s * 1000 + l;
                        let text = if id % 3 == 0 {
                            format!("{id} error: disk wobbled svc=db")
                        } else {
                            format!("{id} ok")
                        };
                        (id, text)
                    })
                    .collect()
            })
            .collect();
        let expect: Vec<u64> = splits
            .iter()
            .flatten()
            .filter(|(_, t)| t.contains("error"))
            .map(|(id, _)| *id)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let grep = Grep::new("error");
        let run = |handoff| {
            let spec = ChainSpec::new(vec![
                JobConfig::new(3).engine(Engine::barrierless()),
                JobConfig::new(2).engine(Engine::barrierless()),
            ])
            .handoff(handoff);
            LocalRunner::new(4)
                .run_chain2(
                    &grep,
                    &Sort,
                    splits.clone(),
                    &spec,
                    &HashPartitioner,
                    &RangePartitioner::uniform(2),
                )
                .unwrap()
        };
        let barrier = run(HandoffMode::Barrier);
        let streaming = run(HandoffMode::Streaming);
        assert_eq!(
            barrier.output.partitions, streaming.output.partitions,
            "handoff mode changed the chained output"
        );
        let got: Vec<u64> = streaming
            .output
            .partitions
            .iter()
            .flatten()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(got, expect, "chain lost or disordered matches");
        assert_eq!(streaming.handoff_records(), expect.len() as u64);
        assert!(streaming.stages[0].first_handoff_secs.is_some());
    }

    #[test]
    fn range_partitioner_respects_bounds() {
        let p = RangePartitioner::uniform(4);
        assert_eq!(p.partition(&0u64, 4), 0);
        assert_eq!(p.partition(&u64::MAX, 4), 3);
        let step = u64::MAX / 4;
        assert_eq!(p.partition(&(step - 1), 4), 0);
        assert_eq!(p.partition(&step, 4), 1);
    }
}
