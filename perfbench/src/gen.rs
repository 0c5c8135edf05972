//! Seeded input generators. Every input is a pure function of the
//! workload seed; the program under test only ever sees the generated
//! records.

use barrier_mapreduce::workloads::{mix, TextWorkload, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input splits: one `Vec` of `(key, line)` records per map task.
pub type Splits = Vec<Vec<(u64, String)>>;

/// Zipf-distributed text over a fixed vocabulary. The CDF table is built
/// once per workload (`TextWorkload::chunk` rebuilds it on every call).
pub struct ZipfText {
    words: Vec<String>,
    zipf: Zipf,
}

impl ZipfText {
    /// A vocabulary of `vocab` words ranked by Zipf(`s`).
    pub fn new(vocab: usize, s: f64) -> Self {
        ZipfText {
            words: (1..=vocab).map(TextWorkload::word).collect(),
            zipf: Zipf::new(vocab, s),
        }
    }

    /// `lines` lines of `words_per_line` words, keyed from `first_key`.
    pub fn lines(
        &self,
        rng: &mut StdRng,
        first_key: u64,
        lines: usize,
        words_per_line: usize,
    ) -> Vec<(u64, String)> {
        (0..lines)
            .map(|i| {
                let mut line = String::with_capacity(words_per_line * 8);
                for w in 0..words_per_line {
                    if w > 0 {
                        line.push(' ');
                    }
                    line.push_str(&self.words[self.zipf.sample(rng) - 1]);
                }
                (first_key + i as u64, line)
            })
            .collect()
    }

    /// `splits` splits of `lines_per_split` lines each; split `i` draws
    /// from its own stream of `seed`, so splits are independent.
    pub fn splits(
        &self,
        seed: u64,
        splits: usize,
        lines_per_split: usize,
        words_per_line: usize,
    ) -> Splits {
        (0..splits)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(mix(seed, i as u64));
                self.lines(
                    &mut rng,
                    (i * lines_per_split) as u64,
                    lines_per_split,
                    words_per_line,
                )
            })
            .collect()
    }
}

/// Service log lines keyed by random 64-bit request ids; each line is an
/// error (`level=error`) with probability one half.
pub fn log_splits(seed: u64, splits: usize, lines_per_split: usize) -> Splits {
    const OPS: [&str; 4] = ["get", "put", "scan", "del"];
    (0..splits)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(mix(seed, i as u64));
            (0..lines_per_split)
                .map(|_| {
                    let id: u64 = rng.gen();
                    let level = if rng.gen_bool(0.5) { "error" } else { "info" };
                    let op = OPS[rng.gen_range(0..OPS.len())];
                    let ms: u32 = rng.gen_range(0..1000);
                    (id, format!("level={level} op={op} ms={ms}"))
                })
                .collect()
        })
        .collect()
}

/// Total words across `splits`.
pub fn word_count(splits: &Splits) -> usize {
    splits
        .iter()
        .flatten()
        .map(|(_, l)| l.split_whitespace().count())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input() {
        let t = ZipfText::new(1000, 1.0);
        assert_eq!(t.splits(3, 2, 10, 5), t.splits(3, 2, 10, 5));
        assert_ne!(t.splits(3, 2, 10, 5), t.splits(4, 2, 10, 5));
        assert_eq!(log_splits(9, 2, 50), log_splits(9, 2, 50));
    }

    #[test]
    fn about_half_the_log_lines_are_errors() {
        let lines = log_splits(1, 1, 10_000);
        let errors = lines[0]
            .iter()
            .filter(|(_, l)| l.contains("level=error"))
            .count();
        assert!((4_500..5_500).contains(&errors), "{errors}");
    }
}
