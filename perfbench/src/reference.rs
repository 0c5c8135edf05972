//! Small, obviously-correct references the program's outputs are checked
//! against: a plain `HashMap` word count, a sorted list of matching ids,
//! and a top-k by sorting every count.

use crate::gen::Splits;
use std::collections::HashMap;

/// Word counts over every line of `splits`.
pub fn word_counts<'a>(
    splits: impl IntoIterator<Item = &'a Vec<(u64, String)>>,
) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for split in splits {
        for (_, line) in split {
            for word in line.split_whitespace() {
                *counts.entry(word.to_string()).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Whether `output` holds exactly the pairs of `want`, each once.
pub fn counts_match<'a>(
    want: &HashMap<String, u64>,
    output: impl IntoIterator<Item = &'a (String, u64)>,
) -> bool {
    let mut seen = 0usize;
    for (word, n) in output {
        seen += 1;
        if want.get(word) != Some(n) {
            return false;
        }
    }
    seen == want.len()
}

/// The ids of the lines containing `pattern`, sorted.
pub fn sorted_matching_ids(splits: &Splits, pattern: &str) -> Vec<u64> {
    let mut ids: Vec<u64> = splits
        .iter()
        .flatten()
        .filter(|(_, line)| line.contains(pattern))
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    ids
}

/// The `k` most frequent words, count descending then word ascending,
/// ranked from 1.
pub fn top_k(counts: &HashMap<String, u64>, k: usize) -> Vec<(u64, (String, u64))> {
    let mut all: Vec<(String, u64)> = counts.iter().map(|(w, n)| (w.clone(), *n)).collect();
    all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    all.into_iter()
        .take(k)
        .enumerate()
        .map(|(i, wc)| (i as u64 + 1, wc))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_on_a_tiny_input() {
        let splits: Splits = vec![
            vec![(5, "a b a".to_string())],
            vec![
                (2, "b level=error".to_string()),
                (9, "c level=error".to_string()),
            ],
        ];
        let counts = word_counts(&splits);
        assert_eq!(counts["a"], 2);
        assert_eq!(counts["b"], 2);
        let pairs = vec![
            ("a".to_string(), 2),
            ("b".to_string(), 2),
            ("c".to_string(), 1),
            ("level=error".to_string(), 2),
        ];
        assert!(counts_match(&counts, &pairs));
        assert!(!counts_match(&counts, &pairs[1..]));
        assert_eq!(sorted_matching_ids(&splits, "level=error"), vec![2, 9]);
        assert_eq!(top_k(&counts, 1), vec![(1, ("a".to_string(), 2))]);
    }
}
