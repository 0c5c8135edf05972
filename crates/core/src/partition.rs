//! Partitioning map output across reducers.

use crate::traits::IdentityWriter;
use std::hash::{Hash, Hasher};

/// Assigns intermediate keys to reduce partitions.
pub trait Partitioner<K>: Send + Sync {
    /// Partition index for `key`, in `0..partitions`.
    fn partition(&self, key: &K, partitions: usize) -> usize;

    /// Writes the instance parameters that shape routing into the shared
    /// cache's key and returns whether that identity is complete — the
    /// partitioner's half of
    /// [`Application::cache_identity`](crate::traits::Application::cache_identity).
    /// The default vouches only for zero-sized partitioners (nothing to
    /// write); a partitioner carrying parameters must override it, or
    /// its cached jobs bypass the cache (`cache.bypass.count`) instead
    /// of sharing artifacts with differently-configured instances.
    fn cache_identity(&self, w: &mut dyn IdentityWriter) -> bool
    where
        Self: Sized,
    {
        let _ = w;
        std::mem::size_of::<Self>() == 0
    }
}

/// Hadoop's default: `hash(key) mod partitions`.
///
/// Uses a fixed FNV-1a so partition assignment is identical across runs,
/// platforms and engines (SipHash's random keys would break determinism).
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

/// Minimal FNV-1a hasher — stable, fast, dependency-free.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl<K: Hash> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K, partitions: usize) -> usize {
        assert!(partitions > 0, "need at least one partition");
        let mut h = Fnv1a::default();
        key.hash(&mut h);
        (h.finish() % partitions as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_stable_and_in_range() {
        let p = HashPartitioner;
        for word in ["alpha", "beta", "gamma", "delta", ""] {
            let a = p.partition(&word.to_string(), 7);
            let b = p.partition(&word.to_string(), 7);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn single_partition_takes_everything() {
        let p = HashPartitioner;
        for i in 0..100u64 {
            assert_eq!(p.partition(&i, 1), 0);
        }
    }

    #[test]
    fn spreads_keys_reasonably() {
        let p = HashPartitioner;
        let parts = 10;
        let mut counts = vec![0u32; parts];
        for i in 0..10_000u64 {
            counts[p.partition(&i, parts)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            min > 700 && max < 1300,
            "badly skewed partitioning: {counts:?}"
        );
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of empty input is the offset basis.
        let h = Fnv1a::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
