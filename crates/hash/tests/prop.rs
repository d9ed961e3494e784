//! Property-based tests for fidr-hash.

use fidr_hash::{fnv1a, Fingerprint, Sha256};
use proptest::prelude::*;

proptest! {
    /// Streaming in arbitrary pieces on the CPU-selected kernel must
    /// equal the one-shot scalar reference digest.
    #[test]
    fn streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                splits in proptest::collection::vec(0usize..2048, 0..5)) {
        let oneshot = Sha256::scalar_digest(&data);
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for c in cuts {
            h.update(&data[prev..c.max(prev)]);
            prev = c.max(prev);
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    /// Fingerprints are deterministic and sensitive to single-bit flips.
    #[test]
    fn fingerprint_bit_flip(data in proptest::collection::vec(any::<u8>(), 1..512),
                            bit in 0usize..4096) {
        let fp = Fingerprint::of(&data);
        let mut mutated = data.clone();
        let idx = (bit / 8) % mutated.len();
        mutated[idx] ^= 1 << (bit % 8);
        prop_assert_ne!(fp, Fingerprint::of(&mutated));
        prop_assert_eq!(fp, Fingerprint::of(&data));
    }

    /// Bucket indices stay in range for any bucket count.
    #[test]
    fn bucket_in_range(data in proptest::collection::vec(any::<u8>(), 0..64),
                       buckets in 1u64..u64::MAX) {
        prop_assert!(Fingerprint::of(&data).bucket_index(buckets) < buckets);
    }

    /// FNV is deterministic and length-sensitive for appended bytes.
    #[test]
    fn fnv_appending_changes_hash(data in proptest::collection::vec(any::<u8>(), 0..256),
                                  extra in any::<u8>()) {
        let base = fnv1a(&data);
        let mut longer = data.clone();
        longer.push(extra);
        prop_assert_ne!(base, fnv1a(&longer));
    }
}
