//! Shared seeded-hash utilities.
//!
//! Several code paths need deterministic pseudo-randomness that is
//! stable across machines, runs and thread counts: the sampling
//! baseline shuffles candidate regions, the CV cube assigns items to
//! folds by id. Both previously seeded their own `SplitMix64` with
//! slightly different idioms; this module is the single place that
//! policy lives, so the bit-for-bit reproducibility guarantees are easy
//! to audit.
//!
//! Note the deliberate split between **item-level** fold hashing here
//! (stateless, keyed by item id — stable no matter which regions or
//! subsets an item appears in) and **row-level** fold assignment in
//! [`bellwether_linreg::fold_assignment`] (a seeded shuffle of one
//! dataset's row indices). The error engine uses the latter because its
//! folds partition a single dataset's rows; the optimized CV cube uses
//! the former because its folds must agree across overlapping subsets.

pub use bellwether_linreg::SplitMix64;

/// A deterministic RNG for `seed` — the workspace-wide policy for
/// seeded shuffles and draws.
pub fn seeded_rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed)
}

/// Deterministic fold of an item id: a SplitMix64 hash of `id ^ seed`,
/// so the assignment is stable across regions, subsets and machines.
/// Requires `folds ≥ 1`.
pub fn hash_fold(item: i64, folds: usize, seed: u64) -> usize {
    debug_assert!(folds >= 1, "hash_fold needs at least one fold");
    let mut h = seeded_rng((item as u64) ^ seed);
    (h.next_u64() % folds as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_fold_is_deterministic_and_in_range() {
        for item in -50i64..50 {
            for folds in 1..6usize {
                let f = hash_fold(item, folds, 99);
                assert!(f < folds);
                assert_eq!(f, hash_fold(item, folds, 99));
            }
        }
    }

    #[test]
    fn hash_fold_depends_on_seed() {
        let spread = (0..200i64)
            .filter(|&i| hash_fold(i, 10, 1) != hash_fold(i, 10, 2))
            .count();
        // Different seeds must reassign a substantial share of items.
        assert!(spread > 100, "only {spread} of 200 items moved");
    }

    #[test]
    fn hash_fold_covers_all_folds() {
        let folds = 5;
        let mut seen = vec![false; folds];
        for item in 0..100i64 {
            seen[hash_fold(item, folds, 7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn hash_fold_matches_pinned_reference_values() {
        // Pinned outputs: the fold assignment is part of the on-disk /
        // cross-run contract for seeded CV cubes — changing the hash
        // silently reshuffles every cube's folds.
        let got: Vec<usize> = (0..8i64).map(|i| hash_fold(i, 3, 99)).collect();
        let reference: Vec<usize> = (0..8i64)
            .map(|i| {
                let mut h = SplitMix64::new((i as u64) ^ 99);
                (h.next_u64() % 3) as usize
            })
            .collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn seeded_rng_reproduces() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
