//! ℓ0-sampling: return (some) non-zero coordinate of a dynamically updated
//! vector using polylogarithmic space.
//!
//! The sampler keeps one [`OneSparseRecovery`] per geometric level
//! `j = 0, …, L`. A pairwise-independent hash assigns every coordinate a
//! level `ℓ(i)` with `Pr[ℓ(i) ≥ j] = 2^{-j}`; level `j` receives exactly the
//! updates of coordinates with `ℓ(i) ≥ j`. If the vector has `k` non-zero
//! coordinates then the level with `2^j ≈ k` contains exactly one of them
//! with constant probability, and its one-sparse recovery succeeds. Sampling
//! fails (returns `None`) with constant probability; callers that need high
//! success probability keep `O(log n)` independent samplers (as
//! [`ConnectivitySketch`](crate::ConnectivitySketch) does).
//!
//! The structure is linear: two samplers built with the same seed can be
//! merged coordinate-wise, which is exactly what sketch-space Borůvka needs.
//!
//! **Representation.** The model sampler has `61` levels, and that is what
//! [`L0Sampler::size_in_words`] charges. Only a sliver is ever non-zero: a
//! coordinate reaches level `j` with probability `2^{-j}`, so a vertex of
//! degree `d` populates about `log₂ d + 1` levels. The sampler therefore
//! stores levels only up to the highest level any coordinate has reached;
//! the levels above it are implicitly zero, and [`merge`](L0Sampler::merge),
//! [`sample`](L0Sampler::sample), [`is_zero`](L0Sampler::is_zero) and
//! equality treat them so. The levels share one fingerprint point `z`,
//! stored once per sampler. The state of every stored level is exactly that
//! of the same level of the model sampler.
//!
//! **Per-update cost.** An update hashes its coordinate to a level once and
//! computes the fingerprint term `delta · z^index` once, then adds both to
//! each level it reaches. A standalone [`L0Sampler::update`] computes the
//! power by square-and-multiply; a connectivity sketch instead looks it up
//! in a per-phase power table it holds once for all vertices (see
//! [`SharedRandomness`](crate::SharedRandomness)), and reuses the level and
//! the term for both endpoints of an edge.

use crate::one_sparse::{
    field_of, mul_mod, pow_mod, Measurements, OneSparseRecovery, RecoveryOutcome, FINGERPRINT_PRIME,
};

/// Number of geometric sub-sampling levels (supports universes up to `2^60`).
const NUM_LEVELS: usize = 61;

/// An ℓ0-sampler over a vector indexed by `u64` coordinates.
///
/// Only the levels up to the highest level any coordinate has reached are
/// stored; the levels above it are implicitly zero. The fingerprint point is
/// stored once, since every level shares it.
#[derive(Debug, Clone)]
pub struct L0Sampler {
    levels: Vec<Measurements>,
    /// Fingerprint evaluation point shared by every level.
    z: u64,
    /// Seed of the level-assignment hash; two samplers can only be merged if
    /// they agree on it.
    seed: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The fingerprint evaluation point of the sampler seeded with `seed`,
/// drawn from `[1, p)`.
pub(crate) fn fingerprint_point(seed: u64) -> u64 {
    splitmix64(seed ^ 0xA5A5_A5A5_A5A5_A5A5) % (FINGERPRINT_PRIME - 2) + 1
}

/// The level of coordinate `index` under the level hash seeded with `seed`:
/// geometric with ratio 1/2.
pub(crate) fn level_of(seed: u64, index: u64) -> usize {
    let h = splitmix64(index ^ seed);
    (h.trailing_ones() as usize).min(NUM_LEVELS - 1)
}

impl L0Sampler {
    /// Creates an empty sampler whose level hash and fingerprints are derived
    /// deterministically from `seed`.
    pub fn new(seed: u64) -> Self {
        L0Sampler {
            levels: Vec::new(),
            z: fingerprint_point(seed),
            seed,
        }
    }

    /// Applies the update `vector[index] += delta`.
    pub fn update(&mut self, index: u64, delta: i64) {
        let term = mul_mod(field_of(delta), pow_mod(self.z, index));
        let update = Measurements::of_update(index, delta, term);
        self.apply(level_of(self.seed, index), &update);
    }

    /// Applies one update, given as the coordinate's level and the update's
    /// measurements: a sketch computes both once per phase per edge and
    /// reuses them for the two endpoints.
    pub(crate) fn apply(&mut self, level: usize, update: &Measurements) {
        if self.levels.len() <= level {
            self.levels.resize(level + 1, Measurements::default());
        }
        // Coordinate i participates in levels 0..=level.
        for m in &mut self.levels[..=level] {
            m.merge(update);
        }
    }

    /// Adds another sampler (vector addition).
    ///
    /// # Panics
    ///
    /// Panics if the samplers were created with different seeds.
    pub fn merge(&mut self, other: &L0Sampler) {
        assert_eq!(
            self.seed, other.seed,
            "cannot merge samplers with different seeds"
        );
        if self.levels.len() < other.levels.len() {
            self.levels
                .resize(other.levels.len(), Measurements::default());
        }
        for (a, b) in self.levels.iter_mut().zip(other.levels.iter()) {
            a.merge(b);
        }
    }

    /// Attempts to return a non-zero coordinate of the sketched vector.
    ///
    /// Returns `Some((index, weight))` if some level recovers a 1-sparse
    /// vector, `None` if the vector appears to be zero or sampling failed at
    /// every level.
    pub fn sample(&self) -> Option<(u64, i64)> {
        self.sample_with(|index| pow_mod(self.z, index))
    }

    /// [`sample`](Self::sample) with `pow(i) = z^i mod p` supplied by the
    /// caller (a sketch's shared power table).
    pub(crate) fn sample_with(&self, pow: impl Fn(u64) -> u64) -> Option<(u64, i64)> {
        // Scan from level 0 (every coordinate) upwards and return the first
        // success. The order decides which edge a Borůvka phase samples, so
        // it is part of the sketch's answers. Missing levels are zero and
        // cannot succeed.
        for level in &self.levels {
            if let RecoveryOutcome::OneSparse { index, weight } = level.recover(&pow) {
                return Some((index, weight));
            }
        }
        None
    }

    /// Returns `true` if every level is verifiably zero, i.e. the sketched
    /// vector is (with certainty, since level 0 contains all coordinates)
    /// the zero vector.
    pub fn is_zero(&self) -> bool {
        self.levels.first().is_none_or(Measurements::is_zero)
    }

    /// Seed used for level assignment.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of machine words this sampler occupies in the message-size
    /// model: the seed plus all 61 levels, populated or not.
    pub fn size_in_words(&self) -> usize {
        1 + NUM_LEVELS * OneSparseRecovery::WORDS
    }
}

/// Equality of the sketched state: stored levels above the other sampler's
/// highest level must be zero, like the levels it does not store.
impl PartialEq for L0Sampler {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.levels.len() <= other.levels.len() {
            (&self.levels, &other.levels)
        } else {
            (&other.levels, &self.levels)
        };
        self.seed == other.seed
            && self.z == other.z
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(Measurements::is_zero)
    }
}

impl Eq for L0Sampler {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn empty_sampler_is_zero_and_samples_none() {
        let s = L0Sampler::new(1);
        assert!(s.is_zero());
        assert_eq!(s.sample(), None);
    }

    #[test]
    fn single_coordinate_is_always_recovered() {
        for seed in 0..20 {
            let mut s = L0Sampler::new(seed);
            s.update(seed * 1000 + 3, 5);
            assert_eq!(s.sample(), Some((seed * 1000 + 3, 5)));
        }
    }

    #[test]
    fn sampled_coordinate_is_a_true_nonzero() {
        let coords: Vec<u64> = (0..200).map(|i| i * 17 + 1).collect();
        let coord_set: HashSet<u64> = coords.iter().copied().collect();
        let mut successes = 0;
        for seed in 0..50 {
            let mut s = L0Sampler::new(seed);
            for &c in &coords {
                s.update(c, 1);
            }
            if let Some((idx, w)) = s.sample() {
                successes += 1;
                assert!(
                    coord_set.contains(&idx),
                    "sampled a phantom coordinate {idx}"
                );
                assert_eq!(w, 1);
            }
        }
        // Success probability is constant; 50 trials virtually never all fail.
        assert!(successes > 25, "only {successes}/50 samples succeeded");
    }

    #[test]
    fn deletions_remove_coordinates_from_sampling() {
        let mut s = L0Sampler::new(99);
        for c in 0..100u64 {
            s.update(c, 1);
        }
        for c in 0..99u64 {
            s.update(c, -1);
        }
        // Only coordinate 99 is left.
        assert_eq!(s.sample(), Some((99, 1)));
        s.update(99, -1);
        assert!(s.is_zero());
    }

    #[test]
    fn merge_acts_like_updating_one_sampler() {
        let mut a = L0Sampler::new(7);
        let mut b = L0Sampler::new(7);
        let mut c = L0Sampler::new(7);
        for i in 0..50u64 {
            a.update(i, 1);
            c.update(i, 1);
        }
        for i in 25..75u64 {
            b.update(i, -1);
            c.update(i, -1);
        }
        a.merge(&b);
        assert_eq!(a.sample(), c.sample());
    }

    #[test]
    fn different_seeds_give_different_level_assignments() {
        // Statistical smoke test: with different seeds the samplers should not
        // behave identically on a fixed adversarial input.
        let mut distinct = HashSet::new();
        for seed in 0..10 {
            let mut s = L0Sampler::new(seed);
            for i in 0..500u64 {
                s.update(i, 1);
            }
            distinct.insert(s.sample());
        }
        assert!(distinct.len() > 1);
    }

    #[test]
    #[should_panic(expected = "different seeds")]
    fn merging_different_seeds_panics() {
        let mut a = L0Sampler::new(1);
        let b = L0Sampler::new(2);
        a.merge(&b);
    }

    #[test]
    fn size_in_words_is_polylog() {
        let s = L0Sampler::new(0);
        assert!(s.size_in_words() < 400);
    }

    #[test]
    fn size_in_words_is_the_61_level_model_size_however_many_are_stored() {
        let mut s = L0Sampler::new(3);
        assert_eq!(s.size_in_words(), 1 + 61 * 4);
        s.update(coordinate_at_level(3, 9), 1);
        assert_eq!(s.size_in_words(), 1 + 61 * 4);
    }

    /// The first coordinate whose level under `seed` is at least `min`.
    fn coordinate_at_level(seed: u64, min: usize) -> u64 {
        (0u64..).find(|&i| level_of(seed, i) >= min).unwrap()
    }

    #[test]
    fn only_levels_up_to_the_highest_reached_are_stored() {
        let mut s = L0Sampler::new(11);
        assert!(s.levels.is_empty());
        let idx = coordinate_at_level(11, 7);
        s.update(idx, 1);
        assert_eq!(s.levels.len(), level_of(11, idx) + 1);
    }

    #[test]
    fn insert_then_delete_at_a_high_level_equals_the_sampler_before() {
        let idx = coordinate_at_level(5, 12);
        let mut s = L0Sampler::new(5);
        s.update(coordinate_at_level(5, 0), 1);
        let before = s.clone();
        s.update(idx, 1);
        assert!(s.levels.len() > 12);
        assert_ne!(s, before);
        assert_ne!(before, s);
        s.update(idx, -1);
        assert_eq!(s, before);
        assert_eq!(before, s);
        assert_eq!(s, {
            let mut fresh = L0Sampler::new(5);
            fresh.update(coordinate_at_level(5, 0), 1);
            fresh
        });
        assert_eq!(s.sample(), before.sample());
    }

    #[test]
    fn merge_extends_the_shorter_sampler() {
        let (low, high) = (coordinate_at_level(4, 0), coordinate_at_level(4, 10));
        let mut short = L0Sampler::new(4);
        short.update(low, 1);
        let mut long = L0Sampler::new(4);
        long.update(high, -1);
        let mut direct = L0Sampler::new(4);
        direct.update(low, 1);
        direct.update(high, -1);
        let mut merged = short.clone();
        merged.merge(&long);
        assert_eq!(merged, direct);
        assert_eq!(merged.levels.len(), direct.levels.len());
        // Merging the longer sampler with the shorter one gives the same sum.
        long.merge(&short);
        assert_eq!(long, direct);
    }
}
