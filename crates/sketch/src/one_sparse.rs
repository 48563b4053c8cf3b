//! Exact recovery of 1-sparse vectors with a fingerprint test.
//!
//! A *1-sparse* vector has exactly one non-zero coordinate. The classic
//! recovery structure keeps three linear measurements of the stream of
//! updates `(index, delta)`:
//!
//! * `w  = Σ delta`                      (total weight),
//! * `iw = Σ index · delta`              (index-weighted sum),
//! * `f  = Σ delta · z^index  (mod p)`   (a polynomial fingerprint at a
//!   random evaluation point `z`),
//!
//! all of which are linear in the vector, so two structures can be added
//! coordinate-wise. If the vector is 1-sparse with support `{i}` and weight
//! `w`, then `iw / w = i` and the fingerprint equals `w · z^i`; a vector that
//! is *not* 1-sparse passes this test with probability at most
//! `(max index)/p` over the choice of `z` (Schwartz–Zippel on a degree-
//! `max index` polynomial).

/// The Mersenne prime `2^61 - 1` used as the fingerprint field.
pub const FINGERPRINT_PRIME: u64 = (1 << 61) - 1;

/// Reduces `x` modulo `p = 2^61 - 1` without a division: since
/// `2^61 ≡ 1 (mod p)`, `hi · 2^61 + lo ≡ hi + lo`. For `x < 2^122 − 1` —
/// every product and every sum of two canonical residues — both halves are
/// at most `p`, their sum is below `2p`, and one conditional subtraction
/// makes the result canonical (`< p`), so it equals `x % p` exactly.
fn mod_p(x: u128) -> u64 {
    debug_assert!(x < (1 << 122) - 1, "mod_p input out of range");
    let r = (x as u64 & FINGERPRINT_PRIME) + (x >> 61) as u64;
    if r >= FINGERPRINT_PRIME {
        r - FINGERPRINT_PRIME
    } else {
        r
    }
}

pub(crate) fn mul_mod(a: u64, b: u64) -> u64 {
    mod_p(a as u128 * b as u128)
}

fn add_mod(a: u64, b: u64) -> u64 {
    mod_p(a as u128 + b as u128)
}

/// `z^exp mod p` by square-and-multiply: the standalone path, for callers
/// that hold no [`PowerTable`].
pub(crate) fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base = mod_p(base as u128);
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// `delta mod p`, the field element a signed update contributes.
pub(crate) fn field_of(delta: i64) -> u64 {
    delta.rem_euclid(FINGERPRINT_PRIME as i64) as u64
}

/// `-x mod p` for a canonical `x`.
fn neg_mod(x: u64) -> u64 {
    if x == 0 {
        0
    } else {
        FINGERPRINT_PRIME - x
    }
}

/// Powers of one fingerprint point `z`: row `i` holds `z^(j·256^i)` for
/// every byte value `j`, so `z^index` is the product of one entry per byte
/// of `index` — 7 multiplies instead of ~96 square-and-multiply steps. A
/// sketch builds one table per phase (16 KiB) and shares it across all of
/// that phase's samplers.
#[derive(Debug, Clone)]
pub(crate) struct PowerTable {
    rows: Box<[[u64; 256]; 8]>,
}

impl PowerTable {
    pub(crate) fn new(z: u64) -> Self {
        let mut rows = Box::new([[0u64; 256]; 8]);
        // z^(256^i): starts at z and is raised to the 256th power per row.
        let mut base = mod_p(z as u128);
        for row in rows.iter_mut() {
            row[0] = 1;
            for j in 1..256 {
                row[j] = mul_mod(row[j - 1], base);
            }
            base = mul_mod(row[255], base);
        }
        PowerTable { rows }
    }

    /// `z^index mod p`.
    pub(crate) fn pow(&self, index: u64) -> u64 {
        let bytes = index.to_le_bytes();
        let mut acc = self.rows[0][bytes[0] as usize];
        for (row, &b) in self.rows.iter().zip(bytes.iter()).skip(1) {
            acc = mul_mod(acc, row[b as usize]);
        }
        acc
    }
}

/// Result of attempting to recover the sketched vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The sketched vector is (verifiably) the zero vector.
    Zero,
    /// The sketched vector is 1-sparse: coordinate `index` holds `weight`.
    OneSparse {
        /// The unique non-zero coordinate.
        index: u64,
        /// Its (signed) value.
        weight: i64,
    },
    /// The sketched vector has two or more non-zero coordinates (or the
    /// fingerprint test failed).
    NotOneSparse,
}

/// The three linear measurements of a one-sparse recovery, without its
/// fingerprint point: an [`L0Sampler`](crate::L0Sampler) keeps one per
/// level and stores the shared point once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Measurements {
    weight_sum: i64,
    index_weight_sum: i128,
    fingerprint: u64,
}

impl Measurements {
    /// The measurements of the single update `vector[index] += delta`,
    /// given its fingerprint term `term = delta · z^index mod p`. Applying
    /// the update to a structure is merging this into it.
    pub(crate) fn of_update(index: u64, delta: i64, term: u64) -> Self {
        Measurements {
            weight_sum: delta,
            index_weight_sum: index as i128 * delta as i128,
            fingerprint: term,
        }
    }

    /// The measurements of the negated vector.
    pub(crate) fn negated(&self) -> Self {
        Measurements {
            weight_sum: -self.weight_sum,
            index_weight_sum: -self.index_weight_sum,
            fingerprint: neg_mod(self.fingerprint),
        }
    }

    pub(crate) fn merge(&mut self, other: &Measurements) {
        self.weight_sum += other.weight_sum;
        self.index_weight_sum += other.index_weight_sum;
        self.fingerprint = add_mod(self.fingerprint, other.fingerprint);
    }

    /// `true` when all three measurements are zero, i.e. [`recover`]
    /// answers [`RecoveryOutcome::Zero`].
    ///
    /// [`recover`]: Measurements::recover
    pub(crate) fn is_zero(&self) -> bool {
        self.weight_sum == 0 && self.index_weight_sum == 0 && self.fingerprint == 0
    }

    /// Recovery, with `pow(i) = z^i mod p` for this structure's point `z`.
    pub(crate) fn recover(&self, pow: impl FnOnce(u64) -> u64) -> RecoveryOutcome {
        if self.is_zero() {
            return RecoveryOutcome::Zero;
        }
        if self.weight_sum == 0 {
            return RecoveryOutcome::NotOneSparse;
        }
        if self.index_weight_sum % self.weight_sum as i128 != 0 {
            return RecoveryOutcome::NotOneSparse;
        }
        let index = self.index_weight_sum / self.weight_sum as i128;
        if index < 0 || index > u64::MAX as i128 {
            return RecoveryOutcome::NotOneSparse;
        }
        let index = index as u64;
        let expected = mul_mod(field_of(self.weight_sum), pow(index));
        if expected != self.fingerprint {
            return RecoveryOutcome::NotOneSparse;
        }
        RecoveryOutcome::OneSparse {
            index,
            weight: self.weight_sum,
        }
    }
}

/// A linear sketch that exactly recovers 1-sparse vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneSparseRecovery {
    measurements: Measurements,
    /// Random evaluation point of the fingerprint polynomial; two structures
    /// may only be merged if they share it.
    z: u64,
}

impl OneSparseRecovery {
    /// Machine words one structure occupies in the message-size model:
    /// weight sum, index-weighted sum, fingerprint and evaluation point.
    pub(crate) const WORDS: usize = 4;

    /// Creates an empty structure with fingerprint evaluation point `z`
    /// (callers should draw `z` uniformly from `[1, p)`; see
    /// [`L0Sampler`](crate::L0Sampler) for how this is seeded).
    pub fn new(z: u64) -> Self {
        OneSparseRecovery {
            measurements: Measurements::default(),
            z: z % FINGERPRINT_PRIME,
        }
    }

    /// Applies the update `vector[index] += delta`.
    pub fn update(&mut self, index: u64, delta: i64) {
        let term = mul_mod(field_of(delta), pow_mod(self.z, index));
        self.measurements
            .merge(&Measurements::of_update(index, delta, term));
    }

    /// Adds another structure (vector addition). Both must share the same
    /// fingerprint point.
    ///
    /// # Panics
    ///
    /// Panics if the two structures were created with different `z`.
    pub fn merge(&mut self, other: &OneSparseRecovery) {
        assert_eq!(
            self.z, other.z,
            "cannot merge one-sparse recoveries with different fingerprint points"
        );
        self.measurements.merge(&other.measurements);
    }

    /// Attempts to recover the sketched vector.
    pub fn recover(&self) -> RecoveryOutcome {
        self.measurements.recover(|index| pow_mod(self.z, index))
    }

    /// Number of machine words this structure occupies (for the message-size
    /// accounting of Proposition 8.1).
    pub fn size_in_words(&self) -> usize {
        Self::WORDS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const Z: u64 = 0x1234_5678_9abc_def1 % FINGERPRINT_PRIME;
    const P: u64 = FINGERPRINT_PRIME;

    /// Oracle: reduction by the hardware `u128` remainder.
    fn mod_p_oracle(x: u128) -> u64 {
        (x % FINGERPRINT_PRIME as u128) as u64
    }

    /// Oracle: square-and-multiply over the `u128` remainder.
    fn pow_mod_oracle(mut base: u64, mut exp: u64) -> u64 {
        let mut acc = 1u64;
        base %= FINGERPRINT_PRIME;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mod_p_oracle(acc as u128 * base as u128);
            }
            base = mod_p_oracle(base as u128 * base as u128);
            exp >>= 1;
        }
        acc
    }

    const EDGE_VALUES: [u64; 6] = [0, 1, 2, P - 1, P, P + 1];
    const EDGE_EXPONENTS: [u64; 6] = [0, 1, 255, 256, (1 << 32) - 1, u64::MAX];

    #[test]
    fn mersenne_reduction_matches_the_remainder_on_edge_values() {
        let p = P as u128;
        let mut inputs: Vec<u128> = vec![
            0,
            1,
            p - 1,
            p,
            p + 1,
            2 * p - 1,
            2 * p,
            (p - 1) * (p - 1),
            p * p,
            u64::MAX as u128,
            (1 << 122) - 2,
        ];
        // Products and sums of edge values, within the reduction's domain.
        for &a in &EDGE_VALUES {
            for &b in &EDGE_VALUES {
                inputs.push(a as u128 + b as u128);
                let product = a as u128 * b as u128;
                if product < (1 << 122) - 1 {
                    inputs.push(product);
                }
            }
        }
        for x in inputs {
            assert_eq!(mod_p(x), mod_p_oracle(x), "mod_p({x})");
        }
        for &a in &EDGE_VALUES {
            for &b in &EDGE_VALUES {
                let (a, b) = (a % P, b % P);
                assert_eq!(mul_mod(a, b), mod_p_oracle(a as u128 * b as u128));
                assert_eq!(add_mod(a, b), mod_p_oracle(a as u128 + b as u128));
            }
        }
    }

    #[test]
    fn mersenne_reduction_matches_the_remainder_on_random_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x61);
        for _ in 0..4000 {
            // Uniform below 2^122 - 1, the reduction's domain.
            let x = (((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128) >> 6;
            let x = x.min((1 << 122) - 2);
            assert_eq!(mod_p(x), mod_p_oracle(x), "mod_p({x})");
            let (a, b) = (rng.gen::<u64>() % P, rng.gen::<u64>() % P);
            assert_eq!(mul_mod(a, b), mod_p_oracle(a as u128 * b as u128));
            assert_eq!(add_mod(a, b), mod_p_oracle(a as u128 + b as u128));
        }
    }

    #[test]
    fn table_and_square_and_multiply_powers_match_the_oracle_on_edge_values() {
        for &z in &[0, 1, 2, P - 1, P, Z] {
            let table = PowerTable::new(z);
            for &e in &EDGE_EXPONENTS {
                let want = pow_mod_oracle(z, e);
                assert_eq!(table.pow(e), want, "table {z}^{e}");
                assert_eq!(pow_mod(z, e), want, "pow_mod {z}^{e}");
            }
        }
    }

    #[test]
    fn table_and_square_and_multiply_powers_match_the_oracle_on_random_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x62);
        for _ in 0..16 {
            let z = rng.gen::<u64>() % (P - 2) + 1;
            let table = PowerTable::new(z);
            for _ in 0..250 {
                // Mix full-width exponents with pair-coded edge coordinates.
                let e = if rng.gen::<bool>() {
                    rng.gen::<u64>()
                } else {
                    ((rng.gen_range(0..4096u64)) << 32) | rng.gen_range(0..4096u64)
                };
                let want = pow_mod_oracle(z, e);
                assert_eq!(table.pow(e), want, "table {z}^{e}");
                assert_eq!(pow_mod(z, e), want, "pow_mod {z}^{e}");
            }
        }
    }

    #[test]
    fn table_recovery_agrees_with_standalone_recovery() {
        let table = PowerTable::new(Z);
        let mut s = OneSparseRecovery::new(Z);
        s.update(1 << 40 | 17, 3);
        let got = s.measurements.recover(|i| table.pow(i));
        assert_eq!(got, s.recover());
        assert_eq!(
            got,
            RecoveryOutcome::OneSparse {
                index: 1 << 40 | 17,
                weight: 3
            }
        );
    }

    #[test]
    fn zero_vector_recovers_as_zero() {
        let s = OneSparseRecovery::new(Z);
        assert_eq!(s.recover(), RecoveryOutcome::Zero);
    }

    #[test]
    fn single_update_recovers_exactly() {
        let mut s = OneSparseRecovery::new(Z);
        s.update(42, 7);
        assert_eq!(
            s.recover(),
            RecoveryOutcome::OneSparse {
                index: 42,
                weight: 7
            }
        );
    }

    #[test]
    fn cancelling_updates_return_to_zero() {
        let mut s = OneSparseRecovery::new(Z);
        s.update(10, 3);
        s.update(10, -3);
        assert_eq!(s.recover(), RecoveryOutcome::Zero);
    }

    #[test]
    fn insert_then_delete_other_coordinate_recovers_survivor() {
        let mut s = OneSparseRecovery::new(Z);
        s.update(5, 1);
        s.update(9, 1);
        s.update(9, -1);
        assert_eq!(
            s.recover(),
            RecoveryOutcome::OneSparse {
                index: 5,
                weight: 1
            }
        );
    }

    #[test]
    fn two_sparse_vector_is_rejected() {
        let mut s = OneSparseRecovery::new(Z);
        s.update(3, 1);
        s.update(8, 1);
        assert_eq!(s.recover(), RecoveryOutcome::NotOneSparse);
        // Also with weights that average to an integer index.
        let mut t = OneSparseRecovery::new(Z);
        t.update(2, 1);
        t.update(4, 1);
        assert_eq!(t.recover(), RecoveryOutcome::NotOneSparse);
    }

    #[test]
    fn negative_weight_single_coordinate() {
        let mut s = OneSparseRecovery::new(Z);
        s.update(17, -4);
        assert_eq!(
            s.recover(),
            RecoveryOutcome::OneSparse {
                index: 17,
                weight: -4
            }
        );
    }

    #[test]
    fn merge_is_vector_addition() {
        let mut a = OneSparseRecovery::new(Z);
        let mut b = OneSparseRecovery::new(Z);
        a.update(6, 2);
        a.update(11, 1);
        b.update(11, -1);
        a.merge(&b);
        assert_eq!(
            a.recover(),
            RecoveryOutcome::OneSparse {
                index: 6,
                weight: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "different fingerprint points")]
    fn merge_with_mismatched_z_panics() {
        let mut a = OneSparseRecovery::new(1);
        let b = OneSparseRecovery::new(2);
        a.merge(&b);
    }

    #[test]
    fn large_indices_are_supported() {
        // Edge slots are encoded as u*n + v which can approach 2^40 and more.
        let mut s = OneSparseRecovery::new(Z);
        let idx = (1u64 << 45) + 12345;
        s.update(idx, 1);
        assert_eq!(
            s.recover(),
            RecoveryOutcome::OneSparse {
                index: idx,
                weight: 1
            }
        );
    }
}
