//! The [`UBig`] type: representation, construction and basic queries.

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian 64-bit limbs with no trailing zeros; zero is
/// the empty limb vector. All arithmetic lives in the sibling modules and
/// is re-exported through inherent methods and operator impls.
#[derive(Default, PartialEq, Eq, Hash)]
pub struct UBig {
    pub(crate) limbs: Vec<u64>,
}

/// Written out rather than derived: `derive(Clone)` does not forward
/// `clone_from`, and the explorer's hot loop relies on `clone_from`
/// reusing the destination's limb buffer instead of allocating a new one.
impl Clone for UBig {
    #[inline]
    fn clone(&self) -> Self {
        UBig {
            limbs: self.limbs.clone(),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.limbs.clone_from(&source.limbs);
    }
}

impl UBig {
    /// The value `0`.
    #[inline]
    pub fn zero() -> Self {
        UBig { limbs: Vec::new() }
    }

    /// The value `1`.
    #[inline]
    pub fn one() -> Self {
        UBig { limbs: vec![1] }
    }

    /// Builds a `UBig` from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut v = UBig { limbs };
        v.normalize();
        v
    }

    /// The little-endian limbs (no trailing zeros; empty for zero).
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` iff the value is `0`.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is `1`.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Number of significant bits (`0` for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => 64 * (self.limbs.len() - 1) + (64 - hi.leading_zeros() as usize),
        }
    }

    /// Number of bytes needed to store the value (`0` for zero).
    ///
    /// Used by the communication-cost benchmarks to compare interval
    /// messages against serialized node lists.
    pub fn byte_len(&self) -> usize {
        self.bit_len().div_ceil(8)
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|&w| (w >> off) & 1 == 1)
    }

    /// `n!` as a `UBig`.
    ///
    /// This is the weight of the root of a permutation tree over `n`
    /// elements (equation 3 of the paper, evaluated at depth 0).
    pub fn factorial(n: u32) -> Self {
        let mut acc = UBig::one();
        for k in 2..=u64::from(n) {
            acc.mul_assign_u64(k);
        }
        acc
    }

    /// `2^n` as a `UBig`: the weight of the root of a binary tree of
    /// height `n` (equation 2 of the paper).
    pub fn pow2(n: usize) -> Self {
        let mut limbs = vec![0u64; n / 64 + 1];
        limbs[n / 64] = 1u64 << (n % 64);
        UBig::from_limbs(limbs)
    }

    /// `base^exp` by binary exponentiation.
    pub fn pow(base: u64, exp: u32) -> Self {
        let mut result = UBig::one();
        let mut square = UBig::from(base);
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                result = &result * &square;
            }
            e >>= 1;
            if e > 0 {
                square = &square * &square;
            }
        }
        result
    }

    /// Restores the canonical form (no trailing zero limbs).
    #[inline]
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}
