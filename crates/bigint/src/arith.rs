//! Addition, subtraction and multiplication.

use crate::UBig;

impl UBig {
    /// `self += other`.
    pub fn add_assign(&mut self, other: &UBig) {
        if self.limbs.len() < other.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry = 0u64;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let rhs = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = limb.overflowing_add(rhs);
            let (s2, c2) = s1.overflowing_add(carry);
            *limb = s2;
            carry = u64::from(c1) + u64::from(c2);
            if carry == 0 && i >= other.limbs.len() {
                return; // no carry left and nothing more to add
            }
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// `self + other` without consuming either operand.
    pub fn add(&self, other: &UBig) -> UBig {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// `self += small` for a double-limb addend.
    ///
    /// The explorer walks in `u128` offsets from one `UBig` base; this is
    /// how an offset is folded back into the base without materializing
    /// it as a temporary `UBig`.
    pub fn add_assign_u128(&mut self, small: u128) {
        let (lo, hi) = (small as u64, (small >> 64) as u64);
        if hi == 0 {
            self.add_assign_u64(lo);
            return;
        }
        if self.limbs.len() < 2 {
            self.limbs.resize(2, 0);
        }
        let (s0, c0) = self.limbs[0].overflowing_add(lo);
        self.limbs[0] = s0;
        let (s1, c1) = self.limbs[1].overflowing_add(hi);
        let (s1, c2) = s1.overflowing_add(u64::from(c0));
        self.limbs[1] = s1;
        let mut carry = u64::from(c1) + u64::from(c2);
        for limb in self.limbs.iter_mut().skip(2) {
            if carry == 0 {
                break;
            }
            let (s, c) = limb.overflowing_add(carry);
            *limb = s;
            carry = u64::from(c);
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
        self.normalize();
    }

    /// `self += small`.
    pub fn add_assign_u64(&mut self, small: u64) {
        let mut carry = small;
        for limb in &mut self.limbs {
            let (s, c) = limb.overflowing_add(carry);
            *limb = s;
            if !c {
                return;
            }
            carry = 1;
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &UBig) -> Option<UBig> {
        if self < other {
            return None;
        }
        let mut out = self.clone();
        out.sub_assign(other);
        Some(out)
    }

    /// `max(self - other, 0)`.
    pub fn saturating_sub(&self, other: &UBig) -> UBig {
        self.checked_sub(other).unwrap_or_default()
    }

    /// `max(self - other, 0)`, saturated to `u128::MAX`, without
    /// allocating: how far an endpoint lies beyond a base, as an offset.
    pub fn saturating_sub_u128(&self, other: &UBig) -> u128 {
        if self <= other {
            return 0;
        }
        let mut borrow = 0u64;
        let mut out = 0u128;
        for (i, &limb) in self.limbs.iter().enumerate() {
            let rhs = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = limb.overflowing_sub(rhs);
            let (d2, b2) = d1.overflowing_sub(borrow);
            borrow = u64::from(b1 || b2);
            if i < 2 {
                out |= u128::from(d2) << (64 * i);
            } else if d2 != 0 {
                return u128::MAX;
            }
        }
        out
    }

    /// `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub_assign(&mut self, other: &UBig) {
        assert!(
            other.limbs.len() <= self.limbs.len(),
            "UBig subtraction underflow"
        );
        let mut borrow = 0u64;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let rhs = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = limb.overflowing_sub(rhs);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *limb = d2;
            borrow = u64::from(b1) + u64::from(b2);
            if borrow == 0 && i >= other.limbs.len() {
                break;
            }
        }
        assert_eq!(borrow, 0, "UBig subtraction underflow");
        self.normalize();
    }

    /// `self -= small`.
    ///
    /// # Panics
    ///
    /// Panics if `small > self`.
    pub fn sub_assign_u64(&mut self, small: u64) {
        let mut borrow = small;
        for limb in &mut self.limbs {
            let (d, b) = limb.overflowing_sub(borrow);
            *limb = d;
            if !b {
                borrow = 0;
                break;
            }
            borrow = 1;
        }
        assert_eq!(borrow, 0, "UBig subtraction underflow");
        self.normalize();
    }

    /// `self *= small`.
    pub fn mul_assign_u64(&mut self, small: u64) {
        if small == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry = 0u64;
        for limb in &mut self.limbs {
            let prod = u128::from(*limb) * u128::from(small) + u128::from(carry);
            *limb = prod as u64;
            carry = (prod >> 64) as u64;
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// `self * small` without consuming the operand.
    pub fn mul_u64(&self, small: u64) -> UBig {
        let mut out = self.clone();
        out.mul_assign_u64(small);
        out
    }

    /// Full school-book multiplication `self * other`.
    ///
    /// Operand sizes in this workload stay below a dozen limbs, so the
    /// quadratic algorithm is the right choice (no Karatsuba threshold is
    /// ever reached).
    pub fn mul(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        let mut limbs = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cell = &mut limbs[i + j];
                let prod = u128::from(a) * u128::from(b) + u128::from(*cell) + u128::from(carry);
                *cell = prod as u64;
                carry = (prod >> 64) as u64;
            }
            limbs[i + other.limbs.len()] = carry;
        }
        UBig::from_limbs(limbs)
    }

    /// `self << 1` in place (used by the binary long division).
    pub(crate) fn shl1_assign(&mut self) {
        let mut carry = 0u64;
        for limb in &mut self.limbs {
            let next_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next_carry;
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }
}
