//! Unit tests for the bigint crate. Property tests against `u128`
//! reference arithmetic live in `tests/props.rs`.

use crate::UBig;
use std::str::FromStr;

#[test]
fn zero_is_canonical() {
    assert!(UBig::zero().is_zero());
    assert_eq!(UBig::zero().limbs().len(), 0);
    assert_eq!(UBig::from(0u64), UBig::zero());
    assert_eq!(UBig::from_limbs(vec![0, 0, 0]), UBig::zero());
    assert_eq!(UBig::default(), UBig::zero());
}

#[test]
fn one_is_one() {
    assert!(UBig::one().is_one());
    assert!(!UBig::zero().is_one());
    assert!(!UBig::from(2u64).is_one());
    assert_eq!(UBig::one().to_u64(), Some(1));
}

#[test]
fn from_limbs_normalizes() {
    let v = UBig::from_limbs(vec![5, 0, 0]);
    assert_eq!(v.limbs(), &[5]);
    let w = UBig::from_limbs(vec![5, 7, 0]);
    assert_eq!(w.limbs(), &[5, 7]);
}

#[test]
fn saturating_sub_u128_clamps_both_ways() {
    let two_128 = UBig::pow2(128);
    assert_eq!(UBig::from(5u64).saturating_sub_u128(&UBig::from(7u64)), 0);
    assert_eq!(UBig::from(7u64).saturating_sub_u128(&UBig::from(7u64)), 0);
    assert_eq!(UBig::from(7u64).saturating_sub_u128(&UBig::from(5u64)), 2);
    // A borrow across the limb boundary.
    assert_eq!(two_128.saturating_sub_u128(&UBig::one()), u128::MAX);
    assert_eq!(
        UBig::pow2(64).saturating_sub_u128(&UBig::from(1u64)),
        u128::from(u64::MAX)
    );
    // Differences of 2¹²⁸ and more saturate.
    assert_eq!(two_128.saturating_sub_u128(&UBig::zero()), u128::MAX);
    let mut big = UBig::pow2(200);
    big.add_assign_u64(9);
    let mut base = UBig::pow2(200);
    base.sub_assign_u64(3);
    assert_eq!(big.saturating_sub_u128(&base), 12);
}

#[test]
fn add_with_carry_across_limbs() {
    let a = UBig::from(u64::MAX);
    let b = &a + 1u64;
    assert_eq!(b.limbs(), &[0, 1]);
    assert_eq!(b.to_u128(), Some(u128::from(u64::MAX) + 1));
}

#[test]
fn add_assign_carry_chain() {
    let mut a = UBig::from(u128::MAX);
    a += 1u64;
    assert_eq!(a.limbs(), &[0, 0, 1]);
}

#[test]
fn add_shorter_into_longer_and_vice_versa() {
    let big = UBig::from(u128::MAX - 7);
    let small = UBig::from(9u64);
    let sum1 = &big + &small;
    let sum2 = &small + &big;
    assert_eq!(sum1, sum2);
    assert_eq!(sum1.limbs(), &[1, 0, 1]);
}

#[test]
fn sub_borrows() {
    let a = UBig::from_limbs(vec![0, 1]); // 2^64
    let one = UBig::one();
    let d = &a - &one;
    assert_eq!(d.to_u64(), Some(u64::MAX));
}

#[test]
fn sub_to_zero_normalizes() {
    let a = UBig::from(123456u64);
    assert!(a.checked_sub(&a).unwrap().is_zero());
}

#[test]
fn checked_sub_underflow_is_none() {
    let a = UBig::from(5u64);
    let b = UBig::from(6u64);
    assert_eq!(a.checked_sub(&b), None);
    assert_eq!(b.checked_sub(&a), Some(UBig::one()));
}

#[test]
fn saturating_sub_clamps() {
    let a = UBig::from(5u64);
    let b = UBig::from(6u64);
    assert!(a.saturating_sub(&b).is_zero());
    assert_eq!(b.saturating_sub(&a), UBig::one());
}

#[test]
#[should_panic(expected = "underflow")]
fn sub_assign_underflow_panics() {
    let mut a = UBig::from(1u64);
    a.sub_assign(&UBig::from(2u64));
}

#[test]
fn sub_assign_u64_works() {
    let mut a = UBig::from_limbs(vec![0, 1]);
    a.sub_assign_u64(1);
    assert_eq!(a.to_u64(), Some(u64::MAX));
}

#[test]
fn mul_u64_by_zero() {
    let a = UBig::factorial(20);
    assert!(a.mul_u64(0).is_zero());
}

#[test]
fn mul_cross_limb() {
    let a = UBig::from(u64::MAX);
    let b = a.mul_u64(u64::MAX);
    assert_eq!(
        b.to_u128(),
        Some(u128::from(u64::MAX) * u128::from(u64::MAX))
    );
}

#[test]
fn full_mul_matches_u128() {
    let a = UBig::from(0xdead_beef_u64);
    let b = UBig::from(0x1234_5678_9abc_u64);
    assert_eq!(
        (&a * &b).to_u128(),
        Some(0xdead_beef_u128 * 0x1234_5678_9abc_u128)
    );
}

#[test]
fn mul_zero_either_side() {
    let a = UBig::factorial(30);
    assert!((&a * &UBig::zero()).is_zero());
    assert!((&UBig::zero() * &a).is_zero());
}

#[test]
fn factorial_small_values() {
    assert_eq!(UBig::factorial(0).to_u64(), Some(1));
    assert_eq!(UBig::factorial(1).to_u64(), Some(1));
    assert_eq!(UBig::factorial(5).to_u64(), Some(120));
    assert_eq!(
        UBig::factorial(20).to_u64(),
        Some(2_432_902_008_176_640_000)
    );
}

#[test]
fn factorial_50_matches_reference() {
    // Reference value computed independently (and matching the weight of
    // the Ta056 permutation-tree root).
    assert_eq!(
        UBig::factorial(50).to_string(),
        "30414093201713378043612608166064768844377641568960512000000000000"
    );
}

#[test]
fn pow2_bit_position() {
    assert_eq!(UBig::pow2(0).to_u64(), Some(1));
    assert_eq!(UBig::pow2(63).to_u64(), Some(1 << 63));
    assert_eq!(UBig::pow2(64).limbs(), &[0, 1]);
    assert_eq!(UBig::pow2(130).bit_len(), 131);
}

#[test]
fn pow_binary_exponentiation() {
    assert_eq!(UBig::pow(3, 0).to_u64(), Some(1));
    assert_eq!(UBig::pow(3, 5).to_u64(), Some(243));
    assert_eq!(UBig::pow(2, 100), UBig::pow2(100));
    assert_eq!(
        UBig::pow(10, 30).to_string(),
        format!("1{}", "0".repeat(30))
    );
}

#[test]
fn bit_len_and_byte_len() {
    assert_eq!(UBig::zero().bit_len(), 0);
    assert_eq!(UBig::zero().byte_len(), 0);
    assert_eq!(UBig::one().bit_len(), 1);
    assert_eq!(UBig::one().byte_len(), 1);
    assert_eq!(UBig::from(255u64).byte_len(), 1);
    assert_eq!(UBig::from(256u64).byte_len(), 2);
    assert_eq!(UBig::factorial(50).bit_len(), 215);
    assert_eq!(UBig::factorial(50).byte_len(), 27);
}

#[test]
fn bit_access() {
    let v = UBig::from(0b1010u64);
    assert!(!v.bit(0));
    assert!(v.bit(1));
    assert!(!v.bit(2));
    assert!(v.bit(3));
    assert!(!v.bit(200)); // out of range reads as zero
}

#[test]
fn div_rem_u64_exact_and_remainder() {
    let a = UBig::factorial(30);
    let (q, r) = a.div_rem_u64(30);
    assert_eq!(r, 0);
    assert_eq!(q, UBig::factorial(29));
    let (_q2, r2) = UBig::from(17u64).div_rem_u64(5);
    assert_eq!(r2, 2);
}

#[test]
#[should_panic(expected = "division by zero")]
fn div_rem_u64_by_zero_panics() {
    let _ = UBig::from(1u64).div_rem_u64(0);
}

#[test]
fn div_rem_full_reconstructs() {
    let a = UBig::factorial(41);
    let b = UBig::factorial(17);
    let (q, r) = a.div_rem(&b);
    assert!(r < b);
    assert_eq!(&(&q * &b) + &r, a);
}

#[test]
fn div_rem_smaller_dividend() {
    let a = UBig::from(5u64);
    let b = UBig::factorial(25);
    let (q, r) = a.div_rem(&b);
    assert!(q.is_zero());
    assert_eq!(r, a);
}

#[test]
fn div_rem_single_limb_divisor_fast_path() {
    let a = UBig::factorial(33);
    let (q, r) = a.div_rem(&UBig::from(97u64));
    let (q2, r2) = a.div_rem_u64(97);
    assert_eq!(q, q2);
    assert_eq!(r.to_u64(), Some(r2));
}

#[test]
fn mul_div_floor_is_floor() {
    // 10 * 1 / 3 = 3.33 -> 3
    assert_eq!(UBig::from(10u64).mul_div_floor(1, 3).to_u64(), Some(3));
    // does not overflow intermediate: (2^64-1) * (2^64-1) / 1
    let a = UBig::from(u64::MAX);
    assert_eq!(
        a.mul_div_floor(u64::MAX, 1).to_u128(),
        Some(u128::from(u64::MAX) * u128::from(u64::MAX))
    );
}

#[test]
fn ratio_is_close() {
    let half = UBig::factorial(50).div_rem_u64(2).0;
    let r = half.ratio(&UBig::factorial(50));
    assert!((r - 0.5).abs() < 1e-12, "ratio {r}");
    assert_eq!(UBig::zero().ratio(&UBig::one()), 0.0);
    assert!(UBig::one().ratio(&UBig::zero()).is_infinite());
}

#[test]
fn to_f64_on_small_values_is_exact() {
    assert_eq!(UBig::from(12345u64).to_f64(), 12345.0);
    assert_eq!(UBig::zero().to_f64(), 0.0);
    let big = UBig::pow2(100);
    assert_eq!(big.to_f64(), 2f64.powi(100));
}

#[test]
fn display_round_trip() {
    for s in [
        "0",
        "1",
        "18446744073709551615",
        "18446744073709551616",
        "340282366920938463463374607431768211456",
        "30414093201713378043612608166064768844377641568960512000000000000",
    ] {
        let v = UBig::from_str(s).unwrap();
        assert_eq!(v.to_string(), s);
    }
}

#[test]
fn parse_accepts_leading_zeros() {
    assert_eq!(UBig::from_str("000123").unwrap().to_u64(), Some(123));
}

#[test]
fn parse_rejects_garbage() {
    assert!(UBig::from_str("").is_err());
    assert!(UBig::from_str("12x3").is_err());
    assert!(UBig::from_str("-5").is_err());
    assert!(UBig::from_str(" 5").is_err());
}

#[test]
fn ordering_mixed_sizes() {
    let small = UBig::from(u64::MAX);
    let big = UBig::from_limbs(vec![0, 1]);
    assert!(small < big);
    assert!(big > small);
    assert_eq!(big.cmp(&big.clone()), std::cmp::Ordering::Equal);
}

#[test]
fn ordering_same_size_compares_high_limb_first() {
    let a = UBig::from_limbs(vec![9, 1]);
    let b = UBig::from_limbs(vec![0, 2]);
    assert!(a < b);
}

#[test]
fn compare_with_u64_scalar() {
    let a = UBig::from(7u64);
    assert!(a == 7u64);
    assert!(a > 6u64);
    assert!(a < 8u64);
    assert!(UBig::factorial(30) > u64::MAX);
}

#[test]
fn hash_consistent_with_eq() {
    use std::collections::HashSet;
    let mut set = HashSet::new();
    set.insert(UBig::factorial(10));
    assert!(set.contains(&UBig::factorial(10)));
    assert!(!set.contains(&UBig::factorial(11)));
}

#[test]
fn debug_format_contains_value() {
    assert_eq!(format!("{:?}", UBig::from(42u64)), "UBig(42)");
}

#[test]
fn display_padding_works() {
    assert_eq!(format!("{:>6}", UBig::from(42u64)), "    42");
}

#[test]
fn clone_from_reuses_the_limb_buffer_across_limb_counts() {
    let two_limbs = UBig::from_limbs(vec![3, 1]);
    let mut dst = two_limbs.clone();
    let buffer = dst.limbs().as_ptr();
    dst.clone_from(&UBig::from(5u64));
    assert_eq!(dst, UBig::from(5u64));
    dst.clone_from(&two_limbs);
    assert_eq!(dst, two_limbs);
    assert_eq!(
        dst.limbs().as_ptr(),
        buffer,
        "clone_from must not reallocate"
    );
    dst.clone_from(&UBig::zero());
    assert!(dst.is_zero());
}
