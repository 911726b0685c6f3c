//! Property tests: every `UBig` operation is cross-checked against `u128`
//! reference arithmetic, plus structural properties (canonicity, algebraic
//! identities) on values far beyond 128 bits.

use gridbnb_bigint::UBig;
use proptest::prelude::*;
use std::str::FromStr;

/// A `UBig` built from up to five random limbs (up to 320 bits).
fn arb_ubig() -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u64>(), 0..5).prop_map(UBig::from_limbs)
}

/// A pair `(UBig, u128)` with identical values, for reference checks.
fn arb_u128_pair() -> impl Strategy<Value = (UBig, u128)> {
    any::<u128>().prop_map(|v| (UBig::from(v), v))
}

proptest! {
    #[test]
    fn from_to_u128_round_trip(v in any::<u128>()) {
        prop_assert_eq!(UBig::from(v).to_u128(), Some(v));
    }

    #[test]
    fn add_matches_u128((a, ar) in arb_u128_pair(), (b, br) in arb_u128_pair()) {
        prop_assume!(ar.checked_add(br).is_some());
        prop_assert_eq!((&a + &b).to_u128(), Some(ar + br));
    }

    #[test]
    fn sub_matches_u128((a, ar) in arb_u128_pair(), (b, br) in arb_u128_pair()) {
        let (hi, hir, lo, lor) = if ar >= br { (a, ar, b, br) } else { (b, br, a, ar) };
        prop_assert_eq!(hi.checked_sub(&lo).unwrap().to_u128(), Some(hir - lor));
        if hir != lor {
            prop_assert_eq!(lo.checked_sub(&hi), None);
        }
    }

    #[test]
    fn mul_matches_u128(ar in any::<u64>(), br in any::<u64>()) {
        let a = UBig::from(ar);
        let b = UBig::from(br);
        prop_assert_eq!((&a * &b).to_u128(), Some(u128::from(ar) * u128::from(br)));
    }

    #[test]
    fn div_rem_u64_matches_u128((a, ar) in arb_u128_pair(), d in 1u64..) {
        let (q, r) = a.div_rem_u64(d);
        prop_assert_eq!(q.to_u128(), Some(ar / u128::from(d)));
        prop_assert_eq!(u128::from(r), ar % u128::from(d));
    }

    #[test]
    fn add_commutes(a in arb_ubig(), b in arb_ubig()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in arb_ubig(), b in arb_ubig(), c in arb_ubig()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_then_sub_round_trips(a in arb_ubig(), b in arb_ubig()) {
        prop_assert_eq!((&a + &b).checked_sub(&b).unwrap(), a);
    }

    #[test]
    fn mul_commutes(a in arb_ubig(), b in arb_ubig()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in arb_ubig(), b in arb_ubig(), c in arb_ubig()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn full_div_rem_reconstructs(a in arb_ubig(), b in arb_ubig()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn div_rem_u64_consistent_with_full(a in arb_ubig(), d in 1u64..) {
        let (q1, r1) = a.div_rem_u64(d);
        let (q2, r2) = a.div_rem(&UBig::from(d));
        prop_assert_eq!(q1, q2);
        prop_assert_eq!(UBig::from(r1), r2);
    }

    #[test]
    fn div_rem_fast_paths_match_binary_reference(a in arb_ubig(), b in arb_ubig()) {
        prop_assume!(!b.is_zero());
        // `div_rem` picks the u128 fast path whenever operands fit; the
        // binary long division is the reference it must agree with.
        let (q, r) = a.div_rem(&b);
        let (qr, rr) = a.div_rem_binary(&b);
        prop_assert_eq!(q, qr);
        prop_assert_eq!(r, rr);
    }

    #[test]
    fn div_rem_u64_u128_fast_path_matches_binary(a in any::<u128>(), d in 1u64..) {
        // Dividend fits u128 → `div_rem_u64` takes the native-division
        // fast path (the fold/unfold hot case). Pin it to the reference.
        let a = UBig::from(a);
        let (q, r) = a.div_rem_u64(d);
        let (qr, rr) = a.div_rem_binary(&UBig::from(d));
        prop_assert_eq!(q, qr);
        prop_assert_eq!(UBig::from(r), rr);
    }

    #[test]
    fn add_u128_matches_ubig_add(a in arb_ubig(), v in any::<u128>()) {
        let mut b = a.clone();
        b.add_assign_u128(v);
        prop_assert_eq!(b, &a + &UBig::from(v));
    }

    #[test]
    fn saturating_sub_u128_matches_the_full_difference(
        a in arb_ubig(),
        b in arb_ubig(),
        v in any::<u128>(),
    ) {
        let full = a.saturating_sub(&b).to_u128().unwrap_or(u128::MAX);
        prop_assert_eq!(a.saturating_sub_u128(&b), full);
        // An offset that fits, however wide the base.
        let mut ahead = a.clone();
        ahead.add_assign_u128(v);
        prop_assert_eq!(ahead.saturating_sub_u128(&a), v);
    }

    #[test]
    fn mul_div_floor_bounds(a in arb_ubig(), num in 0u64.., den in 1u64..) {
        let got = a.mul_div_floor(num, den);
        // got <= a*num/den < got+1, i.e. got*den <= a*num < (got+1)*den
        let lhs = got.mul_u64(den);
        let target = a.mul_u64(num);
        prop_assert!(lhs <= target);
        prop_assert!(target < &lhs + &UBig::from(den));
    }

    #[test]
    fn display_parse_round_trip(a in arb_ubig()) {
        let s = a.to_string();
        prop_assert_eq!(UBig::from_str(&s).unwrap(), a);
    }

    #[test]
    fn ordering_agrees_with_u128((a, ar) in arb_u128_pair(), (b, br) in arb_u128_pair()) {
        prop_assert_eq!(a.cmp(&b), ar.cmp(&br));
    }

    #[test]
    fn bit_len_matches_u128((a, ar) in arb_u128_pair()) {
        prop_assert_eq!(a.bit_len() as u32, 128 - ar.leading_zeros());
    }

    #[test]
    fn canonical_no_trailing_zero_limbs(a in arb_ubig(), b in arb_ubig()) {
        for v in [&a + &b, a.saturating_sub(&b), &a * &b] {
            prop_assert!(v.limbs().last() != Some(&0));
        }
    }

    #[test]
    fn ratio_of_halved_is_half(a in arb_ubig()) {
        prop_assume!(!a.is_zero());
        let (half, _) = a.div_rem_u64(2);
        let r = half.ratio(&a);
        prop_assert!((0.0..=0.5 + 1e-9).contains(&r), "ratio {}", r);
    }

    #[test]
    fn to_f64_relative_error_small(a in arb_ubig()) {
        prop_assume!(!a.is_zero());
        // compare against string-length magnitude: f64 has ~15.9 digits
        let f = a.to_f64();
        prop_assert!(f.is_finite());
        let digits = a.to_string().len() as f64;
        prop_assert!((f.log10() - digits).abs() < 2.0, "f={} digits={}", f, digits);
    }
}
