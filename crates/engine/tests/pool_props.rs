//! Pooled ≡ scalar equivalence on the toy problems: random instances,
//! random sub-intervals, budgeted slices, mid-run steals and external
//! incumbents. The flowshop and QAP crates run the same harness against
//! their overridden batch kernels; here the default scalar-looping
//! `lower_bound_batch` is under test, which pins the *explorer* half of
//! the equivalence.

use gridbnb_coding::{Interval, TreeShape, UBig};
use gridbnb_engine::equivalence::{
    assert_pooled_matches_scalar, assert_pooled_matches_scalar_simple, permille_interval,
    Interference,
};
use gridbnb_engine::toy::{FullEnumeration, TableAssignment};
use gridbnb_engine::{solve, IntervalExplorer, Problem};
use proptest::prelude::*;

/// Permutations of 21 elements under a zero bound: 21! > 2⁶⁴, so node
/// numbers near 2⁶⁴ move between one and two limbs while a frame's base,
/// the position and the end stay within a few thousand of each other.
struct WidePermutations;

const WIDE_N: usize = 21;

impl Problem for WidePermutations {
    type State = u64;

    fn shape(&self) -> TreeShape {
        TreeShape::permutation(WIDE_N)
    }

    fn root_state(&self) -> u64 {
        0
    }

    fn branch(&self, state: &u64, rank: u64) -> u64 {
        state.wrapping_mul(31).wrapping_add(rank + 1)
    }

    fn lower_bound(&self, _state: &u64) -> u64 {
        0
    }

    fn leaf_cost(&self, state: &u64) -> u64 {
        // Strictly positive: nothing is ever pruned.
        state % 1_000 + 1
    }
}

/// `[2⁶⁴ − k, 2⁶⁴ + k)`.
fn across_the_limb_boundary(k: u64) -> Interval {
    let boundary = UBig::pow2(64);
    let mut begin = boundary.clone();
    begin.sub_assign_u64(k);
    Interval::new(begin, &boundary + k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pooled_matches_scalar_on_random_tables(
        n in 4usize..8,
        seed in 0u64..1000,
        a in 0u64..1001,
        b in 0u64..1001,
    ) {
        let problem = TableAssignment::random(n, seed);
        let total = problem.shape().root_range().end().clone();
        let interval = permille_interval(&total, a, b);
        assert_pooled_matches_scalar_simple(&problem, &interval, None);
    }

    #[test]
    fn pooled_matches_scalar_under_slices_and_shrinks(
        n in 4usize..8,
        seed in 0u64..1000,
        slice in 1u64..40,
        period in 1usize..6,
        keep in 1u64..=4,
    ) {
        let problem = TableAssignment::random(n, seed);
        let interval = problem.shape().root_range();
        assert_pooled_matches_scalar(
            &problem,
            &interval,
            None,
            slice,
            Interference {
                shrink_period: period,
                keep_num: keep,
                keep_den: 4,
                external_cutoff: u64::MAX,
            },
        );
    }

    #[test]
    fn pooled_matches_scalar_with_initial_and_external_cutoffs(
        n in 4usize..8,
        seed in 0u64..1000,
        slack in 0u64..30,
        slice in 1u64..60,
    ) {
        let problem = TableAssignment::random(n, seed);
        let optimum = solve(&problem, None).best_cost.unwrap();
        let interval = problem.shape().root_range();
        assert_pooled_matches_scalar(
            &problem,
            &interval,
            Some(optimum + slack),
            slice,
            Interference {
                external_cutoff: optimum + slack / 2,
                ..Interference::default()
            },
        );
    }

    #[test]
    fn pooled_matches_scalar_without_pruning(
        n in 3usize..7,
        a in 0u64..1001,
        b in 0u64..1001,
        slice in 1u64..50,
    ) {
        // FullEnumeration never prunes: every pool survives intact, the
        // pure branch-everything path.
        let problem = FullEnumeration::new(n);
        let total = problem.shape().root_range().end().clone();
        let interval = permille_interval(&total, a, b);
        assert_pooled_matches_scalar(
            &problem,
            &interval,
            None,
            slice,
            Interference::default(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn positions_cross_the_limb_boundary(
        k in 1u64..3_000,
        slice in 1u64..400,
        shrink_after in 0usize..6,
        keep in 0u64..=4,
    ) {
        let problem = WidePermutations;
        let interval = across_the_limb_boundary(k);
        assert_pooled_matches_scalar(
            &problem,
            &interval,
            None,
            slice,
            Interference {
                shrink_period: shrink_after,
                keep_num: keep,
                keep_den: 4,
                external_cutoff: u64::MAX,
            },
        );
        for pooled in [true, false] {
            let mut explorer = IntervalExplorer::with_pooling(&problem, &interval, None, pooled);
            let mut previous = explorer.position().clone();
            let mut slices = 0;
            while !explorer.is_exhausted() {
                explorer.run(slice);
                slices += 1;
                if slices == shrink_after {
                    // Keep keep/4 of the live remainder: never below the
                    // position, so the position stays monotone.
                    let live = explorer.current_interval();
                    let kept = live.length().mul_div_floor(keep, 4);
                    explorer.shrink_end(&live.begin().add(&kept));
                }
                prop_assert!(*explorer.position() >= previous, "position moved back");
                previous = explorer.position().clone();
            }
            let covered = explorer.end() - interval.begin();
            prop_assert_eq!(UBig::from(explorer.stats().leaves), covered);
            if shrink_after == 0 {
                prop_assert_eq!(explorer.stats().leaves, 2 * k);
            }
        }
    }
}

#[test]
fn pooled_batches_cover_consumed_bounds() {
    // Deterministic sanity on the batch counters themselves: a pooled
    // exhaustive run fills at least one batch, and never consumes more
    // bounds than it evaluated.
    let problem = TableAssignment::diagonal(7);
    let stats = assert_pooled_matches_scalar_simple(&problem, &problem.shape().root_range(), None);
    assert!(stats.bound_batches > 0);
    assert!(stats.nodes_bounded >= stats.bound_calls);
}
