//! Pooled ≡ scalar equivalence on random QAP instances, driving the
//! screen-first `lower_bound_batch` kernel through the engine's lockstep
//! harness under both bound tiers.

use gridbnb_engine::equivalence::{
    assert_pooled_matches_scalar, assert_pooled_matches_scalar_simple, permille_interval,
    Interference,
};
use gridbnb_qap::{Bound, Problem, QapInstance, QapProblem};
use proptest::prelude::*;

fn arb_bound() -> impl Strategy<Value = Bound> {
    prop_oneof![Just(Bound::Screen), Just(Bound::GilmoreLawler)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pooled_matches_scalar_on_random_instances(
        n in 4usize..7,
        seed in 0u64..10_000,
        bound in arb_bound(),
        a in 0u64..1001,
        b in 0u64..1001,
    ) {
        let instance = QapInstance::random(n, seed);
        let problem = QapProblem::new(instance, bound);
        let total = problem.shape().root_range().end().clone();
        let interval = permille_interval(&total, a, b);
        assert_pooled_matches_scalar_simple(&problem, &interval, None);
    }

    #[test]
    fn pooled_matches_scalar_on_grids_under_steals_and_cutoffs(
        cols in 2usize..4,
        seed in 0u64..10_000,
        bound in arb_bound(),
        slice in 1u64..40,
        period in 1usize..5,
    ) {
        // Structured (grid) instances with a greedy incumbent: the
        // screen-vs-GL gap is real here, so fill-time screens and
        // consumption-time cutoffs genuinely diverge in *values* while
        // the search must stay identical in *decisions*.
        let instance = QapInstance::nugent_style(2, cols, seed);
        let problem = QapProblem::new(instance, bound);
        let (_, ub) = gridbnb_qap::greedy::greedy_construct(problem.instance());
        let interval = problem.shape().root_range();
        assert_pooled_matches_scalar(
            &problem,
            &interval,
            Some(ub + 1),
            slice,
            Interference {
                shrink_period: period,
                keep_num: 2,
                keep_den: 3,
                external_cutoff: ub,
            },
        );
    }
}
