//! Pooled ≡ scalar equivalence on the toy problems: random instances,
//! random sub-intervals, budgeted slices, mid-run steals and external
//! incumbents. The flowshop and QAP crates run the same harness against
//! their overridden batch kernels; here the default scalar-looping
//! `lower_bound_batch` is under test, which pins the *explorer* half of
//! the equivalence.

use gridbnb_coding::{Interval, NodePath, TreeShape, UBig};
use gridbnb_engine::equivalence::{
    assert_pooled_matches_scalar, assert_pooled_matches_scalar_simple, node_budget,
    permille_interval, Interference,
};
use gridbnb_engine::toy::{FullEnumeration, TableAssignment};
use gridbnb_engine::{solve, solve_interval, IntervalExplorer, Problem, RunOutcome};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Permutations of `n` elements under a zero bound. At 21 elements
/// 21! > 2⁶⁴, so node numbers near 2⁶⁴ move between one and two limbs
/// while a frame's base, the position and the end stay within a few
/// thousand of each other. At 40 elements 40! ≈ 2¹⁵⁹: the explorer's
/// anchor (the shallowest depth whose weight fits 127 bits) is depth 7,
/// where a node weighs 33!.
struct WidePermutations(usize);

impl Problem for WidePermutations {
    type State = u64;

    fn shape(&self) -> TreeShape {
        TreeShape::permutation(self.0)
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

/// Explores `interval` pooled and scalar in `slice`-sized budgets,
/// keeping `keep`/4 of the live remainder after `shrink_after` slices (0 =
/// never): the position never falls, and the leaves visited are those up
/// to the final end, within the walk's [`node_budget`]. Returns how many
/// leaves that is.
fn walk_in_slices<P: Problem>(
    problem: &P,
    interval: &Interval,
    slice: u64,
    shrink_after: usize,
    keep: u64,
) -> Result<u64, TestCaseError> {
    let budget = node_budget(&problem.shape(), interval);
    let mut leaves = Vec::new();
    for pooled in [true, false] {
        let mut explorer = IntervalExplorer::with_pooling(problem, interval, None, pooled);
        let mut previous = explorer.position().clone();
        let mut slices = 0;
        while !explorer.is_exhausted() {
            explorer.run(slice.min(budget.saturating_add(1)));
            prop_assert!(
                explorer.stats().explored <= budget,
                "{} nodes visited, beyond the budget of {}",
                explorer.stats().explored,
                budget
            );
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
        leaves.push(explorer.stats().leaves);
    }
    prop_assert_eq!(leaves[0], leaves[1]);
    Ok(leaves[0])
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
        let problem = WidePermutations(21);
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
        let leaves = walk_in_slices(&problem, &interval, slice, shrink_after, keep)?;
        if shrink_after == 0 {
            prop_assert_eq!(leaves, 2 * k);
        }
    }
}

/// `[x − left, x + right)` around `x`, the `mult`-th anchor-node
/// boundary (a multiple of 33!) or the `mult`-th multiple of 2¹²⁷ of the
/// 40-item tree; `mult` is reduced so the interval stays inside 40!.
fn across_a_wide_boundary(anchor_node: bool, mult: u64, left: u64, right: u64) -> Interval {
    let total = UBig::factorial(40);
    let step = if anchor_node {
        UBig::factorial(33)
    } else {
        UBig::pow2(127)
    };
    let multiples = total.div_rem(&step).0.to_u64().expect("fewer than 2⁶⁴");
    let x = step.mul_u64(1 + mult % (multiples - 1));
    let mut begin = x.clone();
    begin.sub_assign_u64(left);
    Interval::new(begin, &x + right)
}

/// Where the leaf a solution reaches lies in the tree.
fn leaf_number(shape: &TreeShape, ranks: &[u64]) -> UBig {
    NodePath::from_ranks(ranks.to_vec()).number(shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wide_trees_walk_across_anchor_nodes(
        anchor_node in any::<bool>(),
        mult in any::<u64>(),
        left in 1u64..3_000,
        right in 1u64..3_000,
        cut in 0u64..=1_000,
        slice in 1u64..400,
        shrink_after in 0usize..6,
        keep in 0u64..=4,
    ) {
        let problem = WidePermutations(40);
        let shape = problem.shape();
        let interval = across_a_wide_boundary(anchor_node, mult, left, right);
        // Pooled ≡ scalar, slice by slice, under a mid-run steal.
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
        walk_in_slices(&problem, &interval, slice, shrink_after, keep)?;
        // [A, M) then [M, B) visits exactly the leaves of [A, B): the
        // counts add up, each part's best leaf lies in that part, and
        // the whole run's best is the better of the two (the left one on
        // a tie, since only a strict improvement replaces a best).
        let middle = interval.begin().add(&interval.length().mul_div_floor(cut, 1_000));
        let (head, tail) = interval.split_at(&middle);
        let whole = solve_interval(&problem, &interval, None);
        let mut parts = Vec::new();
        for part in [&head, &tail] {
            let report = solve_interval(&problem, part, None);
            prop_assert_eq!(UBig::from(report.stats.leaves), part.length());
            if let Some(best) = &report.best {
                prop_assert!(part.contains(&leaf_number(&shape, &best.leaf_ranks)));
            }
            parts.push(report.best);
        }
        prop_assert_eq!(UBig::from(whole.stats.leaves), interval.length());
        let expected = match (parts[0].take(), parts[1].take()) {
            (Some(a), Some(b)) => Some(if a.cost <= b.cost { a } else { b }),
            (a, b) => a.or(b),
        };
        prop_assert_eq!(whole.best, expected);
    }
}

/// A 40-item tree whose depth-1 child of rank 1 — the range
/// `[39!, 2·39!)`, far above the anchor at depth 7 — is eliminated by its
/// bound; every other bound is zero and every leaf costs at least 1.
struct PrunedSecondChild;

impl Problem for PrunedSecondChild {
    /// `(depth, mix)`: `mix` hashes the ranks taken so far.
    type State = (usize, u64);

    fn shape(&self) -> TreeShape {
        TreeShape::permutation(40)
    }

    fn root_state(&self) -> (usize, u64) {
        (0, 0)
    }

    fn branch(&self, &(depth, mix): &(usize, u64), rank: u64) -> (usize, u64) {
        let mix = if depth == 0 {
            rank
        } else {
            mix.wrapping_mul(0x100_0000_01b3).wrapping_add(rank + 1)
        };
        (depth + 1, mix)
    }

    fn lower_bound(&self, &(depth, mix): &(usize, u64)) -> u64 {
        if depth == 1 && mix == 1 {
            u64::MAX
        } else {
            0
        }
    }

    fn leaf_cost(&self, &(_, mix): &(usize, u64)) -> u64 {
        mix % 1_000_003 + 1
    }
}

#[test]
fn a_pruned_child_above_the_anchor_moves_the_position_by_its_weight() {
    let problem = PrunedSecondChild;
    let shape = problem.shape();
    let w = UBig::factorial(39);
    let k = 1_500u64;
    let mut before = w.clone();
    before.sub_assign_u64(k);
    let after = w.mul_u64(2);
    // [39! − k, 2·39! + k): k leaves, the eliminated child, k leaves.
    let interval = Interval::new(before.clone(), &after + k);
    // A correct walk visits at most the node budget of each run of k
    // leaves, plus the eliminated child.
    let budget = node_budget(&shape, &Interval::new(before.clone(), w.clone())) * 2;
    for pooled in [true, false] {
        let mut explorer = IntervalExplorer::with_pooling(&problem, &interval, None, pooled);
        let mut jumped = false;
        while !explorer.is_exhausted() {
            let from = explorer.position().clone();
            explorer.run(1);
            assert!(
                explorer.stats().explored <= budget,
                "pooled={pooled}: {} nodes visited, beyond the budget of {budget}",
                explorer.stats().explored
            );
            if explorer.stats().pruned == 1 && !jumped {
                // One visit: the bound eliminated 39! leaves at once.
                jumped = true;
                assert_eq!(from, w, "pooled={pooled}");
                assert_eq!(*explorer.position(), after, "pooled={pooled}");
            }
        }
        assert!(jumped, "pooled={pooled}: the child was never eliminated");
        let stats = explorer.stats();
        assert_eq!(stats.pruned, 1, "pooled={pooled}");
        assert_eq!(stats.leaves, 2 * k, "pooled={pooled}");
        assert_eq!(*explorer.position(), &after + k, "pooled={pooled}");
        // The optimum is the better of the two runs of leaves around the
        // eliminated child, which never touch it.
        let left = solve_interval(&problem, &Interval::new(before.clone(), w.clone()), None);
        let right = solve_interval(&problem, &Interval::new(after.clone(), &after + k), None);
        assert_eq!(left.stats.pruned + right.stats.pruned, 0);
        let (l, r) = (left.best.unwrap(), right.best.unwrap());
        let expected = if l.cost <= r.cost { l } else { r };
        let best = explorer.best().expect("leaves were evaluated");
        assert_eq!(*best, expected, "pooled={pooled}");
        assert!(interval.contains(&leaf_number(&shape, &best.leaf_ranks)));
    }
    // A begin inside the eliminated child: the walk starts there and
    // jumps straight to its end.
    let inside = Interval::new(&w + 5u64, &after + k);
    let mut explorer = IntervalExplorer::new(&problem, &inside, None);
    explorer.run(1);
    assert_eq!(explorer.stats().pruned, 1);
    assert_eq!(*explorer.position(), after);
    assert_eq!(explorer.run(budget), RunOutcome::Exhausted);
    assert_eq!(explorer.stats().leaves, k);
    assert_eq!(*explorer.position(), &after + k);
    // An end inside the eliminated child: the jump overshoots it and the
    // walk ends there, having explored only the leaves before it.
    let short = Interval::new(before.clone(), &w + k);
    let mut explorer = IntervalExplorer::new(&problem, &short, None);
    assert_eq!(explorer.run(budget), RunOutcome::Exhausted);
    assert_eq!(explorer.stats().leaves, k);
    assert_eq!(*explorer.position(), after);
    assert!(explorer.current_interval().is_empty());
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
