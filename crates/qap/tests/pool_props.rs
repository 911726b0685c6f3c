//! Pooled ≡ scalar equivalence on random QAP instances, driving the
//! `lower_bound_batch` kernel through the engine's lockstep harness; the
//! early-exit Gilmore–Lawler kernel's contract against the reference
//! bound; the search path the pooled
//! kernel carries between pools, across instances on one thread; and
//! search counts recorded before the pooled kernel replaced the
//! per-child GL solve.

use gridbnb_engine::equivalence::{
    assert_pooled_matches_scalar, assert_pooled_matches_scalar_simple, permille_interval,
    Interference,
};
use gridbnb_engine::{solve, SearchStats};
use gridbnb_qap::bounds::gilmore_lawler_bound;
use gridbnb_qap::greedy::{greedy_upper_bound, GreedyParams};
use gridbnb_qap::{Problem, QapInstance, QapProblem};
use proptest::prelude::*;

/// SplitMix64 — the tests' own deterministic stream.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Exact placed–placed cost of a placement prefix.
fn placed_cost(instance: &QapInstance, placement: &[u16]) -> u64 {
    let mut total = 0;
    for (i, &a) in placement.iter().enumerate() {
        for (j, &b) in placement.iter().enumerate() {
            total += instance.flow(i, j) * instance.dist(a as usize, b as usize);
        }
    }
    total
}

/// Checks one bound `v` against the exact value under the batch
/// contract: the same decision as `exact` for every cutoff `c ≤ cutoff`,
/// and the exact value whenever it stays below `cutoff`.
fn check_contract(v: u64, exact: u64, cutoff: u64, what: &str) -> Result<(), TestCaseError> {
    prop_assert!(v <= exact, "{}: {} exceeds the exact {}", what, v, exact);
    if v < cutoff {
        prop_assert_eq!(
            v,
            exact,
            "{}: below the cutoff {} but not exact",
            what,
            cutoff
        );
    }
    for c in [
        0,
        v,
        v.saturating_add(1),
        exact,
        exact.saturating_add(1),
        cutoff,
    ] {
        if c <= cutoff {
            prop_assert_eq!(
                v >= c,
                exact >= c,
                "{}: decisions differ at c = {}",
                what,
                c
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel contract: on random grid and line instances, random
    /// prefixes and random cutoffs (including none), the pooled and the
    /// scalar early-exit GL bounds of every sibling child agree with the
    /// reference `gilmore_lawler_bound`.
    #[test]
    fn early_exit_gl_keeps_the_exact_decision(
        n in 4usize..10,
        grid in any::<bool>(),
        seed in 0u64..10_000,
        pick_seed in any::<u64>(),
        prefix_len in 0usize..8,
        cutoff_pick in any::<u64>(),
    ) {
        let instance = match (grid, n) {
            (true, 9) => QapInstance::nugent_style(3, 3, seed),
            (true, _) => QapInstance::nugent_style(2, n / 2, seed),
            (false, _) => QapInstance::random(n, seed),
        };
        let n = instance.n();
        let problem = QapProblem::with_default_bound(instance);
        let mut rng = splitmix(pick_seed);
        let depth = prefix_len.min(n - 2);
        let mut ranks: Vec<u64> = (0..depth).map(|d| rng() % (n - d) as u64).collect();
        let mut parent = problem.root_state();
        for &r in &ranks {
            parent = problem.branch(&parent, r);
        }
        let mut children = Vec::new();
        let mut exact = Vec::new();
        for r in 0..(n - depth) as u64 {
            children.push(problem.branch(&parent, r));
            ranks.push(r);
            let placement: Vec<u16> =
                problem.decode_ranks(&ranks).iter().map(|&l| l as u16).collect();
            ranks.pop();
            let used = placement.iter().fold(0u64, |m, &p| m | (1 << p));
            let base = placed_cost(problem.instance(), &placement);
            exact.push(gilmore_lawler_bound(problem.instance(), &placement, used, base));
        }
        let lo = exact.iter().min().unwrap().saturating_sub(5);
        let hi = exact.iter().max().unwrap() + 5;
        let cutoff = if cutoff_pick.is_multiple_of(5) { u64::MAX } else { lo + cutoff_pick % (hi - lo) };
        let mut out = Vec::new();
        problem.lower_bound_batch(&children, cutoff, &mut out);
        prop_assert_eq!(out.len(), children.len());
        for (i, child) in children.iter().enumerate() {
            let what = format!("child {i} cutoff {cutoff}");
            check_contract(out[i], exact[i], cutoff, &format!("pooled {what}"))?;
            let scalar = problem.lower_bound_against(child, cutoff);
            check_contract(scalar, exact[i], cutoff, &format!("scalar {what}"))?;
            prop_assert_eq!(problem.lower_bound(child), exact[i], "exact {}", what);
        }
    }

    #[test]
    fn pooled_matches_scalar_on_random_instances(
        n in 4usize..7,
        seed in 0u64..10_000,
        a in 0u64..1001,
        b in 0u64..1001,
    ) {
        let instance = QapInstance::random(n, seed);
        let problem = QapProblem::with_default_bound(instance);
        let total = problem.shape().root_range().end().clone();
        let interval = permille_interval(&total, a, b);
        assert_pooled_matches_scalar_simple(&problem, &interval, None);
    }

    #[test]
    fn pooled_matches_scalar_on_grids_under_steals_and_cutoffs(
        cols in 2usize..4,
        seed in 0u64..10_000,
        slice in 1u64..40,
        period in 1usize..5,
    ) {
        // Structured (grid) instances with a greedy incumbent: the cutoff
        // a pool is bounded against at fill time and the one its children
        // are consumed under genuinely diverge, so early-exit *values*
        // differ while the search must stay identical in *decisions*.
        let instance = QapInstance::nugent_style(2, cols, seed);
        let problem = QapProblem::with_default_bound(instance);
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

/// Bounds every child of the state reached by `ranks` as one pool and
/// checks each value against the reference `gilmore_lawler_bound` under
/// the batch contract. The cutoff is none, or with `split` the median
/// reference value, so that some children come in below it and some
/// stop early.
fn check_pool(problem: &QapProblem, ranks: &[u64], split: bool) -> Result<(), TestCaseError> {
    let mut parent = problem.root_state();
    for &r in ranks {
        parent = problem.branch(&parent, r);
    }
    let arity = (problem.instance().n() - ranks.len()) as u64;
    let children: Vec<_> = (0..arity).map(|r| problem.branch(&parent, r)).collect();
    let exact: Vec<u64> = (0..arity)
        .map(|r| {
            let mut child_ranks = ranks.to_vec();
            child_ranks.push(r);
            let placement: Vec<u16> = problem
                .decode_ranks(&child_ranks)
                .iter()
                .map(|&l| l as u16)
                .collect();
            let used = placement.iter().fold(0u64, |m, &p| m | (1 << p));
            let base = placed_cost(problem.instance(), &placement);
            gilmore_lawler_bound(problem.instance(), &placement, used, base)
        })
        .collect();
    let cutoff = if split {
        let mut sorted = exact.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    } else {
        u64::MAX
    };
    let mut out = Vec::new();
    problem.lower_bound_batch(&children, cutoff, &mut out);
    prop_assert_eq!(out.len(), children.len());
    for (r, (&value, &exact)) in out.iter().zip(&exact).enumerate() {
        check_contract(value, exact, cutoff, &format!("{ranks:?} + {r}"))?;
    }
    Ok(())
}

/// The search path a thread carries between pools is keyed on the
/// problem as well as the prefix. Instance A's pool below `[0]` leaves
/// its placed sums on the path; instance B (same size) then bounds the
/// pool below `[0, 1]`, whose parent prefix is `[0]` too. Were the path
/// keyed on the prefix alone, B's entries would be built on A's sums
/// and its values would not be B's bounds. The same goes for A after
/// its own pool below `[1]`. A clone of A shares A's path (it bounds the
/// same instance); a fresh problem of A's instance does not, and is
/// exact all the same.
#[test]
fn the_search_path_never_crosses_problems() {
    let a = QapProblem::with_default_bound(QapInstance::nugent_style(2, 4, 1));
    let b = QapProblem::with_default_bound(QapInstance::random(8, 99));
    let fresh = QapProblem::with_default_bound(a.instance().clone());
    let clone = a.clone();
    for split in [false, true] {
        for (first, rank, second) in [
            (&a, 0, &b),
            (&b, 0, &a),
            (&a, 1, &a),
            (&a, 0, &clone),
            (&a, 0, &fresh),
        ] {
            check_pool(first, &[rank], false).unwrap();
            check_pool(second, &[0, 0], split).unwrap();
            check_pool(second, &[0, 0, 1], split).unwrap();
        }
    }
}

/// Sequential-solve counts of nugent 2×5 seed 3 from greedy+1, recorded
/// at the parent commit of the pooled early-exit GL kernel (screen pass,
/// then a cold GL solve per screen survivor). Any bound that keeps every
/// elimination decision reproduces them exactly.
#[test]
fn search_counts_match_the_cold_gl_kernel() {
    let instance = QapInstance::nugent_style(2, 5, 3);
    let ub = greedy_upper_bound(&instance, &GreedyParams::default()).1 + 1;
    assert_eq!(ub, 745);
    let report = solve(&QapProblem::with_default_bound(instance), Some(ub));
    let expected = SearchStats {
        explored: 8_409,
        branched: 1_330,
        pruned: 7_078,
        leaves: 1,
        improvements: 1,
        bound_calls: 8_408,
        nodes_bounded: 8_408,
        bound_batches: 1_330,
    };
    assert_eq!(report.stats, expected);
    let best = report.best.expect("greedy+1 leaves the optimum to find");
    assert_eq!(best.cost, 744);
    assert_eq!(best.leaf_ranks, [0, 5, 2, 6, 4, 1, 1, 0, 0, 0]);
}
