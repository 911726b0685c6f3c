//! Pooled ≡ scalar equivalence on random flowshop instances, driving the
//! overridden `lower_bound_batch` kernel (pair-outer/lane-inner Johnson
//! over all machine pairs, with early exit at the cutoff) through the
//! engine's lockstep harness; the kernel contract against a plain
//! exact Johnson pass; and search counts recorded before the early-exit
//! kernel replaced the full per-child Johnson pass.

use gridbnb_engine::equivalence::{
    assert_pooled_matches_scalar, assert_pooled_matches_scalar_simple, permille_interval,
    Interference,
};
use gridbnb_engine::{solve, SearchStats};
use gridbnb_flowshop::bounds::{JobSet, PairSelection};
use gridbnb_flowshop::ig::{iterated_greedy, IgParams};
use gridbnb_flowshop::makespan::push_job;
use gridbnb_flowshop::{taillard, BoundMode, FlowshopProblem, Instance, Problem};
use proptest::prelude::*;

/// The exact Johnson bound by a plain pass over every machine pair in
/// `(k, l)` order: sort the remaining jobs by Johnson's rule, run the
/// two-machine recurrence, add the smallest tail — no precomputation, no
/// early exit. The reference every kernel is checked against.
fn johnson_reference(instance: &Instance, heads: &[u64], remaining: JobSet) -> u64 {
    let m = instance.machines();
    let mut best = heads[m - 1];
    if remaining.is_empty() {
        return best;
    }
    let p = |j: usize, x: usize| u64::from(instance.time(j, x));
    let pairs = (0..m).flat_map(|k| (k + 1..m).map(move |l| (k, l)));
    for (k, l) in pairs {
        let lag = |j: usize| (k + 1..l).map(|x| p(j, x)).sum::<u64>();
        let mut order: Vec<usize> = remaining.iter().collect();
        order.sort_by_key(|&j| {
            let (a, b) = (p(j, k) + lag(j), lag(j) + p(j, l));
            if a <= b {
                (0, a)
            } else {
                (1, u64::MAX - b)
            }
        });
        let (mut c1, mut c2, mut min_tail) = (heads[k], heads[l], u64::MAX);
        for &j in &order {
            c1 += p(j, k);
            c2 = c2.max(c1 + lag(j)) + p(j, l);
            min_tail = min_tail.min((l + 1..m).map(|x| p(j, x)).sum());
        }
        best = best.max(c2 + min_tail);
    }
    best
}

/// A 64-bit LCG stream (high bits out).
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        s >> 33
    }
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

/// Bounds the `children` of the node reached by `prefix`, pooled and
/// scalar, against a cutoff drawn around their exact values (or
/// `u64::MAX`), and checks each against the reference.
fn check_sibling_pool(
    instance: &Instance,
    prefix: &[usize],
    children: &[usize],
    cutoff_pick: u64,
) -> Result<(), TestCaseError> {
    let mut heads = vec![0u64; instance.machines()];
    let mut union = JobSet::full(instance.jobs());
    for &j in prefix {
        push_job(instance, &mut heads, j);
        union = union.without(j);
    }
    let rank_in = |set: JobSet, j: usize| set.iter().position(|x| x == j).unwrap() as u64;
    let problem = FlowshopProblem::with_default_bound(instance.clone());
    let mut parent = problem.root_state();
    let mut rest = JobSet::full(instance.jobs());
    for &j in prefix {
        parent = problem.branch(&parent, rank_in(rest, j));
        rest = rest.without(j);
    }
    let mut states = Vec::new();
    let mut exact = Vec::new();
    for &j in children {
        let mut h = heads.clone();
        push_job(instance, &mut h, j);
        exact.push(johnson_reference(instance, &h, union.without(j)));
        states.push(problem.branch(&parent, rank_in(union, j)));
    }
    let lo = exact.iter().min().unwrap().saturating_sub(5);
    let hi = exact.iter().max().unwrap() + 5;
    let cutoff = if cutoff_pick.is_multiple_of(5) {
        u64::MAX
    } else {
        lo + cutoff_pick % (hi - lo)
    };
    let mut out = Vec::new();
    problem.lower_bound_batch(&states, cutoff, &mut out);
    prop_assert_eq!(out.len(), states.len());
    for (i, state) in states.iter().enumerate() {
        let what = format!("child {} cutoff {cutoff}", children[i]);
        check_contract(out[i], exact[i], cutoff, &format!("pooled {what}"))?;
        let scalar = problem.lower_bound_against(state, cutoff);
        check_contract(scalar, exact[i], cutoff, &format!("scalar {what}"))?;
        prop_assert_eq!(problem.lower_bound(state), exact[i], "exact {}", what);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kernel contract: on random instances, prefixes, child subsets and
    /// cutoffs, the pooled and the scalar early-exit
    /// bounds of every child agree with the exact reference.
    #[test]
    fn early_exit_kernels_keep_the_exact_decision(
        jobs in 4usize..11,
        machines in 2usize..9,
        seed in 1i64..100_000_000,
        pick_seed in any::<u64>(),
        prefix_len in 0usize..9,
        keep_mask in 1u64..1024,
        cutoff_pick in any::<u64>(),
    ) {
        let instance = taillard::generate(jobs, machines, seed);
        let mut rng = lcg(pick_seed);
        // A random prefix leaving at least two jobs.
        let mut order: Vec<usize> = (0..jobs).collect();
        for i in (1..jobs).rev() {
            order.swap(i, rng() as usize % (i + 1));
        }
        let prefix = &order[..prefix_len.min(jobs - 2)];
        // A random non-empty subset of the children, as a truncated or
        // stolen-from pool holds.
        let children: Vec<usize> = (0..jobs)
            .filter(|j| !prefix.contains(j) && keep_mask >> (j % 10) & 1 == 1)
            .collect();
        prop_assume!(!children.is_empty());
        check_sibling_pool(&instance, prefix, &children, cutoff_pick)?;
    }

    #[test]
    fn pooled_matches_scalar_on_random_instances(
        jobs in 4usize..8,
        machines in 2usize..5,
        seed in 1i64..100_000_000,
        a in 0u64..1001,
        b in 0u64..1001,
    ) {
        let instance = taillard::generate(jobs, machines, seed);
        let problem = FlowshopProblem::with_default_bound(instance);
        let total = problem.shape().root_range().end().clone();
        let interval = permille_interval(&total, a, b);
        assert_pooled_matches_scalar_simple(&problem, &interval, None);
    }

    #[test]
    fn pooled_matches_scalar_under_steals_and_cutoffs(
        jobs in 5usize..8,
        seed in 1i64..100_000_000,
        slice in 1u64..50,
        period in 1usize..5,
        initial_ub_slack in 0u64..40,
    ) {
        let instance = taillard::generate(jobs, 3, seed);
        let problem = FlowshopProblem::with_default_bound(instance);
        let interval = problem.shape().root_range();
        // A plausible-but-imperfect incumbent: the identity schedule's
        // makespan plus slack, so the cutoff moves mid-run and the early
        // exit actually eliminates children at fill time.
        let identity: Vec<usize> = (0..jobs).collect();
        let ub = gridbnb_flowshop::makespan::makespan(problem.instance(), &identity);
        assert_pooled_matches_scalar(
            &problem,
            &interval,
            Some(ub + initial_ub_slack),
            slice,
            Interference {
                shrink_period: period,
                keep_num: 3,
                keep_den: 4,
                external_cutoff: ub,
            },
        );
    }
}

/// Sequential-solve counts of a 12×10 instance from IG+1, recorded at the
/// parent commit of the early-exit Johnson kernel (full per-child pass
/// over every pair, `(k, l)` order). Any bound that keeps every
/// elimination decision reproduces them exactly: both constructors must.
#[test]
fn search_counts_match_the_full_pass_kernel() {
    let instance = taillard::generate(12, 10, 2);
    let ub = iterated_greedy(&instance, &IgParams::default()).1 + 1;
    assert_eq!(ub, 1136);
    let expected = SearchStats {
        explored: 18_405,
        branched: 3_061,
        pruned: 15_343,
        leaves: 1,
        improvements: 1,
        bound_calls: 18_404,
        nodes_bounded: 18_404,
        bound_batches: 3_061,
    };
    for (label, problem) in [
        (
            "new",
            FlowshopProblem::new(instance.clone(), BoundMode::Johnson(PairSelection::All)),
        ),
        (
            "with_default_bound",
            FlowshopProblem::with_default_bound(instance),
        ),
    ] {
        let report = solve(&problem, Some(ub));
        assert_eq!(report.stats, expected, "{label}");
        let best = report.best.expect("IG+1 leaves the optimum to find");
        assert_eq!(best.cost, 1135);
        assert_eq!(best.leaf_ranks, [1, 4, 5, 0, 1, 0, 0, 0, 0, 0, 0, 0]);
    }
}
