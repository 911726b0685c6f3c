//! Property tests for the QAP campaign substrate: the LAP solvers
//! against a permutation-enumeration oracle, the bound tiers'
//! admissibility and dominance contracts at arbitrary partial states,
//! and the pooled Gilmore–Lawler kernel against the reference.

use gridbnb_qap::bounds::{gilmore_lawler_bound, screen_bound, GlPool, GlRowCache};
use gridbnb_qap::lap::{lap_bound, lap_bound_observed, solve_lap};
use gridbnb_qap::QapInstance;
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

fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// Minimum assignment cost by exhaustive enumeration.
fn brute_lap(n: usize, cost: &[u64]) -> u64 {
    let mut cols: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    permute(&mut cols, 0, &mut |p| {
        best = best.min(
            p.iter()
                .enumerate()
                .map(|(row, &col)| cost[row * n + col])
                .sum(),
        );
    });
    best
}

/// Exact placed–placed cost of a placement prefix.
fn placed_cost(instance: &QapInstance, placement: &[u16]) -> u64 {
    let mut base = 0;
    for (i, &a) in placement.iter().enumerate() {
        for (j, &b) in placement.iter().enumerate() {
            base += instance.flow(i, j) * instance.dist(a as usize, b as usize);
        }
    }
    base
}

/// A random placement prefix of `len` facilities (deterministic in
/// `seed`) plus the matching used-location mask and exact placed cost.
fn random_prefix(instance: &QapInstance, len: usize, seed: u64) -> (Vec<u16>, u64, u64) {
    let n = instance.n();
    let mut next = splitmix(seed);
    let mut locations: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        locations.swap(i, j);
    }
    let placement: Vec<u16> = locations[..len].iter().map(|&l| l as u16).collect();
    let used = placement.iter().fold(0u64, |m, &p| m | (1 << p));
    let base = placed_cost(instance, &placement);
    (placement, used, base)
}

/// Best completion of a placement prefix, by brute force.
fn best_completion(instance: &QapInstance, placement: &[u16]) -> u64 {
    let n = instance.n();
    let mut free: Vec<usize> = (0..n)
        .filter(|l| !placement.iter().any(|&p| p as usize == *l))
        .collect();
    let mut best = u64::MAX;
    permute(&mut free, 0, &mut |tail| {
        let full: Vec<usize> = placement
            .iter()
            .map(|&p| p as usize)
            .chain(tail.iter().copied())
            .collect();
        best = best.min(instance.cost(&full));
    });
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Hungarian solver must match exhaustive enumeration exactly,
    /// and its reported assignment must be a permutation evaluating to
    /// the reported total. [`lap_bound`] from the reduction must reach the
    /// same optimum; its dual objective must never fall and never exceed
    /// the optimum; and under a limit it must be exact below the limit
    /// and between the limit and the optimum otherwise. `big` draws
    /// entries up to `u64::MAX / n`, far beyond `i64` potentials.
    #[test]
    fn lap_matches_permutation_oracle(
        n in 1usize..9,
        seed in proptest::arbitrary::any::<u64>(),
        big in proptest::arbitrary::any::<bool>(),
        limit_pick in proptest::arbitrary::any::<u64>(),
    ) {
        let mut next = splitmix(seed);
        let modulus = if big { u64::MAX / n as u64 } else { 10_000 };
        let cost: Vec<u64> = (0..n * n).map(|_| next() % modulus).collect();
        let solution = solve_lap(n, &cost);
        let optimum = brute_lap(n, &cost);
        prop_assert_eq!(solution.total, optimum);
        let mut duals = Vec::new();
        let value = lap_bound_observed(n, &cost, u64::MAX, None, None, |d| duals.push(d));
        prop_assert_eq!(value, optimum);
        prop_assert!(duals.windows(2).all(|w| w[0] <= w[1]), "dual fell: {:?}", duals);
        prop_assert_eq!(duals.last().copied(), Some(i128::from(optimum)));
        let limit = limit_pick % (optimum.saturating_add(2)).max(1);
        let stopped = lap_bound(n, &cost, limit, None, None);
        prop_assert!(stopped <= optimum, "{} exceeds the optimum {}", stopped, optimum);
        prop_assert!(stopped >= limit || stopped == optimum, "stopped at {} below {}", stopped, limit);
        let mut sorted = solution.assignment.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        let evaluated: u64 = solution
            .assignment
            .iter()
            .enumerate()
            .map(|(row, &col)| cost[row * n + col])
            .sum();
        prop_assert_eq!(evaluated, solution.total);
    }

    /// Any column potentials start an admissible solve. From zero,
    /// random or huge start potentials (up to the `big` modulus, either
    /// sign) [`lap_bound`] must still reach `solve_lap`'s optimum without
    /// a limit, its dual objective must never fall and never exceed the
    /// optimum, and under a limit it must be exact below the limit and
    /// between the limit and the optimum otherwise. The potentials it
    /// reads back after a full solve are optimal: restarting from them
    /// with the optimum as the limit stops at the start.
    #[test]
    fn lap_from_any_start_matches_the_oracle(
        n in 1usize..9,
        seed in proptest::arbitrary::any::<u64>(),
        big in proptest::arbitrary::any::<bool>(),
        start_kind in 0u8..3,
        limit_pick in proptest::arbitrary::any::<u64>(),
    ) {
        let mut next = splitmix(seed);
        let modulus = if big { u64::MAX / n as u64 } else { 10_000 };
        let cost: Vec<u64> = (0..n * n).map(|_| next() % modulus).collect();
        let optimum = solve_lap(n, &cost).total;
        let start: Vec<i128> = (0..n)
            .map(|_| match start_kind {
                0 => 0,
                1 => (next() % 10_000) as i128 - 5_000,
                _ => {
                    let v = i128::from(next() % modulus);
                    if next().is_multiple_of(2) { v } else { -v }
                }
            })
            .collect();
        let mut duals = Vec::new();
        let mut end = vec![0i128; n];
        let value =
            lap_bound_observed(n, &cost, u64::MAX, Some(&start), Some(&mut end), |d| duals.push(d));
        prop_assert_eq!(value, optimum);
        prop_assert!(duals.windows(2).all(|w| w[0] <= w[1]), "dual fell: {:?}", duals);
        prop_assert!(duals.iter().all(|&d| d <= i128::from(optimum)), "dual above {}: {:?}", optimum, duals);
        prop_assert_eq!(duals.last().copied(), Some(i128::from(optimum)));
        let limit = limit_pick % (optimum.saturating_add(2)).max(1);
        let stopped = lap_bound(n, &cost, limit, Some(&start), None);
        prop_assert!(stopped <= optimum, "{} exceeds the optimum {}", stopped, optimum);
        prop_assert!(stopped >= limit || stopped == optimum, "stopped at {} below {}", stopped, limit);
        let mut steps = 0;
        let restarted = lap_bound_observed(n, &cost, optimum, Some(&end), None, |_| steps += 1);
        prop_assert_eq!(restarted, optimum);
        prop_assert_eq!(steps, 1, "the read-back duals are not optimal");
    }

    /// Gilmore–Lawler is admissible at the root: it never exceeds the
    /// brute-force optimum (n ≤ 7 keeps 7! enumerable).
    #[test]
    fn gilmore_lawler_admissible_at_root(
        n in 4usize..8,
        seed in proptest::arbitrary::any::<u64>(),
        grid in proptest::arbitrary::any::<bool>(),
    ) {
        let instance = if grid && n == 6 {
            QapInstance::nugent_style(2, 3, seed)
        } else {
            QapInstance::random(n, seed)
        };
        let optimum = instance.brute_optimum();
        let gl = gilmore_lawler_bound(&instance, &[], 0, 0);
        prop_assert!(gl <= optimum, "GL {} > optimum {}", gl, optimum);
    }

    /// At arbitrary partial states: both bounds stay below the best
    /// completion, and Gilmore–Lawler dominates (or equals) the screen.
    #[test]
    fn bounds_admissible_and_gl_dominates_screen_at_partial_states(
        n in 4usize..7,
        depth_frac in 0u8..4,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let instance = QapInstance::random(n, seed);
        let depth = (n * depth_frac as usize) / 4;
        let (placement, used, base) = random_prefix(&instance, depth, seed ^ 0xABCD);
        let exact = best_completion(&instance, &placement);
        let screen = screen_bound(&instance, &placement, used, base);
        let gl = gilmore_lawler_bound(&instance, &placement, used, base);
        prop_assert!(screen <= exact, "screen {} > exact {}", screen, exact);
        prop_assert!(gl <= exact, "GL {} > exact {}", gl, exact);
        prop_assert!(gl >= screen, "GL {} below screen {}", gl, screen);
    }

    /// The pooled kernel over precomputed rows (what the search runs) is
    /// value-identical to the re-sorting reference for every child of a
    /// random parent at every depth of arbitrary instances — grid and
    /// line families alike.
    #[test]
    fn cached_gl_rows_give_identical_bounds(
        n in 4usize..9,
        seed in proptest::arbitrary::any::<u64>(),
        grid in proptest::arbitrary::any::<bool>(),
    ) {
        let instance = if grid && n >= 6 {
            QapInstance::nugent_style(2, n / 2, seed)
        } else {
            QapInstance::random(n, seed)
        };
        let cache = GlRowCache::new(&instance);
        let n = instance.n();
        for depth in 0..n {
            let (prefix, parent_used, _) = random_prefix(&instance, depth, seed ^ 0x6C0B);
            let mut pool = GlPool::new(&instance, &cache, &prefix, parent_used, None);
            for location in (0..n).filter(|l| parent_used & (1 << l) == 0) {
                let mut child = prefix.clone();
                child.push(location as u16);
                let base = placed_cost(&instance, &child);
                let fresh = gilmore_lawler_bound(&instance, &child, parent_used | (1 << location), base);
                let pooled = pool.bound(&instance, location, base, u64::MAX);
                prop_assert_eq!(fresh, pooled, "pooled GL diverged at {:?}", child);
            }
        }
    }
}
