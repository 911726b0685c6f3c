//! Upper-bound heuristics: a greedy constructive placement plus a
//! pairwise-exchange local search — the QAP counterpart of the flowshop
//! crate's NEH + iterated greedy, supplying the initial upper bound the
//! campaign's exact runs start from (the paper seeded Ta056 with the
//! iterated-greedy 3681).

use crate::instance::QapInstance;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::{Add, Mul, Sub};

/// Multi-start parameters for [`greedy_upper_bound`].
#[derive(Clone, Debug)]
pub struct GreedyParams {
    /// Number of restarts (restart 0 uses the deterministic flow-order
    /// construction; later restarts shuffle the facility order).
    pub restarts: u32,
    /// RNG seed for the shuffled restarts.
    pub seed: u64,
}

impl Default for GreedyParams {
    fn default() -> Self {
        GreedyParams {
            restarts: 16,
            seed: 0x9A7,
        }
    }
}

/// Greedy constructive placement: facilities in the given order, each
/// assigned the free location minimizing its interaction cost with the
/// facilities already placed (ties broken toward the location with the
/// smallest total distance, then the lowest index, so construction is
/// deterministic). Returns `(placement, cost)` with
/// `placement[facility] = location`.
pub fn greedy_construct_in_order(instance: &QapInstance, order: &[usize]) -> (Vec<usize>, u64) {
    let n = instance.n();
    debug_assert_eq!(order.len(), n);
    let centrality: Vec<u64> = (0..n)
        .map(|a| {
            (0..n)
                .map(|b| instance.dist(a, b) + instance.dist(b, a))
                .sum()
        })
        .collect();
    let mut placement = vec![usize::MAX; n];
    let mut used = vec![false; n];
    for &facility in order {
        let mut best: Option<(u64, u64, usize)> = None;
        for (location, &taken) in used.iter().enumerate() {
            if taken {
                continue;
            }
            let mut here = instance.flow(facility, facility) * instance.dist(location, location);
            for (other, &loc) in placement.iter().enumerate() {
                if loc == usize::MAX {
                    continue;
                }
                here += instance.flow(other, facility) * instance.dist(loc, location)
                    + instance.flow(facility, other) * instance.dist(location, loc);
            }
            let key = (here, centrality[location], location);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (_, _, location) = best.expect("a free location always remains");
        placement[facility] = location;
        used[location] = true;
    }
    let cost = instance.cost(&placement);
    (placement, cost)
}

/// Deterministic greedy construction: facilities ordered by decreasing
/// total flow (the busiest facility claims the most central cheap spot
/// first), then [`greedy_construct_in_order`].
pub fn greedy_construct(instance: &QapInstance) -> (Vec<usize>, u64) {
    let n = instance.n();
    let mut order: Vec<usize> = (0..n).collect();
    let total_flow = |i: usize| -> u64 {
        (0..n)
            .map(|j| instance.flow(i, j) + instance.flow(j, i))
            .sum()
    };
    order.sort_by_key(|&i| (std::cmp::Reverse(total_flow(i)), i));
    greedy_construct_in_order(instance, &order)
}

/// Pairwise-exchange local search: repeatedly swaps the locations of
/// the best improving facility pair (steepest descent; ties go to the
/// first pair in `(x, y)` order) until no swap improves. Mutates
/// `placement` in place and returns the final cost.
///
/// The swap deltas of all pairs are kept in a table. After a swap
/// `(r, s)`, the pairs disjoint from `{r, s}` are updated in O(1) each
/// with Taillard's (1991) formula and only the pairs touching `r` or `s`
/// are recomputed in O(n), so a descent step costs O(n²) instead of
/// O(n³). The table is `i64` whenever the instance's magnitudes allow
/// it (every realistic instance), `i128` otherwise.
pub fn pairwise_exchange(instance: &QapInstance, placement: &mut [usize]) -> u64 {
    let n = instance.n();
    let (mut max_flow, mut max_dist) = (0u64, 0u64);
    for i in 0..n {
        for j in 0..n {
            max_flow = max_flow.max(instance.flow(i, j));
            max_dist = max_dist.max(instance.dist(i, j));
        }
    }
    // Every delta and every partial sum of a table update is at most
    // (4n + 8) · max_flow · max_dist in magnitude, and every sum of four
    // flows or four distances at most that with the other factor 1.
    let worst = (4 * n as u128 + 8) * u128::from(max_flow.max(1)) * u128::from(max_dist.max(1));
    if worst <= i64::MAX as u128 {
        descend::<i64>(instance, placement);
    } else {
        descend::<i128>(instance, placement);
    }
    instance.cost(placement)
}

/// The signed integer a descent keeps its swap deltas in.
trait DeltaInt:
    Copy + Ord + From<i8> + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self>
{
    fn of(value: u64) -> Self;
}

impl DeltaInt for i64 {
    fn of(value: u64) -> Self {
        value as i64
    }
}

impl DeltaInt for i128 {
    fn of(value: u64) -> Self {
        i128::from(value)
    }
}

fn descend<T: DeltaInt>(instance: &QapInstance, placement: &mut [usize]) {
    let n = instance.n();
    let zero = T::from(0);
    let mut delta = vec![zero; n * n]; // delta[x·n + y], x < y
    for x in 0..n {
        for y in x + 1..n {
            delta[x * n + y] = swap_delta(instance, placement, x, y);
        }
    }
    let f = |i: usize, j: usize| T::of(instance.flow(i, j));
    loop {
        let mut best: Option<(T, usize, usize)> = None;
        for x in 0..n {
            for (y, &d) in delta[x * n..(x + 1) * n].iter().enumerate().skip(x + 1) {
                if d < zero && best.is_none_or(|(b, _, _)| d < b) {
                    best = Some((d, x, y));
                }
            }
        }
        let Some((_, r, s)) = best else {
            return;
        };
        placement.swap(r, s);
        let d = |x: usize, y: usize| T::of(instance.dist(placement[x], placement[y]));
        for x in 0..n {
            for y in x + 1..n {
                delta[x * n + y] = if x == r || x == s || y == r || y == s {
                    swap_delta(instance, placement, x, y)
                } else {
                    delta[x * n + y]
                        + (f(x, r) - f(x, s) + f(y, s) - f(y, r))
                            * (d(y, r) - d(y, s) + d(x, s) - d(x, r))
                        + (f(r, x) - f(s, x) + f(s, y) - f(r, y))
                            * (d(r, y) - d(s, y) + d(s, x) - d(r, x))
                };
            }
        }
    }
}

/// Exact cost change of swapping the locations of facilities `x` and
/// `y` in `placement`, in O(n).
fn swap_delta<T: DeltaInt>(instance: &QapInstance, placement: &[usize], x: usize, y: usize) -> T {
    let (a, b) = (placement[x], placement[y]);
    let mut delta = T::from(0);
    if a == b {
        return delta;
    }
    let d = |p: usize, q: usize| T::of(instance.dist(p, q));
    let f = |i: usize, j: usize| T::of(instance.flow(i, j));
    for (k, &loc) in placement.iter().enumerate() {
        if k == x || k == y {
            continue;
        }
        delta = delta + f(x, k) * (d(b, loc) - d(a, loc)) + f(k, x) * (d(loc, b) - d(loc, a));
        delta = delta + f(y, k) * (d(a, loc) - d(b, loc)) + f(k, y) * (d(loc, a) - d(loc, b));
    }
    delta = delta + f(x, y) * (d(b, a) - d(a, b)) + f(y, x) * (d(a, b) - d(b, a));
    delta + f(x, x) * (d(b, b) - d(a, a)) + f(y, y) * (d(a, a) - d(b, b))
}

/// Multi-start greedy + exchange: the campaign's upper-bound pipeline.
/// Returns the best `(placement, cost)` over all restarts.
pub fn greedy_upper_bound(instance: &QapInstance, params: &GreedyParams) -> (Vec<usize>, u64) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let (mut best, mut best_cost) = {
        let (mut placement, _) = greedy_construct(instance);
        let cost = pairwise_exchange(instance, &mut placement);
        (placement, cost)
    };
    let mut order: Vec<usize> = (0..instance.n()).collect();
    for _ in 1..params.restarts.max(1) {
        order.shuffle(&mut rng);
        let (mut placement, _) = greedy_construct_in_order(instance, &order);
        let cost = pairwise_exchange(instance, &mut placement);
        if cost < best_cost {
            best = placement;
            best_cost = cost;
        }
    }
    (best, best_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_is_permutation(placement: &[usize], n: usize) {
        let mut sorted = placement.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn construct_yields_valid_placement() {
        let inst = QapInstance::nugent_style(3, 3, 42);
        let (placement, cost) = greedy_construct(&inst);
        assert_is_permutation(&placement, 9);
        assert_eq!(cost, inst.cost(&placement));
    }

    #[test]
    fn exchange_never_worsens_and_reaches_a_local_optimum() {
        let inst = QapInstance::random(8, 17);
        let (mut placement, greedy_cost) = greedy_construct(&inst);
        let cost = pairwise_exchange(&inst, &mut placement);
        assert!(cost <= greedy_cost);
        assert_is_permutation(&placement, 8);
        // Local optimality: no single swap improves.
        for x in 0..8 {
            for y in x + 1..8 {
                assert!(swap_delta::<i128>(&inst, &placement, x, y) >= 0);
            }
        }
    }

    #[test]
    fn swap_delta_matches_recomputation() {
        let inst = QapInstance::random(7, 4);
        let placement: Vec<usize> = vec![3, 0, 6, 2, 5, 1, 4];
        for x in 0..7 {
            for y in x + 1..7 {
                let mut swapped = placement.clone();
                swapped.swap(x, y);
                let expected = inst.cost(&swapped) as i128 - inst.cost(&placement) as i128;
                assert_eq!(
                    swap_delta::<i128>(&inst, &placement, x, y),
                    expected,
                    "({x},{y})"
                );
            }
        }
    }

    /// The descent before the delta table: rescan every pair with
    /// `swap_delta` after each swap.
    fn pairwise_exchange_rescanning(instance: &QapInstance, placement: &mut [usize]) -> u64 {
        let n = instance.n();
        loop {
            let mut best: Option<(i128, usize, usize)> = None;
            for x in 0..n {
                for y in x + 1..n {
                    let delta = swap_delta::<i128>(instance, placement, x, y);
                    if delta < 0 && best.is_none_or(|(d, _, _)| delta < d) {
                        best = Some((delta, x, y));
                    }
                }
            }
            let Some((_, x, y)) = best else {
                return instance.cost(placement);
            };
            placement.swap(x, y);
        }
    }

    #[test]
    fn delta_table_descent_matches_the_rescanning_oracle() {
        use rand::RngExt;
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 2 + (seed % 10) as usize;
            // Asymmetric flows with a non-zero diagonal; two in ten
            // instances have magnitudes that force the i128 table (the
            // second with flows near 2^62 and all distances zero).
            let (max_flow, max_dist) = match seed % 10 {
                9 => (1u64 << 36, 1u64 << 20),
                8 => (1u64 << 62, 1),
                _ => (10, 10),
            };
            let flow = (0..n * n).map(|_| rng.random_range(0..max_flow)).collect();
            let dist = (0..n * n).map(|_| rng.random_range(0..max_dist)).collect();
            let inst = QapInstance::new(n, flow, dist);
            let mut start: Vec<usize> = (0..n).collect();
            start.shuffle(&mut rng);
            let (mut fast, mut slow) = (start.clone(), start);
            let cost = pairwise_exchange(&inst, &mut fast);
            assert_eq!(
                cost,
                pairwise_exchange_rescanning(&inst, &mut slow),
                "seed {seed}"
            );
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn upper_bound_bounds_the_optimum_tightly_on_small_instances() {
        for seed in [1u64, 9, 23] {
            let inst = QapInstance::nugent_style(2, 4, seed);
            let (placement, cost) = greedy_upper_bound(&inst, &GreedyParams::default());
            assert_is_permutation(&placement, 8);
            let optimum = inst.brute_optimum();
            assert!(cost >= optimum);
            // Greedy+exchange is strong at this size: allow 10% excess.
            assert!(
                cost as f64 <= optimum as f64 * 1.10,
                "UB {cost} too far from optimum {optimum} (seed {seed})"
            );
        }
    }

    #[test]
    fn upper_bound_is_deterministic() {
        let inst = QapInstance::nugent_style(3, 3, 77);
        let params = GreedyParams::default();
        assert_eq!(
            greedy_upper_bound(&inst, &params),
            greedy_upper_bound(&inst, &params)
        );
    }
}
