//! An O(n³) solver for the linear assignment problem — the missing
//! ingredient that turns the rearrangement screen into a true
//! Gilmore–Lawler bound.
//!
//! The implementation is the classic Hungarian algorithm in its
//! shortest-augmenting-path form (Jonker–Volgenant style): rows are
//! inserted one at a time, each insertion growing a Dijkstra-like tree
//! of tight edges under dual potentials until a free column is reached,
//! then augmenting along the reconstructed path. Each of the `n`
//! insertions costs O(n²), so the whole solve is O(n³) — at the bound's
//! call sites `n ≤ 24`, this is microseconds.
//!
//! Two entry points share that algorithm. [`solve_lap`] returns the
//! optimal assignment and is the reference. [`lap_bound`] is what the
//! Gilmore–Lawler kernel runs: it needs only a value, allocates nothing,
//! and stops as soon as its dual objective reaches a limit.
//!
//! **Any start is admissible.** [`lap_bound`] starts either from the
//! classic row/column reduction or from column potentials `v` the
//! caller supplies, and sets `u_i = min_a (c_ia − v_a)`. That pair is
//! dual-feasible for every `v`, so `D = Σu + Σv` is a lower bound on the
//! optimum from the first step, whatever `v` holds: a stale or foreign
//! `v` can only cost tree steps, never admissibility. The search passes
//! each child the exact duals its parent's own solve read back
//! (`end`): the child's matrix is the parent's less one row and one
//! column, its entries shifted by the one facility placed in between, so
//! those duals start close to the child's optimum. On a sequential
//! `qap_proof` solve 77 % of the children then stop at the start point,
//! against 49 % from the reduction.

use crate::instance::MAX_N;

/// Optimal solution of one `n × n` linear assignment problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LapSolution {
    /// `assignment[row] = column`, a permutation of `0..n`.
    pub assignment: Vec<usize>,
    /// `Σ_row cost[row][assignment[row]]`, the proven minimum.
    pub total: u64,
}

/// Solves `min_π Σ_i cost[i * n + π(i)]` over permutations `π` of
/// `0..n`. `cost` is row-major; entries may be any `u64` as long as
/// every *assignment* sum (`n` entries, one per row) fits `u64` —
/// otherwise the reported total wraps. The QAP bound guarantees this
/// via [`crate::QapInstance::try_new`]'s `n²·max_flow·max_dist`
/// overflow validation.
///
/// # Panics
///
/// Panics if `cost.len() != n * n` or `n == 0`.
pub fn solve_lap(n: usize, cost: &[u64]) -> LapSolution {
    assert!(n > 0, "empty assignment problem");
    assert_eq!(cost.len(), n * n, "cost matrix shape");
    const INF: i128 = i128::MAX / 4;

    // 1-based arrays with column 0 as the virtual "unmatched" column.
    let mut potential_row = vec![0i128; n + 1];
    let mut potential_col = vec![0i128; n + 1];
    let mut matched_row = vec![0usize; n + 1]; // matched_row[col] = row
    let mut previous_col = vec![0usize; n + 1];

    for row in 1..=n {
        matched_row[0] = row;
        let mut current_col = 0usize;
        let mut min_to_col = vec![INF; n + 1];
        let mut visited = vec![false; n + 1];
        // Grow the alternating tree until a free column is reached.
        loop {
            visited[current_col] = true;
            let tree_row = matched_row[current_col];
            let mut delta = INF;
            let mut next_col = 0usize;
            for col in 1..=n {
                if visited[col] {
                    continue;
                }
                let reduced = cost[(tree_row - 1) * n + (col - 1)] as i128
                    - potential_row[tree_row]
                    - potential_col[col];
                if reduced < min_to_col[col] {
                    min_to_col[col] = reduced;
                    previous_col[col] = current_col;
                }
                if min_to_col[col] < delta {
                    delta = min_to_col[col];
                    next_col = col;
                }
            }
            for col in 0..=n {
                if visited[col] {
                    potential_row[matched_row[col]] += delta;
                    potential_col[col] -= delta;
                } else {
                    min_to_col[col] -= delta;
                }
            }
            current_col = next_col;
            if matched_row[current_col] == 0 {
                break;
            }
        }
        // Augment: flip matches along the path back to the virtual column.
        while current_col != 0 {
            let prev = previous_col[current_col];
            matched_row[current_col] = matched_row[prev];
            current_col = prev;
        }
    }

    let mut assignment = vec![0usize; n];
    for col in 1..=n {
        assignment[matched_row[col] - 1] = col - 1;
    }
    let total = assignment
        .iter()
        .enumerate()
        .map(|(row, &col)| cost[row * n + col])
        .sum();
    LapSolution { assignment, total }
}

/// A lower bound on the optimum of one `n × n` assignment problem that
/// is exact below `limit`: returns the optimum if it is below `limit`,
/// and otherwise some value in `[limit, optimum]`. `cost` is row-major
/// with the same overflow contract as [`solve_lap`].
///
/// With `start = None` the potentials start from the classic reduction,
/// `u_i = min_j c_ij` and `v_j = min_i (c_ij − u_i)`. With
/// `start = Some(v)` the column potentials start at `v[..n]` and
/// `u_i = min_j (c_ij − v_j)`. Either pair is dual-feasible for every
/// row, inserted or not, so `D = Σu + Σv` is a lower bound from the
/// start. Each tree step of the Hungarian then raises `k + 1` row
/// potentials by `delta` and lowers `k` column potentials by it, so `D`
/// rises by exactly `delta`, stays feasible, and ends at the optimum.
/// The solve stops at the first `D ≥ limit`, checked in O(1) before the
/// first insertion and after every step. Scratch lives on the stack.
///
/// On return `end[..n]`, when given, holds the final column potentials:
/// dual-feasible always, and the optimal duals whenever the returned
/// value is below `limit` (the solve ran to the optimum).
///
/// # Panics
///
/// Panics if `cost.len() != n * n`, `n` is outside `1..=MAX_N`, or a
/// given `start` or `end` is shorter than `n`.
pub fn lap_bound(
    n: usize,
    cost: &[u64],
    limit: u64,
    start: Option<&[i128]>,
    end: Option<&mut [i128]>,
) -> u64 {
    lap_bound_observed(n, cost, limit, start, end, |_| {})
}

/// [`lap_bound`], calling `observe` with the dual objective `D` at the
/// start and after every tree step — the hook the property tests use to
/// check that `D` never falls and never exceeds the optimum. `D` is
/// signed: from an arbitrary `start` it may begin below zero.
pub fn lap_bound_observed(
    n: usize,
    cost: &[u64],
    limit: u64,
    start: Option<&[i128]>,
    end: Option<&mut [i128]>,
    mut observe: impl FnMut(i128),
) -> u64 {
    assert!(
        (1..=MAX_N).contains(&n),
        "assignment size {n} outside 1..={MAX_N}"
    );
    assert_eq!(cost.len(), n * n, "cost matrix shape");
    const INF: i128 = i128::MAX / 4;
    let c = |row: usize, col: usize| cost[(row - 1) * n + (col - 1)] as i128;
    let limit = i128::from(limit);

    // 1-based, column 0 is the virtual "unmatched" column, as in
    // `solve_lap`; only real columns count towards D.
    let mut potential_row = [0i128; MAX_N + 1];
    let mut potential_col = [0i128; MAX_N + 1];
    match start {
        Some(v) => {
            potential_col[1..=n].copy_from_slice(&v[..n]);
            for (row, potential) in potential_row[1..=n].iter_mut().enumerate() {
                *potential = cost[row * n..(row + 1) * n]
                    .iter()
                    .zip(&v[..n])
                    .map(|(&c, &v)| c as i128 - v)
                    .min()
                    .unwrap_or(0);
            }
        }
        None => {
            for (row, potential) in potential_row[1..=n].iter_mut().enumerate() {
                *potential = cost[row * n..(row + 1) * n]
                    .iter()
                    .min()
                    .map_or(0, |&c| c as i128);
            }
            for (col, potential) in potential_col[1..=n].iter_mut().enumerate() {
                *potential = (0..n)
                    .map(|row| cost[row * n + col] as i128 - potential_row[row + 1])
                    .min()
                    .unwrap_or(0);
            }
        }
    }
    let mut dual: i128 =
        potential_row[1..=n].iter().sum::<i128>() + potential_col[1..=n].iter().sum::<i128>();
    observe(dual);

    let mut matched_row = [0usize; MAX_N + 1]; // matched_row[col] = row
    let mut previous_col = [0usize; MAX_N + 1];
    let value = 'solve: {
        if dual >= limit {
            break 'solve dual as u64;
        }
        for row in 1..=n {
            matched_row[0] = row;
            let mut current_col = 0usize;
            let mut min_to_col = [INF; MAX_N + 1];
            let mut visited = [false; MAX_N + 1];
            loop {
                visited[current_col] = true;
                let tree_row = matched_row[current_col];
                let mut delta = INF;
                let mut next_col = 0usize;
                for col in 1..=n {
                    if visited[col] {
                        continue;
                    }
                    let reduced = c(tree_row, col) - potential_row[tree_row] - potential_col[col];
                    if reduced < min_to_col[col] {
                        min_to_col[col] = reduced;
                        previous_col[col] = current_col;
                    }
                    if min_to_col[col] < delta {
                        delta = min_to_col[col];
                        next_col = col;
                    }
                }
                for col in 0..=n {
                    if visited[col] {
                        potential_row[matched_row[col]] += delta;
                        potential_col[col] -= delta;
                    } else {
                        min_to_col[col] -= delta;
                    }
                }
                dual += delta;
                observe(dual);
                if dual >= limit {
                    break 'solve dual as u64;
                }
                current_col = next_col;
                if matched_row[current_col] == 0 {
                    break;
                }
            }
            while current_col != 0 {
                let prev = previous_col[current_col];
                matched_row[current_col] = matched_row[prev];
                current_col = prev;
            }
        }
        let total = (1..=n)
            .map(|col| cost[(matched_row[col] - 1) * n + (col - 1)])
            .sum::<u64>();
        debug_assert_eq!(i128::from(total), dual, "complementary slackness");
        total
    };
    if let Some(end) = end {
        end[..n].copy_from_slice(&potential_col[1..=n]);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive reference: minimum over all n! assignments.
    fn brute_lap(n: usize, cost: &[u64]) -> u64 {
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

    #[test]
    fn one_by_one() {
        let s = solve_lap(1, &[42]);
        assert_eq!(s.assignment, vec![0]);
        assert_eq!(s.total, 42);
    }

    #[test]
    fn known_three_by_three() {
        // Row 0 wants col 1, row 1 wants col 0, row 2 wants col 2.
        let cost = [4, 1, 3, 2, 0, 5, 3, 2, 2];
        let s = solve_lap(3, &cost);
        assert_eq!(s.total, 5);
        assert_eq!(s.assignment, vec![1, 0, 2]);
    }

    #[test]
    fn diagonal_trap() {
        // The greedy diagonal (0+0+9) is beaten by the off-diagonal
        // matching 0→0, 1→2, 2→1 (0+2+5): the algorithm must reroute
        // earlier matches through augmenting paths to find it.
        let cost = [0, 1, 2, 1, 0, 2, 5, 5, 9];
        assert_eq!(solve_lap(3, &cost).total, 7);
    }

    #[test]
    fn assignment_is_a_permutation() {
        let cost: Vec<u64> = (0..36).map(|x| (x * 7919) % 97).collect();
        let s = solve_lap(6, &cost);
        let mut sorted = s.assignment.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for n in 2..=6 {
            for _ in 0..20 {
                let cost: Vec<u64> = (0..n * n).map(|_| next() % 1000).collect();
                assert_eq!(solve_lap(n, &cost).total, brute_lap(n, &cost), "n={n}");
            }
        }
    }

    #[test]
    fn large_values_do_not_wrap() {
        let big = u64::MAX / 4;
        let cost = [big, 0, 0, big];
        assert_eq!(solve_lap(2, &cost).total, 0);
        assert_eq!(lap_bound(2, &cost, u64::MAX, None, None), 0);
    }

    #[test]
    fn bound_stops_at_the_limit_and_is_exact_below_it() {
        // Every row and column minimum is 0, so the reduction gives
        // D = 0, but rows 0 and 1 both want column 0: the optimum is 1.
        let cost = [0, 1, 1, 0, 1, 1, 1, 0, 0];
        assert_eq!(lap_bound(3, &cost, u64::MAX, None, None), 1);
        assert_eq!(lap_bound(3, &cost, 2, None, None), 1);
        assert_eq!(lap_bound(3, &cost, 1, None, None), 1);
        assert_eq!(lap_bound(3, &cost, 0, None, None), 0);
    }
}
