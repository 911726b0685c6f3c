//! Lower bounds for partial flowshop schedules — the bounding operator.
//!
//! The search bounds with one operator, [`JohnsonBound`]: the
//! two-machine relaxation of Lageweg, Lenstra and Rinnooy Kan over every
//! machine pair `(k, l)`. For each pair the remaining jobs form a
//! two-machine flowshop with time lags, solved exactly by Johnson's rule
//! (Mitten's extension), and the best pair is the bound. This is the
//! bound the paper and the grid B&B literature run on Taillard instances.
//!
//! [`one_machine_bound`], the classic single-machine relaxation, stays
//! as a scalar reference for the property tests; the search does not
//! call it. Each machine must still process every unscheduled job after
//! its current head, and the last of them still has to traverse the
//! downstream machines. With `M ≥ 2` machines the Johnson bound never
//! falls below it: pair `(k, M−1)` covers machine `k`'s term, and pair
//! `(0, M−1)` covers the last machine's term and the job term.
//!
//! Both bounds are *admissible* (never exceed the true optimum below a
//! node), which the property tests verify against brute-force enumeration
//! on small instances.

use crate::makespan::tail_after;
use crate::Instance;

/// A set of jobs as a bitmask (instances are limited to 64 jobs, which
/// covers every Taillard group up to 50×20 and beyond).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobSet(pub u64);

impl JobSet {
    /// The full set `{0, …, n−1}`.
    pub fn full(n: usize) -> Self {
        assert!(n <= 64, "at most 64 jobs");
        if n == 64 {
            JobSet(u64::MAX)
        } else {
            JobSet((1u64 << n) - 1)
        }
    }

    /// The empty set.
    pub fn empty() -> Self {
        JobSet(0)
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, job: usize) -> bool {
        self.0 & (1 << job) != 0
    }

    /// Set with `job` removed.
    #[inline]
    pub fn without(self, job: usize) -> Self {
        JobSet(self.0 & !(1 << job))
    }

    /// Set with `job` added.
    #[inline]
    pub fn with(self, job: usize) -> Self {
        JobSet(self.0 | (1 << job))
    }

    /// Number of jobs in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` iff no job is in the set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates member jobs in increasing index order.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(j)
            }
        })
    }

    /// The `rank`-th member in increasing index order.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= len()`.
    #[inline]
    pub fn nth(self, rank: u64) -> usize {
        self.iter()
            .nth(rank as usize)
            .expect("rank exceeds remaining-set size")
    }
}

/// One-machine bound. For every machine `m`:
///
/// `LB(m) = heads[m] + Σ_{j∈R} p(j,m) + min_{j∈R} tail(j,m)`
///
/// plus the job-based term `min-start + job total` for each remaining
/// job; the bound is the maximum over all of these. With `R = ∅` it
/// degenerates to the partial makespan `heads[M−1]`.
pub fn one_machine_bound(instance: &Instance, heads: &[u64], remaining: JobSet) -> u64 {
    let m_count = instance.machines();
    if remaining.is_empty() {
        return heads[m_count - 1];
    }
    let mut best = heads[m_count - 1];
    for (m, &head) in heads.iter().enumerate().take(m_count) {
        let mut load = 0u64;
        let mut min_tail = u64::MAX;
        for j in remaining.iter() {
            load += u64::from(instance.time(j, m));
            min_tail = min_tail.min(tail_after(instance, j, m));
        }
        best = best.max(head + load + min_tail);
    }
    // Job-based term: job j cannot start machine 0 before heads[0] and
    // needs at least its total processing time end-to-end.
    for j in remaining.iter() {
        best = best.max(heads[0] + instance.job_total(j));
    }
    best
}

/// Which machine pairs the Johnson bound evaluates: every pair `(k, l)`
/// with `k < l`, the only selection. Kept as the argument of
/// [`crate::BoundMode::Johnson`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PairSelection {
    /// Every pair `(k, l)` with `k < l`, O(M²) pairs.
    All,
}

/// Precomputed two-machine (Johnson) bound of Lageweg–Lenstra–Rinnooy
/// Kan.
///
/// For each machine pair `(k, l)`, jobs are pre-sorted by Johnson's rule
/// on `(p(j,k) + lag, lag + p(j,l))` where `lag = Σ_{k<m<l} p(j,m)`.
/// Restricting a Johnson-sorted list to any subset keeps it
/// Johnson-sorted, so bound evaluation is a single pass per pair.
///
/// Every pair's rows live in one flat arena (`n` rows per pair, in
/// Johnson order), and the pairs are visited strongest first — sorted
/// once by their root bound — so an evaluation against a cutoff usually
/// stops after a few pairs. The order is a pure function of the
/// instance and only changes how soon a bound reaches the cutoff, never
/// the value of a bound that stays below it.
#[derive(Clone, Debug)]
pub struct JohnsonBound {
    /// Jobs per pair block.
    n: usize,
    /// Machine pairs, strongest root bound first.
    pairs: Vec<Pair>,
    /// Every pair's rows; pair block `b` is rows `b·n .. b·n + n`.
    rows: Vec<Row>,
}

/// One job of one pair's Johnson order.
#[derive(Clone, Copy, Debug)]
struct Row {
    job: u32,
    /// `p(job, k)`.
    p_k: u32,
    /// The Mitten lag `Σ_{k<m<l} p(job, m)`.
    lag: u32,
    /// `p(job, l)`.
    p_l: u32,
    /// `tail_after(job, l)`.
    tail: u32,
}

#[derive(Clone, Copy, Debug)]
struct Pair {
    k: usize,
    l: usize,
    /// First arena row of the pair's block.
    start: usize,
    /// The pair's bound at the root (the sort key).
    root: u64,
}

impl JohnsonBound {
    /// Precomputes Johnson orders for every machine pair. A single
    /// machine has no pair: its bound is the partial makespan.
    ///
    /// # Panics
    ///
    /// Panics on more than 64 jobs, and if a job's total processing time
    /// exceeds `u32::MAX`.
    pub fn new(instance: &Instance) -> Self {
        let (n, m) = (instance.jobs(), instance.machines());
        assert!(n <= 64, "at most 64 jobs");
        let mut pairs = Vec::with_capacity(m * m.saturating_sub(1) / 2);
        for k in 0..m {
            pairs.extend((k + 1..m).map(|l| Pair {
                k,
                l,
                start: 0,
                root: 0,
            }));
        }
        // prefix[j·(m+1) + x] = Σ_{y<x} p(j, y): every lag and tail is a
        // difference of two entries.
        let mut prefix = vec![0u64; n * (m + 1)];
        for j in 0..n {
            let row = &mut prefix[j * (m + 1)..(j + 1) * (m + 1)];
            for (x, &t) in instance.job_row(j).iter().enumerate() {
                row[x + 1] = row[x] + u64::from(t);
            }
            assert!(row[m] <= u64::from(u32::MAX), "job {j} too long");
        }
        let sum = |j: usize, from: usize, to: usize| {
            (prefix[j * (m + 1) + to] - prefix[j * (m + 1) + from]) as u32
        };
        let mut rows = Vec::with_capacity(pairs.len() * n);
        let mut order = [0u8; 64];
        for (b, pair) in pairs.iter_mut().enumerate() {
            let (k, l) = (pair.k, pair.l);
            let order = &mut order[..n];
            for (j, slot) in order.iter_mut().enumerate() {
                *slot = j as u8;
            }
            // Johnson/Mitten rule on (a, b) = (p_k + lag, lag + p_l):
            // group 1 (a <= b) ascending a, then group 2 descending b;
            // ties by job index.
            order.sort_unstable_by_key(|&j| {
                let j = j as usize;
                let lag = u64::from(sum(j, k + 1, l));
                let a = u64::from(instance.time(j, k)) + lag;
                let b = lag + u64::from(instance.time(j, l));
                if a <= b {
                    (0u8, a, j)
                } else {
                    (1u8, u64::MAX - b, j)
                }
            });
            pair.start = b * n;
            let (mut c1, mut c2, mut min_tail) = (0u64, 0u64, u64::MAX);
            for &j in order.iter() {
                let j = j as usize;
                let row = Row {
                    job: j as u32,
                    p_k: instance.time(j, k),
                    lag: sum(j, k + 1, l),
                    p_l: instance.time(j, l),
                    tail: sum(j, l + 1, m),
                };
                c1 += u64::from(row.p_k);
                c2 = c2.max(c1 + u64::from(row.lag)) + u64::from(row.p_l);
                min_tail = min_tail.min(u64::from(row.tail));
                rows.push(row);
            }
            pair.root = c2 + min_tail;
        }
        pairs.sort_unstable_by_key(|p| (std::cmp::Reverse(p.root), p.start));
        JohnsonBound { n, pairs, rows }
    }

    /// The rows of `pair`, in its Johnson order.
    fn rows(&self, pair: &Pair) -> &[Row] {
        &self.rows[pair.start..pair.start + self.n]
    }

    /// Number of machine pairs evaluated per bound call.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The two-machine bound for a partial schedule with machine `heads`
    /// and `remaining` unscheduled jobs. `R = ∅` degenerates to the
    /// partial makespan.
    pub fn bound(&self, heads: &[u64], remaining: JobSet) -> u64 {
        self.bound_against(heads, remaining, u64::MAX)
    }

    /// [`JohnsonBound::bound`] with an early exit: pairs are evaluated
    /// strongest first and the evaluation stops as soon as the running
    /// maximum reaches `cutoff`. A result below `cutoff` is the exact
    /// bound; a result at or above it is a lower bound on the exact one.
    pub fn bound_against(&self, heads: &[u64], remaining: JobSet, cutoff: u64) -> u64 {
        let mut best = heads[heads.len() - 1];
        if remaining.is_empty() {
            return best;
        }
        for pair in &self.pairs {
            if best >= cutoff {
                break;
            }
            let (mut c1, mut c2, mut min_tail) = (heads[pair.k], heads[pair.l], u64::MAX);
            for row in self.rows(pair) {
                if !remaining.contains(row.job as usize) {
                    continue;
                }
                c1 += u64::from(row.p_k);
                c2 = c2.max(c1 + u64::from(row.lag)) + u64::from(row.p_l);
                min_tail = min_tail.min(u64::from(row.tail));
            }
            best = best.max(c2 + min_tail);
        }
        best
    }

    /// Raises the bounds of a sibling pool against `cutoff`, pair by pair.
    ///
    /// Child `i` sits at machine heads `child(i).0` and has scheduled job
    /// `child(i).1` out of the shared `union`, so its remaining set is
    /// `union \ {child(i).1}`. `out[i]` holds a seed (an admissible bound
    /// of the child, at least its `heads[M−1]`); children whose seed
    /// reaches `cutoff` are never evaluated. The loop runs over pairs on
    /// the outside and over the live children ("lanes") on the inside: a
    /// lane retires once its running maximum reaches `cutoff`, and the
    /// pool is done when no lane is left.
    ///
    /// Per pair, one O(|union|) pass evaluates Johnson's recurrence for
    /// every exclusion at once. Over the union in the pair's order, with
    /// `V(q) = Σ_{r≤q} p_k + lag_q + Σ_{r≥q} p_l`, the child excluding
    /// position `e` ends machine `l` at
    /// `max(h_l + Σp_l − p_l[e], h_k + max(max_{q<e} V(q) − p_l[e],
    /// max_{q>e} V(q) − p_k[e]))`, so each live lane then costs O(1).
    ///
    /// On return `out[i]` is the exact `max(seed, Johnson bound)` when it
    /// is below `cutoff`, and a lower bound on it otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `union` has fewer than two jobs or there are more than
    /// 64 children.
    pub fn bound_pool<'h>(
        &self,
        union: JobSet,
        child: impl Fn(usize) -> (&'h [u64], usize),
        cutoff: u64,
        out: &mut [u64],
    ) {
        assert!(union.len() >= 2, "pool aggregation needs at least 2 jobs");
        assert!(out.len() <= 64, "at most 64 lanes");
        let mut live = out
            .iter()
            .enumerate()
            .filter(|&(_, &seed)| seed < cutoff)
            .fold(0u64, |lanes, (i, _)| lanes | 1 << i);
        // Per position of the union in the pair's order.
        let mut job = [0u8; 64];
        let mut w = [0i64; 64]; // V(q) − Σp_l
        let mut before = [0i64; 64]; // max_{r<q} w(r)
        let (mut p_k, mut p_l) = ([0i64; 64], [0i64; 64]);
        // Per job: the child excluding it is bounded by
        // max(h_l + to_l[job], h_k + to_k[job]) — its end on machine l
        // plus its smallest tail.
        let (mut to_l, mut to_k) = ([0u64; 64], [0u64; 64]);
        for pair in &self.pairs {
            if live == 0 {
                return;
            }
            let (mut len, mut sum_k, mut sum_l) = (0, 0i64, 0i64);
            let mut best_before = i64::MIN / 2;
            let mut min_tail = (usize::MAX, u64::MAX, u64::MAX);
            for row in self.rows(pair) {
                let j = row.job as usize;
                if !union.contains(j) {
                    continue;
                }
                let (a, b) = (i64::from(row.p_k), i64::from(row.p_l));
                sum_k += a;
                w[len] = sum_k + i64::from(row.lag) - sum_l;
                sum_l += b;
                before[len] = best_before;
                best_before = best_before.max(w[len]);
                (job[len], p_k[len], p_l[len]) = (j as u8, a, b);
                let tail = u64::from(row.tail);
                if tail <= min_tail.1 {
                    min_tail = (j, tail, min_tail.1);
                } else if tail < min_tail.2 {
                    min_tail.2 = tail;
                }
                len += 1;
            }
            let mut best_after = i64::MIN / 2;
            for q in (0..len).rev() {
                let j = job[q] as usize;
                let tail = if j == min_tail.0 {
                    min_tail.2
                } else {
                    min_tail.1
                } as i64;
                let through = (before[q] - p_l[q]).max(best_after - p_k[q]);
                to_l[j] = (sum_l - p_l[q] + tail) as u64;
                to_k[j] = (sum_l + through + tail) as u64;
                best_after = best_after.max(w[q]);
            }
            let mut lanes = live;
            while lanes != 0 {
                let i = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let (h, e) = child(i);
                let v = (h[pair.l] + to_l[e]).max(h[pair.k] + to_k[e]);
                if v > out[i] {
                    out[i] = v;
                    if v >= cutoff {
                        live &= !(1 << i);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::makespan::{makespan, push_job};

    fn tiny() -> Instance {
        Instance::new(3, 3, vec![2, 1, 2, 1, 3, 1, 3, 1, 1])
    }

    /// Best completion over all completions of a partial schedule.
    fn exact_best_completion(instance: &Instance, prefix: &[usize]) -> u64 {
        let all: Vec<usize> = (0..instance.jobs())
            .filter(|j| !prefix.contains(j))
            .collect();
        let mut best = u64::MAX;
        let mut rest = all.clone();
        permute(&mut rest, 0, &mut |order| {
            let mut full = prefix.to_vec();
            full.extend_from_slice(order);
            best = best.min(makespan(instance, &full));
        });
        if all.is_empty() {
            best = makespan(instance, prefix);
        }
        best
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

    fn heads_of(instance: &Instance, prefix: &[usize]) -> Vec<u64> {
        let mut heads = vec![0u64; instance.machines()];
        for &j in prefix {
            push_job(instance, &mut heads, j);
        }
        heads
    }

    fn remaining_of(instance: &Instance, prefix: &[usize]) -> JobSet {
        let mut r = JobSet::full(instance.jobs());
        for &j in prefix {
            r = r.without(j);
        }
        r
    }

    #[test]
    fn jobset_basic_ops() {
        let s = JobSet::full(5);
        assert_eq!(s.len(), 5);
        assert!(s.contains(4));
        assert!(!s.contains(5));
        let s = s.without(2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 3, 4]);
        assert_eq!(s.nth(2), 3);
        assert_eq!(s.with(2), JobSet::full(5));
        assert!(JobSet::empty().is_empty());
    }

    #[test]
    fn jobset_full_64() {
        let s = JobSet::full(64);
        assert_eq!(s.len(), 64);
        assert!(s.contains(63));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn jobset_too_large_panics() {
        let _ = JobSet::full(65);
    }

    #[test]
    fn bounds_admissible_on_tiny_everywhere() {
        let inst = tiny();
        let johnson = JohnsonBound::new(&inst);
        let prefixes: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![2, 0],
            vec![1, 2],
            vec![0, 1, 2],
        ];
        for prefix in prefixes {
            let heads = heads_of(&inst, &prefix);
            let remaining = remaining_of(&inst, &prefix);
            let exact = exact_best_completion(&inst, &prefix);
            let lb1 = one_machine_bound(&inst, &heads, remaining);
            let lb2 = johnson.bound(&heads, remaining);
            assert!(lb1 <= exact, "LB1 {lb1} > exact {exact} at {prefix:?}");
            assert!(lb2 <= exact, "LB2 {lb2} > exact {exact} at {prefix:?}");
        }
    }

    #[test]
    fn johnson_at_least_as_strong_at_root_of_tiny() {
        let inst = tiny();
        let heads = vec![0u64; 3];
        let remaining = JobSet::full(3);
        let lb1 = one_machine_bound(&inst, &heads, remaining);
        let johnson = JohnsonBound::new(&inst);
        let lb2 = johnson.bound(&heads, remaining);
        assert!(lb2 >= lb1, "Johnson {lb2} weaker than one-machine {lb1}");
    }

    #[test]
    fn empty_remaining_returns_partial_makespan() {
        let inst = tiny();
        let schedule = [2, 0, 1];
        let heads = heads_of(&inst, &schedule);
        let remaining = JobSet::empty();
        let exact = makespan(&inst, &schedule);
        assert_eq!(one_machine_bound(&inst, &heads, remaining), exact);
        let johnson = JohnsonBound::new(&inst);
        assert_eq!(johnson.bound(&heads, remaining), exact);
    }

    #[test]
    fn two_machine_exactness_via_johnson() {
        // On a 2-machine instance, the Johnson bound at the root equals
        // the true optimum (Johnson's algorithm is exact for M=2).
        let inst = Instance::new(4, 2, vec![3, 2, 1, 4, 6, 2, 2, 5]);
        let johnson = JohnsonBound::new(&inst);
        let root_bound = johnson.bound(&[0, 0], JobSet::full(4));
        let mut jobs: Vec<usize> = (0..4).collect();
        let mut best = u64::MAX;
        permute(&mut jobs, 0, &mut |order| {
            best = best.min(makespan(&inst, order));
        });
        assert_eq!(root_bound, best);
    }

    #[test]
    fn pair_selection_sizes() {
        let pairs = |m| JohnsonBound::new(&crate::taillard::generate(10, m, 12345)).pair_count();
        assert_eq!(pairs(6), 15);
        assert_eq!(pairs(2), 1);
        assert_eq!(pairs(1), 0, "one machine has no pair");
    }

    #[test]
    fn pairs_are_visited_strongest_first() {
        let inst = crate::taillard::generate(9, 6, 4242);
        let johnson = JohnsonBound::new(&inst);
        let heads = [0u64; 6];
        let root = JobSet::full(9);
        assert!(johnson.pairs.windows(2).all(|w| w[0].root >= w[1].root));
        // The first pair alone decides the root bound.
        assert_eq!(johnson.pairs[0].root, johnson.bound(&heads, root));
        assert_eq!(
            johnson.bound_against(&heads, root, 0),
            heads[5],
            "a cutoff the seed already reaches evaluates no pair"
        );
    }
}
