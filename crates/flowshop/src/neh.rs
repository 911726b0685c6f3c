//! The NEH constructive heuristic (Nawaz, Enscore, Ham 1983) — the
//! standard starting point for permutation-flowshop upper bounds and the
//! seed of the iterated greedy.

use crate::makespan::{makespan, push_job};
use crate::Instance;

/// Builds a schedule with NEH: jobs sorted by decreasing total processing
/// time are inserted one at a time at the position minimizing the partial
/// makespan. Returns `(schedule, makespan)`.
pub fn neh(instance: &Instance) -> (Vec<usize>, u64) {
    let mut order: Vec<usize> = (0..instance.jobs()).collect();
    // Decreasing total processing time; ties by index for determinism.
    order.sort_by_key(|&j| (std::cmp::Reverse(instance.job_total(j)), j));
    let mut schedule: Vec<usize> = Vec::with_capacity(instance.jobs());
    for &job in &order {
        let (pos, _) = best_insertion(instance, &schedule, job);
        schedule.insert(pos, job);
    }
    let cost = makespan(instance, &schedule);
    (schedule, cost)
}

/// Finds the insertion position of `job` into `schedule` minimizing the
/// resulting makespan. Returns `(position, makespan)`. Ties favor the
/// earliest position (NEH convention).
///
/// Taillard's (1990) acceleration: with `tails[pos][m]` the time from
/// machine `m` starting `schedule[pos..]` to the end of the schedule,
/// and `heads` the completion times of `schedule[..pos]`, inserting at
/// `pos` gives `max_m (f[m] + tails[pos][m])` where `f` are `job`'s
/// completion times after `heads`. All `k + 1` positions cost
/// O(k · machines) instead of one full makespan each.
pub fn best_insertion(instance: &Instance, schedule: &[usize], job: usize) -> (usize, u64) {
    let m = instance.machines();
    let k = schedule.len();
    // tails[pos·m + x], with an all-zero row for the empty suffix.
    let mut tails = vec![0u64; (k + 1) * m];
    for pos in (0..k).rev() {
        let row = instance.job_row(schedule[pos]);
        let (here, after) = tails[pos * m..].split_at_mut(m);
        let mut below = 0u64; // tail of this job on machine x + 1
        for x in (0..m).rev() {
            below = below.max(after[x]) + u64::from(row[x]);
            here[x] = below;
        }
    }
    let p = instance.job_row(job);
    let mut heads = vec![0u64; m];
    let (mut best_pos, mut best_cost) = (0, u64::MAX);
    for pos in 0..=k {
        if pos > 0 {
            push_job(instance, &mut heads, schedule[pos - 1]);
        }
        let (mut done, mut cost) = (0u64, 0u64);
        for x in 0..m {
            done = done.max(heads[x]) + u64::from(p[x]);
            cost = cost.max(done + tails[pos * m + x]);
        }
        if cost < best_cost {
            best_cost = cost;
            best_pos = pos;
        }
    }
    (best_pos, best_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taillard::generate;

    fn brute_optimum(instance: &Instance) -> u64 {
        fn permute(items: &mut Vec<usize>, k: usize, best: &mut u64, inst: &Instance) {
            if k == items.len() {
                *best = (*best).min(makespan(inst, items));
                return;
            }
            for i in k..items.len() {
                items.swap(k, i);
                permute(items, k + 1, best, inst);
                items.swap(k, i);
            }
        }
        let mut jobs: Vec<usize> = (0..instance.jobs()).collect();
        let mut best = u64::MAX;
        permute(&mut jobs, 0, &mut best, instance);
        best
    }

    #[test]
    fn neh_is_a_valid_permutation() {
        let inst = generate(12, 5, 4242);
        let (schedule, cost) = neh(&inst);
        let mut sorted = schedule.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        assert_eq!(cost, makespan(&inst, &schedule));
    }

    #[test]
    fn neh_upper_bounds_the_optimum() {
        for seed in [1, 99, 52_000] {
            let inst = generate(7, 4, seed);
            let (_, neh_cost) = neh(&inst);
            let opt = brute_optimum(&inst);
            assert!(neh_cost >= opt);
            // NEH is good: allow at most 25% excess on tiny instances.
            assert!(
                (neh_cost as f64) <= opt as f64 * 1.25,
                "NEH {neh_cost} too far from optimum {opt} (seed {seed})"
            );
        }
    }

    #[test]
    fn neh_single_job() {
        let inst = Instance::new(1, 3, vec![5, 6, 7]);
        let (schedule, cost) = neh(&inst);
        assert_eq!(schedule, vec![0]);
        assert_eq!(cost, 18);
    }

    #[test]
    fn best_insertion_scans_all_positions() {
        let inst = generate(6, 3, 31);
        let schedule = vec![0, 1, 2, 3];
        let (pos, cost) = best_insertion(&inst, &schedule, 4);
        assert!(pos <= 4);
        // Verify the reported cost is truly minimal.
        for p in 0..=4 {
            let mut cand = schedule.clone();
            cand.insert(p, 4);
            assert!(makespan(&inst, &cand) >= cost);
        }
    }

    /// The naive oracle: rebuild every candidate and evaluate it in full.
    fn best_insertion_naive(instance: &Instance, schedule: &[usize], job: usize) -> (usize, u64) {
        let (mut best_pos, mut best_cost) = (0, u64::MAX);
        for pos in 0..=schedule.len() {
            let mut candidate = schedule.to_vec();
            candidate.insert(pos, job);
            let cost = makespan(instance, &candidate);
            if cost < best_cost {
                best_cost = cost;
                best_pos = pos;
            }
        }
        (best_pos, best_cost)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn best_insertion_matches_the_naive_oracle(
            jobs in 1usize..16,
            machines in 1usize..9,
            seed in 1i64..100_000_000,
            shuffle in proptest::prelude::any::<u64>(),
            job_pick in 0usize..16,
        ) {
            let inst = generate(jobs, machines, seed);
            let mut schedule: Vec<usize> = (0..jobs).collect();
            let mut s = shuffle;
            for i in (1..jobs).rev() {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                schedule.swap(i, (s >> 33) as usize % (i + 1));
            }
            let job = schedule.remove(job_pick % jobs);
            proptest::prop_assert_eq!(
                best_insertion(&inst, &schedule, job),
                best_insertion_naive(&inst, &schedule, job)
            );
        }
    }

    #[test]
    fn neh_deterministic() {
        let inst = generate(15, 8, 2026);
        assert_eq!(neh(&inst), neh(&inst));
    }
}
