//! Property tests for the flowshop substrate: evaluation oracles, bound
//! admissibility, heuristic dominance and exact-search agreement with
//! brute force.

use gridbnb_engine::solve;
use gridbnb_flowshop::bounds::{one_machine_bound, JobSet, JohnsonBound};
use gridbnb_flowshop::makespan::{makespan, push_job, reverse_makespan};
use gridbnb_flowshop::neh::neh;
use gridbnb_flowshop::taillard::generate;
use gridbnb_flowshop::{FlowshopProblem, Instance};
use proptest::prelude::*;

fn arb_instance(max_jobs: usize, max_machines: usize) -> impl Strategy<Value = Instance> {
    (1..=max_jobs, 1..=max_machines, any::<u32>())
        .prop_map(|(n, m, seed)| generate(n, m, i64::from(seed % 2_147_483_645) + 1))
}

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

fn arb_schedule(n: usize, seed: u64) -> Vec<usize> {
    // Fisher-Yates with SplitMix64.
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn makespan_lower_bounded_by_loads(inst in arb_instance(10, 6), seed in any::<u64>()) {
        let schedule = arb_schedule(inst.jobs(), seed);
        let cmax = makespan(&inst, &schedule);
        for m in 0..inst.machines() {
            prop_assert!(cmax >= inst.machine_total(m));
        }
        for j in 0..inst.jobs() {
            prop_assert!(cmax >= inst.job_total(j));
        }
    }

    #[test]
    fn makespan_reverse_symmetry(inst in arb_instance(9, 6), seed in any::<u64>()) {
        let schedule = arb_schedule(inst.jobs(), seed);
        prop_assert_eq!(makespan(&inst, &schedule), reverse_makespan(&inst, &schedule));
    }

    #[test]
    fn single_machine_makespan_is_total(inst in arb_instance(10, 1), seed in any::<u64>()) {
        let schedule = arb_schedule(inst.jobs(), seed);
        prop_assert_eq!(makespan(&inst, &schedule), inst.machine_total(0));
    }

    #[test]
    fn bounds_admissible_at_random_prefixes(inst in arb_instance(6, 5), seed in any::<u64>(), cut in 0usize..=6) {
        let schedule = arb_schedule(inst.jobs(), seed);
        let cut = cut.min(inst.jobs());
        let prefix = &schedule[..cut];
        let mut heads = vec![0u64; inst.machines()];
        let mut remaining = JobSet::full(inst.jobs());
        for &j in prefix {
            push_job(&inst, &mut heads, j);
            remaining = remaining.without(j);
        }
        // Exact best completion of this prefix by brute force.
        let rest: Vec<usize> = remaining.iter().collect();
        let mut best = u64::MAX;
        fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
            if k == items.len() { visit(items); return; }
            for i in k..items.len() {
                items.swap(k, i);
                permute(items, k + 1, visit);
                items.swap(k, i);
            }
        }
        let mut rest_mut = rest.clone();
        if rest_mut.is_empty() {
            best = makespan(&inst, prefix);
        } else {
            permute(&mut rest_mut, 0, &mut |order| {
                let mut full = prefix.to_vec();
                full.extend_from_slice(order);
                best = best.min(makespan(&inst, &full));
            });
        }
        let lb1 = one_machine_bound(&inst, &heads, remaining);
        prop_assert!(lb1 <= best, "one-machine bound {} exceeds exact {}", lb1, best);
        let jb = JohnsonBound::new(&inst);
        let lb2 = jb.bound(&heads, remaining);
        prop_assert!(lb2 <= best, "johnson bound {} exceeds exact {}", lb2, best);
        // With two machines or more, the pairs (k, M−1) and (0, M−1)
        // cover every term of the one-machine bound.
        if inst.machines() >= 2 {
            prop_assert!(lb2 >= lb1, "johnson bound {} below one-machine {}", lb2, lb1);
        }
    }

    #[test]
    fn neh_dominated_by_optimum(inst in arb_instance(6, 5)) {
        let (_, neh_cost) = neh(&inst);
        prop_assert!(neh_cost >= brute_optimum(&inst));
    }

    #[test]
    fn bnb_matches_brute_force(inst in arb_instance(6, 4)) {
        let expected = brute_optimum(&inst);
        let problem = FlowshopProblem::with_default_bound(inst);
        let report = solve(&problem, None);
        prop_assert_eq!(report.best_cost, Some(expected));
    }

    #[test]
    fn decode_encode_round_trip(inst in arb_instance(8, 3), seed in any::<u64>()) {
        let problem = FlowshopProblem::with_default_bound(inst.clone());
        let schedule = arb_schedule(inst.jobs(), seed);
        let ranks = problem.encode_schedule(&schedule);
        prop_assert_eq!(problem.decode_ranks(&ranks), schedule);
    }

    #[test]
    fn solution_ranks_decode_to_consistent_makespan(inst in arb_instance(6, 4)) {
        let problem = FlowshopProblem::with_default_bound(inst.clone());
        let report = solve(&problem, None);
        let solution = report.best.unwrap();
        let schedule = problem.decode_ranks(&solution.leaf_ranks);
        prop_assert_eq!(makespan(&inst, &schedule), solution.cost);
    }

    #[test]
    fn taillard_format_round_trip(inst in arb_instance(10, 6)) {
        let text = inst.to_taillard_format();
        let parsed = Instance::parse_taillard(&text).unwrap();
        prop_assert_eq!(parsed, inst);
    }
}
