//! Quadratic assignment substrate for the grid-enabled branch and bound
//! — the campaign counterpart of the flowshop crate, proving the
//! interval-coded engine/coordinator/shard stack is problem-agnostic.
//!
//! The paper's Table 3 lists Nug30, the milestone QAP resolution of
//! Anstreicher et al. on a computational grid, directly beside the TSP
//! and flowshop records. This crate provides everything a (laptop-scale)
//! QAP campaign needs from the application side:
//!
//! * [`QapInstance`] — flow/distance matrices with fail-fast validation
//!   ([`QapInstance::try_new`]), plus two generator families: the
//!   Nugent-style rectangular-grid family
//!   ([`QapInstance::nugent_style`]) and the seeded random line family
//!   ([`QapInstance::random`]);
//! * [`lap`] — an O(n³) Hungarian solver for the linear assignment
//!   problem, the engine of the real bound;
//! * [`bounds`] — the bounding operator: the Gilmore–Lawler
//!   [`bounds::gilmore_lawler_bound`] (per-pair rearrangement products
//!   fed into the LAP), which the search runs through the per-pool
//!   [`bounds::GlPool`] kernel, and the cheaper rearrangement
//!   [`bounds::screen_bound`] as a scalar reference;
//! * [`greedy`] — greedy constructive placement + pairwise-exchange
//!   local search, the QAP analogue of NEH + iterated greedy, supplying
//!   initial upper bounds;
//! * [`QapProblem`] — the `gridbnb_engine::Problem` implementation
//!   wiring the bounds to the permutation tree (depth `d`
//!   assigns facility `d` to the `rank`-th still-free location).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod greedy;
mod instance;
pub mod lap;
mod problem;

pub use bounds::Bound;
pub use instance::{InstanceError, QapInstance, MAX_N};
pub use problem::{QapProblem, QapState};

pub use gridbnb_engine::{Problem, Solution};

#[cfg(test)]
mod tests {
    use super::*;
    use gridbnb_engine::solve;

    #[test]
    fn identity_placement_cost() {
        // 3 facilities on a line, flow only between 0 and 2.
        let mut flow = vec![0u64; 9];
        flow[2] = 5; // (0, 2)
        flow[2 * 3] = 5; // (2, 0)
        let dist = vec![0, 1, 2, 1, 0, 1, 2, 1, 0];
        let inst = QapInstance::new(3, flow, dist);
        // facilities 0,2 adjacent => cost 2*5*1 ; far apart => 2*5*2.
        assert_eq!(inst.cost(&[0, 2, 1]), 10);
        assert_eq!(inst.cost(&[0, 1, 2]), 20);
        assert_eq!(inst.brute_optimum(), 10);
    }

    #[test]
    fn bnb_matches_brute_force_under_every_bound_tier() {
        for seed in 0..4 {
            let inst = QapInstance::random(6, seed);
            let expected = inst.brute_optimum();
            let problem = QapProblem::with_default_bound(inst);
            let report = solve(&problem, None);
            assert_eq!(report.best_cost, Some(expected), "seed {seed}");
        }
    }

    #[test]
    fn bound_admissible_at_root_and_prunes() {
        let inst = QapInstance::random(8, 3);
        let optimum = {
            let problem = QapProblem::with_default_bound(inst.clone());
            solve(&problem, None).best_cost.unwrap()
        };
        let problem = QapProblem::with_default_bound(inst);
        assert!(problem.lower_bound(&problem.root_state()) <= optimum);
        let report = solve(&problem, None);
        assert!(report.stats.pruned > 0, "bound should prune");
    }

    #[test]
    fn decode_ranks_is_valid_placement() {
        let inst = QapInstance::random(6, 9);
        let problem = QapProblem::with_default_bound(inst.clone());
        let report = solve(&problem, None);
        let sol = report.best.unwrap();
        let placement = problem.decode_ranks(&sol.leaf_ranks);
        let mut sorted = placement.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        assert_eq!(inst.cost(&placement), sol.cost);
    }

    #[test]
    fn encode_placement_inverts_decode() {
        let inst = QapInstance::nugent_style(2, 3, 13);
        let problem = QapProblem::with_default_bound(inst);
        let placement = vec![4usize, 0, 5, 2, 1, 3];
        let ranks = problem.encode_placement(&placement);
        assert_eq!(problem.decode_ranks(&ranks), placement);
        // Ranks must be feasible (rank r at depth d satisfies r < n-d).
        for (d, &r) in ranks.iter().enumerate() {
            assert!(r < (6 - d) as u64);
        }
    }

    #[test]
    fn asymmetric_flows_supported() {
        // flow(0→1) = 7, flow(1→0) = 1; dist symmetric.
        let flow = vec![0, 7, 1, 0];
        let dist = vec![0, 2, 2, 0];
        let inst = QapInstance::new(2, flow, dist);
        assert_eq!(inst.cost(&[0, 1]), 16);
        assert_eq!(inst.cost(&[1, 0]), 16);
        let problem = QapProblem::with_default_bound(inst);
        assert_eq!(solve(&problem, None).best_cost, Some(16));
    }

    #[test]
    fn nonzero_flow_diagonal_is_accounted() {
        // Facility 0 has self-flow 5; locations 0 and 1 have self-dists
        // 2 and 0 — the optimum parks facility 0 on location 1.
        let flow = vec![5, 0, 0, 0];
        let dist = vec![2, 1, 1, 0];
        let inst = QapInstance::new(2, flow, dist);
        assert_eq!(inst.cost(&[0, 1]), 10);
        assert_eq!(inst.cost(&[1, 0]), 0);
        let problem = QapProblem::with_default_bound(inst);
        let report = solve(&problem, None);
        assert_eq!(report.best_cost, Some(0));
    }
}
