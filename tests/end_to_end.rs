//! Cross-crate end-to-end tests: the full pipeline from instance
//! generation through heuristics to parallel exact resolution, checked
//! for agreement across every execution mode the workspace offers.

use gridbnb::core::runtime::{run, RuntimeConfig};
use gridbnb::core::UBig;
use gridbnb::engine::{solve, solve_interval, Problem};
use gridbnb::flowshop::ig::{iterated_greedy, IgParams};
use gridbnb::flowshop::makespan::makespan;
use gridbnb::flowshop::neh::neh;
use gridbnb::flowshop::{taillard, FlowshopProblem};
use gridbnb::tsp::{TspInstance, TspProblem};

#[test]
fn flowshop_pipeline_agrees_across_modes() {
    let instance = taillard::generate(9, 5, 20_060_707);

    // Heuristics give upper bounds.
    let (neh_schedule, neh_cost) = neh(&instance);
    assert_eq!(makespan(&instance, &neh_schedule), neh_cost);
    let (ig_schedule, ig_cost) = iterated_greedy(
        &instance,
        &IgParams {
            iterations: 80,
            ..IgParams::default()
        },
    );
    assert_eq!(makespan(&instance, &ig_schedule), ig_cost);
    assert!(ig_cost <= neh_cost);

    // Sequential exact resolution.
    let problem = FlowshopProblem::with_default_bound(instance.clone());
    let optimum = solve(&problem, None).best_cost.unwrap();
    assert!(ig_cost >= optimum);

    // Parallel resolution, seeded with the IG bound like the paper.
    let report = run(
        &problem,
        &RuntimeConfig::new(4).with_initial_upper_bound(ig_cost + 1),
    );
    assert_eq!(report.proven_optimum, Some(optimum));

    // The optimal schedule decodes and re-evaluates exactly.
    if let Some(sol) = &report.solution {
        let schedule = problem.decode_ranks(&sol.leaf_ranks);
        assert_eq!(makespan(&instance, &schedule), optimum);
    }
}

#[test]
fn interval_partition_union_equals_whole_space() {
    // Cutting the tree into k interval work units and solving them
    // independently (as grid workers would) recovers the global optimum
    // — the foundational property of the coding.
    let instance = taillard::generate(8, 4, 555);
    let problem = FlowshopProblem::with_default_bound(instance);
    let full = solve(&problem, None);
    let root = problem.shape().root_range();
    for parts in [2u64, 5, 16] {
        let mut best: Option<u64> = None;
        let mut last_end = root.begin().clone();
        for k in 1..=parts {
            let end = if k == parts {
                root.end().clone()
            } else {
                root.end().mul_div_floor(k, parts)
            };
            let piece = gridbnb::coding::Interval::new(last_end.clone(), end.clone());
            last_end = end;
            let sub = solve_interval(&problem, &piece, None);
            best = [best, sub.best_cost].into_iter().flatten().min();
        }
        assert_eq!(best, full.best_cost, "{parts}-way split lost the optimum");
    }
}

#[test]
fn tsp_and_flowshop_share_the_same_machinery() {
    // The identical runtime solves both problem types in one process.
    let fs = FlowshopProblem::with_default_bound(taillard::generate(8, 4, 99));
    let tsp = TspProblem::new(TspInstance::random_euclidean(8, 99));
    let fs_expected = solve(&fs, None).best_cost;
    let tsp_expected = solve(&tsp, None).best_cost;
    let fs_report = run(&fs, &RuntimeConfig::new(3));
    let tsp_report = run(&tsp, &RuntimeConfig::new(3));
    assert_eq!(fs_report.proven_optimum, fs_expected);
    assert_eq!(tsp_report.proven_optimum, tsp_expected);
}

#[test]
fn ta056_artifacts_are_coherent() {
    // The Ta056 objects all exist and interoperate at full 50! scale,
    // regardless of the seed-provenance caveat (see flowshop tests).
    let instance = taillard::ta056();
    let problem = FlowshopProblem::with_default_bound(instance.clone());
    let shape = problem.shape();
    assert_eq!(*shape.total_leaves(), UBig::factorial(50));

    // The published schedule encodes to a leaf, decodes back, and its
    // number is inside the root range.
    let ranks = problem.encode_schedule(&taillard::TA056_OPTIMAL_SCHEDULE);
    assert_eq!(
        problem.decode_ranks(&ranks),
        taillard::TA056_OPTIMAL_SCHEDULE.to_vec()
    );
    let leaf = gridbnb::coding::NodePath::from_ranks(ranks);
    assert!(shape.root_range().contains(&leaf.number(&shape)));

    // The root bound is admissible w.r.t. the published makespan value.
    let root_bound = problem.lower_bound(&problem.root_state());
    let published = makespan(&instance, &taillard::TA056_OPTIMAL_SCHEDULE);
    assert!(root_bound <= published);
}

#[test]
fn explorer_partial_run_on_ta056_scale_tree() {
    // Actually explore a tiny interval of the real Ta056 tree: 50!-sized
    // positions, real bounds, real branching.
    let problem = FlowshopProblem::with_default_bound(taillard::ta056());
    let shape = problem.shape();
    let begin = shape.total_leaves().div_rem_u64(7).0;
    let end = &begin + &UBig::from(5_000u64);
    let interval = gridbnb::coding::Interval::new(begin, end);
    let report = solve_interval(&problem, &interval, Some(4_500));
    // 5000 leaf-numbers: some cost must come back (bound 4500 is loose
    // for most schedules), and the explorer must have terminated.
    assert!(report.stats.explored > 0);
}
