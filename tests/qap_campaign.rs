//! End-to-end QAP campaign: a Nugent-style n=12 instance is resolved to
//! proven optimality through every execution path — the sequential
//! engine and the sharded runtime (direct `ShardRouter` contacts) — and
//! the Gilmore–Lawler bound demonstrably out-prunes the scalar screen.
//! This is the QAP counterpart of the flowshop Ta056 pipeline and the
//! proof that the interval-coded stack is problem-agnostic.

use gridbnb::coding::TreeShape;
use gridbnb::core::runtime::{run, RuntimeConfig};
use gridbnb::engine::{solve, Problem};
use gridbnb::qap::bounds::screen_bound;
use gridbnb::qap::greedy::{greedy_upper_bound, GreedyParams};
use gridbnb::qap::{QapInstance, QapProblem};

/// The campaign's flagship instance: 12 facilities on a 3×4 grid.
fn nugent12() -> QapInstance {
    QapInstance::nugent_style(3, 4, 2007)
}

#[test]
fn nugent12_resolved_to_proven_optimality_sequential_and_sharded() {
    let instance = nugent12();

    // Heuristic upper bound (the campaign's IG analogue).
    let (placement, ub) = greedy_upper_bound(&instance, &GreedyParams::default());
    let mut sorted = placement.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..12).collect::<Vec<_>>(), "UB placement valid");
    assert_eq!(ub, instance.cost(&placement));

    // Path 1: sequential engine over the whole root interval.
    let problem = QapProblem::with_default_bound(instance.clone());
    let sequential = solve(&problem, Some(ub + 1));
    let optimum = sequential
        .best_cost
        .expect("ub+1 admits at least one improving leaf");
    assert!(optimum <= ub, "proof cannot exceed the heuristic bound");
    assert!(sequential.stats.pruned > 0, "n=12 needs pruning to finish");

    // The proof identifies a real placement of that cost.
    let best = sequential.best.expect("solution recorded");
    let proof_placement = problem.decode_ranks(&best.leaf_ranks);
    assert_eq!(instance.cost(&proof_placement), optimum);

    // Path 2: the sharded runtime — workers contact their home shard of
    // a ShardRouter directly, cross-shard stealing reaches every slice.
    let mut config = RuntimeConfig::new(4)
        .with_shards(4)
        .with_initial_upper_bound(ub + 1);
    config.poll_nodes = 500;
    let sharded = run(&problem, &config);
    assert_eq!(
        sharded.proven_optimum,
        Some(optimum),
        "sharded resolution must prove the same optimum"
    );
    assert!(sharded.total_explored() > 0);
}

/// The QAP searched under the scalar rearrangement screen alone, the
/// weaker bound Gilmore–Lawler is measured against. A state is the
/// placement (facility `d` at `placement[d]`), the used-location mask and
/// the exact placed–placed cost; branch `rank` places the next facility
/// at the `rank`-th free location, as [`QapProblem`] does.
struct ScreenSearch(QapInstance);

impl Problem for ScreenSearch {
    type State = (Vec<u16>, u64, u64);

    fn shape(&self) -> TreeShape {
        TreeShape::permutation(self.0.n())
    }

    fn root_state(&self) -> Self::State {
        (Vec::new(), 0, 0)
    }

    fn branch(&self, (placement, used, cost): &Self::State, rank: u64) -> Self::State {
        let inst = &self.0;
        let location = (0..inst.n())
            .filter(|l| used & (1 << l) == 0)
            .nth(rank as usize)
            .expect("rank below the free location count");
        let facility = placement.len();
        let mut cost = cost + inst.flow(facility, facility) * inst.dist(location, location);
        for (other, &loc) in placement.iter().enumerate() {
            let loc = usize::from(loc);
            cost += inst.flow(other, facility) * inst.dist(loc, location)
                + inst.flow(facility, other) * inst.dist(location, loc);
        }
        let mut placement = placement.clone();
        placement.push(location as u16);
        (placement, used | (1 << location), cost)
    }

    fn lower_bound(&self, (placement, used, cost): &Self::State) -> u64 {
        screen_bound(&self.0, placement, *used, *cost)
    }

    fn leaf_cost(&self, (_, _, cost): &Self::State) -> u64 {
        *cost
    }
}

#[test]
fn gilmore_lawler_tier_expands_measurably_fewer_nodes_than_screen() {
    let instance = QapInstance::nugent_style(3, 3, 7);
    let (_, ub) = greedy_upper_bound(&instance, &GreedyParams::default());

    let screen = solve(&ScreenSearch(instance.clone()), Some(ub + 1));
    let gl = solve(&QapProblem::with_default_bound(instance), Some(ub + 1));

    // Both bounds prove the same optimum…
    assert_eq!(screen.best_cost, gl.best_cost);
    // …but the Gilmore–Lawler tier expands *measurably* fewer nodes
    // (on this instance the gap is well over 2×).
    assert!(
        screen.stats.explored >= 2 * gl.stats.explored,
        "GL should at least halve the screen's {} nodes (got {})",
        screen.stats.explored,
        gl.stats.explored
    );
}

#[test]
fn sharded_resolution_is_exact_even_when_one_worker_must_steal_everything() {
    // One worker, four shards: three slices are only reachable through
    // work stealing — the run must still terminate with the optimum.
    let instance = QapInstance::nugent_style(2, 4, 5);
    let problem = QapProblem::with_default_bound(instance.clone());
    let expected = solve(&problem, None).best_cost;
    let mut config = RuntimeConfig::new(1).with_shards(4);
    config.poll_nodes = 200;
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected);
    assert!(
        report.steals >= 3,
        "unserved shards are drained by stealing"
    );
}
