//! Quickstart: solve a flowshop instance exactly with the grid-enabled
//! B&B on local threads.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gridbnb::core::runtime::{run, RuntimeConfig};
use gridbnb::flowshop::neh::neh;
use gridbnb::flowshop::{makespan::makespan, taillard, FlowshopProblem};

fn main() {
    // A Taillard-style 11×5 instance (exactly solvable in well under a
    // second; Ta056 itself took the paper 22 CPU-years).
    let instance = taillard::generate(11, 5, 2_006_100);
    println!(
        "instance: {} jobs x {} machines",
        instance.jobs(),
        instance.machines()
    );

    // 1. Heuristic upper bound (the paper seeded its runs with the best
    //    known cost from iterated greedy).
    let (neh_schedule, neh_cost) = neh(&instance);
    println!("NEH upper bound: {neh_cost} via {neh_schedule:?}");

    // 2. Exact resolution on 4 worker threads with the Johnson bound.
    let problem = FlowshopProblem::with_default_bound(instance.clone());
    let config = RuntimeConfig::new(4).with_initial_upper_bound(neh_cost + 1);
    let report = run(&problem, &config);

    let optimum = report.proven_optimum.expect("search space is non-empty");
    println!("proven optimum: {optimum}");
    if let Some(solution) = &report.solution {
        let schedule = problem.decode_ranks(&solution.leaf_ranks);
        println!("optimal schedule: {schedule:?}");
        assert_eq!(makespan(&instance, &schedule), optimum);
    }
    println!(
        "explored {} nodes in {} work units ({} partitions, {} duplications)",
        report.total_explored(),
        report.coordinator_stats.work_allocations,
        report.coordinator_stats.partitions,
        report.coordinator_stats.duplications,
    );
    println!(
        "worker exploitation {:.1}%, farmer exploitation {:.2}%, redundancy {:.3}%",
        report.worker_exploitation() * 100.0,
        report.farmer_exploitation() * 100.0,
        report.redundancy() * 100.0,
    );
}
