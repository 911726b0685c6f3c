//! Sharded-coordinator demonstration: the same flowshop resolution run
//! through a one-shard [`gridbnb::core::ShardRouter`] (the default),
//! then through four shards with work stealing — identical optimum,
//! and the sim shows the sharded farmer under grid-scale load.
//!
//! ```sh
//! cargo run --release --example sharded_campaign
//! ```

use gridbnb::bigint::UBig;
use gridbnb::core::runtime::{run, RuntimeConfig};
use gridbnb::engine::solve;
use gridbnb::flowshop::{taillard, FlowshopProblem};
use gridbnb::grid::{paper_pool, simulate, SimConfig, WorkloadModel};

fn main() {
    let instance = taillard::generate(10, 5, 20_077);
    let problem = FlowshopProblem::with_default_bound(instance);
    let expected = solve(&problem, None).best_cost;
    println!("sequential optimum: {expected:?}");

    // ---- The same threaded resolution over 1 lock, then 4.
    for shards in [1usize, 4] {
        let mut config = RuntimeConfig::new(4).with_shards(shards);
        config.poll_nodes = 500;
        let report = run(&problem, &config);
        println!(
            "{shards} shard(s): optimum {:?}, {} allocations, {} steals, redundancy {:.2}%",
            report.proven_optimum,
            report.coordinator_stats.work_allocations,
            report.steals,
            report.redundancy() * 100.0,
        );
        assert_eq!(report.proven_optimum, expected, "sharding must stay exact");
    }

    // ---- One worker, eight shards: seven slices are only reachable by
    // stealing, and the run is still exact.
    let config = RuntimeConfig::new(1).with_shards(8);
    let report = run(&problem, &config);
    println!(
        "1 worker / 8 shards: optimum {:?}, {} steals (work reached every slice)",
        report.proven_optimum, report.steals
    );
    assert_eq!(report.proven_optimum, expected);
    assert!(report.steals >= 7);

    // ---- Grid-scale: the simulator drives the identical router over a
    // volatile pool.
    let pool = paper_pool().scaled_down(40);
    let workload = WorkloadModel::irregular(UBig::factorial(50), 2e8, 256, 2.0, 2007);
    let mut sim = SimConfig::new(pool);
    sim.shards = 4;
    sim.coordinator.duplication_threshold = UBig::factorial(50).div_rem_u64(1_000_000).0;
    sim.coordinator.initial_upper_bound = Some(3680);
    sim.update_period_s = 30.0;
    let report = simulate(&sim, &workload);
    println!(
        "sharded sim: completed {}, {:.1} sim-days, {} allocations, {} steals, redundancy {:.2}%",
        report.completed,
        report.wall_s / 86_400.0,
        report.work_allocations,
        report.steals,
        report.redundant_ratio * 100.0,
    );
    assert!(report.completed);
}
