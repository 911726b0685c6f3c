//! End-to-end simulator tests: runs complete, conservation holds, and
//! the qualitative claims of the paper (high worker exploitation, low
//! farmer load, sub-percent redundancy) emerge from the protocol.

use gridbnb_bigint::UBig;
use gridbnb_core::CoordinatorConfig;
use gridbnb_grid::{paper_pool, simulate, SimConfig, VolatilityModel, WorkloadModel};

fn small_sim(total_nodes: f64, seed: u64) -> (SimConfig, WorkloadModel) {
    let pool = paper_pool().scaled_down(40); // ~50 processors
    let workload = WorkloadModel::irregular(UBig::factorial(50), total_nodes, 256, 2.0, seed);
    let mut config = SimConfig::new(pool);
    config.seed = seed;
    config.coordinator = CoordinatorConfig {
        duplication_threshold: UBig::factorial(50).div_rem_u64(1_000_000).0,
        holder_timeout_ns: 10 * 60 * 1_000_000_000, // 10 min
        initial_upper_bound: Some(3680),
    };
    config.update_period_s = 30.0;
    config.sample_period_s = 600.0;
    (config, workload)
}

#[test]
fn simulation_terminates_and_covers_workload() {
    let (config, workload) = small_sim(2e8, 42);
    let report = simulate(&config, &workload);
    assert!(report.completed, "run did not terminate");
    // All node visits were performed, possibly with redundancy.
    assert!(
        report.explored_nodes >= workload.total_nodes() * 0.999,
        "explored {} < total {}",
        report.explored_nodes,
        workload.total_nodes()
    );
    assert!(report.wall_s > 0.0);
    assert!(
        report.cpu_s > report.wall_s,
        "parallelism should compress time"
    );
}

#[test]
fn worker_exploitation_high_farmer_low() {
    // The paper's headline efficiency claim: workers ~97 % busy, farmer
    // ~1.7 % busy. The shape must reproduce.
    let (config, workload) = small_sim(5e8, 7);
    let report = simulate(&config, &workload);
    assert!(report.completed);
    assert!(
        report.worker_exploitation > 0.80,
        "worker exploitation too low: {}",
        report.worker_exploitation
    );
    assert!(
        report.farmer_exploitation < 0.20,
        "farmer exploitation too high: {}",
        report.farmer_exploitation
    );
    assert!(report.worker_exploitation > 10.0 * report.farmer_exploitation);
}

#[test]
fn redundancy_stays_small() {
    let (config, workload) = small_sim(3e8, 13);
    let report = simulate(&config, &workload);
    assert!(report.completed);
    assert!(
        report.redundant_ratio < 0.10,
        "redundancy {} too high",
        report.redundant_ratio
    );
}

#[test]
fn samples_track_volatility() {
    let (mut config, workload) = small_sim(8e8, 99);
    config.volatility = VolatilityModel {
        rampup_s: 1_800.0,
        ..VolatilityModel::default()
    };
    let report = simulate(&config, &workload);
    assert!(report.samples.len() >= 3, "need a time series");
    let max_online = report.samples.iter().map(|s| s.online).max().unwrap();
    assert!(max_online > 0);
    assert!(report.max_workers >= max_online);
    // Exploited never exceeds online.
    for s in &report.samples {
        assert!(s.exploited <= s.online);
    }
}

#[test]
fn sharded_sim_completes_with_stealing() {
    let (mut config, workload) = small_sim(2e8, 42);
    config.shards = 4;
    let report = simulate(&config, &workload);
    assert!(report.completed, "sharded run did not terminate");
    assert!(
        report.explored_nodes >= workload.total_nodes() * 0.999,
        "sharded run lost work: {} < {}",
        report.explored_nodes,
        workload.total_nodes()
    );
    // Stealing bookkeeping is symmetric across the shard set.
    assert_eq!(
        report.coordinator_stats.steals_donated,
        report.coordinator_stats.steals_adopted
    );
    assert_eq!(report.coordinator_stats.steals_donated, report.steals);
    // The efficiency shape survives sharding.
    assert!(
        report.worker_exploitation > 0.80,
        "worker exploitation too low: {}",
        report.worker_exploitation
    );
}

#[test]
fn sharded_sim_is_deterministic_given_seed() {
    let (mut config, workload) = small_sim(1e8, 5);
    config.shards = 3;
    let a = simulate(&config, &workload);
    let b = simulate(&config, &workload);
    assert_eq!(a.work_allocations, b.work_allocations);
    assert_eq!(a.steals, b.steals);
    assert!((a.wall_s - b.wall_s).abs() < 1e-9);
    assert!((a.explored_nodes - b.explored_nodes).abs() < 1.0);
}

#[test]
fn batched_sharded_sim_completes() {
    let (mut config, workload) = small_sim(2e8, 42);
    config.shards = 4;
    let report = simulate(&config, &workload);
    assert!(report.completed, "batched sharded run did not terminate");
    assert!(
        report.explored_nodes >= workload.total_nodes() * 0.999,
        "batched sharded run lost work"
    );
    assert_eq!(
        report.coordinator_stats.steals_donated,
        report.coordinator_stats.steals_adopted
    );
    // Every delivery is one contact carrying one protocol op: each
    // checkpoint reaches the coordinator once, and each allocation
    // answers a work request of its own.
    assert_eq!(report.coordinator_stats.updates, report.checkpoint_ops);
    assert!(report.contacts >= report.checkpoint_ops + report.work_allocations);
}

#[test]
#[should_panic(expected = "invalid sim coordinator config")]
fn invalid_sim_config_fails_fast() {
    let (mut config, workload) = small_sim(1e8, 5);
    config.coordinator.duplication_threshold = UBig::zero();
    let _ = simulate(&config, &workload);
}

#[test]
fn deterministic_given_seed() {
    let (config, workload) = small_sim(1e8, 5);
    let a = simulate(&config, &workload);
    let b = simulate(&config, &workload);
    assert_eq!(a.work_allocations, b.work_allocations);
    assert_eq!(a.checkpoint_ops, b.checkpoint_ops);
    assert!((a.wall_s - b.wall_s).abs() < 1e-9);
    assert!((a.explored_nodes - b.explored_nodes).abs() < 1.0);
}

#[test]
fn more_workers_finish_faster() {
    let workload = WorkloadModel::uniform(UBig::factorial(50), 4e8);
    let mut small = SimConfig::new(paper_pool().scaled_down(100)); // ~19 procs
    let mut large = SimConfig::new(paper_pool().scaled_down(20)); // ~95 procs
    for c in [&mut small, &mut large] {
        c.coordinator.duplication_threshold = UBig::factorial(50).div_rem_u64(1_000_000).0;
        c.coordinator.initial_upper_bound = Some(3680);
        c.volatility = VolatilityModel {
            participation: 1.0,
            rampup_s: 60.0,
            ..VolatilityModel::default()
        };
    }
    let r_small = simulate(&small, &workload);
    let r_large = simulate(&large, &workload);
    assert!(r_small.completed && r_large.completed);
    assert!(
        r_large.wall_s < r_small.wall_s,
        "more processors should shorten the run: {} vs {}",
        r_large.wall_s,
        r_small.wall_s
    );
}

#[test]
fn work_allocations_scale_with_churn() {
    let workload = WorkloadModel::uniform(UBig::factorial(50), 4e8);
    let mut stable = SimConfig::new(paper_pool().scaled_down(50));
    stable.coordinator.duplication_threshold = UBig::factorial(50).div_rem_u64(1_000_000).0;
    let mut churny = stable.clone();
    churny.volatility = VolatilityModel {
        campus: gridbnb_grid::ChurnProfile {
            mean_up_s: 1_800.0,
            mean_down_s: 1_800.0,
            diurnal_amplitude: 0.5,
        },
        dedicated: gridbnb_grid::ChurnProfile {
            mean_up_s: 3_600.0,
            mean_down_s: 3_600.0,
            diurnal_amplitude: 0.2,
        },
        rampup_s: 600.0,
        participation: 1.0,
    };
    let r_stable = simulate(&stable, &workload);
    let r_churny = simulate(&churny, &workload);
    assert!(r_stable.completed && r_churny.completed);
    assert!(
        r_churny.work_allocations > r_stable.work_allocations,
        "churn should force more allocations: {} vs {}",
        r_churny.work_allocations,
        r_stable.work_allocations
    );
}
