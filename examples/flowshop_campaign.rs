//! A small exact-resolution campaign over Taillard-style flowshop
//! instances: heuristic upper bounds first (NEH + iterated greedy), then
//! parallel proof of optimality — the paper's §5 pipeline at laptop
//! scale.
//!
//! ```sh
//! cargo run --release --example flowshop_campaign
//! ```

use gridbnb::core::runtime::{run, RuntimeConfig};
use gridbnb::flowshop::ig::{iterated_greedy, IgParams};
use gridbnb::flowshop::neh::neh;
use gridbnb::flowshop::{taillard, FlowshopProblem};
use std::time::Instant;

fn main() {
    println!(
        "{:<12} {:>6} {:>6} {:>8} {:>10} {:>9} {:>8}",
        "instance", "NEH", "IG", "optimum", "nodes", "time", "gap(IG)"
    );
    for (k, seed) in [4221i64, 58_455, 9_000_001, 777, 123_456]
        .iter()
        .enumerate()
    {
        let instance = taillard::generate(10, 5, *seed);
        let (_, neh_cost) = neh(&instance);
        let (_, ig_cost) = iterated_greedy(
            &instance,
            &IgParams {
                iterations: 150,
                ..IgParams::default()
            },
        );

        let problem = FlowshopProblem::with_default_bound(instance);
        let config = RuntimeConfig::new(4).with_initial_upper_bound(ig_cost + 1);
        let t0 = Instant::now();
        let report = run(&problem, &config);
        let elapsed = t0.elapsed();
        let optimum = report.proven_optimum.expect("bounded above by IG+1");
        let gap = (ig_cost as f64 / optimum as f64 - 1.0) * 100.0;
        println!(
            "{:<12} {:>6} {:>6} {:>8} {:>10} {:>8.1?} {:>7.2}%",
            format!("synth{:02}", k + 1),
            neh_cost,
            ig_cost,
            optimum,
            report.total_explored(),
            elapsed,
            gap,
        );
        assert!(ig_cost >= optimum, "heuristic can never beat the optimum");
    }
    println!("\nIG found the optimum whenever gap = 0.00% — on Ta056 the paper's IG bound (3681) was 2 off the true 3679.");
}
