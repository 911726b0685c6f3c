//! A small exact-resolution campaign over Nugent-style QAP instances:
//! greedy + pairwise-exchange upper bounds first, then a sharded
//! parallel proof of optimality — the Nug30-lineage pipeline of the
//! paper's Table 3 at laptop scale, run through the same
//! engine/coordinator/shard stack as the flowshop campaign.
//!
//! ```sh
//! cargo run --release --example qap_campaign            # full ladder
//! cargo run --release --example qap_campaign -- --small # CI-sized
//! ```

use gridbnb::core::runtime::{run, RuntimeConfig};
use gridbnb::qap::greedy::{greedy_upper_bound, GreedyParams};
use gridbnb::qap::{QapInstance, QapProblem};
use std::time::Instant;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    // (rows, cols, seed): rectangular grids at nug-ish sizes.
    let grids: &[(usize, usize, u64)] = if small {
        &[(2, 3, 1), (3, 3, 7)]
    } else {
        &[(2, 3, 1), (3, 3, 7), (3, 4, 2007)]
    };
    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>7} {:>9} {:>8}",
        "instance", "greedyUB", "optimum", "nodes", "steals", "time", "gap(UB)"
    );
    for &(rows, cols, seed) in grids {
        let n = rows * cols;
        let instance = QapInstance::nugent_style(rows, cols, seed);
        let (_, ub) = greedy_upper_bound(&instance, &GreedyParams::default());

        let problem = QapProblem::with_default_bound(instance);
        let mut config = RuntimeConfig::new(4)
            .with_shards(2)
            .with_initial_upper_bound(ub + 1);
        config.poll_nodes = 500;
        let t0 = Instant::now();
        let report = run(&problem, &config);
        let elapsed = t0.elapsed();
        let optimum = report.proven_optimum.expect("bounded above by greedy+1");
        let gap = (ub as f64 / optimum as f64 - 1.0) * 100.0;
        println!(
            "{:<10} {:>8} {:>8} {:>10} {:>7} {:>8.1?} {:>7.2}%",
            format!("nug{n}-{rows}x{cols}"),
            ub,
            optimum,
            report.total_explored(),
            report.steals,
            elapsed,
            gap,
        );
        assert!(ub >= optimum, "heuristic can never beat the optimum");
    }
    println!("\ngreedy+exchange found the optimum whenever gap = 0.00% — on Nug30 the grid resolution started from a heuristic bound the same way.");
}
