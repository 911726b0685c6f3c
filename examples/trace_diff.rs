//! Replicable-mode demonstration and cross-run trace differ.
//!
//! Runs the same flowshop search twice in deterministic replicable mode
//! (same seed), prints both run-traces' fingerprints, and diffs them
//! event by event with [`diff_traces`]. Two same-seed runs must be
//! byte-identical; the process exits non-zero if they ever diverge, so
//! CI can gate on it directly.
//!
//! ```sh
//! cargo run --release --example trace_diff
//! cargo run --release --example trace_diff -- --seed 42 --workers 8 --shards 4
//! # Show a deliberate divergence (two different seeds):
//! cargo run --release --example trace_diff -- --cross-seed
//! ```

use gridbnb::core::runtime::{run, RunReport, RuntimeConfig};
use gridbnb::core::{diff_traces, TraceReplayer, UBig};
use gridbnb::engine::solve;
use gridbnb::flowshop::{taillard, FlowshopProblem, Problem};
use std::process::ExitCode;

fn flag_value(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn replicable_run(
    problem: &FlowshopProblem,
    seed: u64,
    workers: usize,
    shards: usize,
) -> RunReport {
    let mut config = RuntimeConfig::new(workers)
        .with_shards(shards)
        .with_replicable(seed);
    config.poll_nodes = 1_000;
    config.coordinator.duplication_threshold = UBig::from(64u64);
    config.coordinator.holder_timeout_ns = 50_000_000;
    run(problem, &config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = flag_value(&args, "--seed").unwrap_or(2007);
    let workers = flag_value(&args, "--workers").unwrap_or(8) as usize;
    let shards = flag_value(&args, "--shards").unwrap_or(4) as usize;
    let cross_seed = args.iter().any(|a| a == "--cross-seed");

    let instance = taillard::generate(10, 5, 301);
    let problem = FlowshopProblem::with_default_bound(instance);
    let expected = solve(&problem, None).best_cost;

    let seed_b = if cross_seed {
        seed.wrapping_add(1)
    } else {
        seed
    };
    println!("replicable flowshop 10x5, W={workers} S={shards}");
    println!("  run A: seed {seed}");
    let a = replicable_run(&problem, seed, workers, shards);
    println!("  run B: seed {seed_b}");
    let b = replicable_run(&problem, seed_b, workers, shards);

    for (name, report) in [("A", &a), ("B", &b)] {
        let trace = report
            .trace
            .as_ref()
            .expect("replicable run records a trace");
        println!(
            "  run {name}: optimum {:?}, {} nodes, {} steals, {} trace events ({} bytes)",
            report.proven_optimum,
            report.total_explored(),
            report.steals,
            trace.len(),
            trace.encode().len(),
        );
        assert_eq!(report.proven_optimum, expected, "run {name} lost exactness");
    }

    // Replay run A's trace from the partitioned root: it must land
    // exactly on the drained final state with A's best solution.
    let ta = a.trace.as_ref().unwrap();
    let mut replayer = TraceReplayer::new(&problem.shape().root_range(), shards);
    replayer.replay(&ta.events()).expect("trace replay failed");
    replayer
        .verify_snapshot(&(vec![Vec::new(); shards], a.solution.clone()))
        .expect("replayed end state diverges from the run's final state");
    println!(
        "  replay: {} events -> drained final state, verified",
        replayer.applied()
    );

    let tb = b.trace.as_ref().unwrap();
    match diff_traces(&ta.events(), &tb.events()) {
        None => {
            assert_eq!(ta.encode(), tb.encode(), "equal events but unequal bytes");
            println!("  traces byte-identical ({} events): replicable", ta.len());
            ExitCode::SUCCESS
        }
        Some(divergence) => {
            println!("  traces diverge: {divergence}");
            if cross_seed {
                println!("  (expected under --cross-seed: different seeds, different search)");
                ExitCode::SUCCESS
            } else {
                println!("  REPLICABILITY VIOLATION: same seed produced different searches");
                ExitCode::FAILURE
            }
        }
    }
}
