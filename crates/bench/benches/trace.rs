//! Replicable-mode overhead: full W=8 S=4 flowshop resolutions, default
//! policy vs threaded replicable mode with trace recording.
//!
//! Replicable mode swaps the position-based steal heuristics for
//! ordered rules and records every handout, journal delta, steal and
//! cutoff into the run-trace — all inside the shard critical sections,
//! so the price shows up directly in contact throughput. CI gates the
//! ratio: the replicable+trace run must keep **≥ 0.7×** the default
//! configuration's throughput on the same workload (the threaded
//! variant is benched — the deterministic driver is single-threaded by
//! design and not a throughput configuration).

use criterion::{criterion_group, criterion_main, Criterion};
use gridbnb_core::runtime::{run, RuntimeConfig};
use gridbnb_core::UBig;
use gridbnb_flowshop::taillard::generate;
use gridbnb_flowshop::FlowshopProblem;
use std::hint::black_box;

const WORKERS: usize = 8;
const SHARDS: usize = 4;

fn problem() -> FlowshopProblem {
    FlowshopProblem::with_default_bound(generate(10, 5, 301))
}

fn base_config() -> RuntimeConfig {
    let mut config = RuntimeConfig::new(WORKERS).with_shards(SHARDS);
    config.poll_nodes = 1_000;
    config.coordinator.duplication_threshold = UBig::from(64u64);
    config.coordinator.holder_timeout_ns = 50_000_000;
    config
}

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.sample_size(10);
    let problem = problem();

    group.bench_function("default_w8s4", |b| {
        let config = base_config();
        b.iter(|| black_box(run(&problem, &config)))
    });

    group.bench_function("replicable_trace_w8s4", |b| {
        let config = base_config().with_replicable_threads(2007);
        b.iter(|| black_box(run(&problem, &config)))
    });

    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
