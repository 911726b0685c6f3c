//! Thread-runtime benchmarks: end-to-end parallel resolution and the
//! speedup over worker counts (the laptop-scale analogue of the paper's
//! grid scalability).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridbnb_core::runtime::{run, RuntimeConfig};
use gridbnb_core::UBig;
use gridbnb_engine::toy::FullEnumeration;
use gridbnb_flowshop::taillard::generate;
use gridbnb_flowshop::FlowshopProblem;
use std::hint::black_box;

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime");
    group.sample_size(10);

    // Fixed exhaustive workload (109 600 nodes): pure scaling shape.
    let enumeration = FullEnumeration::new(8);
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("enumerate_8", workers),
            &workers,
            |b, &workers| {
                let mut config = RuntimeConfig::new(workers);
                config.poll_nodes = 4_000;
                config.coordinator.duplication_threshold = UBig::from(256u64);
                b.iter(|| black_box(run(&enumeration, &config)))
            },
        );
    }

    // A real bound-driven flowshop resolution.
    let problem = FlowshopProblem::with_default_bound(generate(10, 5, 77));
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("flowshop_10x5", workers),
            &workers,
            |b, &workers| {
                let config = RuntimeConfig::new(workers);
                b.iter(|| black_box(run(&problem, &config)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
