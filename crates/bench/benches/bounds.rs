//! Bounding-operator benchmarks: the Johnson two-machine bound over all
//! machine pairs against its one-machine scalar reference at Ta056 size
//! (50×20) — the cost/strength trade-off at the heart of B&B
//! engineering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridbnb_flowshop::bounds::{one_machine_bound, JobSet, JohnsonBound};
use gridbnb_flowshop::makespan::{makespan, push_job};
use gridbnb_flowshop::taillard::{generate, ta056};
use std::hint::black_box;

fn bench_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounds");
    for (label, instance) in [("20x5", generate(20, 5, 873654221)), ("50x20", ta056())] {
        // A quarter-scheduled state.
        let prefix_len = instance.jobs() / 4;
        let mut heads = vec![0u64; instance.machines()];
        let mut remaining = JobSet::full(instance.jobs());
        for j in 0..prefix_len {
            push_job(&instance, &mut heads, j);
            remaining = remaining.without(j);
        }
        group.bench_with_input(
            BenchmarkId::new("one_machine", label),
            &(&instance, &heads, remaining),
            |b, (inst, heads, remaining)| {
                b.iter(|| one_machine_bound(black_box(inst), black_box(heads), *remaining))
            },
        );
        let jb = JohnsonBound::new(&instance);
        group.bench_with_input(
            BenchmarkId::new("johnson_all", label),
            &(&heads, remaining),
            |b, (heads, remaining)| b.iter(|| jb.bound(black_box(heads), *remaining)),
        );
        group.bench_with_input(
            BenchmarkId::new("makespan_full", label),
            &instance,
            |b, inst| {
                let schedule: Vec<usize> = (0..inst.jobs()).collect();
                b.iter(|| makespan(black_box(inst), black_box(&schedule)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_bounds);
criterion_main!(benches);
