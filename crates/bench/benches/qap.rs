//! QAP campaign benches: bound-evaluation micro-costs, the greedy
//! upper-bound pipeline, and full sequential Gilmore–Lawler resolutions
//! on Nugent-style grid instances (ungated; CI uploads them).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridbnb_engine::solve;
use gridbnb_qap::bounds::{gilmore_lawler_bound, screen_bound};
use gridbnb_qap::greedy::{greedy_upper_bound, GreedyParams};
use gridbnb_qap::{QapInstance, QapProblem};
use std::hint::black_box;

fn bench_qap(c: &mut Criterion) {
    let mut group = c.benchmark_group("qap");
    group.sample_size(10);

    // Bound evaluation at the root of the flagship 3×4 instance.
    let nug12 = QapInstance::nugent_style(3, 4, 2007);
    group.bench_with_input(
        BenchmarkId::new("screen_bound_root", 12),
        &nug12,
        |b, inst| b.iter(|| black_box(screen_bound(inst, &[], 0, 0))),
    );
    group.bench_with_input(BenchmarkId::new("gl_bound_root", 12), &nug12, |b, inst| {
        b.iter(|| black_box(gilmore_lawler_bound(inst, &[], 0, 0)))
    });
    group.bench_with_input(BenchmarkId::new("greedy_ub", 12), &nug12, |b, inst| {
        b.iter(|| black_box(greedy_upper_bound(inst, &GreedyParams::default())))
    });

    // Full sequential resolutions: the 3×3 grid and the flagship.
    let nug9 = QapInstance::nugent_style(3, 3, 7);
    let (_, ub) = greedy_upper_bound(&nug9, &GreedyParams::default());
    let problem9 = QapProblem::with_default_bound(nug9);
    group.bench_with_input(BenchmarkId::new("solve_gl", 9), &problem9, |b, problem| {
        b.iter(|| black_box(solve(problem, Some(ub + 1))))
    });
    let (_, ub12) = greedy_upper_bound(&nug12, &GreedyParams::default());
    let problem12 = QapProblem::with_default_bound(nug12);
    group.bench_with_input(
        BenchmarkId::new("solve_gl", 12),
        &problem12,
        |b, problem| b.iter(|| black_box(solve(problem, Some(ub12 + 1)))),
    );
    group.finish();
}

criterion_group!(benches, bench_qap);
criterion_main!(benches);
