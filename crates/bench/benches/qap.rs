//! QAP campaign benches: bound-evaluation micro-costs, the greedy
//! upper-bound pipeline, and full sequential resolutions under each
//! bound tier on Nugent-style grid instances.
//!
//! The headline pair CI gates on (`BENCH_qap.json`): on the 3×3 grid,
//! the Gilmore–Lawler solve must finish at least as fast as the screen
//! solve — the LAP machinery is ~50× costlier per node, so this only
//! holds because GL prunes the tree much harder, which is exactly the
//! claim worth pinning. The gate compares the screen/GL time ratio
//! (hardware divides out) against the checked-in baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridbnb_engine::solve;
use gridbnb_qap::bounds::{gilmore_lawler_bound, screen_bound};
use gridbnb_qap::greedy::{greedy_upper_bound, GreedyParams};
use gridbnb_qap::{Bound, QapInstance, QapProblem};
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

    // Full sequential resolutions on the 3×3 grid under each tier —
    // same optimum, very different trees (the CI-gated pair).
    let nug9 = QapInstance::nugent_style(3, 3, 7);
    let (_, ub) = greedy_upper_bound(&nug9, &GreedyParams::default());
    for (label, bound) in [
        ("solve_screen", Bound::Screen),
        ("solve_gl", Bound::GilmoreLawler),
    ] {
        let problem = QapProblem::new(nug9.clone(), bound);
        group.bench_with_input(BenchmarkId::new(label, 9), &problem, |b, problem| {
            b.iter(|| black_box(solve(problem, Some(ub + 1))))
        });
    }

    // The flagship resolution end-to-end (GL only: the screen alone
    // would take minutes here).
    let (_, ub12) = greedy_upper_bound(&nug12, &GreedyParams::default());
    let problem12 = QapProblem::new(nug12, Bound::GilmoreLawler);
    group.bench_with_input(
        BenchmarkId::new("solve_gl", 12),
        &problem12,
        |b, problem| b.iter(|| black_box(solve(problem, Some(ub12 + 1)))),
    );
    group.finish();
}

criterion_group!(benches, bench_qap);
criterion_main!(benches);
