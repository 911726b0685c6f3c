//! Pooled-bounding benchmarks: one `lower_bound_batch` call over a
//! sibling pool vs the scalar `lower_bound_against` loop over the same
//! children — the amortization the pooled explorer buys at every
//! internal node. CI gates on the 14×20 Johnson pair (the `fs_proof`
//! campaign row's instance, bound and incumbent) and on the QAP pair;
//! the 14×5 pair, the QAP path pair and the end-to-end explorer numbers
//! are informational.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridbnb_engine::IntervalExplorer;
use gridbnb_flowshop::ig::{iterated_greedy, IgParams};
use gridbnb_flowshop::neh::neh;
use gridbnb_flowshop::taillard::generate;
use gridbnb_flowshop::{FlowshopProblem, Problem};
use gridbnb_qap::{greedy, QapInstance, QapProblem};
use std::hint::black_box;

/// All children of the state reached by branching `prefix_ranks` from
/// the root — exactly the pool the pooled explorer fills at that frame.
fn sibling_pool<P: Problem>(problem: &P, prefix_ranks: &[u64]) -> Vec<P::State> {
    let mut state = problem.root_state();
    for &r in prefix_ranks {
        state = problem.branch(&state, r);
    }
    let arity = problem.shape().arity_at(prefix_ranks.len());
    (0..arity).map(|r| problem.branch(&state, r)).collect()
}

/// Benches one pool both ways: the scalar `lower_bound_against` loop
/// (`{family}_scalar/{label}`) and one `lower_bound_batch` call
/// (`{family}_pooled/{label}`).
fn bench_pool<P: Problem>(
    c: &mut Criterion,
    family: &str,
    label: &str,
    problem: &P,
    pool: &[P::State],
    cutoff: u64,
) {
    let mut group = c.benchmark_group("pool");
    group.bench_function(BenchmarkId::new(format!("{family}_scalar"), label), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for s in pool {
                acc ^= problem.lower_bound_against(black_box(s), cutoff);
            }
            acc
        })
    });
    let mut out = Vec::new();
    group.bench_function(BenchmarkId::new(format!("{family}_pooled"), label), |b| {
        b.iter(|| {
            problem.lower_bound_batch(black_box(pool), cutoff, &mut out);
            out.iter().fold(0u64, |a, &x| a ^ x)
        })
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    // Flowshop, the gated pair: the `fs_proof` campaign row — 14×20
    // Taillard seed 3, Johnson over all 190 pairs, IG+1 as the cutoff —
    // at the depth-2 frame on the IG schedule's own path, so the pool
    // mixes children that survive (and pay every pair) with children
    // the early exit retires after a few pairs.
    let instance = generate(14, 20, 3);
    let (schedule, ub) = iterated_greedy(&instance, &IgParams::default());
    let problem = FlowshopProblem::with_default_bound(instance);
    let ranks = problem.encode_schedule(&schedule);
    let pool = sibling_pool(&problem, &ranks[..2]);
    bench_pool(c, "flowshop", "14x20_johnson", &problem, &pool, ub + 1);

    // Flowshop on a 14×5 instance with an NEH incumbent: few pairs per
    // child, so the pool's shared per-pair pass is a larger share of the
    // work. (`BENCH_pool.json`'s 14×5 rows were recorded when this pair
    // also ran the one-machine bound first; they are not regenerated.)
    let instance = generate(14, 5, 873654221);
    let (schedule, ub) = neh(&instance);
    let problem = FlowshopProblem::with_default_bound(instance);
    let ranks = problem.encode_schedule(&schedule);
    let pool = sibling_pool(&problem, &ranks[..2]);
    let label = format!("14x5_w{}", pool.len());
    bench_pool(c, "flowshop", &label, &problem, &pool, ub);

    // QAP: same shape on a 12-facility grid instance with a greedy
    // incumbent. The pooled side builds one Gilmore–Lawler context for
    // the ten children; the scalar side builds one per child. Both stop
    // each child's LAP at the cutoff.
    let instance = QapInstance::nugent_style(3, 4, 2007);
    let (_, ub) = greedy::greedy_construct(&instance);
    let problem = QapProblem::with_default_bound(instance);
    let pool = sibling_pool(&problem, &[0, 1]);
    let label = format!("nug12_w{}", pool.len());
    bench_pool(c, "qap", &label, &problem, &pool, ub);

    // QAP down the search path: the same pool, then the pool below its
    // first child under the cutoff, as the depth-first walk bounds them.
    // The second pool finds the first on the thread's path, extends its
    // placed sums and starts each LAP from that child's exact duals; the
    // first repeats its cold build every iteration.
    let mut out = Vec::new();
    problem.lower_bound_batch(&pool, ub, &mut out);
    let survivor = out
        .iter()
        .position(|&bound| bound < ub)
        .expect("a child of the pool survives the greedy cutoff");
    let child_pool: Vec<_> = (0..problem.shape().arity_at(3))
        .map(|r| problem.branch(&pool[survivor], r))
        .collect();
    let mut group = c.benchmark_group("pool");
    group.bench_function(BenchmarkId::new("qap_pooled_path", "nug12"), |b| {
        b.iter(|| {
            problem.lower_bound_batch(black_box(&pool), ub, &mut out);
            let parent = out.iter().fold(0u64, |a, &x| a ^ x);
            problem.lower_bound_batch(black_box(&child_pool), ub, &mut out);
            out.iter().fold(parent, |a, &x| a ^ x)
        })
    });
    group.finish();
}

fn bench_explorer(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_solve");
    group.sample_size(10);

    // End-to-end: the same full optimality proof, pooled vs scalar.
    let instance = generate(9, 4, 873654221);
    let (_, ub) = neh(&instance);
    let problem = FlowshopProblem::with_default_bound(instance);
    let interval = problem.shape().root_range();
    for (label, pooled) in [("pooled", true), ("scalar", false)] {
        group.bench_with_input(
            BenchmarkId::new(label, "9x4"),
            &(&problem, &interval),
            |b, (problem, interval)| {
                b.iter(|| {
                    let mut explorer =
                        IntervalExplorer::with_pooling(*problem, interval, Some(ub + 1), pooled);
                    explorer.run(u64::MAX);
                    assert!(explorer.is_exhausted());
                    explorer.stats().nodes_bounded
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_kernels, bench_explorer);
criterion_main!(benches);
