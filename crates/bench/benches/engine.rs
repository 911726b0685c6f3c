//! Engine throughput: raw node-visit rate (no pruning), bound-driven
//! search, the cost of interval restriction, and the walk above the
//! explorer's anchor on a tree wider than 2¹²⁸ leaves.

use criterion::{criterion_group, criterion_main, Criterion};
use gridbnb_coding::{Interval, TreeShape};
use gridbnb_engine::toy::{FullEnumeration, TableAssignment};
use gridbnb_engine::{solve, solve_interval, IntervalExplorer, Problem, UBig};
use gridbnb_flowshop::taillard::generate;
use gridbnb_flowshop::FlowshopProblem;
use std::hint::black_box;

/// Permutations of 40 items under a zero bound: 40! ≈ 2¹⁵⁹ leaves, so the
/// explorer's anchor (the shallowest depth whose weight fits 127 bits) is
/// depth 7, where a node weighs 33!.
struct Wide40;

impl Problem for Wide40 {
    type State = u64;

    fn shape(&self) -> TreeShape {
        TreeShape::permutation(40)
    }

    fn root_state(&self) -> u64 {
        0
    }

    fn branch(&self, state: &u64, rank: u64) -> u64 {
        state.wrapping_mul(31).wrapping_add(rank + 1)
    }

    fn lower_bound(&self, _state: &u64) -> u64 {
        0
    }

    fn leaf_cost(&self, state: &u64) -> u64 {
        state % 1_000 + 1
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");

    // Raw traversal rate: 109 600 node visits, no pruning.
    let enumeration = FullEnumeration::new(8);
    group.bench_function("enumerate_8_full_tree", |b| {
        b.iter(|| solve(black_box(&enumeration), None))
    });

    // Interval-restricted run over a slice of the same tree.
    let shape = enumeration.shape();
    let total = shape.root_range().end().to_u64().unwrap();
    let slice = Interval::new(UBig::from(total / 4), UBig::from(total / 2));
    group.bench_function("enumerate_8_quarter_slice", |b| {
        b.iter(|| solve_interval(black_box(&enumeration), black_box(&slice), None))
    });

    // Budgeted stepping (the worker inner loop shape).
    group.bench_function("explorer_run_1000_steps", |b| {
        b.iter(|| {
            let mut e = IntervalExplorer::new(&enumeration, &shape.root_range(), None);
            e.run(1_000);
            black_box(e.stats().explored)
        })
    });

    // 5,000 leaves of a 40-item tree around an anchor-node boundary: the
    // descent from the root and the re-base between anchor nodes go
    // through the frames above the anchor.
    let boundary = UBig::factorial(33).mul_u64(12_345_678_901);
    let mut begin = boundary.clone();
    begin.sub_assign_u64(2_500);
    let wide_slice = Interval::new(begin, &boundary + 2_500u64);
    group.bench_function("wide_40_anchor_slice", |b| {
        b.iter(|| solve_interval(&Wide40, black_box(&wide_slice), None))
    });

    // Bound-driven searches.
    let assignment = TableAssignment::random(9, 7);
    group.bench_function("assignment_9_bnb", |b| {
        b.iter(|| solve(black_box(&assignment), None))
    });
    let fs_strong = FlowshopProblem::with_default_bound(generate(9, 4, 42));
    group.bench_function("flowshop_9x4_johnson", |b| {
        b.iter(|| solve(black_box(&fs_strong), None))
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
