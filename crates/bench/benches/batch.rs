//! Batched vs per-request contact throughput on the 8192-interval
//! workload — the amortization the batched protocol (PR 4) buys over
//! the sharded router's lock-per-contact baseline.
//!
//! The same aggregate load (4 client threads × 1024 progressing
//! updates) is served two ways at S = 1 and S = 4:
//!
//! * `per_request_update_x1024_threads4/S` — every update is its own
//!   [`ShardRouter::handle`] contact, a bundle of one through the same
//!   serving path: one lock acquisition and one full round of index
//!   maintenance (priority re-key + heartbeat move) per op — the
//!   runtime's shape, whose workers send one update per contact;
//! * `bundled64_update_x1024_threads4/S` — the updates ship as bundles
//!   of 64 through [`ShardRouter::handle_bundle`]: one lock acquisition
//!   per bundle and one deferred re-key/heartbeat move per touched
//!   entry per bundle ([`Coordinator::apply_batch`]).
//!
//! CI gates on the S=4 pair: bundles must stay ≥ 1.5× the per-request
//! path (`BENCH_batch.json` is the checked-in baseline; the advantage
//! may not regress more than 25 % against it). Ratios, not absolute ns,
//! so hardware differences divide out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridbnb_core::{CoordinatorConfig, Interval, Request, Response, ShardRouter, UBig, WorkerId};
use std::hint::black_box;

const WORKERS: u64 = 8192;
const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 1024;
const BUNDLE: u64 = 64;

fn root() -> Interval {
    Interval::new(UBig::zero(), UBig::factorial(50))
}

fn config() -> CoordinatorConfig {
    CoordinatorConfig {
        duplication_threshold: UBig::one(),
        ..CoordinatorConfig::default()
    }
}

/// A router with ~8192 live intervals held by 8192 workers.
fn router_with(shards: usize) -> ShardRouter {
    let router = ShardRouter::new(root(), shards, config()).expect("valid config");
    for w in 0..WORKERS {
        let _ = router.handle(
            Request::Join {
                worker: WorkerId(w),
                power: 50 + w % 100,
            },
            w,
        );
    }
    router
}

/// One benched client: `(worker, its current interval copy)` — each
/// update advances the begin, exercising the shrink + re-index path.
type Client = (WorkerId, Interval);

/// Picks `THREADS` distinct joined workers, thread `t` homed on shard
/// `t % S` (so at S=4 the four client threads hit four distinct locks).
fn clients_of(router: &ShardRouter) -> Vec<Client> {
    let mut chosen: Vec<WorkerId> = Vec::with_capacity(THREADS);
    for t in 0..THREADS {
        let home = (t % router.shard_count()) as u32;
        let worker = (0..WORKERS)
            .map(WorkerId)
            .find(|&w| router.route(w).0 == home && !chosen.contains(&w))
            .expect("a worker homed on every shard");
        chosen.push(worker);
    }
    chosen
        .into_iter()
        .enumerate()
        .map(|(t, worker)| {
            let copy = match router.handle(
                Request::Update {
                    worker,
                    interval: root(),
                },
                WORKERS + t as u64,
            ) {
                Response::UpdateAck { interval, .. } => interval,
                other => panic!("probe failed: {other:?}"),
            };
            (worker, copy)
        })
        .collect()
}

/// 4 threads × 1024 progressing updates, one contact per update.
fn drive_per_request(router: &ShardRouter, clients: &[Client]) {
    std::thread::scope(|scope| {
        for (worker, copy) in clients {
            scope.spawn(move || {
                for j in 0..OPS_PER_THREAD {
                    let reported =
                        Interval::new(copy.begin().add(&UBig::from(j + 1)), copy.end().clone());
                    black_box(router.handle(
                        Request::Update {
                            worker: *worker,
                            interval: reported,
                        },
                        1_000_000 + j,
                    ));
                }
            });
        }
    });
}

/// The identical 4 × 1024 update load, shipped as bundles of 64.
fn drive_bundled(router: &ShardRouter, clients: &[Client]) {
    std::thread::scope(|scope| {
        for (worker, copy) in clients {
            scope.spawn(move || {
                for chunk in 0..OPS_PER_THREAD / BUNDLE {
                    let bundle: Vec<_> = (0..BUNDLE)
                        .map(|k| {
                            let j = chunk * BUNDLE + k;
                            Request::Update {
                                worker: *worker,
                                interval: Interval::new(
                                    copy.begin().add(&UBig::from(j + 1)),
                                    copy.end().clone(),
                                ),
                            }
                        })
                        .collect();
                    black_box(router.handle_bundle(bundle, 1_000_000 + chunk));
                }
            });
        }
    });
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch");
    group.sample_size(10);

    for shards in [1usize, 4] {
        let base = router_with(shards);
        let clients = clients_of(&base);
        group.bench_with_input(
            BenchmarkId::new("per_request_update_x1024_threads4", shards),
            &(&base, &clients),
            |b, (base, clients)| {
                b.iter_batched(
                    || (*base).clone(),
                    |router| {
                        drive_per_request(&router, clients);
                        router
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("bundled64_update_x1024_threads4", shards),
            &(&base, &clients),
            |b, (base, clients)| {
                b.iter_batched(
                    || (*base).clone(),
                    |router| {
                        drive_bundled(&router, clients);
                        router
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
