//! Sharded-router throughput on the 8192-interval workload.
//!
//! The same aggregate contact load (4 client threads, 1024 progress
//! updates each) served by the one coordinator path at two lock counts:
//!
//! * `router_update_x1024_threads4/1` — a one-shard [`ShardRouter`]
//!   contacted directly (what `runtime::run` does by default): four
//!   holders contend on one lock;
//! * `router_update_x1024_threads4/4` — four shards, each client thread
//!   homed on its own shard, so contacts don't share a lock at all.
//!
//! The pair isolates the lock-spreading win: ~1.4× on one core from
//! contention relief alone, scaling with cores once shard locks stop
//! sharing them. CI gates that the S=4 advantage does not regress more
//! than 25 % below the checked-in baseline's. (The farmer-thread funnel
//! this bench used to compare against is gone from the runtime; its
//! last measurement — 24.0 ms against 8.9 ms for the S=1 router — is in
//! CHANGES.md.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridbnb_core::{CoordinatorConfig, Interval, Request, Response, ShardRouter, UBig, WorkerId};
use std::hint::black_box;

const WORKERS: u64 = 8192;
const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 1024;

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
/// `t % S` (so at S=4 the four client threads hit four distinct locks,
/// and at S=1 four distinct holders contend on the one lock), and
/// probes each one's interval copy with a heartbeat-only update.
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

/// 4 threads × 1024 progressing updates straight into the router.
fn drive_router(router: &ShardRouter, clients: &[Client]) {
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

fn bench_shard(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard");
    group.sample_size(10);

    for shards in [1usize, 4] {
        let base = router_with(shards);
        let clients = clients_of(&base);
        // Single-threaded routing overhead vs the bare coordinator's
        // join bench: the router adds one hash + one uncontended lock.
        group.bench_with_input(
            BenchmarkId::new("router_join_x64", shards),
            &base,
            |b, base| {
                b.iter_batched(
                    || base.clone(),
                    |router| {
                        for j in 0..64u64 {
                            black_box(router.handle(
                                Request::Join {
                                    worker: WorkerId(u64::MAX - j),
                                    power: 333,
                                },
                                999_999 + j,
                            ));
                        }
                        router
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        // Aggregate concurrent update throughput (the CI-gated id).
        group.bench_with_input(
            BenchmarkId::new("router_update_x1024_threads4", shards),
            &(&base, &clients),
            |b, (base, clients)| {
                b.iter_batched(
                    || (*base).clone(),
                    |router| {
                        drive_router(&router, clients);
                        router
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_shard);
criterion_main!(benches);
