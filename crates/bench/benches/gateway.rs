//! Shared (cross-worker) bundles at W ≫ S — the multiplexed socket
//! server's burst shape — against the two per-worker delivery regimes
//! on the same traffic. (The bench keeps its historical `gateway` id so
//! the checked-in `BENCH_gateway.json` baseline stays comparable.)
//!
//! 16 workers (4 per shard at S = 4), each producing 8 progressing
//! updates per round against a router already holding 8192 live
//! entries, delivered three ways:
//!
//! * `per_request_w16x8/S` — every update is its own
//!   [`ShardRouter::handle`] contact, a bundle of one through the same
//!   serving path: the runtime's shape (one update per contact) and the
//!   paper's literal protocol — per-op lock and index traffic, 128 lock
//!   acquisitions per round;
//! * `per_worker_bundles_w16x8/S` — each worker ships its own
//!   8-update bundle: 16 lock acquisitions per round,
//!   per-worker deferred index maintenance;
//! * `shared_bundle_w16x8/S` — one [`ShardRouter::handle_bundle`] call
//!   per round carrying all 16 workers' bundles: the shape of the
//!   `gridbnb-net` server folding one multiplexed connection's burst of
//!   frames, from many workers, into one coordinator bundle. `S` lock
//!   acquisitions per round.
//!
//! Two findings this bench pins (both measured on a 1-core build box):
//!
//! 1. The shared bundle keeps the full batching advantage over the
//!    per-request regime — merging workers loses none of the
//!    per-worker amortization while dividing lock acquisitions by
//!    another `W/S`. **CI gates on this S=4 ratio (≥ 1.3×, baseline
//!    ~2.0×)** and on its regression against the checked-in
//!    `BENCH_gateway.json`.
//! 2. Against *per-worker* bundles the shared bundle is serving-cost
//!    **neutral** (identical `handle_bundle` time for the same
//!    traffic, within a few percent once the burst's concatenation is
//!    included): the deferred index maintenance is per touched
//!    entry/worker either way, so merging different workers cannot
//!    dedup it further. What the merge buys is the 16 → S lock/contact
//!    reduction and one delivery per burst instead of one per worker
//!    on the transport — wins that uncontended single-core wall time
//!    cannot see. The row is kept so a regression that makes shared
//!    bundles *slower* than per-worker bundles would surface here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridbnb_core::{CoordinatorConfig, Interval, Request, Response, ShardRouter, UBig, WorkerId};
use std::hint::black_box;

const POOL: u64 = 8192;
const CLIENTS: usize = 16;
const PER_WORKER: u64 = 8;
const ROUNDS: u64 = 4;

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
    for w in 0..POOL {
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

/// One aggregated client: `(worker, its current interval copy)`.
type Client = (WorkerId, Interval);

/// 16 joined workers, 4 per shard at S = 4 (round-robin over shards),
/// each probed for its current interval copy.
fn clients_of(router: &ShardRouter) -> Vec<Client> {
    let mut chosen: Vec<WorkerId> = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let home = (c % router.shard_count()) as u32;
        let worker = (0..POOL)
            .map(WorkerId)
            .find(|&w| router.route(w).0 == home && !chosen.contains(&w))
            .expect("a worker homed on every shard");
        chosen.push(worker);
    }
    chosen
        .into_iter()
        .enumerate()
        .map(|(c, worker)| {
            let copy = match router.handle(
                Request::Update {
                    worker,
                    interval: root(),
                },
                POOL + c as u64,
            ) {
                Response::UpdateAck { interval, .. } => interval,
                other => panic!("probe failed: {other:?}"),
            };
            (worker, copy)
        })
        .collect()
}

/// The `k`-th progressing update of `client` in `round` (each advances
/// the begin, exercising the shrink + re-index path).
fn update_of(client: &Client, round: u64, k: u64) -> Request {
    let (worker, copy) = client;
    let j = round * PER_WORKER + k;
    Request::Update {
        worker: *worker,
        interval: Interval::new(copy.begin().add(&UBig::from(j + 1)), copy.end().clone()),
    }
}

/// 4 rounds × 16 workers × 8 updates, one contact per update.
fn drive_per_request(router: &ShardRouter, clients: &[Client]) {
    for round in 0..ROUNDS {
        for client in clients {
            for k in 0..PER_WORKER {
                black_box(router.handle(update_of(client, round, k), 1_000_000 + round));
            }
        }
    }
}

/// The identical load, one bundle per worker per round.
fn drive_per_worker(router: &ShardRouter, clients: &[Client]) {
    for round in 0..ROUNDS {
        for client in clients {
            let bundle: Vec<_> = (0..PER_WORKER)
                .map(|k| update_of(client, round, k))
                .collect();
            black_box(router.handle_bundle(bundle, 1_000_000 + round));
        }
    }
}

/// The identical load, one shared bundle per round — the mux
/// server's burst shape.
fn drive_shared(router: &ShardRouter, clients: &[Client]) {
    for round in 0..ROUNDS {
        let mut bundle = Vec::with_capacity(clients.len() * PER_WORKER as usize);
        for client in clients {
            bundle.extend((0..PER_WORKER).map(|k| update_of(client, round, k)));
        }
        black_box(router.handle_bundle(bundle, 1_000_000 + round));
    }
}

fn bench_gateway(c: &mut Criterion) {
    let mut group = c.benchmark_group("gateway");
    group.sample_size(10);

    for shards in [1usize, 4] {
        let base = router_with(shards);
        let clients = clients_of(&base);
        group.bench_with_input(
            BenchmarkId::new("per_request_w16x8", shards),
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
            BenchmarkId::new("per_worker_bundles_w16x8", shards),
            &(&base, &clients),
            |b, (base, clients)| {
                b.iter_batched(
                    || (*base).clone(),
                    |router| {
                        drive_per_worker(&router, clients);
                        router
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("shared_bundle_w16x8", shards),
            &(&base, &clients),
            |b, (base, clients)| {
                b.iter_batched(
                    || (*base).clone(),
                    |router| {
                        drive_shared(&router, clients);
                        router
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gateway);
criterion_main!(benches);
