//! Sharded-coordinator tests, including the multi-threaded stress tests
//! CI's `shard-stress` job runs under both serial and parallel test
//! threading: concurrent workers hammering a [`ShardRouter`] must
//! conserve work exactly, steal across shards when their own drains,
//! and only see `Terminate` at global termination.

use gridbnb_core::checkpoint::{
    decode_intervals, decode_sharded_intervals, decode_solution, encode_sharded_intervals,
    encode_solution,
};
use gridbnb_core::{
    ConfigError, Coordinator, CoordinatorConfig, Interval, IntervalSet, Request, Response,
    ShardRouter, Solution, UBig, WorkerId,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

fn iv(a: u64, b: u64) -> Interval {
    Interval::new(UBig::from(a), UBig::from(b))
}

fn config(threshold: u64) -> CoordinatorConfig {
    CoordinatorConfig {
        duplication_threshold: UBig::from(threshold),
        holder_timeout_ns: 1_000_000_000,
        initial_upper_bound: Some(10_000),
    }
}

#[test]
fn zero_shards_is_rejected() {
    assert_eq!(
        ShardRouter::new(iv(0, 100), 0, config(1)).err(),
        Some(ConfigError::ZeroShards)
    );
    assert_eq!(
        ShardRouter::restore(iv(0, 100), Vec::new(), None, config(1)).err(),
        Some(ConfigError::ZeroShards)
    );
}

#[test]
fn invalid_coordinator_config_is_rejected_not_clamped() {
    let bad = CoordinatorConfig {
        duplication_threshold: UBig::zero(),
        ..CoordinatorConfig::default()
    };
    assert_eq!(
        ShardRouter::new(iv(0, 100), 4, bad).err(),
        Some(ConfigError::ZeroDuplicationThreshold)
    );
}

#[test]
fn shards_partition_the_root_exactly() {
    for shards in [1usize, 2, 3, 4, 7, 16] {
        let root = iv(10, 10 + 1000);
        let router = ShardRouter::new(root.clone(), shards, config(1)).unwrap();
        assert_eq!(router.shard_count(), shards);
        assert_eq!(router.size(), root.length());
        assert_eq!(router.cardinality(), shards.min(1000));
        router.check_invariants().unwrap();
        // The slices tile the root with no gap and no overlap.
        let (snapshot, _) = router.snapshot();
        let mut union = IntervalSet::new();
        for shard in snapshot {
            for interval in shard {
                union.insert(interval);
            }
        }
        assert_eq!(union.size(), root.length());
        assert!(union.covers(&root));
    }
}

#[test]
fn more_shards_than_numbers_leaves_excess_shards_empty() {
    let router = ShardRouter::new(iv(0, 3), 8, config(1)).unwrap();
    assert_eq!(router.size(), UBig::from(3u64));
    assert!(!router.is_terminated());
    router.check_invariants().unwrap();
    // An empty root is terminated from the start, whatever S is.
    let empty = ShardRouter::new(iv(5, 5), 4, config(1)).unwrap();
    assert!(empty.is_terminated());
    assert!(matches!(
        empty.handle(
            Request::Join {
                worker: WorkerId(0),
                power: 1
            },
            0
        ),
        Response::Terminate
    ));
}

#[test]
fn routing_is_stable_and_complete() {
    let router = ShardRouter::new(iv(0, 1000), 4, config(1)).unwrap();
    let mut homed = vec![0u32; router.shard_count()];
    for w in 0..64 {
        let shard = router.route(WorkerId(w));
        assert_eq!(shard, router.route(WorkerId(w)), "routing must be stable");
        assert!((shard.0 as usize) < router.shard_count());
        homed[shard.0 as usize] += 1;
    }
    assert!(
        homed.iter().all(|&n| n > 0),
        "every shard is someone's home"
    );
}

/// Drives `workers` ids against the router until global termination,
/// each worker fully exploring every interval it is handed; returns the
/// union of explored numbers and the per-worker handout count.
fn drain(router: &ShardRouter, workers: &[WorkerId]) -> (IntervalSet, u64) {
    let mut explored = IntervalSet::new();
    let mut handouts = 0u64;
    let mut live: Vec<bool> = workers.iter().map(|_| true).collect();
    let mut now = 0u64;
    while live.iter().any(|&l| l) {
        for (i, &worker) in workers.iter().enumerate() {
            if !live[i] {
                continue;
            }
            now += 1;
            let response = router.handle(Request::RequestWork { worker, power: 10 }, now);
            match response {
                Response::Work { interval, .. } => {
                    handouts += 1;
                    explored.insert(interval);
                }
                Response::Terminate => live[i] = false,
                // Endgame: the rest is in other holders' hands — they
                // complete it on their turn of the round-robin.
                Response::Retry => {}
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
    (explored, handouts)
}

#[test]
fn draining_covers_the_root_exactly_across_shards() {
    for shards in [1usize, 2, 4, 5] {
        let root = iv(0, 10_000);
        let router = ShardRouter::new(root.clone(), shards, config(1)).unwrap();
        let workers: Vec<WorkerId> = (0..6).map(WorkerId).collect();
        let (explored, handouts) = drain(&router, &workers);
        assert!(router.is_terminated());
        assert_eq!(router.size(), UBig::zero());
        assert!(explored.covers(&root), "S={shards}: coverage gap");
        assert_eq!(explored.size(), root.length());
        assert!(handouts > 0);
        router.check_invariants().unwrap();
    }
}

#[test]
fn unserved_shards_are_emptied_by_stealing() {
    // Two workers, eight shards: at least six slices can only leave
    // their shard through the stealing path.
    let root = iv(0, 8_000);
    let router = ShardRouter::new(root.clone(), 8, config(1)).unwrap();
    let workers: Vec<WorkerId> = (0..2).map(WorkerId).collect();
    let served: HashSet<u32> = workers.iter().map(|&w| router.route(w).0).collect();
    let (explored, _) = drain(&router, &workers);
    assert!(router.is_terminated());
    assert!(explored.covers(&root));
    assert!(
        router.steals() >= (8 - served.len()) as u64,
        "expected ≥{} steals, saw {}",
        8 - served.len(),
        router.steals()
    );
    let stats = router.stats();
    assert_eq!(stats.steals_donated, stats.steals_adopted);
    assert_eq!(stats.steals_donated, router.steals());
}

#[test]
fn stealing_splits_a_held_interval_without_duplicating_it() {
    // One shard holds everything through one worker; a worker homed on
    // the other shard must receive the back half of the held interval.
    let root = iv(0, 1_000);
    let router = ShardRouter::new(root.clone(), 2, config(1)).unwrap();
    let (w0, w1) = distinct_home_workers(&router);
    let first = match router.handle(
        Request::Join {
            worker: w0,
            power: 10,
        },
        0,
    ) {
        Response::Work { interval, .. } => interval,
        other => panic!("expected work, got {other:?}"),
    };
    // w0 holds one slice in full; drain the *other* slice's shard by
    // letting w1 take and complete it, then ask again: the only work
    // left is w0's held interval on the other shard.
    let second = match router.handle(
        Request::Join {
            worker: w1,
            power: 10,
        },
        1,
    ) {
        Response::Work { interval, .. } => interval,
        other => panic!("expected work, got {other:?}"),
    };
    assert!(!first.overlaps(&second));
    let third = match router.handle(
        Request::RequestWork {
            worker: w1,
            power: 10,
        },
        2,
    ) {
        Response::Work { interval, .. } => interval,
        other => panic!("expected stolen work, got {other:?}"),
    };
    assert_eq!(router.steals(), 1, "third assignment must be a steal");
    assert!(
        !third.overlaps(&second),
        "stolen interval duplicates completed work"
    );
    assert!(
        first.contains_interval(&third),
        "steal must split the held interval"
    );
    assert!(third.length() < first.length());
    router.check_invariants().unwrap();
}

#[test]
fn a_drained_shard_steals_the_lowest_left_endpoint_not_the_most_loaded() {
    // Shard 0 starts drained. Shard 1 holds eight times more than shard
    // 2, but shard 2's piece starts lower: the one victim rule takes it.
    let root = iv(0, 10_000);
    let router = ShardRouter::restore(
        root,
        vec![Vec::new(), vec![iv(5_000, 9_000)], vec![iv(100, 600)]],
        None,
        config(1),
    )
    .unwrap();
    let stealer = (0u64..)
        .map(WorkerId)
        .find(|&w| router.route(w).0 == 0)
        .expect("some worker is homed on shard 0");
    let response = router.handle(
        Request::RequestWork {
            worker: stealer,
            power: 1,
        },
        1,
    );
    match response {
        Response::Work { interval, .. } => assert_eq!(interval, iv(100, 600)),
        other => panic!("expected stolen work, got {other:?}"),
    }
    assert_eq!(router.steals(), 1);
    let (shards, _) = router.snapshot();
    assert_eq!(shards[1], vec![iv(5_000, 9_000)], "the most loaded shard");
    assert!(shards[2].is_empty(), "the lowest piece left its shard");
    router.check_invariants().unwrap();
}

/// Two workers whose home shards differ (S=2 routing is a hash, so
/// scan).
fn distinct_home_workers(router: &ShardRouter) -> (WorkerId, WorkerId) {
    let w0 = WorkerId(0);
    let home = router.route(w0);
    let other = (1..64)
        .map(WorkerId)
        .find(|&w| router.route(w) != home)
        .expect("some worker must hash to the other shard");
    (w0, other)
}

#[test]
fn solution_reports_propagate_to_all_shards() {
    let router = ShardRouter::new(iv(0, 1_000), 4, config(1)).unwrap();
    let reporter = WorkerId(3);
    match router.handle(
        Request::ReportSolution {
            worker: reporter,
            solution: Solution::new(777, vec![1, 2, 3]),
        },
        0,
    ) {
        Response::SolutionAck { cutoff } => assert_eq!(cutoff, Some(777)),
        other => panic!("unexpected {other:?}"),
    }
    // Every shard hands out the merged cutoff, whichever worker asks.
    for w in 0..16 {
        match router.handle(
            Request::Join {
                worker: WorkerId(100 + w),
                power: 5,
            },
            1 + w,
        ) {
            Response::Work { cutoff, .. } => assert_eq!(cutoff, Some(777)),
            Response::Terminate => panic!("nothing should be terminated"),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(router.cutoff(), Some(777));
    assert_eq!(router.solution().map(|s| s.cost), Some(777));
    // A non-improving report does not regress anything.
    router.handle(
        Request::ReportSolution {
            worker: reporter,
            solution: Solution::new(900, vec![9]),
        },
        100,
    );
    assert_eq!(router.cutoff(), Some(777));
}

#[test]
fn expiry_sweeps_every_shard() {
    let router = ShardRouter::new(iv(0, 1_000), 4, config(1)).unwrap();
    for w in 0..8 {
        router.handle(
            Request::Join {
                worker: WorkerId(w),
                power: 5,
            },
            0,
        );
    }
    assert!(router.next_expiry_at().is_some());
    assert_eq!(router.expire_stale_holders(500), 0, "nobody stale yet");
    let expired = router.expire_stale_holders(2_000_000_000);
    assert_eq!(expired, 8, "all holders were stale");
    assert!(router.next_expiry_at().is_none());
    assert_eq!(router.size(), UBig::from(1_000u64), "expiry loses no work");
    router.check_invariants().unwrap();
}

#[test]
fn sharded_checkpoint_round_trips_through_the_store() {
    let root = iv(0, 5_040);
    let router = ShardRouter::new(root.clone(), 3, config(8)).unwrap();
    for w in 0..5 {
        router.handle(
            Request::Join {
                worker: WorkerId(w),
                power: 10,
            },
            w,
        );
    }
    router.handle(
        Request::ReportSolution {
            worker: WorkerId(0),
            solution: Solution::new(42, vec![4, 2]),
        },
        9,
    );
    let (shards, solution) = router.snapshot();
    let intervals_text = encode_sharded_intervals(&shards);
    let solution_text = encode_solution(solution.as_ref());

    let shards = decode_sharded_intervals(&intervals_text).unwrap();
    let solution = decode_solution(&solution_text).unwrap();
    assert_eq!(shards.len(), 3);
    assert_eq!(solution.as_ref().map(|s| s.cost), Some(42));
    let restored = ShardRouter::restore(root.clone(), shards, solution, config(8)).unwrap();
    assert_eq!(restored.size(), router.size());
    assert_eq!(restored.cardinality(), router.cardinality());
    assert_eq!(restored.cutoff(), Some(42));
    restored.check_invariants().unwrap();

    // The same text also restores into a single merged coordinator —
    // the sharded format is a strict extension of the v1 format.
    let flat = decode_intervals(&intervals_text).unwrap();
    let solution = decode_solution(&solution_text).unwrap();
    let merged = Coordinator::restore(root, flat, solution, config(8));
    assert_eq!(merged.size(), router.size());
}

// ---------------------------------------------------------------------
// Multi-threaded stress (the CI `shard-stress` target)
// ---------------------------------------------------------------------

/// `threads` workers drive the router concurrently to termination; each
/// returns the set of numbers it explored. The union must cover the
/// root exactly — no work lost to races between contacts, steals and
/// the termination count.
fn stress(shards: usize, threads: u64, root_len: u64) -> (ShardRouter, IntervalSet) {
    let root = iv(0, root_len);
    let router = ShardRouter::new(root.clone(), shards, config(1)).unwrap();
    let clock = AtomicU64::new(0);
    let mut explored = IntervalSet::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let router = &router;
            let clock = &clock;
            handles.push(scope.spawn(move || {
                let worker = WorkerId(t);
                let mut mine = IntervalSet::new();
                loop {
                    let now = clock.fetch_add(1, Ordering::Relaxed);
                    match router.handle(
                        Request::RequestWork {
                            worker,
                            power: 1 + t % 7,
                        },
                        now,
                    ) {
                        Response::Work { interval, .. } => {
                            // "Explore" the unit: split it into slices,
                            // reporting progress like a real worker so
                            // the coordinator copy shrinks under
                            // concurrent partitioning.
                            let mut live = interval;
                            while !live.is_empty() {
                                let step = live.length().div_rem_u64(3).0.max(UBig::one());
                                let reached = live.begin().add(&step);
                                mine.insert(Interval::new(live.begin().clone(), reached.clone()));
                                live.advance_begin(&reached);
                                if live.is_empty() {
                                    break;
                                }
                                let now = clock.fetch_add(1, Ordering::Relaxed);
                                match router.handle(
                                    Request::Update {
                                        worker,
                                        interval: live.clone(),
                                    },
                                    now,
                                ) {
                                    Response::UpdateAck { interval, .. } => {
                                        if interval.is_empty() {
                                            break;
                                        }
                                        live.retreat_end(interval.end());
                                    }
                                    other => panic!("unexpected update response {other:?}"),
                                }
                            }
                        }
                        Response::Terminate => break,
                        Response::Retry => std::thread::yield_now(),
                        other => panic!("unexpected work response {other:?}"),
                    }
                }
                mine
            }));
        }
        for h in handles {
            explored.union_with(&h.join().expect("stress worker panicked"));
        }
    });
    (router, explored)
}

#[test]
fn concurrent_drain_conserves_work_exactly() {
    for shards in [1usize, 2, 4] {
        let (router, explored) = stress(shards, 8, 50_000);
        assert!(router.is_terminated(), "S={shards}: did not terminate");
        assert_eq!(router.size(), UBig::zero());
        assert!(
            explored.covers(&iv(0, 50_000)),
            "S={shards}: concurrent run lost work"
        );
        router.check_invariants().unwrap();
    }
}

#[test]
fn concurrent_drain_with_more_shards_than_workers_steals() {
    let (router, explored) = stress(8, 3, 40_000);
    assert!(router.is_terminated());
    assert!(explored.covers(&iv(0, 40_000)));
    assert!(
        router.steals() > 0,
        "3 workers on 8 shards must steal to finish"
    );
}

#[test]
fn concurrent_termination_is_seen_by_every_worker() {
    // After a concurrent drain, any late request gets Terminate — the
    // non-empty count cannot under- or over-shoot.
    let (router, _) = stress(4, 6, 10_000);
    for w in 0..32 {
        assert!(matches!(
            router.handle(
                Request::RequestWork {
                    worker: WorkerId(w),
                    power: 3
                },
                u64::MAX - 1,
            ),
            Response::Terminate
        ));
    }
}
