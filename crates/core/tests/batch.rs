//! Unit tests for the batched protocol surface: the combined
//! [`Request::UpdateAndReport`], [`Coordinator::apply_batch`], and
//! [`ShardRouter::handle_bundle`] — including the lock-amortization
//! claim itself (one contact per shard per bundle, pinned through the
//! router's contacts counter) and its latency rule (one sample per lock
//! section, by class or as a batch).

use gridbnb_core::{
    Coordinator, CoordinatorConfig, Interval, MetricsRegistry, Request, Response, ShardRouter,
    Solution, UBig, WorkerId,
};
use gridbnb_metrics::latency_buckets_ns;

fn config() -> CoordinatorConfig {
    CoordinatorConfig {
        duplication_threshold: UBig::one(),
        holder_timeout_ns: 1_000,
        initial_upper_bound: None,
    }
}

fn root(total: u64) -> Interval {
    Interval::new(UBig::zero(), UBig::from(total))
}

/// First `count` worker ids homed on `shard` under `router`'s hash.
fn workers_on(router: &ShardRouter, shard: u32, count: usize) -> Vec<WorkerId> {
    (0..10_000u64)
        .map(WorkerId)
        .filter(|&w| router.route(w).0 == shard)
        .take(count)
        .collect()
}

#[test]
fn bundle_of_updates_is_one_contact_per_shard() {
    let router = ShardRouter::new(root(1_000_000), 4, config()).unwrap();
    let on_zero = workers_on(&router, 0, 3);
    let on_one = workers_on(&router, 1, 2);
    for &w in on_zero.iter().chain(&on_one) {
        match router.handle(
            Request::Join {
                worker: w,
                power: 10,
            },
            0,
        ) {
            Response::Work { .. } => {}
            other => panic!("join failed: {other:?}"),
        }
    }
    // Each worker's current copy: an update reporting the whole root
    // is answered with it. The copies are disjoint, so an ack names the
    // worker it answers.
    let copy_of = |w: WorkerId| match router.handle(
        Request::Update {
            worker: w,
            interval: root(1_000_000),
        },
        1,
    ) {
        Response::UpdateAck { interval, .. } => interval,
        other => panic!("update failed: {other:?}"),
    };
    let workers: Vec<WorkerId> = on_zero.iter().chain(&on_one).copied().collect();
    let copies: Vec<Interval> = workers.iter().map(|&w| copy_of(w)).collect();
    for (i, a) in copies.iter().enumerate() {
        assert!(!a.is_empty());
        assert!(copies[i + 1..].iter().all(|b| !a.overlaps(b)));
    }
    let before_contacts = router.contacts();
    let before_updates = router.stats().updates;
    // Ten updates across two home shards, delivered as one bundle.
    let order: Vec<usize> = (0..workers.len()).cycle().take(10).collect();
    let bundle: Vec<_> = order
        .iter()
        .map(|&k| Request::Update {
            worker: workers[k],
            interval: root(1_000_000),
        })
        .collect();
    let responses = router.handle_bundle(bundle, 1);
    assert_eq!(responses.len(), 10);
    // The acceptance claim: ten protocol ops, two lock acquisitions.
    assert_eq!(
        router.contacts() - before_contacts,
        2,
        "a bundle must take exactly one contact per touched shard"
    );
    assert_eq!(router.stats().updates - before_updates, 10);
    // Reply i answers request i: it carries that worker's copy.
    for (i, (&k, response)) in order.iter().zip(&responses).enumerate() {
        match response {
            Response::UpdateAck { interval, .. } => {
                assert_eq!(*interval, copies[k], "reply {i} answers another request")
            }
            other => panic!("reply {i}: expected an update ack, got {other:?}"),
        }
    }
}

#[test]
fn a_lock_section_records_one_latency_sample() {
    let registry = MetricsRegistry::new();
    let router = ShardRouter::new(root(1_000_000), 1, config())
        .unwrap()
        .with_metrics(&registry);
    let samples = |family: &str| {
        registry
            .histogram(family, &[], &latency_buckets_ns())
            .count()
    };
    let w = WorkerId(1);
    let _ = router.handle(
        Request::Join {
            worker: w,
            power: 1,
        },
        0,
    );
    assert_eq!(samples("gbnb_coordinator_selection_ns"), 1);
    let update = || Request::Update {
        worker: w,
        interval: root(1_000_000),
    };
    // One update in one bundle, as the socket server serves a lone
    // frame: a section serving one request records its class.
    let _ = router.handle_bundle(vec![update()], 1);
    assert_eq!(samples("gbnb_coordinator_update_ns"), 1);
    assert_eq!(samples("gbnb_coordinator_batch_ns"), 0);
    // Two requests to one shard: one section, one batch sample.
    let _ = router.handle_bundle(vec![update(), update()], 2);
    assert_eq!(samples("gbnb_coordinator_update_ns"), 1);
    assert_eq!(samples("gbnb_coordinator_batch_ns"), 1);
    assert_eq!(samples("gbnb_coordinator_selection_ns"), 1);
}

#[test]
fn empty_bundle_is_a_no_op() {
    let router = ShardRouter::new(root(100), 2, config()).unwrap();
    let before = router.contacts();
    assert!(router.handle_bundle(Vec::new(), 0).is_empty());
    assert_eq!(router.contacts(), before);
}

#[test]
fn update_and_report_is_one_contact_with_both_ops_counted() {
    let mut coordinator = Coordinator::new(root(1_000), config());
    let w = WorkerId(7);
    let interval = match coordinator.handle(
        Request::Join {
            worker: w,
            power: 5,
        },
        0,
    ) {
        Response::Work { interval, .. } => interval,
        other => panic!("join failed: {other:?}"),
    };
    let reported = Interval::new(
        interval.begin().add(&UBig::from(10u64)),
        interval.end().clone(),
    );
    let ack = coordinator.handle(
        Request::UpdateAndReport {
            worker: w,
            interval: reported.clone(),
            solution: Some(Solution::new(42, vec![0])),
        },
        1,
    );
    match ack {
        Response::UpdateAck { interval, cutoff } => {
            // The cutoff already reflects the solution merged in the
            // same contact.
            assert_eq!(cutoff, Some(42));
            assert_eq!(interval, reported);
        }
        other => panic!("expected an update ack, got {other:?}"),
    }
    assert_eq!(coordinator.stats().updates, 1);
    assert_eq!(coordinator.stats().solution_reports, 1);
    assert_eq!(coordinator.stats().improvements, 1);
}

#[test]
fn update_and_report_equals_report_then_update() {
    let build = || {
        let mut c = Coordinator::new(root(10_000), config());
        for w in 0..4u64 {
            let _ = c.handle(
                Request::Join {
                    worker: WorkerId(w),
                    power: 1 + w,
                },
                w,
            );
        }
        c
    };
    let mut combined = build();
    let mut split = build();
    let w = WorkerId(2);
    let reported = root(10_000);
    let solution = Solution::new(99, vec![1, 2]);
    let a = combined.handle(
        Request::UpdateAndReport {
            worker: w,
            interval: reported.clone(),
            solution: Some(solution.clone()),
        },
        50,
    );
    let _ = split.handle(
        Request::ReportSolution {
            worker: w,
            solution,
        },
        50,
    );
    let b = split.handle(
        Request::Update {
            worker: w,
            interval: reported,
        },
        50,
    );
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(combined.stats(), split.stats());
    assert_eq!(combined.size(), split.size());
    assert_eq!(
        combined.solution().map(|s| s.cost),
        split.solution().map(|s| s.cost)
    );
    combined.check_invariants().unwrap();
}

#[test]
fn drained_shard_mid_bundle_steals_and_finishes_the_tail() {
    // Two shards; the only worker homed on shard 0 holds all of its
    // slice. A bundle [RequestWork, Update] drains shard 0 at the first
    // request: the router must steal from shard 1 inside the bundle,
    // serve the work request, and still process the tail.
    let router = ShardRouter::new(root(1_000), 2, config()).unwrap();
    let w = workers_on(&router, 0, 1)[0];
    match router.handle(
        Request::Join {
            worker: w,
            power: 3,
        },
        0,
    ) {
        Response::Work { .. } => {}
        other => panic!("join failed: {other:?}"),
    }
    let bundle = vec![
        Request::RequestWork {
            worker: w,
            power: 3,
        },
        Request::Update {
            worker: w,
            interval: root(1_000),
        },
    ];
    let responses = router.handle_bundle(bundle, 1);
    assert_eq!(responses.len(), 2);
    let stolen = match &responses[0] {
        Response::Work { interval, .. } => interval.clone(),
        other => panic!("expected stolen work, got {other:?}"),
    };
    assert!(!stolen.is_empty());
    assert_eq!(router.steals(), 1, "the bundle should have stolen once");
    match &responses[1] {
        Response::UpdateAck { interval, .. } => {
            // The tail ran after the steal: the ack reflects the
            // freshly assigned (stolen) copy.
            assert_eq!(*interval, stolen);
        }
        other => panic!("expected the tail's ack, got {other:?}"),
    }
    router.check_invariants().unwrap();
}

#[test]
fn retry_can_appear_inside_a_bundle_reply() {
    // Root of length 2 across 2 shards: each shard owns a single
    // length-1 entry. Once both are held, a drained shard finds nothing
    // stealable (held and unsplittable), so a work request inside a
    // bundle draws the endgame backpressure `Retry` — never a false
    // `Terminate`.
    let router = ShardRouter::new(root(2), 2, config()).unwrap();
    let w0 = workers_on(&router, 0, 1)[0];
    let w1 = workers_on(&router, 1, 1)[0];
    for w in [w0, w1] {
        match router.handle(
            Request::Join {
                worker: w,
                power: 1,
            },
            0,
        ) {
            Response::Work { .. } => {}
            other => panic!("join failed: {other:?}"),
        }
    }
    let bundle = vec![Request::RequestWork {
        worker: w0,
        power: 1,
    }];
    let responses = router.handle_bundle(bundle, 1);
    assert!(
        matches!(responses[0], Response::Retry),
        "expected endgame backpressure, got {:?}",
        responses[0]
    );
    assert!(!router.is_terminated());
}

#[test]
fn batched_heartbeats_land_on_the_bundle_timestamp() {
    let timeout = config().holder_timeout_ns;
    let router = ShardRouter::new(root(1_000), 1, config()).unwrap();
    let w = WorkerId(3);
    let _ = router.handle(
        Request::Join {
            worker: w,
            power: 1,
        },
        0,
    );
    // A bundle of heartbeat-only updates at t = 10: the deferred
    // heartbeat maintenance must still move the stamp to 10.
    let bundle: Vec<_> = (0..5)
        .map(|_| Request::Update {
            worker: w,
            interval: root(1_000),
        })
        .collect();
    let _ = router.handle_bundle(bundle, 10);
    // Were the stamp still at the join (0), this sweep would expire it.
    assert_eq!(router.expire_stale_holders(timeout + 5), 0);
    // Past the refreshed stamp's window it does expire.
    assert_eq!(router.expire_stale_holders(10 + timeout + 1), 1);
}

#[test]
fn apply_batch_matches_sequential_handling_on_a_mixed_batch() {
    let build = || {
        let mut c = Coordinator::new(root(100_000), config());
        for w in 0..5u64 {
            let _ = c.handle(
                Request::Join {
                    worker: WorkerId(w),
                    power: 1 + w % 3,
                },
                w,
            );
        }
        c
    };
    let mut batched = build();
    let mut sequential = build();
    let requests = vec![
        Request::Update {
            worker: WorkerId(0),
            interval: root(100_000),
        },
        Request::UpdateAndReport {
            worker: WorkerId(1),
            interval: root(100_000),
            solution: Some(Solution::new(77, vec![0])),
        },
        Request::Update {
            worker: WorkerId(0),
            interval: root(90_000),
        },
        Request::ReportSolution {
            worker: WorkerId(2),
            solution: Solution::new(80, vec![1]),
        },
        Request::RequestWork {
            worker: WorkerId(3),
            power: 2,
        },
        Request::Leave {
            worker: WorkerId(4),
        },
        Request::Update {
            worker: WorkerId(2),
            interval: root(100_000),
        },
    ];
    let outcome = batched.apply_batch(requests.clone(), 500);
    assert!(outcome.stalled.is_none());
    let expected: Vec<Response> = requests
        .into_iter()
        .map(|r| sequential.handle(r, 500))
        .collect();
    assert_eq!(outcome.responses.len(), expected.len());
    for (a, b) in outcome.responses.iter().zip(&expected) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
    assert_eq!(batched.stats(), sequential.stats());
    assert_eq!(batched.size(), sequential.size());
    batched.check_invariants().unwrap();
}
