//! Property oracle pinning gateway-aggregated execution to per-worker
//! sequential replay — the cross-worker mirror of `batch_props.rs`.
//!
//! The [`ContactGateway`]'s documented contract: a flush's outcome —
//! every submitting worker's responses *and* the router state left
//! behind — is identical to replaying each buffered submission through
//! its **own** [`ShardRouter::handle_bundle`] call, submissions ordered
//! by (home shard ascending, arrival order). Because a worker's
//! requests all hash to one home shard, that replay order is exactly
//! the grouped order one combined bundle executes in, so the identity
//! covers solution broadcasts, mid-flush steals and endgame `Retry`
//! backpressure.
//!
//! The oracle drives a *real* gateway — submissions arrive on real
//! threads, sequenced deterministically by watching the buffer fill,
//! with the worker that trips a trigger (fan-in size, or a
//! termination-sensitive request) executing the flush exactly as in
//! production. A twin router replays the per-worker bundles in the
//! documented order; every response, counter and per-shard snapshot
//! must agree, and the gateway's lock-acquiring contact count must
//! never exceed the replay's.
//!
//! Alongside the oracle: the 16-thread end-to-end stress run — real
//! workers draining a 4-shard range through one gateway with scripted
//! crashes and holder expiry armed — must still prove the exact
//! optimum.

use gridbnb_core::runtime::{run, ChaosConfig, CrashPlan, RuntimeConfig};
use gridbnb_core::{
    ContactGateway, GatewayPolicy, Interval, Request, Response, ShardRouter, Solution, UBig,
    WorkerId,
};
use gridbnb_engine::solve;
use gridbnb_engine::toy::FullEnumeration;
use proptest::prelude::*;
use std::time::{Duration, Instant};

const WORKERS: u64 = 8;

fn config(threshold: u64) -> gridbnb_core::CoordinatorConfig {
    gridbnb_core::CoordinatorConfig {
        duplication_threshold: UBig::from(threshold),
        holder_timeout_ns: u64::MAX / 4, // expiry is the runtime's job
        initial_upper_bound: Some(10_000),
    }
}

/// Symbolic protocol step: (op, worker, power, fraction-ppm) — the same
/// alphabet as the batch oracle.
type Step = (u8, u8, u16, u32);

fn arb_steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u8..7, 0u8..WORKERS as u8, 1u16..500, 0u32..1_000_000u32),
        1..max,
    )
}

/// Builds the request a step implies from the workers' model state —
/// *without* seeing any response (a whole flush is decided before any
/// reply exists). Mirrors `batch_props::request_of`.
fn request_of(step: Step, models: &mut [Option<Interval>]) -> Option<Request> {
    let (op, worker, power, frac_ppm) = step;
    let w = WorkerId(worker as u64);
    let slot = &mut models[worker as usize];
    match op {
        0 => {
            *slot = None;
            Some(Request::Join {
                worker: w,
                power: power as u64,
            })
        }
        1 => {
            *slot = None;
            Some(Request::RequestWork {
                worker: w,
                power: power as u64,
            })
        }
        2 | 3 => {
            let live = slot.as_mut()?;
            let adv = live
                .length()
                .mul_div_floor(frac_ppm.min(1_000_000) as u64, 1_000_000);
            let begin = live.begin().add(&adv);
            live.advance_begin(&begin);
            Some(Request::Update {
                worker: w,
                interval: live.clone(),
            })
        }
        4 => {
            *slot = None;
            Some(Request::Leave { worker: w })
        }
        5 => Some(Request::ReportSolution {
            worker: w,
            solution: Solution::new(1 + (frac_ppm % 5_000) as u64, vec![0]),
        }),
        _ => {
            let solution = Solution::new(1 + (frac_ppm % 5_000) as u64, vec![1]);
            match slot.as_mut() {
                Some(live) => {
                    let adv = live
                        .length()
                        .mul_div_floor((frac_ppm / 2).min(1_000_000) as u64, 1_000_000);
                    let begin = live.begin().add(&adv);
                    live.advance_begin(&begin);
                    Some(Request::UpdateAndReport {
                        worker: w,
                        interval: live.clone(),
                        solution: Some(solution),
                    })
                }
                None => Some(Request::ReportSolution {
                    worker: w,
                    solution,
                }),
            }
        }
    }
}

/// Applies one response to the issuing worker's model.
fn absorb(request: &Request, response: &Response, models: &mut [Option<Interval>]) {
    let slot = &mut models[request.worker().0 as usize];
    match (request, response) {
        (Request::Join { .. } | Request::RequestWork { .. }, Response::Work { interval, .. }) => {
            *slot = Some(interval.clone());
        }
        (Request::Join { .. } | Request::RequestWork { .. }, _) => {
            *slot = None;
        }
        (
            Request::Update { .. } | Request::UpdateAndReport { .. },
            Response::UpdateAck { interval, .. },
        ) => {
            if interval.is_empty() {
                *slot = None;
            } else if let Some(live) = slot.as_mut() {
                live.retreat_end(interval.end());
                if live.is_empty() {
                    *slot = None;
                }
            }
        }
        _ => {}
    }
}

fn is_sensitive(request: &Request) -> bool {
    matches!(
        request,
        Request::Join { .. } | Request::RequestWork { .. } | Request::Leave { .. }
    )
}

/// Sorted (begin, end) pairs of a per-shard snapshot — canonical form
/// for state comparison.
fn canonical(shard: &[Interval]) -> Vec<(UBig, UBig)> {
    let mut all: Vec<(UBig, UBig)> = shard
        .iter()
        .map(|i| (i.begin().clone(), i.end().clone()))
        .collect();
    all.sort();
    all
}

/// Spins until `cond` holds; a stuck condition means the gateway's
/// trigger logic diverged from the test's prediction — fail loudly
/// instead of hanging the suite.
fn wait_until(what: &str, cond: impl Fn() -> bool) -> Result<(), TestCaseError> {
    let t0 = Instant::now();
    while !cond() {
        if t0.elapsed() > Duration::from_secs(10) {
            return Err(TestCaseError::fail(format!(
                "gateway trigger prediction diverged: timed out on {what}"
            )));
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// Drives one round of per-worker submissions through a real gateway,
/// arrival order = `submissions` order, and returns each submission's
/// responses. Flush boundaries are predicted with the gateway's own
/// trigger rules; the buffer watch validates the prediction (a
/// mismatch times out and fails). Returns the responses per submission
/// plus the flush groups (as index ranges into `submissions`).
#[allow(clippy::type_complexity)]
fn drive_gateway(
    gateway: &ContactGateway<'_>,
    submissions: &[(WorkerId, Vec<Request>)],
    now: u64,
) -> Result<(Vec<Vec<Response>>, Vec<Vec<usize>>), TestCaseError> {
    let fan_in = gateway.policy().fan_in;
    let mut responses: Vec<Option<Vec<Response>>> = vec![None; submissions.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    std::thread::scope(|scope| -> Result<(), TestCaseError> {
        let mut handles: Vec<(usize, std::thread::ScopedJoinHandle<'_, Vec<Response>>)> =
            Vec::new();
        let mut buffered = 0usize;
        for (k, (_, requests)) in submissions.iter().enumerate() {
            let sensitive = requests.iter().any(is_sensitive);
            let n = requests.len();
            let flushes = sensitive || buffered + n >= fan_in || gateway.router().is_terminated();
            open.push(k);
            let requests = requests.clone();
            handles.push((k, scope.spawn(move || gateway.submit(requests, now))));
            let wait = if flushes {
                // The submitter runs the flush itself; wait for the
                // buffer to drain, then collect every parked thread.
                wait_until("flush drain", || gateway.buffered() == 0)
            } else {
                buffered += n;
                wait_until("buffer fill", || gateway.buffered() == buffered)
            };
            if let Err(e) = wait {
                // Release every parked submitter before failing, or the
                // scope would block forever joining them.
                gateway.flush_now(now);
                return Err(e);
            }
            if flushes {
                for (idx, handle) in handles.drain(..) {
                    responses[idx] = Some(handle.join().expect("submitter panicked"));
                }
                groups.push(std::mem::take(&mut open));
                buffered = 0;
            }
        }
        if !open.is_empty() {
            // Round over with parked submissions: the deadline sweep
            // (here: an explicit final flush) delivers them.
            gateway.flush_now(now);
            for (idx, handle) in handles.drain(..) {
                responses[idx] = Some(handle.join().expect("submitter panicked"));
            }
            groups.push(std::mem::take(&mut open));
        }
        Ok(())
    })?;
    let responses = responses
        .into_iter()
        .map(|r| r.expect("a reply per submission"))
        .collect();
    Ok((responses, groups))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of per-worker batches, pushed through a real
    /// gateway in rounds, must produce exactly the responses and state
    /// of replaying each submission through its own `handle_bundle` in
    /// (home shard, arrival) order — for S ∈ {1, 2, 3, 4} and up to 8
    /// workers — while never acquiring more shard locks than the
    /// replay.
    #[test]
    fn gateway_flushes_match_per_worker_sequential_replay(
        steps in arb_steps(100),
        chunk in 2usize..=10,
        shards in 1usize..=4,
        fan_in in 1usize..=9,
        threshold in 1u64..300,
        total in 50u64..20_000,
    ) {
        let root = Interval::new(UBig::zero(), UBig::from(total));
        let gated = ShardRouter::new(root.clone(), shards, config(threshold)).unwrap();
        let replayed = ShardRouter::new(root, shards, config(threshold)).unwrap();
        let gateway = ContactGateway::new(&gated, GatewayPolicy::new(fan_in, u64::MAX / 2));
        let mut models: Vec<Option<Interval>> = (0..WORKERS).map(|_| None).collect();
        let mut now = 0u64;

        for round in steps.chunks(chunk) {
            now += 1;
            // One submission per worker appearing in the round, its
            // steps in round order; arrival order = ascending worker id.
            let mut submissions: Vec<(WorkerId, Vec<Request>)> = Vec::new();
            for worker in 0..WORKERS as u8 {
                let requests: Vec<Request> = round
                    .iter()
                    .filter(|s| s.1 == worker)
                    .filter_map(|&s| request_of(s, &mut models))
                    .collect();
                if !requests.is_empty() {
                    submissions.push((WorkerId(worker as u64), requests));
                }
            }
            if submissions.is_empty() {
                continue;
            }
            let (responses, groups) = drive_gateway(&gateway, &submissions, now)?;

            // Replay: within each flush group, per-worker bundles in
            // (home shard, arrival) order — the documented equivalent.
            for group in &groups {
                let mut order = group.clone();
                order.sort_by_key(|&i| replayed.route(submissions[i].0).0);
                for &i in &order {
                    let (worker, requests) = &submissions[i];
                    prop_assert_eq!(*worker, requests[0].worker());
                    let bundle: Vec<_> = requests
                        .iter()
                        .map(|r| replayed.envelope(r.clone()))
                        .collect();
                    let expected = replayed.handle_bundle(bundle, now);
                    prop_assert_eq!(expected.len(), responses[i].len());
                    for (j, ((shard, want), got)) in
                        expected.iter().zip(&responses[i]).enumerate()
                    {
                        prop_assert_eq!(*shard, replayed.route(*worker));
                        prop_assert_eq!(
                            format!("{got:?}"),
                            format!("{want:?}"),
                            "response {} of worker {} diverged in group {:?}",
                            j,
                            worker,
                            group
                        );
                    }
                }
            }
            // Absorb after comparison (either side — they agree).
            for ((_, requests), replies) in submissions.iter().zip(&responses) {
                for (request, response) in requests.iter().zip(replies) {
                    absorb(request, response, &mut models);
                }
            }
            prop_assert_eq!(gated.size(), replayed.size(), "sizes diverged");
            prop_assert_eq!(gated.cardinality(), replayed.cardinality());
            prop_assert_eq!(gated.is_terminated(), replayed.is_terminated());
            prop_assert_eq!(gated.cutoff(), replayed.cutoff());
            prop_assert_eq!(gated.steals(), replayed.steals(), "steals diverged");
            prop_assert!(
                gated.contacts() <= replayed.contacts(),
                "aggregation must never cost extra lock traffic: {} vs {}",
                gated.contacts(),
                replayed.contacts()
            );
            gated.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("gated invariant violated: {e}"))
            })?;
        }

        // Final identity: counters, best solution, and the exact
        // interval content of every shard.
        prop_assert_eq!(gated.stats(), replayed.stats());
        prop_assert_eq!(
            gated.solution().map(|s| s.cost),
            replayed.solution().map(|s| s.cost)
        );
        let (snap_a, _) = gated.snapshot();
        let (snap_b, _) = replayed.snapshot();
        prop_assert_eq!(snap_a.len(), snap_b.len());
        for (k, (a, b)) in snap_a.iter().zip(&snap_b).enumerate() {
            prop_assert_eq!(canonical(a), canonical(b), "shard {} intervals diverged", k);
        }
    }

    /// The mixed-worker merge identity as a property: `UpdateAndReport`
    /// folded by one worker ≡ the split `ReportSolution` (from a
    /// *different* worker whose home shard does not run later) +
    /// `Update` pair, interleaved through one shared flush — same ack,
    /// same state, for arbitrary progress fractions and costs.
    #[test]
    fn update_and_report_equals_split_pair_across_workers(
        shards in 1usize..=4,
        total in 100u64..50_000,
        threshold in 1u64..300,
        frac_ppm in 0u32..1_000_000,
        cost in 1u64..20_000,
        updater_seed in 0u64..200,
    ) {
        let root = Interval::new(UBig::zero(), UBig::from(total));
        let combined = ShardRouter::new(root.clone(), shards, config(threshold)).unwrap();
        let split = ShardRouter::new(root, shards, config(threshold)).unwrap();
        let updater = WorkerId(updater_seed);
        let home = combined.route(updater).0;
        // A different worker whose home shard runs no later than the
        // updater's: its report is globally visible (in-shard order or
        // cross-shard broadcast) before the update executes, exactly
        // like the folded form.
        let reporter = (0..10_000u64)
            .map(WorkerId)
            .find(|&w| w != updater && combined.route(w).0 <= home)
            .expect("a reporter homed at or below the updater's shard");
        let mut live = None;
        for router in [&combined, &split] {
            let response = router.handle(Request::Join { worker: updater, power: 7 }, 0);
            if let Response::Work { interval, .. } = response {
                live = Some(interval);
            } else {
                panic!("join failed: {response:?}");
            }
        }
        let live = live.expect("joined");
        let adv = live.length().mul_div_floor(frac_ppm as u64, 1_000_000);
        let reported = Interval::new(live.begin().add(&adv), live.end().clone());
        let solution = Solution::new(cost, vec![0]);

        let combined_bundle = vec![combined.envelope(Request::UpdateAndReport {
            worker: updater,
            interval: reported.clone(),
            solution: Some(solution.clone()),
        })];
        let a = combined.handle_bundle(combined_bundle, 9);
        let split_bundle = vec![
            split.envelope(Request::ReportSolution {
                worker: reporter,
                solution,
            }),
            split.envelope(Request::Update {
                worker: updater,
                interval: reported,
            }),
        ];
        let b = split.handle_bundle(split_bundle, 9);
        prop_assert_eq!(
            format!("{:?}", a.last().unwrap().1),
            format!("{:?}", b.last().unwrap().1)
        );
        prop_assert_eq!(combined.cutoff(), split.cutoff());
        prop_assert_eq!(combined.size(), split.size());
        prop_assert_eq!(
            combined.solution().map(|s| s.cost),
            split.solution().map(|s| s.cost)
        );
        let sa = combined.stats();
        let sb = split.stats();
        prop_assert_eq!(sa.updates, sb.updates);
        prop_assert_eq!(sa.solution_reports, sb.solution_reports);
        prop_assert_eq!(sa.improvements, sb.improvements);
        combined.check_invariants().map_err(TestCaseError::fail)?;
        split.check_invariants().map_err(TestCaseError::fail)?;
    }
}

/// The end-to-end stress pin: 16 real worker threads drain a 4-shard
/// range through one gateway, with scripted crashes (rejoin and
/// permanent) and holder expiry armed — and the run must still prove
/// the exact optimum.
#[test]
fn sixteen_workers_drain_a_sharded_range_through_one_gateway_with_crashes() {
    let problem = FullEnumeration::new(8);
    let expected = solve(&problem, None).best_cost;
    let mut config = RuntimeConfig::new(16).with_shards(4);
    config.poll_nodes = 200;
    config.coordinator.duplication_threshold = UBig::from(32u64);
    config.coordinator.holder_timeout_ns = 20_000_000; // 20 ms — expiry armed
                                                       // After the timeout, so the gateway/coalescing deadlines derive
                                                       // from the short 20 ms horizon.
    let mut config = config.with_gateway(12).with_coalescing(3);
    config.chaos = Some(ChaosConfig {
        crashes: vec![
            CrashPlan {
                worker_index: 3,
                after_nodes: 500,
                rejoin: true,
            },
            CrashPlan {
                worker_index: 7,
                after_nodes: 1_500,
                rejoin: false,
            },
            CrashPlan {
                worker_index: 11,
                after_nodes: 2_500,
                rejoin: true,
            },
        ],
    });
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected, "gateway run lost work");
    let crashes: u64 = report.workers.iter().map(|w| w.crashes).sum();
    assert_eq!(crashes, 3);
    let stats = report.gateway.expect("gateway stats on a gateway run");
    assert!(stats.flushes >= 1, "the gateway never flushed");
    assert_eq!(
        stats.submissions,
        report.total_contacts(),
        "every worker contact must route through the gateway"
    );
    // The shared-bundle economics: the router served at most as many
    // lock-acquiring contacts as worker submissions (strict reduction
    // is pinned deterministically by the sim and unit tests).
    assert!(report.router_contacts > 0);
    assert!(
        stats.flushes <= stats.submissions,
        "flushes cannot outnumber submissions"
    );
}
