//! Property tests pinning batched delivery to sequential semantics —
//! the batching mirror of the S=1 router oracle in `shard_props.rs`.
//!
//! [`ShardRouter::handle_bundle`]'s documented contract: a bundle's
//! outcome — every response *and* the coordinator state left behind —
//! is identical to delivering the same requests one at a time through
//! `handle` in **grouped order** (ascending home shard, bundle order
//! within a shard). At `S = 1` grouping is the identity permutation, so
//! a bundle is pinned to its exact original interleaving against a bare
//! [`Coordinator`]; at any `S` it is pinned to the grouped replay,
//! steals, endgame `Retry` backpressure and all.

use gridbnb_core::{
    Coordinator, CoordinatorConfig, Interval, Request, Response, ShardRouter, Solution, UBig,
    WorkerId,
};
use proptest::prelude::*;

const WORKERS: u64 = 6;

fn config(threshold: u64) -> CoordinatorConfig {
    CoordinatorConfig {
        duplication_threshold: UBig::from(threshold),
        holder_timeout_ns: 50,
        initial_upper_bound: Some(10_000),
    }
}

/// Symbolic protocol step: (op, worker, power, fraction-ppm).
type Step = (u8, u8, u16, u32);

fn arb_steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u8..7, 0u8..WORKERS as u8, 1u16..500, 0u32..1_000_000u32),
        1..max,
    )
}

/// Builds the request a step implies from the workers' model state —
/// *without* seeing any response (a bundle is sent all at once). The
/// model mutations (progress, unit forgotten on completion/leave) apply
/// immediately; response-driven mutations happen in [`absorb`].
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
        // Progress then periodic checkpoint.
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
        // Combined progress + improvement: the batched protocol's
        // headline request. Without a live unit it degrades to a plain
        // report.
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

/// Sorted (begin, end) pairs of a per-shard snapshot, flattened — a
/// canonical form for state comparison.
fn canonical(snapshot: &[Vec<Interval>]) -> Vec<(UBig, UBig)> {
    let mut all: Vec<(UBig, UBig)> = snapshot
        .iter()
        .flatten()
        .map(|i| (i.begin().clone(), i.end().clone()))
        .collect();
    all.sort();
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of requests, chunked into bundles, must produce
    /// exactly the responses and state of the grouped sequential replay
    /// on an identically configured router — for every shard count.
    #[test]
    fn bundles_match_grouped_sequential_delivery(
        steps in arb_steps(120),
        chunk in 1usize..=5,
        shards in 1usize..=4,
        threshold in 1u64..300,
        total in 50u64..20_000,
    ) {
        let root = Interval::new(UBig::zero(), UBig::from(total));
        let bundled = ShardRouter::new(root.clone(), shards, config(threshold)).unwrap();
        let sequential = ShardRouter::new(root, shards, config(threshold)).unwrap();
        let mut models: Vec<Option<Interval>> = (0..WORKERS).map(|_| None).collect();
        let mut now = 0u64;

        for bundle_steps in steps.chunks(chunk) {
            now += 1;
            let requests: Vec<Request> = bundle_steps
                .iter()
                .filter_map(|&s| request_of(s, &mut models))
                .collect();
            if requests.is_empty() {
                continue;
            }
            // Batched delivery.
            let batched_responses = bundled.handle_bundle(requests.clone(), now);
            // The documented equivalent: singles in grouped order
            // (stable by home shard), responses re-matched to input
            // positions.
            let mut order: Vec<usize> = (0..requests.len()).collect();
            order.sort_by_key(|&i| sequential.route(requests[i].worker()).0);
            let mut grouped_responses: Vec<Option<Response>> =
                (0..requests.len()).map(|_| None).collect();
            for &i in &order {
                grouped_responses[i] = Some(sequential.handle(requests[i].clone(), now));
            }

            prop_assert_eq!(batched_responses.len(), requests.len());
            for (i, response) in batched_responses.iter().enumerate() {
                let expected = grouped_responses[i].as_ref().expect("delivered");
                prop_assert_eq!(
                    format!("{response:?}"),
                    format!("{expected:?}"),
                    "response {} diverged for {:?}",
                    i,
                    requests[i]
                );
                absorb(&requests[i], response, &mut models);
            }
            prop_assert_eq!(bundled.size(), sequential.size(), "sizes diverged");
            prop_assert_eq!(bundled.cardinality(), sequential.cardinality());
            prop_assert_eq!(bundled.is_terminated(), sequential.is_terminated());
            prop_assert_eq!(bundled.cutoff(), sequential.cutoff());
            prop_assert_eq!(bundled.steals(), sequential.steals(), "steals diverged");
            bundled.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("bundled invariant violated: {e}"))
            })?;
        }

        // Final state identity: stats, best solution, and the exact
        // interval content of every shard.
        prop_assert_eq!(bundled.stats(), sequential.stats());
        prop_assert_eq!(
            bundled.solution().map(|s| s.cost),
            sequential.solution().map(|s| s.cost)
        );
        let (snap_a, _) = bundled.snapshot();
        let (snap_b, _) = sequential.snapshot();
        prop_assert_eq!(snap_a.len(), snap_b.len());
        for (k, (a, b)) in snap_a.iter().zip(&snap_b).enumerate() {
            prop_assert_eq!(
                canonical(std::slice::from_ref(a)),
                canonical(std::slice::from_ref(b)),
                "shard {} intervals diverged",
                k
            );
        }
    }

    /// At S = 1 grouping is the identity, so bundles are pinned to the
    /// *original* interleaving against a bare coordinator — the direct
    /// extension of the existing S=1 router identity oracle to the
    /// batched surface.
    #[test]
    fn bundles_at_s1_match_a_bare_coordinator_in_original_order(
        steps in arb_steps(120),
        chunk in 1usize..=6,
        threshold in 1u64..300,
        total in 50u64..20_000,
    ) {
        let root = Interval::new(UBig::zero(), UBig::from(total));
        let router = ShardRouter::new(root.clone(), 1, config(threshold)).unwrap();
        let mut bare = Coordinator::new(root, config(threshold));
        let mut models: Vec<Option<Interval>> = (0..WORKERS).map(|_| None).collect();
        let mut now = 0u64;

        for bundle_steps in steps.chunks(chunk) {
            now += 1;
            let requests: Vec<Request> = bundle_steps
                .iter()
                .filter_map(|&s| request_of(s, &mut models))
                .collect();
            if requests.is_empty() {
                continue;
            }
            let batched = router.handle_bundle(requests.clone(), now);
            for (i, response) in batched.iter().enumerate() {
                let expected = bare.handle(requests[i].clone(), now);
                prop_assert_eq!(
                    format!("{response:?}"),
                    format!("{expected:?}"),
                    "response {} diverged for {:?}",
                    i,
                    requests[i]
                );
                absorb(&requests[i], response, &mut models);
            }
            prop_assert_eq!(router.size(), bare.size());
            prop_assert_eq!(router.is_terminated(), bare.is_terminated());
        }
        prop_assert_eq!(router.stats(), *bare.stats());
        bare.check_invariants().map_err(|e| {
            TestCaseError::fail(format!("bare invariant violated: {e}"))
        })?;
        router.check_invariants().map_err(|e| {
            TestCaseError::fail(format!("router invariant violated: {e}"))
        })?;
    }

    /// `UpdateAndReport` is exactly `ReportSolution` then `Update` in
    /// one contact: same ack, same state, for arbitrary held intervals,
    /// progress fractions and solution costs.
    #[test]
    fn update_and_report_is_report_then_update(
        total in 50u64..50_000,
        threshold in 1u64..300,
        frac_ppm in 0u32..1_000_000,
        cost in 1u64..20_000,
        with_solution_bit in 0u8..2,
    ) {
        let with_solution = with_solution_bit == 1;
        let root = Interval::new(UBig::zero(), UBig::from(total));
        let mut combined = Coordinator::new(root.clone(), config(threshold));
        let mut split = Coordinator::new(root, config(threshold));
        let w = WorkerId(0);
        let join = Request::Join { worker: w, power: 7 };
        let live = match combined.handle(join.clone(), 0) {
            Response::Work { interval, .. } => interval,
            other => panic!("join failed: {other:?}"),
        };
        let _ = split.handle(join, 0);
        let adv = live.length().mul_div_floor(frac_ppm as u64, 1_000_000);
        let reported = Interval::new(live.begin().add(&adv), live.end().clone());
        let solution = with_solution.then(|| Solution::new(cost, vec![0]));

        let a = combined.handle(
            Request::UpdateAndReport {
                worker: w,
                interval: reported.clone(),
                solution: solution.clone(),
            },
            9,
        );
        if let Some(solution) = solution {
            let _ = split.handle(Request::ReportSolution { worker: w, solution }, 9);
        }
        let b = split.handle(
            Request::Update {
                worker: w,
                interval: reported,
            },
            9,
        );
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        prop_assert_eq!(combined.stats(), split.stats());
        prop_assert_eq!(combined.size(), split.size());
        prop_assert_eq!(
            combined.solution().map(|s| s.cost),
            split.solution().map(|s| s.cost)
        );
        combined.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// The mixed-worker merge identity as a property: `UpdateAndReport`
    /// folded by one worker ≡ the split `ReportSolution` (from a
    /// *different* worker whose home shard does not run later) +
    /// `Update` pair, interleaved through one shared bundle — same ack,
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

        let combined_bundle = vec![Request::UpdateAndReport {
            worker: updater,
            interval: reported.clone(),
            solution: Some(solution.clone()),
        }];
        let a = combined.handle_bundle(combined_bundle, 9);
        let split_bundle = vec![
            Request::ReportSolution {
                worker: reporter,
                solution,
            },
            Request::Update {
                worker: updater,
                interval: reported,
            },
        ];
        let b = split.handle_bundle(split_bundle, 9);
        prop_assert_eq!(
            format!("{:?}", a.last().unwrap()),
            format!("{:?}", b.last().unwrap())
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
