//! Replicable-mode tests: same seed, same search.
//!
//! The headline property (after Archibald et al., *Replicable Parallel
//! Branch and Bound Search*): two deterministic replicable runs with
//! the same seed produce **byte-identical** run-traces, identical
//! per-shard counters, and identical node/steal totals — on flowshop
//! *and* QAP, across random seeds. The satellites pin the steal
//! counter's quiesce contract, trace-driven replay against live router
//! snapshots, and determinism under scripted crashes + holder expiry.

use gridbnb_core::runtime::{run, ChaosConfig, CrashPlan, RunReport, RuntimeConfig};
use gridbnb_core::{
    Interval, MemoryBackend, MetricsRegistry, Request, Response, RunTrace, ShardId, ShardRouter,
    Solution, StorageBackend, TraceEvent, TraceMeta, TraceReplayer, UBig, WalOp, WalStore,
    WorkerId,
};
use gridbnb_engine::solve;
use gridbnb_engine::toy::FullEnumeration;
use gridbnb_flowshop::taillard::generate;
use gridbnb_flowshop::{BoundMode, FlowshopProblem, Problem};
use gridbnb_qap::{Bound, QapInstance, QapProblem};
use proptest::prelude::*;
use std::sync::Arc;

fn small_flowshop(seed: i64) -> FlowshopProblem {
    let instance = generate(9, 4, seed);
    FlowshopProblem::new(
        instance,
        BoundMode::Johnson(gridbnb_flowshop::bounds::PairSelection::All),
    )
}

fn small_qap(seed: u64) -> QapProblem {
    QapProblem::new(QapInstance::nugent_style(3, 3, seed), Bound::GilmoreLawler)
}

fn replicable_config(workers: usize, shards: usize, seed: u64) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(workers)
        .with_shards(shards)
        .with_replicable(seed);
    config.poll_nodes = 500;
    config.coordinator.duplication_threshold = UBig::from(32u64);
    config.coordinator.holder_timeout_ns = 20_000_000;
    config
}

/// Asserts the full cross-run equivalence contract between two
/// deterministic replicable reports: byte-identical traces, identical
/// per-shard counters, identical node and steal totals.
fn assert_equivalent(a: &RunReport, b: &RunReport) {
    let ta = a.trace.as_ref().expect("run a recorded no trace");
    let tb = b.trace.as_ref().expect("run b recorded no trace");
    assert_eq!(ta.encode(), tb.encode(), "traces are not byte-identical");
    assert!(
        gridbnb_core::diff_traces(&ta.events(), &tb.events()).is_none(),
        "diff_traces disagrees with byte equality"
    );
    assert_eq!(a.shard_stats, b.shard_stats, "per-shard counters diverge");
    assert_eq!(a.total_explored(), b.total_explored());
    assert_eq!(a.steals, b.steals);
    assert_eq!(a.steals, ta.steal_count(), "trace missed a steal");
    assert_eq!(a.proven_optimum, b.proven_optimum);
    assert_eq!(
        a.solution.as_ref().map(|s| s.cost),
        b.solution.as_ref().map(|s| s.cost)
    );
}

/// Replays a finished run's trace from the partitioned root and checks
/// it lands exactly on the final state: every shard drained, the best
/// solution equal to the report's.
fn replay_to_final<P: Problem>(problem: &P, report: &RunReport, shards: usize) {
    let trace = report.trace.as_ref().expect("no trace");
    let root = problem.shape().root_range();
    let mut replayer = TraceReplayer::new(&root, shards);
    replayer.replay(&trace.events()).expect("replay failed");
    replayer
        .verify_snapshot(&(vec![Vec::new(); shards], report.solution.clone()))
        .expect("replayed end state is not the drained final state");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline: flowshop, W=8 S=4, random seeds — two same-seed
    /// replicable runs are byte-identical and exact.
    #[test]
    fn flowshop_same_seed_runs_are_byte_identical(
        seed in any::<u64>(),
        instance_seed in 1i64..500,
    ) {
        let problem = small_flowshop(instance_seed);
        let expected = solve(&problem, None).best_cost;
        let config = replicable_config(8, 4, seed);
        let a = run(&problem, &config);
        let b = run(&problem, &config);
        prop_assert_eq!(a.proven_optimum, expected);
        assert_equivalent(&a, &b);
        replay_to_final(&problem, &a, 4);
    }

    /// Same contract on a different problem family: QAP under the
    /// Gilmore–Lawler bound.
    #[test]
    fn qap_same_seed_runs_are_byte_identical(
        seed in any::<u64>(),
        instance_seed in 1u64..500,
    ) {
        let problem = small_qap(instance_seed);
        let expected = solve(&problem, None).best_cost;
        let config = replicable_config(8, 4, seed);
        let a = run(&problem, &config);
        let b = run(&problem, &config);
        prop_assert_eq!(a.proven_optimum, expected);
        assert_equivalent(&a, &b);
        replay_to_final(&problem, &a, 4);
    }
}

/// Different seeds may legally search differently, but each must still
/// prove the same optimum.
#[test]
fn different_seeds_stay_exact() {
    let problem = small_flowshop(77);
    let expected = solve(&problem, None).best_cost;
    for seed in [0u64, 1, 42, u64::MAX] {
        let report = run(&problem, &replicable_config(8, 4, seed));
        assert_eq!(report.proven_optimum, expected, "seed {seed} diverged");
    }
}

/// Crash + holder-expiry determinism: the deterministic driver runs on
/// a logical clock, so scripted crashes and the resulting holder
/// expiries land on the same tick every run — same seed twice must
/// still be byte-identical, and still exact.
#[test]
fn crashes_and_expiry_are_deterministic() {
    // FullEnumeration forces an exhaustive 109 600-node search so the
    // scripted crashes reliably fire mid-exploration (a pruned flowshop
    // run can finish before a late worker ever reaches its trigger).
    let problem = FullEnumeration::new(8);
    let expected = solve(&problem, None).best_cost;
    let mut config = replicable_config(6, 3, 2007);
    config.poll_nodes = 200;
    config.chaos = Some(ChaosConfig {
        crashes: vec![
            CrashPlan {
                worker_index: 2,
                after_nodes: 2_000,
                rejoin: false,
            },
            CrashPlan {
                worker_index: 4,
                after_nodes: 5_000,
                rejoin: true,
            },
        ],
    });
    let a = run(&problem, &config);
    let b = run(&problem, &config);
    assert_eq!(a.proven_optimum, expected);
    assert_equivalent(&a, &b);
    assert_eq!(a.workers[2].crashes, 1, "scripted crash did not fire");
    assert_eq!(a.workers[4].crashes, 1);
    replay_to_final(&problem, &a, 3);
}

/// The trace metrics agree with the trace itself when the run records
/// into an injected registry.
#[test]
fn trace_metrics_count_every_event() {
    let registry = MetricsRegistry::new();
    let problem = small_flowshop(13);
    let mut config = replicable_config(4, 2, 9);
    config.metrics = Some(registry.clone());
    let report = run(&problem, &config);
    let trace = report.trace.expect("no trace");
    assert_eq!(
        registry.snapshot().counter("gbnb_trace_events_total"),
        trace.len() as u64
    );
    assert!(!trace.is_empty(), "a full run must produce events");
}

fn iv(a: u64, b: u64) -> Interval {
    Interval::new(UBig::from(a), UBig::from(b))
}

/// Satellite: `ShardRouter::steals()` quiesces in-flight steals before
/// sampling, so the count a reader sees always matches the steal events
/// already published to the trace — pinned by forcing one steal per
/// round through a drained shard and comparing after every round, then
/// replaying the mid-run trace against a live snapshot.
#[test]
fn steal_counter_matches_trace_at_every_quiesce_point() {
    let config = gridbnb_core::CoordinatorConfig {
        duplication_threshold: UBig::from(1u64),
        holder_timeout_ns: 1_000_000_000,
        initial_upper_bound: Some(10_000),
    };
    // Shard 1 starts drained: every work request addressed to it must
    // steal from shard 0.
    let router = ShardRouter::restore(
        iv(0, 4096),
        vec![vec![iv(0, 4096)], Vec::new()],
        None,
        config,
    )
    .unwrap();
    let trace = Arc::new(RunTrace::new(
        TraceMeta {
            seed: 7,
            workers: 1,
            shards: 2,
        },
        router.metrics(),
    ));
    let router = router.with_trace(trace.clone());

    // A worker homed on shard 0 grabs (and keeps holding) its whole
    // entry, so every later steal by a worker homed on shard 1 must
    // split it — the held back half halves each round instead of the
    // first steal draining shard 0 in one donation.
    let worker_on = |shard: u32| {
        (0u64..)
            .map(WorkerId)
            .find(|&w| router.route(w) == ShardId(shard))
            .expect("some worker is homed on every shard")
    };
    let (holder_id, stealer_id) = (worker_on(0), worker_on(1));
    let holder = router.handle(
        Request::RequestWork {
            worker: holder_id,
            power: 1,
        },
        1,
    );
    assert!(matches!(holder, Response::Work { .. }));

    for (now, round) in (2u64..).zip(0..10) {
        let response = router.handle(
            Request::RequestWork {
                worker: stealer_id,
                power: 1,
            },
            now,
        );
        assert!(
            matches!(response, Response::Work { .. }),
            "round {round}: expected stolen work, got {response:?}"
        );
        assert_eq!(
            router.steals(),
            trace.steal_count(),
            "round {round}: sampled steal count disagrees with the trace"
        );
    }
    assert!(router.steals() >= 10, "each round must force a steal");

    // The mid-run trace replays from the restored starting state onto
    // exactly the router's live snapshot.
    let mut replayer = TraceReplayer::from_intervals(vec![vec![iv(0, 4096)], Vec::new()]);
    replayer.replay(&trace.events()).expect("mid-run replay");
    replayer
        .verify_snapshot(&router.snapshot())
        .expect("replayed state diverges from the live router");
}

/// A traced lock section applies a whole contact in one batch, yet
/// records what serving it one request at a time would: a worker's
/// `[ReportSolution, RequestWork]` bundle (what `RouterTransport` sends)
/// records the `Solution` op, then the partition ops, then the handout
/// — and the trace replays onto the live router.
#[test]
fn traced_bundle_records_its_ops_then_its_handout() {
    let config = gridbnb_core::CoordinatorConfig {
        duplication_threshold: UBig::from(1u64),
        holder_timeout_ns: 1_000_000_000,
        initial_upper_bound: Some(10_000),
    };
    let start = vec![vec![iv(0, 4096)]];
    let router = ShardRouter::restore(iv(0, 4096), start.clone(), None, config).unwrap();
    let trace = Arc::new(RunTrace::new(
        TraceMeta {
            seed: 0,
            workers: 2,
            shards: 1,
        },
        router.metrics(),
    ));
    let router = router.with_trace(trace.clone());
    // Worker 0 holds the whole root, so worker 1's request splits it.
    let held = router.handle(
        Request::RequestWork {
            worker: WorkerId(0),
            power: 1,
        },
        1,
    );
    assert!(matches!(held, Response::Work { .. }));
    let before = trace.len();

    let solution = Solution::new(99, vec![0]);
    let responses = router.handle_bundle(
        vec![
            Request::ReportSolution {
                worker: WorkerId(1),
                solution: solution.clone(),
            },
            Request::RequestWork {
                worker: WorkerId(1),
                power: 1,
            },
        ],
        2,
    );
    assert_eq!(
        responses[1],
        Response::Work {
            interval: iv(2048, 4096),
            cutoff: Some(99),
        }
    );
    let op = |op| TraceEvent::Op { shard: 0, op };
    assert_eq!(
        trace.events()[before..],
        [
            op(WalOp::Solution(solution)),
            op(WalOp::Replace {
                old: iv(0, 4096),
                new: iv(0, 2048),
            }),
            op(WalOp::Insert(iv(2048, 4096))),
            TraceEvent::Handout {
                worker: 1,
                shard: 0,
                interval: iv(2048, 4096),
            },
        ]
    );

    let mut replayer = TraceReplayer::from_intervals(start);
    replayer.replay(&trace.events()).expect("replay");
    replayer
        .verify_snapshot(&router.snapshot())
        .expect("replayed state diverges from the live router");
}

/// Threaded replicable mode (ordered rules + trace on real threads):
/// event order may vary run to run, but the trace must stay internally
/// consistent — steals counted exactly, and the whole thing replayable
/// to the drained final state.
#[test]
fn threaded_replicable_trace_is_replayable() {
    let problem = small_flowshop(37);
    let expected = solve(&problem, None).best_cost;
    let mut config = RuntimeConfig::new(4)
        .with_shards(4)
        .with_replicable_threads(5);
    config.poll_nodes = 500;
    config.coordinator.duplication_threshold = UBig::from(32u64);
    config.coordinator.holder_timeout_ns = 20_000_000;
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected);
    let trace = report.trace.as_ref().expect("no trace");
    assert_eq!(report.steals, trace.steal_count());
    replay_to_final(&problem, &report, 4);
}

/// Length and CRC-32 of a deterministic run's encoded trace.
fn trace_digest(report: &RunReport) -> (usize, u32) {
    let encoded = report.trace.as_ref().expect("no trace").encode();
    (encoded.len(), gridbnb_core::wal::crc32(encoded.as_bytes()))
}

/// The cross-commit half of "same seed, byte-identical trace": this
/// digest was recorded at the commit *before* the logical-clock driver
/// was folded onto the threaded runtime's worker state machine. A
/// change to the worker's step order, the scheduler, the clock or the
/// ordered steal rules moves it — re-record only on purpose.
#[test]
fn pinned_trace_digests_survive_refactors() {
    // One crash-and-rejoin, one crash-no-rejoin, exhaustive search.
    let problem = FullEnumeration::new(7);
    let mut config = replicable_config(4, 2, 2007);
    config.poll_nodes = 200;
    config.chaos = Some(ChaosConfig {
        crashes: vec![
            CrashPlan {
                worker_index: 1,
                after_nodes: 1_000,
                rejoin: true,
            },
            CrashPlan {
                worker_index: 3,
                after_nodes: 2_000,
                rejoin: false,
            },
        ],
    });
    let report = run(&problem, &config);
    assert_eq!(report.workers[1].crashes, 1);
    assert_eq!(report.workers[3].crashes, 1);
    assert_eq!(trace_digest(&report), (5818, 3_014_979_310));
}

/// The deterministic driver runs on the same router set-up as the
/// threads, so a durability policy is honoured there too: the run is
/// journaled, the terminal compaction commits the fully-explored state,
/// and journaling leaves the search — and its trace — untouched.
#[test]
fn deterministic_run_with_durability_commits_the_terminal_state() {
    let problem = small_flowshop(21);
    let expected = solve(&problem, None).best_cost;
    let plain = run(&problem, &replicable_config(4, 2, 11));
    let backend = Arc::new(MemoryBackend::new());
    let durable = run(
        &problem,
        &replicable_config(4, 2, 11).with_durability(
            Arc::clone(&backend) as Arc<dyn StorageBackend>,
            std::time::Duration::from_millis(5),
        ),
    );
    assert_eq!(durable.proven_optimum, expected);
    assert_equivalent(&plain, &durable);
    let (_, state) = WalStore::recover(backend as Arc<dyn StorageBackend>).expect("recover");
    assert_eq!(state.total_length(), UBig::zero());
    assert_eq!(state.solution.map(|s| s.cost), expected);
    assert_eq!(state.replayed_ops, 0, "terminal compaction left a log tail");
}
