//! End-to-end runtime tests: the threaded farmer–worker resolution must
//! always return the exact optimum — with many workers, heterogeneous
//! powers, crashes, rejoin, and restore from a recovered log or v1
//! snapshot text.

use gridbnb_core::runtime::{
    run, run_with_router, run_workers, ChaosConfig, CrashPlan, RuntimeConfig, WorkerReport,
};
use gridbnb_core::{
    CoordinatorConfig, MemoryBackend, PendingContact, Request, Response, RouterTransport,
    ShardRouter, StorageBackend, Submitted, Transport, TransportError, UBig, WalStore,
};
use gridbnb_engine::toy::FullEnumeration;
use gridbnb_engine::{solve, solve_interval};
use gridbnb_flowshop::taillard::generate;
use gridbnb_flowshop::{BoundMode, FlowshopProblem, Problem};
use gridbnb_tsp::{TspInstance, TspProblem};
use proptest::prelude::*;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_flowshop(seed: i64) -> FlowshopProblem {
    let instance = generate(9, 4, seed);
    FlowshopProblem::new(
        instance,
        BoundMode::Johnson(gridbnb_flowshop::bounds::PairSelection::All),
    )
}

/// A 7x3 flowshop: solved in well under a millisecond.
fn tiny_flowshop() -> FlowshopProblem {
    FlowshopProblem::new(
        generate(7, 3, 5),
        BoundMode::Johnson(gridbnb_flowshop::bounds::PairSelection::All),
    )
}

fn fast_config(workers: usize) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(workers);
    config.poll_nodes = 500;
    config.coordinator.duplication_threshold = UBig::from(32u64);
    config.coordinator.holder_timeout_ns = 20_000_000; // 20 ms
    config
}

#[test]
fn one_worker_matches_sequential() {
    let problem = small_flowshop(11);
    let sequential = solve(&problem, None);
    let report = run(&problem, &fast_config(1));
    assert_eq!(report.proven_optimum, sequential.best_cost);
    assert_eq!(report.solution.map(|s| s.cost), sequential.best_cost);
}

#[test]
fn many_workers_match_sequential() {
    let problem = small_flowshop(22);
    let expected = solve(&problem, None).best_cost;
    for workers in [2, 4, 8] {
        let report = run(&problem, &fast_config(workers));
        assert_eq!(
            report.proven_optimum, expected,
            "{workers} workers diverged"
        );
        // Under heavy test-host load (and with the combined
        // update-and-report contact shaving per-slice round-trips) one
        // worker may finish the tiny instance before the rest even
        // join, so only ≥ 1 is guaranteed — as in the sharded sibling.
        assert!(report.coordinator_stats.work_allocations >= 1);
    }
}

/// Workers always explore pooled (the engine's `pool_props` oracle pins
/// scalar ≡ pooled): the run is exact and its pools are counted.
#[test]
fn pooling_toggle_is_exact_and_counted() {
    let problem = small_flowshop(55);
    let expected = solve(&problem, None).best_cost;
    let pooled = run(&problem, &fast_config(2));
    assert_eq!(pooled.proven_optimum, expected);
    assert!(pooled.total_bound_batches() > 0, "no pools were filled");
    // Fill-time counting can only over-count relative to consumption.
    assert!(pooled.total_nodes_bounded() >= pooled.total_bound_calls());
    assert!(pooled.nodes_bounded_per_sec() > 0.0);
}

#[test]
fn heterogeneous_powers_still_exact() {
    let problem = small_flowshop(33);
    let expected = solve(&problem, None).best_cost;
    let mut config = fast_config(4);
    config.worker_powers = vec![20, 100, 350, 1000];
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected);
}

#[test]
fn initial_upper_bound_is_honored() {
    let problem = small_flowshop(44);
    let optimum = solve(&problem, None).best_cost.unwrap();
    // Exact-bound run: pure optimality proof, no solution produced.
    let config = fast_config(3).with_initial_upper_bound(optimum);
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, Some(optimum));
    assert!(report.solution.is_none());
    // Loose-bound run: the solution must be rediscovered.
    let config = fast_config(3).with_initial_upper_bound(optimum + 5);
    let report = run(&problem, &config);
    assert_eq!(report.solution.map(|s| s.cost), Some(optimum));
}

#[test]
fn crash_without_rejoin_preserves_exactness() {
    // FullEnumeration forces an exhaustive 986 410-node search so the
    // scripted crashes reliably fire mid-exploration.
    let problem = FullEnumeration::new(9);
    let expected = solve(&problem, None).best_cost;
    let mut config = fast_config(4);
    config.poll_nodes = 200;
    config.chaos = Some(ChaosConfig {
        crashes: vec![
            CrashPlan {
                worker_index: 0,
                after_nodes: 2_000,
                rejoin: false,
            },
            CrashPlan {
                worker_index: 2,
                after_nodes: 5_000,
                rejoin: false,
            },
        ],
    });
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected, "crashes lost work");
    let crashes: u64 = report.workers.iter().map(|w| w.crashes).sum();
    assert_eq!(crashes, 2);
}

/// A campaign whose every worker is gone before the tree is explored
/// proves nothing: the report says so instead of passing the best
/// solution found so far off as the optimum.
#[test]
fn unfinished_run_proves_nothing() {
    let problem = FullEnumeration::new(9);
    let mut config = fast_config(2);
    config.poll_nodes = 200;
    config.chaos = Some(ChaosConfig {
        crashes: (0..2)
            .map(|worker_index| CrashPlan {
                worker_index,
                after_nodes: 1_000,
                rejoin: false,
            })
            .collect(),
    });
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, None);
    assert!(!report.terminated);
    assert!(report.remaining > UBig::zero());
}

#[test]
fn crash_with_rejoin_preserves_exactness() {
    let problem = FullEnumeration::new(9);
    let expected = solve(&problem, None).best_cost;
    let mut config = fast_config(3);
    config.poll_nodes = 200;
    config.chaos = Some(ChaosConfig {
        crashes: vec![CrashPlan {
            worker_index: 1,
            after_nodes: 1_000,
            rejoin: true,
        }],
    });
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected);
    assert!(report.workers[1].crashes == 1);
}

#[test]
fn all_workers_crash_then_rejoin_still_completes() {
    let problem = FullEnumeration::new(9);
    let expected = solve(&problem, None).best_cost;
    let mut config = fast_config(3);
    config.poll_nodes = 200;
    config.chaos = Some(ChaosConfig {
        crashes: (0..3)
            .map(|i| CrashPlan {
                worker_index: i,
                after_nodes: 1_000 + 700 * i as u64,
                rejoin: true,
            })
            .collect(),
    });
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected);
    let crashes: u64 = report.workers.iter().map(|w| w.crashes).sum();
    assert_eq!(crashes, 3);
}

#[test]
fn coalescing_strictly_reduces_contacts() {
    // One worker, fixed workload: the exploration is deterministic, so
    // the per-slice contact count is too. Folding 8 slices per contact
    // must strictly cut worker contacts while the proof stays exact.
    let problem = FullEnumeration::new(8);
    let expected = solve(&problem, None).best_cost;
    let mut config = fast_config(1);
    config.poll_nodes = 100;
    let per_slice = run(&problem, &config);
    let coalesced_config = config.clone().with_coalescing(8);
    let coalesced = run(&problem, &coalesced_config);
    assert_eq!(per_slice.proven_optimum, expected);
    assert_eq!(coalesced.proven_optimum, expected);
    assert!(
        coalesced.total_contacts() < per_slice.total_contacts(),
        "coalescing must reduce contacts: {} vs {}",
        coalesced.total_contacts(),
        per_slice.total_contacts()
    );
    // Sanity on the counters themselves: contacts include every unit
    // request and every checkpoint contact.
    assert!(per_slice.total_contacts() > per_slice.coordinator_stats.work_allocations);
}

#[test]
fn coalesced_sharded_runtime_stays_exact() {
    // Coalescing + combined update-and-report + work-request bundles
    // across the direct-shard transport: the proof must stay exact and
    // worker-side update counting must still match the coordinator's.
    let problem = small_flowshop(55);
    let expected = solve(&problem, None).best_cost;
    for shards in [1usize, 4] {
        let config = fast_config(4).with_shards(shards).with_coalescing(4);
        let report = run(&problem, &config);
        assert_eq!(
            report.proven_optimum, expected,
            "{shards} shards with coalescing diverged"
        );
        let updates: u64 = report.workers.iter().map(|w| w.checkpoint_ops).sum();
        assert_eq!(updates, report.coordinator_stats.updates);
    }
}

#[test]
fn coalesced_runtime_survives_crashes() {
    let problem = FullEnumeration::new(9);
    let expected = solve(&problem, None).best_cost;
    let mut config = fast_config(4).with_shards(4).with_coalescing(6);
    config.poll_nodes = 200;
    config.chaos = Some(ChaosConfig {
        crashes: vec![
            CrashPlan {
                worker_index: 0,
                after_nodes: 2_000,
                rejoin: true,
            },
            CrashPlan {
                worker_index: 2,
                after_nodes: 5_000,
                rejoin: false,
            },
        ],
    });
    let report = run(&problem, &config);
    assert_eq!(
        report.proven_optimum, expected,
        "coalesced crashes lost work"
    );
    let crashes: u64 = report.workers.iter().map(|w| w.crashes).sum();
    assert_eq!(crashes, 2);
}

#[test]
fn sharded_runtime_matches_sequential() {
    let problem = small_flowshop(55);
    let expected = solve(&problem, None).best_cost;
    for shards in [2usize, 4, 8] {
        let config = fast_config(4).with_shards(shards);
        let report = run(&problem, &config);
        assert_eq!(report.proven_optimum, expected, "{shards} shards diverged");
        // Under heavy test-host load one worker may finish the tiny
        // instance before the rest even join, so only ≥ 1 is guaranteed.
        assert!(report.coordinator_stats.work_allocations >= 1);
        // Stealing bookkeeping is symmetric: every donation is adopted.
        assert_eq!(
            report.coordinator_stats.steals_donated,
            report.coordinator_stats.steals_adopted
        );
        assert_eq!(report.coordinator_stats.steals_donated, report.steals);
    }
}

#[test]
fn sharded_runtime_with_more_shards_than_workers_steals_to_finish() {
    // One worker, eight shards: seven slices can only be reached through
    // the work-stealing path, and the run must still be exact.
    let problem = small_flowshop(66);
    let expected = solve(&problem, None).best_cost;
    let config = fast_config(1).with_shards(8);
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected);
    assert!(
        report.steals >= 7,
        "expected ≥7 steals, saw {}",
        report.steals
    );
}

#[test]
fn sharded_runtime_survives_crashes() {
    let problem = FullEnumeration::new(9);
    let expected = solve(&problem, None).best_cost;
    let mut config = fast_config(4).with_shards(4);
    config.poll_nodes = 200;
    config.chaos = Some(ChaosConfig {
        crashes: vec![
            CrashPlan {
                worker_index: 0,
                after_nodes: 2_000,
                rejoin: true,
            },
            CrashPlan {
                worker_index: 2,
                after_nodes: 5_000,
                rejoin: false,
            },
        ],
    });
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected, "sharded crashes lost work");
    let crashes: u64 = report.workers.iter().map(|w| w.crashes).sum();
    assert_eq!(crashes, 2);
}

/// The many-worker stress pin: 16 worker threads drain a 4-shard range
/// contacting their home shards directly, with coalescing, holder
/// expiry armed and every worker scripted to crash early — three in four
/// rejoin, the rest are gone for good — and the run must still prove the
/// exact optimum. Which threads the OS lets reach their crash point
/// before the run ends is up to the scheduler, so the test asks for at
/// least three crashes, not all sixteen.
#[test]
fn sixteen_workers_drain_a_sharded_range_with_crashes() {
    let problem = FullEnumeration::new(9);
    let expected = solve(&problem, None).best_cost;
    let mut config = fast_config(16).with_shards(4).with_coalescing(3);
    config.poll_nodes = 200;
    config.chaos = Some(ChaosConfig {
        crashes: (0..16)
            .map(|worker_index| CrashPlan {
                worker_index,
                after_nodes: 200,
                rejoin: worker_index % 4 != 3,
            })
            .collect(),
    });
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected, "16-worker run lost work");
    let crashes: u64 = report.workers.iter().map(|w| w.crashes).sum();
    assert!(crashes >= 3, "only {crashes} scripted crashes fired");
    assert_eq!(report.shard_stats.len(), 4);
    assert!(report.router_contacts > 0);
}

#[test]
fn sharded_heterogeneous_powers_still_exact() {
    let problem = small_flowshop(77);
    let expected = solve(&problem, None).best_cost;
    let mut config = fast_config(4).with_shards(3);
    config.worker_powers = vec![20, 100, 350, 1000];
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, expected);
}

/// Runs `problem` durably into a file-backed log under a fresh
/// directory, compacting every 5 ms, and checks the checkpoint files the
/// terminal compaction leaves on disk: the paper's two files
/// (`snap-{g}.intervals`, `snap-{g}.solution`) hold no intervals and the
/// proven solution, and restore into a terminated router.
fn assert_checkpoint_files_restorable(tag: &str, problem: &FlowshopProblem, config: RuntimeConfig) {
    use gridbnb_core::checkpoint::{decode_sharded_intervals, decode_solution};
    use gridbnb_core::FileBackend;
    let dir = std::env::temp_dir().join(format!("gridbnb-rt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::new(&dir).unwrap());
    let config = config.with_durability(backend, Duration::from_millis(5));
    let shards = config.shards;

    let expected = solve(problem, None).best_cost;
    let report = run(problem, &config);
    assert_eq!(report.proven_optimum, expected);
    assert!(report.farmer_checkpoints >= 1);
    assert_eq!(report.checkpoint_failures, 0);

    // Exactly one generation's pair survives the terminal compaction.
    let file_with = |suffix: &str| {
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("snap-") && n.ends_with(suffix))
            .collect();
        assert_eq!(
            names.len(),
            1,
            "want one snap-*{suffix} file, got {names:?}"
        );
        std::fs::read_to_string(dir.join(&names[0])).unwrap()
    };
    let shard_intervals = decode_sharded_intervals(&file_with(".intervals")).unwrap();
    let solution = decode_solution(&file_with(".solution")).unwrap();
    assert_eq!(shard_intervals.len(), shards);
    assert!(shard_intervals.iter().all(|s| s.is_empty()));
    assert_eq!(solution.as_ref().map(|s| s.cost), expected);
    let restored = ShardRouter::restore(
        problem.shape().root_range(),
        shard_intervals,
        solution,
        config.coordinator,
    )
    .unwrap();
    assert!(restored.is_terminated());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_files_written_and_restorable() {
    assert_checkpoint_files_restorable("ckpt", &small_flowshop(88), fast_config(3));
}

#[test]
fn sharded_checkpoint_written_and_restorable() {
    assert_checkpoint_files_restorable(
        "shckpt",
        &small_flowshop(88),
        fast_config(3).with_shards(3),
    );
}

#[test]
fn coalesced_sharded_checkpoint_files_written_and_restorable() {
    // A live coalesced + sharded run compacting on a short period.
    assert_checkpoint_files_restorable(
        "coalesce-e2e",
        &small_flowshop(88),
        fast_config(3).with_shards(3).with_coalescing(4),
    );
}

#[test]
fn coalesced_sharded_mid_run_checkpoint_restores_without_losing_intervals() {
    // The coalesce × checkpoint corner: a sharded compaction taken
    // mid-run, while workers hold units and their progress arrived
    // through coalesced bundles (UpdateAndReport, mixed-worker
    // groups), must recover into a router that (a) lost no interval
    // length and (b) resumes under coalescing to the globally exact
    // optimum. Driven deterministically: each worker's explored prefix
    // is solved sequentially and reported, so the compacted state plus
    // the reports is a faithful mid-run snapshot.
    use gridbnb_core::{Request, Response, WorkerId};
    use gridbnb_engine::Solution;
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());

    let problem = small_flowshop(123);
    let shape = problem.shape();
    let root = shape.root_range();
    let expected = solve(&problem, None).best_cost;
    let coordinator_config = CoordinatorConfig {
        duplication_threshold: UBig::from(32u64),
        holder_timeout_ns: 20_000_000,
        initial_upper_bound: None,
    };
    let router = ShardRouter::new(root.clone(), 4, coordinator_config.clone())
        .unwrap()
        .with_fresh_wal(Arc::clone(&backend))
        .unwrap();
    let mut pending_report: Option<Solution> = None;
    for w in 0..3u64 {
        let worker = WorkerId(w);
        let live = match router.handle(Request::Join { worker, power: 100 }, w + 1) {
            Response::Work { interval, .. } => interval,
            other => panic!("join failed: {other:?}"),
        };
        // Explore the first third of the unit sequentially, then ship
        // the progress the way a coalescing worker would: a combined
        // UpdateAndReport bundle — for the last worker, a mixed-worker
        // bundle pairing its Update with the previous prefix's report.
        let cut = live.begin().add(&live.length().div_rem_u64(3).0);
        let (prefix, rest) = live.split_at(&cut);
        let prefix_best = solve_interval(&problem, &prefix, None).best;
        let bundle = if w < 2 {
            pending_report = prefix_best.clone();
            vec![router.envelope(Request::UpdateAndReport {
                worker,
                interval: rest.clone(),
                solution: prefix_best,
            })]
        } else {
            let mut bundle = Vec::new();
            if let Some(solution) = pending_report.take() {
                bundle.push(router.envelope(Request::ReportSolution {
                    worker: WorkerId(1),
                    solution,
                }));
            }
            bundle.push(router.envelope(Request::UpdateAndReport {
                worker,
                interval: rest.clone(),
                solution: prefix_best,
            }));
            bundle
        };
        for (_, response) in router.handle_bundle(bundle, w + 10) {
            assert!(!matches!(response, Response::Terminate));
        }
    }

    // Mid-run sharded compaction: holders attached, progress applied.
    assert!(router.compact_wal().unwrap(), "a WAL is attached");
    let size_at_save = router.size();
    assert!(!size_at_save.is_zero(), "compaction must be mid-run");
    let (_, state) = WalStore::recover(backend).unwrap();
    assert_eq!(state.shard_intervals.len(), 4);
    let restored = ShardRouter::restore(
        root,
        state.shard_intervals,
        state.solution,
        coordinator_config,
    )
    .unwrap();
    // No lost intervals: the restored unexplored length is exactly the
    // live router's (the cut is taken under the steal gate, so no
    // in-flight interval can be missed).
    assert_eq!(restored.size(), size_at_save);

    // Resume under coalescing + shards: the proof must complete to the
    // global optimum (explored prefixes are covered by the reported
    // solutions the snapshot carried).
    let config = fast_config(4).with_shards(4).with_coalescing(4);
    let report = run_with_router(&problem, restored, &config);
    assert_eq!(report.proven_optimum, expected, "resumed proof diverged");
}

#[test]
#[should_panic(expected = "invalid coordinator config")]
fn invalid_config_fails_fast_instead_of_clamping() {
    let problem = small_flowshop(11);
    let mut config = fast_config(1);
    config.coordinator.duplication_threshold = UBig::zero();
    let _ = run(&problem, &config);
}

#[test]
#[should_panic(expected = "at least one shard")]
fn zero_shards_fails_fast() {
    let problem = small_flowshop(11);
    let config = fast_config(1).with_shards(0);
    let _ = run(&problem, &config);
}

#[test]
#[should_panic(expected = "worker_powers must not be empty")]
fn empty_worker_powers_fails_fast() {
    let problem = small_flowshop(11);
    let mut config = fast_config(2);
    config.worker_powers = Vec::new();
    let _ = run(&problem, &config);
}

/// `FullEnumeration(9)` whose `branch` panics with "boom" on its
/// 5,000th call, whichever worker makes it.
struct BoomOnBranch {
    inner: FullEnumeration,
    calls: AtomicU64,
}

impl BoomOnBranch {
    fn new() -> Self {
        BoomOnBranch {
            inner: FullEnumeration::new(9),
            calls: AtomicU64::new(0),
        }
    }
}

impl Problem for BoomOnBranch {
    type State = <FullEnumeration as Problem>::State;

    fn shape(&self) -> gridbnb_core::TreeShape {
        self.inner.shape()
    }

    fn root_state(&self) -> Self::State {
        self.inner.root_state()
    }

    fn branch(&self, state: &Self::State, rank: u64) -> Self::State {
        if self.calls.fetch_add(1, Ordering::Relaxed) == 4_999 {
            panic!("boom");
        }
        self.inner.branch(state, rank)
    }

    fn lower_bound(&self, state: &Self::State) -> u64 {
        self.inner.lower_bound(state)
    }

    fn leaf_cost(&self, state: &Self::State) -> u64 {
        self.inner.leaf_cost(state)
    }
}

/// A worker's panic fails the run with the worker's own message once
/// the survivor has finished the tree, instead of hanging it.
#[test]
#[should_panic(expected = "boom")]
fn a_panicking_worker_fails_the_run_with_its_own_message() {
    let _ = run(&BoomOnBranch::new(), &fast_config(2));
}

/// The same through `run_workers`: the panic payload reaches the caller
/// unwrapped.
#[test]
#[should_panic(expected = "boom")]
fn a_panicking_worker_fails_run_workers_with_its_own_message() {
    let problem = BoomOnBranch::new();
    let router = ShardRouter::new(
        problem.shape().root_range(),
        1,
        CoordinatorConfig::default(),
    )
    .unwrap();
    let started = Instant::now();
    run_workers(&problem, &fast_config(1), 0, |_| {
        RouterTransport::new(&router, started)
    });
}

#[test]
fn works_on_tsp_too() {
    let instance = TspInstance::random_euclidean(9, 123);
    let expected = instance.brute_optimum();
    let problem = TspProblem::new(instance);
    let report = run(&problem, &fast_config(4));
    assert_eq!(report.proven_optimum, Some(expected));
}

#[test]
fn restore_resumes_partial_run() {
    // Simulate a farmer failure mid-run: the left half was explored (its
    // best is in SOLUTION), only the right half remains in INTERVALS.
    let problem = small_flowshop(99);
    let shape = problem.shape();
    let total = shape.root_range();
    let cut = total.end().div_rem_u64(3).0;
    let (left, right) = total.split_at(&cut);
    let left_report = solve_interval(&problem, &left, None);

    let router = ShardRouter::restore(
        total.clone(),
        vec![vec![right]],
        left_report.best.clone(),
        CoordinatorConfig {
            duplication_threshold: UBig::from(32u64),
            holder_timeout_ns: 20_000_000,
            initial_upper_bound: None,
        },
    )
    .unwrap();
    let config = fast_config(4);
    let report = run_with_router(&problem, router, &config);
    let expected = solve(&problem, None).best_cost;
    assert_eq!(report.proven_optimum, expected);
}

#[test]
fn v1_checkpoint_file_resumes_through_the_router() {
    // A markerless v1 checkpoint — what a single coordinator wrote
    // before routers existed — read by the v1 decoder and resumed as a
    // one-shard router: the left third is explored (its best is in the
    // SOLUTION text), only the rest remains in INTERVALS.
    use gridbnb_core::checkpoint::{
        decode_intervals, decode_solution, encode_intervals, encode_solution,
    };
    let problem = small_flowshop(99);
    let expected = solve(&problem, None).best_cost;
    let total = problem.shape().root_range();
    let (left, right) = total.split_at(&total.end().div_rem_u64(3).0);
    let left_best = solve_interval(&problem, &left, None).best;
    let intervals = decode_intervals(&encode_intervals(&[right])).unwrap();
    let solution = decode_solution(&encode_solution(left_best.as_ref())).unwrap();

    let config = fast_config(3);
    let router =
        ShardRouter::restore(total, vec![intervals], solution, config.coordinator.clone()).unwrap();
    let report = run_with_router(&problem, router, &config);
    assert_eq!(report.proven_optimum, expected);
    assert_eq!(report.shard_stats.len(), 1);
}

#[test]
fn back_to_back_runs_do_not_wait_out_a_timer() {
    // Teardown is a notification: nothing sleeps out a supervisor tick
    // to learn the run is over. Twenty polled 50 ms teardowns would
    // take a second by construction.
    let problem = tiny_flowshop();
    let expected = solve(&problem, None).best_cost;
    for shards in [1usize, 2] {
        let config = fast_config(2).with_shards(shards);
        let t0 = std::time::Instant::now();
        for _ in 0..20 {
            assert_eq!(run(&problem, &config).proven_optimum, expected);
        }
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "20 runs at {shards} shard(s) took {took:?}"
        );
    }
}

#[test]
fn zero_period_housekeeping_does_not_spin() {
    // A zero compaction period must not make the supervisor spin: its
    // wait is floored at 1 ms, so it can compact at most once per
    // millisecond of run, plus the terminal compaction.
    let problem = FullEnumeration::new(8);
    let config = fast_config(2).with_durability(Arc::new(MemoryBackend::new()), Duration::ZERO);
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, solve(&problem, None).best_cost);
    assert!(report.farmer_checkpoints >= 1);
    assert!(
        u128::from(report.farmer_checkpoints) <= report.wall.as_millis() + 2,
        "{} checkpoints in {:?}",
        report.farmer_checkpoints,
        report.wall
    );
}

#[test]
fn farmer_exploitation_is_the_shard_lock_hold_share() {
    // With no farmer thread, request service happens under the shard
    // locks: Table 2's farmer figure is the lock-hold time (plus the
    // supervisor's housekeeping) over the wall time.
    let registry = gridbnb_core::MetricsRegistry::new();
    let problem = FullEnumeration::new(8);
    let mut config = fast_config(2).with_metrics(&registry);
    config.poll_nodes = 50; // contact-heavy
    let report = run(&problem, &config);
    assert_eq!(report.proven_optimum, solve(&problem, None).best_cost);
    let lock_hold =
        Duration::from_nanos(registry.snapshot().histogram_sum("gbnb_shard_lock_hold_ns"));
    assert!(lock_hold > Duration::ZERO);
    // The rest is the supervisor's housekeeping (here: expiry checks).
    assert!(report.farmer_busy >= lock_hold);
    let exploitation = report.farmer_exploitation();
    assert!(exploitation > 0.0 && exploitation < 1.0, "{exploitation}");
    assert_eq!(
        exploitation,
        report.farmer_busy.as_secs_f64() / report.wall.as_secs_f64()
    );
}

#[test]
fn report_accounting_is_consistent() {
    let problem = small_flowshop(111);
    let report = run(&problem, &fast_config(4));
    // Redundancy is a fraction in [0, 1).
    let r = report.redundancy();
    assert!((0.0..1.0).contains(&r), "redundancy {r}");
    // Workers did some exploring and some checkpointing.
    assert!(report.total_explored() > 0);
    let updates: u64 = report.workers.iter().map(|w| w.checkpoint_ops).sum();
    assert_eq!(updates, report.coordinator_stats.updates);
    // Handouts are conserved: the units the workers saw are exactly the
    // allocations the coordinator counted. (Per-worker `units >= 1` is
    // NOT an invariant — on a tiny instance a late-joining worker can
    // legitimately drain zero units when the search finishes first, and
    // asserting it made this test flake roughly once per ten runs.)
    let units: u64 = report.workers.iter().map(|w| w.units).sum();
    assert_eq!(units, report.coordinator_stats.work_allocations);
    assert!(units >= 1, "somebody must have processed a unit");
    // Busy fractions are sane.
    assert!(report.worker_exploitation() > 0.0);
    assert!(report.worker_exploitation() <= 1.0 + 1e-9);
    assert!(report.farmer_exploitation() < 1.0);
}

#[test]
fn consumed_length_covers_root() {
    let problem = small_flowshop(222);
    let report = run(&problem, &fast_config(4));
    let mut consumed = UBig::zero();
    for w in &report.workers {
        consumed += &w.consumed;
    }
    assert!(
        consumed >= report.root_length,
        "explored length {consumed} must cover the root {}",
        report.root_length
    );
}

/// What a fleet's [`DelayedAcks`] transports saw, fleet-wide.
#[derive(Default)]
struct AckLedger {
    /// Periodic updates submitted while the same worker still had one in
    /// flight.
    double_inflight: AtomicU64,
    /// Synchronous contacts (a fresh-best report, a work request) made
    /// while the worker's update was still in flight.
    overtaken: AtomicU64,
    /// Acks that answered `None` to at least one `try_take` first.
    delayed: AtomicU64,
    /// Contacts made after a `Terminate` was delivered.
    after_terminate: AtomicU64,
    terminated: AtomicBool,
}

/// A router transport whose submitted updates are served at once but
/// whose acks reach the worker only after a random 0–5 `try_take` calls:
/// a deterministic stand-in for a round trip. The `terminate_at`-th
/// submitted update (counting from 1) is answered `Terminate` instead.
/// Stale holders are expired before every contact, as the runtime's
/// supervisor would, so a crashed worker's interval is handed on.
struct DelayedAcks<'r> {
    router: &'r ShardRouter,
    started: Instant,
    inner: RouterTransport<'r>,
    rng: Cell<u64>,
    submitted: Cell<u64>,
    terminate_at: Option<u64>,
    /// Updates of this worker whose ack handle is still alive (0 or 1).
    outstanding: Arc<AtomicU64>,
    ledger: Arc<AckLedger>,
}

impl<'r> DelayedAcks<'r> {
    fn new(router: &'r ShardRouter, seed: u64, ledger: &Arc<AckLedger>) -> Self {
        let started = Instant::now();
        DelayedAcks {
            router,
            started,
            inner: RouterTransport::new(router, started),
            rng: Cell::new(seed),
            submitted: Cell::new(0),
            terminate_at: None,
            outstanding: Arc::new(AtomicU64::new(0)),
            ledger: Arc::clone(ledger),
        }
    }

    fn next_delay(&self) -> u64 {
        // SplitMix64.
        let state = self.rng.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.rng.set(state);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % 6
    }

    fn note_contact(&self) {
        self.router
            .expire_stale_holders(self.started.elapsed().as_nanos() as u64);
        if self.ledger.terminated.load(Ordering::SeqCst) {
            self.ledger.after_terminate.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl Transport for DelayedAcks<'_> {
    fn contact(&self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        self.note_contact();
        if self.outstanding.load(Ordering::SeqCst) > 0 {
            self.ledger.overtaken.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.contact(requests)
    }

    fn submit(&self, requests: Vec<Request>) -> Submitted {
        self.note_contact();
        if self.outstanding.fetch_add(1, Ordering::SeqCst) > 0 {
            self.ledger.double_inflight.fetch_add(1, Ordering::SeqCst);
        }
        self.submitted.set(self.submitted.get() + 1);
        let reply = if self.terminate_at == Some(self.submitted.get()) {
            Ok(vec![Response::Terminate])
        } else {
            self.inner.contact(requests)
        };
        Submitted::Pending(Box::new(DelayedAck {
            reply: Some(reply),
            polls_left: self.next_delay(),
            polled_empty: false,
            outstanding: Arc::clone(&self.outstanding),
            ledger: Arc::clone(&self.ledger),
        }))
    }
}

struct DelayedAck {
    reply: Option<Result<Vec<Response>, TransportError>>,
    polls_left: u64,
    polled_empty: bool,
    outstanding: Arc<AtomicU64>,
    ledger: Arc<AckLedger>,
}

impl DelayedAck {
    fn deliver(&mut self) -> Result<Vec<Response>, TransportError> {
        if self.polled_empty {
            self.ledger.delayed.fetch_add(1, Ordering::SeqCst);
        }
        let reply = self.reply.take().expect("an ack is delivered once");
        if matches!(reply.as_deref(), Ok([Response::Terminate])) {
            self.ledger.terminated.store(true, Ordering::SeqCst);
        }
        reply
    }
}

impl PendingContact for DelayedAck {
    fn try_take(&mut self) -> Option<Result<Vec<Response>, TransportError>> {
        if self.polls_left > 0 {
            self.polls_left -= 1;
            self.polled_empty = true;
            return None;
        }
        Some(self.deliver())
    }

    fn wait(mut self: Box<Self>) -> Result<Vec<Response>, TransportError> {
        self.deliver()
    }
}

impl Drop for DelayedAck {
    fn drop(&mut self) {
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
}

fn total_consumed(reports: &[WorkerReport]) -> UBig {
    reports
        .iter()
        .fold(UBig::zero(), |total, w| &total + &w.consumed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delayed_acks_keep_the_search_exact(
        seed in 1i64..500,
        workers in 1usize..5,
        shards in 1usize..3,
        poll in 2u64..60,
        delays in any::<u64>(),
        crash_after in 0u64..3_000,
    ) {
        let problem = FullEnumeration::new(7);
        let flowshop = FlowshopProblem::new(
            generate(8, 3, seed),
            BoundMode::Johnson(gridbnb_flowshop::bounds::PairSelection::All),
        );
        let expected = solve(&flowshop, None).best_cost;
        let mut config = RuntimeConfig::new(workers);
        config.poll_nodes = poll;
        config.coordinator.duplication_threshold = UBig::from(32u64);
        config.coordinator.holder_timeout_ns = 20_000_000;
        // Worker 0 crashes and rejoins mid-unit in most cases, dropping
        // whatever update it had in flight.
        if crash_after > 0 {
            config.chaos = Some(ChaosConfig {
                crashes: vec![CrashPlan {
                    worker_index: 0,
                    after_nodes: crash_after,
                    rejoin: true,
                }],
            });
        }
        for (optimum, root, reports, ledger, router) in [
            drive_delayed(&flowshop, &config, shards, delays),
            drive_delayed(&problem, &config, shards, delays),
        ] {
            if root == flowshop.shape().root_range().length() {
                prop_assert_eq!(optimum, expected);
            }
            prop_assert!(router.is_terminated());
            prop_assert!(total_consumed(&reports) >= root, "consumed misses part of the root");
            for report in &reports {
                prop_assert!(report.transport_failure.is_none(), "{:?}", report.transport_failure);
            }
            prop_assert_eq!(ledger.double_inflight.load(Ordering::SeqCst), 0);
            prop_assert_eq!(ledger.overtaken.load(Ordering::SeqCst), 0);
        }
    }
}

/// Runs `config`'s fleet over [`DelayedAcks`] transports into a fresh
/// router: (proven cost, root length, reports, ledger, router).
fn drive_delayed<P: Problem>(
    problem: &P,
    config: &RuntimeConfig,
    shards: usize,
    delays: u64,
) -> (
    Option<u64>,
    UBig,
    Vec<WorkerReport>,
    Arc<AckLedger>,
    ShardRouter,
) {
    let root = problem.shape().root_range();
    let router = ShardRouter::new(root.clone(), shards, config.coordinator.clone()).unwrap();
    let ledger = Arc::new(AckLedger::default());
    let reports = run_workers(problem, config, 0, |index| {
        DelayedAcks::new(&router, delays ^ index as u64, &ledger)
    });
    let optimum = router.solution().map(|s| s.cost);
    (optimum, root.length(), reports, ledger, router)
}

#[test]
fn delayed_acks_are_really_delayed() {
    // The harness above is only as good as its delays: over an
    // exhaustive 8! search most acks must reach the worker late.
    let problem = FullEnumeration::new(8);
    let mut config = RuntimeConfig::new(2);
    config.poll_nodes = 50;
    let (_, root, reports, ledger, _) = drive_delayed(&problem, &config, 1, 7);
    let checkpoints: u64 = reports.iter().map(|w| w.checkpoint_ops).sum();
    assert!(total_consumed(&reports) >= root);
    assert!(ledger.delayed.load(Ordering::SeqCst) * 2 > checkpoints);
}

#[test]
fn terminate_through_a_pending_ack_ends_the_worker_cleanly() {
    let problem = FullEnumeration::new(8);
    let router = ShardRouter::new(
        problem.shape().root_range(),
        1,
        CoordinatorConfig::default(),
    )
    .unwrap();
    let ledger = Arc::new(AckLedger::default());
    let mut config = RuntimeConfig::new(1);
    config.poll_nodes = 50;
    let reports = run_workers(&problem, &config, 0, |_| {
        let mut transport = DelayedAcks::new(&router, 3, &ledger);
        transport.terminate_at = Some(5);
        transport
    });
    assert!(ledger.terminated.load(Ordering::SeqCst));
    assert_eq!(ledger.after_terminate.load(Ordering::SeqCst), 0);
    assert!(reports[0].transport_failure.is_none());
    assert!(reports[0].stats.explored < problem.total_nodes_below_root());
}
