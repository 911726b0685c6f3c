//! Durability integration tests at the runtime layer: durable runs
//! prove the same optimum and commit their terminal state, a mid-flight
//! crash image recovers and finishes, and a failing compaction — the
//! paper's checkpoint — can no longer fail silently.

use gridbnb_core::runtime::{run, run_with_router, RuntimeConfig};
use gridbnb_core::{
    CoordinatorConfig, Fault, FaultBackend, Interval, IntervalSet, MemoryBackend, MetricsRegistry,
    Request, Response, ShardRouter, StorageBackend, UBig, WalStore, WorkerId,
};
use gridbnb_engine::solve;
use gridbnb_flowshop::taillard::generate;
use gridbnb_flowshop::{BoundMode, FlowshopProblem, Problem};
use std::sync::Arc;
use std::time::Duration;

fn small_flowshop(seed: i64) -> FlowshopProblem {
    let instance = generate(9, 4, seed);
    FlowshopProblem::new(
        instance,
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

/// A durable run proves the optimum, journals real deltas, counts its
/// compactions as the farmer's checkpoints, and leaves the terminal
/// state committed: recovering the backend afterwards yields empty
/// intervals (nothing left to explore) and the optimal solution, which
/// restore into a terminated router — plus live `gbnb_wal_*` series on
/// the run's registry. At one shard, several, and with coalesced
/// contacts.
#[test]
fn durable_run_is_exact_and_commits_terminal_state() {
    let problem = small_flowshop(77);
    let expected = solve(&problem, None).best_cost;
    for shards in [1usize, 2, 3] {
        for coalescing in [None, Some(4)] {
            let backend = Arc::new(MemoryBackend::new());
            let registry = MetricsRegistry::new();
            let mut config = fast_config(4)
                .with_shards(shards)
                .with_metrics(&registry)
                .with_durability(
                    Arc::clone(&backend) as Arc<dyn StorageBackend>,
                    Duration::from_millis(5),
                );
            if let Some(slices) = coalescing {
                config = config.with_coalescing(slices);
            }
            let case = format!("S={shards} coalescing={coalescing:?}");
            let report = run(&problem, &config);
            assert_eq!(report.proven_optimum, expected, "{case}");
            assert_eq!(report.checkpoint_failures, 0, "{case}");
            assert!(
                report.farmer_checkpoints >= 1,
                "{case}: the terminal compaction is a checkpoint"
            );

            let scrape = registry.render_text();
            assert!(
                scrape.contains("gbnb_wal_appends_total"),
                "{case}: wal series missing from the run registry:\n{scrape}"
            );

            let (_, state) = WalStore::recover(Arc::clone(&backend) as Arc<dyn StorageBackend>)
                .expect("recover");
            assert_eq!(
                state.total_length(),
                UBig::zero(),
                "{case}: terminal compaction must commit the fully-explored state"
            );
            assert_eq!(state.solution.as_ref().map(|s| s.cost), expected, "{case}");
            assert_eq!(
                state.replayed_ops, 0,
                "{case}: a compacted terminal backend has no log tail to replay"
            );
            assert_eq!(state.shard_intervals.len(), shards, "{case}");
            let restored = ShardRouter::restore(
                problem.shape().root_range(),
                state.shard_intervals,
                state.solution,
                config.coordinator.clone(),
            )
            .expect("restore");
            assert!(restored.is_terminated(), "{case}");
        }
    }
}

/// Crash-anywhere: image the backend *while the durable run is live*
/// (MemoryBackend::dump is one mutex — a consistent point-in-time copy,
/// exactly what a kill -9 leaves on disk), then recover the image,
/// rebuild a router from it, and finish the campaign on the recovered
/// state. The resumed run must prove the same optimum.
#[test]
fn mid_flight_crash_image_recovers_and_finishes() {
    let problem = small_flowshop(88);
    let expected = solve(&problem, None).best_cost;
    let backend = Arc::new(MemoryBackend::new());
    let config = fast_config(4).with_shards(2).with_durability(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        Duration::from_millis(2),
    );

    // Snapshot thief: grab crash images continuously while the run is
    // in flight; the last image taken before termination wins.
    let imaging = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let thief = {
        let backend = Arc::clone(&backend);
        let imaging = Arc::clone(&imaging);
        std::thread::spawn(move || {
            let mut image = backend.dump();
            while imaging.load(std::sync::atomic::Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
                let next = backend.dump();
                if !next.is_empty() {
                    image = next;
                }
            }
            image
        })
    };
    let live = run(&problem, &config);
    imaging.store(false, std::sync::atomic::Ordering::Release);
    let image = thief.join().expect("imaging thread panicked");
    assert_eq!(live.proven_optimum, expected);

    // "Restart" from the crash image on a fresh backend.
    let restored = Arc::new(MemoryBackend::new());
    restored.load(image);
    let (_, state) = WalStore::recover(Arc::clone(&restored) as Arc<dyn StorageBackend>)
        .expect("every point-in-time image must be recoverable");
    let remaining = state.total_length();
    let router = ShardRouter::restore(
        problem.shape().root_range(),
        state.shard_intervals,
        state.solution,
        config.coordinator.clone(),
    )
    .expect("restore");
    assert_eq!(
        router.size(),
        remaining,
        "the restored router holds exactly the recovered interval mass"
    );
    let resumed_config = fast_config(4).with_shards(2).with_durability(
        Arc::clone(&restored) as Arc<dyn StorageBackend>,
        Duration::from_millis(2),
    );
    let resumed = run_with_router(&problem, router, &resumed_config);
    assert_eq!(
        resumed.proven_optimum, expected,
        "resumed campaign must prove the same optimum"
    );
}

/// One recovery rule for every entry point: a durable `run` on a backend
/// that already holds a finished campaign recovers its proof instead of
/// exploring the tree again from the root.
#[test]
fn run_resumes_the_campaign_its_backend_holds() {
    let problem = FlowshopProblem::new(
        generate(9, 5, 20_060_707),
        BoundMode::Johnson(gridbnb_flowshop::bounds::PairSelection::All),
    );
    assert_eq!(solve(&problem, None).best_cost, Some(564));
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let config = fast_config(2).with_durability(backend, Duration::from_millis(5));

    let first = run(&problem, &config);
    assert_eq!(first.proven_optimum, Some(564));
    assert!(first.recovery.is_none(), "the backend started empty");
    assert!(first.total_explored() > 0);

    let second = run(&problem, &config);
    assert_eq!(second.total_explored(), 0, "the proof was on the backend");
    assert!(second.recovery.is_some());
    assert!(second.terminated);
    assert_eq!(second.proven_optimum, Some(564));
}

/// A 2-shard router on a fault-injectable WAL, positioned one
/// `RequestWork` away from a cross-shard steal: w0 holds all of its home
/// shard's slice, the returned worker has taken (and still holds) all of
/// the other shard's slice, so that worker's next request can only be
/// served by stealing across shards.
fn steal_scene() -> (Arc<FaultBackend<MemoryBackend>>, ShardRouter, WorkerId) {
    let root = Interval::new(UBig::zero(), UBig::from(1_000u64));
    let config = CoordinatorConfig {
        duplication_threshold: UBig::from(1u64),
        holder_timeout_ns: 1_000_000_000,
        initial_upper_bound: Some(10_000),
    };
    let backend = Arc::new(FaultBackend::new(MemoryBackend::new()));
    let router = ShardRouter::new(root, 2, config)
        .expect("router")
        .with_fresh_wal(Arc::clone(&backend) as Arc<dyn StorageBackend>)
        .expect("create wal");

    let w0 = WorkerId(0);
    let home = router.route(w0);
    let w1 = (1..64)
        .map(WorkerId)
        .find(|&w| router.route(w) != home)
        .expect("some worker must hash to the other shard");
    for (t, w) in [(0u64, w0), (1, w1)] {
        match router.handle(
            Request::Join {
                worker: w,
                power: 10,
            },
            t,
        ) {
            Response::Work { .. } => {}
            other => panic!("expected work for {w:?}, got {other:?}"),
        }
    }
    (backend, router, w1)
}

/// Serves the thief's next request, which drains its home shard and
/// steals. Three appends run in order: the home shard's `del` of the
/// completed slice, the destination's pre-logged `Insert` of the stolen
/// interval, then the victim's `Replace` flush — arm the fault plan
/// accordingly.
fn steal_now(router: &ShardRouter, worker: WorkerId) -> Interval {
    let response = router.handle(Request::RequestWork { worker, power: 10 }, 2);
    let interval = match response {
        Response::Work { interval, .. } => interval,
        other => panic!("expected stolen work, got {other:?}"),
    };
    assert_eq!(router.steals(), 1, "the request must be served by a steal");
    interval
}

/// Regression: the cross-shard steal is logged destination-`Insert`
/// first. When that append *fails*, the victim's `Remove`/`Replace`
/// must not be logged either (both logs go stale instead) — otherwise a
/// crash image would show the stolen interval in neither shard's log and
/// recovery would silently shrink the search space.
#[test]
fn steal_with_failing_destination_append_loses_no_work() {
    let (backend, router, thief) = steal_scene();
    // Skip the home shard's `del`; fail the steal's pre-logged
    // destination Insert.
    backend.fail_after(1, 1, Fault::Error);
    let stolen = steal_now(&router, thief);
    let wal = router.wal().expect("wal attached");
    assert!(
        wal.append_failures() >= 2,
        "destination failure + victim poisoning must both be surfaced, saw {}",
        wal.append_failures()
    );
    backend.clear_faults();

    // Crash now: recover from what is on "disk". Neither half of the
    // move became durable, so the stolen interval is still covered by
    // the victim's log and the live mass (the root minus the thief's
    // completed 500-wide home slice) is exactly conserved.
    let (_, state) = WalStore::recover(Arc::clone(&backend) as Arc<dyn StorageBackend>)
        .expect("a failed steal append must not corrupt the log");
    assert_eq!(
        state.total_length(),
        UBig::from(500u64),
        "failed steal logging must not lose interval mass"
    );
    let mut union = IntervalSet::new();
    for interval in state.shard_intervals.iter().flatten() {
        union.insert(interval.clone());
    }
    assert!(
        union.covers(&stolen),
        "the stolen interval must survive in the victim's log"
    );
}

/// Regression: when the destination's `Insert` is durable but the
/// victim's half of the move fails to append, recovery sees the donated
/// range *twice* — once still inside the victim's logged interval, once
/// as the destination's Insert. Re-exploring a duplicate is safe; the
/// crash window where the interval existed in neither log is what this
/// pins down as gone.
#[test]
fn steal_with_failing_victim_append_duplicates_instead_of_losing() {
    let (backend, router, thief) = steal_scene();
    // Home `del` and the destination's Insert succeed; the victim's
    // Replace flush fails.
    backend.fail_after(2, 1, Fault::Error);
    let stolen = steal_now(&router, thief);
    backend.clear_faults();

    let (_, state) = WalStore::recover(Arc::clone(&backend) as Arc<dyn StorageBackend>)
        .expect("a half-logged steal must recover");
    // The victim's log rolled back to its full 500-wide slice, and the
    // destination's durable Insert duplicates the donated range on top.
    assert_eq!(
        state.total_length(),
        &UBig::from(500u64) + &stolen.length(),
        "the donated range must be duplicated, with nothing lost"
    );
    let mut union = IntervalSet::new();
    for interval in state.shard_intervals.iter().flatten() {
        union.insert(interval.clone());
    }
    assert!(
        union.covers(&stolen),
        "the stolen interval must be covered by the recovered state"
    );
}

/// A compaction that cannot write is *surfaced*:
/// `RunReport::checkpoint_failures` counts every failed compaction and
/// the store's `gbnb_wal_compaction_failures_total` series records it,
/// at one shard and at several. The backend accepts the three puts that
/// open the log and fails every write after them, so no compaction —
/// periodic or terminal — can commit, while the in-memory search stays
/// exact.
#[test]
fn failed_compaction_reaches_the_run_report() {
    let problem = small_flowshop(99);
    let expected = solve(&problem, None).best_cost;
    for shards in [1usize, 2] {
        let backend = Arc::new(FaultBackend::new(MemoryBackend::new()));
        backend.fail_after(3, u64::MAX, Fault::Error);
        let registry = MetricsRegistry::new();
        let config = fast_config(2)
            .with_shards(shards)
            .with_metrics(&registry)
            .with_durability(
                Arc::clone(&backend) as Arc<dyn StorageBackend>,
                Duration::from_millis(1),
            );
        let report = run(&problem, &config);
        assert_eq!(report.proven_optimum, expected, "run must stay exact");
        assert_eq!(report.farmer_checkpoints, 0, "no compaction can commit");
        assert!(
            report.checkpoint_failures > 0,
            "S={shards}: failed compactions must be counted, not swallowed"
        );
        let scrape = registry.render_text();
        assert!(
            scrape.contains("gbnb_wal_compaction_failures_total"),
            "S={shards}: failure series missing from scrape:\n{scrape}"
        );
    }
}
