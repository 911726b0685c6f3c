//! Crash-and-restart end-to-end: a durable [`NetServer`] killed in the
//! middle of a live TCP campaign, restarted on the same storage
//! backend, must recover exactly the interval mass the killed process
//! was holding — zero lost, zero invented — and a rejoining fleet must
//! finish the optimality proof to the same optimum the sequential
//! engine computes. Exercised on flowshop (directory-per-shard backend)
//! and QAP (flat-file backend).

use gridbnb_core::runtime::{ChaosConfig, CrashPlan, DurabilityPolicy, RuntimeConfig};
use gridbnb_core::{
    CoordinatorConfig, Fault, FaultBackend, FileBackend, MemoryBackend, Problem, Request, Response,
    ShardDirBackend, StorageBackend, Transport, UBig, WorkerId,
};
use gridbnb_engine::solve;
use gridbnb_flowshop::bounds::PairSelection;
use gridbnb_flowshop::{taillard, BoundMode, FlowshopProblem};
use gridbnb_net::{
    query_metrics, query_status, run_workers_over_socket, ClientMode, ClientOptions, MuxClient,
    NetServer, ServerConfig, ServerHandle, ServerReport,
};
use gridbnb_qap::greedy::{greedy_upper_bound, GreedyParams};
use gridbnb_qap::{Bound, QapInstance, QapProblem};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn flowshop9() -> FlowshopProblem {
    FlowshopProblem::new(
        taillard::generate(9, 5, 20_060_707),
        BoundMode::Johnson(PairSelection::All),
    )
}

fn campaign_config(workers: usize) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(workers);
    config.poll_nodes = 1_000;
    config
}

/// A fresh scratch directory under the system temp dir, unique per
/// test-process and tag.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridbnb-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server<P: Problem>(
    problem: &P,
    config: ServerConfig,
) -> (SocketAddr, ServerHandle, JoinHandle<ServerReport>) {
    let root = problem.shape().root_range();
    let server = NetServer::bind("127.0.0.1:0", root, config).expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle, thread)
}

/// Runs the full kill/restart cycle for `problem` on `backend`:
///
/// 1. A durable server starts a campaign; fleet A crashes itself early
///    and the server is stopped mid-flight (its WAL tail is the crash
///    image — a stopped, non-terminated server must NOT compact).
/// 2. A second server on the *same* backend recovers, and its
///    [`RecoveryStats::recovered_length`] must equal the killed
///    server's `remaining` exactly.
/// 3. Fleet B finishes the proof to `expected`.
fn kill_and_restart<P: Problem>(
    problem: &P,
    backend: Arc<dyn StorageBackend>,
    coordinator: CoordinatorConfig,
    expected: u64,
) {
    let durable = |shards: usize| ServerConfig {
        shards,
        coordinator: coordinator.clone(),
        durability: Some(DurabilityPolicy {
            backend: Arc::clone(&backend),
            compact_every: Duration::from_millis(20),
        }),
        ..ServerConfig::default()
    };

    // Phase 1: fresh durable campaign, fleet A crashes almost at once.
    let (addr, handle, server) = spawn_server(problem, durable(2));
    let mut config_a = campaign_config(2);
    config_a.chaos = Some(ChaosConfig {
        crashes: vec![
            CrashPlan {
                worker_index: 0,
                after_nodes: 300,
                rejoin: false,
            },
            CrashPlan {
                worker_index: 1,
                after_nodes: 300,
                rejoin: false,
            },
        ],
    });
    let reports_a = run_workers_over_socket(
        problem,
        addr,
        &config_a,
        0,
        ClientMode::Multiplexed,
        &ClientOptions::default(),
    )
    .expect("fleet A");
    assert!(
        reports_a.iter().any(|r| r.crashes > 0),
        "fleet A must actually crash"
    );
    let mid = query_status(addr, &ClientOptions::default()).expect("status");
    assert!(!mid.terminated, "the campaign must still be in flight");

    // The live durable server exposes its WAL families over the same
    // TCP port as everything else.
    let scrape = query_metrics(addr, &ClientOptions::default()).expect("scrape");
    for family in [
        "gbnb_wal_appends_total",
        "gbnb_wal_append_bytes_total",
        "gbnb_wal_generation",
    ] {
        assert!(scrape.contains(family), "live scrape is missing {family}");
    }

    // Kill the server mid-campaign.
    handle.stop();
    let killed = server.join().expect("killed server thread");
    assert!(!killed.terminated, "stop() must not require termination");
    assert!(
        killed.remaining > UBig::zero(),
        "the killed server must leave unexplored work behind"
    );
    assert!(
        killed.recovery.is_none(),
        "phase 1 started on an empty backend"
    );

    // Phase 2: restart on the same backend. Note the shard count in the
    // config is different on purpose — the recovered log is
    // authoritative about sharding.
    let (addr, _handle, server) = spawn_server(problem, durable(4));
    let reports_b = run_workers_over_socket(
        problem,
        addr,
        &campaign_config(4),
        1_000,
        ClientMode::Multiplexed,
        &ClientOptions::default(),
    )
    .expect("fleet B");
    assert!(reports_b.iter().all(|r| r.transport_failure.is_none()));

    let restarted = server.join().expect("restarted server thread");
    let recovery = restarted
        .recovery
        .as_ref()
        .expect("a restart on a populated backend must report recovery");
    assert_eq!(
        recovery.recovered_length, killed.remaining,
        "recovered interval mass must match the killed server exactly"
    );
    assert!(restarted.terminated, "fleet B must finish the tree");
    assert_eq!(
        restarted.proven_optimum,
        Some(expected),
        "the resumed campaign must prove the same optimum"
    );
}

/// Flowshop campaign over a directory-per-shard backend.
#[test]
fn killed_flowshop_server_resumes_from_sharded_dirs() {
    let problem = flowshop9();
    let expected = solve(&problem, None).best_cost.expect("finite optimum");
    let dir = scratch_dir("flowshop");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let backend: Arc<dyn StorageBackend> =
        Arc::new(ShardDirBackend::new(&dir).expect("shard-dir backend"));
    kill_and_restart(&problem, backend, CoordinatorConfig::default(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// QAP campaign (heuristic-seeded, like the paper's nugent runs) over a
/// flat-file backend.
#[test]
fn killed_qap_server_resumes_from_flat_files() {
    let instance = QapInstance::nugent_style(3, 3, 2007);
    let (_, ub) = greedy_upper_bound(&instance, &GreedyParams::default());
    let problem = QapProblem::new(instance, Bound::GilmoreLawler);
    let expected = solve(&problem, Some(ub + 1)).best_cost.expect("optimum");
    let coordinator = CoordinatorConfig {
        initial_upper_bound: Some(ub + 1),
        ..CoordinatorConfig::default()
    };
    let dir = scratch_dir("qap");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::new(&dir).expect("file backend"));
    kill_and_restart(&problem, backend, coordinator, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server restarted on a finished campaign recovers a terminated
/// router. A worker that connected before `serve` sits in the listen
/// backlog; the server must accept and answer it — `Terminate` — before
/// it drains, instead of closing the listener under it.
#[test]
fn restarted_finished_server_answers_a_waiting_worker_terminate() {
    let problem = flowshop9();
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let durable = || ServerConfig {
        durability: Some(DurabilityPolicy {
            backend: Arc::clone(&backend),
            compact_every: Duration::from_millis(20),
        }),
        ..ServerConfig::default()
    };
    let (addr, _handle, server) = spawn_server(&problem, durable());
    run_workers_over_socket(
        &problem,
        addr,
        &campaign_config(2),
        0,
        ClientMode::Multiplexed,
        &ClientOptions::default(),
    )
    .expect("fleet");
    assert!(server.join().expect("server thread").terminated);

    let server = NetServer::bind("127.0.0.1:0", problem.shape().root_range(), durable())
        .expect("bind loopback");
    let mux = MuxClient::connect(server.local_addr(), &ClientOptions::default()).expect("connect");
    let serving = std::thread::spawn(move || server.serve().expect("serve"));
    let reply = mux.transport().contact(vec![Request::Join {
        worker: WorkerId(7),
        power: 100,
    }]);
    assert!(
        matches!(reply.as_deref(), Ok([Response::Terminate])),
        "a waiting worker must be answered Terminate, got {reply:?}"
    );
    mux.close();
    let restarted = serving.join().expect("restarted server thread");
    assert!(restarted.terminated);
    assert!(restarted.recovery.is_some());
}

/// A durable server reports its compactions — the paper's checkpoints —
/// like a durable `run`: a healthy backend commits at least the terminal
/// one, and a backend that fails every write after the log opens is
/// counted in `checkpoint_failures`, not swallowed, while the proof over
/// the wire stays exact.
#[test]
fn failed_server_compaction_reaches_the_report() {
    let problem = flowshop9();
    let expected = solve(&problem, None).best_cost;
    let serve_on = |backend: Arc<dyn StorageBackend>| {
        let config = ServerConfig {
            durability: Some(DurabilityPolicy {
                backend,
                compact_every: Duration::from_millis(1),
            }),
            ..ServerConfig::default()
        };
        let (addr, _handle, server) = spawn_server(&problem, config);
        run_workers_over_socket(
            &problem,
            addr,
            &campaign_config(2),
            0,
            ClientMode::Multiplexed,
            &ClientOptions::default(),
        )
        .expect("fleet");
        server.join().expect("server thread")
    };

    let healthy = serve_on(Arc::new(MemoryBackend::new()));
    assert_eq!(healthy.proven_optimum, expected);
    assert!(healthy.farmer_checkpoints >= 1);
    assert_eq!(healthy.checkpoint_failures, 0);

    let failing = Arc::new(FaultBackend::new(MemoryBackend::new()));
    failing.fail_after(3, u64::MAX, Fault::Error);
    let report = serve_on(failing);
    assert_eq!(
        report.proven_optimum, expected,
        "the server must stay exact"
    );
    assert_eq!(report.farmer_checkpoints, 0, "no compaction can commit");
    assert!(
        report.checkpoint_failures > 0,
        "failed compactions must be counted, not swallowed"
    );
}
