//! End-to-end exactness over real TCP: flowshop and QAP campaigns
//! resolved to proven optimality through a loopback [`NetServer`] over
//! multiplexed connections, at one and four shards, with mid-run worker
//! crashes and rejoining fleets — plus the server's resilience to a
//! peer that speaks garbage or never speaks at all.

use gridbnb_core::runtime::{ChaosConfig, CrashPlan, DurabilityPolicy, RuntimeConfig};
use gridbnb_core::{
    CoordinatorConfig, Interval, MemoryBackend, Problem, StorageBackend, UBig, WalStore,
};
use gridbnb_engine::solve;
use gridbnb_engine::toy::FullEnumeration;
use gridbnb_flowshop::bounds::PairSelection;
use gridbnb_flowshop::{taillard, BoundMode, FlowshopProblem};
use gridbnb_net::{
    query_metrics, query_status, run_workers_over_socket, ClientMode, ClientOptions, NetServer,
    ServerConfig, ServerReport,
};
use gridbnb_qap::greedy::{greedy_upper_bound, GreedyParams};
use gridbnb_qap::{Bound, QapInstance, QapProblem};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn flowshop9() -> FlowshopProblem {
    FlowshopProblem::new(
        taillard::generate(9, 5, 20_060_707),
        BoundMode::Johnson(PairSelection::All),
    )
}

/// Binds a loopback server for `problem`'s root range and spawns its
/// serve loop.
fn spawn_server<P: Problem>(
    problem: &P,
    config: ServerConfig,
) -> (SocketAddr, JoinHandle<ServerReport>) {
    let root = problem.shape().root_range();
    let server = NetServer::bind("127.0.0.1:0", root, config).expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

fn campaign_config(workers: usize) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(workers);
    config.poll_nodes = 1_000;
    config
}

/// The core exactness matrix: a 9-job flowshop instance solved through
/// real sockets at S ∈ {1, 4}, W = 8 — every cell must prove the same
/// optimum the sequential engine computes.
#[test]
fn flowshop_exact_over_tcp_across_shards_and_modes() {
    let problem = flowshop9();
    let expected = solve(&problem, None).best_cost.expect("finite optimum");

    for shards in [1usize, 4] {
        let (addr, server) = spawn_server(&problem, ServerConfig::new(shards));
        let reports = run_workers_over_socket(
            &problem,
            addr,
            &campaign_config(8),
            0,
            ClientMode::Multiplexed,
            &ClientOptions::default(),
        )
        .expect("client fleet");
        assert_eq!(reports.len(), 8);
        for (index, report) in reports.iter().enumerate() {
            assert!(
                report.transport_failure.is_none(),
                "worker {index} failed: {:?} (shards={shards})",
                report.transport_failure
            );
        }
        let report = server.join().expect("server thread");
        assert!(report.terminated, "shards={shards}");
        assert_eq!(report.proven_optimum, Some(expected), "shards={shards}");
        assert_eq!(report.protocol_errors, 0);
        // Every worker request was answered through the socket.
        assert!(report.requests >= 8);
    }
}

/// An initial upper bound that is already the optimum leaves the fleet
/// nothing better to find: the proof is that bound, as `run` reports it.
#[test]
fn server_proves_an_initial_bound_that_is_already_optimal() {
    let problem = flowshop9();
    let config = ServerConfig {
        coordinator: CoordinatorConfig {
            initial_upper_bound: Some(564),
            ..CoordinatorConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, server) = spawn_server(&problem, config);
    run_workers_over_socket(
        &problem,
        addr,
        &campaign_config(2),
        0,
        ClientMode::Multiplexed,
        &ClientOptions::default(),
    )
    .expect("client fleet");
    let report = server.join().expect("server thread");
    assert!(report.terminated);
    assert_eq!(report.proven_optimum, Some(564));
}

/// Overlapped updates over the multiplexed socket into a journaling
/// server: workers keep exploring while their periodic updates are in
/// flight, which may duplicate a little work but never lose any. The
/// proof is exact, every node was explored at least once, and the
/// recovered WAL holds the proof.
#[test]
fn overlapped_updates_over_mux_and_wal_stay_exact() {
    let problem = FullEnumeration::new(9);
    let expected = solve(&problem, None).best_cost;
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let config = ServerConfig {
        durability: Some(DurabilityPolicy {
            backend: Arc::clone(&backend),
            compact_every: Duration::from_millis(50),
        }),
        ..ServerConfig::new(1)
    };
    let (addr, server) = spawn_server(&problem, config);
    let mut fleet = campaign_config(2);
    fleet.poll_nodes = 200;
    let reports = run_workers_over_socket(
        &problem,
        addr,
        &fleet,
        0,
        ClientMode::Multiplexed,
        &ClientOptions::default(),
    )
    .expect("client fleet");
    for (index, report) in reports.iter().enumerate() {
        assert!(
            report.transport_failure.is_none(),
            "worker {index} failed: {:?}",
            report.transport_failure
        );
    }
    let report = server.join().expect("server thread");
    assert!(report.terminated);
    assert_eq!(report.proven_optimum, expected);
    let explored: u64 = reports.iter().map(|w| w.stats.explored).sum();
    assert!(explored >= problem.total_nodes_below_root());
    let (_, recovered) = WalStore::recover(backend).expect("recover the WAL");
    assert!(recovered.total_length().is_zero());
    assert_eq!(recovered.solution.map(|s| s.cost), expected);
}

/// The observability acceptance path: while a campaign runs, a separate
/// connection scrapes the server's full registry over the same TCP
/// port. Every scrape must be a non-empty, well-formed exposition, and
/// the final one must carry all the layer families — router, shards,
/// coordinator, sockets — without disturbing the campaign's exactness.
#[test]
fn metrics_scrape_over_tcp_mid_campaign() {
    let problem = flowshop9();
    let expected = solve(&problem, None).best_cost.expect("finite optimum");
    let (addr, server) = spawn_server(&problem, ServerConfig::new(2));

    // One scrape before the fleet joins: the families are registered at
    // serve() start, so even an idle server answers with a catalogue.
    let options = ClientOptions::default();
    let idle = query_metrics(addr, &options).expect("idle scrape");
    assert!(idle.contains("gbnb_router_contacts_total"));

    let fleet = std::thread::spawn(move || {
        let problem = flowshop9();
        run_workers_over_socket(
            &problem,
            addr,
            &campaign_config(8),
            0,
            ClientMode::Multiplexed,
            &ClientOptions::default(),
        )
        .expect("client fleet")
    });
    let mut mid_scrapes = 0u64;
    let mut last = idle;
    while !fleet.is_finished() {
        // Scrapes racing the drain may be refused — only successful
        // ones count, and the pre-join scrape guarantees coverage.
        if let Ok(text) = query_metrics(addr, &options) {
            assert!(!text.is_empty(), "mid-campaign scrape came back empty");
            mid_scrapes += 1;
            last = text;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let reports = fleet.join().expect("fleet thread");
    assert!(reports.iter().all(|r| r.transport_failure.is_none()));
    let report = server.join().expect("server thread");
    assert!(report.terminated);
    assert_eq!(report.proven_optimum, Some(expected));

    assert!(mid_scrapes > 0, "no scrape landed while the campaign ran");
    for family in [
        "gbnb_router_contacts_total",
        "gbnb_shard_contacts_total",
        "gbnb_coordinator_update_ns",
        "gbnb_net_frames_in_total",
        "gbnb_net_connections_total",
    ] {
        assert!(last.contains(family), "scrape is missing {family}");
    }
    // Well-formed exposition: metadata lines for every family, and the
    // scraper's own traffic is visible in it.
    assert!(last.lines().any(|l| l.starts_with("# TYPE")));
    assert!(last.contains("{kind=\"metrics_query\"}"));
}

/// QAP through the same socket stack: a 3×3 Nugent-style instance,
/// heuristic-seeded like the paper's campaign, proven optimal through a
/// 4-shard server over one multiplexed connection.
#[test]
fn qap_campaign_exact_over_tcp() {
    let instance = QapInstance::nugent_style(3, 3, 2007);
    let (_, ub) = greedy_upper_bound(&instance, &GreedyParams::default());
    let problem = QapProblem::new(instance, Bound::GilmoreLawler);
    let expected = solve(&problem, Some(ub + 1)).best_cost.expect("optimum");

    let config = ServerConfig {
        shards: 4,
        coordinator: CoordinatorConfig {
            initial_upper_bound: Some(ub + 1),
            ..CoordinatorConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, server) = spawn_server(&problem, config);
    let reports = run_workers_over_socket(
        &problem,
        addr,
        &campaign_config(8),
        0,
        ClientMode::Multiplexed,
        &ClientOptions::default(),
    )
    .expect("client fleet");
    assert!(reports.iter().all(|r| r.transport_failure.is_none()));
    let report = server.join().expect("server thread");
    assert_eq!(report.proven_optimum, Some(expected));
}

/// Fault tolerance over real sockets: a first fleet crashes mid-run
/// (its workers vanish with intervals checked out), the server's expiry
/// supervision reclaims their work, and a second fleet joining later —
/// a fresh connection, non-overlapping worker ids — finishes the proof.
#[test]
fn worker_disconnect_and_rejoin_through_real_sockets() {
    let problem = flowshop9();
    let expected = solve(&problem, None).best_cost.expect("finite optimum");

    let config = ServerConfig {
        shards: 2,
        coordinator: CoordinatorConfig {
            // Crashed holders expire fast so the test stays quick.
            holder_timeout_ns: 50_000_000, // 50 ms
            ..CoordinatorConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, server) = spawn_server(&problem, config);

    // Fleet A: two workers on a connection of their own, both scripted
    // to crash almost immediately while holding checked-out intervals.
    let mut config_a = campaign_config(2);
    config_a.chaos = Some(ChaosConfig {
        crashes: vec![
            CrashPlan {
                worker_index: 0,
                after_nodes: 500,
                rejoin: false,
            },
            CrashPlan {
                worker_index: 1,
                after_nodes: 500,
                rejoin: false,
            },
        ],
    });
    let reports_a = run_workers_over_socket(
        &problem,
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

    // The run is not over: the server still holds (or will reclaim)
    // fleet A's intervals.
    let mid = query_status(addr, &ClientOptions::default()).expect("status");
    assert!(!mid.terminated, "fleet A must not finish the tree");

    // Fleet B: four fresh workers under a disjoint id range finish the
    // proof — the crashed holders' intervals come back via expiry.
    let reports_b = run_workers_over_socket(
        &problem,
        addr,
        &campaign_config(4),
        1_000,
        ClientMode::Multiplexed,
        &ClientOptions::default(),
    )
    .expect("fleet B");
    assert!(reports_b.iter().all(|r| r.transport_failure.is_none()));

    let report = server.join().expect("server thread");
    assert_eq!(report.proven_optimum, Some(expected));
    // Fleet A's socket + 1 status probe + fleet B's socket.
    assert!(report.connections >= 3);
}

/// A hostile peer cannot take the server down: garbage bytes close that
/// one connection (counted as a protocol error) while a concurrent
/// well-behaved fleet still proves the optimum.
#[test]
fn garbage_frames_close_one_connection_not_the_server() {
    let problem = flowshop9();
    let expected = solve(&problem, None).best_cost.expect("finite optimum");
    let (addr, server) = spawn_server(&problem, ServerConfig::new(1));

    // Garbage first: 64 bytes of noise on a raw socket.
    {
        use std::io::Write as _;
        let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
        stream.write_all(&[0xAB; 64]).expect("write garbage");
        // The server closes on us; reading reaches EOF.
        use std::io::Read as _;
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    }

    let reports = run_workers_over_socket(
        &problem,
        addr,
        &campaign_config(4),
        0,
        ClientMode::Multiplexed,
        &ClientOptions::default(),
    )
    .expect("fleet after garbage");
    assert!(reports.iter().all(|r| r.transport_failure.is_none()));
    let report = server.join().expect("server thread");
    assert_eq!(report.proven_optimum, Some(expected));
    assert!(report.protocol_errors >= 1, "the garbage was noticed");
}

/// Peers that connect and never send cost the server nothing but a
/// parked thread each: 130 of them, accepted ahead of the fleet's
/// connection, must not delay a single contact. A short reply timeout
/// makes a starved fleet fail fast instead of hanging the test.
#[test]
fn idle_connections_do_not_starve_a_fleet() {
    let problem = flowshop9();
    let expected = solve(&problem, None).best_cost.expect("finite optimum");
    let (addr, server) = spawn_server(&problem, ServerConfig::new(1));

    let idle: Vec<std::net::TcpStream> = (0..130)
        .map(|_| std::net::TcpStream::connect(addr).expect("connect idle peer"))
        .collect();
    let options = ClientOptions {
        reply_timeout: Duration::from_secs(2),
        ..ClientOptions::default()
    };
    let reports = run_workers_over_socket(
        &problem,
        addr,
        &campaign_config(2),
        0,
        ClientMode::Multiplexed,
        &options,
    )
    .expect("client fleet");
    for (index, report) in reports.iter().enumerate() {
        assert!(
            report.transport_failure.is_none(),
            "worker {index} starved behind idle connections: {:?}",
            report.transport_failure
        );
    }

    drop(idle);
    let report = server.join().expect("server thread");
    assert!(report.terminated);
    assert_eq!(report.proven_optimum, Some(expected));
    assert!(report.connections >= 131);
}

/// `ServerHandle::stop` winds a quiet server down without any client
/// ever connecting — drain must not require termination.
#[test]
fn stop_drains_an_idle_server() {
    let problem = flowshop9();
    let root = problem.shape().root_range();
    let server = NetServer::bind("127.0.0.1:0", root, ServerConfig::default()).expect("bind");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    handle.stop();
    let report = thread.join().expect("server thread");
    assert!(!report.terminated);
    assert_eq!(report.connections, 0);
}

/// `ServerHandle::stop` also ends a server whose one client never
/// pauses: QUERY frames arrive back to back, so no read ever times out,
/// and the handler must notice the stop after an answered burst. The
/// join goes through a channel with a deadline, so a server that keeps
/// serving fails the test instead of hanging it.
#[test]
fn stop_returns_while_a_client_keeps_sending() {
    use gridbnb_net::wire::{frame_query, read_frame, write_frame};
    use std::io::{BufReader, BufWriter, Write as _};
    use std::sync::atomic::{AtomicU64, Ordering};

    let root = Interval::new(UBig::zero(), UBig::from(1000u64));
    let server = NetServer::bind("127.0.0.1:0", root, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(server.serve());
    });

    let answered = Arc::new(AtomicU64::new(0));
    let client = {
        let answered = Arc::clone(&answered);
        std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            // Until the server hangs up: one query, its status reply,
            // the next query at once.
            for seq in 1.. {
                let sent =
                    write_frame(&mut writer, &frame_query(seq)).is_ok() && writer.flush().is_ok();
                if !sent || read_frame(&mut reader).is_err() {
                    break;
                }
                answered.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    while answered.load(Ordering::Relaxed) < 100 {
        assert!(!client.is_finished(), "the client stopped before stop()");
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.stop();
    let report = done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("serve did not return within 2 s of stop() under load")
        .expect("serve");
    client.join().expect("client thread");
    assert!(!report.terminated);
    assert_eq!(report.connections, 1);
    assert!(report.queries >= 100);
}
