//! Set-up, the sequential baseline, one timed repetition of a workload,
//! and the correctness gate every solve passes through.

use crate::catalogue::{build, Built, Path, Row, Workload, WORKERS};
use crate::stats::process_cpu_seconds;
use crate::with_problem;
use gridbnb_core::runtime::{run, DurabilityPolicy, RuntimeConfig, WorkerReport};
use gridbnb_core::{MemoryBackend, StorageBackend, TransportError, WalStore};
use gridbnb_engine::{solve, Problem};
use gridbnb_net::{
    run_workers_over_socket, ClientMode, ClientOptions, NetServer, ServerConfig, ServerReport,
};
use std::hint::black_box;
use std::net::SocketAddr;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// WAL compaction period of the `tcp_durable` server.
const COMPACT_EVERY: Duration = Duration::from_secs(1);

/// Where the benchmark keeps what it writes (span files, the disk
/// replay's WAL directory): under the build directory, so inside the
/// checkout.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("campaign")
}

/// One generated instance with its initial upper bound.
pub struct Prepared {
    pub built: Built,
    pub bound: Option<u64>,
}

/// A workload bound to a catalogue row: everything `setup_s` pays for
/// except the per-solve arming (runtime config, server bind, WAL dir).
pub struct Campaign {
    pub row: Row,
    pub instances: Vec<Prepared>,
}

/// Generates the row's instances and their heuristic bounds.
pub fn prepare(workload: &'static Workload, row: Row) -> Campaign {
    Campaign {
        row,
        instances: row
            .instances()
            .into_iter()
            .map(|instance| {
                let (built, bound) = build(instance, workload.initial_bound);
                Prepared { built, bound }
            })
            .collect(),
    }
}

/// The worker-side runtime configuration of one solve.
pub fn runtime_config(workload: &Workload, bound: Option<u64>) -> RuntimeConfig {
    let shards = match workload.path {
        Path::InProcess { shards } => shards,
        // The shards live in the server; the client side has none.
        Path::TcpDurable { .. } => 1,
    };
    let mut config = RuntimeConfig::new(WORKERS).with_shards(shards);
    config.poll_nodes = workload.poll_nodes;
    config.coordinator.initial_upper_bound = bound;
    config
}

/// A bound, not yet serving, journaling server for one solve.
pub fn bind_server<P: Problem>(
    problem: &P,
    shards: usize,
    bound: Option<u64>,
    backend: Arc<dyn StorageBackend>,
) -> NetServer {
    let mut config = ServerConfig::new(shards);
    config.coordinator.initial_upper_bound = bound;
    config.durability = Some(DurabilityPolicy {
        backend,
        compact_every: COMPACT_EVERY,
    });
    NetServer::bind("127.0.0.1:0", problem.shape().root_range(), config)
        .expect("bind a loopback server")
}

/// One finished solve, before the correctness gate.
pub struct Solved {
    /// Wall seconds from entering the run call to holding its report.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub proven: Option<u64>,
    pub workers: Vec<WorkerReport>,
    /// Run-level failure conditions (transport, checkpoint, WAL).
    pub failures: Vec<String>,
    /// The in-process run report, for per-layer readings.
    pub run: Option<gridbnb_core::runtime::RunReport>,
    /// The server's report on the TCP path.
    pub server: Option<ServerReport>,
}

fn transport_failures(workers: &[WorkerReport]) -> Vec<String> {
    workers
        .iter()
        .enumerate()
        .filter_map(|(i, w)| w.transport_failure.as_ref().map(|e| (i, e)))
        .map(|(i, e)| format!("worker {i} transport failure: {e}"))
        .collect()
}

/// `runtime::run` on `problem`, timed.
pub fn solve_in_process<P: Problem>(problem: &P, config: &RuntimeConfig) -> Solved {
    let cpu0 = process_cpu_seconds();
    let t0 = Instant::now();
    let report = run(problem, config);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu0;
    let mut failures = transport_failures(&report.workers);
    if report.checkpoint_failures != 0 {
        failures.push(format!(
            "{} checkpoint failures",
            report.checkpoint_failures
        ));
    }
    Solved {
        wall_s,
        cpu_s,
        proven: report.proven_optimum,
        workers: report.workers.clone(),
        failures,
        run: Some(report),
        server: None,
    }
}

/// Serves `server` on its own thread while `fleet` drives the workers
/// against it; timed from entering `fleet` to the server thread joined
/// (terminal compaction included). A server drains by itself once the
/// campaign has terminated and its connections are closed; a fleet that
/// could not connect, lost its transport or panicked leaves it waiting,
/// so it is stopped through its handle and the solve is a failed op.
/// Afterwards the durable state is recovered from `backend` and must
/// hold the proof: no intervals left and the proven solution — a journal
/// that lost an append would not.
pub fn solve_over_tcp(
    server: NetServer,
    backend: Arc<dyn StorageBackend>,
    fleet: impl FnOnce(SocketAddr) -> Result<Vec<WorkerReport>, TransportError>,
) -> Solved {
    let addr = server.local_addr();
    let handle = server.handle();
    let cpu0 = process_cpu_seconds();
    let (fleet_result, served, wall_s, cpu_s) = std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.serve());
        let t0 = Instant::now();
        let fleet_result = catch_unwind(AssertUnwindSafe(|| fleet(addr)));
        let finished = matches!(&fleet_result, Ok(Ok(workers))
            if workers.iter().all(|w| w.transport_failure.is_none()));
        if !finished {
            handle.stop();
        }
        let served = serving.join().expect("server thread panicked");
        let wall_s = t0.elapsed().as_secs_f64();
        (fleet_result, served, wall_s, process_cpu_seconds() - cpu0)
    });
    // A panicking fleet is `repetition`'s to report, now that the server
    // thread is gone.
    let fleet_result = fleet_result.unwrap_or_else(|panic| resume_unwind(panic));
    let mut failures = Vec::new();
    let workers = fleet_result.unwrap_or_else(|e| {
        failures.push(format!("fleet could not connect: {e}"));
        Vec::new()
    });
    failures.extend(transport_failures(&workers));
    let server = match served {
        Ok(report) => Some(report),
        Err(e) => {
            failures.push(format!("server failed: {e}"));
            None
        }
    };
    let proven = server.as_ref().and_then(|s| s.proven_optimum);
    match WalStore::recover(backend) {
        Ok((_, state)) => {
            if !state.total_length().is_zero() {
                failures.push("recovered WAL still holds unexplored intervals".into());
            }
            if state.solution.map(|s| s.cost) != proven {
                failures.push("recovered WAL solution differs from the proven optimum".into());
            }
        }
        Err(e) => failures.push(format!("WAL recovery failed: {e}")),
    }
    Solved {
        wall_s,
        cpu_s,
        proven,
        workers,
        failures,
        run: None,
        server,
    }
}

/// Arms and runs one untraced solve of `prepared` the way `workload`
/// prescribes.
pub fn solve_untraced(workload: &Workload, prepared: &Prepared) -> Solved {
    let config = runtime_config(workload, prepared.bound);
    match workload.path {
        Path::InProcess { .. } => {
            with_problem!(&prepared.built, |p| solve_in_process(p, &config))
        }
        Path::TcpDurable { shards } => {
            let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
            with_problem!(&prepared.built, |p| {
                let server = bind_server(p, shards, prepared.bound, Arc::clone(&backend));
                solve_over_tcp(server, backend, |addr| {
                    run_workers_over_socket(
                        p,
                        addr,
                        &config,
                        0,
                        ClientMode::Multiplexed,
                        &ClientOptions::default(),
                    )
                })
            })
        }
    }
}

/// Everything before the timed call, once: instance generation,
/// heuristic bounds, and per-solve arming (runtime config; on the TCP
/// path the WAL directory and the bound listener). What it builds is
/// dropped again — `setup_s` times this.
pub fn set_up_once(workload: &'static Workload, row: Row) -> Campaign {
    let campaign = prepare(workload, row);
    for prepared in &campaign.instances {
        let config = runtime_config(workload, prepared.bound);
        if let Path::TcpDurable { shards } = workload.path {
            let backend = Arc::new(MemoryBackend::new());
            with_problem!(&prepared.built, |p| {
                drop(bind_server(p, shards, prepared.bound, backend))
            });
        }
        black_box(config);
    }
    campaign
}

/// Median seconds of one set-up. Set-ups shorter than 5 ms are timed in
/// batches of that length and divided, because two clock reads would be a
/// visible share of them.
pub fn measure_setup(workload: &'static Workload, row: Row) -> (f64, Campaign) {
    const ROUNDS: usize = 15;
    let t0 = Instant::now();
    let mut campaign = set_up_once(workload, row);
    let first = t0.elapsed().as_secs_f64();
    let batch = ((5e-3 / first.max(1e-9)).ceil() as usize).clamp(1, 100_000);
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..batch {
            campaign = set_up_once(workload, row);
        }
        samples.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    (crate::stats::median(&samples), campaign)
}

/// The sequential baseline: plain `engine::solve` of every instance,
/// same bounds. Returns the seconds of the fastest pass and each
/// instance's optimum (the reference every parallel solve is checked
/// against). Passes repeat while they are cheap — up to a second in
/// total — so short baselines are as steady as long ones.
pub fn sequential_baseline(campaign: &Campaign) -> (f64, Vec<u64>) {
    let mut best = f64::INFINITY;
    let mut optima = Vec::new();
    let started = Instant::now();
    for pass in 0..20 {
        let t0 = Instant::now();
        let proven: Vec<u64> = campaign
            .instances
            .iter()
            .map(|prepared| {
                with_problem!(&prepared.built, |p| solve(p, prepared.bound))
                    .proven_optimum(prepared.bound)
                    .expect("a finished sequential search proves an optimum")
            })
            .collect();
        best = best.min(t0.elapsed().as_secs_f64());
        optima = proven;
        if pass >= 1 && started.elapsed() >= Duration::from_secs(1) {
            break;
        }
        if pass == 0 && best >= 1.0 {
            break;
        }
    }
    (best, optima)
}

/// One repetition: every instance of the row solved once.
#[derive(Clone, Debug, Default)]
pub struct Repetition {
    pub time_to_proof_s: f64,
    pub cpu_s: f64,
    pub explored: u64,
    pub contacts: u64,
    /// Σ worker busy and Σ worker wall, seconds.
    pub busy_s: f64,
    pub worker_wall_s: f64,
    /// Sum of the optima the solves proved.
    pub proven_sum: u64,
    /// One op = one solve.
    pub attempted: u64,
    /// Why each failed op failed.
    pub failures: Vec<String>,
}

impl Repetition {
    /// Folds one solve in, passing it through the correctness gate: the
    /// run must have reported no failure condition and, when the
    /// same-invocation sequential optimum is known, must have proved it.
    fn absorb(&mut self, solved: &Solved, expected: Option<u64>) {
        self.time_to_proof_s += solved.wall_s;
        self.cpu_s += solved.cpu_s;
        self.attempted += 1;
        self.proven_sum += solved.proven.unwrap_or(0);
        for w in &solved.workers {
            self.explored += w.stats.explored;
            self.contacts += w.contacts;
            self.busy_s += w.busy.as_secs_f64();
            self.worker_wall_s += w.wall.as_secs_f64();
        }
        let mut failures = solved.failures.clone();
        if solved.proven.is_none() || expected.is_some_and(|e| solved.proven != Some(e)) {
            failures.push(format!(
                "proved {:?}, the sequential solve proved {expected:?}",
                solved.proven
            ));
        }
        if !failures.is_empty() {
            self.failures.push(failures.join("; "));
        }
    }

    /// The catalogue-constant half of the gate: the proven optima of a
    /// repetition must add up to the row's pinned sum.
    pub fn check_catalogue(&mut self, row: &Row) {
        if self.proven_sum != row.optimum_sum && self.failures.is_empty() {
            self.failures.push(format!(
                "proven optima sum to {}, the catalogue pins {}",
                self.proven_sum, row.optimum_sum
            ));
        }
    }
}

/// Runs `solve_one` on every instance of the campaign as one
/// repetition, checking each proven optimum against `seq_optima` (the
/// same-invocation sequential solves, when they were run) and the sum
/// against the catalogue; a panicking solve is a failed op, not a dead
/// benchmark.
pub fn repetition(
    campaign: &Campaign,
    seq_optima: Option<&[u64]>,
    mut solve_one: impl FnMut(&Prepared) -> Solved,
) -> Repetition {
    let mut rep = Repetition::default();
    for (k, prepared) in campaign.instances.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| solve_one(prepared))) {
            Ok(solved) => rep.absorb(&solved, seq_optima.map(|optima| optima[k])),
            Err(panic) => {
                let what = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                rep.attempted += 1;
                rep.failures.push(format!("panicked: {what}"));
            }
        }
    }
    rep.check_catalogue(&campaign.row);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridbnb_engine::toy::FullEnumeration;

    /// A fleet that never reaches the server must not leave the solve
    /// waiting for a drain that cannot come.
    #[test]
    fn a_fleet_that_cannot_connect_is_a_failed_solve_not_a_hang() {
        let problem = FullEnumeration::new(5);
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let server = bind_server(&problem, 2, None, Arc::clone(&backend));
        let solved = solve_over_tcp(server, backend, |_| Err(TransportError::Closed));
        assert_eq!(solved.proven, None);
        assert!(solved.failures[0].starts_with("fleet could not connect"));
    }
}
