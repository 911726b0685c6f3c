//! The traced run of one workload: every per-layer metric, measured
//! from outside.
//!
//! Passes, in order (each a full repetition unless noted):
//!
//! * **untraced** — the plain repetition, the yardstick for the probes'
//!   own cost (`trace_overhead_ratio`);
//! * **traced** — the same entry point with [`TimedProblem`] around the
//!   problem and an injected metrics registry (on the TCP path also
//!   [`TimedTransport`] around the multiplexed transport and
//!   [`TimedBackend`] around the WAL storage);
//! * **capture** (in-process workloads) — the same worker loop driven
//!   through `run_workers` over a bench-owned `ShardRouter` with
//!   [`TimedTransport`], to see every contact; the TCP path's traced
//!   pass already is one;
//! * **replays** (single-threaded, no repetition) — the captured
//!   intervals through `coding`/`bigint`, the captured request stream
//!   through a fresh `ShardRouter`, and on the TCP path the captured
//!   bundles through the wire codec and the captured WAL records
//!   through a `FileBackend`;
//! * on the TCP path, `WalStore::recover` timed on a copy of the WAL
//!   blobs taken mid-campaign during the traced pass (the image a
//!   killed server would leave);
//! * on `enum_explore`, a repetition under `with_replicable_threads`.

use crate::catalogue::{Built, Path, Row, Workload, WORKERS};
use crate::metrics::{PARALLEL_EFFICIENCY, SEQ_SOLVE_S};
use crate::probes::{
    BackendLog, ContactRecord, OpTotals, ProblemProbe, ProblemTotals, TimedBackend, TimedProblem,
    TimedTransport, TransportProbe,
};
use crate::scrape::Scrape;
use crate::spans::SpanLog;
use crate::stats::quantile;
use crate::workloads::{
    bind_server, prepare, repetition, runtime_config, sequential_baseline, solve_in_process,
    solve_over_tcp, solve_untraced, work_dir, Campaign, Repetition, Solved,
};
use crate::{with_problem, Measured, Outcome};
use gridbnb_coding::{fold, unfold_direct, Interval, TreeShape, UBig};
use gridbnb_core::runtime::{run_workers, RuntimeConfig, WorkerReport};
use gridbnb_core::{
    FileBackend, MemoryBackend, MetricsRegistry, Request, Response, RouterTransport, ShardRouter,
    StorageBackend, Transport, TransportError, WalStore,
};
use gridbnb_engine::Problem;
use gridbnb_net::wire::{
    frame_request_bundle, frame_response_bundle, parse_request_bundle, parse_response_bundle,
    read_frame, write_frame,
};
use gridbnb_net::{query_metrics, ClientOptions, MuxClient};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many captured intervals the coding and bigint replays run over.
const REPLAY_INTERVALS: usize = 2_000;

/// The per-layer values of one traced run, by declared name; anything
/// never set reads 0 (the layer is not on this workload's path).
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::metrics::PER_LAYER.iter().any(|m| m.name == name),
            "undeclared per-layer metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn into_measured(self) -> Vec<Measured> {
        crate::metrics::PER_LAYER
            .iter()
            .map(|m| Measured::single(m.name, m.unit, self.get(m.name)))
            .collect()
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// `Problem` calls of the enumeration toy take a few nanoseconds, so
/// one in 64 is timed; the flowshop and QAP kernels take microseconds
/// per batch and every call is timed.
fn sample_every(built: &Built) -> u64 {
    match built {
        Built::Enumeration(_) => 64,
        Built::Flowshop(_) | Built::Qap(_) => 1,
    }
}

/// Every contact of one solve as the workers saw it, plus what a replay
/// needs to rebuild the coordinator it talked to.
struct Capture {
    shape: TreeShape,
    shards: usize,
    bound: Option<u64>,
    /// One contact log per worker.
    logs: Vec<Vec<ContactRecord>>,
}

/// What the traced pass adds up over the row's solves.
#[derive(Default)]
struct TracedTotals {
    problem_branch: OpTotals,
    problem_bound: OpTotals,
    problem_leaf: OpTotals,
    /// Run entered → first `Problem` call; last call → run returned.
    startup_ns: f64,
    shutdown_ns: f64,
    solves: f64,
    nodes_bounded: u64,
    bound_calls: u64,
    bound_batches: u64,
    contacts: u64,
    units: u64,
    transport_retries: u64,
    redundant_nodes: u64,
    consumed: UBig,
    root_length: UBig,
    farmer_busy_s: f64,
    coordinator_requests: u64,
    steals: u64,
    router_contacts: u64,
    frames: u64,
}

impl TracedTotals {
    fn absorb(&mut self, solved: &Solved, problem: &ProblemTotals, entered_ns: u64, left_ns: u64) {
        self.problem_branch += problem.branch;
        self.problem_bound += problem.bound;
        self.problem_leaf += problem.leaf;
        if problem.first_call_ns != 0 {
            self.startup_ns += problem.first_call_ns.saturating_sub(entered_ns) as f64;
            self.shutdown_ns += left_ns.saturating_sub(problem.last_call_ns) as f64;
        }
        self.solves += 1.0;
        for w in &solved.workers {
            self.nodes_bounded += w.stats.nodes_bounded;
            self.bound_calls += w.stats.bound_calls;
            self.bound_batches += w.stats.bound_batches;
            self.contacts += w.contacts;
            self.units += w.units;
            self.transport_retries += w.transport_retries;
            self.redundant_nodes += w.redundant_nodes;
            self.consumed += &w.consumed;
        }
        if let Some(run) = &solved.run {
            self.root_length += &run.root_length;
            self.farmer_busy_s += run.farmer_busy.as_secs_f64();
            let stats = &run.coordinator_stats;
            self.coordinator_requests += stats.work_allocations
                + stats.updates
                + stats.solution_reports
                + stats.terminations_sent;
            self.steals += run.steals;
            self.router_contacts += run.router_contacts;
        }
        if let Some(server) = &solved.server {
            self.coordinator_requests += server.requests;
            self.steals += server.steals;
            self.router_contacts += server.router_contacts;
            self.frames += server.frames;
        }
    }
}

/// The traced solve of one in-process instance: `runtime::run` on the
/// wrapped problem, recording into `registry`.
fn traced_in_process<P: Problem>(
    problem: &P,
    config: &RuntimeConfig,
    origin: Instant,
    sample_every: u64,
) -> (Solved, ProblemTotals, (u64, u64)) {
    let probe = ProblemProbe::new(sample_every, origin);
    let entered = origin.elapsed().as_nanos() as u64;
    let solved = solve_in_process(&TimedProblem::new(problem, &probe), config);
    let left = origin.elapsed().as_nanos() as u64;
    (solved, probe.totals(), (entered, left))
}

/// The capture solve of one in-process instance: the public worker loop
/// over a bench-owned router, every contact logged. No supervisor runs
/// (nothing crashes here, so nothing needs expiring), which also means
/// no 50 ms tick: this pass is for *what* is said to the coordinator,
/// not for how long the run takes.
fn capture_in_process<P: Problem>(
    problem: &P,
    shards: usize,
    config: &RuntimeConfig,
    origin: Instant,
    sample_every: u64,
) -> (Capture, Option<u64>, Vec<WorkerReport>) {
    let shape = problem.shape();
    let router = ShardRouter::new(shape.root_range(), shards, config.coordinator.clone())
        .expect("a valid router configuration");
    let problem_probe = ProblemProbe::new(sample_every, origin);
    let transport_probe = TransportProbe::new(config.workers, origin, Some(&problem_probe));
    let started = Instant::now();
    let timed = TimedProblem::new(problem, &problem_probe);
    let reports = run_workers(&timed, config, 0, |worker| {
        TimedTransport::new(
            RouterTransport::new(&router, started),
            &transport_probe,
            worker,
        )
    });
    let capture = Capture {
        shape,
        shards,
        bound: config.coordinator.initial_upper_bound,
        logs: transport_probe.into_logs(),
    };
    (capture, router.cutoff(), reports)
}

/// What the traced TCP solve hands back besides the [`Solved`].
struct TcpTraced {
    problem: ProblemTotals,
    window: (u64, u64),
    capture: Capture,
    backend: BackendLog,
    server_scrape: Option<Scrape>,
    scrape_us: f64,
    /// `WalStore::recover` on the mid-campaign crash image:
    /// milliseconds and replayed records.
    recovery: (f64, f64),
}

/// The traced solve of one TCP instance: the journaling server over a
/// [`TimedBackend`], the fleet over [`TimedTransport`]s on one
/// multiplexed connection, the server's registry scraped over the wire
/// before the connection closes.
fn traced_over_tcp<P: Problem>(
    problem: &P,
    shards: usize,
    bound: Option<u64>,
    config: &RuntimeConfig,
    origin: Instant,
    sample_every: u64,
    crash_at: u64,
) -> (Solved, TcpTraced) {
    let backend = Arc::new(TimedBackend::new(MemoryBackend::new()));
    let server = bind_server(problem, shards, bound, backend.clone());
    let problem_probe = ProblemProbe::new(sample_every, origin);
    let transport_probe = TransportProbe::new(config.workers, origin, Some(&problem_probe));
    let timed = TimedProblem::new(problem, &problem_probe);
    let options = ClientOptions::default();
    let mut scrape = None;
    let mut scrape_us = 0.0;
    let contacts = AtomicU64::new(0);
    let image = Mutex::new(None);
    let entered = origin.elapsed().as_nanos() as u64;
    let solved = solve_over_tcp(server, backend.clone(), |addr| {
        let mux = MuxClient::connect(addr, &options)?;
        let reports = run_workers(&timed, config, 0, |worker| CrashImage {
            inner: TimedTransport::new(mux.transport(), &transport_probe, worker),
            contacts: &contacts,
            at: crash_at,
            backend: backend.inner(),
            image: &image,
        });
        // The server drains once this connection closes: scrape first.
        let t0 = Instant::now();
        if let Ok(text) = query_metrics(addr, &options) {
            scrape_us = t0.elapsed().as_secs_f64() * 1e6;
            scrape = Some(Scrape::parse(&text));
        }
        mux.close();
        Ok(reports)
    });
    let left = origin.elapsed().as_nanos() as u64;
    let traced = TcpTraced {
        problem: problem_probe.totals(),
        window: (entered, left),
        capture: Capture {
            shape: problem.shape(),
            shards,
            bound,
            logs: transport_probe.into_logs(),
        },
        backend: backend.log(),
        server_scrape: scrape,
        scrape_us,
        recovery: image
            .into_inner()
            .expect("crash image poisoned")
            .map_or((0.0, 0.0), recover_crash_image),
    };
    (solved, traced)
}

/// A transport that copies every WAL blob — the image a `kill -9` of
/// the server would leave behind — at the moment the fleet makes its
/// `at`-th contact: a mid-campaign crash placed by work done, not by
/// the clock.
struct CrashImage<'a, T> {
    inner: T,
    contacts: &'a AtomicU64,
    at: u64,
    backend: &'a MemoryBackend,
    image: &'a Mutex<Option<HashMap<String, Vec<u8>>>>,
}

impl<T: Transport> Transport for CrashImage<'_, T> {
    fn contact(&self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        if self.contacts.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            *self.image.lock().expect("crash image poisoned") = Some(self.backend.dump());
        }
        self.inner.contact(requests)
    }
}

/// Times `WalStore::recover` on a crash image. Returns milliseconds and
/// replayed records.
fn recover_crash_image(image: HashMap<String, Vec<u8>>) -> (f64, f64) {
    let crashed = MemoryBackend::new();
    crashed.load(image);
    let t0 = Instant::now();
    match WalStore::recover(Arc::new(crashed)) {
        Ok((_, state)) => (
            t0.elapsed().as_secs_f64() * 1e3,
            state.replayed_records as f64,
        ),
        Err(_) => (0.0, 0.0),
    }
}

/// Mean nanoseconds of `op` over `inputs`, the whole pass repeated
/// until it has run for a few milliseconds.
fn mean_ns<T>(inputs: &[T], mut op: impl FnMut(&T)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let mut passes = 0u64;
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed() < Duration::from_millis(5) {
        inputs.iter().for_each(&mut op);
        passes += 1;
    }
    t0.elapsed().as_nanos() as f64 / (passes * inputs.len() as u64) as f64
}

/// The intervals workers and coordinator exchanged, thinned evenly to
/// at most [`REPLAY_INTERVALS`].
fn captured_intervals(captures: &[Capture]) -> Vec<Interval> {
    let mut all = Vec::new();
    for contact in captures.iter().flat_map(|c| c.logs.iter().flatten()) {
        for request in &contact.requests {
            if let Request::Update { interval, .. } | Request::UpdateAndReport { interval, .. } =
                request
            {
                all.push(interval.clone());
            }
        }
        for response in &contact.responses {
            if let Response::Work { interval, .. } = response {
                all.push(interval.clone());
            }
        }
    }
    all.retain(|interval| !interval.is_empty());
    let step = all.len().div_ceil(REPLAY_INTERVALS).max(1);
    all.into_iter().step_by(step).collect()
}

/// Replays the captured intervals through the public coding and bigint
/// operations the protocol performs on them.
fn replay_coding(shape: &TreeShape, intervals: &[Interval], layers: &mut Layers) {
    let unfolded: Vec<_> = intervals.iter().map(|i| unfold_direct(shape, i)).collect();
    layers.set(
        "coding.unfold_ns",
        mean_ns(intervals, |i| {
            black_box(unfold_direct(shape, black_box(i)));
        }),
    );
    layers.set(
        "coding.fold_ns",
        mean_ns(&unfolded, |nodes| {
            let _ = black_box(fold(shape, black_box(nodes)));
        }),
    );
    layers.set(
        "coding.split_ns",
        mean_ns(intervals, |i| {
            let cut = i.begin().add(&i.length().mul_div_floor(1, 2));
            black_box(black_box(i).split_at(&cut));
        }),
    );
    let weight = shape.weight_at(shape.leaf_depth() / 2);
    layers.set(
        "bigint.divrem_ns",
        mean_ns(intervals, |i| {
            black_box(black_box(i.end()).div_rem(weight));
        }),
    );
    layers.set(
        "bigint.decimal_roundtrip_ns",
        mean_ns(intervals, |i| {
            let text = black_box(i.end()).to_string();
            black_box(text.parse::<UBig>().expect("decimal text round-trips"));
        }),
    );
}

/// Replays every captured request, in the order the contacts began,
/// through a fresh `ShardRouter` of the same shape. Returns
/// `(requests, total ns, peak live intervals, responses equal to the
/// captured ones)`.
fn replay_coordinator(capture: &Capture) -> (u64, f64, u64, u64) {
    let mut contacts: Vec<&ContactRecord> = capture.logs.iter().flatten().collect();
    contacts.sort_by_key(|c| c.start_ns);
    let registry = MetricsRegistry::new();
    let coordinator = gridbnb_core::CoordinatorConfig {
        initial_upper_bound: capture.bound,
        ..Default::default()
    };
    let router = ShardRouter::new(capture.shape.root_range(), capture.shards, coordinator)
        .expect("a valid router configuration")
        .with_metrics(&registry);
    let live: Vec<_> = (0..capture.shards)
        .map(|k| registry.gauge("gbnb_shard_live_intervals", &[("shard", &k.to_string())]))
        .collect();
    let stream: Vec<(Request, u64)> = contacts
        .iter()
        .flat_map(|c| c.requests.iter().map(|r| (r.clone(), c.start_ns)))
        .collect();
    let expected: Vec<&Response> = contacts.iter().flat_map(|c| c.responses.iter()).collect();
    let mut replayed = Vec::with_capacity(stream.len());
    let mut peak = 0;
    let requests = stream.len() as u64;
    let t0 = Instant::now();
    for (request, now_ns) in stream {
        replayed.push(router.handle(request, now_ns));
        peak = peak.max(live.iter().map(|g| g.get()).sum::<u64>());
    }
    let ns = t0.elapsed().as_nanos() as f64;
    let same = replayed
        .iter()
        .zip(expected)
        .filter(|(a, b)| a == b)
        .count() as u64;
    (requests, ns, peak, same)
}

/// Replays the captured bundles through the wire codec: frame + write
/// (encode) and read + parse (decode), both directions.
fn replay_wire(captures: &[Capture], layers: &mut Layers) {
    let contacts: Vec<&ContactRecord> = captures
        .iter()
        .flat_map(|c| c.logs.iter().flatten())
        .collect();
    if contacts.is_empty() {
        return;
    }
    let mut encoded: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(contacts.len());
    let t0 = Instant::now();
    for (seq, contact) in contacts.iter().enumerate() {
        let mut request = Vec::new();
        write_frame(
            &mut request,
            &frame_request_bundle(seq as u64, &contact.requests),
        )
        .expect("write to a Vec");
        let mut response = Vec::new();
        write_frame(
            &mut response,
            &frame_response_bundle(seq as u64, &contact.responses),
        )
        .expect("write to a Vec");
        encoded.push((request, response));
    }
    let encode_ns = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    for (request, response) in &encoded {
        let frame = read_frame(&mut request.as_slice()).expect("own frame reads back");
        black_box(parse_request_bundle(&frame).expect("own bundle parses"));
        let frame = read_frame(&mut response.as_slice()).expect("own frame reads back");
        black_box(parse_response_bundle(&frame).expect("own bundle parses"));
    }
    let decode_ns = t0.elapsed().as_nanos() as f64;
    let frames = 2.0 * contacts.len() as f64;
    let bytes: usize = encoded.iter().map(|(a, b)| a.len() + b.len()).sum();
    layers.set("net.encode_ns_per_frame", encode_ns / frames);
    layers.set("net.decode_ns_per_frame", decode_ns / frames);
    layers.set(
        "net.bytes_per_contact",
        bytes as f64 / contacts.len() as f64,
    );
}

/// A WAL directory under the work dir, removed when dropped.
struct WalDir(PathBuf);

impl WalDir {
    fn create() -> std::io::Result<(WalDir, FileBackend)> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = work_dir().join(format!(
            "wal-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let backend = FileBackend::new(&dir)?;
        Ok((WalDir(dir), backend))
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Appends the captured WAL records through a `FileBackend` under the
/// work directory: what a disk-backed journal would add per append on
/// this machine's disk (hardware-dependent, informational).
fn replay_disk(records: &[Vec<u8>]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let (_dir, files) = WalDir::create().expect("create the WAL directory");
    let ns: Vec<u64> = records
        .iter()
        .map(|record| {
            let t0 = Instant::now();
            files
                .append("shard-0-gen-0.wal", record)
                .expect("append to the replay segment");
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    quantile(&ns, 0.5) as f64
}

/// Adds `run → worker → {slice, contact}` spans for one captured solve.
fn add_contact_spans(
    spans: &mut SpanLog,
    parent: u64,
    rep: &'static str,
    window: (u64, u64),
    capture: &Capture,
    reports: &[WorkerReport],
) {
    let run = spans.add(Some(parent), "run", rep, window, Vec::new());
    for (index, log) in capture.logs.iter().enumerate() {
        let (Some(first), Some(last)) = (log.first(), log.last()) else {
            continue;
        };
        let report = reports.get(index);
        let worker = spans.add(
            Some(run),
            "worker",
            rep,
            (first.start_ns, last.end_ns),
            vec![
                ("worker", index as f64),
                ("contacts", log.len() as f64),
                ("units", report.map_or(0.0, |r| r.units as f64)),
                ("busy_ns", report.map_or(0.0, |r| r.busy.as_nanos() as f64)),
            ],
        );
        let mut previous: Option<&ContactRecord> = None;
        for contact in log {
            if let Some(before) = previous {
                spans.add(
                    Some(worker),
                    "slice",
                    rep,
                    (before.end_ns, contact.start_ns),
                    vec![("problem_ns", contact.problem_ns - before.problem_ns)],
                );
            }
            spans.add(
                Some(worker),
                "contact",
                rep,
                (contact.start_ns, contact.end_ns),
                vec![("requests", contact.requests.len() as f64)],
            );
            previous = Some(contact);
        }
    }
}

/// The gate of the traced run: ops attempted and why any failed.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failures: Vec<String>,
}

impl Gate {
    fn absorb(&mut self, pass: &str, rep: &Repetition) {
        self.attempted += rep.attempted;
        self.failures
            .extend(rep.failures.iter().map(|f| format!("{pass}: {f}")));
    }
}

/// Runs the traced passes of `workload` and returns every per-layer
/// metric. Writes the span log to `<work dir>/trace-<workload>.json`.
pub fn run_per_layer(workload: &'static Workload, row: Row, seed: u64) -> Outcome {
    let origin = Instant::now();
    let now = || origin.elapsed().as_nanos() as u64;
    let campaign = prepare(workload, row);
    let mut layers = Layers::default();
    let mut spans = SpanLog::default();
    let mut gate = Gate::default();

    // The sequential reference: the optimum every pass below must
    // prove, and the baseline of `parallel_efficiency`.
    let (seq_s, seq_optima) = sequential_baseline(&campaign);
    let seq_optima = Some(seq_optima.as_slice());

    // Untraced: the yardstick.
    let t0 = now();
    let untraced = repetition(&campaign, seq_optima, |p| solve_untraced(workload, p));
    spans.add(
        None,
        "rep",
        "untraced",
        (t0, now()),
        vec![("time_to_proof_ns", untraced.time_to_proof_s * 1e9)],
    );
    gate.absorb("untraced", &untraced);
    layers.set(SEQ_SOLVE_S, seq_s);
    layers.set(
        PARALLEL_EFFICIENCY,
        ratio(seq_s, WORKERS as f64 * untraced.time_to_proof_s),
    );

    // Traced: same entry point, probes attached.
    let registry = MetricsRegistry::new();
    let mut totals = TracedTotals::default();
    let mut captures: Vec<Capture> = Vec::new();
    let mut backend_log = BackendLog::default();
    let mut server_scrape = None;
    let mut scrape_us = 0.0;
    let mut recovery = (0.0, 0.0);
    let t0 = now();
    let traced_rep = spans.add(None, "rep", "traced", (t0, t0), Vec::new());
    let traced = repetition(&campaign, seq_optima, |prepared| {
        let config = runtime_config(workload, prepared.bound).with_metrics(&registry);
        let every = sample_every(&prepared.built);
        match workload.path {
            Path::InProcess { .. } => {
                let (solved, problem, window) = with_problem!(&prepared.built, |p| {
                    traced_in_process(p, &config, origin, every)
                });
                totals.absorb(&solved, &problem, window.0, window.1);
                let run = spans.add(
                    Some(traced_rep),
                    "run",
                    "traced",
                    window,
                    vec![
                        ("problem_ns", problem.ns()),
                        (
                            "startup_ns",
                            problem.first_call_ns.saturating_sub(window.0) as f64,
                        ),
                        (
                            "shutdown_ns",
                            window.1.saturating_sub(problem.last_call_ns) as f64,
                        ),
                    ],
                );
                for (index, w) in solved.workers.iter().enumerate() {
                    // A worker's start is not visible through `run`;
                    // its wall is, and it ends when the run does.
                    let wall = w.wall.as_nanos() as u64;
                    spans.add(
                        Some(run),
                        "worker",
                        "traced",
                        (window.1.saturating_sub(wall).max(window.0), window.1),
                        vec![
                            ("worker", index as f64),
                            ("busy_ns", w.busy.as_nanos() as f64),
                            ("contacts", w.contacts as f64),
                            ("units", w.units as f64),
                        ],
                    );
                }
                solved
            }
            Path::TcpDurable { shards } => {
                // Crash image at 30 % of the campaign's contacts: well
                // inside the first compaction period at either end of
                // the observed contact rate.
                let crash_at = untraced.contacts * 3 / 10;
                let (solved, tcp) = with_problem!(&prepared.built, |p| {
                    traced_over_tcp(p, shards, prepared.bound, &config, origin, every, crash_at)
                });
                totals.absorb(&solved, &tcp.problem, tcp.window.0, tcp.window.1);
                add_contact_spans(
                    &mut spans,
                    traced_rep,
                    "traced",
                    tcp.window,
                    &tcp.capture,
                    &solved.workers,
                );
                captures.push(tcp.capture);
                backend_log = tcp.backend;
                server_scrape = tcp.server_scrape;
                scrape_us = tcp.scrape_us;
                recovery = tcp.recovery;
                solved
            }
        }
    });
    spans.finish(
        traced_rep,
        now(),
        vec![("time_to_proof_ns", traced.time_to_proof_s * 1e9)],
    );
    gate.absorb("traced", &traced);
    if backend_log.failures != 0 {
        gate.failures.push(format!(
            "traced: {} storage calls failed under the WAL",
            backend_log.failures
        ));
    }

    // Capture: in-process workloads only (the TCP traced pass is one).
    if let Path::InProcess { shards } = workload.path {
        let t0 = now();
        let capture_rep = spans.add(None, "rep", "capture", (t0, t0), Vec::new());
        let mut proven_sum = 0;
        for prepared in &campaign.instances {
            let config = runtime_config(workload, prepared.bound);
            let every = sample_every(&prepared.built);
            let entered = now();
            let (capture, cutoff, reports) = with_problem!(&prepared.built, |p| {
                capture_in_process(p, shards, &config, origin, every)
            });
            add_contact_spans(
                &mut spans,
                capture_rep,
                "capture",
                (entered, now()),
                &capture,
                &reports,
            );
            proven_sum += cutoff.unwrap_or(0);
            captures.push(capture);
        }
        spans.finish(capture_rep, now(), Vec::new());
        eprintln!(
            "campaign: capture pass (bench-owned router, {shards} shard(s), no supervisor) took \
             {:.3} s; the untraced repetition took {:.3} s",
            (now() - t0) as f64 / 1e9,
            untraced.time_to_proof_s
        );
        gate.attempted += campaign.instances.len() as u64;
        if proven_sum != row.optimum_sum {
            gate.failures.push(format!(
                "capture: proven optima sum to {proven_sum}, the catalogue pins {}",
                row.optimum_sum
            ));
        }
    }

    fill_from_traced_pass(
        &mut layers,
        &campaign,
        &untraced,
        &traced,
        &totals,
        &Scrape::parse(&registry.render_text()),
    );

    // Registry scrape cost and size: over the wire on the TCP path,
    // `render_text` (what a scrape handler runs) in process.
    match &server_scrape {
        Some(scrape) => {
            layers.set("metrics.scrape_us", scrape_us);
            layers.set("metrics.series", scrape.series() as f64);
            fill_from_server(&mut layers, scrape, &backend_log, &traced);
            layers.set("net.frames", totals.frames as f64);
            layers.set("wal.recover_ms", recovery.0);
            layers.set("wal.recover_records", recovery.1);
            let lost = scrape.total("gbnb_wal_append_failures_total");
            if lost != 0.0 {
                gate.failures
                    .push(format!("traced: {lost} WAL appends failed"));
            }
        }
        None => {
            let t0 = Instant::now();
            let text = registry.render_text();
            layers.set("metrics.scrape_us", t0.elapsed().as_secs_f64() * 1e6);
            layers.set("metrics.series", Scrape::parse(&text).series() as f64);
        }
    }

    // Replays.
    let intervals = captured_intervals(&captures);
    if let Some(first) = captures.first() {
        replay_coding(&first.shape, &intervals, &mut layers);
    }
    let (mut requests, mut handle_ns, mut peak, mut same) = (0, 0.0, 0, 0);
    for capture in &captures {
        let (n, ns, live, equal) = replay_coordinator(capture);
        requests += n;
        handle_ns += ns;
        peak = peak.max(live);
        same += equal;
    }
    layers.set(
        "coordinator.handle_ns_per_request",
        ratio(handle_ns, requests as f64),
    );
    layers.set("shard.live_intervals_peak", peak as f64);
    eprintln!(
        "campaign: coordinator replay reproduced {same} of {requests} captured responses exactly"
    );
    let is_tcp = matches!(workload.path, Path::TcpDurable { .. });
    if is_tcp {
        replay_wire(&captures, &mut layers);
        layers.set(
            "storage.disk_append_ns_p50",
            replay_disk(&backend_log.captured),
        );
        let rtt: Vec<u64> = captures
            .iter()
            .flat_map(|c| c.logs.iter().flatten())
            .map(|c| c.end_ns - c.start_ns)
            .collect();
        if !rtt.is_empty() {
            layers.set("net.rtt_ns_p50", quantile(&rtt, 0.5) as f64);
            layers.set("net.rtt_ns_p99", quantile(&rtt, 0.99) as f64);
        }
    }
    // Estimated share of worker time spent in interval coding at the
    // contact boundary: one unfold + one split per unit, and on the TCP
    // path a decimal round trip each way per contact.
    let per_unit = layers.get("coding.unfold_ns") + layers.get("coding.split_ns");
    let per_contact = if is_tcp {
        2.0 * layers.get("bigint.decimal_roundtrip_ns")
    } else {
        0.0
    };
    layers.set(
        "coding.est_share",
        ratio(
            totals.units as f64 * per_unit + totals.contacts as f64 * per_contact,
            traced.worker_wall_s * 1e9,
        ),
    );

    // enum_explore only: the replicable trace's cost on real threads.
    if workload.name == "enum_explore" {
        let t0 = now();
        let mut events = 0.0;
        let mut bytes = 0.0;
        let replicable = repetition(&campaign, seq_optima, |prepared| {
            let config = runtime_config(workload, prepared.bound).with_replicable_threads(seed);
            let solved = with_problem!(&prepared.built, |p| solve_in_process(p, &config));
            if let Some(trace) = solved.run.as_ref().and_then(|r| r.trace.as_ref()) {
                events += trace.len() as f64;
                bytes += trace.encode().len() as f64;
            }
            solved
        });
        spans.add(None, "rep", "replicable", (t0, now()), Vec::new());
        gate.absorb("replicable", &replicable);
        layers.set("trace.events", events);
        layers.set("trace.encoded_bytes", bytes);
        layers.set(
            "trace.overhead_ratio",
            ratio(replicable.time_to_proof_s, untraced.time_to_proof_s),
        );
    }

    let path = work_dir().join(format!("trace-{}.json", workload.name));
    match spans.write(&path) {
        Ok(()) => eprintln!(
            "campaign: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => gate
            .failures
            .push(format!("could not write {}: {e}", path.display())),
    }
    Outcome {
        metrics: layers.into_measured(),
        extras: Vec::new(),
        attempted: gate.attempted,
        failures: gate.failures,
    }
}

/// Everything read from the traced pass itself: report fields, the
/// `TimedProblem` totals and the run's own registry.
fn fill_from_traced_pass(
    layers: &mut Layers,
    campaign: &Campaign,
    untraced: &Repetition,
    traced: &Repetition,
    totals: &TracedTotals,
    scrape: &Scrape,
) {
    let busy_ns = traced.busy_s * 1e9;
    let problem_ns = totals.problem_branch.ns + totals.problem_bound.ns + totals.problem_leaf.ns;
    let self_ns = (busy_ns - problem_ns).max(0.0);
    layers.set("engine.nodes_explored", traced.explored as f64);
    layers.set("engine.nodes_bounded", totals.nodes_bounded as f64);
    layers.set("engine.bound_batches", totals.bound_batches as f64);
    layers.set(
        "engine.self_ns_per_node",
        ratio(self_ns, traced.explored as f64),
    );
    layers.set("engine.self_share", ratio(self_ns, busy_ns));
    layers.set(
        "engine.pool_fill",
        ratio(totals.nodes_bounded as f64, totals.bound_batches as f64),
    );
    layers.set(
        "engine.wasted_bound_ratio",
        ratio(
            totals.nodes_bounded.saturating_sub(totals.bound_calls) as f64,
            totals.nodes_bounded as f64,
        ),
    );
    let family = match campaign.instances.first().map(|p| &p.built) {
        Some(Built::Flowshop(_)) => Some("flowshop"),
        Some(Built::Qap(_)) => Some("qap"),
        _ => None,
    };
    if let Some(family) = family {
        let names: [&'static str; 3] = if family == "flowshop" {
            [
                "flowshop.bound_ns_per_state",
                "flowshop.bound_share",
                "flowshop.branch_ns_per_call",
            ]
        } else {
            [
                "qap.bound_ns_per_state",
                "qap.bound_share",
                "qap.branch_ns_per_call",
            ]
        };
        layers.set(names[0], totals.problem_bound.ns_per_unit());
        layers.set(names[1], ratio(totals.problem_bound.ns, busy_ns));
        layers.set(names[2], totals.problem_branch.ns_per_unit());
    }

    layers.set("runtime.contacts", totals.contacts as f64);
    layers.set("runtime.units", totals.units as f64);
    let wait = scrape.histogram("gbnb_worker_idle_wait_ns", None);
    layers.set("runtime.contact_wait_ns_p50", wait.quantile(0.5));
    layers.set("runtime.contact_wait_ns_p99", wait.quantile(0.99));
    layers.set(
        "runtime.slice_ns_p50",
        scrape.histogram("gbnb_worker_slice_ns", None).quantile(0.5),
    );
    let idle = scrape.total("gbnb_worker_idle_ns_total");
    let busy = scrape.total("gbnb_worker_busy_ns_total");
    layers.set("runtime.idle_share", ratio(idle, idle + busy));
    layers.set(
        "runtime.startup_ms",
        ratio(totals.startup_ns, totals.solves) / 1e6,
    );
    layers.set(
        "runtime.shutdown_ms",
        ratio(totals.shutdown_ns, totals.solves) / 1e6,
    );
    layers.set(
        "runtime.node_redundancy",
        ratio(totals.redundant_nodes as f64, traced.explored as f64),
    );
    if !totals.root_length.is_zero() {
        layers.set(
            "runtime.interval_redundancy",
            totals
                .consumed
                .saturating_sub(&totals.root_length)
                .ratio(&totals.consumed),
        );
    }

    layers.set("coordinator.requests", totals.coordinator_requests as f64);
    layers.set(
        "coordinator.farmer_exploitation",
        ratio(totals.farmer_busy_s, traced.time_to_proof_s),
    );
    fill_router_families(layers, scrape);
    layers.set("shard.steals", totals.steals as f64);
    layers.set("shard.router_contacts", totals.router_contacts as f64);
    layers.set("net.transport_retries", totals.transport_retries as f64);
    layers.set(
        "trace_overhead_ratio",
        ratio(traced.time_to_proof_s, untraced.time_to_proof_s),
    );
}

/// The router's latency families, from whichever registry the router
/// of the run recorded into (the run's own in process, the server's on
/// the TCP path; the farmer channel has no router and leaves them 0).
fn fill_router_families(layers: &mut Layers, scrape: &Scrape) {
    for (name, family) in [
        ("coordinator.update_ns_mean", "gbnb_coordinator_update_ns"),
        (
            "coordinator.selection_ns_mean",
            "gbnb_coordinator_selection_ns",
        ),
        ("shard.lock_hold_ns_mean", "gbnb_shard_lock_hold_ns"),
    ] {
        layers.set(name, scrape.histogram(family, None).mean());
    }
}

/// Everything read from the server's side of the TCP path: its registry
/// as scraped over the wire, and the `TimedBackend` under its WAL.
fn fill_from_server(
    layers: &mut Layers,
    scrape: &Scrape,
    backend: &BackendLog,
    traced: &Repetition,
) {
    let service = scrape.histogram("gbnb_net_service_ns", Some(("kind", "bundle")));
    layers.set("net.service_ns_mean", service.mean());
    // On this path the server's bundle service time is the farmer's.
    layers.set(
        "coordinator.farmer_exploitation",
        ratio(service.sum, traced.time_to_proof_s * 1e9),
    );
    fill_router_families(layers, scrape);
    layers.set("wal.appends", scrape.total("gbnb_wal_appends_total"));
    layers.set(
        "wal.compactions",
        scrape.total("gbnb_wal_compactions_total"),
    );
    let append = scrape.histogram("gbnb_wal_append_ns", None);
    layers.set("wal.append_ns_p50", append.quantile(0.5));
    layers.set("wal.append_ns_p99", append.quantile(0.99));
    layers.set(
        "wal.bytes_per_append",
        ratio(backend.append_bytes as f64, backend.appends as f64),
    );
    layers.set(
        "wal.compaction_ms_mean",
        scrape.histogram("gbnb_wal_compaction_ns", None).mean() / 1e6,
    );
    layers.set("storage.puts", backend.puts as f64);
}
