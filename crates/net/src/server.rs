//! The socket server: a [`gridbnb_core::ShardRouter`] served over real
//! TCP.
//!
//! ```text
//!              ┌──────────────────── NetServer ─────────────────────┐
//!   workers ──►│ acceptor ─► a thread per connection ─► ShardRouter │
//!   (sockets)  │                                          ▲         │
//!              │                supervisor: expiry, compaction      │
//!              └────────────────────────────────────────────────────┘
//! ```
//!
//! * **Acceptor** — the thread calling [`NetServer::serve`] accepts
//!   connections (non-blocking, so shutdown and drain conditions are
//!   observed promptly) and gives each one a scoped thread of its own.
//!   An idle or slow peer costs one parked thread and never delays
//!   another connection; nothing is refused.
//! * **Connection threads** — read a frame, serve it, write the reply,
//!   until the peer hangs up. A connection may carry one worker or a
//!   whole fleet (a `MuxClient`); after the first blocking read, every
//!   complete frame already buffered on the connection is drained and
//!   folded into the same coordinator bundle — one
//!   [`gridbnb_core::ShardRouter::handle_bundle`] call (one lock per
//!   touched shard) for a burst of frames.
//! * **Supervisor** — the server is one more attachment to the
//!   in-process runtime's [`Farmer`]: the farmer opens the campaign
//!   (recovering whatever the durable backend holds), runs its
//!   supervisor beside the acceptor — stale-holder expiry, the crash
//!   recovery for vanished connections, and periodic log compaction —
//!   and concludes with the one [`RunReport`]. A terminated campaign
//!   gets the terminal compaction; a stopped one does not, so its log
//!   tail stays the crash image a restart must replay.
//! * **Drain** — one resolution campaign per server, like the paper's
//!   runs: `serve` returns once the router terminates, the listen
//!   backlog is empty and the last connection closes — a worker that
//!   connected just before termination is answered `Terminate`, never
//!   reset. [`ServerHandle::stop`] forces the same wind-down early, and
//!   the acceptor leaving its loop stops the supervisor too.
//!   In-flight frames are answered before their connections close: a
//!   connection thread checks the stop flag after every answered burst
//!   and on every idle read timeout, so even a client that never pauses
//!   cannot hold the server open. `serve` joins every connection thread
//!   before it returns.
//!
//! Misbehaving peers never take the server down: a malformed frame
//! closes that one connection and bumps
//! [`ServerReport::protocol_errors`].

use crate::wire::{self, drain_buffered_frames, read_frame, write_frame, Frame, RunStatus};
use gridbnb_core::runtime::{DurabilityPolicy, Farmer, RunReport};
use gridbnb_core::{
    ConfigError, CoordinatorConfig, Interval, Request, ShardRouter, TransportError, WalError,
};
use gridbnb_metrics::{latency_buckets_ns, Counter, Histogram, MetricsRegistry};
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Socket buffer sizing for burst traffic: large enough that a
/// multiplexed client's whole burst (W frames of a few hundred bytes)
/// crosses in one read fill and one write flush.
const BURST_BUFFER: usize = 64 * 1024;

/// How a [`NetServer`] is shaped: the coordinator it hosts and the
/// socket behavior in front of it.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Coordinator shards behind the router (≥ 1).
    pub shards: usize,
    /// Per-shard coordinator policy.
    pub coordinator: CoordinatorConfig,
    /// Socket read timeout per blocking read. This is also the
    /// connection thread's shutdown poll tick: a quiet connection
    /// notices a drain within one timeout.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Durable coordinator state (see
    /// [`gridbnb_core::runtime::DurabilityPolicy`]); the campaign opens
    /// through [`Farmer::open`], so a killed server restarted on the same
    /// backend resumes exactly where its log ends.
    pub durability: Option<DurabilityPolicy>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 1,
            coordinator: CoordinatorConfig::default(),
            read_timeout: Duration::from_millis(20),
            write_timeout: Duration::from_secs(5),
            durability: None,
        }
    }
}

impl ServerConfig {
    /// A config with `shards` coordinator shards and defaults elsewhere.
    pub fn new(shards: usize) -> Self {
        ServerConfig {
            shards,
            ..ServerConfig::default()
        }
    }

    /// Checks the config the same way the in-process runtime checks
    /// its own: shard count and coordinator policy.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        self.coordinator.validate()
    }
}

/// Why a server could not start or finish.
#[derive(Debug)]
pub enum ServerError {
    /// The configuration failed [`ServerConfig::validate`].
    Config(ConfigError),
    /// Binding or operating the listener failed.
    Io(io::Error),
    /// The durable log could not be opened or recovered — including
    /// mid-log corruption, which the server refuses to serve past (a
    /// torn *final* record is repaired by truncation instead).
    Durability(WalError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Config(e) => write!(f, "invalid server config: {e}"),
            ServerError::Io(e) => write!(f, "server I/O error: {e}"),
            ServerError::Durability(e) => write!(f, "durable log unusable: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<WalError> for ServerError {
    fn from(e: WalError) -> Self {
        ServerError::Durability(e)
    }
}

impl From<ConfigError> for ServerError {
    fn from(e: ConfigError) -> Self {
        ServerError::Config(e)
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// What a finished [`NetServer::serve`] observed: the farmer's report
/// of the campaign, and the wire counters read from the server's
/// `gbnb_net_*` series.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// The campaign, as the [`Farmer`] concluded it. Its `workers` is
    /// empty: the fleet reports on its own side of the sockets.
    pub run: RunReport,
    /// Connections accepted.
    pub connections: u64,
    /// Request-bundle frames served.
    pub frames: u64,
    /// Coordinator bundles those frames were folded into (≤ `frames`;
    /// the gap is the multiplexing win).
    pub bundles: u64,
    /// Frames served piggy-backed on another frame's bundle
    /// (`frames − bundles`, counted directly).
    pub batched_frames: u64,
    /// Worker requests inside all served frames.
    pub requests: u64,
    /// Status queries answered.
    pub queries: u64,
    /// Connections dropped for violating the protocol.
    pub protocol_errors: u64,
}

/// Reads the campaign's fields through to [`ServerReport::run`]. This
/// exists only so that the benchmark's `campaign/src/workloads.rs` and
/// `campaign/src/layers.rs`, which read `proven_optimum`, `steals` and
/// `router_contacts` off a `ServerReport`, keep compiling; new code
/// reads `report.run`.
impl Deref for ServerReport {
    type Target = RunReport;

    fn deref(&self) -> &RunReport {
        &self.run
    }
}

/// The service layer's series, registered on the router's registry so
/// one scrape covers the whole server — coordinator, shards and
/// sockets. Answered over the wire by [`wire::kind::METRICS_QUERY`].
struct NetMetrics {
    /// `gbnb_net_connections_total` — connections accepted.
    connections: Counter,
    /// `gbnb_net_bundles_total` — coordinator bundles served.
    bundles: Counter,
    /// `gbnb_net_batched_frames_total` — frames served inside another
    /// frame's bundle.
    batched_frames: Counter,
    /// `gbnb_net_requests_total` — worker requests inside served frames.
    requests: Counter,
    /// `gbnb_net_frames_in_total{kind=...}` — frames received, by kind.
    frames_in_bundle: Counter,
    frames_in_query: Counter,
    frames_in_metrics: Counter,
    /// `gbnb_net_frames_out_total` — reply frames written.
    frames_out: Counter,
    /// `gbnb_net_decode_errors_total` — connections dropped for
    /// protocol violations.
    decode_errors: Counter,
    /// `gbnb_net_service_ns{kind=...}` — time to serve one burst's
    /// coordinator bundle / status snapshot / metrics render.
    service_bundle_ns: Histogram,
    service_query_ns: Histogram,
    service_metrics_ns: Histogram,
}

impl NetMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        let buckets = latency_buckets_ns();
        NetMetrics {
            connections: registry.counter("gbnb_net_connections_total", &[]),
            bundles: registry.counter("gbnb_net_bundles_total", &[]),
            batched_frames: registry.counter("gbnb_net_batched_frames_total", &[]),
            requests: registry.counter("gbnb_net_requests_total", &[]),
            frames_in_bundle: registry
                .counter("gbnb_net_frames_in_total", &[("kind", "request_bundle")]),
            frames_in_query: registry.counter("gbnb_net_frames_in_total", &[("kind", "query")]),
            frames_in_metrics: registry
                .counter("gbnb_net_frames_in_total", &[("kind", "metrics_query")]),
            frames_out: registry.counter("gbnb_net_frames_out_total", &[]),
            decode_errors: registry.counter("gbnb_net_decode_errors_total", &[]),
            service_bundle_ns: registry.histogram(
                "gbnb_net_service_ns",
                &[("kind", "bundle")],
                &buckets,
            ),
            service_query_ns: registry.histogram(
                "gbnb_net_service_ns",
                &[("kind", "query")],
                &buckets,
            ),
            service_metrics_ns: registry.histogram(
                "gbnb_net_service_ns",
                &[("kind", "metrics")],
                &buckets,
            ),
        }
    }
}

/// A clonable remote control for a running server: its address and the
/// stop switch.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The bound address (with the OS-chosen port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to wind down: stop accepting, answer in-flight
    /// frames, close connections, return from `serve`.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

/// A bound-but-not-yet-serving coordinator server. Construction
/// validates the config and binds the listener; [`NetServer::serve`]
/// blocks the calling thread until drain (spawn it where concurrent
/// clients are needed).
pub struct NetServer {
    listener: TcpListener,
    addr: SocketAddr,
    root: Interval,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl NetServer {
    /// Validates `config`, binds `addr` (use port 0 for an OS-chosen
    /// loopback port) and returns the idle server.
    pub fn bind(
        addr: impl ToSocketAddrs,
        root: Interval,
        config: ServerConfig,
    ) -> Result<NetServer, ServerError> {
        config.validate()?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(NetServer {
            listener,
            addr,
            root,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A control handle usable from other threads while `serve` runs.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Runs the server to completion: open the campaign
    /// ([`Farmer::open`]), then host the acceptor on the farmer until
    /// drain.
    pub fn serve(self) -> Result<ServerReport, ServerError> {
        let farmer = Farmer::open(
            self.root.clone(),
            self.config.shards,
            &self.config.coordinator,
            self.config.durability.as_ref(),
            None,
        )?;
        self.listener.set_nonblocking(true)?;
        let ((accepted, net), run) = farmer.host(&self.shutdown, |router, started| {
            let net = NetMetrics::register(router.metrics());
            (self.accept(router, started, &net), net)
        });
        accepted?;
        Ok(ServerReport {
            run,
            connections: net.connections.get(),
            frames: net.frames_in_bundle.get(),
            bundles: net.bundles.get(),
            batched_frames: net.batched_frames.get(),
            requests: net.requests.get(),
            queries: net.frames_in_query.get(),
            protocol_errors: net.decode_errors.get(),
        })
    }

    /// The acceptor: gives every accepted connection a scoped thread of
    /// its own until the campaign drains, [`ServerHandle::stop`] is
    /// called or accepting fails. Non-blocking, so stop and drain are
    /// observed within one poll tick even with no traffic.
    fn accept(&self, router: &ShardRouter, started: Instant, net: &NetMetrics) -> io::Result<()> {
        let live = &AtomicUsize::new(0);
        let config = &self.config;
        let shutdown = self.shutdown.as_ref();
        crossbeam::thread::scope(|scope| {
            let accepted = loop {
                if shutdown.load(Ordering::Acquire) {
                    break Ok(());
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        net.connections.inc();
                        live.fetch_add(1, Ordering::AcqRel);
                        scope.spawn(move |_| {
                            serve_connection(stream, router, config, net, shutdown, started);
                            live.fetch_sub(1, Ordering::AcqRel);
                        });
                    }
                    // Drain only once the backlog is empty: a connection
                    // still waiting there is accepted and answered first.
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if router.is_terminated() && live.load(Ordering::Acquire) == 0 {
                            break Ok(());
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(e),
                }
            };
            // Wind-down: no new connections; connection threads notice
            // the flag after their current burst or within one read
            // timeout, and the scope joins them.
            shutdown.store(true, Ordering::Release);
            accepted
        })
        .expect("server scope panicked")
    }
}

/// Serves one connection until the peer hangs up, a protocol violation,
/// or server shutdown.
fn serve_connection(
    stream: TcpStream,
    router: &ShardRouter,
    config: &ServerConfig,
    metrics: &NetMetrics,
    shutdown: &AtomicBool,
    started: Instant,
) {
    if stream.set_read_timeout(Some(config.read_timeout)).is_err()
        || stream
            .set_write_timeout(Some(config.write_timeout))
            .is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Wide buffers so a multiplexed burst (W frames back-to-back) fits
    // one fill on the way in and one flush on the way out.
    let mut reader = BufReader::with_capacity(BURST_BUFFER, read_half);
    let mut writer = BufWriter::with_capacity(BURST_BUFFER, stream);

    loop {
        let first = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(TransportError::Timeout) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(TransportError::Closed) => return,
            Err(TransportError::Io(_)) => return,
            Err(TransportError::Protocol(_)) => {
                metrics.decode_errors.inc();
                return;
            }
        };
        // Fold every complete frame already buffered into this service
        // round: one coordinator bundle for a burst of frames.
        let mut frames = vec![first];
        match drain_buffered_frames(&mut reader) {
            Ok(more) => frames.extend(more),
            Err(_) => {
                metrics.decode_errors.inc();
                return;
            }
        }
        // The burst is answered; a stop request ends the connection
        // here even when the peer never lets a read time out.
        if serve_frames(frames, &mut writer, router, metrics, started).is_err()
            || shutdown.load(Ordering::Acquire)
        {
            return;
        }
    }
}

/// Decodes, executes and answers one burst of frames. Any error — a
/// malformed frame or a dead socket — ends the connection.
fn serve_frames(
    frames: Vec<Frame>,
    writer: &mut BufWriter<TcpStream>,
    router: &ShardRouter,
    metrics: &NetMetrics,
    started: Instant,
) -> Result<(), ()> {
    // (seq, request count) per request-bundle frame, for splitting the
    // combined response run back into per-frame reply frames.
    let mut slices: Vec<(u64, usize)> = Vec::with_capacity(frames.len());
    let mut combined: Vec<Request> = Vec::new();
    let mut replies: Vec<Frame> = Vec::new();

    for frame in &frames {
        match frame.kind {
            wire::kind::REQUEST_BUNDLE => {
                let requests =
                    wire::parse_request_bundle(frame).map_err(|_| metrics.decode_errors.inc())?;
                metrics.frames_in_bundle.inc();
                metrics.requests.add(requests.len() as u64);
                slices.push((frame.seq, requests.len()));
                combined.extend(requests);
            }
            wire::kind::QUERY => {
                metrics.frames_in_query.inc();
                let t0 = Instant::now();
                let status = status_of(router);
                replies.push(wire::frame_status(frame.seq, &status));
                metrics
                    .service_query_ns
                    .observe(t0.elapsed().as_nanos() as u64);
            }
            wire::kind::METRICS_QUERY => {
                metrics.frames_in_metrics.inc();
                let t0 = Instant::now();
                // One scrape = the whole registry: router, shards,
                // coordinator operators and this net layer.
                let text = router.metrics().render_text();
                replies.push(wire::frame_metrics_text(frame.seq, &text));
                metrics
                    .service_metrics_ns
                    .observe(t0.elapsed().as_nanos() as u64);
            }
            _ => {
                // A response/status frame from a client is out of
                // contract.
                metrics.decode_errors.inc();
                return Err(());
            }
        }
    }

    if !combined.is_empty() {
        metrics.bundles.inc();
        metrics.batched_frames.add(slices.len() as u64 - 1);
        let now_ns = started.elapsed().as_nanos() as u64;
        let sent = combined.len();
        let t0 = Instant::now();
        let bundle = combined.into_iter().map(|r| router.envelope(r)).collect();
        let responses: Vec<_> = router
            .handle_bundle(bundle, now_ns)
            .into_iter()
            .map(|(_, response)| response)
            .collect();
        metrics
            .service_bundle_ns
            .observe(t0.elapsed().as_nanos() as u64);
        debug_assert_eq!(responses.len(), sent, "one response per request");
        let mut responses = responses.into_iter();
        for (seq, count) in slices {
            let slice: Vec<_> = responses.by_ref().take(count).collect();
            replies.push(wire::frame_response_bundle(seq, &slice));
        }
    }

    metrics.frames_out.add(replies.len() as u64);
    for reply in &replies {
        write_frame(writer, reply).map_err(|_| ())?;
    }
    writer.flush().map_err(|_| ())
}

/// Snapshot of the router for a status reply.
fn status_of(router: &ShardRouter) -> RunStatus {
    let solution = router.solution();
    RunStatus {
        terminated: router.is_terminated(),
        cutoff: router.cutoff(),
        solution,
        cardinality: router.cardinality() as u64,
        contacts: router.contacts(),
        steals: router.steals(),
    }
}
