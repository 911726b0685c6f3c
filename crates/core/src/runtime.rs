//! The farmer–worker runtime: one farmer, one worker state machine,
//! three ways to attach the workers.
//!
//! **One farmer.** In the paper the farmer alone owns `INTERVALS` and
//! `SOLUTION`, checkpoints them, and declares the optimum proven exactly
//! when `INTERVALS` is empty. Here that is the [`Farmer`]: it opens the
//! campaign ([`Farmer::open`] recovers whatever the durable backend
//! holds), hosts the workers beside a supervisor thread that expires
//! stale holders and compacts the log — the paper's periodic checkpoint
//! — and is woken, not timed out, when they are gone ([`Farmer::host`]);
//! then it builds the one [`RunReport`], which proves nothing unless the
//! campaign terminated. Contacts are served straight from the workers'
//! threads by a [`ShardRouter`]: the root range split over
//! [`RuntimeConfig::shards`] independently locked coordinators (one by
//! default), with no farmer thread and no request channel.
//!
//! **One worker state machine.** `Worker::step` is the worker: a work
//! request (carrying any unreported solution in the same bundle) when
//! it holds no unit; otherwise one exploration slice of
//! [`RuntimeConfig::poll_nodes`] node visits followed — in this order —
//! by the fresh-best `UpdateAndReport`, the scripted crash, unit
//! exhaustion, and the periodic `Update` once the contact rule (on
//! `Worker`) says it is due, like the paper's B&B processes that
//! "regularly contact the coordinator to update their interval". That
//! rule prices a contact by its measured cost, so no option sets the
//! cadence. It speaks through the
//! [`Transport`] trait, so the same code runs against the in-process
//! router or a socket ([`run_workers`]). Over a transport
//! with a real round trip the periodic `Update` is submitted without
//! waiting and its ack folded in at a later slice boundary; every
//! in-process transport answers at once, so there the loop is exactly
//! synchronous.
//!
//! **Three attachments.** The threaded driver gives every worker a
//! thread that steps it until done. Under
//! [`ReplicablePolicy::deterministic`] a single-threaded scheduler steps
//! the *same* workers in a seed-shuffled round-robin over a logical
//! clock; the only inputs that differ are the transport (one tick per
//! request) and the clock (on which every slice's periodic `Update` is
//! due). That driver has no supervisor: periodic compactions
//! do not happen, the terminal one does. The socket server in
//! `gridbnb-net` is the third: its acceptor gives every connection a
//! thread that serves frames from the farmer's router.
//!
//! Fault tolerance is exercisable in-process: a [`ChaosConfig`] makes
//! chosen workers "crash" (silently abandon their explorer, losing all
//! state) and optionally rejoin under a fresh identity. Recovery follows
//! the paper: the coordinator still holds the crashed worker's last
//! interval copy; once the holder is expired (or the interval is
//! duplicated below the threshold) the work is redistributed. Runs with
//! crashes must still return the exact optimum — the integration tests
//! assert it.

use crate::storage::StorageBackend;
use crate::trace::{RunTrace, TraceMeta};
use crate::transport::{
    LogicalClockTransport, PendingContact, ProtocolError, RouterTransport, Submitted, Transport,
    TransportError,
};
use crate::{
    ConfigError, CoordinatorConfig, CoordinatorStats, Request, Response, ShardRouter, WalError,
    WalStore, WorkerId,
};
use gridbnb_bigint::UBig;
use gridbnb_coding::Interval;
use gridbnb_engine::{IntervalExplorer, Problem, SearchStats, Solution};
use gridbnb_metrics::{latency_buckets_ns, Counter, Histogram, MetricsRegistry};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Durable coordinator state: a write-ahead operation log plus
/// generational snapshots behind a pluggable [`StorageBackend`] (see
/// [`crate::wal`]).
///
/// This is the one persistence path. With a policy, the run journals
/// every coordinator state change (interval inserts/removes/shrinks,
/// solution improvements) into per-shard CRC-framed segments as it
/// happens, and the supervisor folds the log into a fresh snapshot
/// every `compact_every` — the paper's periodic checkpoint of
/// `INTERVALS` and `SOLUTION`, counted in
/// [`RunReport::farmer_checkpoints`]. A process killed at any instant
/// resumes from its exact pre-crash interval sets when the next campaign
/// opens on the same backend ([`Farmer::open`]).
#[derive(Clone, Debug)]
pub struct DurabilityPolicy {
    /// Where the manifest, snapshots and per-shard log segments live
    /// ([`crate::MemoryBackend`], [`crate::FileBackend`],
    /// [`crate::ShardDirBackend`], or anything else implementing
    /// [`StorageBackend`]).
    pub backend: Arc<dyn StorageBackend>,
    /// Compaction period: how often the grown log is folded into a
    /// snapshot, bounding recovery replay time. The paper's coordinator
    /// checkpointed every 30 min; tests compact every few milliseconds.
    pub compact_every: Duration,
}

/// One scripted worker crash.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// Index of the worker thread that crashes.
    pub worker_index: usize,
    /// The crash fires once the worker has explored this many nodes
    /// (across all its units).
    pub after_nodes: u64,
    /// Whether the host comes back (rejoining under a fresh worker id).
    pub rejoin: bool,
}

/// Fault-injection script.
#[derive(Clone, Debug, Default)]
pub struct ChaosConfig {
    /// Crashes to inject (at most one per worker index is honored).
    pub crashes: Vec<CrashPlan>,
}

/// Attempts per contact that fails transiently
/// ([`TransportError::is_transient`]: I/O hiccups, timeouts), the first
/// try included. The worker re-sends the same bundle after a backoff
/// that starts at [`RETRY_BASE_BACKOFF`] and doubles on each further
/// retry; permanent errors ([`TransportError::Closed`], protocol
/// violations) are never retried. Four attempts ride out a coordinator
/// restart without approaching any sane holder timeout. The in-process
/// transports never fail transiently; over a socket a reconnect between
/// two attempts is routine.
const RETRY_ATTEMPTS: u32 = 4;

/// Backoff before the first retry (see [`RETRY_ATTEMPTS`]).
const RETRY_BASE_BACKOFF: Duration = Duration::from_millis(1);

/// Replicable-search policy (after Archibald et al., *Replicable
/// Parallel Branch and Bound Search*): same seed, same search.
///
/// Every run already steals by **ordered rules** that are pure
/// functions of the interval state — the victim is the shard whose
/// donatable piece has the lowest left endpoint, the donation is
/// [`crate::Coordinator::steal_ordered`] (tier, then length, then
/// lowest left endpoint). A replicable run adds a recorded
/// [`RunTrace`] of every state change, handout, steal and cutoff
/// broadcast, each recorded inside the lock section that produced it.
///
/// With [`ReplicablePolicy::deterministic`] set the run is driven by a
/// single-threaded scheduler stepping the workers on a logical clock —
/// two runs with the same seed produce **byte-identical** traces and
/// identical per-shard counters (the headline property test). With it
/// clear, the trace is recorded on real threads: it stays replayable,
/// but event *order* may vary between runs — that's the configuration
/// the throughput benchmark gates, since byte-identity is impossible
/// with racing threads.
#[derive(Clone, Copy, Debug)]
pub struct ReplicablePolicy {
    /// Seeds the deterministic scheduler's worker permutation; recorded
    /// in the trace's [`TraceMeta`].
    pub seed: u64,
    /// Drive the run on one thread over a logical clock for
    /// byte-identical traces (see the type docs).
    pub deterministic: bool,
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Number of coordinator shards: how many independently locked
    /// coordinators the [`ShardRouter`] splits the root range over.
    /// Workers contact their home shard directly whatever the count;
    /// `1` (the default) is one lock, `> 1` multiplies contact
    /// throughput.
    pub shards: usize,
    /// Node visits per exploration slice. A worker may contact the
    /// coordinator after any slice; the contact rule on `Worker`
    /// decides when its periodic update is due.
    pub poll_nodes: u64,
    /// Coordinator knobs (threshold, timeout, initial upper bound).
    pub coordinator: CoordinatorConfig,
    /// Relative worker powers (cycled if shorter than `workers`);
    /// defaults to homogeneous 100.
    pub worker_powers: Vec<u64>,
    /// Optional durable operation log (see [`DurabilityPolicy`]); the
    /// journal hangs off the [`ShardRouter`].
    pub durability: Option<DurabilityPolicy>,
    /// Optional fault injection.
    pub chaos: Option<ChaosConfig>,
    /// Optional replicable mode (see [`ReplicablePolicy`]): an event
    /// trace and — when `deterministic` — a single-threaded
    /// logical-clock driver producing byte-identical traces per seed.
    pub replicable: Option<ReplicablePolicy>,
    /// Registry every layer of the run records into (`None` = a private
    /// registry per run, still populated — [`RunReport`] totals come
    /// from the same cells either way). Inject one to scrape worker,
    /// coordinator and router series together, e.g. over the
    /// wire through `gridbnb-net`.
    pub metrics: Option<MetricsRegistry>,
}

impl RuntimeConfig {
    /// A sensible default for `workers` threads.
    pub fn new(workers: usize) -> Self {
        RuntimeConfig {
            workers,
            shards: 1,
            poll_nodes: 2_000,
            coordinator: CoordinatorConfig::default(),
            worker_powers: vec![100],
            durability: None,
            chaos: None,
            replicable: None,
            metrics: None,
        }
    }

    /// Enables fully deterministic replicable mode: a recorded
    /// [`RunTrace`] and the single-threaded logical-clock driver — two
    /// runs with the same `seed` produce byte-identical traces (see
    /// [`ReplicablePolicy`]).
    pub fn with_replicable(mut self, seed: u64) -> Self {
        self.replicable = Some(ReplicablePolicy {
            seed,
            deterministic: true,
        });
        self
    }

    /// A trace on real threads: the run is recorded into a replayable
    /// [`RunTrace`], but OS scheduling still orders the events — the
    /// configuration the trace-overhead benchmark measures.
    pub fn with_replicable_threads(mut self, seed: u64) -> Self {
        self.replicable = Some(ReplicablePolicy {
            seed,
            deterministic: false,
        });
        self
    }

    /// Records the run into `registry` (see [`RuntimeConfig::metrics`]).
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    /// Sets the initial upper bound (from a heuristic, like the paper's
    /// 3681 from iterated greedy).
    pub fn with_initial_upper_bound(mut self, ub: u64) -> Self {
        self.coordinator.initial_upper_bound = Some(ub);
        self
    }

    /// Sets the shard count (see [`RuntimeConfig::shards`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Attaches a durable operation log on `backend`, compacted every
    /// `compact_every` (see [`DurabilityPolicy`]).
    pub fn with_durability(
        mut self,
        backend: Arc<dyn StorageBackend>,
        compact_every: Duration,
    ) -> Self {
        self.durability = Some(DurabilityPolicy {
            backend,
            compact_every,
        });
        self
    }

    /// Checks the whole configuration stack — worker and shard counts,
    /// worker powers, and the coordinator knobs — through the one
    /// shared [`ConfigError`] hierarchy. Every construction path (the
    /// run entry points here, and the socket server in `gridbnb-net`)
    /// funnels through these same checks. The contact cadence needs no
    /// check: the contact rule on `Worker` derives its silence cap from
    /// the holder timeout, so it always stays below it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.worker_powers.is_empty() {
            return Err(ConfigError::EmptyWorkerPowers);
        }
        self.coordinator.validate()
    }

    /// Fails fast on out-of-contract configuration instead of letting
    /// the coordinator silently clamp it. Every run entry point calls
    /// this before building any coordinator state.
    fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            match e {
                ConfigError::ZeroDuplicationThreshold => {
                    panic!("invalid coordinator config: {e}")
                }
                other => panic!("invalid runtime config: {other}"),
            }
        }
    }
}

/// Per-worker outcome.
#[derive(Clone, Debug, Default)]
pub struct WorkerReport {
    /// Work units this thread processed.
    pub units: u64,
    /// Search counters summed over its units.
    pub stats: SearchStats,
    /// Update (checkpoint) messages it sent — counting the update op
    /// inside a combined [`Request::UpdateAndReport`] too.
    pub checkpoint_ops: u64,
    /// Coordinator contacts this thread made: one per request or
    /// request bundle sent, whatever it carried — a periodic update
    /// submitted without waiting for its ack counts when it is sent.
    /// How many slices one periodic contact covers is the contact
    /// rule's choice (see `Worker`): about one per round trip over the
    /// multiplexed socket, where updates overlap exploration.
    pub contacts: u64,
    /// Crashes it simulated.
    pub crashes: u64,
    /// Contacts re-sent after a transient transport failure (at most
    /// three retries per contact, backing off from 1 ms and doubling),
    /// including a periodic update re-sent synchronously because its
    /// in-flight ack failed; always 0 over the in-process transports.
    pub transport_retries: u64,
    /// The transport error that ended this worker's run, if one did:
    /// `None` means the worker exited cleanly (a `Terminate` reply, a
    /// scripted crash, or the spent-unit path). A mid-run socket
    /// failure that exhausted its retries lands here instead of
    /// panicking the thread.
    pub transport_failure: Option<TransportError>,
    /// Node visits presumed redundant: explored in slices whose update
    /// ack came back empty (the unit had already been completed
    /// elsewhere) or lost in a crash (someone re-explores them).
    pub redundant_nodes: u64,
    /// Total interval length it consumed (including progress lost in
    /// crashes, which other workers re-explore).
    pub consumed: UBig,
    /// Time spent exploring (busy), as opposed to waiting on a contact.
    pub busy: Duration,
    /// Wall time of the thread.
    pub wall: Duration,
}

/// Outcome of a parallel resolution.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Best solution found (none if the initial bound was optimal).
    pub solution: Option<Solution>,
    /// `min(initial upper bound, best found)` once the campaign has
    /// terminated; `None` while intervals remain — a run whose workers
    /// all left early proves nothing.
    pub proven_optimum: Option<u64>,
    /// Whether the router reached implicit termination: every shard's
    /// `INTERVALS` is empty.
    pub terminated: bool,
    /// Σ unexplored interval length when the campaign ended: zero once
    /// it has terminated, and for one stopped early exactly what the
    /// next campaign on the same durable backend recovers.
    pub remaining: UBig,
    /// Set when [`Farmer::open`] recovered a committed campaign from the
    /// durable backend.
    pub recovery: Option<RecoveryStats>,
    /// Coordinator-side protocol counters, summed over shards.
    pub coordinator_stats: CoordinatorStats,
    /// The same counters per shard, in shard order. Replicability tests
    /// compare these across same-seed runs — the aggregated sum could
    /// mask two runs that distributed the work differently.
    pub shard_stats: Vec<CoordinatorStats>,
    /// Cross-shard work steals (0 on single-shard runs).
    pub steals: u64,
    /// Lock-acquiring router contacts actually served
    /// ([`ShardRouter::contacts`]).
    pub router_contacts: u64,
    /// Per-worker outcomes.
    pub workers: Vec<WorkerReport>,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Total time spent doing the paper's farmer's work: serving
    /// requests — the time the shard locks were held, summed over
    /// shards (`gbnb_shard_lock_hold_ns`) — plus the supervisor's
    /// housekeeping (expiry and compaction).
    pub farmer_busy: Duration,
    /// The paper's farmer checkpoints: log compactions the run's
    /// housekeeping committed, periodic and terminal (0 without a
    /// [`DurabilityPolicy`]).
    pub farmer_checkpoints: u64,
    /// Compactions that **failed** (the store also counts them on
    /// `gbnb_wal_compaction_failures_total`). Non-zero means the
    /// committed snapshot may be stale and recovery replays a longer
    /// log tail — a run on a dead store must not look like a healthy
    /// one.
    pub checkpoint_failures: u64,
    /// Length of the root interval (for redundancy accounting).
    pub root_length: UBig,
    /// The recorded run trace of a replicable run — encode it, diff it
    /// against another run's, or replay it through
    /// [`crate::TraceReplayer`].
    pub trace: Option<Arc<RunTrace>>,
}

/// What recovery replayed when [`Farmer::open`] found a committed
/// campaign on its backend.
#[derive(Clone, Debug)]
pub struct RecoveryStats {
    /// Complete log records replayed on top of the committed snapshot.
    pub replayed_records: u64,
    /// Operations inside those records.
    pub replayed_ops: u64,
    /// Torn final records repaired by truncation (a crash mid-append).
    pub torn_truncations: u64,
    /// Σ unexplored interval length at the recovery point — compare
    /// against the stopped campaign's [`RunReport::remaining`] to prove
    /// zero lost work.
    pub recovered_length: UBig,
}

impl RunReport {
    /// Total nodes explored by all workers.
    pub fn total_explored(&self) -> u64 {
        self.workers.iter().map(|w| w.stats.explored).sum()
    }

    /// Total states evaluated by the bounding operator across all
    /// workers — at fill time in pooled mode, so under steals this can
    /// exceed [`RunReport::total_bound_calls`] (bounds truncated away
    /// with the un-consumed pool tail were still computed).
    pub fn total_nodes_bounded(&self) -> u64 {
        self.workers.iter().map(|w| w.stats.nodes_bounded).sum()
    }

    /// Total bound results consumed by the elimination test (equals
    /// branched + pruned in both explorer modes).
    pub fn total_bound_calls(&self) -> u64 {
        self.workers.iter().map(|w| w.stats.bound_calls).sum()
    }

    /// Total `lower_bound_batch` invocations.
    pub fn total_bound_batches(&self) -> u64 {
        self.workers.iter().map(|w| w.stats.bound_batches).sum()
    }

    /// Bounding throughput: states bounded per second of worker busy
    /// time — the number the pool benchmarks gate on.
    pub fn nodes_bounded_per_sec(&self) -> f64 {
        let busy = self.worker_busy().as_secs_f64();
        if busy == 0.0 {
            return 0.0;
        }
        self.total_nodes_bounded() as f64 / busy
    }

    /// Total coordinator contacts made by all workers (bundles count
    /// once however many requests they carry).
    pub fn total_contacts(&self) -> u64 {
        self.workers.iter().map(|w| w.contacts).sum()
    }

    /// Total contacts re-sent after transient transport failures.
    pub fn total_transport_retries(&self) -> u64 {
        self.workers.iter().map(|w| w.transport_retries).sum()
    }

    /// Every worker whose run was ended by a transport error, with the
    /// error that ended it. Empty on a healthy run — the e2e tests
    /// assert it, so a socket run that silently lost workers (and leant
    /// on expiry to stay exact) cannot masquerade as a clean one.
    pub fn transport_failures(&self) -> Vec<(usize, &TransportError)> {
        self.workers
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.transport_failure.as_ref().map(|e| (i, e)))
            .collect()
    }

    /// Total worker busy time.
    pub fn worker_busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }

    /// Mean worker CPU exploitation: busy time over wall time (the
    /// paper reports 97 %).
    pub fn worker_exploitation(&self) -> f64 {
        let wall: f64 = self.workers.iter().map(|w| w.wall.as_secs_f64()).sum();
        if wall == 0.0 {
            return 0.0;
        }
        self.worker_busy().as_secs_f64() / wall
    }

    /// Farmer CPU exploitation: [`RunReport::farmer_busy`] over run wall
    /// time (the paper reports 1.7 %). With several shards the locks are
    /// held in parallel, so this is the load on the coordinator as a
    /// whole, not on any one core.
    pub fn farmer_exploitation(&self) -> f64 {
        if self.wall.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.farmer_busy.as_secs_f64() / self.wall.as_secs_f64()
    }

    /// Fraction of consumed interval length that was covered more than
    /// once (duplication, shrink lag, crash re-exploration). Measured in
    /// leaf numbers, so a single pruned-subtree jump across a stolen
    /// boundary inflates it — see [`RunReport::node_redundancy`] for the
    /// node-visit measure the paper's Table 2 reports (0.39 %).
    pub fn redundancy(&self) -> f64 {
        let mut consumed = UBig::zero();
        for w in &self.workers {
            consumed += &w.consumed;
        }
        if consumed.is_zero() {
            return 0.0;
        }
        let redundant = consumed.saturating_sub(&self.root_length);
        redundant.ratio(&consumed)
    }

    /// Estimated fraction of node visits that were redundant — slices
    /// whose result was discarded (unit already completed elsewhere, or
    /// crash-lost work that someone re-explored). Comparable to the
    /// paper's "Redundant nodes: 0.39 %".
    pub fn node_redundancy(&self) -> f64 {
        let total = self.total_explored();
        if total == 0 {
            return 0.0;
        }
        let redundant: u64 = self.workers.iter().map(|w| w.redundant_nodes).sum();
        redundant as f64 / total as f64
    }
}

/// Worker-side series, shared by every worker thread of a run (the
/// cells are atomic, so one registration serves the whole fleet). The
/// counters mirror the [`WorkerReport`] sums exactly — the metrics
/// exactness tests pin `gbnb_worker_contacts_total` to
/// [`RunReport::total_contacts`] and `gbnb_worker_bound_calls_total` to
/// [`RunReport::total_bound_calls`].
struct WorkerMetrics {
    /// `gbnb_worker_contacts_total` — contacts (bundles) sent.
    contacts: Counter,
    /// `gbnb_worker_units_total` — work units processed.
    units: Counter,
    /// `gbnb_worker_bound_calls_total` — bound results consumed by the
    /// elimination test.
    bound_calls: Counter,
    /// `gbnb_worker_slice_ns` — exploration slice latency.
    slice_ns: Histogram,
    /// `gbnb_worker_idle_wait_ns` — time a worker spent blocked in one
    /// contact (transport round-trip, retry backoffs, a submit's
    /// encode-and-enqueue) or waiting out an in-flight ack.
    idle_wait_ns: Histogram,
    /// `gbnb_worker_busy_ns_total` — total exploring time.
    busy_ns: Counter,
    /// `gbnb_worker_idle_ns_total` — total contact-blocked time.
    idle_ns: Counter,
}

impl WorkerMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        WorkerMetrics {
            contacts: registry.counter("gbnb_worker_contacts_total", &[]),
            units: registry.counter("gbnb_worker_units_total", &[]),
            bound_calls: registry.counter("gbnb_worker_bound_calls_total", &[]),
            slice_ns: registry.histogram("gbnb_worker_slice_ns", &[], &latency_buckets_ns()),
            idle_wait_ns: registry.histogram(
                "gbnb_worker_idle_wait_ns",
                &[],
                &latency_buckets_ns(),
            ),
            busy_ns: registry.counter("gbnb_worker_busy_ns_total", &[]),
            idle_ns: registry.counter("gbnb_worker_idle_ns_total", &[]),
        }
    }
}

/// Runs the grid-enabled B&B on `problem`.
///
/// Blocks until the whole root interval is explored or eliminated, then
/// returns the proof-of-optimality report.
pub fn run<P: Problem>(problem: &P, config: &RuntimeConfig) -> RunReport {
    config.assert_valid();
    let farmer = Farmer::open(
        problem.shape().root_range(),
        config.shards,
        &config.coordinator,
        config.durability.as_ref(),
        config.metrics.as_ref(),
    )
    .expect("failed to open the durable operation log");
    drive(problem, farmer, config)
}

/// Runs with a pre-built [`ShardRouter`] — fresh, or restored from
/// snapshot text through the v1 reader
/// ([`crate::checkpoint::decode_intervals`]) — through
/// [`Farmer::adopt`]. The router's own shard count applies;
/// `config.shards` is only read by [`run`].
///
/// The run is driven on worker threads plus a supervisor, or — under
/// [`ReplicablePolicy::deterministic`] — by the single-threaded
/// logical-clock scheduler; the workers are the same state machine
/// either way (see the module docs).
pub fn run_with_router<P: Problem>(
    problem: &P,
    router: ShardRouter,
    config: &RuntimeConfig,
) -> RunReport {
    config.assert_valid();
    let farmer = Farmer::adopt(router, config.durability.as_ref(), config.metrics.as_ref())
        .expect("failed to open the durable operation log");
    drive(problem, farmer, config)
}

/// Attaches `config.workers` in-process workers to `farmer` — on
/// threads, or on the logical clock — and returns the farmer's report
/// with theirs.
fn drive<P: Problem>(problem: &P, mut farmer: Farmer, config: &RuntimeConfig) -> RunReport {
    if let Some(policy) = &config.replicable {
        farmer.router = attach_trace(farmer.router, policy, config.workers);
    }
    let worker_metrics = WorkerMetrics::register(farmer.router.metrics());
    let fresh_ids = AtomicU64::new(config.workers as u64);
    let deterministic = config.replicable.filter(|policy| policy.deterministic);
    let cx = WorkerContext {
        config,
        metrics: &worker_metrics,
        fresh_ids: &fresh_ids,
        wall_clock: deterministic.is_none(),
    };
    let (workers, report) = match deterministic {
        Some(policy) => farmer
            .host_unsupervised(|router| drive_on_logical_clock(problem, router, &cx, policy.seed)),
        None => farmer.host(&AtomicBool::new(false), |router, started| {
            spawn_workers(problem, &cx, 0, |_| RouterTransport::new(router, started))
        }),
    };
    RunReport { workers, ..report }
}

/// The replicable run's trace, attached after the farmer has put the
/// router's series and log in place.
fn attach_trace(router: ShardRouter, policy: &ReplicablePolicy, workers: usize) -> ShardRouter {
    let meta = TraceMeta {
        seed: policy.seed,
        workers: workers as u64,
        shards: router.shard_count() as u64,
    };
    let trace = Arc::new(RunTrace::new(meta, router.metrics()));
    router.with_trace(trace)
}

/// The paper's farmer: the one owner of a campaign's router, its durable
/// log and its report. It opens the campaign ([`Farmer::open`],
/// [`Farmer::adopt`]), supervises it while an attachment — worker
/// threads, the logical clock, a socket acceptor — brings the workers
/// ([`Farmer::host`]), and concludes it: the terminal compaction and the
/// [`RunReport`], both for a terminated campaign only.
pub struct Farmer {
    router: ShardRouter,
    compact_every: Option<Duration>,
    recovery: Option<RecoveryStats>,
    /// Origin of every `now_ns` the router is served with, and of
    /// [`RunReport::wall`].
    started: Instant,
    /// Shard-lock hold already on the router's counter when the campaign
    /// opened.
    lock_hold_before: u64,
}

impl Farmer {
    /// Opens a campaign over `root` — the one recovery rule. A durable
    /// backend that holds a committed campaign is recovered (snapshot
    /// plus log tails, the exact pre-crash interval sets, holders
    /// cleared) and the log's shard count overrides `shards`: restoring
    /// into another count would break per-shard segment replay on the
    /// next recovery. Mid-log corruption is an error; only a torn final
    /// record is repaired silently. An empty backend, or none, starts
    /// `root` split over `shards` fresh, with a new log epoch when
    /// durable. `metrics` re-homes every series of the campaign (`None`:
    /// the router's own registry).
    ///
    /// The caller has validated `shards` and `coordinator`.
    pub fn open(
        root: Interval,
        shards: usize,
        coordinator: &CoordinatorConfig,
        durability: Option<&DurabilityPolicy>,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<Farmer, WalError> {
        let (wal, state) = match durability {
            Some(policy) if WalStore::exists(policy.backend.as_ref())? => {
                WalStore::recover(Arc::clone(&policy.backend))?
            }
            _ => {
                let router = ShardRouter::new(root, shards, coordinator.clone());
                return Farmer::adopt(router.expect("a validated config"), durability, metrics);
            }
        };
        let recovery = RecoveryStats {
            replayed_records: state.replayed_records,
            replayed_ops: state.replayed_ops,
            torn_truncations: state.torn_truncations,
            recovered_length: state.total_length(),
        };
        let router = ShardRouter::restore(
            root,
            state.shard_intervals,
            state.solution,
            coordinator.clone(),
        )
        .expect("a validated config");
        let router = with_registry(router, metrics).with_wal(Arc::new(wal));
        Ok(Farmer {
            recovery: Some(recovery),
            ..Farmer::new(router, durability)
        })
    }

    /// Takes over a router the caller built. With a durability policy it
    /// opens a fresh log epoch on top of whatever the backend holds,
    /// snapshotting the router's current state.
    pub fn adopt(
        router: ShardRouter,
        durability: Option<&DurabilityPolicy>,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<Farmer, WalError> {
        let router = with_registry(router, metrics);
        let router = match durability {
            Some(policy) => router.with_fresh_wal(Arc::clone(&policy.backend))?,
            None => router,
        };
        Ok(Farmer::new(router, durability))
    }

    fn new(router: ShardRouter, durability: Option<&DurabilityPolicy>) -> Farmer {
        Farmer {
            lock_hold_before: router.lock_hold_ns(),
            router,
            compact_every: durability.map(|policy| policy.compact_every),
            recovery: None,
            started: Instant::now(),
        }
    }

    /// Runs `attach` — given the router and the origin of its `now_ns` —
    /// on the calling thread, beside a supervisor thread that expires
    /// stale holders and compacts the log until the router terminates or
    /// `stop` is set. When `attach` returns or panics, `stop` is set and
    /// the supervisor woken and joined; a panic is then re-raised with
    /// its own payload, and otherwise the campaign concluded.
    pub fn host<R>(
        self,
        stop: &AtomicBool,
        attach: impl FnOnce(&ShardRouter, Instant) -> R,
    ) -> (R, RunReport) {
        let (attached, housekeeping) = crossbeam::thread::scope(|scope| {
            let supervisor =
                scope.spawn(|_| supervise(&self.router, self.compact_every, self.started, stop));
            let attached = catch_unwind(AssertUnwindSafe(|| attach(&self.router, self.started)));
            stop.store(true, Ordering::Release);
            supervisor.thread().unpark();
            let housekeeping = supervisor.join().expect("supervisor thread panicked");
            (attached, housekeeping)
        })
        .expect("scope panicked");
        let attached = attached.unwrap_or_else(|panic| resume_unwind(panic));
        (attached, self.conclude(housekeeping))
    }

    /// [`Farmer::host`] without a supervisor, for the logical-clock
    /// driver: no wall-clock expiry, no periodic compaction.
    fn host_unsupervised<R>(self, attach: impl FnOnce(&ShardRouter) -> R) -> (R, RunReport) {
        let attached = attach(&self.router);
        (attached, self.conclude(Housekeeping::default()))
    }

    /// The terminal compaction and the report, both proving something
    /// only if the campaign terminated: its backend then holds the proof
    /// and no segments, while an unfinished campaign's log tail stays the
    /// crash image the next one replays.
    fn conclude(self, mut housekeeping: Housekeeping) -> RunReport {
        let router = &self.router;
        let terminated = router.is_terminated();
        if terminated {
            let t0 = Instant::now();
            housekeeping.compact(router);
            housekeeping.busy += t0.elapsed();
        }
        // With no farmer thread, the time the shard locks were held is
        // where the paper's "farmer" time went.
        let served = Duration::from_nanos(router.lock_hold_ns() - self.lock_hold_before);
        RunReport {
            proven_optimum: router.cutoff().filter(|_| terminated),
            terminated,
            remaining: router.size(),
            recovery: self.recovery,
            solution: router.solution(),
            coordinator_stats: router.stats(),
            shard_stats: router.shard_stats(),
            steals: router.steals(),
            router_contacts: router.contacts(),
            workers: Vec::new(),
            wall: self.started.elapsed(),
            farmer_busy: housekeeping.busy + served,
            farmer_checkpoints: housekeeping.compactions,
            checkpoint_failures: housekeeping.compaction_failures,
            root_length: router.root().length(),
            trace: router.trace().cloned(),
        }
    }
}

/// Re-homes the router's series on an injected registry, before the log
/// registers its own there.
fn with_registry(router: ShardRouter, metrics: Option<&MetricsRegistry>) -> ShardRouter {
    match metrics {
        Some(registry) => router.with_metrics(registry),
        None => router,
    }
}

/// Steps `cx.config.workers` workers on threads of their own, each over
/// the transport `connect` hands it, until every one is done. A
/// worker's panic is re-raised with its own payload once the others
/// have finished.
fn spawn_workers<P, T, F>(
    problem: &P,
    cx: &WorkerContext<'_>,
    id_base: u64,
    connect: F,
) -> Vec<WorkerReport>
where
    P: Problem,
    T: Transport,
    F: Fn(usize) -> T + Sync,
{
    crossbeam::thread::scope(|scope| {
        let connect = &connect;
        let handles: Vec<_> = (0..cx.config.workers)
            .map(|index| {
                scope.spawn(move |_| {
                    Worker::new(problem, index, id_base, cx.config).run(&connect(index), cx)
                })
            })
            .collect();
        let joined: Vec<_> = handles.into_iter().map(|handle| handle.join()).collect();
        joined
            .into_iter()
            .map(|report| report.unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    })
    .expect("scope panicked")
}

/// SplitMix64 step: the deterministic driver's only randomness source,
/// fully determined by the policy seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic replicable driver: the same [`Worker`]s the
/// threads run, advanced one [`Worker::step`] at a time by a
/// single-threaded scheduler. Only two inputs differ from the threaded
/// driver:
///
/// * *transport and clock* — contacts go through a
///   [`LogicalClockTransport`], whose `now_ns` is a tick counter, so
///   holder heartbeats and expiry decisions are functions of contact
///   order, not wall time, and the contact rule (see `Worker`) makes
///   every slice's periodic update due;
/// * *scheduler* — workers are visited in a seed-shuffled round-robin
///   instead of by the OS. When a whole round yields only
///   [`Step::Blocked`] (the crashed-holder endgame) the clock
///   fast-forwards to the next expiry instant — per-contact ticks make
///   every heartbeat unique, so exactly the stalest holder expires.
///
/// Two calls with the same problem, config and seed produce
/// byte-identical traces and identical per-shard counters — the
/// property the replicable test suite pins, across commits too.
fn drive_on_logical_clock<P: Problem>(
    problem: &P,
    router: &ShardRouter,
    cx: &WorkerContext<'_>,
    seed: u64,
) -> Vec<WorkerReport> {
    let transport = LogicalClockTransport::new(router);
    let mut workers: Vec<Worker<'_, P>> = (0..cx.config.workers)
        .map(|index| Worker::new(problem, index, 0, cx.config))
        .collect();

    // Seeded Fisher–Yates: the one fixed visiting order of the run.
    let mut order: Vec<usize> = (0..workers.len()).collect();
    let mut rng = seed;
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }

    while !order.is_empty() {
        let mut progressed = false;
        order.retain(|&w| match workers[w].step(&transport, cx) {
            Step::Advanced => {
                progressed = true;
                true
            }
            Step::Blocked => true,
            Step::Done => {
                progressed = true;
                false
            }
        });
        if !progressed {
            // Every live worker is parked on Retry: the remaining
            // intervals belong to crashed holders.
            transport.fast_forward();
        }
    }
    workers.into_iter().map(Worker::finish).collect()
}

/// What the housekeeping did besides waiting: the tallies behind
/// [`RunReport::farmer_busy`], [`RunReport::farmer_checkpoints`] and
/// [`RunReport::checkpoint_failures`].
#[derive(Debug, Default)]
struct Housekeeping {
    /// Time spent on expiry and compaction.
    busy: Duration,
    /// Compactions committed.
    compactions: u64,
    /// Compactions that failed; each leaves the previous manifest
    /// committed and is also counted on
    /// `gbnb_wal_compaction_failures_total` by the store.
    compaction_failures: u64,
}

impl Housekeeping {
    fn compact(&mut self, router: &ShardRouter) {
        match router.compact_wal() {
            Ok(true) => self.compactions += 1,
            Ok(false) => {}
            Err(_) => self.compaction_failures += 1,
        }
    }
}

/// Longest the supervisor sleeps without re-reading
/// [`ShardRouter::next_expiry_at`]: a holder that appears while it
/// sleeps has a deadline it has not seen yet.
const EXPIRY_REREAD: Duration = Duration::from_millis(50);

/// Shortest supervisor sleep, whatever the compaction period says.
const SHORTEST_WAIT: Duration = Duration::from_millis(1);

/// The farmer's housekeeping loop, whatever attaches the workers: expire
/// stale holders (the recovery path for crashed workers) and compact the
/// log every `compact_every` (`None`: never). It parks until the
/// earliest of those is due and returns once the router has terminated
/// or `stop` is set — [`Farmer::host`] sets it, then unparks this
/// thread, when the attachment is done. `started` is the origin of the
/// `now_ns` the router was served with.
fn supervise(
    router: &ShardRouter,
    compact_every: Option<Duration>,
    started: Instant,
    stop: &AtomicBool,
) -> Housekeeping {
    let mut housekeeping = Housekeeping::default();
    let mut last_compaction = Instant::now();
    // A zero `compact_every` must not turn the wait into a spin.
    let period = compact_every
        .map_or(EXPIRY_REREAD, |every| every.min(EXPIRY_REREAD))
        .max(SHORTEST_WAIT);
    loop {
        // Park until the earliest holder becomes expirable or the next
        // compaction, whichever is sooner.
        let now_ns = started.elapsed().as_nanos() as u64;
        let wait = router.next_expiry_at().map_or(period, |at| {
            Duration::from_nanos(at.saturating_sub(now_ns)).clamp(SHORTEST_WAIT, period)
        });
        std::thread::park_timeout(wait);
        if stop.load(Ordering::Acquire) || router.is_terminated() {
            return housekeeping;
        }
        let t0 = Instant::now();
        router.expire_stale_holders(started.elapsed().as_nanos() as u64);
        if compact_every.is_some_and(|every| last_compaction.elapsed() >= every) {
            housekeeping.compact(router);
            last_compaction = Instant::now();
        }
        housekeeping.busy += t0.elapsed();
    }
}

/// Client-side half of a run: spawns `config.workers` worker threads,
/// each speaking the protocol over its own [`Transport`] from
/// `connect`, and returns their reports when every worker is done.
///
/// Unlike [`run`], no coordinator state lives in this process — the
/// coordinator is wherever the transports point (typically a
/// `gridbnb-net` socket server, possibly on another machine), and it
/// keeps running after these workers leave. Worker ids are offset by
/// `id_base` so several client processes can join the same coordinator
/// without colliding. Crash plans and the contact rule (see `Worker`)
/// work exactly as in the in-process runtime; the rule's silence cap
/// reads `config.coordinator.holder_timeout_ns`, so give it the
/// server's timeout.
pub fn run_workers<P, T, F>(
    problem: &P,
    config: &RuntimeConfig,
    id_base: u64,
    connect: F,
) -> Vec<WorkerReport>
where
    P: Problem,
    T: Transport,
    F: Fn(usize) -> T + Sync,
{
    config.assert_valid();
    let registry = config.metrics.clone().unwrap_or_default();
    let cx = WorkerContext {
        config,
        metrics: &WorkerMetrics::register(&registry),
        fresh_ids: &AtomicU64::new(id_base + config.workers as u64),
        wall_clock: true,
    };
    spawn_workers(problem, &cx, id_base, connect)
}

/// Sends one bundle through the transport, re-sending after a backoff
/// on transient failures ([`RETRY_ATTEMPTS`]; retries are tallied into
/// `report`). Checks the one-response-per-request contract on success —
/// a mismatch is a [`ProtocolError::ResponseCount`], never a panic.
fn send_with_retry<T: Transport + ?Sized>(
    transport: &T,
    requests: Vec<Request>,
    report: &mut WorkerReport,
) -> Result<Vec<Response>, TransportError> {
    let sent = requests.len();
    let mut backoff = RETRY_BASE_BACKOFF;
    let mut attempt = 1u32;
    loop {
        match transport.contact(requests.clone()) {
            Ok(responses) => return check_count(sent, responses),
            Err(e) if e.is_transient() && attempt < RETRY_ATTEMPTS => {
                report.transport_retries += 1;
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The one-response-per-request contract: `responses` must answer a
/// bundle of `sent` requests.
fn check_count(sent: usize, responses: Vec<Response>) -> Result<Vec<Response>, TransportError> {
    if responses.len() == sent {
        Ok(responses)
    } else {
        Err(ProtocolError::ResponseCount {
            sent,
            got: responses.len(),
        }
        .into())
    }
}

/// Records the time since `since` as time a worker spent blocked on a
/// contact while holding work: the whole round trip, retry backoffs,
/// a submit's encode-and-enqueue, or waiting out an in-flight ack.
/// Returns that time.
fn record_blocked(cx: &WorkerContext<'_>, since: Instant) -> Duration {
    let waited = since.elapsed();
    cx.metrics.idle_wait_ns.observe(waited.as_nanos() as u64);
    cx.metrics.idle_ns.add(waited.as_nanos() as u64);
    waited
}

/// The contact rule's price of a contact (see [`Worker`]): exploration
/// time owed per unit of the last contact's cost before the next
/// periodic update is due.
const EXPLORE_PER_CONTACT_COST: u32 = 32;

/// The contact rule's silence cap (see [`Worker`]): a holder contacts
/// at least once per this fraction of the holder timeout.
const SILENCE_DIVISOR: u64 = 4;

/// What every worker of a run shares, whichever driver steps it.
struct WorkerContext<'a> {
    config: &'a RuntimeConfig,
    metrics: &'a WorkerMetrics,
    /// Next identity for a crashed worker that rejoins.
    fresh_ids: &'a AtomicU64,
    /// Whether wall time means anything to the driver. Only then does
    /// the contact rule (see [`Worker`]) weigh measured contact costs;
    /// on the logical clock every slice's periodic update is due, so
    /// same-seed runs stay byte-identical.
    wall_clock: bool,
}

/// What one [`Worker::step`] did.
enum Step {
    /// Explored a slice or completed a contact.
    Advanced,
    /// The work request came back [`Response::Retry`]: the endgame
    /// intervals are all in their holders' hands. Ask again later.
    Blocked,
    /// The worker's run is over: a `Terminate` reply, a scripted crash
    /// without rejoin, or a transport failure.
    Done,
}

/// The worker state machine — the only one. A worker explores slices
/// and contacts the coordinator through whatever [`Transport`] its
/// driver hands to [`Worker::step`]: a direct call into its home shard
/// of a [`ShardRouter`], a socket round-trip to a remote server, or
/// the deterministic driver's logical-clock transport. Every contact
/// is a request *bundle* (usually of one): an improvement ships as one
/// combined [`Request::UpdateAndReport`], and a spent unit's unreported
/// solution rides the `RequestWork` bundle. Both go out at once.
///
/// **The contact rule.** Only the periodic `Update` waits for a due
/// rule, the same for every transport. After a slice that sent nothing
/// else, it is due when no update is in flight and either
///
/// * the worker has explored for at least [`EXPLORE_PER_CONTACT_COST`]
///   times the cost of its last contact — so contacts take at most about
///   a 33rd of its time — or
/// * its silence since that contact has reached
///   [`CoordinatorConfig::holder_timeout_ns`] divided by
///   [`SILENCE_DIVISOR`], so a slow transport never lets a live holder
///   expire.
///
/// A contact's cost is the wall time the worker spent inside it, the
/// time it also records as blocked: the whole round trip (retries
/// included) of a synchronous contact, or the encode-and-enqueue of a
/// submitted one. Every contact resets the measurement — work
/// requests, checkpoints and periodic updates alike. On the logical
/// clock no cost is measured and every slice's update is due.
///
/// Transient transport failures are retried with backoff
/// ([`RETRY_ATTEMPTS`]); a permanent failure — or exhausted retries — ends
/// the run with the error recorded in
/// [`WorkerReport::transport_failure`] instead of panicking, so one
/// flaky socket degrades a run (expiry redistributes the worker's
/// interval) rather than aborting it.
///
/// The periodic `Update` goes out through [`Transport::submit`]. A
/// transport with a real round trip (the multiplexed socket) hands back
/// a pending reply, and the worker keeps exploring: the ack is folded in
/// at the first slice boundary after it arrives, and no second periodic
/// update is sent while one is in flight. A late ack costs at most
/// duplicated work, never lost work — intervals only shrink and the
/// cutoff only falls. The fresh-best `UpdateAndReport` and a spent
/// unit's work request wait for the ack first, so neither overtakes it.
/// The in-process transports answer at once, and for them the worker
/// behaves exactly as a synchronous one.
struct Worker<'p, P: Problem> {
    problem: &'p P,
    id: WorkerId,
    power: u64,
    joining: bool,
    crash: Option<CrashPlan>,
    /// A solution found on the last slice of a spent unit, awaiting the
    /// next work request's bundle.
    pending_solution: Option<Solution>,
    /// The in-flight unit: explorer plus its start position (for
    /// consumed-length accounting).
    unit: Option<(IntervalExplorer<'p, P>, UBig)>,
    /// The periodic update whose ack has not arrived yet, if any.
    inflight: Option<Box<dyn PendingContact>>,
    /// When the last contact ended, and what it cost.
    last_contact: Instant,
    last_contact_cost: Duration,
    /// Exploration time since the last contact.
    explored_since_contact: Duration,
    born: Instant,
    report: WorkerReport,
}

impl<'p, P: Problem> Worker<'p, P> {
    fn new(problem: &'p P, index: usize, id_base: u64, config: &RuntimeConfig) -> Self {
        let crash = config
            .chaos
            .as_ref()
            .and_then(|c| c.crashes.iter().find(|p| p.worker_index == index))
            .copied();
        Worker {
            problem,
            id: WorkerId(id_base + index as u64),
            power: config.worker_powers[index % config.worker_powers.len()],
            joining: true,
            crash,
            pending_solution: None,
            unit: None,
            inflight: None,
            last_contact: Instant::now(),
            last_contact_cost: Duration::ZERO,
            explored_since_contact: Duration::ZERO,
            born: Instant::now(),
            report: WorkerReport::default(),
        }
    }

    /// The threaded driver: step until done, backing off briefly while
    /// the endgame has nothing to hand out.
    fn run<T: Transport + ?Sized>(mut self, transport: &T, cx: &WorkerContext<'_>) -> WorkerReport {
        loop {
            match self.step(transport, cx) {
                Step::Advanced => {}
                Step::Blocked => std::thread::sleep(Duration::from_micros(200)),
                Step::Done => break,
            }
        }
        self.finish()
    }

    fn finish(mut self) -> WorkerReport {
        self.report.wall = self.born.elapsed();
        self.report
    }

    /// One scheduler visit: a work request when the worker holds no
    /// unit, otherwise one exploration slice and the contact it calls
    /// for.
    fn step<T: Transport + ?Sized>(&mut self, transport: &T, cx: &WorkerContext<'_>) -> Step {
        match self.unit.take() {
            None => self.request_work(transport, cx),
            Some((explorer, unit_start)) => self.explore(explorer, unit_start, transport, cx),
        }
    }

    /// One contact: counts it, sends the bundle (with retries) and
    /// returns the reply to its last request.
    fn contact<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        bundle: Vec<Request>,
        cx: &WorkerContext<'_>,
    ) -> Result<Response, TransportError> {
        let t0 = Instant::now();
        let result = send_with_retry(transport, bundle, &mut self.report);
        self.contacted(t0, cx);
        Ok(result?.pop().expect("bundle was non-empty"))
    }

    /// Closes a contact that began at `t0`, whether or not its reply is
    /// awaited: tallies it, records the time inside it as blocked, and
    /// makes that time the cost the contact rule weighs next.
    fn contacted(&mut self, t0: Instant, cx: &WorkerContext<'_>) {
        self.report.contacts += 1;
        cx.metrics.contacts.inc();
        self.last_contact_cost = record_blocked(cx, t0);
        self.last_contact = Instant::now();
        self.explored_since_contact = Duration::ZERO;
    }

    /// The contact rule (see [`Worker`]): whether the periodic `Update`
    /// is due after this slice.
    fn update_due(&self, cx: &WorkerContext<'_>) -> bool {
        let silence_cap = cx.config.coordinator.holder_timeout_ns / SILENCE_DIVISOR;
        self.inflight.is_none()
            && (!cx.wall_clock
                || self.explored_since_contact >= self.last_contact_cost * EXPLORE_PER_CONTACT_COST
                || self.last_contact.elapsed().as_nanos() as u64 >= silence_cap)
    }

    /// Termination-sensitive flush: the work request always goes out
    /// now; an unreported solution shares the contact.
    fn request_work<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        cx: &WorkerContext<'_>,
    ) -> Step {
        debug_assert!(self.inflight.is_none(), "a work request overtook an update");
        let (worker, power) = (self.id, self.power);
        let mut bundle = Vec::with_capacity(2);
        if let Some(solution) = self.pending_solution.take() {
            bundle.push(Request::ReportSolution { worker, solution });
        }
        bundle.push(if self.joining {
            Request::Join { worker, power }
        } else {
            Request::RequestWork { worker, power }
        });
        self.joining = false;
        match self.contact(transport, bundle, cx) {
            Ok(Response::Work { interval, cutoff }) => {
                self.report.units += 1;
                cx.metrics.units.inc();
                let explorer = IntervalExplorer::new(self.problem, &interval, cutoff);
                let unit_start = explorer.position().clone();
                self.unit = Some((explorer, unit_start));
                Step::Advanced
            }
            Ok(Response::Terminate) => Step::Done,
            // Endgame: the remaining intervals are in their holders'
            // hands.
            Ok(Response::Retry) => Step::Blocked,
            Ok(other) => {
                self.report.transport_failure = Some(
                    ProtocolError::UnexpectedResponse {
                        expected: "Work, Terminate or Retry",
                        got: format!("{other:?}"),
                    }
                    .into(),
                );
                Step::Done
            }
            Err(e) => {
                self.report.transport_failure = failure_of(e);
                Step::Done
            }
        }
    }

    /// One exploration slice, then — in this order — the ack of an
    /// in-flight update if it has arrived, the fresh-best report, the
    /// scripted crash, unit exhaustion, and the periodic checkpoint if
    /// the contact rule says it is due.
    fn explore<T: Transport + ?Sized>(
        &mut self,
        mut explorer: IntervalExplorer<'p, P>,
        unit_start: UBig,
        transport: &T,
        cx: &WorkerContext<'_>,
    ) -> Step {
        let t0 = Instant::now();
        explorer.run(cx.config.poll_nodes);
        let slice = t0.elapsed();
        self.report.busy += slice;
        cx.metrics.slice_ns.observe(slice.as_nanos() as u64);
        cx.metrics.busy_ns.add(slice.as_nanos() as u64);
        self.explored_since_contact += slice;
        let mut contacted_this_slice = false;

        if let Some(pending) = self.inflight.as_mut() {
            if let Some(result) = pending.try_take() {
                self.inflight = None;
                if !self.land_update(result, &mut explorer, transport, cx) {
                    self.retire(explorer, unit_start, cx);
                    return Step::Done;
                }
            }
        }

        // Solution sharing rule 2: report improvements immediately —
        // folded with this slice's checkpoint into one combined
        // contact. On a spent unit the update would be vacuous, so the
        // solution waits (a few microseconds) for the work request's
        // bundle instead. Either way an update still in flight is
        // settled first: neither the report nor the work request may
        // overtake it.
        let mut fresh = explorer.take_fresh_best();
        if (fresh.is_some() || explorer.is_exhausted())
            && !self.settle(&mut explorer, transport, cx)
        {
            self.retire(explorer, unit_start, cx);
            return Step::Done;
        }
        if fresh.is_some() && !explorer.is_exhausted() {
            let request = Request::UpdateAndReport {
                worker: self.id,
                interval: explorer.current_interval(),
                solution: fresh.take(),
            };
            if !self.checkpoint(request, &mut explorer, transport, cx) {
                self.retire(explorer, unit_start, cx);
                return Step::Done;
            }
            contacted_this_slice = true;
        }

        // Scripted crash: silently lose everything — including a
        // solution still waiting for the work-request bundle.
        if let Some(plan) = self.crash {
            if self.report.stats.explored + explorer.stats().explored >= plan.after_nodes {
                self.crash = None;
                self.report.crashes += 1;
                // An update in flight is lost with the host.
                self.inflight = None;
                self.retire(explorer, unit_start, cx);
                if !plan.rejoin {
                    return Step::Done;
                }
                self.id = WorkerId(cx.fresh_ids.fetch_add(1, Ordering::Relaxed));
                self.joining = true;
                return Step::Advanced;
            }
        }

        if explorer.is_exhausted() {
            self.pending_solution = fresh;
            self.retire(explorer, unit_start, cx);
            return Step::Advanced;
        }

        // Pull-model checkpoint: report the live interval, adopt the
        // intersection, refresh the cutoff (solution sharing rule 3).
        if !contacted_this_slice
            && self.update_due(cx)
            && !self.submit_update(&mut explorer, transport, cx)
        {
            self.retire(explorer, unit_start, cx);
            return Step::Done;
        }
        self.unit = Some((explorer, unit_start));
        Step::Advanced
    }

    /// Sends the periodic `Update` without waiting for its ack when the
    /// transport allows it; an ack that is already there (every
    /// in-process transport) is folded in on the spot. `false` ends the
    /// worker's run, as for [`Worker::checkpoint`].
    fn submit_update<T: Transport + ?Sized>(
        &mut self,
        explorer: &mut IntervalExplorer<'p, P>,
        transport: &T,
        cx: &WorkerContext<'_>,
    ) -> bool {
        let request = Request::Update {
            worker: self.id,
            interval: explorer.current_interval(),
        };
        let t0 = Instant::now();
        let submitted = transport.submit(vec![request]);
        self.contacted(t0, cx);
        match submitted {
            Submitted::Ready(result) => self.land_update(result, explorer, transport, cx),
            Submitted::Pending(pending) => {
                self.inflight = Some(pending);
                true
            }
        }
    }

    /// Blocks for the ack of the update in flight, if there is one, and
    /// folds it in. `false` ends the worker's run.
    fn settle<T: Transport + ?Sized>(
        &mut self,
        explorer: &mut IntervalExplorer<'p, P>,
        transport: &T,
        cx: &WorkerContext<'_>,
    ) -> bool {
        let Some(pending) = self.inflight.take() else {
            return true;
        };
        let t0 = Instant::now();
        let result = pending.wait();
        record_blocked(cx, t0);
        self.land_update(result, explorer, transport, cx)
    }

    /// Folds the reply to a submitted periodic `Update` into the
    /// explorer. A transient failure falls back to a synchronous
    /// checkpoint of the live interval, with the usual retries.
    fn land_update<T: Transport + ?Sized>(
        &mut self,
        result: Result<Vec<Response>, TransportError>,
        explorer: &mut IntervalExplorer<'p, P>,
        transport: &T,
        cx: &WorkerContext<'_>,
    ) -> bool {
        match result.and_then(|responses| check_count(1, responses)) {
            Ok(mut responses) => self.apply_ack(responses.pop().expect("one response"), explorer),
            Err(e) if e.is_transient() => {
                self.report.transport_retries += 1;
                let request = Request::Update {
                    worker: self.id,
                    interval: explorer.current_interval(),
                };
                self.checkpoint(request, explorer, transport, cx)
            }
            Err(e) => {
                self.report.transport_failure = failure_of(e);
                false
            }
        }
    }

    /// Sends an update-style request, waits for the ack and folds it
    /// into the explorer. `false` ends the worker's run — cleanly on a
    /// `Terminate` reply or a closed transport, with the failure
    /// recorded otherwise.
    fn checkpoint<T: Transport + ?Sized>(
        &mut self,
        request: Request,
        explorer: &mut IntervalExplorer<'p, P>,
        transport: &T,
        cx: &WorkerContext<'_>,
    ) -> bool {
        match self.contact(transport, vec![request], cx) {
            Ok(response) => self.apply_ack(response, explorer),
            Err(e) => {
                self.report.transport_failure = failure_of(e);
                false
            }
        }
    }

    /// The one ack handler: an `UpdateAck` adopts the intersected
    /// interval and observes the cutoff, a `Terminate` ends the run
    /// cleanly, anything else is a protocol failure. `false` ends the
    /// worker's run.
    fn apply_ack(&mut self, response: Response, explorer: &mut IntervalExplorer<'p, P>) -> bool {
        self.report.checkpoint_ops += 1;
        match response {
            Response::UpdateAck { interval, cutoff } => {
                explorer.intersect_with(&interval);
                if let Some(c) = cutoff {
                    explorer.observe_external_cutoff(c);
                }
                true
            }
            Response::Terminate => false,
            other => {
                self.report.transport_failure = Some(
                    ProtocolError::UnexpectedResponse {
                        expected: "UpdateAck or Terminate",
                        got: format!("{other:?}"),
                    }
                    .into(),
                );
                false
            }
        }
    }

    /// Folds a finished (or abandoned) unit into the report.
    fn retire(
        &mut self,
        explorer: IntervalExplorer<'p, P>,
        unit_start: UBig,
        cx: &WorkerContext<'_>,
    ) {
        self.report.consumed += &explorer.position().saturating_sub(&unit_start);
        cx.metrics.bound_calls.add(explorer.stats().bound_calls);
        self.report.stats.merge(explorer.stats());
    }
}

/// An orderly teardown — the server hung up after terminating, or the
/// client shut its connection down — is a clean end of the run, not a
/// fault worth surfacing in the report.
fn failure_of(e: TransportError) -> Option<TransportError> {
    match e {
        TransportError::Closed => None,
        other => Some(other),
    }
}
