//! Sharded coordination: `S` independent [`Coordinator`]s behind a thin
//! work-stealing router.
//!
//! The paper funnels every worker contact through one farmer, which its
//! own measurements identify as the scaling bottleneck (~2 M update
//! operations dominated farmer load). The indexed hot path made a single
//! coordinator O(log n) per contact; the [`ShardRouter`] multiplies that
//! throughput by partitioning the root interval range into `S` disjoint
//! slices, each owned by an independent [`Coordinator`] with its own
//! holder/priority/heartbeat indexes behind its own lock:
//!
//! ```text
//!            workers (hash of WorkerId picks the home shard)
//!      w0  w4  w8 ...        w1  w5 ...           w3  w7 ...
//!        \  |  /               \  |                 \  |
//!      ┌───────────┐       ┌───────────┐        ┌───────────┐
//!      │  shard 0  │ ←──── │  shard 1  │  ....  │  shard S-1│
//!      │ [A0, B0)  │ steal │ [A1, B1)  │        │ [A…, B…)  │
//!      └───────────┘       └───────────┘        └───────────┘
//!            router: Request/Response surface unchanged
//! ```
//!
//! * **Routing** — [`ShardRouter::route`] hashes the `WorkerId` to a
//!   home shard; all of a worker's contacts (join, update, solution
//!   report, leave) go there, so the per-worker holder state never
//!   crosses a lock.
//! * **One serving path** — every contact is a bundle served by
//!   [`ShardRouter::handle_bundle`] ([`ShardRouter::handle`] is a bundle
//!   of one): the router groups the requests by home shard and serves
//!   each group in one lock section, the same section that serves a
//!   steal retry. That section alone drains the journal, records trace
//!   handouts, keeps the termination count and records lock hold,
//!   live intervals and latency.
//! * **Work stealing** — when a shard's pool drains while other shards
//!   still hold work, the router steals from the shard whose donatable
//!   piece has the **lowest left endpoint** ([`Coordinator::steal_preview`],
//!   [`Coordinator::steal_ordered`]) and adopts it into the drained
//!   shard, where the ordinary selection + partitioning operators
//!   re-split it among that shard's workers. Both picks are pure
//!   functions of the interval sets, never of load history, so a
//!   replicable run replays them (after Archibald et al.). Intervals
//!   move between shards but are never copied across them, so the
//!   global `INTERVALS` stays duplicate-free.
//! * **Termination** — a shared atomic count of non-empty shards makes
//!   global termination (`INTERVALS` empty everywhere, §4.3) an O(1)
//!   query: `Terminate` is only surfaced to a worker once the count
//!   reaches zero and a steal attempt found nothing to take.
//! * **Solution sharing** — an improving [`Request::ReportSolution`] is
//!   merged into every other shard ([`Coordinator::merge_solution`]),
//!   so the cutoffs each shard hands out stay globally tight.
//!
//! All methods take `&self` (each shard is a `Mutex<Coordinator>`), so
//! one router can be driven concurrently by many worker threads — the
//! thread runtime does exactly that — or single-threadedly by the
//! discrete-event grid simulator. At `S = 1` the router is
//! response-identical to a bare [`Coordinator`] (pinned by a property
//! test).

use crate::storage::StorageBackend;
use crate::trace::RunTrace;
use crate::wal::{WalError, WalMetrics, WalOp, WalStore};
use crate::{
    ConfigError, Coordinator, CoordinatorConfig, CoordinatorStats, Request, Response, ShardId,
    WorkerId,
};
use gridbnb_coding::{Interval, UBig};
use gridbnb_engine::Solution;
use gridbnb_metrics::{latency_buckets_ns, Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// One unit of the packed non-empty count (high half of
/// [`ShardRouter::state`]); the low half counts steals in flight.
const NON_EMPTY_UNIT: u64 = 1 << 32;

/// The router's registered instrument handles, resolved once at
/// construction so the contact path records with plain atomics. The
/// contact and steal counters here **are** the router's bookkeeping —
/// [`ShardRouter::contacts`] and [`ShardRouter::steals`] read these
/// cells, so a metrics scrape and the run report can never disagree.
#[derive(Debug)]
struct RouterMetrics {
    registry: MetricsRegistry,
    /// `gbnb_router_contacts_total` — lock-acquiring contacts served.
    contacts: Counter,
    /// `gbnb_router_steals_total` — successful cross-shard steals.
    steals: Counter,
    /// `gbnb_shard_contacts_total{shard}` — the same contacts, by shard.
    shard_contacts: Vec<Counter>,
    /// `gbnb_shard_lock_hold_ns{shard}` — how long each service section
    /// held the shard lock.
    shard_lock_hold: Vec<Histogram>,
    /// `gbnb_shard_live_intervals{shard}` — interval count after the
    /// last service on that shard (sums to the live `INTERVALS` size).
    shard_live_intervals: Vec<Gauge>,
    /// `gbnb_coordinator_selection_ns` — lock hold of a section that
    /// served one `Join` / `RequestWork` (interval selection +
    /// partitioning).
    selection_ns: Histogram,
    /// `gbnb_coordinator_update_ns` — lock hold of a section that served
    /// one `Update` / `UpdateAndReport` (the eq. 14 intersection path).
    update_ns: Histogram,
    /// `gbnb_coordinator_batch_ns` — lock hold of a section that served
    /// more than one request.
    batch_ns: Histogram,
    /// `gbnb_coordinator_expiry_ns` — full expiry-sweep latency.
    expiry_ns: Histogram,
    /// `gbnb_coordinator_expired_holders_total`.
    expired_holders: Counter,
}

impl RouterMetrics {
    fn register(registry: &MetricsRegistry, shards: usize) -> Self {
        let mut shard_contacts = Vec::with_capacity(shards);
        let mut shard_lock_hold = Vec::with_capacity(shards);
        let mut shard_live_intervals = Vec::with_capacity(shards);
        for k in 0..shards {
            let label = k.to_string();
            let labels: &[(&str, &str)] = &[("shard", &label)];
            shard_contacts.push(registry.counter("gbnb_shard_contacts_total", labels));
            shard_lock_hold.push(registry.histogram(
                "gbnb_shard_lock_hold_ns",
                labels,
                &latency_buckets_ns(),
            ));
            shard_live_intervals.push(registry.gauge("gbnb_shard_live_intervals", labels));
        }
        RouterMetrics {
            registry: registry.clone(),
            contacts: registry.counter("gbnb_router_contacts_total", &[]),
            steals: registry.counter("gbnb_router_steals_total", &[]),
            shard_contacts,
            shard_lock_hold,
            shard_live_intervals,
            selection_ns: registry.histogram(
                "gbnb_coordinator_selection_ns",
                &[],
                &latency_buckets_ns(),
            ),
            update_ns: registry.histogram("gbnb_coordinator_update_ns", &[], &latency_buckets_ns()),
            batch_ns: registry.histogram("gbnb_coordinator_batch_ns", &[], &latency_buckets_ns()),
            expiry_ns: registry.histogram("gbnb_coordinator_expiry_ns", &[], &latency_buckets_ns()),
            expired_holders: registry.counter("gbnb_coordinator_expired_holders_total", &[]),
        }
    }

    /// Seeds the monotone counters from another instance (clone /
    /// registry-swap paths, where the cells are fresh but the router's
    /// history must read unchanged).
    fn seed_from(&self, other: &RouterMetrics) {
        self.contacts.add(other.contacts.get());
        self.steals.add(other.steals.get());
        for (mine, theirs) in self.shard_contacts.iter().zip(&other.shard_contacts) {
            mine.add(theirs.get());
        }
        self.expired_holders.add(other.expired_holders.get());
    }
}

/// `S` coordinators over disjoint slices of one root range, plus the
/// routing, stealing and termination logic that makes them answer the
/// single-coordinator [`Request`]/[`Response`] protocol surface.
#[derive(Debug)]
pub struct ShardRouter {
    root: Interval,
    shards: Vec<Mutex<Coordinator>>,
    /// Packed `(non-empty shards) << 32 | (steals in flight)` — the
    /// shared termination count. The two live in one atomic so a single
    /// load answers global termination (`state == 0`) consistently: a
    /// mid-flight steal holds an in-flight unit from before its victim
    /// is counted empty until after its destination is counted
    /// non-empty, so the whole word never transiently reads 0 while an
    /// interval is between shards. Each half is maintained under the
    /// owning shard's lock on every transition.
    state: AtomicU64,
    /// Registered instrument handles; the contact/steal counters double
    /// as the router's own bookkeeping (see [`RouterMetrics`]).
    metrics: RouterMetrics,
    /// Held for reading across each steal (concurrent steals are fine)
    /// and for writing by [`ShardRouter::snapshot`], `clone` and
    /// [`ShardRouter::check_invariants`]: while the write side is held,
    /// no interval can be in flight between shards, so walking the
    /// shards one lock at a time still yields a loss-free union.
    /// Ordering: the gate is always taken before any shard lock, never
    /// while holding one.
    steal_gate: RwLock<()>,
    /// Durable operation log, when attached via [`ShardRouter::with_wal`]:
    /// every service section drains its shard's journal into the log
    /// before releasing the shard lock, and
    /// [`ShardRouter::compact_wal`] periodically folds the log into a
    /// snapshot.
    wal: Option<Arc<WalStore>>,
    /// Run-trace recorder, when attached via
    /// [`ShardRouter::with_trace`]: every service section records its
    /// shard's drained deltas, handouts, steals and cutoff broadcasts
    /// inside the owning lock section, so the trace is a valid
    /// linearization of the run.
    trace: Option<Arc<RunTrace>>,
}

/// The initial per-shard partition of `root` into `shards` equal
/// contiguous slices (the last absorbs the remainder) — what
/// [`ShardRouter::new`] starts from, and what a
/// [`crate::trace::TraceReplayer`] must seed its shadow state with to
/// replay a fresh run's trace.
pub fn partition_root(root: &Interval, shards: usize) -> Vec<Vec<Interval>> {
    let len = root.length();
    (0..shards)
        .map(|k| {
            let lo = root
                .begin()
                .add(&len.mul_div_floor(k as u64, shards as u64));
            let hi = root
                .begin()
                .add(&len.mul_div_floor(k as u64 + 1, shards as u64));
            vec![Interval::new(lo, hi)]
        })
        .collect()
}

impl Clone for ShardRouter {
    fn clone(&self) -> Self {
        // Hold the steal gate so no interval is between shards while
        // the per-shard states are copied one lock at a time.
        let _gate = self.steal_gate.write().expect("poisoned steal gate");
        let shards: Vec<Mutex<Coordinator>> = self
            .shards
            .iter()
            .map(|m| {
                let mut coordinator = m.lock().expect("poisoned shard").clone();
                // The clone has no WAL attached (logs are not shareable);
                // leaving journaling on would queue deltas nobody drains.
                coordinator.disable_journal();
                Mutex::new(coordinator)
            })
            .collect();
        // Recompute the packed word from what was actually cloned: a
        // contact may empty a shard between its copy and a load of the
        // original's counter (the gate stops steals, not contacts), and
        // under the write gate no steal is in flight.
        let non_empty = shards
            .iter()
            .filter(|m| !m.lock().expect("poisoned shard").is_terminated())
            .count() as u64;
        // A clone gets a fresh registry (independent cells, like the
        // copied counters always were) seeded with the original's
        // monotone totals, so `contacts()`/`steals()` read unchanged.
        let metrics = RouterMetrics::register(&MetricsRegistry::new(), shards.len());
        metrics.seed_from(&self.metrics);
        ShardRouter {
            root: self.root.clone(),
            shards,
            state: AtomicU64::new(non_empty * NON_EMPTY_UNIT),
            metrics,
            steal_gate: RwLock::new(()),
            wal: None,
            // A trace is a run-scoped recording, not shareable state:
            // the clone starts untraced (journaling is already off).
            trace: None,
        }
    }
}

impl ShardRouter {
    /// A router over `shards` coordinators, the root range partitioned
    /// into equal contiguous slices (the last absorbs the remainder).
    /// Validates the coordinator config — invalid configs fail fast
    /// here instead of being silently clamped.
    pub fn new(
        root: Interval,
        shards: usize,
        config: CoordinatorConfig,
    ) -> Result<Self, ConfigError> {
        if shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        let slices = partition_root(&root, shards);
        Self::restore(root, slices, None, config)
    }

    /// Rebuilds a router from per-shard interval sets — a recovered log
    /// ([`WalStore::recover`]) or decoded snapshot text (see
    /// [`crate::checkpoint::decode_sharded_intervals`]): shard `k` owns
    /// `shard_intervals[k]`, all entries unassigned, every shard seeded
    /// with the saved `SOLUTION`. A single-shard snapshot restores as
    /// `S = 1`. Empty intervals are dropped; empty shards
    /// are legal (they start terminated and refill by stealing).
    pub fn restore(
        root: Interval,
        shard_intervals: Vec<Vec<Interval>>,
        solution: Option<Solution>,
        config: CoordinatorConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if shard_intervals.is_empty() {
            return Err(ConfigError::ZeroShards);
        }
        let shards: Vec<Mutex<Coordinator>> = shard_intervals
            .into_iter()
            .map(|intervals| {
                Mutex::new(Coordinator::restore(
                    root.clone(),
                    intervals,
                    solution.clone(),
                    config.clone(),
                ))
            })
            .collect();
        let non_empty = shards
            .iter()
            .filter(|m| !m.lock().expect("poisoned shard").is_terminated())
            .count() as u64;
        let metrics = RouterMetrics::register(&MetricsRegistry::new(), shards.len());
        Ok(ShardRouter {
            root,
            shards,
            state: AtomicU64::new(non_empty * NON_EMPTY_UNIT),
            metrics,
            steal_gate: RwLock::new(()),
            wal: None,
            trace: None,
        })
    }

    /// Re-registers this router's instruments on `registry`, so its
    /// `gbnb_router_*` / `gbnb_shard_*` / `gbnb_coordinator_*` families
    /// land in a caller-owned exposition (the runtime and the socket
    /// server both inject one shared registry this way). Monotone
    /// counters carry their current values over. Builder-style: call
    /// right after construction, before the router is shared.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        let metrics = RouterMetrics::register(registry, self.shards.len());
        metrics.seed_from(&self.metrics);
        self.metrics = metrics;
        self
    }

    /// The registry this router's instruments are registered on —
    /// the runtime and the socket server register their own families
    /// here, so one scrape covers the whole serving path.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics.registry
    }

    /// Attaches a durable operation log: turns on delta journaling in
    /// every shard and drains each shard's journal into `wal` before the
    /// owning lock is released, so the log is always in state order and
    /// a crash recovers to the exact pre-crash interval sets. The
    /// store's shard count must match the router's. Builder-style: call
    /// after [`ShardRouter::with_metrics`] (the `gbnb_wal_*` instruments
    /// are registered on the current registry), before the router is
    /// shared.
    pub fn with_wal(self, wal: Arc<WalStore>) -> Self {
        assert_eq!(
            wal.shards(),
            self.shards.len(),
            "wal store shard count must match the router"
        );
        wal.set_metrics(WalMetrics::register(self.metrics()));
        for m in &self.shards {
            m.lock().expect("poisoned shard").enable_journal();
        }
        ShardRouter {
            wal: Some(wal),
            ..self
        }
    }

    /// Opens a fresh log epoch on `backend` whose snapshot is the
    /// router's *current* state, and attaches it ([`WalStore::create`],
    /// then [`ShardRouter::with_wal`]). On a router rebuilt from
    /// [`WalStore::recover`] that state is the recovered one, so the new
    /// epoch resumes where the old log ended.
    pub fn with_fresh_wal(self, backend: Arc<dyn StorageBackend>) -> Result<Self, WalError> {
        let (intervals, solution) = self.snapshot();
        let wal = WalStore::create(backend, &intervals, solution.as_ref())?;
        Ok(self.with_wal(Arc::new(wal)))
    }

    /// The attached operation log, if any.
    pub fn wal(&self) -> Option<&Arc<WalStore>> {
        self.wal.as_ref()
    }

    /// Attaches a run-trace recorder: turns on delta journaling in
    /// every shard (like [`ShardRouter::with_wal`]) and records every
    /// drained delta, work handout, cross-shard steal and cutoff
    /// broadcast into `trace`, each inside the lock section that
    /// produced it — so the recorded order is a valid linearization of
    /// the run and a [`crate::trace::TraceReplayer`] can check state
    /// consistency event by event. Composes with a WAL (the journal is
    /// drained once and fed to both). Builder-style: call before the
    /// router is shared.
    pub fn with_trace(self, trace: Arc<RunTrace>) -> Self {
        for m in &self.shards {
            m.lock().expect("poisoned shard").enable_journal();
        }
        ShardRouter {
            trace: Some(trace),
            ..self
        }
    }

    /// The attached run-trace recorder, if any.
    pub fn trace(&self) -> Option<&Arc<RunTrace>> {
        self.trace.as_ref()
    }

    /// Per-shard protocol counters, in shard order — replicable runs
    /// pin these (node handouts, donations, adoptions per shard) as
    /// run-to-run identical.
    pub fn shard_stats(&self) -> Vec<CoordinatorStats> {
        self.shards
            .iter()
            .map(|m| *m.lock().expect("poisoned shard").stats())
            .collect()
    }

    /// Drains `coordinator`'s journaled deltas into the attached log.
    /// MUST run while the shard's lock is still held — that is the only
    /// thing serializing records into state order. Append failures are
    /// counted by the store (`gbnb_wal_append_failures_total`) and heal
    /// at the next compaction; the service path does not fail over them.
    fn journal_flush(&self, idx: usize, coordinator: &mut Coordinator) {
        if self.wal.is_none() && self.trace.is_none() {
            return;
        }
        let ops = coordinator.drain_journal();
        if ops.is_empty() {
            return;
        }
        if let Some(wal) = &self.wal {
            let _ = wal.append(idx, &ops);
        }
        if let Some(trace) = &self.trace {
            trace.record_ops(idx, &ops);
        }
    }

    /// Logs a cross-shard steal with loss-proof ordering. Runs while the
    /// *victim's* lock is still held, with the victim's `Remove`/`Replace`
    /// sitting undrained in its journal.
    ///
    /// The stolen interval's `Insert` is appended (and fsynced) to the
    /// **destination's** segment first; only then is the victim's journal
    /// flushed. A crash between the two appends therefore recovers the
    /// interval in *both* shards — re-explored once per copy, which is
    /// safe — and never in neither, which would silently shrink the
    /// search space and let a resumed campaign "prove" an optimum without
    /// ever exploring the lost region.
    ///
    /// Appending to the destination's segment without holding the
    /// destination's shard lock is safe: any op referencing the stolen
    /// interval can only be journaled after `adopt_prelogged` runs under
    /// the destination's lock, which happens-after this append, and the
    /// per-segment mutex in [`WalStore::append`] turns that into record
    /// order.
    ///
    /// If the destination's append fails (poisoning its log), the
    /// victim's delta is *dropped* and its log poisoned too: flushing the
    /// `Remove` with no durable `Insert` anywhere is exactly the loss
    /// above, and the victim's later appends must also be suppressed so
    /// its log never references post-steal state it does not record.
    /// Both logs heal at the next compaction; until then recovery
    /// replays the interval still in the victim.
    fn journal_steal(
        &self,
        victim: usize,
        dest: usize,
        interval: &Interval,
        coordinator: &mut Coordinator,
    ) {
        match &self.wal {
            Some(wal) => {
                if wal.append(dest, &[WalOp::Insert(interval.clone())]).is_ok() {
                    self.journal_flush(victim, coordinator);
                } else {
                    let ops = coordinator.drain_journal();
                    wal.poison(victim);
                    // The WAL dropped the victim's delta (it heals at
                    // compaction), but the in-memory state *did* change
                    // — the trace still records it, or replay would
                    // find the stolen interval in both shards.
                    if let Some(trace) = &self.trace {
                        trace.record_ops(victim, &ops);
                    }
                }
            }
            None => self.journal_flush(victim, coordinator),
        }
        if let Some(trace) = &self.trace {
            trace.record_steal(victim, dest, interval);
        }
    }

    /// Compacts the attached log: takes a consistent cut (steal gate
    /// write-held plus every shard lock, ascending — the only place the
    /// router holds more than one shard lock), switches the WAL to its
    /// next generation, clones the per-shard state, then releases all
    /// locks and persists the cut as a snapshot
    /// ([`WalStore::compact`]). Returns `Ok(false)` when no WAL is
    /// attached.
    pub fn compact_wal(&self) -> Result<bool, WalError> {
        let Some(wal) = &self.wal else {
            return Ok(false);
        };
        let (generation, shard_intervals, solution) = {
            let _gate = self.steal_gate.write().expect("poisoned steal gate");
            let mut guards: Vec<_> = self
                .shards
                .iter()
                .map(|m| m.lock().expect("poisoned shard"))
                .collect();
            let generation = wal.advance_generation();
            let mut best: Option<Solution> = None;
            let mut shard_intervals = Vec::with_capacity(guards.len());
            for coordinator in guards.iter_mut() {
                // Journals are drained under each service lock, so they
                // are empty here; discard defensively anyway — the cut
                // being snapshotted already reflects any queued delta.
                let _ = coordinator.drain_journal();
                shard_intervals.push(
                    coordinator
                        .entries()
                        .iter()
                        .map(|e| e.interval.clone())
                        .collect::<Vec<Interval>>(),
                );
                if let Some(s) = coordinator.solution() {
                    if best.as_ref().is_none_or(|b| s.cost < b.cost) {
                        best = Some(s.clone());
                    }
                }
            }
            (generation, shard_intervals, best)
        };
        wal.compact(generation, &shard_intervals, solution.as_ref())?;
        Ok(true)
    }

    /// Total nanoseconds the shard locks have been held in service
    /// sections — `gbnb_shard_lock_hold_ns` summed over shards. With no
    /// farmer thread, this is the coordinator's busy time.
    pub fn lock_hold_ns(&self) -> u64 {
        self.metrics.shard_lock_hold.iter().map(|h| h.sum()).sum()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The root range the shards jointly administer.
    pub fn root(&self) -> &Interval {
        &self.root
    }

    /// The home shard of `worker` (Fibonacci multiplicative hash): every
    /// contact of one worker lands on the same shard.
    pub fn route(&self, worker: WorkerId) -> ShardId {
        ShardId(self.home(worker) as u32)
    }

    /// [`ShardRouter::route`] as a shard index.
    fn home(&self, worker: WorkerId) -> usize {
        let mixed = worker.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) % self.shards.len() as u64) as usize
    }

    /// Serves one worker request at injected time `now_ns`: a bundle of
    /// one through [`ShardRouter::handle_bundle`].
    pub fn handle(&self, request: Request, now_ns: u64) -> Response {
        let mut responses = self.handle_bundle(vec![request], now_ns);
        responses.pop().expect("a response per request")
    }

    /// Serves a bundle of worker requests at injected time `now_ns` — the
    /// one way a contact is served, whether it carries one request or
    /// many workers' (the socket server folds a connection's burst into
    /// one bundle). Responses come back **in input order**.
    ///
    /// The router routes each request to its worker's home shard and
    /// serves each shard's group (stably: per-shard order is bundle
    /// order; groups in ascending shard order) under **one lock
    /// acquisition**, plus one re-acquisition per drained-shard steal.
    /// That section applies its requests with one
    /// [`Coordinator::apply_batch`] call, traced or not (a traced section
    /// records the group's deltas, then its handout). Each section
    /// counts one contact and records its lock hold; one that serves a
    /// single request records its class latency (`gbnb_coordinator_selection_ns` for
    /// `Join`/`RequestWork`, `gbnb_coordinator_update_ns` for
    /// `Update`/`UpdateAndReport`), one that serves more records
    /// `gbnb_coordinator_batch_ns`.
    ///
    /// A local `Terminate` (the home shard drained) is never surfaced
    /// while other shards hold work: the router steals into the home
    /// shard and retries the work request, so a worker only sees
    /// [`Response::Terminate`] at global termination. When nothing is
    /// stealable yet (every remaining interval is held and too short to
    /// split) the worker gets [`Response::Retry`] instead.
    ///
    /// Semantics are pinned by a property test: the outcome — responses
    /// *and* coordinator state — is identical to delivering the
    /// bundle's requests one at a time through [`ShardRouter::handle`]
    /// in grouped order. At `S = 1` grouping is the identity, so a
    /// bundle is exactly its sequential replay. Solutions the bundle
    /// carries ([`Request::ReportSolution`] /
    /// [`Request::UpdateAndReport`]) are merged into their home shard in
    /// place and the best is broadcast to the other shards after its
    /// group, so every later group hands out cutoffs at least as tight
    /// as sequential delivery would.
    pub fn handle_bundle(&self, requests: Vec<Request>, now_ns: u64) -> Vec<Response> {
        // An empty bundle — a caller flushing an empty buffer — is
        // free: no shard is contacted, no contact is counted, nothing
        // is allocated (pinned by a unit test).
        let Some(first) = requests.first() else {
            return Vec::new();
        };
        let home = self.home(first.worker());
        if requests.iter().all(|r| self.home(r.worker()) == home) {
            return self.serve_group(home, requests, now_ns);
        }
        let total = requests.len();
        let mut groups: Vec<(Vec<usize>, Vec<Request>)> =
            vec![(Vec::new(), Vec::new()); self.shards.len()];
        for (pos, request) in requests.into_iter().enumerate() {
            let (positions, group) = &mut groups[self.home(request.worker())];
            positions.push(pos);
            group.push(request);
        }
        let mut out: Vec<Option<Response>> = vec![None; total];
        for (home, (positions, group)) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            for (pos, response) in positions
                .into_iter()
                .zip(self.serve_group(home, group, now_ns))
            {
                out[pos] = Some(response);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("a response for every request"))
            .collect()
    }

    /// `true` iff every shard's `INTERVALS` is empty and no steal is in
    /// flight: global implicit termination (§4.3), answered from one
    /// load of the shared packed count.
    pub fn is_terminated(&self) -> bool {
        self.state.load(Ordering::Acquire) == 0
    }

    /// Total interval count across shards.
    pub fn cardinality(&self) -> usize {
        self.shards
            .iter()
            .map(|m| m.lock().expect("poisoned shard").cardinality())
            .sum()
    }

    /// Total not-yet-explored length across shards.
    pub fn size(&self) -> UBig {
        let mut total = UBig::zero();
        for m in &self.shards {
            total += &m.lock().expect("poisoned shard").size();
        }
        total
    }

    /// Successful cross-shard steals so far.
    ///
    /// Sampled under the **write** side of the steal gate: a steal's
    /// trace event is recorded (and its counter incremented) entirely
    /// under the read side, so quiescing in-flight steals first
    /// guarantees the returned count can never disagree with the
    /// number of steal events in an attached [`RunTrace`]. Previously
    /// the counter was read ungated, so a report snapshot racing a
    /// steal could run one behind the trace.
    pub fn steals(&self) -> u64 {
        let _gate = self.steal_gate.write().expect("poisoned steal gate");
        self.metrics.steals.get()
    }

    /// Lock-acquiring coordinator contacts served so far: single
    /// requests count one each, a bundle counts one **per shard it
    /// touches** (plus one per drained-shard steal retry). With
    /// batching, `contacts()` grows far slower than the per-op protocol
    /// counters in [`ShardRouter::stats`] — that gap is the amortized
    /// lock traffic, and tests pin it (a bundle of N updates to one
    /// shard moves `contacts` by exactly 1 and `updates` by N).
    pub fn contacts(&self) -> u64 {
        self.metrics.contacts.get()
    }

    /// Protocol counters aggregated over all shards.
    pub fn stats(&self) -> CoordinatorStats {
        let mut total = CoordinatorStats::default();
        for m in &self.shards {
            total.merge(m.lock().expect("poisoned shard").stats());
        }
        total
    }

    /// The best solution across shards (they stay in sync through the
    /// report broadcast, but a restored router may briefly differ).
    pub fn solution(&self) -> Option<Solution> {
        let mut best: Option<Solution> = None;
        for m in &self.shards {
            if let Some(s) = m.lock().expect("poisoned shard").solution() {
                if best.as_ref().is_none_or(|b| s.cost < b.cost) {
                    best = Some(s.clone());
                }
            }
        }
        best
    }

    /// The tightest cutoff any shard would hand out.
    pub fn cutoff(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|m| m.lock().expect("poisoned shard").cutoff())
            .min()
    }

    /// Earliest instant at which some holder on some shard becomes
    /// expirable.
    pub fn next_expiry_at(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|m| m.lock().expect("poisoned shard").next_expiry_at())
            .min()
    }

    /// Expires stale holders on every shard; returns the number expired.
    /// Expiry only detaches holders (intervals stay), so it never
    /// changes the non-empty count.
    pub fn expire_stale_holders(&self, now_ns: u64) -> u64 {
        let t0 = Instant::now();
        let expired: u64 = self
            .shards
            .iter()
            .map(|m| {
                m.lock()
                    .expect("poisoned shard")
                    .expire_stale_holders(now_ns)
            })
            .sum();
        self.metrics
            .expiry_ns
            .observe(t0.elapsed().as_nanos() as u64);
        if expired > 0 {
            self.metrics.expired_holders.add(expired);
        }
        expired
    }

    /// Per-shard interval snapshot plus the best solution — the input to
    /// [`crate::checkpoint::encode_sharded_intervals`]. Holds the steal
    /// gate for the whole walk: intervals cannot migrate between shards
    /// mid-snapshot, so the written union can never silently miss an
    /// in-flight steal (a checkpoint that loses search space would make
    /// a later restore "prove" an optimum it never searched). Requests
    /// keep flowing during the walk; an entry completed after its shard
    /// was visited merely leaves the snapshot conservatively large,
    /// which a restore re-explores — redundant, never wrong.
    pub fn snapshot(&self) -> (Vec<Vec<Interval>>, Option<Solution>) {
        let _gate = self.steal_gate.write().expect("poisoned steal gate");
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut best: Option<Solution> = None;
        for m in &self.shards {
            let coordinator = m.lock().expect("poisoned shard");
            shards.push(
                coordinator
                    .entries()
                    .iter()
                    .map(|e| e.interval.clone())
                    .collect(),
            );
            if let Some(s) = coordinator.solution() {
                if best.as_ref().is_none_or(|b| s.cost < b.cost) {
                    best = Some(s.clone());
                }
            }
        }
        (shards, best)
    }

    /// Verifies every shard's structural invariants plus the global
    /// ones — entries are pairwise disjoint *across* shards, no steal is
    /// in flight, and the packed non-empty count matches reality.
    /// O(n²) over all entries; for tests, never on the contact path.
    /// Holds the steal gate, so concurrent steals are excluded; callers
    /// should still quiesce request drivers for a meaningful answer.
    pub fn check_invariants(&self) -> Result<(), String> {
        let _gate = self.steal_gate.write().expect("poisoned steal gate");
        let mut all: Vec<Interval> = Vec::new();
        let mut live = 0u64;
        for (k, m) in self.shards.iter().enumerate() {
            let coordinator = m.lock().expect("poisoned shard");
            coordinator
                .check_invariants()
                .map_err(|e| format!("shard {k}: {e}"))?;
            if !coordinator.is_terminated() {
                live += 1;
            }
            all.extend(coordinator.entries().iter().map(|e| e.interval.clone()));
        }
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                if a.overlaps(b) {
                    return Err(format!("entries overlap across shards: {a} and {b}"));
                }
            }
        }
        let state = self.state.load(Ordering::Acquire);
        if !state.is_multiple_of(NON_EMPTY_UNIT) {
            return Err(format!(
                "steal in flight ({}) despite the held gate",
                state % NON_EMPTY_UNIT
            ));
        }
        if state / NON_EMPTY_UNIT != live {
            return Err(format!(
                "non-empty count {} diverged from actual {live}",
                state / NON_EMPTY_UNIT
            ));
        }
        Ok(())
    }

    /// Serves one shard's group in order: lock sections until every
    /// request is answered, with a drained-shard stall resolved by
    /// [`ShardRouter::resolve_drained`] between two of them, then the
    /// cross-shard broadcast of the best solution the group carried
    /// (merging only the minimum is state-equivalent to broadcasting
    /// each in turn).
    fn serve_group(&self, home: usize, requests: Vec<Request>, now_ns: u64) -> Vec<Response> {
        let best_report = requests
            .iter()
            .filter_map(|request| match request {
                Request::ReportSolution { solution, .. }
                | Request::UpdateAndReport {
                    solution: Some(solution),
                    ..
                } => Some(solution),
                _ => None,
            })
            .min_by_key(|solution| solution.cost)
            .cloned();
        let mut responses = Vec::with_capacity(requests.len());
        let mut pending = requests;
        while let Some((stalled, rest)) = self.serve_locked(home, pending, now_ns, &mut responses) {
            responses.push(self.resolve_drained(home, stalled, now_ns));
            if rest.is_empty() {
                break;
            }
            pending = rest;
        }
        if let Some(solution) = best_report {
            self.broadcast_solution(home, &solution);
        }
        responses
    }

    /// The one lock section: serves `requests` in order on shard `home`
    /// under one acquisition, appending their responses to `out` (see
    /// [`ShardRouter::handle_bundle`] for how a group is applied and
    /// what is recorded). Before the lock is released it drains the
    /// shard's journal into the WAL and the trace and keeps the
    /// non-empty count in step. Returns the stall, if any: a work
    /// request the drained shard answered with `Terminate` (it has no
    /// entry in `out`) and the unserved tail.
    fn serve_locked(
        &self,
        home: usize,
        requests: Vec<Request>,
        now_ns: u64,
        out: &mut Vec<Response>,
    ) -> Option<(Request, Vec<Request>)> {
        self.metrics.contacts.inc();
        self.metrics.shard_contacts[home].inc();
        let latency = match requests.as_slice() {
            [Request::Join { .. } | Request::RequestWork { .. }] => {
                Some(&self.metrics.selection_ns)
            }
            [Request::Update { .. } | Request::UpdateAndReport { .. }] => {
                Some(&self.metrics.update_ns)
            }
            [_] => None,
            _ => Some(&self.metrics.batch_ns),
        };
        // A trace records the section's ops, then its handout: the
        // order of serving the requests one at a time only when no op
        // follows the handout (a later holder's `Update` could shrink a
        // duplicated entry first, and replay would no longer find the
        // handed interval live). Every traced section is one worker's
        // contact — `RouterTransport` sends `[ReportSolution?,
        // Join|RequestWork]`, the logical clock single requests — so
        // its only `Work` reply is its last.
        debug_assert!(
            self.trace.is_none() || is_one_workers_contact(&requests),
            "a traced section serves one worker's contact, work request last"
        );
        let worker = requests.first().map(Request::worker);
        let (stalled, live, held_ns) = {
            let mut coordinator = self.shards[home].lock().expect("poisoned shard");
            // Timed from acquisition: waiting for the lock is the
            // caller's idle time, not the shard's busy time (held spans
            // of one shard never overlap, so their sum is bounded by
            // the wall time).
            let t0 = Instant::now();
            let was_live = !coordinator.is_terminated();
            let outcome = coordinator.apply_batch(requests, now_ns);
            self.journal_flush(home, &mut coordinator);
            if let (Some(trace), Some(worker), Some(Response::Work { interval, .. })) =
                (&self.trace, worker, outcome.responses.last())
            {
                trace.record_handout(worker.0, home, interval);
            }
            out.extend(outcome.responses);
            // Serving can empty the shard (completions, empty
            // intersections) but never refill it, so one section is at
            // most one live→empty transition.
            if was_live && coordinator.is_terminated() {
                self.state.fetch_sub(NON_EMPTY_UNIT, Ordering::AcqRel);
            }
            let live = coordinator.cardinality() as u64;
            (outcome.stalled, live, t0.elapsed().as_nanos() as u64)
        };
        self.metrics.shard_lock_hold[home].observe(held_ns);
        if let Some(h) = latency {
            h.observe(held_ns);
        }
        self.metrics.shard_live_intervals[home].set(live);
        stalled
    }

    /// Continuation of a work request whose home shard answered
    /// `Terminate`: steal into the shard and retry until the request is
    /// served, the computation is globally over, or nothing is
    /// stealable right now (endgame backpressure). Each retry is a lock
    /// section of its own.
    fn resolve_drained(&self, home: usize, mut request: Request, now_ns: u64) -> Response {
        loop {
            if self.is_terminated() {
                return Response::Terminate;
            }
            if !self.steal_into(home) {
                // Nothing stealable: either the work we saw finished
                // concurrently (termination) or the endgame intervals
                // are all in their holders' hands (retry shortly).
                return if self.is_terminated() {
                    Response::Terminate
                } else {
                    Response::Retry
                };
            }
            let mut out = Vec::with_capacity(1);
            match self.serve_locked(home, vec![request], now_ns, &mut out) {
                Some((again, _)) => request = again,
                None => return out.pop().expect("a response for the retried request"),
            }
        }
    }

    /// Steals into `dest` from the other shard whose donatable piece has
    /// the lowest left endpoint ([`Coordinator::steal_preview`]); the
    /// donation is [`Coordinator::steal_ordered`]. Shard intervals are
    /// disjoint, so two previews never tie and the victim is a pure
    /// function of the interval sets. Locks are taken one shard at a
    /// time (scan, steal, adopt), so no lock ordering issues arise; the
    /// price is that a concurrent completion can void the scan, in
    /// which case this returns `false` and the caller re-checks
    /// termination.
    ///
    /// While the stolen interval is between shards it is represented by
    /// an in-flight unit in [`ShardRouter::state`] — taken *before* the
    /// victim can be counted empty, released *after* the destination is
    /// counted non-empty — so termination never misfires mid-steal; and
    /// the whole move holds the read side of the steal gate, so
    /// snapshots (write side) can never observe the interval in neither
    /// shard. When a WAL is attached the move is logged with the same
    /// never-in-neither guarantee on disk: see
    /// [`ShardRouter::journal_steal`].
    fn steal_into(&self, dest: usize) -> bool {
        let _gate = self.steal_gate.read().expect("poisoned steal gate");
        let mut best: Option<(usize, UBig)> = None;
        for (i, m) in self.shards.iter().enumerate() {
            if i == dest {
                continue;
            }
            let Some(left) = m.lock().expect("poisoned shard").steal_preview() else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, b)| left < *b) {
                best = Some((i, left));
            }
        }
        let Some((victim, _)) = best else {
            return false;
        };
        let stolen = {
            let mut coordinator = self.shards[victim].lock().expect("poisoned shard");
            let was_live = !coordinator.is_terminated();
            let stolen = coordinator.steal_ordered();
            if let Some(interval) = &stolen {
                self.journal_steal(victim, dest, interval, &mut coordinator);
                // In-flight unit first, so the word stays non-zero even
                // if the next line empties the victim.
                self.state.fetch_add(1, Ordering::AcqRel);
            }
            if was_live && coordinator.is_terminated() {
                self.state.fetch_sub(NON_EMPTY_UNIT, Ordering::AcqRel);
            }
            stolen
        };
        let Some(interval) = stolen else {
            return false;
        };
        let mut coordinator = self.shards[dest].lock().expect("poisoned shard");
        let was_terminated = coordinator.is_terminated();
        // The `Insert` was pre-logged by `journal_steal`; journaling it
        // again here would duplicate the record.
        coordinator.adopt_prelogged(interval);
        if was_terminated {
            self.state.fetch_add(NON_EMPTY_UNIT, Ordering::AcqRel);
        }
        // Release the in-flight unit only now that the destination is
        // counted.
        self.state.fetch_sub(1, Ordering::AcqRel);
        self.metrics.steals.inc();
        true
    }

    /// Merges an improving solution into every shard but `home` (which
    /// already adopted it through the regular report path).
    fn broadcast_solution(&self, home: usize, solution: &Solution) {
        for (i, m) in self.shards.iter().enumerate() {
            if i != home {
                let mut coordinator = m.lock().expect("poisoned shard");
                if coordinator.merge_solution(solution) {
                    self.journal_flush(i, &mut coordinator);
                    // The flush already recorded the adopting
                    // `Solution` op; the cutoff event is the
                    // broadcast marker replay asserts against.
                    if let Some(trace) = &self.trace {
                        trace.record_cutoff(i, solution.cost);
                    }
                }
            }
        }
    }
}

/// `true` iff `requests` is one worker's contact whose work request, if
/// it has one, comes last — the shape every traced lock section serves.
fn is_one_workers_contact(requests: &[Request]) -> bool {
    let is_work = |r: &Request| matches!(r, Request::Join { .. } | Request::RequestWork { .. });
    requests.split_last().is_none_or(|(last, head)| {
        head.iter()
            .all(|r| r.worker() == last.worker() && !is_work(r))
    })
}
