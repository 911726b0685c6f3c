//! The coordinator (farmer) state machine: `INTERVALS`, `SOLUTION`, and
//! the selection / partitioning / intersection operators of §4.
//!
//! # Indexed hot path
//!
//! The paper's farmer handled ~130 000 work allocations and ~2 000 000
//! update operations; with `INTERVALS` holding one entry per live B&B
//! process, any per-contact linear scan caps farmer scalability (the
//! 1.7 % farmer exploitation of Table 2 grows linearly with the pool).
//! This coordinator therefore keeps three auxiliary indexes next to the
//! entry vector:
//!
//! * `holder_of` — `WorkerId → entry index`, so `Update`, `Leave`,
//!   `RequestWork` completion and re-`Join` detaching are O(1) lookups
//!   instead of scans (a worker holds at most one entry at a time: every
//!   assignment is preceded by a detach or completion);
//! * `by_priority` — a `BTreeSet` of selection keys ordered by the
//!   **power-normalized selection rule** (below), so the selection
//!   operator is an O(log n) max-lookup;
//! * `heartbeats` — a `BTreeSet<(last_contact_ns, WorkerId)>`, so
//!   [`Coordinator::expire_stale_holders`] touches only the holders that
//!   are actually stale instead of sweeping every entry.
//!
//! `size()` is answered from an incrementally maintained total, so
//! monitoring does not rescan `INTERVALS` either.
//!
//! # Power-normalized selection
//!
//! The paper selects "the interval which maximizes the assigned part
//! `[C, B)`" for the requester; computed literally, that quantity
//! (`len·p/(holder_power+p)` for requester power `p`) depends on `p`, so
//! no single ordering of `INTERVALS` answers every query — which is
//! exactly why the seed implementation rescanned all entries on every
//! request. This coordinator instead ranks entries by **interval length
//! per unit holder power** (`len / holder_power`), the `p → 0` limit of
//! the paper's criterion, with two deliberate properties:
//!
//! * unassigned entries (the paper's *virtual process of null power*)
//!   have infinite priority, ranked among themselves by length — an
//!   expired or restored interval is always re-assigned first, which is
//!   the paper's fault-recovery behavior ("entirely given to another
//!   B&B process");
//! * among held entries, the least-served interval (longest remaining
//!   work per unit of exploration power currently attacking it) is
//!   partitioned first, which is the proportional-partitioning intent.
//!
//! Ties break toward the longer interval, then the lower entry index, so
//! selection is deterministic. [`Coordinator::selection_oracle`] is the
//! reference linear-scan implementation of the same rule; a property
//! test asserts the indexed selection always agrees with it.

use crate::wal::WalOp;
use crate::{Request, Response, WorkerId};
use gridbnb_coding::{Interval, UBig};
use gridbnb_engine::Solution;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// Coordinator tuning knobs.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// Intervals shorter than this are **duplicated** instead of split
    /// (paper §4.2): the requester gets a full copy and both processes
    /// race, at the price of redundant exploration. Must be ≥ 1; the
    /// coordinator clamps zero to one (a zero threshold would make
    /// duplication unreachable *and* is meaningless, since entries are
    /// never empty). Use [`CoordinatorConfig::validate`] to reject the
    /// misconfiguration instead of silently clamping.
    pub duplication_threshold: UBig,
    /// Holders that have not contacted the coordinator for **more than**
    /// this long (nanoseconds of the injected clock) may be expired by
    /// [`Coordinator::expire_stale_holders`], making their interval
    /// reassignable in full — the recovery path for crashed workers.
    /// The comparison is strictly-greater: a worker whose contact is
    /// exactly `holder_timeout_ns` old is still live, so a heartbeat
    /// period equal to the timeout never expires a healthy worker.
    pub holder_timeout_ns: u64,
    /// Initial upper bound (e.g. from iterated greedy — the paper used
    /// 3681 then 3680). Solutions must *strictly* improve it.
    pub initial_upper_bound: Option<u64>,
}

/// A rejected configuration, anywhere in the stack: coordinator knobs
/// (see [`CoordinatorConfig::validate`]), shard layout (see
/// [`crate::ShardRouter::new`]), runtime policies (see
/// `RuntimeConfig::validate`), or the socket server's config (see
/// `ServerConfig::validate` in `gridbnb-net`). One error type means one
/// validated construction path — every entry point (runtime, sim, the
/// socket server) funnels through the same checks instead of
/// re-asserting them ad hoc.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `duplication_threshold` was zero (documented contract: ≥ 1).
    ZeroDuplicationThreshold,
    /// A shard router was asked for zero shards (contract: ≥ 1).
    ZeroShards,
    /// A runtime was asked for zero worker threads.
    ZeroWorkers,
    /// `worker_powers` was empty (it is cycled across workers).
    EmptyWorkerPowers,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroDuplicationThreshold => {
                write!(f, "duplication_threshold must be ≥ 1 (got 0)")
            }
            ConfigError::ZeroShards => write!(f, "need at least one shard"),
            ConfigError::ZeroWorkers => write!(f, "need at least one worker"),
            ConfigError::EmptyWorkerPowers => write!(
                f,
                "worker_powers must not be empty (it is cycled across workers)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl CoordinatorConfig {
    /// Checks the documented invariants without constructing a
    /// coordinator. [`Coordinator::new`] and [`Coordinator::restore`]
    /// accept invalid configs but clamp them to the nearest valid value;
    /// call this first to fail loudly instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.duplication_threshold.is_zero() {
            return Err(ConfigError::ZeroDuplicationThreshold);
        }
        Ok(())
    }

    /// The config with out-of-contract values clamped into range.
    fn sanitized(mut self) -> Self {
        if self.duplication_threshold.is_zero() {
            self.duplication_threshold = UBig::one();
        }
        self
    }
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            duplication_threshold: UBig::from(64u64),
            holder_timeout_ns: 60_000_000_000, // 60 s
            initial_upper_bound: None,
        }
    }
}

/// One member of `INTERVALS`: the coordinator-side copy of a work unit.
#[derive(Clone, Debug)]
pub struct IntervalEntry {
    /// The copy `[A', B')`.
    pub interval: Interval,
    /// Holders currently exploring (a duplicated interval has several;
    /// an unassigned interval — after a restore or an expiry — has none
    /// and behaves as held by the paper's *virtual process of null
    /// power*).
    pub holders: Vec<Holder>,
}

impl IntervalEntry {
    /// Combined power of all holders (0 for an unassigned entry).
    fn holder_power(&self) -> u64 {
        self.holders
            .iter()
            .fold(0u64, |acc, h| acc.saturating_add(h.power.max(1)))
    }
}

/// One holder of an interval copy.
#[derive(Clone, Debug)]
pub struct Holder {
    /// The worker exploring the interval.
    pub worker: WorkerId,
    /// Its relative power (proportional partitioning weight).
    pub power: u64,
    /// Injected-clock timestamp of its last contact.
    pub last_contact_ns: u64,
}

/// Protocol and bookkeeping counters (feeds the Table 2 reproduction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Work units handed out (paper: "work allocations", 129 958).
    pub work_allocations: u64,
    /// Interval splits performed.
    pub partitions: u64,
    /// Interval duplications performed (redundancy source).
    pub duplications: u64,
    /// Whole-interval assignments (unassigned → requester).
    pub full_assignments: u64,
    /// Update (checkpoint) requests processed.
    pub updates: u64,
    /// Solution reports received.
    pub solution_reports: u64,
    /// Solution reports that improved `SOLUTION`.
    pub improvements: u64,
    /// Terminate responses issued.
    pub terminations_sent: u64,
    /// Holders expired as presumed dead.
    pub holders_expired: u64,
    /// Intervals donated to a draining peer shard (work stealing).
    pub steals_donated: u64,
    /// Intervals adopted from a peer shard (work stealing).
    pub steals_adopted: u64,
}

impl CoordinatorStats {
    /// Adds `other` field-wise — used to aggregate per-shard counters
    /// into the router-level view.
    pub fn merge(&mut self, other: &CoordinatorStats) {
        self.work_allocations += other.work_allocations;
        self.partitions += other.partitions;
        self.duplications += other.duplications;
        self.full_assignments += other.full_assignments;
        self.updates += other.updates;
        self.solution_reports += other.solution_reports;
        self.improvements += other.improvements;
        self.terminations_sent += other.terminations_sent;
        self.holders_expired += other.holders_expired;
        self.steals_donated += other.steals_donated;
        self.steals_adopted += other.steals_adopted;
    }
}

/// Result of [`Coordinator::apply_batch`]: the responses produced so
/// far, plus the point at which the batch stalled (if it did).
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// One response per processed request, in request order. When the
    /// batch stalled, the stalled request has **no** entry here — its
    /// response is whatever the caller's recovery (steal-and-retry, or
    /// accepting the `Terminate`) produces.
    pub responses: Vec<Response>,
    /// `Some((request, rest))` iff a work request ([`Request::Join`] /
    /// [`Request::RequestWork`]) drew [`Response::Terminate`] because
    /// this coordinator drained: `request` is that work request (its
    /// unit completion and the `terminations_sent` counter have already
    /// been applied) and `rest` the unprocessed tail of the batch. A
    /// sharded caller steals into this coordinator, retries `request`,
    /// and feeds `rest` back through [`Coordinator::apply_batch`]; a
    /// single-coordinator caller answers `Terminate` (final — there is
    /// nobody to steal from) and continues with `rest` the same way.
    pub stalled: Option<(Request, Vec<Request>)>,
}

/// Deferred index maintenance accumulated across one
/// [`Coordinator::apply_batch`] call (see the batch section there).
#[derive(Debug, Default)]
struct BatchDefer {
    /// Entry index → the selection key physically in `by_priority`
    /// (recorded before the entry's first in-batch mutation; the live
    /// entry may have shrunk several times since).
    stale_keys: HashMap<usize, SelectionKey>,
    /// Worker → the heartbeat stamp physically in `heartbeats`
    /// (the holder struct already carries the refreshed stamp).
    stale_beats: HashMap<WorkerId, u64>,
}

impl BatchDefer {
    fn is_empty(&self) -> bool {
        self.stale_keys.is_empty() && self.stale_beats.is_empty()
    }
}

/// Selection priority of one entry under the power-normalized rule:
/// ordered by `len / holder_power` (exact rational comparison via
/// cross-multiplication; `holder_power == 0` compares as +∞), then by
/// length, then toward the lower entry index. The maximum of the
/// [`Coordinator::by_priority`] set is the entry the selection operator
/// picks.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SelectionKey {
    len: UBig,
    holder_power: u64,
    idx: usize,
}

impl Ord for SelectionKey {
    fn cmp(&self, other: &Self) -> Ordering {
        let ratio = match (self.holder_power, other.holder_power) {
            (0, 0) => Ordering::Equal,
            (0, _) => Ordering::Greater,
            (_, 0) => Ordering::Less,
            (hp_a, hp_b) => compare_len_per_power(&self.len, hp_a, &other.len, hp_b),
        };
        ratio
            .then_with(|| self.len.cmp(&other.len))
            // Lower index ranks higher so `last()` is deterministic.
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// The selection key of `entries[idx]` as a free function, so batch
/// maintenance can recompute keys while another field of the
/// coordinator is mutably borrowed.
fn priority_key_of(entries: &[IntervalEntry], idx: usize) -> SelectionKey {
    let e = &entries[idx];
    SelectionKey {
        len: e.interval.length(),
        holder_power: e.holder_power(),
        idx,
    }
}

/// Compares `len_a / hp_a` with `len_b / hp_b` (powers must be ≥ 1) —
/// the rational comparison at the heart of every priority-set insert,
/// remove and lookup. Equivalent to cross-multiplying
/// `len_a·hp_b  vs  len_b·hp_a`, but tries three allocation-free fast
/// paths before falling back to the exact `UBig` products
/// ([`compare_len_per_power_exact`], whose two temporaries dominated
/// the per-comparison cost):
///
/// 1. **bit-length screen** — `bits(x·y) ∈ [bits x + bits y − 1,
///    bits x + bits y]`, so products whose bit-length estimates differ
///    by ≥ 2 cannot compare the other way;
/// 2. **u128 widening** — both lengths fit `u64`, so the 128-bit
///    products are exact;
/// 3. **`f64` approximation with a conservative margin** — `to_f64` is
///    a few ulps off at worst (≲ 10⁻¹³ relative even for huge limb
///    counts), so a relative gap above 10⁻⁹ decides the comparison;
///    near-ties fall through.
///
/// Every path is decided only when mathematically certain, so the
/// result is *identical* to the exact comparator — pinned by a property
/// test — which `BTreeSet` correctness requires.
pub fn compare_len_per_power(len_a: &UBig, hp_a: u64, len_b: &UBig, hp_b: u64) -> Ordering {
    debug_assert!(hp_a >= 1 && hp_b >= 1, "holder powers are clamped to ≥ 1");
    let (bits_a, bits_b) = (len_a.bit_len(), len_b.bit_len());
    if bits_a == 0 || bits_b == 0 {
        // A zero length makes its product zero (entries are never empty,
        // but the comparator stays total anyway).
        return bits_a.cmp(&bits_b);
    }
    let bits = |x: u64| 64 - x.leading_zeros() as usize;
    // (1) Bit-length screen on the products len_a·hp_b vs len_b·hp_a.
    let (pa_bits, pb_bits) = (bits_a + bits(hp_b), bits_b + bits(hp_a));
    if pa_bits >= pb_bits + 2 {
        return Ordering::Greater;
    }
    if pb_bits >= pa_bits + 2 {
        return Ordering::Less;
    }
    // (2) Exact u128 widening when both lengths fit a limb.
    if bits_a <= 64 && bits_b <= 64 {
        let pa = len_a.to_u64().expect("bit_len ≤ 64") as u128 * hp_b as u128;
        let pb = len_b.to_u64().expect("bit_len ≤ 64") as u128 * hp_a as u128;
        return pa.cmp(&pb);
    }
    // (3) f64 products with a margin far above the conversion error.
    let pa = len_a.to_f64() * hp_b as f64;
    let pb = len_b.to_f64() * hp_a as f64;
    if pa.is_finite() && pb.is_finite() {
        let margin = pa.max(pb) * 1e-9;
        if (pa - pb).abs() > margin {
            return if pa > pb {
                Ordering::Greater
            } else {
                Ordering::Less
            };
        }
    }
    // (4) Exact fallback for genuine near-ties.
    compare_len_per_power_exact(len_a, hp_a, len_b, hp_b)
}

/// Reference comparison of `len_a / hp_a` vs `len_b / hp_b` by exact
/// cross-multiplication (allocates two `UBig` products). The property
/// tests pin [`compare_len_per_power`] to this.
pub fn compare_len_per_power_exact(len_a: &UBig, hp_a: u64, len_b: &UBig, hp_b: u64) -> Ordering {
    len_a.mul_u64(hp_b).cmp(&len_b.mul_u64(hp_a))
}

impl PartialOrd for SelectionKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The farmer-side state machine (transport-agnostic; both the thread
/// runtime and the grid simulator drive it).
///
/// Invariants maintained (checked by [`Coordinator::check_invariants`]):
///
/// * entries are non-empty intervals within the root range;
/// * entries are pairwise disjoint (duplication shares *one* entry among
///   several holders rather than duplicating the entry — the paper:
///   "the coordinator keeps only one copy of a duplicated interval");
/// * the union of entries covers exactly the not-yet-explored numbers
///   (work conservation: nothing is lost, only redundantly re-explored —
///   only checkable against an external record of explored numbers, so
///   this one is asserted by the state-machine property tests, not by
///   `check_invariants`);
/// * every auxiliary index (priority set, holder map, heartbeat set, the
///   running size total) agrees with the entry vector.
#[derive(Clone, Debug)]
pub struct Coordinator {
    root: Interval,
    entries: Vec<IntervalEntry>,
    /// One key per entry; `last()` is the selection operator's pick.
    by_priority: BTreeSet<SelectionKey>,
    /// `worker → index of the entry it (co-)holds` — at most one, since
    /// every assignment is preceded by a detach or a completion.
    holder_of: HashMap<WorkerId, usize>,
    /// `(last_contact_ns, worker)` for every holder, oldest first.
    heartbeats: BTreeSet<(u64, WorkerId)>,
    /// Σ entry lengths, maintained incrementally (`size()`).
    remaining: UBig,
    solution: Option<Solution>,
    config: CoordinatorConfig,
    stats: CoordinatorStats,
    /// Durability deltas queued since the last drain — `None` while
    /// journaling is disabled (the default; a WAL-attached router turns
    /// it on). Holder churn is deliberately not journaled: recovery
    /// restores every interval unassigned, exactly like
    /// [`Coordinator::restore`].
    journal: Option<Vec<WalOp>>,
}

impl Coordinator {
    /// A coordinator for the whole tree: `INTERVALS` starts as the root
    /// range (paper §4.3). Out-of-contract config values are clamped
    /// (see [`CoordinatorConfig::validate`]).
    pub fn new(root: Interval, config: CoordinatorConfig) -> Self {
        let intervals = if root.is_empty() {
            Vec::new()
        } else {
            vec![root.clone()]
        };
        Self::build(root, intervals, None, config)
    }

    /// Rebuilds a coordinator from checkpointed state (all intervals
    /// restored unassigned; workers will re-request work).
    pub fn restore(
        root: Interval,
        intervals: Vec<Interval>,
        solution: Option<Solution>,
        config: CoordinatorConfig,
    ) -> Self {
        Self::build(root, intervals, solution, config)
    }

    fn build(
        root: Interval,
        intervals: Vec<Interval>,
        solution: Option<Solution>,
        config: CoordinatorConfig,
    ) -> Self {
        let mut coordinator = Coordinator {
            root,
            entries: Vec::new(),
            by_priority: BTreeSet::new(),
            holder_of: HashMap::new(),
            heartbeats: BTreeSet::new(),
            remaining: UBig::zero(),
            solution,
            config: config.sanitized(),
            stats: CoordinatorStats::default(),
            journal: None,
        };
        for interval in intervals {
            if interval.is_empty() {
                continue;
            }
            coordinator.remaining += &interval.length();
            coordinator.entries.push(IntervalEntry {
                interval,
                holders: Vec::new(),
            });
            coordinator.index_insert(coordinator.entries.len() - 1);
        }
        coordinator
    }

    /// Turns on durability journaling: every subsequent interval
    /// mutation and solution improvement queues a [`WalOp`] until
    /// [`Coordinator::drain_journal`] takes it. Idempotent.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Takes the queued durability deltas (always empty while journaling
    /// is disabled). The caller appends them to the shard's WAL segment
    /// before releasing the shard lock — that is what keeps the log in
    /// state order.
    pub fn drain_journal(&mut self) -> Vec<WalOp> {
        match self.journal.as_mut() {
            Some(journal) => std::mem::take(journal),
            None => Vec::new(),
        }
    }

    /// `true` iff [`Coordinator::enable_journal`] has been called.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Turns journaling back off, discarding any queued deltas (used by
    /// clones, which have no log to drain into).
    pub fn disable_journal(&mut self) {
        self.journal = None;
    }

    /// Handles one worker request at injected time `now_ns`: a batch of
    /// one through [`Coordinator::apply_batch`], whose stall on a
    /// drained coordinator is the plain [`Response::Terminate`].
    pub fn handle(&mut self, request: Request, now_ns: u64) -> Response {
        let mut outcome = self.apply_batch(vec![request], now_ns);
        match outcome.stalled {
            Some(_) => Response::Terminate,
            None => outcome.responses.pop().expect("a response per request"),
        }
    }

    /// Handles a batch of requests at injected time `now_ns` — the one
    /// routine that applies every request, whether one shard-lock
    /// section serves one of them or many.
    ///
    /// The auxiliary indexes are maintained **per batch, not per op**:
    /// a run of interval-shrinking updates defers its priority-set
    /// re-keys and heartbeat refreshes, paying one `BTreeSet`
    /// remove+insert per *touched entry / worker* instead of one per
    /// request. The paper's dominant load — the ~2 M tiny update
    /// operations — collapses to interval arithmetic plus O(1) map
    /// probes per op. Responses, final state and counters are those of
    /// applying the requests as batches of one (pinned by a property
    /// test).
    ///
    /// Deferred state is flushed before any operation that consults or
    /// restructures the indexes (selection for `Join`/`RequestWork`,
    /// entry removal on an empty intersection or unit completion,
    /// holder detach on `Leave`), so every response is computed against
    /// exactly the state a batch of one would see.
    ///
    /// When a work request finds this coordinator drained it draws
    /// [`Response::Terminate`]; a sharded caller must get a chance to
    /// steal before the rest of the batch runs, so the batch **stalls**:
    /// see [`BatchOutcome::stalled`].
    pub fn apply_batch(&mut self, requests: Vec<Request>, now_ns: u64) -> BatchOutcome {
        let mut responses = Vec::with_capacity(requests.len());
        let mut defer = BatchDefer::default();
        let mut queue = requests.into_iter();
        while let Some(request) = queue.next() {
            let response = match request {
                Request::Update { worker, interval } => {
                    self.batched_update(worker, interval, now_ns, &mut defer)
                }
                Request::UpdateAndReport {
                    worker,
                    interval,
                    solution,
                } => {
                    // Exactly ReportSolution-then-Update, folded into one
                    // contact: the ack's cutoff reflects the merged report.
                    if let Some(solution) = solution {
                        let _ = self.report_solution(solution);
                    }
                    self.batched_update(worker, interval, now_ns, &mut defer)
                }
                // A solution report touches only `SOLUTION` and its
                // counters — no index interaction, nothing to flush.
                Request::ReportSolution { solution, .. } => self.report_solution(solution),
                Request::Leave { worker } => {
                    self.flush_batch(&mut defer);
                    self.detach_worker(worker);
                    Response::LeaveAck
                }
                Request::Join { worker, power } | Request::RequestWork { worker, power } => {
                    self.flush_batch(&mut defer);
                    if matches!(request, Request::Join { .. }) {
                        // A (re-)joining worker must NOT complete
                        // anything: a crashed-and-restarted process may
                        // reuse an id whose old interval is still
                        // unexplored. Detach the id, keep the intervals.
                        self.detach_worker(worker);
                    } else {
                        // RequestWork is only sent on genuine exhaustion:
                        // the worker's live interval is empty, and the
                        // coordinator copy is always a subset of it, so
                        // the copy is fully explored — drop it.
                        self.complete_unit_of(worker);
                    }
                    let response = self.assign(worker, power.max(1), now_ns);
                    if matches!(response, Response::Terminate) {
                        return BatchOutcome {
                            responses,
                            stalled: Some((request, queue.collect())),
                        };
                    }
                    response
                }
            };
            responses.push(response);
        }
        self.flush_batch(&mut defer);
        BatchOutcome {
            responses,
            stalled: None,
        }
    }

    /// Intersection update (equation 14): the worker's live `[A, B)`
    /// meets the coordinator copy `[A', B')`; both sides adopt
    /// `[max(A,A'), min(B,B'))`. O(1) map probes via the holder map: the
    /// priority re-key and heartbeat refresh are deferred into `defer`
    /// (coalescing repeats on the same entry/worker). The removal path
    /// flushes first, so it runs on clean indexes.
    fn batched_update(
        &mut self,
        worker: WorkerId,
        reported: Interval,
        now_ns: u64,
        defer: &mut BatchDefer,
    ) -> Response {
        self.stats.updates += 1;
        let cutoff = self.cutoff();
        let Some(&idx) = self.holder_of.get(&worker) else {
            // Stale worker (expired or restored coordinator): its unit is
            // no longer tracked — the empty ack sends it back for work.
            return Response::UpdateAck {
                interval: Interval::empty(),
                cutoff,
            };
        };
        // Record the physical heartbeat stamp once, then refresh the
        // holder in place — the set itself is fixed up at flush time.
        {
            let h = self.entries[idx]
                .holders
                .iter_mut()
                .find(|h| h.worker == worker)
                .expect("holder map pointed at an entry without the holder");
            defer.stale_beats.entry(worker).or_insert(h.last_contact_ns);
            h.last_contact_ns = now_ns;
        }
        let met = self.entries[idx].interval.intersect(&reported);
        if met.is_empty() {
            // Paper §4.3: "any empty interval of INTERVALS is
            // automatically removed" — and with it, its holders. Removal
            // restructures the entry vector and every index: re-sync
            // them first.
            self.flush_batch(defer);
            self.remove_entry(idx);
            return Response::UpdateAck {
                interval: Interval::empty(),
                cutoff,
            };
        }
        if met == self.entries[idx].interval {
            // Heartbeat-only update: nothing moved, nothing to re-key.
            return Response::UpdateAck {
                interval: met,
                cutoff,
            };
        }
        // Shrink in place; the selection key physically in the set is
        // recorded (once) so the flush can retire it.
        defer
            .stale_keys
            .entry(idx)
            .or_insert_with(|| priority_key_of(&self.entries, idx));
        let old_len = self.entries[idx].interval.length();
        let journaled_old = self
            .journal
            .is_some()
            .then(|| self.entries[idx].interval.clone());
        self.remaining += &met.length();
        self.remaining = self.remaining.saturating_sub(&old_len);
        let result = met.clone();
        self.entries[idx].interval = met;
        if let Some(old) = journaled_old {
            self.journal.as_mut().unwrap().push(WalOp::Replace {
                old,
                new: result.clone(),
            });
        }
        Response::UpdateAck {
            interval: result,
            cutoff,
        }
    }

    /// Applies the deferred maintenance of one batch: every dirty entry
    /// gets exactly one priority-set remove+insert, every touched
    /// worker exactly one heartbeat remove+insert — however many times
    /// the batch hit them.
    fn flush_batch(&mut self, defer: &mut BatchDefer) {
        if defer.is_empty() {
            return;
        }
        for (idx, stale) in defer.stale_keys.drain() {
            let removed = self.by_priority.remove(&stale);
            debug_assert!(removed, "deferred key for entry {idx} not in the set");
            let inserted = self.by_priority.insert(priority_key_of(&self.entries, idx));
            debug_assert!(inserted, "duplicate refreshed key for entry {idx}");
        }
        for (worker, stale) in defer.stale_beats.drain() {
            let idx = *self
                .holder_of
                .get(&worker)
                .expect("deferred heartbeat for a detached worker");
            let current = self.entries[idx]
                .holders
                .iter()
                .find(|h| h.worker == worker)
                .expect("holder map pointed at an entry without the holder")
                .last_contact_ns;
            if current != stale {
                self.heartbeats.remove(&(stale, worker));
                self.heartbeats.insert((current, worker));
            }
        }
    }

    /// `true` iff `INTERVALS` is empty: implicit termination (§4.3).
    pub fn is_terminated(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of intervals (the paper's *cardinality* of `INTERVALS`,
    /// roughly the number of live B&B processes during a run).
    pub fn cardinality(&self) -> usize {
        self.entries.len()
    }

    /// Sum of interval lengths (the paper's *size* of `INTERVALS`: the
    /// count of not-yet-explored solutions). Strictly decreasing over a
    /// run; answered from a running total, not a scan.
    pub fn size(&self) -> UBig {
        self.remaining.clone()
    }

    /// Current best cost: the minimum of the initial upper bound and any
    /// reported solution (what workers must strictly beat).
    pub fn cutoff(&self) -> Option<u64> {
        match (&self.solution, self.config.initial_upper_bound) {
            (Some(s), Some(ub)) => Some(s.cost.min(ub)),
            (Some(s), None) => Some(s.cost),
            (None, ub) => ub,
        }
    }

    /// The global best solution (`SOLUTION`).
    pub fn solution(&self) -> Option<&Solution> {
        self.solution.as_ref()
    }

    /// Protocol counters.
    pub fn stats(&self) -> &CoordinatorStats {
        &self.stats
    }

    /// The current entries (for checkpointing and inspection). Order is
    /// arbitrary and changes as entries are removed.
    pub fn entries(&self) -> &[IntervalEntry] {
        &self.entries
    }

    /// The root range this coordinator administers.
    pub fn root(&self) -> &Interval {
        &self.root
    }

    /// Earliest injected-clock instant at which some holder becomes
    /// expirable, or `None` if no entry is held. Executors use this to
    /// schedule [`Coordinator::expire_stale_holders`] exactly instead of
    /// sweeping on a fixed period.
    pub fn next_expiry_at(&self) -> Option<u64> {
        self.heartbeats.first().map(|&(t, _)| {
            t.saturating_add(self.config.holder_timeout_ns)
                .saturating_add(1)
        })
    }

    /// Expires holders whose last contact is **strictly** older than
    /// `holder_timeout_ns` at `now_ns`; their intervals become unassigned
    /// and are handed out *in full* at the next work request — the
    /// paper's recovery of a failed worker's last interval copy. A worker
    /// heard from exactly `holder_timeout_ns` ago is still live (a
    /// heartbeat period equal to the timeout never expires its own
    /// sender). Returns the number of holders expired.
    ///
    /// Only stale holders are visited (oldest-first heartbeat index);
    /// a sweep with nothing to expire is O(1).
    pub fn expire_stale_holders(&mut self, now_ns: u64) -> u64 {
        let timeout = self.config.holder_timeout_ns;
        let mut expired = 0u64;
        while let Some(&(t, worker)) = self.heartbeats.first() {
            if now_ns.saturating_sub(t) <= timeout {
                break; // everything else is at least as recent
            }
            self.detach_worker(worker);
            expired += 1;
        }
        self.stats.holders_expired += expired;
        expired
    }

    /// Index of the entry the selection operator would pick now, or
    /// `None` when `INTERVALS` is empty. O(log n) via the priority set.
    pub fn selection_peek(&self) -> Option<usize> {
        self.by_priority.last().map(|k| k.idx)
    }

    /// Reference implementation of the power-normalized selection rule
    /// as a naive linear scan. Property tests assert it always agrees
    /// with [`Coordinator::selection_peek`]; it is not used on the
    /// request path.
    pub fn selection_oracle(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .map(|(idx, e)| SelectionKey {
                len: e.interval.length(),
                holder_power: e.holder_power(),
                idx,
            })
            .max()
            .map(|k| k.idx)
    }

    /// Verifies the structural invariants — including the agreement of
    /// every auxiliary index with the entry vector — and returns a
    /// description of the first violation. Used by tests after arbitrary
    /// request sequences; O(n²), never on the request path.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut total = UBig::zero();
        let mut holders_seen = 0usize;
        for (i, e) in self.entries.iter().enumerate() {
            if e.interval.is_empty() {
                return Err(format!("entry {i} is empty: {}", e.interval));
            }
            if !self.root.contains_interval(&e.interval) {
                return Err(format!("entry {i} escapes the root range"));
            }
            for other in &self.entries[i + 1..] {
                if e.interval.overlaps(&other.interval) {
                    return Err(format!(
                        "entries overlap: {} and {}",
                        e.interval, other.interval
                    ));
                }
            }
            total += &e.interval.length();
            if !self.by_priority.contains(&self.priority_key(i)) {
                return Err(format!("entry {i} has no (current) priority key"));
            }
            for h in &e.holders {
                holders_seen += 1;
                if self.holder_of.get(&h.worker) != Some(&i) {
                    return Err(format!("holder map does not place {} at {i}", h.worker));
                }
                if !self.heartbeats.contains(&(h.last_contact_ns, h.worker)) {
                    return Err(format!("missing heartbeat for {}", h.worker));
                }
            }
        }
        if self.by_priority.len() != self.entries.len() {
            return Err(format!(
                "priority set has {} keys for {} entries",
                self.by_priority.len(),
                self.entries.len()
            ));
        }
        if self.holder_of.len() != holders_seen {
            return Err(format!(
                "holder map has {} workers for {} holders",
                self.holder_of.len(),
                holders_seen
            ));
        }
        if self.heartbeats.len() != holders_seen {
            return Err(format!(
                "heartbeat set has {} stamps for {} holders",
                self.heartbeats.len(),
                holders_seen
            ));
        }
        if total != self.remaining {
            return Err(format!(
                "running size {} diverged from actual {total}",
                self.remaining
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Index maintenance
    // ------------------------------------------------------------------

    /// The current selection key of entry `idx` (recomputed, not stored:
    /// the key is a pure function of the entry, so remove-before-mutate /
    /// insert-after-mutate pairs stay symmetric).
    fn priority_key(&self, idx: usize) -> SelectionKey {
        priority_key_of(&self.entries, idx)
    }

    fn index_insert(&mut self, idx: usize) {
        let key = self.priority_key(idx);
        let inserted = self.by_priority.insert(key);
        debug_assert!(inserted, "duplicate priority key for entry {idx}");
    }

    fn index_remove(&mut self, idx: usize) {
        let key = self.priority_key(idx);
        let removed = self.by_priority.remove(&key);
        debug_assert!(removed, "stale priority key for entry {idx}");
    }

    /// Runs `mutate` on entry `idx` with its priority key kept in sync.
    fn with_entry<R>(&mut self, idx: usize, mutate: impl FnOnce(&mut IntervalEntry) -> R) -> R {
        self.index_remove(idx);
        let result = mutate(&mut self.entries[idx]);
        self.index_insert(idx);
        result
    }

    /// Registers `holder` on entry `idx` (map + heartbeat + priority).
    fn attach_holder(&mut self, idx: usize, holder: Holder) {
        self.holder_of.insert(holder.worker, idx);
        self.heartbeats
            .insert((holder.last_contact_ns, holder.worker));
        self.with_entry(idx, |e| e.holders.push(holder));
    }

    /// Removes `worker` from the entry it holds (if any) without touching
    /// the interval — graceful leave, expiry, or re-join: the work
    /// remains to be done. O(log n).
    fn detach_worker(&mut self, worker: WorkerId) {
        let Some(idx) = self.holder_of.remove(&worker) else {
            return;
        };
        let stamp = self.with_entry(idx, |e| {
            let pos = e
                .holders
                .iter()
                .position(|h| h.worker == worker)
                .expect("holder map pointed at an entry without the holder");
            e.holders.swap_remove(pos).last_contact_ns
        });
        self.heartbeats.remove(&(stamp, worker));
    }

    /// Drops the entry (co-)held by `worker` — called when that worker
    /// reports completion of its unit. Co-holders of a duplicated entry
    /// lose it too: the numbers are explored, their next update returns
    /// an empty intersection and they will request new work. O(log n).
    fn complete_unit_of(&mut self, worker: WorkerId) {
        if let Some(&idx) = self.holder_of.get(&worker) {
            self.remove_entry(idx);
        }
    }

    /// Removes entry `idx` entirely: detaches all holders, drops its
    /// priority key, subtracts its length from the running size, and
    /// repairs the indexes of the entry swapped into its slot.
    fn remove_entry(&mut self, idx: usize) {
        self.index_remove(idx);
        let last = self.entries.len() - 1;
        if idx != last {
            // The last entry is about to move into slot `idx`: retire its
            // key under the old index first.
            self.index_remove(last);
        }
        let entry = self.entries.swap_remove(idx);
        if let Some(journal) = self.journal.as_mut() {
            journal.push(WalOp::Remove(entry.interval.clone()));
        }
        for h in &entry.holders {
            self.holder_of.remove(&h.worker);
            self.heartbeats.remove(&(h.last_contact_ns, h.worker));
        }
        self.remaining = self.remaining.saturating_sub(&entry.interval.length());
        if idx != last {
            // Re-key the moved entry and re-point its holders.
            self.index_insert(idx);
            for h in &self.entries[idx].holders {
                self.holder_of.insert(h.worker, idx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Load balancing (§4.2)
    // ------------------------------------------------------------------

    /// Assigns a work unit via the selection + partitioning operators.
    /// O(log n): one priority-set max plus index maintenance.
    fn assign(&mut self, worker: WorkerId, power: u64, now_ns: u64) -> Response {
        let Some(idx) = self.selection_peek() else {
            self.stats.terminations_sent += 1;
            return Response::Terminate;
        };
        // Agreement with the linear-scan oracle is pinned by the
        // `indexed_selection_matches_linear_oracle` property test, not
        // asserted here — an O(n) scan per allocation would re-create
        // the very cost this path removes, even in debug builds.
        let response = self.partition(idx, worker, power, now_ns);
        self.stats.work_allocations += 1;
        response
    }

    /// Partitioning operator on entry `idx` for `worker` of `power`.
    fn partition(&mut self, idx: usize, worker: WorkerId, power: u64, now_ns: u64) -> Response {
        let cutoff = self.cutoff();
        let holder = Holder {
            worker,
            power,
            last_contact_ns: now_ns,
        };
        let entry = &self.entries[idx];
        let len = entry.interval.length();

        if entry.holders.is_empty() {
            // Unassigned (virtual null-power holder): C = A, assign all.
            let interval = entry.interval.clone();
            self.attach_holder(idx, holder);
            self.stats.full_assignments += 1;
            return Response::Work { interval, cutoff };
        }

        if len < self.config.duplication_threshold {
            return self.duplicate(idx, holder, cutoff);
        }

        let holder_power = entry.holder_power();
        let steal = len.mul_div_floor(power, holder_power.saturating_add(power).max(1));
        if steal.is_zero() {
            return self.duplicate(idx, holder, cutoff);
        }
        // C = B − steal ; holder keeps [A, C), requester gets [C, B).
        let cut = entry.interval.end().saturating_sub(&steal);
        let (keep, give) = entry.interval.split_at(&cut);
        debug_assert!(!keep.is_empty() && !give.is_empty());
        if let Some(journal) = self.journal.as_mut() {
            journal.push(WalOp::Replace {
                old: entry.interval.clone(),
                new: keep.clone(),
            });
            journal.push(WalOp::Insert(give.clone()));
        }
        self.with_entry(idx, |e| e.interval = keep);
        self.entries.push(IntervalEntry {
            interval: give.clone(),
            holders: Vec::new(),
        });
        let new_idx = self.entries.len() - 1;
        self.index_insert(new_idx);
        self.attach_holder(new_idx, holder);
        self.stats.partitions += 1;
        Response::Work {
            interval: give,
            cutoff,
        }
    }

    /// Duplication: the requester becomes an additional holder of the
    /// *same* entry and receives a full copy of it.
    fn duplicate(&mut self, idx: usize, holder: Holder, cutoff: Option<u64>) -> Response {
        let interval = self.entries[idx].interval.clone();
        self.attach_holder(idx, holder);
        self.stats.duplications += 1;
        Response::Work { interval, cutoff }
    }

    // ------------------------------------------------------------------
    // Work stealing (sharded coordination)
    // ------------------------------------------------------------------

    /// The candidate [`Coordinator::steal_ordered`] would donate, as
    /// `(tier, donated length, entry index)`: tier-major (a whole
    /// unassigned entry always beats a holder-disturbing split), then
    /// largest donated length, then **lowest left endpoint**. Every
    /// comparison is a total order on the entry's value, never on its
    /// position in the contention-dependent `entries` vector, so two
    /// runs whose coordinators hold the same interval sets always donate
    /// the same interval.
    fn ordered_steal_candidate(&self) -> Option<(u8, UBig, usize)> {
        let mut best: Option<(u8, UBig, usize)> = None;
        for (idx, e) in self.entries.iter().enumerate() {
            let len = e.interval.length();
            let (tier, donated) = if e.holders.is_empty() {
                (2u8, len)
            } else if len > UBig::one() {
                (1u8, len.div_rem_u64(2).0)
            } else {
                continue; // held and unsplittable: leave it to its holder
            };
            let better = match &best {
                None => true,
                Some((b_tier, b_len, b_idx)) => match tier.cmp(b_tier) {
                    Ordering::Greater => true,
                    Ordering::Less => false,
                    Ordering::Equal => match donated.cmp(b_len) {
                        Ordering::Greater => true,
                        Ordering::Less => false,
                        Ordering::Equal => {
                            e.interval.begin() < self.entries[*b_idx].interval.begin()
                        }
                    },
                },
            };
            if better {
                best = Some((tier, donated, idx));
            }
        }
        best
    }

    /// The left endpoint of the interval [`Coordinator::steal_ordered`]
    /// would donate right now, or `None` when nothing is donatable —
    /// the router's victim rule picks the shard whose preview is
    /// **lowest**.
    pub fn steal_preview(&self) -> Option<UBig> {
        let (tier, donated, idx) = self.ordered_steal_candidate()?;
        let begin = if tier == 1 {
            // The donated piece is the back half: it starts at the cut.
            self.entries[idx].interval.end().saturating_sub(&donated)
        } else {
            self.entries[idx].interval.begin().clone()
        };
        Some(begin)
    }

    /// Donates an interval to a draining peer shard: the returned range
    /// leaves this coordinator entirely (no copy is kept, preserving
    /// cross-shard disjointness). Donation tiers, strictly in order —
    /// an undisturbed donation always beats a bigger disturbing one:
    ///
    /// 1. the whole of the longest unassigned entry (nobody's
    ///    exploration is disturbed, no redundancy is created);
    /// 2. only when nothing is unassigned, the back half of the longest
    ///    held entry of length ≥ 2 — exactly like the partitioning
    ///    operator, the holder keeps the front and learns of the shrink
    ///    at its next update (the holder's stale tail may be briefly
    ///    re-explored, the usual shrink-lag redundancy).
    ///
    /// Equal lengths break toward the lowest left endpoint, so the pick
    /// is a pure function of the held interval sets, never of
    /// entry-vector position.
    ///
    /// An active holder is never detached: stealing a held entry out
    /// from under its holder would let the same interval ping-pong
    /// between drained shards faster than anyone completes it. When all
    /// entries are held and too short to split, this returns `None` and
    /// the router answers the requester with [`Response::Retry`] — the
    /// holders (or, for crashed holders, expiry followed by a whole
    /// unassigned donation) finish the endgame. Also `None` when
    /// `INTERVALS` is empty. O(n) scan — stealing only happens when a
    /// peer shard drains, never on the contact path.
    pub fn steal_ordered(&mut self) -> Option<Interval> {
        let (tier, donated, idx) = self.ordered_steal_candidate()?;
        let stolen = if tier == 1 {
            // Split: holders keep the front, the back half is donated.
            let cut = self.entries[idx].interval.end().saturating_sub(&donated);
            let (keep, give) = self.entries[idx].interval.split_at(&cut);
            debug_assert!(!keep.is_empty() && !give.is_empty());
            self.remaining = self.remaining.saturating_sub(&donated);
            if let Some(journal) = self.journal.as_mut() {
                journal.push(WalOp::Replace {
                    old: self.entries[idx].interval.clone(),
                    new: keep.clone(),
                });
            }
            self.with_entry(idx, |e| e.interval = keep);
            give
        } else {
            let interval = self.entries[idx].interval.clone();
            self.remove_entry(idx);
            interval
        };
        self.stats.steals_donated += 1;
        Some(stolen)
    }

    /// Adopts a stolen interval as a new unassigned entry — the
    /// receiving side of [`Coordinator::steal_ordered`]. The interval
    /// must lie within this coordinator's root range and be disjoint
    /// from every current entry (guaranteed when it came from a peer
    /// shard administering the same root). Empty intervals are ignored.
    pub fn adopt(&mut self, interval: Interval) {
        self.adopt_inner(interval, true);
    }

    /// [`Coordinator::adopt`] minus the journaled `Insert` — the landing
    /// half of a cross-shard steal. The router has already appended the
    /// `Insert` to this shard's log segment *before* the victim's
    /// `Remove`/`Replace` could be logged (the loss-proof steal
    /// ordering), so journaling it again here would duplicate the record.
    pub fn adopt_prelogged(&mut self, interval: Interval) {
        self.adopt_inner(interval, false);
    }

    fn adopt_inner(&mut self, interval: Interval, journal: bool) {
        if interval.is_empty() {
            return;
        }
        debug_assert!(
            self.root.contains_interval(&interval),
            "adopted interval escapes the root range"
        );
        if journal {
            if let Some(journal) = self.journal.as_mut() {
                journal.push(WalOp::Insert(interval.clone()));
            }
        }
        self.remaining += &interval.length();
        self.entries.push(IntervalEntry {
            interval,
            holders: Vec::new(),
        });
        self.index_insert(self.entries.len() - 1);
        self.stats.steals_adopted += 1;
    }

    /// Merges an externally found solution (cross-shard solution
    /// sharing): adopts it iff it strictly improves the current cutoff.
    /// Unlike [`Request::ReportSolution`] this is not a protocol contact,
    /// so no counter moves. Returns whether the solution was adopted.
    pub fn merge_solution(&mut self, solution: &Solution) -> bool {
        let improves = match self.cutoff() {
            Some(c) => solution.cost < c,
            None => true,
        };
        if improves {
            if let Some(journal) = self.journal.as_mut() {
                journal.push(WalOp::Solution(solution.clone()));
            }
            self.solution = Some(solution.clone());
        }
        improves
    }

    // ------------------------------------------------------------------
    // Solution sharing (§4.4)
    // ------------------------------------------------------------------

    fn report_solution(&mut self, solution: Solution) -> Response {
        self.stats.solution_reports += 1;
        let improves = match self.cutoff() {
            Some(c) => solution.cost < c,
            None => true,
        };
        if improves {
            if let Some(journal) = self.journal.as_mut() {
                journal.push(WalOp::Solution(solution.clone()));
            }
            self.solution = Some(solution);
            self.stats.improvements += 1;
        }
        Response::SolutionAck {
            cutoff: self.cutoff(),
        }
    }
}
