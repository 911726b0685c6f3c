//! Cross-worker contact gateway: many workers' request batches merged
//! into shared per-shard bundles.
//!
//! Coalescing lets one worker fold its *own* requests into a bundle, but every worker still pays its own
//! [`ShardRouter::handle_bundle`] call — one lock acquisition per shard
//! it touches. With `W` workers and `S ≪ W` shards, the same shard's
//! lock is taken up to `W/S` times per contact window for work that
//! [`crate::Coordinator::apply_batch`] could fold in one pass (it
//! already accepts mixed-worker groups). The [`ContactGateway`] adds the
//! missing collection tier:
//!
//! ```text
//!   w0 ─┐                                  ┌─ shard 0 (1 lock/flush)
//!   w1 ─┤   submit(Vec<Request>)           ├─ shard 1 (1 lock/flush)
//!   ..  ├─► gateway buffer ──── flush ────►│     ...
//!   w15─┘   (size / deadline /             └─ shard S-1
//!            termination-sensitive)
//! ```
//!
//! * **Submission** — [`ContactGateway::submit`] stamps each request
//!   with its home shard and appends the batch to a shared buffer; the
//!   calling worker blocks until a flush serves it. Because a worker's
//!   requests all hash to the same home shard, a submission never
//!   straddles shards.
//! * **Flush triggers** — a flush fires when the buffer reaches the
//!   policy's fan-in (size), when the oldest submission has waited
//!   longer than the policy's delay ([`ContactGateway::flush_stale`],
//!   driven by the runtime's supervisor), when a submission carries a
//!   termination-sensitive request (`Join` / `RequestWork` / `Leave` —
//!   deferring one could stall the endgame behind an idle deadline), or
//!   when the backing coordinator is already terminated (never strand a
//!   late submitter). Empty flushes are free: no contact, no work.
//! * **Flush execution** — the buffered submissions are concatenated
//!   (arrival order, each submission's internal order preserved) into
//!   one [`ShardRouter::handle_bundle`] call: one lock acquisition per
//!   *touched shard* per flush, however many workers contributed. The
//!   responses come back in input order and are routed to each
//!   submitting worker over its reply channel, in its request order.
//!
//! The gateway fronts the [`ShardRouter`] — the one coordinator path —
//! in the in-process runtime and in the `gridbnb-net` socket server
//! alike; a run has one only when its configuration asks for one.
//!
//! Semantics are pinned by the property oracle in
//! `tests/gateway_props.rs`: a flush's outcome — every worker's
//! responses and the router state left behind — is identical to
//! replaying each submission through its own `handle_bundle` call,
//! submissions ordered by (home shard ascending, arrival order). That
//! replay order is exactly the grouped order `handle_bundle` already
//! guarantees for one combined bundle, so the gateway inherits the
//! batch oracle's guarantees (steal-and-retry at the sequential point,
//! endgame `Retry` in place, best-of-group solution broadcasts between
//! shard runs) without new coordinator code.
//!
//! **Observability.** Every counter the gateway keeps lives on the
//! router's [`MetricsRegistry`] — `gbnb_gateway_*` families — and
//! [`ContactGateway::stats`] merely reads those cells back, so there is
//! exactly one source of truth for flush-cause accounting. The
//! [`GatewayMode::Adaptive`] policy closes the loop: it reads the
//! buffered-age and shard lock-hold signals and resizes the effective
//! fan-in, recording every decision as a metric
//! (`gbnb_gateway_fanin_grow_total` / `..._shrink_total`, current value
//! in the `gbnb_gateway_fan_in` gauge) so a run's policy trajectory is
//! reconstructable from a scrape.
//!
//! The same aggregation exists event-driven in the grid simulator
//! (`SimConfig::gateway_fan_in`): per-shard queues collect many
//! simulated workers' update snapshots and deliver each queue as one
//! shared bundle per flush event.

use crate::{Request, Response, ShardEnvelope, ShardRouter};
use crossbeam::channel::{unbounded, Sender};
use gridbnb_metrics::{
    exponential_buckets, latency_buckets_ns, Counter, Gauge, Histogram, MetricsRegistry,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a [`ContactGateway`] sizes its fan-in over a run's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatewayMode {
    /// The fan-in is [`GatewayPolicy::fan_in`], forever.
    Fixed,
    /// The effective fan-in starts at [`GatewayPolicy::fan_in`] and is
    /// resized after each flush from the measured signals: it doubles
    /// (up to `max_fan_in`) while size-triggered flushes fill fast
    /// (buffered age ≤ delay/4) and the shards show lock contention,
    /// and halves (down to `min_fan_in`) on deadline flushes, endgame
    /// `Retry` backpressure, or termination — aggregation pressure is
    /// only worth its latency while many workers are actually pushing.
    Adaptive {
        /// Floor the fan-in never shrinks below.
        min_fan_in: usize,
        /// Ceiling the fan-in never grows past.
        max_fan_in: usize,
    },
}

/// Fan-in policy of a [`ContactGateway`].
#[derive(Clone, Copy, Debug)]
pub struct GatewayPolicy {
    /// Buffered request (envelope) count that triggers a size flush —
    /// the fan-in the gateway tries to aggregate per shared bundle
    /// (the *starting* fan-in under [`GatewayMode::Adaptive`]).
    /// Clamped to ≥ 1 (1 degenerates to per-submission delivery).
    pub fan_in: usize,
    /// Deadline flush: the oldest buffered submission never waits
    /// longer than this (injected-clock nanoseconds). A submitting
    /// worker is silent towards the coordinator while it waits, so this
    /// must stay well below
    /// [`crate::CoordinatorConfig::holder_timeout_ns`] — the runtime
    /// asserts it.
    pub max_delay_ns: u64,
    /// Fixed fan-in, or adaptive resizing from measured signals.
    pub mode: GatewayMode,
}

impl GatewayPolicy {
    /// A fixed policy flushing at `fan_in` buffered requests or after
    /// `max_delay_ns`, whichever comes first.
    pub fn new(fan_in: usize, max_delay_ns: u64) -> Self {
        GatewayPolicy {
            fan_in: fan_in.max(1),
            max_delay_ns: max_delay_ns.max(1),
            mode: GatewayMode::Fixed,
        }
    }

    /// An adaptive policy: fan-in starts at `fan_in`, resized within
    /// `[1, max_fan_in]` from the measured buffered-age / contention /
    /// backpressure signals (see [`GatewayMode::Adaptive`]).
    pub fn adaptive(fan_in: usize, max_fan_in: usize, max_delay_ns: u64) -> Self {
        let max_fan_in = max_fan_in.max(1);
        GatewayPolicy {
            fan_in: fan_in.clamp(1, max_fan_in),
            max_delay_ns: max_delay_ns.max(1),
            mode: GatewayMode::Adaptive {
                min_fan_in: 1,
                max_fan_in,
            },
        }
    }

    /// Checks this policy against the coordinator it would front: the
    /// flush delay must stay strictly below the holder timeout, or
    /// routing contacts through the gateway would get healthy workers
    /// expired (and their work redone) every flush window. Every
    /// construction path that pairs a gateway with a coordinator — the
    /// runtime, and the socket server in `gridbnb-net` — funnels
    /// through this one check.
    pub fn validate_against(
        &self,
        coordinator: &crate::CoordinatorConfig,
    ) -> Result<(), crate::ConfigError> {
        if self.max_delay_ns >= coordinator.holder_timeout_ns {
            return Err(crate::ConfigError::GatewayDelayTooLong {
                delay_ns: self.max_delay_ns,
                timeout_ns: coordinator.holder_timeout_ns,
            });
        }
        Ok(())
    }

    /// The largest fan-in this policy can reach (`fan_in` when fixed).
    pub fn max_fan_in(&self) -> usize {
        match self.mode {
            GatewayMode::Fixed => self.fan_in,
            GatewayMode::Adaptive { max_fan_in, .. } => max_fan_in,
        }
    }

    fn clamped(self) -> Self {
        match self.mode {
            GatewayMode::Fixed => GatewayPolicy::new(self.fan_in, self.max_delay_ns),
            GatewayMode::Adaptive { max_fan_in, .. } => {
                GatewayPolicy::adaptive(self.fan_in, max_fan_in, self.max_delay_ns)
            }
        }
    }
}

/// Aggregation counters of one [`ContactGateway`] — a point-in-time
/// read of the `gbnb_gateway_*` metrics (the registry cells are the
/// only bookkeeping; this struct is just their report form).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Worker batches submitted.
    pub submissions: u64,
    /// Requests those batches carried.
    pub requests: u64,
    /// Non-empty flushes executed (empty flushes are free and not
    /// counted — there is nothing they could have amortized).
    pub flushes: u64,
    /// Flushes triggered by the fan-in size threshold.
    pub size_flushes: u64,
    /// Flushes forced by a termination-sensitive request.
    pub sensitive_flushes: u64,
    /// Flushes forced by the deadline ([`ContactGateway::flush_stale`]).
    pub deadline_flushes: u64,
    /// Unconditional flushes ([`ContactGateway::flush_now`], and
    /// submissions arriving after global termination).
    pub forced_flushes: u64,
    /// Requests in the largest shared bundle flushed so far.
    pub largest_bundle: u64,
    /// Adaptive fan-in increases ([`GatewayMode::Adaptive`] only).
    pub fanin_grows: u64,
    /// Adaptive fan-in decreases ([`GatewayMode::Adaptive`] only).
    pub fanin_shrinks: u64,
}

/// Why a flush fired (tallied into the per-cause flush counters).
#[derive(Clone, Copy, Debug)]
enum FlushCause {
    Size,
    Sensitive,
    Deadline,
    Forced,
}

/// The gateway's registered instrument handles — resolved once at
/// construction so the submit/flush paths are pure atomics.
#[derive(Debug)]
struct GatewayMetrics {
    submissions: Counter,
    requests: Counter,
    size_flushes: Counter,
    sensitive_flushes: Counter,
    deadline_flushes: Counter,
    forced_flushes: Counter,
    bundle_requests: Histogram,
    largest_bundle: Gauge,
    buffered_age_ns: Gauge,
    flush_age_ns: Histogram,
    fan_in: Gauge,
    fanin_grows: Counter,
    fanin_shrinks: Counter,
    retry_backpressure: Counter,
}

impl GatewayMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        GatewayMetrics {
            submissions: registry.counter("gbnb_gateway_submissions_total", &[]),
            requests: registry.counter("gbnb_gateway_requests_total", &[]),
            size_flushes: registry.counter("gbnb_gateway_flushes_total", &[("cause", "size")]),
            sensitive_flushes: registry
                .counter("gbnb_gateway_flushes_total", &[("cause", "sensitive")]),
            deadline_flushes: registry
                .counter("gbnb_gateway_flushes_total", &[("cause", "deadline")]),
            forced_flushes: registry.counter("gbnb_gateway_flushes_total", &[("cause", "forced")]),
            bundle_requests: registry.histogram(
                "gbnb_gateway_bundle_requests",
                &[],
                &exponential_buckets(1, 2, 11),
            ),
            largest_bundle: registry.gauge("gbnb_gateway_largest_bundle", &[]),
            buffered_age_ns: registry.gauge("gbnb_gateway_buffered_age_ns", &[]),
            flush_age_ns: registry.histogram(
                "gbnb_gateway_flush_age_ns",
                &[],
                &latency_buckets_ns(),
            ),
            fan_in: registry.gauge("gbnb_gateway_fan_in", &[]),
            fanin_grows: registry.counter("gbnb_gateway_fanin_grow_total", &[]),
            fanin_shrinks: registry.counter("gbnb_gateway_fanin_shrink_total", &[]),
            retry_backpressure: registry.counter("gbnb_gateway_retry_backpressure_total", &[]),
        }
    }
}

/// One worker's buffered batch, with the channel its responses go back
/// over.
#[derive(Debug)]
struct PendingSubmission {
    envelopes: Vec<ShardEnvelope>,
    reply: Sender<Vec<Response>>,
}

#[derive(Debug, Default)]
struct Buffer {
    pending: Vec<PendingSubmission>,
    /// Total envelopes across `pending`.
    buffered: usize,
    /// Injected-clock stamp of the oldest pending submission.
    oldest_ns: u64,
}

/// Mean lock-hold (ns) below which the shards are considered
/// uncontended and the adaptive policy stops growing: batching buys
/// nothing when each serviced contact is this cheap.
const GROW_CONTENTION_NS: u64 = 200;

/// The shared collection tier in front of a [`ShardRouter`]: many
/// workers submit request batches, the gateway flushes them as combined
/// bundles (see the module docs for triggers and semantics).
///
/// All methods take `&self`; the buffer lives behind one mutex that is
/// held across the flush's `handle_bundle` call, so a submission can
/// never slip in between the buffer swap and the router contact and be
/// silently skipped by a final flush. Submitters that don't trigger a
/// flush only hold the lock long enough to append.
#[derive(Debug)]
pub struct ContactGateway<'r> {
    router: &'r ShardRouter,
    policy: GatewayPolicy,
    /// The effective (possibly adaptively resized) size trigger.
    fan_in: AtomicUsize,
    metrics: GatewayMetrics,
    inner: Mutex<Buffer>,
}

impl<'r> ContactGateway<'r> {
    /// A gateway collecting contacts for `router` under `policy`,
    /// registering its `gbnb_gateway_*` metrics on the router's
    /// registry, so one scrape covers the whole serving path.
    pub fn new(router: &'r ShardRouter, policy: GatewayPolicy) -> Self {
        let policy = policy.clamped();
        let metrics = GatewayMetrics::register(router.metrics());
        metrics.fan_in.set(policy.fan_in as u64);
        ContactGateway {
            router,
            policy,
            fan_in: AtomicUsize::new(policy.fan_in),
            metrics,
            inner: Mutex::new(Buffer::default()),
        }
    }

    /// The router this gateway flushes into.
    pub fn router(&self) -> &'r ShardRouter {
        self.router
    }

    /// The configured fan-in policy.
    pub fn policy(&self) -> &GatewayPolicy {
        &self.policy
    }

    /// The effective fan-in right now — [`GatewayPolicy::fan_in`] under
    /// [`GatewayMode::Fixed`], the adaptively resized value otherwise.
    pub fn fan_in(&self) -> usize {
        self.fan_in.load(Ordering::Relaxed)
    }

    /// Requests currently buffered (waiting for a flush).
    pub fn buffered(&self) -> usize {
        self.inner.lock().expect("poisoned gateway").buffered
    }

    /// A copy of the aggregation counters, read back from the registry
    /// cells (the single source of truth).
    pub fn stats(&self) -> GatewayStats {
        let m = &self.metrics;
        let size_flushes = m.size_flushes.get();
        let sensitive_flushes = m.sensitive_flushes.get();
        let deadline_flushes = m.deadline_flushes.get();
        let forced_flushes = m.forced_flushes.get();
        GatewayStats {
            submissions: m.submissions.get(),
            requests: m.requests.get(),
            flushes: size_flushes + sensitive_flushes + deadline_flushes + forced_flushes,
            size_flushes,
            sensitive_flushes,
            deadline_flushes,
            forced_flushes,
            largest_bundle: m.largest_bundle.get(),
            fanin_grows: m.fanin_grows.get(),
            fanin_shrinks: m.fanin_shrinks.get(),
        }
    }

    /// Submits one worker's request batch at injected time `now_ns` and
    /// blocks until a flush serves it, returning one response per
    /// request in request order. An empty batch returns an empty reply
    /// without touching the buffer.
    ///
    /// The calling thread itself executes the flush when its submission
    /// trips a trigger; otherwise it parks on its reply channel until a
    /// later submitter, the deadline sweep ([`ContactGateway::flush_stale`])
    /// or a final [`ContactGateway::flush_now`] serves it.
    pub fn submit(&self, requests: Vec<Request>, now_ns: u64) -> Vec<Response> {
        if requests.is_empty() {
            return Vec::new();
        }
        let sensitive = requests.iter().any(|r| {
            matches!(
                r,
                Request::Join { .. } | Request::RequestWork { .. } | Request::Leave { .. }
            )
        });
        let envelopes: Vec<ShardEnvelope> = requests
            .into_iter()
            .map(|r| self.router.envelope(r))
            .collect();
        let count = envelopes.len();
        let (tx, rx) = unbounded::<Vec<Response>>();
        {
            let mut buffer = self.inner.lock().expect("poisoned gateway");
            if buffer.pending.is_empty() {
                buffer.oldest_ns = now_ns;
            }
            self.metrics.submissions.inc();
            self.metrics.requests.add(count as u64);
            buffer.buffered += count;
            buffer.pending.push(PendingSubmission {
                envelopes,
                reply: tx,
            });
            // Trigger order mirrors urgency: a termination-sensitive
            // request must go out now whatever the buffer holds; a full
            // buffer flushes by size; a terminated router never buffers
            // (nobody may come along later to flush a late straggler).
            let cause = if sensitive {
                Some(FlushCause::Sensitive)
            } else if buffer.buffered >= self.fan_in.load(Ordering::Relaxed) {
                Some(FlushCause::Size)
            } else if self.router.is_terminated() {
                Some(FlushCause::Forced)
            } else {
                None
            };
            if let Some(cause) = cause {
                self.flush_locked(&mut buffer, now_ns, cause);
            }
        }
        // A closed channel means the gateway was torn down with the
        // submission unflushed; answer like a dead transport (the
        // worker treats an empty reply as termination).
        rx.recv().unwrap_or_default()
    }

    /// Flushes iff the oldest buffered submission has waited at least
    /// the policy delay at `now_ns` — the deadline trigger, driven
    /// periodically by the runtime's supervisor thread. Returns whether
    /// a flush happened. An empty buffer is free: no lock beyond the
    /// check, no router contact.
    pub fn flush_stale(&self, now_ns: u64) -> bool {
        let mut buffer = self.inner.lock().expect("poisoned gateway");
        if buffer.pending.is_empty() {
            return false;
        }
        let age = now_ns.saturating_sub(buffer.oldest_ns);
        self.metrics.buffered_age_ns.set(age);
        if age < self.policy.max_delay_ns {
            return false;
        }
        self.flush_locked(&mut buffer, now_ns, FlushCause::Deadline)
    }

    /// Unconditionally flushes whatever is buffered (the supervisor's
    /// final sweep before it exits, so no blocked submitter is ever
    /// stranded). Returns whether anything was flushed; an empty buffer
    /// is free.
    pub fn flush_now(&self, now_ns: u64) -> bool {
        let mut buffer = self.inner.lock().expect("poisoned gateway");
        self.flush_locked(&mut buffer, now_ns, FlushCause::Forced)
    }

    /// Concatenates the pending submissions into one shared bundle,
    /// serves it through the router, and routes each slice of the
    /// reply back to its submitter. Called with the buffer lock held,
    /// so a concurrent submission either made it into this flush or
    /// observes the emptied buffer — never neither.
    fn flush_locked(&self, buffer: &mut Buffer, now_ns: u64, cause: FlushCause) -> bool {
        if buffer.pending.is_empty() {
            // An empty flush is free: no contact is counted anywhere
            // (pinned by a unit test alongside the router's own
            // empty-bundle guard).
            return false;
        }
        let age_ns = now_ns.saturating_sub(buffer.oldest_ns);
        let pending = std::mem::take(&mut buffer.pending);
        let mut bundle = Vec::with_capacity(buffer.buffered);
        buffer.buffered = 0;
        let mut splits: Vec<(usize, Sender<Vec<Response>>)> = Vec::with_capacity(pending.len());
        for submission in pending {
            splits.push((submission.envelopes.len(), submission.reply));
            bundle.extend(submission.envelopes);
        }
        let total = bundle.len();
        // One response per envelope, in input order.
        let mut responses = self.router.handle_bundle(bundle, now_ns).into_iter();
        let mut retries = 0u64;
        for (len, reply) in splits {
            let slice: Vec<Response> = responses
                .by_ref()
                .take(len)
                .map(|(_, response)| response)
                .collect();
            retries += slice
                .iter()
                .filter(|r| matches!(r, Response::Retry))
                .count() as u64;
            // A dropped receiver (the submitter crashed between send
            // and reply) is fine — the coordinator effects stand.
            let _ = reply.send(slice);
        }
        self.metrics.largest_bundle.max(total as u64);
        self.metrics.bundle_requests.observe(total as u64);
        self.metrics.buffered_age_ns.set(age_ns);
        self.metrics.flush_age_ns.observe(age_ns);
        if retries > 0 {
            self.metrics.retry_backpressure.add(retries);
        }
        match cause {
            FlushCause::Size => self.metrics.size_flushes.inc(),
            FlushCause::Sensitive => self.metrics.sensitive_flushes.inc(),
            FlushCause::Deadline => self.metrics.deadline_flushes.inc(),
            FlushCause::Forced => self.metrics.forced_flushes.inc(),
        }
        self.adapt(cause, age_ns, retries);
        true
    }

    /// One adaptive-policy step after a flush: the decision inputs are
    /// the flush cause, how long the oldest submission waited, endgame
    /// `Retry` backpressure in the served bundle, and the router's
    /// mean lock-hold (the contention hint). No-op under [`GatewayMode::Fixed`].
    fn adapt(&self, cause: FlushCause, age_ns: u64, retries: u64) {
        let GatewayMode::Adaptive {
            min_fan_in,
            max_fan_in,
        } = self.policy.mode
        else {
            return;
        };
        let current = self.fan_in.load(Ordering::Relaxed);
        let shrink =
            retries > 0 || self.router.is_terminated() || matches!(cause, FlushCause::Deadline);
        let filled_fast = age_ns.saturating_mul(4) <= self.policy.max_delay_ns;
        let contended = self.router.mean_lock_hold_ns() >= GROW_CONTENTION_NS;
        let next = if shrink {
            (current / 2).max(min_fan_in)
        } else if matches!(cause, FlushCause::Size) && filled_fast && contended {
            current.saturating_mul(2).min(max_fan_in)
        } else {
            current
        };
        if next == current {
            return;
        }
        if next > current {
            self.metrics.fanin_grows.inc();
        } else {
            self.metrics.fanin_shrinks.inc();
        }
        self.fan_in.store(next, Ordering::Relaxed);
        self.metrics.fan_in.set(next as u64);
    }
}
