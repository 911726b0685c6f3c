//! The three transparent wrappers the benchmark measures layers with
//! from outside: [`TimedProblem`] around any `Problem`, [`TimedTransport`]
//! around any `Transport`, [`TimedBackend`] around any `StorageBackend`.
//! Each forwards every call unchanged and records what it saw; the tests
//! at the bottom pin that a wrapped run proves the same optimum with
//! identical search counters and byte-identical WAL blobs.

use gridbnb_coding::TreeShape;
use gridbnb_core::{Request, Response, StorageBackend, Transport, TransportError};
use gridbnb_engine::Problem;
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-thread recording slots: enough for every thread alive during one
/// run (workers + supervisor + handlers), assigned round-robin.
const SLOTS: usize = 64;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: Cell<usize> = Cell::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SLOTS);
}

fn thread_slot() -> usize {
    THREAD_SLOT.with(Cell::get)
}

/// Single-writer add: each slot is written by one live thread, so a
/// plain load + store (no locked instruction) is exact and costs about
/// a nanosecond — this sits inside calls that take ~10 ns themselves.
#[inline]
fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// One kind of `Problem` call: how many were made, how many of those
/// were timed, and the nanoseconds the timed ones took. `weight` counts
/// the states a call covered (1 per call, except batched bounds).
#[derive(Default)]
struct OpCells {
    calls: AtomicU64,
    weight: AtomicU64,
    timed_weight: AtomicU64,
    timed_ns: AtomicU64,
}

/// Totals of one kind of call, with the sampled time scaled up to all
/// calls by weight.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpTotals {
    pub calls: u64,
    /// States covered (equals `calls` except for batched bounds).
    pub weight: u64,
    /// Estimated nanoseconds inside all calls.
    pub ns: f64,
}

impl std::ops::AddAssign for OpTotals {
    fn add_assign(&mut self, other: OpTotals) {
        self.calls += other.calls;
        self.weight += other.weight;
        self.ns += other.ns;
    }
}

impl OpTotals {
    pub fn ns_per_unit(&self) -> f64 {
        if self.weight == 0 {
            0.0
        } else {
            self.ns / self.weight as f64
        }
    }
}

impl OpCells {
    fn totals(&self) -> OpTotals {
        let weight = self.weight.load(Ordering::Relaxed);
        let timed_weight = self.timed_weight.load(Ordering::Relaxed);
        let timed_ns = self.timed_ns.load(Ordering::Relaxed) as f64;
        OpTotals {
            calls: self.calls.load(Ordering::Relaxed),
            weight,
            ns: if timed_weight == 0 {
                0.0
            } else {
                timed_ns * weight as f64 / timed_weight as f64
            },
        }
    }
}

#[repr(align(128))]
#[derive(Default)]
struct ProblemSlot {
    branch: OpCells,
    bound: OpCells,
    leaf: OpCells,
    /// Xorshift state choosing which calls are timed.
    rng: AtomicU64,
    first_call_ns: AtomicU64,
    last_call_ns: AtomicU64,
}

/// The kinds of `Problem` call that are recorded.
#[derive(Clone, Copy)]
enum Op {
    Branch,
    Bound,
    Leaf,
}

impl ProblemSlot {
    fn cells(&self, op: Op) -> &OpCells {
        match op {
            Op::Branch => &self.branch,
            Op::Bound => &self.bound,
            Op::Leaf => &self.leaf,
        }
    }
}

/// What [`TimedProblem`] recorded, summed over threads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProblemTotals {
    pub branch: OpTotals,
    /// `calls` = bound invocations (batches in pooled mode), `weight` =
    /// states bounded.
    pub bound: OpTotals,
    pub leaf: OpTotals,
    /// Start of the first and end of the last timed call on any thread,
    /// in nanoseconds since the probe's origin (0 = no call at all).
    pub first_call_ns: u64,
    pub last_call_ns: u64,
}

impl ProblemTotals {
    /// Estimated nanoseconds inside any `Problem` call.
    pub fn ns(&self) -> f64 {
        self.branch.ns + self.bound.ns + self.leaf.ns
    }
}

/// The recording side of [`TimedProblem`]: per-thread cells, so worker
/// threads never share a cache line.
pub struct ProblemProbe {
    slots: Box<[ProblemSlot]>,
    /// A call is timed when `rng & sample_mask == 0`.
    sample_mask: u64,
    origin: Instant,
}

impl ProblemProbe {
    /// Times one call in `sample_every` (rounded up to a power of two)
    /// and counts all of them. Two clock reads cost ~50 ns: time every
    /// call of a kernel that takes microseconds, sample one that takes
    /// less than 100 ns.
    pub fn new(sample_every: u64, origin: Instant) -> Self {
        ProblemProbe {
            slots: (0..SLOTS).map(|_| ProblemSlot::default()).collect(),
            sample_mask: sample_every.max(1).next_power_of_two() - 1,
            origin,
        }
    }

    pub fn totals(&self) -> ProblemTotals {
        let mut totals = ProblemTotals::default();
        for slot in self.slots.iter() {
            totals.branch += slot.branch.totals();
            totals.bound += slot.bound.totals();
            totals.leaf += slot.leaf.totals();
            let first = slot.first_call_ns.load(Ordering::Relaxed);
            if first != 0 && (totals.first_call_ns == 0 || first < totals.first_call_ns) {
                totals.first_call_ns = first;
            }
            totals.last_call_ns = totals
                .last_call_ns
                .max(slot.last_call_ns.load(Ordering::Relaxed));
        }
        totals
    }

    /// Estimated nanoseconds the *calling* thread has spent inside
    /// `Problem` calls so far ([`TimedTransport`] reads it at contact
    /// boundaries to attribute slice time).
    pub fn thread_ns(&self) -> f64 {
        let slot = &self.slots[thread_slot()];
        slot.branch.totals().ns + slot.bound.totals().ns + slot.leaf.totals().ns
    }

    #[inline]
    fn record<R>(&self, op: Op, weight: u64, call: impl FnOnce() -> R) -> R {
        let slot = &self.slots[thread_slot()];
        let cells = slot.cells(op);
        bump(&cells.calls, 1);
        bump(&cells.weight, weight);
        // Xorshift64; the first call of a thread is always timed so the
        // start-up timestamp is exact.
        let mut x = slot.rng.load(Ordering::Relaxed);
        let first = x == 0;
        if first {
            x = 0x9E37_79B9_7F4A_7C15 ^ thread_slot() as u64;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        slot.rng.store(x, Ordering::Relaxed);
        if !first && x & self.sample_mask != 0 {
            return call();
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let result = call();
        let end = self.origin.elapsed().as_nanos() as u64;
        bump(&cells.timed_weight, weight);
        bump(&cells.timed_ns, end - start);
        if first {
            slot.first_call_ns.store(start.max(1), Ordering::Relaxed);
        }
        slot.last_call_ns.store(end, Ordering::Relaxed);
        result
    }
}

/// A `Problem` that forwards every call to `inner` — including the
/// batched and cutoff-aware bounds, so the wrapped search takes the same
/// kernels — and records counts and (sampled) time per kind of call.
pub struct TimedProblem<'a, P> {
    inner: &'a P,
    probe: &'a ProblemProbe,
}

impl<'a, P: Problem> TimedProblem<'a, P> {
    pub fn new(inner: &'a P, probe: &'a ProblemProbe) -> Self {
        TimedProblem { inner, probe }
    }
}

impl<P: Problem> Problem for TimedProblem<'_, P> {
    type State = P::State;

    fn shape(&self) -> TreeShape {
        self.inner.shape()
    }

    fn root_state(&self) -> Self::State {
        self.inner.root_state()
    }

    fn branch(&self, state: &Self::State, rank: u64) -> Self::State {
        self.probe
            .record(Op::Branch, 1, || self.inner.branch(state, rank))
    }

    fn lower_bound(&self, state: &Self::State) -> u64 {
        self.probe
            .record(Op::Bound, 1, || self.inner.lower_bound(state))
    }

    fn lower_bound_against(&self, state: &Self::State, cutoff: u64) -> u64 {
        self.probe.record(Op::Bound, 1, || {
            self.inner.lower_bound_against(state, cutoff)
        })
    }

    fn lower_bound_batch(&self, states: &[Self::State], cutoff: u64, out: &mut Vec<u64>) {
        self.probe.record(Op::Bound, states.len() as u64, || {
            self.inner.lower_bound_batch(states, cutoff, out)
        })
    }

    fn leaf_cost(&self, state: &Self::State) -> u64 {
        self.probe
            .record(Op::Leaf, 1, || self.inner.leaf_cost(state))
    }
}

/// One coordinator contact as a worker saw it.
#[derive(Clone, Debug)]
pub struct ContactRecord {
    /// Nanoseconds since the probe's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub requests: Vec<Request>,
    /// Empty when the contact failed.
    pub responses: Vec<Response>,
    /// The worker thread's cumulative `Problem` time when the contact
    /// began (0 without a [`ProblemProbe`]): the difference between two
    /// contacts is the bound/branch time of the slice between them.
    pub problem_ns: f64,
}

/// The recording side of [`TimedTransport`]: one contact log per worker.
pub struct TransportProbe<'a> {
    origin: Instant,
    logs: Vec<Mutex<Vec<ContactRecord>>>,
    problem: Option<&'a ProblemProbe>,
}

impl<'a> TransportProbe<'a> {
    pub fn new(workers: usize, origin: Instant, problem: Option<&'a ProblemProbe>) -> Self {
        TransportProbe {
            origin,
            logs: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            problem,
        }
    }

    /// The contact logs, one per worker, in contact order.
    pub fn into_logs(self) -> Vec<Vec<ContactRecord>> {
        self.logs
            .into_iter()
            .map(|log| log.into_inner().expect("contact log poisoned"))
            .collect()
    }
}

/// A `Transport` that forwards every bundle to `inner` and logs it with
/// its round-trip time.
pub struct TimedTransport<'a, T> {
    inner: T,
    probe: &'a TransportProbe<'a>,
    worker: usize,
}

impl<'a, T: Transport> TimedTransport<'a, T> {
    pub fn new(inner: T, probe: &'a TransportProbe<'a>, worker: usize) -> Self {
        TimedTransport {
            inner,
            probe,
            worker,
        }
    }
}

impl<T: Transport> Transport for TimedTransport<'_, T> {
    fn contact(&self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        let probe = self.probe;
        let problem_ns = probe.problem.map_or(0.0, ProblemProbe::thread_ns);
        let sent = requests.clone();
        let start_ns = probe.origin.elapsed().as_nanos() as u64;
        let result = self.inner.contact(requests);
        let end_ns = probe.origin.elapsed().as_nanos() as u64;
        probe.logs[self.worker]
            .lock()
            .expect("contact log poisoned")
            .push(ContactRecord {
                start_ns,
                end_ns,
                requests: sent,
                responses: result.as_ref().cloned().unwrap_or_default(),
                problem_ns,
            });
        result
    }
}

/// What [`TimedBackend`] recorded.
#[derive(Clone, Debug, Default)]
pub struct BackendLog {
    pub puts: u64,
    pub appends: u64,
    pub append_bytes: u64,
    /// Calls of any kind that returned an error.
    pub failures: u64,
    /// The first [`CAPTURED_APPENDS`] appended records, for replay
    /// through another backend.
    pub captured: Vec<Vec<u8>>,
}

/// How many appended records [`TimedBackend`] keeps for replay.
pub const CAPTURED_APPENDS: usize = 2_000;

/// A `StorageBackend` that forwards every call to `inner`, counts them
/// and captures the first appended records. (Append *times* come from
/// the registry's `gbnb_wal_append_ns` histogram, not from here.)
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    log: Mutex<BackendLog>,
}

impl<B: StorageBackend> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            log: Mutex::new(BackendLog::default()),
        }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    pub fn log(&self) -> BackendLog {
        self.log.lock().expect("backend log poisoned").clone()
    }

    fn note<R>(&self, result: io::Result<R>) -> io::Result<R> {
        if result.is_err() {
            self.log.lock().expect("backend log poisoned").failures += 1;
        }
        result
    }
}

impl<B: StorageBackend> StorageBackend for TimedBackend<B> {
    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let result = self.inner.put(name, bytes);
        let mut log = self.log.lock().expect("backend log poisoned");
        log.puts += 1;
        log.failures += u64::from(result.is_err());
        result
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let result = self.inner.append(name, bytes);
        let mut log = self.log.lock().expect("backend log poisoned");
        log.appends += 1;
        log.append_bytes += bytes.len() as u64;
        if log.captured.len() < CAPTURED_APPENDS {
            log.captured.push(bytes.to_vec());
        }
        log.failures += u64::from(result.is_err());
        result
    }

    fn get(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.note(self.inner.get(name))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.note(self.inner.truncate(name, len))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.note(self.inner.delete(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.note(self.inner.list())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridbnb_core::runtime::{run, run_with_router, run_workers, RuntimeConfig};
    use gridbnb_core::{CoordinatorConfig, MemoryBackend, RouterTransport, ShardRouter};
    use gridbnb_flowshop::{taillard, FlowshopProblem};
    use std::sync::Arc;
    use std::time::Duration;

    fn problem() -> FlowshopProblem {
        FlowshopProblem::with_default_bound(taillard::generate(8, 5, 11))
    }

    #[test]
    fn timed_problem_is_transparent_and_counts_every_call() {
        let plain = problem();
        let config = RuntimeConfig::new(1);
        let bare = run(&plain, &config);
        for sample_every in [1, 64] {
            let probe = ProblemProbe::new(sample_every, Instant::now());
            let wrapped = run(&TimedProblem::new(&plain, &probe), &config);
            assert_eq!(wrapped.proven_optimum, bare.proven_optimum);
            assert_eq!(wrapped.workers[0].stats, bare.workers[0].stats);
            let totals = probe.totals();
            let stats = bare.workers[0].stats;
            assert_eq!(totals.bound.weight, stats.nodes_bounded);
            assert_eq!(totals.bound.calls, stats.bound_batches);
            assert_eq!(totals.leaf.calls, stats.leaves);
            assert!(totals.branch.calls >= stats.explored);
            assert!(totals.ns() > 0.0 && totals.first_call_ns > 0);
            assert!(totals.last_call_ns >= totals.first_call_ns);
        }
    }

    fn one_worker_over_router(timed: bool) -> (Option<u64>, gridbnb_engine::SearchStats, usize) {
        let plain = problem();
        let root = plain.shape().root_range();
        let router = ShardRouter::new(root, 1, CoordinatorConfig::default()).unwrap();
        let config = RuntimeConfig::new(1);
        let started = Instant::now();
        let probe = TransportProbe::new(1, started, None);
        let reports = if timed {
            run_workers(&plain, &config, 0, |i| {
                TimedTransport::new(RouterTransport::new(&router, started), &probe, i)
            })
        } else {
            run_workers(&plain, &config, 0, |_| {
                RouterTransport::new(&router, started)
            })
        };
        let logged = probe.into_logs().remove(0);
        if timed {
            assert_eq!(logged.len() as u64, reports[0].contacts);
            assert!(logged.iter().all(|c| c.end_ns >= c.start_ns));
            assert_eq!(
                logged.last().unwrap().responses.last(),
                Some(&Response::Terminate)
            );
        }
        (router.cutoff(), reports[0].stats, logged.len())
    }

    #[test]
    fn timed_transport_is_transparent_and_logs_every_contact() {
        let (bare_optimum, bare_stats, bare_logged) = one_worker_over_router(false);
        let (optimum, stats, logged) = one_worker_over_router(true);
        assert_eq!(optimum, bare_optimum);
        assert_eq!(stats, bare_stats);
        assert_eq!(bare_logged, 0);
        assert!(logged > 0);
    }

    #[test]
    fn timed_backend_leaves_byte_identical_blobs() {
        let plain = problem();
        let durable_run = |backend: Arc<dyn StorageBackend>| {
            let root = plain.shape().root_range();
            let router = ShardRouter::new(root, 2, CoordinatorConfig::default()).unwrap();
            // One worker and no mid-run compaction: the journal is a
            // pure function of the search.
            let config = RuntimeConfig::new(1).with_durability(backend, Duration::from_secs(3600));
            run_with_router(&plain, router, &config).proven_optimum
        };
        let bare = Arc::new(MemoryBackend::new());
        let timed = Arc::new(TimedBackend::new(MemoryBackend::new()));
        assert_eq!(durable_run(bare.clone()), durable_run(timed.clone()));
        assert_eq!(timed.inner().dump(), bare.dump());
        let log = timed.log();
        assert!(log.appends > 0 && log.puts > 0 && log.failures == 0);
        assert_eq!(
            log.captured.iter().map(|r| r.len() as u64).sum::<u64>(),
            log.append_bytes
        );
    }
}
