//! Write-ahead operation log for coordinator state (paper §4.1, hardened).
//!
//! The paper checkpoints `INTERVALS` and `SOLUTION` on a timer; a farmer
//! crash between ticks silently forfeits up to a full checkpoint interval
//! of exploration. This module is the one persistence path, and it closes
//! that window: every state-changing operation the coordinator performs
//! (interval insert / remove / shrink, solution improvement) is appended
//! to a per-shard operation log *before* the owning shard lock is
//! released, and recovery replays `snapshot + log tail` back to the exact
//! pre-crash state. The paper's timed checkpoint is a compaction: it
//! writes the two files as `snap-{g}.intervals` and `snap-{g}.solution`.
//!
//! ## Record framing
//!
//! A log segment is a sequence of CRC-framed, length-prefixed records:
//!
//! ```text
//! ┌─────────┬──────────┬──────────┬──────────────┐
//! │ magic 4B│ len u32LE│ crc u32LE│ payload (len)│
//! └─────────┴──────────┴──────────┴──────────────┘
//! ```
//!
//! The magic `57 B7 41 4C` contains a non-ASCII byte (`B7`), so it can
//! never collide with the decimal-text payload bytes — which is what lets
//! recovery distinguish a **torn tail** (crash mid-append: the incomplete
//! bytes are a prefix of one record and contain no further magic — the
//! tail is truncated and replay succeeds) from **mid-log corruption** (a
//! bad CRC, a broken magic, or an incomplete record *followed by more
//! records* — recovery refuses loudly with [`WalError::Corrupt`]).
//!
//! The payload is one operation per line, reusing the snapshot codec's
//! decimal-text interval encoding ([`crate::checkpoint::encode_interval_line`])
//! so disk snapshots, the wire protocol, and the WAL all share one
//! human-auditable format:
//!
//! ```text
//! ins 120 720          # insert [120, 720)
//! del 120 720          # remove it
//! rep 120 720 240 720  # replace [120,720) with [240,720) (a shrink)
//! sol 3679 13 35 2     # solution: cost 3679, leaf ranks 13 35 2
//! ```
//!
//! ## Segments, generations, compaction
//!
//! Shard `k` appends to blob `shard-{k}-gen-{g}.wal`. Compaction takes a
//! consistent cut of the router (all shard locks held), bumps the
//! generation `g → g+1` (subsequent appends open fresh segments), then —
//! outside the locks — writes the cut as `snap-{g+1}.*` blobs in the
//! v1/sharded codec of [`crate::checkpoint`], atomically publishes
//! `MANIFEST` (the commit point), and deletes the old generation's
//! segments. Recovery reads `MANIFEST` for the committed generation `G`,
//! loads `snap-{G}.*`, and replays every surviving segment with
//! generation ≥ `G` in ascending order; a crash anywhere in the
//! compaction sequence recovers correctly (stale segments are replayed
//! or ignored based solely on the committed manifest).
//!
//! ## Failure semantics
//!
//! A failed append is repaired by truncating the segment back to its last
//! known-good length; the shard's log is then **stale** (it no longer
//! reflects live state) and is marked poisoned — further appends are
//! skipped and counted until the next compaction writes a fresh snapshot
//! and heals the log. Failures are never silent: they are counted in
//! `gbnb_wal_append_failures_total` and surfaced to the caller.
//!
//! Cross-shard steals span *two* segments and are ordered loss-proof:
//! the stolen interval's `ins` is appended to the destination's segment
//! (and fsynced) **before** the victim's `del`/`rep` can be. A crash
//! between the two appends therefore recovers the interval in *both*
//! shards — it is re-explored once per copy, which is safe — and never
//! in neither, which would silently shrink the search space. If the
//! destination's append fails, the victim's half of the move is dropped
//! and its log poisoned too ([`WalStore::poison`]): recovery then replays
//! the interval still in the victim until compaction heals both logs.

use crate::checkpoint::{
    decode_interval_line, decode_sharded_intervals, decode_solution, encode_interval_line,
    encode_sharded_intervals, encode_solution, CheckpointError,
};
use crate::storage::StorageBackend;
use gridbnb_bigint::UBig;
use gridbnb_coding::Interval;
use gridbnb_engine::Solution;
use gridbnb_metrics::{latency_buckets_ns, Counter, Gauge, Histogram, MetricsRegistry};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Record magic: `W · A L` with a non-ASCII second byte, so the framing
/// can never be mistaken for decimal-text payload bytes.
pub const WAL_MAGIC: [u8; 4] = [0x57, 0xB7, 0x41, 0x4C];

/// Bytes of framing before the payload: magic + len + crc.
pub const RECORD_HEADER_LEN: usize = 12;

/// Name of the manifest blob — the commit point of every compaction.
pub const MANIFEST_BLOB: &str = "MANIFEST";

const MANIFEST_HEADER: &str = "gridbnb-wal-manifest v1";

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — hand-rolled, no dependency.
// ---------------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    })
}

/// CRC32 (IEEE) of `bytes` — the checksum in every record header.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors from the write-ahead log.
#[derive(Debug)]
pub enum WalError {
    /// Storage failure (append, put, truncate, list, ...).
    Io(io::Error),
    /// Structural damage that recovery refuses to repair silently: a bad
    /// CRC or magic, an incomplete record that is *not* the final bytes
    /// of the final segment, an undecodable operation, or replay
    /// reaching an impossible state (e.g. removing an interval the
    /// snapshot never contained).
    Corrupt {
        /// Blob in which the damage was found.
        blob: String,
        /// Byte offset of the damaged record within the blob (0 for
        /// whole-blob problems such as a bad snapshot).
        offset: u64,
        /// Human-readable diagnosis.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt {
                blob,
                offset,
                detail,
            } => write!(f, "wal corrupt: {blob} at byte {offset}: {detail}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

fn corrupt(blob: &str, offset: u64, detail: impl Into<String>) -> WalError {
    WalError::Corrupt {
        blob: blob.to_string(),
        offset,
        detail: detail.into(),
    }
}

fn checkpoint_corrupt(blob: &str, CheckpointError::Corrupt(detail): CheckpointError) -> WalError {
    corrupt(blob, 0, detail)
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

/// One logged state delta of a coordinator shard.
///
/// The recoverable state of a shard is its multiset of unexplored
/// intervals plus the best solution (holders and heartbeats restore
/// unassigned, exactly as [`crate::Coordinator::restore`] does), so four
/// deltas suffice to journal every mutation the coordinator performs:
/// partitioning emits `Replace` + `Insert`, an exhausted or
/// empty-intersected unit emits `Remove`, an intersection shrink emits
/// `Replace`, a cross-shard steal emits `Remove` (victim) + `Insert`
/// (destination), and an adopted solution emits `Solution`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// A new unexplored interval entered `INTERVALS`.
    Insert(Interval),
    /// An interval left `INTERVALS` (explored to completion or donated).
    Remove(Interval),
    /// An interval changed in place (intersection shrink, partition keep).
    Replace {
        /// The interval as previously logged.
        old: Interval,
        /// Its replacement.
        new: Interval,
    },
    /// `SOLUTION` improved.
    Solution(Solution),
}

impl WalOp {
    /// Encodes the op as one decimal-text line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            WalOp::Insert(iv) => format!("ins {}", encode_interval_line(iv)),
            WalOp::Remove(iv) => format!("del {}", encode_interval_line(iv)),
            WalOp::Replace { old, new } => format!(
                "rep {} {}",
                encode_interval_line(old),
                encode_interval_line(new)
            ),
            WalOp::Solution(s) => {
                let mut line = format!("sol {}", s.cost);
                for r in &s.leaf_ranks {
                    line.push(' ');
                    line.push_str(&r.to_string());
                }
                line
            }
        }
    }

    /// Decodes one op line (the inverse of [`WalOp::encode`]).
    pub fn decode(line: &str) -> Result<WalOp, String> {
        let interval_of = |a: &str, b: &str| -> Result<Interval, String> {
            decode_interval_line(&format!("{a} {b}")).map_err(|e| e.to_string())
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["ins", a, b] => Ok(WalOp::Insert(interval_of(a, b)?)),
            ["del", a, b] => Ok(WalOp::Remove(interval_of(a, b)?)),
            ["rep", a, b, c, d] => Ok(WalOp::Replace {
                old: interval_of(a, b)?,
                new: interval_of(c, d)?,
            }),
            ["sol", cost, ranks @ ..] => {
                let cost = cost
                    .parse::<u64>()
                    .map_err(|e| format!("bad solution cost: {e}"))?;
                let leaf_ranks = ranks
                    .iter()
                    .map(|r| r.parse::<u64>().map_err(|e| format!("bad rank: {e}")))
                    .collect::<Result<Vec<u64>, String>>()?;
                Ok(WalOp::Solution(Solution::new(cost, leaf_ranks)))
            }
            _ => Err(format!("unrecognized wal op: {line:?}")),
        }
    }
}

/// Frames a batch of ops as one CRC'd record ready to append.
pub fn encode_record(ops: &[WalOp]) -> Vec<u8> {
    let mut payload = String::new();
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            payload.push('\n');
        }
        payload.push_str(&op.encode());
    }
    let payload = payload.into_bytes();
    let mut record = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    record.extend_from_slice(&WAL_MAGIC);
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

fn decode_payload(blob: &str, offset: u64, payload: &[u8]) -> Result<Vec<WalOp>, WalError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| corrupt(blob, offset, "record payload is not UTF-8"))?;
    let mut ops = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        ops.push(WalOp::decode(line).map_err(|e| corrupt(blob, offset, e))?);
    }
    Ok(ops)
}

// ---------------------------------------------------------------------------
// Blob naming
// ---------------------------------------------------------------------------

/// Blob name of shard `shard`'s log segment at `generation`:
/// `shard-{k}-gen-{g}.wal`. Public so crash-injection tests and tools
/// can address a specific segment.
pub fn segment_blob(shard: usize, generation: u64) -> String {
    format!("shard-{shard}-gen-{generation}.wal")
}

fn snap_intervals_blob(generation: u64) -> String {
    format!("snap-{generation}.intervals")
}

fn snap_solution_blob(generation: u64) -> String {
    format!("snap-{generation}.solution")
}

/// Parses `shard-{k}-gen-{g}.wal` → `(k, g)`.
fn parse_segment_blob(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("shard-")?;
    let rest = rest.strip_suffix(".wal")?;
    let (shard, gen) = rest.split_once("-gen-")?;
    Some((shard.parse().ok()?, gen.parse().ok()?))
}

/// Parses `snap-{g}.intervals` / `snap-{g}.solution` → `g`.
fn parse_snap_blob(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snap-")?;
    let gen = rest
        .strip_suffix(".intervals")
        .or_else(|| rest.strip_suffix(".solution"))?;
    gen.parse().ok()
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// The `gbnb_wal_*` instrument family.
#[derive(Clone, Debug)]
pub struct WalMetrics {
    /// `gbnb_wal_appends_total` — records appended successfully.
    pub appends: Counter,
    /// `gbnb_wal_append_bytes_total` — framed bytes appended.
    pub append_bytes: Counter,
    /// `gbnb_wal_append_failures_total` — appends that failed (the
    /// shard's log is stale until the next compaction).
    pub append_failures: Counter,
    /// `gbnb_wal_append_ns` — latency of one append (encode + store).
    pub append_ns: Histogram,
    /// `gbnb_wal_compactions_total` — completed compactions.
    pub compactions: Counter,
    /// `gbnb_wal_compaction_ns` — latency of the IO half of a compaction
    /// (snapshot encode + put + manifest + cleanup; the in-lock cut is
    /// measured by the router's lock-hold histogram).
    pub compaction_ns: Histogram,
    /// `gbnb_wal_compaction_failures_total` — compactions that failed
    /// mid-write. The previously committed manifest stays authoritative
    /// and the log keeps growing until a later attempt succeeds, so a
    /// failure costs replay time at recovery, never correctness.
    pub compaction_failures: Counter,
    /// `gbnb_wal_torn_truncations_total` — torn tails repaired at
    /// recovery by truncation.
    pub torn_truncations: Counter,
    /// `gbnb_wal_generation` — current compaction generation.
    pub generation: Gauge,
}

impl WalMetrics {
    /// Registers the family on `registry` (idempotent, like every
    /// gridbnb instrument family).
    pub fn register(registry: &MetricsRegistry) -> Self {
        let buckets = latency_buckets_ns();
        WalMetrics {
            appends: registry.counter("gbnb_wal_appends_total", &[]),
            append_bytes: registry.counter("gbnb_wal_append_bytes_total", &[]),
            append_failures: registry.counter("gbnb_wal_append_failures_total", &[]),
            append_ns: registry.histogram("gbnb_wal_append_ns", &[], &buckets),
            compactions: registry.counter("gbnb_wal_compactions_total", &[]),
            compaction_ns: registry.histogram("gbnb_wal_compaction_ns", &[], &buckets),
            compaction_failures: registry.counter("gbnb_wal_compaction_failures_total", &[]),
            torn_truncations: registry.counter("gbnb_wal_torn_truncations_total", &[]),
            generation: registry.gauge("gbnb_wal_generation", &[]),
        }
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Per-shard append state. Accessed only while the owning coordinator
/// shard's lock is held (appends) or while *all* shard locks are held
/// (generation bump at a compaction cut), so the inner mutex is
/// uncontended — it exists to keep the type `Sync` without unsafe code.
#[derive(Debug)]
struct ShardLog {
    /// Generation of the segment currently being appended.
    generation: u64,
    /// Last known-good byte length of that segment.
    good_len: u64,
    /// Set when an append failed and the repair truncate also failed (or
    /// the failure made the log diverge from live state): appends are
    /// skipped until the next compaction writes a fresh snapshot.
    poisoned: bool,
}

/// The durable operation log: per-shard CRC-framed segments plus
/// generational snapshots behind a [`StorageBackend`].
///
/// Created fresh with [`WalStore::create`] (writes the `gen 0` snapshot
/// of the initial state) or rebuilt with [`WalStore::recover`] (replays
/// `snapshot + log tails` to the exact pre-crash state).
#[derive(Debug)]
pub struct WalStore {
    backend: Arc<dyn StorageBackend>,
    logs: Vec<Mutex<ShardLog>>,
    generation: AtomicU64,
    metrics: OnceLock<WalMetrics>,
    append_failures: AtomicU64,
}

/// The coordinator state reconstructed by [`WalStore::recover`].
#[derive(Debug, Clone)]
pub struct RecoveredState {
    /// Unexplored intervals per shard (all unassigned — workers
    /// re-request work after a restart).
    pub shard_intervals: Vec<Vec<Interval>>,
    /// Best solution at the crash point.
    pub solution: Option<Solution>,
    /// The committed manifest generation the snapshot came from.
    pub generation: u64,
    /// Torn final records repaired by truncation (0 or 1 per shard).
    pub torn_truncations: u64,
    /// Complete records replayed across all segments.
    pub replayed_records: u64,
    /// Operations replayed across all records.
    pub replayed_ops: u64,
}

impl RecoveredState {
    /// Σ interval lengths across all shards — the conservation quantity
    /// the crash-recovery property tests pin.
    pub fn total_length(&self) -> UBig {
        let mut total = UBig::zero();
        for shard in &self.shard_intervals {
            for iv in shard {
                total += &iv.length();
            }
        }
        total
    }
}

impl WalStore {
    /// Starts a fresh log epoch: writes the given state as a snapshot,
    /// publishes the manifest, and opens empty segments.
    ///
    /// Safe on a backend that already holds an older campaign: the new
    /// epoch starts at `old committed generation + 1`, the manifest put
    /// is the atomic switch-over, and the old campaign's blobs are
    /// deleted afterwards (a crash mid-cleanup is healed by the next
    /// [`WalStore::recover`], which deletes anything below the committed
    /// generation). On an empty backend the epoch starts at `gen 0`.
    pub fn create(
        backend: Arc<dyn StorageBackend>,
        shard_intervals: &[Vec<Interval>],
        solution: Option<&Solution>,
    ) -> Result<Self, WalError> {
        let shards = shard_intervals.len();
        // Start past every blob already present, not just past the
        // committed generation: a crash between a compaction's
        // generation bump and its manifest put leaves orphan segments
        // one generation ahead, and colliding with those would splice a
        // dead campaign's deltas into the new epoch.
        let mut generation = match backend.get(MANIFEST_BLOB)? {
            Some(manifest) => decode_manifest(&manifest)?.0 + 1,
            None => 0,
        };
        for name in backend.list()? {
            if let Some((_, gen)) = parse_segment_blob(&name) {
                generation = generation.max(gen + 1);
            } else if let Some(gen) = parse_snap_blob(&name) {
                generation = generation.max(gen + 1);
            }
        }
        backend.put(
            &snap_intervals_blob(generation),
            encode_sharded_intervals(shard_intervals).as_bytes(),
        )?;
        backend.put(
            &snap_solution_blob(generation),
            encode_solution(solution).as_bytes(),
        )?;
        backend.put(
            MANIFEST_BLOB,
            encode_manifest(generation, shards).as_bytes(),
        )?;
        // Old-epoch cleanup: everything below the committed generation is
        // unreachable now. Best-effort — recovery retries it.
        for name in backend.list()? {
            let stale = match (parse_segment_blob(&name), parse_snap_blob(&name)) {
                (Some((_, gen)), _) => gen < generation,
                (_, Some(gen)) => gen != generation,
                _ => false,
            };
            if stale {
                let _ = backend.delete(&name);
            }
        }
        Ok(WalStore {
            backend,
            logs: (0..shards)
                .map(|_| {
                    Mutex::new(ShardLog {
                        generation,
                        good_len: 0,
                        poisoned: false,
                    })
                })
                .collect(),
            generation: AtomicU64::new(generation),
            metrics: OnceLock::new(),
            append_failures: AtomicU64::new(0),
        })
    }

    /// `true` iff `backend` holds a committed manifest — i.e. there is a
    /// campaign to recover.
    pub fn exists(backend: &dyn StorageBackend) -> io::Result<bool> {
        Ok(backend.get(MANIFEST_BLOB)?.is_some())
    }

    /// Replays `snapshot + log tails` and returns the store (ready for
    /// further appends) plus the reconstructed state.
    ///
    /// A torn final record in a shard's newest segment is repaired by
    /// truncation (counted in [`RecoveredState::torn_truncations`]); any
    /// other structural damage is [`WalError::Corrupt`].
    pub fn recover(backend: Arc<dyn StorageBackend>) -> Result<(Self, RecoveredState), WalError> {
        let manifest = backend.get(MANIFEST_BLOB)?.ok_or_else(|| {
            WalError::Io(io::Error::new(
                io::ErrorKind::NotFound,
                "no wal manifest: nothing to recover",
            ))
        })?;
        let (committed, shards) = decode_manifest(&manifest)?;

        // Snapshot at the committed generation.
        let intervals_blob = snap_intervals_blob(committed);
        let snapshot = backend
            .get(&intervals_blob)?
            .ok_or_else(|| corrupt(&intervals_blob, 0, "committed snapshot missing"))?;
        let snapshot = String::from_utf8(snapshot)
            .map_err(|_| corrupt(&intervals_blob, 0, "snapshot is not UTF-8"))?;
        let mut shard_intervals = decode_sharded_intervals(&snapshot)
            .map_err(|e| checkpoint_corrupt(&intervals_blob, e))?;
        if shard_intervals.len() != shards {
            return Err(corrupt(
                &intervals_blob,
                0,
                format!(
                    "snapshot has {} shards, manifest says {shards}",
                    shard_intervals.len()
                ),
            ));
        }
        let solution_blob = snap_solution_blob(committed);
        let solution_text = backend
            .get(&solution_blob)?
            .ok_or_else(|| corrupt(&solution_blob, 0, "committed solution snapshot missing"))?;
        let solution_text = String::from_utf8(solution_text)
            .map_err(|_| corrupt(&solution_blob, 0, "solution snapshot is not UTF-8"))?;
        let mut solution =
            decode_solution(&solution_text).map_err(|e| checkpoint_corrupt(&solution_blob, e))?;

        // Surviving segments, grouped per shard, ascending generation.
        let mut segments: Vec<Vec<u64>> = vec![Vec::new(); shards];
        let mut stale: Vec<String> = Vec::new();
        for name in backend.list()? {
            if let Some((shard, generation)) = parse_segment_blob(&name) {
                if shard >= shards || generation < committed {
                    stale.push(name);
                } else {
                    segments[shard].push(generation);
                }
            } else if let Some(generation) = parse_snap_blob(&name) {
                if generation != committed {
                    stale.push(name);
                }
            }
        }
        for shard in &mut segments {
            shard.sort_unstable();
        }

        let mut torn_truncations = 0u64;
        let mut replayed_records = 0u64;
        let mut replayed_ops = 0u64;
        let mut logs = Vec::with_capacity(shards);
        let mut max_generation = committed;
        for (shard, generations) in segments.iter().enumerate() {
            let mut log = ShardLog {
                generation: committed,
                good_len: 0,
                poisoned: false,
            };
            for (i, &generation) in generations.iter().enumerate() {
                let newest = i + 1 == generations.len();
                let blob = segment_blob(shard, generation);
                let bytes = match backend.get(&blob)? {
                    Some(bytes) => bytes,
                    None => continue, // raced cleanup; nothing to replay
                };
                let replay = replay_segment(&blob, &bytes, newest)?;
                for op in replay.ops {
                    replayed_ops += 1;
                    apply_op(&blob, &mut shard_intervals[shard], &mut solution, op)?;
                }
                replayed_records += replay.records;
                if replay.torn {
                    backend.truncate(&blob, replay.good_len)?;
                    torn_truncations += 1;
                }
                log.generation = generation;
                log.good_len = replay.good_len;
            }
            max_generation = max_generation.max(log.generation);
            logs.push(Mutex::new(log));
        }

        // Retry the cleanup a crash may have half-finished. Best-effort,
        // exactly like `create`'s: the recovered state is already fully
        // reconstructed, and a blob that survives a failed delete is
        // ignored by the committed-manifest logic on the next recovery.
        for name in stale {
            let _ = backend.delete(&name);
        }

        let state = RecoveredState {
            shard_intervals,
            solution,
            generation: committed,
            torn_truncations,
            replayed_records,
            replayed_ops,
        };
        let store = WalStore {
            backend,
            logs,
            generation: AtomicU64::new(max_generation),
            metrics: OnceLock::new(),
            append_failures: AtomicU64::new(0),
        };
        Ok((store, state))
    }

    /// Attaches the `gbnb_wal_*` instruments (first call wins; the
    /// router calls this when a metrics registry is configured).
    pub fn set_metrics(&self, metrics: WalMetrics) {
        metrics
            .generation
            .max(self.generation.load(Ordering::Relaxed));
        let _ = self.metrics.set(metrics);
    }

    /// Number of shards the log was created for.
    pub fn shards(&self) -> usize {
        self.logs.len()
    }

    /// Current compaction generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Appends that failed since this store was opened (each one means
    /// the shard's log is stale until the next compaction).
    pub fn append_failures(&self) -> u64 {
        self.append_failures.load(Ordering::Relaxed)
    }

    /// Appends one record holding `ops` to shard `shard`'s segment.
    ///
    /// MUST be called while the owning coordinator shard's lock is held —
    /// that is what serializes records into state order. The one
    /// exception is the cross-shard steal's pre-logged `Insert`, which
    /// the router appends to the *destination's* segment while holding
    /// only the victim's lock: any later op referencing the stolen
    /// interval is journaled after `adopt` under the destination's lock,
    /// which happens-after the pre-log, so the per-segment mutex here
    /// still orders the records correctly. A failed append is repaired by
    /// truncating back to the last good length and poisons the shard log
    /// until the next compaction.
    pub fn append(&self, shard: usize, ops: &[WalOp]) -> Result<(), WalError> {
        if ops.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let mut log = self.logs[shard].lock().unwrap();
        if log.poisoned {
            self.count_append_failure();
            return Err(WalError::Io(io::Error::other(
                "wal shard log poisoned by an earlier failure; awaiting compaction",
            )));
        }
        let record = encode_record(ops);
        let blob = segment_blob(shard, log.generation);
        match self.backend.append(&blob, &record) {
            Ok(()) => {
                log.good_len += record.len() as u64;
                drop(log);
                if let Some(m) = self.metrics.get() {
                    m.appends.inc();
                    m.append_bytes.add(record.len() as u64);
                    m.append_ns.observe(started.elapsed().as_nanos() as u64);
                }
                Ok(())
            }
            Err(e) => {
                // Best-effort repair: cut the segment back to the last
                // record boundary so a torn injection does not turn into
                // recovery-time corruption. If even that fails, the
                // segment is unusable — poison it either way, because the
                // ops in `record` are now missing from the log.
                let _ = self.backend.truncate(&blob, log.good_len);
                log.poisoned = true;
                drop(log);
                self.count_append_failure();
                Err(WalError::Io(e))
            }
        }
    }

    fn count_append_failure(&self) {
        self.append_failures.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.append_failures.inc();
        }
    }

    /// Marks shard `shard`'s log stale without appending: subsequent
    /// appends are skipped and counted until the next compaction heals
    /// it. The steal path uses this on the *victim* when the
    /// destination's pre-logged `Insert` failed — logging the victim's
    /// `Remove`/`Replace` with no durable `Insert` anywhere would turn
    /// the failed append into silently lost work at recovery, and the
    /// victim's later appends must also be suppressed so its log never
    /// references post-steal state it does not record. Counted as an
    /// append failure (the log is stale either way).
    pub fn poison(&self, shard: usize) {
        let mut log = self.logs[shard].lock().unwrap();
        if !log.poisoned {
            log.poisoned = true;
            drop(log);
            self.count_append_failure();
        }
    }

    /// Opens the next generation: every shard's subsequent appends go to
    /// fresh `gen g+1` segments, and any poisoned log is healed (the
    /// caller is about to persist a snapshot of the live state).
    ///
    /// MUST be called while **all** coordinator shard locks are held (the
    /// compaction cut), so no append races the switch. Returns the new
    /// generation.
    pub fn advance_generation(&self) -> u64 {
        let next = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        for log in &self.logs {
            let mut log = log.lock().unwrap();
            log.generation = next;
            log.good_len = 0;
            log.poisoned = false;
        }
        next
    }

    /// Persists the compaction cut taken at `generation` (the value
    /// [`WalStore::advance_generation`] returned): writes the snapshot
    /// blobs, atomically publishes the manifest (the commit point), then
    /// deletes segments and snapshots of older generations. Runs outside
    /// every coordinator lock.
    pub fn compact(
        &self,
        generation: u64,
        shard_intervals: &[Vec<Interval>],
        solution: Option<&Solution>,
    ) -> Result<(), WalError> {
        let started = Instant::now();
        let result = self.compact_io(generation, shard_intervals, solution);
        if let Some(m) = self.metrics.get() {
            match &result {
                Ok(()) => {
                    m.compactions.inc();
                    m.compaction_ns.observe(started.elapsed().as_nanos() as u64);
                    m.generation.max(generation);
                }
                Err(_) => m.compaction_failures.inc(),
            }
        }
        result
    }

    /// The IO half of [`WalStore::compact`], separated so every failure
    /// path is counted exactly once.
    fn compact_io(
        &self,
        generation: u64,
        shard_intervals: &[Vec<Interval>],
        solution: Option<&Solution>,
    ) -> Result<(), WalError> {
        let shards = self.logs.len();
        assert_eq!(
            shard_intervals.len(),
            shards,
            "compaction cut has wrong shard count"
        );
        self.backend.put(
            &snap_intervals_blob(generation),
            encode_sharded_intervals(shard_intervals).as_bytes(),
        )?;
        self.backend.put(
            &snap_solution_blob(generation),
            encode_solution(solution).as_bytes(),
        )?;
        // Commit point: recovery now starts from this generation.
        self.backend.put(
            MANIFEST_BLOB,
            encode_manifest(generation, shards).as_bytes(),
        )?;
        // Cleanup; a crash here is harmless (recovery deletes stale blobs).
        for name in self.backend.list()? {
            let stale = match parse_segment_blob(&name) {
                Some((_, g)) => g < generation,
                None => matches!(parse_snap_blob(&name), Some(g) if g != generation),
            };
            if stale {
                self.backend.delete(&name)?;
            }
        }
        Ok(())
    }
}

fn encode_manifest(generation: u64, shards: usize) -> String {
    format!("{MANIFEST_HEADER}\ngen {generation}\nshards {shards}\n")
}

fn decode_manifest(bytes: &[u8]) -> Result<(u64, usize), WalError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| corrupt(MANIFEST_BLOB, 0, "manifest is not UTF-8"))?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(corrupt(MANIFEST_BLOB, 0, "bad manifest header"));
    }
    let mut generation = None;
    let mut shards = None;
    for line in lines {
        if let Some(v) = line.strip_prefix("gen ") {
            generation = v.parse::<u64>().ok();
        } else if let Some(v) = line.strip_prefix("shards ") {
            shards = v.parse::<usize>().ok();
        }
    }
    match (generation, shards) {
        (Some(g), Some(s)) if s > 0 => Ok((g, s)),
        _ => Err(corrupt(MANIFEST_BLOB, 0, "manifest missing gen/shards")),
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

struct SegmentReplay {
    ops: Vec<WalOp>,
    /// Byte length of the longest whole-record prefix.
    good_len: u64,
    /// `true` iff trailing bytes past `good_len` were a torn record.
    torn: bool,
    records: u64,
}

/// Walks a segment record by record. `newest` is `true` for the shard's
/// highest-generation segment — the only place a torn tail is legal.
fn replay_segment(blob: &str, bytes: &[u8], newest: bool) -> Result<SegmentReplay, WalError> {
    let mut ops = Vec::new();
    let mut offset = 0usize;
    let mut records = 0u64;
    loop {
        let rem = bytes.len() - offset;
        if rem == 0 {
            return Ok(SegmentReplay {
                ops,
                good_len: offset as u64,
                torn: false,
                records,
            });
        }
        // Incomplete-record check, in three stages: partial magic,
        // partial header, partial payload. Each is a legal torn tail
        // only if it is the *final* bytes of the *newest* segment and no
        // further record magic follows.
        let incomplete = |at: usize| -> Result<SegmentReplay, WalError> {
            if let Some(next) = find_magic(&bytes[at + 1..]) {
                return Err(corrupt(
                    blob,
                    at as u64,
                    format!(
                        "incomplete record followed by another record at byte {}",
                        at + 1 + next
                    ),
                ));
            }
            if !newest {
                return Err(corrupt(
                    blob,
                    at as u64,
                    "torn record in a non-final segment",
                ));
            }
            Ok(SegmentReplay {
                ops: Vec::new(), // ops are moved by the caller before use
                good_len: at as u64,
                torn: true,
                records: 0,
            })
        };
        if rem < 4 {
            if bytes[offset..] == WAL_MAGIC[..rem] {
                return incomplete(offset).map(|r| SegmentReplay { ops, records, ..r });
            }
            return Err(corrupt(blob, offset as u64, "trailing garbage (bad magic)"));
        }
        if bytes[offset..offset + 4] != WAL_MAGIC {
            return Err(corrupt(blob, offset as u64, "bad record magic"));
        }
        if rem < RECORD_HEADER_LEN {
            return incomplete(offset).map(|r| SegmentReplay { ops, records, ..r });
        }
        let len = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[offset + 8..offset + 12].try_into().unwrap());
        if rem < RECORD_HEADER_LEN + len {
            return incomplete(offset).map(|r| SegmentReplay { ops, records, ..r });
        }
        let payload = &bytes[offset + RECORD_HEADER_LEN..offset + RECORD_HEADER_LEN + len];
        if crc32(payload) != crc {
            return Err(corrupt(blob, offset as u64, "record crc mismatch"));
        }
        ops.extend(decode_payload(blob, offset as u64, payload)?);
        offset += RECORD_HEADER_LEN + len;
        records += 1;
    }
}

/// First offset of a full `WAL_MAGIC` in `bytes`, if any.
fn find_magic(bytes: &[u8]) -> Option<usize> {
    bytes.windows(WAL_MAGIC.len()).position(|w| w == WAL_MAGIC)
}

/// Applies one replayed op to a shard's interval multiset + solution.
fn apply_op(
    blob: &str,
    shard: &mut Vec<Interval>,
    solution: &mut Option<Solution>,
    op: WalOp,
) -> Result<(), WalError> {
    match op {
        WalOp::Insert(iv) => shard.push(iv),
        WalOp::Remove(iv) => {
            let pos = shard.iter().position(|x| *x == iv).ok_or_else(|| {
                corrupt(
                    blob,
                    0,
                    format!("replayed removal of unknown interval {iv}"),
                )
            })?;
            shard.swap_remove(pos);
        }
        WalOp::Replace { old, new } => {
            let pos = shard.iter().position(|x| *x == old).ok_or_else(|| {
                corrupt(
                    blob,
                    0,
                    format!("replayed replacement of unknown interval {old}"),
                )
            })?;
            shard[pos] = new;
        }
        WalOp::Solution(s) => {
            let improves = match solution {
                Some(current) => s.cost < current.cost,
                None => true,
            };
            if improves {
                *solution = Some(s);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{Fault, FaultBackend, MemoryBackend};

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(UBig::from(a), UBig::from(b))
    }

    #[test]
    fn crc32_check_value() {
        // The IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn op_codec_round_trips() {
        let ops = vec![
            WalOp::Insert(iv(120, 720)),
            WalOp::Remove(iv(0, 1)),
            WalOp::Replace {
                old: iv(120, 720),
                new: iv(240, 720),
            },
            WalOp::Solution(Solution::new(3679, vec![13, 35, 2])),
            WalOp::Solution(Solution::new(7, vec![])),
        ];
        for op in ops {
            assert_eq!(WalOp::decode(&op.encode()).unwrap(), op);
        }
        assert!(WalOp::decode("nonsense 1 2").is_err());
        assert!(WalOp::decode("ins 1").is_err());
    }

    #[test]
    fn record_round_trips() {
        let ops = vec![WalOp::Insert(iv(1, 9)), WalOp::Remove(iv(1, 9))];
        let record = encode_record(&ops);
        let replay = replay_segment("t", &record, true).unwrap();
        assert_eq!(replay.ops, ops);
        assert_eq!(replay.good_len, record.len() as u64);
        assert!(!replay.torn);
    }

    #[test]
    fn torn_tail_is_truncated_mid_log_corruption_is_rejected() {
        let a = encode_record(&[WalOp::Insert(iv(1, 9))]);
        let b = encode_record(&[WalOp::Remove(iv(1, 9))]);
        let mut log = a.clone();
        log.extend_from_slice(&b);

        // Every strict prefix cutting into `b` replays `a` and reports a
        // torn tail at a.len().
        for cut in a.len() + 1..log.len() {
            let replay = replay_segment("t", &log[..cut], true).unwrap();
            assert!(replay.torn, "cut at {cut} should be torn");
            assert_eq!(replay.good_len, a.len() as u64);
            assert_eq!(replay.ops.len(), 1);
        }
        // The same tear in a non-final segment is corruption.
        assert!(matches!(
            replay_segment("t", &log[..a.len() + 3], false),
            Err(WalError::Corrupt { .. })
        ));
        // A flipped payload byte in `a` (mid-log) is corruption.
        let mut corrupted = log.clone();
        corrupted[RECORD_HEADER_LEN] ^= 0x01;
        assert!(matches!(
            replay_segment("t", &corrupted, true),
            Err(WalError::Corrupt { .. })
        ));
        // A truncated *first* record followed by an intact second record
        // is corruption, not a torn tail — the magic scan sees `b`.
        let mut spliced = a[..a.len() - 1].to_vec();
        spliced.extend_from_slice(&b);
        assert!(matches!(
            replay_segment("t", &spliced, true),
            Err(WalError::Corrupt { .. })
        ));
    }

    #[test]
    fn create_append_recover_round_trips() {
        let backend = Arc::new(MemoryBackend::new());
        let initial = vec![vec![iv(0, 100)], vec![iv(100, 200)]];
        let store = WalStore::create(backend.clone(), &initial, None).unwrap();
        store
            .append(
                0,
                &[WalOp::Replace {
                    old: iv(0, 100),
                    new: iv(40, 100),
                }],
            )
            .unwrap();
        store
            .append(
                1,
                &[WalOp::Remove(iv(100, 200)), WalOp::Insert(iv(150, 160))],
            )
            .unwrap();
        store
            .append(1, &[WalOp::Solution(Solution::new(42, vec![1, 2]))])
            .unwrap();

        let (_store, state) = WalStore::recover(backend).unwrap();
        assert_eq!(state.shard_intervals[0], vec![iv(40, 100)]);
        assert_eq!(state.shard_intervals[1], vec![iv(150, 160)]);
        assert_eq!(state.solution, Some(Solution::new(42, vec![1, 2])));
        assert_eq!(state.generation, 0);
        assert_eq!(state.torn_truncations, 0);
        assert_eq!(state.replayed_records, 3);
        assert_eq!(state.replayed_ops, 4);
    }

    #[test]
    fn compaction_moves_the_commit_point() {
        let backend = Arc::new(MemoryBackend::new());
        let initial = vec![vec![iv(0, 100)]];
        let store = WalStore::create(backend.clone(), &initial, None).unwrap();
        store
            .append(
                0,
                &[WalOp::Replace {
                    old: iv(0, 100),
                    new: iv(10, 100),
                }],
            )
            .unwrap();
        // Cut: the live state is [10, 100); ops after the cut go to gen 1.
        let generation = store.advance_generation();
        assert_eq!(generation, 1);
        store
            .append(
                0,
                &[WalOp::Replace {
                    old: iv(10, 100),
                    new: iv(20, 100),
                }],
            )
            .unwrap();
        store
            .compact(generation, &[vec![iv(10, 100)]], None)
            .unwrap();

        // Old-generation blobs are gone; recovery = snap-1 + gen-1 tail.
        let names = backend.list().unwrap();
        assert!(!names.iter().any(|n| n.contains("gen-0")));
        assert!(!names.iter().any(|n| n.contains("snap-0")));
        let (_store, state) = WalStore::recover(backend).unwrap();
        assert_eq!(state.shard_intervals[0], vec![iv(20, 100)]);
        assert_eq!(state.generation, 1);
    }

    #[test]
    fn crash_between_cut_and_manifest_recovers_from_old_generation() {
        let backend = Arc::new(MemoryBackend::new());
        let initial = vec![vec![iv(0, 100)]];
        let store = WalStore::create(backend.clone(), &initial, None).unwrap();
        store
            .append(
                0,
                &[WalOp::Replace {
                    old: iv(0, 100),
                    new: iv(10, 100),
                }],
            )
            .unwrap();
        let _generation = store.advance_generation();
        store
            .append(
                0,
                &[WalOp::Replace {
                    old: iv(10, 100),
                    new: iv(20, 100),
                }],
            )
            .unwrap();
        // Crash before compact(): MANIFEST still says gen 0, but gen-1
        // segments exist. Recovery replays gen-0 then gen-1.
        let (_store, state) = WalStore::recover(backend).unwrap();
        assert_eq!(state.shard_intervals[0], vec![iv(20, 100)]);
        assert_eq!(state.generation, 0);
        assert_eq!(state.replayed_records, 2);
    }

    #[test]
    fn torn_append_is_repaired_on_recovery() {
        let backend = Arc::new(FaultBackend::new(MemoryBackend::new()));
        let initial = vec![vec![iv(0, 100)]];
        let store = WalStore::create(backend.clone(), &initial, None).unwrap();
        store
            .append(
                0,
                &[WalOp::Replace {
                    old: iv(0, 100),
                    new: iv(10, 100),
                }],
            )
            .unwrap();
        // Tear the next append 5 bytes in; the store repairs by
        // truncation and poisons the shard log.
        backend.fail_after(0, 1, Fault::Torn(5));
        let err = store.append(
            0,
            &[WalOp::Replace {
                old: iv(10, 100),
                new: iv(20, 100),
            }],
        );
        assert!(err.is_err());
        assert_eq!(store.append_failures(), 1);
        // Poisoned: further appends fail fast without touching storage.
        assert!(store.append(0, &[WalOp::Remove(iv(10, 100))]).is_err());
        assert_eq!(store.append_failures(), 2);

        // Recovery sees the log up to the repair point: state [10, 100).
        let (_store, state) = WalStore::recover(backend.clone()).unwrap();
        assert_eq!(state.shard_intervals[0], vec![iv(10, 100)]);
        assert_eq!(state.torn_truncations, 0); // append-time repair already cut it

        // A compaction heals the poison and re-anchors the log.
        let generation = store.advance_generation();
        store
            .compact(generation, &[vec![iv(25, 100)]], None)
            .unwrap();
        store
            .append(
                0,
                &[WalOp::Replace {
                    old: iv(25, 100),
                    new: iv(30, 100),
                }],
            )
            .unwrap();
        let (_store, state) = WalStore::recover(backend).unwrap();
        assert_eq!(state.shard_intervals[0], vec![iv(30, 100)]);
    }

    #[test]
    fn torn_tail_without_repair_is_truncated_at_recovery() {
        // Simulate a hard crash mid-append: the tear is on disk and no
        // append-time repair ran (the process died).
        let backend = Arc::new(MemoryBackend::new());
        let initial = vec![vec![iv(0, 100)]];
        let store = WalStore::create(backend.clone(), &initial, None).unwrap();
        store
            .append(
                0,
                &[WalOp::Replace {
                    old: iv(0, 100),
                    new: iv(10, 100),
                }],
            )
            .unwrap();
        let record = encode_record(&[WalOp::Remove(iv(10, 100))]);
        backend
            .append("shard-0-gen-0.wal", &record[..record.len() - 3])
            .unwrap();
        let (_store, state) = WalStore::recover(backend.clone()).unwrap();
        assert_eq!(state.shard_intervals[0], vec![iv(10, 100)]);
        assert_eq!(state.torn_truncations, 1);
        // The tail was physically truncated: a second recovery is clean.
        let (_store, state) = WalStore::recover(backend).unwrap();
        assert_eq!(state.torn_truncations, 0);
    }

    #[test]
    fn replay_rejects_impossible_ops() {
        let backend = Arc::new(MemoryBackend::new());
        let initial = vec![vec![iv(0, 100)]];
        let store = WalStore::create(backend.clone(), &initial, None).unwrap();
        store.append(0, &[WalOp::Remove(iv(55, 66))]).unwrap();
        assert!(matches!(
            WalStore::recover(backend),
            Err(WalError::Corrupt { .. })
        ));
    }

    #[test]
    fn manifest_round_trips() {
        let (g, s) = decode_manifest(encode_manifest(7, 4).as_bytes()).unwrap();
        assert_eq!((g, s), (7, 4));
        assert!(decode_manifest(b"garbage").is_err());
    }
}
