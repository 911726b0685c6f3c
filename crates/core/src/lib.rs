//! Grid-enabled branch and bound: the farmer–worker algorithm of the
//! paper's §4 with interval-coded work units.
//!
//! The central piece is the [`Coordinator`]: a transport-agnostic state
//! machine owning the paper's two global objects —
//!
//! * `INTERVALS`, the set of coordinator-side copies of all not-yet
//!   explored intervals, and
//! * `SOLUTION`, the best solution found so far —
//!
//! and implementing the four protocol concerns the paper addresses:
//! **load balancing** (selection + proportional partitioning operators,
//! with duplication below a length threshold), **fault tolerance**
//! (interval intersection on every worker contact, equation 14, plus
//! the periodic two-file checkpoint — here a compaction of the
//! write-ahead log in [`mod@wal`], the one persistence path),
//! **implicit termination detection**
//! (the computation is over exactly when `INTERVALS` becomes empty) and
//! **solution sharing** (the three rules of §4.4).
//!
//! Above the single coordinator sits the [`ShardRouter`]: the root
//! range partitioned across `S` independent coordinators with
//! WorkerId-hash routing, cross-shard work stealing and O(1) global
//! termination detection — the same protocol surface, multiplied
//! contact throughput (see the [`mod@shard`] module docs). A worker
//! reaches its home shard one way: directly through
//! [`RouterTransport`] in process, or over a socket into the
//! `gridbnb-net` server, which folds each burst of a multiplexed
//! connection's frames — from many workers — into one
//! [`ShardRouter::handle_bundle`] call.
//!
//! Two executors drive the same router:
//!
//! * [`runtime`] — the farmer–worker runtime following the pull model
//!   (workers always initiate), with optional fault injection: one
//!   worker state machine contacting the router directly (one shard by
//!   default; `shards` only sets how many locks the root range is split
//!   over), stepped by real threads or — in replicable mode — by a
//!   single-threaded logical-clock scheduler;
//! * the discrete-event grid simulator in `gridbnb-grid`, which replays
//!   the identical protocol over thousands of simulated volatile hosts to
//!   reproduce the paper's Table 2 and Figure 7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod coordinator;
mod protocol;
pub mod runtime;
pub mod shard;
pub mod storage;
pub mod trace;
pub mod transport;
pub mod wal;

pub use coordinator::{
    compare_len_per_power, compare_len_per_power_exact, BatchOutcome, ConfigError, Coordinator,
    CoordinatorConfig, CoordinatorStats, Holder, IntervalEntry,
};
pub use protocol::{Request, Response, ShardId, WorkerId};
pub use shard::ShardRouter;
pub use storage::{
    Fault, FaultBackend, FileBackend, MemoryBackend, ShardDirBackend, StorageBackend,
};
pub use trace::{
    diff_traces, RunTrace, TraceDivergence, TraceError, TraceEvent, TraceMeta, TraceReplayer,
};
pub use transport::{
    PendingContact, ProtocolError, RouterTransport, Submitted, Transport, TransportError,
};
pub use wal::{RecoveredState, WalError, WalMetrics, WalOp, WalStore};

pub use gridbnb_coding::{Interval, IntervalSet, TreeShape, UBig};
pub use gridbnb_engine::{Problem, Solution};
pub use gridbnb_metrics::{MetricsRegistry, MetricsSnapshot};
