//! The pull-model message protocol between B&B processes (workers) and
//! the coordinator (farmer).
//!
//! Workers always initiate (the paper assumes workers behind firewalls,
//! exchanging "according to the pull model"); the coordinator never
//! contacts a worker. Every exchange doubles as a solution-sharing
//! opportunity: responses carry the current global cutoff.

use gridbnb_coding::Interval;
use gridbnb_engine::Solution;

/// Identifies one B&B process (one worker processor).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u64);

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Identifies one coordinator shard behind a [`crate::ShardRouter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u32);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A worker-initiated message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// First contact of a worker (or re-contact after a simulated
    /// failure): asks for an interval. `power` is the relative speed of
    /// the hosting processor, used by the proportional partitioning
    /// operator.
    Join {
        /// The contacting worker.
        worker: WorkerId,
        /// Relative processor power (e.g. MHz); clamped to ≥ 1.
        power: u64,
    },
    /// The worker finished its interval and asks for another one.
    RequestWork {
        /// The contacting worker.
        worker: WorkerId,
        /// Relative processor power.
        power: u64,
    },
    /// Periodic checkpoint: the worker reports its live interval; the
    /// coordinator intersects it with its copy (equation 14) and returns
    /// the result, which the worker adopts.
    Update {
        /// The contacting worker.
        worker: WorkerId,
        /// The worker's live interval `[position, end)`.
        interval: Interval,
    },
    /// The worker found a solution improving its local best (solution
    /// sharing rule 2: inform the coordinator immediately).
    ReportSolution {
        /// The contacting worker.
        worker: WorkerId,
        /// The improving solution.
        solution: Solution,
    },
    /// Combined checkpoint + solution report: exactly equivalent to a
    /// [`Request::ReportSolution`] (when `solution` is `Some`) followed
    /// by a [`Request::Update`], but one contact instead of two — the
    /// paper's dominant operation pair at the end of every slice that
    /// found an improvement. Answered by [`Response::UpdateAck`] whose
    /// cutoff already reflects the merged solution.
    UpdateAndReport {
        /// The contacting worker.
        worker: WorkerId,
        /// The worker's live interval `[position, end)`.
        interval: Interval,
        /// An improving solution found during the slice, if any (`None`
        /// makes this identical to a plain [`Request::Update`]).
        solution: Option<Solution>,
    },
    /// Graceful departure (cycle stealing reclaimed the host). The
    /// worker's interval copy stays in `INTERVALS` and becomes
    /// immediately reassignable.
    Leave {
        /// The departing worker.
        worker: WorkerId,
    },
}

impl Request {
    /// The worker issuing this request.
    pub fn worker(&self) -> WorkerId {
        match self {
            Request::Join { worker, .. }
            | Request::RequestWork { worker, .. }
            | Request::Update { worker, .. }
            | Request::ReportSolution { worker, .. }
            | Request::UpdateAndReport { worker, .. }
            | Request::Leave { worker } => *worker,
        }
    }
}

/// The coordinator's reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A work unit: explore `interval` starting from the current global
    /// cutoff (solution sharing rule 1: initialize the local best from
    /// `SOLUTION`).
    Work {
        /// The assigned interval.
        interval: Interval,
        /// Current global cutoff (best known cost), if any.
        cutoff: Option<u64>,
    },
    /// The intersected interval copy after an update, plus the global
    /// cutoff (solution sharing rule 3: regularly re-read `SOLUTION`).
    /// If the interval comes back empty the worker's unit was fully
    /// stolen or completed elsewhere: request new work next.
    UpdateAck {
        /// `worker ∩ coordinator` interval (equation 14).
        interval: Interval,
        /// Current global cutoff.
        cutoff: Option<u64>,
    },
    /// Acknowledges a reported solution, returning the (possibly better)
    /// global cutoff.
    SolutionAck {
        /// Current global cutoff after merging the report.
        cutoff: Option<u64>,
    },
    /// `INTERVALS` is empty: the whole tree is explored, resolution over
    /// (the paper's implicit termination detection, §4.3). Under a
    /// sharded router this means empty *everywhere* — a worker never
    /// sees `Terminate` while any shard still holds work.
    Terminate,
    /// Sharded endgame backpressure: the requester's home shard is
    /// empty and nothing could be stolen right now (the remaining
    /// intervals are all held and too short to split), but the global
    /// computation is not over. Ask again shortly; the holders — or
    /// expiry, for crashed holders — will release the rest. A
    /// single-shard coordinator never sends this.
    Retry,
    /// Acknowledges a graceful leave.
    LeaveAck,
}
