//! The [`Transport`] abstraction: how a worker's request bundles reach
//! a coordinator, wherever it lives.
//!
//! The paper's workers are remote processes contacting the farmer over
//! the network; this workspace has *in-process* contact paths (direct
//! [`ShardRouter`] calls) and a socket path in the `gridbnb-net` crate.
//! All of them implement this one trait, so the runtime's one worker
//! state machine — and every exactness test driving it — runs
//! identically over any of them:
//!
//! | impl | where the coordinator lives | how a bundle is served |
//! |---|---|---|
//! | [`RouterTransport`] | the router (one shard or many), called directly | one [`ShardRouter::handle_bundle`] call |
//! | `LogicalClockTransport` (crate-private) | the router, on the deterministic driver's tick counter | one [`ShardRouter::handle`] (a bundle of one) per request, a tick apart |
//! | `gridbnb_net::MuxTransport` | a TCP server, possibly remote | the server's [`ShardRouter::handle_bundle`] call for the connection's burst |
//!
//! Whichever row serves it, each shard's share of a bundle is one lock
//! section that applies it with one [`crate::Coordinator::apply_batch`]
//! call, so the pinned replicable digests run the same coordinator code
//! as every other transport.
//!
//! Failures are typed, not sentinel values: a contact returns
//! [`TransportError`], whose [`TransportError::is_transient`] split
//! drives the worker's retry-with-backoff policy (a flaky socket
//! is retried; a closed coordinator or a protocol violation is not).
//!
//! A contact may also be *submitted* without waiting for its reply
//! ([`Transport::submit`]): the worker sends its periodic `Update`,
//! keeps exploring, and folds the ack in at a later slice boundary
//! through the returned [`PendingContact`]. Every in-process transport
//! answers at once ([`Submitted::Ready`]), so only a transport with a
//! real round trip — the multiplexed socket — ever overlaps.

use crate::{Request, Response, ShardRouter};
use std::cell::Cell;
use std::time::Instant;

/// A violation of the coordinator protocol itself — malformed wire
/// frames or out-of-contract message sequences. Protocol errors are
/// never transient: retrying the same exchange cannot repair a peer
/// that speaks a different dialect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// A frame did not start with the expected magic bytes.
    BadMagic {
        /// The four bytes actually read.
        got: [u8; 4],
    },
    /// The frame header carried an unsupported codec version.
    UnsupportedVersion {
        /// Version byte on the wire.
        got: u8,
        /// The one version this build speaks.
        want: u8,
    },
    /// The frame kind byte named no known message type.
    UnknownKind(u8),
    /// A declared payload length exceeded the codec's hard cap (a
    /// corrupt or hostile header; honoring it would allocate the cap).
    Oversized {
        /// Declared payload length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// The payload ended before its declared structure did, or carried
    /// values no encoder produces (bad tags, bad decimal digits, ...).
    BadPayload(String),
    /// The peer answered a request with a response variant the protocol
    /// does not allow there (e.g. a `Work` reply to an `Update`).
    UnexpectedResponse {
        /// What the request admits.
        expected: &'static str,
        /// Debug rendering of what arrived.
        got: String,
    },
    /// A bundle of `sent` requests came back with a different number of
    /// responses — the one-response-per-request contract is broken.
    ResponseCount {
        /// Requests in the bundle.
        sent: usize,
        /// Responses received.
        got: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic { got } => write!(f, "bad frame magic {got:?}"),
            ProtocolError::UnsupportedVersion { got, want } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {want})"
                )
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtocolError::Oversized { len, max } => {
                write!(
                    f,
                    "declared payload of {len} bytes exceeds the {max}-byte cap"
                )
            }
            ProtocolError::BadPayload(m) => write!(f, "bad payload: {m}"),
            ProtocolError::UnexpectedResponse { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
            ProtocolError::ResponseCount { sent, got } => {
                write!(f, "sent {sent} requests but received {got} responses")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Why a contact failed. The [`TransportError::is_transient`] split is
/// the retry contract: transient errors are worth re-sending the same
/// bundle after a backoff; permanent ones end the worker's run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The far side is gone for good: the server refused further
    /// business or the connection was shut down. This is the typed
    /// form of the old "dead transport" sentinel — normal at the end of
    /// a run, fatal in the middle of one.
    Closed,
    /// An I/O-level failure (connection reset, refused, interrupted
    /// write, ...). Transient: the coordinator may well still be there.
    Io(String),
    /// The peer did not answer within the configured deadline.
    /// Transient: a slow coordinator is not a dead one.
    Timeout,
    /// The exchange violated the protocol. Permanent.
    Protocol(ProtocolError),
}

impl TransportError {
    /// `true` iff re-sending the same bundle after a backoff could
    /// plausibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, TransportError::Io(_) | TransportError::Timeout)
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Io(m) => write!(f, "transport I/O error: {m}"),
            TransportError::Timeout => write!(f, "transport timed out"),
            TransportError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<ProtocolError> for TransportError {
    fn from(e: ProtocolError) -> Self {
        TransportError::Protocol(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                TransportError::Timeout
            }
            _ => TransportError::Io(e.to_string()),
        }
    }
}

/// One worker's path to the coordinator: send a request bundle, block
/// until the matching response bundle arrives.
///
/// The contract every implementation honors (and the wire codec's
/// property tests pin): responses come back **one per request, in
/// request order**, and a bundle is served atomically with respect to
/// other bundles on the same coordinator.
pub trait Transport {
    /// Sends `requests` as one contact and blocks for the responses.
    fn contact(&self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError>;

    /// Sends `requests` as one contact and returns without waiting for
    /// the reply when the transport can: the responses are then
    /// collected through the [`Submitted::Pending`] handle. The default
    /// is a synchronous [`Transport::contact`], already answered.
    fn submit(&self, requests: Vec<Request>) -> Submitted {
        Submitted::Ready(self.contact(requests))
    }
}

/// What [`Transport::submit`] returns: the reply itself, or a handle to
/// collect it from later.
pub enum Submitted {
    /// The contact has been answered (or has failed) already.
    Ready(Result<Vec<Response>, TransportError>),
    /// The request is on its way; the reply arrives through the handle.
    Pending(Box<dyn PendingContact>),
}

/// A submitted contact whose reply may not have arrived yet. Dropping
/// the handle abandons the reply; the request itself has been sent.
pub trait PendingContact {
    /// The reply if it has arrived, `None` if it has not. Never blocks.
    /// A reply that is overdue by the transport's own deadline is
    /// reported as [`TransportError::Timeout`], so a lost reply cannot
    /// leave its sender waiting for it forever.
    fn try_take(&mut self) -> Option<Result<Vec<Response>, TransportError>>;

    /// Blocks until the reply arrives (or the transport's deadline
    /// passes).
    fn wait(self: Box<Self>) -> Result<Vec<Response>, TransportError>;
}

/// Direct contacts: each bundle goes straight into
/// [`ShardRouter::handle_bundle`], which serves it at the worker's home
/// shard.
pub struct RouterTransport<'r> {
    router: &'r ShardRouter,
    started: Instant,
}

impl<'r> RouterTransport<'r> {
    /// A transport calling `router` directly, with contact timestamps
    /// measured from `started` (the run's injected clock origin).
    pub fn new(router: &'r ShardRouter, started: Instant) -> Self {
        RouterTransport { router, started }
    }
}

impl Transport for RouterTransport<'_> {
    fn contact(&self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        let now_ns = self.started.elapsed().as_nanos() as u64;
        Ok(self.router.handle_bundle(requests, now_ns))
    }
}

/// The deterministic driver's path to the router: `now_ns` is a
/// **logical clock** that ticks once per request, so every heartbeat
/// lands on a distinct instant and holder expiry is a function of
/// contact order, not wall time. Stale holders are expired right before
/// every request is served.
pub(crate) struct LogicalClockTransport<'r> {
    router: &'r ShardRouter,
    tick: Cell<u64>,
}

impl<'r> LogicalClockTransport<'r> {
    pub(crate) fn new(router: &'r ShardRouter) -> Self {
        LogicalClockTransport {
            router,
            tick: Cell::new(0),
        }
    }

    /// Nothing can advance at the current tick: jump to the earliest
    /// expiry instant (and expire that holder) instead of spinning one
    /// tick at a time through a logical timeout. With nothing to expire
    /// and nothing stealable, the next contact observes termination.
    pub(crate) fn fast_forward(&self) {
        match self.router.next_expiry_at() {
            Some(at) => {
                self.tick.set(self.tick.get().max(at));
                self.router.expire_stale_holders(self.tick.get());
            }
            None => self.tick.set(self.tick.get() + 1),
        }
    }
}

impl Transport for LogicalClockTransport<'_> {
    fn contact(&self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        Ok(requests
            .into_iter()
            .map(|request| {
                let tick = self.tick.get() + 1;
                self.tick.set(tick);
                self.router.expire_stale_holders(tick);
                self.router.handle(request, tick)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_split() {
        assert!(TransportError::Io("reset".into()).is_transient());
        assert!(TransportError::Timeout.is_transient());
        assert!(!TransportError::Closed.is_transient());
        assert!(
            !TransportError::Protocol(ProtocolError::UnknownKind(9)).is_transient(),
            "protocol violations must never be retried"
        );
    }

    #[test]
    fn io_error_kinds_map_to_timeout_or_io() {
        let timed_out: TransportError =
            std::io::Error::new(std::io::ErrorKind::TimedOut, "slow").into();
        assert_eq!(timed_out, TransportError::Timeout);
        let reset: TransportError =
            std::io::Error::new(std::io::ErrorKind::ConnectionReset, "rst").into();
        assert!(matches!(reset, TransportError::Io(_)));
    }
}
