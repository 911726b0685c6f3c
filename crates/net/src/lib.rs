//! The network service layer: the coordinator protocol of
//! `gridbnb-core` served over real TCP sockets.
//!
//! The paper's deployment is inherently networked — workers on grid
//! nodes contact the farmer over the wire, pull-model, through
//! firewalls. The in-process runtime reproduces the *protocol*; this
//! crate reproduces the *deployment shape*:
//!
//! * [`wire`] — a versioned, length-prefixed binary frame codec for
//!   request/response bundles. Big integers ride as the checkpoint
//!   codec's decimal text, so disk and wire share one exact format.
//! * [`NetServer`] — a `std::net::TcpListener` front for a
//!   [`gridbnb_core::ShardRouter`] hosted by the runtime's
//!   [`gridbnb_core::runtime::Farmer`]: a thread per connection,
//!   read/write timeouts, holder-expiry supervision, graceful drain on
//!   implicit termination. Each burst of frames buffered on a connection is
//!   folded into one [`gridbnb_core::ShardRouter::handle_bundle`] call,
//!   the router's one serving path (an in-process contact takes it
//!   too).
//! * [`MuxClient`] — the client side: one socket per host, pipelining a
//!   whole fleet's contacts, whose bursts become those shared
//!   coordinator bundles. Its [`MuxTransport`] handles implement
//!   [`gridbnb_core::Transport`], so the unchanged worker loop
//!   (`gridbnb_core::runtime::run_workers`) drives a remote coordinator
//!   exactly as it drives an in-process one.
//!
//! Everything is hand-rolled on `std::net` blocking I/O and threads —
//! no async runtime, matching the workspace's no-external-dependency
//! rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{
    query_metrics, query_status, run_workers_over_socket, ClientMode, ClientOptions, MuxClient,
    MuxTransport,
};
pub use server::{NetServer, ServerConfig, ServerError, ServerHandle, ServerReport};
pub use wire::{Frame, RunStatus};
