//! Discrete-event simulator of the paper's experimental grid.
//!
//! The paper's evaluation ran on 1889 processors across 9 administrative
//! domains for 25 days — a platform we substitute with a discrete-event
//! simulation. Crucially, the simulator drives the
//! **same** [`gridbnb_core::Coordinator`] state machine as the real
//! multi-threaded runtime; only the workers and the network are
//! simulated. The protocol properties the paper reports (worker/farmer
//! exploitation, work allocations, checkpoint counts, redundancy) are
//! therefore measured on the real protocol implementation.
//!
//! * [`pool`] — the paper's Table 1 pool encoded as data;
//! * [`net`] — the Figure 6 topology as a latency model;
//! * [`volatility`] — cycle-stealing availability with the diurnal
//!   pattern of Figure 7;
//! * [`workload`] — irregular synthetic exploration effort over the root
//!   interval;
//! * [`sim`] — the event loop producing a Table-2-shaped [`sim::SimReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod net;
pub mod pool;
pub mod sim;
pub mod volatility;
pub mod workload;

pub use net::LatencyModel;
pub use pool::{paper_pool, Cluster, ClusterKind, CpuGroup, GridPool};
pub use sim::{simulate, Sample, SimConfig, SimReport};
pub use volatility::{ChurnProfile, VolatilityModel};
pub use workload::WorkloadModel;
