//! # gridbnb — grid-enabled branch and bound with interval-coded work units
//!
//! A from-scratch Rust reproduction of M. Mezmaz, N. Melab and E-G.
//! Talbi, *A Grid-enabled Branch and Bound Algorithm for Solving
//! Challenging Combinatorial Optimization Problems* (INRIA RR-5945 /
//! IPDPS 2007) — the system that produced the first exact resolution of
//! Taillard's Ta056 flowshop instance (makespan 3679) on a 1889-processor
//! nation-wide grid.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`bigint`] | `gridbnb-bigint` | arbitrary-precision integers (50! sized node numbers) |
//! | [`coding`] | `gridbnb-coding` | node weight/number/range, fold & unfold operators |
//! | [`engine`] | `gridbnb-engine` | `Problem` trait + interval-restricted DFS explorer |
//! | [`flowshop`] | `gridbnb-flowshop` | Taillard instances, makespan, bounds, NEH, iterated greedy |
//! | [`tsp`] | `gridbnb-tsp` | TSP as a second `Problem` |
//! | [`qap`] | `gridbnb-qap` | QAP campaign: Nugent-style instances, LAP, Gilmore–Lawler bounds, greedy |
//! | [`core`] | `gridbnb-core` | coordinator, pull protocol, write-ahead log, thread runtime |
//! | [`net`] | `gridbnb-net` | the protocol over real TCP: wire codec, socket server, client transports |
//! | [`grid`] | `gridbnb-grid` | discrete-event simulator of the paper's grid |
//!
//! ## Quickstart
//!
//! ```
//! use gridbnb::core::runtime::{run, RuntimeConfig};
//! use gridbnb::flowshop::{taillard, FlowshopProblem};
//!
//! // An exactly-solvable Taillard-like instance: 9 jobs × 4 machines.
//! let instance = taillard::generate(9, 4, 1234);
//! let problem = FlowshopProblem::with_default_bound(instance);
//! let report = run(&problem, &RuntimeConfig::new(4));
//! println!(
//!     "optimum {:?} after {} nodes across {} work units",
//!     report.proven_optimum,
//!     report.total_explored(),
//!     report.coordinator_stats.work_allocations,
//! );
//! assert!(report.proven_optimum.is_some());
//! ```
//!
//! ## QAP campaign quickstart
//!
//! The same engine/coordinator/shard stack solves a third problem
//! unchanged — here a Nugent-style quadratic assignment instance,
//! upper-bounded by greedy + pairwise exchange and proven optimal
//! through a sharded run:
//!
//! ```
//! use gridbnb::core::runtime::{run, RuntimeConfig};
//! use gridbnb::qap::greedy::{greedy_upper_bound, GreedyParams};
//! use gridbnb::qap::{QapInstance, QapProblem};
//!
//! // Six facilities on a 2×3 grid with Manhattan distances.
//! let instance = QapInstance::nugent_style(2, 3, 42);
//! let (_, ub) = greedy_upper_bound(&instance, &GreedyParams::default());
//! let problem = QapProblem::with_default_bound(instance);
//! let config = RuntimeConfig::new(2)
//!     .with_shards(2)
//!     .with_initial_upper_bound(ub + 1);
//! let report = run(&problem, &config);
//! let optimum = report.proven_optimum.expect("greedy+1 bounds the space");
//! assert!(optimum <= ub);
//! ```

pub use gridbnb_bigint as bigint;
pub use gridbnb_coding as coding;
pub use gridbnb_core as core;
pub use gridbnb_engine as engine;
pub use gridbnb_flowshop as flowshop;
pub use gridbnb_grid as grid;
pub use gridbnb_net as net;
pub use gridbnb_qap as qap;
pub use gridbnb_tsp as tsp;
