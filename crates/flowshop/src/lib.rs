//! Permutation flowshop substrate for the grid-enabled branch and bound.
//!
//! Everything the paper's evaluation (§5) needs from the application
//! side:
//!
//! * [`Instance`] — processing-time matrices, including the classic
//!   Taillard text format;
//! * [`taillard`] — Taillard's 1993 benchmark generator (LCG + published
//!   seeds), providing **Ta056**, the 50×20 instance the paper solved
//!   exactly for the first time (optimum 3679);
//! * [`makespan`] — schedule evaluation and machine-head bookkeeping;
//! * [`bounds`] — the bounding operator: the Johnson-rule two-machine
//!   bound of Lageweg–Lenstra–Rinnooy Kan over every machine pair, with
//!   the one-machine bound as its scalar reference;
//! * [`neh`] / [`ig`] — NEH constructive heuristic and the Ruiz–Stützle
//!   iterated greedy, which supplied the paper's initial upper bound
//!   (3681);
//! * [`FlowshopProblem`] — the `gridbnb_engine::Problem` implementation
//!   binding all of it to the interval-coded search tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod ig;
mod instance;
pub mod makespan;
pub mod neh;
mod problem;
pub mod taillard;

pub use instance::Instance;
pub use problem::{BoundMode, FlowshopProblem};

pub use gridbnb_engine::{Problem, Solution};
