//! The vetted workload catalogue: which instances each workload solves,
//! how the runtime is configured for it, and the optimum it must prove.
//!
//! B&B hardness varies a hundredfold with the instance seed, so each
//! workload's row is chosen and sized by hand (1.5–4.5 s per repetition
//! on the 2-core sandbox) and pins its optimum; `--seed` does not draw
//! instances. The program under test only ever sees the generated
//! inputs.

use gridbnb_engine::toy::FullEnumeration;
use gridbnb_flowshop::bounds::PairSelection;
use gridbnb_flowshop::ig::{iterated_greedy, IgParams};
use gridbnb_flowshop::{taillard, BoundMode, FlowshopProblem};
use gridbnb_qap::greedy::{greedy_upper_bound, GreedyParams};
use gridbnb_qap::{Bound, QapInstance, QapProblem};

/// Worker threads in every workload: one per core of the sandbox.
pub const WORKERS: usize = 2;

/// One generated instance family member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instance {
    /// `taillard::generate(jobs, machines, time_seed)`, Johnson bound
    /// over all machine pairs.
    Flowshop {
        jobs: usize,
        machines: usize,
        time_seed: i64,
    },
    /// `QapInstance::nugent_style(rows, cols, seed)`, Gilmore–Lawler.
    Qap { rows: usize, cols: usize, seed: u64 },
    /// `FullEnumeration::new(n)`: zero-cost bound, no pruning.
    Enumeration { n: usize },
}

/// Where the initial upper bound of a solve comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitialBound {
    /// None: the search starts unbounded.
    None,
    /// The family's construction heuristic (iterated greedy for
    /// flowshop, greedy + pairwise exchange for QAP) plus one, so the
    /// search still has to find the optimum itself.
    HeuristicPlusOne,
}

/// How the campaign reaches its coordinator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `runtime::run` with this many shards (1 = the classic
    /// farmer-channel path every default user gets).
    InProcess { shards: usize },
    /// Loopback TCP to a `NetServer` journaling into a write-ahead log,
    /// fleet multiplexed over one connection.
    TcpDurable { shards: usize },
}

/// One catalogue row: the instances solved back to back in one
/// repetition, and the sum of their optima.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// First instance of the row.
    pub first: Instance,
    /// How many instances the row holds; instance `k` is `first` with
    /// its generator seed advanced by `k`.
    pub count: usize,
    /// Sum of the proven optima of the row's instances.
    pub optimum_sum: u64,
}

impl Row {
    const fn single(first: Instance, optimum: u64) -> Row {
        Row {
            first,
            count: 1,
            optimum_sum: optimum,
        }
    }

    /// The row's instances, in catalogue order.
    pub fn instances(&self) -> Vec<Instance> {
        (0..self.count)
            .map(|k| match self.first {
                Instance::Flowshop {
                    jobs,
                    machines,
                    time_seed,
                } => Instance::Flowshop {
                    jobs,
                    machines,
                    time_seed: time_seed + k as i64,
                },
                Instance::Qap { rows, cols, seed } => Instance::Qap {
                    rows,
                    cols,
                    seed: seed + k as u64,
                },
                Instance::Enumeration { n } => Instance::Enumeration { n },
            })
            .collect()
    }
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
    pub path: Path,
    /// Node visits between two coordinator contacts.
    pub poll_nodes: u64,
    pub initial_bound: InitialBound,
    /// The instances every run solves.
    pub row: Row,
    /// The smallest sibling of the row: solved by the catalogue test
    /// and by `--tiny` runs, in milliseconds.
    pub tiny: Row,
}

const fn fs(jobs: usize, machines: usize, time_seed: i64) -> Instance {
    Instance::Flowshop {
        jobs,
        machines,
        time_seed,
    }
}

/// Every workload, in reporting order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fs_proof",
        why: "flowshop 14x20 proof: the Johnson bound kernel does nearly all the work, the coordinator almost none",
        path: Path::InProcess { shards: 2 },
        poll_nodes: 2_000,
        initial_bound: InitialBound::HeuristicPlusOne,
        row: Row::single(fs(14, 20, 3), 1836),
        tiny: Row::single(fs(8, 5, 3), 537),
    },
    Workload {
        name: "qap_proof",
        why: "QAP n=13 proof: the second bound kernel (Gilmore-Lawler via LAP), so a gain for one family that costs the other shows",
        path: Path::InProcess { shards: 2 },
        poll_nodes: 500,
        initial_bound: InitialBound::HeuristicPlusOne,
        row: Row::single(
            Instance::Qap {
                rows: 1,
                cols: 13,
                seed: 2,
            },
            2420,
        ),
        tiny: Row::single(
            Instance::Qap {
                rows: 2,
                cols: 3,
                seed: 2,
            },
            190,
        ),
    },
    Workload {
        name: "enum_explore",
        why: "full enumeration of 11! with a zero-cost bound: explorer, interval coding and bigint are the whole cost",
        path: Path::InProcess { shards: 2 },
        poll_nodes: 20_000,
        initial_bound: InitialBound::None,
        row: Row::single(Instance::Enumeration { n: 11 }, 1),
        tiny: Row::single(Instance::Enumeration { n: 7 }, 34),
    },
    Workload {
        name: "enum_contacts",
        why: "10! through the default farmer-channel path with 49k contacts: worker loop, transport and coordinator dominate",
        path: Path::InProcess { shards: 1 },
        poll_nodes: 200,
        initial_bound: InitialBound::None,
        row: Row::single(Instance::Enumeration { n: 10 }, 1),
        tiny: Row::single(Instance::Enumeration { n: 7 }, 34),
    },
    Workload {
        name: "tcp_durable",
        why: "the same 49k contacts over loopback TCP into a journaling server: wire codec, handlers, WAL and storage do the work",
        path: Path::TcpDurable { shards: 2 },
        poll_nodes: 200,
        initial_bound: InitialBound::None,
        row: Row::single(Instance::Enumeration { n: 10 }, 1),
        tiny: Row::single(Instance::Enumeration { n: 7 }, 34),
    },
    Workload {
        name: "small_batch",
        why: "40 flowshop 10x5 solves back to back: start-up, termination detection and thread churn dominate, search is under 10%",
        path: Path::InProcess { shards: 1 },
        poll_nodes: 2_000,
        initial_bound: InitialBound::None,
        row: Row {
            first: fs(10, 5, 1),
            count: 40,
            optimum_sum: 28_271,
        },
        tiny: Row {
            first: fs(7, 5, 1),
            count: 2,
            optimum_sum: 1_016,
        },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated instance bound to its problem type.
pub enum Built {
    Flowshop(FlowshopProblem),
    Qap(QapProblem),
    Enumeration(FullEnumeration),
}

/// Calls a generic function on the concrete problem inside a [`Built`].
#[macro_export]
macro_rules! with_problem {
    ($built:expr, |$p:ident| $body:expr) => {
        match $built {
            $crate::catalogue::Built::Flowshop($p) => $body,
            $crate::catalogue::Built::Qap($p) => $body,
            $crate::catalogue::Built::Enumeration($p) => $body,
        }
    };
}

/// Generates `instance` and, when asked, its heuristic upper bound.
/// This is the per-instance share of `setup_s`.
pub fn build(instance: Instance, initial_bound: InitialBound) -> (Built, Option<u64>) {
    let heuristic = initial_bound == InitialBound::HeuristicPlusOne;
    match instance {
        Instance::Flowshop {
            jobs,
            machines,
            time_seed,
        } => {
            let generated = taillard::generate(jobs, machines, time_seed);
            let bound = heuristic.then(|| iterated_greedy(&generated, &IgParams::default()).1 + 1);
            let problem = FlowshopProblem::new(generated, BoundMode::Johnson(PairSelection::All));
            (Built::Flowshop(problem), bound)
        }
        Instance::Qap { rows, cols, seed } => {
            let generated = QapInstance::nugent_style(rows, cols, seed);
            let bound =
                heuristic.then(|| greedy_upper_bound(&generated, &GreedyParams::default()).1 + 1);
            let problem = QapProblem::new(generated, Bound::GilmoreLawler);
            (Built::Qap(problem), bound)
        }
        Instance::Enumeration { n } => (Built::Enumeration(FullEnumeration::new(n)), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridbnb_engine::solve;

    /// Keeps the pinned constants honest where it is cheap to: every
    /// workload's smallest sibling is solved and compared. (The full
    /// row is checked on every benchmark repetition.)
    #[test]
    fn tiny_siblings_prove_their_pinned_optima() {
        for workload in WORKLOADS {
            let mut sum = 0;
            for instance in workload.tiny.instances() {
                let (built, bound) = build(instance, workload.initial_bound);
                let report = with_problem!(&built, |p| solve(p, bound));
                sum += report
                    .proven_optimum(bound)
                    .expect("a finished search proves an optimum");
            }
            assert_eq!(sum, workload.tiny.optimum_sum, "{}", workload.name);
        }
    }

    #[test]
    fn rows_expand_to_consecutive_generator_seeds() {
        let batch = workload("small_batch").unwrap();
        let instances = batch.row.instances();
        assert_eq!(instances.len(), 40);
        assert_eq!(instances[0], fs(10, 5, 1));
        assert_eq!(instances[39], fs(10, 5, 40));
        assert!(workload("nope").is_none());
    }
}
