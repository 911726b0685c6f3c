//! The `Problem` implementation binding the flowshop substrate to the
//! interval-coded search tree.

use crate::bounds::{JobSet, JohnsonBound, PairSelection};
use crate::makespan::push_job;
use crate::Instance;
use gridbnb_coding::TreeShape;
use gridbnb_engine::Problem;

/// The bounding operator: the Johnson two-machine bound over every
/// machine pair, the only one. Kept as the argument of
/// [`FlowshopProblem::new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundMode {
    /// The Johnson two-machine bound over all machine pairs.
    Johnson(PairSelection),
}

/// The permutation flowshop as a [`Problem`] on a permutation tree:
/// depth `d` fixes the job in position `d`; rank `r` selects the `r`-th
/// (by index) still-unscheduled job.
#[derive(Clone, Debug)]
pub struct FlowshopProblem {
    instance: Instance,
    /// Boxed: the pair arena would otherwise more than double the size
    /// of a problem that callers move around by value.
    johnson: Box<JohnsonBound>,
}

/// Search state: machine heads of the scheduled prefix plus the remaining
/// job set. The prefix itself is implied by the tree path (the engine
/// carries ranks), so states stay small.
#[derive(Clone, Debug)]
pub struct FlowshopState {
    heads: Vec<u64>,
    remaining: JobSet,
}

impl FlowshopProblem {
    /// Binds an instance with the Johnson bound over all machine pairs,
    /// the one value of `mode`.
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than 64 jobs (the remaining-set
    /// bitmask limit; every Taillard group fits), or if a job's total
    /// processing time exceeds `u32::MAX`.
    pub fn new(instance: Instance, mode: BoundMode) -> Self {
        let BoundMode::Johnson(PairSelection::All) = mode;
        FlowshopProblem {
            johnson: Box::new(JohnsonBound::new(&instance)),
            instance,
        }
    }

    /// Binds with the Johnson bound over all machine pairs, as
    /// [`FlowshopProblem::new`] does.
    pub fn with_default_bound(instance: Instance) -> Self {
        FlowshopProblem::new(instance, BoundMode::Johnson(PairSelection::All))
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Decodes branch ranks (as reported in engine `Solution`s) into the
    /// job permutation they represent.
    pub fn decode_ranks(&self, ranks: &[u64]) -> Vec<usize> {
        let mut remaining = JobSet::full(self.instance.jobs());
        ranks
            .iter()
            .map(|&r| {
                let job = remaining.nth(r);
                remaining = remaining.without(job);
                job
            })
            .collect()
    }

    /// Encodes a job permutation into branch ranks — the inverse of
    /// [`FlowshopProblem::decode_ranks`]. Useful to locate a known
    /// schedule (like the paper's published Ta056 optimum) in the tree.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is not a permutation of `0..jobs`.
    pub fn encode_schedule(&self, schedule: &[usize]) -> Vec<u64> {
        assert_eq!(schedule.len(), self.instance.jobs(), "not a permutation");
        let mut remaining = JobSet::full(self.instance.jobs());
        schedule
            .iter()
            .map(|&job| {
                let rank = remaining
                    .iter()
                    .position(|j| j == job)
                    .expect("job repeated or out of range") as u64;
                remaining = remaining.without(job);
                rank
            })
            .collect()
    }
}

impl Problem for FlowshopProblem {
    type State = FlowshopState;

    fn shape(&self) -> TreeShape {
        TreeShape::permutation(self.instance.jobs())
    }

    fn root_state(&self) -> FlowshopState {
        FlowshopState {
            heads: vec![0; self.instance.machines()],
            remaining: JobSet::full(self.instance.jobs()),
        }
    }

    fn branch(&self, state: &FlowshopState, rank: u64) -> FlowshopState {
        let job = state.remaining.nth(rank);
        let mut heads = state.heads.clone();
        push_job(&self.instance, &mut heads, job);
        FlowshopState {
            heads,
            remaining: state.remaining.without(job),
        }
    }

    fn lower_bound(&self, state: &FlowshopState) -> u64 {
        self.lower_bound_against(state, u64::MAX)
    }

    /// Evaluates the Johnson pairs strongest first and stops at `cutoff`.
    /// Below `cutoff` the value is the exact bound.
    fn lower_bound_against(&self, state: &FlowshopState, cutoff: u64) -> u64 {
        self.johnson
            .bound_against(&state.heads, state.remaining, cutoff)
    }

    /// Sibling-pool kernel. When the pool is a sibling pool — every
    /// state's remaining set is one shared union minus exactly one job,
    /// which is how the pooled explorer builds them — every child starts
    /// from its partial makespan and [`JohnsonBound::bound_pool`] then
    /// raises the children still below `cutoff` pair by pair, retiring
    /// each as it reaches it.
    ///
    /// A value below `cutoff` is the exact scalar bound; a value at or
    /// above it may be smaller than the exact bound but still eliminates
    /// the child, so every decision under a cutoff `≤ cutoff` matches the
    /// scalar operator.
    fn lower_bound_batch(&self, states: &[FlowshopState], cutoff: u64, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(states.len());
        let union = JobSet(states.iter().fold(0u64, |acc, s| acc | s.remaining.0));
        let siblings = union.len() >= 2
            && states.len() <= 64
            && states
                .iter()
                .all(|s| (union.0 & !s.remaining.0).count_ones() == 1);
        if !siblings {
            // Not a recognizable sibling pool (or too small to share
            // anything): scalar loop.
            for s in states {
                out.push(self.lower_bound_against(s, cutoff));
            }
            return;
        }
        let excluded = |s: &FlowshopState| (union.0 & !s.remaining.0).trailing_zeros() as usize;
        let last = self.instance.machines() - 1;
        out.extend(states.iter().map(|s| s.heads[last]));
        let child = |i: usize| (states[i].heads.as_slice(), excluded(&states[i]));
        self.johnson.bound_pool(union, child, cutoff, out);
    }

    fn leaf_cost(&self, state: &FlowshopState) -> u64 {
        debug_assert!(state.remaining.is_empty());
        state.heads[self.instance.machines() - 1]
    }
}
