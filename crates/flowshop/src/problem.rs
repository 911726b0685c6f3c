//! The `Problem` implementation binding the flowshop substrate to the
//! interval-coded search tree.

use crate::bounds::{one_machine_bound, JobSet, JohnsonBound, OneMachinePool, PairSelection};
use crate::makespan::push_job;
use crate::Instance;
use gridbnb_coding::TreeShape;
use gridbnb_engine::Problem;

/// Which bounding operator the search uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundMode {
    /// The one-machine bound only (cheapest).
    OneMachine,
    /// The Johnson two-machine bound over the selected pairs.
    Johnson(PairSelection),
    /// `max(one-machine, Johnson)` — strongest, for hard instances.
    Combined(PairSelection),
}

impl Default for BoundMode {
    fn default() -> Self {
        BoundMode::Combined(PairSelection::All)
    }
}

/// The permutation flowshop as a [`Problem`] on a permutation tree:
/// depth `d` fixes the job in position `d`; rank `r` selects the `r`-th
/// (by index) still-unscheduled job.
#[derive(Clone, Debug)]
pub struct FlowshopProblem {
    instance: Instance,
    mode: BoundMode,
    /// Boxed: the pair arena would otherwise more than double the size
    /// of a problem that callers move around by value.
    johnson: Option<Box<JohnsonBound>>,
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
    /// Binds an instance with the given bounding operator.
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than 64 jobs (the remaining-set
    /// bitmask limit; every Taillard group fits), and in the Johnson
    /// modes if a job's total processing time exceeds `u32::MAX`.
    pub fn new(instance: Instance, mode: BoundMode) -> Self {
        assert!(instance.jobs() <= 64, "at most 64 jobs");
        let johnson = match &mode {
            BoundMode::OneMachine => None,
            BoundMode::Johnson(sel) | BoundMode::Combined(sel) => {
                Some(Box::new(JohnsonBound::new(&instance, sel)))
            }
        };
        FlowshopProblem {
            instance,
            mode,
            johnson,
        }
    }

    /// Binds with the default (strongest) bound.
    pub fn with_default_bound(instance: Instance) -> Self {
        FlowshopProblem::new(instance, BoundMode::default())
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The bound mode in use.
    pub fn bound_mode(&self) -> &BoundMode {
        &self.mode
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

    /// Evaluates the Johnson pairs strongest first and stops at `cutoff`;
    /// `Combined` runs the one-machine bound first and skips the Johnson
    /// pass when it already reaches `cutoff`. Below `cutoff` the value is
    /// the exact bound of the mode.
    fn lower_bound_against(&self, state: &FlowshopState, cutoff: u64) -> u64 {
        let (heads, remaining) = (&state.heads, state.remaining);
        match (&self.mode, &self.johnson) {
            (BoundMode::Johnson(_), Some(johnson)) => {
                johnson.bound_against(heads, remaining, cutoff)
            }
            (BoundMode::Combined(_), Some(johnson)) => {
                let lb1 = one_machine_bound(&self.instance, heads, remaining);
                if lb1 >= cutoff {
                    return lb1;
                }
                lb1.max(johnson.bound_against(heads, remaining, cutoff))
            }
            _ => one_machine_bound(&self.instance, heads, remaining),
        }
    }

    /// Sibling-pool kernel. When the pool is a sibling pool — every
    /// state's remaining set is one shared union minus exactly one job,
    /// which is how the pooled explorer builds them — every child starts
    /// from a seed (the one-machine bound from per-pool aggregates in
    /// `OneMachine`/`Combined` mode, the partial makespan in `Johnson`
    /// mode) and [`JohnsonBound::bound_pool`] then raises the children
    /// still below `cutoff` pair by pair, retiring each as it reaches it.
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
        if let BoundMode::Johnson(_) = self.mode {
            let last = self.instance.machines() - 1;
            out.extend(states.iter().map(|s| s.heads[last]));
        } else {
            let ctx = OneMachinePool::new(&self.instance, union);
            out.extend(
                states
                    .iter()
                    .map(|s| ctx.bound(&self.instance, &s.heads, excluded(s))),
            );
        }
        if let Some(johnson) = &self.johnson {
            let child = |i: usize| (states[i].heads.as_slice(), excluded(&states[i]));
            johnson.bound_pool(union, child, cutoff, out);
        }
    }

    fn leaf_cost(&self, state: &FlowshopState) -> u64 {
        debug_assert!(state.remaining.is_empty());
        state.heads[self.instance.machines() - 1]
    }
}
