//! The [`Problem`] trait: what a combinatorial optimization problem must
//! provide for the interval-coded B&B to solve it.

use gridbnb_coding::TreeShape;

/// A minimization problem whose solution space is the leaf set of a
/// regular search tree.
///
/// The trait carries the paper's §2 operators:
///
/// * **branching** — [`Problem::branch`] produces the child state
///   obtained by taking the `rank`-th branch (ranks are the birth order
///   of §3.2: rank 0 first);
/// * **bounding** — [`Problem::lower_bound`] on any internal state;
/// * **evaluation** — [`Problem::leaf_cost`] on complete states;
/// * the **selection** and **elimination** operators live in the engine
///   (depth-first selection; elimination by bound against the incumbent).
///
/// The tree must be *regular* (arity depends only on depth) so that the
/// interval coding applies; permutation problems satisfy this naturally
/// (depth `d` has `n − d` open choices).
pub trait Problem: Send + Sync {
    /// Search state attached to a tree node (e.g. a partial schedule).
    type State: Clone + Send;

    /// The shape of the search tree (arity per depth).
    fn shape(&self) -> TreeShape;

    /// The state of the root node (empty partial solution).
    fn root_state(&self) -> Self::State;

    /// The child state reached by taking branch `rank` (`0 ≤ rank <
    /// arity(depth(state))`).
    fn branch(&self, state: &Self::State, rank: u64) -> Self::State;

    /// A lower bound on the cost of every leaf below `state`. Must be
    /// admissible (never exceed the true minimum below the node):
    /// inadmissible bounds lose optimality proofs.
    fn lower_bound(&self, state: &Self::State) -> u64;

    /// Cutoff-aware variant of [`Problem::lower_bound`]: the explorer
    /// passes the current elimination threshold so that a bounding
    /// operator can stop as soon as it has proved `bound >= cutoff` —
    /// after a cheap first tier, or part-way through a maximum over many
    /// terms (the subtree is eliminated either way, so computing a
    /// stronger bound would be wasted work).
    ///
    /// The returned value must still be admissible — it only ever
    /// replaces `lower_bound` in the elimination test, never in an
    /// optimality claim. The default ignores the cutoff and delegates
    /// to [`Problem::lower_bound`].
    fn lower_bound_against(&self, state: &Self::State, cutoff: u64) -> u64 {
        let _ = cutoff;
        self.lower_bound(state)
    }

    /// Batched form of [`Problem::lower_bound_against`]: evaluate a pool
    /// of states against one cutoff, appending one bound per state to
    /// `out` (in order; `out` is cleared first).
    ///
    /// The pooled explorer calls this once per sibling pool, so problems
    /// can override it with a flat kernel that shares work across the
    /// pool (parent-level precomputation, SoA scratch, screen-then-
    /// escalate). Two contracts beyond admissibility:
    ///
    /// * exactly `states.len()` values are produced, aligned by index;
    /// * for every state, the returned bound must make the *same*
    ///   elimination decision as `lower_bound_against(state, c)` for any
    ///   `c ≤ cutoff` — i.e. `batch[i] ≥ c ⇔ scalar_i ≥ c`. Since cutoffs
    ///   only decrease as incumbents improve, this keeps a pooled search
    ///   node-for-node identical to the scalar one even though the pool
    ///   was bounded against an older (larger) cutoff. An early exit
    ///   satisfies it whenever every value it stops at is a lower bound
    ///   on the full one (a cheap tier the strong tier dominates, as
    ///   Gilmore–Lawler dominates the QAP screen, or a partial maximum,
    ///   as in the flowshop Johnson kernel) and a value below `cutoff`
    ///   is the full one.
    ///
    /// The default loops the scalar operator.
    fn lower_bound_batch(&self, states: &[Self::State], cutoff: u64, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(states.len());
        for state in states {
            out.push(self.lower_bound_against(state, cutoff));
        }
    }

    /// The exact cost of a complete (leaf-depth) state.
    fn leaf_cost(&self, state: &Self::State) -> u64;
}

/// A complete solution: the branch ranks from root to leaf, plus cost.
///
/// Ranks are domain-independent (they are the factoradic digits of the
/// leaf number); each problem knows how to decode them — e.g. the
/// flowshop crate turns them back into a job permutation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Solution {
    /// Cost of the leaf (the objective value).
    pub cost: u64,
    /// Branch ranks from the root (length = leaf depth).
    pub leaf_ranks: Vec<u64>,
}

impl Solution {
    /// Creates a solution record.
    pub fn new(cost: u64, leaf_ranks: Vec<u64>) -> Self {
        Solution { cost, leaf_ranks }
    }
}

impl std::fmt::Display for Solution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cost {} via ranks [", self.cost)?;
        for (i, r) in self.leaf_ranks.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}
