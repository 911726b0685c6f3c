//! The `Problem` implementation binding the QAP substrate to the
//! interval-coded search tree: depth `d` of the permutation tree assigns
//! facility `d` to the `rank`-th still-free location.

use crate::bounds::{gilmore_lawler_bound, Bound, GlPath, GlPool, GlRowCache};
use crate::instance::{QapInstance, MAX_N};
use gridbnb_coding::TreeShape;
use gridbnb_engine::Problem;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`QapProblem`] ids; `0` is never handed out. Only
/// uniqueness matters, so the counter publishes nothing else.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's Gilmore–Lawler search path, bound to whichever
    /// problem last bounded a pool on the thread. Empty until then.
    static PATH: RefCell<GlPath> = const { RefCell::new(GlPath::new()) };
}

/// The QAP as a [`Problem`] bounded by Gilmore–Lawler.
#[derive(Clone, Debug)]
pub struct QapProblem {
    instance: QapInstance,
    /// Per-depth sorted out-flow rows, precomputed once so no GL
    /// evaluation ever re-sorts a flow row (the search places facility
    /// `d` at depth `d`, which is exactly the cache's convention).
    gl_rows: GlRowCache,
    /// Keys this problem's pools on each thread's [`GlPath`]: unique per
    /// [`QapProblem::new`], shared by clones (which bound the same
    /// instance).
    id: u64,
}

/// Search state: partial placement and running interaction cost. Fixed
/// size, so branching allocates nothing.
#[derive(Clone, Debug)]
pub struct QapState {
    /// `placement[i]` for facilities `i < depth`.
    placement: [u16; MAX_N],
    /// Placed facilities.
    depth: u8,
    /// Bitmask of used locations.
    used: u64,
    /// Exact cost of placed–placed interactions.
    cost: u64,
}

impl QapProblem {
    /// Binds an instance with the Gilmore–Lawler bound, the one value of
    /// `bound`.
    pub fn new(instance: QapInstance, bound: Bound) -> Self {
        let Bound::GilmoreLawler = bound;
        let gl_rows = GlRowCache::new(&instance);
        QapProblem {
            instance,
            gl_rows,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Binds with the Gilmore–Lawler bound, as [`QapProblem::new`] does.
    pub fn with_default_bound(instance: QapInstance) -> Self {
        QapProblem::new(instance, Bound::default())
    }

    /// The wrapped instance.
    pub fn instance(&self) -> &QapInstance {
        &self.instance
    }

    /// Decodes engine ranks into a placement vector.
    pub fn decode_ranks(&self, ranks: &[u64]) -> Vec<usize> {
        let mut used = 0u64;
        ranks
            .iter()
            .map(|&r| {
                let loc = nth_free(self.instance.n(), used, r);
                used |= 1 << loc;
                loc
            })
            .collect()
    }

    /// Encodes a placement into branch ranks — the inverse of
    /// [`QapProblem::decode_ranks`]. Useful to locate a heuristic
    /// solution (e.g. the greedy upper bound) in the tree.
    ///
    /// # Panics
    ///
    /// Panics if `placement` is not a permutation of `0..n`.
    pub fn encode_placement(&self, placement: &[usize]) -> Vec<u64> {
        let n = self.instance.n();
        assert_eq!(placement.len(), n, "not a permutation");
        let mut used = 0u64;
        placement
            .iter()
            .map(|&loc| {
                assert!(loc < n && used & (1 << loc) == 0, "not a permutation");
                let rank = (0..loc).filter(|l| used & (1 << l) == 0).count() as u64;
                used |= 1 << loc;
                rank
            })
            .collect()
    }
}

impl QapState {
    /// `placement[i]` for the placed facilities `i`.
    fn placement(&self) -> &[u16] {
        &self.placement[..usize::from(self.depth)]
    }
}

fn nth_free(n: usize, used: u64, rank: u64) -> usize {
    let mut seen = 0;
    for l in 0..n {
        if used & (1 << l) == 0 {
            if seen == rank {
                return l;
            }
            seen += 1;
        }
    }
    unreachable!("rank exceeds free location count")
}

impl Problem for QapProblem {
    type State = QapState;

    fn shape(&self) -> TreeShape {
        TreeShape::permutation(self.instance.n())
    }

    fn root_state(&self) -> QapState {
        QapState {
            placement: [0; MAX_N],
            depth: 0,
            used: 0,
            cost: 0,
        }
    }

    fn branch(&self, state: &QapState, rank: u64) -> QapState {
        let n = self.instance.n();
        let facility = usize::from(state.depth);
        let location = nth_free(n, state.used, rank);
        let mut cost = state.cost
            + self.instance.flow(facility, facility) * self.instance.dist(location, location);
        for (other, &loc) in state.placement().iter().enumerate() {
            // Both directions of the (symmetric or not) flow matrix.
            cost += self.instance.flow(other, facility)
                * self.instance.dist(loc as usize, location)
                + self.instance.flow(facility, other) * self.instance.dist(location, loc as usize);
        }
        let mut placement = state.placement;
        placement[facility] = location as u16;
        QapState {
            placement,
            depth: state.depth + 1,
            used: state.used | (1 << location),
            cost,
        }
    }

    fn lower_bound(&self, state: &QapState) -> u64 {
        self.lower_bound_against(state, u64::MAX)
    }

    /// One child, one pool: the Gilmore–Lawler path builds its parent's
    /// [`GlPool`] and bounds the state as that pool's only child. The
    /// root has no parent; its single evaluation goes through the
    /// reference [`gilmore_lawler_bound`]. The pool is built cold, off
    /// the thread's [`GlPath`]: this is the reference the pooled path is
    /// checked against.
    fn lower_bound_against(&self, state: &QapState, cutoff: u64) -> u64 {
        let (placement, used, cost) = (state.placement(), state.used, state.cost);
        match placement.split_last() {
            None => gilmore_lawler_bound(&self.instance, placement, used, cost),
            Some((&location, prefix)) => GlPool::new(
                &self.instance,
                &self.gl_rows,
                prefix,
                used & !(1 << location),
                None,
            )
            .bound(&self.instance, location as usize, cost, cutoff),
        }
    }

    /// Pool kernel. When the pool is a sibling pool (every placement is
    /// one shared parent prefix plus a distinct last location, which is
    /// how the pooled explorer builds them), the parent-level [`GlPool`] is
    /// built once, and its children each pay an O(u²) cost matrix and a
    /// LAP that stops at the cutoff. The pool runs on the thread's
    /// [`GlPath`]: it extends its parent pool's placed sums
    /// and starts each child's LAP from its parent's exact duals when the
    /// path holds them. Every value is the scalar one below the cutoff
    /// and at least the cutoff otherwise, so the elimination decisions
    /// match the scalar operator exactly.
    fn lower_bound_batch(&self, states: &[QapState], cutoff: u64, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(states.len());
        let siblings = states.split_first().and_then(|(first, rest)| {
            let (&last, prefix) = first.placement().split_last()?;
            let parent_used = first.used & !(1 << last);
            let ok = rest.iter().all(|s| {
                s.placement()
                    .split_last()
                    .is_some_and(|(&last, p)| p == prefix && s.used == parent_used | (1 << last))
            });
            ok.then_some((prefix, parent_used))
        });
        let Some((prefix, parent_used)) = siblings else {
            for s in states {
                out.push(self.lower_bound_against(s, cutoff));
            }
            return;
        };
        let location = |s: &QapState| s.placement[prefix.len()] as usize;
        PATH.with_borrow_mut(|path| {
            path.bind(self.id, self.instance.n());
            let mut pool = GlPool::new(
                &self.instance,
                &self.gl_rows,
                prefix,
                parent_used,
                Some(path),
            );
            out.extend(
                states
                    .iter()
                    .map(|s| pool.bound(&self.instance, location(s), s.cost, cutoff)),
            );
        });
    }

    fn leaf_cost(&self, state: &QapState) -> u64 {
        debug_assert_eq!(usize::from(state.depth), self.instance.n());
        state.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_path_key_and_new_problems_take_their_own() {
        let a = QapProblem::with_default_bound(QapInstance::random(5, 1));
        let again = QapProblem::with_default_bound(a.instance().clone());
        assert_ne!(a.id, 0, "0 marks an unbound path");
        assert_eq!(a.clone().id, a.id);
        assert_ne!(again.id, a.id);
    }
}
