//! Lockstep verification harness: drive a pooled and a scalar explorer
//! over the same interval and assert they are node-for-node identical.
//!
//! The pooled explorer batches bound evaluations through
//! [`Problem::lower_bound_batch`], possibly against an older (larger)
//! cutoff than the scalar explorer uses at consumption time. The batch
//! contract (see [`Problem::lower_bound_batch`]) promises identical
//! elimination *decisions* anyway; this module is how each problem crate
//! property-tests that its kernel actually honors the promise — on
//! budgeted slices, under mid-run `shrink_end`, down to every counter.

use crate::{IntervalExplorer, Problem, SearchStats};
use gridbnb_coding::{Interval, TreeShape, UBig};

/// Mid-run interference applied identically to both explorers between
/// `run` slices, exercising the paths a real worker hits.
#[derive(Clone, Copy, Debug)]
pub struct Interference {
    /// Every `period` slices (0 = never), shrink both ends to keep
    /// `keep_num/keep_den` of the live remainder — the coordinator
    /// stealing the tail, possibly mid-pool.
    pub shrink_period: usize,
    /// Numerator of the kept fraction on a shrink.
    pub keep_num: u64,
    /// Denominator of the kept fraction on a shrink (0 treated as 1).
    pub keep_den: u64,
    /// External incumbent cost observed after the first slice (solution
    /// sharing, rule 3), `u64::MAX` = none.
    pub external_cutoff: u64,
}

impl Default for Interference {
    /// No interference: never shrink, no external incumbent.
    fn default() -> Self {
        Interference {
            shrink_period: 0,
            keep_num: 1,
            keep_den: 1,
            external_cutoff: u64::MAX,
        }
    }
}

/// Runs a pooled and a scalar explorer over `interval` in `slice`-sized
/// budget slices and panics on the first divergence.
///
/// Checked after every slice: live interval endpoints, exhaustion flag,
/// elimination cutoff, best solution (cost *and* leaf ranks), and the
/// traversal counters of [`SearchStats`] — `explored`, `branched`,
/// `pruned`, `leaves`, `improvements`, `bound_calls`. The batching
/// counters (`nodes_bounded`, `bound_batches`) are intentionally *not*
/// compared: they describe how bounds were computed, not what the search
/// did.
///
/// Progress is checked too: a walk that visits more than
/// [`node_budget`] nodes fails instead of spinning. Slices are capped
/// just above the budget, so a walk that never ends trips the check
/// after one slice.
///
/// Returns the final stats of the pooled run for callers that want to
/// assert problem-specific facts on top.
pub fn assert_pooled_matches_scalar<P: Problem>(
    problem: &P,
    interval: &Interval,
    initial_cutoff: Option<u64>,
    slice: u64,
    interference: Interference,
) -> SearchStats {
    let budget = node_budget(&problem.shape(), interval);
    let slice = slice.clamp(1, budget.saturating_add(1));
    let mut pooled = IntervalExplorer::with_pooling(problem, interval, initial_cutoff, true);
    let mut scalar = IntervalExplorer::with_pooling(problem, interval, initial_cutoff, false);
    let mut slices = 0usize;
    loop {
        let a = pooled.run(slice);
        let b = scalar.run(slice);
        assert_eq!(a, b, "run outcome diverged at slice {slices}");
        slices += 1;
        if slices == 1 && interference.external_cutoff != u64::MAX {
            pooled.observe_external_cutoff(interference.external_cutoff);
            scalar.observe_external_cutoff(interference.external_cutoff);
        }
        if interference.shrink_period > 0 && slices.is_multiple_of(interference.shrink_period) {
            let live = scalar.current_interval();
            let keep = live
                .length()
                .mul_div_floor(interference.keep_num, interference.keep_den.max(1));
            let new_end = live.begin().add(&keep);
            pooled.shrink_end(&new_end);
            scalar.shrink_end(&new_end);
        }
        assert_lockstep(&pooled, &scalar, slices);
        assert!(
            pooled.stats().explored <= budget,
            "{} nodes visited after slice {slices}, beyond the walk's budget of {budget}",
            pooled.stats().explored
        );
        if pooled.is_exhausted() && scalar.is_exhausted() {
            return *pooled.stats();
        }
    }
}

/// The most nodes a correct walk over `interval` can visit:
/// `len·(d + 1)` for `len` leaves in a tree of leaf depth `d`
/// (saturating at `u64::MAX`). At each depth the nodes a walk visits
/// are disjoint and each holds a leaf of the interval, so a depth
/// contributes at most `len`; the `+ 1` leaves room for the root.
pub fn node_budget(shape: &TreeShape, interval: &Interval) -> u64 {
    interval
        .length()
        .mul_u64(shape.leaf_depth() as u64 + 1)
        .to_u64()
        .unwrap_or(u64::MAX)
}

fn assert_lockstep<P: Problem>(
    pooled: &IntervalExplorer<'_, P>,
    scalar: &IntervalExplorer<'_, P>,
    slices: usize,
) {
    assert_eq!(
        pooled.position(),
        scalar.position(),
        "position diverged after slice {slices}"
    );
    assert_eq!(
        pooled.end(),
        scalar.end(),
        "end diverged after slice {slices}"
    );
    assert_eq!(
        pooled.is_exhausted(),
        scalar.is_exhausted(),
        "exhaustion diverged after slice {slices}"
    );
    assert_eq!(
        pooled.cutoff(),
        scalar.cutoff(),
        "cutoff diverged after slice {slices}"
    );
    assert_eq!(
        pooled.best(),
        scalar.best(),
        "best solution diverged after slice {slices}"
    );
    let (p, s) = (pooled.stats(), scalar.stats());
    let traversal = |st: &SearchStats| {
        (
            st.explored,
            st.branched,
            st.pruned,
            st.leaves,
            st.improvements,
            st.bound_calls,
        )
    };
    assert_eq!(
        traversal(p),
        traversal(s),
        "traversal counters diverged after slice {slices}"
    );
    // Scalar mode evaluates exactly the bounds it consumes.
    assert_eq!(s.nodes_bounded, s.bound_calls, "scalar nodes_bounded");
    // Pooled mode never evaluates fewer than it consumes.
    assert!(p.nodes_bounded >= p.bound_calls, "pooled nodes_bounded");
}

/// Convenience wrapper: full run, no interference, one big slice.
pub fn assert_pooled_matches_scalar_simple<P: Problem>(
    problem: &P,
    interval: &Interval,
    initial_cutoff: Option<u64>,
) -> SearchStats {
    assert_pooled_matches_scalar(
        problem,
        interval,
        initial_cutoff,
        u64::MAX,
        Interference::default(),
    )
}

/// A sub-interval of `[0, total)` selected by per-mille endpoints — the
/// shared recipe the per-problem equivalence proptests use to cover
/// prefixes, suffixes and interior slices.
pub fn permille_interval(total: &UBig, a: u64, b: u64) -> Interval {
    let (lo, hi) = (a.min(b) % 1001, a.max(b) % 1001);
    Interval::new(total.mul_div_floor(lo, 1000), total.mul_div_floor(hi, 1000))
}
