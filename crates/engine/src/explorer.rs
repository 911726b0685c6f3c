//! The interval-restricted depth-first explorer: one "B&B process" of the
//! paper's §4, exploring exactly the node numbers in `[A, B)`.
//!
//! Two bounding modes share the traversal:
//!
//! * **scalar** — the paper's per-node loop: branch one child, bound it,
//!   prune or descend;
//! * **pooled** (default) — on first visit of a frame whose children are
//!   internal nodes, *all* in-interval children are branched into a
//!   [`FrontierPool`] and bounded in ONE [`Problem::lower_bound_batch`]
//!   call, then consumed one per visit in rank order. Pruning, leaf
//!   evaluation and advancing `position` still happen in non-decreasing
//!   node-number order, so the live-interval invariant of §3 is untouched
//!   and a pooled search is node-for-node identical to a scalar one (the
//!   equivalence is property-tested per problem crate).
//!
//! **The anchor.** Node numbers are big integers because a whole tree can
//! hold far more than 2¹²⁸ leaves (50! for Ta056), but the subtree of a
//! deep enough node cannot. The anchor depth is the shallowest depth whose
//! subtree weight fits 127 bits: 0 for every permutation tree up to 33
//! items, 17 for 50 items. The walk keeps one `UBig` base — the first
//! number of the anchor-depth node it is in — and holds the position, the
//! end (clamped to that node) and the child cursor of every frame at or
//! below the anchor as `u128` offsets from it. The few frames above the
//! anchor keep `UBig` cursors; their children span whole anchor nodes, so
//! stepping past one re-bases with one `UBig` operation.
//!
//! **No big-integer arithmetic per node below the anchor.** A visit there
//! is `u128` arithmetic and allocates nothing. The `UBig` position is
//! materialized once per [`IntervalExplorer::run`] return, and the base
//! moves only when the walk leaves an anchor node, so a whole run
//! allocates O(depth) buffers however many nodes it visits.

use crate::{Problem, SearchStats, Solution};
use gridbnb_coding::{Interval, TreeShape, UBig};

/// Why a call to [`IntervalExplorer::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The interval is fully explored: `A` reached `B`.
    Exhausted,
    /// The node budget was consumed; call `run` again to continue.
    BudgetSpent,
}

/// One depth-first B&B exploration restricted to an interval of node
/// numbers.
///
/// Maintains the invariant that makes interval coding work (paper §3):
/// depth-first traversal visits nodes in **non-decreasing number order**,
/// so the live interval `[position, end)` is at all times exactly the
/// un-explored remainder of the work unit:
///
/// * completing a leaf advances `position` by 1;
/// * eliminating a subtree by bound advances `position` by its weight;
/// * the coordinator stealing the tail shrinks `end`
///   ([`IntervalExplorer::shrink_end`]) and exploration never crosses it —
///   in pooled mode this implicitly truncates the un-consumed tail of
///   every live pool, since an entry is only consumed once `position`
///   reaches it.
///
/// The explorer is resumable: [`IntervalExplorer::run`] processes at most
/// a given number of node visits, which is how worker threads interleave
/// exploration with the pull-model protocol (contact the farmer every *k*
/// nodes). A pooled visit consumes exactly one pool entry, so budget
/// accounting — and therefore the worker contact cadence — is identical
/// in both modes.
pub struct IntervalExplorer<'p, P: Problem> {
    problem: &'p P,
    shape: TreeShape,
    /// Lower endpoint `A` (`base + pos`) as of the last return from
    /// `run` or `run_to_end`. Monotone.
    position: UBig,
    /// Upper endpoint `B`. Only ever shrinks.
    end: UBig,
    /// Shallowest depth whose subtree weight fits 127 bits.
    anchor: usize,
    /// `weights[i]` is the subtree weight at depth `anchor + i`.
    weights: Vec<u128>,
    /// First number of the anchor-depth node the walk is in (or of the
    /// position itself once the walk is over).
    base: UBig,
    /// The live position, as an offset from `base`.
    pos: u128,
    /// `min(end − base, weights[0])`: the end as an offset from `base`,
    /// clamped to the anchor node. The walk leaves the anchor node, or
    /// finishes, when `pos` reaches it.
    end_off: u128,
    /// Cursors of the frames above the anchor, by depth: the number of
    /// the next child's first leaf. Empty when the anchor is the root.
    upper: Vec<UBig>,
    /// DFS stack; `stack[0]` is the root.
    stack: Vec<Frame<P::State>>,
    /// Shared SoA arena: one contiguous segment of branched-but-not-yet-
    /// consumed siblings per pooled frame, stack-nested like the frames.
    pool: FrontierPool<P::State>,
    /// Reusable output buffer for `lower_bound_batch`.
    bound_scratch: Vec<u64>,
    /// Whether frames may enter pooled mode.
    pooling: bool,
    /// Prune threshold: subtrees with `lower_bound >= cutoff` are
    /// eliminated. Tracks `min(initial upper bound, best found so far)`.
    cutoff: u64,
    best: Option<Solution>,
    fresh_best: bool,
    stats: SearchStats,
    done: bool,
}

struct Frame<S> {
    state: S,
    depth: usize,
    /// Rank of this node among its siblings (unused for the root).
    rank_in_parent: u64,
    /// Next child rank to visit.
    next_rank: u64,
    /// Offset from `base` of the first number of the child at
    /// `next_rank`. Frames above the anchor keep their cursor in
    /// `upper` instead.
    next_child_lo: u128,
    mode: FrameMode,
}

#[derive(Clone, Copy, Debug)]
enum FrameMode {
    /// Not yet visited; the mode is decided on first visit.
    Fresh,
    /// Per-child scalar stepping (leaf parents, frames above the anchor,
    /// or pooling disabled).
    Scalar,
    /// Children `[start, end)` of the arena were branched and bounded as
    /// one batch; `cursor` is the next un-consumed entry, the child at
    /// the frame's `next_rank`.
    Pooled {
        start: usize,
        cursor: usize,
        end: usize,
    },
}

/// Structure-of-arrays arena for pooled siblings: parallel columns so the
/// batch kernels see a flat `&[State]` and write a flat `&mut Vec<u64>`.
struct FrontierPool<S> {
    states: Vec<S>,
    bounds: Vec<u64>,
}

impl<S> FrontierPool<S> {
    fn new() -> Self {
        FrontierPool {
            states: Vec::new(),
            bounds: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    fn truncate(&mut self, n: usize) {
        self.states.truncate(n);
        self.bounds.truncate(n);
    }

    fn clear(&mut self) {
        self.truncate(0);
    }
}

impl<'p, P: Problem> IntervalExplorer<'p, P> {
    /// Creates an explorer for `interval` (clamped into the root range).
    ///
    /// `initial_cutoff` seeds the elimination operator — the paper's runs
    /// started from the best known upper bound (3681, then 3680). `None`
    /// means no initial bound (`u64::MAX`). Pooled bounding is on; use
    /// [`IntervalExplorer::with_pooling`] to force the scalar path.
    pub fn new(problem: &'p P, interval: &Interval, initial_cutoff: Option<u64>) -> Self {
        IntervalExplorer::with_pooling(problem, interval, initial_cutoff, true)
    }

    /// Like [`IntervalExplorer::new`] with explicit control over pooled
    /// bounding. `pooled = false` is the reference per-node mode the
    /// equivalence property tests pin the pooled mode against.
    pub fn with_pooling(
        problem: &'p P,
        interval: &Interval,
        initial_cutoff: Option<u64>,
        pooled: bool,
    ) -> Self {
        let shape = problem.shape();
        let leaf_depth = shape.leaf_depth();
        let anchor = (0..=leaf_depth)
            .find(|&d| shape.weight_at(d).bit_len() <= 127)
            .expect("a leaf weighs 1");
        let weights = (anchor..=leaf_depth)
            .map(|d| shape.weight_at(d).to_u128().expect("fits below the anchor"))
            .collect();
        let clamped = interval.intersect(&shape.root_range());
        // The base is the first number of the anchor node holding the
        // begin: the begin rounded down to a multiple of its weight.
        let (_, offset) = clamped.begin().div_rem(shape.weight_at(anchor));
        let mut base = clamped.begin().clone();
        base.sub_assign(&offset);
        let root = Frame {
            state: problem.root_state(),
            depth: 0,
            rank_in_parent: 0,
            next_rank: 0,
            next_child_lo: 0,
            mode: FrameMode::Fresh,
        };
        let mut explorer = IntervalExplorer {
            problem,
            position: clamped.begin().clone(),
            end: clamped.end().clone(),
            anchor,
            weights,
            base,
            pos: offset.to_u128().expect("below the anchor weight"),
            end_off: 0,
            upper: vec![UBig::zero(); anchor],
            shape,
            stack: vec![root],
            pool: FrontierPool::new(),
            bound_scratch: Vec::new(),
            pooling: pooled,
            cutoff: initial_cutoff.unwrap_or(u64::MAX),
            best: None,
            fresh_best: false,
            stats: SearchStats::default(),
            done: false,
        };
        // Finishes an empty interval on the spot.
        explorer.clamp_end();
        explorer
    }

    /// Whether frames may batch their children through
    /// [`Problem::lower_bound_batch`].
    pub fn is_pooled(&self) -> bool {
        self.pooling
    }

    /// The live interval `[position, end)` — what the worker reports to
    /// the coordinator on every contact (paper §4.1). Empty once the
    /// explorer is exhausted; its begin may then lie past its end, when
    /// a steal cut the end below ground already explored.
    pub fn current_interval(&self) -> Interval {
        Interval::new(self.position.clone(), self.end.clone())
    }

    /// Current lower endpoint `A` (exploration progress).
    pub fn position(&self) -> &UBig {
        &self.position
    }

    /// Current upper endpoint `B`.
    pub fn end(&self) -> &UBig {
        &self.end
    }

    /// `true` once `[position, end)` is empty and nothing remains.
    pub fn is_exhausted(&self) -> bool {
        self.done
    }

    /// Search statistics so far.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Current elimination threshold.
    pub fn cutoff(&self) -> u64 {
        self.cutoff
    }

    /// Best solution found *by this explorer* (not external bests).
    pub fn best(&self) -> Option<&Solution> {
        self.best.as_ref()
    }

    /// Takes the best solution if it improved since the last call —
    /// rule 2 of the paper's solution sharing: report improvements
    /// immediately.
    pub fn take_fresh_best(&mut self) -> Option<Solution> {
        if self.fresh_best {
            self.fresh_best = false;
            self.best.clone()
        } else {
            None
        }
    }

    /// Lowers the elimination threshold with an externally-found cost —
    /// rules 1 and 3 of the paper's solution sharing (initialize from and
    /// regularly re-read `SOLUTION`). Never raises it.
    pub fn observe_external_cutoff(&mut self, cost: u64) {
        if cost < self.cutoff {
            self.cutoff = cost;
        }
    }

    /// Shrinks the upper endpoint (the coordinator gave the tail to
    /// another worker). Never grows it. Applying the paper's equation 14
    /// amounts to `shrink_end(B')` since `position` only moves forward.
    ///
    /// Pool entries whose subtree now starts at or past the new end are
    /// never consumed: consumption strictly follows `position`, and the
    /// traversal finishes the moment `position` reaches `end`.
    pub fn shrink_end(&mut self, new_end: &UBig) {
        if *new_end < self.end {
            self.end.clone_from(new_end);
            self.clamp_end();
        }
    }

    /// Replaces the live interval by its intersection with the
    /// coordinator's copy (paper equation 14).
    pub fn intersect_with(&mut self, coordinator_copy: &Interval) {
        // position = max(A, A'): our own position is always >= the copy's
        // begin (the copy only lags), so only the end can shrink.
        self.shrink_end(coordinator_copy.end());
    }

    /// Explores at most `node_budget` node visits.
    pub fn run(&mut self, node_budget: u64) -> RunOutcome {
        let mut remaining = node_budget;
        while remaining > 0 && !self.done {
            if self.visit_one() {
                remaining -= 1;
            }
        }
        self.sync_position();
        if self.done {
            RunOutcome::Exhausted
        } else {
            RunOutcome::BudgetSpent
        }
    }

    /// Runs to exhaustion of the interval.
    pub fn run_to_end(&mut self) {
        while !self.done {
            self.visit_one();
        }
        self.sync_position();
    }

    /// Materializes the `UBig` position from the walk's offset.
    fn sync_position(&mut self) {
        self.position.clone_from(&self.base);
        self.position.add_assign_u128(self.pos);
    }

    /// Ends the traversal. `position` stays where exploration got to,
    /// even past an `end` that was cut below it: the remainder
    /// `[position, end)` is empty either way, and `position − start`
    /// keeps measuring what this explorer actually explored.
    fn finish(&mut self) {
        self.done = true;
        self.stack.clear();
        self.pool.clear();
    }

    /// Re-derives `end_off` from `end` and `base`, and finishes once the
    /// position has reached it.
    fn clamp_end(&mut self) {
        self.end_off = self
            .end
            .saturating_sub_u128(&self.base)
            .min(self.weights[0]);
        if self.pos >= self.end_off {
            self.finish();
        }
    }

    /// Moves the position to `base + to`, the end of a finished or
    /// eliminated subtree at or below the anchor.
    #[inline]
    fn advance(&mut self, to: u128) {
        debug_assert!(to > self.pos);
        self.pos = to;
        if to >= self.end_off {
            // The anchor node is done, or the end is reached: re-base
            // onto the position.
            self.base.add_assign_u128(to);
            self.pos = 0;
            self.clamp_end();
        }
    }

    /// Advances the traversal; returns `true` if a node was visited
    /// (counted against the budget), `false` for bookkeeping moves.
    fn visit_one(&mut self) -> bool {
        debug_assert!(self.pos < self.end_off, "the walk finishes at the end");
        let frame = self.stack.last_mut().expect("a live walk has a frame");
        let depth = frame.depth;
        debug_assert!(depth < self.shape.leaf_depth());
        if matches!(frame.mode, FrameMode::Fresh) {
            // Pool only frames at or below the anchor (their offsets fit
            // u128) whose children are internal (so leaf evaluation — and
            // thus every cutoff update — stays strictly rank-ordered).
            // Everything else steps per child.
            if self.pooling && depth >= self.anchor && depth + 1 < self.shape.leaf_depth() {
                self.fill_pool();
            } else {
                frame.mode = FrameMode::Scalar;
            }
        }
        match self.stack.last().map(|f| &f.mode) {
            Some(FrameMode::Scalar) => self.visit_scalar(),
            Some(FrameMode::Pooled { .. }) => self.visit_pooled(),
            Some(FrameMode::Fresh) | None => unreachable!("mode decided above"),
        }
    }

    /// Branches every in-interval child of the top frame into the arena
    /// and bounds them in one batch call.
    fn fill_pool(&mut self) {
        let frame_idx = self.stack.len() - 1;
        let frame = &mut self.stack[frame_idx];
        let arity = self.shape.arity_at(frame.depth);
        let w = self.weights[frame.depth + 1 - self.anchor];
        // A fresh frame's cursor is its own first number, at or before
        // the position and before the (clamped) end. Pool from the first
        // child not entirely before the position through the last child
        // that begins before the end.
        let lo = frame.next_child_lo;
        let skip = ((self.pos - lo) / w) as u64;
        let last = (self.end_off - lo).div_ceil(w).min(u128::from(arity)) as u64;
        debug_assert!(skip < last, "a visited frame has an in-interval child");
        frame.next_rank = skip;
        frame.next_child_lo = lo + u128::from(skip) * w;
        let start = self.pool.len();
        let problem = self.problem;
        for k in skip..last {
            self.pool
                .states
                .push(problem.branch(&self.stack[frame_idx].state, k));
        }
        let filled = self.pool.len() - start;
        self.bound_scratch.clear();
        problem.lower_bound_batch(
            &self.pool.states[start..],
            self.cutoff,
            &mut self.bound_scratch,
        );
        assert_eq!(
            self.bound_scratch.len(),
            filled,
            "lower_bound_batch must produce exactly one bound per state"
        );
        self.pool.bounds.extend_from_slice(&self.bound_scratch);
        self.stats.nodes_bounded += filled as u64;
        self.stats.bound_batches += 1;
        self.stack[frame_idx].mode = FrameMode::Pooled {
            start,
            cursor: start,
            end: start + filled,
        };
    }

    /// Consumes the next entry of the top frame's pool segment.
    fn visit_pooled(&mut self) -> bool {
        let frame = self.stack.last_mut().expect("checked by visit_one");
        let FrameMode::Pooled { start, cursor, end } = &mut frame.mode else {
            unreachable!("visit_pooled on a non-pooled frame")
        };
        let (start, slot) = (*start, *cursor);
        if slot == *end {
            // Segment drained: release it and pop the frame. Nested
            // frames release their segments first (stack discipline), so
            // the arena tail is exactly ours.
            debug_assert_eq!(self.pool.len(), slot);
            self.pool.truncate(start);
            self.pop_frame();
            return false;
        }
        *cursor += 1;
        let rank = frame.next_rank;
        frame.next_rank += 1;
        frame.next_child_lo += self.weights[frame.depth + 1 - self.anchor];
        self.stats.explored += 1;
        self.stats.bound_calls += 1;
        // The batch-bound contract guarantees this is the same decision
        // the scalar operator would make against today's (possibly
        // lower) cutoff.
        if self.pool.bounds[slot] >= self.cutoff {
            self.stats.pruned += 1;
            self.pass_child();
        } else {
            self.stats.branched += 1;
            let state = self.pool.states[slot].clone();
            self.push_child(state, rank);
        }
        true
    }

    /// The per-child scalar step (the paper's loop, unchanged semantics).
    fn visit_scalar(&mut self) -> bool {
        let frame = self.stack.last_mut().expect("checked by visit_one");
        let depth = frame.depth;
        if frame.next_rank >= self.shape.arity_at(depth) {
            self.pop_frame();
            return false;
        }
        let rank = frame.next_rank;
        frame.next_rank += 1;
        if self.child_ends_before_position() {
            // Already explored (or never ours).
            return false;
        }

        let parent = &self.stack.last().expect("still on top").state;
        let child_state = self.problem.branch(parent, rank);
        self.stats.explored += 1;

        if depth + 1 == self.shape.leaf_depth() {
            self.stats.leaves += 1;
            let cost = self.problem.leaf_cost(&child_state);
            if cost < self.cutoff {
                self.cutoff = cost;
                self.stats.improvements += 1;
                self.best = Some(Solution::new(cost, self.leaf_ranks_with(rank)));
                self.fresh_best = true;
            }
            self.pass_child();
        } else {
            let bound = self.problem.lower_bound_against(&child_state, self.cutoff);
            self.stats.bound_calls += 1;
            self.stats.nodes_bounded += 1;
            if bound >= self.cutoff {
                // Elimination operator: the whole subtree is fathomed.
                self.stats.pruned += 1;
                self.pass_child();
            } else {
                self.stats.branched += 1;
                self.push_child(child_state, rank);
            }
        }
        true
    }

    /// Moves the top frame's cursor past its next child, and says whether
    /// that child's range ends at or before the position. A child that
    /// does not holds the position: every child before it ended at or
    /// before the position, and the walk finishes once the position
    /// reaches the end, so no child begins at or past the end.
    fn child_ends_before_position(&mut self) -> bool {
        let frame = self.stack.last_mut().expect("a frame is on top");
        let depth = frame.depth;
        if depth >= self.anchor {
            let lo = frame.next_child_lo;
            debug_assert!(lo < self.end_off, "no child begins at or past the end");
            frame.next_child_lo = lo + self.weights[depth + 1 - self.anchor];
            frame.next_child_lo <= self.pos
        } else {
            // Above the anchor a child spans whole anchor nodes, so it
            // ends at or before the position exactly when it ends at or
            // before `base`. The child's own cursor starts at its first
            // number, which is ours before the step.
            let (above, below) = self.upper.split_at_mut(depth + 1);
            let cursor = &mut above[depth];
            debug_assert!(*cursor < self.end, "no child begins at or past the end");
            if let Some(child_cursor) = below.first_mut() {
                child_cursor.clone_from(cursor);
            }
            cursor.add_assign(self.shape.weight_at(depth + 1));
            *cursor <= self.base
        }
    }

    /// Moves the position past the child the top frame just stepped
    /// over (a leaf or an eliminated subtree): to the frame's cursor.
    fn pass_child(&mut self) {
        let frame = self.stack.last().expect("a frame is on top");
        if frame.depth >= self.anchor {
            self.advance(frame.next_child_lo);
        } else {
            // The subtree ends on an anchor-node boundary: re-base there.
            self.base.clone_from(&self.upper[frame.depth]);
            self.pos = 0;
            self.clamp_end();
        }
    }

    /// Descends into the child the top frame just stepped over.
    fn push_child(&mut self, state: P::State, rank: u64) {
        let parent = self.stack.last().expect("a frame is on top");
        let depth = parent.depth + 1;
        // Below the anchor the child begins one child weight before the
        // parent's cursor. An anchor-depth child entered from above
        // begins at `base` (it holds the position), and a child above
        // the anchor keeps its cursor in `upper`.
        let next_child_lo = if parent.depth >= self.anchor {
            parent.next_child_lo - self.weights[depth - self.anchor]
        } else {
            0
        };
        self.stack.push(Frame {
            state,
            depth,
            rank_in_parent: rank,
            next_rank: 0,
            next_child_lo,
            mode: FrameMode::Fresh,
        });
    }

    /// Pops the top frame; the traversal ends with the root's.
    fn pop_frame(&mut self) {
        self.stack.pop();
        if self.stack.is_empty() {
            self.finish();
        }
    }

    /// Ranks from root to the leaf currently being evaluated, whose last
    /// branch took `leaf_rank`.
    fn leaf_ranks_with(&self, leaf_rank: u64) -> Vec<u64> {
        let mut ranks: Vec<u64> = self
            .stack
            .iter()
            .skip(1) // the root has no rank_in_parent
            .map(|f| f.rank_in_parent)
            .collect();
        ranks.push(leaf_rank);
        debug_assert_eq!(ranks.len(), self.shape.leaf_depth());
        ranks
    }
}
