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
//! While a frame is pooled, sibling node numbers are tracked as `u128`
//! deltas against the frame's `UBig` base — possible whenever the parent
//! subtree weight fits 127 bits, which holds for every depth below the
//! top few on the instance sizes this workspace runs — so the hot loop
//! performs no per-sibling big-integer arithmetic at all.
//!
//! A visit allocates nothing: child endpoints are computed into one
//! scratch `UBig` and swapped into place, and the boundary buffers of
//! popped frames are reused by the frames pushed after them, so a whole
//! run allocates O(depth) limb buffers however many nodes it visits.

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
    /// Lower endpoint `A`: number of the next node to explore. Monotone.
    position: UBig,
    /// Upper endpoint `B`. Only ever shrinks.
    end: UBig,
    /// DFS stack; `stack[0]` is the root.
    stack: Vec<Frame<P::State>>,
    /// Shared SoA arena: one contiguous segment of branched-but-not-yet-
    /// consumed siblings per pooled frame, stack-nested like the frames.
    pool: FrontierPool<P::State>,
    /// Reusable output buffer for `lower_bound_batch`.
    bound_scratch: Vec<u64>,
    /// Where child endpoints and pool deltas are computed: a finished
    /// subtree's end is swapped into `position`, a branched child's into
    /// its parent's `next_child_lo`, and the displaced buffer becomes
    /// the next scratch.
    scratch: UBig,
    /// `next_child_lo` buffers of popped frames, reused by pushed ones.
    spare: Vec<UBig>,
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
    /// Next child rank to visit (scalar mode only).
    next_rank: u64,
    /// Scalar mode: number (range begin) of the child at `next_rank`,
    /// advanced by the child weight as ranks are consumed. Pooled mode:
    /// frozen at the frame's own range begin, the base the pool's `u128`
    /// deltas are relative to.
    next_child_lo: UBig,
    mode: FrameMode,
}

#[derive(Clone, Copy, Debug)]
enum FrameMode {
    /// Not yet visited; the mode is decided on first visit.
    Fresh,
    /// Per-child scalar stepping (leaf parents, oversized weights, or
    /// pooling disabled).
    Scalar,
    /// Children `[start, end)` of the arena were branched and bounded as
    /// one batch; `cursor` is the next un-consumed entry and `w` the
    /// child subtree weight (fits `u128` by mode selection).
    Pooled {
        start: usize,
        cursor: usize,
        end: usize,
        w: u128,
    },
}

/// Structure-of-arrays arena for pooled siblings: parallel columns so the
/// batch kernels see a flat `&[State]` and write a flat `&mut Vec<u64>`.
struct FrontierPool<S> {
    states: Vec<S>,
    ranks: Vec<u64>,
    /// Node-number offsets from the owning frame's base (`k · w`).
    deltas: Vec<u128>,
    bounds: Vec<u64>,
}

impl<S> FrontierPool<S> {
    fn new() -> Self {
        FrontierPool {
            states: Vec::new(),
            ranks: Vec::new(),
            deltas: Vec::new(),
            bounds: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    fn truncate(&mut self, n: usize) {
        self.states.truncate(n);
        self.ranks.truncate(n);
        self.deltas.truncate(n);
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
        let clamped = interval.intersect(&shape.root_range());
        let done = clamped.is_empty();
        let stack = if done {
            Vec::new()
        } else {
            vec![Frame {
                state: problem.root_state(),
                depth: 0,
                rank_in_parent: 0,
                next_rank: 0,
                next_child_lo: UBig::zero(),
                mode: FrameMode::Fresh,
            }]
        };
        IntervalExplorer {
            problem,
            shape,
            position: clamped.begin().clone(),
            end: clamped.end().clone(),
            stack,
            pool: FrontierPool::new(),
            bound_scratch: Vec::new(),
            scratch: UBig::zero(),
            spare: Vec::new(),
            pooling: pooled,
            cutoff: initial_cutoff.unwrap_or(u64::MAX),
            best: None,
            fresh_best: false,
            stats: SearchStats::default(),
            done,
        }
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
            self.end = new_end.clone();
            if self.position >= self.end {
                self.finish();
            }
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
        while remaining > 0 {
            if self.done {
                return RunOutcome::Exhausted;
            }
            if self.visit_one() {
                remaining -= 1;
            }
        }
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

    /// Advances the traversal; returns `true` if a node was visited
    /// (counted against the budget), `false` for bookkeeping moves.
    fn visit_one(&mut self) -> bool {
        if self.position >= self.end {
            self.finish();
            return false;
        }
        let Some(frame) = self.stack.last_mut() else {
            self.finish();
            return false;
        };
        let depth = frame.depth;
        debug_assert!(depth < self.shape.leaf_depth());
        if matches!(frame.mode, FrameMode::Fresh) {
            // Pool only frames whose children are internal (so leaf
            // evaluation — and thus every cutoff update — stays strictly
            // rank-ordered) and whose subtree weight fits the u128 delta
            // arithmetic. Everything else steps per child.
            if self.pooling
                && depth + 1 < self.shape.leaf_depth()
                && self.shape.weight_at(depth).bit_len() <= 127
            {
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
        let depth = self.stack[frame_idx].depth;
        let arity = self.shape.arity_at(depth);
        let parent_weight = self.shape.weight_at(depth);
        let w = self
            .shape
            .weight_at(depth + 1)
            .to_u128()
            .expect("child weight fits u128 whenever the parent weight fits 127 bits");
        // All numbers in the frame's subtree are within parent_weight of
        // its base, so both deltas below fit u128. They are computed in
        // the scratch buffer; `sub_assign` panics if the position were
        // outside the frame's subtree.
        let base = &self.stack[frame_idx].next_child_lo;
        self.scratch.clone_from(&self.position);
        self.scratch.sub_assign(base);
        let pos_delta = self
            .scratch
            .to_u128()
            .expect("bounded by the parent weight");
        // First child whose range is not entirely before `position` ...
        let skip = (pos_delta / w) as u64;
        // ... through the last child whose range begins before `end`.
        self.scratch.clone_from(&self.end);
        self.scratch.sub_assign(base);
        let last = if self.scratch >= *parent_weight {
            arity
        } else {
            let d = self
                .scratch
                .to_u128()
                .expect("bounded by the parent weight");
            (d.div_ceil(w) as u64).min(arity)
        };
        debug_assert!(skip < last, "a visited frame has an in-interval child");
        let start = self.pool.len();
        let problem = self.problem;
        for k in skip..last {
            self.pool
                .states
                .push(problem.branch(&self.stack[frame_idx].state, k));
            self.pool.ranks.push(k);
            self.pool.deltas.push(u128::from(k) * w);
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
            w,
        };
    }

    /// Consumes the next entry of the top frame's pool segment.
    fn visit_pooled(&mut self) -> bool {
        let frame_idx = self.stack.len() - 1;
        let FrameMode::Pooled {
            start,
            cursor,
            end: seg_end,
            w,
        } = self.stack[frame_idx].mode
        else {
            unreachable!("visit_pooled on a non-pooled frame")
        };
        if cursor == seg_end {
            // Segment drained: release it and pop the frame. Nested
            // frames release their segments first (stack discipline), so
            // the arena tail is exactly ours.
            debug_assert_eq!(self.pool.len(), seg_end);
            self.pool.truncate(start);
            self.pop_frame();
            return false;
        }
        let rank = self.pool.ranks[cursor];
        let delta = self.pool.deltas[cursor];
        let bound = self.pool.bounds[cursor];
        let FrameMode::Pooled { cursor: c, .. } = &mut self.stack[frame_idx].mode else {
            unreachable!()
        };
        *c += 1;
        self.stats.explored += 1;
        self.stats.bound_calls += 1;
        let frame = &self.stack[frame_idx];
        if bound >= self.cutoff {
            // Elimination operator: the whole subtree is fathomed; its
            // un-explored numbers [position, child_hi) are done. The
            // batch-bound contract guarantees this is the same decision
            // the scalar operator would make against today's (possibly
            // lower) cutoff.
            self.stats.pruned += 1;
            self.scratch.clone_from(&frame.next_child_lo);
            self.scratch.add_assign_u128(delta + w);
            self.advance_to_scratch();
        } else {
            self.stats.branched += 1;
            let mut child_lo = self.spare.pop().unwrap_or_default();
            child_lo.clone_from(&frame.next_child_lo);
            child_lo.add_assign_u128(delta);
            debug_assert!(child_lo <= self.position);
            let child_depth = frame.depth + 1;
            let state = self.pool.states[cursor].clone();
            self.stack.push(Frame {
                state,
                depth: child_depth,
                rank_in_parent: rank,
                next_rank: 0,
                next_child_lo: child_lo,
                mode: FrameMode::Fresh,
            });
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

        let child_depth = depth + 1;
        let rank = frame.next_rank;
        frame.next_rank += 1;
        // child_hi is computed in the scratch buffer and swapped or
        // copied into place below: no allocation per child.
        let child_hi = &mut self.scratch;
        child_hi.clone_from(&frame.next_child_lo);
        child_hi.add_assign(self.shape.weight_at(child_depth));

        if *child_hi <= self.position {
            // Entirely before A: already explored (or never ours).
            std::mem::swap(&mut frame.next_child_lo, child_hi);
            return false;
        }
        if frame.next_child_lo >= self.end {
            // Entirely past B — and so is everything after in DFS order.
            self.finish();
            return false;
        }

        let child_state = self.problem.branch(&frame.state, rank);
        self.stats.explored += 1;

        if child_depth == self.shape.leaf_depth() {
            frame.next_child_lo.clone_from(child_hi);
            self.stats.leaves += 1;
            let cost = self.problem.leaf_cost(&child_state);
            if cost < self.cutoff {
                self.cutoff = cost;
                self.stats.improvements += 1;
                self.best = Some(Solution::new(cost, self.leaf_ranks_with(rank)));
                self.fresh_best = true;
            }
            self.advance_to_scratch();
        } else {
            let bound = self.problem.lower_bound_against(&child_state, self.cutoff);
            self.stats.bound_calls += 1;
            self.stats.nodes_bounded += 1;
            if bound >= self.cutoff {
                // Elimination operator: the whole subtree is fathomed;
                // its un-explored numbers [position, child_hi) are done.
                self.stats.pruned += 1;
                frame.next_child_lo.clone_from(&self.scratch);
                self.advance_to_scratch();
            } else {
                self.stats.branched += 1;
                // The parent's cursor moves on to child_hi; the child's
                // range begins where the cursor was.
                let child_hi =
                    std::mem::replace(&mut self.scratch, self.spare.pop().unwrap_or_default());
                let child_lo = std::mem::replace(&mut frame.next_child_lo, child_hi);
                self.stack.push(Frame {
                    state: child_state,
                    depth: child_depth,
                    rank_in_parent: rank,
                    next_rank: 0,
                    next_child_lo: child_lo,
                    mode: FrameMode::Fresh,
                });
            }
        }
        true
    }

    /// Moves `position` to the value in `scratch` (the end of a finished
    /// or eliminated subtree); the old position's buffer becomes the
    /// scratch.
    #[inline]
    fn advance_to_scratch(&mut self) {
        debug_assert!(self.scratch > self.position);
        std::mem::swap(&mut self.position, &mut self.scratch);
        if self.position >= self.end {
            self.finish();
        }
    }

    /// Pops the top frame, keeping its boundary buffer for reuse.
    fn pop_frame(&mut self) {
        if let Some(frame) = self.stack.pop() {
            self.spare.push(frame.next_child_lo);
        }
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
