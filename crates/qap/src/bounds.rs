//! Lower bounds for partial assignments — the QAP bounding operator.
//!
//! The search bounds with one operator, the Gilmore–Lawler bound:
//!
//! * [`gilmore_lawler_bound`] — for every (unplaced facility `i`, free
//!   location `a`) pair, an admissible cost `c[i][a]` combining the
//!   *exact* interaction with placed facilities and the rearrangement
//!   inner product of `i`'s sorted out-flows against `a`'s reverse-sorted
//!   distances; the assignment-problem minimum of `c` (via
//!   [`crate::lap::solve_lap`]) is the bound. Each ordered facility pair
//!   is counted in exactly one row of `c`, so the bound is admissible.
//! * [`screen_bound`] — a cheaper rearrangement screen, kept as a scalar
//!   reference for the property tests: exact placed–placed cost, the
//!   cheapest free location per unplaced facility against the placed
//!   ones only, and a single global rearrangement-inequality product
//!   over the pooled remaining flow and distance multisets. Because the
//!   same assignment must pay both the placed part and the per-row
//!   products, Gilmore–Lawler **dominates the screen** (the screen's two
//!   terms are each a further relaxation of the LAP — a property test
//!   pins this).
//!
//! Both bounds take the same partial-state triple the search maintains:
//! `placement[facility] = location` for the placed prefix, the used-
//! location bitmask, and the exact placed–placed cost.
//!
//! The search does not call [`gilmore_lawler_bound`]; it is the
//! reference. The search runs [`GlPool`], which builds everything a
//! sibling pool's children share once, reads each child's cost matrix
//! from it in O(u²), and stops each child's LAP at the cutoff
//! ([`crate::lap::lap_bound`]).
//!
//! A depth-first search bounds a pool and then, one level down, the pool
//! below one of its children, so each pool reuses what the one above it
//! computed through a per-thread [`GlPath`]: it extends its parent
//! pool's placed sums by one facility instead of re-summing the whole
//! prefix, and starts each child's LAP from the exact column duals of
//! the child's parent. The two are not alike. Any start is admissible
//! for the LAP, so a stale dual costs only tree steps. A stale sum is
//! not a lower bound at all, so the path is keyed on (problem id,
//! prefix) and read only under that exact key. The scalar
//! [`crate::QapProblem`] bound never touches the path: it is the
//! reference the pooled path is tested against.

use crate::instance::{QapInstance, MAX_N};
use crate::lap::{lap_bound, solve_lap};

/// The bounding operator: the Gilmore–Lawler bound, the only one. Kept
/// as the argument of [`crate::QapProblem::new`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Bound {
    /// The Gilmore–Lawler assignment bound on every node (one LAP per
    /// evaluation, stopped at the cutoff), run through [`GlPool`].
    #[default]
    GilmoreLawler,
}

/// The cheap rearrangement screen (the crate's original bound): exact
/// placed cost, plus the cheapest free location per unplaced facility
/// counting placed interactions only, plus the global rearrangement
/// product of pooled remaining flows against pooled remaining distances.
/// The search does not call it: it is the weaker reference that
/// [`gilmore_lawler_bound`] is tested to dominate.
pub fn screen_bound(instance: &QapInstance, placement: &[u16], used: u64, base_cost: u64) -> u64 {
    let n = instance.n();
    let placed = placement.len();
    let mut bound = base_cost;

    // placed–unplaced: cheapest free location per unplaced facility,
    // counting only interactions with placed facilities.
    for facility in placed..n {
        let mut cheapest = u64::MAX;
        for location in 0..n {
            if used & (1 << location) != 0 {
                continue;
            }
            let mut here = 0;
            for (other, &loc) in placement.iter().enumerate() {
                here += instance.flow(other, facility) * instance.dist(loc as usize, location)
                    + instance.flow(facility, other) * instance.dist(location, loc as usize);
            }
            cheapest = cheapest.min(here);
        }
        if cheapest != u64::MAX {
            bound += cheapest;
        }
    }

    // unplaced–unplaced: rearrangement bound over the pooled remaining
    // flow and distance multisets.
    let mut flows: Vec<u64> = Vec::new();
    for i in placed..n {
        for j in placed..n {
            if i != j {
                flows.push(instance.flow(i, j));
            }
        }
    }
    let mut dists: Vec<u64> = Vec::new();
    for a in 0..n {
        if used & (1 << a) != 0 {
            continue;
        }
        for b in 0..n {
            if b != a && used & (1 << b) == 0 {
                dists.push(instance.dist(a, b));
            }
        }
    }
    flows.sort_unstable();
    dists.sort_unstable_by(|x, y| y.cmp(x));
    bound + flows.iter().zip(&dists).map(|(f, d)| f * d).sum::<u64>()
}

/// The Gilmore–Lawler bound for a partial assignment.
///
/// With unplaced facilities `U` and free locations `L` (`|U| = |L| =
/// u`), builds the `u × u` matrix
///
/// `c[i][a] = flow(i,i)·dist(a,a)                        (diagonal, exact)`
/// `        + Σ_{k placed} flow(k,i)·dist(π(k),a) + flow(i,k)·dist(a,π(k))`
/// `        + ⟨sort↑(flow(i,·) over U∖{i}), sort↓(dist(a,·) over L∖{a})⟩`
///
/// and returns `base_cost + LAP(c)`. Admissibility: for any completion
/// placing `i` at `a`, row `i`'s true contribution — all ordered pairs
/// `(i, j)` with `j ∈ U∖{i}` plus both directions of every placed pair
/// — is at least `c[i][a]` (the placed part is exact; the unplaced part
/// is minorized by the rearrangement inequality); every ordered pair of
/// facilities is charged to exactly one row, so summing rows never
/// double-counts, and minimizing over all assignments (the LAP) can
/// only go lower.
pub fn gilmore_lawler_bound(
    instance: &QapInstance,
    placement: &[u16],
    used: u64,
    base_cost: u64,
) -> u64 {
    let n = instance.n();
    let placed = placement.len();
    if placed == n {
        return base_cost;
    }
    let u = n - placed;
    // Sorted out-flow rows (ascending), one per unplaced facility —
    // the re-sorting construction of what [`GlRowCache`] precomputes.
    let mut flow_rows: Vec<Vec<u64>> = Vec::with_capacity(u);
    for i in placed..n {
        let mut row: Vec<u64> = (placed..n)
            .filter(|&j| j != i)
            .map(|j| instance.flow(i, j))
            .collect();
        row.sort_unstable();
        flow_rows.push(row);
    }
    let free: Vec<usize> = (0..n).filter(|l| used & (1 << l) == 0).collect();
    debug_assert_eq!(free.len(), u);

    // Sorted distance rows (descending), one per free location.
    let mut dist_rows: Vec<Vec<u64>> = Vec::with_capacity(u);
    for &a in &free {
        let mut row: Vec<u64> = free
            .iter()
            .filter(|&&b| b != a)
            .map(|&b| instance.dist(a, b))
            .collect();
        row.sort_unstable_by(|x, y| y.cmp(x));
        dist_rows.push(row);
    }

    let mut cost = vec![0u64; u * u];
    for (ii, i) in (placed..n).enumerate() {
        for (aa, &a) in free.iter().enumerate() {
            let mut c = instance.flow(i, i) * instance.dist(a, a);
            for (k, &loc) in placement.iter().enumerate() {
                c += instance.flow(k, i) * instance.dist(loc as usize, a)
                    + instance.flow(i, k) * instance.dist(a, loc as usize);
            }
            c += flow_rows[ii]
                .iter()
                .zip(&dist_rows[aa])
                .map(|(f, d)| f * d)
                .sum::<u64>();
            cost[ii * u + aa] = c;
        }
    }
    base_cost + solve_lap(u, &cost).total
}

/// Per-depth, per-facility ascending-sorted out-flow rows, computed
/// **once** per instance ([`GlRowCache::new`]) and reused by every
/// [`GlPool`] — instead of re-sorting the same flow rows at every node
/// of the search.
///
/// The cache keys on the search's placement convention: facility `d`
/// is placed at depth `d`, so the unplaced set at depth `d` is always
/// the suffix `d..n` and the row a GL evaluation needs for facility
/// `i ≥ d` is `sort↑(flow(i, ·) over (d..n) ∖ {i})` — a pure function
/// of `(d, i)`. For `n ≤ 24` the whole table is ≤ ~106 KiB.
#[derive(Clone, Debug)]
pub struct GlRowCache {
    /// `rows[d][i - d]` = the sorted out-flow row of facility `i` at
    /// depth `d` (length `n - d - 1`).
    rows: Vec<Vec<Vec<u64>>>,
}

impl GlRowCache {
    /// Precomputes every depth's rows for `instance`.
    pub fn new(instance: &QapInstance) -> Self {
        let n = instance.n();
        let rows = (0..n)
            .map(|d| {
                (d..n)
                    .map(|i| {
                        let mut row: Vec<u64> = (d..n)
                            .filter(|&j| j != i)
                            .map(|j| instance.flow(i, j))
                            .collect();
                        row.sort_unstable();
                        row
                    })
                    .collect()
            })
            .collect();
        GlRowCache { rows }
    }
}

/// Interaction of unplaced `facility` at `location` with every facility
/// of `prefix` (facility `k` at `prefix[k]`), both flow directions: the
/// placed part of a Gilmore–Lawler cost entry.
fn placed_interaction(
    instance: &QapInstance,
    prefix: &[u16],
    facility: usize,
    location: usize,
) -> u64 {
    prefix
        .iter()
        .enumerate()
        .map(|(k, &pl)| {
            instance.flow(k, facility) * instance.dist(pl as usize, location)
                + instance.flow(facility, k) * instance.dist(location, pl as usize)
        })
        .sum()
}

/// One thread's record of the Gilmore–Lawler pools along its search
/// path: slot `d` describes the last pool built below a parent prefix of
/// `d` facilities.
///
/// A slot keeps the pool's key, its placed sums `H(i, a)` (the
/// interaction of unplaced facility `i` at location `a` with the
/// prefix, both flow directions) and the final column duals of each
/// child whose LAP ran to the optimum, which are the children that came
/// in below the cutoff and may become parents. A pool below prefix `P`
/// reads slot `|P| − 1`: when that slot's key is `P` without its last
/// facility, the pool extends its parent's sums by the one facility `P`
/// adds (O(F·u) instead of O(F·u·|P|)), and starts each child's LAP from
/// the duals of the child that became `P`. Any other pool, such as the
/// root, the first pool of a fresh interval or a stolen one, is cold.
///
/// **The key is (problem, prefix).** Duals may be stale: any column
/// potentials start an admissible LAP ([`crate::lap`]). Sums may not: a
/// sum from another instance, or from another prefix, is not the
/// interaction it stands for, and the entries built on it are not lower
/// bounds. So a slot is only read under its exact prefix, and the whole
/// path is emptied when it is bound to another problem. Only
/// [`crate::QapProblem`] makes and binds a path, one per thread, under
/// an id drawn from a global counter (shared by clones, never reused,
/// unlike an address); an unbound path keeps nothing.
///
/// Slots are sized from the instance's `n` (n slots of n² sums and n²
/// duals, about 51 KiB per thread at n = 13) when the path is first
/// bound.
#[derive(Debug)]
pub struct GlPath {
    /// The bound problem's id; `0` = unbound.
    problem: u64,
    /// The bound problem's size.
    n: usize,
    slots: Vec<PathSlot>,
}

#[derive(Debug)]
struct PathSlot {
    /// The pool's parent prefix; meaningful only while `filled`.
    key: Vec<u16>,
    filled: bool,
    /// `placed[i · n + a]` = `H(i, a)` against `key`, for the facilities
    /// after the children's and the locations free in `key`.
    placed: Vec<u64>,
    /// `duals[loc · n + a]` = final potential of column `a` in the LAP of
    /// the child at `loc`.
    duals: Vec<i128>,
    /// Bit `loc` is set when the child at `loc` solved to the optimum.
    solved: u64,
}

impl GlPath {
    /// An unbound, empty path. Allocates nothing.
    pub(crate) const fn new() -> Self {
        GlPath {
            problem: 0,
            n: 0,
            slots: Vec::new(),
        }
    }

    /// Binds the path to the problem `problem` of size `n`, emptying it
    /// if it held another problem's pools. `problem` must identify one
    /// instance for the life of the process.
    pub(crate) fn bind(&mut self, problem: u64, n: usize) {
        if self.problem == problem && self.n == n {
            return;
        }
        self.problem = problem;
        if self.n != n {
            self.n = n;
            self.slots = (0..n)
                .map(|_| PathSlot {
                    key: Vec::with_capacity(n),
                    filled: false,
                    placed: vec![0; n * n],
                    duals: vec![0; n * n],
                    solved: 0,
                })
                .collect();
        }
        for slot in &mut self.slots {
            slot.filled = false;
        }
    }

    /// The slot a pool below `prefix` fills, and its parent's slot when
    /// that holds `prefix` without its last facility. Nothing on an
    /// unbound path.
    fn split(&mut self, prefix: &[u16]) -> (Option<&PathSlot>, Option<&mut PathSlot>) {
        let d = prefix.len();
        if self.problem == 0 {
            return (None, None);
        }
        let (above, below) = self.slots.split_at_mut(d);
        let own = &mut below[0];
        own.filled = false;
        let parent = prefix
            .split_last()
            .and_then(|(_, grand)| above.last().filter(|slot| slot.filled && slot.key == grand));
        (parent, Some(own))
    }
}

/// The Gilmore–Lawler context of a sibling pool: everything the
/// children of one parent share, built once, so that a child's
/// `u × u` cost matrix is O(u²) table reads and its LAP stops at the
/// cutoff.
///
/// Let the parent place facilities `0..d`, let `F` be its free
/// locations, and let each child place facility `d` at its own
/// `loc ∈ F`, leaving `u = |F| − 1` facilities for the other locations.
/// A child's entry for facility `i > d` at location `a ≠ loc` is
///
/// `c[i][a] = flow(i,i)·dist(a,a) + H(i, a)               (parent part)`
/// `        + flow(d,i)·dist(loc,a) + flow(i,d)·dist(a,loc)  (the child's facility)`
/// `        + ⟨rows[d+1][i], sort↓(dist(a,·) over F∖{a}) with loc skipped⟩`
///
/// where `H(i, a)` is `i`'s interaction at `a` with the placed prefix.
/// `a`'s descending row over `F∖{a}` belongs to the parent; the child's
/// row is the same row with `loc`'s entry left out. With the entry at
/// position `p` left out, the product is a prefix sum up to `p` plus a
/// shifted suffix sum after it. So the pool stores, per (location,
/// facility, `p`), the parent part plus that product, and a child reads
/// one entry. Equal distances make the skip position ambiguous but not
/// the product: the remaining sorted row is the same.
///
/// On a bound [`GlPath`] the pool takes `H` from its parent's pool when
/// the path holds it, starts each child's LAP from the exact duals of
/// its own parent, and leaves its sums and its children's duals on the
/// path for the pools below it.
pub struct GlPool<'a> {
    /// The facility every child places (the parent's depth `d`).
    facility: usize,
    /// The parent's free locations, ascending; `F = free_count`.
    free: [u8; MAX_N],
    free_count: usize,
    /// `skip[ai][bi]` = position of `free[bi]` in `free[ai]`'s
    /// descending distance row.
    skip: [[u8; MAX_N]; MAX_N],
    /// `table[(ai · u + fi) · u + p]` = parent part plus the product of
    /// facility `d + 1 + fi`'s flow row with `free[ai]`'s distance row
    /// without its entry at position `p`.
    table: Vec<u64>,
    /// The current child's `u × u` cost matrix, rewritten per child.
    cost: Vec<u64>,
    /// The current child's columns: (location, offset of its skip
    /// position in `table`, distance to and from the child's location).
    columns: [(usize, usize, u64, u64); MAX_N],
    /// The current child's start and final column potentials.
    potentials: [[i128; MAX_N]; 2],
    /// The parent's final column duals, indexed by location.
    start: Option<&'a [i128]>,
    /// This pool's slot on the path.
    own: Option<&'a mut PathSlot>,
}

impl<'a> GlPool<'a> {
    /// Builds the context below a parent `prefix` (facility `k` at
    /// `prefix[k]`) whose used-location mask is `parent_used`. `rows`
    /// must be the instance's [`GlRowCache`]. `path`, when bound, is read
    /// for the parent's sums and duals and written with this pool's.
    pub fn new(
        instance: &QapInstance,
        rows: &GlRowCache,
        prefix: &[u16],
        parent_used: u64,
        path: Option<&'a mut GlPath>,
    ) -> Self {
        let n = instance.n();
        let d = prefix.len();
        assert!(d < n, "a complete placement has no children");
        let mut free = [0u8; MAX_N];
        let mut free_count = 0;
        for l in (0..n).filter(|l| parent_used & (1 << l) == 0) {
            free[free_count] = l as u8;
            free_count += 1;
        }
        debug_assert_eq!(free_count, n - d);
        let u = free_count - 1;
        let (parent, mut own) = path.map_or((None, None), |path| path.split(prefix));
        // H(i, a) against `prefix`: the parent pool's sums plus the one
        // facility `prefix` adds to its key, or the whole sum.
        let placed = |i: usize, a: usize| match (parent, prefix.split_last()) {
            (Some(parent), Some((&last, _))) => {
                let (k, last) = (d - 1, last as usize);
                parent.placed[i * n + a]
                    + instance.flow(k, i) * instance.dist(last, a)
                    + instance.flow(i, k) * instance.dist(a, last)
            }
            _ => placed_interaction(instance, prefix, i, a),
        };
        let mut skip = [[0u8; MAX_N]; MAX_N];
        let mut table = Vec::with_capacity(free_count * u * u);
        let flow_rows = rows.rows.get(d + 1).map_or(&[][..], |r| &r[..]);
        for ai in 0..free_count {
            let a = free[ai] as usize;
            let mut row = [(0u64, 0u8); MAX_N];
            let mut len = 0;
            for bi in (0..free_count).filter(|&bi| bi != ai) {
                row[len] = (instance.dist(a, free[bi] as usize), bi as u8);
                len += 1;
            }
            let row = &mut row[..len];
            row.sort_unstable_by_key(|&(dist, _)| std::cmp::Reverse(dist));
            for (p, &(_, bi)) in row.iter().enumerate() {
                skip[ai][bi as usize] = p as u8;
            }
            for (fi, flows) in flow_rows.iter().enumerate() {
                let i = d + 1 + fi;
                let h = placed(i, a);
                if let Some(own) = own.as_deref_mut() {
                    own.placed[i * n + a] = h;
                }
                let parent_part = instance.flow(i, i) * instance.dist(a, a) + h;
                // suffix[p] = Σ_{k > p} flows[k − 1] · row[k].
                let mut suffix = [0u64; MAX_N];
                for p in (0..u.saturating_sub(1)).rev() {
                    suffix[p] = suffix[p + 1] + flows[p] * row[p + 1].0;
                }
                let mut prefix_sum = 0u64;
                for p in 0..u {
                    table.push(parent_part + prefix_sum + suffix[p]);
                    if p < flows.len() {
                        prefix_sum += flows[p] * row[p].0;
                    }
                }
            }
        }
        // The duals of the child of `parent` that became `prefix`.
        let start = parent.zip(prefix.last()).and_then(|(parent, &last)| {
            let last = last as usize;
            (parent.solved & (1 << last) != 0).then(|| &parent.duals[last * n..(last + 1) * n])
        });
        if let Some(own) = own.as_deref_mut() {
            own.key.clear();
            own.key.extend_from_slice(prefix);
            own.solved = 0;
            own.filled = true;
        }
        GlPool {
            facility: d,
            free,
            free_count,
            skip,
            table,
            cost: Vec::with_capacity(u * u),
            columns: [(0, 0, 0, 0); MAX_N],
            potentials: [[0; MAX_N]; 2],
            start,
            own,
        }
    }

    /// The Gilmore–Lawler bound of the child that placed the parent's
    /// next facility at `location`, with exact placed–placed cost
    /// `child_cost`, under the [`gridbnb_engine::Problem::lower_bound_batch`]
    /// contract: the exact bound when it is below `cutoff`, otherwise
    /// some admissible value `≥ cutoff`.
    pub fn bound(
        &mut self,
        instance: &QapInstance,
        location: usize,
        child_cost: u64,
        cutoff: u64,
    ) -> u64 {
        let u = self.free_count - 1;
        if u == 0 || child_cost >= cutoff {
            return child_cost;
        }
        let li = self.free[..self.free_count]
            .iter()
            .position(|&l| l as usize == location)
            .expect("the child's location is free in its parent");
        let d = self.facility;
        // The child's columns: the parent's free locations but its own.
        let others = (0..self.free_count).filter(|&ai| ai != li);
        for (column, ai) in self.columns.iter_mut().zip(others) {
            let a = self.free[ai] as usize;
            let offset = ai * u * u + self.skip[ai][li] as usize;
            *column = (
                a,
                offset,
                instance.dist(location, a),
                instance.dist(a, location),
            );
        }
        let columns = &self.columns[..u];
        self.cost.clear();
        for fi in 0..u {
            let i = d + 1 + fi;
            let (into, out_of) = (instance.flow(d, i), instance.flow(i, d));
            self.cost
                .extend(columns.iter().map(|&(_, offset, to, from)| {
                    self.table[offset + fi * u] + into * to + out_of * from
                }));
        }
        let [start, end] = &mut self.potentials;
        if let Some(duals) = self.start {
            for (v, &(a, ..)) in start.iter_mut().zip(columns) {
                *v = duals[a];
            }
        }
        let limit = cutoff - child_cost;
        let value = lap_bound(
            u,
            &self.cost,
            limit,
            self.start.is_some().then_some(&start[..u]),
            self.own.is_some().then_some(&mut end[..u]),
        );
        if let Some(own) = self.own.as_deref_mut().filter(|_| value < limit) {
            let n = instance.n();
            let duals = &mut own.duals[location * n..(location + 1) * n];
            for (&v, &(a, ..)) in end.iter().zip(columns) {
                duals[a] = v;
            }
            own.solved |= 1 << location;
        }
        child_cost + value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recomputes the (partial) placed–placed cost from scratch.
    fn placed_cost(instance: &QapInstance, placement: &[u16]) -> u64 {
        let mut total = 0;
        for (i, &a) in placement.iter().enumerate() {
            for (j, &b) in placement.iter().enumerate() {
                total += instance.flow(i, j) * instance.dist(a as usize, b as usize);
            }
        }
        total
    }

    /// Best completion cost of a partial placement, by brute force.
    fn best_completion(instance: &QapInstance, placement: &[u16]) -> u64 {
        let n = instance.n();
        let free: Vec<usize> = (0..n)
            .filter(|l| !placement.iter().any(|&p| p as usize == *l))
            .collect();
        fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
            if k == items.len() {
                visit(items);
                return;
            }
            for i in k..items.len() {
                items.swap(k, i);
                permute(items, k + 1, visit);
                items.swap(k, i);
            }
        }
        let mut rest = free;
        let mut best = u64::MAX;
        permute(&mut rest, 0, &mut |tail| {
            let full: Vec<usize> = placement
                .iter()
                .map(|&p| p as usize)
                .chain(tail.iter().copied())
                .collect();
            best = best.min(instance.cost(&full));
        });
        best
    }

    fn used_of(placement: &[u16]) -> u64 {
        placement.iter().fold(0u64, |m, &p| m | (1 << p))
    }

    #[test]
    fn both_bounds_admissible_at_all_prefixes_of_a_small_instance() {
        let inst = QapInstance::nugent_style(2, 3, 11);
        let prefixes: Vec<Vec<u16>> = vec![
            vec![],
            vec![2],
            vec![0, 3],
            vec![5, 1, 4],
            vec![1, 2, 3, 4],
            vec![0, 1, 2, 3, 4, 5],
        ];
        for placement in prefixes {
            let used = used_of(&placement);
            let base = placed_cost(&inst, &placement);
            let exact = best_completion(&inst, &placement);
            let screen = screen_bound(&inst, &placement, used, base);
            let gl = gilmore_lawler_bound(&inst, &placement, used, base);
            assert!(screen <= exact, "screen {screen} > exact {exact}");
            assert!(gl <= exact, "GL {gl} > exact {exact} at {placement:?}");
            assert!(gl >= screen, "GL {gl} below screen {screen}");
        }
    }

    #[test]
    fn gl_complete_placement_is_exact_base() {
        let inst = QapInstance::random(5, 3);
        let placement: Vec<u16> = vec![3, 1, 4, 0, 2];
        let base = placed_cost(&inst, &placement);
        assert_eq!(
            gilmore_lawler_bound(&inst, &placement, used_of(&placement), base),
            base
        );
    }

    #[test]
    fn gl_at_root_is_strictly_stronger_on_a_structured_instance() {
        // On grid instances the pooled rearrangement loses the row
        // structure, so GL should beat the screen at the root.
        let inst = QapInstance::nugent_style(3, 3, 5);
        let screen = screen_bound(&inst, &[], 0, 0);
        let gl = gilmore_lawler_bound(&inst, &[], 0, 0);
        assert!(
            gl > screen,
            "expected a strict GL win at the root (screen {screen}, GL {gl})"
        );
        assert!(gl <= inst.brute_optimum());
    }

    #[test]
    fn gl_handles_asymmetric_flows() {
        // flow(0→1)=7, flow(1→0)=1, flow(0→2)=2 — per-row out-flow
        // accounting must keep the bound admissible.
        let flow = vec![0, 7, 2, 1, 0, 0, 0, 3, 0];
        let dist = vec![0, 1, 2, 1, 0, 1, 2, 1, 0];
        let inst = QapInstance::new(3, flow, dist);
        let gl = gilmore_lawler_bound(&inst, &[], 0, 0);
        assert!(gl <= inst.brute_optimum());
        let screen = screen_bound(&inst, &[], 0, 0);
        assert!(gl >= screen);
    }

    #[test]
    fn default_bound_is_gilmore_lawler() {
        assert_eq!(Bound::default(), Bound::GilmoreLawler);
    }
}
