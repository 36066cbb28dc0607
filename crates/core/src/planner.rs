//! The unified compression planner: one optimizer core behind every
//! compression entry point.
//!
//! Before this module, the `brute`, `dp` and `greedy` optimizers each
//! re-derived per-node statistics from a [`GroupAnalysis`] and exposed
//! their own entry points; `CobraSession::compress` recomputed everything
//! whenever the bound changed. The planner collapses them behind two
//! abstractions:
//!
//! * [`PlanContext`] — the **shared cut statistics**: per-node subtree
//!   statistics ([`NodeStats`]: group weight, leaf counts, member-monomial
//!   counts, merge savings) computed **once** from a [`GroupAnalysis`],
//!   plus the memoized tree-knapsack DP tables every exact query reuses.
//! * [`CutPlanner`] — the planning interface: [`plan`](CutPlanner::plan)
//!   answers one bound, [`plan_frontier`](CutPlanner::plan_frontier)
//!   produces the **entire expressiveness/size Pareto curve** in one pass
//!   as a [`CutFrontier`], whose [`select`](CutFrontier::select) resolves
//!   any later bound in `O(log |frontier|)` — the engine behind
//!   `CobraSession::{compress_frontier, select_bound}` and the paper's
//!   interactive bound sweep (the companion demo plots the whole
//!   trade-off curve, not a single point).
//!
//! Two planners implement the interface:
//!
//! * [`ExactDp`] — the paper's PTIME bottom-up tree knapsack (optimal).
//! * [`Greedy`] — agglomerative coarsening from the leaf cut (baseline).
//!
//! Exhaustive search is a test oracle, not a planner: [`crate::brute`]
//! measures real applications, and this module's tests keep an
//! enumerate-and-score reference behind the same interface.
//!
//! ```
//! use cobra_core::planner::{CutPlanner, ExactDp, PlanContext};
//! use cobra_core::{groups::GroupAnalysis, tree::AbstractionTree};
//! use cobra_provenance::{parse_polyset, VarRegistry};
//!
//! let mut reg = VarRegistry::new();
//! let tree = AbstractionTree::parse("T(A(a1,a2), B(b1,b2))", &mut reg).unwrap();
//! let set = parse_polyset("P = 1*c*a1 + 2*c*a2 + 3*c*b1 + 4*c*b2", &mut reg).unwrap();
//! let analysis = GroupAnalysis::analyze(&set, &tree).unwrap();
//! let ctx = PlanContext::new(&tree, &analysis);
//! // the whole trade-off curve in one pass…
//! let frontier = ExactDp.plan_frontier(&ctx).unwrap();
//! assert_eq!(frontier.len(), 4); // k = 1, 2, 3, 4 are all attainable
//! // …then any bound is a lookup
//! let at3 = frontier.select(3).unwrap();
//! assert_eq!((at3.variables, at3.size), (3, 3));
//! assert_eq!(ExactDp.plan(&ctx, 3).unwrap().size, 3);
//! ```

use crate::cut::Cut;
use crate::error::{CoreError, Result};
use crate::groups::GroupAnalysis;
use crate::tree::{AbstractionTree, NodeId};
use cobra_util::par;
use std::cell::OnceCell;
use std::sync::Arc;

const INF: u64 = u64::MAX;

/// Per-node subtree statistics, derived once per [`PlanContext`] and
/// shared by every planner (indexed by [`NodeId`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeStats {
    /// `w(v)`: groups touching the subtree — the node's additive
    /// contribution to any cut containing it ([`crate::groups`]).
    pub weight: u64,
    /// Leaves under the subtree — the maximal cut cardinality within it.
    pub leaves: u32,
    /// Σ `w(child)` over the node's children (0 for leaves).
    pub child_weight_sum: u64,
    /// Monomials saved by cutting here instead of at the children:
    /// `child_weight_sum − weight` (≥ 0 by subadditivity; 0 for leaves).
    pub saving: u64,
    /// Group-member monomials whose leaf lies under the subtree.
    pub members: u64,
}

impl NodeStats {
    /// Monomials merged away when the subtree collapses to one
    /// meta-variable relative to keeping all its leaves — the node's
    /// error-mass contribution (merged monomials are where compression
    /// loss can appear).
    pub fn merged(&self) -> u64 {
        self.members - self.weight
    }
}

/// Per-node DP table of the tree knapsack: `cost[k-1]` = minimal Σw for a
/// cut of this subtree with exactly `k` nodes (`INF` if unattainable),
/// plus backpointers for reconstruction.
struct NodeTable {
    cost: Vec<u64>,
    /// For each feasible `k`: `None` = cut at this node (only for k=1);
    /// `Some(splits)` = per-child cardinalities.
    choice: Vec<Option<Vec<usize>>>,
}

/// The shared planning state for one `(tree, analysis)` pair: memoized
/// per-node [`NodeStats`] plus the lazily built knapsack tables. Build it
/// once, hand it to any number of [`CutPlanner`] calls.
pub struct PlanContext<'a> {
    tree: &'a AbstractionTree,
    analysis: &'a GroupAnalysis,
    stats: Vec<NodeStats>,
    tables: OnceCell<Vec<Arc<NodeTable>>>,
}

/// An owned snapshot of a [`PlanContext`]'s derived state — the per-node
/// statistics plus the (Arc-shared) knapsack tables — detached from the
/// context's borrows so a session can keep it across delta updates.
/// [`PlanContext::new_incremental`] rebuilds tables only for subtrees
/// whose group weight actually changed, reusing every clean subtree's
/// table by pointer.
#[derive(Clone)]
pub struct PlanSnapshot {
    stats: Vec<NodeStats>,
    tables: Vec<Arc<NodeTable>>,
}

impl<'a> PlanContext<'a> {
    /// Derives the shared statistics (one `O(members + nodes)` pass).
    pub fn new(tree: &'a AbstractionTree, analysis: &'a GroupAnalysis) -> PlanContext<'a> {
        assert_eq!(
            analysis.node_weight.len(),
            tree.num_nodes(),
            "analysis must come from this tree"
        );
        // members per leaf position, then accumulate up in post order
        let mut leaf_members = vec![0u64; tree.num_leaves()];
        for group in &analysis.groups {
            for &pos in &group.leaf_positions {
                leaf_members[pos as usize] += 1;
            }
        }
        let mut stats: Vec<NodeStats> = tree
            .node_ids()
            .map(|id| NodeStats {
                weight: analysis.node_weight[id.index()],
                leaves: tree.leaf_range(id).len() as u32,
                child_weight_sum: 0,
                saving: 0,
                members: 0,
            })
            .collect();
        for node in tree.post_order() {
            let i = node.index();
            if tree.is_leaf(node) {
                stats[i].members = leaf_members[tree.leaf_range(node).start];
            } else {
                let (mut cws, mut members) = (0u64, 0u64);
                for &child in tree.children(node) {
                    cws += stats[child.index()].weight;
                    members += stats[child.index()].members;
                }
                stats[i].child_weight_sum = cws;
                stats[i].saving = cws - stats[i].weight;
                stats[i].members = members;
            }
        }
        PlanContext {
            tree,
            analysis,
            stats,
            tables: OnceCell::new(),
        }
    }

    /// The abstraction tree being planned over.
    pub fn tree(&self) -> &'a AbstractionTree {
        self.tree
    }

    /// The underlying group analysis.
    pub fn analysis(&self) -> &'a GroupAnalysis {
        self.analysis
    }

    /// The memoized per-node statistics (indexed by [`NodeId`]).
    pub fn stats(&self) -> &[NodeStats] {
        &self.stats
    }

    /// The statistics of one node.
    pub fn stat(&self, node: NodeId) -> &NodeStats {
        &self.stats[node.index()]
    }

    /// Compressed size of an arbitrary cut, via the additive formula.
    pub fn cut_size(&self, nodes: &[NodeId]) -> u64 {
        self.analysis.compressed_size(nodes)
    }

    /// The memoized DP tables (built on first exact query, shared by
    /// every subsequent `plan`/`plan_frontier`/cardinality call).
    fn tables(&self) -> &[Arc<NodeTable>] {
        self.tables.get_or_init(|| build_tables(self.tree, &self.stats))
    }

    /// Captures the derived statistics and DP tables (forcing the table
    /// build if it has not happened yet) for later reuse by
    /// [`new_incremental`](Self::new_incremental). Tables are Arc-shared,
    /// so a snapshot costs `O(nodes)` pointer clones.
    pub fn snapshot(&self) -> PlanSnapshot {
        PlanSnapshot {
            stats: self.stats.clone(),
            tables: self.tables().to_vec(),
        }
    }

    /// Builds a context for `(tree, analysis)` reusing a previous
    /// snapshot's knapsack tables wherever they are still valid. A node's
    /// table depends only on the **weights** inside its subtree
    /// (the table builder reads nothing else from the statistics), so
    /// after a delta the tables along unaffected root-to-leaf paths are
    /// reused by pointer and only the dirty paths re-run the knapsack
    /// convolution. Falls back to plain [`new`](Self::new) semantics
    /// (everything lazily rebuilt) if the snapshot came from a different
    /// tree shape.
    pub fn new_incremental(
        tree: &'a AbstractionTree,
        analysis: &'a GroupAnalysis,
        prev: &PlanSnapshot,
    ) -> PlanContext<'a> {
        let ctx = PlanContext::new(tree, analysis);
        if prev.stats.len() != ctx.stats.len() {
            return ctx;
        }
        let mut tables: Vec<Option<Arc<NodeTable>>> =
            (0..tree.num_nodes()).map(|_| None).collect();
        let mut dirty = vec![false; tree.num_nodes()];
        for node in tree.post_order() {
            let i = node.index();
            dirty[i] = ctx.stats[i].weight != prev.stats[i].weight
                || tree.children(node).iter().any(|c| dirty[c.index()]);
            tables[i] = Some(if dirty[i] {
                Arc::new(build_node_table(
                    tree,
                    node,
                    ctx.stats[i].weight,
                    &tables,
                ))
            } else {
                Arc::clone(&prev.tables[i])
            });
        }
        let tables: Vec<Arc<NodeTable>> =
            tables.into_iter().map(|t| t.expect("all filled")).collect();
        let _ = ctx.tables.set(tables);
        ctx
    }
}

/// A planned compression for one bound: the chosen cut with its
/// expressiveness (`variables = |cut|`) and compressed size.
#[derive(Clone, Debug)]
pub struct PlannedCut {
    /// The chosen cut.
    pub cut: Cut,
    /// `|cut|` — the expressiveness achieved on this tree.
    pub variables: usize,
    /// Compressed provenance size under the cut (monomials, incl. base).
    pub size: u64,
}

/// A point of the expressiveness/size trade-off curve (sizes only; the
/// [`CutFrontier`] carries the witness cuts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParetoPoint {
    /// Cut cardinality (number of meta-variables for this tree).
    pub variables: usize,
    /// Total compressed provenance size (monomials, including base).
    pub size: u64,
}

/// One point of a [`CutFrontier`]: an attainable expressiveness with the
/// minimal size the planner found for it, and a witness cut achieving it.
#[derive(Clone, Debug)]
pub struct FrontierPoint {
    /// Cut cardinality.
    pub variables: usize,
    /// Compressed provenance size (monomials, including base).
    pub size: u64,
    /// A cut achieving `(variables, size)`.
    pub cut: Cut,
}

/// The full expressiveness/size Pareto curve of one planning pass:
/// points in strictly increasing `variables` **and** strictly increasing
/// `size`, each carrying its witness cut. Any later bound resolves
/// against the frontier in `O(log n)` ([`select`](CutFrontier::select))
/// — no re-planning.
///
/// Dominated candidates are dropped at construction: with free (weight-0)
/// leaves a *more* expressive cut can be no larger than a less expressive
/// one, and since planning always prefers more variables at equal size,
/// such dominated points can never be selected by any bound. (The raw
/// per-cardinality curve, dominated points included, remains available
/// through [`ExactDp::frontier_sizes`].)
#[derive(Clone, Debug)]
pub struct CutFrontier {
    points: Vec<FrontierPoint>,
}

impl CutFrontier {
    /// Builds the frontier from candidates in ascending `variables`
    /// order, dropping dominated points: a later (more expressive) point
    /// with `size ≤` an earlier one makes the earlier point unselectable
    /// for every bound under the max-variables / min-size objective.
    pub(crate) fn from_points(mut raw: Vec<FrontierPoint>) -> CutFrontier {
        debug_assert!(!raw.is_empty(), "a frontier has at least the root cut");
        debug_assert!(raw.windows(2).all(|w| w[0].variables < w[1].variables));
        let mut points: Vec<FrontierPoint> = Vec::with_capacity(raw.len());
        for point in raw.drain(..) {
            while points.last().is_some_and(|last| last.size >= point.size) {
                points.pop();
            }
            points.push(point);
        }
        debug_assert!(points
            .windows(2)
            .all(|w| w[0].variables < w[1].variables && w[0].size < w[1].size));
        CutFrontier { points }
    }

    /// Number of frontier points (attainable cut cardinalities).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the frontier has no points (never, for a valid plan).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points in ascending `variables` order.
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// The sizes-only view of the curve (the paper's E5 table).
    pub fn pareto_points(&self) -> Vec<ParetoPoint> {
        self.points
            .iter()
            .map(|p| ParetoPoint {
                variables: p.variables,
                size: p.size,
            })
            .collect()
    }

    /// The most expressive point whose size fits `bound` — the same
    /// maximal-cardinality/minimal-size selection `plan` makes, as a
    /// binary search over the monotone curve. `None` if even the coarsest
    /// point exceeds the bound.
    pub fn select(&self, bound: u64) -> Option<&FrontierPoint> {
        self.select_index(bound).map(|i| &self.points[i])
    }

    /// [`select`](Self::select), returning the point's index.
    pub fn select_index(&self, bound: u64) -> Option<usize> {
        let feasible = self.points.partition_point(|p| p.size <= bound);
        feasible.checked_sub(1)
    }

    /// The smallest size on the curve — the minimum achievable compressed
    /// size (reported when a bound is infeasible).
    pub fn min_size(&self) -> u64 {
        self.points.first().map_or(0, |p| p.size)
    }
}

/// The planning interface every optimizer implements: answer one bound
/// ([`plan`](Self::plan)) or produce the whole trade-off curve in one
/// pass ([`plan_frontier`](Self::plan_frontier)).
pub trait CutPlanner {
    /// A short human-readable planner name (reports).
    fn name(&self) -> &'static str;

    /// The full Pareto frontier of this planner's attainable cuts.
    ///
    /// # Errors
    /// Planner-specific (e.g. [`CoreError::TooManyCuts`] for the
    /// exhaustive planner); the exact DP cannot fail.
    fn plan_frontier(&self, ctx: &PlanContext<'_>) -> Result<CutFrontier>;

    /// The maximal-cardinality cut whose compressed size fits `bound`
    /// (ties broken by smaller size). The default selects from
    /// [`plan_frontier`](Self::plan_frontier); planners override it when
    /// a single bound can be answered more cheaply.
    ///
    /// # Errors
    /// [`CoreError::InfeasibleBound`] if no attainable cut fits.
    fn plan(&self, ctx: &PlanContext<'_>, bound: u64) -> Result<PlannedCut> {
        let frontier = self.plan_frontier(ctx)?;
        match frontier.select(bound) {
            Some(point) => Ok(PlannedCut {
                cut: point.cut.clone(),
                variables: point.variables,
                size: point.size,
            }),
            None => Err(CoreError::InfeasibleBound {
                min_achievable: frontier.min_size(),
            }),
        }
    }
}

/// The exact PTIME planner: bottom-up tree-knapsack dynamic programming
/// (paper §2). Optimal for every bound; `plan_frontier` reads the entire
/// curve out of one table build, with cut reconstruction fanned across
/// workers.
///
/// Because the compressed size decomposes as `base + Σ_{v∈cut} w(v)`
/// ([`crate::groups`]), the problem is a **tree knapsack**: for every node
/// `v` and cut cardinality `k`,
///
/// ```text
/// f_v(k) = min { Σ_{u∈cut} w(u) : cut of subtree(v), |cut| = k }
/// ```
///
/// A leaf has `f(1) = w`; an inner node either cuts at itself (`k = 1`,
/// cost `w(v)`) or combines its children's cuts by knapsack convolution.
/// The optimum for bound `B` is the largest `k` with
/// `f_root(k) ≤ B − base`, recovered through backpointers, in `O(L²)`
/// total work over `L` leaves — the PTIME bound the paper claims.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactDp;

impl ExactDp {
    /// The minimal-size cut for an exact cardinality `k`, if attainable —
    /// used by the ablation experiments to pin expressiveness while
    /// varying cost.
    pub fn plan_cardinality(&self, ctx: &PlanContext<'_>, k: usize) -> Option<PlannedCut> {
        let tables = ctx.tables();
        let root = &tables[ctx.tree.root().index()];
        if k == 0 || k > root.cost.len() || root.cost[k - 1] == INF {
            return None;
        }
        let cut = reconstruct_cut(ctx.tree, tables, k);
        Some(PlannedCut {
            variables: k,
            size: ctx.analysis.base_monomials + root.cost[k - 1],
            cut,
        })
    }

    /// The raw per-cardinality curve (no cut reconstruction, dominated
    /// points included): for every attainable `k`, the minimal size —
    /// cheaper than [`plan_frontier`](CutPlanner::plan_frontier) when
    /// only the shape of the trade-off is needed.
    pub fn frontier_sizes(&self, ctx: &PlanContext<'_>) -> Vec<ParetoPoint> {
        let tables = ctx.tables();
        let root = &tables[ctx.tree.root().index()];
        (1..=root.cost.len())
            .filter(|&k| root.cost[k - 1] != INF)
            .map(|k| ParetoPoint {
                variables: k,
                size: ctx.analysis.base_monomials + root.cost[k - 1],
            })
            .collect()
    }
}

impl CutPlanner for ExactDp {
    fn name(&self) -> &'static str {
        "exact-dp"
    }

    /// Maximal-cardinality cut whose compressed size is ≤ `bound`; ties
    /// broken by smaller size.
    ///
    /// ```
    /// use cobra_core::planner::{CutPlanner, ExactDp, PlanContext};
    /// use cobra_core::{groups::GroupAnalysis, tree::AbstractionTree};
    /// use cobra_provenance::{parse_polyset, VarRegistry};
    ///
    /// let mut reg = VarRegistry::new();
    /// let tree = AbstractionTree::parse("T(A(a1,a2), B(b1,b2))", &mut reg).unwrap();
    /// let set = parse_polyset("P = 1*c*a1 + 2*c*a2 + 3*c*b1 + 4*c*b2", &mut reg).unwrap();
    /// let analysis = GroupAnalysis::analyze(&set, &tree).unwrap();
    /// // bound 3 forces one merge; the optimizer keeps three variables
    /// let sol = ExactDp.plan(&PlanContext::new(&tree, &analysis), 3).unwrap();
    /// assert_eq!(sol.variables, 3);
    /// assert_eq!(sol.size, 3);
    /// ```
    fn plan(&self, ctx: &PlanContext<'_>, bound: u64) -> Result<PlannedCut> {
        let tables = ctx.tables();
        let root = &tables[ctx.tree.root().index()];
        let budget = bound.saturating_sub(ctx.analysis.base_monomials);
        if ctx.analysis.base_monomials > bound || root.cost[0] > budget {
            return Err(CoreError::InfeasibleBound {
                min_achievable: ctx.analysis.base_monomials + root.cost[0],
            });
        }
        let mut best_k = 1usize;
        for k in 1..=root.cost.len() {
            let c = root.cost[k - 1];
            if c != INF && c <= budget {
                best_k = k; // larger k always preferred; cost for fixed k is minimal
            }
        }
        let cut = reconstruct_cut(ctx.tree, tables, best_k);
        let size = ctx.analysis.base_monomials + root.cost[best_k - 1];
        debug_assert_eq!(size, ctx.cut_size(cut.nodes()));
        Ok(PlannedCut {
            variables: best_k,
            size,
            cut,
        })
    }

    fn plan_frontier(&self, ctx: &PlanContext<'_>) -> Result<CutFrontier> {
        let tables = ctx.tables();
        let root = &tables[ctx.tree.root().index()];
        let base = ctx.analysis.base_monomials;
        // Dominance-filter on the raw (k, size) pairs first, so witness
        // cuts are only reconstructed for selectable points.
        let mut kept: Vec<(usize, u64)> = Vec::new();
        for k in 1..=root.cost.len() {
            if root.cost[k - 1] == INF {
                continue;
            }
            let size = base + root.cost[k - 1];
            while kept.last().is_some_and(|&(_, s)| s >= size) {
                kept.pop();
            }
            kept.push((k, size));
        }
        // Reconstruction of the witness cuts is independent per point:
        // fan it across workers (ordered by construction). Only the
        // resolved tables and the tree cross the thread boundary — the
        // context itself holds a OnceCell and stays on this thread.
        let tree = ctx.tree;
        let points = par::par_map(&kept, |_, &(k, size)| FrontierPoint {
            variables: k,
            size,
            cut: reconstruct_cut(tree, tables, k),
        });
        Ok(CutFrontier::from_points(points))
    }
}

/// The greedy agglomerative planner — the natural baseline against the
/// exact DP (ablation A1). Starts from the identity (leaf) cut and
/// repeatedly coarsens the sibling group with the best size reduction per
/// variable lost; `plan_frontier` records the whole coarsening trajectory
/// down to the root. Feasible but can be strictly suboptimal (a witnessed
/// gap lives in `tests/greedy_vs_dp.rs`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Greedy;

/// One greedy coarsening state: `in_cut` flags plus the current size.
struct GreedyState {
    in_cut: Vec<bool>,
    size: u64,
    variables: usize,
}

impl GreedyState {
    fn leaf_cut(ctx: &PlanContext<'_>) -> GreedyState {
        let tree = ctx.tree();
        let mut in_cut = vec![false; tree.num_nodes()];
        let mut cost = 0u64;
        let mut variables = 0usize;
        for id in tree.node_ids() {
            if tree.is_leaf(id) {
                in_cut[id.index()] = true;
                cost += ctx.stat(id).weight;
                variables += 1;
            }
        }
        GreedyState {
            in_cut,
            size: ctx.analysis().base_monomials + cost,
            variables,
        }
    }

    /// Applies the best coarsening move (shared statistics: the saving is
    /// `ctx.stat(node).saving`, valid because candidates have all children
    /// in the cut). Returns `false` when the cut is already `{root}`.
    fn coarsen(&mut self, ctx: &PlanContext<'_>) -> bool {
        let tree = ctx.tree();
        let mut best: Option<(NodeId, u64, usize, f64)> = None; // (node, Δsize, Δvars, ratio)
        for id in tree.node_ids() {
            if tree.is_leaf(id) || self.in_cut[id.index()] {
                continue;
            }
            let children = tree.children(id);
            if !children.iter().all(|c| self.in_cut[c.index()]) {
                continue;
            }
            let saved = ctx.stat(id).saving; // ≥ 0 by subadditivity
            let lost = children.len() - 1;
            // unary chains lose no variables: always worth collapsing
            let ratio = if lost == 0 {
                f64::INFINITY
            } else {
                saved as f64 / lost as f64
            };
            let better = match best {
                None => true,
                Some((_, best_saved, _, best_ratio)) => {
                    ratio > best_ratio || (ratio == best_ratio && saved > best_saved)
                }
            };
            if better {
                best = Some((id, saved, lost, ratio));
            }
        }
        let Some((node, saved, lost, _)) = best else {
            return false;
        };
        for &c in tree.children(node) {
            self.in_cut[c.index()] = false;
        }
        self.in_cut[node.index()] = true;
        self.size -= saved;
        self.variables -= lost;
        true
    }

    fn cut(&self, ctx: &PlanContext<'_>) -> Cut {
        let nodes: Vec<NodeId> = ctx
            .tree()
            .node_ids()
            .filter(|&id| self.in_cut[id.index()])
            .collect();
        Cut::new(ctx.tree(), nodes).expect("coarsening preserves cut validity")
    }
}

impl CutPlanner for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn plan(&self, ctx: &PlanContext<'_>, bound: u64) -> Result<PlannedCut> {
        let mut state = GreedyState::leaf_cut(ctx);
        while state.size > bound {
            if !state.coarsen(ctx) {
                // cut is already {root}
                return Err(CoreError::InfeasibleBound {
                    min_achievable: state.size,
                });
            }
        }
        let cut = state.cut(ctx);
        debug_assert_eq!(cut.len(), state.variables);
        Ok(PlannedCut {
            variables: state.variables,
            size: state.size,
            cut,
        })
    }

    fn plan_frontier(&self, ctx: &PlanContext<'_>) -> Result<CutFrontier> {
        // Record the whole coarsening trajectory; keep the best (= last,
        // smallest-size) state per cardinality, then reverse into
        // ascending-variables order.
        let mut state = GreedyState::leaf_cut(ctx);
        let mut trajectory: Vec<FrontierPoint> = vec![FrontierPoint {
            variables: state.variables,
            size: state.size,
            cut: state.cut(ctx),
        }];
        while state.coarsen(ctx) {
            let point = FrontierPoint {
                variables: state.variables,
                size: state.size,
                cut: state.cut(ctx),
            };
            match trajectory.last_mut() {
                Some(last) if last.variables == point.variables => *last = point,
                _ => trajectory.push(point),
            }
        }
        trajectory.reverse();
        Ok(CutFrontier::from_points(trajectory))
    }
}

/// Builds one node's knapsack table from its children's (already filled)
/// tables — the shared body of the full bottom-up build and the
/// dirty-path rebuild in [`PlanContext::new_incremental`]. Depends only
/// on the node's own weight `w` and the children's tables.
fn build_node_table(
    tree: &AbstractionTree,
    node: NodeId,
    w: u64,
    tables: &[Option<Arc<NodeTable>>],
) -> NodeTable {
    if tree.is_leaf(node) {
        return NodeTable {
            cost: vec![w],
            choice: vec![None],
        };
    }
    // Knapsack convolution over children: `acc_cost[k]` is the
    // minimal Σw over cuts of the already-folded children using
    // exactly `k` nodes; `acc_split[k]` records each child's share.
    let mut acc_cost: Vec<u64> = vec![0];
    let mut acc_split: Vec<Vec<usize>> = vec![Vec::new()];
    for &child in tree.children(node) {
        let ct = tables[child.index()]
            .as_deref()
            .expect("post-order fills children first");
        let new_len = acc_cost.len() + ct.cost.len();
        let mut new_cost = vec![INF; new_len];
        let mut new_split: Vec<Vec<usize>> = vec![Vec::new(); new_len];
        for (i, &ca) in acc_cost.iter().enumerate() {
            if ca == INF {
                continue;
            }
            for (j, &cb) in ct.cost.iter().enumerate() {
                if cb == INF {
                    continue;
                }
                let k = i + j + 1; // this child contributes j+1 nodes
                let total = ca + cb;
                if total < new_cost[k] {
                    new_cost[k] = total;
                    let mut s = acc_split[i].clone();
                    s.push(j + 1);
                    new_split[k] = s;
                }
            }
        }
        acc_cost = new_cost;
        acc_split = new_split;
    }
    // Shift to 1-based cardinalities; k ranges up to #leaves(node).
    let max_k = acc_cost.len() - 1;
    let mut cost = vec![INF; max_k];
    let mut choice: Vec<Option<Vec<usize>>> = vec![None; max_k];
    for k in 1..=max_k {
        if acc_cost[k] != INF {
            cost[k - 1] = acc_cost[k];
            choice[k - 1] = Some(std::mem::take(&mut acc_split[k]));
        }
    }
    // Option: cut at this node itself (k = 1).
    if w < cost[0] {
        cost[0] = w;
        choice[0] = None;
    }
    NodeTable { cost, choice }
}

fn build_tables(tree: &AbstractionTree, stats: &[NodeStats]) -> Vec<Arc<NodeTable>> {
    let mut tables: Vec<Option<Arc<NodeTable>>> = (0..tree.num_nodes()).map(|_| None).collect();
    for node in tree.post_order() {
        let table = build_node_table(tree, node, stats[node.index()].weight, &tables);
        tables[node.index()] = Some(Arc::new(table));
    }
    tables.into_iter().map(|t| t.expect("all filled")).collect()
}

/// Recovers the minimal cut of cardinality `k` through the backpointers.
fn reconstruct_cut(tree: &AbstractionTree, tables: &[Arc<NodeTable>], k: usize) -> Cut {
    let mut nodes = Vec::with_capacity(k);
    reconstruct(tree, tables, tree.root(), k, &mut nodes);
    Cut::new(tree, nodes).expect("DP reconstruction yields a valid cut")
}

fn reconstruct(
    tree: &AbstractionTree,
    tables: &[Arc<NodeTable>],
    node: NodeId,
    k: usize,
    out: &mut Vec<NodeId>,
) {
    match &tables[node.index()].choice[k - 1] {
        None => out.push(node),
        Some(splits) => {
            debug_assert_eq!(splits.len(), tree.children(node).len());
            for (&child, &ck) in tree.children(node).iter().zip(splits) {
                reconstruct(tree, tables, child, ck, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::enumerate_cuts;

    /// The exhaustive reference planner: enumerates every cut (bounded by
    /// `limit`) and scores candidates in parallel over the shared
    /// statistics. Test-only — it pins [`ExactDp`] from inside the planner
    /// interface, beside the application-measured oracle in [`crate::brute`].
    #[derive(Clone, Copy, Debug)]
    struct BruteForce {
        /// Maximum number of cuts to enumerate before giving up with
        /// [`CoreError::TooManyCuts`].
        limit: usize,
    }

    impl BruteForce {
        /// A planner enumerating at most `limit` cuts.
        fn new(limit: usize) -> BruteForce {
            BruteForce { limit }
        }
    }

    impl Default for BruteForce {
        fn default() -> Self {
            BruteForce::new(100_000)
        }
    }

    impl CutPlanner for BruteForce {
        fn name(&self) -> &'static str {
            "brute-force"
        }

        fn plan_frontier(&self, ctx: &PlanContext<'_>) -> Result<CutFrontier> {
            let cuts = enumerate_cuts(ctx.tree, self.limit)?;
            let max_k = ctx.tree.num_leaves();
            // Candidate scoring fanned across workers: each span reduces to a
            // per-cardinality (size, cut index) minimum; partials merge in
            // ascending span order, ties prefer the lower cut index, so the
            // result is independent of the thread count. (The analysis — not
            // the OnceCell-carrying context — crosses the thread boundary.)
            let analysis = ctx.analysis;
            let best_per_k = par::par_map_reduce(
                cuts.len(),
                64,
                |range| {
                    let mut best: Vec<Option<(u64, usize)>> = vec![None; max_k + 1];
                    for i in range {
                        let cut = &cuts[i];
                        let size = analysis.compressed_size(cut.nodes());
                        let slot = &mut best[cut.len()];
                        if slot.is_none_or(|(s, _)| size < s) {
                            *slot = Some((size, i));
                        }
                    }
                    best
                },
                |mut a, b| {
                    for (sa, sb) in a.iter_mut().zip(b) {
                        if let Some((size_b, idx_b)) = sb {
                            if sa.is_none_or(|(size_a, _)| size_b < size_a) {
                                *sa = Some((size_b, idx_b));
                            }
                        }
                    }
                    a
                },
            )
            .expect("enumerate_cuts yields at least the root cut");
            let points: Vec<FrontierPoint> = best_per_k
                .into_iter()
                .enumerate()
                .filter_map(|(k, slot)| {
                    slot.map(|(size, idx)| FrontierPoint {
                        variables: k,
                        size,
                        cut: cuts[idx].clone(),
                    })
                })
                .collect();
            Ok(CutFrontier::from_points(points))
        }
    }
    use crate::tree::paper_plans_tree;
    use cobra_provenance::{parse_polyset, PolySet, VarRegistry};
    use cobra_util::Rat;

    fn paper_setup() -> (VarRegistry, AbstractionTree, GroupAnalysis) {
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let src = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";
        let set: PolySet<Rat> = parse_polyset(src, &mut reg).unwrap();
        let analysis = GroupAnalysis::analyze(&set, &tree).unwrap();
        (reg, tree, analysis)
    }

    #[test]
    fn node_stats_are_consistent() {
        let (_, tree, analysis) = paper_setup();
        let ctx = PlanContext::new(&tree, &analysis);
        let root = ctx.stat(tree.root());
        assert_eq!(root.leaves, 11);
        assert_eq!(root.weight, 4); // every group touches the root
        assert_eq!(root.members, 14); // all monomials carry a tree leaf
        assert_eq!(root.merged(), 10);
        for id in tree.node_ids() {
            let s = ctx.stat(id);
            if tree.is_leaf(id) {
                assert_eq!(s.saving, 0);
                assert_eq!(s.child_weight_sum, 0);
                assert_eq!(s.members, s.weight, "a leaf's members are its groups");
            } else {
                assert_eq!(s.saving, s.child_weight_sum - s.weight);
                assert_eq!(
                    s.leaves as usize,
                    tree.children(id)
                        .iter()
                        .map(|&c| ctx.stat(c).leaves as usize)
                        .sum::<usize>()
                );
            }
            assert!(s.members >= s.weight, "each group has ≥1 member per subtree");
        }
    }

    #[test]
    fn dp_frontier_points_carry_valid_witness_cuts() {
        let (_, tree, analysis) = paper_setup();
        let ctx = PlanContext::new(&tree, &analysis);
        let frontier = ExactDp.plan_frontier(&ctx).unwrap();
        let raw = ExactDp.frontier_sizes(&ctx);
        assert!(frontier.len() <= raw.len());
        for point in frontier.points() {
            assert_eq!(point.cut.len(), point.variables);
            assert_eq!(ctx.cut_size(point.cut.nodes()), point.size);
            // every frontier point is a point of the raw curve
            assert!(raw
                .iter()
                .any(|r| r.variables == point.variables && r.size == point.size));
        }
        // frontier selection == direct planning for every bound
        for bound in 0..=16u64 {
            match (ExactDp.plan(&ctx, bound), frontier.select(bound)) {
                (Ok(plan), Some(point)) => {
                    assert_eq!(plan.variables, point.variables, "bound {bound}");
                    assert_eq!(plan.size, point.size, "bound {bound}");
                    assert_eq!(plan.cut, point.cut, "bound {bound}");
                }
                (Err(CoreError::InfeasibleBound { min_achievable }), None) => {
                    assert_eq!(min_achievable, frontier.min_size());
                }
                (plan, point) => panic!("bound {bound}: {plan:?} vs {point:?}"),
            }
        }
    }

    #[test]
    fn incremental_context_reuses_clean_subtree_tables() {
        use cobra_provenance::{parse_polyset, Monomial, PolyDelta};
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let src = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";
        let mut set: PolySet<Rat> = parse_polyset(src, &mut reg).unwrap();
        let analysis = GroupAnalysis::analyze(&set, &tree).unwrap();
        let ctx = PlanContext::new(&tree, &analysis);
        ExactDp.plan_frontier(&ctx).unwrap(); // force the tables
        let snap = ctx.snapshot();

        // A delta confined to P2 under Business: a new group touching b1.
        let b1 = reg.lookup("b1").unwrap();
        let m9 = reg.var("m9");
        let mut delta = PolyDelta::new();
        delta.add(1, Monomial::from_pairs([(b1, 1), (m9, 1)]), Rat::parse("3").unwrap());
        let report = set.apply_delta(&delta).unwrap();
        let analysis2 = analysis
            .reanalyze_polys(&set, &tree, &report.touched())
            .unwrap();

        let inc = PlanContext::new_incremental(&tree, &analysis2, &snap);
        let fresh = PlanContext::new(&tree, &analysis2);
        let f_inc = ExactDp.plan_frontier(&inc).unwrap();
        let f_fresh = ExactDp.plan_frontier(&fresh).unwrap();
        assert_eq!(f_inc.len(), f_fresh.len());
        for (a, b) in f_inc.points().iter().zip(f_fresh.points()) {
            assert_eq!((a.variables, a.size, &a.cut), (b.variables, b.size, &b.cut));
        }

        // Weight changed only along b1 → SB → Business → root: the
        // Standard and Special subtrees reuse their snapshot tables by
        // pointer, the dirty path is rebuilt.
        let tables = inc.tables();
        for (name, reused) in [
            ("Standard", true),
            ("Special", true),
            ("Business", false),
            ("SB", false),
        ] {
            let node = tree.node_by_name(name).unwrap();
            assert_eq!(
                Arc::ptr_eq(&tables[node.index()], &snap.tables[node.index()]),
                reused,
                "table reuse for {name}"
            );
        }
        let root = tree.root().index();
        assert!(!Arc::ptr_eq(&tables[root], &snap.tables[root]));
    }

    #[test]
    fn frontier_is_identical_at_any_thread_count() {
        let (_, tree, analysis) = paper_setup();
        let ctx = PlanContext::new(&tree, &analysis);
        let reference = ExactDp.plan_frontier(&ctx).unwrap();
        let brute_ref = BruteForce::default().plan_frontier(&ctx).unwrap();
        for threads in [1usize, 2, 8] {
            let (dp_t, brute_t) = par::with_threads(threads, || {
                (
                    ExactDp.plan_frontier(&ctx).unwrap(),
                    BruteForce::default().plan_frontier(&ctx).unwrap(),
                )
            });
            for (a, b) in reference.points().iter().zip(dp_t.points()) {
                assert_eq!((a.variables, a.size, &a.cut), (b.variables, b.size, &b.cut));
            }
            for (a, b) in brute_ref.points().iter().zip(brute_t.points()) {
                assert_eq!((a.variables, a.size, &a.cut), (b.variables, b.size, &b.cut));
            }
        }
    }

    #[test]
    fn brute_force_frontier_matches_dp_sizes() {
        let (_, tree, analysis) = paper_setup();
        let ctx = PlanContext::new(&tree, &analysis);
        let dp = ExactDp.plan_frontier(&ctx).unwrap();
        let brute = BruteForce::default().plan_frontier(&ctx).unwrap();
        assert_eq!(dp.len(), brute.len());
        for (a, b) in dp.points().iter().zip(brute.points()) {
            assert_eq!(a.variables, b.variables);
            assert_eq!(a.size, b.size);
        }
    }

    #[test]
    fn brute_force_respects_limit() {
        let (_, tree, analysis) = paper_setup();
        let ctx = PlanContext::new(&tree, &analysis);
        assert!(matches!(
            BruteForce::new(10).plan_frontier(&ctx),
            Err(CoreError::TooManyCuts { limit: 10 })
        ));
    }

    #[test]
    fn greedy_frontier_is_monotone_and_never_beats_dp() {
        let (_, tree, analysis) = paper_setup();
        let ctx = PlanContext::new(&tree, &analysis);
        let dp = ExactDp.plan_frontier(&ctx).unwrap();
        let greedy = Greedy.plan_frontier(&ctx).unwrap();
        for point in greedy.points() {
            assert_eq!(point.cut.len(), point.variables);
            assert_eq!(ctx.cut_size(point.cut.nodes()), point.size);
            // the DP's minimal size for this cardinality is a lower bound
            if let Some(exact) = dp.points().iter().find(|p| p.variables == point.variables) {
                assert!(exact.size <= point.size);
            }
        }
        // greedy plan == greedy frontier selection on this input
        for bound in 4..=14u64 {
            let plan = Greedy.plan(&ctx, bound).unwrap();
            let point = greedy.select(bound).unwrap();
            assert_eq!(plan.variables, point.variables, "bound {bound}");
            assert_eq!(plan.size, point.size, "bound {bound}");
        }
    }

    #[test]
    fn unconstrained_bound_returns_leaf_cut() {
        let (_, tree, a) = paper_setup();
        let sol = ExactDp.plan(&PlanContext::new(&tree, &a), 10_000).unwrap();
        assert_eq!(sol.variables, 11);
        assert_eq!(sol.size, 14); // no compression needed
    }

    #[test]
    fn tight_bound_returns_root_cut() {
        let (_, tree, a) = paper_setup();
        let sol = ExactDp.plan(&PlanContext::new(&tree, &a), 4).unwrap();
        assert_eq!(sol.variables, 1);
        assert_eq!(sol.size, 4);
        assert_eq!(sol.cut.nodes(), &[tree.root()]);
    }

    #[test]
    fn infeasible_bound_reports_minimum() {
        let (_, tree, a) = paper_setup();
        match ExactDp.plan(&PlanContext::new(&tree, &a), 3) {
            Err(CoreError::InfeasibleBound { min_achievable }) => {
                assert_eq!(min_achievable, 4)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn intermediate_bounds_maximize_variables() {
        let (_, tree, a) = paper_setup();
        let ctx = PlanContext::new(&tree, &a);
        // The paper's S1 = {Business, Special, Standard} reaches size 6
        // with 3 variables, but the optimizer does better: p2 occurs in no
        // polynomial, so {p1, p2, Special, Business} also has size 6 with
        // 4 variables (free leaves cost nothing).
        let sol6 = ExactDp.plan(&ctx, 6).unwrap();
        assert_eq!(sol6.variables, 4);
        assert_eq!(sol6.size, 6);
        // At bound 5 neither k=3 nor k=4 fits (both cost 6) and k=2 is
        // unattainable on Fig. 2, so the root cut wins.
        let sol5 = ExactDp.plan(&ctx, 5).unwrap();
        assert_eq!(sol5.variables, 1);
        assert_eq!(sol5.size, 4);
    }

    #[test]
    fn pareto_frontier_is_monotone_and_complete() {
        let (_, tree, a) = paper_setup();
        let frontier = ExactDp.frontier_sizes(&PlanContext::new(&tree, &a));
        assert!(!frontier.is_empty());
        assert_eq!(frontier.first().unwrap().variables, 1);
        assert_eq!(frontier.first().unwrap().size, 4);
        assert_eq!(frontier.last().unwrap().variables, 11);
        assert_eq!(frontier.last().unwrap().size, 14);
        for w in frontier.windows(2) {
            assert!(w[0].variables < w[1].variables);
            assert!(w[0].size <= w[1].size, "size must be monotone in k");
        }
    }

    #[test]
    fn solution_size_matches_group_formula_and_cut_is_valid() {
        let (_, tree, a) = paper_setup();
        let ctx = PlanContext::new(&tree, &a);
        for bound in [4, 5, 6, 8, 10, 12, 14] {
            let sol = ExactDp.plan(&ctx, bound).unwrap();
            assert_eq!(
                sol.size,
                a.compressed_size(sol.cut.nodes()),
                "bound {bound}"
            );
            assert!(sol.size <= bound);
            assert_eq!(sol.cut.len(), sol.variables);
        }
    }

    #[test]
    fn optimize_for_cardinality_pins_k() {
        let (_, tree, a) = paper_setup();
        let ctx = PlanContext::new(&tree, &a);
        let sol = ExactDp.plan_cardinality(&ctx, 3).unwrap();
        assert_eq!(sol.variables, 3);
        assert_eq!(sol.size, 6);
        // k=2 is NOT attainable on Fig. 2 (root has 3 children)
        assert!(ExactDp.plan_cardinality(&ctx, 2).is_none());
        assert!(ExactDp.plan_cardinality(&ctx, 0).is_none());
        assert!(ExactDp.plan_cardinality(&ctx, 12).is_none());
    }

    #[test]
    fn dp_matches_brute_force_on_paper_input() {
        let (_, tree, a) = paper_setup();
        let ctx = PlanContext::new(&tree, &a);
        let cuts = crate::cut::enumerate_cuts(&tree, 1_000).unwrap();
        for bound in 4..=14u64 {
            let dp = ExactDp.plan(&ctx, bound).unwrap();
            // brute force: max k with size ≤ bound, tie → min size
            let best = cuts
                .iter()
                .map(|c| (c.len(), a.compressed_size(c.nodes())))
                .filter(|&(_, size)| size <= bound)
                .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                .unwrap();
            assert_eq!(dp.variables, best.0, "bound {bound}");
            assert_eq!(dp.size, best.1, "bound {bound}");
        }
    }

    #[test]
    fn greedy_is_feasible_and_never_beats_dp() {
        let (_, tree, analysis) = paper_setup();
        let ctx = PlanContext::new(&tree, &analysis);
        for bound in 4..=14u64 {
            let greedy = Greedy.plan(&ctx, bound).unwrap();
            let exact = ExactDp.plan(&ctx, bound).unwrap();
            assert!(greedy.size <= bound, "bound {bound}");
            assert!(
                greedy.variables <= exact.variables,
                "greedy cannot exceed the optimum (bound {bound})"
            );
            assert_eq!(
                analysis.compressed_size(greedy.cut.nodes()),
                greedy.size,
                "bound {bound}"
            );
        }
    }

    #[test]
    fn unconstrained_greedy_keeps_leaves() {
        let (_, tree, analysis) = paper_setup();
        let sol = Greedy
            .plan(&PlanContext::new(&tree, &analysis), 1_000)
            .unwrap();
        assert_eq!(sol.variables, tree.num_leaves());
        assert_eq!(sol.size, 14);
    }

    #[test]
    fn infeasible_bound_detected() {
        let (_, tree, analysis) = paper_setup();
        assert!(matches!(
            Greedy.plan(&PlanContext::new(&tree, &analysis), 3),
            Err(CoreError::InfeasibleBound { min_achievable: 4 })
        ));
    }

    #[test]
    fn planner_names() {
        assert_eq!(ExactDp.name(), "exact-dp");
        assert_eq!(Greedy.name(), "greedy");
    }
}
