//! Binned-SAH wide-BVH construction.
//!
//! Standard top-down binned surface-area-heuristic build producing a
//! binary tree, followed by a collapse into up-to-8-wide nodes — the
//! same strategy Embree uses for the wide-BVH layouts the paper
//! configures (Section V-A). Every wide node holds up to
//! [`MAX_WIDTH`] = 8 children (BVH-8, one SIMD-kernel call per node).

use crate::wide::{ChildKind, WideBvh, WideChild, WideNode, MAX_WIDTH};
use grtx_math::{Aabb, Vec3};

/// Number of SAH bins per axis.
const BIN_COUNT: usize = 16;

/// Input primitive for BVH construction.
#[derive(Debug, Clone, Copy)]
pub struct BuildPrim {
    /// World-space bounds of the primitive.
    pub aabb: Aabb,
    /// Split reference point (usually the AABB center).
    pub centroid: Vec3,
}

impl BuildPrim {
    /// Creates a build primitive from an AABB, using its center as
    /// centroid.
    pub fn from_aabb(aabb: Aabb) -> Self {
        Self {
            aabb,
            centroid: aabb.center(),
        }
    }
}

/// Build-time tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuilderConfig {
    /// Leaves stop splitting at or below this primitive count.
    pub max_leaf_size: usize,
}

impl Default for BuilderConfig {
    fn default() -> Self {
        Self { max_leaf_size: 4 }
    }
}

/// Builds a wide BVH over the given primitives.
///
/// Returns an empty BVH for an empty input.
pub fn build_wide_bvh(prims: &[BuildPrim], config: &BuilderConfig) -> WideBvh {
    if prims.is_empty() {
        return WideBvh::default();
    }
    let mut indices: Vec<u32> = (0..prims.len() as u32).collect();
    let mut arena = BinaryArena {
        nodes: Vec::with_capacity(prims.len() / 2 + 1),
    };
    let root = build_binary(&mut arena, prims, &mut indices, 0, prims.len(), config);
    finish_wide(&arena, root, indices)
}

/// Collapses a finished binary arena into the wide representation.
fn finish_wide(arena: &BinaryArena, root: usize, indices: Vec<u32>) -> WideBvh {
    let mut wide = WideBvh {
        nodes: Vec::with_capacity(arena.nodes.len() / 3 + 1),
        prim_order: indices,
        root_aabb: arena.nodes[root].aabb,
        height: 0,
    };
    if let BinaryKind::Leaf { start, count } = arena.nodes[root].kind {
        // Degenerate single-leaf tree: wrap it in a one-child root node.
        wide.nodes.push(WideNode::from_children(&[WideChild {
            aabb: arena.nodes[root].aabb,
            kind: ChildKind::Leaf { start, count },
        }]));
        wide.height = 1;
        return wide;
    }
    let (root_id, height) = collapse(arena, root, &mut wide);
    debug_assert_eq!(root_id, 0, "root must be node 0");
    wide.height = height;
    wide
}

#[derive(Debug)]
struct BinaryNode {
    aabb: Aabb,
    kind: BinaryKind,
}

#[derive(Debug)]
enum BinaryKind {
    Leaf { start: u32, count: u32 },
    Inner { left: usize, right: usize },
}

struct BinaryArena {
    nodes: Vec<BinaryNode>,
}

/// Recursive binned-SAH binary build over `indices[start..start+count]`.
/// Returns the arena id of the subtree root.
fn build_binary(
    arena: &mut BinaryArena,
    prims: &[BuildPrim],
    indices: &mut [u32],
    start: usize,
    count: usize,
    config: &BuilderConfig,
) -> usize {
    let slice = &indices[start..start + count];
    let mut aabb = Aabb::EMPTY;
    let mut centroid_bounds = Aabb::EMPTY;
    for &i in slice {
        aabb = aabb.union(&prims[i as usize].aabb);
        centroid_bounds.grow_point(prims[i as usize].centroid);
    }

    if count <= config.max_leaf_size {
        return push_leaf(arena, aabb, start, count);
    }

    let mid = split_with_bounds(prims, &mut indices[start..start + count], &centroid_bounds);

    let left = build_binary(arena, prims, indices, start, mid, config);
    let right = build_binary(arena, prims, indices, start + mid, count - mid, config);
    arena.nodes.push(BinaryNode {
        aabb,
        kind: BinaryKind::Inner { left, right },
    });
    arena.nodes.len() - 1
}

/// The canonical builder split of one index range: binned SAH with the
/// degenerate-binning / coincident-centroid median fallbacks, partitioning
/// `slice` in place. Returns the left-side count (always in `1..len`).
///
/// This single function is the source of truth for *every* split decision
/// — the serial recursion and the shard-frontier planner both call it, so
/// a planned frontier is always an antichain of the canonical recursion
/// tree and sharded construction reassembles the exact serial structure.
fn split_with_bounds(prims: &[BuildPrim], slice: &mut [u32], centroid_bounds: &Aabb) -> usize {
    let count = slice.len();
    match find_best_split(prims, slice, centroid_bounds) {
        Some((axis, threshold)) => {
            let mid = partition(prims, slice, axis, threshold);
            if mid == 0 || mid == count {
                count / 2 // Binning degenerated; fall back to median.
            } else {
                mid
            }
        }
        // All centroids coincide: split down the middle so construction
        // terminates even for pathological input.
        None => count / 2,
    }
}

fn push_leaf(arena: &mut BinaryArena, aabb: Aabb, start: usize, count: usize) -> usize {
    arena.nodes.push(BinaryNode {
        aabb,
        kind: BinaryKind::Leaf {
            start: start as u32,
            count: count as u32,
        },
    });
    arena.nodes.len() - 1
}

/// Finds the SAH-minimal `(axis, centroid threshold)` over binned
/// candidate splits, or `None` when the centroid bounds are degenerate.
fn find_best_split(
    prims: &[BuildPrim],
    slice: &[u32],
    centroid_bounds: &Aabb,
) -> Option<(usize, f32)> {
    let extent = centroid_bounds.extent();
    if extent.max_element() <= 0.0 {
        return None;
    }
    let mut best: Option<(usize, f32, f32)> = None; // (axis, threshold, cost)
    for axis in 0..3 {
        let axis_extent = extent[axis];
        if axis_extent <= 0.0 {
            continue;
        }
        let origin = centroid_bounds.min[axis];
        let scale = BIN_COUNT as f32 / axis_extent;

        let mut bin_aabbs = [Aabb::EMPTY; BIN_COUNT];
        let mut bin_counts = [0usize; BIN_COUNT];
        for &i in slice {
            let p = &prims[i as usize];
            let b = (((p.centroid[axis] - origin) * scale) as usize).min(BIN_COUNT - 1);
            bin_aabbs[b] = bin_aabbs[b].union(&p.aabb);
            bin_counts[b] += 1;
        }

        // Sweep from the right to precompute suffix areas/counts.
        let mut right_area = [0.0f32; BIN_COUNT];
        let mut right_count = [0usize; BIN_COUNT];
        let mut acc = Aabb::EMPTY;
        let mut cnt = 0;
        for b in (1..BIN_COUNT).rev() {
            acc = acc.union(&bin_aabbs[b]);
            cnt += bin_counts[b];
            right_area[b] = acc.surface_area();
            right_count[b] = cnt;
        }
        // Sweep from the left evaluating each split.
        let mut left_acc = Aabb::EMPTY;
        let mut left_cnt = 0usize;
        for b in 0..BIN_COUNT - 1 {
            left_acc = left_acc.union(&bin_aabbs[b]);
            left_cnt += bin_counts[b];
            if left_cnt == 0 || right_count[b + 1] == 0 {
                continue;
            }
            let cost = left_acc.surface_area() * left_cnt as f32
                + right_area[b + 1] * right_count[b + 1] as f32;
            if best.is_none_or(|(_, _, c)| cost < c) {
                let threshold = origin + (b + 1) as f32 / scale;
                best = Some((axis, threshold, cost));
            }
        }
    }
    best.map(|(axis, threshold, _)| (axis, threshold))
}

/// In-place partition by centroid threshold; returns the left-side count.
fn partition(prims: &[BuildPrim], slice: &mut [u32], axis: usize, threshold: f32) -> usize {
    let mut left = 0;
    let mut right = slice.len();
    while left < right {
        if prims[slice[left] as usize].centroid[axis] < threshold {
            left += 1;
        } else {
            right -= 1;
            slice.swap(left, right);
        }
    }
    left
}

/// Collapses a binary subtree into up-to-[`MAX_WIDTH`]-wide nodes;
/// returns `(wide node id, subtree height)`.
fn collapse(arena: &BinaryArena, root: usize, out: &mut WideBvh) -> (u32, u32) {
    // Gather up to `MAX_WIDTH` subtree roots by repeatedly expanding the
    // interior child with the largest surface area (the standard
    // SAH-greedy collapse). Each expansion swaps one slot for two, so
    // the loop can overshoot `MAX_WIDTH` by at most one slot and the check
    // before expanding keeps the final count within bounds.
    let mut slots: Vec<usize> = Vec::with_capacity(MAX_WIDTH);
    match arena.nodes[root].kind {
        BinaryKind::Inner { left, right } => {
            slots.push(left);
            slots.push(right);
        }
        BinaryKind::Leaf { .. } => unreachable!("collapse called on a leaf"),
    }
    loop {
        if slots.len() >= MAX_WIDTH {
            break;
        }
        let expandable = slots
            .iter()
            .enumerate()
            .filter(|(_, &id)| matches!(arena.nodes[id].kind, BinaryKind::Inner { .. }))
            .max_by(|(_, &a), (_, &b)| {
                arena.nodes[a]
                    .aabb
                    .surface_area()
                    .total_cmp(&arena.nodes[b].aabb.surface_area())
            })
            .map(|(i, _)| i);
        let Some(i) = expandable else { break };
        let id = slots.swap_remove(i);
        match arena.nodes[id].kind {
            BinaryKind::Inner { left, right } => {
                slots.push(left);
                slots.push(right);
            }
            BinaryKind::Leaf { .. } => unreachable!(),
        }
    }

    // Reserve our node id before recursing so the root lands at index 0.
    let my_id = out.nodes.len() as u32;
    out.nodes.push(WideNode::default());

    let mut children = Vec::with_capacity(slots.len());
    let mut max_child_height = 0;
    for id in slots {
        let node = &arena.nodes[id];
        let child = match node.kind {
            BinaryKind::Leaf { start, count } => {
                max_child_height = max_child_height.max(1);
                WideChild {
                    aabb: node.aabb,
                    kind: ChildKind::Leaf { start, count },
                }
            }
            BinaryKind::Inner { .. } => {
                let (child_id, h) = collapse(arena, id, out);
                max_child_height = max_child_height.max(h);
                WideChild {
                    aabb: node.aabb,
                    kind: ChildKind::Node(child_id),
                }
            }
        };
        children.push(child);
    }
    out.nodes[my_id as usize] = WideNode::from_children(&children);
    (my_id, max_child_height + 1)
}

// ---------------------------------------------------------------------------
// Decomposed (sharded) construction.
//
// Scene sharding (`grtx-shard`) needs to build the *same* wide BVH the
// serial path produces, but in parallel across spatial shards. The
// decomposition mirrors the canonical recursion exactly:
//
// 1. [`plan_frontier`] replays the top of the canonical binary recursion
//    serially — every split made with [`split_with_bounds`], the exact
//    decision `build_binary` makes — until K contiguous index ranges (the
//    shards) exist;
// 2. [`build_subtree`] builds each shard's binary subtree independently
//    (callers fan these out over threads; subtrees share nothing);
// 3. [`assemble_wide_bvh`] stitches the subtrees back under the planned
//    top-of-tree splits in shard order and collapses to wide nodes.
//
// Because binary-node emission order, every split decision, and every
// AABB union are reproduced exactly (AABB unions are min/max — exact and
// order-independent in IEEE arithmetic), the assembled structure is
// **bit-identical** to [`build_wide_bvh`] for any shard count.

/// One frontier range of a [`SplitPlan`]: a contiguous slice of the index
/// array that one shard owns, in left-to-right (canonical prim-order)
/// position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierRange {
    /// First index-array position of the range.
    pub start: usize,
    /// Number of primitives in the range.
    pub count: usize,
    /// Union of the range's primitive AABBs (the shard bounds).
    pub aabb: Aabb,
}

/// Plan node: an interior split above the frontier, or a frontier leaf.
#[derive(Debug, Clone, Copy)]
struct PlanNode {
    aabb: Aabb,
    start: usize,
    count: usize,
    /// `Some((left, right))` for splits above the frontier.
    children: Option<(usize, usize)>,
    /// Frontier ranges only: index into [`SplitPlan::ranges`].
    range: Option<usize>,
}

/// The top of the canonical binary recursion, planned down to K frontier
/// ranges. Produced by [`plan_frontier`]; consumed by
/// [`assemble_wide_bvh`].
#[derive(Debug, Clone)]
pub struct SplitPlan {
    nodes: Vec<PlanNode>,
    root: usize,
    ranges: Vec<FrontierRange>,
}

impl SplitPlan {
    /// The frontier ranges in left-to-right index order. They partition
    /// `0..prim_count` exactly; empty for an empty input.
    pub fn ranges(&self) -> &[FrontierRange] {
        &self.ranges
    }

    /// Number of frontier ranges (shards) planned.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }
}

/// Plans the canonical top-of-tree splits down to (at most) `shards`
/// frontier ranges, partitioning `indices` in place exactly as the serial
/// build's ancestor splits would.
///
/// The planner repeatedly splits the most populous splittable range
/// (ties: lowest start), so shard populations stay balanced. A range is
/// splittable while it holds more than `config.max_leaf_size` primitives
/// — the same termination rule as the canonical recursion — so scenes
/// with fewer primitives than requested shards yield fewer shards.
pub fn plan_frontier(
    prims: &[BuildPrim],
    indices: &mut [u32],
    shards: usize,
    config: &BuilderConfig,
) -> SplitPlan {
    let mut plan = SplitPlan {
        nodes: Vec::new(),
        root: 0,
        ranges: Vec::new(),
    };
    if indices.is_empty() {
        return plan;
    }
    let range_node = |prims: &[BuildPrim], slice: &[u32], start: usize| {
        let mut aabb = Aabb::EMPTY;
        for &i in slice {
            aabb = aabb.union(&prims[i as usize].aabb);
        }
        PlanNode {
            aabb,
            start,
            count: slice.len(),
            children: None,
            range: None,
        }
    };
    plan.nodes.push(range_node(prims, indices, 0));
    let mut leaves: Vec<usize> = vec![0];
    while leaves.len() < shards.max(1) {
        // Most populous splittable leaf; ties broken toward the lowest
        // start so planning is fully deterministic.
        let Some(pos) = leaves
            .iter()
            .enumerate()
            .filter(|(_, &id)| plan.nodes[id].count > config.max_leaf_size)
            .max_by_key(|(_, &id)| (plan.nodes[id].count, usize::MAX - plan.nodes[id].start))
            .map(|(pos, _)| pos)
        else {
            break; // Nothing left to split: fewer shards than requested.
        };
        let id = leaves[pos];
        let (start, count) = (plan.nodes[id].start, plan.nodes[id].count);
        let slice = &mut indices[start..start + count];
        let mut centroid_bounds = Aabb::EMPTY;
        for &i in slice.iter() {
            centroid_bounds.grow_point(prims[i as usize].centroid);
        }
        let mid = split_with_bounds(prims, slice, &centroid_bounds);
        let left = range_node(prims, &indices[start..start + mid], start);
        let right = range_node(prims, &indices[start + mid..start + count], start + mid);
        let left_id = plan.nodes.len();
        plan.nodes.push(left);
        let right_id = plan.nodes.len();
        plan.nodes.push(right);
        plan.nodes[id].children = Some((left_id, right_id));
        leaves[pos] = left_id;
        leaves.push(right_id);
    }
    // Frontier in left-to-right order.
    leaves.sort_by_key(|&id| plan.nodes[id].start);
    for (i, &id) in leaves.iter().enumerate() {
        let n = &mut plan.nodes[id];
        n.range = Some(i);
        plan.ranges.push(FrontierRange {
            start: n.start,
            count: n.count,
            aabb: n.aabb,
        });
    }
    plan
}

/// One shard's binary subtree, built over its own index slice. Opaque:
/// only [`assemble_wide_bvh`] consumes it.
#[derive(Debug)]
pub struct BinarySubtree {
    nodes: Vec<BinaryNode>,
}

impl BinarySubtree {
    /// Binary nodes in this subtree (interior + leaf records).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Builds the binary subtree over one frontier range. `indices` must be
/// exactly the range's slice of the planned index array (the contents
/// `plan_frontier` left there); leaf starts are recorded relative to the
/// slice and rebased during assembly.
///
/// Independent ranges share nothing, so callers may run this on any
/// number of threads in any order.
pub fn build_subtree(
    prims: &[BuildPrim],
    indices: &mut [u32],
    config: &BuilderConfig,
) -> BinarySubtree {
    let mut arena = BinaryArena {
        nodes: Vec::with_capacity(indices.len() / 2 + 1),
    };
    let count = indices.len();
    let root = build_binary(&mut arena, prims, indices, 0, count, config);
    debug_assert_eq!(root + 1, arena.nodes.len(), "subtree root must be last");
    BinarySubtree { nodes: arena.nodes }
}

/// Stitches per-shard subtrees back under the planned top-of-tree splits
/// — in shard order, with deterministic id/offset rebasing — and
/// collapses the result to the wide representation.
///
/// `subtrees` must hold one subtree per plan range, in range order;
/// `indices` is the fully partitioned index array (now the prim order).
/// The result is bit-identical to [`build_wide_bvh`] over the same
/// primitives.
///
/// # Panics
///
/// Panics if `subtrees.len()` differs from the plan's shard count.
pub fn assemble_wide_bvh(
    plan: &SplitPlan,
    subtrees: Vec<BinarySubtree>,
    indices: Vec<u32>,
) -> WideBvh {
    assert_eq!(
        subtrees.len(),
        plan.ranges.len(),
        "one subtree per planned shard"
    );
    if indices.is_empty() {
        return WideBvh::default();
    }
    let mut arena = BinaryArena {
        nodes: Vec::with_capacity(indices.len() / 2 + 1),
    };
    let mut subs: Vec<Option<BinarySubtree>> = subtrees.into_iter().map(Some).collect();
    let root = emit_plan(plan, plan.root, &mut arena, &mut subs);
    finish_wide(&arena, root, indices)
}

/// Recursively emits a plan subtree into `arena` in canonical (post-)
/// order: left block, right block, parent — exactly the order
/// `build_binary` pushes nodes. Returns the emitted subtree's root id.
fn emit_plan(
    plan: &SplitPlan,
    id: usize,
    arena: &mut BinaryArena,
    subs: &mut [Option<BinarySubtree>],
) -> usize {
    let node = &plan.nodes[id];
    match node.children {
        Some((left, right)) => {
            let l = emit_plan(plan, left, arena, subs);
            let r = emit_plan(plan, right, arena, subs);
            arena.nodes.push(BinaryNode {
                aabb: node.aabb,
                kind: BinaryKind::Inner { left: l, right: r },
            });
            arena.nodes.len() - 1
        }
        None => {
            let range = node.range.expect("frontier leaves carry a range id");
            let sub = subs[range].take().expect("one subtree per range");
            let base = arena.nodes.len();
            let offset = plan.ranges[range].start as u32;
            for bn in sub.nodes {
                arena.nodes.push(BinaryNode {
                    aabb: bn.aabb,
                    kind: match bn.kind {
                        BinaryKind::Leaf { start, count } => BinaryKind::Leaf {
                            start: start + offset,
                            count,
                        },
                        BinaryKind::Inner { left, right } => BinaryKind::Inner {
                            left: left + base,
                            right: right + base,
                        },
                    },
                });
            }
            arena.nodes.len() - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_prims(n: usize) -> Vec<BuildPrim> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f32;
                let y = ((i / 10) % 10) as f32;
                let z = (i / 100) as f32;
                BuildPrim::from_aabb(Aabb::from_center_half_extent(
                    Vec3::new(x, y, z),
                    Vec3::splat(0.3),
                ))
            })
            .collect()
    }

    #[test]
    fn empty_input_builds_empty_bvh() {
        let bvh = build_wide_bvh(&[], &BuilderConfig::default());
        assert_eq!(bvh.node_count(), 0);
        assert_eq!(bvh.prim_count(), 0);
    }

    #[test]
    fn single_prim_builds_single_leaf_root() {
        let prims = grid_prims(1);
        let bvh = build_wide_bvh(&prims, &BuilderConfig::default());
        assert_eq!(bvh.node_count(), 1);
        assert_eq!(bvh.prim_count(), 1);
        assert_eq!(bvh.height, 1);
    }

    #[test]
    fn structure_is_valid_for_grid() {
        let prims = grid_prims(500);
        let bvh = build_wide_bvh(&prims, &BuilderConfig::default());
        let aabbs: Vec<Aabb> = prims.iter().map(|p| p.aabb).collect();
        bvh.validate(&aabbs, 1e-4).expect("valid BVH");
    }

    #[test]
    fn all_nodes_within_width() {
        let prims = grid_prims(1000);
        let bvh = build_wide_bvh(&prims, &BuilderConfig::default());
        for n in &bvh.nodes {
            assert!(!n.is_empty() && n.len() <= MAX_WIDTH);
        }
    }

    #[test]
    fn coincident_centroids_terminate() {
        let prims: Vec<BuildPrim> = (0..64)
            .map(|_| {
                BuildPrim::from_aabb(Aabb::from_center_half_extent(Vec3::ONE, Vec3::splat(0.5)))
            })
            .collect();
        let bvh = build_wide_bvh(&prims, &BuilderConfig::default());
        assert_eq!(bvh.prim_count(), 64);
        let aabbs: Vec<Aabb> = prims.iter().map(|p| p.aabb).collect();
        bvh.validate(&aabbs, 1e-4).expect("valid BVH");
    }

    #[test]
    fn height_grows_sublinearly() {
        let prims = grid_prims(1000);
        let bvh = build_wide_bvh(&prims, &BuilderConfig::default());
        // 1000 prims, width 8, max leaf 4: height should be well under 12.
        assert!(bvh.height <= 12, "height {} too large", bvh.height);
        assert!(bvh.height >= 3);
    }

    #[test]
    fn max_leaf_size_respected() {
        let prims = grid_prims(300);
        let config = BuilderConfig { max_leaf_size: 2 };
        let bvh = build_wide_bvh(&prims, &config);
        for n in &bvh.nodes {
            for c in n.children() {
                if let ChildKind::Leaf { count, .. } = c.kind {
                    assert!(count <= 2, "leaf with {count} prims");
                }
            }
        }
    }

    #[test]
    fn root_aabb_covers_all_prims() {
        let prims = grid_prims(200);
        let bvh = build_wide_bvh(&prims, &BuilderConfig::default());
        for p in &prims {
            assert!(bvh.root_aabb.contains_box(&p.aabb, 1e-4));
        }
    }

    /// Plans + builds + assembles serially (no threads) — the reference
    /// decomposed path the parallel orchestration in `grtx-shard` mirrors.
    fn build_decomposed(prims: &[BuildPrim], shards: usize, config: &BuilderConfig) -> WideBvh {
        let mut indices: Vec<u32> = (0..prims.len() as u32).collect();
        let plan = plan_frontier(prims, &mut indices, shards, config);
        let mut subtrees = Vec::new();
        for range in plan.ranges() {
            let slice = &mut indices[range.start..range.start + range.count];
            subtrees.push(build_subtree(prims, slice, config));
        }
        assemble_wide_bvh(&plan, subtrees, indices)
    }

    #[test]
    fn decomposed_build_is_bit_identical_to_serial() {
        for &(n, max_leaf) in &[
            (1usize, 4usize),
            (3, 4),
            (50, 1),
            (500, 4),
            (777, 1),
            (777, 8),
        ] {
            let prims = grid_prims(n);
            let config = BuilderConfig {
                max_leaf_size: max_leaf,
            };
            let serial = build_wide_bvh(&prims, &config);
            for shards in [1usize, 2, 3, 7, 16, 64] {
                let sharded = build_decomposed(&prims, shards, &config);
                assert_eq!(
                    serial, sharded,
                    "n={n} max_leaf={max_leaf} shards={shards}: structures diverge"
                );
            }
        }
    }

    #[test]
    fn decomposed_build_handles_coincident_centroids() {
        let prims: Vec<BuildPrim> = (0..64)
            .map(|_| {
                BuildPrim::from_aabb(Aabb::from_center_half_extent(Vec3::ONE, Vec3::splat(0.5)))
            })
            .collect();
        let config = BuilderConfig::default();
        let serial = build_wide_bvh(&prims, &config);
        for shards in [2usize, 8] {
            assert_eq!(serial, build_decomposed(&prims, shards, &config));
        }
    }

    #[test]
    fn plan_frontier_partitions_the_index_range() {
        let prims = grid_prims(321);
        let mut indices: Vec<u32> = (0..321).collect();
        let plan = plan_frontier(&prims, &mut indices, 8, &BuilderConfig::default());
        assert_eq!(plan.shard_count(), 8);
        let mut cursor = 0;
        for r in plan.ranges() {
            assert_eq!(r.start, cursor, "ranges must tile the index array");
            assert!(r.count > 0);
            cursor += r.count;
        }
        assert_eq!(cursor, 321);
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..321).collect::<Vec<u32>>());
    }

    #[test]
    fn plan_frontier_caps_shards_at_splittable_ranges() {
        let prims = grid_prims(3);
        let mut indices: Vec<u32> = (0..3).collect();
        let config = BuilderConfig { max_leaf_size: 1 };
        let plan = plan_frontier(&prims, &mut indices, 64, &config);
        assert_eq!(plan.shard_count(), 3, "3 prims can fill at most 3 shards");
        let empty = plan_frontier(&prims, &mut [], 4, &config);
        assert_eq!(empty.shard_count(), 0);
    }
}
