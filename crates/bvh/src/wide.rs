//! Wide (up to 8-ary) BVH node representation.
//!
//! The paper builds its structures with Intel Embree's wide-BVH
//! configuration (Section V-A). We use the BVH-8 variant: a wide node
//! stores the AABBs of *all* children, so one node fetch feeds up to
//! eight ray–box tests — exactly how the RT unit consumes memory, and
//! exactly one AVX2 register per SoA lane array with no wasted lanes.
//!
//! Child bounds live in a structure-of-arrays layout ([`SoaAabbs`]:
//! `min_x[8], min_y[8], …, max_z[8]` lanes, trailing lanes of
//! narrower nodes padded with empty-box sentinels) so the traversal hot
//! path can feed a whole node into the vectorized
//! [`grtx_math::simd::slab_test_8`] kernel in one call, with a
//! parallel [`ChildKind`] array saying where each occupied lane leads.

use grtx_math::simd::SoaAabbs;
use grtx_math::Aabb;

/// Maximum children per node (Embree-style BVH-8).
pub const MAX_WIDTH: usize = 8;

// One wide node is exactly one SIMD kernel call: every storage lane is a
// potential child, so tree width and kernel width must stay in lockstep.
const _: () = assert!(MAX_WIDTH == grtx_math::simd::LANES);

/// Reference from a node to one child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildKind {
    /// Interior child: index into [`WideBvh::nodes`].
    Node(u32),
    /// Leaf child: a range of [`WideBvh::prim_order`].
    Leaf {
        /// First index into `prim_order`.
        start: u32,
        /// Number of primitives.
        count: u32,
    },
}

/// Sentinel stored in unoccupied child-kind lanes (never dereferenced:
/// the lane mask and child count exclude padding lanes).
const EMPTY_KIND: ChildKind = ChildKind::Node(u32::MAX);

/// One child slot of a wide node: bounding box plus reference. This is
/// the assembly/inspection view; storage inside [`WideNode`] is SoA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WideChild {
    /// Child bounds (tested by the parent's node fetch).
    pub aabb: Aabb,
    /// Where the child leads.
    pub kind: ChildKind,
}

/// An interior node holding 2..=8 children in SoA form: eight bounds
/// lanes (trailing lanes of narrower nodes padded with empty sentinels)
/// plus a parallel child-reference array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WideNode {
    /// SoA child bounds; lanes `len()..` hold the empty-box sentinel.
    pub bounds: SoaAabbs,
    /// Where each occupied lane leads; padding lanes hold a sentinel.
    pub kinds: [ChildKind; MAX_WIDTH],
}

impl WideNode {
    /// Packs child slots into the SoA lanes.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_WIDTH`] children are given.
    pub fn from_children(children: &[WideChild]) -> Self {
        assert!(children.len() <= MAX_WIDTH, "at most {MAX_WIDTH} children");
        let mut node = Self {
            bounds: SoaAabbs::EMPTY,
            kinds: [EMPTY_KIND; MAX_WIDTH],
        };
        for (i, child) in children.iter().enumerate() {
            node.bounds.push(child.aabb);
            node.kinds[i] = child.kind;
        }
        node
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// `true` for a node with no children (only seen mid-construction;
    /// never in a well-formed BVH).
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// The child in lane `i` as an AoS slot.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn child(&self, i: usize) -> WideChild {
        WideChild {
            aabb: self.bounds.get(i),
            kind: self.kinds[i],
        }
    }

    /// Iterates the occupied child slots in lane order.
    pub fn children(&self) -> impl Iterator<Item = WideChild> + '_ {
        (0..self.len()).map(|i| self.child(i))
    }
}

impl Default for WideNode {
    fn default() -> Self {
        Self {
            bounds: SoaAabbs::EMPTY,
            kinds: [EMPTY_KIND; MAX_WIDTH],
        }
    }
}

/// A wide BVH over an abstract primitive array.
///
/// The BVH does not own primitive data; leaves index into `prim_order`,
/// which maps to caller-side primitive ids. Node 0 is the root (for
/// non-empty inputs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WideBvh {
    /// Interior nodes; index 0 is the root.
    pub nodes: Vec<WideNode>,
    /// Primitive ids in leaf-contiguous order.
    pub prim_order: Vec<u32>,
    /// Bounds of the whole tree.
    pub root_aabb: Aabb,
    /// Number of node levels from root to deepest leaf (a single-node
    /// tree has height 1).
    pub height: u32,
}

impl WideBvh {
    /// Number of interior nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primitives referenced.
    pub fn prim_count(&self) -> usize {
        self.prim_order.len()
    }

    /// Checks structural invariants, returning a description of the first
    /// violation. Used by tests; `eps` is the allowed float slack on
    /// parent/child containment.
    pub fn validate(&self, prim_aabbs: &[Aabb], eps: f32) -> Result<(), String> {
        if self.prim_order.is_empty() {
            return if self.nodes.is_empty() {
                Ok(())
            } else {
                Err("empty prim set but non-empty nodes".into())
            };
        }
        // Every primitive referenced exactly once.
        let mut seen = vec![false; prim_aabbs.len()];
        for &p in &self.prim_order {
            let p = p as usize;
            if p >= seen.len() {
                return Err(format!("prim id {p} out of range"));
            }
            if seen[p] {
                return Err(format!("prim id {p} referenced twice"));
            }
            seen[p] = true;
        }
        if self.prim_order.len() != prim_aabbs.len() {
            return Err(format!(
                "prim_order covers {} of {} prims",
                self.prim_order.len(),
                prim_aabbs.len()
            ));
        }
        // Recursive containment + width checks.
        self.validate_node(
            0,
            &self.root_aabb,
            prim_aabbs,
            eps,
            &mut vec![false; self.nodes.len()],
        )
    }

    fn validate_node(
        &self,
        node: u32,
        bound: &Aabb,
        prim_aabbs: &[Aabb],
        eps: f32,
        visited: &mut Vec<bool>,
    ) -> Result<(), String> {
        let idx = node as usize;
        if idx >= self.nodes.len() {
            return Err(format!("node id {node} out of range"));
        }
        if visited[idx] {
            return Err(format!("node {node} reachable twice (not a tree)"));
        }
        visited[idx] = true;
        let n = &self.nodes[idx];
        if n.is_empty() || n.len() > MAX_WIDTH {
            return Err(format!("node {node} has {} children", n.len()));
        }
        for child in n.children() {
            if !bound.contains_box(&child.aabb, eps) {
                return Err(format!("child of node {node} escapes parent bounds"));
            }
            match child.kind {
                ChildKind::Node(c) => {
                    self.validate_node(c, &child.aabb, prim_aabbs, eps, visited)?
                }
                ChildKind::Leaf { start, count } => {
                    if count == 0 {
                        return Err(format!("empty leaf under node {node}"));
                    }
                    let (s, c) = (start as usize, count as usize);
                    if s + c > self.prim_order.len() {
                        return Err(format!("leaf range {s}+{c} out of bounds"));
                    }
                    for &p in &self.prim_order[s..s + c] {
                        if !child.aabb.contains_box(&prim_aabbs[p as usize], eps) {
                            return Err(format!("prim {p} escapes its leaf bounds"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtx_math::Vec3;

    #[test]
    fn from_children_round_trips() {
        let children = [
            WideChild {
                aabb: Aabb::new(Vec3::ZERO, Vec3::ONE),
                kind: ChildKind::Node(7),
            },
            WideChild {
                aabb: Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0)),
                kind: ChildKind::Leaf { start: 4, count: 2 },
            },
        ];
        let node = WideNode::from_children(&children);
        assert_eq!(node.len(), 2);
        assert_eq!(node.child(0), children[0]);
        assert_eq!(node.child(1), children[1]);
        assert_eq!(node.children().collect::<Vec<_>>(), children);
    }

    #[test]
    fn padding_is_deterministic() {
        // Two nodes built from equal child sets must compare equal,
        // padding lanes included (the sharded-build equality tests
        // compare whole structures).
        let children = [WideChild {
            aabb: Aabb::new(Vec3::ZERO, Vec3::ONE),
            kind: ChildKind::Leaf { start: 0, count: 1 },
        }];
        assert_eq!(
            WideNode::from_children(&children),
            WideNode::from_children(&children)
        );
    }
}
