#![forbid(unsafe_code)]

//! Acceleration structures for Gaussian ray tracing.
//!
//! This crate implements both BVH organizations the paper compares:
//!
//! * [`monolithic`] — the baseline of 3DGRT/Condor et al.: every Gaussian
//!   contributes its own bounding proxy geometry (a stretched 20-triangle
//!   icosahedron, an 80-triangle icosphere, or a single custom ellipsoid
//!   primitive) to one scene-wide BVH;
//! * [`two_level`] — the GRTX-SW structure: a TLAS whose leaves are
//!   per-Gaussian *instances*, all sharing one template BLAS (a unit
//!   sphere, or a 20/80-triangle icosphere), exploiting the insight that
//!   any anisotropic Gaussian becomes the unit sphere after a ray-space
//!   instance transform.
//!
//! Supporting modules:
//!
//! * [`builder`] — a binned-SAH builder producing up-to-8-wide BVHs,
//!   mirroring Embree-style wide-BVH configurations;
//! * [`layout`] — byte-level layout of nodes/primitives in a virtual
//!   address space, for BVH size accounting (Table II) and for the cache
//!   model of `grtx-sim`;
//! * [`traversal`] — the RT-core traversal state machine: per-ray stack,
//!   `t`-interval validation, any-hit callbacks, and the GRTX-HW
//!   checkpoint/replay mechanism;
//! * [`mod@reference`] — brute-force intersection oracles used by tests.

pub mod builder;
pub mod layout;
pub mod monolithic;
pub mod reference;
pub mod traversal;
pub mod two_level;
pub mod wide;

pub use builder::{
    assemble_wide_bvh, build_subtree, build_wide_bvh, plan_frontier, BinarySubtree, BuildPrim,
    BuilderConfig, FrontierRange, SplitPlan,
};
pub use layout::{format_bytes, AddressSpace, BvhSizeReport, LayoutConfig};
pub use monolithic::MonolithicBvh;
pub use traversal::{
    trace_round, AnyHitVerdict, CheckpointEntry, CheckpointSink, FetchKind, NullObserver,
    PrimTestKind, RoundOutcome, Slot, TraversalObserver, CHECKPOINT_ENTRY_BYTES,
};
pub use two_level::TwoLevelBvh;
pub use wide::{ChildKind, WideBvh, WideChild, WideNode};

use grtx_math::simd::{ray_triangle_4, Tri4};
use grtx_math::Ray;
use grtx_scene::GaussianScene;

/// Shared 4-wide mesh-leaf kernel: intersects up to 4 contiguous
/// leaf-order triangles with `ray` in one [`ray_triangle_4`] call and
/// keeps only front-facing hits (the kernel's [`Tri4Hit::front`] mask,
/// bitwise the scalar backface cull). Lane `i` is `Some(t)` on a
/// front-face hit, `None` when culled or missed. Both leaf
/// organizations ([`MonolithicBvh::intersect_tri4`] and
/// [`TwoLevelBvh::intersect_blas_tri4`]) route through this single
/// bit-parity-critical sequence.
///
/// [`Tri4Hit::front`]: grtx_math::simd::Tri4Hit::front
#[inline]
pub(crate) fn intersect_tri_lanes(tris: &[[grtx_math::Vec3; 3]], ray: &Ray) -> [Option<f32>; 4] {
    let hit = ray_triangle_4(ray, &Tri4::from_triangles(tris));
    let live = hit.mask & hit.front;
    std::array::from_fn(|i| (live & (1 << i) != 0).then_some(hit.t[i]))
}

/// Reorders `data` in place so that `data[pos]` becomes the old
/// `data[order[pos]]`. Each permutation cycle is walked once and one bit
/// per element marks the positions already placed, so no second copy of
/// the payload is ever live (a gather would double the peak footprint of
/// a multi-million-triangle structure).
///
/// # Panics
///
/// Panics if the lengths differ or `order` is not a permutation.
pub(crate) fn permute_to_leaf_order<T: Copy>(data: &mut [T], order: &[u32]) {
    assert_eq!(
        data.len(),
        order.len(),
        "payload and prim_order lengths differ"
    );
    let mut placed = vec![0u64; data.len().div_ceil(64)];
    for start in 0..data.len() {
        if placed[start / 64] & (1 << (start % 64)) != 0 {
            continue;
        }
        let first = data[start];
        let mut pos = start;
        loop {
            placed[pos / 64] |= 1 << (pos % 64);
            let src = order[pos] as usize;
            if src == start {
                data[pos] = first;
                break;
            }
            assert!(
                placed[src / 64] & (1 << (src % 64)) == 0,
                "prim_order is not a permutation"
            );
            data[pos] = data[src];
            pos = src;
        }
    }
}

/// One [`BuildPrim`] per Gaussian at the scene's bounding radius, in
/// Gaussian-id order — the shared build input of every per-Gaussian
/// organization (the two-level TLAS and the custom-ellipsoid monolithic
/// BVH). A single source keeps the serial and sharded builds of either
/// organization structurally aligned on identical primitives.
pub fn gaussian_build_prims(scene: &GaussianScene) -> Vec<BuildPrim> {
    scene
        .world_aabbs()
        .map(|(_, aabb)| BuildPrim::from_aabb(aabb))
        .collect()
}

/// Which bounding proxy represents a Gaussian inside the acceleration
/// structure (paper Figs. 5, 12, 22).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundingPrimitive {
    /// Stretched regular icosahedron, 20 triangles (3DGRT baseline).
    Mesh20,
    /// Subdivided icosphere, 80 triangles (Condor et al.).
    Mesh80,
    /// One software-intersected ellipsoid primitive per Gaussian
    /// (EVER/RayGauss style custom primitive).
    CustomEllipsoid,
    /// Unit sphere intersected in hardware after the instance transform
    /// (Blackwell-class RT cores; only meaningful with a shared BLAS).
    UnitSphere,
}

impl BoundingPrimitive {
    /// Triangle count of the proxy, if it is a mesh.
    pub fn triangle_count(self) -> Option<usize> {
        match self {
            BoundingPrimitive::Mesh20 => Some(20),
            BoundingPrimitive::Mesh80 => Some(80),
            BoundingPrimitive::CustomEllipsoid | BoundingPrimitive::UnitSphere => None,
        }
    }

    /// Short label used in experiment tables ("20-tri", "sphere", ...).
    pub fn label(self) -> &'static str {
        match self {
            BoundingPrimitive::Mesh20 => "20-tri",
            BoundingPrimitive::Mesh80 => "80-tri",
            BoundingPrimitive::CustomEllipsoid => "custom",
            BoundingPrimitive::UnitSphere => "sphere",
        }
    }
}

impl std::fmt::Display for BoundingPrimitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A built acceleration structure of either organization, ready for
/// traversal.
#[derive(Debug)]
pub enum AccelStruct {
    /// Single scene-wide BVH over per-Gaussian proxy geometry.
    Monolithic(MonolithicBvh),
    /// TLAS of instances sharing one template BLAS.
    TwoLevel(TwoLevelBvh),
}

impl AccelStruct {
    /// Builds the acceleration structure the paper variant prescribes.
    ///
    /// # Panics
    ///
    /// Panics if `primitive` is [`BoundingPrimitive::UnitSphere`] with a
    /// monolithic organization (hardware sphere primitives only exist
    /// behind instance transforms).
    pub fn build(
        scene: &GaussianScene,
        primitive: BoundingPrimitive,
        two_level: bool,
        layout: &LayoutConfig,
    ) -> Self {
        if two_level {
            AccelStruct::TwoLevel(TwoLevelBvh::build(scene, primitive, layout))
        } else {
            assert!(
                primitive != BoundingPrimitive::UnitSphere,
                "unit-sphere primitives require the two-level (shared BLAS) organization"
            );
            AccelStruct::Monolithic(MonolithicBvh::build(scene, primitive, layout))
        }
    }

    /// Size accounting for Table II / Fig. 5b.
    pub fn size_report(&self) -> &BvhSizeReport {
        match self {
            AccelStruct::Monolithic(m) => &m.size_report,
            AccelStruct::TwoLevel(t) => &t.size_report,
        }
    }

    /// Height of the structure (TLAS height + BLAS height for two-level).
    pub fn height(&self) -> u32 {
        match self {
            AccelStruct::Monolithic(m) => m.bvh.height,
            AccelStruct::TwoLevel(t) => t.height(),
        }
    }
}
