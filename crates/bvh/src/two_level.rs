//! Two-level acceleration structure with a single shared BLAS — GRTX-SW.
//!
//! The TLAS is a wide BVH whose leaves are per-Gaussian *instances*; every
//! instance references the same template BLAS (Fig. 8). After the
//! instance transform, the Gaussian ellipsoid is exactly the unit sphere,
//! so one BLAS of a few kilobytes serves millions of Gaussians — this is
//! the entire source of the BVH size reduction and L1 locality gain.

use crate::builder::{build_wide_bvh, BuildPrim, BuilderConfig};
use crate::layout::{AddressSpace, BvhSizeReport, LayoutConfig};
use crate::wide::WideBvh;
use crate::BoundingPrimitive;
use grtx_math::{intersect, Affine3, Ray, Vec3};
use grtx_scene::{GaussianScene, TemplateMesh};

/// One TLAS leaf: a Gaussian instance with its object-to-world transform.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// The Gaussian this instance represents.
    pub gaussian: u32,
    /// Unit-sphere-to-world affine map (with cached inverse for the
    /// hardware ray transform).
    pub transform: Affine3,
}

/// The shared bottom-level structure referenced by every instance.
#[derive(Debug)]
pub enum SharedBlas {
    /// A single hardware sphere primitive (Blackwell-class RT cores):
    /// one ray–AABB test at the TLAS leaf plus one ray–sphere test.
    UnitSphere,
    /// A template icosphere mesh with its own small BVH, intersected by
    /// the high-throughput ray–triangle units.
    Mesh {
        /// BVH over the template triangles.
        bvh: WideBvh,
        /// The template triangles (unit-sphere circumscribed) in BVH leaf
        /// order: index `pos` is template triangle `bvh.prim_order[pos]`,
        /// so a leaf range is one contiguous slice.
        tris: Vec<[Vec3; 3]>,
    },
    /// The software custom-primitive path evaluated after the transform
    /// (a unit-sphere test executed in an intersection shader).
    CustomEllipsoid,
}

/// The GRTX-SW two-level acceleration structure.
#[derive(Debug)]
pub struct TwoLevelBvh {
    /// TLAS over instance world AABBs (leaf prim ids = instance ids).
    pub tlas: WideBvh,
    /// All instances, indexed by instance id.
    pub instances: Vec<Instance>,
    /// The single shared BLAS.
    pub blas: SharedBlas,
    /// Byte accounting.
    pub size_report: BvhSizeReport,
    /// Base address of TLAS nodes.
    pub tlas_node_base: u64,
    /// Base address of instance records.
    pub instance_base: u64,
    /// Base address of BLAS nodes (shared across instances).
    pub blas_node_base: u64,
    /// Base address of BLAS primitive records (shared).
    pub blas_prim_base: u64,
    /// Bytes per node record.
    pub node_stride: u64,
    /// Bytes per instance record.
    pub instance_stride: u64,
    /// Bytes per BLAS primitive record.
    pub blas_prim_stride: u64,
}

impl TwoLevelBvh {
    /// TLAS build inputs: one [`BuildPrim`] per Gaussian, in Gaussian-id
    /// order (the order [`Self::from_tlas`] expects the TLAS to be built
    /// over). Exposed so `grtx-shard` can run the sharded parallel build
    /// over exactly the same primitives.
    pub fn tlas_build_prims(scene: &GaussianScene) -> Vec<BuildPrim> {
        crate::gaussian_build_prims(scene)
    }

    /// The TLAS builder configuration for a layout.
    pub fn tlas_builder_config(layout: &LayoutConfig) -> BuilderConfig {
        BuilderConfig {
            max_leaf_size: layout.tlas_max_leaf,
        }
    }

    /// Builds the TLAS + shared BLAS for a scene.
    pub fn build(
        scene: &GaussianScene,
        primitive: BoundingPrimitive,
        layout: &LayoutConfig,
    ) -> Self {
        let build_prims = Self::tlas_build_prims(scene);
        let tlas = build_wide_bvh(&build_prims, &Self::tlas_builder_config(layout));
        Self::from_tlas(scene, primitive, layout, tlas)
    }

    /// Wraps an externally built TLAS (e.g. a sharded parallel build)
    /// with the instances, shared BLAS, and byte accounting. The TLAS
    /// must be built over [`Self::tlas_build_prims`] with
    /// [`Self::tlas_builder_config`]; a TLAS identical to the serial
    /// build's yields an identical structure — addresses included.
    pub fn from_tlas(
        scene: &GaussianScene,
        primitive: BoundingPrimitive,
        layout: &LayoutConfig,
        tlas: WideBvh,
    ) -> Self {
        let instances: Vec<Instance> = (0..scene.len())
            .map(|i| Instance {
                gaussian: i as u32,
                transform: scene.instance_transform(i),
            })
            .collect();

        let (blas, blas_prim_count, blas_prim_stride) = match primitive {
            BoundingPrimitive::UnitSphere => {
                (SharedBlas::UnitSphere, 1u64, layout.sphere_prim_bytes)
            }
            BoundingPrimitive::CustomEllipsoid => (
                SharedBlas::CustomEllipsoid,
                1u64,
                layout.ellipsoid_prim_bytes,
            ),
            BoundingPrimitive::Mesh20 | BoundingPrimitive::Mesh80 => {
                let mesh = if primitive == BoundingPrimitive::Mesh20 {
                    TemplateMesh::icosahedron()
                } else {
                    TemplateMesh::icosphere_80()
                };
                let mut tris: Vec<[Vec3; 3]> = (0..mesh.triangle_count())
                    .map(|t| mesh.triangle_vertices(t))
                    .collect();
                let tri_prims: Vec<BuildPrim> = tris
                    .iter()
                    .map(|tri| {
                        let mut aabb = grtx_math::Aabb::EMPTY;
                        for &v in tri {
                            aabb.grow_point(v);
                        }
                        BuildPrim::from_aabb(aabb)
                    })
                    .collect();
                let bvh = build_wide_bvh(
                    &tri_prims,
                    &BuilderConfig {
                        max_leaf_size: layout.mono_max_leaf,
                    },
                );
                crate::permute_to_leaf_order(&mut tris, &bvh.prim_order);
                let count = bvh.prim_count() as u64;
                (SharedBlas::Mesh { bvh, tris }, count, layout.triangle_bytes)
            }
        };

        let mut space = AddressSpace::new();
        let tlas_node_base = space.alloc(tlas.node_count() as u64, layout.node_bytes);
        let instance_base = space.alloc(instances.len() as u64, layout.instance_bytes);
        let blas_node_count = match &blas {
            SharedBlas::Mesh { bvh, .. } => bvh.node_count() as u64,
            // Sphere/custom BLAS: a single root record.
            _ => 1,
        };
        let blas_node_base = space.alloc(blas_node_count, layout.node_bytes);
        let blas_prim_base = space.alloc(blas_prim_count, blas_prim_stride);

        let tlas_bytes = tlas.node_count() as u64 * layout.node_bytes
            + instances.len() as u64 * layout.instance_bytes;
        let blas_bytes = blas_node_count * layout.node_bytes + blas_prim_count * blas_prim_stride;
        let size_report = BvhSizeReport {
            total_bytes: tlas_bytes + blas_bytes,
            node_bytes: (tlas.node_count() as u64 + blas_node_count) * layout.node_bytes,
            prim_bytes: instances.len() as u64 * layout.instance_bytes
                + blas_prim_count * blas_prim_stride,
            tlas_bytes,
            blas_bytes,
            node_count: tlas.node_count() as u64 + blas_node_count,
            prim_count: blas_prim_count,
            instance_count: instances.len() as u64,
        };

        Self {
            tlas,
            instances,
            blas,
            size_report,
            tlas_node_base,
            instance_base,
            blas_node_base,
            blas_prim_base,
            node_stride: layout.node_bytes,
            instance_stride: layout.instance_bytes,
            blas_prim_stride,
        }
    }

    /// Structure height: TLAS levels plus BLAS levels (plus the instance
    /// level itself).
    pub fn height(&self) -> u32 {
        let blas_height = match &self.blas {
            SharedBlas::Mesh { bvh, .. } => bvh.height,
            _ => 1,
        };
        self.tlas.height + 1 + blas_height
    }

    /// Intersects BLAS primitive `prim_pos` with an *instance-local* ray;
    /// returns the world-equal `t_hit` (the instance transform preserves
    /// `t`).
    ///
    /// For the sphere/custom BLAS, `prim_pos` is ignored (single
    /// primitive).
    pub fn intersect_blas_prim(&self, prim_pos: u32, local_ray: &Ray) -> Option<f32> {
        match &self.blas {
            SharedBlas::UnitSphere | SharedBlas::CustomEllipsoid => {
                intersect::ray_sphere_unit(local_ray).map(|h| {
                    if h.t_enter > 0.0 {
                        h.t_enter
                    } else {
                        h.t_exit
                    }
                })
            }
            SharedBlas::Mesh { tris, .. } => {
                let [a, b, c] = tris[prim_pos as usize];
                let n = (b - a).cross(c - a);
                if local_ray.direction.dot(n) >= 0.0 {
                    return None; // Backface culling, as in the monolithic path.
                }
                intersect::ray_triangle(local_ray, a, b, c).map(|h| h.t)
            }
        }
    }

    /// Batched leaf test: up to 4 consecutive BLAS mesh triangles
    /// (`prim_order` positions `start..start + n`) against an
    /// *instance-local* ray in one [`grtx_math::simd::ray_triangle_4`]
    /// kernel call — the
    /// software analogue of the hardware ray–triangle unit consuming a
    /// whole leaf fetch. Slot `i` is bit-identical to
    /// [`Self::intersect_blas_prim`]`(start + i, local_ray)`, backface
    /// culling included.
    ///
    /// # Panics
    ///
    /// Panics if the BLAS is not a mesh or `n > 4`.
    pub fn intersect_blas_tri4(&self, start: u32, n: usize, local_ray: &Ray) -> [Option<f32>; 4] {
        let SharedBlas::Mesh { tris, .. } = &self.blas else {
            panic!("batched triangle tests require a mesh BLAS")
        };
        assert!(n <= 4, "at most 4 lanes");
        crate::intersect_tri_lanes(&tris[start as usize..start as usize + n], local_ray)
    }

    /// TLAS node address.
    pub fn tlas_node_addr(&self, id: u32) -> u64 {
        self.tlas_node_base + id as u64 * self.node_stride
    }

    /// Instance record address.
    pub fn instance_addr(&self, id: u32) -> u64 {
        self.instance_base + id as u64 * self.instance_stride
    }

    /// BLAS node address (shared by all instances — the locality
    /// mechanism).
    pub fn blas_node_addr(&self, id: u32) -> u64 {
        self.blas_node_base + id as u64 * self.node_stride
    }

    /// BLAS primitive record address (shared).
    pub fn blas_prim_addr(&self, pos: u32) -> u64 {
        self.blas_prim_base + pos as u64 * self.blas_prim_stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtx_math::Vec3;
    use grtx_scene::Gaussian;

    fn small_scene() -> GaussianScene {
        (0..50)
            .map(|i| {
                Gaussian::isotropic(
                    Vec3::new((i % 10) as f32, (i / 10) as f32, 0.0),
                    0.15,
                    0.7,
                    Vec3::ONE,
                )
            })
            .collect()
    }

    #[test]
    fn one_instance_per_gaussian() {
        let scene = small_scene();
        let t = TwoLevelBvh::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            &LayoutConfig::default(),
        );
        assert_eq!(t.instances.len(), scene.len());
        assert_eq!(t.size_report.instance_count, scene.len() as u64);
    }

    #[test]
    fn shared_blas_is_kilobytes() {
        let scene = small_scene();
        for prim in [
            BoundingPrimitive::UnitSphere,
            BoundingPrimitive::Mesh20,
            BoundingPrimitive::Mesh80,
        ] {
            let t = TwoLevelBvh::build(&scene, prim, &LayoutConfig::default());
            assert!(
                t.size_report.blas_bytes < 16 * 1024,
                "{prim}: BLAS is {} bytes",
                t.size_report.blas_bytes
            );
        }
    }

    #[test]
    fn two_level_is_much_smaller_than_monolithic() {
        let scene = small_scene();
        let mono = crate::MonolithicBvh::build(
            &scene,
            BoundingPrimitive::Mesh20,
            &LayoutConfig::default(),
        );
        let two = TwoLevelBvh::build(&scene, BoundingPrimitive::Mesh20, &LayoutConfig::default());
        assert!(
            two.size_report.total_bytes * 4 < mono.size_report.total_bytes,
            "two-level {} vs monolithic {}",
            two.size_report.total_bytes,
            mono.size_report.total_bytes
        );
    }

    #[test]
    fn tlas_validates() {
        let scene = small_scene();
        let t = TwoLevelBvh::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            &LayoutConfig::default(),
        );
        let aabbs: Vec<grtx_math::Aabb> = scene.world_aabbs().map(|(_, a)| a).collect();
        t.tlas.validate(&aabbs, 1e-3).expect("valid TLAS");
    }

    #[test]
    fn sphere_blas_hit_matches_world_ellipsoid() {
        let scene = small_scene();
        let t = TwoLevelBvh::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            &LayoutConfig::default(),
        );
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
        // Instance 0 is the Gaussian at the origin with σ = 0.15; its
        // 3σ ellipsoid is a sphere of radius 0.45.
        let inst = &t.instances[0];
        let local = inst.transform.inverse_transform_ray(&ray);
        let t_hit = t.intersect_blas_prim(0, &local).expect("hit");
        assert!((t_hit - (5.0 - 0.45)).abs() < 1e-3, "t_hit = {t_hit}");
    }

    #[test]
    fn mesh_blas_reports_single_front_hit() {
        let scene = small_scene();
        let t = TwoLevelBvh::build(&scene, BoundingPrimitive::Mesh20, &LayoutConfig::default());
        // Offset so the ray cannot pass exactly through a proxy-mesh edge.
        let ray = Ray::new(Vec3::new(0.02, 0.04, -5.0), Vec3::Z);
        let inst = &t.instances[0];
        let local = inst.transform.inverse_transform_ray(&ray);
        let mut hits = 0;
        if let SharedBlas::Mesh { bvh, .. } = &t.blas {
            for pos in 0..bvh.prim_count() as u32 {
                if t.intersect_blas_prim(pos, &local).is_some() {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 1, "closed convex proxy must report one front hit");
    }

    #[test]
    fn blas_addresses_identical_across_instances() {
        // The whole point of the shared BLAS: its addresses do not depend
        // on which instance is being traversed.
        let scene = small_scene();
        let t = TwoLevelBvh::build(&scene, BoundingPrimitive::Mesh80, &LayoutConfig::default());
        let addr = t.blas_node_addr(0);
        assert!(addr > t.instance_addr(t.instances.len() as u32 - 1));
        assert_eq!(t.blas_node_addr(0), addr);
    }

    #[test]
    fn height_combines_tlas_and_blas() {
        let scene = small_scene();
        let sphere = TwoLevelBvh::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            &LayoutConfig::default(),
        );
        let mesh = TwoLevelBvh::build(&scene, BoundingPrimitive::Mesh80, &LayoutConfig::default());
        assert!(mesh.height() > sphere.height());
    }
}
