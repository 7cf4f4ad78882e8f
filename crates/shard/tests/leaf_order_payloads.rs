//! Leaf-order payloads checked against an oracle that does not use them.
//!
//! Mesh structures store their triangles in BVH leaf order, so the leaf
//! tests index by position with no `prim_order` lookup. Every lane of
//! the batched leaf test must still equal the scalar backface cull plus
//! `intersect::ray_triangle` on the creation-order triangle
//! `prim_order[pos]`, whether the serial or the sharded build produced
//! the structure.

use grtx_bvh::two_level::SharedBlas;
use grtx_bvh::{AccelStruct, BoundingPrimitive, LayoutConfig, MonolithicBvh};
use grtx_math::{intersect, Ray, Vec3};
use grtx_scene::synth::generate_scene;
use grtx_scene::{GaussianScene, SceneKind, TemplateMesh};
use grtx_shard::ShardedAccel;

fn test_scene() -> GaussianScene {
    generate_scene(SceneKind::Train.profile().with_gaussian_budget(60), 5)
}

/// The leaf tests' contract, computed from a creation-order triangle:
/// front-facing hits only.
fn oracle(ray: &Ray, [a, b, c]: [Vec3; 3]) -> Option<f32> {
    if ray.direction.dot((b - a).cross(c - a)) >= 0.0 {
        return None;
    }
    intersect::ray_triangle(ray, a, b, c).map(|h| h.t)
}

/// Rays from several sides aimed near the first Gaussians' means, so
/// most leaves see both hits and culled back faces.
fn probe_rays(scene: &GaussianScene) -> Vec<Ray> {
    let offsets = [
        Vec3::new(0.0, 0.0, -6.0),
        Vec3::new(5.0, 1.0, 0.5),
        Vec3::new(-2.0, -5.0, 3.0),
    ];
    scene
        .gaussians()
        .iter()
        .take(6)
        .flat_map(|g| {
            offsets.iter().map(move |&off| {
                let target = g.mean + Vec3::new(0.013, -0.007, 0.011);
                Ray::new(g.mean + off, (target - (g.mean + off)).normalized())
            })
        })
        .collect()
}

/// Compares hits by bits so a `t` that merely rounds alike still fails.
fn bits<G>(hit: Option<(G, f32)>) -> Option<(G, u32)> {
    hit.map(|(g, t)| (g, t.to_bits()))
}

#[test]
fn monolithic_mesh_lanes_match_creation_order_oracle() {
    let scene = test_scene();
    let layout = LayoutConfig::default();
    let rays = probe_rays(&scene);
    for primitive in [BoundingPrimitive::Mesh20, BoundingPrimitive::Mesh80] {
        let (_, verts, gaussian_of) = MonolithicBvh::mesh_build_prims(&scene, primitive);
        let serial = AccelStruct::build(&scene, primitive, false, &layout);
        let sharded = ShardedAccel::build(&scene, primitive, false, &layout, 4, 2);
        for (build, accel) in [("serial", &serial), ("sharded", sharded.accel())] {
            let AccelStruct::Monolithic(mono) = accel else {
                panic!("{primitive} {build}: expected a monolithic structure")
            };
            let order = &mono.bvh.prim_order;
            let n = order.len();
            assert_eq!(n, verts.len(), "{primitive} {build}: triangle count");
            let mut front_hits = 0;
            for ray in &rays {
                // Step 3 so windows start both on and off 4-aligned leaf
                // positions, and every window length 1..=4 occurs.
                for start in (0..n).step_by(3) {
                    let lanes = (n - start).min(4);
                    let got = mono.intersect_tri4(start as u32, lanes, ray);
                    for (i, &lane) in got.iter().enumerate() {
                        let pos = start + i;
                        let want = (i < lanes).then(|| {
                            let id = order[pos] as usize;
                            oracle(ray, verts[id]).map(|t| (gaussian_of[id], t))
                        });
                        let want = want.flatten();
                        assert_eq!(
                            bits(lane),
                            bits(want),
                            "{primitive} {build}: lane {i} of window at {start}"
                        );
                        if i < lanes {
                            assert_eq!(
                                bits(mono.intersect_prim(&scene, pos as u32, ray)),
                                bits(want),
                                "{primitive} {build}: scalar test at position {pos}"
                            );
                        }
                        front_hits += usize::from(want.is_some());
                    }
                }
            }
            assert!(front_hits > 0, "{primitive} {build}: no ray hit a proxy");
        }
    }
}

#[test]
fn shared_blas_lanes_match_template_oracle() {
    let scene = test_scene();
    let layout = LayoutConfig::default();
    for (primitive, template) in [
        (BoundingPrimitive::Mesh20, TemplateMesh::icosahedron()),
        (BoundingPrimitive::Mesh80, TemplateMesh::icosphere_80()),
    ] {
        let serial = AccelStruct::build(&scene, primitive, true, &layout);
        let sharded = ShardedAccel::build(&scene, primitive, true, &layout, 4, 2);
        for (build, accel) in [("serial", &serial), ("sharded", sharded.accel())] {
            let AccelStruct::TwoLevel(two) = accel else {
                panic!("{primitive} {build}: expected a two-level structure")
            };
            let SharedBlas::Mesh { bvh, .. } = &two.blas else {
                panic!("{primitive} {build}: expected a mesh BLAS")
            };
            let n = bvh.prim_order.len();
            let mut front_hits = 0;
            for instance in two.instances.iter().take(6) {
                for world in probe_rays(&scene) {
                    let local = instance.transform.inverse_transform_ray(&world);
                    for start in (0..n).step_by(3) {
                        let lanes = (n - start).min(4);
                        let got = two.intersect_blas_tri4(start as u32, lanes, &local);
                        for (i, &lane) in got.iter().enumerate() {
                            let want = (i < lanes)
                                .then(|| {
                                    let id = bvh.prim_order[start + i] as usize;
                                    oracle(&local, template.triangle_vertices(id))
                                })
                                .flatten();
                            assert_eq!(
                                lane.map(f32::to_bits),
                                want.map(f32::to_bits),
                                "{primitive} {build}: lane {i} of window at {start}"
                            );
                            front_hits += usize::from(want.is_some());
                        }
                    }
                }
            }
            assert!(front_hits > 0, "{primitive} {build}: no ray hit the BLAS");
        }
    }
}
