//! Property-based equivalence tests for the vectorized kernels.
//!
//! The determinism contract of `grtx_math::simd` is that lane `i` of a
//! batched kernel is **bitwise identical** to the corresponding scalar
//! test, and that the explicit AVX2/NEON paths are bitwise identical to
//! the portable fixed-width kernel. These tests drive random rays and
//! boxes — including axis-parallel rays (zero direction components),
//! degenerate boxes (`min == max`), inverted-interval boxes
//! (`min > max`), and boxes entirely behind the origin — through both
//! and compare bits. Every assertion runs on every build.

use grtx_math::simd::{
    ray_triangle_4, ray_triangle_4_portable, slab_test_8, slab_test_8_portable, HitMask8, SoaAabbs,
    Tri4, Tri4Hit, LANES,
};
use grtx_math::{intersect::ray_triangle, Aabb, Ray, Vec3};
use proptest::prelude::*;

fn finite_f32(range: std::ops::Range<f32>) -> impl Strategy<Value = f32> {
    let (start, end) = (range.start, range.end);
    (0.0f64..1.0f64).prop_map(move |u| start + (u as f32) * (end - start))
}

fn vec3(range: std::ops::Range<f32>) -> impl Strategy<Value = Vec3> {
    (
        finite_f32(range.clone()),
        finite_f32(range.clone()),
        finite_f32(range),
    )
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// Directions with a chance of exactly-zero components (axis-parallel
/// rays), whose slab arithmetic produces `0 * ±inf = NaN` terms.
fn direction() -> impl Strategy<Value = Vec3> {
    (vec3(-1.0..1.0), 0u32..8).prop_map(|(v, zero_mask)| {
        Vec3::new(
            if zero_mask & 1 != 0 { 0.0 } else { v.x },
            if zero_mask & 2 != 0 { 0.0 } else { v.y },
            if zero_mask & 4 != 0 { 0.0 } else { v.z },
        )
    })
}

/// Boxes of every shape class the traversal can meet: regular,
/// point-degenerate (`min == max`), inverted (`min > max` — the empty
/// sentinel shape), flat (one zero-extent axis), and far-behind-origin.
fn aabb_case() -> impl Strategy<Value = grtx_math::Aabb> {
    (vec3(-8.0..8.0), vec3(0.01..4.0), 0u32..5).prop_map(|(corner, ext, class)| match class {
        0 => grtx_math::Aabb::new(corner, corner + ext),
        1 => grtx_math::Aabb::new(corner, corner), // degenerate point box
        2 => grtx_math::Aabb::new(corner, corner - ext), // inverted interval
        3 => grtx_math::Aabb::new(corner, corner + Vec3::new(0.0, ext.y, ext.z)), // flat slab
        _ => grtx_math::Aabb::new(corner - Vec3::splat(100.0), corner - Vec3::splat(96.0)), // behind
    })
}

/// Triangles including degenerate slivers (collinear / duplicate
/// vertices) that must always miss via the determinant guard.
fn triangle_case() -> impl Strategy<Value = [Vec3; 3]> {
    (vec3(-4.0..4.0), vec3(-3.0..3.0), vec3(-3.0..3.0), 0u32..4).prop_map(|(v0, e1, e2, class)| {
        match class {
            0 | 1 => [v0, v0 + e1, v0 + e2],
            2 => [v0, v0 + e1, v0 + e1 * 2.0], // collinear sliver
            _ => [v0, v0, v0 + e2],            // duplicate vertex
        }
    })
}

fn assert_slab_paths_equal(a: &HitMask8, b: &HitMask8) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.mask, b.mask, "hit masks diverge");
    for i in 0..LANES {
        if a.mask & (1 << i) != 0 {
            prop_assert_eq!(a.t_enter[i].to_bits(), b.t_enter[i].to_bits());
            prop_assert_eq!(a.t_exit[i].to_bits(), b.t_exit[i].to_bits());
        }
    }
    Ok(())
}

fn assert_tri_paths_equal(a: &Tri4Hit, b: &Tri4Hit) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.mask, b.mask, "hit masks diverge");
    for i in 0..4 {
        if a.mask & (1 << i) != 0 {
            prop_assert_eq!(a.t[i].to_bits(), b.t[i].to_bits());
            prop_assert_eq!(a.u[i].to_bits(), b.u[i].to_bits());
            prop_assert_eq!(a.v[i].to_bits(), b.v[i].to_bits());
        }
    }
    Ok(())
}

proptest! {
    /// Lane `i` of the batched slab test reproduces the scalar
    /// `Aabb::intersect_ray` bit-for-bit on every box class, across the
    /// full 8-lane width.
    #[test]
    fn slab_lane_equals_scalar(boxes in proptest::collection::vec(aabb_case(), 0..9),
                               origin in vec3(-12.0..12.0), dir in direction()) {
        let ray = Ray::new(origin, dir);
        let soa = SoaAabbs::from_aabbs(&boxes);
        let batched = slab_test_8(&ray.inv(), &soa);
        for (i, b) in boxes.iter().enumerate() {
            let scalar = b.intersect_ray(&ray);
            let lane = batched.hit(i);
            match (scalar, lane) {
                (Some((se, sx)), Some((le, lx))) => {
                    prop_assert_eq!(se.to_bits(), le.to_bits(), "lane {} entry", i);
                    prop_assert_eq!(sx.to_bits(), lx.to_bits(), "lane {} exit", i);
                }
                (None, None) => {}
                (s, l) => prop_assert!(false, "lane {}: scalar {:?} vs batched {:?}", i, s, l),
            }
        }
        // Sentinel padding lanes must stay silent.
        prop_assert_eq!(batched.mask & !soa.lane_mask(), 0);
    }

    /// Lane `i` of the batched triangle test reproduces the scalar
    /// `ray_triangle` bit-for-bit, degenerate slivers included.
    #[test]
    fn triangle_lane_equals_scalar(tris in proptest::collection::vec(triangle_case(), 0..5),
                                   origin in vec3(-10.0..10.0), dir in direction()) {
        let ray = Ray::new(origin, dir);
        let packet = Tri4::from_triangles(&tris);
        let batched = ray_triangle_4(&ray, &packet);
        for (i, [a, b, c]) in tris.iter().enumerate() {
            let scalar = ray_triangle(&ray, *a, *b, *c);
            let lane = batched.hit(i);
            match (scalar, lane) {
                (Some(s), Some(l)) => {
                    prop_assert_eq!(s.t.to_bits(), l.t.to_bits(), "lane {} t", i);
                    prop_assert_eq!(s.u.to_bits(), l.u.to_bits(), "lane {} u", i);
                    prop_assert_eq!(s.v.to_bits(), l.v.to_bits(), "lane {} v", i);
                }
                (None, None) => {}
                (s, l) => prop_assert!(false, "lane {}: scalar {:?} vs batched {:?}", i, s, l),
            }
        }
        prop_assert_eq!(batched.mask & !packet.lane_mask(), 0);
    }
}

proptest! {
    /// The dispatched path (explicit AVX2/NEON when the CPU has it)
    /// produces exactly the portable kernel's bits.
    #[test]
    fn slab_dispatch_equals_portable(boxes in proptest::collection::vec(aabb_case(), 0..9),
                                     origin in vec3(-12.0..12.0), dir in direction()) {
        let ray = Ray::new(origin, dir);
        let soa = SoaAabbs::from_aabbs(&boxes);
        assert_slab_paths_equal(
            &slab_test_8(&ray.inv(), &soa),
            &slab_test_8_portable(&ray.inv(), &soa),
        )?;
    }

    /// Dispatched triangle path equals the portable kernel bitwise.
    #[test]
    fn triangle_dispatch_equals_portable(tris in proptest::collection::vec(triangle_case(), 0..5),
                                         origin in vec3(-10.0..10.0), dir in direction()) {
        let ray = Ray::new(origin, dir);
        let packet = Tri4::from_triangles(&tris);
        assert_tri_paths_equal(
            &ray_triangle_4(&ray, &packet),
            &ray_triangle_4_portable(&ray, &packet),
        )?;
    }
}

/// Directions of every class the cull can meet: regular, axis-parallel
/// (exact zeros), and poisoned by a NaN or infinite component.
fn cull_direction() -> impl Strategy<Value = Vec3> {
    (direction(), 0u32..6, 0u32..3).prop_map(|(d, class, axis)| {
        let poison = match class {
            4 => f32::NAN,
            5 => f32::INFINITY,
            _ => return d,
        };
        match axis {
            0 => Vec3::new(poison, d.y, d.z),
            1 => Vec3::new(d.x, poison, d.z),
            _ => Vec3::new(d.x, d.y, poison),
        }
    })
}

/// [`triangle_case`] plus triangles whose edge products overflow, so the
/// normal's components reach `inf - inf = NaN`: the inputs on which
/// `!(x >= 0)` and `x < 0` disagree.
fn cull_triangle() -> impl Strategy<Value = [Vec3; 3]> {
    (triangle_case(), 0u32..4).prop_map(|(tri @ [v0, v1, v2], class)| match class {
        0 => [v0, v0 + (v1 - v0) * 1e38, v0 + (v2 - v0) * 1e38],
        _ => tri,
    })
}

/// The leaf tests' scalar backface cull: `true` keeps the triangle
/// (the traversal culls exactly when `d · n >= 0`, so NaN keeps it).
fn scalar_front(ray: &Ray, [a, b, c]: [Vec3; 3]) -> bool {
    let culled = ray.direction.dot((b - a).cross(c - a)) >= 0.0;
    !culled
}

// The front-face mask is plain lane-wise arithmetic, so it must equal
// the scalar cull bit for bit everywhere.
proptest! {
    /// The dispatched kernel's front-face mask equals the portable
    /// kernel's and the scalar cull on every lane, and padding lanes
    /// stay clear.
    #[test]
    fn front_mask_equals_portable_and_scalar_cull(
        tris in proptest::collection::vec(cull_triangle(), 0..5),
        origin in vec3(-10.0..10.0),
        dir in cull_direction(),
    ) {
        let ray = Ray::new(origin, dir);
        let packet = Tri4::from_triangles(&tris);
        let dispatched = ray_triangle_4(&ray, &packet);
        let portable = ray_triangle_4_portable(&ray, &packet);
        prop_assert_eq!(dispatched.front, portable.front, "front masks diverge");
        for (i, tri) in tris.iter().enumerate() {
            prop_assert_eq!(
                dispatched.front & (1 << i) != 0,
                scalar_front(&ray, *tri),
                "lane {} disagrees with the scalar cull",
                i
            );
        }
        prop_assert_eq!(dispatched.front & !packet.lane_mask(), 0);
    }
}

/// Fixed cull corners: a ray in the triangle's plane (`d · n == 0`, so
/// culled), a NaN direction (kept, as the scalar `>=` fails on NaN), an
/// overflowing normal, and a zero-area sliver.
#[test]
fn front_mask_known_hard_cases_match_scalar_cull() {
    let tris = [
        [Vec3::ZERO, Vec3::X, Vec3::Y],
        [Vec3::ZERO, Vec3::Y, Vec3::X],
        [Vec3::ZERO, Vec3::X * 3e38, Vec3::new(3e38, 3e38, 0.0)],
        [Vec3::ZERO, Vec3::X, Vec3::X * 2.0],
    ];
    let rays = [
        Ray::new(Vec3::new(0.25, 0.25, -2.0), Vec3::Z),
        Ray::new(Vec3::new(0.25, 0.25, 2.0), -Vec3::Z),
        Ray::new(Vec3::new(-1.0, 0.25, 0.0), Vec3::X),
        Ray::new(Vec3::ZERO, Vec3::new(f32::NAN, 0.0, 1.0)),
        Ray::new(Vec3::ZERO, Vec3::ZERO),
    ];
    let packet = Tri4::from_triangles(&tris);
    for ray in &rays {
        let dispatched = ray_triangle_4(ray, &packet);
        assert_eq!(
            dispatched.front,
            ray_triangle_4_portable(ray, &packet).front
        );
        for (i, tri) in tris.iter().enumerate() {
            assert_eq!(
                dispatched.front & (1 << i) != 0,
                scalar_front(ray, *tri),
                "lane {i}, ray {ray:?}"
            );
        }
    }
}

/// Deterministic worst-case corners, independent of the random driver:
/// rays lying exactly in a slab plane (the `0 * inf` NaN case), inverted
/// boxes, and boxes behind the origin.
#[test]
fn slab_known_hard_cases_match_scalar() {
    let boxes = vec![
        // Ray origin exactly on the min-x plane, axis-parallel in x.
        Aabb::new(Vec3::new(0.0, -1.0, -1.0), Vec3::new(2.0, 1.0, 1.0)),
        // Degenerate point box at the origin.
        Aabb::new(Vec3::ZERO, Vec3::ZERO),
        // Inverted interval (empty sentinel shape).
        Aabb::new(Vec3::splat(1.0), Vec3::splat(-1.0)),
        // Entirely behind the origin.
        Aabb::new(Vec3::new(-5.0, -1.0, -1.0), Vec3::new(-3.0, 1.0, 1.0)),
        // Contains the origin.
        Aabb::new(Vec3::splat(-0.5), Vec3::splat(0.5)),
    ];
    let rays = [
        Ray::new(Vec3::ZERO, Vec3::Z),
        Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, -1.0)),
        Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)),
        Ray::new(Vec3::ZERO, Vec3::ZERO), // fully degenerate direction
        Ray::new(Vec3::new(0.0, 0.0, -4.0), Vec3::new(0.0, 0.0, 1.0)),
    ];
    let soa = SoaAabbs::from_aabbs(&boxes);
    for ray in &rays {
        let batched = slab_test_8(&ray.inv(), &soa);
        let portable = slab_test_8_portable(&ray.inv(), &soa);
        assert_eq!(batched.mask, portable.mask);
        for (i, b) in boxes.iter().enumerate() {
            let scalar = b.intersect_ray(ray);
            match (scalar, batched.hit(i)) {
                (Some((se, sx)), Some((le, lx))) => {
                    assert_eq!(se.to_bits(), le.to_bits(), "lane {i} entry");
                    assert_eq!(sx.to_bits(), lx.to_bits(), "lane {i} exit");
                }
                (None, None) => {}
                (s, l) => panic!("lane {i}: scalar {s:?} vs batched {l:?}"),
            }
        }
    }
}

/// The behind-origin hard case: rays all pointing away from every box
/// must produce all-miss masks on every path.
#[test]
fn behind_origin_rays_all_miss() {
    let boxes: Vec<grtx_math::Aabb> = (0..8)
        .map(|i| {
            grtx_math::Aabb::from_center_half_extent(
                Vec3::new(0.0, 0.0, -5.0 - i as f32),
                Vec3::splat(0.4),
            )
        })
        .collect();
    let soa = SoaAabbs::from_aabbs(&boxes);
    let rays = [
        Ray::new(Vec3::ZERO, Vec3::Z),
        Ray::new(Vec3::ZERO, Vec3::new(0.1, 0.0, 1.0)),
        Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.1, 1.0)),
        Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0)),
    ];
    for ray in &rays {
        assert_eq!(
            slab_test_8(&ray.inv(), &soa).mask,
            0,
            "behind-origin boxes must all miss"
        );
        assert_eq!(slab_test_8_portable(&ray.inv(), &soa).mask, 0);
    }
}
