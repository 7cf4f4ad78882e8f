//! Property-based equivalence tests for the vectorized kernels.
//!
//! The determinism contract of `grtx_math::simd` is that lane `i` of a
//! batched kernel is **bitwise identical** to the corresponding scalar
//! test, and that the explicit AVX2/NEON paths are bitwise identical to
//! the portable fixed-width kernel. These tests drive random rays and
//! boxes — including axis-parallel rays (zero direction components),
//! degenerate boxes (`min == max`), inverted-interval boxes
//! (`min > max`), and boxes entirely behind the origin — through both
//! and compare bits.
//!
//! The `fma` cargo feature contracts the slab arithmetic and therefore
//! deliberately breaks bitwise equality **with the scalar reference**;
//! those assertions gate themselves off under the feature. The
//! dispatched-vs-portable equalities hold on every build, `fma`
//! included (both paths contract identically), and stay unconditional.

use grtx_math::simd::{
    ray_triangle_4, ray_triangle_4_portable, slab_test_8, slab_test_8_portable, HitMask8, SoaAabbs,
    Tri4, Tri4Hit, LANES,
};
#[cfg(not(feature = "fma"))]
use grtx_math::{intersect::ray_triangle, Aabb};
use grtx_math::{Ray, Vec3};
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

#[cfg(not(feature = "fma"))]
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

// Under `fma` the scalar reference no longer matches bitwise, but the
// explicit paths contract exactly like the portable kernels, so these
// equalities hold on every build.
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

/// Deterministic worst-case corners, independent of the random driver:
/// rays lying exactly in a slab plane (the `0 * inf` NaN case), inverted
/// boxes, and boxes behind the origin.
#[cfg(not(feature = "fma"))]
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
