//! Vectorized intersection kernels for the traversal hot path.
//!
//! The paper's RT unit consumes one wide-node fetch as a batch of
//! parallel ray–box tests (Embree-style wide BVH, Section V-A). This
//! module provides the software analogue: an 8-wide slab test over a
//! structure-of-arrays child layout ([`SoaAabbs`]) — one AVX2 register
//! per lane array, every lane a real child — and a 4-wide batched
//! Möller–Trumbore triangle test ([`ray_triangle_4`]) for BVH leaf
//! ranges.
//!
//! # Determinism contract
//!
//! Every kernel has a **portable** fixed-width-array implementation the
//! compiler autovectorizes, plus `cfg(target_arch)`-gated explicit AVX2
//! (x86-64) and NEON (aarch64) paths. The explicit paths perform the
//! *same operations in the same order* with the same IEEE `min`/`max`
//! (minNum/maxNum — NaN-ignoring, matching Rust's `f32::min`/`f32::max`)
//! and infinity handling for axis-parallel rays, so lane `i` of a
//! batched kernel is **bitwise identical** to the corresponding scalar
//! test ([`Aabb::intersect_ray`] / [`crate::intersect::ray_triangle`])
//! on every input, and the explicit paths are bitwise identical to the
//! portable one. Images, cycle counts, and traversal statistics are
//! therefore independent of which path the dispatcher picks.
//!
//! Empty lanes are padded with the empty-box sentinel
//! (`min = +inf, max = -inf`); the returned hit masks are ANDed with the
//! lane mask so sentinel lanes never report hits, and callers charge
//! `box_tests` by the *occupied* lane count, keeping observer statistics
//! identical to the scalar per-child loop.

use crate::aabb::Aabb;
use crate::intersect::SurfaceHit;
use crate::ray::{Ray, RayInv};
use crate::vec::Vec3;

/// Lane count of the wide slab test: one lane per BVH-8 child. Storage
/// and semantics agree — one AVX2 register (or two NEON registers)
/// covers a whole node with aligned loads, and every lane can carry a
/// real child.
pub const LANES: usize = 8;

// ---------------------------------------------------------------------------
// SoA AABB layout.

/// Up to [`LANES`] axis-aligned boxes in structure-of-arrays layout:
/// `min_x[.], min_y[.], …, max_z[.]` lanes, padded to [`LANES`] with the
/// empty-box sentinel (`min = +inf, max = -inf`) so vector loads never
/// read uninitialized memory and padding lanes can never intersect.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
pub struct SoaAabbs {
    min_x: [f32; LANES],
    min_y: [f32; LANES],
    min_z: [f32; LANES],
    max_x: [f32; LANES],
    max_y: [f32; LANES],
    max_z: [f32; LANES],
    len: u8,
}

impl SoaAabbs {
    /// No boxes: every lane holds the empty sentinel.
    pub const EMPTY: Self = Self {
        min_x: [f32::INFINITY; LANES],
        min_y: [f32::INFINITY; LANES],
        min_z: [f32::INFINITY; LANES],
        max_x: [f32::NEG_INFINITY; LANES],
        max_y: [f32::NEG_INFINITY; LANES],
        max_z: [f32::NEG_INFINITY; LANES],
        len: 0,
    };

    /// Packs `boxes` into lanes `0..boxes.len()`.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LANES`] boxes are given.
    pub fn from_aabbs(boxes: &[Aabb]) -> Self {
        assert!(boxes.len() <= LANES, "at most {LANES} lanes");
        let mut soa = Self::EMPTY;
        for &aabb in boxes {
            soa.push(aabb);
        }
        soa
    }

    /// Appends one box to the next free lane.
    ///
    /// # Panics
    ///
    /// Panics if all [`LANES`] lanes are occupied.
    pub fn push(&mut self, aabb: Aabb) {
        let i = self.len as usize;
        assert!(i < LANES, "at most {LANES} lanes");
        self.min_x[i] = aabb.min.x;
        self.min_y[i] = aabb.min.y;
        self.min_z[i] = aabb.min.z;
        self.max_x[i] = aabb.max.x;
        self.max_y[i] = aabb.max.y;
        self.max_z[i] = aabb.max.z;
        self.len += 1;
    }

    /// Number of occupied lanes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` if no lane is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit mask with one bit set per occupied lane.
    pub fn lane_mask(&self) -> u8 {
        ((1u16 << self.len) - 1) as u8
    }

    /// Reconstructs the box in lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an occupied lane.
    pub fn get(&self, i: usize) -> Aabb {
        assert!(i < self.len as usize, "lane {i} not occupied");
        Aabb::new(
            Vec3::new(self.min_x[i], self.min_y[i], self.min_z[i]),
            Vec3::new(self.max_x[i], self.max_y[i], self.max_z[i]),
        )
    }
}

impl Default for SoaAabbs {
    fn default() -> Self {
        Self::EMPTY
    }
}

/// Result of one [`slab_test_8`] call: entry/exit distances for every
/// lane plus a hit mask. Lanes whose mask bit is clear hold garbage
/// `t` values (miss lanes and sentinel padding).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HitMask8 {
    /// Per-lane entry distance (clamped to `0`), valid where `mask` is set.
    pub t_enter: [f32; LANES],
    /// Per-lane exit distance, valid where `mask` is set.
    pub t_exit: [f32; LANES],
    /// Bit `i` set iff lane `i` is occupied and the ray hits its box.
    pub mask: u8,
}

impl HitMask8 {
    /// Lane `i` as the scalar API reports it: `Some((t_enter, t_exit))`
    /// on a hit, `None` on a miss.
    pub fn hit(&self, i: usize) -> Option<(f32, f32)> {
        if self.mask & (1 << i) != 0 {
            Some((self.t_enter[i], self.t_exit[i]))
        } else {
            None
        }
    }
}

/// Eight ray–box slab tests in one call — the software analogue of the
/// RT unit consuming one wide-node fetch as eight parallel box tests.
///
/// Lane `i` is bitwise identical to `boxes.get(i).intersect_ray(ray)`
/// (entry/exit `t` values and hit/miss decision). Sentinel (unoccupied)
/// lanes never set their mask bit. Dispatches to the explicit AVX2 path
/// when the CPU supports it (NEON on aarch64), falling back to
/// [`slab_test_8_portable`]; all paths produce identical bits.
#[inline]
pub fn slab_test_8(ray: &RayInv, boxes: &SoaAabbs) -> HitMask8 {
    #[cfg(target_arch = "x86_64")]
    {
        // Per-call detection is deliberate: the macro folds to `true`
        // at compile time when AVX2 is statically enabled (e.g.
        // `-C target-cpu=native`), and otherwise compiles to one cached
        // atomic load plus a perfectly-predicted branch — measurably
        // cheaper than an uninlinable function-pointer dispatch for a
        // ~10 ns kernel.
        if x86::runtime_features_available() {
            // SAFETY: the required features were just detected.
            return unsafe { x86::slab_test_8_avx2(ray, boxes) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is a mandatory feature of aarch64.
        return neon::slab_test_8_neon(ray, boxes);
    }
    #[allow(unreachable_code)]
    slab_test_8_portable(ray, boxes)
}

/// Portable fixed-width slab kernel (autovectorized by the compiler).
///
/// Reference implementation for the explicit-SIMD paths: per lane it
/// performs exactly the operation sequence of [`Aabb::intersect_ray`] —
/// `(slab - origin) * inv_direction`, NaN-ignoring min/max, entry
/// clamped to zero — so `0 * ±inf = NaN` lanes from axis-parallel rays
/// resolve identically to the scalar test.
pub fn slab_test_8_portable(ray: &RayInv, boxes: &SoaAabbs) -> HitMask8 {
    let (ox, oy, oz) = (ray.origin.x, ray.origin.y, ray.origin.z);
    let (ix, iy, iz) = (
        ray.inv_direction.x,
        ray.inv_direction.y,
        ray.inv_direction.z,
    );
    // Opt-in contraction: (slab - o)*i == slab*i - o*i == slab.mul_add(i, -(o*i)).
    // Fused rounding changes bits vs the default path (and axis-parallel
    // rays turn the precomputed -(o*i) term into NaN, which the
    // NaN-ignoring min/max resolve to a conservative full slab span), so
    // the `fma` feature trades the bitwise-vs-scalar contract for fewer
    // rounding steps and is benched separately.
    #[cfg(feature = "fma")]
    let (nx, ny, nz) = (-(ox * ix), -(oy * iy), -(oz * iz));
    let mut t_enter = [0.0f32; LANES];
    let mut t_exit = [0.0f32; LANES];
    let mut mask = 0u8;
    for i in 0..LANES {
        #[cfg(not(feature = "fma"))]
        let (t0x, t1x, t0y, t1y, t0z, t1z) = (
            (boxes.min_x[i] - ox) * ix,
            (boxes.max_x[i] - ox) * ix,
            (boxes.min_y[i] - oy) * iy,
            (boxes.max_y[i] - oy) * iy,
            (boxes.min_z[i] - oz) * iz,
            (boxes.max_z[i] - oz) * iz,
        );
        #[cfg(feature = "fma")]
        let (t0x, t1x, t0y, t1y, t0z, t1z) = (
            boxes.min_x[i].mul_add(ix, nx),
            boxes.max_x[i].mul_add(ix, nx),
            boxes.min_y[i].mul_add(iy, ny),
            boxes.max_y[i].mul_add(iy, ny),
            boxes.min_z[i].mul_add(iz, nz),
            boxes.max_z[i].mul_add(iz, nz),
        );
        let near_x = t0x.min(t1x);
        let near_y = t0y.min(t1y);
        let near_z = t0z.min(t1z);
        let far_x = t0x.max(t1x);
        let far_y = t0y.max(t1y);
        let far_z = t0z.max(t1z);
        // Same reduction order as Vec3::max_element / min_element; the
        // `+ 0.0` canonicalizes `-0.0` to `+0.0` exactly like the scalar
        // test (IEEE min/max leave the sign of equal-operand zeros
        // unspecified, and traversal sorts on raw bits).
        let enter = near_x.max(near_y).max(near_z).max(0.0) + 0.0;
        let exit = far_x.min(far_y).min(far_z) + 0.0;
        t_enter[i] = enter;
        t_exit[i] = exit;
        mask |= u8::from(enter <= exit) << i;
    }
    HitMask8 {
        t_enter,
        t_exit,
        mask: mask & boxes.lane_mask(),
    }
}

// ---------------------------------------------------------------------------
// Batched triangles.

/// Up to 4 triangles in structure-of-arrays layout for
/// [`ray_triangle_4`], padded with degenerate (all-zero) triangles that
/// can never be hit (their determinant is exactly `0`).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(16))]
pub struct Tri4 {
    v0x: [f32; 4],
    v0y: [f32; 4],
    v0z: [f32; 4],
    v1x: [f32; 4],
    v1y: [f32; 4],
    v1z: [f32; 4],
    v2x: [f32; 4],
    v2y: [f32; 4],
    v2z: [f32; 4],
    len: u8,
}

impl Tri4 {
    /// Packs `tris` (each `[v0, v1, v2]`) into lanes `0..tris.len()`.
    ///
    /// # Panics
    ///
    /// Panics if more than 4 triangles are given.
    pub fn from_triangles(tris: &[[Vec3; 3]]) -> Self {
        assert!(tris.len() <= 4, "at most 4 lanes");
        let mut t = Self {
            v0x: [0.0; 4],
            v0y: [0.0; 4],
            v0z: [0.0; 4],
            v1x: [0.0; 4],
            v1y: [0.0; 4],
            v1z: [0.0; 4],
            v2x: [0.0; 4],
            v2y: [0.0; 4],
            v2z: [0.0; 4],
            len: tris.len() as u8,
        };
        for (i, [a, b, c]) in tris.iter().enumerate() {
            t.v0x[i] = a.x;
            t.v0y[i] = a.y;
            t.v0z[i] = a.z;
            t.v1x[i] = b.x;
            t.v1y[i] = b.y;
            t.v1z[i] = b.z;
            t.v2x[i] = c.x;
            t.v2y[i] = c.y;
            t.v2z[i] = c.z;
        }
        t
    }

    /// Number of occupied lanes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` if no lane is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit mask with one bit set per occupied lane.
    pub fn lane_mask(&self) -> u8 {
        ((1u16 << self.len) - 1) as u8
    }
}

/// Result of one [`ray_triangle_4`] call. Lanes whose mask bit is clear
/// hold garbage values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tri4Hit {
    /// Per-lane hit distance, valid where `mask` is set.
    pub t: [f32; 4],
    /// Per-lane barycentric `u`, valid where `mask` is set.
    pub u: [f32; 4],
    /// Per-lane barycentric `v`, valid where `mask` is set.
    pub v: [f32; 4],
    /// Bit `i` set iff lane `i` is occupied and the ray hits it.
    pub mask: u8,
}

impl Tri4Hit {
    /// Lane `i` as the scalar API reports it.
    pub fn hit(&self, i: usize) -> Option<SurfaceHit> {
        if self.mask & (1 << i) != 0 {
            Some(SurfaceHit {
                t: self.t[i],
                u: self.u[i],
                v: self.v[i],
            })
        } else {
            None
        }
    }
}

/// Four Möller–Trumbore ray–triangle tests in one call, for BVH leaf
/// ranges (the hardware ray–triangle unit tests a leaf's triangles back
/// to back from one fetch).
///
/// Lane `i` is bitwise identical to
/// [`crate::intersect::ray_triangle`]`(ray, v0[i], v1[i], v2[i])`.
/// Sentinel lanes (degenerate zero triangles) never set their mask bit.
#[inline]
pub fn ray_triangle_4(ray: &Ray, tris: &Tri4) -> Tri4Hit {
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is a baseline feature of x86-64, so the batched kernel
        // needs no dispatch; its internal loads are covered by Tri4's
        // `repr(C, align(16))` layout.
        return x86::ray_triangle_4_sse2(ray, tris);
    }
    #[cfg(target_arch = "aarch64")]
    {
        return neon::ray_triangle_4_neon(ray, tris);
    }
    #[allow(unreachable_code)]
    ray_triangle_4_portable(ray, tris)
}

/// Portable fixed-width batched Möller–Trumbore kernel — the reference
/// the explicit-SIMD paths must match bitwise. Per lane it performs the
/// exact operation sequence (and miss conditions, including their NaN
/// behavior) of the scalar [`crate::intersect::ray_triangle`].
// The negated comparisons are deliberate: `!(v < 0.0)` treats NaN as a
// pass exactly like the scalar early-return conditions, while `v >= 0.0`
// would not.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn ray_triangle_4_portable(ray: &Ray, tris: &Tri4) -> Tri4Hit {
    let (ox, oy, oz) = (ray.origin.x, ray.origin.y, ray.origin.z);
    let (dx, dy, dz) = (ray.direction.x, ray.direction.y, ray.direction.z);
    let mut out = Tri4Hit {
        t: [0.0; 4],
        u: [0.0; 4],
        v: [0.0; 4],
        mask: 0,
    };
    for i in 0..4 {
        let e1x = tris.v1x[i] - tris.v0x[i];
        let e1y = tris.v1y[i] - tris.v0y[i];
        let e1z = tris.v1z[i] - tris.v0z[i];
        let e2x = tris.v2x[i] - tris.v0x[i];
        let e2y = tris.v2y[i] - tris.v0y[i];
        let e2z = tris.v2z[i] - tris.v0z[i];
        // p = direction × e2 (component order matches Vec3::cross).
        let px = dy * e2z - dz * e2y;
        let py = dz * e2x - dx * e2z;
        let pz = dx * e2y - dy * e2x;
        let det = e1x * px + e1y * py + e1z * pz;
        // Scalar: `if det.abs() < 1e-12 { return None }`.
        let mut pass = !(det.abs() < 1e-12);
        let inv_det = 1.0 / det;
        let sx = ox - tris.v0x[i];
        let sy = oy - tris.v0y[i];
        let sz = oz - tris.v0z[i];
        let u = (sx * px + sy * py + sz * pz) * inv_det;
        // Scalar: `if !(0.0..=1.0).contains(&u) { return None }`.
        pass &= (0.0..=1.0).contains(&u);
        // q = s × e1.
        let qx = sy * e1z - sz * e1y;
        let qy = sz * e1x - sx * e1z;
        let qz = sx * e1y - sy * e1x;
        let v = (dx * qx + dy * qy + dz * qz) * inv_det;
        // Scalar: `if v < 0.0 || u + v > 1.0 { return None }`.
        pass &= !(v < 0.0) && !(u + v > 1.0);
        let t = (e2x * qx + e2y * qy + e2z * qz) * inv_det;
        // Scalar: `if t < 0.0 { return None }`.
        pass &= !(t < 0.0);
        out.t[i] = t;
        out.u[i] = u;
        out.v[i] = v;
        out.mask |= u8::from(pass) << i;
    }
    out.mask &= tris.lane_mask();
    out
}

// ---------------------------------------------------------------------------
// Explicit x86-64 paths.

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{HitMask8, Ray, RayInv, SoaAabbs, Tri4, Tri4Hit};
    use std::arch::x86_64::*;

    /// `true` when the CPU has every feature the explicit slab kernels
    /// were compiled against: AVX2, plus FMA under the `fma` cargo
    /// feature. Folds to a constant when the features are statically
    /// enabled (`-C target-cpu=native`).
    #[inline]
    pub fn runtime_features_available() -> bool {
        #[cfg(not(feature = "fma"))]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(feature = "fma")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
    }

    /// IEEE minNum (Rust `f32::min`): if one operand is NaN, the other
    /// is returned. This mirrors LLVM's own `fminnum` lowering exactly —
    /// `minps` with **swapped** operands (`minps(b, a)` returns its
    /// second operand `a` on ordered-equal inputs, so `min(-0.0, +0.0)`
    /// keeps the first source argument just like the scalar code), then
    /// a blend to `b` where `a` is NaN (`minps` already returns `a` when
    /// `b` is NaN).
    ///
    /// # Safety
    ///
    /// Callers must ensure the `avx2` target feature is available.
    #[inline]
    unsafe fn min_num(a: __m256, b: __m256) -> __m256 {
        // SAFETY: register-only value ops (no memory access); the avx2
        // precondition is the fn's own contract, guaranteed by callers.
        unsafe {
            let m = _mm256_min_ps(b, a);
            let a_nan = _mm256_cmp_ps(a, a, _CMP_UNORD_Q);
            _mm256_blendv_ps(m, b, a_nan)
        }
    }

    /// IEEE maxNum (Rust `f32::max`); mirror of [`min_num`].
    ///
    /// # Safety
    ///
    /// Callers must ensure the `avx2` target feature is available.
    #[inline]
    unsafe fn max_num(a: __m256, b: __m256) -> __m256 {
        // SAFETY: register-only value ops (no memory access); the avx2
        // precondition is the fn's own contract, guaranteed by callers.
        unsafe {
            let m = _mm256_max_ps(b, a);
            let a_nan = _mm256_cmp_ps(a, a, _CMP_UNORD_Q);
            _mm256_blendv_ps(m, b, a_nan)
        }
    }

    /// AVX2 slab kernel: all 8 lanes in one 8-wide register. Same
    /// operation order as the portable kernel.
    ///
    /// # Safety
    ///
    /// Callers must ensure the `avx2` (and, under the `fma` feature,
    /// `fma`) target features are available.
    #[cfg_attr(not(feature = "fma"), target_feature(enable = "avx2"))]
    #[cfg_attr(feature = "fma", target_feature(enable = "avx2,fma"))]
    pub unsafe fn slab_test_8_avx2(ray: &RayInv, boxes: &SoaAabbs) -> HitMask8 {
        // SAFETY: `SoaAabbs` is `#[repr(C, align(32))]` and each lane
        // array is `[f32; 8]` = 32 bytes, so every `_mm256_load_ps` is
        // in-bounds and 32-byte aligned as it requires. The two
        // `_mm256_storeu_ps` stores write 8 f32s into the freshly
        // declared `[f32; LANES]` stack arrays (in-bounds; unaligned
        // stores have no alignment requirement). Everything else is
        // register-only value math. The feature preconditions are this
        // fn's own contract.
        unsafe {
            let min_x = _mm256_load_ps(boxes.min_x.as_ptr());
            let min_y = _mm256_load_ps(boxes.min_y.as_ptr());
            let min_z = _mm256_load_ps(boxes.min_z.as_ptr());
            let max_x = _mm256_load_ps(boxes.max_x.as_ptr());
            let max_y = _mm256_load_ps(boxes.max_y.as_ptr());
            let max_z = _mm256_load_ps(boxes.max_z.as_ptr());
            let ox = _mm256_set1_ps(ray.origin.x);
            let oy = _mm256_set1_ps(ray.origin.y);
            let oz = _mm256_set1_ps(ray.origin.z);
            let ix = _mm256_set1_ps(ray.inv_direction.x);
            let iy = _mm256_set1_ps(ray.inv_direction.y);
            let iz = _mm256_set1_ps(ray.inv_direction.z);
            #[cfg(not(feature = "fma"))]
            let (t0x, t1x, t0y, t1y, t0z, t1z) = (
                _mm256_mul_ps(_mm256_sub_ps(min_x, ox), ix),
                _mm256_mul_ps(_mm256_sub_ps(max_x, ox), ix),
                _mm256_mul_ps(_mm256_sub_ps(min_y, oy), iy),
                _mm256_mul_ps(_mm256_sub_ps(max_y, oy), iy),
                _mm256_mul_ps(_mm256_sub_ps(min_z, oz), iz),
                _mm256_mul_ps(_mm256_sub_ps(max_z, oz), iz),
            );
            // Contracted form mirroring the portable `fma` path:
            // fmsub(slab, i, o*i) == fma(slab, i, -(o*i)) exactly (the
            // addend negation is sign-flip only, never a rounding step).
            #[cfg(feature = "fma")]
            let (t0x, t1x, t0y, t1y, t0z, t1z) = {
                let (px, py, pz) = (
                    _mm256_mul_ps(ox, ix),
                    _mm256_mul_ps(oy, iy),
                    _mm256_mul_ps(oz, iz),
                );
                (
                    _mm256_fmsub_ps(min_x, ix, px),
                    _mm256_fmsub_ps(max_x, ix, px),
                    _mm256_fmsub_ps(min_y, iy, py),
                    _mm256_fmsub_ps(max_y, iy, py),
                    _mm256_fmsub_ps(min_z, iz, pz),
                    _mm256_fmsub_ps(max_z, iz, pz),
                )
            };
            let near_x = min_num(t0x, t1x);
            let near_y = min_num(t0y, t1y);
            let near_z = min_num(t0z, t1z);
            let far_x = max_num(t0x, t1x);
            let far_y = max_num(t0y, t1y);
            let far_z = max_num(t0z, t1z);
            // `+ 0.0` canonicalizes `-0.0` to `+0.0`, as in the scalar test.
            let zero = _mm256_setzero_ps();
            let enter = _mm256_add_ps(
                max_num(max_num(max_num(near_x, near_y), near_z), zero),
                zero,
            );
            let exit = _mm256_add_ps(min_num(min_num(far_x, far_y), far_z), zero);
            let hit = _mm256_cmp_ps(enter, exit, _CMP_LE_OQ);
            let mut t_enter = [0.0f32; super::LANES];
            let mut t_exit = [0.0f32; super::LANES];
            _mm256_storeu_ps(t_enter.as_mut_ptr(), enter);
            _mm256_storeu_ps(t_exit.as_mut_ptr(), exit);
            HitMask8 {
                t_enter,
                t_exit,
                mask: (_mm256_movemask_ps(hit) as u8) & boxes.lane_mask(),
            }
        }
    }

    /// SSE2 batched Möller–Trumbore: 4 independent triangle lanes, only
    /// lane-wise operations (no min/max, so no NaN-semantics hazards).
    /// Safe to call unconditionally: SSE2 is a baseline feature of
    /// every x86-64 target.
    pub fn ray_triangle_4_sse2(ray: &Ray, tris: &Tri4) -> Tri4Hit {
        // SAFETY: SSE2 is baseline on x86-64, so the feature
        // precondition of every intrinsic here holds statically. The
        // `_mm_load_ps` loads read `[f32; 4]` = 16-byte fields of the
        // `#[repr(C, align(16))]` `Tri4` (in-bounds, 16-byte aligned);
        // the `_mm_storeu_ps` stores write 4 f32s each into the local
        // `Tri4Hit` arrays (in-bounds; no alignment requirement).
        unsafe {
            let ox = _mm_set1_ps(ray.origin.x);
            let oy = _mm_set1_ps(ray.origin.y);
            let oz = _mm_set1_ps(ray.origin.z);
            let dx = _mm_set1_ps(ray.direction.x);
            let dy = _mm_set1_ps(ray.direction.y);
            let dz = _mm_set1_ps(ray.direction.z);
            let v0x = _mm_load_ps(tris.v0x.as_ptr());
            let v0y = _mm_load_ps(tris.v0y.as_ptr());
            let v0z = _mm_load_ps(tris.v0z.as_ptr());
            let e1x = _mm_sub_ps(_mm_load_ps(tris.v1x.as_ptr()), v0x);
            let e1y = _mm_sub_ps(_mm_load_ps(tris.v1y.as_ptr()), v0y);
            let e1z = _mm_sub_ps(_mm_load_ps(tris.v1z.as_ptr()), v0z);
            let e2x = _mm_sub_ps(_mm_load_ps(tris.v2x.as_ptr()), v0x);
            let e2y = _mm_sub_ps(_mm_load_ps(tris.v2y.as_ptr()), v0y);
            let e2z = _mm_sub_ps(_mm_load_ps(tris.v2z.as_ptr()), v0z);
            let px = _mm_sub_ps(_mm_mul_ps(dy, e2z), _mm_mul_ps(dz, e2y));
            let py = _mm_sub_ps(_mm_mul_ps(dz, e2x), _mm_mul_ps(dx, e2z));
            let pz = _mm_sub_ps(_mm_mul_ps(dx, e2y), _mm_mul_ps(dy, e2x));
            let det = _mm_add_ps(
                _mm_add_ps(_mm_mul_ps(e1x, px), _mm_mul_ps(e1y, py)),
                _mm_mul_ps(e1z, pz),
            );
            // pass = !(|det| < 1e-12): NaN determinants pass, as in scalar.
            let abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fff_ffff));
            let abs_det = _mm_and_ps(det, abs_mask);
            let mut pass = _mm_cmpnlt_ps(abs_det, _mm_set1_ps(1e-12));
            let inv_det = _mm_div_ps(_mm_set1_ps(1.0), det);
            let sx = _mm_sub_ps(ox, v0x);
            let sy = _mm_sub_ps(oy, v0y);
            let sz = _mm_sub_ps(oz, v0z);
            let u = _mm_mul_ps(
                _mm_add_ps(
                    _mm_add_ps(_mm_mul_ps(sx, px), _mm_mul_ps(sy, py)),
                    _mm_mul_ps(sz, pz),
                ),
                inv_det,
            );
            // pass &= 0 <= u && u <= 1 (NaN u fails, as in scalar).
            pass = _mm_and_ps(pass, _mm_cmple_ps(_mm_setzero_ps(), u));
            pass = _mm_and_ps(pass, _mm_cmple_ps(u, _mm_set1_ps(1.0)));
            let qx = _mm_sub_ps(_mm_mul_ps(sy, e1z), _mm_mul_ps(sz, e1y));
            let qy = _mm_sub_ps(_mm_mul_ps(sz, e1x), _mm_mul_ps(sx, e1z));
            let qz = _mm_sub_ps(_mm_mul_ps(sx, e1y), _mm_mul_ps(sy, e1x));
            let v = _mm_mul_ps(
                _mm_add_ps(
                    _mm_add_ps(_mm_mul_ps(dx, qx), _mm_mul_ps(dy, qy)),
                    _mm_mul_ps(dz, qz),
                ),
                inv_det,
            );
            // pass &= !(v < 0) && !(u + v > 1) (NaN v passes, as in scalar).
            pass = _mm_and_ps(pass, _mm_cmpnlt_ps(v, _mm_setzero_ps()));
            pass = _mm_and_ps(pass, _mm_cmpngt_ps(_mm_add_ps(u, v), _mm_set1_ps(1.0)));
            let t = _mm_mul_ps(
                _mm_add_ps(
                    _mm_add_ps(_mm_mul_ps(e2x, qx), _mm_mul_ps(e2y, qy)),
                    _mm_mul_ps(e2z, qz),
                ),
                inv_det,
            );
            // pass &= !(t < 0) (NaN t passes, as in scalar).
            pass = _mm_and_ps(pass, _mm_cmpnlt_ps(t, _mm_setzero_ps()));
            let mut out = Tri4Hit {
                t: [0.0; 4],
                u: [0.0; 4],
                v: [0.0; 4],
                mask: 0,
            };
            _mm_storeu_ps(out.t.as_mut_ptr(), t);
            _mm_storeu_ps(out.u.as_mut_ptr(), u);
            _mm_storeu_ps(out.v.as_mut_ptr(), v);
            out.mask = (_mm_movemask_ps(pass) as u8) & tris.lane_mask();
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Explicit aarch64 paths.

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{HitMask8, Ray, RayInv, SoaAabbs, Tri4, Tri4Hit, LANES};
    use std::arch::aarch64::*;

    /// Per-lane select bits for the movemask emulation.
    const LANE_BITS: [u32; 4] = [1, 2, 4, 8];

    /// Collapses a comparison mask (all-ones / all-zeros lanes) into a
    /// 4-bit mask, shifted by `shift` lane positions.
    #[inline]
    fn movemask(m: uint32x4_t, shift: u32) -> u8 {
        // SAFETY: NEON is mandatory on aarch64.
        unsafe {
            let bits = vandq_u32(m, vld1q_u32(LANE_BITS.as_ptr()));
            (vaddvq_u32(bits) << shift) as u8
        }
    }

    /// One 4-lane half of the slab kernel. `vminnmq`/`vmaxnmq` are the
    /// IEEE minNum/maxNum instructions — exactly Rust's
    /// `f32::min`/`f32::max` lowering on aarch64, so NaN lanes from
    /// axis-parallel rays resolve identically to the portable kernel.
    ///
    /// # Safety
    ///
    /// Callers must pass `lane <= LANES - 4` so the four-float loads
    /// starting at `lane` stay inside the 8-wide `SoaAabbs` arrays.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn slab_half(
        boxes: &SoaAabbs,
        lane: usize,
        ox: float32x4_t,
        oy: float32x4_t,
        oz: float32x4_t,
        ix: float32x4_t,
        iy: float32x4_t,
        iz: float32x4_t,
    ) -> (float32x4_t, float32x4_t, uint32x4_t) {
        // SAFETY: NEON is mandatory on aarch64; every `vld1q_f32` reads
        // four f32s starting at `lane`, in-bounds by this fn's
        // `lane <= LANES - 4` contract (`vld1q` has no alignment
        // requirement); the rest is register-only value math.
        unsafe {
            #[cfg(not(feature = "fma"))]
            let (t0x, t1x, t0y, t1y, t0z, t1z) = (
                vmulq_f32(vsubq_f32(vld1q_f32(boxes.min_x.as_ptr().add(lane)), ox), ix),
                vmulq_f32(vsubq_f32(vld1q_f32(boxes.max_x.as_ptr().add(lane)), ox), ix),
                vmulq_f32(vsubq_f32(vld1q_f32(boxes.min_y.as_ptr().add(lane)), oy), iy),
                vmulq_f32(vsubq_f32(vld1q_f32(boxes.max_y.as_ptr().add(lane)), oy), iy),
                vmulq_f32(vsubq_f32(vld1q_f32(boxes.min_z.as_ptr().add(lane)), oz), iz),
                vmulq_f32(vsubq_f32(vld1q_f32(boxes.max_z.as_ptr().add(lane)), oz), iz),
            );
            // Contracted form mirroring the portable `fma` path:
            // vfmaq(-(o*i), slab, i) == slab*i - o*i with one fused rounding.
            #[cfg(feature = "fma")]
            let (t0x, t1x, t0y, t1y, t0z, t1z) = {
                let nx = vnegq_f32(vmulq_f32(ox, ix));
                let ny = vnegq_f32(vmulq_f32(oy, iy));
                let nz = vnegq_f32(vmulq_f32(oz, iz));
                (
                    vfmaq_f32(nx, vld1q_f32(boxes.min_x.as_ptr().add(lane)), ix),
                    vfmaq_f32(nx, vld1q_f32(boxes.max_x.as_ptr().add(lane)), ix),
                    vfmaq_f32(ny, vld1q_f32(boxes.min_y.as_ptr().add(lane)), iy),
                    vfmaq_f32(ny, vld1q_f32(boxes.max_y.as_ptr().add(lane)), iy),
                    vfmaq_f32(nz, vld1q_f32(boxes.min_z.as_ptr().add(lane)), iz),
                    vfmaq_f32(nz, vld1q_f32(boxes.max_z.as_ptr().add(lane)), iz),
                )
            };
            let near_x = vminnmq_f32(t0x, t1x);
            let near_y = vminnmq_f32(t0y, t1y);
            let near_z = vminnmq_f32(t0z, t1z);
            let far_x = vmaxnmq_f32(t0x, t1x);
            let far_y = vmaxnmq_f32(t0y, t1y);
            let far_z = vmaxnmq_f32(t0z, t1z);
            // `+ 0.0` canonicalizes `-0.0` to `+0.0`, as in the scalar test.
            let zero = vdupq_n_f32(0.0);
            let enter = vaddq_f32(
                vmaxnmq_f32(vmaxnmq_f32(vmaxnmq_f32(near_x, near_y), near_z), zero),
                zero,
            );
            let exit = vaddq_f32(vminnmq_f32(vminnmq_f32(far_x, far_y), far_z), zero);
            (enter, exit, vcleq_f32(enter, exit))
        }
    }

    /// NEON slab kernel: two 4-lane halves over the 8-wide storage.
    pub fn slab_test_8_neon(ray: &RayInv, boxes: &SoaAabbs) -> HitMask8 {
        // SAFETY: NEON is mandatory on aarch64; loads stay inside the
        // 8-wide arrays.
        unsafe {
            let ox = vdupq_n_f32(ray.origin.x);
            let oy = vdupq_n_f32(ray.origin.y);
            let oz = vdupq_n_f32(ray.origin.z);
            let ix = vdupq_n_f32(ray.inv_direction.x);
            let iy = vdupq_n_f32(ray.inv_direction.y);
            let iz = vdupq_n_f32(ray.inv_direction.z);
            let (enter_lo, exit_lo, hit_lo) = slab_half(boxes, 0, ox, oy, oz, ix, iy, iz);
            let (enter_hi, exit_hi, hit_hi) = slab_half(boxes, 4, ox, oy, oz, ix, iy, iz);
            let mut t_enter = [0.0f32; LANES];
            let mut t_exit = [0.0f32; LANES];
            vst1q_f32(t_enter.as_mut_ptr(), enter_lo);
            vst1q_f32(t_enter.as_mut_ptr().add(4), enter_hi);
            vst1q_f32(t_exit.as_mut_ptr(), exit_lo);
            vst1q_f32(t_exit.as_mut_ptr().add(4), exit_hi);
            let mask = movemask(hit_lo, 0) | movemask(hit_hi, 4);
            HitMask8 {
                t_enter,
                t_exit,
                mask: mask & boxes.lane_mask(),
            }
        }
    }

    /// NEON batched Möller–Trumbore: 4 independent triangle lanes, only
    /// lane-wise operations.
    pub fn ray_triangle_4_neon(ray: &Ray, tris: &Tri4) -> Tri4Hit {
        // SAFETY: NEON is mandatory on aarch64.
        unsafe {
            let ox = vdupq_n_f32(ray.origin.x);
            let oy = vdupq_n_f32(ray.origin.y);
            let oz = vdupq_n_f32(ray.origin.z);
            let dx = vdupq_n_f32(ray.direction.x);
            let dy = vdupq_n_f32(ray.direction.y);
            let dz = vdupq_n_f32(ray.direction.z);
            let v0x = vld1q_f32(tris.v0x.as_ptr());
            let v0y = vld1q_f32(tris.v0y.as_ptr());
            let v0z = vld1q_f32(tris.v0z.as_ptr());
            let e1x = vsubq_f32(vld1q_f32(tris.v1x.as_ptr()), v0x);
            let e1y = vsubq_f32(vld1q_f32(tris.v1y.as_ptr()), v0y);
            let e1z = vsubq_f32(vld1q_f32(tris.v1z.as_ptr()), v0z);
            let e2x = vsubq_f32(vld1q_f32(tris.v2x.as_ptr()), v0x);
            let e2y = vsubq_f32(vld1q_f32(tris.v2y.as_ptr()), v0y);
            let e2z = vsubq_f32(vld1q_f32(tris.v2z.as_ptr()), v0z);
            let px = vsubq_f32(vmulq_f32(dy, e2z), vmulq_f32(dz, e2y));
            let py = vsubq_f32(vmulq_f32(dz, e2x), vmulq_f32(dx, e2z));
            let pz = vsubq_f32(vmulq_f32(dx, e2y), vmulq_f32(dy, e2x));
            let det = vaddq_f32(
                vaddq_f32(vmulq_f32(e1x, px), vmulq_f32(e1y, py)),
                vmulq_f32(e1z, pz),
            );
            // pass = !(|det| < 1e-12): NaN determinants pass, as in scalar.
            let mut pass = vmvnq_u32(vcltq_f32(vabsq_f32(det), vdupq_n_f32(1e-12)));
            let inv_det = vdivq_f32(vdupq_n_f32(1.0), det);
            let sx = vsubq_f32(ox, v0x);
            let sy = vsubq_f32(oy, v0y);
            let sz = vsubq_f32(oz, v0z);
            let u = vmulq_f32(
                vaddq_f32(
                    vaddq_f32(vmulq_f32(sx, px), vmulq_f32(sy, py)),
                    vmulq_f32(sz, pz),
                ),
                inv_det,
            );
            pass = vandq_u32(pass, vcleq_f32(vdupq_n_f32(0.0), u));
            pass = vandq_u32(pass, vcleq_f32(u, vdupq_n_f32(1.0)));
            let qx = vsubq_f32(vmulq_f32(sy, e1z), vmulq_f32(sz, e1y));
            let qy = vsubq_f32(vmulq_f32(sz, e1x), vmulq_f32(sx, e1z));
            let qz = vsubq_f32(vmulq_f32(sx, e1y), vmulq_f32(sy, e1x));
            let v = vmulq_f32(
                vaddq_f32(
                    vaddq_f32(vmulq_f32(dx, qx), vmulq_f32(dy, qy)),
                    vmulq_f32(dz, qz),
                ),
                inv_det,
            );
            pass = vandq_u32(pass, vmvnq_u32(vcltq_f32(v, vdupq_n_f32(0.0))));
            pass = vandq_u32(
                pass,
                vmvnq_u32(vcgtq_f32(vaddq_f32(u, v), vdupq_n_f32(1.0))),
            );
            let t = vmulq_f32(
                vaddq_f32(
                    vaddq_f32(vmulq_f32(e2x, qx), vmulq_f32(e2y, qy)),
                    vmulq_f32(e2z, qz),
                ),
                inv_det,
            );
            pass = vandq_u32(pass, vmvnq_u32(vcltq_f32(t, vdupq_n_f32(0.0))));
            let mut out = Tri4Hit {
                t: [0.0; 4],
                u: [0.0; 4],
                v: [0.0; 4],
                mask: 0,
            };
            vst1q_f32(out.t.as_mut_ptr(), t);
            vst1q_f32(out.u.as_mut_ptr(), u);
            vst1q_f32(out.v.as_mut_ptr(), v);
            out.mask = movemask(pass, 0) & tris.lane_mask();
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::ray_triangle;

    /// Masked-out lanes hold garbage (possibly NaN), so path-equality
    /// checks compare masks plus live-lane bits, not whole structs.
    #[cfg(not(feature = "fma"))]
    fn assert_slab_paths_equal(a: &HitMask8, b: &HitMask8) {
        assert_eq!(a.mask, b.mask, "hit masks diverge");
        for i in 0..LANES {
            if a.mask & (1 << i) != 0 {
                assert_eq!(a.t_enter[i].to_bits(), b.t_enter[i].to_bits(), "lane {i}");
                assert_eq!(a.t_exit[i].to_bits(), b.t_exit[i].to_bits(), "lane {i}");
            }
        }
    }

    fn assert_tri_paths_equal(a: &Tri4Hit, b: &Tri4Hit) {
        assert_eq!(a.mask, b.mask, "hit masks diverge");
        for i in 0..4 {
            if a.mask & (1 << i) != 0 {
                assert_eq!(a.t[i].to_bits(), b.t[i].to_bits(), "lane {i} t");
                assert_eq!(a.u[i].to_bits(), b.u[i].to_bits(), "lane {i} u");
                assert_eq!(a.v[i].to_bits(), b.v[i].to_bits(), "lane {i} v");
            }
        }
    }

    fn boxes8() -> Vec<Aabb> {
        (0..8)
            .map(|i| {
                let c = Vec3::new(i as f32 * 3.0, 0.2 * i as f32, 0.0);
                Aabb::from_center_half_extent(c, Vec3::splat(1.0))
            })
            .collect()
    }

    #[test]
    fn soa_round_trips_boxes() {
        let boxes = boxes8();
        let soa = SoaAabbs::from_aabbs(&boxes);
        assert_eq!(soa.len(), 8);
        assert_eq!(soa.lane_mask(), 0b1111_1111);
        for (i, &b) in boxes.iter().enumerate() {
            assert_eq!(soa.get(i), b);
        }
    }

    // FMA contraction deliberately changes bits, so the bitwise-vs-scalar
    // assertions only run on the default path; the `fma` build keeps the
    // mask-level sanity tests below.
    #[cfg(not(feature = "fma"))]
    #[test]
    fn slab_lanes_match_scalar_bitwise() {
        let boxes = boxes8();
        let soa = SoaAabbs::from_aabbs(&boxes);
        let ray = Ray::new(
            Vec3::new(-4.0, 0.1, 0.05),
            Vec3::new(1.0, 0.02, 0.01).normalized(),
        );
        let hit = slab_test_8(&ray.inv(), &soa);
        let portable = slab_test_8_portable(&ray.inv(), &soa);
        assert_slab_paths_equal(&hit, &portable);
        for (i, b) in boxes.iter().enumerate() {
            match (b.intersect_ray(&ray), hit.hit(i)) {
                (Some((se, sx)), Some((ve, vx))) => {
                    assert_eq!(se.to_bits(), ve.to_bits(), "lane {i} entry");
                    assert_eq!(sx.to_bits(), vx.to_bits(), "lane {i} exit");
                }
                (None, None) => {}
                (s, v) => panic!("lane {i}: scalar {s:?} vs simd {v:?}"),
            }
        }
    }

    #[cfg(not(feature = "fma"))]
    #[test]
    fn axis_parallel_ray_matches_scalar() {
        // Zero direction components make the slab arithmetic produce
        // 0 * inf = NaN; the kernel must resolve them like the scalar.
        let boxes = vec![
            Aabb::new(Vec3::new(-1.0, -1.0, 1.0), Vec3::new(1.0, 1.0, 3.0)),
            Aabb::new(Vec3::new(2.0, -1.0, 1.0), Vec3::new(4.0, 1.0, 3.0)),
            // Degenerate: zero-extent slab exactly at the origin plane.
            Aabb::new(Vec3::new(0.0, -1.0, 1.0), Vec3::new(0.0, 1.0, 3.0)),
        ];
        let soa = SoaAabbs::from_aabbs(&boxes);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        let hit = slab_test_8(&ray.inv(), &soa);
        for (i, b) in boxes.iter().enumerate() {
            assert_eq!(
                b.intersect_ray(&ray),
                hit.hit(i),
                "lane {i} disagrees on an axis-parallel ray"
            );
        }
    }

    #[test]
    fn sentinel_lanes_never_hit() {
        let soa = SoaAabbs::from_aabbs(&[Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0))]);
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
        let hit = slab_test_8(&ray.inv(), &soa);
        assert_eq!(hit.mask, 0b1, "only the occupied lane may hit");
        assert!(SoaAabbs::EMPTY.is_empty());
        assert_eq!(
            slab_test_8(&ray.inv(), &SoaAabbs::EMPTY).mask,
            0,
            "empty node hits nothing"
        );
    }

    #[cfg(feature = "fma")]
    #[test]
    fn fma_kernel_agrees_with_scalar_on_clear_cut_hits() {
        // Contraction shifts t values by at most one rounding step, so
        // hit/miss decisions on non-borderline boxes still match the
        // scalar test even though bits may differ.
        let boxes = boxes8();
        let soa = SoaAabbs::from_aabbs(&boxes);
        let ray = Ray::new(
            Vec3::new(-4.0, 0.1, 0.05),
            Vec3::new(1.0, 0.02, 0.01).normalized(),
        );
        let hit = slab_test_8(&ray.inv(), &soa);
        for (i, b) in boxes.iter().enumerate() {
            assert_eq!(
                b.intersect_ray(&ray).is_some(),
                hit.hit(i).is_some(),
                "lane {i} hit/miss diverged under fma"
            );
        }
    }

    #[test]
    fn triangle_lanes_match_scalar_bitwise() {
        let tris = [
            [Vec3::ZERO, Vec3::X, Vec3::Y],
            [
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::new(1.0, 0.0, 1.0),
                Vec3::new(0.0, 1.0, 1.0),
            ],
            [
                Vec3::new(5.0, 0.0, 0.0),
                Vec3::new(6.0, 0.0, 0.0),
                Vec3::new(5.0, 1.0, 0.0),
            ],
            // Degenerate sliver (zero area).
            [Vec3::ZERO, Vec3::X, Vec3::X * 2.0],
        ];
        let packet = Tri4::from_triangles(&tris);
        let ray = Ray::new(Vec3::new(0.25, 0.25, -2.0), Vec3::Z);
        let batched = ray_triangle_4(&ray, &packet);
        let portable = ray_triangle_4_portable(&ray, &packet);
        assert_tri_paths_equal(&batched, &portable);
        for (i, [a, b, c]) in tris.iter().enumerate() {
            match (ray_triangle(&ray, *a, *b, *c), batched.hit(i)) {
                (Some(s), Some(v)) => {
                    assert_eq!(s.t.to_bits(), v.t.to_bits(), "lane {i} t");
                    assert_eq!(s.u.to_bits(), v.u.to_bits(), "lane {i} u");
                    assert_eq!(s.v.to_bits(), v.v.to_bits(), "lane {i} v");
                }
                (None, None) => {}
                (s, v) => panic!("lane {i}: scalar {s:?} vs simd {v:?}"),
            }
        }
    }

    #[test]
    fn triangle_padding_lanes_never_hit() {
        let packet = Tri4::from_triangles(&[[Vec3::ZERO, Vec3::X, Vec3::Y]]);
        assert_eq!(packet.len(), 1);
        assert!(!packet.is_empty());
        let ray = Ray::new(Vec3::new(0.25, 0.25, -2.0), Vec3::Z);
        let hit = ray_triangle_4(&ray, &packet);
        assert_eq!(hit.mask, 0b1);
    }
}
