//! Micro-benchmarks for the hot kernels: intersection tests (scalar and
//! the 8-wide/4-wide SIMD batches), k-buffer insertion, BVH
//! construction, node visits over a real built BVH, and cache lookups.
//!
//! `cargo bench --bench kernels` prints the median ns per call of each
//! kernel; `-- --test` (or `GRTX_SMOKE=1`) runs every kernel once as a
//! smoke test.

use grtx_bvh::builder::{build_wide_bvh, BuilderConfig};
use grtx_math::intersect::{ray_sphere_unit, ray_triangle};
use grtx_math::simd::{ray_triangle_4, slab_test_8, SoaAabbs, Tri4};
use grtx_math::{Aabb, Ray, Vec3};
use grtx_render::kbuffer::KBuffer;
use grtx_sim::Cache;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per kernel; the median is reported.
const SAMPLES: usize = 11;
/// Iterations per sample are doubled until one sample takes this long.
const MIN_SAMPLE: Duration = Duration::from_millis(20);

/// Times `f` and prints its median ns per call (or runs it once in the
/// smoke profile).
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    if grtx_bench::smoke_requested() {
        black_box(f());
        println!("{name:<24} ok");
        return;
    }
    let mut sample = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    };
    let mut iters = 1u64;
    while sample(iters) < MIN_SAMPLE {
        iters *= 2;
    }
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| sample(iters).as_nanos() as f64 / iters as f64)
        .collect();
    ns.sort_by(f64::total_cmp);
    println!("{name:<24} {:>12.1} ns/iter", ns[SAMPLES / 2]);
}

fn bench_intersections() {
    let ray = Ray::new(
        Vec3::new(0.1, 0.2, -3.0),
        Vec3::new(0.05, 0.02, 1.0).normalized(),
    );
    let aabb = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
    bench("ray_aabb", || {
        black_box(&aabb).intersect_ray(black_box(&ray))
    });
    bench("ray_sphere_unit", || ray_sphere_unit(black_box(&ray)));
    let (v0, v1, v2) = (
        Vec3::new(-1.0, -1.0, 0.0),
        Vec3::new(1.0, -1.0, 0.0),
        Vec3::new(0.0, 1.5, 0.0),
    );
    bench("ray_triangle", || {
        ray_triangle(black_box(&ray), black_box(v0), black_box(v1), black_box(v2))
    });
}

/// The scalar-vs-SIMD pair the acceptance criterion tracks: one full
/// BVH-8 node's eight child slabs tested by the old per-child loop vs
/// one batched `slab_test_8` call (fixtures shared with the committed
/// `BENCH_kernels.json` baseline via `grtx_bench`).
fn bench_slab8() {
    let boxes = grtx_bench::kernel_node_boxes();
    let soa = SoaAabbs::from_aabbs(&boxes);
    let ray = grtx_bench::kernel_slab_ray();
    let arr: [Aabb; 8] = boxes.try_into().unwrap();
    bench("slab8_scalar", || {
        let ray = black_box(&ray);
        let mut hits = 0u32;
        for aabb in black_box(&arr) {
            if aabb.intersect_ray(ray).is_some() {
                hits += 1;
            }
        }
        hits
    });
    let inv = ray.inv();
    bench("slab8_simd", || {
        slab_test_8(black_box(&inv), black_box(&soa))
            .mask
            .count_ones()
    });
}

/// Four leaf triangles: scalar loop vs one batched kernel call.
fn bench_triangle4() {
    let tris = grtx_bench::kernel_triangles();
    let packet = Tri4::from_triangles(&tris);
    let ray = grtx_bench::kernel_tri_ray();
    let arr: [[Vec3; 3]; 4] = tris.try_into().unwrap();
    bench("triangle4_scalar", || {
        let ray = black_box(&ray);
        let mut hits = 0u32;
        for [a, b, c] in black_box(&arr) {
            if ray_triangle(ray, *a, *b, *c).is_some() {
                hits += 1;
            }
        }
        hits
    });
    bench("triangle4_simd", || {
        ray_triangle_4(black_box(&ray), black_box(&packet))
            .mask
            .count_ones()
    });
}

/// Sweeps every node of a real BVH (~2k nodes over 16k grid prims) with
/// the batched kernel vs the scalar per-child loop over an AoS copy
/// (the pre-SIMD layout): the in-situ hot-loop comparison, including
/// real memory traffic.
fn bench_node_visits() {
    let prims = grtx_bench::kernel_grid_prims(16 * 1024);
    let bvh = build_wide_bvh(&prims, &BuilderConfig::default());
    let aos = grtx_bench::aos_node_boxes(&bvh);
    let ray = grtx_bench::kernel_visit_ray();
    bench("node_visit_scalar", || {
        let ray = black_box(&ray);
        let mut hits = 0u32;
        for (len, boxes) in black_box(&aos) {
            for aabb in &boxes[..*len] {
                if aabb.intersect_ray(ray).is_some() {
                    hits += 1;
                }
            }
        }
        hits
    });
    let inv = ray.inv();
    bench("node_visit_simd", || {
        let inv = black_box(&inv);
        let mut hits = 0u32;
        for node in black_box(&bvh.nodes) {
            hits += slab_test_8(inv, &node.bounds).mask.count_ones();
        }
        hits
    });
}

fn bench_kbuffer() {
    bench("kbuffer_insert_k16", || {
        let mut buf = KBuffer::new(16);
        for i in 0..64u32 {
            let t = ((i * 37) % 64) as f32;
            black_box(buf.insert(t, i));
        }
        buf
    });
}

fn bench_builder() {
    let prims = grtx_bench::kernel_grid_prims(4096);
    bench("bvh8_build_4k_prims", || {
        build_wide_bvh(black_box(&prims), &BuilderConfig::default())
    });
    // The pre-collapse BVH-6 baseline, kept for the width comparison.
    let cfg6 = BuilderConfig {
        wide_width: 6,
        ..BuilderConfig::default()
    };
    bench("bvh6_build_4k_prims", || {
        build_wide_bvh(black_box(&prims), black_box(&cfg6))
    });
}

fn bench_cache() {
    let mut cache = Cache::new(128 * 1024, 128, 256);
    let mut i = 0u64;
    bench("cache_access_stream", || {
        i = (i * 2862933555777941757).wrapping_add(3037000493) % (1 << 22);
        cache.access(black_box(i * 128))
    });
}

fn main() {
    bench_intersections();
    bench_slab8();
    bench_triangle4();
    bench_node_visits();
    bench_kbuffer();
    bench_builder();
    bench_cache();
}
