//! Dumps the kernel-timing baseline committed as `BENCH_kernels.json`.
//!
//! Times the scalar-vs-SIMD kernel pairs of `benches/kernels.rs` with a
//! simple calibrated median-of-samples loop and prints a JSON document
//! to stdout. Regenerate the committed baseline after kernel changes:
//!
//! ```text
//! cargo run --release -p grtx-bench --example dump_kernel_baseline > BENCH_kernels.json
//! ```
//!
//! Future PRs diff their numbers against the committed file to track the
//! perf trajectory (absolute nanoseconds are machine-dependent; the
//! speedup ratios are the comparable signal).

use std::hint::black_box;
use std::time::Instant;

use grtx_bvh::builder::{build_wide_bvh, BuilderConfig};
use grtx_math::intersect::ray_triangle;
use grtx_math::simd::{ray_triangle_4, slab_test_8, SoaAabbs, Tri4};
use grtx_math::{Aabb, Vec3};

/// Median ns/iter over `samples` samples of `iters` iterations each.
fn time_ns(samples: usize, iters: u64, mut f: impl FnMut() -> u32) -> f64 {
    let mut medians: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0u32;
            for _ in 0..iters {
                acc = acc.wrapping_add(black_box(f()));
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    medians[medians.len() / 2]
}

/// The toolchain/flags provenance block recorded with the numbers, so a
/// later diff against the committed baseline can tell a real kernel
/// regression from a changed build environment.
fn provenance_json() -> String {
    let rustc =
        std::process::Command::new(std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
    let rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    let target_cpu = rustflags
        .split_whitespace()
        .find_map(|flag| flag.strip_prefix("-Ctarget-cpu="))
        .unwrap_or("generic");
    format!(
        concat!(
            "  \"provenance\": {{\n",
            "    \"rustc\": \"{}\",\n",
            "    \"target_cpu\": \"{}\",\n",
            "    \"rustflags\": \"{}\",\n",
            "    \"avx2\": {},\n",
            "    \"fma_target_feature\": {},\n",
            "    \"fma_crate_feature\": {}\n",
            "  }},"
        ),
        rustc.replace('"', "'"),
        target_cpu,
        rustflags.replace('"', "'"),
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
        cfg!(feature = "fma"),
    )
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!(
            "error: dump_kernel_baseline measures kernel timings and must run \
             from a release build; debug numbers are meaningless as a baseline.\n\
             Re-run with: cargo run --release -p grtx-bench --example dump_kernel_baseline"
        );
        std::process::exit(1);
    }
    // Fixtures shared with benches/kernels.rs via grtx_bench, so the
    // committed baseline stays comparable to the live bench numbers.
    let boxes = grtx_bench::kernel_node_boxes();
    let soa = SoaAabbs::from_aabbs(&boxes);
    let slab_ray = grtx_bench::kernel_slab_ray();
    let slab_arr: [Aabb; 8] = boxes.try_into().unwrap();
    let inv = slab_ray.inv();

    let tris = grtx_bench::kernel_triangles();
    let packet = Tri4::from_triangles(&tris);
    let tri_ray = grtx_bench::kernel_tri_ray();
    let tri_arr: [[Vec3; 3]; 4] = tris.try_into().unwrap();

    let prims = grtx_bench::kernel_grid_prims(16 * 1024);
    let bvh = build_wide_bvh(&prims, &BuilderConfig::default());
    // Same primitives collapsed at the pre-BVH-8 width, for the tree
    // shape deltas reported below (fewer, fuller nodes and a shallower
    // tree mean fewer node fetches per root-to-leaf walk).
    let cfg6 = BuilderConfig {
        wide_width: 6,
        ..BuilderConfig::default()
    };
    let bvh6 = build_wide_bvh(&prims, &cfg6);
    let aos = grtx_bench::aos_node_boxes(&bvh);
    let visit_ray = grtx_bench::kernel_visit_ray();
    let visit_inv = visit_ray.inv();

    let (samples, iters) = (21, 200_000);
    let slab_scalar = time_ns(samples, iters, || {
        let mut hits = 0u32;
        for aabb in black_box(&slab_arr) {
            hits += u32::from(aabb.intersect_ray(black_box(&slab_ray)).is_some());
        }
        hits
    });
    let slab_simd = time_ns(samples, iters, || {
        slab_test_8(black_box(&inv), black_box(&soa))
            .mask
            .count_ones()
    });
    let tri_scalar = time_ns(samples, iters, || {
        let mut hits = 0u32;
        for [a, b, c] in black_box(&tri_arr) {
            hits += u32::from(ray_triangle(black_box(&tri_ray), *a, *b, *c).is_some());
        }
        hits
    });
    let tri_simd = time_ns(samples, iters, || {
        ray_triangle_4(black_box(&tri_ray), black_box(&packet))
            .mask
            .count_ones()
    });
    let (visit_samples, visit_iters) = (11, 500);
    let visit_scalar = time_ns(visit_samples, visit_iters, || {
        let mut hits = 0u32;
        for (len, b) in black_box(&aos) {
            for aabb in &b[..*len] {
                hits += u32::from(aabb.intersect_ray(black_box(&visit_ray)).is_some());
            }
        }
        hits
    });
    let visit_simd = time_ns(visit_samples, visit_iters, || {
        let mut hits = 0u32;
        for node in black_box(&bvh.nodes) {
            hits += slab_test_8(black_box(&visit_inv), &node.bounds)
                .mask
                .count_ones();
        }
        hits
    });

    println!("{{");
    println!("  \"bench\": \"kernels\",");
    println!("  \"units\": \"ns_per_iter\",");
    println!("  \"node_count\": {},", bvh.node_count());
    println!("  \"arch\": \"{}\",", std::env::consts::ARCH);
    println!("{}", provenance_json());
    println!("  \"tree_shape\": {{");
    println!("    \"bvh8_nodes\": {},", bvh.node_count());
    println!("    \"bvh8_height\": {},", bvh.height);
    println!("    \"bvh6_nodes\": {},", bvh6.node_count());
    println!("    \"bvh6_height\": {}", bvh6.height);
    println!("  }},");
    println!("  \"results\": {{");
    let mut rows = Vec::new();
    for (name, scalar, simd) in [
        ("slab8", slab_scalar, slab_simd),
        ("triangle4", tri_scalar, tri_simd),
        ("node_visit", visit_scalar, visit_simd),
    ] {
        rows.push(format!(
            "    \"{name}_scalar\": {scalar:.1},\n    \"{name}_simd\": {simd:.1},\n    \"{name}_speedup\": {:.2}",
            scalar / simd
        ));
    }
    println!("{}", rows.join(",\n"));
    println!("  }}");
    println!("}}");
}
