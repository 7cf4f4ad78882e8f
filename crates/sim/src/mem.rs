//! The L1 / L2 / DRAM memory hierarchy.

use crate::cache::Cache;
use crate::config::GpuConfig;
use crate::lines::LineSet;

/// Classification of memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Acceleration-structure fetches (nodes, primitives, instances) —
    /// the traffic Figs. 14–17 count.
    Structure,
    /// Checkpoint / eviction buffer traffic in global memory (kept out
    /// of the node-fetch statistics, as in the paper).
    Buffer,
}

/// Per-SM L1s over a shared L2 over DRAM.
#[derive(Debug)]
pub struct MemorySystem {
    l1: Vec<Cache>,
    l2: Cache,
    line_bytes: u64,
    line_shift: u32,
    l1_latency: u64,
    l2_latency: u64,
    dram_latency: u64,
    sibling_prefetch: bool,
    /// Structure lines ever touched (the "BVH memory footprint" row of
    /// Table II).
    touched_lines: LineSet,
    /// L2 accesses attributable to structure fetches (Fig. 17).
    pub l2_structure_accesses: u64,
    /// L2 hits for structure fetches.
    pub l2_structure_hits: u64,
    /// DRAM accesses for structure fetches.
    pub dram_structure_accesses: u64,
    /// L1 accesses / hits for structure fetches (Fig. 16).
    pub l1_structure_accesses: u64,
    /// L1 hits for structure fetches.
    pub l1_structure_hits: u64,
    /// Lines installed by the sibling prefetcher.
    pub prefetch_installs: u64,
}

impl MemorySystem {
    /// Builds the hierarchy from a GPU configuration.
    pub fn new(config: &GpuConfig) -> Self {
        Self {
            l1: (0..config.num_sms)
                .map(|_| Cache::new(config.l1_bytes, config.line_bytes, config.l1_ways))
                .collect(),
            l2: Cache::new(config.l2_bytes, config.line_bytes, config.l2_ways),
            line_bytes: config.line_bytes as u64,
            line_shift: config.line_bytes.trailing_zeros(),
            l1_latency: config.l1_latency,
            l2_latency: config.l2_latency,
            dram_latency: config.dram_latency,
            sibling_prefetch: config.sibling_prefetch,
            touched_lines: LineSet::default(),
            l2_structure_accesses: 0,
            l2_structure_hits: 0,
            dram_structure_accesses: 0,
            l1_structure_accesses: 0,
            l1_structure_hits: 0,
            prefetch_installs: 0,
        }
    }

    /// Performs a read of `bytes` at `addr` from SM `sm`; returns the
    /// latency in cycles (the max over the spanned lines, as a wide load
    /// issues them in parallel).
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn access(&mut self, sm: usize, addr: u64, bytes: u64, class: AccessClass) -> u64 {
        let first_line = addr >> self.line_shift;
        let last_line = (addr + bytes.max(1) - 1) >> self.line_shift;
        let mut worst = 0u64;
        for line in first_line..=last_line {
            let latency = self.access_line(sm, line, class);
            worst = worst.max(latency);
        }
        worst
    }

    fn access_line(&mut self, sm: usize, line: u64, class: AccessClass) -> u64 {
        let line_addr = line << self.line_shift;
        if class == AccessClass::Structure {
            self.touched_lines.insert(line);
            self.l1_structure_accesses += 1;
        }
        if self.l1[sm].access(line_addr) {
            if class == AccessClass::Structure {
                self.l1_structure_hits += 1;
            }
            return self.l1_latency;
        }
        // L1 miss -> L2.
        if class == AccessClass::Structure {
            self.l2_structure_accesses += 1;
        }
        if self.l2.access(line_addr) {
            if class == AccessClass::Structure {
                self.l2_structure_hits += 1;
            }
            return self.l1_latency + self.l2_latency;
        }
        // L2 miss -> DRAM.
        if class == AccessClass::Structure {
            self.dram_structure_accesses += 1;
        }
        self.l1_latency + self.l2_latency + self.dram_latency
    }

    /// Sibling-prefetch install: puts the lines of `[addr, addr+bytes)`
    /// into SM `sm`'s L1 (and L2) without charging latency or counting
    /// demand accesses. No-op when prefetching is disabled.
    pub fn prefetch(&mut self, sm: usize, addr: u64, bytes: u64) {
        if !self.sibling_prefetch {
            return;
        }
        let first_line = addr >> self.line_shift;
        let last_line = (addr + bytes.max(1) - 1) >> self.line_shift;
        for line in first_line..=last_line {
            let line_addr = line << self.line_shift;
            if self.l1[sm].install(line_addr) {
                self.prefetch_installs += 1;
            }
            self.l2.install(line_addr);
        }
    }

    /// Merges another shard's traffic counters into this hierarchy.
    ///
    /// Cache *contents* are left untouched (they are per-shard state with
    /// no meaningful union); only the statistics the reports read are
    /// combined: traffic counters sum, and the touched-line footprint is
    /// unioned so lines fetched by several SMs count once, exactly as
    /// they did when one `MemorySystem` served every SM.
    ///
    /// # Panics
    ///
    /// Panics if the two hierarchies have different line sizes.
    pub fn absorb_counters(&mut self, other: &MemorySystem) {
        // Exhaustive destructuring (no `..`): a new counter field must be
        // added here deliberately or the build breaks — cache state and
        // latency parameters are the only fields legitimately ignored.
        let MemorySystem {
            l1: _,
            l2: _,
            line_bytes,
            line_shift: _,
            l1_latency: _,
            l2_latency: _,
            dram_latency: _,
            sibling_prefetch: _,
            touched_lines,
            l2_structure_accesses,
            l2_structure_hits,
            dram_structure_accesses,
            l1_structure_accesses,
            l1_structure_hits,
            prefetch_installs,
        } = other;
        assert_eq!(self.line_bytes, *line_bytes, "mismatched cache line size");
        self.touched_lines.union_with(touched_lines);
        self.l2_structure_accesses += l2_structure_accesses;
        self.l2_structure_hits += l2_structure_hits;
        self.dram_structure_accesses += dram_structure_accesses;
        self.l1_structure_accesses += l1_structure_accesses;
        self.l1_structure_hits += l1_structure_hits;
        self.prefetch_installs += prefetch_installs;
    }

    /// L1 hit rate over structure fetches (Fig. 16).
    pub fn l1_hit_rate(&self) -> f64 {
        if self.l1_structure_accesses == 0 {
            0.0
        } else {
            self.l1_structure_hits as f64 / self.l1_structure_accesses as f64
        }
    }

    /// Unique structure bytes touched (Table II memory footprint).
    pub fn footprint_bytes(&self) -> u64 {
        self.touched_lines.count() * self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> GpuConfig {
        GpuConfig {
            num_sms: 2,
            l1_bytes: 512,
            line_bytes: 128,
            l1_ways: 4,
            l2_bytes: 2048,
            l2_ways: 16,
            ..Default::default()
        }
    }

    #[test]
    fn first_access_pays_dram_second_hits_l1() {
        let cfg = tiny_config();
        let mut m = MemorySystem::new(&cfg);
        let cold = m.access(0, 0x1000, 8, AccessClass::Structure);
        assert_eq!(cold, cfg.l1_latency + cfg.l2_latency + cfg.dram_latency);
        let warm = m.access(0, 0x1000, 8, AccessClass::Structure);
        assert_eq!(warm, cfg.l1_latency);
    }

    #[test]
    fn l1s_are_private_l2_is_shared() {
        let cfg = tiny_config();
        let mut m = MemorySystem::new(&cfg);
        m.access(0, 0x1000, 8, AccessClass::Structure);
        // Other SM misses L1 but hits the shared L2.
        let lat = m.access(1, 0x1000, 8, AccessClass::Structure);
        assert_eq!(lat, cfg.l1_latency + cfg.l2_latency);
    }

    #[test]
    fn wide_access_spans_lines() {
        let cfg = tiny_config();
        let mut m = MemorySystem::new(&cfg);
        // 224-byte node spanning two 128-byte lines.
        m.access(0, 0x1000, 224, AccessClass::Structure);
        assert_eq!(m.l1_structure_accesses, 2);
    }

    #[test]
    fn prefetch_makes_demand_hit() {
        let cfg = tiny_config();
        let mut m = MemorySystem::new(&cfg);
        m.prefetch(0, 0x2000, 128);
        let lat = m.access(0, 0x2000, 8, AccessClass::Structure);
        assert_eq!(lat, cfg.l1_latency);
        assert_eq!(m.prefetch_installs, 1);
    }

    #[test]
    fn prefetch_disabled_is_noop() {
        let cfg = GpuConfig {
            sibling_prefetch: false,
            ..tiny_config()
        };
        let mut m = MemorySystem::new(&cfg);
        m.prefetch(0, 0x2000, 128);
        let lat = m.access(0, 0x2000, 8, AccessClass::Structure);
        assert!(lat > cfg.l1_latency);
    }

    #[test]
    fn buffer_traffic_excluded_from_structure_stats() {
        let cfg = tiny_config();
        let mut m = MemorySystem::new(&cfg);
        m.access(0, 0x3000, 20, AccessClass::Buffer);
        assert_eq!(m.l1_structure_accesses, 0);
        assert_eq!(m.footprint_bytes(), 0);
    }

    #[test]
    fn footprint_counts_unique_lines() {
        let cfg = tiny_config();
        let mut m = MemorySystem::new(&cfg);
        m.access(0, 0x0, 8, AccessClass::Structure);
        m.access(0, 0x10, 8, AccessClass::Structure); // same line
        m.access(1, 0x80, 8, AccessClass::Structure); // next line
        assert_eq!(m.footprint_bytes(), 256);
    }

    #[test]
    fn absorbed_shards_count_shared_lines_once() {
        let cfg = tiny_config();
        let mut a = MemorySystem::new(&cfg);
        let mut b = MemorySystem::new(&cfg);
        // Line 0 and line 100 are touched by both shards; line 1 only by
        // `a`, line 9000 (past `a`'s bitmap) only by `b`.
        for addr in [0x0, 0x80, 100 * 128] {
            a.access(0, addr, 8, AccessClass::Structure);
        }
        for addr in [0x10, 100 * 128 + 64, 9000 * 128] {
            b.access(0, addr, 8, AccessClass::Structure);
        }
        assert_eq!(a.footprint_bytes(), 3 * 128);
        assert_eq!(b.footprint_bytes(), 3 * 128);
        a.absorb_counters(&b);
        assert_eq!(a.footprint_bytes(), 4 * 128);
        assert_eq!(a.l1_structure_accesses, 6);
        // Absorbing is a union: the smaller bitmap absorbs the larger.
        b.absorb_counters(&a);
        assert_eq!(b.footprint_bytes(), 4 * 128);
    }
}
