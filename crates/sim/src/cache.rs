//! Set-associative LRU cache model.

use crate::lines::LineSet;

/// A set-associative cache with exact LRU replacement.
///
/// Every set is a `ways`-long ring in one flat tag array, read in
/// most-recently-used-first order from the set's head slot. A bitmap over
/// line numbers holds exactly the resident lines, so a miss is settled
/// without a scan: the head steps back one slot (onto the LRU line in a
/// full set, which is evicted) and the new line is stored there. A hit
/// walks the ring from the head to the line, shifting the lines it passes
/// one place toward the LRU end. No ages, links or hash maps are kept —
/// at the tens of millions of simulated accesses per render, most of
/// them misses, this beats any indexed structure.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `sets × ways` line addresses; set `s` owns
    /// `tags[s * ways..(s + 1) * ways]`.
    tags: Vec<u64>,
    /// Per set, the slot of the MRU line.
    head: Vec<u32>,
    /// Per set, the resident line count (the valid ring prefix).
    fill: Vec<u32>,
    /// Exactly the lines held in `tags`.
    resident: LineSet,
    set_mask: u64,
    line_shift: u32,
    ways: usize,
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `line_bytes` lines and
    /// `ways` associativity. The set count is rounded down to a power of
    /// two (minimum 1).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two or capacity is
    /// smaller than one line.
    pub fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(capacity_bytes >= line_bytes, "cache smaller than a line");
        let num_lines = capacity_bytes / line_bytes;
        let ways = ways.min(num_lines).max(1);
        let num_sets = (num_lines / ways).next_power_of_two().max(1);
        // Rounding up set count would overshoot capacity; round down.
        let num_sets = if num_sets * ways > num_lines {
            num_sets / 2
        } else {
            num_sets
        };
        let num_sets = num_sets.max(1);
        Self {
            tags: vec![0; num_sets * ways],
            head: vec![0; num_sets],
            fill: vec![0; num_sets],
            resident: LineSet::default(),
            set_mask: num_sets as u64 - 1,
            line_shift: line_bytes.trailing_zeros(),
            ways,
            accesses: 0,
            hits: 0,
        }
    }

    /// Line address (byte address with the offset bits cleared).
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Makes `line` its set's MRU entry, installing it (and evicting the
    /// LRU line of a full set) if absent. Returns `true` if it was
    /// already resident.
    fn touch(&mut self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        let ways = self.ways;
        let head = self.head[set] as usize;
        if self.resident.contains(line) {
            let slots = &mut self.tags[set * ways..(set + 1) * ways];
            // Walk from the MRU slot, moving each line one place toward
            // the LRU end, until the hit line's old slot is overwritten.
            let mut carried = line;
            let mut slot = head;
            loop {
                let here = std::mem::replace(&mut slots[slot], carried);
                if here == line {
                    return true;
                }
                carried = here;
                slot = if slot + 1 == ways { 0 } else { slot + 1 };
            }
        }
        // The slot before the head is free in a partial set and holds
        // the LRU line in a full one.
        let new_head = if head == 0 { ways - 1 } else { head - 1 };
        if self.fill[set] as usize == ways {
            self.resident.remove(self.tags[set * ways + new_head]);
        } else {
            self.fill[set] += 1;
        }
        self.tags[set * ways + new_head] = line;
        self.head[set] = new_head as u32;
        self.resident.insert(line);
        false
    }

    /// Looks up one byte address; returns `true` on hit. Misses install
    /// the line (evicting LRU if needed).
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let hit = self.touch(self.line_of(addr));
        self.hits += hit as u64;
        hit
    }

    /// Installs a line without counting an access or charging latency
    /// (prefetch). Returns `true` if the line was newly installed.
    pub fn install(&mut self, addr: u64) -> bool {
        !self.touch(self.line_of(addr))
    }

    /// `true` if the address's line is currently resident (no state
    /// change).
    pub fn contains(&self, addr: u64) -> bool {
        self.resident.contains(self.line_of(addr))
    }

    /// Hit rate over all accesses so far (0 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(1024, 128, 2);
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x17f)); // same line
        assert!(!c.access(0x180)); // next line
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 lines total capacity, fully associative.
        let mut c = Cache::new(256, 128, 2);
        c.access(0x0);
        c.access(0x80);
        c.access(0x0); // refresh line 0
        c.access(0x100); // evicts 0x80 (LRU)
        assert!(c.contains(0x0));
        assert!(!c.contains(0x80));
        assert!(c.contains(0x100));
    }

    #[test]
    fn hit_rate_counts_correctly() {
        let mut c = Cache::new(1024, 128, 8);
        c.access(0x0);
        c.access(0x0);
        c.access(0x0);
        c.access(0x1000);
        assert_eq!(c.accesses, 4);
        assert_eq!(c.hits, 2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn install_does_not_count_access() {
        let mut c = Cache::new(1024, 128, 8);
        assert!(c.install(0x200));
        assert_eq!(c.accesses, 0);
        assert!(c.access(0x200), "prefetched line must hit");
    }

    #[test]
    fn table1_l1_geometry() {
        // 128 KB / 128 B lines / 256-way = 1024 lines in 4 sets.
        let c = Cache::new(128 * 1024, 128, 256);
        assert_eq!(c.fill.len(), 4);
        assert_eq!(c.ways, 256);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = Cache::new(1024, 128, 8); // 8 lines
                                              // Stream 64 distinct lines twice: second pass must still miss.
        for round in 0..2 {
            for i in 0..64u64 {
                let hit = c.access(i * 128);
                if round == 1 {
                    assert!(!hit, "line {i} should have been evicted");
                }
            }
        }
    }

    #[test]
    fn small_working_set_fits() {
        let mut c = Cache::new(1024, 128, 8);
        for _ in 0..4 {
            for i in 0..4u64 {
                c.access(i * 128);
            }
        }
        assert!(c.hit_rate() > 0.7);
    }

    #[test]
    fn lru_order_exact_under_mixed_ops() {
        // 4-line fully-associative set; verify exact LRU with touches.
        let mut c = Cache::new(512, 128, 4);
        for a in [0u64, 1, 2, 3] {
            c.access(a * 128);
        }
        c.access(0); // order (MRU->LRU): 0,3,2,1
        c.access(2 * 128); // order: 2,0,3,1
        c.access(4 * 128); // evicts 1
        assert!(!c.contains(128));
        assert!(c.contains(0));
        assert!(c.contains(2 * 128));
        assert!(c.contains(3 * 128));
        assert!(c.contains(4 * 128));
    }

    /// Naive exact LRU: one `Vec` per set, MRU first, searched and
    /// reordered with plain `Vec` operations.
    struct ReferenceLru {
        sets: Vec<Vec<u64>>,
        ways: usize,
    }

    impl ReferenceLru {
        fn touch(&mut self, line: u64) -> bool {
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(line % n) as usize];
            let hit = match set.iter().position(|&l| l == line) {
                Some(pos) => {
                    set.remove(pos);
                    true
                }
                None => {
                    if set.len() == self.ways {
                        set.pop();
                    }
                    false
                }
            };
            set.insert(0, line);
            hit
        }

        fn contains(&self, line: u64) -> bool {
            let n = self.sets.len() as u64;
            self.sets[(line % n) as usize].contains(&line)
        }
    }

    #[test]
    fn matches_reference_lru_on_random_streams() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // (capacity, ways, expected sets): the L1 at cache-scale divisor
        // 40, one SM's L2 slice at divisor 40, and Table I's L1.
        let geometries = [(3276, 256, 1), (13107, 16, 4), (128 * 1024, 256, 4)];
        for (capacity, ways, sets) in geometries {
            let mut cache = Cache::new(capacity, 128, ways);
            assert_eq!(cache.fill.len(), sets);
            let mut reference = ReferenceLru {
                sets: vec![Vec::new(); sets],
                ways: cache.ways,
            };
            // A working set a few times the capacity mixes hits, cold
            // misses and evictions.
            let span = 3 * (capacity / 128) as u64;
            let mut rng = SmallRng::seed_from_u64(capacity as u64);
            for step in 0..40_000 {
                let line: u64 = rng.gen_range(0..span);
                let addr = line * 128 + rng.gen_range(0..128u64);
                if rng.gen_range(0..4u32) == 0 {
                    let newly = cache.install(addr);
                    assert_eq!(newly, !reference.touch(line), "install at step {step}");
                } else {
                    let hit = cache.access(addr);
                    assert_eq!(hit, reference.touch(line), "access at step {step}");
                }
                let probe: u64 = rng.gen_range(0..span);
                assert_eq!(
                    cache.contains(probe * 128),
                    reference.contains(probe),
                    "contains at step {step}"
                );
            }
        }
    }
}
