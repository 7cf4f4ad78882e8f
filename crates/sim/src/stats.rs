//! Global simulation counters — the quantities every figure reads.

use grtx_bvh::FetchKind;

/// Aggregate statistics for one simulated render.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total structure-element fetches (Fig. 14).
    pub node_fetches_total: u64,
    /// First-time-per-ray structure fetches (Fig. 7 "Unique").
    pub node_fetches_unique: u64,
    /// Interior-node share of total fetches (Fig. 7 split).
    pub internal_fetches_total: u64,
    /// Interior-node share of unique fetches.
    pub internal_fetches_unique: u64,
    /// Sum of fetch latencies in cycles (Fig. 15 numerator).
    pub fetch_latency_cycles: u64,
    /// Ray–box tests executed.
    pub box_tests: u64,
    /// Ray–triangle tests executed.
    pub triangle_tests: u64,
    /// Ray–sphere tests executed.
    pub sphere_tests: u64,
    /// Software ellipsoid tests executed.
    pub ellipsoid_tests: u64,
    /// Instance ray transforms executed.
    pub ray_transforms: u64,
    /// Any-hit shader invocations.
    pub any_hit_invocations: u64,
    /// Checkpoint entries written (Fig. 20 sizing input).
    pub checkpoint_writes: u64,
    /// Checkpoint entries read back.
    pub checkpoint_reads: u64,
    /// Eviction-buffer entries written.
    pub eviction_writes: u64,
    /// Peak per-ray checkpoint-buffer entries observed.
    pub peak_checkpoint_entries: u64,
    /// Peak per-ray eviction-buffer entries observed.
    pub peak_eviction_entries: u64,
    /// Tracing rounds executed across all rays.
    pub rounds: u64,
    /// Rays fully traced.
    pub rays: u64,
    /// Gaussians blended across all rays.
    pub blended_gaussians: u64,
}

impl SimStats {
    /// Records one structure fetch. Whether it was the ray's first visit
    /// is only known when the ray retires (see [`Self::record_unique`]).
    pub fn record_fetch(&mut self, kind: FetchKind, latency: u64) {
        self.node_fetches_total += 1;
        self.fetch_latency_cycles += latency;
        if kind.is_internal() {
            self.internal_fetches_total += 1;
        }
    }

    /// Records a retired ray's distinct fetched elements: `unique` in
    /// all, `internal` of them interior nodes.
    pub fn record_unique(&mut self, unique: u64, internal: u64) {
        self.node_fetches_unique += unique;
        self.internal_fetches_unique += internal;
    }

    /// Average node-fetch latency in cycles (Fig. 15).
    pub fn avg_fetch_latency(&self) -> f64 {
        if self.node_fetches_total == 0 {
            0.0
        } else {
            self.fetch_latency_cycles as f64 / self.node_fetches_total as f64
        }
    }

    /// Merges another shard's counters into this one.
    ///
    /// Additive counters sum; peak-occupancy gauges take the maximum.
    /// Merging is commutative and associative, so any partition of a
    /// render into shards (per SM, per worker thread) folds back to the
    /// same totals — the invariant the parallel render engine's
    /// bit-identity guarantee rests on.
    pub fn merge(&mut self, other: &SimStats) {
        // Exhaustive destructuring (no `..`): adding a counter without
        // deciding how it merges is a compile error, not a silent
        // undercount in every multi-SM render.
        let SimStats {
            node_fetches_total,
            node_fetches_unique,
            internal_fetches_total,
            internal_fetches_unique,
            fetch_latency_cycles,
            box_tests,
            triangle_tests,
            sphere_tests,
            ellipsoid_tests,
            ray_transforms,
            any_hit_invocations,
            checkpoint_writes,
            checkpoint_reads,
            eviction_writes,
            peak_checkpoint_entries,
            peak_eviction_entries,
            rounds,
            rays,
            blended_gaussians,
        } = *other;
        self.node_fetches_total += node_fetches_total;
        self.node_fetches_unique += node_fetches_unique;
        self.internal_fetches_total += internal_fetches_total;
        self.internal_fetches_unique += internal_fetches_unique;
        self.fetch_latency_cycles += fetch_latency_cycles;
        self.box_tests += box_tests;
        self.triangle_tests += triangle_tests;
        self.sphere_tests += sphere_tests;
        self.ellipsoid_tests += ellipsoid_tests;
        self.ray_transforms += ray_transforms;
        self.any_hit_invocations += any_hit_invocations;
        self.checkpoint_writes += checkpoint_writes;
        self.checkpoint_reads += checkpoint_reads;
        self.eviction_writes += eviction_writes;
        self.peak_checkpoint_entries = self.peak_checkpoint_entries.max(peak_checkpoint_entries);
        self.peak_eviction_entries = self.peak_eviction_entries.max(peak_eviction_entries);
        self.rounds += rounds;
        self.rays += rays;
        self.blended_gaussians += blended_gaussians;
    }

    /// Redundancy factor: total / unique fetches (Fig. 7's gap).
    pub fn redundancy(&self) -> f64 {
        if self.node_fetches_unique == 0 {
            1.0
        } else {
            self.node_fetches_total as f64 / self.node_fetches_unique as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fetch_accumulates() {
        let mut s = SimStats::default();
        s.record_fetch(FetchKind::MonoNode, 20);
        s.record_fetch(FetchKind::MonoNode, 185);
        s.record_fetch(FetchKind::Prim, 20);
        s.record_unique(2, 1);
        assert_eq!(s.node_fetches_total, 3);
        assert_eq!(s.node_fetches_unique, 2);
        assert_eq!(s.internal_fetches_total, 2);
        assert_eq!(s.internal_fetches_unique, 1);
        assert!((s.avg_fetch_latency() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn redundancy_is_total_over_unique() {
        let mut s = SimStats::default();
        for _ in 0..10 {
            s.record_fetch(FetchKind::TlasNode, 20);
        }
        s.record_unique(4, 4);
        assert!((s.redundancy() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_safe_defaults() {
        let s = SimStats::default();
        assert_eq!(s.avg_fetch_latency(), 0.0);
        assert_eq!(s.redundancy(), 1.0);
    }
}
