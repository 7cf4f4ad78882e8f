//! Warp scheduling and the makespan model.
//!
//! Warps are assigned to SMs round-robin (as the rasterizer-style tile
//! scheduler of Vulkan-Sim does for raygen launches). Within an SM, the
//! RT unit keeps up to `warp_buffer_size` warps in flight, overlapping
//! their memory stalls; we model that as an overlap factor on the sum of
//! warp times, bounded by the warp-buffer depth. The render time is the
//! slowest SM's time — this preserves both the latency-sensitivity the
//! paper measures (traversal is "memory latency-bound") and the
//! load-imbalance effects of uneven warps.

use crate::config::GpuConfig;

/// Assigns warps to SMs and converts per-warp cycles into a makespan.
#[derive(Debug, Clone)]
pub struct WarpSchedule {
    num_sms: usize,
    warp_buffer: usize,
    /// Fraction of memory stalls the warp buffer actually hides
    /// (traversal stays latency-bound, so overlap is partial).
    overlap_efficiency: f64,
}

impl WarpSchedule {
    /// Builds the schedule model from the GPU configuration.
    pub fn new(config: &GpuConfig) -> Self {
        Self {
            num_sms: config.num_sms,
            warp_buffer: config.warp_buffer_size,
            overlap_efficiency: 0.7,
        }
    }

    /// SM that warp `w` executes on (round-robin).
    pub fn sm_of_warp(&self, warp: usize) -> usize {
        warp % self.num_sms
    }

    /// SM that warp `w` *of one launch* executes on.
    ///
    /// Every raygen launch restarts the tile scheduler's round-robin at
    /// SM 0, so a warp's SM depends only on its index within its own
    /// launch — never on how many warps earlier launches in a batch
    /// issued. This is what makes a batched launch bit-identical to the
    /// same launch running standalone.
    pub fn sm_of_launch_warp(&self, warp_in_launch: usize) -> usize {
        self.sm_of_warp(warp_in_launch)
    }

    /// Base offsets of each launch's warps inside one flat per-batch
    /// warp-time vector: `bases[l]..bases[l + 1]` are launch `l`'s
    /// warps, and `bases[counts.len()]` is the batch total.
    ///
    /// The bases only address storage — SM assignment stays per-launch
    /// ([`Self::sm_of_launch_warp`]), so the round-robin restarts at
    /// every base.
    ///
    /// Kept as public API for drivers that store a whole batch's warp
    /// times flat; the render engine itself merges each launch into a
    /// launch-local vector, which holds identical values.
    pub fn launch_warp_bases(warp_counts: &[usize]) -> Vec<usize> {
        let mut bases = Vec::with_capacity(warp_counts.len() + 1);
        let mut total = 0usize;
        bases.push(0);
        for &count in warp_counts {
            total += count;
            bases.push(total);
        }
        bases
    }

    /// Converts per-warp `(compute, stall)` cycle pairs into total render
    /// cycles (the slowest SM).
    pub fn makespan(&self, warp_cycles: &[(u64, u64)]) -> u64 {
        self.makespan_from(0, warp_cycles)
    }

    /// Like [`makespan`](Self::makespan) for a slice of warps whose
    /// global indices start at `warp_base` — so a sub-range of a launch
    /// (e.g. the secondary-ray warps, which continue the round-robin
    /// where the primary warps left off) is grouped onto the same SMs it
    /// was simulated on.
    pub fn makespan_from(&self, warp_base: usize, warp_cycles: &[(u64, u64)]) -> u64 {
        if warp_cycles.is_empty() {
            return 0;
        }
        let mut sm_compute = vec![0u64; self.num_sms];
        let mut sm_stall = vec![0u64; self.num_sms];
        let mut sm_warps = vec![0usize; self.num_sms];
        for (w, &(compute, stall)) in warp_cycles.iter().enumerate() {
            let sm = self.sm_of_warp(warp_base + w);
            sm_compute[sm] += compute;
            sm_stall[sm] += stall;
            sm_warps[sm] += 1;
        }
        let mut worst = 0u64;
        for sm in 0..self.num_sms {
            if sm_warps[sm] == 0 {
                continue;
            }
            // Up to warp_buffer warps overlap; the hidden share of the
            // stall time shrinks by the effective concurrency.
            let concurrency = self.warp_buffer.min(sm_warps[sm]) as f64;
            let hidden = 1.0 + (concurrency - 1.0) * self.overlap_efficiency;
            let time = sm_compute[sm] as f64 + sm_stall[sm] as f64 / hidden;
            worst = worst.max(time.ceil() as u64);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> WarpSchedule {
        WarpSchedule::new(&GpuConfig::default())
    }

    #[test]
    fn empty_workload_is_zero() {
        assert_eq!(schedule().makespan(&[]), 0);
    }

    #[test]
    fn single_warp_pays_full_time() {
        let s = schedule();
        assert_eq!(s.makespan(&[(1000, 0)]), 1000);
        assert_eq!(s.makespan(&[(0, 1000)]), 1000);
    }

    #[test]
    fn makespan_from_matches_global_grouping() {
        let s = schedule();
        let mut warps: Vec<(u64, u64)> = (0..20).map(|_| (100, 50)).collect();
        warps[9] = (50_000, 0);
        warps[17] = (40_000, 0);
        // Warps 9 and 17 share an SM class in any uniform round-robin,
        // shifted or not — `makespan_from` documents the global indexing
        // and stays correct if the policy ever becomes non-uniform.
        assert_eq!(s.makespan_from(9, &warps[9..]), s.makespan(&warps[9..]));
        assert!(s.makespan_from(9, &warps[9..]) >= 90_000);
        assert!(s.makespan_from(9, &warps[9..]) <= s.makespan(&warps));
    }

    #[test]
    fn launch_warps_restart_the_round_robin() {
        let s = schedule();
        // Warp 0 of any launch lands on SM 0, regardless of batch
        // position — the per-launch index is the only input.
        for w in 0..20 {
            assert_eq!(s.sm_of_launch_warp(w), s.sm_of_warp(w));
        }
        assert_eq!(s.sm_of_launch_warp(0), 0);
    }

    #[test]
    fn launch_warp_bases_are_prefix_sums() {
        assert_eq!(WarpSchedule::launch_warp_bases(&[]), vec![0]);
        assert_eq!(
            WarpSchedule::launch_warp_bases(&[3, 0, 5]),
            vec![0, 3, 3, 8]
        );
    }

    /// A batch of empty launches still produces well-formed bases: one
    /// per launch plus the zero total, every slice empty.
    #[test]
    fn zero_warp_launches_have_empty_slices() {
        let bases = WarpSchedule::launch_warp_bases(&[0, 0, 0]);
        assert_eq!(bases, vec![0, 0, 0, 0]);
        for launch in 0..3 {
            assert_eq!(bases[launch], bases[launch + 1], "launch {launch} is empty");
        }
        // An empty launch's makespan is zero at its own base.
        let s = schedule();
        assert_eq!(s.makespan_from(bases[1], &[]), 0);
    }

    /// `makespan_from` at the final base — the position one past the
    /// batch's last warp, where `launch_warp_bases` ends — reduces an
    /// empty tail to zero cycles at any base offset.
    #[test]
    fn makespan_from_the_final_base_is_zero() {
        let s = schedule();
        let counts = [3usize, 0, 5];
        let bases = WarpSchedule::launch_warp_bases(&counts);
        let total = *bases.last().unwrap();
        assert_eq!(total, 8);
        assert_eq!(s.makespan_from(total, &[]), 0);
        // A single warp appended at the final base lands on the SM the
        // round-robin prescribes for index `total`, and pays full time.
        assert_eq!(s.makespan_from(total, &[(700, 0)]), 700);
        assert_eq!(s.sm_of_warp(total), total % GpuConfig::default().num_sms);
    }

    #[test]
    fn round_robin_covers_all_sms() {
        let s = schedule();
        let sms: std::collections::BTreeSet<usize> = (0..16).map(|w| s.sm_of_warp(w)).collect();
        assert_eq!(sms.len(), 8);
    }

    #[test]
    fn stalls_overlap_but_compute_serializes() {
        let s = schedule();
        // 8 identical warps all landing on different SMs: same as one.
        let even: Vec<(u64, u64)> = (0..8).map(|_| (100, 1000)).collect();
        let t_even = s.makespan(&even);
        assert_eq!(t_even, 1100);
        // 64 warps = 8 per SM, warp buffer 8: stalls overlap partially.
        let many: Vec<(u64, u64)> = (0..64).map(|_| (100, 1000)).collect();
        let t_many = s.makespan(&many);
        assert!(t_many < 8 * 1100, "stall overlap must help: {t_many}");
        assert!(t_many > 1100, "but not eliminate time: {t_many}");
        assert!(t_many >= 800, "compute fully serializes: {t_many}");
    }

    #[test]
    fn lower_latency_means_lower_makespan() {
        let s = schedule();
        let slow: Vec<(u64, u64)> = (0..64).map(|_| (100, 2000)).collect();
        let fast: Vec<(u64, u64)> = (0..64).map(|_| (100, 500)).collect();
        assert!(s.makespan(&fast) < s.makespan(&slow));
    }

    #[test]
    fn imbalance_hurts() {
        let s = schedule();
        // One giant warp dominates.
        let mut warps: Vec<(u64, u64)> = (0..64).map(|_| (10, 10)).collect();
        warps[0] = (100_000, 0);
        assert!(s.makespan(&warps) >= 100_000);
    }
}
