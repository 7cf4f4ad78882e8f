//! Counters pinned at the default seed and full scale. Any drift in the
//! simulated model fails the run. Regenerate with `--print-pins` after
//! an intended model change.

use crate::check::Counters;
use crate::Workload;

const fn c(
    cycles: u64,
    rays: u64,
    rounds: u64,
    fetches_total: u64,
    fetches_unique: u64,
    digest: u64,
) -> Counters {
    Counters {
        cycles,
        rays,
        rounds,
        fetches_total,
        fetches_unique,
        digest,
    }
}

/// `lineup-multiround`: 64×64, k = 8; Baseline, GRTX-SW, GRTX-HW, GRTX.
const MULTIROUND: [Counters; 4] = [
    c(5614407, 4096, 25617, 12168377, 3803901, 0xfe364ae23b99d5c7),
    c(2827478, 4096, 25409, 9453758, 1534373, 0x8ee3d84e6df21ee5),
    c(2657616, 4096, 25617, 3948638, 3928080, 0xfe364ae23b99d5c7),
    c(1365231, 4096, 25431, 3276604, 1584730, 0x75518c2fc7110c37),
];

/// `lineup-k64`: 64×64, k = 64.
const K64: [Counters; 4] = [
    c(1841339, 4096, 4414, 4552435, 4458092, 0xfe364ae23b99d5c7),
    c(993913, 4096, 4397, 3567968, 1763876, 0x740f77cad6fed74f),
    c(1549443, 4096, 4414, 4458632, 4458470, 0xfe364ae23b99d5c7),
    c(779013, 4096, 4397, 3485283, 1763886, 0x740f77cad6fed74f),
];

/// `stream-rebuild`'s reference lineup: 32×32, k = 8, frame 0's scene.
const STREAM_REFERENCE: [Counters; 4] = [
    c(2711625, 1024, 6383, 3032340, 949983, 0x7b1dbc32bfc58c7a),
    c(1304642, 1024, 6335, 2353089, 382668, 0x89c99e4579aa3dfd),
    c(1231992, 1024, 6383, 985866, 980706, 0x7b1dbc32bfc58c7a),
    c(590596, 1024, 6339, 817809, 395709, 0x0bb64c37640b78d9),
];

/// `stream-rebuild`'s frames 0..4 (Baseline, jitter 0.05 every frame).
const STREAM_FRAMES: [Counters; 4] = [
    c(2711625, 1024, 6383, 3032340, 949983, 0x7b1dbc32bfc58c7a),
    c(2718948, 1024, 6366, 3031547, 950031, 0x3717bed06bba6cad),
    c(2599467, 1024, 6346, 3099365, 923924, 0x7a44aace4cc685f1),
    c(2714960, 1024, 6398, 3085430, 950192, 0x1e3128edbf149040),
];

/// The lineup pins of `workload`.
pub fn lineup(workload: Workload) -> &'static [Counters] {
    match workload {
        Workload::LineupMultiround => &MULTIROUND,
        Workload::LineupK64 => &K64,
        Workload::StreamRebuild => &STREAM_REFERENCE,
    }
}

/// The frame pins of `stream-rebuild`.
pub fn stream_frames() -> &'static [Counters] {
    &STREAM_FRAMES
}
