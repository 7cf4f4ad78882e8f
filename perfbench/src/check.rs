//! Output checks: simulated counters, image digests, and the tally of
//! frames that failed.

use grtx::{Image, RenderReport};

/// The deterministic counters of one simulated render that the
/// benchmark pins at the default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub cycles: u64,
    pub rays: u64,
    pub rounds: u64,
    pub fetches_total: u64,
    pub fetches_unique: u64,
    pub digest: u64,
}

impl Counters {
    /// The counters of a finished render.
    pub fn of(report: &RenderReport) -> Self {
        Self {
            cycles: report.cycles,
            rays: report.stats.rays,
            rounds: report.stats.rounds,
            fetches_total: report.stats.node_fetches_total,
            fetches_unique: report.stats.node_fetches_unique,
            digest: image_digest(&report.image),
        }
    }
}

/// FNV-1a over the image size and every pixel's bit pattern.
pub fn image_digest(image: &Image) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u32| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(image.width);
    eat(image.height);
    for p in image.pixels() {
        eat(p.x.to_bits());
        eat(p.y.to_bits());
        eat(p.z.to_bits());
    }
    hash
}

/// Whether two images are equal bit for bit.
pub fn same_image(a: &Image, b: &Image) -> bool {
    a.width == b.width
        && a.height == b.height
        && a.pixels().len() == b.pixels().len()
        && a.pixels()
            .iter()
            .zip(b.pixels())
            .all(|(p, q)| [p.x, p.y, p.z].map(f32::to_bits) == [q.x, q.y, q.z].map(f32::to_bits))
}

/// Problems with a report on its own: non-finite or empty results that
/// must never count as success.
pub fn sanity(label: &str, report: &RenderReport) -> Vec<String> {
    let mut problems = Vec::new();
    if !(report.time_ms.is_finite() && report.time_ms > 0.0) {
        problems.push(format!("{label}: time_ms = {}", report.time_ms));
    }
    if report.cycles == 0 || report.stats.rays == 0 {
        problems.push(format!("{label}: empty render"));
    }
    let finite = report
        .image
        .pixels()
        .iter()
        .all(|p| p.x.is_finite() && p.y.is_finite() && p.z.is_finite());
    if !finite {
        problems.push(format!("{label}: non-finite pixel"));
    }
    problems
}

/// A mismatch between measured and expected counters, if any.
pub fn compare(label: &str, got: Counters, want: Counters) -> Option<String> {
    (got != want).then(|| format!("{label}: got {got:?}, expected {want:?}"))
}

/// Frames attempted and failed, with the reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one frame, failed if it has any problem.
    pub fn frame(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Marks every frame counted so far as failed: a check made once for
    /// the whole run (the functional reference) failed, and every frame
    /// carried the same output.
    pub fn fail_all(&mut self, problem: String) {
        self.failed = self.attempted.max(1);
        self.attempted = self.attempted.max(1);
        self.problems.push(problem);
    }

    /// Frames that failed ÷ frames attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
