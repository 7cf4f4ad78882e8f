//! Benchmark harness for the GRTX workspace.
//!
//! Three workloads on the Train evaluation scene at divisor 40 (36,500
//! Gaussians, the evaluation camera), each a closed loop with one frame
//! in flight:
//!
//! * `lineup-multiround` — 64×64, k = 8, the Fig. 13 lineup. About six
//!   k-buffer rounds per ray, so checkpoint/replay is engaged.
//! * `lineup-k64` — the same at k = 64. About one round per ray, so
//!   checkpoint/replay sits idle while each k-buffer holds 8× more.
//! * `stream-rebuild` — 32×32, k = 8, Baseline, a jittered scene through
//!   the frame pipeline at depth 3 with 2 shards: every frame rebuilds
//!   the monolithic structure.
//!
//! An untraced run ([`run`] with `trace = false`) reports the end-to-end
//! metrics; a traced run reports the per-layer ones by timing each
//! public call into a crate from here (see [`trace`]).

pub mod check;
pub mod lineup;
mod pins;
pub mod provenance;
pub mod stream;
pub mod trace;

use std::time::Instant;

/// Seed used when `--seed` is not given. Counters are pinned at this
/// seed only.
pub const DEFAULT_SEED: u64 = 42;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LineupMultiround,
    LineupK64,
    StreamRebuild,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LineupMultiround,
        Workload::LineupK64,
        Workload::StreamRebuild,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LineupMultiround => "lineup-multiround",
            Workload::LineupK64 => "lineup-k64",
            Workload::StreamRebuild => "stream-rebuild",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// k-buffer capacity.
    pub fn k(self) -> usize {
        match self {
            Workload::LineupK64 => 64,
            _ => 8,
        }
    }
}

/// Scene size and frame counts. [`Scale::PAPER`] is the benchmark;
/// [`Scale::TINY`] runs the same code paths in seconds for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Gaussian-count divisor of the Train profile.
    pub divisor: usize,
    /// Square resolution of the two lineups.
    pub lineup_res: u32,
    /// Square resolution of `stream-rebuild`.
    pub stream_res: u32,
    /// Frames per stream call on `stream-rebuild`.
    pub stream_frames: usize,
}

impl Scale {
    pub const PAPER: Scale = Scale {
        divisor: 40,
        lineup_res: 64,
        stream_res: 32,
        stream_frames: 4,
    };
    pub const TINY: Scale = Scale {
        divisor: 4000,
        lineup_res: 12,
        stream_res: 12,
        stream_frames: 3,
    };
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds the timed loop runs (it always completes one frame).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    pub scale: Scale,
    /// Worker threads: at most 2, and at most the host's cores.
    pub threads: usize,
}

impl Config {
    /// The benchmark's settings for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::PAPER,
            threads: provenance::host_cores().min(2),
        }
    }

    /// Whether this run's outputs are pinned (default seed, full scale).
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED && self.scale == Scale::PAPER
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were recorded, plus notes for the reader.
#[derive(Debug, Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
    /// Lines printed beside the metrics: sample counts, paper values,
    /// and the reason a layer is not run on this workload.
    pub notes: Vec<String>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.list.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.list.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Report {
    pub tally: check::Tally,
    pub metrics: Metrics,
    /// Chrome trace of a traced run, written when the run ends.
    pub trace_json: Option<String>,
}

impl Report {
    /// Whether every frame passed every output check.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .list
            .iter()
            .map(|m| {
                // JSON has no NaN/inf; such a value can only come from a
                // broken run, which `run` has already marked incorrect.
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload as configured.
pub fn run(config: &Config) -> Report {
    let mut report = match (config.workload, config.trace) {
        (Workload::StreamRebuild, false) => stream::run_timed(config),
        (Workload::StreamRebuild, true) => stream::run_traced(config),
        (_, false) => lineup::run_timed(config),
        (_, true) => lineup::run_traced(config),
    };
    if config.trace {
        report
            .metrics
            .push("failed_frac", report.tally.failed_frac(), "ratio");
    }
    let broken: Vec<String> = report
        .metrics
        .list
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("{} is not finite", m.name))
        .collect();
    for problem in broken {
        report.tally.fail_all(problem);
    }
    report
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Runs `build` [`SETUP_REPS`] times and keeps the last result, with the
/// median set-up seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The four per-variant metric suffixes, in Fig. 13 lineup order.
pub const SLUGS: [&str; 4] = ["baseline", "grtx_sw", "grtx_hw", "grtx"];

/// Fig. 13's full-scale speedups over Baseline, in [`SLUGS`] order
/// after Baseline.
pub const PAPER_SPEEDUP: [(&str, f64); 3] = [("grtx_sw", 2.00), ("grtx_hw", 1.94), ("grtx", 4.36)];

/// The metadata stored in a traced run's Chrome trace.
pub fn trace_metadata(config: &Config) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"provenance\":{}}}",
        config.workload.name(),
        config.seed,
        provenance::json(config.threads)
    )
}

/// Rust source of the pins for `config`'s workload, from one untimed
/// run. Regenerate after an intended change to the simulated model.
pub fn pin_source(config: &Config) -> String {
    let rows = |counters: Vec<check::Counters>| {
        counters
            .iter()
            .map(|c| {
                format!(
                    "    c({}, {}, {}, {}, {}, 0x{:016x}),\n",
                    c.cycles, c.rays, c.rounds, c.fetches_total, c.fetches_unique, c.digest
                )
            })
            .collect::<String>()
    };
    let res = match config.workload {
        Workload::StreamRebuild => config.scale.stream_res,
        _ => config.scale.lineup_res,
    };
    let mut out = format!(
        "// {} lineup, seed {}\n{}",
        config.workload.name(),
        config.seed,
        rows(lineup::observed_counters(config, res))
    );
    if config.workload == Workload::StreamRebuild {
        out += &format!(
            "// stream frames\n{}",
            rows(stream::observed_counters(config))
        );
    }
    out
}
