//! The canonical machine-readable telemetry report and its JSON/table
//! serializations.

/// Aggregate of every span sharing one `/`-joined path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// `/`-joined chain of enclosing span names.
    pub path: String,
    /// Number of spans recorded at this path.
    pub count: u64,
    /// Summed duration, microseconds (wall-clock — excluded from the
    /// structural identity).
    pub total_us: u64,
    /// Longest single span, microseconds (wall-clock).
    pub max_us: u64,
}

/// One monotonic counter's final value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSummary {
    /// Counter name.
    pub name: String,
    /// Summed value. Deterministic for deterministic workloads (counter
    /// sums are order-independent), so counters ARE structural.
    pub value: u64,
}

/// One histogram's percentile digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Histogram name.
    pub name: String,
    /// Recorded samples (structural: sample *counts* are deterministic
    /// even when sampled values are wall-clock or scheduling-dependent).
    pub count: u64,
    /// Median sample (value — excluded from the structural identity).
    pub p50: u64,
    /// 95th-percentile sample (value).
    pub p95: u64,
    /// 99th-percentile sample (value).
    pub p99: u64,
    /// Largest sample (value).
    pub max: u64,
}

/// The canonical report: span aggregates sorted by path, counters and
/// histograms sorted by name, thread labels sorted lexicographically.
///
/// Two runs of the same deterministic workload produce reports whose
/// [structural part](Self::structural) is identical; only wall-clock
/// durations, sampled values, and (for work-stealing phases that size
/// themselves opportunistically) the thread-label set vary.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Per-path span aggregates, sorted by path.
    pub spans: Vec<SpanSummary>,
    /// Counter values, sorted by name.
    pub counters: Vec<CounterSummary>,
    /// Histogram digests, sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// Every recorder label that flushed events, sorted.
    pub threads: Vec<String>,
}

impl TelemetryReport {
    /// The run-to-run-stable skeleton of this report: span paths with
    /// counts, counter names with values, histogram names with sample
    /// counts. Wall-clock durations, percentile values, and thread
    /// labels (worker pools may size opportunistically) are excluded.
    /// Two runs of the same deterministic workload compare equal here.
    pub fn structural(&self) -> Vec<(String, u64)> {
        let mut key = Vec::new();
        for s in &self.spans {
            key.push((format!("span:{}", s.path), s.count));
        }
        for c in &self.counters {
            key.push((format!("counter:{}", c.name), c.value));
        }
        for h in &self.histograms {
            key.push((format!("histogram:{}", h.name), h.count));
        }
        key
    }

    /// Serializes the report as a JSON document in the committed
    /// `BENCH_*.json` style (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"grtx-telemetry-v1\",\n");
        out.push_str("  \"spans\": [\n");
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "    {{\"path\": \"{}\", \"count\": {}, \"total_us\": {}, \"max_us\": {}}}",
                    escape_json(&s.path),
                    s.count,
                    s.total_us,
                    s.max_us
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"counters\": [\n");
        let rows: Vec<String> = self
            .counters
            .iter()
            .map(|c| {
                format!(
                    "    {{\"name\": \"{}\", \"value\": {}}}",
                    escape_json(&c.name),
                    c.value
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"histograms\": [\n");
        let rows: Vec<String> = self
            .histograms
            .iter()
            .map(|h| {
                format!(
                    "    {{\"name\": \"{}\", \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                    escape_json(&h.name),
                    h.count,
                    h.p50,
                    h.p95,
                    h.p99,
                    h.max
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"threads\": [");
        let rows: Vec<String> = self
            .threads
            .iter()
            .map(|t| format!("\"{}\"", escape_json(t)))
            .collect();
        out.push_str(&rows.join(", "));
        out.push_str("]\n}\n");
        out
    }

    /// Renders the human-readable summary table.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "{:<44} {:>8} {:>12} {:>10} {:>10}\n",
                "span", "count", "total ms", "mean us", "max us"
            ));
            for s in &self.spans {
                let mean = if s.count == 0 {
                    0.0
                } else {
                    s.total_us as f64 / s.count as f64
                };
                out.push_str(&format!(
                    "{:<44} {:>8} {:>12.2} {:>10.1} {:>10}\n",
                    s.path,
                    s.count,
                    s.total_us as f64 / 1000.0,
                    mean,
                    s.max_us
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("\n{:<44} {:>16}\n", "counter", "value"));
            for c in &self.counters {
                out.push_str(&format!("{:<44} {:>16}\n", c.name, c.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "\n{:<44} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                "histogram", "count", "p50", "p95", "p99", "max"
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<44} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                    h.name, h.count, h.p50, h.p95, h.p99, h.max
                ));
            }
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TelemetryReport {
        TelemetryReport {
            spans: vec![SpanSummary {
                path: "frame/build".into(),
                count: 3,
                total_us: 1500,
                max_us: 700,
            }],
            counters: vec![CounterSummary {
                name: "pipeline.frames".into(),
                value: 42,
            }],
            histograms: vec![HistogramSummary {
                name: "frame_latency_us".into(),
                count: 3,
                p50: 480,
                p95: 700,
                p99: 700,
                max: 712,
            }],
            threads: vec!["worker-0".into()],
        }
    }

    #[test]
    fn structural_ignores_times_and_threads() {
        let a = sample_report();
        let mut b = a.clone();
        b.spans[0].total_us = 9999;
        b.spans[0].max_us = 9999;
        b.histograms[0].p50 = 1;
        b.histograms[0].max = 2;
        b.threads = vec!["worker-0".into(), "worker-1".into()];
        assert_eq!(a.structural(), b.structural());
        // Counts and counter values ARE structural.
        b.counters[0].value = 43;
        assert_ne!(a.structural(), b.structural());
    }

    #[test]
    fn json_is_well_formed_and_carries_required_keys() {
        let json = sample_report().to_json();
        for key in [
            "\"schema\": \"grtx-telemetry-v1\"",
            "\"spans\"",
            "\"counters\"",
            "\"histograms\"",
            "\"threads\"",
            "\"p95\": 700",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn summary_table_lists_every_section() {
        let table = sample_report().summary_table();
        assert!(table.contains("frame/build"));
        assert!(table.contains("pipeline.frames"));
        assert!(table.contains("frame_latency_us"));
        assert!(table.contains("p95"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("plain"), "plain");
    }
}
