//! In-memory span recorder for the traced run.
//!
//! Every public call the benchmark makes into a workspace crate is timed
//! from the outside and kept as one span. Spans of one frame share a
//! frame id. Nothing is written until the run ends, when the spans go
//! out once as a Chrome trace (`chrome://tracing`, Perfetto).

use std::time::Instant;

/// One timed call into a crate.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>[.<variant>]`.
    pub name: String,
    /// Frame the call belongs to; `0` is set-up.
    pub frame: u64,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

/// Collects spans in memory for the length of a run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    frames: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            frames: 0,
        }
    }

    /// A fresh frame id (ids start at 1; 0 is set-up).
    pub fn new_frame(&mut self) -> u64 {
        self.frames += 1;
        self.frames
    }

    /// Runs `f`, records it as a span of `frame`, and returns its result
    /// with its duration in seconds.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        frame: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let dur_s = start.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            frame,
            start_s: (start - self.origin).as_secs_f64(),
            dur_s,
        });
        (value, dur_s)
    }

    /// The spans as a Chrome trace document, with `metadata` (a JSON
    /// object) attached under `"metadata"`.
    pub fn chrome_json(&self, metadata: &str) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let layer = s.name.split('.').next().unwrap_or("");
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"frame\":{}}}}}",
                    s.name,
                    layer,
                    s.start_s * 1e6,
                    s.dur_s * 1e6,
                    s.frame
                )
            })
            .collect();
        format!(
            "{{\"traceEvents\":[\n{}\n],\"metadata\":{}}}\n",
            events.join(",\n"),
            metadata
        )
    }
}
