//! Harness-side spans around every call into a layer.
//!
//! The timer always runs — the durations are the per-layer metrics — but
//! spans are only kept (in memory, written once at exit) on the traced
//! pass. In-program tracing is ROADMAP item 4; until then a layer is
//! visible here exactly as far as a public function call shows it.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// An open span; close it with [`Tracer::end`].
pub struct Open {
    id: Option<usize>,
    started: Instant,
}

pub struct Tracer {
    keep: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(keep: bool) -> Self {
        Tracer {
            keep,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: &str) -> Open {
        let started = Instant::now();
        let id = self.keep.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_us: started.duration_since(self.origin).as_secs_f64() * 1e6,
                end_us: f64::NAN,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { id, started }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(id) = open.id {
            self.spans[id].end_us = now.duration_since(self.origin).as_secs_f64() * 1e6;
            // Spans close innermost-first; anything above `id` was leaked
            // by an early return and closes with it.
            self.stack
                .truncate(self.stack.iter().position(|&s| s == id).unwrap_or(0));
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// Times one call as a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let result = f();
        (result, self.end(open))
    }

    /// Writes the kept spans as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto). All spans of one workload run share `run`.
    pub fn write_chrome(&self, path: &Path, run: &str) -> std::io::Result<()> {
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.end_us.is_finite())
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("run", Json::str(run)),
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        std::fs::write(
            path,
            Json::obj([("traceEvents", Json::Arr(events))]).render(),
        )
    }
}
