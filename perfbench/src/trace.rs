//! Coarse host-time spans with parent links, kept in memory and written as
//! a Chrome trace (viewable in Perfetto) when the traced run ends.
//!
//! Spans sit at the boundaries the benchmark's own code crosses into a
//! crate: set-up steps, each collective issue, each unit and each sweep
//! point. Per-event calls are aggregated by [`crate::probe`] instead.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start: Duration,
    end: Option<Duration>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start: self.origin.elapsed(),
            end: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let now = self.origin.elapsed();
        let span = &mut self.spans[id];
        span.end = Some(now);
        now - span.start
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// The spans in Chrome trace-event JSON: one complete (`"ph": "X"`)
    /// event per closed span, with its id and parent id as arguments.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let closed = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(id, s)| s.end.map(|end| (id, s, end)));
        for (i, (id, span, end)) in closed.enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                serde_json::to_string(&span.name).expect("a string serialises"),
                span.start.as_secs_f64() * 1e6,
                (end - span.start).as_secs_f64() * 1e6,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut t = Tracer::default();
        let root = t.open("unit", None);
        let ((), child) = t.time("issue", Some(root), || {});
        let total = t.close(root);
        assert!(child <= total);
        let open = t.open("never closed", None);
        assert_eq!(open, 2);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"issue\""), "{json}");
        assert!(json.contains("\"parent\":0"), "{json}");
        assert!(!json.contains("never closed"), "open spans are not written");
    }
}
