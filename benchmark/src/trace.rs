//! The benchmark's own span recorder.
//!
//! Spans are opened around the calls into each layer (never inside the
//! program), kept in memory, and written out once when the pass ends.

use crate::stats::{self_times, Span};
use crate::sut::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Spans opened from now on belong to request `index`.
    pub fn set_request(&mut self, index: u64) {
        self.request = index;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, caused by the innermost span
    /// open on this tracer.  `f` receives the tracer to open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Duration in milliseconds of every span named `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Per request, the summed duration (ms) of its spans named `name` —
    /// requests without such a span are absent.
    pub fn per_request_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.request).or_insert(0.0) += s.duration_ns() as f64 / 1e6;
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span, with its self time, as one JSON document.
    pub fn write_json(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(id, (s, &self_ns))| {
                Json::Obj(vec![
                    ("id".into(), Json::Int(id as i64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("request".into(), Json::Int(s.request as i64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("start_ns".into(), Json::Int(s.start_ns as i64)),
                    ("end_ns".into(), Json::Int(s.end_ns as i64)),
                    ("self_ns".into(), Json::Int(self_ns as i64)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("spans".into(), Json::Arr(spans)),
        ]);
        std::fs::write(path, doc.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_request() {
        let mut t = Tracer::new();
        t.set_request(7);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        t.set_request(8);
        t.span("outer", |_| ());
        assert_eq!(t.span_count(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[3].parent, None);
        assert_eq!(t.spans[1].request, 7);
        assert_eq!(t.spans[3].request, 8);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        assert_eq!(t.durations_ms("inner").len(), 2);
        assert_eq!(t.per_request_ms("inner").len(), 1);
    }
}
