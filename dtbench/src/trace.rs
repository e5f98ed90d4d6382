//! Spans recorded from the benchmark's side of each layer boundary, kept
//! in memory and written out when the workload ends.

use std::time::Instant;

use crate::json::quote;
use crate::stats::Samples;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation (repeat, request, delta, restart) share it.
    pub op: u64,
}

/// One thread's span log; logs of several threads merge with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; returns its value and the span's index.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let value = f();
        (value, self.record(name, parent, op, start, Instant::now()))
    }

    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn ms_of(&self, index: usize) -> f64 {
        (self.spans[index].end_us - self.spans[index].start_us) / 1e3
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Samples {
        Samples::new(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_us - s.start_us) / 1e3)
                .collect(),
        )
    }

    /// Append another thread's log, re-basing its parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn to_json(&self, workload: &str) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"name\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"op\":{}}}",
                    quote(&s.name),
                    s.start_us,
                    s.end_us,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.op,
                )
            })
            .collect();
        format!(
            "{{\"workload\":{},\"spans\":[\n{}\n]}}\n",
            quote(workload),
            spans.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_nest_merge_and_serialise() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let ((), root) = a.span("op", None, 7, || {});
        let (v, child) = a.span("layer", Some(root), 7, || 41 + 1);
        assert_eq!((v, a.spans[child].parent), (42, Some(root)));
        let mut b = Tracer::new(origin);
        let ((), r) = b.span("op", None, 8, || {});
        b.span("layer", Some(r), 8, || {});
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2), "parents re-based on merge");
        assert_eq!(a.durations_ms("layer").len(), 2);
        let doc = Json::parse(&a.to_json("w")).unwrap();
        assert_eq!(doc.get("spans").unwrap().items().len(), 4);
        assert_eq!(
            doc.get("spans").unwrap().items()[3]
                .get("op")
                .unwrap()
                .num(),
            Some(8.0)
        );
    }
}
