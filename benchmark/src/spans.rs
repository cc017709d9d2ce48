//! In-memory span recording for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer, into a pre-sized vector; nothing is written until the pass
//! ends. A span's self time is its duration minus what its direct children
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one request.
    pub request: u64,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

/// Total self time and span count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub self_ns: u64,
    pub count: u64,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    pub fn clear(&mut self) {
        self.spans.clear();
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn start_ns(&self, id: u32) -> u64 {
        self.spans[id as usize].start_ns
    }

    /// Opens a span starting now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        let start_ns = self.now();
        self.push(name, start_ns, start_ns, parent, request)
    }

    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Records a finished span (used for intervals taken from counters).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    /// The self time of the recorded spans, by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut totals: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = totals.entry(span.name).or_default();
            entry.self_ns += (span.end_ns - span.start_ns).saturating_sub(covered);
            entry.count += 1;
        }
        totals
    }

    /// Writes the recorded spans as one JSON array of
    /// `{name, start_ns, end_ns, parent, request}` objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                span.name, span.start_ns, span.end_ns, parent, span.request
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut rec = Recorder::with_capacity(4);
        let load = rec.push("load", 0, 100, None, 1);
        rec.push("parse", 10, 30, Some(load), 1);
        rec.push("decode", 30, 90, Some(load), 1);
        let totals = rec.self_times();
        assert_eq!(totals["load"].self_ns, 20);
        assert_eq!(totals["parse"].self_ns, 20);
        assert_eq!(totals["decode"].self_ns, 60);
        assert_eq!(totals["load"].count, 1);
    }
}
