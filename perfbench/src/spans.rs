//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer, kept
//! in memory and written out when the run ends. They do not come from the
//! program's telemetry, so a change to that telemetry cannot change how
//! the program is measured.
//!
//! A span that the benchmark re-drives outside the op (a compile stage
//! re-run on the op's source, a launch replayed on the bound binary) is
//! *grafted* into the op's tree: laid out inside its parent, after the
//! parent's earlier grafted children, and clipped to the parent's end.
//! A span's self time is its duration minus the part of it its children
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Where the next grafted child of each span starts.
    cursor: BTreeMap<usize, u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            cursor: BTreeMap::new(),
        }
    }
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a measured span from `start` to `end`.
    pub fn record(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(name, op, parent, start, end)
    }

    fn push(&mut self, name: &str, op: u64, parent: Option<usize>, start: u64, end: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Graft a re-driven span of `dur_ns` into `parent` (see module docs).
    pub fn graft(&mut self, name: &str, parent: usize, dur_ns: u64) -> usize {
        let p = &self.spans[parent];
        let (op, pend) = (p.op, p.end);
        let start = *self.cursor.get(&parent).unwrap_or(&p.start);
        let end = (start + dur_ns).min(pend);
        self.cursor.insert(parent, end);
        self.push(name, op, Some(parent), start.min(pend), end)
    }

    /// Self time of every span, in nanoseconds.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Duration minus the union of the children's intervals (clipped to the
/// span), per span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// The crate a span name belongs to: the text before the first `.`.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: name.into(),
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a.x", Some(0), 10, 40),
            // Overlaps the first child: 30..40 must not count twice.
            span("a.y", Some(0), 30, 60),
            // Pokes past the parent's end: only 90..100 is covered.
            span("b.z", Some(0), 90, 130),
            span("c.w", Some(1), 15, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 50 - 10);
        assert_eq!(st[1], 30 - 5);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 40);
        assert_eq!(st[4], 5);
    }

    #[test]
    fn grafted_children_lay_out_in_order_and_clip() {
        let mut r = Recorder::default();
        let root = r.push("op", 7, None, 1_000, 1_100);
        let a = r.graft("x.a", root, 30);
        let b = r.graft("x.b", root, 50);
        let c = r.graft("x.c", root, 50);
        assert_eq!((r.spans[a].start, r.spans[a].end), (1_000, 1_030));
        assert_eq!((r.spans[b].start, r.spans[b].end), (1_030, 1_080));
        // Clipped at the parent's end.
        assert_eq!((r.spans[c].start, r.spans[c].end), (1_080, 1_100));
        assert_eq!(r.spans[c].op, 7);
        assert_eq!(r.self_times()[root], 0);
    }

    #[test]
    fn layer_is_the_name_prefix() {
        assert_eq!(layer("ks-opt.cse"), "ks-opt");
        assert_eq!(layer("op"), "op");
    }
}
