//! Spans around the calls the benchmark makes into each layer.
//!
//! A [`Tracer`] belongs to one thread and keeps its spans in memory; the
//! run merges the tracers, derives per-layer self times, and writes the
//! spans as JSON Lines when it ends. With tracing off `enter` is one branch
//! and records nothing, so the same loop serves the untraced comparison.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One call into a layer. `parent == 0` marks a request's root span; ids
/// are unique within a tracer and made unique across tracers by `thread`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub thread: u32,
    pub req: u64,
    pub id: u32,
    pub parent: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The layer name of root spans: the request as the caller sees it.
pub const REQUEST: &str = "request";

pub struct Tracer {
    on: bool,
    thread: u32,
    epoch: Instant,
    spans: Vec<Span>,
    /// The request being traced and its open spans, innermost last: calls
    /// nest, so a new span's parent is whatever is open.
    req: u64,
    open: Vec<u32>,
}

impl Tracer {
    /// `epoch` is shared by all tracers of a run so their spans line up;
    /// `thread` must differ between tracers whose spans are merged.
    pub fn new(on: bool, thread: u32, epoch: Instant) -> Tracer {
        Tracer {
            on,
            thread,
            epoch,
            spans: Vec::new(),
            req: 0,
            open: Vec::new(),
        }
    }

    /// Open the root span of request `req`. Returns its id (0 when tracing
    /// is off), to be handed to [`Tracer::exit`].
    pub fn request(&mut self, req: u64, name: &'static str) -> u32 {
        debug_assert!(self.open.is_empty(), "a request inside a request");
        self.req = req;
        self.enter(REQUEST, name)
    }

    /// Open a span for a call into `layer`, inside whatever span is open.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            thread: self.thread,
            req: self.req,
            id,
            parent: self.open.last().copied().unwrap_or(0),
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Move the start of open span `id` back to `start_ns` after the epoch:
    /// a queue wait is only known once the consumer picks the job up.
    pub fn started_at(&mut self, id: u32, start_ns: u64) {
        if id != 0 {
            self.spans[id as usize - 1].start_ns = start_ns;
        }
    }

    /// Close span `id`, the innermost open one.
    pub fn exit(&mut self, id: u32) {
        if id != 0 {
            debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
            self.open.pop();
            self.spans[id as usize - 1].end_ns = self.now_ns();
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover. Children may nest, overlap each other, or stick out
/// of the parent; only their union inside the parent is subtracted.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

/// What a traced run adds up to.
#[derive(Debug, Default)]
pub struct Summary {
    /// Root spans and their total duration.
    pub requests: u64,
    pub request_ns: u64,
    /// Self time per layer, root spans under [`REQUEST`].
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// Per span name: count and total duration.
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    pub spans: u64,
}

impl Summary {
    /// Share of request time spent inside some layer's span — what the
    /// spans explain. The rest is the harness between calls.
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self
            .layer_self_ns
            .iter()
            .filter(|(l, _)| **l != REQUEST)
            .map(|(_, ns)| ns)
            .sum();
        ratio(covered as f64, self.request_ns as f64)
    }

    pub fn layer_share(&self, layer: &str) -> f64 {
        let ns = self.layer_self_ns.get(layer).copied().unwrap_or(0);
        ratio(ns as f64, self.request_ns as f64)
    }

    /// A layer's self time per request, in microseconds.
    pub fn layer_self_us_per_request(&self, layer: &str) -> f64 {
        let ns = self.layer_self_ns.get(layer).copied().unwrap_or(0);
        ratio(ns as f64 / 1e3, self.requests as f64)
    }

    /// Mean duration of the spans called `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, ns) = self.by_name.get(name).copied().unwrap_or((0, 0));
        ratio(ns as f64 / 1e3, n as f64)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |(n, _)| *n)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: BTreeMap<(u32, u32), Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry((s.thread, s.parent)).or_default().push(s);
    }
    let mut sum = Summary::default();
    for s in spans {
        sum.spans += 1;
        let kids = children.get(&(s.thread, s.id)).map_or(&[][..], |v| &v[..]);
        *sum.layer_self_ns.entry(s.layer).or_insert(0) += self_time_ns(s, kids);
        let e = sum.by_name.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.duration_ns();
        if s.parent == 0 {
            sum.requests += 1;
            sum.request_ns += s.duration_ns();
        }
    }
    sum
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"req\":{},\"span\":\"{}.{}\",\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.req,
            s.thread,
            s.id,
            if s.parent == 0 {
                "null".to_owned()
            } else {
                format!("\"{}.{}\"", s.thread, s.parent)
            },
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            thread: 0,
            req: 1,
            id,
            parent,
            layer,
            name: layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let parent = span(1, 0, REQUEST, 0, 100);
        let a = span(2, 1, "store", 10, 60);
        // A grandchild is not a child: it is already inside `a`.
        assert_eq!(self_time_ns(&parent, &[&a]), 50);
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        let parent = span(1, 0, REQUEST, 0, 100);
        let a = span(2, 1, "engine", 10, 50);
        let b = span(3, 1, "engine", 40, 70);
        let c = span(4, 1, "parser", 80, 90);
        // Union of [10,50) [40,70) [80,90) is 70 ns.
        assert_eq!(self_time_ns(&parent, &[&a, &b, &c]), 30);
    }

    #[test]
    fn self_time_clips_children_that_stick_out() {
        let parent = span(1, 0, REQUEST, 50, 100);
        let early = span(2, 1, "queue", 0, 60);
        let late = span(3, 1, "store", 90, 150);
        let outside = span(4, 1, "store", 200, 300);
        assert_eq!(self_time_ns(&parent, &[&early, &late, &outside]), 30);
    }

    #[test]
    fn summary_attributes_self_time_to_layers() {
        let spans = vec![
            span(1, 0, REQUEST, 0, 100),
            span(2, 1, "parser", 0, 10),
            span(3, 1, "store", 10, 95),
            span(4, 3, "engine", 20, 60),
        ];
        let sum = summarize(&spans);
        assert_eq!(sum.requests, 1);
        assert_eq!(sum.request_ns, 100);
        assert_eq!(sum.layer_self_ns["parser"], 10);
        assert_eq!(sum.layer_self_ns["store"], 45);
        assert_eq!(sum.layer_self_ns["engine"], 40);
        assert_eq!(sum.layer_self_ns[REQUEST], 5);
        assert!((sum.coverage() - 0.95).abs() < 1e-12);
        assert!((sum.layer_share("store") - 0.45).abs() < 1e-12);
        assert_eq!(sum.count("engine"), 1);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        let id = t.request(1, "op");
        t.exit(id);
        assert_eq!(id, 0);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn tracer_on_links_calls_to_the_span_they_nest_in() {
        let mut t = Tracer::new(true, 3, Instant::now());
        let root = t.request(9, "op");
        let tx = t.enter("store", "transaction");
        let solve = t.enter("engine", "solve");
        t.exit(solve);
        t.exit(tx);
        let parse = t.enter("parser", "parse_goal");
        t.started_at(parse, 0);
        t.exit(parse);
        t.exit(root);
        let spans = t.into_spans();
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![0, root, tx, root]);
        assert!(spans.iter().all(|s| s.req == 9 && s.thread == 3));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[3].start_ns, 0);
    }
}
