//! Hierarchical phase tracing.
//!
//! A trace is a forest of spans. Opening a [`Span`] (via [`span`] or,
//! from a worker thread, [`span_under`]) records a node in a
//! process-wide arena; dropping the guard closes it with its elapsed
//! monotonic time. Parentage comes from a thread-local span stack, so
//! same-thread nesting is automatic, and cross-thread children attach
//! by passing the parent's [`SpanId`] into the spawned closure —
//! attribution stays correct under work-stealing waves.
//!
//! Everything is gated behind one process-wide flag ([`set_tracing`]).
//! Disabled, a span open/close performs exactly one relaxed atomic
//! load and a monotonic clock read (the clock read backs
//! [`Span::elapsed_ms`], which callers use for stats fields whether or
//! not tracing is on); no allocation, no locking, no shared-state
//! writes. The bench harness's `obs` experiment pins that cost below
//! 1% of pipeline wall time.
//!
//! [`take_trace`] drains the arena into a [`Trace`]: a tree with
//! per-span durations and counters plus the drained event log, a
//! human-readable stderr rendering ([`Trace::render`]), and a
//! deterministic JSON export ([`Trace::to_json`]) — fixed key order,
//! integers only, counters sorted by name.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::ring::{Event, Ring};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Capacity of the process-wide event ring.
const EVENT_CAPACITY: usize = 256;

struct Node {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: Option<u64>,
    counters: Vec<(&'static str, u64)>,
}

struct Arena {
    epoch: Instant,
    nodes: Vec<Node>,
}

fn arena() -> &'static Mutex<Arena> {
    static ARENA: OnceLock<Mutex<Arena>> = OnceLock::new();
    ARENA.get_or_init(|| {
        Mutex::new(Arena {
            epoch: Instant::now(),
            nodes: Vec::new(),
        })
    })
}

fn events() -> &'static Ring<Event> {
    static EVENTS: OnceLock<Ring<Event>> = OnceLock::new();
    EVENTS.get_or_init(|| Ring::new(EVENT_CAPACITY))
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Turns tracing on or off process-wide. Turning it on starts a fresh
/// trace: any spans or events from a previous epoch are discarded.
pub fn set_tracing(on: bool) {
    if on {
        let mut a = arena().lock().expect("trace arena poisoned");
        a.nodes.clear();
        a.epoch = Instant::now();
        drop(a);
        events().drain();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether tracing is currently enabled. One relaxed load.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An opaque reference to an open span, for cross-thread child
/// attribution. Copyable and sendable; resolves to "no parent" when it
/// was taken while tracing was disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The innermost span open on *this* thread (the would-be parent of
/// the next [`span`] call). Capture it before spawning workers and
/// hand it to [`span_under`] inside them.
pub fn current() -> SpanId {
    if !tracing_enabled() {
        return SpanId(None);
    }
    SpanId(STACK.with(|s| s.borrow().last().copied()))
}

/// An RAII phase guard. Created by [`span`] / [`span_under`]; the
/// phase closes when the guard drops.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    start: Instant,
    id: Option<usize>,
}

/// Opens a span named `name` under the innermost span open on this
/// thread (or as a root). With tracing disabled this is a no-op guard:
/// the enable flag is checked before any shared state is touched.
pub fn span(name: &'static str) -> Span {
    let start = Instant::now();
    if !tracing_enabled() {
        return Span { start, id: None };
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    open(name, parent, start)
}

/// Opens a span named `name` as a child of `parent` — the cross-thread
/// form: capture [`current`] before spawning, call this inside the
/// worker.
pub fn span_under(parent: SpanId, name: &'static str) -> Span {
    let start = Instant::now();
    if !tracing_enabled() {
        return Span { start, id: None };
    }
    open(name, parent.0, start)
}

fn open(name: &'static str, parent: Option<usize>, start: Instant) -> Span {
    let mut a = arena().lock().expect("trace arena poisoned");
    let start_ns = start.saturating_duration_since(a.epoch).as_nanos() as u64;
    let id = a.nodes.len();
    a.nodes.push(Node {
        name,
        parent,
        start_ns,
        dur_ns: None,
        counters: Vec::new(),
    });
    drop(a);
    STACK.with(|s| s.borrow_mut().push(id));
    Span {
        start,
        id: Some(id),
    }
}

impl Span {
    /// This span's id, for parenting children opened on other threads.
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }

    /// Milliseconds since the span opened. Works with tracing disabled
    /// too — this is the one-clock replacement for ad-hoc
    /// `Instant::now()` stage timing.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Adds `value` to the span-local counter `name` (created at 0).
    /// No-op with tracing disabled.
    pub fn counter(&self, name: &'static str, value: u64) {
        let Some(id) = self.id else { return };
        let mut a = arena().lock().expect("trace arena poisoned");
        // the arena may have been reset under us by set_tracing(true)
        let Some(node) = a.nodes.get_mut(id) else {
            return;
        };
        match node.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => node.counters.push((name, value)),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let dur = self.start.elapsed().as_nanos() as u64;
        if let Ok(mut a) = arena().lock() {
            if let Some(node) = a.nodes.get_mut(id) {
                node.dur_ns = Some(dur);
            }
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
    }
}

/// Records a discrete lifecycle fact into the process-wide event ring.
/// `detail` is only invoked (and the string only built) when tracing is
/// enabled, so disabled call sites pay one flag load.
pub fn event<F: FnOnce() -> String>(kind: &'static str, detail: F) {
    if !tracing_enabled() {
        return;
    }
    let ring = events();
    let seq = ring.total();
    ring.push(Event {
        seq,
        kind,
        detail: detail(),
    });
}

/// One span in a drained [`Trace`], children in open order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Phase name.
    pub name: &'static str,
    /// Nanoseconds from the trace epoch to the span opening.
    pub start_ns: u64,
    /// Nanoseconds the span was open (elapsed-so-far if never closed).
    pub dur_ns: u64,
    /// Span-local counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Child spans.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Sum of direct children's durations.
    pub fn child_ns(&self) -> u64 {
        self.children.iter().map(|c| c.dur_ns).sum()
    }
}

/// A drained trace: root spans plus the event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Top-level spans in open order.
    pub roots: Vec<SpanNode>,
    /// Drained lifecycle events, oldest first.
    pub events: Vec<Event>,
}

/// Drains the trace arena and event ring. Returns `None` when nothing
/// was recorded (tracing never enabled, or already drained).
pub fn take_trace() -> Option<Trace> {
    let nodes: Vec<Node> = {
        let mut a = arena().lock().expect("trace arena poisoned");
        let now_ns = a.epoch.elapsed().as_nanos() as u64;
        let mut nodes = std::mem::take(&mut a.nodes);
        for n in &mut nodes {
            if n.dur_ns.is_none() {
                n.dur_ns = Some(now_ns.saturating_sub(n.start_ns));
            }
        }
        nodes
    };
    let events = events().drain();
    if nodes.is_empty() && events.is_empty() {
        return None;
    }
    // arena order is open order; build the forest bottom-up
    let mut built: Vec<Option<SpanNode>> = nodes
        .iter()
        .map(|n| {
            let mut counters = n.counters.clone();
            counters.sort_by_key(|(name, _)| *name);
            Some(SpanNode {
                name: n.name,
                start_ns: n.start_ns,
                dur_ns: n.dur_ns.unwrap_or(0),
                counters,
                children: Vec::new(),
            })
        })
        .collect();
    let mut roots = Vec::new();
    for i in (0..nodes.len()).rev() {
        let node = built[i].take().expect("taken once");
        match nodes[i].parent {
            // children were collected in reverse; restore open order
            Some(p) if p < i => {
                let parent = built[p].as_mut().expect("parent outlives child index");
                parent.children.insert(0, node);
            }
            _ => roots.push(node),
        }
    }
    roots.reverse();
    Some(Trace { roots, events })
}

impl Trace {
    /// Deterministic JSON export: `{"spans":[…],"events":[…]}` with
    /// fixed key order, integer nanoseconds, counters sorted by name.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"spans\":[");
        for (i, root) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            span_json(root, &mut out);
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"seq\":");
            out.push_str(&e.seq.to_string());
            out.push_str(",\"kind\":");
            json_string(e.kind, &mut out);
            out.push_str(",\"detail\":");
            json_string(&e.detail, &mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Human-readable tree for stderr. Same-name siblings are
    /// aggregated (`local-decompose ×37`) with summed durations and
    /// counters, so wave-parallel phases stay one line each.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let groups = aggregate(&self.roots);
        for g in &groups {
            render_group(g, 0, &mut out);
        }
        if !self.events.is_empty() {
            out.push_str(&format!("events ({}):\n", self.events.len()));
            for e in &self.events {
                out.push_str(&format!("  [{}] {}: {}\n", e.seq, e.kind, e.detail));
            }
        }
        out
    }
}

fn span_json(node: &SpanNode, out: &mut String) {
    out.push_str("{\"name\":");
    json_string(node.name, out);
    out.push_str(",\"start_ns\":");
    out.push_str(&node.start_ns.to_string());
    out.push_str(",\"dur_ns\":");
    out.push_str(&node.dur_ns.to_string());
    out.push_str(",\"counters\":{");
    for (i, (k, v)) in node.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(k, out);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push_str("},\"children\":[");
    for (i, c) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        span_json(c, out);
    }
    out.push_str("]}");
}

fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Same-name siblings merged: count, summed duration and counters,
/// recursively aggregated children.
struct Group {
    name: &'static str,
    count: usize,
    dur_ns: u64,
    counters: Vec<(&'static str, u64)>,
    children: Vec<Group>,
}

fn aggregate(siblings: &[SpanNode]) -> Vec<Group> {
    let mut groups: Vec<(&'static str, Vec<&SpanNode>)> = Vec::new();
    for s in siblings {
        match groups.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, members)) => members.push(s),
            None => groups.push((s.name, vec![s])),
        }
    }
    groups
        .into_iter()
        .map(|(name, members)| {
            let mut counters: Vec<(&'static str, u64)> = Vec::new();
            let mut grandchildren: Vec<SpanNode> = Vec::new();
            for m in &members {
                for &(k, v) in &m.counters {
                    match counters.iter_mut().find(|(n, _)| *n == k) {
                        Some((_, sum)) => *sum += v,
                        None => counters.push((k, v)),
                    }
                }
                grandchildren.extend(m.children.iter().cloned());
            }
            counters.sort_by_key(|(n, _)| *n);
            Group {
                name,
                count: members.len(),
                dur_ns: members.iter().map(|m| m.dur_ns).sum(),
                counters,
                children: aggregate(&grandchildren),
            }
        })
        .collect()
}

fn render_group(g: &Group, depth: usize, out: &mut String) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(g.name);
    if g.count > 1 {
        out.push_str(&format!(" ×{}", g.count));
    }
    out.push_str(&format!(" {:.2}ms", g.dur_ns as f64 / 1e6));
    for (k, v) in &g.counters {
        out.push_str(&format!(" {k}={v}"));
    }
    out.push('\n');
    for c in &g.children {
        render_group(c, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is process-global; every test in this module runs
    /// under one lock so enable/drain epochs never interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = serial();
        set_tracing(false);
        let s = span("never");
        s.counter("x", 1);
        event("never", || "unreached".into());
        assert!(s.elapsed_ms() >= 0.0);
        drop(s);
        assert!(take_trace().is_none());
    }

    #[test]
    fn nesting_follows_the_thread_stack() {
        let _g = serial();
        set_tracing(true);
        {
            let root = span("root");
            root.counter("k", 2);
            root.counter("k", 3);
            {
                let _a = span("a");
                let _deeper = span("deep");
            }
            let _b = span("b");
        }
        set_tracing(false);
        let t = take_trace().expect("trace recorded");
        assert_eq!(t.roots.len(), 1);
        let root = &t.roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.counters, vec![("k", 5)]);
        let names: Vec<_> = root.children.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(root.children[0].children[0].name, "deep");
    }

    #[test]
    fn cross_thread_children_attach_to_the_given_parent() {
        let _g = serial();
        set_tracing(true);
        {
            let root = span("wave");
            let ctx = root.id();
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(move || {
                        let w = span_under(ctx, "worker");
                        w.counter("items", 1);
                    });
                }
            });
        }
        set_tracing(false);
        let t = take_trace().expect("trace recorded");
        assert_eq!(t.roots.len(), 1, "workers must not become roots");
        let root = &t.roots[0];
        assert_eq!(root.children.len(), 3);
        assert!(root.children.iter().all(|c| c.name == "worker"));
        // the render aggregates the three workers into one line
        let rendered = t.render();
        assert!(rendered.contains("worker ×3"), "{rendered}");
        assert!(rendered.contains("items=3"), "{rendered}");
    }

    #[test]
    fn events_are_recorded_and_drained() {
        let _g = serial();
        set_tracing(true);
        event("cache", || "Hit a.txt".into());
        event("cache", || "Built b.txt".into());
        set_tracing(false);
        let t = take_trace().expect("events recorded");
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].kind, "cache");
        assert_eq!(t.events[0].seq, 0);
        assert_eq!(t.events[1].detail, "Built b.txt");
        assert!(take_trace().is_none(), "drained");
    }

    #[test]
    fn json_export_is_deterministic_and_parseable_shape() {
        let _g = serial();
        set_tracing(true);
        {
            let root = span("solve");
            root.counter("b", 1);
            root.counter("a", 2);
            let _c = span("child");
        }
        event("sys", || "up \"quoted\"".into());
        set_tracing(false);
        let t = take_trace().expect("trace recorded");
        let json = t.to_json();
        assert!(json.starts_with("{\"spans\":["));
        // counters sorted by name regardless of insertion order
        assert!(json.contains("\"counters\":{\"a\":2,\"b\":1}"), "{json}");
        assert!(json.contains("\"name\":\"child\""));
        assert!(json.contains("\"detail\":\"up \\\"quoted\\\"\""), "{json}");
        // span-tree invariant the CI step relies on
        assert!(t.roots[0].child_ns() <= t.roots[0].dur_ns);
    }

    #[test]
    fn enabling_resets_the_previous_epoch() {
        let _g = serial();
        set_tracing(true);
        let _ = span("old");
        set_tracing(true); // fresh epoch
        {
            let _s = span("new");
        }
        set_tracing(false);
        let t = take_trace().expect("trace recorded");
        assert_eq!(t.roots.len(), 1);
        assert_eq!(t.roots[0].name, "new");
    }

    #[test]
    fn unclosed_spans_report_elapsed_so_far() {
        let _g = serial();
        set_tracing(true);
        let s = span("open");
        std::thread::sleep(std::time::Duration::from_millis(2));
        set_tracing(false);
        let t = take_trace().expect("trace recorded");
        assert_eq!(t.roots[0].name, "open");
        assert!(t.roots[0].dur_ns > 0);
        drop(s); // drop after drain: must not panic
    }
}
