//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program: a root span around every
//! call into the public API, and child spans from [`crate::traced_store`]
//! around every object-store request. They stay in memory until the run
//! ends and are then written as one JSON file. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans cover
//! ([`covered_ns`] takes the union, so overlapping children — batched or
//! prefetching requests — are not counted twice).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Id of the operation (root span) this span belongs to.
    pub op_id: u64,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
    pub items: u64,
    pub ok: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span sink shared by the harness and the traced stores.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// The root span object-store requests are attributed to. The harness
    /// sets it around each operation; while operations overlap (`mixed-rw`
    /// load phase) it is the phase root.
    current_root: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Tracer::finish`] closes it.
pub struct OpenSpan {
    id: u64,
    parent: u64,
    op_id: u64,
    layer: &'static str,
    name: String,
    start_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current_root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a root span and make it the attribution target of store requests.
    pub fn root(&self, layer: &'static str, name: impl Into<String>) -> OpenSpan {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.current_root.store(id, Ordering::SeqCst);
        OpenSpan {
            id,
            parent: 0,
            op_id: id,
            layer,
            name: name.into(),
            start_ns: self.now_ns(),
        }
    }

    /// Open a span below the current root (or below nothing, outside any
    /// operation): a store request, or one of several overlapping operations
    /// of a phase whose root stays current.
    pub fn child(&self, layer: &'static str, name: impl Into<String>) -> OpenSpan {
        let root = self.current_root.load(Ordering::SeqCst);
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: root,
            op_id: root,
            layer,
            name: name.into(),
            start_ns: self.now_ns(),
        }
    }

    /// Close `span`. Closing the current root clears the attribution target.
    pub fn finish(&self, span: OpenSpan, bytes: u64, items: u64, ok: bool) -> Span {
        let end_ns = self.now_ns();
        if span.parent == 0 {
            let _ =
                self.current_root
                    .compare_exchange(span.id, 0, Ordering::SeqCst, Ordering::SeqCst);
        }
        let done = Span {
            id: span.id,
            parent: span.parent,
            op_id: span.op_id,
            layer: span.layer,
            name: span.name,
            start_ns: span.start_ns,
            end_ns,
            bytes,
            items,
            ok,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(done.clone());
        done
    }

    /// A copy of every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
pub fn covered_ns(start: u64, end: u64, intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        if e > cursor {
            covered += e - s.max(cursor);
            cursor = e;
        }
    }
    covered
}

/// Self time of `span`: its duration minus what the union of `children` covers.
pub fn self_ns<'a>(span: &Span, children: impl IntoIterator<Item = &'a Span>) -> u64 {
    span.duration_ns()
        - covered_ns(
            span.start_ns,
            span.end_ns,
            children.into_iter().map(|c| (c.start_ns, c.end_ns)),
        )
}

/// Render spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op_id\":{},\"layer\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"items\":{},\"ok\":{}}}",
            s.id,
            s.parent,
            s.op_id,
            crate::json::quote(s.layer),
            crate::json::quote(&s.name),
            s.start_ns,
            s.end_ns,
            s.bytes,
            s.items,
            s.ok
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 1,
            layer: "t",
            name: String::new(),
            start_ns,
            end_ns,
            bytes: 0,
            items: 0,
            ok: true,
        }
    }

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let root = span(1, 0, 100, 1100);
        // Disjoint children.
        let kids = [span(2, 1, 200, 300), span(3, 1, 500, 700)];
        assert_eq!(self_ns(&root, &kids), 1000 - 300);
        // Overlapping children count their union once: [200,600) ∪ [400,900) = 700.
        let kids = [span(2, 1, 200, 600), span(3, 1, 400, 900)];
        assert_eq!(self_ns(&root, &kids), 1000 - 700);
        // Nested child adds nothing; identical children count once.
        let kids = [
            span(2, 1, 200, 900),
            span(3, 1, 300, 400),
            span(4, 1, 200, 900),
        ];
        assert_eq!(self_ns(&root, &kids), 1000 - 700);
        // Children reaching outside the parent are clipped to it.
        let kids = [
            span(2, 1, 0, 150),
            span(3, 1, 1000, 2000),
            span(4, 1, 5000, 6000),
        ];
        assert_eq!(self_ns(&root, &kids), 1000 - 50 - 100);
        // Full coverage leaves zero, never underflows.
        let kids = [span(2, 1, 0, 2000), span(3, 1, 100, 1100)];
        assert_eq!(self_ns(&root, &kids), 0);
        assert_eq!(self_ns(&root, &[]), 1000);
    }

    #[test]
    fn children_attach_to_the_current_root() {
        let t = Tracer::default();
        let orphan = t.child("oss", "get");
        t.finish(orphan, 0, 1, true);
        let root = t.root("lnode", "backup v0");
        let kid = t.child("oss", "put");
        t.finish(kid, 10, 1, true);
        let root_id = t.finish(root, 0, 0, true).id;
        let late = t.child("oss", "get");
        t.finish(late, 0, 1, true);
        let spans = t.spans();
        assert_eq!(spans[0].parent, 0);
        assert_eq!((spans[1].parent, spans[1].op_id), (root_id, root_id));
        assert_eq!(spans[2].id, root_id);
        assert_eq!(spans[3].parent, 0, "a finished root no longer adopts");
        assert!(to_json(&spans).contains("\"name\":\"backup v0\""));
    }
}
