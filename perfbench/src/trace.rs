//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the operation (one compile, simulation round or job) it
//! belongs to. Spans stay in memory until the run ends and are then
//! written out as one JSON array. With tracing off, [`Tracer::root`] and
//! [`Scope::child`] still time their closure (the benchmark's
//! end-to-end samples come from the same clock reads) but keep nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use valpipe_util::Json;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Shared handle to the span store; cheap to clone into worker threads.
#[derive(Debug, Clone)]
pub struct Tracer {
    rec: Option<Arc<Recorder>>,
}

/// An open span: the parent of any span started inside it.
#[derive(Debug)]
pub struct Scope<'t> {
    tracer: &'t Tracer,
    id: u64,
    op: u64,
}

impl Tracer {
    /// A tracer that records spans when `on`, and only times otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            rec: on.then(|| {
                Arc::new(Recorder {
                    origin: Instant::now(),
                    next_id: AtomicU64::new(1),
                    spans: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.rec.is_some()
    }

    /// Run `f` as a new operation's root span. Returns its result and
    /// its wall time in milliseconds.
    pub fn root<T>(&self, name: &'static str, f: impl FnOnce(&Scope) -> T) -> (T, f64) {
        self.record(name, None, None, f)
    }

    fn record<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: Option<u64>,
        f: impl FnOnce(&Scope) -> T,
    ) -> (T, f64) {
        let id = self
            .rec
            .as_ref()
            .map_or(0, |r| r.next_id.fetch_add(1, Ordering::Relaxed));
        let scope = Scope {
            tracer: self,
            id,
            op: op.unwrap_or(id),
        };
        let start = Instant::now();
        let out = f(&scope);
        let end = Instant::now();
        if let Some(r) = &self.rec {
            let ns = |t: Instant| t.duration_since(r.origin).as_nanos() as u64;
            let span = Span {
                id,
                parent,
                op: scope.op,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            };
            r.spans.lock().expect("span store poisoned").push(span);
        }
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Self time of every recorded span, in milliseconds, grouped by span
    /// name: a span's duration minus the time its direct children cover.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let Some(r) = &self.rec else {
            return out;
        };
        let spans = r.spans.lock().expect("span store poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        for s in spans.iter() {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            out.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// All spans as a JSON array, in start order.
    pub fn to_json(&self) -> Json {
        let Some(r) = &self.rec else {
            return Json::Arr(Vec::new());
        };
        let mut spans = r.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Int(s.id as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("op", Json::Int(s.op as i64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                    ])
                })
                .collect(),
        )
    }
}

impl Scope<'_> {
    /// Run `f` as a child span of this one.
    pub fn child<T>(&self, name: &'static str, f: impl FnOnce(&Scope) -> T) -> (T, f64) {
        self.tracer.record(name, Some(self.id), Some(self.op), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let t = Tracer::new(true);
        t.root("op", |s| {
            s.child("leaf", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let st = t.self_times_ms();
        let leaf = st["leaf"][0];
        let op = st["op"][0];
        assert!(leaf >= 20.0, "leaf {leaf}");
        // The parent's own 5 ms, not the child's 20.
        assert!(op >= 5.0 && op < leaf, "op self {op}, leaf {leaf}");
        assert_eq!(st.values().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let t = Tracer::new(false);
        let (v, ms) = t.root("op", |s| s.child("leaf", |_| 7).0);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.self_times_ms().is_empty());
        assert!(matches!(t.to_json(), Json::Arr(spans) if spans.is_empty()));
    }
}
