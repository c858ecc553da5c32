//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the run began),
//! the span that caused it, and a request id that all spans of one request
//! share. Spans are only recorded in a traced run; they are kept in memory
//! and written out as one JSON document when the run ends. Self time is a
//! span's duration minus the part of it that its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique id (1-based).
    pub id: u64,
    /// Causing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `exp.execute`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    on: std::sync::atomic::AtomicBool,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        epoch: Instant::now(),
        on: std::sync::atomic::AtomicBool::new(false),
        next: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    tracer().on.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    tracer().on.load(Ordering::SeqCst)
}

fn ns_since_epoch(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(tracer().epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Open span; records itself when dropped. Nested guards on one thread
/// become each other's children.
pub struct Guard {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Instant,
}

/// Opens a span under the innermost open span of this thread. Inert (and
/// `None`) when tracing is off.
#[must_use]
pub fn span(name: &'static str, request: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = tracer().next.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Some(Guard { id, parent, name, request, start: Instant::now() })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        push(SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            request: self.request,
            start_ns: ns_since_epoch(self.start),
            end_ns: ns_since_epoch(end),
        });
    }
}

impl Guard {
    /// The span's id, for spans recorded later on other threads.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Records a span measured elsewhere (another thread, or timed from a due
/// time rather than a call). No-op when tracing is off.
pub fn record(name: &'static str, parent: Option<u64>, request: u64, start: Instant, end: Instant) {
    if enabled() {
        let id = tracer().next.fetch_add(1, Ordering::Relaxed);
        push(SpanRec {
            id,
            parent,
            name,
            request,
            start_ns: ns_since_epoch(start),
            end_ns: ns_since_epoch(end),
        });
    }
}

fn push(rec: SpanRec) {
    tracer().spans.lock().expect("span list lock").push(rec);
}

/// Every span recorded so far, in completion order.
#[must_use]
pub fn spans() -> Vec<SpanRec> {
    tracer().spans.lock().expect("span list lock").clone()
}

/// Per-name totals: `(count, total ns, self ns)`.
#[must_use]
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get(&s.id).map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The trace document: the run stamp, per-name totals with self time, and
/// every span.
#[must_use]
pub fn document(stamp_json: &str) -> String {
    let spans = spans();
    let mut out = String::new();
    let _ = write!(out, "{{\n\"stamp\": {stamp_json},\n\"summary\": {{");
    for (i, (name, (count, total, own))) in self_times(&spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  \"{name}\": {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    out.push_str("\n},\n\"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}\n  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.name, s.request, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> SpanRec {
        SpanRec { id, parent, name, request: 0, start_ns: a, end_ns: b }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, None, "outer", 0, 100),
            rec(2, Some(1), "child", 10, 40),
            // Overlaps the first child: only 40..50 is new coverage.
            rec(3, Some(1), "child", 30, 50),
            // Sticks out past the parent: clipped to 90..100.
            rec(4, Some(1), "child", 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["outer"], (1, 100, 100 - 40 - 10));
        assert_eq!(t["child"], (3, 30 + 20 + 30, 80));
    }

    #[test]
    fn covered_handles_disjoint_and_empty_sets() {
        assert_eq!(covered_ns(0, 10, &[]), 0);
        assert_eq!(covered_ns(0, 10, &[(1, 2), (4, 6)]), 3);
        assert_eq!(covered_ns(5, 10, &[(0, 3)]), 0);
    }
}
