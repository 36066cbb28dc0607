//! The benchmark's own span recorder.
//!
//! Spans are recorded *from outside* the program: the adapter
//! (`surface.rs`) wraps every call into the system in [`span`], so a
//! span's interval is one public call, its parent is the span that was
//! open on the same thread when it started, and its `op` is the
//! benchmark operation (request, sweep, prepare…) it belongs to. Nothing
//! inside the program is instrumented — that is a later change — so a
//! composite's self time is its interval minus the children the
//! decomposition pass re-executes, not an in-situ measurement.
//!
//! Disarmed (every untraced run) a span costs one relaxed atomic load.
//! Armed, spans and counts accumulate in memory and are written out once,
//! when the run ends.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// The benchmark operation this span belongs to, 0 outside any.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

// Relaxed is enough: the flag publishes no data, and spans recorded
// around the moment it flips are discarded or kept whole either way.
static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static LOG: Mutex<Option<Recorder>> = Mutex::new(None);

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

fn with_recorder<T>(f: impl FnOnce(&mut Recorder) -> T) -> Option<T> {
    LOG.lock()
        .expect("no span is recorded while panicking")
        .as_mut()
        .map(f)
}

/// Starts recording (drops whatever an earlier arm left behind).
pub fn arm() {
    *LOG.lock().expect("span log poisoned") = Some(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        counts: BTreeMap::new(),
    });
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops recording and hands back everything recorded since [`arm`].
pub fn disarm() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    ARMED.store(false, Ordering::Relaxed);
    LOG.lock()
        .expect("span log poisoned")
        .take()
        .map(|r| (r.spans, r.counts))
        .unwrap_or_default()
}

pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !armed() {
        return f();
    }
    let Some(start_ns) = with_recorder(|r| r.epoch.elapsed().as_nanos() as u64) else {
        return f();
    };
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let out = f();
    CURRENT.with(|c| c.set(parent));
    let op = OP.with(Cell::get);
    with_recorder(|r| {
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            id,
            parent,
            op,
            start_ns,
            end_ns,
        });
    });
    out
}

/// Runs `f` as benchmark operation `op`: every span opened on this
/// thread meanwhile carries the id.
pub fn in_op<T>(op: u64, f: impl FnOnce() -> T) -> T {
    let before = OP.with(|c| c.replace(op));
    let out = f();
    OP.with(|c| c.set(before));
    out
}

/// A fresh operation id.
pub fn next_op() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Adds `n` to the count `name` (work done at a layer boundary).
pub fn count(name: &'static str, n: u64) {
    if armed() {
        with_recorder(|r| *r.counts.entry(name).or_insert(0) += n);
    }
}

/// Total duration per span name, in milliseconds, with the span count.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0.0, 0));
        e.0 += (s.end_ns - s.start_ns) as f64 / 1e6;
        e.1 += 1;
    }
    out
}

/// One JSON line per span, then one per count — the `trace.jsonl` body.
pub fn to_jsonl(spans: &[Span], counts: &BTreeMap<&'static str, u64>) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns
        ));
    }
    for (name, n) in counts {
        out.push_str(&format!("{{\"count\":\"{name}\",\"value\":{n}}}\n"));
    }
    out
}

/// The recorder is process-global and `cargo test` runs the tests of one
/// binary on parallel threads: every test that arms it holds this.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_count_and_disarm() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(span("off", || 7), 7);
        arm();
        let op = next_op();
        in_op(op, || {
            span("outer", || {
                span("inner", || count("work", 3));
                count("work", 2);
            })
        });
        let (spans, counts) = disarm();
        assert_eq!(counts.get("work"), Some(&5));
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!((inner.op, outer.op), (op, op));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(totals(&spans)["outer"].1, 1);
        // (Other tests' adapter calls may have been recorded meanwhile.)
        let mine = |l: &&str| {
            ["\"outer\"", "\"inner\"", "\"work\""]
                .iter()
                .any(|n| l.contains(n))
        };
        assert_eq!(to_jsonl(&spans, &counts).lines().filter(mine).count(), 3);
        // disarmed again: nothing accumulates, nothing is left behind
        span("after", || ());
        assert!(disarm().0.is_empty());
    }
}
