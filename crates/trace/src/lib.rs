//! # trace — zero-dependency span tracing
//!
//! A minimal instrumentation layer for the two-stage GMRES workspace.  The
//! paper's core claim is that *synchronization*, not flops, dominates s-step
//! GMRES at scale; this crate is what lets the repo measure that claim
//! instead of merely counting reductions (`CommStats`) and words
//! (`OrthoKind::reduce_schedule`).
//!
//! Design:
//!
//! * **Thread-local ring buffers.**  Each recording thread owns a
//!   fixed-capacity ring of [`Event`]s behind an uncontended mutex; a global
//!   registry keeps one handle per thread so [`collect`] can drain every
//!   timeline at once.  When a ring wraps, the oldest events are overwritten
//!   and counted in `dropped` — recording never blocks and never allocates
//!   after the first event on a thread.
//! * **Always-exact aggregates.**  Every span closure also updates a small
//!   per-thread `(cat, name) → {count, total_ns, max_ns}` table, so the
//!   aggregated report ([`Trace::category_ns`], [`thread_category_ns`]) is
//!   exact even when the timeline ring dropped events.
//! * **Complete events.**  Spans are recorded at *close* as a single event
//!   carrying start timestamp + duration (Chrome `"ph":"X"`), halving event
//!   volume versus begin/end pairs.  A per-thread open-span counter still
//!   makes balance checkable: [`stats`] reports `open_spans`, which must be
//!   zero whenever no region is in flight.
//! * **One off-switch.**  A single relaxed atomic load ([`enabled`], off
//!   until [`set_enabled`]) guards every entry point: a disabled [`span`]
//!   never reads the clock, never touches thread-local state, and returns
//!   an inert guard.
//!
//! Timestamps come from one process-wide monotonic epoch
//! ([`std::time::Instant`]), so spans from different threads (simulated
//! ranks) share a comparable timeline.
//!
//! The workspace records these span categories:
//!
//! | category | instrumented layer |
//! |---|---|
//! | `blas3` | `dense` gram / `gemm_tn` / `gemm_nn_minus` / `trsm` / fused update+Gram |
//! | `comm` | every collective and point-to-point send/receive, per rank |
//! | `spmv` | distributed SpMV: local compute, halo pack/send, halo wait |
//! | `mv` | the fused `proj_and_gram` / `update_and_gram` multivector kernels |
//! | `ortho` | both two-stage stages, the CholQR variants, shifted-CholQR fallback instants |
//! | `solver` | the cycle and one span per phase, named by `ssgmres::Phase::label`; step-shrink and `converge_flush` instants |
//! | `fault`, `guard` | instants: each injected fault, each guard detection |
//!
//! Every `bench` binary takes `--trace <out.json>` and writes the Chrome
//! timeline of its run, one lane per thread (the solver, or each simulated
//! rank), for <https://ui.perfetto.dev>.
//!
//! ```
//! trace::set_enabled(true);
//! {
//!     let _s = trace::span("demo", "work", &[("items", 3)]);
//!     // ... traced work ...
//! }
//! trace::set_enabled(false);
//! let t = trace::collect();
//! let json = t.to_chrome_json();
//! assert!(trace::validate_json(&json).is_ok());
//! ```

#![forbid(unsafe_code)]

mod chrome;
mod json;
mod report;

pub use json::{validate_json, JsonValue, JsonWriter};
pub use report::AggRow;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events).  Each event is ~100 bytes, so
/// the default bounds a thread's timeline memory at a few megabytes.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Whether recording is active.  The hot-path guard: one relaxed atomic
/// load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Set the per-thread ring capacity (in events) used by buffers created
/// *after* this call; [`clear`] re-sizes existing buffers to the new value.
pub fn set_capacity(events: usize) {
    CAPACITY.store(events.max(16), Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (first clock use).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// What a timeline [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A closed span: `ts_ns` is the open time, `dur_ns` the length.
    Span { dur_ns: u64 },
    /// A point-in-time marker.
    Instant,
}

/// One timeline event, as stored in a thread's ring buffer.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub kind: EventKind,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    pub cat: &'static str,
    pub name: &'static str,
    /// Up to two named integer arguments (`nargs` are valid).
    pub args: [(&'static str, u64); 2],
    pub nargs: u8,
}

/// A named integer argument of a probe (shown in the timeline UI).
type Arg = (&'static str, u64);

/// The first two of `args`, in an event's fixed-size form.
#[inline]
fn pack(args: &[Arg]) -> ([Arg; 2], u8) {
    let mut out = [("", 0); 2];
    let n = args.len().min(2);
    out[..n].copy_from_slice(&args[..n]);
    (out, n as u8)
}

struct AggCell {
    cat: &'static str,
    name: &'static str,
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

struct Inner {
    label: String,
    ring: Vec<Event>,
    capacity: usize,
    /// Total events ever pushed since the last [`clear`]; `min(pushed,
    /// capacity)` live events end at index `pushed % capacity`.
    pushed: u64,
    agg: Vec<AggCell>,
}

impl Inner {
    fn push(&mut self, ev: Event) {
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            let idx = (self.pushed % self.capacity as u64) as usize;
            self.ring[idx] = ev;
        }
        self.pushed += 1;
    }

    fn dropped(&self) -> u64 {
        self.pushed.saturating_sub(self.ring.len() as u64)
    }

    /// Live events in timestamp order (ring unrolled from the oldest slot).
    fn ordered_events(&self) -> Vec<Event> {
        if self.pushed <= self.capacity as u64 {
            return self.ring.clone();
        }
        let split = (self.pushed % self.capacity as u64) as usize;
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[split..]);
        out.extend_from_slice(&self.ring[..split]);
        out
    }

    fn record_span(&mut self, ev: Event, dur_ns: u64) {
        self.push(ev);
        if let Some(cell) = self
            .agg
            .iter_mut()
            .find(|c| c.cat == ev.cat && c.name == ev.name)
        {
            cell.count += 1;
            cell.total_ns += dur_ns;
            cell.max_ns = cell.max_ns.max(dur_ns);
        } else {
            self.agg.push(AggCell {
                cat: ev.cat,
                name: ev.name,
                count: 1,
                total_ns: dur_ns,
                max_ns: dur_ns,
            });
        }
    }
}

struct ThreadBuf {
    tid: u64,
    /// Spans currently open on this thread (balance check).
    depth: AtomicU64,
    inner: Mutex<Inner>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static BUF: std::cell::OnceCell<Arc<ThreadBuf>> = const { std::cell::OnceCell::new() };
}

fn with_buf<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
    BUF.with(|cell| {
        let buf = cell.get_or_init(|| {
            let capacity = CAPACITY.load(Ordering::Relaxed);
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let label = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let buf = Arc::new(ThreadBuf {
                tid,
                depth: AtomicU64::new(0),
                inner: Mutex::new(Inner {
                    label,
                    ring: Vec::new(),
                    capacity,
                    pushed: 0,
                    agg: Vec::new(),
                }),
            });
            registry()
                .lock()
                .expect("trace registry poisoned")
                .push(buf.clone());
            buf
        });
        f(buf)
    })
}

/// Name the current thread's timeline track (e.g. `"rank 3"`).  Overrides
/// the OS thread name captured when the thread first recorded.
pub fn set_thread_label(label: &str) {
    with_buf(|buf| {
        buf.inner.lock().expect("trace buffer poisoned").label = label.to_string();
    });
}

/// RAII span guard: created by [`span`], records one complete event when
/// dropped.  Must be dropped on the thread that created it (enforced by
/// `!Send`).
pub struct Span {
    t0: u64,
    cat: &'static str,
    name: &'static str,
    args: [Arg; 2],
    nargs: u8,
    armed: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.t0);
        with_buf(|buf| {
            buf.depth.fetch_sub(1, Ordering::Relaxed);
            let mut inner = buf.inner.lock().expect("trace buffer poisoned");
            inner.record_span(
                Event {
                    kind: EventKind::Span { dur_ns },
                    ts_ns: self.t0,
                    cat: self.cat,
                    name: self.name,
                    args: self.args,
                    nargs: self.nargs,
                },
                dur_ns,
            );
        });
    }
}

/// Open a span; it closes (and records) when the returned guard drops.  At
/// most the first two of `args` are recorded.
#[inline]
pub fn span(cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) -> Span {
    let armed = enabled();
    let (args, nargs) = pack(args);
    let t0 = if armed {
        with_buf(|buf| {
            buf.depth.fetch_add(1, Ordering::Relaxed);
        });
        now_ns()
    } else {
        0
    };
    Span {
        t0,
        cat,
        name,
        args,
        nargs,
        armed,
        _not_send: std::marker::PhantomData,
    }
}

/// Record a point-in-time marker with up to two named integer arguments.
#[inline]
pub fn instant(cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let ts_ns = now_ns();
    let (args, nargs) = pack(args);
    with_buf(|buf| {
        let mut inner = buf.inner.lock().expect("trace buffer poisoned");
        inner.push(Event {
            kind: EventKind::Instant,
            ts_ns,
            cat,
            name,
            args,
            nargs,
        });
    });
}

/// Total nanoseconds the *current thread* has spent in closed spans of
/// category `cat` since the last [`clear`].  Exact even when the timeline
/// ring dropped events.  Cheap enough to diff around solver phases: the
/// solver uses deltas of `thread_category_ns("comm")` per cycle to attribute
/// synchronization time.  Returns 0 while disabled (the accumulator simply
/// stops growing).
pub fn thread_category_ns(cat: &str) -> u64 {
    with_buf(|buf| {
        let inner = buf.inner.lock().expect("trace buffer poisoned");
        inner
            .agg
            .iter()
            .filter(|c| c.cat == cat)
            .map(|c| c.total_ns)
            .sum()
    })
}

/// Global recorder statistics, summed across every registered thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events currently held in ring buffers.
    pub events: usize,
    /// Events overwritten because a ring wrapped.
    pub dropped: u64,
    /// Spans currently open (non-zero only while a region is in flight).
    pub open_spans: u64,
}

/// Snapshot recorder statistics (see [`TraceStats`]).
pub fn stats() -> TraceStats {
    let mut out = TraceStats::default();
    for buf in registry().lock().expect("trace registry poisoned").iter() {
        out.open_spans += buf.depth.load(Ordering::Relaxed);
        let inner = buf.inner.lock().expect("trace buffer poisoned");
        out.events += inner.ring.len();
        out.dropped += inner.dropped();
    }
    out
}

/// Discard all recorded events, aggregates, and drop counts on every
/// thread.  Open spans stay open; their eventual close records normally.
pub fn clear() {
    let capacity = CAPACITY.load(Ordering::Relaxed);
    for buf in registry().lock().expect("trace registry poisoned").iter() {
        let mut inner = buf.inner.lock().expect("trace buffer poisoned");
        inner.ring = Vec::new();
        inner.capacity = capacity;
        inner.pushed = 0;
        inner.agg.clear();
    }
}

/// One thread's drained timeline plus its exact aggregates.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    pub tid: u64,
    pub label: String,
    /// Live events in timestamp order (oldest may be missing; see `dropped`).
    pub events: Vec<Event>,
    /// Events overwritten because the ring wrapped.
    pub dropped: u64,
    /// Exact per-(cat, name) span aggregates (immune to ring drops).
    pub spans: Vec<AggRow>,
}

/// A full trace: every thread's timeline, collected by [`collect`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub threads: Vec<ThreadTrace>,
}

/// Copy out every thread's timeline and aggregates.  Non-destructive:
/// buffers keep recording afterwards (use [`clear`] to reset).
pub fn collect() -> Trace {
    let mut threads = Vec::new();
    for buf in registry().lock().expect("trace registry poisoned").iter() {
        let inner = buf.inner.lock().expect("trace buffer poisoned");
        if inner.pushed == 0 && inner.agg.is_empty() {
            continue;
        }
        threads.push(ThreadTrace {
            tid: buf.tid,
            label: inner.label.clone(),
            events: inner.ordered_events(),
            dropped: inner.dropped(),
            spans: inner
                .agg
                .iter()
                .map(|c| AggRow {
                    cat: c.cat.to_string(),
                    name: c.name.to_string(),
                    count: c.count,
                    total_ns: c.total_ns,
                    max_ns: c.max_ns,
                })
                .collect(),
        });
    }
    threads.sort_by_key(|t| t.tid);
    Trace { threads }
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reset() {
        set_enabled(false);
        clear();
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = test_lock();
        reset();
        {
            let _s = span("t", "noop", &[]);
        }
        instant("t", "i", &[]);
        assert_eq!(stats(), TraceStats::default());
    }

    #[test]
    fn spans_record_and_balance() {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        {
            let _outer = span("t", "outer", &[("a", 1), ("b", 2), ("c", 3)]);
            assert_eq!(stats().open_spans, 1);
            let _inner = span("t", "inner", &[("k", 7)]);
            assert_eq!(stats().open_spans, 2);
        }
        set_enabled(false);
        let st = stats();
        assert_eq!(st.open_spans, 0);
        assert_eq!(st.events, 2);
        let trace = collect();
        let me: Vec<_> = trace.threads.iter().flat_map(|t| t.events.iter()).collect();
        // Inner closes before outer, so it appears first.
        assert_eq!(me[0].name, "inner");
        assert_eq!(me[0].args[0], ("k", 7));
        assert_eq!(me[1].name, "outer");
        // A third argument is not recorded.
        assert_eq!((me[1].args, me[1].nargs), ([("a", 1), ("b", 2)], 2));
        match (me[0].kind, me[1].kind) {
            (EventKind::Span { dur_ns: d0 }, EventKind::Span { dur_ns: d1 }) => {
                // Outer contains inner.
                assert!(me[1].ts_ns <= me[0].ts_ns);
                assert!(me[1].ts_ns + d1 >= me[0].ts_ns + d0);
            }
            other => panic!("expected two spans, got {other:?}"),
        }
        reset();
    }

    #[test]
    fn aggregates_survive_ring_wrap() {
        let _guard = test_lock();
        reset();
        set_capacity(16);
        clear();
        set_enabled(true);
        for _ in 0..100 {
            let _s = span("wrap", "tick", &[]);
        }
        set_enabled(false);
        let st = stats();
        assert_eq!(st.events, 16);
        assert_eq!(st.dropped, 84);
        let trace = collect();
        let agg: u64 = trace
            .threads
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|r| r.cat == "wrap")
            .map(|r| r.count)
            .sum();
        assert_eq!(agg, 100);
        set_capacity(DEFAULT_CAPACITY);
        reset();
    }

    #[test]
    fn category_time_accumulates_on_this_thread() {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        let before = thread_category_ns("cat-a");
        {
            let _s = span("cat-a", "sleepy", &[]);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let after = thread_category_ns("cat-a");
        assert!(after >= before + 1_000_000, "{after} vs {before}");
        reset();
    }

    #[test]
    fn instants_are_recorded() {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        instant("c", "mark", &[]);
        instant("c", "mark2", &[("peer", 1), ("words", 64)]);
        set_enabled(false);
        let trace = collect();
        let instants: Vec<_> = trace
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.kind == EventKind::Instant)
            .map(|e| (e.name, e.nargs, e.args))
            .collect();
        assert_eq!(
            instants,
            [
                ("mark", 0, [("", 0); 2]),
                ("mark2", 2, [("peer", 1), ("words", 64)])
            ]
        );
        reset();
    }

    #[test]
    fn multi_thread_timelines_are_separate_tracks() {
        let _guard = test_lock();
        reset();
        set_enabled(true);
        std::thread::scope(|scope| {
            for r in 0..3u64 {
                scope.spawn(move || {
                    set_thread_label(&format!("worker {r}"));
                    let _s = span("mt", "lane", &[("lane", r)]);
                });
            }
        });
        set_enabled(false);
        let trace = collect();
        let labels: Vec<_> = trace
            .threads
            .iter()
            .filter(|t| t.label.starts_with("worker "))
            .map(|t| t.label.clone())
            .collect();
        assert_eq!(labels.len(), 3);
        reset();
    }
}
