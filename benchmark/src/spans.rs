//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around calls into the crates' public functions and inside the
//! communicator decorators of [`crate::comm`] — while the program's own
//! `trace` layer stays disabled.  A span carries its name, start, end, the
//! span that caused it and the identifier of the solve (or replay) it
//! belongs to; spans live in memory until the run writes them out.
//!
//! The recorder is thread-local and only the thread that called
//! [`set_enabled`] records: times are taken on rank 0, and the other ranks
//! pay one thread-local read per call.

use crate::json::Value;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The enclosing span; `None` for the root of a solve or replay.
    pub parent: Option<u32>,
    /// Shared by every span of one solve or replay.
    pub solve: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Part of the interval covered by child spans.
    pub child_ns: u64,
    /// Payload in `f64` words, for communication spans.
    pub words: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The span's duration minus the part its children cover.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("id", Value::from(self.id as u64)),
            (
                "parent",
                self.parent.map_or(Value::Null, |p| Value::from(p as u64)),
            ),
            ("solve", Value::from(self.solve as u64)),
            ("name", Value::str(&self.name)),
            ("start_ns", self.start_ns.into()),
            ("end_ns", self.end_ns.into()),
            ("self_ns", self.self_ns().into()),
            ("words", self.words.into()),
        ])
    }
}

struct Frame {
    id: u32,
    name: String,
    start_ns: u64,
    child_ns: u64,
    words: u64,
}

#[derive(Default)]
struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    next_id: u32,
    solve: u32,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switch recording on this thread on or off.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

/// Closes its span when dropped; inert when recording was off at
/// [`open`].
#[must_use]
pub struct Guard {
    live: bool,
}

/// Open a span under the innermost open span of this thread.  With no span
/// open it becomes a root and starts a new solve identifier.
pub fn open(name: &str, words: u64) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Guard { live: false };
        }
        let id = r.next_id;
        r.next_id += 1;
        if r.stack.is_empty() {
            r.solve = id;
        }
        r.stack.push(Frame {
            id,
            name: name.to_string(),
            start_ns: now_ns(),
            child_ns: 0,
            words,
        });
        Guard { live: true }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end_ns = now_ns();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let frame = r.stack.pop().expect("span stack underflow");
            let parent = r.stack.last_mut().map(|p| {
                p.child_ns += end_ns - frame.start_ns;
                p.id
            });
            let solve = r.solve;
            r.spans.push(Span {
                id: frame.id,
                parent,
                solve,
                name: frame.name,
                start_ns: frame.start_ns,
                end_ns,
                child_ns: frame.child_ns,
                words: frame.words,
            });
        });
    }
}

/// Number of spans closed so far on this thread; a mark for [`since`].
pub fn mark() -> usize {
    REC.with(|r| r.borrow().spans.len())
}

/// The spans closed on this thread since `mark`.
pub fn since(mark: usize) -> Vec<Span> {
    REC.with(|r| r.borrow().spans[mark..].to_vec())
}

/// Forget the spans closed on this thread since `mark`.
pub fn discard_since(mark: usize) {
    REC.with(|r| r.borrow_mut().spans.truncate(mark));
}

/// Take every span recorded on this thread.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_start_a_solve() {
        set_enabled(true);
        {
            let _root = open("solve:x", 0);
            let _a = open("a", 3);
            drop(open("b", 0));
        }
        drop(open("solve:y", 0));
        set_enabled(false);
        drop(open("ignored", 0));
        let spans = take();
        assert_eq!(spans.len(), 4);
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let (root, a, b, y) = (by("solve:x"), by("a"), by("b"), by("solve:y"));
        assert_eq!(root.parent, None);
        assert_eq!(a.parent, Some(root.id));
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(a.words, 3);
        assert_eq!((a.solve, b.solve), (root.id, root.id));
        assert_eq!(y.solve, y.id);
        assert_eq!(a.child_ns, b.dur_ns());
        assert_eq!(a.self_ns(), a.dur_ns() - b.dur_ns());
        assert_eq!(root.child_ns, a.dur_ns());
    }
}
