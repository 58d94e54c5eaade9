//! Chrome trace-event / Perfetto JSON export.
//!
//! The emitted object follows the Trace Event Format's "JSON Object Format":
//! a `traceEvents` array of complete (`"ph": "X"`), instant (`"ph": "i"`)
//! and thread-name metadata (`"ph": "M"`) events, written through
//! [`JsonWriter`].  Timestamps and durations are
//! microseconds (fractional, so nanosecond resolution survives).  Open the
//! file at <https://ui.perfetto.dev> or in `chrome://tracing`.

use crate::json::JsonWriter;
use crate::{Event, EventKind, Trace};

/// Microseconds with nanosecond resolution.  Below 10¹⁵ ns every `ns / 1000`
/// has at most 15 significant digits, so the writer's shortest round-trip
/// form prints it exactly.
fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Open an event object with the members every event starts with.
fn begin_event<'w>(w: &'w mut JsonWriter, ph: &str, tid: u64, ts_ns: u64) -> &'w mut JsonWriter {
    w.begin_object()
        .field("ph", ph)
        .field("pid", 0usize)
        .field("tid", tid)
        .field("ts", micros(ts_ns))
}

/// The event's named integer arguments, when it has any.
fn write_args(w: &mut JsonWriter, ev: &Event) {
    if ev.nargs == 0 {
        return;
    }
    w.key("args").begin_object();
    for (key, value) in &ev.args[..ev.nargs as usize] {
        w.field(key, value);
    }
    w.end_object();
}

fn write_event(w: &mut JsonWriter, tid: u64, ev: &Event) {
    match ev.kind {
        EventKind::Span { dur_ns } => {
            begin_event(w, "X", tid, ev.ts_ns)
                .field("dur", micros(dur_ns))
                .field("cat", ev.cat)
                .field("name", ev.name);
            write_args(w, ev);
        }
        EventKind::Instant => {
            begin_event(w, "i", tid, ev.ts_ns)
                .field("s", "t")
                .field("cat", ev.cat)
                .field("name", ev.name);
            write_args(w, ev);
        }
    }
    w.end_object();
}

impl Trace {
    /// Serialize the trace as Chrome trace-event JSON (see module docs).
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field("displayTimeUnit", "ns")
            .key("traceEvents")
            .begin_array();
        for thread in &self.threads {
            w.begin_object()
                .field("ph", "M")
                .field("pid", 0usize)
                .field("tid", thread.tid)
                .field("name", "thread_name")
                .key("args")
                .begin_object()
                .field("name", &thread.label)
                .end_object()
                .end_object();
            for ev in &thread.events {
                write_event(&mut w, thread.tid, ev);
            }
        }
        w.end_array().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        clear, collect, instant, set_enabled, span, test_lock, validate_json, Event, EventKind,
        ThreadTrace, Trace,
    };

    #[test]
    fn chrome_export_is_valid_json_with_expected_phases() {
        let _guard = test_lock();
        set_enabled(false);
        clear();
        set_enabled(true);
        {
            let _s = span("comm", "send", &[("peer", 3), ("words", 640)]);
        }
        instant("solver", "restart \"quoted\"\n", &[]);
        set_enabled(false);
        let json = collect().to_chrome_json();
        validate_json(&json).expect("chrome export must parse");
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"peer\": 3"));
        assert!(json.contains("\\\"quoted\\\""));
        clear();
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let _guard = test_lock();
        set_enabled(false);
        clear();
        let json = collect().to_chrome_json();
        validate_json(&json).expect("empty export must parse");
    }

    #[test]
    fn spans_keep_nanosecond_resolution() {
        // A span opened 1.000001 ms after the trace epoch that lasted
        // 2.500003 ms: both must reach the file to the nanosecond.
        let span = Event {
            kind: EventKind::Span { dur_ns: 2_500_003 },
            ts_ns: 1_000_001,
            cat: "res",
            name: "exact",
            args: [("words", 640), ("", 0)],
            nargs: 1,
        };
        let trace = Trace {
            threads: vec![ThreadTrace {
                tid: 1,
                label: "rank 0".into(),
                events: vec![span],
                dropped: 0,
                spans: Vec::new(),
            }],
        };
        let json = trace.to_chrome_json();
        validate_json(&json).expect("chrome export must parse");
        let line = (json.lines().find(|l| l.contains("\"exact\"")))
            .expect("the span is written on its own line");
        assert!(
            line.contains(r#""ts": 1.000001e3, "dur": 2.500003e3"#),
            "{line}"
        );
        assert!(line.contains(r#""args": {"words": 640}"#), "{line}");
    }
}
