//! Chrome trace-event / Perfetto JSON export.
//!
//! The emitted object follows the Trace Event Format's "JSON Object Format":
//! a `traceEvents` array of complete (`"ph":"X"`), counter (`"ph":"C"`),
//! instant (`"ph":"i"`) and thread-name metadata (`"ph":"M"`) events.
//! Timestamps and durations are microseconds (fractional, so nanosecond
//! resolution survives).  Open the file at <https://ui.perfetto.dev> or in
//! `chrome://tracing`.

use crate::json::push_json_str;
use crate::{Event, EventKind, Trace};
use std::fmt::Write as _;

/// Microseconds with nanosecond resolution, as a JSON number.
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn push_args(out: &mut String, ev: &Event) {
    out.push_str(",\"args\":{");
    for (i, (key, value)) in ev.args.iter().take(ev.nargs as usize).enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, key);
        let _ = write!(out, ":{value}");
    }
    out.push('}');
}

fn push_event(out: &mut String, tid: u64, ev: &Event) {
    match ev.kind {
        EventKind::Span { dur_ns } => {
            let _ = write!(out, "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":");
            push_us(out, ev.ts_ns);
            out.push_str(",\"dur\":");
            push_us(out, dur_ns);
            out.push_str(",\"cat\":");
            push_json_str(out, ev.cat);
            out.push_str(",\"name\":");
            push_json_str(out, ev.name);
            if ev.nargs > 0 {
                push_args(out, ev);
            }
            out.push('}');
        }
        EventKind::Counter { value } => {
            let _ = write!(out, "{{\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":");
            push_us(out, ev.ts_ns);
            out.push_str(",\"name\":");
            push_json_str(out, ev.name);
            out.push_str(",\"args\":{");
            push_json_str(out, ev.cat);
            if value.is_finite() {
                let _ = write!(out, ":{value}");
            } else {
                out.push_str(":null");
            }
            out.push_str("}}");
        }
        EventKind::Instant => {
            let _ = write!(out, "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":");
            push_us(out, ev.ts_ns);
            out.push_str(",\"s\":\"t\",\"cat\":");
            push_json_str(out, ev.cat);
            out.push_str(",\"name\":");
            push_json_str(out, ev.name);
            if ev.nargs > 0 {
                push_args(out, ev);
            }
            out.push('}');
        }
    }
}

impl Trace {
    /// Serialize the trace as Chrome trace-event JSON (see module docs).
    pub fn to_chrome_json(&self) -> String {
        let total: usize = self.threads.iter().map(|t| t.events.len() + 1).sum();
        let mut out = String::with_capacity(128 * total + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for thread in &self.threads {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":",
                thread.tid
            );
            push_json_str(&mut out, &thread.label);
            out.push_str("}}");
            for ev in &thread.events {
                out.push(',');
                push_event(&mut out, thread.tid, ev);
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{clear, collect, instant, set_enabled, span, test_lock, validate_json};

    #[test]
    fn chrome_export_is_valid_json_with_expected_phases() {
        let _guard = test_lock();
        set_enabled(false);
        clear();
        set_enabled(true);
        {
            let _s = span("comm", "send", &[("peer", 3), ("words", 640)]);
        }
        crate::counter("pool", "lanes", 8.0);
        instant("solver", "restart \"quoted\"\n", &[]);
        set_enabled(false);
        let json = collect().to_chrome_json();
        validate_json(&json).expect("chrome export must parse");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"peer\":3"));
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
}
