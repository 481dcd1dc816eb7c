//! Span tracing: campaign→shard→stage timelines as Chrome trace-event
//! JSON.
//!
//! The metrics in [`crate::metrics`] say *how much* (blocks/sec, drop
//! rate); spans say *where the time went*. A [`SpanTracer`] collects
//! completed [`SpanRecord`]s — one per campaign, one per shard produce
//! stage, one per shard consume stage — and serializes them in the
//! Chrome trace-event format ([`SpanTracer::to_chrome_json`]), which
//! loads directly in Perfetto / `chrome://tracing` for a flame-chart
//! view of producer/consumer overlap per shard.
//!
//! The tracer is cheap and shareable: recording a span is one `Mutex`
//! push of a small record, and guards time themselves via RAII
//! ([`SpanTracer::span`]). Like the metrics registry it is entirely
//! opt-in — an untraced campaign never constructs one.

use crate::json::{JsonWriter, Layout};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span, timed relative to the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, e.g. `"campaign"` or `"shard0/produce"`.
    pub name: String,
    /// Category, e.g. `"stage"` — Perfetto groups and filters by it.
    pub cat: &'static str,
    /// Virtual thread lane the span renders on.
    pub tid: u64,
    /// Start offset from the tracer epoch, microseconds.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// Collects spans from any thread and emits Chrome trace-event JSON.
#[derive(Debug)]
pub struct SpanTracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    threads: Mutex<Vec<(u64, String)>>,
}

impl Default for SpanTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanTracer {
    /// New tracer; its construction instant becomes timestamp zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Label the virtual thread lane `tid` (rendered by Perfetto in
    /// place of a bare number). Last write wins.
    pub fn name_thread(&self, tid: u64, name: impl Into<String>) {
        let mut threads = self.threads.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let name = name.into();
        if let Some(slot) = threads.iter_mut().find(|(t, _)| *t == tid) {
            slot.1 = name;
        } else {
            threads.push((tid, name));
        }
    }

    /// Start a span on lane `tid`; the span is recorded when the
    /// returned guard drops.
    #[must_use]
    pub fn span(&self, name: impl Into<String>, cat: &'static str, tid: u64) -> SpanGuard<'_> {
        SpanGuard { tracer: self, name: name.into(), cat, tid, begin: Instant::now() }
    }

    /// Record a completed span directly (for callers that timed it
    /// themselves).
    pub fn record(&self, span: SpanRecord) {
        let mut spans = self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        spans.push(span);
    }

    /// Microseconds elapsed since the tracer epoch.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Copy of the recorded spans (test and report convenience).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Serialize every span (plus thread-name metadata) as one Chrome
    /// trace-event JSON object: `{"traceEvents": [...]}` with `"X"`
    /// complete events and `"M"` `thread_name` metadata, loadable in
    /// Perfetto and `chrome://tracing`.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans();
        let threads = self.threads.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut events = JsonWriter::array(Layout::Lines(0));
        for (tid, name) in threads.iter() {
            let mut args = JsonWriter::object(Layout::Inline);
            args.string("name", name);
            let mut event = JsonWriter::object(Layout::Inline);
            event
                .string("name", "thread_name")
                .string("ph", "M")
                .field("pid", 0)
                .field("tid", tid)
                .field("args", args.finish());
            events.item(event.finish());
        }
        for s in &spans {
            let mut event = JsonWriter::object(Layout::Inline);
            event
                .string("name", &s.name)
                .string("cat", s.cat)
                .string("ph", "X")
                .field("pid", 0)
                .field("tid", s.tid)
                .field("ts", s.ts_us)
                .field("dur", s.dur_us);
            events.item(event.finish());
        }
        let mut out = JsonWriter::object(Layout::Inline);
        out.field("traceEvents", events.finish());
        out.finish() + "\n"
    }
}

/// RAII timer from [`SpanTracer::span`]: records the span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a SpanTracer,
    name: String,
    cat: &'static str,
    tid: u64,
    begin: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let ts_us = u64::try_from(self.begin.duration_since(self.tracer.epoch).as_micros())
            .unwrap_or(u64::MAX);
        let dur_us = u64::try_from(self.begin.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.tracer.record(SpanRecord {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            tid: self.tid,
            ts_us,
            dur_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    #[test]
    fn guard_records_on_drop() {
        let tracer = SpanTracer::new();
        {
            let _g = tracer.span("campaign", "campaign", 0);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "campaign");
        assert_eq!(spans[0].tid, 0);
    }

    #[test]
    fn chrome_json_is_valid_and_structured() {
        let tracer = SpanTracer::new();
        tracer.name_thread(0, "campaign");
        tracer.name_thread(1, "shard0/produce");
        tracer.record(SpanRecord {
            name: "campaign".into(),
            cat: "campaign",
            tid: 0,
            ts_us: 0,
            dur_us: 100,
        });
        tracer.record(SpanRecord {
            name: "shard0/produce".into(),
            cat: "stage",
            tid: 1,
            ts_us: 5,
            dur_us: 40,
        });
        let json = tracer.to_chrome_json();
        validate_json(&json).expect("trace JSON must parse");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"M\""));
        assert!(json.contains("\"shard0/produce\""));
    }

    #[test]
    fn spans_from_many_threads_all_land() {
        let tracer = std::sync::Arc::new(SpanTracer::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let t = std::sync::Arc::clone(&tracer);
                std::thread::spawn(move || {
                    let _g = t.span(format!("shard{i}/consume"), "stage", 2 + i);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tracer.spans().len(), 4);
        validate_json(&tracer.to_chrome_json()).unwrap();
    }

    #[test]
    fn control_characters_in_names_are_escaped() {
        let tracer = SpanTracer::new();
        tracer.name_thread(0, "a\tb\rc");
        tracer.record(SpanRecord {
            name: "x\u{1}\"y\\".into(),
            cat: "stage",
            tid: 0,
            ts_us: 0,
            dur_us: 1,
        });
        let json = tracer.to_chrome_json();
        validate_json(&json).expect("escaped names parse");
        assert!(json.contains("\"a\\tb\\rc\""), "{json}");
        assert!(json.contains("\"x\\u0001\\\"y\\\\\""), "{json}");
    }

    #[test]
    fn thread_names_deduplicate() {
        let tracer = SpanTracer::new();
        tracer.name_thread(3, "old");
        tracer.name_thread(3, "new");
        let json = tracer.to_chrome_json();
        assert!(json.contains("\"new\""));
        assert!(!json.contains("\"old\""));
    }
}
