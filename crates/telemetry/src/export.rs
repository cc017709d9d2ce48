//! Exporters: JSON metrics snapshots, human-readable summary tables, and
//! `chrome://tracing`-compatible trace-event JSON (openable in Perfetto).
//!
//! All JSON is hand-rolled — the workspace builds offline without serde.
//! Exports allocate freely; they run at report time, never on the hot path.

use crate::event::{Event, FLEET_FABRIC};
use crate::registry::Telemetry;
use crate::Stage;
use std::fmt::Write as _;

/// A JSON object with one per-stage latency summary (`count`, `mean`,
/// `min`, `p50`, `p95`, `p99`, `max`) under `"stages"` plus the event-ring
/// counters under `"events"`. Embedders splice this into larger reports.
pub fn metrics_json(telemetry: &Telemetry) -> String {
    let mut out = String::from("{\n  \"stages\": {\n");
    let mut first = true;
    for stage in Stage::ALL {
        let hist = telemetry.histogram(stage);
        if hist.count() == 0 {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(out, "    \"{}\": {}", stage.name(), hist.summary().json());
    }
    let stats = telemetry.ring_stats();
    let _ = write!(
        out,
        "\n  }},\n  \"events\": {{\"recorded\": {}, \"retained\": {}, \"capacity\": {}}}\n}}",
        stats.recorded, stats.retained, stats.capacity
    );
    out
}

/// A fixed-width table of the per-stage latency distributions, one row per
/// stage that recorded at least one value. Units are whatever the stage
/// recorded (microseconds throughout this stack).
pub fn summary_table(telemetry: &Telemetry) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "stage", "count", "mean", "min", "p50", "p95", "p99", "max"
    );
    for stage in Stage::ALL {
        let hist = telemetry.histogram(stage);
        if hist.count() == 0 {
            continue;
        }
        let s = hist.summary();
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>11.1} {:>9} {:>9} {:>9} {:>9} {:>9}",
            stage.name(),
            s.count,
            s.mean,
            s.min,
            s.p50,
            s.p95,
            s.p99,
            s.max
        );
    }
    let stats = telemetry.ring_stats();
    let _ = writeln!(
        out,
        "events: {} recorded, {} retained (ring capacity {})",
        stats.recorded, stats.retained, stats.capacity
    );
    out
}

fn process_label(fabric: u16) -> String {
    if fabric == FLEET_FABRIC {
        "fleet dispatcher".to_string()
    } else {
        format!("fabric {fabric}")
    }
}

fn push_trace_event(out: &mut String, event: &Event) {
    let name = event.kind.name();
    let pid = event.fabric;
    if event.kind.is_span() {
        let _ = write!(
            out,
            "{{\"name\": \"{name}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
             \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"seq\": {}, \"a\": {}, \"b\": {}}}}}",
            event.at_micros, event.duration_micros, event.seq, event.a, event.b
        );
    } else {
        let _ = write!(
            out,
            "{{\"name\": \"{name}\", \"ph\": \"i\", \"ts\": {}, \"s\": \"t\", \
             \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"seq\": {}, \"a\": {}, \"b\": {}}}}}",
            event.at_micros, event.seq, event.a, event.b
        );
    }
}

/// The retained event timeline in Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form). Open the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>: each fabric renders as
/// one process track (the fleet dispatcher as its own), span kinds as
/// slices and the rest as instants.
pub fn chrome_trace(telemetry: &Telemetry) -> String {
    let events = telemetry.events();
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;

    // Metadata first: name the process tracks that appear.
    let mut seen_fabrics: Vec<u16> = Vec::new();
    for event in &events {
        if !seen_fabrics.contains(&event.fabric) {
            seen_fabrics.push(event.fabric);
        }
    }
    for fabric in &seen_fabrics {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {fabric}, \"tid\": 0, \
             \"args\": {{\"name\": \"{}\"}}}}",
            process_label(*fabric)
        );
    }
    for event in &events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        push_trace_event(&mut out, event);
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Stage, Telemetry, TestClock};
    use std::sync::Arc;

    fn sample() -> Telemetry {
        let clock = TestClock::new();
        let telemetry = Telemetry::with(Arc::new(clock.clone()), 64);
        telemetry.record_micros(Stage::Decode, 120);
        telemetry.record_micros(Stage::Decode, 480);
        clock.set(10);
        telemetry.event(EventKind::Enqueue, 0, 7, 0);
        let start = telemetry.now();
        clock.advance(40);
        telemetry.event_span(EventKind::Decode, 0, 31, 0, start);
        telemetry
    }

    #[test]
    fn metrics_json_contains_recorded_stages_only() {
        let json = metrics_json(&sample());
        assert!(json.contains("\"decode\""));
        assert!(!json.contains("\"queue_wait\""));
        assert!(json.contains("\"recorded\": 2"));
    }

    #[test]
    fn chrome_trace_names_tracks_and_emits_slices() {
        let trace = chrome_trace(&sample());
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("process_name"));
        assert!(trace.contains("\"fabric 0\""));
        assert!(!trace.contains("thread_name"));
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"dur\": 40"));
        assert!(trace.contains("\"ph\": \"i\""));
    }

    #[test]
    fn zero_micro_spans_export_as_slices() {
        let telemetry = Telemetry::with(Arc::new(TestClock::new()), 8);
        let start = telemetry.now();
        telemetry.event_span(EventKind::FrameWrite, 1, 5, 12, start);
        let trace = chrome_trace(&telemetry);
        assert!(
            trace.contains("{\"name\": \"frame_write\", \"ph\": \"X\", \"ts\": 0, \"dur\": 0"),
            "{trace}"
        );
        assert!(!trace.contains("\"ph\": \"i\""), "{trace}");
    }

    #[test]
    fn summary_table_lists_stage_rows() {
        let table = summary_table(&sample());
        assert!(table.contains("decode"));
        assert!(table.contains("events: 2 recorded"));
    }
}
