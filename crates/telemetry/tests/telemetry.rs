//! Integration tests for the telemetry substrate: histogram bucket math,
//! event-ring wraparound under concurrent writers, and span arithmetic on
//! a deterministic clock.

use std::sync::Arc;
use std::thread;
use vbs_telemetry::{
    Clock, Event, EventKind, EventRing, LatencyHistogram, Stage, Telemetry, TestClock,
};

// --- Histograms -----------------------------------------------------------

#[test]
fn histogram_percentiles_bound_true_values() {
    let hist = LatencyHistogram::new();
    // 1..=1000 µs uniformly: p50 ≈ 500, p95 ≈ 950, p99 ≈ 990.
    for v in 1..=1000u64 {
        hist.record(v);
    }
    assert_eq!(hist.count(), 1000);
    assert_eq!(hist.min(), 1);
    assert_eq!(hist.max(), 1000);
    let p50 = hist.value_at_quantile(0.50);
    let p95 = hist.value_at_quantile(0.95);
    let p99 = hist.value_at_quantile(0.99);
    // Reported quantiles never under-state and overshoot by ≤ 1/16.
    assert!((500..=540).contains(&p50), "p50 = {p50}");
    assert!((950..=1010).contains(&p95), "p95 = {p95}");
    assert!((990..=1055).contains(&p99), "p99 = {p99}");
    assert!(p50 <= p95 && p95 <= p99);
    assert!(hist.value_at_quantile(1.0) >= 1000);
}

#[test]
fn histogram_exact_below_sixteen() {
    let hist = LatencyHistogram::new();
    for v in 0..16u64 {
        hist.record(v);
    }
    // With exact unit buckets below 16 the quantile report is exact.
    assert_eq!(hist.value_at_quantile(0.5), 7);
    assert_eq!(hist.value_at_quantile(1.0), 15);
    assert_eq!(hist.sum(), (0..16).sum::<u64>());
}

#[test]
fn histogram_extreme_values_do_not_wrap() {
    let hist = LatencyHistogram::new();
    hist.record(u64::MAX);
    hist.record(u64::MAX);
    hist.record(0);
    assert_eq!(hist.count(), 3);
    assert_eq!(hist.sum(), u64::MAX, "sum must saturate, not wrap");
    assert_eq!(hist.min(), 0);
    assert_eq!(hist.max(), u64::MAX);
    assert_eq!(hist.value_at_quantile(1.0), u64::MAX);
}

#[test]
fn histogram_concurrent_recording_loses_nothing() {
    let hist = Arc::new(LatencyHistogram::new());
    let threads = 8;
    let per_thread = 10_000u64;
    thread::scope(|scope| {
        for t in 0..threads {
            let hist = Arc::clone(&hist);
            scope.spawn(move || {
                for i in 0..per_thread {
                    hist.record(t * per_thread + i);
                }
            });
        }
    });
    assert_eq!(hist.count(), threads * per_thread);
    assert_eq!(hist.min(), 0);
    assert_eq!(hist.max(), threads * per_thread - 1);
}

// --- Event ring -----------------------------------------------------------

fn instant(kind: EventKind, a: u64) -> Event {
    Event {
        seq: 0,
        at_micros: 0,
        kind,
        fabric: 0,
        a,
        b: 0,
        duration_micros: 0,
    }
}

#[test]
fn ring_wraps_and_keeps_the_most_recent_events() {
    let ring = EventRing::new(8);
    for i in 0..20u64 {
        ring.record(instant(EventKind::Enqueue, i));
    }
    let stats = ring.stats();
    assert_eq!(stats.recorded, 20);
    assert_eq!(stats.retained, 8);
    let snapshot = ring.snapshot();
    assert_eq!(snapshot.len(), 8);
    // Oldest-first: the 8 most recent sequence numbers, in order.
    let seqs: Vec<u64> = snapshot.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
    // Payloads rode along with their sequence numbers.
    assert!(snapshot.iter().all(|e| e.a == e.seq));
}

#[test]
fn ring_wraparound_under_concurrent_writers() {
    let ring = Arc::new(EventRing::new(64));
    let writers = 8u64;
    let per_writer = 1_000u64;
    thread::scope(|scope| {
        for w in 0..writers {
            let ring = Arc::clone(&ring);
            scope.spawn(move || {
                for i in 0..per_writer {
                    ring.record(instant(EventKind::FrameWrite, w * per_writer + i));
                }
            });
        }
    });
    let stats = ring.stats();
    assert_eq!(stats.recorded, writers * per_writer, "no event lost a seq");
    assert_eq!(stats.retained, 64);
    let snapshot = ring.snapshot();
    // Retained events are the highest 64 sequence numbers, strictly
    // ordered and gap-free — seq assignment and slot publish share a lock.
    let expect_first = writers * per_writer - 64;
    for (offset, event) in snapshot.iter().enumerate() {
        assert_eq!(event.seq, expect_first + offset as u64);
    }
}

#[test]
fn zero_capacity_ring_counts_without_retaining() {
    let ring = EventRing::new(0);
    for i in 0..5u64 {
        ring.record(instant(EventKind::Admit, i));
    }
    assert_eq!(ring.stats().recorded, 5);
    assert_eq!(ring.stats().retained, 0);
    assert!(ring.snapshot().is_empty());
}

// --- Spans on a deterministic clock --------------------------------------

#[test]
fn record_span_records_and_returns_the_elapsed_time() {
    let clock = TestClock::new();
    let telemetry = Telemetry::with(Arc::new(clock.clone()), 16);
    let start = telemetry.now();
    clock.advance(77);
    let elapsed = telemetry.record_span(Stage::Write, start);
    assert_eq!(elapsed, 77);
    assert_eq!(telemetry.histogram(Stage::Write).count(), 1);
    assert_eq!(telemetry.histogram(Stage::Write).max(), 77);
}

#[test]
fn disabled_telemetry_records_nothing_but_counts() {
    let telemetry = Telemetry::disabled();
    let assert_every_histogram_empty = |when: &str| {
        for stage in Stage::ALL {
            let hist = telemetry.histogram(stage);
            assert_eq!(hist.count(), 0, "{stage:?} {when}");
            assert_eq!(hist.sum(), 0, "{stage:?} {when}");
            assert_eq!(hist.max(), 0, "{stage:?} {when}");
        }
    };
    assert_every_histogram_empty("before recording");
    for stage in Stage::ALL {
        telemetry.record_micros(stage, 99);
        let start = telemetry.now();
        telemetry.record_span(stage, start);
    }
    telemetry.event(EventKind::Enqueue, 0, 1, 0);
    assert_every_histogram_empty("after spans and record_micros");
    assert_eq!(telemetry.ring_stats().recorded, 0);
    // Counter slots stay live: they carry the controller's route counts.
    telemetry.counter_add(1, 2);
    telemetry.counter_add(1, u64::MAX);
    assert_eq!(telemetry.counter(1), u64::MAX, "counter adds saturate");
}

#[test]
fn event_span_stamps_start_and_duration() {
    let clock = TestClock::new();
    let telemetry = Telemetry::with(Arc::new(clock.clone()), 16);
    clock.set(1_000);
    let start = telemetry.now();
    clock.advance(250);
    telemetry.event_span(EventKind::Decode, 2, 64, 0, start);
    let events = telemetry.events();
    assert_eq!(events.len(), 1);
    let event = events[0];
    assert_eq!(event.at_micros, 1_000);
    assert_eq!(event.duration_micros, 250);
    assert_eq!(event.fabric, 2);
    assert_eq!(event.a, 64);
}

#[test]
fn clock_trait_object_is_shareable() {
    let clock: Arc<dyn Clock> = Arc::new(TestClock::new());
    let telemetry = Telemetry::with(Arc::clone(&clock), 4);
    assert_eq!(telemetry.now(), 0);
    let second = telemetry.clone();
    assert!(telemetry.same_registry(&second));
    assert!(!telemetry.same_registry(&Telemetry::disabled()));
}
