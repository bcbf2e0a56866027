//! Sampled end-to-end message tracing with per-hop stage attribution.
//!
//! MultiPub's placement decisions are justified by *latency*, but an
//! aggregate histogram cannot say where a slow message spent its time.
//! This module carries a per-message trace context along the publish
//! path (see `multipub-broker`'s `TraceContext` wire field) and records
//! one [`Span`] per pipeline stage into a process-wide bounded ring:
//!
//! | stage       | interval                                            |
//! |-------------|-----------------------------------------------------|
//! | `admission` | publisher stamp → broker admission control passed   |
//! | `match`     | admission → shard snapshot + filter match + encode  |
//! | `queue`     | match → frame popped from its outbound flow queue   |
//! | `write`     | pop → vectored socket write started                 |
//! | `deliver`   | write → client-side receipt                         |
//!
//! Stage boundaries are stamped with one shared wall clock
//! ([`now_micros`]), each stage starting exactly where the previous one
//! ended, so the five spans of one trace **sum to the end-to-end trip
//! time** — the per-stage breakdown is an exact decomposition, not an
//! approximation.
//!
//! Sampling is decided once at the publisher ([`Sampler`]) and carried
//! with the message; unsampled messages cost one wire byte and a flag
//! check per hop. Spans land in a fixed-size lock-free ring
//! ([`SpanRing`], global handle [`ring`]) that overwrites the oldest
//! entries under burst — tracing can never block or grow the data path.
//! Export is Chrome trace-event JSON ([`render_chrome_trace`]), served
//! by the CLI's `/trace` endpoint next to the Prometheus scrape.
//!
//! Like the histogram timer's `Instant`, the wall clock here stays on
//! `std` in both configurations (loom does not model time); the slot
//! locks are rank-carrying [`multipub_sync::Mutex`]es like every other
//! lock in the workspace (DESIGN.md §14).

// Wall-clock ids and ring cursors stay on `std` atomics in both
// configurations: `next_trace_id`'s counter lives in a `static`, which
// loom atomics (non-const constructors) cannot initialize, and these
// relaxed counters are not an interleaving of interest anyway.
use multipub_sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Pipeline stage names in hop order. The per-stage broker histograms
/// are named `multipub_broker_stage_<name>_ms`; `cargo xtask lint`
/// (pass L4) enforces that every entry here has a matching catalog
/// const so the stage list, the metric catalog and the README table
/// cannot drift apart.
pub const STAGE_NAMES: [&str; 5] = ["admission", "match", "queue", "write", "deliver"];

/// Default capacity of the global span ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One completed stage interval of a sampled message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace id minted at the publisher; groups the message's spans.
    pub trace_id: u64,
    /// Stage name, one of [`STAGE_NAMES`].
    pub stage: &'static str,
    /// Stage start, microseconds since the UNIX epoch.
    pub start_micros: u64,
    /// Stage duration in microseconds.
    pub dur_micros: u64,
}

/// Microseconds since the UNIX epoch on the shared wall clock used for
/// every stage stamp.
#[must_use]
pub fn now_micros() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

/// Mints a fresh trace id: a SplitMix64 mix of the wall clock and a
/// process-wide counter, so ids are unique within a process and
/// overwhelmingly likely to be unique across concurrent processes.
#[must_use]
pub fn next_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seed = now_micros().wrapping_add(COUNTER.fetch_add(1, Ordering::Relaxed) << 32);
    // SplitMix64 finalizer: bijective, so distinct seeds stay distinct.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic counter-based sampler: a rate of `1/n` samples every
/// `n`-th decision. Deterministic (rather than random) so benchmark
/// runs are reproducible and the sampled population is spread evenly
/// across the run rather than clustered.
#[derive(Debug)]
pub struct Sampler {
    /// Sample every `period`-th decision; `0` disables sampling.
    period: u64,
    counter: AtomicU64,
}

impl Sampler {
    /// Builds a sampler from a rate in `[0, 1]`: `0` (or anything
    /// non-positive / NaN) never samples, `>= 1` always samples, and a
    /// fractional rate `r` samples every `round(1/r)`-th decision.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        let period = if rate.is_nan() || rate <= 0.0 {
            0
        } else if rate >= 1.0 {
            1
        } else {
            (1.0 / rate).round() as u64
        };
        Sampler { period, counter: AtomicU64::new(0) }
    }

    /// Decides whether the next message is sampled.
    pub fn should_sample(&self) -> bool {
        match self.period {
            0 => false,
            1 => true,
            period => self.counter.fetch_add(1, Ordering::Relaxed) % period == 0,
        }
    }

    /// Whether this sampler can ever sample.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.period != 0
    }
}

/// Fixed-capacity span ring: writers claim a slot with one atomic
/// `fetch_add` and overwrite whatever is there, so recording is
/// wait-free with respect to readers and never blocks the data path.
/// Readers take a point-in-time copy ([`Self::snapshot`]) or move the
/// contents out ([`Self::drain`]).
#[derive(Debug)]
pub struct SpanRing {
    /// One rank for every slot of every ring: a writer touches exactly
    /// one slot, and the equal rank makes the witness enforce that.
    /// lock:rank(obs.trace_slot, 90)
    slots: Box<[Mutex<Option<Span>>]>,
    next: AtomicU64,
    recorded: AtomicU64,
}

impl SpanRing {
    /// Creates a ring holding at most `capacity` spans (floored at 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        // lock:rank(obs.trace_slot, 90)
        let slots: Vec<Mutex<Option<Span>>> =
            (0..capacity.max(1)).map(|_| Mutex::new(90, "obs.trace_slot", None)).collect();
        SpanRing {
            slots: slots.into_boxed_slice(),
            next: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
        }
    }

    /// Records one span, overwriting the oldest entry when full.
    pub fn push(&self, span: Span) {
        let idx = (self.next.fetch_add(1, Ordering::Relaxed) as usize) % self.slots.len();
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slots.get(idx) {
            *slot.lock() = Some(span);
        }
    }

    /// Total spans ever recorded (including overwritten ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Copies the current contents without clearing them. Tests filter
    /// the result by trace id, since `cargo test` shares one process
    /// ring across tests.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Span> {
        self.slots.iter().filter_map(|slot| slot.lock().clone()).collect()
    }

    /// Moves the current contents out, leaving the ring empty.
    pub fn drain(&self) -> Vec<Span> {
        self.slots.iter().filter_map(|slot| slot.lock().take()).collect()
    }
}

/// The process-wide span ring, sized [`DEFAULT_RING_CAPACITY`].
#[cfg(not(loom))]
pub fn ring() -> &'static SpanRing {
    static RING: OnceLock<SpanRing> = OnceLock::new();
    RING.get_or_init(|| SpanRing::new(DEFAULT_RING_CAPACITY))
}

/// Records one span on the global ring and bumps the span counter.
#[cfg(not(loom))]
pub fn record_span(span: Span) {
    crate::counter!(crate::metrics::OBS_TRACE_SPANS_TOTAL).inc();
    ring().push(span);
}

/// Schema identifier embedded in the exported trace JSON.
pub const TRACE_SCHEMA: &str = "multipub-trace/v1";

/// Renders spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete event (`"ph":"X"`) per span, timestamps and
/// durations in microseconds, the trace id carried in `args` so one
/// message's spans can be grouped. Events are sorted by start time for
/// stable output.
#[must_use]
pub fn render_chrome_trace(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_micros, s.trace_id, s.stage));
    let mut out = String::with_capacity(64 + sorted.len() * 128);
    out.push_str("{\"schema\":\"");
    out.push_str(TRACE_SCHEMA);
    out.push_str("\",\"traceEvents\":[");
    for (i, span) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let tid = STAGE_NAMES.iter().position(|s| *s == span.stage).unwrap_or(STAGE_NAMES.len());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"multipub\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":\"{:#018x}\"}}}}",
            span.stage, span.start_micros, span.dur_micros, tid, span.trace_id
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn sampler_rate_edges() {
        let never = Sampler::new(0.0);
        assert!(!never.is_enabled());
        assert!((0..100).all(|_| !never.should_sample()));
        let negative = Sampler::new(-1.0);
        assert!(!negative.should_sample());
        let nan = Sampler::new(f64::NAN);
        assert!(!nan.should_sample());

        let always = Sampler::new(1.0);
        assert!(always.is_enabled());
        assert!((0..100).all(|_| always.should_sample()));
        assert!(Sampler::new(2.0).should_sample());
    }

    #[test]
    fn sampler_fractional_rate_is_periodic() {
        let tenth = Sampler::new(0.1);
        let hits = (0..100).filter(|_| tenth.should_sample()).count();
        assert_eq!(hits, 10);
    }

    #[test]
    fn trace_ids_are_distinct() {
        let mut ids: Vec<u64> = (0..1000).map(|_| next_trace_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn ring_records_and_drains() {
        let ring = SpanRing::new(4);
        for i in 0..3 {
            ring.push(Span { trace_id: i, stage: "match", start_micros: i, dur_micros: 1 });
        }
        assert_eq!(ring.recorded(), 3);
        assert_eq!(ring.snapshot().len(), 3);
        let drained = ring.drain();
        assert_eq!(drained.len(), 3);
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.recorded(), 3);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let ring = SpanRing::new(2);
        for i in 0..5u64 {
            ring.push(Span { trace_id: i, stage: "queue", start_micros: i, dur_micros: 0 });
        }
        let mut ids: Vec<u64> = ring.snapshot().into_iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 4]);
        assert_eq!(ring.recorded(), 5);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let spans = vec![
            Span { trace_id: 7, stage: "admission", start_micros: 100, dur_micros: 10 },
            Span { trace_id: 7, stage: "deliver", start_micros: 140, dur_micros: 5 },
        ];
        let json = render_chrome_trace(&spans);
        assert!(json.starts_with("{\"schema\":\"multipub-trace/v1\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"admission\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":100"));
        assert!(json.contains("\"args\":{\"trace_id\":\"0x0000000000000007\"}"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn global_ring_round_trip() {
        let id = next_trace_id();
        record_span(Span { trace_id: id, stage: "write", start_micros: 1, dur_micros: 2 });
        assert!(ring().snapshot().iter().any(|s| s.trace_id == id));
    }
}
