//! Live loopback throughput harness (DESIGN.md §11).
//!
//! Unlike the `benchkit` probes (which time computational kernels), this
//! module drives a **real broker over real sockets**: raw protocol
//! publishers and subscribers — the `bench-pub` / `bench-sub` binaries,
//! patterned on the apiformes MQTT benchmark pair — plus an orchestrator
//! (`bench-live`) that runs a sharded-vs-single-shard comparison in one
//! process and emits `BENCH_throughput.json`, the repo's throughput
//! trajectory file.
//!
//! Trip times use the protocol's native `publish_micros` timestamp
//! (carried in `Publish` → `Deliver`), not payload-embedded timestamps
//! as apiformes does — the wire format already timestamps every
//! publication, so payloads stay opaque.
//!
//! Clients here speak the wire protocol directly (codec + raw TCP)
//! instead of going through `multipub_broker::client`: the harness must
//! measure the broker, not the client library's buffering policies.

use bytes::{Bytes, BytesMut};
use multipub_broker::broker::Broker;
use multipub_broker::codec::encode_to_bytes;
use multipub_broker::frame::{Frame, Role, TraceContext};
use multipub_broker::read_frame;
use multipub_core::ids::RegionId;
use multipub_obs::trace::{next_trace_id, Sampler, Span};
use multipub_sync::Mutex;
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::io::AsyncWriteExt;
use tokio::net::TcpStream;
use tokio::time::Instant;

/// Schema identifier stamped into every `BENCH_*.json` this harness
/// emits; bump on breaking layout changes.
pub const REPORT_SCHEMA: &str = "multipub-bench-throughput/v1";

/// Subscribers that record per-message trip samples (the rest only
/// count deliveries, so a 1000-way fan-out does not build a thousand
/// million-entry sample vectors). Recorded in the report's notes.
pub const TRIP_SAMPLERS: usize = 8;

/// Per-sampling-subscriber cap on retained trip samples.
pub const MAX_TRIP_SAMPLES: usize = 200_000;

/// Microseconds since the UNIX epoch — the same clock
/// `multipub_broker::client` stamps into `publish_micros` (that helper
/// is crate-private, so the harness carries its own copy).
#[must_use]
pub fn now_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// Delivery counters for one raw subscriber connection.
#[derive(Debug)]
pub struct SubscriberStats {
    /// `Deliver` frames received.
    pub delivered: AtomicU64,
    /// Trip-time samples in microseconds (empty unless this subscriber
    /// is one of the [`TRIP_SAMPLERS`]). Leaf lock, ranked above every
    /// broker/obs lock. lock:rank(bench.trips, 100)
    pub trips: Mutex<Vec<u64>>,
}

impl Default for SubscriberStats {
    fn default() -> Self {
        SubscriberStats {
            delivered: AtomicU64::new(0),
            trips: Mutex::new(100, "bench.trips", Vec::new()),
        }
    }
}

impl SubscriberStats {
    fn record(&self, record_trips: bool, publish_micros: u64) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        if record_trips {
            let trip = now_micros().saturating_sub(publish_micros);
            let mut trips = self.trips.lock();
            if trips.len() < MAX_TRIP_SAMPLES {
                trips.push(trip);
            }
        }
    }

    /// Drains and returns the recorded trip samples.
    pub fn take_trips(&self) -> Vec<u64> {
        std::mem::take(&mut *self.trips.lock())
    }
}

/// Connects a raw subscriber: `Connect` + `Subscribe`, then counts
/// `Deliver` frames into `stats` until the broker closes the connection
/// (or the task is aborted). Never returns `Ok` while the link is up.
/// With `qos1` the subscription is at-least-once and every QoS 1
/// delivery is answered with a `DeliverAck`, exercising the broker's
/// unacked-buffer bookkeeping on the hot path.
///
/// # Errors
///
/// Returns a message when the connection or handshake fails.
pub async fn raw_subscriber(
    addr: SocketAddr,
    client_id: u64,
    topic: String,
    record_trips: bool,
    qos1: bool,
    stats: Arc<SubscriberStats>,
) -> Result<(), String> {
    let stream = TcpStream::connect(addr).await.map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let (mut read_half, mut write_half) = stream.into_split();
    let connect = Frame::Connect { client_id, role: Role::Subscriber, policy: None };
    write_half
        .write_all(&encode_to_bytes(&connect))
        .await
        .map_err(|e| format!("handshake write: {e}"))?;
    let subscribe = Frame::Subscribe { topic, filter: String::new(), qos: u8::from(qos1) };
    write_half
        .write_all(&encode_to_bytes(&subscribe))
        .await
        .map_err(|e| format!("subscribe write: {e}"))?;
    let mut buf = BytesMut::new();
    loop {
        match read_frame(&mut read_half, &mut buf).await {
            Ok(Some(Frame::Deliver {
                topic, publisher, publish_micros, trace, qos, seq, ..
            })) => {
                stats.record(record_trips, publish_micros);
                if qos == 1 {
                    let ack = Frame::DeliverAck { topic, publisher, seq };
                    write_half
                        .write_all(&encode_to_bytes(&ack))
                        .await
                        .map_err(|e| format!("deliver-ack write: {e}"))?;
                }
                // Final trace stage, mirroring the client library: socket
                // write → receipt in this harness subscriber.
                if let Some(ctx) = trace {
                    if ctx.sampled && ctx.write_micros > 0 {
                        let received = now_micros();
                        let dur = received.saturating_sub(ctx.write_micros);
                        multipub_obs::histogram!(multipub_obs::metrics::BROKER_STAGE_DELIVER_MS)
                            .record(dur as f64 / 1000.0);
                        multipub_obs::trace::record_span(Span {
                            trace_id: ctx.trace_id,
                            stage: "deliver",
                            start_micros: ctx.write_micros,
                            dur_micros: dur,
                        });
                    }
                }
            }
            Ok(Some(_)) => {} // ConnectAck, config replays — not deliveries
            Ok(None) => return Ok(()),
            Err(e) => return Err(format!("read: {e:?}")),
        }
    }
}

/// A raw protocol publisher: one connection, `publish` per message.
#[derive(Debug)]
pub struct RawPublisher {
    write_half: tokio::net::tcp::OwnedWriteHalf,
    topic: String,
    publisher_id: u64,
    sampler: Sampler,
    qos: u8,
    next_seq: u64,
}

impl RawPublisher {
    /// Connects and handshakes as a publisher. The read half is drained
    /// in a background task (`ConnectAck`, config replays, `Busy`
    /// NACKs), counting `Busy` frames into `busy` and `PubAck` frames
    /// into `acked`.
    ///
    /// # Errors
    ///
    /// Returns a message when the connection or handshake fails.
    pub async fn connect(
        addr: SocketAddr,
        publisher_id: u64,
        topic: String,
        busy: Arc<AtomicU64>,
        acked: Arc<AtomicU64>,
    ) -> Result<RawPublisher, String> {
        let stream = TcpStream::connect(addr).await.map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let (mut read_half, mut write_half) = stream.into_split();
        let connect =
            Frame::Connect { client_id: publisher_id, role: Role::Publisher, policy: None };
        write_half
            .write_all(&encode_to_bytes(&connect))
            .await
            .map_err(|e| format!("handshake write: {e}"))?;
        tokio::spawn(async move {
            let mut buf = BytesMut::new();
            while let Ok(Some(frame)) = read_frame(&mut read_half, &mut buf).await {
                match frame {
                    Frame::Busy { .. } => {
                        busy.fetch_add(1, Ordering::Relaxed);
                    }
                    Frame::PubAck { .. } => {
                        acked.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
        });
        Ok(RawPublisher {
            write_half,
            topic,
            publisher_id,
            sampler: Sampler::new(0.0),
            qos: 0,
            next_seq: 1,
        })
    }

    /// Enables end-to-end trace sampling at `rate` (fraction of
    /// publications; `0.0` = never, `1.0` = every message).
    #[must_use]
    pub fn with_trace_sample(mut self, rate: f64) -> Self {
        self.sampler = Sampler::new(rate);
        self
    }

    /// Switches this publisher to QoS 1: every publication carries a
    /// monotonic sequence number and the broker answers with `PubAck`.
    /// The harness publishes flat-out without awaiting acks (it measures
    /// the broker's ack-path overhead, not an in-flight window), so
    /// `PubAck`s are only counted by the reader task.
    #[must_use]
    pub fn with_qos1(mut self) -> Self {
        self.qos = 1;
        self
    }

    /// Publishes one message (direct mode, fresh `publish_micros`).
    ///
    /// # Errors
    ///
    /// Returns a message when the socket write fails.
    pub async fn publish(&mut self, payload: &Bytes) -> Result<(), String> {
        let trace = self.sampler.should_sample().then(|| TraceContext::new(next_trace_id()));
        let seq = if self.qos == 1 {
            let seq = self.next_seq;
            self.next_seq += 1;
            seq
        } else {
            0
        };
        let frame = Frame::Publish {
            topic: self.topic.clone(),
            publisher: self.publisher_id,
            publish_micros: now_micros(),
            single_target: false,
            headers: String::new(),
            payload: payload.clone(),
            trace,
            qos: self.qos,
            seq,
            retain: false,
            epoch: 0,
        };
        self.write_half
            .write_all(&encode_to_bytes(&frame))
            .await
            .map_err(|e| format!("publish write: {e}"))
    }
}

/// Percentile of a **sorted** sample vector, in milliseconds (samples
/// are microseconds). Zero when empty.
#[must_use]
pub fn percentile_ms(sorted_micros: &[u64], p: f64) -> f64 {
    if sorted_micros.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * (sorted_micros.len() - 1) as f64).round() as usize;
    sorted_micros.get(rank).copied().unwrap_or(0) as f64 / 1000.0
}

/// One scenario's knobs: a broker with `shards` shards, `fanout`
/// subscribers on one topic, `publishers` connections publishing
/// `payload_bytes` messages flat-out for `duration`.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Scenario label in the report (`sharded`, `single-shard`, …).
    pub name: String,
    /// Broker shard count (`1` = the seed-equivalent reference path).
    pub shards: usize,
    /// Subscriber connections on the bench topic.
    pub fanout: usize,
    /// Concurrent publisher connections.
    pub publishers: usize,
    /// Payload size per message.
    pub payload_bytes: usize,
    /// Measurement window.
    pub duration: Duration,
    /// Fraction of publications to trace end to end (`0.0` disables
    /// tracing entirely — the zero-overhead default).
    pub trace_sample: f64,
    /// `true` runs the scenario at QoS 1: sequenced publishes with
    /// `PubAck`s, at-least-once subscriptions with `DeliverAck`s. The
    /// measured throughput then includes the dedup-window and
    /// unacked-buffer bookkeeping on every message.
    pub qos1: bool,
}

/// One scenario's measured outcome, as serialized into
/// `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario label.
    pub name: String,
    /// Broker shard count used.
    pub shards: usize,
    /// Subscriber connections.
    pub fanout: usize,
    /// Publisher connections.
    pub publishers: usize,
    /// Payload size per message.
    pub payload_bytes: usize,
    /// Measurement window actually used (publish window + drain), secs.
    pub duration_secs: f64,
    /// Publish frames written by all publishers.
    pub published: u64,
    /// `Busy` NACKs observed by publishers.
    pub busy_nacks: u64,
    /// `PubAck` frames received by publishers (0 on QoS 0 scenarios).
    /// Additive field: absent in pre-QoS reports, so deserialization
    /// defaults it.
    #[serde(default)]
    pub acked: u64,
    /// `Deliver` frames received across all subscribers.
    pub delivered: u64,
    /// Aggregate delivery throughput: `delivered / duration_secs`.
    pub msgs_per_sec: f64,
    /// Median publisher→subscriber trip time.
    pub trip_p50_ms: f64,
    /// 99th-percentile trip time.
    pub trip_p99_ms: f64,
    /// Per-stage latency breakdown from sampled traces (empty when
    /// `trace_sample` was 0). Additive field: absent in pre-tracing
    /// reports, so deserialization defaults it.
    #[serde(default)]
    pub stages: Vec<StageBreakdown>,
}

/// Aggregate statistics for one trace stage across a scenario's sampled
/// messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageBreakdown {
    /// Stage name (one of [`multipub_obs::trace::STAGE_NAMES`]).
    pub stage: String,
    /// Spans recorded for this stage.
    pub count: u64,
    /// Median span duration, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile span duration, milliseconds.
    pub p99_ms: f64,
    /// Mean span duration, milliseconds.
    pub mean_ms: f64,
}

/// Groups `spans` by stage and computes per-stage duration statistics,
/// in the canonical [`multipub_obs::trace::STAGE_NAMES`] order.
#[must_use]
pub fn stage_breakdown(spans: &[Span]) -> Vec<StageBreakdown> {
    multipub_obs::trace::STAGE_NAMES
        .iter()
        .filter_map(|&stage| {
            let mut durs: Vec<u64> =
                spans.iter().filter(|s| s.stage == stage).map(|s| s.dur_micros).collect();
            if durs.is_empty() {
                return None;
            }
            durs.sort_unstable();
            let total: u64 = durs.iter().sum();
            Some(StageBreakdown {
                stage: stage.to_string(),
                count: durs.len() as u64,
                p50_ms: percentile_ms(&durs, 0.50),
                p99_ms: percentile_ms(&durs, 0.99),
                mean_ms: total as f64 / durs.len() as f64 / 1000.0,
            })
        })
        .collect()
}

/// Sharded-vs-reference summary of a comparison run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Comparison {
    /// Aggregate msgs/sec with the sharded zero-copy path.
    pub sharded_msgs_per_sec: f64,
    /// Aggregate msgs/sec with the single-shard reference path.
    pub single_shard_msgs_per_sec: f64,
    /// `sharded / single_shard`.
    pub speedup: f64,
}

/// The `BENCH_throughput.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Layout identifier ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// `true` when the numbers come from a real harness run on this
    /// host; `false` marks a placeholder (e.g. committed from an
    /// environment that cannot run the harness).
    pub measured: bool,
    /// Logical cores on the measuring host.
    pub host_cores: usize,
    /// Every scenario run, in execution order.
    pub scenarios: Vec<ScenarioResult>,
    /// Sharded-vs-reference summary when both scenarios ran.
    pub comparison: Option<Comparison>,
    /// Caveats and methodology notes (sampling caps, provenance).
    pub notes: Vec<String>,
}

/// Serializes `report` as pretty-printed JSON.
///
/// # Errors
///
/// Returns a message if serialization fails (it cannot, for this type,
/// but the harness never panics).
pub fn render_report(report: &BenchReport) -> Result<String, String> {
    serde_json::to_string_pretty(report).map_err(|e| format!("serialize report: {e}"))
}

/// Writes `report` to `path` (with a trailing newline, for clean
/// diffs of the committed file).
///
/// # Errors
///
/// Returns a message on serialization or I/O failure.
pub fn write_report(path: &std::path::Path, report: &BenchReport) -> Result<(), String> {
    let mut json = render_report(report)?;
    json.push('\n');
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs one scenario end to end: spawn a broker with the configured
/// shard count, connect the fan-out, warm up until every subscriber has
/// seen a frame, then publish flat-out for the configured window and
/// drain.
///
/// # Errors
///
/// Returns a message when setup fails or the warm-up frame is not
/// delivered everywhere within 10 s.
pub async fn run_scenario(cfg: &ScenarioConfig) -> Result<ScenarioResult, String> {
    run_scenario_with_spans(cfg).await.map(|(result, _)| result)
}

/// Like [`run_scenario`], additionally returning the raw stage spans
/// drained from the process-global trace ring (empty when
/// `cfg.trace_sample` is 0). Scenarios must not run concurrently in one
/// process: the ring is shared.
///
/// # Errors
///
/// Returns a message when setup fails or the warm-up frame is not
/// delivered everywhere within 10 s.
pub async fn run_scenario_with_spans(
    cfg: &ScenarioConfig,
) -> Result<(ScenarioResult, Vec<Span>), String> {
    let fanout = cfg.fanout.max(1);
    let publishers = cfg.publishers.max(1);
    let broker = Broker::builder(RegionId(0))
        .shards(cfg.shards)
        .spawn()
        .await
        .map_err(|e| format!("spawn broker: {e:?}"))?;
    let addr = broker.local_addr();
    let topic = "bench/throughput".to_string();

    let mut stats: Vec<Arc<SubscriberStats>> = Vec::with_capacity(fanout);
    let mut sub_tasks = Vec::with_capacity(fanout);
    for i in 0..fanout {
        let sub_stats = Arc::new(SubscriberStats::default());
        stats.push(Arc::clone(&sub_stats));
        sub_tasks.push(tokio::spawn(raw_subscriber(
            addr,
            1_000 + i as u64,
            topic.clone(),
            i < TRIP_SAMPLERS,
            cfg.qos1,
            sub_stats,
        )));
    }

    let busy = Arc::new(AtomicU64::new(0));
    let acked = Arc::new(AtomicU64::new(0));
    let mut pubs = Vec::with_capacity(publishers);
    for i in 0..publishers {
        let mut raw = RawPublisher::connect(
            addr,
            1 + i as u64,
            topic.clone(),
            Arc::clone(&busy),
            Arc::clone(&acked),
        )
        .await?
        .with_trace_sample(cfg.trace_sample);
        if cfg.qos1 {
            raw = raw.with_qos1();
        }
        pubs.push(raw);
    }

    // Warm-up: one frame must reach every subscriber before the clock
    // starts, proving all subscriptions are registered.
    let payload = Bytes::from(vec![0x42u8; cfg.payload_bytes]);
    let warmup_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(first) = pubs.first_mut() {
            first.publish(&payload).await?;
        }
        tokio::time::sleep(Duration::from_millis(50)).await;
        let reached = stats.iter().filter(|s| s.delivered.load(Ordering::Relaxed) > 0).count();
        if reached == fanout {
            break;
        }
        if Instant::now() > warmup_deadline {
            return Err(format!("warm-up: only {reached}/{fanout} subscribers reached in 10s"));
        }
    }
    // Let in-flight warm-up deliveries land before snapshotting the
    // baseline, so they are not miscounted as measured throughput.
    tokio::time::sleep(Duration::from_millis(200)).await;
    let warmup_delivered: u64 = stats.iter().map(|s| s.delivered.load(Ordering::Relaxed)).sum();
    for sub_stats in &stats {
        sub_stats.take_trips(); // discard warm-up samples
    }
    multipub_obs::trace::ring().drain(); // discard warm-up spans

    // Measurement window: every publisher publishes flat-out.
    let started = Instant::now();
    let deadline = started + cfg.duration;
    let published = Arc::new(AtomicU64::new(0));
    let mut pub_tasks = Vec::with_capacity(pubs.len());
    for mut raw in pubs {
        let payload = payload.clone();
        let published = Arc::clone(&published);
        pub_tasks.push(tokio::spawn(async move {
            while Instant::now() < deadline {
                if raw.publish(&payload).await.is_err() {
                    break;
                }
                published.fetch_add(1, Ordering::Relaxed);
            }
            drop(raw); // closes the connection; the broker drops publisher state
        }));
    }
    for task in pub_tasks {
        task.await.ok();
    }

    // Drain: wait until the delivery count stops moving (two quiet
    // 100 ms polls), capped at 5 s.
    let mut last: u64 = 0;
    let mut quiet = 0u32;
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    while quiet < 2 && Instant::now() < drain_deadline {
        tokio::time::sleep(Duration::from_millis(100)).await;
        let total: u64 = stats.iter().map(|s| s.delivered.load(Ordering::Relaxed)).sum();
        if total == last {
            quiet += 1;
        } else {
            quiet = 0;
            last = total;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    let delivered_total: u64 =
        stats.iter().map(|s| s.delivered.load(Ordering::Relaxed)).sum::<u64>() - warmup_delivered;
    let mut trips: Vec<u64> = Vec::new();
    for sub_stats in &stats {
        trips.extend(sub_stats.take_trips());
    }
    trips.sort_unstable();

    for task in &sub_tasks {
        task.abort();
    }
    broker.shutdown();

    let spans = multipub_obs::trace::ring().drain();
    let result = ScenarioResult {
        name: cfg.name.clone(),
        shards: cfg.shards,
        fanout,
        publishers,
        payload_bytes: cfg.payload_bytes,
        duration_secs: elapsed,
        published: published.load(Ordering::Relaxed),
        busy_nacks: busy.load(Ordering::Relaxed),
        acked: acked.load(Ordering::Relaxed),
        delivered: delivered_total,
        msgs_per_sec: if elapsed > 0.0 { delivered_total as f64 / elapsed } else { 0.0 },
        trip_p50_ms: percentile_ms(&trips, 0.50),
        trip_p99_ms: percentile_ms(&trips, 0.99),
        stages: stage_breakdown(&spans),
    };
    Ok((result, spans))
}

/// Standard methodology notes attached to every generated report.
#[must_use]
pub fn standard_notes() -> Vec<String> {
    vec![
        format!(
            "trip percentiles are sampled from the first {TRIP_SAMPLERS} subscribers, \
             capped at {MAX_TRIP_SAMPLES} samples each"
        ),
        "throughput is aggregate Deliver frames per second across all subscribers, \
         measured from publish start through queue drain"
            .to_string(),
        "single-shard runs use the seed-equivalent reference path: per-subscriber \
         encode, frame-at-a-time socket writes (DESIGN.md §11)"
            .to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_sorted_micros() {
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[4000], 0.99), 4.0);
        let samples: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_ms(&samples, 0.0), 1.0);
        assert_eq!(percentile_ms(&samples, 1.0), 100.0);
        let p50 = percentile_ms(&samples, 0.5);
        assert!((49.0..=51.0).contains(&p50), "p50 was {p50}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = BenchReport {
            schema: REPORT_SCHEMA.to_string(),
            measured: true,
            host_cores: 4,
            scenarios: vec![ScenarioResult {
                name: "sharded".to_string(),
                shards: 4,
                fanout: 1000,
                publishers: 1,
                payload_bytes: 100,
                duration_secs: 10.0,
                published: 1_500,
                busy_nacks: 0,
                acked: 0,
                delivered: 1_500_000,
                msgs_per_sec: 150_000.0,
                trip_p50_ms: 2.5,
                trip_p99_ms: 20.0,
                stages: vec![StageBreakdown {
                    stage: "queue".to_string(),
                    count: 100,
                    p50_ms: 0.1,
                    p99_ms: 0.8,
                    mean_ms: 0.2,
                }],
            }],
            comparison: Some(Comparison {
                sharded_msgs_per_sec: 150_000.0,
                single_shard_msgs_per_sec: 80_000.0,
                speedup: 1.875,
            }),
            notes: standard_notes(),
        };
        let json = render_report(&report).expect("serializes");
        let back: BenchReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.schema, REPORT_SCHEMA);
        assert_eq!(back.scenarios.len(), 1);
        assert!(back.comparison.is_some());
        assert_eq!(back.scenarios[0].stages.len(), 1);
    }

    #[test]
    fn pre_tracing_reports_still_parse() {
        // The stages field is additive: a v1 report written before the
        // tracing work (no "stages" key) must deserialize with an empty
        // breakdown, keeping the committed-artifact pipeline compatible.
        let json = r#"{
            "name": "sharded", "shards": 4, "fanout": 10, "publishers": 1,
            "payload_bytes": 100, "duration_secs": 1.0, "published": 10,
            "busy_nacks": 0, "delivered": 100, "msgs_per_sec": 100.0,
            "trip_p50_ms": 1.0, "trip_p99_ms": 2.0
        }"#;
        let back: ScenarioResult = serde_json::from_str(json).expect("parses");
        assert!(back.stages.is_empty());
        assert_eq!(back.acked, 0, "pre-QoS reports default the ack count");
    }

    #[test]
    fn stage_breakdown_groups_by_stage_in_canonical_order() {
        let span = |stage, dur| Span { trace_id: 1, stage, start_micros: 0, dur_micros: dur };
        let spans =
            vec![span("deliver", 4000), span("match", 1000), span("match", 3000), span("bogus", 9)];
        let breakdown = stage_breakdown(&spans);
        assert_eq!(breakdown.len(), 2, "unknown stages are ignored, empty stages omitted");
        assert_eq!(breakdown[0].stage, "match");
        assert_eq!(breakdown[0].count, 2);
        assert!((breakdown[0].mean_ms - 2.0).abs() < 1e-9);
        assert_eq!(breakdown[1].stage, "deliver");
        assert!((breakdown[1].p50_ms - 4.0).abs() < 1e-9);
    }

    /// Serializes the live-scenario tests: [`run_scenario_with_spans`]
    /// drains the process-global trace ring, so concurrent scenarios in
    /// one test binary would steal each other's spans.
    // Deliberately a plain std mutex: test-only, never nested, and the
    // ranked wrappers are for library locks the witness should watch.
    static LIVE_SCENARIO_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[tokio::test]
    async fn tiny_live_scenario_delivers() {
        let _guard = LIVE_SCENARIO_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let cfg = ScenarioConfig {
            name: "smoke".to_string(),
            shards: 2,
            fanout: 3,
            publishers: 1,
            payload_bytes: 32,
            duration: Duration::from_millis(300),
            trace_sample: 0.0,
            qos1: false,
        };
        let result = run_scenario(&cfg).await.expect("scenario runs");
        assert_eq!(result.fanout, 3);
        assert!(result.published > 0, "publisher made progress");
        assert!(result.delivered > 0, "subscribers saw deliveries");
        assert!(result.msgs_per_sec > 0.0);
        assert_eq!(result.acked, 0, "QoS 0 publishes are never acked");
        assert!(result.stages.is_empty(), "tracing off leaves no stage breakdown");
    }

    #[tokio::test]
    async fn qos1_live_scenario_acks_every_publish() {
        let _guard = LIVE_SCENARIO_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let cfg = ScenarioConfig {
            name: "qos1-smoke".to_string(),
            shards: 2,
            fanout: 2,
            publishers: 1,
            payload_bytes: 32,
            duration: Duration::from_millis(300),
            trace_sample: 0.0,
            qos1: true,
        };
        let result = run_scenario(&cfg).await.expect("scenario runs");
        assert!(result.published > 0, "publisher made progress");
        assert!(result.delivered > 0, "subscribers saw deliveries");
        assert!(result.acked > 0, "QoS 1 publishes earn PubAcks");
    }

    #[tokio::test]
    async fn traced_scenario_yields_stage_spans() {
        let _guard = LIVE_SCENARIO_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let cfg = ScenarioConfig {
            name: "trace-smoke".to_string(),
            shards: 2,
            fanout: 2,
            publishers: 1,
            payload_bytes: 16,
            duration: Duration::from_millis(300),
            trace_sample: 1.0,
            qos1: false,
        };
        let (result, spans) = run_scenario_with_spans(&cfg).await.expect("scenario runs");
        assert!(result.delivered > 0);
        assert!(!spans.is_empty(), "sampling at 1.0 records spans");
        for stage in multipub_obs::trace::STAGE_NAMES {
            assert!(
                result.stages.iter().any(|b| b.stage == stage),
                "stage {stage} missing from breakdown: {:?}",
                result.stages
            );
        }
    }
}
