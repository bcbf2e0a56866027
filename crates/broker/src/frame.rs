//! Wire-protocol frames exchanged between clients, brokers and the
//! controller.
//!
//! The protocol is a flat set of frames over a length-prefixed binary
//! encoding (see [`crate::codec`]). Publications travel as [`Frame::Publish`]
//! (client → broker), [`Frame::Forward`] (broker → peer broker, routed
//! delivery) and [`Frame::Deliver`] (broker → subscriber); the control
//! plane uses [`Frame::StatsReport`] (region manager → controller) and
//! [`Frame::ConfigUpdate`] (controller → broker → clients).

use crate::flow::SlowConsumerPolicy;
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Who is opening a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// A publishing client.
    Publisher,
    /// A subscribing client.
    Subscriber,
    /// A peer broker in another region (forwarding channel).
    Peer,
    /// The MultiPub controller's control-plane connection.
    Controller,
}

impl Role {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Role::Publisher => 0,
            Role::Subscriber => 1,
            Role::Peer => 2,
            Role::Controller => 3,
        }
    }

    pub(crate) fn from_u8(value: u8) -> Option<Role> {
        Some(match value {
            0 => Role::Publisher,
            1 => Role::Subscriber,
            2 => Role::Peer,
            3 => Role::Controller,
            _ => return None,
        })
    }
}

/// Delivery mode carried in configuration updates (mirrors
/// [`multipub_core::assignment::DeliveryMode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WireMode {
    /// Publishers send to every serving region.
    Direct,
    /// Publishers send to their closest serving region, which forwards.
    Routed,
}

impl WireMode {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            WireMode::Direct => 0,
            WireMode::Routed => 1,
        }
    }

    pub(crate) fn from_u8(value: u8) -> Option<WireMode> {
        Some(match value {
            0 => WireMode::Direct,
            1 => WireMode::Routed,
            _ => return None,
        })
    }
}

impl From<multipub_core::assignment::DeliveryMode> for WireMode {
    fn from(mode: multipub_core::assignment::DeliveryMode) -> Self {
        match mode {
            multipub_core::assignment::DeliveryMode::Direct => WireMode::Direct,
            multipub_core::assignment::DeliveryMode::Routed => WireMode::Routed,
        }
    }
}

impl From<WireMode> for multipub_core::assignment::DeliveryMode {
    fn from(mode: WireMode) -> Self {
        match mode {
            WireMode::Direct => multipub_core::assignment::DeliveryMode::Direct,
            WireMode::Routed => multipub_core::assignment::DeliveryMode::Routed,
        }
    }
}

/// Optional per-message trace context carried on the publish path
/// ([`Frame::Publish`] → [`Frame::Forward`] → [`Frame::Deliver`]).
///
/// The sampling decision is made once at the publisher and travels with
/// the message; each pipeline stage stamps the wall-clock microsecond
/// at which it finished into its slot (`0` = not yet stamped), so the
/// receiver can reconstruct per-hop stage spans that sum exactly to the
/// end-to-end trip time (see `multipub_obs::trace` and DESIGN.md §12).
///
/// On the wire the context is encoded at a **fixed offset** immediately
/// after the tag byte (see [`crate::codec`]): the encoded bytes of a
/// zero-copy fan-out are shared across subscriber queues, and the
/// writer task patches the queue/write stamps into a private copy of
/// the sampled frames without re-encoding. Control frames never carry
/// a context ([`Frame::is_control`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Trace id minted at the publisher; groups one message's spans.
    pub trace_id: u64,
    /// Whether stages should emit spans for this message.
    pub sampled: bool,
    /// When broker admission control passed (µs since the UNIX epoch).
    pub admit_micros: u64,
    /// When shard match + encode finished (µs since the UNIX epoch).
    pub match_micros: u64,
    /// When the frame left its outbound flow queue (µs since the UNIX
    /// epoch); stamped into the encoded bytes by the writer task.
    pub queue_micros: u64,
    /// When the vectored socket write started (µs since the UNIX
    /// epoch); stamped into the encoded bytes by the writer task.
    pub write_micros: u64,
}

impl TraceContext {
    /// A fresh sampled context with no stage stamps yet.
    #[must_use]
    pub fn new(trace_id: u64) -> Self {
        TraceContext {
            trace_id,
            sampled: true,
            admit_micros: 0,
            match_micros: 0,
            queue_micros: 0,
            write_micros: 0,
        }
    }
}

/// A protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Opens a connection, declaring the sender's identity and role.
    Connect {
        /// The connecting client/peer id.
        client_id: u64,
        /// The sender's role.
        role: Role,
        /// Slow-consumer policy the sender asks the broker to apply to
        /// this connection's outbound queue; `None` defers to the
        /// broker's configured default. Only meaningful for
        /// [`Role::Subscriber`] connections.
        policy: Option<SlowConsumerPolicy>,
    },
    /// Accepts a connection, telling the sender which region it reached.
    ConnectAck {
        /// The broker's region index.
        region: u16,
    },
    /// Registers interest in a topic, optionally restricted by a
    /// content filter (a `multipub-filter` predicate in textual form).
    Subscribe {
        /// Topic name.
        topic: String,
        /// Content filter source, empty for plain topic subscription.
        filter: String,
        /// Requested delivery quality of service: `0` = at-most-once,
        /// `1` = at-least-once (the broker tracks unacked deliveries
        /// for this subscription and redelivers on reconnect).
        qos: u8,
    },
    /// Removes interest in a topic.
    Unsubscribe {
        /// Topic name.
        topic: String,
    },
    /// A publication sent by a publishing client.
    Publish {
        /// Topic name.
        topic: String,
        /// Publishing client id.
        publisher: u64,
        /// Publisher-side timestamp, microseconds since an arbitrary epoch
        /// (used for end-to-end latency measurements).
        publish_micros: u64,
        /// `true` when the publisher sent this message to **only this**
        /// broker (routed delivery), `false` when it fanned out to every
        /// serving region itself (direct delivery). The broker forwards
        /// single-target publications to the topic's other serving
        /// regions, which also closes the reconfiguration window where a
        /// publisher's configuration view is stale.
        single_target: bool,
        /// JSON-encoded content headers (see `multipub-filter`), empty
        /// when the publication carries none.
        headers: String,
        /// Message payload.
        payload: Bytes,
        /// Optional trace context; `None` for unsampled messages.
        trace: Option<TraceContext>,
        /// Delivery quality of service: `0` = at-most-once (fire and
        /// forget), `1` = at-least-once (the broker answers with a
        /// [`Frame::PubAck`] and the publisher retransmits until acked).
        qos: u8,
        /// Per-publisher sequence number for QoS 1 publications
        /// (monotonic, starting at 1); `0` on QoS 0 traffic. Together
        /// with `publisher` this keys the broker's dedup window so
        /// retransmits are idempotent.
        seq: u64,
        /// When `true` the broker stores this message as the topic's
        /// retained last value (replayed to new subscribers); an empty
        /// payload clears the retained value.
        retain: bool,
        /// The topic epoch of the configuration the publisher steered
        /// by (`0` before any reconfiguration). Retiring brokers use a
        /// stale epoch to recognize — and bridge, not drop — traffic
        /// from publishers that have not yet re-steered (DESIGN.md §15).
        epoch: u64,
    },
    /// A publication forwarded between brokers (routed delivery).
    Forward {
        /// Topic name.
        topic: String,
        /// Publishing client id.
        publisher: u64,
        /// Publisher-side timestamp (microseconds).
        publish_micros: u64,
        /// Region the forwarding broker lives in.
        origin_region: u16,
        /// JSON-encoded content headers, empty when none.
        headers: String,
        /// Message payload.
        payload: Bytes,
        /// Optional trace context; `None` for unsampled messages.
        trace: Option<TraceContext>,
        /// Delivery quality of service of the originating publish.
        qos: u8,
        /// Origin publisher's sequence number (`0` on QoS 0 traffic).
        /// Dedup at the receiving broker is keyed on the **origin**
        /// publisher so a star-topology mesh cannot double-deliver.
        seq: u64,
        /// Whether the receiving broker should also store this message
        /// as the topic's retained last value.
        retain: bool,
    },
    /// A publication delivered to a subscriber.
    Deliver {
        /// Topic name.
        topic: String,
        /// Publishing client id.
        publisher: u64,
        /// Publisher-side timestamp (microseconds).
        publish_micros: u64,
        /// JSON-encoded content headers, empty when none.
        headers: String,
        /// Message payload.
        payload: Bytes,
        /// Optional trace context; `None` for unsampled messages.
        trace: Option<TraceContext>,
        /// Delivery quality of service of the originating publish. On
        /// QoS 1 the subscriber answers with a [`Frame::DeliverAck`] so
        /// the broker can trim its unacked-delivery buffer.
        qos: u8,
        /// Origin publisher's sequence number (`0` on QoS 0 traffic);
        /// subscribers filter duplicate `(publisher, seq)` pairs.
        seq: u64,
        /// `true` when this is a retained last-value replay triggered by
        /// a subscription rather than a live publication.
        retained: bool,
    },
    /// Controller → broker: asks the region manager for its statistics.
    StatsRequest,
    /// Broker → controller: one region manager's interval report,
    /// JSON-encoded (see [`crate::broker::RegionReport`]).
    StatsReport {
        /// JSON body of the report.
        json: String,
    },
    /// Controller → broker, and broker → affected clients: a topic's new
    /// configuration (assignment bitmask + delivery mode).
    ConfigUpdate {
        /// Topic name.
        topic: String,
        /// Assignment bitmask, bit `i` ↔ region `i`.
        mask: u32,
        /// Delivery mode.
        mode: WireMode,
        /// Monotonically-increasing per-topic configuration epoch.
        /// Receivers ignore updates whose epoch is older than what they
        /// already hold, so a delayed or replayed update can never roll
        /// a topic's view backwards (DESIGN.md §15).
        epoch: u64,
    },
    /// Latency probe — and keepalive. [`crate::probe`] times Ping/Pong
    /// round trips; clients with
    /// [`crate::client::ClientConfig::keepalive`] set (and outbound peer
    /// links on brokers with an idle timeout) also send periodic Pings so
    /// a broker's idle deadline sees traffic on otherwise-quiet but
    /// healthy connections.
    Ping {
        /// Echoed back in the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Latency probe response.
    Pong {
        /// The nonce of the [`Frame::Ping`] being answered.
        nonce: u64,
    },
    /// Controller → broker: asks for the broker's metrics-registry
    /// snapshot (counters, gauges, latency histograms), as opposed to
    /// [`Frame::StatsRequest`], which asks the region manager for its
    /// per-topic interval report.
    StatsSnapshotRequest,
    /// Broker → controller: the metrics-registry snapshot, in
    /// `multipub-obs` JSON form.
    StatsSnapshot {
        /// JSON body of the snapshot (see `multipub_obs::Registry::render_json`).
        json: String,
    },
    /// Broker → publisher: explicit admission-control NACK. The broker
    /// refused a [`Frame::Publish`] — its token bucket ran dry or the
    /// broker is in the `Overloaded` state — and dropped the message
    /// rather than queueing it silently. Clients treat this as
    /// retryable and back off (see DESIGN.md §10).
    Busy {
        /// Topic of the refused publication.
        topic: String,
        /// Broker's hint for when to retry, in milliseconds.
        retry_after_ms: u32,
        /// Sequence number of the refused publication (`0` for QoS 0).
        /// A NACKed QoS 1 publish stays pending at the publisher and is
        /// retransmitted after the hinted delay rather than shed.
        seq: u64,
    },
    /// Broker → publisher: acknowledges a QoS 1 [`Frame::Publish`]. The
    /// broker has accepted the message (fanned it out locally and
    /// forwarded it to peer regions as required) or recognized it as a
    /// duplicate retransmit; either way the publisher stops
    /// retransmitting `seq`.
    PubAck {
        /// Topic of the acknowledged publication.
        topic: String,
        /// The acknowledged publisher sequence number.
        seq: u64,
    },
    /// Subscriber → broker: acknowledges a QoS 1 [`Frame::Deliver`],
    /// letting the broker trim the matching entry from its bounded
    /// per-(topic, client) unacked-delivery buffer.
    DeliverAck {
        /// Topic of the acknowledged delivery.
        topic: String,
        /// Origin publisher id of the acknowledged delivery.
        publisher: u64,
        /// Origin publisher sequence number of the acknowledged delivery.
        seq: u64,
    },
    /// Controller → broker: phase one of a make-before-break handover
    /// (DESIGN.md §15). Every participating broker — new serving
    /// regions and retiring ones alike — records the pending
    /// configuration and starts bridge-forwarding publish traffic to
    /// the **union** of the committed and pending serving sets, so both
    /// sets see every message before any client re-steers. Clients are
    /// not told about the pending epoch; the update stays invisible
    /// until [`Frame::HandoverCommit`].
    HandoverPrepare {
        /// Topic name.
        topic: String,
        /// Pending assignment bitmask, bit `i` ↔ region `i`.
        mask: u32,
        /// Pending delivery mode.
        mode: WireMode,
        /// The epoch being prepared (committed epoch + 1).
        epoch: u64,
    },
    /// Controller → broker: phase two — all participants acked the
    /// prepare, the handover is now irrevocable. Brokers promote the
    /// pending configuration to committed, fan the new epoch to
    /// affected clients (who re-steer make-before-break), and keep
    /// bridging stale-epoch traffic to the retired regions' replacement
    /// set for `grace_ms` before dropping their pending state.
    HandoverCommit {
        /// Topic name.
        topic: String,
        /// The epoch being committed (must match the prepared epoch).
        epoch: u64,
        /// Drain window in milliseconds: how long retiring regions keep
        /// bridge-forwarding stragglers after commit.
        grace_ms: u32,
    },
    /// Controller → broker: a participant died or timed out during
    /// prepare; discard the pending epoch and fall back to the last
    /// committed configuration. Aborts are idempotent — a broker that
    /// never saw the prepare ignores the abort.
    HandoverAbort {
        /// Topic name.
        topic: String,
        /// The epoch being abandoned.
        epoch: u64,
    },
    /// Broker → controller: acknowledges a handover phase frame so the
    /// controller's state machine can advance (or abort on timeout).
    HandoverAck {
        /// Topic name.
        topic: String,
        /// The epoch the ack refers to.
        epoch: u64,
        /// Which phase is being acked: `0` = prepare, `1` = commit,
        /// `2` = abort.
        phase: u8,
    },
}

/// Every tag byte the wire protocol declares, in ascending order.
///
/// This is the protocol's tag catalog: the lint (`xtask`, pass L3)
/// cross-checks it against [`Frame::tag`] and the codec's encode/decode
/// arms, and the codec property tests drive the decoder with each entry
/// to prove no declared tag can panic it.
pub const KNOWN_TAGS: [u8; 21] = [
    0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F, 0x10,
    0x11, 0x12, 0x13, 0x14, 0x15,
];

impl Frame {
    /// The discriminant byte used on the wire.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Connect { .. } => 0x01,
            Frame::ConnectAck { .. } => 0x02,
            Frame::Subscribe { .. } => 0x03,
            Frame::Unsubscribe { .. } => 0x04,
            Frame::Publish { .. } => 0x05,
            Frame::Forward { .. } => 0x06,
            Frame::Deliver { .. } => 0x07,
            Frame::StatsRequest => 0x08,
            Frame::StatsReport { .. } => 0x09,
            Frame::ConfigUpdate { .. } => 0x0A,
            Frame::Ping { .. } => 0x0B,
            Frame::Pong { .. } => 0x0C,
            Frame::StatsSnapshotRequest => 0x0D,
            Frame::StatsSnapshot { .. } => 0x0E,
            Frame::Busy { .. } => 0x0F,
            Frame::PubAck { .. } => 0x10,
            Frame::DeliverAck { .. } => 0x11,
            Frame::HandoverPrepare { .. } => 0x12,
            Frame::HandoverCommit { .. } => 0x13,
            Frame::HandoverAbort { .. } => 0x14,
            Frame::HandoverAck { .. } => 0x15,
        }
    }

    /// Whether this frame is control traffic (keepalives, stats,
    /// admission NACKs, connection management) rather than a message on
    /// the publish path. Control frames are excluded from trace
    /// sampling and span emission so keepalive storms under chaos runs
    /// cannot flood the span ring.
    pub fn is_control(&self) -> bool {
        !matches!(self, Frame::Publish { .. } | Frame::Forward { .. } | Frame::Deliver { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_roundtrip() {
        for role in [Role::Publisher, Role::Subscriber, Role::Peer, Role::Controller] {
            assert_eq!(Role::from_u8(role.to_u8()), Some(role));
        }
        assert_eq!(Role::from_u8(42), None);
    }

    #[test]
    fn mode_roundtrip() {
        for mode in [WireMode::Direct, WireMode::Routed] {
            assert_eq!(WireMode::from_u8(mode.to_u8()), Some(mode));
        }
        assert_eq!(WireMode::from_u8(9), None);
    }

    #[test]
    fn mode_converts_to_core() {
        use multipub_core::assignment::DeliveryMode;
        assert_eq!(DeliveryMode::from(WireMode::Routed), DeliveryMode::Routed);
        assert_eq!(WireMode::from(DeliveryMode::Direct), WireMode::Direct);
    }

    #[test]
    fn tags_are_unique() {
        use std::collections::HashSet;
        let frames = [
            Frame::Connect { client_id: 1, role: Role::Publisher, policy: None },
            Frame::ConnectAck { region: 0 },
            Frame::Subscribe { topic: "t".into(), filter: String::new(), qos: 0 },
            Frame::Unsubscribe { topic: "t".into() },
            Frame::Publish {
                topic: "t".into(),
                publisher: 1,
                publish_micros: 0,
                single_target: true,
                headers: String::new(),
                payload: Bytes::new(),
                trace: None,
                qos: 0,
                seq: 0,
                retain: false,
                epoch: 0,
            },
            Frame::Forward {
                topic: "t".into(),
                publisher: 1,
                publish_micros: 0,
                origin_region: 0,
                headers: String::new(),
                payload: Bytes::new(),
                trace: None,
                qos: 0,
                seq: 0,
                retain: false,
            },
            Frame::Deliver {
                topic: "t".into(),
                publisher: 1,
                publish_micros: 0,
                headers: String::new(),
                payload: Bytes::new(),
                trace: None,
                qos: 0,
                seq: 0,
                retained: false,
            },
            Frame::StatsRequest,
            Frame::StatsReport { json: "{}".into() },
            Frame::ConfigUpdate { topic: "t".into(), mask: 1, mode: WireMode::Direct, epoch: 0 },
            Frame::Ping { nonce: 0 },
            Frame::Pong { nonce: 0 },
            Frame::StatsSnapshotRequest,
            Frame::StatsSnapshot { json: "{}".into() },
            Frame::Busy { topic: "t".into(), retry_after_ms: 100, seq: 0 },
            Frame::PubAck { topic: "t".into(), seq: 1 },
            Frame::DeliverAck { topic: "t".into(), publisher: 1, seq: 1 },
            Frame::HandoverPrepare { topic: "t".into(), mask: 3, mode: WireMode::Routed, epoch: 1 },
            Frame::HandoverCommit { topic: "t".into(), epoch: 1, grace_ms: 500 },
            Frame::HandoverAbort { topic: "t".into(), epoch: 1 },
            Frame::HandoverAck { topic: "t".into(), epoch: 1, phase: 0 },
        ];
        let tags: HashSet<u8> = frames.iter().map(Frame::tag).collect();
        assert_eq!(tags.len(), frames.len());
        let declared: HashSet<u8> = KNOWN_TAGS.into_iter().collect();
        assert_eq!(tags, declared, "KNOWN_TAGS must list exactly the tags frames use");

        // Exactly the publish-path frames participate in tracing; all
        // control traffic (Ping/Pong/Stats*, Busy, connection
        // management) is excluded from sampling and span emission.
        let data_tags: HashSet<u8> =
            frames.iter().filter(|f| !f.is_control()).map(Frame::tag).collect();
        assert_eq!(data_tags, HashSet::from([0x05, 0x06, 0x07]));
    }

    #[test]
    fn trace_context_starts_unstamped() {
        let ctx = TraceContext::new(42);
        assert!(ctx.sampled);
        assert_eq!(
            (ctx.admit_micros, ctx.match_micros, ctx.queue_micros, ctx.write_micros),
            (0, 0, 0, 0)
        );
    }
}
