//! The frame table: every frame the protocol knows, its tag byte and its
//! fields in wire order, written once.

use crate::codec::{CodecError, Long, Payload, Put, Reader, Short, Take};
use crate::policy::SlowConsumerPolicy;
use multipub_core::assignment::DeliveryMode;
use std::ops::Range;

/// Who is opening a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
/// after the tag byte (see the crate docs): the encoded bytes of a
/// zero-copy fan-out are shared across subscriber queues, and the
/// writer task patches the queue/write stamps into a private copy of
/// the sampled frames without re-encoding ([`crate::stamp_queue_write`]).
/// Control frames never carry a context ([`Frame::is_control`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Generates [`Frame`] and everything that tags, classifies, encodes or
/// decodes one from the table below. A row is `tag Variant { fields }`
/// (or `tag Variant` for a frame with no fields); each field's wire form
/// follows from its type, except that `as Short`, `as Long` and
/// `as Payload` pick a string's or byte payload's length prefix.
macro_rules! frames {
    ($(
        $(#[$doc:meta])*
        $tag:literal $name:ident $({
            $($(#[$field_doc:meta])* $field:ident: $ty:ty $(as $form:ident)?),* $(,)?
        })?
    ),* $(,)?) => {
        /// A protocol frame, generic over how it holds its payload: as a
        /// shared buffer slice in the broker, as a `Range<usize>` into the
        /// input straight out of [`decode`](crate::decode).
        #[derive(Debug, Clone, PartialEq)]
        pub enum Frame<P> {
            $($(#[$doc])* $name $({ $($(#[$field_doc])* $field: $ty),* })?,)*
        }

        #[repr(u8)]
        pub(crate) enum Tag {
            $($name = $tag),*
        }

        /// Every tag byte the wire protocol declares, in ascending order:
        /// the decoder rejects any other as [`CodecError::UnknownTag`].
        pub const KNOWN_TAGS: [u8; [$($tag),*].len()] = [$(Tag::$name as u8),*];

        impl<P> Frame<P> {
            /// The discriminant byte used on the wire.
            pub fn tag(&self) -> u8 {
                match self {
                    $(Frame::$name { .. } => Tag::$name as u8,)*
                }
            }

            /// Whether this frame is control traffic (keepalives, stats,
            /// admission NACKs, connection management) rather than a
            /// message on the publish path. Control frames are excluded
            /// from trace sampling and span emission so keepalive storms
            /// under chaos runs cannot flood the span ring. A frame is on
            /// the publish path exactly when its first field is the
            /// trace block, which is what keeps that block at a fixed
            /// offset.
            pub fn is_control(&self) -> bool {
                match self {
                    $(Frame::$name { .. } => is_control!($($($field)*)?),)*
                }
            }

            /// The same frame holding its payload as `f` makes it: how a
            /// decoded payload range becomes a slice of the caller's
            /// buffer.
            pub fn map_payload<Q>(self, f: impl FnOnce(P) -> Q) -> Frame<Q> {
                match self {
                    $(Frame::$name { $($($field),*)? } => Frame::$name {
                        $($($field: map_field!($($form)?; $field, f)),*)?
                    },)*
                }
            }
        }

        impl<P: AsRef<[u8]>> Frame<P> {
            pub(crate) fn put_fields(&self, out: &mut Vec<u8>) {
                match self {
                    $(Frame::$name { $($($field),*)? } => {
                        $($(<form!($ty $(, $form)?) as Put<_>>::put($field, out);)*)?
                    })*
                }
            }
        }

        impl Frame<Range<usize>> {
            pub(crate) fn take_fields(tag: u8, r: &mut Reader<'_>) -> Result<Self, CodecError> {
                // Struct expressions evaluate their fields in the order
                // written, which is wire order.
                Ok(match tag {
                    $($tag => Frame::$name {
                        $($($field: <form!($ty $(, $form)?) as Take<_>>::take(r)?),*)?
                    },)*
                    tag => return Err(CodecError::UnknownTag { tag }),
                })
            }
        }
    };
}

/// The type that carries a field's wire form: its `as` form if it names
/// one, else its own type.
macro_rules! form {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $form:ident) => {
        $form
    };
}

/// A field of [`Frame::map_payload`]'s result: the payload mapped, any
/// other field moved across.
macro_rules! map_field {
    (Payload; $value:ident, $f:ident) => {
        $f($value)
    };
    ($($form:ident)?; $value:ident, $f:ident) => {
        $value
    };
}

/// Whether a row with these fields is control traffic: publish-path rows
/// lead with `trace`.
macro_rules! is_control {
    (trace $($field:ident)*) => {
        false
    };
    ($($field:ident)*) => {
        true
    };
}

frames! {
    /// Opens a connection, declaring the sender's identity and role.
    0x01 Connect {
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
    0x02 ConnectAck {
        /// The broker's region index.
        region: u16,
    },
    /// Registers interest in a topic, optionally restricted by a
    /// content filter (a `multipub-filter` predicate in textual form).
    0x03 Subscribe {
        /// Topic name.
        topic: String as Short,
        /// Content filter source, empty for plain topic subscription.
        filter: String as Long,
        /// Requested delivery quality of service: `0` = at-most-once,
        /// `1` = at-least-once (the broker tracks unacked deliveries
        /// for this subscription and redelivers on reconnect).
        qos: u8,
    },
    /// Removes interest in a topic.
    0x04 Unsubscribe {
        /// Topic name.
        topic: String as Short,
    },
    /// A publication sent by a publishing client.
    0x05 Publish {
        /// Optional trace context; `None` for unsampled messages.
        trace: Option<TraceContext>,
        /// Topic name.
        topic: String as Short,
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
        headers: String as Long,
        /// Message payload.
        payload: P as Payload,
        // The QoS fields were appended after the original body, so the
        // trace block kept its offset when they arrived.
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
    0x06 Forward {
        /// Optional trace context; `None` for unsampled messages.
        trace: Option<TraceContext>,
        /// Topic name.
        topic: String as Short,
        /// Publishing client id.
        publisher: u64,
        /// Publisher-side timestamp (microseconds).
        publish_micros: u64,
        /// Region the forwarding broker lives in.
        origin_region: u16,
        /// JSON-encoded content headers, empty when none.
        headers: String as Long,
        /// Message payload.
        payload: P as Payload,
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
    0x07 Deliver {
        /// Optional trace context; `None` for unsampled messages.
        trace: Option<TraceContext>,
        /// Topic name.
        topic: String as Short,
        /// Publishing client id.
        publisher: u64,
        /// Publisher-side timestamp (microseconds).
        publish_micros: u64,
        /// JSON-encoded content headers, empty when none.
        headers: String as Long,
        /// Message payload.
        payload: P as Payload,
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
    0x08 StatsRequest,
    /// Broker → controller: one region manager's interval report,
    /// JSON-encoded (see `multipub_broker::broker::RegionReport`).
    0x09 StatsReport {
        /// JSON body of the report.
        json: String as Long,
    },
    /// Controller → broker, and broker → affected clients: a topic's new
    /// configuration (assignment bitmask + delivery mode).
    0x0A ConfigUpdate {
        /// Topic name.
        topic: String as Short,
        /// Assignment bitmask, bit `i` ↔ region `i`.
        mask: u32,
        /// Delivery mode.
        mode: DeliveryMode,
        /// Monotonically-increasing per-topic configuration epoch.
        /// Receivers ignore updates whose epoch is older than what they
        /// already hold, so a delayed or replayed update can never roll
        /// a topic's view backwards (DESIGN.md §15).
        epoch: u64,
    },
    /// Latency probe — and keepalive. The broker's `probe` module times
    /// Ping/Pong round trips; clients with a keepalive interval set (and
    /// outbound peer links on brokers with an idle timeout) also send
    /// periodic Pings so a broker's idle deadline sees traffic on
    /// otherwise-quiet but healthy connections.
    0x0B Ping {
        /// Echoed back in the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Latency probe response.
    0x0C Pong {
        /// The nonce of the [`Frame::Ping`] being answered.
        nonce: u64,
    },
    /// Controller → broker: asks for the broker's metrics-registry
    /// snapshot (counters, gauges, latency histograms), as opposed to
    /// [`Frame::StatsRequest`], which asks the region manager for its
    /// per-topic interval report.
    0x0D StatsSnapshotRequest,
    /// Broker → controller: the metrics-registry snapshot, in
    /// `multipub-obs` JSON form.
    0x0E StatsSnapshot {
        /// JSON body of the snapshot (see `multipub_obs::Registry::render_json`).
        json: String as Long,
    },
    /// Broker → publisher: explicit admission-control NACK. The broker
    /// refused a [`Frame::Publish`] — its token bucket ran dry or the
    /// broker is in the `Overloaded` state — and dropped the message
    /// rather than queueing it silently. Clients treat this as
    /// retryable and back off (see DESIGN.md §10).
    0x0F Busy {
        /// Topic of the refused publication.
        topic: String as Short,
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
    0x10 PubAck {
        /// Topic of the acknowledged publication.
        topic: String as Short,
        /// The acknowledged publisher sequence number.
        seq: u64,
    },
    /// Subscriber → broker: acknowledges a QoS 1 [`Frame::Deliver`],
    /// letting the broker trim the matching entry from its bounded
    /// per-(topic, client) unacked-delivery buffer.
    0x11 DeliverAck {
        /// Topic of the acknowledged delivery.
        topic: String as Short,
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
    0x12 HandoverPrepare {
        /// Topic name.
        topic: String as Short,
        /// Pending assignment bitmask, bit `i` ↔ region `i`.
        mask: u32,
        /// Pending delivery mode.
        mode: DeliveryMode,
        /// The epoch being prepared, freshly minted: past every epoch the
        /// coordinator minted before, aborted attempts' included.
        epoch: u64,
    },
    /// Controller → broker: phase two — all participants acked the
    /// prepare, the handover is now irrevocable. Brokers promote the
    /// pending configuration to committed, fan the new epoch to
    /// affected clients (who re-steer make-before-break), and keep
    /// bridging stale-epoch traffic to the retired regions' replacement
    /// set for `grace_ms` before dropping their pending state.
    0x13 HandoverCommit {
        /// Topic name.
        topic: String as Short,
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
    0x14 HandoverAbort {
        /// Topic name.
        topic: String as Short,
        /// The epoch being abandoned.
        epoch: u64,
    },
    /// Broker → controller: acknowledges a handover phase frame so the
    /// controller's state machine can advance (or abort on timeout).
    0x15 HandoverAck {
        /// Topic name.
        topic: String as Short,
        /// The epoch the ack refers to.
        epoch: u64,
        /// Which phase is being acked: `0` = prepare, `1` = commit,
        /// `2` = abort.
        phase: u8,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, encode};
    use std::collections::HashSet;

    type Owned = Frame<Vec<u8>>;

    fn wire_roundtrip(frame: &Owned) -> Owned {
        let mut wire = Vec::new();
        encode(frame, &mut wire);
        let (decoded, _) = decode(&wire).unwrap().unwrap();
        decoded.map_payload(|range| wire[range].to_vec())
    }

    #[test]
    fn role_roundtrip() {
        for role in [Role::Publisher, Role::Subscriber, Role::Peer, Role::Controller] {
            let connect = Frame::Connect { client_id: 1, role, policy: None };
            assert_eq!(wire_roundtrip(&connect), connect);
        }
        let role_4 = [0, 0, 0, 14, 0x01, 0, 0, 0, 0, 0, 0, 0, 1, 4, 0, 0, 0, 0, 0];
        assert_eq!(decode(&role_4), Err(CodecError::InvalidEnum { value: 4 }));
    }

    #[test]
    fn mode_roundtrip() {
        for mode in [DeliveryMode::Direct, DeliveryMode::Routed] {
            let update = Frame::ConfigUpdate { topic: "t".into(), mask: 1, mode, epoch: 2 };
            assert_eq!(wire_roundtrip(&update), update);
        }
        let mode_9 = [0, 0, 0, 16, 0x0A, 0, 1, b't', 0, 0, 0, 1, 9, 0, 0, 0, 0, 0, 0, 0, 2];
        assert_eq!(decode(&mode_9), Err(CodecError::InvalidEnum { value: 9 }));
    }

    #[test]
    fn tags_are_unique() {
        assert!(KNOWN_TAGS.windows(2).all(|w| w[0] < w[1]), "KNOWN_TAGS strictly ascending");
        let frames: [Owned; 21] = [
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
                payload: Vec::new(),
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
                payload: Vec::new(),
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
                payload: Vec::new(),
                trace: None,
                qos: 0,
                seq: 0,
                retained: false,
            },
            Frame::StatsRequest,
            Frame::StatsReport { json: "{}".into() },
            Frame::ConfigUpdate {
                topic: "t".into(),
                mask: 1,
                mode: DeliveryMode::Direct,
                epoch: 0,
            },
            Frame::Ping { nonce: 0 },
            Frame::Pong { nonce: 0 },
            Frame::StatsSnapshotRequest,
            Frame::StatsSnapshot { json: "{}".into() },
            Frame::Busy { topic: "t".into(), retry_after_ms: 100, seq: 0 },
            Frame::PubAck { topic: "t".into(), seq: 1 },
            Frame::DeliverAck { topic: "t".into(), publisher: 1, seq: 1 },
            Frame::HandoverPrepare {
                topic: "t".into(),
                mask: 3,
                mode: DeliveryMode::Routed,
                epoch: 1,
            },
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
