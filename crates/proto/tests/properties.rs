//! Seeded properties of the wire codec: arbitrary frames round-trip
//! through encode/decode, alone, in sequence and under arbitrary buffer
//! fragmentation; the decoder never panics on garbage or on any declared
//! tag; and it accepts exactly the bytes the encoder writes, so whatever
//! decodes re-encodes to the same bytes.

use multipub_core::assignment::DeliveryMode;
use multipub_proto::{
    decode, encode, peek_trace, stamp_queue_write, CodecError, Frame, Role, SlowConsumerPolicy,
    TraceContext, KNOWN_TAGS,
};
use std::time::Duration;

mod common;

use common::SplitMix64;

/// Seeded cases per property.
const CASES: u64 = 256;

impl SplitMix64 {
    fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }

    fn bytes(&mut self, max: usize) -> Vec<u8> {
        (0..self.below(max + 1)).map(|_| self.byte()).collect()
    }
}

/// Runs `property` once per seed in `0..CASES`, naming the seed that fails.
fn for_each_seed(property: impl Fn(&mut SplitMix64)) {
    common::for_each_seed(CASES, |seed| property(&mut SplitMix64(seed)));
}

type Owned = Frame<Vec<u8>>;

fn encode_vec(frame: &Owned) -> Vec<u8> {
    let mut out = Vec::new();
    encode(frame, &mut out);
    out
}

/// Decodes the front of `buf` the way a stream reader does: a whole frame
/// is removed from `buf` and returned with its payload copied out.
fn decode_front(buf: &mut Vec<u8>) -> Result<Option<Owned>, CodecError> {
    let Some((frame, len)) = decode(buf)? else { return Ok(None) };
    let frame = frame.map_payload(|range| buf[range].to_vec());
    buf.drain(..len);
    Ok(Some(frame))
}

/// Up to `max` chars, half ASCII and half any `char`.
fn arb_string(rng: &mut SplitMix64, max: usize) -> String {
    (0..rng.below(max + 1))
        .map(|_| loop {
            let bound = if rng.coin() { 0x80 } else { 0x11_0000 };
            if let Some(c) = char::from_u32(rng.below(bound) as u32) {
                break c;
            }
        })
        .collect()
}

fn arb_topic(rng: &mut SplitMix64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/_.-";
    (0..1 + rng.below(24)).map(|_| char::from(ALPHABET[rng.below(ALPHABET.len())])).collect()
}

fn arb_role(rng: &mut SplitMix64) -> Role {
    [Role::Publisher, Role::Subscriber, Role::Peer, Role::Controller][rng.below(4)]
}

fn arb_mode(rng: &mut SplitMix64) -> DeliveryMode {
    [DeliveryMode::Direct, DeliveryMode::Routed][rng.below(2)]
}

fn arb_policy(rng: &mut SplitMix64) -> Option<SlowConsumerPolicy> {
    // Deadlines round-trip as whole milliseconds on the wire.
    let deadline = Duration::from_millis(rng.below(120_000) as u64);
    [
        None,
        Some(SlowConsumerPolicy::Block { deadline }),
        Some(SlowConsumerPolicy::DropOldest),
        Some(SlowConsumerPolicy::DropNewest),
        Some(SlowConsumerPolicy::Disconnect),
    ][rng.below(5)]
}

fn arb_trace(rng: &mut SplitMix64) -> Option<TraceContext> {
    rng.coin().then(|| TraceContext {
        trace_id: rng.next_u64(),
        sampled: rng.coin(),
        admit_micros: rng.next_u64(),
        match_micros: rng.next_u64(),
        queue_micros: rng.next_u64(),
        write_micros: rng.next_u64(),
    })
}

fn arb_frame(rng: &mut SplitMix64) -> Owned {
    let topic = arb_topic(rng);
    let (u64_a, u64_b, u64_c) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
    let (u32_a, u16_a, u8_a) = (rng.next_u64() as u32, rng.next_u64() as u16, rng.byte());
    let (headers, payload, trace) = (arb_string(rng, 64), rng.bytes(256), arb_trace(rng));
    let (flag_a, flag_b) = (rng.coin(), rng.coin());
    match rng.below(KNOWN_TAGS.len()) {
        0 => Frame::Connect { client_id: u64_a, role: arb_role(rng), policy: arb_policy(rng) },
        1 => Frame::ConnectAck { region: u16_a },
        2 => Frame::Subscribe { topic, filter: arb_string(rng, 40), qos: u8_a },
        3 => Frame::Unsubscribe { topic },
        4 => Frame::Publish {
            topic,
            publisher: u64_a,
            publish_micros: u64_b,
            single_target: flag_a,
            headers,
            payload,
            trace,
            qos: u8_a,
            seq: u64_c,
            retain: flag_b,
            epoch: rng.next_u64(),
        },
        5 => Frame::Forward {
            topic,
            publisher: u64_a,
            publish_micros: u64_b,
            origin_region: u16_a,
            headers,
            payload,
            trace,
            qos: u8_a,
            seq: u64_c,
            retain: flag_b,
        },
        6 => Frame::Deliver {
            topic,
            publisher: u64_a,
            publish_micros: u64_b,
            headers,
            payload,
            trace,
            qos: u8_a,
            seq: u64_c,
            retained: flag_b,
        },
        7 => Frame::StatsRequest,
        8 => Frame::StatsReport { json: arb_string(rng, 128) },
        9 => Frame::ConfigUpdate { topic, mask: u32_a, mode: arb_mode(rng), epoch: u64_a },
        10 => Frame::Ping { nonce: u64_a },
        11 => Frame::Pong { nonce: u64_a },
        12 => Frame::StatsSnapshotRequest,
        13 => Frame::StatsSnapshot { json: arb_string(rng, 128) },
        14 => Frame::Busy { topic, retry_after_ms: u32_a, seq: u64_a },
        15 => Frame::PubAck { topic, seq: u64_a },
        16 => Frame::DeliverAck { topic, publisher: u64_a, seq: u64_b },
        17 => Frame::HandoverPrepare { topic, mask: u32_a, mode: arb_mode(rng), epoch: u64_a },
        18 => Frame::HandoverCommit { topic, epoch: u64_a, grace_ms: u32_a },
        19 => Frame::HandoverAbort { topic, epoch: u64_a },
        _ => Frame::HandoverAck { topic, epoch: u64_a, phase: u8_a },
    }
}

fn arb_frames(rng: &mut SplitMix64, max: usize) -> Vec<Owned> {
    (0..1 + rng.below(max)).map(|_| arb_frame(rng)).collect()
}

/// A length prefix, `tag` and an arbitrary body of up to `max` bytes.
fn arb_tagged_body(rng: &mut SplitMix64, tag: u8, max: usize) -> Vec<u8> {
    let body = rng.bytes(max);
    let mut wire = (body.len() as u32 + 1).to_be_bytes().to_vec();
    wire.push(tag);
    wire.extend(body);
    wire
}

fn trace_of(frame: &mut Owned) -> Option<&mut Option<TraceContext>> {
    match frame {
        Frame::Publish { trace, .. }
        | Frame::Forward { trace, .. }
        | Frame::Deliver { trace, .. } => Some(trace),
        _ => None,
    }
}

/// If `wire` decodes, the frame re-encodes to exactly the bytes it took.
fn assert_canonical(wire: &[u8]) {
    if let Ok(Some((frame, len))) = decode(wire) {
        let frame = frame.map_payload(|range| wire[range].to_vec());
        assert_eq!(encode_vec(&frame), wire[..len], "{frame:?}");
    }
}

#[test]
fn roundtrip() {
    for_each_seed(|rng| {
        let frame = arb_frame(rng);
        let mut wire = encode_vec(&frame);
        let mut stamped = wire.clone();
        assert_eq!(decode_front(&mut wire), Ok(Some(frame.clone())));
        assert!(wire.is_empty());

        // A sampled data frame stamped in place reads back the stamps,
        // and nothing else moves.
        let mut expected = frame.clone();
        if let Some(Some(ctx)) = trace_of(&mut expected).filter(|t| t.is_some_and(|c| c.sampled)) {
            let (queue, write) = (rng.next_u64(), rng.next_u64());
            stamp_queue_write(&mut stamped, queue, write);
            (ctx.queue_micros, ctx.write_micros) = (queue, write);
            let outbound = matches!(frame, Frame::Forward { .. } | Frame::Deliver { .. });
            let peeked = outbound.then_some((ctx.trace_id, ctx.match_micros));
            assert_eq!(peek_trace(&stamped), peeked);
            assert_eq!(decode_front(&mut stamped), Ok(Some(expected)));
        }
    });
}

#[test]
fn roundtrip_of_frame_sequences() {
    for_each_seed(|rng| {
        let frames = arb_frames(rng, 7);
        let mut wire = Vec::new();
        for frame in &frames {
            encode(frame, &mut wire);
        }
        let mut decoded = Vec::new();
        while let Some(frame) = decode_front(&mut wire).unwrap() {
            decoded.push(frame);
        }
        assert_eq!(decoded, frames);
    });
}

/// Feeding the encoder output in arbitrary chunk sizes yields the same
/// frames — no frame boundary assumptions leak into the decoder.
#[test]
fn roundtrip_under_fragmentation() {
    for_each_seed(|rng| {
        let frames = arb_frames(rng, 4);
        let chunk = 1 + rng.below(16);
        let mut wire = Vec::new();
        for frame in &frames {
            encode(frame, &mut wire);
        }
        let mut buf = Vec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            buf.extend_from_slice(piece);
            while let Some(frame) = decode_front(&mut buf).unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, frames);
    });
}

/// The decoder never panics on arbitrary bytes: it either waits for more
/// input, produces a frame, or reports a codec error.
#[test]
fn decoder_is_total_on_garbage() {
    for_each_seed(|rng| {
        let mut buf = rng.bytes(512);
        while let Ok(Some(_)) = decode_front(&mut buf) {}
    });
}

/// A truncated valid frame never decodes to anything.
#[test]
fn truncation_never_yields_a_frame() {
    for_each_seed(|rng| {
        let wire = encode_vec(&arb_frame(rng));
        let cut = rng.below(wire.len());
        assert_eq!(decode(&wire[..cut]), Ok(None));
    });
}

/// Every tag byte declared in [`KNOWN_TAGS`] decodes totally: an arbitrary
/// body under a well-formed length prefix yields a frame or a clean
/// [`CodecError`], never a panic.
#[test]
fn every_declared_tag_decodes_totally() {
    for_each_seed(|rng| {
        for tag in KNOWN_TAGS {
            let _ = decode(&arb_tagged_body(rng, tag, 255));
        }
    });
}

/// An undeclared tag byte is always rejected as [`CodecError::UnknownTag`].
#[test]
fn undeclared_tags_are_rejected() {
    for_each_seed(|rng| {
        let tag = loop {
            let tag = rng.byte();
            if !KNOWN_TAGS.contains(&tag) {
                break tag;
            }
        };
        let wire = arb_tagged_body(rng, tag, 63);
        assert_eq!(decode(&wire), Err(CodecError::UnknownTag { tag }));
    });
}

/// Whatever decodes re-encodes to the bytes it was decoded from: over
/// garbage under every declared tag, and over every frame with any one
/// byte set to each of a few small values, `0xFF` or a random byte.
#[test]
fn decoding_accepts_exactly_what_encoding_writes() {
    for_each_seed(|rng| {
        for tag in KNOWN_TAGS {
            assert_canonical(&arb_tagged_body(rng, tag, 255));
        }
        let wire = encode_vec(&arb_frame(rng));
        for at in 0..wire.len() {
            for value in [0, 1, 2, 0xFF, rng.byte()] {
                let mut mutated = wire.clone();
                mutated[at] = value;
                assert_canonical(&mutated);
            }
        }
    });
}
