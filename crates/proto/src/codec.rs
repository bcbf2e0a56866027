//! Encoding and decoding: each field's wire form, the frame envelope, and
//! the fixed-offset trace block.

use crate::frame::{Frame, Role, Tag, TraceContext};
use crate::policy::SlowConsumerPolicy;
use multipub_core::assignment::DeliveryMode;
use std::fmt;
use std::ops::Range;
use std::time::Duration;

/// Upper bound on a frame's body size; larger lengths indicate stream
/// corruption and abort decoding.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Errors produced while decoding a frame stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The length prefix exceeded [`MAX_FRAME_BYTES`].
    Oversized {
        /// The advertised body length.
        len: usize,
    },
    /// An unknown frame tag was encountered.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A frame body ended before all declared fields were read.
    Truncated,
    /// A frame body went on past its last field.
    TrailingBytes {
        /// How many bytes were left over.
        len: usize,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// An enum, flag or `bool` field carried a byte the encoder never
    /// writes.
    InvalidEnum {
        /// The offending discriminant.
        value: u8,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Oversized { len } => write!(f, "frame of {len} bytes exceeds limit"),
            CodecError::UnknownTag { tag } => write!(f, "unknown frame tag {tag:#04x}"),
            CodecError::Truncated => write!(f, "frame body ended early"),
            CodecError::TrailingBytes { len } => {
                write!(f, "frame body has {len} bytes past its last field")
            }
            CodecError::InvalidUtf8 => write!(f, "string field is not valid utf-8"),
            CodecError::InvalidEnum { value } => write!(f, "invalid enum discriminant {value}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends the wire encoding of `frame` to `out`.
pub fn encode<P: AsRef<[u8]>>(frame: &Frame<P>, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]); // length placeholder
    out.push(frame.tag());
    frame.put_fields(out);
    let body_len = (out.len() - start - 4) as u32;
    if let Some(prefix) = out.get_mut(start..start + 4) {
        prefix.copy_from_slice(&body_len.to_be_bytes());
    }
}

/// A frame as [`decode`] returns it: its payload is a range into the
/// decoded bytes.
pub type Decoded = Frame<Range<usize>>;

/// Decodes the frame at the front of `bytes`, returning it with the
/// number of bytes it took. Its payload comes back as a range into
/// `bytes`; [`Frame::map_payload`] turns it into the caller's buffer type.
///
/// Returns `Ok(None)` while `bytes` holds only part of a frame — read more
/// and call again.
///
/// # Errors
///
/// Any [`CodecError`] indicates an unrecoverable protocol violation; the
/// connection should be dropped.
pub fn decode(bytes: &[u8]) -> Result<Option<(Decoded, usize)>, CodecError> {
    let Some(prefix) = bytes.first_chunk::<4>() else { return Ok(None) };
    let body_len = u32::from_be_bytes(*prefix) as usize;
    if body_len > MAX_FRAME_BYTES {
        return Err(CodecError::Oversized { len: body_len });
    }
    let Some(framed) = bytes.get(..4 + body_len) else { return Ok(None) };
    let mut reader = Reader { bytes: framed, at: 4 };
    let tag = u8::take(&mut reader)?;
    let frame = Frame::take_fields(tag, &mut reader)?;
    match framed.len() - reader.at {
        0 => Ok(Some((frame, framed.len()))),
        len => Err(CodecError::TrailingBytes { len }),
    }
}

// Offsets of the trace block within a framed buffer, each the one before
// it plus that field's width: `[u32 len][u8 tag]`, then the presence flag,
// trace id, sampled flag and the admit/match/queue/write stamps.
const TRACE_FLAG: usize = size_of::<u32>() + size_of::<u8>();
const TRACE_ID: usize = TRACE_FLAG + size_of::<u8>();
const TRACE_SAMPLED: usize = TRACE_ID + size_of::<u64>();
const TRACE_ADMIT: usize = TRACE_SAMPLED + size_of::<u8>();
const TRACE_MATCH: usize = TRACE_ADMIT + size_of::<u64>();
const TRACE_QUEUE: usize = TRACE_MATCH + size_of::<u64>();
const TRACE_WRITE: usize = TRACE_QUEUE + size_of::<u64>();
const TRACE_END: usize = TRACE_WRITE + size_of::<u64>();

fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    bytes.get(at..)?.first_chunk().map(|b| u64::from_be_bytes(*b))
}

/// Peeks the trace context of an already-encoded `Forward`/`Deliver`
/// frame without decoding it.
///
/// Returns `(trace_id, match_micros)` when the buffer is such a frame
/// carrying a **sampled** context, `None` otherwise. Control frames are
/// rejected by tag, so keepalive traffic can never produce spans.
/// `Publish` is also excluded: only broker-outbound frames pass through
/// the writer task that uses this peek.
#[must_use]
pub fn peek_trace(bytes: &[u8]) -> Option<(u64, u64)> {
    let outbound = [Tag::Forward as u8, Tag::Deliver as u8];
    if bytes.len() < TRACE_END || !outbound.contains(bytes.get(4)?) {
        return None;
    }
    if bytes.get(TRACE_FLAG) != Some(&1) || bytes.get(TRACE_SAMPLED) != Some(&1) {
        return None;
    }
    Some((u64_at(bytes, TRACE_ID)?, u64_at(bytes, TRACE_MATCH)?))
}

/// Patches the queue/write stage stamps into an encoded frame's trace
/// block.
///
/// The writer task calls this only for frames where [`peek_trace`]
/// returned `Some`, on a private copy: zero-copy fan-out shares the
/// original buffer across subscriber queues.
pub fn stamp_queue_write(bytes: &mut [u8], queue_micros: u64, write_micros: u64) {
    for (at, stamp) in [(TRACE_QUEUE, queue_micros), (TRACE_WRITE, write_micros)] {
        if let Some(slot) = bytes.get_mut(at..at + size_of::<u64>()) {
            slot.copy_from_slice(&stamp.to_be_bytes());
        }
    }
}

/// Writes a field of type `T` in the wire form `Self` names.
pub(crate) trait Put<T> {
    fn put(value: &T, out: &mut Vec<u8>);
}

/// Reads a field of type `T` in the wire form `Self` names, accepting
/// only bytes [`Put`] writes.
pub(crate) trait Take<T> {
    fn take(r: &mut Reader<'_>) -> Result<T, CodecError>;
}

/// A decoder's position within one framed buffer.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn range(&mut self, len: usize) -> Result<Range<usize>, CodecError> {
        let end = self.at.checked_add(len).filter(|&end| end <= self.bytes.len());
        let range = self.at..end.ok_or(CodecError::Truncated)?;
        self.at = range.end;
        Ok(range)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let range = self.range(N)?;
        self.bytes.get(range).and_then(|b| b.first_chunk().copied()).ok_or(CodecError::Truncated)
    }

    fn utf8(&mut self, len: usize) -> Result<String, CodecError> {
        let range = self.range(len)?;
        let raw = self.bytes.get(range).ok_or(CodecError::Truncated)?;
        std::str::from_utf8(raw).map(str::to_owned).map_err(|_| CodecError::InvalidUtf8)
    }
}

macro_rules! integers {
    ($($int:ty),*) => {$(
        impl Put<$int> for $int {
            fn put(value: &$int, out: &mut Vec<u8>) {
                out.extend_from_slice(&value.to_be_bytes());
            }
        }

        impl Take<$int> for $int {
            fn take(r: &mut Reader<'_>) -> Result<$int, CodecError> {
                r.array().map(<$int>::from_be_bytes)
            }
        }
    )*};
}

integers!(u8, u16, u32, u64);

/// Types that travel as one code byte. Each row pairs a code with the
/// value it stands for; both directions are generated from it.
macro_rules! coded {
    ($($ty:ty { $($code:literal => $($value:tt)::+),* })*) => {$(
        impl Put<$ty> for $ty {
            fn put(value: &$ty, out: &mut Vec<u8>) {
                out.push(match *value { $($($value)::+ => $code),* });
            }
        }

        impl Take<$ty> for $ty {
            fn take(r: &mut Reader<'_>) -> Result<$ty, CodecError> {
                match u8::take(r)? {
                    $($code => Ok($($value)::+),)*
                    value => Err(CodecError::InvalidEnum { value }),
                }
            }
        }
    )*};
}

coded! {
    bool { 0 => false, 1 => true }
    Role { 0 => Role::Publisher, 1 => Role::Subscriber, 2 => Role::Peer, 3 => Role::Controller }
    DeliveryMode { 0 => DeliveryMode::Direct, 1 => DeliveryMode::Routed }
}

/// A string behind a `u16` length.
pub(crate) struct Short;
/// A string behind a `u32` length.
pub(crate) struct Long;
/// A byte payload behind a `u32` length; decoded as its range in the input.
pub(crate) struct Payload;

impl Put<String> for Short {
    fn put(value: &String, out: &mut Vec<u8>) {
        assert!(value.len() <= usize::from(u16::MAX), "topic names are short");
        u16::put(&(value.len() as u16), out);
        out.extend_from_slice(value.as_bytes());
    }
}

impl Take<String> for Short {
    fn take(r: &mut Reader<'_>) -> Result<String, CodecError> {
        let len = u16::take(r)?;
        r.utf8(usize::from(len))
    }
}

impl Put<String> for Long {
    fn put(value: &String, out: &mut Vec<u8>) {
        Payload::put(value, out);
    }
}

impl Take<String> for Long {
    fn take(r: &mut Reader<'_>) -> Result<String, CodecError> {
        let len = u32::take(r)?;
        r.utf8(len as usize)
    }
}

impl<P: AsRef<[u8]>> Put<P> for Payload {
    fn put(value: &P, out: &mut Vec<u8>) {
        let bytes = value.as_ref();
        u32::put(&(bytes.len() as u32), out);
        out.extend_from_slice(bytes);
    }
}

impl Take<Range<usize>> for Payload {
    fn take(r: &mut Reader<'_>) -> Result<Range<usize>, CodecError> {
        let len = u32::take(r)?;
        r.range(len as usize)
    }
}

impl Put<Option<TraceContext>> for Option<TraceContext> {
    fn put(value: &Option<TraceContext>, out: &mut Vec<u8>) {
        let Some(ctx) = value else { return out.push(0) };
        out.push(1);
        u64::put(&ctx.trace_id, out);
        bool::put(&ctx.sampled, out);
        for stamp in [ctx.admit_micros, ctx.match_micros, ctx.queue_micros, ctx.write_micros] {
            u64::put(&stamp, out);
        }
    }
}

impl Take<Option<TraceContext>> for Option<TraceContext> {
    fn take(r: &mut Reader<'_>) -> Result<Option<TraceContext>, CodecError> {
        match u8::take(r)? {
            0 => Ok(None),
            1 => Ok(Some(TraceContext {
                trace_id: u64::take(r)?,
                sampled: bool::take(r)?,
                admit_micros: u64::take(r)?,
                match_micros: u64::take(r)?,
                queue_micros: u64::take(r)?,
                write_micros: u64::take(r)?,
            })),
            value => Err(CodecError::InvalidEnum { value }),
        }
    }
}

/// The `Connect` frame's policy slot: a code byte (`0` = no preference,
/// the broker's default applies) and the `Block` deadline in whole
/// milliseconds, `0` for every other policy.
fn policy_wire(policy: Option<SlowConsumerPolicy>) -> (u8, u32) {
    match policy {
        None => (0, 0),
        Some(SlowConsumerPolicy::Block { deadline }) => {
            (1, deadline.as_millis().min(u128::from(u32::MAX)) as u32)
        }
        Some(SlowConsumerPolicy::DropOldest) => (2, 0),
        Some(SlowConsumerPolicy::DropNewest) => (3, 0),
        Some(SlowConsumerPolicy::Disconnect) => (4, 0),
    }
}

impl Put<Option<SlowConsumerPolicy>> for Option<SlowConsumerPolicy> {
    fn put(value: &Option<SlowConsumerPolicy>, out: &mut Vec<u8>) {
        let (code, ms) = policy_wire(*value);
        u8::put(&code, out);
        u32::put(&ms, out);
    }
}

impl Take<Option<SlowConsumerPolicy>> for Option<SlowConsumerPolicy> {
    fn take(r: &mut Reader<'_>) -> Result<Option<SlowConsumerPolicy>, CodecError> {
        let wire = (u8::take(r)?, u32::take(r)?);
        let deadline = Duration::from_millis(u64::from(wire.1));
        // The one policy whose encoding is exactly these bytes.
        [
            None,
            Some(SlowConsumerPolicy::Block { deadline }),
            Some(SlowConsumerPolicy::DropOldest),
            Some(SlowConsumerPolicy::DropNewest),
            Some(SlowConsumerPolicy::Disconnect),
        ]
        .into_iter()
        .find(|policy| policy_wire(*policy) == wire)
        .ok_or(CodecError::InvalidEnum { value: wire.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Owned = Frame<Vec<u8>>;

    fn encode_vec(frame: &Owned) -> Vec<u8> {
        let mut out = Vec::new();
        encode(frame, &mut out);
        out
    }

    /// Decodes the front of `buf` the way a stream reader does: a whole
    /// frame is removed from `buf` and returned with its payload copied out.
    fn decode_front(buf: &mut Vec<u8>) -> Result<Option<Owned>, CodecError> {
        let Some((frame, len)) = decode(buf)? else { return Ok(None) };
        let frame = frame.map_payload(|range| buf[range].to_vec());
        buf.drain(..len);
        Ok(Some(frame))
    }

    fn all_frames() -> Vec<Owned> {
        vec![
            Frame::Connect { client_id: 77, role: Role::Subscriber, policy: None },
            Frame::Connect {
                client_id: 78,
                role: Role::Subscriber,
                policy: Some(SlowConsumerPolicy::Block { deadline: Duration::from_millis(250) }),
            },
            Frame::ConnectAck { region: 9 },
            Frame::Subscribe { topic: "games/eu/chat".into(), filter: "price < 10".into(), qos: 0 },
            Frame::Subscribe { topic: "ticks".into(), filter: String::new(), qos: 1 },
            Frame::Unsubscribe { topic: "t".into() },
            Frame::Publish {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 123_456_789,
                single_target: true,
                headers: "{\"price\":9.5}".into(),
                payload: b"hello world".to_vec(),
                trace: None,
                qos: 0,
                seq: 0,
                retain: false,
                epoch: 0,
            },
            Frame::Publish {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 123_456_790,
                single_target: false,
                headers: String::new(),
                payload: b"traced".to_vec(),
                trace: Some(TraceContext::new(0xDEAD_BEEF_0000_0001)),
                qos: 1,
                seq: 7,
                retain: true,
                epoch: 3,
            },
            Frame::Forward {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 42,
                origin_region: 3,
                headers: String::new(),
                payload: vec![0, 1, 2, 255],
                trace: None,
                qos: 0,
                seq: 0,
                retain: false,
            },
            Frame::Forward {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 43,
                origin_region: 3,
                headers: String::new(),
                payload: vec![7],
                trace: Some(TraceContext {
                    trace_id: 0x1234_5678_9ABC_DEF0,
                    sampled: true,
                    admit_micros: 100,
                    match_micros: 200,
                    queue_micros: 300,
                    write_micros: 400,
                }),
                qos: 1,
                seq: u64::MAX,
                retain: false,
            },
            Frame::Deliver {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 42,
                headers: String::new(),
                payload: Vec::new(),
                trace: None,
                qos: 0,
                seq: 0,
                retained: false,
            },
            Frame::Deliver {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 44,
                headers: String::new(),
                payload: b"x".to_vec(),
                trace: Some(TraceContext {
                    trace_id: 5,
                    sampled: false,
                    admit_micros: 1,
                    match_micros: 2,
                    queue_micros: 0,
                    write_micros: 0,
                }),
                qos: 1,
                seq: 9,
                retained: true,
            },
            Frame::StatsRequest,
            Frame::StatsReport { json: "{\"topics\":{}}".into() },
            Frame::ConfigUpdate {
                topic: "scores".into(),
                mask: 0b1011,
                mode: DeliveryMode::Routed,
                epoch: 4,
            },
            Frame::Ping { nonce: u64::MAX },
            Frame::Pong { nonce: 0 },
            Frame::StatsSnapshotRequest,
            Frame::StatsSnapshot { json: "{\"counters\":{}}".into() },
            Frame::Busy { topic: "scores".into(), retry_after_ms: 125, seq: 3 },
            Frame::PubAck { topic: "ticks".into(), seq: 41 },
            Frame::DeliverAck { topic: "ticks".into(), publisher: 12, seq: 41 },
            Frame::HandoverPrepare {
                topic: "scores".into(),
                mask: 0b0110,
                mode: DeliveryMode::Routed,
                epoch: 5,
            },
            Frame::HandoverCommit { topic: "scores".into(), epoch: 5, grace_ms: 750 },
            Frame::HandoverAbort { topic: "scores".into(), epoch: 5 },
            Frame::HandoverAck { topic: "scores".into(), epoch: 5, phase: 1 },
        ]
    }

    #[test]
    fn roundtrip_every_frame() {
        for frame in all_frames() {
            let mut buf = encode_vec(&frame);
            let decoded = decode_front(&mut buf).unwrap().unwrap();
            assert_eq!(decoded, frame);
            assert!(buf.is_empty(), "no residue after {frame:?}");
        }
    }

    #[test]
    fn roundtrip_back_to_back_frames() {
        let frames = all_frames();
        let mut buf = Vec::new();
        for frame in &frames {
            encode(frame, &mut buf);
        }
        for frame in &frames {
            assert_eq!(decode_front(&mut buf).unwrap().as_ref(), Some(frame));
        }
        assert!(decode_front(&mut buf).unwrap().is_none());
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let frame = Frame::Publish {
            topic: "t".into(),
            publisher: 1,
            publish_micros: 2,
            single_target: false,
            headers: String::new(),
            payload: b"abc".to_vec(),
            trace: Some(TraceContext::new(9)),
            qos: 1,
            seq: 5,
            retain: false,
            epoch: 2,
        };
        let full = encode_vec(&frame);
        for cut in 0..full.len() {
            assert_eq!(decode(&full[..cut]).unwrap(), None, "cut at {cut}");
        }
        assert_eq!(decode_front(&mut full.clone()).unwrap(), Some(frame));
    }

    #[test]
    fn byte_by_byte_feed() {
        let frame: Owned = Frame::ConfigUpdate {
            topic: "x".into(),
            mask: 7,
            mode: DeliveryMode::Direct,
            epoch: 1,
        };
        let mut buf = Vec::new();
        let mut decoded = None;
        for byte in encode_vec(&frame) {
            buf.push(byte);
            if let Some(f) = decode_front(&mut buf).unwrap() {
                decoded = Some(f);
            }
        }
        assert_eq!(decoded, Some(frame));
    }

    #[test]
    fn oversized_length_rejected() {
        let wire = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes();
        assert_eq!(decode(&wire), Err(CodecError::Oversized { len: MAX_FRAME_BYTES + 1 }));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode(&[0, 0, 0, 1, 0xEE]), Err(CodecError::UnknownTag { tag: 0xEE }));
    }

    #[test]
    fn truncated_body_rejected() {
        // Declared body of 3 bytes: tag + u16, but Connect needs 13 more.
        assert_eq!(decode(&[0, 0, 0, 3, 0x01, 0, 0]), Err(CodecError::Truncated));
    }

    #[test]
    fn invalid_role_rejected() {
        let wire = [0, 0, 0, 10, 0x01, 0, 0, 0, 0, 0, 0, 0, 5, 200];
        assert_eq!(decode(&wire), Err(CodecError::InvalidEnum { value: 200 }));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // Unsubscribe with a one-byte topic that is not UTF-8.
        assert_eq!(decode(&[0, 0, 0, 4, 0x04, 0, 1, 0xFF]), Err(CodecError::InvalidUtf8));
    }

    /// Every byte the encoder never writes is refused, so a frame that
    /// decodes re-encodes to the same bytes.
    #[test]
    fn non_canonical_bytes_rejected() {
        let ping = encode_vec(&Frame::Ping { nonce: 1 });
        let mut long_ping = ping.clone();
        long_ping[3] += 1;
        long_ping.push(0);
        assert_eq!(decode(&long_ping), Err(CodecError::TrailingBytes { len: 1 }));

        // `retained` (the last byte of a Deliver) as 2.
        let mut deliver = encode_vec(&traced_deliver(None));
        *deliver.last_mut().unwrap() = 2;
        assert_eq!(decode(&deliver), Err(CodecError::InvalidEnum { value: 2 }));

        // A trace presence flag of 2.
        let mut flagged = encode_vec(&traced_deliver(None));
        flagged[TRACE_FLAG] = 2;
        assert_eq!(decode(&flagged), Err(CodecError::InvalidEnum { value: 2 }));

        // A sampled flag of 2.
        let mut sampled = encode_vec(&traced_deliver(Some(TraceContext::new(1))));
        sampled[TRACE_SAMPLED] = 2;
        assert_eq!(decode(&sampled), Err(CodecError::InvalidEnum { value: 2 }));

        // A policy slot with a deadline on anything but `Block`: (0, 7)
        // and (2, 7).
        for code in [0, 2] {
            let wire = [0, 0, 0, 15, 0x01, 0, 0, 0, 0, 0, 0, 0, 5, 1, code, 0, 0, 0, 7];
            assert_eq!(decode(&wire), Err(CodecError::InvalidEnum { value: code }));
        }
    }

    #[test]
    fn policy_wire_roundtrip() {
        for policy in [
            None,
            Some(SlowConsumerPolicy::Block { deadline: Duration::from_millis(750) }),
            Some(SlowConsumerPolicy::DropOldest),
            Some(SlowConsumerPolicy::DropNewest),
            Some(SlowConsumerPolicy::Disconnect),
        ] {
            let connect: Owned = Frame::Connect { client_id: 1, role: Role::Subscriber, policy };
            assert_eq!(decode_front(&mut encode_vec(&connect)), Ok(Some(connect)));
        }
        let unknown = [0, 0, 0, 15, 0x01, 0, 0, 0, 0, 0, 0, 0, 5, 1, 9, 0, 0, 0, 0];
        assert_eq!(decode(&unknown), Err(CodecError::InvalidEnum { value: 9 }));
    }

    fn traced_deliver(trace: Option<TraceContext>) -> Owned {
        Frame::Deliver {
            topic: "t".into(),
            publisher: 1,
            publish_micros: 2,
            headers: String::new(),
            payload: b"p".to_vec(),
            trace,
            qos: 0,
            seq: 0,
            retained: false,
        }
    }

    #[test]
    fn peek_trace_reads_sampled_data_frames_only() {
        // Sampled Deliver: peek sees the id and match stamp.
        let mut ctx = TraceContext::new(0xAB);
        ctx.match_micros = 777;
        let encoded = encode_vec(&traced_deliver(Some(ctx)));
        assert_eq!(peek_trace(&encoded), Some((0xAB, 777)));

        // Absent and unsampled contexts peek as None.
        assert_eq!(peek_trace(&encode_vec(&traced_deliver(None))), None);
        let unsampled = TraceContext { sampled: false, ..TraceContext::new(0xAB) };
        assert_eq!(peek_trace(&encode_vec(&traced_deliver(Some(unsampled)))), None);

        // Sampled Forward peeks too (peer-hop writer attribution).
        let forward = Frame::Forward {
            topic: "t".into(),
            publisher: 1,
            publish_micros: 2,
            origin_region: 0,
            headers: String::new(),
            payload: Vec::new(),
            trace: Some(ctx),
            qos: 0,
            seq: 0,
            retain: false,
        };
        assert_eq!(peek_trace(&encode_vec(&forward)), Some((0xAB, 777)));
    }

    #[test]
    fn peek_trace_excludes_control_frames() {
        // Control traffic can never produce spans, even under a
        // keepalive storm: peek rejects every control tag outright.
        let control: Vec<Owned> = all_frames().into_iter().filter(Frame::is_control).collect();
        assert_eq!(control.len(), 20);
        for frame in control {
            assert_eq!(peek_trace(&encode_vec(&frame)), None, "{frame:?}");
        }
        // Publish is data but broker-inbound; the writer-side peek
        // ignores it as well.
        let publish: Owned = Frame::Publish {
            topic: "t".into(),
            publisher: 1,
            publish_micros: 2,
            single_target: false,
            headers: String::new(),
            payload: Vec::new(),
            trace: Some(TraceContext::new(3)),
            qos: 0,
            seq: 0,
            retain: false,
            epoch: 0,
        };
        assert!(!publish.is_control());
        assert_eq!(peek_trace(&encode_vec(&publish)), None);
    }

    #[test]
    fn stamp_queue_write_patches_only_the_stamp_slots() {
        let mut ctx = TraceContext::new(0xF00D);
        ctx.admit_micros = 10;
        ctx.match_micros = 20;
        let original = encode_vec(&traced_deliver(Some(ctx)));
        let mut patched = original.clone();
        stamp_queue_write(&mut patched, 30, 40);
        assert_eq!(patched.len(), original.len());

        // The patched copy decodes with the stamps and nothing else
        // changed.
        let Ok(Some(Frame::Deliver { trace: Some(stamped), payload, .. })) =
            decode_front(&mut patched)
        else {
            panic!("patched frame must decode as Deliver");
        };
        assert_eq!(stamped.queue_micros, 30);
        assert_eq!(stamped.write_micros, 40);
        assert_eq!(stamped.trace_id, 0xF00D);
        assert_eq!((stamped.admit_micros, stamped.match_micros), (10, 20));
        assert_eq!(payload, b"p");
    }

    /// The longest topic a `u16` length can state round-trips; one byte
    /// more panics, in release builds too, rather than writing a length that
    /// wrapped around and leaving `decode` to misread the rest of the frame.
    #[test]
    fn a_topic_fills_its_u16_length_and_no_more() {
        let longest = Frame::Unsubscribe { topic: "t".repeat(usize::from(u16::MAX)) };
        let mut buf = encode_vec(&longest);
        assert_eq!(decode_front(&mut buf), Ok(Some(longest)));
        assert!(buf.is_empty());

        let too_long = Frame::Unsubscribe { topic: "t".repeat(usize::from(u16::MAX) + 1) };
        let panic = std::panic::catch_unwind(|| encode_vec(&too_long)).unwrap_err();
        let message = panic.downcast_ref::<&str>().copied();
        let message = message.or_else(|| panic.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("topic names are short"));
    }

    #[test]
    fn untraced_frame_costs_one_flag_byte() {
        let untraced = encode_vec(&traced_deliver(None));
        let traced = encode_vec(&traced_deliver(Some(TraceContext::new(1))));
        // flag byte is shared; a present context adds id + sampled +
        // four u64 stamps.
        assert_eq!(traced.len() - untraced.len(), 8 + 1 + 4 * 8);
        assert_eq!(TRACE_END - TRACE_FLAG, 1 + 8 + 1 + 4 * 8);
        assert_eq!(peek_trace(&untraced), None);
    }
}
