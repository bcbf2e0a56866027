//! Binary framing over `bytes` buffers: thin adapters around
//! [`multipub_proto`], which owns the wire format, plus the codec
//! counters.

use crate::frame::Frame;
use bytes::{Bytes, BytesMut};

pub use multipub_proto::{peek_trace, CodecError, MAX_FRAME_BYTES};

/// Appends the wire encoding of `frame` to `buf`.
pub fn encode(frame: &Frame, buf: &mut BytesMut) {
    buf.extend_from_slice(&encode_to_bytes(frame));
}

/// Encodes a frame into a fresh buffer — convenience for writers that send
/// one frame at a time.
pub fn encode_to_bytes(frame: &Frame) -> Bytes {
    let mut out = Vec::with_capacity(64);
    multipub_proto::encode(frame, &mut out);
    multipub_obs::counter!(multipub_obs::metrics::BROKER_FRAMES_ENCODED_TOTAL).inc();
    Bytes::from(out)
}

/// Attempts to decode one complete frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds only part of a frame — read
/// more bytes and call again. Consumed bytes are removed from `buf`, and
/// the payload is a zero-copy slice of them.
///
/// # Errors
///
/// Any [`CodecError`] indicates an unrecoverable protocol violation; the
/// connection should be dropped.
pub fn decode(buf: &mut BytesMut) -> Result<Option<Frame>, CodecError> {
    match multipub_proto::decode(buf) {
        Ok(Some((frame, len))) => {
            multipub_obs::counter!(multipub_obs::metrics::BROKER_FRAMES_DECODED_TOTAL).inc();
            let framed = buf.split_to(len).freeze();
            Ok(Some(frame.map_payload(|range| framed.slice(range))))
        }
        Ok(None) => Ok(None),
        Err(e) => {
            multipub_obs::counter!(multipub_obs::metrics::BROKER_CODEC_ERRORS_TOTAL).inc();
            Err(e)
        }
    }
}

/// Returns a copy of an encoded frame with the queue/write stage stamps
/// patched into its trace block.
///
/// The writer task calls this only for frames where [`peek_trace`]
/// returned `Some`; zero-copy fan-out shares the original buffer across
/// subscriber queues, and the copy confines the stamps to this
/// subscriber's frame. Unsampled frames never pay for the copy.
#[must_use]
pub fn stamp_queue_write(bytes: &Bytes, queue_micros: u64, write_micros: u64) -> Bytes {
    let mut patched = bytes.to_vec();
    multipub_proto::stamp_queue_write(&mut patched, queue_micros, write_micros);
    Bytes::from(patched)
}
