//! # multipub-proto
//!
//! The MultiPub wire protocol: the frames region managers, brokers,
//! clients and the controller exchange (paper §III.A3–A5), written once.
//!
//! A frame travels as `[u32 length][u8 tag][fields…]`: integers
//! big-endian, `bool` and enums as one byte, short strings behind a `u16`
//! length, long strings and payloads behind a `u32` length. One table, the
//! definition of [`Frame`], lists each variant once, with its tag byte and
//! its fields in wire order; [`Frame`], [`Frame::tag`],
//! [`KNOWN_TAGS`], [`Frame::is_control`], [`encode`] and [`decode`] are all
//! generated from it, so no two of them can disagree.
//!
//! [`decode`] accepts exactly the bytes [`encode`] writes: a frame that
//! decodes re-encodes to the same bytes. It hands the payload back as a
//! range into its input, and [`Frame::map_payload`] turns that range into
//! the caller's buffer type, so a decoded payload can stay a zero-copy
//! slice of the receive buffer.
//!
//! # Trace context layout
//!
//! The publish-path frames (`Publish`/`Forward`/`Deliver`) carry an
//! optional [`TraceContext`] **first in the body, at a fixed offset**: a
//! presence flag byte right after the tag, then (when present) trace id,
//! sampled flag and the four stage stamps. The fixed position lets the
//! outbound writer stamp queue/write times into already-encoded bytes
//! ([`stamp_queue_write`]) without re-encoding — essential because a
//! zero-copy fan-out shares one encoded buffer across every subscriber
//! queue. An absent context costs exactly one byte. Control frames never
//! carry a context ([`Frame::is_control`]); [`peek_trace`] enforces this
//! by tag.
//!
//! ```
//! use multipub_proto::{decode, encode, Frame};
//!
//! # fn main() -> Result<(), multipub_proto::CodecError> {
//! let ping: Frame<Vec<u8>> = Frame::Ping { nonce: 7 };
//! let mut wire = Vec::new();
//! encode(&ping, &mut wire);
//! assert_eq!(wire, [0, 0, 0, 9, 0x0B, 0, 0, 0, 0, 0, 0, 0, 7]);
//!
//! let (frame, len) = decode(&wire)?.expect("a whole frame");
//! assert_eq!(len, wire.len());
//! assert_eq!(frame.map_payload(|range| wire[range].to_vec()), ping);
//! # Ok(())
//! # }
//! ```

mod codec;
mod coordinator;
mod frame;
mod handover;
mod policy;

pub use codec::{
    decode, encode, peek_trace, stamp_queue_write, CodecError, Decoded, MAX_FRAME_BYTES,
};
pub use coordinator::{Action, Control, Coordinator, Event, Phase};
pub use frame::{Frame, Role, TraceContext, KNOWN_TAGS};
pub use handover::{InstalledConfig, Route, TopicView};
pub use policy::SlowConsumerPolicy;
