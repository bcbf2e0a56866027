//! Wire-protocol frames exchanged between clients, brokers and the
//! controller.
//!
//! The protocol is a flat set of frames over a length-prefixed binary
//! encoding (see [`crate::codec`]). Publications travel as [`Frame::Publish`]
//! (client → broker), [`Frame::Forward`] (broker → peer broker, routed
//! delivery) and [`Frame::Deliver`] (broker → subscriber); the control
//! plane uses [`Frame::StatsReport`] (region manager → controller) and
//! [`Frame::ConfigUpdate`] (controller → broker → clients). The frame table
//! itself lives in [`multipub_proto`]; the broker holds payloads as
//! zero-copy [`Bytes`].

use bytes::Bytes;

pub use multipub_core::assignment::DeliveryMode as WireMode;
pub use multipub_proto::{Role, TraceContext, KNOWN_TAGS};

/// A protocol frame whose payload is a `Bytes` slice.
pub type Frame = multipub_proto::Frame<Bytes>;
