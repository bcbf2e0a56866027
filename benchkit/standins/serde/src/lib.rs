//! Stand-in for `serde`: the benchmarked crates only *derive* the two
//! traits and never serialize, so marker traits and no-op derives suffice.

/// Marker for `serde::Serialize`.
pub trait Serialize {}

/// Marker for `serde::Deserialize`.
pub trait Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
