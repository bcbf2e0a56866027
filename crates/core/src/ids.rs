//! Identifier newtypes for regions, clients and topics.
//!
//! Newtypes keep the three index spaces statically distinct
//! (a [`RegionId`] can never be passed where a [`ClientId`] is expected)
//! while remaining plain `Copy` integers at runtime.

use std::fmt;

/// Index of a cloud region within a [`crate::region::RegionSet`].
///
/// Regions are dense indices `0..n_regions`; the same index addresses the
/// region's row/column in the latency matrices and its bit in an
/// [`crate::assignment::AssignmentVector`].
///
/// ```
/// use multipub_core::ids::RegionId;
/// let r = RegionId(3);
/// assert_eq!(r.index(), 3);
/// assert_eq!(r.to_string(), "R3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u8);

impl RegionId {
    /// The zero-based index of the region.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<u8> for RegionId {
    fn from(value: u8) -> Self {
        RegionId(value)
    }
}

/// Identifier of a client (publisher or subscriber) of the pub/sub service.
///
/// Client ids are opaque: they identify a client across topics and
/// reconfiguration rounds but carry no positional meaning.
///
/// ```
/// use multipub_core::ids::ClientId;
/// assert_eq!(ClientId(7).to_string(), "C7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl From<u64> for ClientId {
    fn from(value: u64) -> Self {
        ClientId(value)
    }
}

/// Name of a pub/sub topic.
///
/// Topics are independent optimization problems (paper §IV.C), so the id is
/// only used for bookkeeping, subscription matching and reporting.
///
/// ```
/// use multipub_core::ids::TopicId;
/// let t = TopicId::new("game/region-chat");
/// assert_eq!(t.as_str(), "game/region-chat");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicId(String);

impl TopicId {
    /// Creates a topic id from any string-like value.
    pub fn new(name: impl Into<String>) -> Self {
        TopicId(name.into())
    }

    /// The topic name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TopicId {
    fn from(value: &str) -> Self {
        TopicId::new(value)
    }
}

impl From<String> for TopicId {
    fn from(value: String) -> Self {
        TopicId(value)
    }
}

impl AsRef<str> for TopicId {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_id_roundtrip() {
        let r: RegionId = 4u8.into();
        assert_eq!(r, RegionId(4));
        assert_eq!(r.index(), 4);
    }

    #[test]
    fn client_id_display() {
        assert_eq!(ClientId(0).to_string(), "C0");
        assert_eq!(ClientId(u64::MAX).to_string(), format!("C{}", u64::MAX));
    }

    #[test]
    fn topic_id_conversions() {
        let a: TopicId = "chat".into();
        let b = TopicId::new(String::from("chat"));
        assert_eq!(a, b);
        assert_eq!(a.as_ref(), "chat");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(RegionId(1));
        set.insert(RegionId(1));
        assert_eq!(set.len(), 1);
        assert!(RegionId(0) < RegionId(1));
        assert!(ClientId(2) > ClientId(1));
    }
}
