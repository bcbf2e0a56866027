//! What a connection writer does with data frames once its outbound
//! queue is full; a subscriber names its choice in [`crate::Frame::Connect`].

use std::time::Duration;

/// What a connection writer does with **data** frames once its outbound
/// queue is full (the queue's high watermark is its capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlowConsumerPolicy {
    /// Apply backpressure: the sender waits until the queue drains below
    /// the low watermark, giving up (and dropping the frame) after
    /// `deadline`.
    Block {
        /// How long a sender may wait for queue space.
        deadline: Duration,
    },
    /// Evict the oldest queued data frame to make room — the consumer
    /// keeps up with the *freshest* traffic and loses history.
    #[default]
    DropOldest,
    /// Drop the incoming frame — the consumer keeps the backlog it
    /// already has and misses new traffic.
    DropNewest,
    /// Close the connection: a consumer too slow to keep a bounded
    /// queue is cut off rather than degraded.
    Disconnect,
}

impl SlowConsumerPolicy {
    /// Parses the CLI spelling: `block:<ms>`, `drop-oldest`,
    /// `drop-newest` or `disconnect`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown spellings or a
    /// malformed `block:<ms>` deadline.
    pub fn parse(s: &str) -> Result<SlowConsumerPolicy, String> {
        match s {
            "drop-oldest" => Ok(SlowConsumerPolicy::DropOldest),
            "drop-newest" => Ok(SlowConsumerPolicy::DropNewest),
            "disconnect" => Ok(SlowConsumerPolicy::Disconnect),
            other => match other.strip_prefix("block:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| SlowConsumerPolicy::Block { deadline: Duration::from_millis(ms) })
                    .map_err(|_| format!("bad block deadline `{ms}` (want milliseconds)")),
                None => Err(format!(
                    "unknown slow-consumer policy `{other}` \
                     (want block:<ms>, drop-oldest, drop-newest or disconnect)"
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_cli_spellings() {
        assert_eq!(SlowConsumerPolicy::parse("drop-oldest"), Ok(SlowConsumerPolicy::DropOldest));
        assert_eq!(SlowConsumerPolicy::parse("drop-newest"), Ok(SlowConsumerPolicy::DropNewest));
        assert_eq!(SlowConsumerPolicy::parse("disconnect"), Ok(SlowConsumerPolicy::Disconnect));
        assert_eq!(
            SlowConsumerPolicy::parse("block:250"),
            Ok(SlowConsumerPolicy::Block { deadline: Duration::from_millis(250) })
        );
        assert!(SlowConsumerPolicy::parse("block:soon").is_err());
        assert!(SlowConsumerPolicy::parse("yolo").is_err());
    }

    #[test]
    fn default_is_drop_oldest() {
        assert_eq!(SlowConsumerPolicy::default(), SlowConsumerPolicy::DropOldest);
    }
}
