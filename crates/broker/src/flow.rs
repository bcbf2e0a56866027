//! Flow control and overload protection: bounded outbound queues with
//! slow-consumer policies, token-bucket publish admission, and the
//! broker-wide in-flight-bytes budget with a hysteretic `Overloaded`
//! state (DESIGN.md §10).
//!
//! Every connection writer drains a [`FlowQueue`] instead of an
//! unbounded channel. Data frames (deliveries, forwards) respect the
//! queue capacity and, when it is full, the connection's
//! [`SlowConsumerPolicy`] decides what gives: the sender's time
//! (`Block`), the oldest queued frames (`DropOldest`), the new frame
//! (`DropNewest`), or the consumer itself (`Disconnect`). Control
//! frames (acks, pongs, config updates, `Busy` NACKs) bypass the
//! capacity check so a congested data path can never wedge the control
//! plane, but they still count toward the byte budget.
//!
//! Broker-owned queues additionally share a [`GlobalBudget`]: the sum of
//! queued bytes across all connections. When it exceeds the configured
//! budget the broker enters the `Overloaded` state, sheds new publishes
//! with [`crate::frame::Frame::Busy`] NACKs, and recovers only once the
//! backlog drains below the low watermark — hysteresis, so the state
//! does not flap at the boundary.

use crate::sync::Mutex;
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tokio::sync::Notify;
use tokio::time::Instant;

pub use multipub_proto::SlowConsumerPolicy;

/// Sizing and policy for one connection's outbound [`FlowQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowConfig {
    /// Maximum queued **data** frames — the queue's high watermark.
    /// Control frames bypass this bound.
    pub capacity: usize,
    /// Senders blocked by [`SlowConsumerPolicy::Block`] resume once the
    /// queue drains to this depth (hysteresis against thrash).
    pub low_watermark: usize,
    /// What to do with data frames once the queue is full.
    pub policy: SlowConsumerPolicy,
    /// How many already-due frames the connection writer may coalesce
    /// into one vectored `writev` call (DESIGN.md §11). `1` disables
    /// batching and reproduces the seed broker's frame-at-a-time
    /// writes — the single-shard reference configuration uses this.
    pub max_write_batch: usize,
}

/// Queue capacity used by [`crate::delay::Outbound::spawn`] when the
/// caller does not pick one: generous enough that well-behaved client
/// and controller links never trip it, bounded so a wedged link cannot
/// grow without limit.
pub const DEFAULT_OUTBOUND_CAPACITY: usize = 65_536;

/// Default writer batch: enough to amortize the per-syscall cost at
/// high fan-out without letting one connection monopolize the writer.
pub const DEFAULT_MAX_WRITE_BATCH: usize = 64;

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            capacity: DEFAULT_OUTBOUND_CAPACITY,
            low_watermark: DEFAULT_OUTBOUND_CAPACITY / 2,
            policy: SlowConsumerPolicy::default(),
            max_write_batch: DEFAULT_MAX_WRITE_BATCH,
        }
    }
}

impl FlowConfig {
    /// A config with `capacity`, a low watermark at half of it, and the
    /// default policy.
    pub fn with_capacity(capacity: usize) -> Self {
        FlowConfig {
            capacity: capacity.max(1),
            low_watermark: (capacity / 2).max(1),
            policy: SlowConsumerPolicy::default(),
            max_write_batch: DEFAULT_MAX_WRITE_BATCH,
        }
    }

    /// Replaces the slow-consumer policy.
    pub fn policy(mut self, policy: SlowConsumerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the writer's vectored-write batch limit (floored at 1).
    pub fn max_write_batch(mut self, max: usize) -> Self {
        self.max_write_batch = max.max(1);
        self
    }
}

/// Outcome of offering a data frame to a [`FlowQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued with room to spare.
    Queued,
    /// Enqueued after evicting this many older data frames
    /// ([`SlowConsumerPolicy::DropOldest`]).
    Evicted(usize),
    /// The frame was discarded ([`SlowConsumerPolicy::DropNewest`], or a
    /// [`SlowConsumerPolicy::Block`] deadline expiring).
    Dropped,
    /// The queue closed itself because the consumer was too slow
    /// ([`SlowConsumerPolicy::Disconnect`]); the frame was discarded.
    Disconnected,
    /// The queue was already closed (peer gone); the frame was discarded.
    Closed,
}

impl PushOutcome {
    /// Whether the frame is on the queue (possibly at others' expense).
    pub fn queued(self) -> bool {
        matches!(self, PushOutcome::Queued | PushOutcome::Evicted(_))
    }
}

/// One queued, already-encoded frame.
#[derive(Debug)]
pub(crate) struct QueuedFrame {
    /// When the WAN-emulation delay allows the frame onto the socket.
    pub deliver_at: Instant,
    /// The encoded frame.
    pub bytes: Bytes,
    /// Control frames bypass the capacity bound and are never evicted.
    pub control: bool,
}

#[derive(Debug)]
struct QueueState {
    entries: VecDeque<QueuedFrame>,
    /// Number of non-control entries (the capacity bound applies to these).
    data_len: usize,
    /// Bytes across all entries, control included.
    bytes: u64,
    closed: bool,
}

impl QueueState {
    /// Queue-depth invariants, asserted in debug builds after every
    /// mutation: the data count and byte total must both re-derive from
    /// the entries, and data depth may exceed capacity only while a
    /// `Block`-policy sender is parked waiting for space.
    #[cfg(debug_assertions)]
    fn check_invariants(&self, capacity: usize, policy: SlowConsumerPolicy) {
        let data = self.entries.iter().filter(|e| !e.control).count();
        debug_assert_eq!(data, self.data_len, "data_len must track non-control entries");
        let bytes: u64 = self.entries.iter().map(|e| e.bytes.len() as u64).sum();
        debug_assert_eq!(bytes, self.bytes, "byte accounting must match queued entries");
        if !matches!(policy, SlowConsumerPolicy::Block { .. }) {
            debug_assert!(
                self.data_len <= capacity,
                "data depth {} exceeds capacity {capacity} under a non-blocking policy",
                self.data_len
            );
        }
    }

    #[cfg(not(debug_assertions))]
    fn check_invariants(&self, _capacity: usize, _policy: SlowConsumerPolicy) {}
}

/// A bounded, policy-aware MPSC queue of encoded frames: many senders,
/// one connection-writer consumer.
#[derive(Debug)]
pub(crate) struct FlowQueue {
    config: FlowConfig,
    state: Mutex<QueueState>, // lock:rank(flow.state, 80)
    /// Signals the single consumer that an entry (or close) is pending.
    readable: Notify,
    /// Wakes `Block`-policy senders once the queue drains to the low
    /// watermark.
    writable: Notify,
    /// Interrupts a writer wedged mid-`write_all` when the queue closes
    /// (`Disconnect` policy), so a stalled consumer is actually severed.
    killed: Notify,
    killed_flag: AtomicBool,
    /// Shared broker-wide byte budget; `None` for client/controller-side
    /// queues so same-process tests do not pollute the broker gauges.
    budget: Option<Arc<GlobalBudget>>,
    dropped: AtomicU64,
    evicted: AtomicU64,
}

impl FlowQueue {
    pub(crate) fn new(config: FlowConfig, budget: Option<Arc<GlobalBudget>>) -> FlowQueue {
        FlowQueue {
            config,
            state: Mutex::new(
                80,
                "flow.state",
                QueueState { entries: VecDeque::new(), data_len: 0, bytes: 0, closed: false },
            ),
            readable: Notify::new(),
            writable: Notify::new(),
            killed: Notify::new(),
            killed_flag: AtomicBool::new(false),
            budget,
            dropped: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Enqueues a control frame, bypassing the capacity bound. Returns
    /// `false` if the queue is closed.
    pub(crate) fn push_control(&self, deliver_at: Instant, bytes: Bytes) -> bool {
        let len = bytes.len() as u64;
        {
            let mut state = self.state.lock();
            if state.closed {
                return false;
            }
            state.entries.push_back(QueuedFrame { deliver_at, bytes, control: true });
            state.bytes += len;
            state.check_invariants(self.config.capacity, self.config.policy);
        }
        if let Some(budget) = &self.budget {
            budget.add(len);
        }
        self.readable.notify_one();
        true
    }

    /// Offers a data frame, applying the queue's [`SlowConsumerPolicy`]
    /// when it is full.
    pub(crate) async fn push_data(&self, deliver_at: Instant, bytes: Bytes) -> PushOutcome {
        enum Action {
            Queued,
            Evicted { count: usize, freed: u64 },
            DroppedNewest,
            Disconnected,
            Closed,
            Wait,
        }
        let len = bytes.len() as u64;
        let deadline = match self.config.policy {
            SlowConsumerPolicy::Block { deadline } => Some(Instant::now() + deadline),
            _ => None,
        };
        loop {
            let action = {
                let mut state = self.state.lock();
                if state.closed {
                    Action::Closed
                } else if state.data_len < self.config.capacity {
                    state.entries.push_back(QueuedFrame {
                        deliver_at,
                        bytes: bytes.clone(),
                        control: false,
                    });
                    state.data_len += 1;
                    state.bytes += len;
                    state.check_invariants(self.config.capacity, self.config.policy);
                    Action::Queued
                } else {
                    match self.config.policy {
                        SlowConsumerPolicy::Block { .. } => Action::Wait,
                        SlowConsumerPolicy::DropOldest => {
                            let mut count = 0usize;
                            let mut freed = 0u64;
                            while state.data_len >= self.config.capacity {
                                let Some(idx) = state.entries.iter().position(|e| !e.control)
                                else {
                                    break;
                                };
                                let Some(old) = state.entries.remove(idx) else { break };
                                state.data_len -= 1;
                                state.bytes -= old.bytes.len() as u64;
                                freed += old.bytes.len() as u64;
                                count += 1;
                            }
                            state.entries.push_back(QueuedFrame {
                                deliver_at,
                                bytes: bytes.clone(),
                                control: false,
                            });
                            state.data_len += 1;
                            state.bytes += len;
                            state.check_invariants(self.config.capacity, self.config.policy);
                            Action::Evicted { count, freed }
                        }
                        SlowConsumerPolicy::DropNewest => Action::DroppedNewest,
                        SlowConsumerPolicy::Disconnect => {
                            state.closed = true;
                            state.check_invariants(self.config.capacity, self.config.policy);
                            Action::Disconnected
                        }
                    }
                }
            };
            match action {
                Action::Closed => return PushOutcome::Closed,
                Action::Queued => {
                    if let Some(budget) = &self.budget {
                        budget.add(len);
                    }
                    self.readable.notify_one();
                    return PushOutcome::Queued;
                }
                Action::Evicted { count, freed } => {
                    self.evicted.fetch_add(count as u64, Ordering::Relaxed);
                    if let Some(budget) = &self.budget {
                        budget.sub(freed, count as u64);
                        budget.add(len);
                    }
                    multipub_obs::counter!(multipub_obs::metrics::BROKER_SLOW_EVICTIONS_TOTAL)
                        .add(count as u64);
                    self.readable.notify_one();
                    return PushOutcome::Evicted(count);
                }
                Action::DroppedNewest => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    multipub_obs::counter!(multipub_obs::metrics::BROKER_SLOW_DROPS_TOTAL).inc();
                    return PushOutcome::Dropped;
                }
                Action::Disconnected => {
                    multipub_obs::counter!(multipub_obs::metrics::BROKER_SLOW_DISCONNECTS_TOTAL)
                        .inc();
                    // Sever the connection: discard the backlog, interrupt
                    // a writer wedged on the stalled socket, release any
                    // parked senders.
                    self.kill();
                    return PushOutcome::Disconnected;
                }
                Action::Wait => {}
            }
            // Block policy: park until the queue drains or the deadline
            // passes. The permit is armed *before* re-checking, so a pop
            // between the check above and the await cannot be missed.
            let Some(deadline) = deadline else {
                return PushOutcome::Dropped;
            };
            let notified = self.writable.notified();
            tokio::pin!(notified);
            notified.as_mut().enable();
            let has_room = {
                let state = self.state.lock();
                state.closed || state.data_len < self.config.capacity
            };
            if !has_room {
                tokio::select! {
                    _ = notified.as_mut() => {}
                    _ = tokio::time::sleep_until(deadline) => {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                        multipub_obs::counter!(multipub_obs::metrics::BROKER_SLOW_DROPS_TOTAL)
                            .inc();
                        return PushOutcome::Dropped;
                    }
                }
            }
        }
    }

    /// Awaits and removes the next frame; `None` once the queue is
    /// closed **and** drained. Single-consumer.
    pub(crate) async fn recv(&self) -> Option<QueuedFrame> {
        loop {
            let notified = self.readable.notified();
            tokio::pin!(notified);
            notified.as_mut().enable();
            let (frame, wake_writers) = {
                let mut state = self.state.lock();
                match state.entries.pop_front() {
                    Some(frame) => {
                        if !frame.control {
                            state.data_len -= 1;
                        }
                        state.bytes -= frame.bytes.len() as u64;
                        state.check_invariants(self.config.capacity, self.config.policy);
                        let wake = state.data_len <= self.config.low_watermark;
                        (Some(frame), wake)
                    }
                    None if state.closed => return None,
                    None => (None, false),
                }
            };
            match frame {
                Some(frame) => {
                    if let Some(budget) = &self.budget {
                        budget.sub(frame.bytes.len() as u64, 1);
                    }
                    if wake_writers {
                        self.writable.notify_waiters();
                    }
                    return Some(frame);
                }
                None => notified.await,
            }
        }
    }

    /// Removes the front frame **iff** its WAN-emulation release time
    /// has already passed — the writer's batching probe, never blocking
    /// and never reordering (frames behind a not-yet-due frame stay
    /// queued, preserving per-connection FIFO + delay semantics).
    ///
    /// Accounting is identical to [`Self::recv`]: data/byte counters,
    /// the shared budget, and the `Block`-policy writer wakeup.
    pub(crate) fn try_pop_due(&self, now: Instant) -> Option<QueuedFrame> {
        let (frame, wake_writers) = {
            let mut state = self.state.lock();
            if state.entries.front().is_none_or(|front| front.deliver_at > now) {
                return None;
            }
            let frame = state.entries.pop_front()?;
            if !frame.control {
                state.data_len -= 1;
            }
            state.bytes -= frame.bytes.len() as u64;
            state.check_invariants(self.config.capacity, self.config.policy);
            let wake = state.data_len <= self.config.low_watermark;
            (frame, wake)
        };
        if let Some(budget) = &self.budget {
            budget.sub(frame.bytes.len() as u64, 1);
        }
        if wake_writers {
            self.writable.notify_waiters();
        }
        Some(frame)
    }

    /// The writer's batch limit, from the queue's [`FlowConfig`].
    pub(crate) fn max_write_batch(&self) -> usize {
        self.config.max_write_batch.max(1)
    }

    /// Closes the queue gracefully (idempotent): new pushes fail, but
    /// already-queued frames still drain through the writer — the
    /// behaviour of dropping an unbounded sender.
    pub(crate) fn close(&self) {
        {
            let mut state = self.state.lock();
            state.closed = true;
        }
        self.readable.notify_waiters();
        self.writable.notify_waiters();
    }

    /// Kills the queue (idempotent): remaining frames are discarded and
    /// refunded to the budget (the socket they were bound for is dead or
    /// being severed), new pushes fail, parked senders, the consumer,
    /// and a writer wedged mid-write all wake.
    pub(crate) fn kill(&self) {
        let (freed_bytes, freed_frames) = {
            let mut state = self.state.lock();
            state.closed = true;
            let bytes = state.bytes;
            let frames = state.entries.len() as u64;
            state.entries.clear();
            state.data_len = 0;
            state.bytes = 0;
            state.check_invariants(self.config.capacity, self.config.policy);
            (bytes, frames)
        };
        if freed_frames > 0 {
            if let Some(budget) = &self.budget {
                budget.sub(freed_bytes, freed_frames);
            }
        }
        self.killed_flag.store(true, Ordering::Release);
        self.killed.notify_waiters();
        self.readable.notify_waiters();
        self.writable.notify_waiters();
    }

    /// Resolves once the queue has been closed — the writer races this
    /// against `write_all` so a stalled socket cannot pin the task.
    pub(crate) async fn wait_killed(&self) {
        loop {
            if self.killed_flag.load(Ordering::Acquire) {
                return;
            }
            let notified = self.killed.notified();
            tokio::pin!(notified);
            notified.as_mut().enable();
            if self.killed_flag.load(Ordering::Acquire) {
                return;
            }
            notified.await;
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Current queue depth in frames (data + control).
    pub(crate) fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Current queue depth in bytes.
    pub(crate) fn queued_bytes(&self) -> u64 {
        self.state.lock().bytes
    }

    /// Frames dropped by `DropNewest` or an expired `Block` deadline.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Frames evicted by `DropOldest`.
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// Per-publisher token-bucket rate limiter for publish admission.
///
/// Tokens accrue continuously at `rate` per second up to `burst`; each
/// admitted publish spends one.
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    refilled_at: Instant,
}

impl TokenBucket {
    /// A bucket admitting `rate` publishes per second with a burst
    /// allowance of `burst`. Non-finite or non-positive inputs are
    /// clamped to a minimal 1/s bucket.
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        let rate = if rate.is_finite() && rate > 0.0 { rate } else { 1.0 };
        let burst = if burst.is_finite() && burst >= 1.0 { burst } else { 1.0 };
        TokenBucket { rate, burst, tokens: burst, refilled_at: Instant::now() }
    }

    fn refill(&mut self, now: Instant) {
        let elapsed = now.saturating_duration_since(self.refilled_at).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        self.refilled_at = now;
    }

    /// Spends one token if available.
    pub fn try_acquire(&mut self) -> bool {
        self.try_acquire_at(Instant::now())
    }

    fn try_acquire_at(&mut self, now: Instant) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Milliseconds until the next token accrues — the `retry_after`
    /// hint carried in a [`crate::frame::Frame::Busy`] NACK.
    pub fn retry_after_ms(&self) -> u32 {
        let deficit = (1.0 - self.tokens).max(0.0);
        ((deficit / self.rate) * 1000.0).ceil().min(f64::from(u32::MAX)) as u32
    }
}

/// The broker-wide in-flight-bytes budget and `Overloaded` state
/// machine.
///
/// Every broker-owned [`FlowQueue`] reports queued bytes here. Crossing
/// `budget` enters the overloaded state (gauge `1`, structured event,
/// publishes NACKed with `Busy`); the state clears only once the total
/// drains to `low` — hysteresis, so admission does not flap while the
/// backlog hovers at the boundary.
#[derive(Debug)]
pub struct GlobalBudget {
    budget: u64,
    low: u64,
    queued: AtomicU64,
    queued_frames: AtomicU64,
    overloaded: AtomicBool,
}

impl GlobalBudget {
    /// A budget of `budget_bytes` recovering at half of it.
    pub fn new(budget_bytes: u64) -> GlobalBudget {
        GlobalBudget::with_low_watermark(budget_bytes, budget_bytes / 2)
    }

    /// A budget with an explicit recovery (low-watermark) point; `low`
    /// is clamped to the budget.
    pub fn with_low_watermark(budget_bytes: u64, low: u64) -> GlobalBudget {
        GlobalBudget {
            budget: budget_bytes,
            low: low.min(budget_bytes),
            queued: AtomicU64::new(0),
            queued_frames: AtomicU64::new(0),
            overloaded: AtomicBool::new(false),
        }
    }

    /// Total bytes currently queued across the owning broker's
    /// connections.
    pub fn queued_bytes(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Whether the broker is shedding publishes.
    pub fn is_overloaded(&self) -> bool {
        self.overloaded.load(Ordering::Relaxed)
    }

    /// The configured budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    fn add(&self, bytes: u64) {
        let queued = self.queued.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let frames = self.queued_frames.fetch_add(1, Ordering::Relaxed) + 1;
        multipub_obs::gauge!(multipub_obs::metrics::BROKER_QUEUED_BYTES).set(queued as i64);
        multipub_obs::gauge!(multipub_obs::metrics::BROKER_QUEUED_FRAMES).set(frames as i64);
        if queued > self.budget && !self.overloaded.swap(true, Ordering::Relaxed) {
            multipub_obs::counter!(multipub_obs::metrics::BROKER_OVERLOAD_ENTERED_TOTAL).inc();
            multipub_obs::gauge!(multipub_obs::metrics::BROKER_OVERLOADED).set(1);
            multipub_obs::event!(
                Warn,
                "broker",
                msg = "overloaded: in-flight byte budget exceeded, shedding publishes",
                queued_bytes = queued,
                budget_bytes = self.budget,
            );
        }
    }

    fn sub(&self, bytes: u64, frame_count: u64) {
        let queued = self.queued.fetch_sub(bytes, Ordering::Relaxed).saturating_sub(bytes);
        let frames = self
            .queued_frames
            .fetch_sub(frame_count, Ordering::Relaxed)
            .saturating_sub(frame_count);
        multipub_obs::gauge!(multipub_obs::metrics::BROKER_QUEUED_BYTES).set(queued as i64);
        multipub_obs::gauge!(multipub_obs::metrics::BROKER_QUEUED_FRAMES).set(frames as i64);
        if queued <= self.low && self.overloaded.load(Ordering::Relaxed) {
            if !self.overloaded.swap(false, Ordering::Relaxed) {
                return;
            }
            multipub_obs::gauge!(multipub_obs::metrics::BROKER_OVERLOADED).set(0);
            multipub_obs::event!(
                Info,
                "broker",
                msg = "overload cleared: backlog drained to the low watermark",
                queued_bytes = queued,
                low_watermark = self.low,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn q(capacity: usize, policy: SlowConsumerPolicy) -> FlowQueue {
        let config =
            FlowConfig { capacity, low_watermark: capacity / 2, policy, ..FlowConfig::default() };
        FlowQueue::new(config, None)
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![0u8; n])
    }

    #[tokio::test]
    async fn drop_oldest_keeps_freshest_suffix() {
        let queue = q(4, SlowConsumerPolicy::DropOldest);
        let now = Instant::now();
        for i in 0..10u8 {
            let outcome = queue.push_data(now, Bytes::from(vec![i])).await;
            assert!(outcome.queued());
        }
        assert_eq!(queue.len(), 4);
        assert_eq!(queue.evicted(), 6);
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(queue.recv().await.unwrap().bytes[0]);
        }
        assert_eq!(seen, vec![6, 7, 8, 9], "survivors are the newest frames, in order");
    }

    #[tokio::test]
    async fn drop_newest_keeps_backlog() {
        let queue = q(3, SlowConsumerPolicy::DropNewest);
        let now = Instant::now();
        for i in 0..8u8 {
            queue.push_data(now, Bytes::from(vec![i])).await;
        }
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.dropped(), 5);
        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.push(queue.recv().await.unwrap().bytes[0]);
        }
        assert_eq!(seen, vec![0, 1, 2], "survivors are the oldest frames, in order");
    }

    #[tokio::test]
    async fn disconnect_policy_closes_the_queue() {
        let queue = q(2, SlowConsumerPolicy::Disconnect);
        let now = Instant::now();
        assert!(queue.push_data(now, payload(1)).await.queued());
        assert!(queue.push_data(now, payload(1)).await.queued());
        assert_eq!(queue.push_data(now, payload(1)).await, PushOutcome::Disconnected);
        assert!(queue.is_closed());
        assert_eq!(queue.push_data(now, payload(1)).await, PushOutcome::Closed);
        // The backlog is discarded — the consumer sees the close at once
        // and the byte accounting is zeroed.
        assert!(queue.recv().await.is_none());
        assert_eq!(queue.queued_bytes(), 0);
    }

    #[tokio::test(start_paused = true)]
    async fn block_policy_drops_on_deadline() {
        let queue =
            Arc::new(q(1, SlowConsumerPolicy::Block { deadline: Duration::from_millis(100) }));
        let now = Instant::now();
        assert!(queue.push_data(now, payload(1)).await.queued());
        // Queue full and nobody consuming: the push parks, then expires.
        assert_eq!(queue.push_data(now, payload(1)).await, PushOutcome::Dropped);
        assert_eq!(queue.dropped(), 1);
    }

    #[tokio::test]
    async fn block_policy_resumes_below_low_watermark() {
        let queue = Arc::new(FlowQueue::new(
            FlowConfig {
                capacity: 2,
                low_watermark: 1,
                policy: SlowConsumerPolicy::Block { deadline: Duration::from_secs(5) },
                ..FlowConfig::default()
            },
            None,
        ));
        let now = Instant::now();
        assert!(queue.push_data(now, payload(1)).await.queued());
        assert!(queue.push_data(now, payload(1)).await.queued());
        let sender = {
            let queue = Arc::clone(&queue);
            tokio::spawn(async move { queue.push_data(now, payload(1)).await })
        };
        tokio::time::sleep(Duration::from_millis(20)).await;
        assert!(!sender.is_finished(), "sender must park while the queue is full");
        // Draining to the low watermark (1 entry) releases the sender.
        assert!(queue.recv().await.is_some());
        let outcome = tokio::time::timeout(Duration::from_secs(2), sender).await.unwrap().unwrap();
        assert!(outcome.queued());
    }

    #[tokio::test]
    async fn control_frames_bypass_capacity() {
        let queue = q(1, SlowConsumerPolicy::DropNewest);
        let now = Instant::now();
        assert!(queue.push_data(now, payload(1)).await.queued());
        assert!(queue.push_control(now, payload(1)));
        assert!(queue.push_control(now, payload(1)));
        assert_eq!(queue.len(), 3);
        // The next data frame is still shed.
        assert_eq!(queue.push_data(now, payload(1)).await, PushOutcome::Dropped);
    }

    #[tokio::test]
    async fn drop_oldest_spares_control_frames() {
        let queue = q(1, SlowConsumerPolicy::DropOldest);
        let now = Instant::now();
        assert!(queue.push_control(now, Bytes::from(vec![0xCC])));
        assert!(queue.push_data(now, Bytes::from(vec![1])).await.queued());
        // Full: the data frame is evicted, the control frame survives.
        assert_eq!(queue.push_data(now, Bytes::from(vec![2])).await, PushOutcome::Evicted(1));
        let first = queue.recv().await.unwrap();
        assert!(first.control);
        assert_eq!(first.bytes[0], 0xCC);
        assert_eq!(queue.recv().await.unwrap().bytes[0], 2);
    }

    #[tokio::test]
    async fn try_pop_due_respects_release_times_and_accounting() {
        let queue = q(8, SlowConsumerPolicy::DropOldest);
        let now = Instant::now();
        queue.push_data(now, payload(10)).await;
        queue.push_data(now, payload(20)).await;
        queue.push_data(now + Duration::from_secs(60), payload(30)).await;
        // Frames behind the delayed one stay queued: FIFO is preserved.
        queue.push_data(now, payload(40)).await;

        assert_eq!(queue.try_pop_due(now).map(|f| f.bytes.len()), Some(10));
        assert_eq!(queue.try_pop_due(now).map(|f| f.bytes.len()), Some(20));
        assert!(queue.try_pop_due(now).is_none(), "front frame not yet due");
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.queued_bytes(), 70, "popped frames left the byte accounting");
        assert_eq!(
            queue.try_pop_due(now + Duration::from_secs(61)).map(|f| f.bytes.len()),
            Some(30)
        );
        assert_eq!(
            queue.try_pop_due(now + Duration::from_secs(61)).map(|f| f.bytes.len()),
            Some(40)
        );
        assert!(queue.try_pop_due(now + Duration::from_secs(61)).is_none(), "drained");
        assert_eq!(queue.queued_bytes(), 0);
    }

    #[tokio::test]
    async fn byte_accounting_balances() {
        let queue = q(8, SlowConsumerPolicy::DropOldest);
        let now = Instant::now();
        queue.push_data(now, payload(100)).await;
        queue.push_data(now, payload(50)).await;
        assert_eq!(queue.queued_bytes(), 150);
        queue.recv().await.unwrap();
        assert_eq!(queue.queued_bytes(), 50);
        queue.recv().await.unwrap();
        assert_eq!(queue.queued_bytes(), 0);
    }

    #[test]
    fn token_bucket_admits_burst_then_throttles() {
        let mut bucket = TokenBucket::new(10.0, 3.0);
        let now = Instant::now();
        assert!(bucket.try_acquire_at(now));
        assert!(bucket.try_acquire_at(now));
        assert!(bucket.try_acquire_at(now));
        assert!(!bucket.try_acquire_at(now), "burst exhausted");
        assert!(bucket.retry_after_ms() > 0);
        // One token accrues every 100ms at 10/s.
        assert!(bucket.try_acquire_at(now + Duration::from_millis(150)));
        assert!(!bucket.try_acquire_at(now + Duration::from_millis(160)));
    }

    #[test]
    fn token_bucket_caps_at_burst() {
        let mut bucket = TokenBucket::new(1000.0, 2.0);
        let now = Instant::now();
        bucket.refill(now + Duration::from_secs(60));
        assert!(bucket.tokens <= 2.0);
    }

    #[test]
    fn global_budget_is_hysteretic() {
        let budget = GlobalBudget::with_low_watermark(1000, 400);
        assert!(!budget.is_overloaded());
        budget.add(600);
        assert!(!budget.is_overloaded(), "under budget");
        budget.add(600);
        assert!(budget.is_overloaded(), "1200 > 1000");
        budget.sub(300, 1);
        assert!(budget.is_overloaded(), "900 is above the low watermark of 400");
        budget.sub(600, 1);
        assert!(!budget.is_overloaded(), "300 <= 400 clears the state");
        assert_eq!(budget.queued_bytes(), 300);
    }
}
