//! The event queue: events pop in `(time, sequence)` order, so that events
//! at equal times pop in FIFO order, keeping runs fully deterministic.
//!
//! Events known before a run starts — the simulator's publications — go in
//! as one batch, sorted once; events scheduled while it runs go on a
//! min-heap. `pop` takes the earlier of the two heads, so the heap only ever
//! holds what is in flight, and the order is the one a heap of everything
//! would give.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for a point in simulated time.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.at.total_cmp(self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// [`EventQueue::schedule_all`] is a run of [`EventQueue::schedule`] calls
/// that does not go through the heap:
///
/// ```
/// use multipub_netsim::queue::EventQueue;
/// use multipub_netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ms(5.0), "late");
/// q.schedule(SimTime::from_ms(1.0), "early");
/// q.schedule(SimTime::from_ms(1.0), "early-second");
/// assert_eq!(q.pop().map(|(_, e)| e), Some("early"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("early-second"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
/// assert!(q.is_empty());
///
/// q.schedule_all([(SimTime::from_ms(2.0), "batch-late"), (SimTime::from_ms(1.0), "batch-early")]);
/// q.schedule(SimTime::from_ms(1.0), "scheduled-after");
/// assert_eq!(q.len(), 3);
/// assert_eq!(q.pop().map(|(_, e)| e), Some("batch-early"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("scheduled-after"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("batch-late"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Events scheduled in bulk, sorted so the earliest is last.
    batch: Vec<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), batch: Vec::new(), next_seq: 0 }
    }

    /// Schedules `event` to fire at `at`. Events with equal times fire in
    /// scheduling order.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Schedules every event of `events`, exactly as one [`schedule`] call
    /// per event in iteration order would, and sorts them once instead of
    /// pushing each onto the heap.
    ///
    /// [`schedule`]: EventQueue::schedule
    pub fn schedule_all(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        let next_seq = &mut self.next_seq;
        self.batch.extend(events.into_iter().map(|(at, event)| {
            let seq = *next_seq;
            *next_seq += 1;
            Scheduled { at, seq, event }
        }));
        // `Scheduled`'s order is reversed: ascending puts the earliest last.
        self.batch.sort_unstable();
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Sequence numbers are unique, so the two heads are never equal.
        let from_batch = match (self.batch.last(), self.heap.peek()) {
            (Some(batched), Some(heaped)) => batched > heaped,
            (batched, _) => batched.is_some(),
        };
        let next = if from_batch { self.batch.pop() } else { self.heap.pop() };
        next.map(|s| (s.at, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.batch.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.batch.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(3.0), 3);
        q.schedule(SimTime::from_ms(1.0), 1);
        q.schedule(SimTime::from_ms(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_at_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ms(7.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.schedule_all(std::iter::empty());
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// Bulk batches, later `schedule` calls and pops, interleaved at random
    /// over a handful of distinct times, pop exactly as a list kept in
    /// `(time, sequence)` order by hand.
    #[test]
    fn batches_pop_like_one_heap_of_everything() {
        use multipub_core::draw::step;
        /// A uniform index in `0..n`.
        fn below(rng: &mut u64, n: u64) -> u64 {
            step(rng) % n
        }
        for seed in 0..200 {
            let mut rng = seed;
            let mut queue = EventQueue::new();
            // (time, sequence), the event being its own sequence number.
            let mut reference: Vec<(SimTime, u64)> = Vec::new();
            let mut next = 0u64;
            let time = |rng: &mut u64| SimTime::from_ms(below(rng, 6) as f64);
            for _ in 0..400 {
                match below(&mut rng, 10) {
                    0 => {
                        let batch: Vec<(SimTime, u64)> = (0..below(&mut rng, 40))
                            .map(|_| {
                                next += 1;
                                (time(&mut rng), next - 1)
                            })
                            .collect();
                        reference.extend(&batch);
                        queue.schedule_all(batch);
                    }
                    1..=4 => {
                        let at = time(&mut rng);
                        reference.push((at, next));
                        queue.schedule(at, next);
                        next += 1;
                    }
                    _ => {
                        let earliest = reference
                            .iter()
                            .enumerate()
                            .min_by(|(_, a), (_, b)| a.0.total_cmp(b.0).then(a.1.cmp(&b.1)))
                            .map(|(index, _)| index);
                        assert_eq!(
                            queue.pop(),
                            earliest.map(|i| reference.remove(i)),
                            "seed {seed}"
                        );
                    }
                }
                assert_eq!(queue.len(), reference.len(), "seed {seed}");
            }
            reference.sort_by(|a, b| a.0.total_cmp(b.0).then(a.1.cmp(&b.1)));
            let drained: Vec<(SimTime, u64)> = std::iter::from_fn(|| queue.pop()).collect();
            assert_eq!(drained, reference, "seed {seed}");
            assert!(queue.is_empty());
        }
    }
}
