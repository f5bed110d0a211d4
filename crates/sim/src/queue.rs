//! Time-ordered event queue with stable tie-breaking.

use crate::event::EventId;
use rtpb_types::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: Time,
    id: EventId,
    event: E,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest
// (time, id) pair first. Equal times pop in scheduling (id) order, which is
// what makes simulations deterministic.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.id).cmp(&(self.time, self.id))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.id == other.id
    }
}

impl<E> Eq for Entry<E> {}

/// A priority queue of timestamped events.
///
/// Pops events in `(time, scheduling order)` order.
///
/// # Examples
///
/// ```
/// use rtpb_sim::EventQueue;
/// use rtpb_types::Time;
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_millis(5), "late");
/// q.push(Time::from_millis(1), "early");
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop().map(|(t, _, e)| (t, e)), Some((Time::from_millis(1), "early")));
/// assert_eq!(q.pop().map(|(t, _, e)| (t, e)), Some((Time::from_millis(5), "late")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_id: u64,
}

impl<E> std::fmt::Debug for Entry<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("time", &self.time)
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_id: 0,
        }
    }

    /// Schedules `event` at `time`, returning its id.
    pub fn push(&mut self, time: Time, event: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.heap.push(Entry { time, id, event });
        id
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, EventId, E)> {
        self.heap
            .pop()
            .map(|entry| (entry.time, entry.id, entry.event))
    }

    /// The timestamp of the earliest event, without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|entry| entry.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpb_types::TimeDelta;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(3), 3);
        q.push(Time::from_millis(1), 1);
        q.push(Time::from_millis(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_in_scheduling_order() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_maintains_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(10), 10);
        assert_eq!(q.pop().map(|x| x.2), Some(10));
        q.push(Time::from_millis(5), 5);
        q.push(Time::from_millis(5) + TimeDelta::from_nanos(1), 6);
        assert_eq!(q.pop().map(|x| x.2), Some(5));
        assert_eq!(q.pop().map(|x| x.2), Some(6));
    }
}
