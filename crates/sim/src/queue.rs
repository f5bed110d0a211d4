//! Time-ordered event queue with stable tie-breaking.
//!
//! Most events a simulation schedules re-arm a timer with a delay the
//! schedule already uses: a client-write period, a send period, a
//! watchdog interval, a CPU service time. Events pushed with one constant
//! delay from a non-decreasing clock arrive already sorted, so a binary
//! heap would spend `O(log n)` per pop re-sorting an order that exists.
//!
//! The queue therefore keeps a few FIFO *lanes* beside a fallback heap:
//!
//! - **Lane key.** A lane is keyed by push delay: the pushed time minus
//!   the instant of the last pop. A push whose delay no lane holds takes
//!   an empty lane, re-keying it; with every lane busy it goes to the
//!   heap. Random link delays and phase-staggered first firings mostly
//!   end up there.
//! - **Append rule.** A push joins a lane only if the lane's tail is not
//!   later than the new time. Sequence numbers only increase, so every
//!   lane stays sorted by `(time, sequence)`, whatever the keys are.
//! - **Pop.** A pop takes the least `(time, sequence)` among the lane
//!   heads and the heap top. A sorted lane's head is its least pair and
//!   the heap top is the heap's, so that is the least pending pair
//!   overall: exactly the order one heap of all events would pop, and
//!   seeded runs replay unchanged.

use rtpb_types::{Time, TimeDelta};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// How many FIFO lanes the queue keeps. A simulation uses a handful of
/// fixed delays; each pop scans every lane head, so more lanes cost more.
const LANES: usize = 8;

struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest
// (time, sequence) pair first. Equal times pop in scheduling order, which
// is what makes simulations deterministic.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> std::fmt::Debug for Entry<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("time", &self.time)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

/// A FIFO of events pushed with one delay, sorted by `(time, sequence)`.
#[derive(Debug)]
struct Lane<E> {
    delay: TimeDelta,
    events: VecDeque<Entry<E>>,
}

/// A priority queue of timestamped events.
///
/// Pops events in `(time, scheduling order)` order. Events pushed with a
/// recurring delay ride FIFO lanes and cost `O(1)` to pop; the rest fall
/// back to a binary heap. See the [crate docs](crate) for why the order
/// is the same either way.
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
/// assert_eq!(q.pop(), Some((Time::from_millis(1), "early")));
/// // Only events due by the deadline pop.
/// assert_eq!(q.pop_due(Time::from_millis(4)), None);
/// assert_eq!(q.pop_due(Time::from_millis(5)), Some((Time::from_millis(5), "late")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    lanes: [Lane<E>; LANES],
    heap: BinaryHeap<Entry<E>>,
    last_popped: Time,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            lanes: std::array::from_fn(|_| Lane {
                delay: TimeDelta::ZERO,
                events: VecDeque::new(),
            }),
            heap: BinaryHeap::new(),
            last_popped: Time::ZERO,
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`, after every event already pending at
    /// the same time.
    pub fn push(&mut self, time: Time, event: E) {
        let entry = Entry {
            time,
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        let delay = time.saturating_since(self.last_popped);
        // The lane holding this delay, else the first empty lane.
        let mut target = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.delay == delay {
                target = Some(i);
                break;
            }
            if target.is_none() && lane.events.is_empty() {
                target = Some(i);
            }
        }
        if let Some(lane) = target.map(|i| &mut self.lanes[i]) {
            if lane.events.back().is_none_or(|tail| tail.time <= time) {
                lane.delay = delay;
                lane.events.push_back(entry);
                return;
            }
        }
        self.heap.push(entry);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_due(Time::MAX)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`; leaves the queue untouched otherwise.
    pub fn pop_due(&mut self, deadline: Time) -> Option<(Time, E)> {
        // `LANES` stands for the heap.
        let mut earliest = self.heap.peek().map(|top| (top.key(), LANES));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(head) = lane.events.front() {
                if earliest.is_none_or(|(key, _)| head.key() < key) {
                    earliest = Some((head.key(), i));
                }
            }
        }
        let ((time, _), from) = earliest.filter(|&((time, _), _)| time <= deadline)?;
        let entry = if from == LANES {
            self.heap.pop()
        } else {
            self.lanes[from].events.pop_front()
        }
        .expect("the earliest entry is pending");
        self.last_popped = time;
        Some((time, entry.event))
    }

    /// The time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<Time> {
        let lanes = self.lanes.iter().filter_map(|l| l.events.front());
        self.heap
            .peek()
            .into_iter()
            .chain(lanes)
            .map(|e| e.time)
            .min()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.events.len()).sum::<usize>()
    }

    /// Whether no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events were ever pushed. A caller that records this
    /// count can later tell whether anything was scheduled since.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(3), 3);
        q.push(Time::from_millis(1), 1);
        q.push(Time::from_millis(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_in_scheduling_order() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop_due(Time::MAX).is_none());
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_maintains_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(10), 10);
        assert_eq!(q.pop().map(|x| x.1), Some(10));
        q.push(Time::from_millis(5), 5);
        q.push(Time::from_millis(5) + TimeDelta::from_nanos(1), 6);
        assert_eq!(q.pop().map(|x| x.1), Some(5));
        assert_eq!(q.pop().map(|x| x.1), Some(6));
    }

    #[test]
    fn recurring_delays_ride_lanes_and_the_rest_the_heap() {
        let mut q = EventQueue::new();
        // More distinct delays than lanes: the surplus goes to the heap.
        for d in 1..=(LANES as u64 + 3) {
            q.push(Time::from_millis(d), d);
        }
        assert_eq!(q.heap.len(), 3);
        assert_eq!(q.len(), LANES + 3);
        assert_eq!(q.pop(), Some((Time::from_millis(1), 1)));
        // The emptied lane is re-keyed to a zero delay.
        q.push(Time::from_millis(1), 100);
        assert_eq!(q.heap.len(), 3);
        // A push into the past also has a zero delay, but the lane's tail
        // is later, so the append rule sends it to the heap.
        q.push(Time::from_micros(500), 101);
        assert_eq!(q.heap.len(), 4);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order[..3], [101, 100, 2]);
        assert_eq!(order.len(), LANES + 4);
        assert_eq!(q.pushed(), LANES as u64 + 5, "pops do not count");
    }
}
