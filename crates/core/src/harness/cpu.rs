//! The primary host's CPU model.
//!
//! A single non-preemptive server with a FIFO queue. Client writes and
//! update transmissions both consume CPU; when the offered load exceeds
//! capacity (admission control disabled, Figures 7 and 10) the queue —
//! and with it the client response time — grows without bound, which is
//! exactly the degradation the paper demonstrates.

use rtpb_types::{NodeId, ObjectId, Time, TimeDelta};
use std::collections::VecDeque;

/// A unit of work on the primary CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Work {
    /// Apply a client write that arrived at `arrival`.
    ClientWrite {
        /// The object being written.
        object: ObjectId,
        /// When the client issued the write (for response-time metrics).
        arrival: Time,
        /// The client's write count at issue: the payload's leading
        /// bytes, built when the write is applied.
        stamp: u64,
    },
    /// Transmit a prepared update to the backups. The image is snapshotted
    /// when the send task runs (enqueue time); if the CPU is backlogged
    /// the message goes stale while it waits — exactly the degradation
    /// the paper's Figure 10 shows when admission control is disabled.
    SendUpdate {
        /// The encoded update, ready for the wire.
        message: crate::wire::WireMessage,
        /// The backup whose retransmission request this update answers,
        /// or `None` for every backup the primary tracks.
        to: Option<NodeId>,
    },
}

/// The CPU queue: at most one item in service, FIFO backlog behind it.
///
/// The queue is pure bookkeeping — the caller schedules a completion event
/// whenever [`CpuQueue::submit`] or [`CpuQueue::complete`] returns a
/// service time, tagged with the queue's [`CpuQueue::generation`]. A
/// completion whose tag is older than the current generation belongs to
/// work a [`CpuQueue::clear`] discarded, and the caller must drop it.
///
/// # Examples
///
/// ```
/// use rtpb_core::harness::{CpuQueue, Work};
/// use rtpb_core::wire::WireMessage;
/// use rtpb_types::{Epoch, ObjectId, Time, TimeDelta, Version};
///
/// let mut cpu = CpuQueue::new();
/// let w = Work::SendUpdate {
///     message: WireMessage::Update {
///         epoch: Epoch::INITIAL,
///         object: ObjectId::new(0),
///         version: Version::new(1),
///         timestamp: Time::ZERO,
///         seq: 1,
///         payload: vec![1],
///     },
///     to: None,
/// };
/// // Idle CPU: starts immediately; schedule completion after the service time.
/// assert_eq!(cpu.submit(w.clone(), TimeDelta::from_micros(200)), Some(TimeDelta::from_micros(200)));
/// // Busy CPU: queued.
/// assert_eq!(cpu.submit(w, TimeDelta::from_micros(200)), None);
/// assert_eq!(cpu.backlog(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CpuQueue {
    current: Option<Work>,
    pending: VecDeque<(Work, TimeDelta)>,
    items_completed: u64,
    busy_time: TimeDelta,
    generation: u64,
}

impl CpuQueue {
    /// Creates an idle CPU.
    #[must_use]
    pub fn new() -> Self {
        CpuQueue::default()
    }

    /// Offers work needing `service` CPU time. Returns `Some(service)` if
    /// the CPU was idle (caller must schedule the completion that far in
    /// the future); `None` if the work was queued behind the current item.
    pub fn submit(&mut self, work: Work, service: TimeDelta) -> Option<TimeDelta> {
        if self.current.is_none() {
            self.current = Some(work);
            self.busy_time += service;
            Some(service)
        } else {
            self.pending.push_back((work, service));
            None
        }
    }

    /// Completes the item in service. Returns it, plus the service time of
    /// the next item if one was dequeued (caller schedules its
    /// completion).
    ///
    /// # Panics
    ///
    /// Panics if the CPU was idle — a completion event without an item in
    /// service is a driver bug.
    pub fn complete(&mut self) -> (Work, Option<TimeDelta>) {
        let finished = self.current.take().expect("completion with idle CPU");
        self.items_completed += 1;
        let next_service = self.pending.pop_front().map(|(work, service)| {
            self.current = Some(work);
            self.busy_time += service;
            service
        });
        (finished, next_service)
    }

    /// Whether nothing is in service.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// Items waiting behind the one in service.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Items completed so far.
    #[must_use]
    pub fn items_completed(&self) -> u64 {
        self.items_completed
    }

    /// Total CPU time consumed (including the item in service).
    #[must_use]
    pub fn busy_time(&self) -> TimeDelta {
        self.busy_time
    }

    /// How many times the queue was cleared: the tag for completions
    /// scheduled now.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drops all queued and in-service work (host crash) and starts a new
    /// generation, so the completion already scheduled for the discarded
    /// in-service item is recognisably stale.
    pub fn clear(&mut self) {
        self.current = None;
        self.pending.clear();
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(i: u32) -> Work {
        Work::SendUpdate {
            message: crate::wire::WireMessage::RetransmitRequest {
                epoch: rtpb_types::Epoch::INITIAL,
                object: ObjectId::new(i),
                have_version: rtpb_types::Version::INITIAL,
            },
            to: None,
        }
    }

    fn us(v: u64) -> TimeDelta {
        TimeDelta::from_micros(v)
    }

    #[test]
    fn idle_cpu_starts_immediately() {
        let mut cpu = CpuQueue::new();
        assert!(cpu.is_idle());
        assert_eq!(cpu.submit(send(0), us(100)), Some(us(100)));
        assert!(!cpu.is_idle());
        assert_eq!(cpu.backlog(), 0);
    }

    #[test]
    fn busy_cpu_queues_fifo() {
        let mut cpu = CpuQueue::new();
        cpu.submit(send(0), us(100));
        assert_eq!(cpu.submit(send(1), us(200)), None);
        assert_eq!(cpu.submit(send(2), us(300)), None);
        assert_eq!(cpu.backlog(), 2);

        let (done, next) = cpu.complete();
        assert_eq!(done, send(0));
        assert_eq!(next, Some(us(200)));
        let (done, next) = cpu.complete();
        assert_eq!(done, send(1));
        assert_eq!(next, Some(us(300)));
        let (done, next) = cpu.complete();
        assert_eq!(done, send(2));
        assert_eq!(next, None);
        assert!(cpu.is_idle());
        assert_eq!(cpu.items_completed(), 3);
    }

    #[test]
    #[should_panic(expected = "idle CPU")]
    fn completion_on_idle_cpu_panics() {
        let mut cpu = CpuQueue::new();
        let _ = cpu.complete();
    }

    #[test]
    fn busy_time_accumulates() {
        let mut cpu = CpuQueue::new();
        cpu.submit(send(0), us(100));
        cpu.submit(send(1), us(50));
        let _ = cpu.complete();
        let _ = cpu.complete();
        assert_eq!(cpu.busy_time(), us(150));
    }

    #[test]
    fn clear_empties_everything() {
        let mut cpu = CpuQueue::new();
        cpu.submit(send(0), us(100));
        cpu.submit(send(1), us(100));
        assert_eq!(cpu.generation(), 0);
        cpu.clear();
        assert!(cpu.is_idle());
        assert_eq!(cpu.backlog(), 0);
        assert_eq!(cpu.generation(), 1, "clearing starts a new generation");
        // A fresh submit starts immediately again.
        assert_eq!(cpu.submit(send(2), us(10)), Some(us(10)));
    }

    #[test]
    fn client_write_work_carries_arrival() {
        let w = Work::ClientWrite {
            object: ObjectId::new(1),
            arrival: Time::from_millis(5),
            stamp: 1,
        };
        match w {
            Work::ClientWrite { arrival, .. } => assert_eq!(arrival, Time::from_millis(5)),
            Work::SendUpdate { .. } => unreachable!(),
        }
    }
}
