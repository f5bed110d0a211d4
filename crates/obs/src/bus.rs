//! The lock-light, ring-buffer-backed structured event bus.
//!
//! Design goals, in order:
//!
//! 1. **Zero cost when disabled.** A disabled bus hands out disabled
//!    writers whose [`EventWriter::emit`] is a branch and a return — no
//!    allocation, no lock, no clock read — unless the writer also counts
//!    ([`EventWriter::counting`]). Instrumented and
//!    uninstrumented simulator runs therefore execute the same protocol
//!    decisions (the determinism test in `tests/observability.rs` proves
//!    it).
//! 2. **Lock-light when enabled.** Each writer owns its *own*
//!    mutex-protected ring; `emit` takes only that uncontended lock. In
//!    the thread runtime every thread creates its own writer, so threads
//!    never contend on the hot path — only [`EventBus::collect`] (a cold
//!    path) touches all rings.
//! 3. **Bounded.** Rings evict their oldest record at capacity, so a
//!    week-long soak cannot OOM the process; `dropped()` reports the
//!    eviction count so consumers know a trace is truncated.
//!
//! Sequence numbers come from one bus-wide atomic counter, giving a total
//! order across writers. A single-threaded simulation has one writer and
//! strictly increasing `(t_ns, seq)` pairs, which is what makes seeded
//! trace exports byte-identical across runs.

use crate::event::{ClockDomain, EventKind, ObsEvent};
use crate::fold::Fold;
use crate::registry::MetricsRegistry;
use rtpb_types::Time;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<ObsEvent>,
    dropped: u64,
}

#[derive(Debug)]
struct BusInner {
    /// Per-writer ring capacity; zero means the bus is disabled.
    capacity: usize,
    seq: AtomicU64,
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
}

/// A shareable handle to the event bus. Cloning shares the same bus.
///
/// # Examples
///
/// ```
/// use rtpb_obs::{ClockDomain, EventBus, EventKind};
/// use rtpb_types::{NodeId, Time};
///
/// let bus = EventBus::with_capacity(16);
/// let writer = bus.writer();
/// writer.emit(
///     ClockDomain::Virtual,
///     Time::from_millis(1),
///     EventKind::HeartbeatSent { from: NodeId::new(0), to: NodeId::new(1) },
/// );
/// let events = bus.collect();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].kind.name(), "heartbeat_sent");
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventBus {
    inner: Option<Arc<BusInner>>,
}

impl EventBus {
    /// A disabled bus: writers are no-ops, `collect` returns nothing.
    #[must_use]
    pub fn disabled() -> Self {
        EventBus { inner: None }
    }

    /// An enabled bus whose writers each retain the most recent
    /// `capacity` events. A zero capacity yields a disabled bus.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            return EventBus::disabled();
        }
        EventBus {
            inner: Some(Arc::new(BusInner {
                capacity,
                seq: AtomicU64::new(0),
                rings: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether events are being retained.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers a new writer (one per producing thread).
    #[must_use]
    pub fn writer(&self) -> EventWriter {
        let Some(inner) = &self.inner else {
            return EventWriter::disabled();
        };
        let ring = Arc::new(Mutex::new(Ring::default()));
        inner
            .rings
            .lock()
            .expect("bus poisoned")
            .push(Arc::clone(&ring));
        EventWriter {
            inner: Some(Arc::new(WriterInner {
                ring: Some((Arc::clone(inner), ring)),
                fold: None,
            })),
        }
    }

    /// Snapshots every writer's retained events, merged into one stream
    /// ordered by `(t_ns, seq)`. The rings are left untouched, so calling
    /// this repeatedly (e.g. mid-run and at the end) is safe.
    #[must_use]
    pub fn collect(&self) -> Vec<ObsEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let rings = inner.rings.lock().expect("bus poisoned");
        let mut all: Vec<ObsEvent> = Vec::new();
        for ring in rings.iter() {
            all.extend(ring.lock().expect("ring poisoned").events.iter().cloned());
        }
        drop(rings);
        all.sort_by_key(|e| (e.at, e.seq));
        all
    }

    /// Total events evicted across all rings (trace truncation signal).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let rings = inner.rings.lock().expect("bus poisoned");
        rings
            .iter()
            .map(|r| r.lock().expect("ring poisoned").dropped)
            .sum()
    }

    /// Total events emitted so far (including evicted ones).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.seq.load(Ordering::Relaxed))
    }

    /// Renders the merged stream as JSONL, one event per line, trailing
    /// newline included when non-empty.
    #[must_use]
    pub fn export_jsonl(&self) -> String {
        let events = self.collect();
        let mut out = String::new();
        for e in &events {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        out
    }
}

#[derive(Debug)]
struct WriterInner {
    /// The bus and this writer's ring, when the bus records.
    ring: Option<(Arc<BusInner>, Arc<Mutex<Ring>>)>,
    /// The instruments events are folded into, when a registry counts.
    fold: Option<Fold>,
}

/// A per-thread event producer. Cheap to create; `emit` locks only this
/// writer's own ring. Clones share the ring, so clone only within one
/// thread — across threads, take a fresh writer from [`EventBus::writer`].
#[derive(Debug, Clone, Default)]
pub struct EventWriter {
    /// `None` when the writer neither records nor counts, so that `emit`
    /// is one branch.
    inner: Option<Arc<WriterInner>>,
}

impl EventWriter {
    /// A writer that discards everything (for paths where no bus exists).
    #[must_use]
    pub fn disabled() -> Self {
        EventWriter { inner: None }
    }

    /// This writer, also folding every event it emits into the
    /// `cluster.*` instrument of `registry` that mirrors its kind, whether
    /// or not its bus records: `update_sent` into `updates_sent` (and
    /// `updates_lost`), `catch_up_plan` into `catchup_bytes` by its
    /// bytes, a backup's promotion into `failovers`, and so on (DESIGN.md
    /// §8). The instruments are registered now. A disabled registry
    /// leaves the writer as it is.
    #[must_use]
    pub fn counting(self, registry: &MetricsRegistry) -> Self {
        if !registry.is_enabled() {
            return self;
        }
        let ring = self.inner.and_then(|inner| inner.ring.clone());
        EventWriter {
            inner: Some(Arc::new(WriterInner {
                ring,
                fold: Some(Fold::new(registry)),
            })),
        }
    }

    /// Whether emits are retained or counted.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Folds one event into the counting registry, then stamps and
    /// appends it to the ring; a no-op on a disabled writer.
    pub fn emit(&self, clock: ClockDomain, at: Time, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        if let Some(fold) = &inner.fold {
            fold.count(&kind);
        }
        let Some((bus, ring)) = &inner.ring else {
            return;
        };
        let seq = bus.seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = ring.lock().expect("ring poisoned");
        if ring.events.len() == bus.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(ObsEvent {
            seq,
            at,
            clock,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpb_types::NodeId;

    fn hb(n: u16) -> EventKind {
        EventKind::HeartbeatSent {
            from: NodeId::new(0),
            to: NodeId::new(n),
        }
    }

    #[test]
    fn disabled_bus_costs_nothing_and_returns_nothing() {
        let bus = EventBus::disabled();
        let w = bus.writer();
        assert!(!bus.is_enabled());
        assert!(!w.is_enabled());
        w.emit(ClockDomain::Virtual, Time::ZERO, hb(1));
        assert!(bus.collect().is_empty());
        assert_eq!(bus.emitted(), 0);
        assert!(!EventBus::with_capacity(0).is_enabled());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let bus = EventBus::with_capacity(2);
        let w = bus.writer();
        for i in 0..5u64 {
            w.emit(ClockDomain::Virtual, Time::from_millis(i), hb(1));
        }
        let events = bus.collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
        assert_eq!(bus.dropped(), 3);
        assert_eq!(bus.emitted(), 5);
    }

    #[test]
    fn collect_merges_writers_by_time_then_seq() {
        let bus = EventBus::with_capacity(8);
        let a = bus.writer();
        let b = bus.writer();
        b.emit(ClockDomain::Real, Time::from_millis(2), hb(2));
        a.emit(ClockDomain::Real, Time::from_millis(1), hb(1));
        a.emit(ClockDomain::Real, Time::from_millis(2), hb(3));
        let merged = bus.collect();
        let times: Vec<u64> = merged.iter().map(|e| e.at.as_millis()).collect();
        assert_eq!(times, [1, 2, 2]);
        // Same timestamp: bus-wide sequence breaks the tie.
        assert!(merged[1].seq < merged[2].seq);
    }

    #[test]
    fn export_is_one_line_per_event() {
        let bus = EventBus::with_capacity(8);
        let w = bus.writer();
        w.emit(ClockDomain::Virtual, Time::from_millis(1), hb(1));
        w.emit(ClockDomain::Virtual, Time::from_millis(2), hb(1));
        let jsonl = bus.export_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            crate::event::validate_line(line).expect("schema-valid");
        }
    }

    #[test]
    fn concurrent_writers_do_not_lose_events() {
        let bus = EventBus::with_capacity(10_000);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let bus = bus.clone();
                std::thread::spawn(move || {
                    let w = bus.writer();
                    for i in 0..500u64 {
                        w.emit(ClockDomain::Real, Time::from_nanos(i), hb(1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(bus.collect().len(), 2_000);
        assert_eq!(bus.emitted(), 2_000);
        // Sequence numbers are unique.
        let mut seqs: Vec<u64> = bus.collect().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 2_000);
    }
}
