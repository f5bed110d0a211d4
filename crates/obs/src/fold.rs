//! The `cluster.*` instruments that mirror an event kind, folded from
//! the events themselves.
//!
//! A writer built with [`EventWriter::counting`](crate::EventWriter::counting)
//! hands every event it emits to [`Fold::count`], whether or not its bus
//! records. So each of these counters agrees with the trace by
//! construction: no emit site counts on its own. DESIGN.md §8 lists the
//! mapping.

use crate::event::{EventKind, Role};
use crate::registry::{Counter, Histogram, MetricsRegistry};

/// Declares [`Fold`] with one `cluster.<name>` counter per listed name,
/// plus the `cluster.batch_occupancy` histogram.
macro_rules! fold {
    ($($name:ident),+ $(,)?) => {
        /// The instruments the folded event kinds advance, resolved once.
        #[derive(Debug)]
        pub(crate) struct Fold {
            $($name: Counter,)+
            batch_occupancy: Histogram,
        }

        impl Fold {
            /// Resolves, and so registers, every folded instrument in
            /// `registry`.
            pub(crate) fn new(registry: &MetricsRegistry) -> Self {
                Fold {
                    $($name: registry.counter(concat!("cluster.", stringify!($name))),)+
                    // Occupancy is a count of sub-messages, not a
                    // duration; the bucket bounds are message counts.
                    batch_occupancy: registry.histogram_with_bounds(
                        "cluster.batch_occupancy",
                        vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096],
                    ),
                }
            }
        }
    };
}

fold! {
    updates_sent, updates_lost, send_rejected, retransmit_requests, client_writes,
    reads_served, read_redirects, failovers, fenced_frames, catchup_bytes,
    timing_violations, integrity_violations, scrub_divergences, faults_injected,
}

impl Fold {
    /// Advances the instrument `kind` mirrors, if any.
    #[inline]
    pub(crate) fn count(&self, kind: &EventKind) {
        match kind {
            EventKind::UpdateSent { lost, .. } => {
                self.updates_sent.inc();
                if *lost {
                    self.updates_lost.inc();
                }
            }
            EventKind::BatchSent { size, .. } => self.batch_occupancy.record_nanos(*size),
            EventKind::SendRejected { .. } => self.send_rejected.inc(),
            EventKind::RetransmitRequested { .. } => self.retransmit_requests.inc(),
            EventKind::ClientWrite { .. } => self.client_writes.inc(),
            EventKind::ReadServed { .. } => self.reads_served.inc(),
            EventKind::ReadRedirected { .. } => self.read_redirects.inc(),
            EventKind::RoleTransition {
                from: Role::Backup,
                to: Role::Primary,
                ..
            } => self.failovers.inc(),
            EventKind::StaleEpochRejected { .. } => self.fenced_frames.inc(),
            EventKind::CatchUpPlan { bytes, .. } => self.catchup_bytes.add(*bytes),
            EventKind::TimingViolation { .. } => self.timing_violations.inc(),
            EventKind::IntegrityViolation { .. } => self.integrity_violations.inc(),
            EventKind::ScrubDivergence { .. } => self.scrub_divergences.inc(),
            EventKind::FaultInjected { .. } => self.faults_injected.inc(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::event::{tests::every_kind, ClockDomain, EventKind, Role};
    use crate::{EventBus, EventWriter, MetricsRegistry, MetricsSnapshot};
    use rtpb_types::{NodeId, ObjectId, Time, Version};
    use std::collections::BTreeMap;

    /// What moved between two snapshots: each counter's increase, and
    /// each histogram's added count and added sum (from count × mean).
    fn moved(before: &MetricsSnapshot, after: &MetricsSnapshot) -> BTreeMap<String, u64> {
        let mut moved = BTreeMap::new();
        for (name, &value) in &after.counters {
            let delta = value - before.counter(name).unwrap_or(0);
            if delta > 0 {
                moved.insert(name.clone(), delta);
            }
        }
        let sum = |s: &MetricsSnapshot, name: &str| {
            s.histogram(name)
                .map_or(0, |h| h.count * h.mean.map_or(0, |m| m.as_nanos()))
        };
        for (name, h) in &after.histograms {
            let count = h.count - before.histogram(name).map_or(0, |b| b.count);
            if count > 0 {
                moved.insert(format!("{name}.count"), count);
                moved.insert(format!("{name}.sum"), sum(after, name) - sum(before, name));
            }
        }
        moved
    }

    /// The instruments `kind` must move, and by how much.
    fn expected(kind: &EventKind) -> Vec<(&'static str, u64)> {
        match kind {
            EventKind::UpdateSent { lost: false, .. } => vec![("cluster.updates_sent", 1)],
            EventKind::UpdateSent { lost: true, .. } => {
                vec![("cluster.updates_lost", 1), ("cluster.updates_sent", 1)]
            }
            EventKind::BatchSent { size, .. } => vec![
                ("cluster.batch_occupancy.count", 1),
                ("cluster.batch_occupancy.sum", *size),
            ],
            EventKind::SendRejected { .. } => vec![("cluster.send_rejected", 1)],
            EventKind::RetransmitRequested { .. } => vec![("cluster.retransmit_requests", 1)],
            EventKind::ClientWrite { .. } => vec![("cluster.client_writes", 1)],
            EventKind::ReadServed { .. } => vec![("cluster.reads_served", 1)],
            EventKind::ReadRedirected { .. } => vec![("cluster.read_redirects", 1)],
            EventKind::RoleTransition {
                from: Role::Backup,
                to: Role::Primary,
                ..
            } => vec![("cluster.failovers", 1)],
            EventKind::StaleEpochRejected { .. } => vec![("cluster.fenced_frames", 1)],
            EventKind::CatchUpPlan { bytes, .. } => vec![("cluster.catchup_bytes", *bytes)],
            EventKind::TimingViolation { .. } => vec![("cluster.timing_violations", 1)],
            EventKind::IntegrityViolation { .. } => vec![("cluster.integrity_violations", 1)],
            EventKind::ScrubDivergence { .. } => vec![("cluster.scrub_divergences", 1)],
            EventKind::FaultInjected { .. } => vec![("cluster.faults_injected", 1)],
            _ => Vec::new(),
        }
    }

    #[test]
    fn each_event_moves_exactly_the_instrument_it_mirrors() {
        let mut kinds = every_kind();
        // The cases a field decides: a lost update, and role changes that
        // are no promotion.
        kinds.push(EventKind::UpdateSent {
            object: ObjectId::new(1),
            version: Version::new(3),
            to: NodeId::new(1),
            lost: true,
        });
        for (from, to) in [(Role::Primary, Role::Down), (Role::Joining, Role::Backup)] {
            kinds.push(EventKind::RoleTransition {
                node: NodeId::new(1),
                from,
                to,
            });
        }
        let registry = MetricsRegistry::new();
        // The bus is off: the fold counts whether or not events are kept.
        let writer = EventBus::disabled().writer().counting(&registry);
        assert!(writer.is_enabled());
        let registered = registry.snapshot();
        assert_eq!(registered.counters.len(), 14);
        assert_eq!(registered.histograms.len(), 1);
        for kind in kinds {
            let want: BTreeMap<String, u64> = expected(&kind)
                .into_iter()
                .map(|(name, by)| (name.to_string(), by))
                .collect();
            let before = registry.snapshot();
            writer.emit(ClockDomain::Virtual, Time::ZERO, kind.clone());
            assert_eq!(moved(&before, &registry.snapshot()), want, "{kind:?}");
        }
    }

    #[test]
    fn a_disabled_registry_leaves_emit_one_branch() {
        let writer = EventWriter::disabled().counting(&MetricsRegistry::disabled());
        assert!(!writer.is_enabled());
        writer.emit(ClockDomain::Virtual, Time::ZERO, every_kind().remove(0));
    }

    #[test]
    fn a_counting_writer_still_records() {
        let bus = EventBus::with_capacity(8);
        let registry = MetricsRegistry::new();
        let writer = bus.writer().counting(&registry);
        for kind in every_kind().into_iter().take(3) {
            writer.emit(ClockDomain::Virtual, Time::ZERO, kind);
        }
        assert_eq!(bus.collect().len(), 3);
        assert_eq!(registry.counter("cluster.updates_sent").get(), 1);
    }
}
