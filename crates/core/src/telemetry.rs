//! The count-and-emit steps both drivers share.
//!
//! The simulator ([`SimCluster`](crate::harness::SimCluster)) and the
//! real-thread runtime (`rtpb-rt`) turn what the sans-io cores report —
//! drained monitor and integrity events, fenced frames, catch-up
//! decisions, frames leaving with updates — into the same `cluster.*`
//! registry counters and the same [`EventKind`]s, through the steps
//! below. Each step takes an `emit` closure, so the simulator stamps
//! virtual time and the runtime stamps its monotonic clock. No step
//! allocates: with the registry and the bus disabled, a step costs its
//! branches.

use crate::integrity::IntegrityEvent;
use crate::monitor::MonitorEvent;
use crate::primary::CatchUpDecision;
use crate::wire::WireMessage;
use rtpb_obs::{Counter, EventKind, Histogram, MetricsRegistry};
use rtpb_types::{Epoch, NodeId};

/// Pre-resolved `cluster.*` registry handles: resolving by name per event
/// would take the registry lock each time. Handles from a disabled
/// registry count nothing.
#[derive(Debug, Clone)]
pub struct Instruments {
    /// `cluster.updates_sent`: updates that left the primary.
    pub updates_sent: Counter,
    /// `cluster.updates_lost`: updates whose frame the link dropped.
    pub updates_lost: Counter,
    /// `cluster.frames_sent`: update-carrying frames that left the primary.
    pub frames_sent: Counter,
    /// `cluster.send_rejected`: frames refused for exceeding the datagram
    /// limit.
    pub send_rejected: Counter,
    /// `cluster.retransmit_requests`: watchdog requests the primary
    /// received.
    pub retransmit_requests: Counter,
    /// `cluster.client_writes`: writes a serving primary applied.
    pub client_writes: Counter,
    /// `cluster.reads_served`: reads answered without a redirect.
    pub reads_served: Counter,
    /// `cluster.read_redirects`: reads redirected to the primary.
    pub read_redirects: Counter,
    /// `cluster.failovers`: backup promotions.
    pub failovers: Counter,
    /// `cluster.fenced_frames`: frames rejected for a stale epoch.
    pub fenced_frames: Counter,
    /// `cluster.catchup_bytes`: encoded bytes of catch-up replies.
    pub catchup_bytes: Counter,
    /// `cluster.timing_violations`: temporal-monitor violations.
    pub timing_violations: Counter,
    /// `cluster.integrity_violations`: failed checksum verifications.
    pub integrity_violations: Counter,
    /// `cluster.scrub_divergences`: scrub-digest mismatches.
    pub scrub_divergences: Counter,
    /// `cluster.response_time`: client write response times.
    pub response_time: Histogram,
    /// `cluster.read_latency`: client read latencies.
    pub read_latency: Histogram,
    /// `cluster.failover_time`: detection-to-serving failover durations.
    pub failover_time: Histogram,
    /// `cluster.recovery_time`: injection-to-reintegration durations.
    pub recovery_time: Histogram,
    /// `cluster.batch_occupancy`: sub-messages per batch frame.
    pub batch_occupancy: Histogram,
}

impl Instruments {
    /// Resolves every handle in `registry`.
    #[must_use]
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        Instruments {
            updates_sent: registry.counter("cluster.updates_sent"),
            updates_lost: registry.counter("cluster.updates_lost"),
            frames_sent: registry.counter("cluster.frames_sent"),
            send_rejected: registry.counter("cluster.send_rejected"),
            retransmit_requests: registry.counter("cluster.retransmit_requests"),
            client_writes: registry.counter("cluster.client_writes"),
            reads_served: registry.counter("cluster.reads_served"),
            read_redirects: registry.counter("cluster.read_redirects"),
            failovers: registry.counter("cluster.failovers"),
            fenced_frames: registry.counter("cluster.fenced_frames"),
            catchup_bytes: registry.counter("cluster.catchup_bytes"),
            timing_violations: registry.counter("cluster.timing_violations"),
            integrity_violations: registry.counter("cluster.integrity_violations"),
            scrub_divergences: registry.counter("cluster.scrub_divergences"),
            response_time: registry.histogram("cluster.response_time"),
            read_latency: registry.histogram("cluster.read_latency"),
            failover_time: registry.histogram("cluster.failover_time"),
            recovery_time: registry.histogram("cluster.recovery_time"),
            // Occupancy is a count of sub-messages, not a duration; the
            // bucket bounds are message counts.
            batch_occupancy: registry.histogram_with_bounds(
                "cluster.batch_occupancy",
                vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096],
            ),
        }
    }

    /// Surfaces a node's drained temporal-monitor events (DESIGN.md §14):
    /// counts each violation into `cluster.timing_violations` and emits
    /// `timing_violation`, `monitor_degraded` or `monitor_recovered`.
    pub fn monitor_events(
        &self,
        node: NodeId,
        events: impl IntoIterator<Item = MonitorEvent>,
        mut emit: impl FnMut(EventKind),
    ) {
        for event in events {
            emit(match event {
                MonitorEvent::Violation(v) => {
                    self.timing_violations.inc();
                    EventKind::TimingViolation {
                        node,
                        evidence: v.name(),
                        observed_ns: v.observed_ns(),
                        bound_ns: v.bound_ns(),
                    }
                }
                MonitorEvent::Degraded => EventKind::MonitorDegraded { node },
                MonitorEvent::Recovered => EventKind::MonitorRecovered { node },
            });
        }
    }

    /// Surfaces a node's drained integrity incidents (DESIGN.md §15):
    /// counts them into `cluster.integrity_violations` or
    /// `cluster.scrub_divergences` and emits each. Containment already
    /// happened inside the state machine (frame dropped, record withheld,
    /// entry quarantined); this is the observability half.
    pub fn integrity_events(
        &self,
        node: NodeId,
        events: impl IntoIterator<Item = IntegrityEvent>,
        mut emit: impl FnMut(EventKind),
    ) {
        for event in events {
            emit(match event {
                IntegrityEvent::Violation { source, object, .. } => {
                    self.integrity_violations.inc();
                    EventKind::IntegrityViolation {
                        node,
                        source: source.name(),
                        object: object.map_or(u64::MAX, |id| u64::from(id.index())),
                    }
                }
                IntegrityEvent::ScrubDivergence { range, ranges } => {
                    self.scrub_divergences.inc();
                    EventKind::ScrubDivergence {
                        node,
                        range: u64::from(range),
                        ranges: u64::from(ranges),
                    }
                }
            });
        }
    }

    /// Counts and emits one frame `node` dropped on arrival because it
    /// failed to parse — in practice an in-transit bit flip, caught by the
    /// CRC32C trailer before any field is read. The retransmission
    /// machinery repairs the gap like a loss.
    pub fn corrupt_frame(&self, node: NodeId, emit: impl FnOnce(EventKind)) {
        self.integrity_violations.inc();
        emit(EventKind::IntegrityViolation {
            node,
            source: "frame",
            object: u64::MAX,
        });
    }

    /// Counts and emits the stale-epoch frames `node`, now at epoch
    /// `local`, just fenced.
    pub fn fenced(
        &self,
        node: NodeId,
        local: Epoch,
        stale: &[Epoch],
        mut emit: impl FnMut(EventKind),
    ) {
        for &frame in stale {
            self.fenced_frames.inc();
            emit(EventKind::StaleEpochRejected {
                node,
                frame_epoch: frame.value(),
                local_epoch: local.value(),
            });
        }
    }

    /// Counts and emits a primary's catch-up decision: which of the three
    /// re-integration paths ran, and at what cost.
    pub fn catch_up_plan(&self, plan: &CatchUpDecision, emit: impl FnOnce(EventKind)) {
        self.catchup_bytes.add(plan.bytes);
        emit(EventKind::CatchUpPlan {
            node: plan.node,
            path: plan.path.name(),
            gap: plan.gap,
            records: plan.records,
            bytes: plan.bytes,
        });
    }

    /// Counts and emits a frame leaving toward `to`, `lost` if the link
    /// dropped it. A frame that carries updates counts as one frame; a
    /// batch records its occupancy and emits `batch_sent`; then each
    /// update counts as sent (and lost with its frame) and emits
    /// `update_sent`. Returns the number of updates the frame carried —
    /// zero for control traffic, which counts nothing.
    pub fn frame_sent(
        &self,
        to: NodeId,
        msg: &WireMessage,
        lost: bool,
        mut emit: impl FnMut(EventKind),
    ) -> usize {
        let updates = msg.carried_updates();
        if updates.is_empty() {
            return 0;
        }
        self.frames_sent.inc();
        if let WireMessage::Batch { messages, .. } = msg {
            let size = messages.len() as u64;
            self.batch_occupancy.record_nanos(size);
            emit(EventKind::BatchSent { to, size, lost });
        }
        for update in updates {
            if let WireMessage::Update {
                object, version, ..
            } = update
            {
                self.updates_sent.inc();
                if lost {
                    self.updates_lost.inc();
                }
                emit(EventKind::UpdateSent {
                    object: *object,
                    version: *version,
                    to,
                    lost,
                });
            }
        }
        updates.len()
    }
}
