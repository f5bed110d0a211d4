//! The `cluster.*` registry handles both drivers count into.
//!
//! The simulator ([`SimCluster`](crate::harness::SimCluster)) and the
//! real-thread runtime (`rtpb-rt`) count what the sans-io cores report
//! through the same [`steps`](crate::steps), into one set of
//! pre-resolved handles. With the registry disabled, a count costs one
//! branch.

use rtpb_obs::{Counter, Histogram, MetricsRegistry};

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
}
