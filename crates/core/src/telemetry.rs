//! The `cluster.*` registry handles both drivers record into at the site.
//!
//! Every other `cluster.*` counter is folded from the event stream: both
//! drivers emit through a counting writer
//! ([`EventWriter::counting`](rtpb_obs::EventWriter::counting)), so those
//! counts agree with the trace by construction. What stays here has no
//! event that carries it: a frame count that `update_sent` events would
//! repeat once per update, and four durations. With the registry
//! disabled, a record costs one branch.

use rtpb_obs::{Counter, Histogram, MetricsRegistry};

/// Pre-resolved `cluster.*` registry handles: resolving by name per event
/// would take the registry lock each time. Handles from a disabled
/// registry count nothing.
#[derive(Debug, Clone)]
pub struct Instruments {
    /// `cluster.frames_sent`: update-carrying frames that left the primary.
    pub frames_sent: Counter,
    /// `cluster.response_time`: client write response times.
    pub response_time: Histogram,
    /// `cluster.read_latency`: client read latencies.
    pub read_latency: Histogram,
    /// `cluster.failover_time`: detection-to-serving failover durations.
    pub failover_time: Histogram,
    /// `cluster.recovery_time`: injection-to-reintegration durations.
    pub recovery_time: Histogram,
}

impl Instruments {
    /// Resolves every handle in `registry`.
    #[must_use]
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        Instruments {
            frames_sent: registry.counter("cluster.frames_sent"),
            response_time: registry.histogram("cluster.response_time"),
            read_latency: registry.histogram("cluster.read_latency"),
            failover_time: registry.histogram("cluster.failover_time"),
            recovery_time: registry.histogram("cluster.recovery_time"),
        }
    }
}
