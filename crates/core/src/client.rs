//! The unified client session API: writes to the primary, temporally
//! consistent reads from the backups.
//!
//! [`RtpbClient`] is the single public entry point for driving a
//! simulated RTPB cluster. It routes every operation the way the paper's
//! deployment model does (§4.4):
//!
//! - **Writes** resolve the serving primary through the
//!   [`NameService`] and apply there —
//!   the only replica allowed to mutate state.
//! - **Reads** are answered *locally* by backup replicas. Every reply
//!   carries a [`StalenessCertificate`](rtpb_types::StalenessCertificate)
//!   derived from the served value's own write timestamp, so the caller
//!   knows — without any extra round trip and without trusting the
//!   primary's timeliness — how stale the value can possibly be
//!   (Theorem 5 is what keeps that age small in a healthy cluster).
//! - A [`SessionToken`] records the high-water
//!   [`LogPosition`](rtpb_types::LogPosition) the
//!   session has observed and written, giving **monotonic reads** and
//!   **read-your-writes** across replicas and across failovers (the
//!   token's `(epoch, seq)` order survives an epoch change).
//!
//! A backup behind the session floor is skipped; when no eligible
//! replica qualifies, the read returns
//! [`ReadOutcome::Redirect`] served by the primary instead of blocking
//! on replica catch-up.

use crate::backup::Backup;
use crate::harness::{ClusterConfig, FaultEvent, SimCluster};
use crate::metrics::{ClusterMetrics, FaultRecord};
use crate::name_service::NameService;
use crate::primary::Primary;
use rtpb_obs::{EventBus, MetricsRegistry};
use rtpb_types::{
    AdmissionError, NodeId, ObjectId, ObjectSpec, ReadConsistency, ReadError, ReadOutcome,
    SessionToken, Time, TimeDelta, Version, WriteError,
};

/// A client session over a simulated RTPB cluster.
///
/// Owns the cluster plus one [`SessionToken`]; every read and write goes
/// through the session so its guarantees ([`ReadConsistency::Monotonic`],
/// [`ReadConsistency::ReadYourWrites`]) hold without the caller touching
/// [`Primary`] or [`Backup`] internals.
///
/// # Examples
///
/// ```
/// use rtpb_core::harness::ClusterConfig;
/// use rtpb_core::RtpbClient;
/// use rtpb_types::{ObjectSpec, ReadConsistency, TimeDelta};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut client = RtpbClient::new(ClusterConfig {
///     num_backups: 2,
///     ..ClusterConfig::default()
/// });
/// let id = client.register(
///     ObjectSpec::builder("airspeed")
///         .update_period(TimeDelta::from_millis(50))
///         .primary_bound(TimeDelta::from_millis(100))
///         .backup_bound(TimeDelta::from_millis(400))
///         .build()?,
/// )?;
/// let version = client.write(id, vec![1, 2, 3])?;
/// client.run_for(TimeDelta::from_secs(2));
///
/// // Read-your-writes: whichever replica answers has at least our write.
/// let outcome = client.read(id, ReadConsistency::ReadYourWrites)?;
/// assert!(outcome.certificate().version >= version);
/// assert!(outcome.certificate().respects(TimeDelta::from_millis(400)));
/// # Ok(())
/// # }
/// ```
pub struct RtpbClient {
    cluster: SimCluster,
    token: SessionToken,
}

impl RtpbClient {
    /// Builds a cluster and opens a fresh session over it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SimCluster::new`]).
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        RtpbClient {
            cluster: SimCluster::new(config),
            token: SessionToken::new(),
        }
    }

    /// Registers an object through the primary's admission control.
    ///
    /// # Errors
    ///
    /// Propagates the admission decision ([`SimCluster::register`]).
    pub fn register(&mut self, spec: ObjectSpec) -> Result<ObjectId, AdmissionError> {
        self.cluster.register(spec)
    }

    /// Registers a batch of objects in one pass
    /// ([`SimCluster::register_many`]).
    ///
    /// # Errors
    ///
    /// Stops at the first rejected spec and propagates its admission
    /// error; objects admitted before it stay registered.
    pub fn register_many(
        &mut self,
        specs: Vec<ObjectSpec>,
    ) -> Result<Vec<ObjectId>, AdmissionError> {
        self.cluster.register_many(specs)
    }

    /// Advances the cluster by `span` of virtual time.
    pub fn run_for(&mut self, span: TimeDelta) {
        self.cluster.run_for(span);
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.cluster.now()
    }

    /// Writes `payload` to `id` at the serving primary (resolved through
    /// the name service) and advances the session's written high-water
    /// mark, so a later [`ReadConsistency::ReadYourWrites`] read cannot
    /// observe a replica that has not applied this write.
    ///
    /// # Errors
    ///
    /// [`WriteError::UnknownObject`] when `id` was never registered;
    /// [`WriteError::Unavailable`] when no primary is serving or its
    /// split-brain gate refuses writes (deposed, or lease lapsed).
    pub fn write(&mut self, id: ObjectId, payload: Vec<u8>) -> Result<Version, WriteError> {
        let (version, position) = self.cluster.client_write(id, &payload)?;
        self.token.record_write(position);
        Ok(version)
    }

    /// Reads `id` at the requested consistency level and advances the
    /// session's observed high-water mark.
    ///
    /// Routing: [`ReadConsistency::Strong`] goes straight to the serving
    /// primary; every other level tries the read-eligible backups
    /// least-loaded-first, skipping replicas behind the session floor
    /// (for [`Monotonic`](ReadConsistency::Monotonic) /
    /// [`ReadYourWrites`](ReadConsistency::ReadYourWrites)) or over the
    /// staleness bound (for [`Bounded`](ReadConsistency::Bounded)).
    /// Rather than wait for a lagging replica to catch up, an
    /// unsatisfiable read redirects to the primary and reports that via
    /// [`ReadOutcome::Redirect`].
    ///
    /// # Errors
    ///
    /// [`ReadError::UnknownObject`] when `id` was never registered;
    /// [`ReadError::NoValue`] when it was registered but no write has
    /// completed anywhere; [`ReadError::Unavailable`] when neither a
    /// replica nor a gate-passing primary can serve.
    pub fn read(
        &mut self,
        id: ObjectId,
        consistency: ReadConsistency,
    ) -> Result<ReadOutcome, ReadError> {
        let floor = self.token.read_floor(&consistency);
        let (outcome, position) = self.cluster.client_read(id, &consistency, floor)?;
        if let Some(position) = position {
            self.token.observe(position);
        }
        Ok(outcome)
    }

    /// The session's token: the observed / written high-water
    /// [`LogPosition`](rtpb_types::LogPosition)s backing the monotonic
    /// and read-your-writes
    /// floors.
    #[must_use]
    pub fn session_token(&self) -> &SessionToken {
        &self.token
    }

    /// Injects a fault at the current instant ([`SimCluster::inject`]).
    pub fn inject(&mut self, fault: FaultEvent) {
        self.cluster.inject(fault);
    }

    /// Live metrics ([`SimCluster::metrics`]).
    #[must_use]
    pub fn metrics(&self) -> &ClusterMetrics {
        self.cluster.metrics()
    }

    /// A finalized metrics snapshot ([`SimCluster::report`]).
    #[must_use]
    pub fn report(&self) -> ClusterMetrics {
        self.cluster.report()
    }

    /// Per-fault lifecycle records ([`SimCluster::fault_report`]).
    #[must_use]
    pub fn fault_report(&self) -> &[FaultRecord] {
        self.cluster.fault_report()
    }

    /// Whether a failover has occurred.
    #[must_use]
    pub fn has_failed_over(&self) -> bool {
        self.cluster.has_failed_over()
    }

    /// The name service (binding history).
    #[must_use]
    pub fn name_service(&self) -> &NameService {
        self.cluster.name_service()
    }

    /// The serving primary, if any.
    #[must_use]
    pub fn primary(&self) -> Option<&Primary> {
        self.cluster.primary()
    }

    /// The first live backup, if any.
    #[must_use]
    pub fn backup(&self) -> Option<&Backup> {
        self.cluster.backup()
    }

    /// All live backups, in host order.
    #[must_use]
    pub fn backups(&self) -> Vec<&Backup> {
        self.cluster.backups()
    }

    /// Per-host read-service telemetry ([`SimCluster::read_load`]).
    #[must_use]
    pub fn read_load(&self) -> Vec<(NodeId, bool, u64, Time)> {
        self.cluster.read_load()
    }

    /// The structured-event bus.
    #[must_use]
    pub fn bus(&self) -> &EventBus {
        self.cluster.bus()
    }

    /// The metrics registry.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        self.cluster.registry()
    }

    /// Exports the structured event stream as JSONL.
    #[must_use]
    pub fn export_jsonl(&self) -> String {
        self.cluster.export_jsonl()
    }

    /// The underlying cluster, for assertions the session API does not
    /// cover (traces, CPU backlog, catch-up plans, …).
    #[must_use]
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Mutable access to the underlying cluster — the escape hatch for
    /// harness-level drivers; protocol traffic should stay on
    /// [`RtpbClient::write`] / [`RtpbClient::read`].
    pub fn cluster_mut(&mut self) -> &mut SimCluster {
        &mut self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpb_types::StalenessCertificate;

    fn spec(name: &str) -> ObjectSpec {
        ObjectSpec::builder(name)
            .update_period(TimeDelta::from_millis(50))
            .primary_bound(TimeDelta::from_millis(100))
            .backup_bound(TimeDelta::from_millis(400))
            .build()
            .unwrap()
    }

    #[test]
    fn write_then_bounded_read_serves_with_certificate() {
        let mut client = RtpbClient::new(ClusterConfig {
            num_backups: 2,
            ..ClusterConfig::default()
        });
        let id = client.register(spec("a")).unwrap();
        let v = client.write(id, vec![7]).unwrap();
        client.run_for(TimeDelta::from_secs(1));
        let outcome = client
            .read(id, ReadConsistency::Bounded(TimeDelta::from_millis(400)))
            .unwrap();
        assert!(!outcome.is_redirect(), "fresh replica should serve locally");
        let cert: &StalenessCertificate = outcome.certificate();
        assert!(cert.version >= v);
        assert!(cert.respects(TimeDelta::from_millis(400)));
    }

    #[test]
    fn read_your_writes_sees_own_write() {
        let mut client = RtpbClient::new(ClusterConfig::default());
        let id = client.register(spec("a")).unwrap();
        client.run_for(TimeDelta::from_millis(200));
        let v = client.write(id, vec![1, 2]).unwrap();
        // No time for the update to propagate: the lone backup is behind
        // the session floor, so the read must redirect to the primary.
        let outcome = client.read(id, ReadConsistency::ReadYourWrites).unwrap();
        assert!(outcome.certificate().version >= v);
        assert!(
            client.session_token().observed().is_some(),
            "read advances the observed high-water mark"
        );
    }

    #[test]
    fn monotonic_floor_advances_with_reads() {
        let mut client = RtpbClient::new(ClusterConfig::default());
        let id = client.register(spec("a")).unwrap();
        client.run_for(TimeDelta::from_secs(1));
        let first = client.read(id, ReadConsistency::Monotonic).unwrap();
        let first_version = first.certificate().version;
        client.run_for(TimeDelta::from_secs(1));
        let second = client.read(id, ReadConsistency::Monotonic).unwrap();
        assert!(second.certificate().version >= first_version);
    }

    #[test]
    fn unknown_and_no_value_reads_are_distinguished() {
        let mut client = RtpbClient::new(ClusterConfig::default());
        let id = client.register(spec("a")).unwrap();
        let missing = ObjectId::new(999);
        assert!(matches!(
            client.read(missing, ReadConsistency::Monotonic),
            Err(ReadError::UnknownObject(_))
        ));
        assert!(matches!(
            client.write(missing, vec![1]),
            Err(WriteError::UnknownObject(_))
        ));
        // Registered but never written anywhere (the sim's periodic write
        // load has not run yet at t = 0).
        assert!(matches!(
            client.read(id, ReadConsistency::Monotonic),
            Err(ReadError::NoValue(_))
        ));
    }

    #[test]
    fn strong_read_served_by_primary_with_zero_age() {
        let mut client = RtpbClient::new(ClusterConfig::default());
        let id = client.register(spec("a")).unwrap();
        client.run_for(TimeDelta::from_secs(1));
        let outcome = client.read(id, ReadConsistency::Strong).unwrap();
        assert!(!outcome.is_redirect());
        assert_eq!(outcome.certificate().age_bound, TimeDelta::ZERO);
        let primary = client.primary().unwrap().node();
        assert_eq!(outcome.served_by(), primary);
    }

    #[test]
    fn reads_balance_across_backups() {
        let mut client = RtpbClient::new(ClusterConfig {
            num_backups: 3,
            ..ClusterConfig::default()
        });
        let id = client.register(spec("a")).unwrap();
        client.run_for(TimeDelta::from_secs(1));
        for _ in 0..30 {
            client
                .read(id, ReadConsistency::Bounded(TimeDelta::from_millis(400)))
                .unwrap();
        }
        let load = client.read_load();
        let served: Vec<u64> = load.iter().map(|&(_, _, n, _)| n).collect();
        assert_eq!(served.iter().sum::<u64>(), 30);
        assert!(
            served.iter().all(|&n| n == 10),
            "least-loaded routing should round-robin identical replicas: {served:?}"
        );
    }
}
