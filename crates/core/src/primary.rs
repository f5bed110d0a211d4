//! The primary server state machine.
//!
//! Sans-io: every method takes the current time and returns the messages
//! to transmit; the driver (simulation harness or thread runtime) owns
//! timers and delivery. Responsibilities (paper §4):
//!
//! - **Admission control** (§4.2) at registration.
//! - **Serving client writes** and timestamping object versions.
//! - **Periodic update transmission** to the backup at the admitted
//!   periods (§4.3); the driver runs each object's send timer and calls
//!   [`Primary::make_update`], or parks the object for a coalesced
//!   batch.
//! - **Retransmission on request** from the backup (§4.3).
//! - **Failure detection** of the backup and cancellation of update
//!   traffic when the backup dies (§4.4).
//! - **Recruiting a replacement backup** via state transfer (§4.4).

use crate::admission;
use crate::backup::Backup;
use crate::config::ProtocolConfig;
use crate::heartbeat::{DetectorAction, FailureDetector};
use crate::integrity::{IntegrityEvent, IntegritySource};
use crate::log::{CatchUpPath, UpdateLog};
use crate::monitor::TemporalMonitor;
use crate::store::ObjectStore;
use crate::update_sched::UpdateSchedule;
use crate::wire::{ReadStatus, ScrubDigest, StateEntry, WireFrame, WireMessage};
use rtpb_types::{
    AdmissionError, Epoch, InterObjectConstraint, Lease, LogPosition, NodeId, ObjectId, ObjectSpec,
    StalenessCertificate, Time, TimeDelta, Version,
};
use std::collections::BTreeMap;

/// An update's `(epoch, version, timestamp, log seq)`.
type UpdateHeader = (Epoch, Version, Time, u64);

/// The update of `object` with `header` and `payload`.
fn update_message(object: ObjectId, header: UpdateHeader, payload: Vec<u8>) -> WireMessage {
    let (epoch, version, timestamp, seq) = header;
    WireMessage::Update {
        epoch,
        object,
        version,
        timestamp,
        seq,
        payload,
    }
}

/// Base of the reconnection-probe sequence range (see
/// [`Primary::probe_ping`]). The per-peer failure detectors count up from
/// zero; probes count up from here, so the two sequence spaces can never
/// collide and a probe's ack is always "unknown" to every detector.
pub const PROBE_SEQ_BASE: u64 = 1 << 63;

/// The primary's reaction to an inbound message.
#[derive(Debug, Clone, Default)]
pub struct PrimaryOutput {
    /// Messages to transmit back to the sending backup.
    pub replies: Vec<WireMessage>,
    /// Whether a new backup was just integrated (drivers should restart
    /// update timers).
    pub backup_joined: bool,
    /// Epochs of frames rejected as stale (sender was deposed before this
    /// primary's own promotion). Drivers feed these to observability.
    pub stale_rejected: Vec<Epoch>,
    /// The catch-up path chosen for a join/resync request handled in this
    /// call, for observability (`catch_up_plan` events).
    pub catch_up: Option<CatchUpDecision>,
}

/// How the primary decided to serve one re-integration request.
#[derive(Debug, Clone)]
pub struct CatchUpDecision {
    /// The re-integrating node.
    pub node: NodeId,
    /// Which of the three catch-up paths ran.
    pub path: CatchUpPath,
    /// Log records between the requester's position and the head (the
    /// whole head when the requester had no usable position).
    pub gap: u64,
    /// Entries shipped in the reply.
    pub records: u64,
    /// Encoded size of the reply frame.
    pub bytes: u64,
}

/// A strong read served by the primary (authoritative copy, staleness
/// zero by definition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimaryRead {
    /// The served value.
    pub payload: Vec<u8>,
    /// The certificate (age bound zero: the primary owns the write path).
    pub certificate: StalenessCertificate,
    /// The primary's update-log head position, for session tokens.
    pub position: LogPosition,
}

/// One heartbeat round's outcome: probes to send (per peer) and peers
/// declared dead this round.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatRound {
    /// `(backup, probe)` pairs to transmit.
    pub pings: Vec<(NodeId, WireMessage)>,
    /// Backups that just exceeded the miss threshold. The primary has
    /// already cancelled their update traffic (§4.4).
    pub died: Vec<NodeId>,
}

/// The primary server.
///
/// Drivers route client traffic through `RtpbClient`; the state machine
/// itself is exercised directly only by harnesses and runtimes.
///
/// # Examples
///
/// ```
/// # #![allow(deprecated)]
/// use rtpb_core::config::ProtocolConfig;
/// use rtpb_core::primary::Primary;
/// use rtpb_types::{NodeId, ObjectSpec, Time, TimeDelta};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut primary = Primary::new(NodeId::new(0), ProtocolConfig::default());
/// // A tracked backup grants the leadership lease; from the first join
/// // onward the lease gates client writes (split-brain safety).
/// primary.add_backup(NodeId::new(1), Time::ZERO);
/// let spec = ObjectSpec::builder("altitude")
///     .update_period(TimeDelta::from_millis(100))
///     .primary_bound(TimeDelta::from_millis(150))
///     .backup_bound(TimeDelta::from_millis(550))
///     .build()?;
/// let id = primary.register(spec, Time::ZERO)?;
/// let version = primary.apply_client_write(id, vec![1, 2], Time::from_millis(5));
/// assert_eq!(version.unwrap().value(), 1);
/// // The update task period follows Theorem 5 with the 2× loss slack.
/// assert_eq!(
///     primary.send_period(id),
///     Some(TimeDelta::from_millis(195)),
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Primary {
    node: NodeId,
    config: ProtocolConfig,
    store: ObjectStore,
    constraints: Vec<InterObjectConstraint>,
    schedule: UpdateSchedule,
    // One failure detector per tracked backup (§4.4; generalized to the
    // multi-backup extension the paper lists as future work).
    peers: BTreeMap<NodeId, FailureDetector>,
    // Leadership state (DESIGN.md §10): the fencing epoch minted at this
    // primary's promotion, the time-bounded lease that authorizes update
    // production, and the highest epoch observed on any inbound frame (a
    // higher one means this primary has been superseded).
    epoch: Epoch,
    lease: Lease,
    observed_epoch: Epoch,
    /// Whether a backup has ever joined this primary's regime. Until one
    /// does, no replica exists that could supersede this primary, so
    /// client writes are served without a lease (§4.4 solo service); from
    /// the first join onward the lease strictly gates writes.
    ever_had_backup: bool,
    stale_frames_rejected: u64,
    probe_seq: u64,
    writes_applied: u64,
    updates_produced: u64,
    acks_received: u64,
    /// The append-only update log of this regime's client writes, the
    /// source of gap-proportional re-integration (DESIGN.md §11).
    log: UpdateLog,
    /// `(log_seq, records_retained)` marks of store snapshots taken since
    /// the driver last drained them (for `store_snapshot` events).
    snapshot_marks: Vec<(u64, u64)>,
    /// Runtime temporal-envelope monitor (DESIGN.md §14). While it is
    /// degraded this primary stops vouching for staleness: writes,
    /// certified reads, update production, and admissions all refuse.
    monitor: TemporalMonitor,
    /// The next range index the background scrubber will digest
    /// (DESIGN.md §15); advances round-robin modulo `scrub_ranges`.
    scrub_cursor: u32,
    /// When the scrubber next computes a digest. Meaningless while
    /// `scrub_interval` is zero (scrubbing disabled).
    next_scrub_at: Time,
    /// The digest piggybacked on heartbeats until the next scrub tick
    /// replaces it. `None` until the first scrub fires.
    scrub_digest: Option<ScrubDigest>,
    /// Integrity incidents (checksum failures) since the driver last
    /// drained them.
    integrity_events: Vec<IntegrityEvent>,
}

impl Primary {
    /// Creates a primary server.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ProtocolConfig::validate`]).
    #[must_use]
    pub fn new(node: NodeId, config: ProtocolConfig) -> Self {
        config.validate();
        let lease = Lease::new(config.lease_duration);
        let log = UpdateLog::new(Epoch::INITIAL, &config);
        let monitor = TemporalMonitor::new(&config);
        Primary {
            node,
            config,
            store: ObjectStore::new(),
            constraints: Vec::new(),
            schedule: UpdateSchedule::new(),
            peers: BTreeMap::new(),
            epoch: Epoch::INITIAL,
            lease,
            observed_epoch: Epoch::INITIAL,
            ever_had_backup: false,
            stale_frames_rejected: 0,
            probe_seq: PROBE_SEQ_BASE,
            writes_applied: 0,
            updates_produced: 0,
            acks_received: 0,
            log,
            snapshot_marks: Vec::new(),
            monitor,
            scrub_cursor: 0,
            next_scrub_at: Time::ZERO,
            scrub_digest: None,
            integrity_events: Vec::new(),
        }
    }

    /// Starts tracking `backup` as a replica: a failure detector is armed
    /// and update production towards it begins. The joining frame proves a
    /// backup was tracking us no later than one link delay ago, which is
    /// why the sizing rule budgets `link_delay_bound` on top of the lease
    /// and clock skew — a receive-time grant here still lapses before any
    /// backup's declaration bound can elapse.
    pub fn add_backup(&mut self, backup: NodeId, now: Time) {
        let mut detector = FailureDetector::new(
            self.node,
            self.config.heartbeat_period,
            self.config.heartbeat_timeout,
            self.config.heartbeat_miss_threshold,
        );
        detector.reset(now);
        self.peers.insert(backup, detector);
        self.ever_had_backup = true;
        self.lease.renew(now);
    }

    /// Stops tracking `backup` (declared dead or decommissioned).
    pub fn remove_backup(&mut self, backup: NodeId) -> bool {
        self.peers.remove(&backup).is_some()
    }

    /// The tracked backups, in id order.
    #[must_use]
    pub fn backups(&self) -> Vec<NodeId> {
        self.peers.keys().copied().collect()
    }

    /// Whether `backup` is tracked: [`Primary::backups`] without the
    /// allocation.
    #[must_use]
    pub fn tracks(&self, backup: NodeId) -> bool {
        self.peers.contains_key(&backup)
    }

    /// Rebuilds a primary from an existing store (used by backup
    /// promotion). The inherited images keep their versions so clients
    /// continue from the most recent replicated state. `epoch` is the
    /// fencing epoch minted at promotion; the promotion instant grants the
    /// initial lease.
    #[must_use]
    pub(crate) fn from_store(
        node: NodeId,
        config: ProtocolConfig,
        store: ObjectStore,
        constraints: Vec<InterObjectConstraint>,
        schedule: UpdateSchedule,
        epoch: Epoch,
        now: Time,
    ) -> Self {
        let mut lease = Lease::new(config.lease_duration);
        lease.renew(now);
        // Adopt the inherited image as this regime's opening state: every
        // value is re-tagged with the freshly minted epoch, so updates and
        // resync diffs computed from it dominate any divergent version
        // counters a deposed predecessor ran up under an older epoch.
        let mut store = store;
        store.adopt_epoch(epoch);
        // The log starts fresh under the newly minted epoch: positions
        // recorded under predecessor regimes are incomparable with it, so
        // rejoiners from an older epoch fall back to a full transfer.
        let log = UpdateLog::new(epoch, &config);
        let monitor = TemporalMonitor::new(&config);
        Primary {
            node,
            config,
            store,
            constraints,
            schedule,
            // A freshly promoted primary has no backup until one joins.
            peers: BTreeMap::new(),
            epoch,
            lease,
            observed_epoch: epoch,
            ever_had_backup: false,
            stale_frames_rejected: 0,
            probe_seq: PROBE_SEQ_BASE,
            writes_applied: 0,
            updates_produced: 0,
            acks_received: 0,
            log,
            snapshot_marks: Vec::new(),
            monitor,
            scrub_cursor: 0,
            next_scrub_at: now,
            scrub_digest: None,
            integrity_events: Vec::new(),
        }
    }

    /// This node's id.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The object table.
    #[must_use]
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The active protocol configuration.
    #[must_use]
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Whether at least one backup is currently believed alive.
    #[must_use]
    pub fn is_backup_alive(&self) -> bool {
        !self.peers.is_empty()
    }

    /// The fencing epoch minted at this primary's promotion.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The leadership lease.
    #[must_use]
    pub fn lease(&self) -> &Lease {
        &self.lease
    }

    /// Whether the leadership lease covers `now`. A primary without a
    /// valid lease must not originate updates — a successor may already
    /// hold the leadership.
    #[must_use]
    pub fn lease_valid(&self, now: Time) -> bool {
        self.lease.is_valid(now)
    }

    /// The runtime temporal-envelope monitor (DESIGN.md §14).
    #[must_use]
    pub fn monitor(&self) -> &TemporalMonitor {
        &self.monitor
    }

    /// Drains the monitor's pending state-transition events — violations,
    /// degradation, recovery — for the driver to surface as trace events
    /// and metrics.
    pub fn drain_monitor_events(&mut self) -> Vec<crate::monitor::MonitorEvent> {
        self.monitor.drain_events()
    }

    /// Drains integrity incidents — checksum failures detected while
    /// serving catch-up or reads — for the driver to surface as
    /// `integrity_violation` events and metrics.
    pub fn drain_integrity_events(&mut self) -> Vec<IntegrityEvent> {
        std::mem::take(&mut self.integrity_events)
    }

    /// Whether this primary has observed a frame from a higher epoch and
    /// must therefore demote itself (see [`Primary::demote`]).
    #[must_use]
    pub fn is_deposed(&self) -> bool {
        self.observed_epoch > self.epoch
    }

    /// The highest epoch observed on any inbound frame.
    #[must_use]
    pub fn observed_epoch(&self) -> Epoch {
        self.observed_epoch
    }

    /// Inbound frames rejected because their epoch predates this
    /// primary's own.
    #[must_use]
    pub fn stale_frames_rejected(&self) -> u64 {
        self.stale_frames_rejected
    }

    /// Client writes applied so far.
    #[must_use]
    pub fn writes_applied(&self) -> u64 {
        self.writes_applied
    }

    /// Update messages produced so far.
    #[must_use]
    pub fn updates_produced(&self) -> u64 {
        self.updates_produced
    }

    /// The inter-object constraints in force.
    #[must_use]
    pub fn constraints(&self) -> &[InterObjectConstraint] {
        &self.constraints
    }

    /// Registers an object (§4.2). Inter-object constraints against
    /// already-registered objects ride on the spec itself — attach them
    /// with [`ObjectSpec::with_constraints`] or
    /// [`ObjectSpecBuilder::constraint`](rtpb_types::ObjectSpecBuilder::constraint).
    ///
    /// On success the update schedule admits the newcomer, tightening
    /// the partners its constraints name; under compressed mode every
    /// period follows the new utilization. The work is proportional to
    /// what changes (see [`admission`]), except that the first admission
    /// after a deregistration rebuilds the schedule from the store.
    ///
    /// # Errors
    ///
    /// Returns the failing admission gate; the object is not registered
    /// and the schedule is untouched.
    pub fn register(&mut self, spec: ObjectSpec, now: Time) -> Result<ObjectId, AdmissionError> {
        if self.monitor.is_degraded() {
            // Admission promises temporal-consistency bounds; with the
            // clock evidence contradicting the envelope those bounds
            // cannot be vouched for right now.
            return Err(AdmissionError::TemporallyDegraded);
        }
        let new_id = self.store.peek_next_id();
        let new_constraints: Vec<InterObjectConstraint> = spec
            .constraints()
            .iter()
            .map(|&(partner, bound)| InterObjectConstraint::new(new_id, partner, bound))
            .collect();
        // A stale schedule still counts deregistered objects: decide
        // against a fresh build, installed only if the newcomer is.
        let rebuilt = self
            .schedule
            .is_stale()
            .then(|| UpdateSchedule::from_store(&self.store, &self.constraints, &self.config));
        let store = &self.store;
        let change = admission::evaluate(
            rebuilt.as_ref().unwrap_or(&self.schedule),
            &self.constraints,
            new_id,
            &spec,
            &new_constraints,
            |id| store.get(id).map(|e| e.spec().update_period()),
            &self.config,
        )?;
        if let Some(rebuilt) = rebuilt {
            self.schedule = rebuilt;
        }
        self.schedule.apply(change, &self.config);
        let id = self.store.register(spec, now);
        debug_assert_eq!(id, new_id);
        self.constraints.extend(new_constraints);
        Ok(id)
    }

    /// Deregisters an object, drops its constraints and its send period.
    /// The other objects keep their periods until the next admission.
    pub fn deregister(&mut self, id: ObjectId) -> bool {
        let removed = self.store.deregister(id).is_some();
        if removed {
            self.constraints.retain(|c| !c.involves(id));
            self.schedule.remove(id);
        }
        removed
    }

    /// Graceful degradation under overload: deregisters the registered
    /// object with the lowest [`criticality`](ObjectSpec::criticality)
    /// (ties break toward the lowest id) through the normal admission
    /// pipeline, and returns its id. `None` when nothing is registered.
    pub fn shed_lowest_criticality(&mut self) -> Option<ObjectId> {
        let victim = self
            .store
            .iter()
            .min_by_key(|(id, e)| (e.spec().criticality(), *id))
            .map(|(id, _)| id)?;
        self.deregister(victim);
        Some(victim)
    }

    /// Applies a client write, producing the next version. Returns `None`
    /// for an unregistered object, and — critically for split-brain
    /// safety — when this primary is deposed, or when it has ever tracked
    /// a backup and its leadership lease does not cover `now`: a
    /// partitioned ex-leader that kept numbering writes would mint
    /// versions a promoted replica of its regime can never have seen,
    /// leaving divergent state for resync to untangle. Refusing the write
    /// up front keeps every accepted write inside a provably exclusive
    /// leadership window.
    ///
    /// The exception — a primary that has *never* tracked a backup in its
    /// regime serves without a lease — is the paper's §4.4 takeover
    /// choreography: the new primary serves clients while it "waits to
    /// recruit a new backup". It is safe because no replica of this
    /// regime exists that could have promoted past it, and any replica of
    /// a *prior* regime announces itself through a higher-epoch frame,
    /// which flips `is_deposed` and closes this gate.
    #[deprecated(
        since = "0.8.0",
        note = "route writes through `RtpbClient::write`; direct state-machine \
                writes bypass session tokens, metrics, and observability"
    )]
    pub fn apply_client_write(
        &mut self,
        id: ObjectId,
        payload: Vec<u8>,
        now: Time,
    ) -> Option<Version> {
        self.apply_write(id, &payload, now)
    }

    /// The write path shared by the deprecated public entry point and the
    /// in-crate drivers (`RtpbClient`, the sim harness). See
    /// [`Primary::apply_client_write`] for the full gate semantics.
    pub(crate) fn apply_write(
        &mut self,
        id: ObjectId,
        payload: &[u8],
        now: Time,
    ) -> Option<Version> {
        if self.is_deposed()
            || self.monitor.is_degraded()
            || (self.ever_had_backup && !self.lease.is_valid(now))
        {
            return None;
        }
        let before = self.store.get(id)?.tag();
        let next = before.1.next();
        // The store slot and the log record each copy the borrowed
        // payload into a buffer they already hold: no allocation in
        // steady state.
        let installed = self
            .store
            .apply_from_parts(id, next, now, payload, self.epoch);
        debug_assert!(installed, "next version is always newer");
        self.log.note_change(id, before);
        self.log.append(id, next, now, payload);
        self.writes_applied += 1;
        if self.log.snapshot_due() {
            let mark = self.log.take_snapshot();
            self.snapshot_marks.push(mark);
        }
        Some(next)
    }

    /// The head of this regime's update log as a [`LogPosition`] — what a
    /// client write advances and what a session token's read-your-writes
    /// floor is minted from.
    #[must_use]
    pub fn position(&self) -> LogPosition {
        LogPosition::new(self.epoch, self.log.head())
    }

    /// Serves a **strong** read at the primary: the authoritative copy,
    /// under the same split-brain gate as writes (a deposed primary, or a
    /// lapsed leaseholder that ever tracked a backup, must not serve —
    /// its successor may already have accepted newer writes).
    ///
    /// Returns `None` when the gate refuses service, the object is
    /// unknown, or no write has ever completed.
    #[must_use]
    pub fn serve_read(&self, object: ObjectId, now: Time) -> Option<PrimaryRead> {
        if self.is_deposed()
            || self.monitor.is_degraded()
            || (self.ever_had_backup && !self.lease.is_valid(now))
        {
            return None;
        }
        let entry = self.store.get(object)?;
        // Never vouch for an image whose stored checksum no longer
        // matches — a certificate over corrupt bytes would be
        // "confidently wrong" in exactly the way DESIGN.md §15 forbids.
        if !entry.verify() {
            return None;
        }
        let value = entry.value()?;
        Some(PrimaryRead {
            payload: value.payload().to_vec(),
            certificate: StalenessCertificate {
                object,
                write_epoch: entry.write_epoch(),
                version: value.version(),
                age_bound: TimeDelta::ZERO,
            },
            position: self.position(),
        })
    }

    /// Answers a wire-level [`WireMessage::ReadRequest`] addressed to the
    /// primary (the strong-read transport path).
    fn read_reply(&self, object: ObjectId, floor: Option<LogPosition>, now: Time) -> WireMessage {
        let position = self.position();
        // The primary *is* the log head of its own regime; the only floor
        // it cannot satisfy is one minted under a higher epoch — proof a
        // successor exists.
        if floor.is_some_and(|f| f > position) {
            return WireMessage::ReadReply {
                epoch: self.epoch,
                object,
                status: ReadStatus::Behind,
                write_epoch: Epoch::INITIAL,
                version: Version::INITIAL,
                age_bound: TimeDelta::ZERO,
                position: Some(position),
                payload: Vec::new(),
            };
        }
        match self.serve_read(object, now) {
            Some(read) => WireMessage::ReadReply {
                epoch: self.epoch,
                object,
                status: ReadStatus::Served,
                write_epoch: read.certificate.write_epoch,
                version: read.certificate.version,
                age_bound: read.certificate.age_bound,
                position: Some(read.position),
                payload: read.payload,
            },
            // Gate refused (`Unsound`: timing evidence disqualifies any
            // certificate; `Behind`: retry elsewhere or later) vs nothing
            // to serve (`Unknown`: unregistered or never written).
            None => WireMessage::ReadReply {
                epoch: self.epoch,
                object,
                status: if self.monitor.is_degraded() {
                    ReadStatus::Unsound
                } else if self.is_deposed() || (self.ever_had_backup && !self.lease.is_valid(now)) {
                    ReadStatus::Behind
                } else {
                    ReadStatus::Unknown
                },
                write_epoch: Epoch::INITIAL,
                version: Version::INITIAL,
                age_bound: TimeDelta::ZERO,
                position: Some(position),
                payload: Vec::new(),
            },
        }
    }

    /// Produces the update message for `id`'s current image — called by
    /// the driver when the object's send timer fires. Returns `None` if
    /// the object is unknown, has never been written, the backup is
    /// presumed dead (§4.4: update events are cancelled), or the
    /// leadership lease no longer covers `now` (a lapsed leaseholder must
    /// not originate updates — its successor may already be serving).
    pub fn make_update(&mut self, id: ObjectId, now: Time) -> Option<WireMessage> {
        let (header, payload) = self.update_of(id, now)?;
        Some(update_message(id, header, payload.to_vec()))
    }

    /// Writes over `slot` the update [`Primary::make_update`] produces for
    /// `id`, refilling the slot's payload buffer in place. Returns `false`,
    /// leaving the slot as it was, where `make_update` produces none.
    pub(crate) fn refill_update(
        &mut self,
        id: ObjectId,
        now: Time,
        slot: &mut WireMessage,
    ) -> bool {
        let Some((header, bytes)) = self.update_of(id, now) else {
            return false;
        };
        if let WireMessage::Update {
            epoch,
            object,
            version,
            timestamp,
            seq,
            payload,
        } = slot
        {
            (*epoch, *version, *timestamp, *seq) = header;
            *object = id;
            payload.clear();
            payload.extend_from_slice(bytes);
        } else {
            *slot = update_message(id, header, bytes.to_vec());
        }
        true
    }

    /// The `(epoch, version, timestamp, log seq)` and the payload of
    /// `id`'s update at `now`, counted as produced; `None` where
    /// [`Primary::make_update`] produces none.
    fn update_of(&mut self, id: ObjectId, now: Time) -> Option<(UpdateHeader, &[u8])> {
        if self.peers.is_empty()
            || self.is_deposed()
            || self.monitor.is_degraded()
            || !self.lease.is_valid(now)
        {
            return None;
        }
        let value = self.store.get(id)?.value()?;
        self.updates_produced += 1;
        let seq = self.log.latest_seq(id).unwrap_or(0);
        let header = (self.epoch, value.version(), value.timestamp(), seq);
        Some((header, value.payload()))
    }

    /// Coalesces the current images of `ids` into one [`WireMessage::Batch`]
    /// frame — the batched update pipeline's flush step. Objects that are
    /// unknown, never written, or suppressed (no live backup, lapsed
    /// lease) contribute nothing; returns `None` when no update survives,
    /// so no empty frame hits the wire.
    pub fn make_batch(&mut self, ids: &[ObjectId], now: Time) -> Option<WireMessage> {
        let messages: Vec<WireMessage> = ids
            .iter()
            .filter_map(|&id| self.make_update(id, now))
            .collect();
        if messages.is_empty() {
            None
        } else {
            Some(WireMessage::Batch {
                epoch: self.epoch,
                messages,
            })
        }
    }

    /// The send period admitted for `id`.
    #[must_use]
    pub fn send_period(&self, id: ObjectId) -> Option<TimeDelta> {
        self.schedule.period(id)
    }

    /// The full update schedule.
    #[must_use]
    pub fn schedule(&self) -> &UpdateSchedule {
        &self.schedule
    }

    /// Handles an inbound message from the network: encodes it and hands
    /// the parsed frame to [`Primary::handle_frame`], the path every
    /// driver receives on. Convenient for tests and callers that hold an
    /// owned [`WireMessage`].
    ///
    /// # Panics
    ///
    /// Panics if `msg` encodes to a frame the decoder rejects (larger than
    /// [`MAX_DECODE_LEN`](crate::wire::MAX_DECODE_LEN)).
    pub fn handle_message(&mut self, msg: &WireMessage, now: Time) -> PrimaryOutput {
        let bytes = msg.encode();
        let frame = WireFrame::parse(&bytes).expect("an encoded message parses");
        self.handle_frame(&frame, now)
    }

    /// Handles an inbound frame from the network, read from a borrowed
    /// decode view: nothing is copied out of the receive buffer except
    /// what a reply carries.
    ///
    /// Fencing runs before dispatch: a frame from a *higher* epoch marks
    /// this primary as deposed (the driver must call [`Primary::demote`]);
    /// a frame from a *lower* epoch is rejected outright — except
    /// [`WireFrame::JoinRequest`] and [`WireFrame::ResyncRequest`],
    /// which request state rather than assert authority, so an
    /// uninitialized recruit can still join.
    pub fn handle_frame(&mut self, frame: &WireFrame<'_>, now: Time) -> PrimaryOutput {
        let mut out = PrimaryOutput::default();
        self.monitor.observe_now(now);
        let frame_epoch = frame.epoch();
        if frame_epoch > self.epoch {
            // Superseded: a newer primary exists. Stop acting on inbound
            // traffic and let the driver run demotion + resync.
            if frame_epoch > self.observed_epoch {
                self.observed_epoch = frame_epoch;
            }
            self.lease.revoke();
            return out;
        }
        let requests_state = matches!(
            frame,
            WireFrame::JoinRequest { .. }
                | WireFrame::ResyncRequest { .. }
                | WireFrame::ReadRequest { .. }
        );
        if frame_epoch < self.epoch && !requests_state {
            self.stale_frames_rejected += 1;
            out.stale_rejected.push(frame_epoch);
            return out;
        }
        // Lease renewal deliberately does NOT happen here. Mere inbound
        // reachability is one-directional evidence: in an asymmetric
        // partition the backups' pings can keep arriving while every frame
        // we send is lost, and a backup that hears nothing from us will
        // declare us dead right on schedule. Only an acknowledged probe of
        // our own renews the lease (see the PingAck arm), anchored at the
        // probe's *send* time — an instant provably before the backup's
        // declaration timer could have started.
        match frame {
            WireFrame::Ping { seq, .. } => {
                out.replies.push(WireMessage::PingAck {
                    epoch: self.epoch,
                    from: self.node,
                    seq: *seq,
                });
            }
            WireFrame::PingAck { from, seq, .. } => {
                if let Some(detector) = self.peers.get_mut(from) {
                    // A matching ack proves this backup was still tracking
                    // us when our probe left: renew the lease from that
                    // send instant (guard-start-before-send). Late or
                    // unknown acks return `None` — liveness evidence at
                    // best, never renewal evidence.
                    if let Some(sent_at) = detector.on_ack(*seq, now) {
                        // The completed round trip is timing evidence:
                        // check it against the link-delay envelope, and
                        // refuse to anchor a renewal at a send instant
                        // the local clock claims is still in the future
                        // (the lease would outlive its monotone bound).
                        self.monitor.observe_round_trip(*from, sent_at, now);
                        if self.monitor.note_renewal(sent_at, now) && !self.monitor.is_degraded() {
                            self.lease.renew(sent_at);
                        }
                    }
                }
            }
            WireFrame::RetransmitRequest {
                object,
                have_version,
                ..
            } => {
                if let Some(entry) = self.store.get(*object) {
                    if let Some(value) = entry.value() {
                        if value.version() > *have_version {
                            self.updates_produced += 1;
                            out.replies.push(WireMessage::Update {
                                epoch: self.epoch,
                                object: *object,
                                version: value.version(),
                                timestamp: value.timestamp(),
                                seq: self.log.latest_seq(*object).unwrap_or(0),
                                payload: value.payload().to_vec(),
                            });
                        }
                    }
                }
            }
            WireFrame::JoinRequest { from, position, .. } => {
                // Integrate the new backup: arm a detector for it and
                // serve its gap by the cheapest path the log and retained
                // snapshots still cover (§4.4 + DESIGN.md §11).
                self.add_backup(*from, now);
                out.backup_joined = true;
                // Each rung re-verifies the checksums of what it would
                // ship; a corrupt record or snapshot withholds that rung
                // and the requester falls to the next one.
                let (path, reply) = match self.suffix_reply(*position) {
                    Some(r) => (CatchUpPath::LogSuffix, r),
                    None => match self.snapshot_diff_reply(*position) {
                        Some(r) => (CatchUpPath::SnapshotDiff, r),
                        None => (CatchUpPath::FullTransfer, self.snapshot()),
                    },
                };
                out.catch_up = Some(self.decide(*from, path, *position, &reply));
                out.replies.push(reply);
            }
            WireFrame::ResyncRequest {
                from,
                position,
                versions,
                ..
            } => {
                // Anti-entropy re-admission of a deposed replica: serve
                // the log suffix when the requester's position is from
                // this regime and still covered; otherwise fall back to
                // the tagged-version diff, which ships only the objects
                // where the requester is behind. Either way, treat it as
                // a freshly joined backup.
                self.add_backup(*from, now);
                out.backup_joined = true;
                let (path, reply) = match self.suffix_reply(*position) {
                    Some(r) => (CatchUpPath::LogSuffix, r),
                    None => (CatchUpPath::FullTransfer, self.diff_against(versions)),
                };
                out.catch_up = Some(self.decide(*from, path, *position, &reply));
                out.replies.push(reply);
            }
            WireFrame::UpdateAck { .. } => {
                // Only present under the ack ablation; the paper's design
                // deliberately has nothing to do here (§4.3).
                self.acks_received += 1;
            }
            WireFrame::Batch { frames, .. } => {
                // Symmetric handling: unpack and process each sub-frame.
                for f in frames {
                    let sub = self.handle_frame(&f, now);
                    out.replies.extend(sub.replies);
                    out.backup_joined |= sub.backup_joined;
                    out.stale_rejected.extend(sub.stale_rejected);
                    if sub.catch_up.is_some() {
                        out.catch_up = sub.catch_up;
                    }
                }
            }
            WireFrame::ReadRequest { object, floor, .. } => {
                // The strong-read transport path: reads request state, not
                // authority, so (like join/resync) a stale-epoch request
                // is still answered — the reply's epoch educates the
                // client.
                out.replies.push(self.read_reply(*object, *floor, now));
            }
            WireFrame::Update { .. }
            | WireFrame::StateTransfer { .. }
            | WireFrame::ResyncDiff { .. }
            | WireFrame::LogSuffix { .. }
            | WireFrame::ReadReply { .. } => {
                // Not addressed to a primary; ignore.
            }
        }
        self.fence_if_degraded();
        out
    }

    /// Safe degradation (DESIGN.md §14): while the temporal monitor is
    /// degraded the lease is kept revoked — fencing this primary early,
    /// before the violated envelope can stretch the lease past the
    /// exclusion window the sizing rule proved. Renewal resumes with the
    /// first acknowledged probe after recovery.
    fn fence_if_degraded(&mut self) {
        if self.monitor.is_degraded() {
            self.lease.revoke();
        }
    }

    /// Advances every backup failure detector. Returns the probes to
    /// send and the backups declared dead this round.
    ///
    /// §4.4: "If the backup is dead, the primary cancels the ping
    /// messages as well as update events" — dead peers are dropped, and
    /// once no peer remains [`Primary::make_update`] returns `None`.
    pub fn tick_heartbeat(&mut self, now: Time) -> HeartbeatRound {
        self.monitor.observe_now(now);
        self.monitor.maybe_recover(now);
        self.fence_if_degraded();
        self.tick_scrub(now);
        let mut round = HeartbeatRound::default();
        for (&peer, detector) in &mut self.peers {
            match detector.tick(now) {
                DetectorAction::SendPing(seq) => round.pings.push((
                    peer,
                    WireMessage::Ping {
                        epoch: self.epoch,
                        from: self.node,
                        seq,
                        scrub: self.scrub_digest,
                    },
                )),
                DetectorAction::DeclareDead => round.died.push(peer),
                DetectorAction::Idle => {}
            }
        }
        for &dead in &round.died {
            self.peers.remove(&dead);
        }
        round
    }

    /// Background scrubber (DESIGN.md §15): when a scrub is due, digest
    /// the next object range and piggyback the digest on every heartbeat
    /// until the next tick replaces it. Before digesting, audit the range
    /// is *worth* vouching for — quarantining any entry whose stored
    /// checksum fails, so the primary never advertises a digest over
    /// bytes it cannot itself verify.
    fn tick_scrub(&mut self, now: Time) {
        let interval = self.config.scrub_interval;
        if interval.is_zero() {
            return;
        }
        if now < self.next_scrub_at {
            return;
        }
        for (id, before) in self.store.audit() {
            // Quarantine resets the tag, so the snapshot chain notes it
            // like a write.
            self.log.note_change(id, before);
            self.integrity_events.push(IntegrityEvent::Violation {
                source: IntegritySource::StoreEntry,
                object: Some(id),
                seq: None,
            });
        }
        let ranges = self.config.scrub_ranges.max(1);
        let range = self.scrub_cursor % ranges;
        self.scrub_digest = Some(ScrubDigest {
            range,
            ranges,
            head: self.log.head(),
            digest: self.store.range_digest(range, ranges),
        });
        self.scrub_cursor = (range + 1) % ranges;
        self.next_scrub_at = now + interval;
    }

    /// A reconnection probe for a primary that has lost contact with its
    /// peers (all declared dead, or a lapsed lease). The probe is an
    /// ordinary [`WireMessage::Ping`] carrying this primary's fencing
    /// epoch: if a successor regime exists on the other side of a healed
    /// partition, the probed replica fences the stale ping and answers
    /// with its own, higher epoch — which is how a deposed primary
    /// discovers it has been superseded (see [`Primary::is_deposed`]).
    ///
    /// Probe sequence numbers are drawn from a dedicated counter starting
    /// at [`PROBE_SEQ_BASE`] (top bit set), a range the per-peer failure
    /// detectors never emit: a probe's ack can therefore never match — or
    /// spuriously reset — a detector mid-declaration, and (being an
    /// unknown sequence to `on_ack`) never renews the lease either.
    pub fn probe_ping(&mut self) -> WireMessage {
        self.probe_seq += 1;
        WireMessage::Ping {
            epoch: self.epoch,
            from: self.node,
            seq: self.probe_seq,
            scrub: None,
        }
    }

    /// The full object state for integrating a new backup.
    #[must_use]
    pub fn snapshot(&self) -> WireMessage {
        let entries = self
            .store
            .iter()
            .filter_map(|(id, entry)| {
                entry.value().map(|v| StateEntry {
                    object: id,
                    version: v.version(),
                    timestamp: v.timestamp(),
                    payload: v.payload().to_vec(),
                })
            })
            .collect();
        WireMessage::StateTransfer {
            epoch: self.epoch,
            head: self.log.head(),
            entries,
        }
    }

    /// The update-log suffix covering a requester at `position`, if this
    /// regime's log still covers the gap. `None` sends the caller down a
    /// heavier path: position absent, minted under another epoch, or
    /// older than the ring's retention.
    /// Every record in the suffix is re-verified against its append-time
    /// checksum before it ships; one bad record withholds the whole
    /// suffix (pushing an [`IntegrityEvent`]) and sends the requester
    /// down the ladder to a snapshot diff or full transfer, which are
    /// built from the store rather than the corrupt log.
    fn suffix_reply(&mut self, position: Option<LogPosition>) -> Option<WireMessage> {
        let p = position?;
        if p.epoch() != self.log.epoch() {
            return None;
        }
        let mut corrupt = Vec::new();
        let mut entries = Vec::new();
        for r in self.log.suffix_after(p.seq())? {
            if r.verify() {
                entries.push(StateEntry {
                    object: r.object,
                    version: r.version,
                    timestamp: r.timestamp,
                    payload: r.payload.clone(),
                });
            } else {
                corrupt.push((r.object, r.seq));
            }
        }
        if !corrupt.is_empty() {
            for (object, seq) in corrupt {
                self.integrity_events.push(IntegrityEvent::Violation {
                    source: IntegritySource::LogRecord,
                    object: Some(object),
                    seq: Some(seq),
                });
            }
            return None;
        }
        Some(WireMessage::LogSuffix {
            epoch: self.epoch,
            head: self.log.head(),
            entries,
        })
    }

    /// A partial state transfer against the newest retained snapshot at
    /// or before the requester's position: only objects whose
    /// `(write_epoch, version)` tag moved past the one they had at that
    /// snapshot ship, in id order. The snapshot delta chain names every
    /// object whose tag changed since the mark, so the diff costs
    /// O(changes), not O(store). The requester may already hold some of
    /// them (its position can be ahead of the snapshot); replay through
    /// the store's ordering makes the overshoot idempotent.
    ///
    /// Every delta the diff reads is re-verified first; a corrupt one is
    /// withheld (pushing an [`IntegrityEvent`]) and the requester falls to
    /// the full-transfer rung.
    fn snapshot_diff_reply(&mut self, position: Option<LogPosition>) -> Option<WireMessage> {
        let p = position?;
        if p.epoch() != self.log.epoch() {
            return None;
        }
        let base = self.log.snapshot_at_or_before(p.seq())?.seq();
        let changed = match self.log.changed_since(base) {
            Ok(changed) => changed,
            Err(seq) => {
                self.integrity_events.push(IntegrityEvent::Violation {
                    source: IntegritySource::LogSnapshot,
                    object: None,
                    seq: Some(seq),
                });
                return None;
            }
        };
        let entries = changed
            .into_iter()
            .filter_map(|(id, had)| {
                let entry = self.store.get(id)?;
                let value = entry.value()?;
                (entry.tag() > had).then(|| StateEntry {
                    object: id,
                    version: value.version(),
                    timestamp: value.timestamp(),
                    payload: value.payload().to_vec(),
                })
            })
            .collect();
        Some(WireMessage::StateTransfer {
            epoch: self.epoch,
            head: self.log.head(),
            entries,
        })
    }

    /// Packages one re-integration decision for observability.
    fn decide(
        &self,
        node: NodeId,
        path: CatchUpPath,
        position: Option<LogPosition>,
        reply: &WireMessage,
    ) -> CatchUpDecision {
        let gap = position
            .filter(|p| p.epoch() == self.log.epoch())
            .map_or(self.log.head(), |p| self.log.head().saturating_sub(p.seq()));
        let records = match reply {
            WireMessage::LogSuffix { entries, .. }
            | WireMessage::StateTransfer { entries, .. }
            | WireMessage::ResyncDiff { entries, .. } => entries.len() as u64,
            _ => 0,
        };
        CatchUpDecision {
            node,
            path,
            gap,
            records,
            bytes: reply.encoded_len() as u64,
        }
    }

    /// The anti-entropy diff against a requester's tagged version vector:
    /// every object whose authoritative `(write_epoch, version)` tag is
    /// lexicographically above what the requester reported (objects it
    /// never reported count as the never-written tag). Comparing tags
    /// rather than bare versions is what heals split-brain divergence: a
    /// deposed primary may have run an object's counter *past* ours under
    /// its old epoch, yet our image — adopted under the newer epoch at
    /// promotion — still ships and overwrites it.
    #[must_use]
    pub fn resync_diff(&self, versions: &[(ObjectId, Epoch, Version)]) -> WireMessage {
        self.diff_against(versions.iter().copied())
    }

    /// [`Primary::resync_diff`] against the tags `versions` yields.
    fn diff_against(
        &self,
        versions: impl IntoIterator<Item = (ObjectId, Epoch, Version)>,
    ) -> WireMessage {
        let reported: BTreeMap<ObjectId, (Epoch, Version)> = versions
            .into_iter()
            .map(|(id, epoch, version)| (id, (epoch, version)))
            .collect();
        let entries = self
            .store
            .iter()
            .filter_map(|(id, entry)| {
                let value = entry.value()?;
                let have = reported
                    .get(&id)
                    .copied()
                    .unwrap_or((Epoch::INITIAL, Version::INITIAL));
                ((entry.write_epoch(), value.version()) > have).then(|| StateEntry {
                    object: id,
                    version: value.version(),
                    timestamp: value.timestamp(),
                    payload: value.payload().to_vec(),
                })
            })
            .collect();
        WireMessage::ResyncDiff {
            epoch: self.epoch,
            head: self.log.head(),
            entries,
        }
    }

    /// The update log of this regime's client writes.
    #[must_use]
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// Fault-injection hook: flips `mask` into a retained log record's
    /// payload (see [`UpdateLog::corrupt_record`]). Returns whether the
    /// record was retained. Test/chaos harness use only.
    pub fn corrupt_log_record(&mut self, seq: u64, byte: usize, mask: u8) -> bool {
        self.log.corrupt_record(seq, byte, mask)
    }

    /// Fault-injection hook: flips `mask` into a stored object image
    /// (see [`ObjectStore::corrupt_payload`]). Returns whether the
    /// object held a value to corrupt. Test/chaos harness use only.
    pub fn corrupt_stored_payload(&mut self, id: ObjectId, byte: usize, mask: u8) -> bool {
        self.store.corrupt_payload(id, byte, mask)
    }

    /// Drains the `(log_seq, records_retained)` marks of store snapshots
    /// taken since the last drain — drivers turn these into
    /// `store_snapshot` trace events.
    pub fn take_snapshot_marks(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.snapshot_marks)
    }

    /// Steps down after observing a higher epoch (see
    /// [`Primary::is_deposed`]): consumes the primary and produces a
    /// [`Backup`] that has adopted the successor's epoch and is ready to
    /// run anti-entropy resync via [`Backup::begin_resync`].
    ///
    /// The driver owns the choreography — it should call this once
    /// `is_deposed()` turns true, then route the resync request to the
    /// new primary through the bounded-retry re-join path.
    #[must_use]
    pub fn demote(self, now: Time) -> Backup {
        let send_periods = self
            .store
            .iter()
            .filter_map(|(id, _)| self.schedule.period(id).map(|p| (id, p)))
            .collect();
        Backup::from_store(
            self.node,
            self.config,
            self.store,
            send_periods,
            self.observed_epoch,
            // The deposed log's head is this node's position — minted
            // under the *old* epoch, so the successor will fall back to a
            // full-fidelity path rather than trust it.
            Some(LogPosition::new(self.epoch, self.log.head())),
            now,
        )
    }

    /// `(id, spec, send period)` for every registered object — what a new
    /// backup needs to arm its watchdogs (shipped out-of-band by drivers
    /// alongside the snapshot).
    #[must_use]
    pub fn registry(&self) -> Vec<(ObjectId, ObjectSpec, TimeDelta)> {
        self.store
            .iter()
            .filter_map(|(id, e)| self.schedule.period(id).map(|p| (id, e.spec().clone(), p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn t(v: u64) -> Time {
        Time::from_millis(v)
    }

    fn spec() -> ObjectSpec {
        ObjectSpec::builder("o")
            .update_period(ms(100))
            .primary_bound(ms(150))
            .backup_bound(ms(550))
            .build()
            .unwrap()
    }

    fn primary() -> Primary {
        let mut p = Primary::new(NodeId::new(0), ProtocolConfig::default());
        p.add_backup(NodeId::new(1), Time::ZERO);
        p
    }

    #[test]
    fn register_then_write_then_update() {
        let mut p = primary();
        let id = p.register(spec(), Time::ZERO).unwrap();
        assert!(p.make_update(id, t(1)).is_none(), "no write yet");
        let v = p.apply_write(id, &[7], t(5)).unwrap();
        assert_eq!(v, Version::new(1));
        match p.make_update(id, t(6)) {
            Some(WireMessage::Update {
                epoch,
                object,
                version,
                timestamp,
                seq,
                payload,
            }) => {
                assert_eq!(epoch, Epoch::INITIAL);
                assert_eq!(object, id);
                assert_eq!(version, Version::new(1));
                assert_eq!(timestamp, t(5));
                assert_eq!(seq, 1, "first logged write");
                assert_eq!(payload, vec![7]);
            }
            other => panic!("expected update, got {other:?}"),
        }
        assert_eq!(p.writes_applied(), 1);
        assert_eq!(p.updates_produced(), 1);
    }

    #[test]
    fn admission_rejection_leaves_no_trace() {
        let mut p = primary();
        let bad = ObjectSpec::builder("bad")
            .update_period(ms(200))
            .primary_bound(ms(150))
            .backup_bound(ms(550))
            .build()
            .unwrap();
        assert!(p.register(bad, Time::ZERO).is_err());
        assert!(p.store().is_empty());
        assert!(p.schedule().is_empty());
    }

    #[test]
    fn writes_to_unknown_objects_are_rejected() {
        let mut p = primary();
        assert!(p.apply_write(ObjectId::new(9), &[], t(1)).is_none());
    }

    #[test]
    fn shedding_picks_the_lowest_criticality_first() {
        let mut p = primary();
        let crit = |name: &str, c: u32| {
            ObjectSpec::builder(name)
                .update_period(ms(100))
                .primary_bound(ms(150))
                .backup_bound(ms(550))
                .criticality(c)
                .build()
                .unwrap()
        };
        let high = p.register(crit("high", 9), Time::ZERO).unwrap();
        let low = p.register(crit("low", 1), Time::ZERO).unwrap();
        let mid = p.register(crit("mid", 5), Time::ZERO).unwrap();
        assert_eq!(p.shed_lowest_criticality(), Some(low));
        assert!(p.store().get(low).is_none());
        assert_eq!(p.shed_lowest_criticality(), Some(mid));
        assert_eq!(p.shed_lowest_criticality(), Some(high));
        assert_eq!(p.shed_lowest_criticality(), None);
    }

    #[test]
    fn retransmit_request_resends_only_if_newer() {
        let mut p = primary();
        let id = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(id, &[1], t(5));
        // Backup already has version 1: nothing to resend.
        let out = p.handle_message(
            &WireMessage::RetransmitRequest {
                epoch: Epoch::INITIAL,
                object: id,
                have_version: Version::new(1),
            },
            t(10),
        );
        assert!(out.replies.is_empty());
        // Backup is behind: resend.
        let out = p.handle_message(
            &WireMessage::RetransmitRequest {
                epoch: Epoch::INITIAL,
                object: id,
                have_version: Version::INITIAL,
            },
            t(10),
        );
        assert_eq!(out.replies.len(), 1);
        assert!(matches!(out.replies[0], WireMessage::Update { .. }));
    }

    #[test]
    fn ping_is_acked() {
        let mut p = primary();
        let out = p.handle_message(
            &WireMessage::Ping {
                epoch: Epoch::INITIAL,
                from: NodeId::new(1),
                seq: 4,
                scrub: None,
            },
            t(1),
        );
        assert_eq!(
            out.replies,
            vec![WireMessage::PingAck {
                epoch: Epoch::INITIAL,
                from: NodeId::new(0),
                seq: 4
            }]
        );
    }

    #[test]
    fn backup_death_cancels_updates() {
        let mut p = primary();
        p.add_backup(NodeId::new(1), Time::ZERO);
        let id = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(id, &[1], t(1));
        // Drive heartbeats with no acks until declaration.
        let mut now = Time::ZERO;
        let mut declared = false;
        for _ in 0..50 {
            let round = p.tick_heartbeat(now);
            if !round.died.is_empty() {
                assert_eq!(round.died, vec![NodeId::new(1)]);
                declared = true;
                break;
            }
            now += ms(50);
        }
        assert!(declared);
        assert!(!p.is_backup_alive());
        assert!(p.make_update(id, now).is_none(), "updates cancelled");
        // And no further pings are sent.
        let round = p.tick_heartbeat(now + ms(100));
        assert!(round.pings.is_empty() && round.died.is_empty());
    }

    #[test]
    fn heartbeat_acks_keep_backup_alive() {
        let mut p = primary();
        p.add_backup(NodeId::new(1), Time::ZERO);
        let mut now = Time::ZERO;
        for _ in 0..20 {
            let round = p.tick_heartbeat(now);
            assert!(round.died.is_empty());
            for (dest, ping) in round.pings {
                assert_eq!(dest, NodeId::new(1));
                if let WireMessage::Ping { seq, .. } = ping {
                    p.handle_message(
                        &WireMessage::PingAck {
                            epoch: Epoch::INITIAL,
                            from: NodeId::new(1),
                            seq,
                        },
                        now + ms(2),
                    );
                }
            }
            now += ms(50);
        }
        assert!(p.is_backup_alive());
    }

    #[test]
    fn independent_detectors_per_backup() {
        let mut p = primary();
        p.add_backup(NodeId::new(1), Time::ZERO);
        p.add_backup(NodeId::new(2), Time::ZERO);
        assert_eq!(p.backups(), vec![NodeId::new(1), NodeId::new(2)]);
        // Only node#2 ever acks.
        let mut now = Time::ZERO;
        let mut node1_died = false;
        for _ in 0..50 {
            let round = p.tick_heartbeat(now);
            for (dest, ping) in round.pings {
                if dest == NodeId::new(2) {
                    if let WireMessage::Ping { seq, .. } = ping {
                        p.handle_message(
                            &WireMessage::PingAck {
                                epoch: Epoch::INITIAL,
                                from: NodeId::new(2),
                                seq,
                            },
                            now + ms(1),
                        );
                    }
                }
            }
            if round.died.contains(&NodeId::new(1)) {
                node1_died = true;
                break;
            }
            now += ms(50);
        }
        assert!(node1_died, "the silent backup must be declared dead");
        // The responsive backup survives and updates keep flowing.
        assert_eq!(p.backups(), vec![NodeId::new(2)]);
        assert!(p.is_backup_alive());
    }

    #[test]
    fn join_request_reintegrates_backup() {
        let mut p = primary();
        p.add_backup(NodeId::new(1), Time::ZERO);
        let id = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(id, &[9], t(5));
        // Kill the backup.
        let mut now = Time::ZERO;
        loop {
            let round = p.tick_heartbeat(now);
            if !round.died.is_empty() {
                break;
            }
            now += ms(50);
        }
        // A new backup joins, cold (no position): full transfer.
        let out = p.handle_message(
            &WireMessage::JoinRequest {
                epoch: Epoch::INITIAL,
                from: NodeId::new(2),
                position: None,
            },
            now,
        );
        assert!(out.backup_joined);
        assert!(p.is_backup_alive());
        match &out.replies[0] {
            WireMessage::StateTransfer { entries, .. } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].version, Version::new(1));
            }
            other => panic!("expected state transfer, got {other:?}"),
        }
        let plan = out.catch_up.expect("join produces a plan");
        assert_eq!(plan.path, CatchUpPath::FullTransfer);
        assert_eq!(plan.node, NodeId::new(2));
        // Updates flow again.
        assert!(p.make_update(id, now).is_some());
    }

    #[test]
    fn make_batch_coalesces_written_objects() {
        let mut p = primary();
        let a = p.register(spec(), Time::ZERO).unwrap();
        let b = p.register(spec(), Time::ZERO).unwrap();
        let c = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(a, &[1], t(5));
        p.apply_write(c, &[3], t(6));
        // b was never written: it contributes nothing.
        match p.make_batch(&[a, b, c], t(7)) {
            Some(WireMessage::Batch { messages, .. }) => {
                assert_eq!(messages.len(), 2);
                assert!(messages
                    .iter()
                    .all(|m| matches!(m, WireMessage::Update { .. })));
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(p.updates_produced(), 2);
        // Nothing due → no frame at all.
        assert!(p.make_batch(&[b], t(8)).is_none());
    }

    #[test]
    fn deregister_drops_constraints() {
        let mut p = primary();
        let a = p.register(spec(), Time::ZERO).unwrap();
        let b = p
            .register(spec().with_constraints(&[(a, ms(300))]), Time::ZERO)
            .unwrap();
        assert_eq!(p.constraints().len(), 1);
        // δ_ab = 300 ms tightens a from 195 ms to (300 - 10)/2 = 145 ms.
        assert_eq!(p.send_period(a), Some(ms(145)));
        assert!(p.deregister(b));
        assert!(p.constraints().is_empty());
        assert!(!p.deregister(b));
        // A deregistered object's send timer finds no period and stops.
        assert_eq!(p.send_period(b), None);
        // Its partner keeps the tightened period until the next successful
        // admission; a rejected one changes nothing.
        assert_eq!(p.send_period(a), Some(ms(145)));
        let bad = ObjectSpec::builder("bad")
            .update_period(ms(200))
            .primary_bound(ms(150))
            .backup_bound(ms(550))
            .build()
            .unwrap();
        assert!(p.register(bad, Time::ZERO).is_err());
        assert_eq!(p.send_period(a), Some(ms(145)));
        let c = p.register(spec(), Time::ZERO).unwrap();
        assert_eq!(p.send_period(a), Some(ms(195)));
        assert_eq!(p.send_period(c), Some(ms(195)));
    }

    #[test]
    fn registry_lists_specs_and_periods() {
        let mut p = primary();
        let id = p.register(spec(), Time::ZERO).unwrap();
        let reg = p.registry();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].0, id);
        assert_eq!(reg[0].2, ms(195));
    }

    #[test]
    fn snapshot_skips_never_written_objects() {
        let mut p = primary();
        let _a = p.register(spec(), Time::ZERO).unwrap();
        let b = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(b, &[1], t(1));
        match p.snapshot() {
            WireMessage::StateTransfer { entries, .. } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].object, b);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lapsed_lease_suppresses_updates_until_renewed() {
        let mut p = primary();
        let id = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(id, &[1], t(5));
        // Within the lease granted by add_backup at t=0 (250 ms default).
        assert!(p.make_update(id, t(100)).is_some());
        // Past the lease, with no acks in between: suppressed.
        assert!(p.make_update(id, t(300)).is_none());
        assert!(!p.lease_valid(t(300)));
        // An acknowledged probe of our own renews the lease — from the
        // probe's send time — and production resumes.
        let round = p.tick_heartbeat(t(310));
        let Some(&(_, WireMessage::Ping { seq, .. })) = round.pings.first() else {
            panic!("expected a probe, got {round:?}");
        };
        p.handle_message(
            &WireMessage::PingAck {
                epoch: Epoch::INITIAL,
                from: NodeId::new(1),
                seq,
            },
            t(320),
        );
        assert_eq!(p.lease().expires_at(), Some(t(310) + ms(250)));
        assert!(p.lease_valid(t(400)));
        assert!(p.make_update(id, t(400)).is_some());
    }

    #[test]
    fn bare_inbound_frames_do_not_renew_the_lease() {
        // Asymmetric partition: the backup's pings keep arriving while
        // everything we send is lost. Mere inbound reachability must not
        // keep the lease alive — the backup will declare us dead on
        // schedule and promote.
        let mut p = primary();
        let id = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(id, &[1], t(5));
        for k in 0..10u64 {
            p.handle_message(
                &WireMessage::Ping {
                    epoch: Epoch::INITIAL,
                    from: NodeId::new(1),
                    seq: k,
                    scrub: None,
                },
                t(50 + k * 50),
            );
        }
        // The add_backup grant (t=0 + 250 ms) lapsed despite the pings.
        assert!(!p.lease_valid(t(300)));
        assert!(p.make_update(id, t(300)).is_none());
    }

    #[test]
    fn deposed_or_unleased_primary_rejects_client_writes() {
        // Solo: a primary that has never tracked a backup serves without
        // a lease (§4.4: the new primary serves while it waits to recruit
        // a replica) — no replica of its regime exists to supersede it.
        let mut lone = Primary::new(NodeId::new(0), ProtocolConfig::default());
        let id = lone.register(spec(), Time::ZERO).unwrap();
        assert!(lone.apply_write(id, &[1], t(400)).is_some());
        // The moment a backup joins, the lease gates writes for good.
        lone.add_backup(NodeId::new(1), t(400));
        assert!(lone.apply_write(id, &[2], t(500)).is_some());
        assert!(lone.apply_write(id, &[3], t(700)).is_none());
        assert_eq!(lone.writes_applied(), 2);

        // Lapsed: writes stop once the lease runs out.
        let mut p = primary();
        let id = p.register(spec(), Time::ZERO).unwrap();
        assert!(p.apply_write(id, &[1], t(5)).is_some());
        assert!(p.apply_write(id, &[2], t(260)).is_none());

        // Deposed: even within the lease window, a primary that has seen
        // a higher epoch refuses writes immediately.
        let mut p = primary();
        let id = p.register(spec(), Time::ZERO).unwrap();
        p.handle_message(
            &WireMessage::Ping {
                epoch: Epoch::new(1),
                from: NodeId::new(1),
                seq: 0,
                scrub: None,
            },
            t(10),
        );
        assert!(p.is_deposed());
        assert!(p.apply_write(id, &[3], t(11)).is_none());
        assert_eq!(p.store().get(id).unwrap().version(), Version::INITIAL);
    }

    #[test]
    fn probe_acks_never_touch_detectors_or_lease() {
        let mut p = primary();
        p.add_backup(NodeId::new(1), Time::ZERO);
        // Run the backup's detector one miss deep.
        let round = p.tick_heartbeat(Time::ZERO);
        assert!(!round.pings.is_empty());
        let _ = p.tick_heartbeat(t(100)); // timeout: miss 1, re-probe
                                          // A reconnection probe goes out and its ack comes back. Its seq
                                          // lives in the disjoint PROBE_SEQ_BASE range, so it neither
                                          // resets the mid-declaration detector nor renews the lease.
        let WireMessage::Ping { seq, .. } = p.probe_ping() else {
            panic!()
        };
        assert!(seq > PROBE_SEQ_BASE);
        let expiry_before = p.lease().expires_at();
        p.handle_message(
            &WireMessage::PingAck {
                epoch: Epoch::INITIAL,
                from: NodeId::new(1),
                seq,
            },
            t(110),
        );
        assert_eq!(p.lease().expires_at(), expiry_before);
        // The detector still counts its miss and declares on schedule.
        let mut declared = false;
        let mut now = t(200);
        for _ in 0..10 {
            if !p.tick_heartbeat(now).died.is_empty() {
                declared = true;
                break;
            }
            now += ms(100);
        }
        assert!(declared, "probe ack must not reset a failing detector");
    }

    #[test]
    fn higher_epoch_frame_deposes_the_primary() {
        let mut p = primary();
        let id = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(id, &[1], t(5));
        assert!(!p.is_deposed());
        let out = p.handle_message(
            &WireMessage::Ping {
                epoch: Epoch::new(1),
                from: NodeId::new(1),
                seq: 0,
                scrub: None,
            },
            t(10),
        );
        // The frame itself gets no reply; the primary is now deposed and
        // its lease is revoked.
        assert!(out.replies.is_empty());
        assert!(p.is_deposed());
        assert_eq!(p.observed_epoch(), Epoch::new(1));
        assert!(p.make_update(id, t(11)).is_none());
    }

    #[test]
    fn stale_epoch_frames_are_fenced() {
        // Build a primary at epoch 3: a backup that observed epoch 2
        // promotes, minting epoch 3.
        let mut b = crate::backup::Backup::new(NodeId::new(3), ProtocolConfig::default());
        b.handle_message(
            &WireMessage::Ping {
                epoch: Epoch::new(2),
                from: NodeId::new(0),
                seq: 0,
                scrub: None,
            },
            t(1),
        );
        let mut p2 = b.promote(t(2));
        assert_eq!(p2.epoch(), Epoch::new(3));
        let out = p2.handle_message(
            &WireMessage::PingAck {
                epoch: Epoch::new(1),
                from: NodeId::new(1),
                seq: 0,
            },
            t(3),
        );
        assert!(out.replies.is_empty());
        assert_eq!(out.stale_rejected, vec![Epoch::new(1)]);
        assert_eq!(p2.stale_frames_rejected(), 1);
        // But a join request from an uninitialized recruit still works.
        let out = p2.handle_message(
            &WireMessage::JoinRequest {
                epoch: Epoch::INITIAL,
                from: NodeId::new(4),
                position: None,
            },
            t(4),
        );
        assert!(out.backup_joined);
    }

    #[test]
    fn resync_diff_ships_only_newer_objects() {
        let mut p = primary();
        let a = p.register(spec(), Time::ZERO).unwrap();
        let b = p.register(spec(), Time::ZERO).unwrap();
        let c = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(a, &[1], t(1));
        p.apply_write(a, &[2], t(2));
        p.apply_write(b, &[3], t(3));
        p.apply_write(c, &[4], t(4));
        // Requester is current on a, behind on b, and never saw c.
        let out = p.handle_message(
            &WireMessage::ResyncRequest {
                epoch: Epoch::INITIAL,
                from: NodeId::new(5),
                position: None,
                versions: vec![
                    (a, Epoch::INITIAL, Version::new(2)),
                    (b, Epoch::INITIAL, Version::INITIAL),
                ],
            },
            t(10),
        );
        assert!(out.backup_joined);
        match &out.replies[0] {
            WireMessage::ResyncDiff { entries, .. } => {
                let objs: Vec<ObjectId> = entries.iter().map(|e| e.object).collect();
                assert_eq!(objs, vec![b, c]);
            }
            other => panic!("expected resync diff, got {other:?}"),
        }
    }

    #[test]
    fn resync_diff_overrides_divergent_higher_versions_from_older_epochs() {
        // A promoted primary (epoch 1) whose adopted image sits at
        // version 3, facing a deposed requester that ran the same
        // object's counter up to version 9 under epoch 0. The bare
        // counter says the requester is ahead; the epoch tag says its
        // whole regime is history — the diff must ship the object.
        let mut b = crate::backup::Backup::new(NodeId::new(1), ProtocolConfig::default());
        b.sync_registration(ObjectId::new(0), spec(), ms(195), Time::ZERO);
        b.handle_message(
            &WireMessage::Update {
                epoch: Epoch::INITIAL,
                object: ObjectId::new(0),
                version: Version::new(3),
                timestamp: t(1),
                seq: 3,
                payload: vec![3],
            },
            t(2),
        );
        let p = b.promote(t(3));
        assert_eq!(p.epoch(), Epoch::new(1));
        match p.resync_diff(&[(ObjectId::new(0), Epoch::INITIAL, Version::new(9))]) {
            WireMessage::ResyncDiff { entries, epoch, .. } => {
                assert_eq!(epoch, Epoch::new(1));
                assert_eq!(entries.len(), 1, "divergent object must ship");
                assert_eq!(entries[0].version, Version::new(3));
            }
            other => panic!("expected resync diff, got {other:?}"),
        }
    }

    #[test]
    fn demote_yields_a_backup_at_the_observed_epoch() {
        let mut p = primary();
        let id = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(id, &[9], t(5));
        p.handle_message(
            &WireMessage::Update {
                epoch: Epoch::new(2),
                object: id,
                version: Version::new(7),
                timestamp: t(6),
                seq: 7,
                payload: vec![7],
            },
            t(7),
        );
        assert!(p.is_deposed());
        let b = p.demote(t(8));
        assert_eq!(b.epoch(), Epoch::new(2));
        // Demotion preserves the (possibly stale) local state; resync
        // reconciles it against the new primary.
        assert_eq!(b.store().get(id).unwrap().version(), Version::new(1));
    }

    #[test]
    fn rejoin_with_covered_position_gets_a_log_suffix() {
        let mut p = primary();
        let a = p.register(spec(), Time::ZERO).unwrap();
        let b = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(a, &[1], t(1));
        p.apply_write(b, &[2], t(2));
        p.apply_write(a, &[3], t(3));
        // The backup applied through seq 1, then missed 2 and 3.
        let out = p.handle_message(
            &WireMessage::JoinRequest {
                epoch: Epoch::INITIAL,
                from: NodeId::new(1),
                position: Some(LogPosition::new(Epoch::INITIAL, 1)),
            },
            t(10),
        );
        let plan = out.catch_up.expect("plan");
        assert_eq!(plan.path, CatchUpPath::LogSuffix);
        assert_eq!(plan.gap, 2);
        assert_eq!(plan.records, 2);
        match &out.replies[0] {
            WireMessage::LogSuffix { head, entries, .. } => {
                assert_eq!(*head, 3);
                let objs: Vec<ObjectId> = entries.iter().map(|e| e.object).collect();
                assert_eq!(objs, vec![b, a], "oldest first");
            }
            other => panic!("expected log suffix, got {other:?}"),
        }
        // A backup already at the head gets an empty suffix, not a
        // world-ship.
        let out = p.handle_message(
            &WireMessage::JoinRequest {
                epoch: Epoch::INITIAL,
                from: NodeId::new(1),
                position: Some(LogPosition::new(Epoch::INITIAL, 3)),
            },
            t(11),
        );
        match &out.replies[0] {
            WireMessage::LogSuffix { entries, .. } => assert!(entries.is_empty()),
            other => panic!("expected log suffix, got {other:?}"),
        }
    }

    #[test]
    fn pre_retention_gap_falls_back_to_snapshot_diff_then_full() {
        let config = ProtocolConfig {
            log_retention: 4,
            snapshot_interval: 6,
            snapshots_retained: 2,
            ..ProtocolConfig::default()
        };
        let mut p = Primary::new(NodeId::new(0), config);
        p.add_backup(NodeId::new(1), Time::ZERO);
        let a = p.register(spec(), Time::ZERO).unwrap();
        let b = p.register(spec(), Time::ZERO).unwrap();
        for i in 0..6u64 {
            p.apply_write(a, &[i as u8], t(i + 1));
        }
        // 6 writes → snapshot at seq 6; ring trimmed behind it.
        assert_eq!(p.take_snapshot_marks().len(), 1);
        for i in 0..4u64 {
            p.apply_write(b, &[i as u8], t(i + 10));
        }
        // Position 6 sits exactly at the snapshot: ring covers 7..=10, so
        // this is still a suffix.
        let out = p.handle_message(
            &WireMessage::JoinRequest {
                epoch: Epoch::INITIAL,
                from: NodeId::new(1),
                position: Some(LogPosition::new(Epoch::INITIAL, 6)),
            },
            t(20),
        );
        assert_eq!(out.catch_up.unwrap().path, CatchUpPath::LogSuffix);
        // Position 2 predates the ring but not the snapshot... no — the
        // snapshot is at 6 > 2, so nothing covers it: full transfer.
        let out = p.handle_message(
            &WireMessage::JoinRequest {
                epoch: Epoch::INITIAL,
                from: NodeId::new(1),
                position: Some(LogPosition::new(Epoch::INITIAL, 2)),
            },
            t(21),
        );
        assert_eq!(out.catch_up.unwrap().path, CatchUpPath::FullTransfer);
        // Push the ring past the snapshot so a position between the
        // snapshot (6) and the ring's floor takes the snapshot-diff path,
        // shipping only objects written since seq 6 — b, not a.
        for i in 0..6u64 {
            p.apply_write(b, &[i as u8], t(i + 30));
        }
        let _ = p.take_snapshot_marks();
        let out = p.handle_message(
            &WireMessage::JoinRequest {
                epoch: Epoch::INITIAL,
                from: NodeId::new(1),
                position: Some(LogPosition::new(Epoch::INITIAL, 7)),
            },
            t(40),
        );
        let plan = out.catch_up.unwrap();
        assert_eq!(plan.path, CatchUpPath::SnapshotDiff);
        match &out.replies[0] {
            WireMessage::StateTransfer { entries, .. } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].object, b);
            }
            other => panic!("expected partial transfer, got {other:?}"),
        }
    }

    #[test]
    fn position_from_another_epoch_never_uses_the_log() {
        let mut p = primary();
        let id = p.register(spec(), Time::ZERO).unwrap();
        p.apply_write(id, &[1], t(1));
        let out = p.handle_message(
            &WireMessage::JoinRequest {
                epoch: Epoch::INITIAL,
                from: NodeId::new(2),
                position: Some(LogPosition::new(Epoch::new(9), 1)),
            },
            t(5),
        );
        let plan = out.catch_up.unwrap();
        assert_eq!(plan.path, CatchUpPath::FullTransfer);
        assert_eq!(plan.gap, 1, "cross-epoch gap spans the whole head");
        assert!(matches!(out.replies[0], WireMessage::StateTransfer { .. }));
    }

    /// The `(id, write_epoch, version, timestamp, payload)` tuple of every
    /// object — everything replication is responsible for. (Local
    /// bookkeeping like `registered_at` is excluded: a cold store
    /// re-registers at join time by design.)
    fn fingerprint(store: &crate::store::ObjectStore) -> Vec<(u32, u64, u64, u64, Vec<u8>)> {
        store
            .iter()
            .map(|(id, entry)| {
                let (version, timestamp, payload) = entry.value().map_or_else(
                    || (0, 0, Vec::new()),
                    |v| {
                        (
                            v.version().value(),
                            v.timestamp().as_nanos(),
                            v.payload().to_vec(),
                        )
                    },
                );
                (
                    id.index(),
                    entry.write_epoch().value(),
                    version,
                    timestamp,
                    payload,
                )
            })
            .collect()
    }

    /// Propcheck: for random write histories, retention knobs, and crash
    /// points, a durable backup caught up through its log position and a
    /// cold backup rebuilt by full state transfer converge to
    /// byte-identical stores — and both match the primary. The
    /// epoch-aware `(write_epoch, version)` ordering in
    /// `ObjectStore::apply` makes every path land on the same images
    /// regardless of how they were shipped.
    #[test]
    fn suffix_replay_and_full_transfer_converge_identically() {
        use crate::backup::Backup;
        use rtpb_sim::propcheck::{run_cases, Gen};

        run_cases("recovery-convergence", 60, |g: &mut Gen| {
            let config = ProtocolConfig {
                log_retention: g.usize_in(4, 64),
                snapshot_interval: g.u64_in(4, 32),
                snapshots_retained: g.usize_in(1, 4),
                ..ProtocolConfig::default()
            };
            let mut p = Primary::new(NodeId::new(0), config.clone());
            p.add_backup(NodeId::new(1), Time::ZERO);
            let k = g.usize_in(1, 5);
            let ids: Vec<_> = (0..k)
                .map(|_| p.register(spec(), Time::ZERO).unwrap())
                .collect();

            // The durable backup tracks the primary update-by-update
            // until the crash point, then misses everything after it.
            let mut durable = Backup::new(NodeId::new(1), config.clone());
            for (id, ospec, period) in p.registry() {
                durable.sync_registration(id, ospec, period, Time::ZERO);
            }
            // Gaps of 1-2 ms keep the whole history inside the
            // leadership lease (250 ms, armed once at `add_backup`):
            // this harness is sans-io, so no heartbeat acks flow back
            // to renew it.
            let writes = g.usize_in(5, 80);
            let cut = g.usize_in(0, writes + 1);
            let mut now = Time::ZERO;
            for i in 0..writes {
                now += ms(g.u64_in(1, 3));
                let id = ids[g.usize_in(0, k)];
                p.apply_write(id, &g.bytes(16), now);
                let _ = p.take_snapshot_marks();
                if i < cut {
                    let update = p.make_update(id, now).expect("update for fresh write");
                    durable.handle_message(&update, now);
                }
            }

            // Durable path: join with the recorded position; the
            // primary picks whichever of the three paths covers the gap.
            now += ms(5);
            let join = durable.begin_join(now);
            let out = p.handle_message(&join, now);
            assert!(out.catch_up.is_some(), "join must produce a plan");
            for reply in &out.replies {
                durable.handle_message(reply, now);
            }

            // Cold path: no position, full state transfer.
            let mut cold = Backup::new(NodeId::new(1), config);
            for (id, ospec, period) in p.registry() {
                cold.sync_registration(id, ospec, period, Time::ZERO);
            }
            let join = cold.begin_join(now);
            let out = p.handle_message(&join, now);
            assert_eq!(
                out.catch_up.expect("plan").path,
                CatchUpPath::FullTransfer,
                "a cold join has no position to serve from the log"
            );
            for reply in &out.replies {
                cold.handle_message(reply, now);
            }

            let want = fingerprint(p.store());
            assert_eq!(fingerprint(durable.store()), want, "durable != primary");
            assert_eq!(fingerprint(cold.store()), want, "cold != primary");
        });
    }
}
