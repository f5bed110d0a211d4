//! The backup server state machine.
//!
//! Mirrors the primary's object table from update messages, acknowledges
//! heartbeats, watches per-object update freshness (issuing retransmission
//! requests when an expected update fails to arrive, §4.3), detects
//! primary failure, and *promotes itself* to primary on takeover (§4.4).

use crate::config::ProtocolConfig;
use crate::heartbeat::{DetectorAction, FailureDetector};
use crate::integrity::{IntegrityEvent, IntegritySource};
use crate::monitor::TemporalMonitor;
use crate::primary::Primary;
use crate::steps::{Output, Route};
use crate::store::ObjectStore;
use crate::table::IdTable;
use crate::update_sched::UpdateSchedule;
use crate::wire::{ReadStatus, ScrubDigest, StateEntryRef, WireFrame, WireMessage};
use rtpb_types::{
    Epoch, InterObjectConstraint, LogPosition, NodeId, ObjectId, ObjectSpec, StalenessCertificate,
    Time, TimeDelta, Version,
};

/// First retry interval of the bounded-retry join machinery: a join
/// request whose state transfer never arrives is re-sent after this long,
/// then with exponential backoff.
const JOIN_RETRY_INITIAL: TimeDelta = TimeDelta::from_millis(50);

/// Cap on the join retry interval after backoff.
const JOIN_RETRY_MAX: TimeDelta = TimeDelta::from_secs(1);

/// Join attempts (including the first) before the backup gives up
/// re-integration.
const JOIN_MAX_ATTEMPTS: u32 = 12;

/// Cap on the exponent of the retransmission-request backoff: after `k`
/// unanswered requests for an object, the next watchdog allowance is
/// multiplied by `2^min(k, cap)`.
const RETRANSMIT_BACKOFF_CAP: u32 = 5;

const _: () = assert!(!JOIN_RETRY_INITIAL.is_zero());
const _: () = assert!(JOIN_RETRY_MAX.as_nanos() >= JOIN_RETRY_INITIAL.as_nanos());

/// What [`Backup::serve_read`] produced for one local read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackupRead {
    /// The read was served locally under the attached certificate.
    Served {
        /// The served value.
        payload: Vec<u8>,
        /// A sound upper bound on the value's staleness at serve time.
        certificate: StalenessCertificate,
        /// This backup's last applied update-log position, for the
        /// client's session token.
        position: Option<LogPosition>,
    },
    /// This backup's applied position is behind the session floor (or it
    /// is mid catch-up): serving would violate the session's monotonic
    /// guarantees. The client should try another replica or the primary.
    Behind {
        /// This backup's last applied update-log position.
        position: Option<LogPosition>,
    },
    /// The object is not registered (or has never been written) at this
    /// backup.
    Unknown,
    /// This backup's temporal monitor detected a timing-assumption
    /// violation: its clock evidence contradicts the configured envelope,
    /// so any staleness certificate it minted might lie. The read is
    /// refused explicitly instead (DESIGN.md §14).
    Unsound {
        /// This backup's last applied update-log position.
        position: Option<LogPosition>,
    },
}

/// Bounded-retry state of an in-flight join (§4.4 re-integration): a
/// join request whose state transfer never arrives is re-sent with
/// exponential backoff until it succeeds or the attempt budget runs out.
/// Anti-entropy resync (a deposed primary rejoining after a partition
/// heal) rides the same machinery with `resync` set.
#[derive(Debug, Clone, Copy)]
struct JoinState {
    next_attempt: Time,
    interval: TimeDelta,
    attempts: u32,
    resync: bool,
}

/// The backup server.
///
/// # Examples
///
/// ```
/// use rtpb_core::backup::Backup;
/// use rtpb_core::config::ProtocolConfig;
/// use rtpb_core::wire::WireMessage;
/// use rtpb_types::{Epoch, NodeId, ObjectId, ObjectSpec, Time, TimeDelta, Version};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut backup = Backup::new(NodeId::new(1), ProtocolConfig::default());
/// let spec = ObjectSpec::builder("altitude")
///     .update_period(TimeDelta::from_millis(100))
///     .primary_bound(TimeDelta::from_millis(150))
///     .backup_bound(TimeDelta::from_millis(550))
///     .build()?;
/// let id = ObjectId::new(0);
/// backup.sync_registration(id, spec, TimeDelta::from_millis(195), Time::ZERO);
///
/// let update = WireMessage::Update {
///     epoch: Epoch::INITIAL,
///     object: id,
///     version: Version::new(1),
///     timestamp: Time::from_millis(5),
///     seq: 1,
///     payload: vec![1, 2],
/// };
/// let out = backup.handle_message(&update, Time::from_millis(12));
/// assert_eq!(out.applied.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Backup {
    node: NodeId,
    config: ProtocolConfig,
    store: ObjectStore,
    // Per-object watchdog state, kept only for objects the store holds:
    // registration adds an object, and an id read off the wire never does.
    send_periods: IdTable<TimeDelta>,
    last_update_at: IdTable<Time>,
    detector: FailureDetector,
    primary_alive: bool,
    // Highest fencing epoch observed on any inbound frame; frames below
    // it are rejected before they can touch the store (DESIGN.md §10).
    epoch: Epoch,
    // Last applied position in the primary's update log: every update and
    // catch-up frame carries a log coordinate, and the high-water mark is
    // what a re-join advertises so the primary can ship a suffix instead
    // of the world (DESIGN.md §11).
    position: Option<LogPosition>,
    retransmit_requests_sent: u64,
    updates_applied: u64,
    duplicates_ignored: u64,
    retransmit_attempts: IdTable<u32>,
    join: Option<JoinState>,
    join_attempts: u32,
    join_abandoned: bool,
    /// Runtime temporal-envelope monitor (DESIGN.md §14). While it is
    /// degraded this backup refuses reads with [`BackupRead::Unsound`]
    /// instead of minting a certificate that might lie.
    monitor: TemporalMonitor,
    /// Integrity incidents (checksum failures, scrub divergence) since
    /// the last call that returns an [`Output`] (DESIGN.md §15).
    integrity_events: Vec<IntegrityEvent>,
    /// An output handed back through [`Backup::recycle`], whose emptied
    /// lists the next call fills.
    spare: Option<Output>,
}

impl Backup {
    /// Creates a backup server.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(node: NodeId, config: ProtocolConfig) -> Self {
        config.validate();
        let monitor = TemporalMonitor::new(&config);
        Backup {
            node,
            config,
            store: ObjectStore::new(),
            send_periods: IdTable::default(),
            last_update_at: IdTable::default(),
            detector: FailureDetector::default(),
            primary_alive: true,
            epoch: Epoch::INITIAL,
            position: None,
            retransmit_requests_sent: 0,
            updates_applied: 0,
            duplicates_ignored: 0,
            retransmit_attempts: IdTable::default(),
            join: None,
            join_attempts: 0,
            join_abandoned: false,
            monitor,
            integrity_events: Vec::new(),
            spare: None,
        }
    }

    /// Rebuilds a backup from an existing store — the demotion path of a
    /// deposed primary (see [`Primary::demote`]). The inherited images
    /// keep their versions; anti-entropy resync reconciles them against
    /// the new primary. `epoch` is the successor's epoch the deposed
    /// primary observed; `position` is the head of the log this node kept
    /// while it was serving (truthful, but under its own — now fenced —
    /// epoch, so the successor will route it to a full catch-up path).
    #[must_use]
    pub(crate) fn from_store(
        node: NodeId,
        config: ProtocolConfig,
        store: ObjectStore,
        send_periods: IdTable<TimeDelta>,
        epoch: Epoch,
        position: Option<LogPosition>,
        now: Time,
    ) -> Self {
        let mut detector = FailureDetector::default();
        detector.reset(now);
        let last_update_at = store.iter().map(|(id, _)| (id, now)).collect();
        let monitor = TemporalMonitor::new(&config);
        Backup {
            node,
            config,
            store,
            send_periods,
            last_update_at,
            detector,
            primary_alive: true,
            epoch,
            position,
            retransmit_requests_sent: 0,
            updates_applied: 0,
            duplicates_ignored: 0,
            retransmit_attempts: IdTable::default(),
            join: None,
            join_attempts: 0,
            join_abandoned: false,
            monitor,
            integrity_events: Vec::new(),
            spare: None,
        }
    }

    /// This node's id.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The highest fencing epoch observed on any inbound frame.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The last applied position in the primary's update log, or `None`
    /// if this backup has never installed a logged frame. This is the
    /// coordinate a re-join advertises so the primary can ship only the
    /// suffix this node missed.
    #[must_use]
    pub fn log_position(&self) -> Option<LogPosition> {
        self.position
    }

    /// The mirrored object table.
    #[must_use]
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Whether the primary is currently believed alive.
    #[must_use]
    pub fn is_primary_alive(&self) -> bool {
        self.primary_alive
    }

    /// Updates installed so far.
    #[must_use]
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Stale/duplicate updates discarded so far.
    #[must_use]
    pub fn duplicates_ignored(&self) -> u64 {
        self.duplicates_ignored
    }

    /// Retransmission requests issued so far.
    #[must_use]
    pub fn retransmit_requests_sent(&self) -> u64 {
        self.retransmit_requests_sent
    }

    /// Join attempts (first request plus retries) in the current or most
    /// recent join cycle.
    #[must_use]
    pub fn join_attempts(&self) -> u32 {
        self.join_attempts
    }

    /// The runtime temporal-envelope monitor (DESIGN.md §14).
    #[must_use]
    pub fn monitor(&self) -> &TemporalMonitor {
        &self.monitor
    }

    /// Re-verifies every stored image against its install-time checksum —
    /// the restart-recovery audit (DESIGN.md §15). Corrupt entries are
    /// quarantined (value dropped, freshness tag reset so repair can
    /// re-install them) and reported as [`IntegrityEvent`]s; when any
    /// entry fails, the applied log position is also cleared, because a
    /// store that lost bytes can no longer vouch that its position
    /// reflects its contents — the next join falls down the catch-up
    /// ladder to a path that re-ships the quarantined objects.
    ///
    /// Returns the quarantined objects.
    pub fn audit_integrity(&mut self) -> Vec<ObjectId> {
        let failed: Vec<ObjectId> = self.store.audit().into_iter().map(|(id, _)| id).collect();
        if !failed.is_empty() {
            self.position = None;
        }
        for &id in &failed {
            self.integrity_events.push(IntegrityEvent::Violation {
                source: IntegritySource::StoreEntry,
                object: Some(id),
                seq: None,
            });
        }
        failed
    }

    /// Fault-injection hook: flips `mask` into a stored object image
    /// (see [`ObjectStore::corrupt_payload`]). Returns whether the
    /// object held a value to corrupt. Test/chaos harness use only.
    pub fn corrupt_stored_payload(&mut self, id: ObjectId, byte: usize, mask: u8) -> bool {
        self.store.corrupt_payload(id, byte, mask)
    }

    /// Whether a join or resync cycle is still in flight.
    #[must_use]
    pub fn join_in_progress(&self) -> bool {
        self.join.is_some()
    }

    /// Whether the store may still hold images a catch-up is about to
    /// overwrite: a join or resync cycle is in flight, or the last one was
    /// abandoned before any catch-up frame landed. Such a backup refuses
    /// reads.
    #[must_use]
    pub fn catching_up(&self) -> bool {
        self.join.is_some() || self.join_abandoned
    }

    /// Serves a client read locally, minting a [`StalenessCertificate`].
    ///
    /// The certificate's age bound is the lesser of two independently
    /// sound bounds on the served value's true staleness:
    ///
    /// 1. `now − write timestamp` — the value's own age (exact when no
    ///    newer write exists, conservative otherwise), and
    /// 2. `(now − last update arrival) + ℓ` — any write this backup has
    ///    missed completed *after* the last received update was sent,
    ///    and sending precedes arrival by at most the link-delay bound ℓ.
    ///
    /// Either bound alone satisfies Theorem 5's contract; the minimum
    /// keeps certificates tight in both write-heavy and idle regimes.
    ///
    /// A read is refused ([`BackupRead::Behind`]) when `floor` (the
    /// client session's high-water log position) is ahead of this
    /// backup's applied position, or while the backup is
    /// [catching up](Backup::catching_up) — its store may still hold
    /// pre-outage images, so serving would leak values the catch-up is
    /// about to overwrite.
    #[must_use]
    pub fn serve_read(
        &self,
        object: ObjectId,
        floor: Option<LogPosition>,
        now: Time,
    ) -> BackupRead {
        if self.monitor.is_degraded() {
            // Certificate ages are computed across two clocks; with this
            // node's clock evidence contradicting the envelope the age
            // could under-report true staleness. Refuse explicitly
            // rather than serve a certificate that might lie.
            return BackupRead::Unsound {
                position: self.position,
            };
        }
        if self.catching_up() {
            return BackupRead::Behind {
                position: self.position,
            };
        }
        if let Some(floor) = floor {
            if self.position.is_none_or(|p| p < floor) {
                return BackupRead::Behind {
                    position: self.position,
                };
            }
        }
        let Some(entry) = self.store.get(object) else {
            return BackupRead::Unknown;
        };
        // Never vouch for an image whose stored checksum no longer
        // matches (DESIGN.md §15): a certificate over corrupt bytes
        // would bound the staleness of a value that was never written.
        // `Unknown` routes the client to another replica or the primary;
        // the next audit or scrub quarantines and repairs the entry.
        if !entry.verify() {
            return BackupRead::Unknown;
        }
        let Some(value) = entry.value() else {
            return BackupRead::Unknown;
        };
        // The paper's §2 measure: the value's own write-timestamp age
        // (`now - T_i(t)`). Any write the served version misses is
        // strictly newer than `value.timestamp()`, so this bound covers
        // the true staleness unconditionally — no assumption about link
        // delay or CPU timeliness is needed, which matters because a
        // saturated primary can hold a snapshot in its send queue far
        // longer than the link-delay bound.
        let age_bound = now.saturating_since(value.timestamp());
        BackupRead::Served {
            payload: value.payload().to_vec(),
            certificate: StalenessCertificate {
                object,
                write_epoch: entry.write_epoch(),
                version: value.version(),
                age_bound,
            },
            position: self.position,
        }
    }

    /// Answers a wire-level [`WireMessage::ReadRequest`]. Reads never
    /// assert write authority, so the request is answered even when the
    /// requester's epoch is stale; the reply carries this backup's
    /// current epoch so a lagging client learns about the failover.
    fn read_reply(&self, object: ObjectId, floor: Option<LogPosition>, now: Time) -> WireMessage {
        match self.serve_read(object, floor, now) {
            BackupRead::Served {
                payload,
                certificate,
                position,
            } => WireMessage::ReadReply {
                epoch: self.epoch,
                object,
                status: ReadStatus::Served,
                write_epoch: certificate.write_epoch,
                version: certificate.version,
                age_bound: certificate.age_bound,
                position,
                payload,
            },
            BackupRead::Behind { position } => WireMessage::ReadReply {
                epoch: self.epoch,
                object,
                status: ReadStatus::Behind,
                write_epoch: Epoch::INITIAL,
                version: Version::INITIAL,
                age_bound: TimeDelta::ZERO,
                position,
                payload: Vec::new(),
            },
            BackupRead::Unknown => WireMessage::ReadReply {
                epoch: self.epoch,
                object,
                status: ReadStatus::Unknown,
                write_epoch: Epoch::INITIAL,
                version: Version::INITIAL,
                age_bound: TimeDelta::ZERO,
                position: self.position,
                payload: Vec::new(),
            },
            BackupRead::Unsound { position } => WireMessage::ReadReply {
                epoch: self.epoch,
                object,
                status: ReadStatus::Unsound,
                write_epoch: Epoch::INITIAL,
                version: Version::INITIAL,
                age_bound: TimeDelta::ZERO,
                position,
                payload: Vec::new(),
            },
        }
    }

    /// Whether the last join cycle exhausted its attempt budget without
    /// ever receiving a state transfer.
    #[must_use]
    pub fn join_abandoned(&self) -> bool {
        self.join_abandoned
    }

    /// Starts a bounded-retry join cycle toward the serving primary and
    /// returns the first join request. Retries are produced by
    /// [`Backup::tick_join`] with exponential backoff until a state
    /// transfer arrives or the 12-attempt budget is spent.
    pub fn begin_join(&mut self, now: Time) -> WireMessage {
        self.arm_join(now, false);
        WireMessage::JoinRequest {
            epoch: self.epoch,
            from: self.node,
            position: self.position,
        }
    }

    /// Starts a bounded-retry **anti-entropy resync** cycle — the
    /// re-admission path of a deposed primary after a partition heal. The
    /// request carries this node's per-object version vector so the new
    /// primary can ship only the objects where this node is behind.
    /// Retries and the attempt budget are shared with the join machinery
    /// ([`Backup::tick_join`]).
    pub fn begin_resync(&mut self, now: Time) -> WireMessage {
        self.arm_join(now, true);
        self.resync_request()
    }

    fn arm_join(&mut self, now: Time, resync: bool) {
        self.join = Some(JoinState {
            next_attempt: now + JOIN_RETRY_INITIAL,
            interval: JOIN_RETRY_INITIAL,
            attempts: 1,
            resync,
        });
        self.join_attempts = 1;
        self.join_abandoned = false;
    }

    fn resync_request(&self) -> WireMessage {
        WireMessage::ResyncRequest {
            epoch: self.epoch,
            from: self.node,
            position: self.position,
            // Each entry reports the epoch its image was written under:
            // versions this node minted as a deposed primary carry its old
            // epoch, so the successor's diff can override them no matter
            // how high their bare counters ran.
            versions: self
                .store
                .iter()
                .map(|(id, e)| (id, e.write_epoch(), e.version()))
                .collect(),
        }
    }

    /// Advances the join retry clock: returns a fresh join (or resync)
    /// request when one is due, `None` while waiting (or when no join is
    /// in flight). Gives up for good once the attempt budget is
    /// exhausted.
    pub fn tick_join(&mut self, now: Time) -> Option<WireMessage> {
        let state = self.join.as_mut()?;
        if now < state.next_attempt {
            return None;
        }
        if state.attempts >= JOIN_MAX_ATTEMPTS {
            self.join = None;
            self.join_abandoned = true;
            return None;
        }
        state.attempts += 1;
        state.interval = (state.interval * 2).min(JOIN_RETRY_MAX);
        state.next_attempt = now + state.interval;
        self.join_attempts = state.attempts;
        let resync = state.resync;
        if resync {
            Some(self.resync_request())
        } else {
            Some(WireMessage::JoinRequest {
                epoch: self.epoch,
                from: self.node,
                position: self.position,
            })
        }
    }

    /// Mirrors a registration made at the primary (space reservation,
    /// §4.2: "the client reserves the necessary space for the object on
    /// the primary server and on the backup server"). `send_period` is
    /// the admitted update-transmission period `r_i`, which arms the
    /// freshness watchdog.
    pub fn sync_registration(
        &mut self,
        id: ObjectId,
        spec: ObjectSpec,
        send_period: TimeDelta,
        now: Time,
    ) {
        self.store.register_with_id(id, spec, now);
        self.send_periods.insert(id, send_period);
        self.last_update_at.insert(id, now);
    }

    /// Mirrors the primary's whole registry (`(id, spec, send period)` per
    /// object, in id order, as
    /// [`Primary::registry`](crate::Primary::registry) lists it): registers
    /// the objects this backup lacks, re-times the watchdogs of the rest
    /// (schedule recomputation at the primary, e.g. compressed-mode
    /// redistribution), and deregisters the objects the registry no
    /// longer lists, such as those shed while this backup was down.
    pub fn sync_registry(&mut self, registry: &[(ObjectId, ObjectSpec, TimeDelta)], now: Time) {
        debug_assert!(registry.windows(2).all(|w| w[0].0 < w[1].0));
        let gone: Vec<ObjectId> = self
            .store
            .ids()
            .filter(|id| registry.binary_search_by_key(id, |r| r.0).is_err())
            .collect();
        for id in gone {
            self.sync_deregistration(id);
        }
        for (id, spec, period) in registry {
            if self.store.get(*id).is_none() {
                self.sync_registration(*id, spec.clone(), *period, now);
            } else {
                self.send_periods.insert(*id, *period);
            }
        }
    }

    /// Mirrors a deregistration.
    pub fn sync_deregistration(&mut self, id: ObjectId) {
        self.store.deregister(id);
        self.send_periods.remove(id);
        self.last_update_at.remove(id);
        self.retransmit_attempts.remove(id);
    }

    /// Handles an inbound message from the network: encodes it and hands
    /// the parsed frame to [`Backup::handle_frame`], the path every driver
    /// receives on. Convenient for tests and callers that hold an owned
    /// [`WireMessage`].
    ///
    /// # Panics
    ///
    /// Panics if `msg` encodes to a frame the decoder rejects (larger than
    /// [`MAX_DECODE_LEN`](crate::wire::MAX_DECODE_LEN)).
    pub fn handle_message(&mut self, msg: &WireMessage, now: Time) -> Output {
        let bytes = msg.encode();
        let frame = WireFrame::parse(&bytes).expect("an encoded message parses");
        self.handle_frame(&frame, now)
    }

    /// Handles an inbound frame from the network, read from a borrowed
    /// decode view: payloads flow straight from the receive buffer into
    /// the store's existing slots — no owned [`WireMessage`] (and no
    /// per-update allocation) on the steady-state update and batch paths.
    /// Replies go back along [`Route::Reply`].
    ///
    /// Fencing runs before dispatch: a frame whose epoch is below the
    /// highest this backup has observed is rejected — it never touches
    /// the store, never feeds the watchdogs, and never counts as primary
    /// liveness. A stale *ping* still earns a [`WireMessage::PingAck`]
    /// carrying the current epoch, which is how a deposed primary learns
    /// it has been superseded once the partition heals. Frames from a
    /// higher epoch move this backup's epoch forward.
    pub fn handle_frame(&mut self, frame: &WireFrame<'_>, now: Time) -> Output {
        let mut out = Output::take(&mut self.spare, self.node);
        self.monitor.observe_now(now);
        self.dispatch_frame(frame, now, &mut out);
        out.close(&mut self.monitor, &mut self.integrity_events);
        out
    }

    /// Takes back an output the caller is done with: the next call fills
    /// its emptied lists, so a steady stream of updates allocates no
    /// output.
    pub fn recycle(&mut self, mut out: Output) {
        out.clear();
        self.spare = Some(out);
    }

    /// Fencing. Returns whether the frame may proceed: a frame below this
    /// backup's epoch is rejected — it never touches the store, never
    /// feeds the watchdogs, and never counts as primary liveness — though
    /// a stale *ping* still earns a [`WireMessage::PingAck`] carrying the
    /// current epoch (how a deposed primary learns it was superseded). A
    /// higher epoch moves this backup's epoch forward.
    fn fence(&mut self, frame_epoch: Epoch, ping_seq: Option<u64>, out: &mut Output) -> bool {
        if frame_epoch < self.epoch {
            out.fenced.push((frame_epoch, self.epoch));
            if let Some(seq) = ping_seq {
                out.reply(self.ping_ack(seq));
            }
            return false;
        }
        if frame_epoch > self.epoch {
            self.epoch = frame_epoch;
        }
        true
    }

    /// The acknowledgement of ping `seq`, carrying this backup's epoch.
    fn ping_ack(&self, seq: u64) -> WireMessage {
        WireMessage::PingAck {
            epoch: self.epoch,
            from: self.node,
            seq,
        }
    }

    fn dispatch_frame(&mut self, frame: &WireFrame<'_>, now: Time, out: &mut Output) {
        let frame_epoch = frame.epoch();
        // Reads never assert write authority, so they bypass the fence: a
        // client with a stale epoch still deserves an answer (the reply
        // carries the current epoch). A higher epoch is still adopted.
        if let WireFrame::ReadRequest { object, floor, .. } = frame {
            if frame_epoch > self.epoch {
                self.epoch = frame_epoch;
            }
            out.reply(self.read_reply(*object, *floor, now));
            return;
        }
        let ping_seq = match frame {
            WireFrame::Ping { seq, .. } => Some(*seq),
            _ => None,
        };
        if !self.fence(frame_epoch, ping_seq, out) {
            return;
        }
        match frame {
            WireFrame::Update {
                object,
                version,
                timestamp,
                seq,
                payload,
                ..
            } => {
                let entry = StateEntryRef {
                    object: *object,
                    version: *version,
                    timestamp: *timestamp,
                    payload,
                };
                self.apply_update(entry, *seq, frame_epoch, now, out);
            }
            WireFrame::Ping { seq, scrub, .. } => {
                out.reply(self.ping_ack(*seq));
                self.check_scrub(frame_epoch, *scrub, now, out);
            }
            WireFrame::PingAck { from, seq, .. } => {
                if let Some(sent_at) = self.detector.on_ack(*seq, now) {
                    // A completed probe round trip is timing evidence
                    // against the link-delay bound.
                    self.monitor.observe_round_trip(*from, sent_at, now);
                }
            }
            WireFrame::StateTransfer { head, entries, .. }
            | WireFrame::ResyncDiff { head, entries, .. }
            | WireFrame::LogSuffix { head, entries, .. } => {
                self.begin_catch_up(now);
                for e in entries.iter() {
                    self.install_entry(e, frame_epoch, now, out);
                }
                self.advance_position(LogPosition::new(frame_epoch, *head));
            }
            WireFrame::Batch { frames, .. } => {
                // One frame, many sub-messages: unpack in send order. The
                // contained updates each feed the watchdogs and the
                // piggybacked heartbeat. Each sub-message re-fences with
                // its own epoch.
                for sub in frames.iter() {
                    self.dispatch_frame(&sub, now, out);
                }
            }
            WireFrame::ReadRequest { .. } => {
                // Handled before the fence; unreachable here.
            }
            WireFrame::RetransmitRequest { .. }
            | WireFrame::JoinRequest { .. }
            | WireFrame::ResyncRequest { .. }
            | WireFrame::ReadReply { .. }
            | WireFrame::UpdateAck { .. } => {
                // Not addressed to a backup; ignore.
            }
        }
    }

    /// Compares a heartbeat's piggybacked scrub digest against the local
    /// store (DESIGN.md §15). The comparison only runs when it is
    /// meaningful: this backup's applied position must sit exactly at the
    /// digest's log head under the same epoch (any other state means the
    /// two stores legitimately differ in flight) and no join may be
    /// pending. On divergence the backup quarantines whatever its own
    /// checksums can already prove corrupt, raises a
    /// [`IntegrityEvent::ScrubDivergence`], and initiates anti-entropy
    /// resync with its position cleared — forcing the primary past the
    /// (empty) log-suffix rung to the tagged-version diff that actually
    /// re-ships the diverged objects.
    fn check_scrub(
        &mut self,
        frame_epoch: Epoch,
        scrub: Option<ScrubDigest>,
        now: Time,
        out: &mut Output,
    ) {
        let Some(s) = scrub else { return };
        if self.join.is_some() {
            return;
        }
        let Some(p) = self.position else { return };
        if p.epoch() != frame_epoch || p.seq() != s.head {
            return;
        }
        if self.store.range_digest(s.range, s.ranges) == s.digest {
            return;
        }
        self.integrity_events.push(IntegrityEvent::ScrubDivergence {
            range: s.range,
            ranges: s.ranges,
        });
        for (id, _) in self.store.audit() {
            self.integrity_events.push(IntegrityEvent::Violation {
                source: IntegritySource::StoreEntry,
                object: Some(id),
                seq: None,
            });
        }
        self.position = None;
        out.reply(self.begin_resync(now));
    }

    /// Any of the three catch-up frames is the join cycle's success
    /// signal, even after the cycle was abandoned, and a frame from the
    /// primary is evidence of its life. A
    /// log suffix replays missed records oldest-first; a (possibly
    /// partial) transfer or diff ships whole images — either way the
    /// entries run through the same epoch-aware store ordering, and the
    /// frame's `head` stamps how far along the primary's log this node
    /// now is.
    fn begin_catch_up(&mut self, now: Time) {
        self.detector.note_traffic(now);
        self.join = None;
        self.join_abandoned = false;
    }

    /// Applies one inbound update. Any update is evidence of primary
    /// life and freshness; it also resets the retransmission backoff and
    /// piggybacks the heartbeat (the next explicit ping is suppressed —
    /// §4.4's ping path becomes the idle fallback).
    fn apply_update(
        &mut self,
        u: StateEntryRef<'_>,
        seq: u64,
        frame_epoch: Epoch,
        now: Time,
        out: &mut Output,
    ) {
        self.detector.note_traffic(now);
        // The update's write timestamp is timing evidence: one stamped
        // beyond `clock_skew` ahead of the local clock proves one of the
        // two clocks has left the envelope — and a certificate minted
        // across them could under-report staleness. The wire update
        // carries no sender id, so the violation is attributed to the
        // observing node.
        self.monitor
            .observe_remote_timestamp(self.node, u.timestamp, now);
        self.note_arrival(u.object, now);
        // The update carries its object's latest log coordinate.
        // Advancing the high-water mark past unseen records of
        // *other* objects is sound: RTPB re-sends every object's
        // freshest image each send period, so any skipped record
        // is superseded within one period (DESIGN.md §11).
        if seq > 0 {
            self.advance_position(LogPosition::new(frame_epoch, seq));
        }
        let installed =
            self.store
                .apply_from_parts(u.object, u.version, u.timestamp, u.payload, frame_epoch);
        if installed {
            self.updates_applied += 1;
            out.applied.push((u.object, u.version, u.timestamp));
            if self.config.ack_updates {
                out.reply(WireMessage::UpdateAck {
                    epoch: self.epoch,
                    object: u.object,
                    version: u.version,
                });
            }
        } else {
            self.duplicates_ignored += 1;
        }
    }

    fn install_entry(
        &mut self,
        e: StateEntryRef<'_>,
        frame_epoch: Epoch,
        now: Time,
        out: &mut Output,
    ) {
        self.monitor
            .observe_remote_timestamp(self.node, e.timestamp, now);
        self.note_arrival(e.object, now);
        // Entries are tagged with the shipping frame's epoch: a serving
        // primary's whole image carries its own epoch (adopted at
        // promotion), so a resync diff overwrites divergent values this
        // node wrote under an older, deposed epoch — whatever their bare
        // version counters say.
        let installed =
            self.store
                .apply_from_parts(e.object, e.version, e.timestamp, e.payload, frame_epoch);
        if installed {
            self.updates_applied += 1;
            out.applied.push((e.object, e.version, e.timestamp));
        }
    }

    /// Restarts `object`'s freshness watchdog and clears its backoff. An
    /// object this backup does not hold — never registered, or
    /// deregistered while the frame was in flight — leaves no trace.
    fn note_arrival(&mut self, object: ObjectId, now: Time) {
        if self.store.get(object).is_some() {
            self.last_update_at.insert(object, now);
            self.retransmit_attempts.remove(object);
        }
    }

    fn advance_position(&mut self, candidate: LogPosition) {
        if self.position.is_none_or(|p| candidate > p) {
            self.position = Some(candidate);
        }
    }

    /// Checks the freshness watchdog of one object. If no update arrived
    /// for longer than `r_i + W + ℓ + slack` (`W` being the coalescing
    /// window, zero when batching is off), issues a retransmission request
    /// (§4.3: "Retransmission is triggered by a request from the
    /// backup"). Drivers call this when the object's watchdog fires.
    ///
    /// Requests back off exponentially: each unanswered request doubles
    /// the allowance for the next one (up to 2^5 times the base), so a
    /// long outage costs a bounded trickle of requests rather than a
    /// flood; any arriving update resets the backoff.
    pub fn tick_watchdog(&mut self, id: ObjectId, now: Time) -> Option<WireMessage> {
        if !self.primary_alive {
            return None;
        }
        let period = *self.send_periods.get(id)?;
        let last = *self.last_update_at.get(id)?;
        let attempts = self.retransmit_attempts.get(id).copied().unwrap_or(0);
        let backoff = 1u64 << attempts.min(RETRANSMIT_BACKOFF_CAP);
        let allowance = self.config.refresh_allowance(period) * backoff;
        if now.saturating_since(last) > allowance {
            self.retransmit_requests_sent += 1;
            self.retransmit_attempts
                .insert(id, attempts.saturating_add(1));
            // Restart the allowance so one gap produces one request per
            // (backed-off) watchdog window rather than a flood.
            self.last_update_at.insert(id, now);
            return Some(WireMessage::RetransmitRequest {
                epoch: self.epoch,
                object: id,
                have_version: self.store.get(id)?.version(),
            });
        }
        None
    }

    /// Advances the failure detector of the primary this backup follows,
    /// `primary`: the output holds a probe along [`Route::Node`] to it
    /// when one is due, and names it among the dead once it passes the
    /// miss threshold.
    pub fn tick_heartbeat(&mut self, primary: NodeId, now: Time) -> Output {
        self.monitor.observe_now(now);
        self.monitor.maybe_recover(now);
        let mut out = Output::take(&mut self.spare, self.node);
        if self.primary_alive {
            match self.detector.tick(now) {
                DetectorAction::SendPing(seq) => {
                    let ping = WireMessage::Ping {
                        epoch: self.epoch,
                        from: self.node,
                        seq,
                        scrub: None,
                    };
                    out.sends.push((Route::Node(primary), ping));
                }
                DetectorAction::DeclareDead => {
                    self.primary_alive = false;
                    out.died.push(primary);
                }
                DetectorAction::Idle => {}
            }
        }
        out.close(&mut self.monitor, &mut self.integrity_events);
        out
    }

    /// Comes back from a crash: cold, or `durable` with the retained
    /// store, which re-arms the detector. Opens a join cycle: the output
    /// holds the join request along [`Route::Primary`] and the incidents
    /// the restart audit raised ([`Backup::audit_integrity`]).
    pub fn restart(&mut self, durable: bool, now: Time) -> Output {
        let mut out = Output::take(&mut self.spare, self.node);
        if durable {
            self.rearm(now);
        }
        out.sends.push((Route::Primary, self.begin_join(now)));
        out.close(&mut self.monitor, &mut self.integrity_events);
        out
    }

    /// Re-arms the primary failure detector after a failover in which a
    /// *different* backup promoted itself: this backup now tracks the new
    /// primary and resumes its duties (multi-backup extension).
    pub fn rearm(&mut self, now: Time) {
        self.detector.reset(now);
        self.primary_alive = true;
    }

    /// Takes over as the new primary (§4.4): consumes the backup and
    /// produces a [`Primary`] serving the mirrored state, minting the
    /// next fencing epoch so every frame of the old regime is rejected
    /// from here on. The caller (driver) is responsible for the
    /// surrounding choreography — rebind the name service, activate the
    /// standby client application, and wait to recruit a new backup.
    #[must_use]
    pub fn promote(self, now: Time) -> Primary {
        // Rebuild the constraints and the send schedule from the mirrored
        // registry so the new primary can serve a future backup with the
        // same guarantees. Constraints ride on the specs: walking them in
        // id order, keeping pairs whose partner is still registered,
        // reproduces the old primary's list.
        let constraints: Vec<InterObjectConstraint> = self
            .store
            .iter()
            .flat_map(|(id, e)| {
                e.spec()
                    .constraints()
                    .iter()
                    .filter(|&&(partner, _)| self.store.get(partner).is_some())
                    .map(move |&(partner, bound)| InterObjectConstraint::new(id, partner, bound))
            })
            .collect();
        let schedule = UpdateSchedule::from_store(&self.store, &constraints, &self.config);
        Primary::from_store(
            self.node,
            self.config,
            self.store,
            constraints,
            schedule,
            self.epoch.next(),
            now,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::StateEntry;

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

    fn backup_with_object() -> (Backup, ObjectId) {
        let mut b = Backup::new(NodeId::new(1), ProtocolConfig::default());
        let id = ObjectId::new(0);
        b.sync_registration(id, spec(), ms(195), Time::ZERO);
        (b, id)
    }

    fn update(id: ObjectId, version: u64, ts: u64) -> WireMessage {
        update_at_epoch(Epoch::INITIAL, id, version, ts)
    }

    fn update_at_epoch(epoch: Epoch, id: ObjectId, version: u64, ts: u64) -> WireMessage {
        WireMessage::Update {
            epoch,
            object: id,
            version: Version::new(version),
            timestamp: t(ts),
            seq: version,
            payload: vec![version as u8],
        }
    }

    #[test]
    fn applies_fresh_updates_and_reports_them() {
        let (mut b, id) = backup_with_object();
        let out = b.handle_message(&update(id, 1, 5), t(12));
        assert_eq!(out.applied, vec![(id, Version::new(1), t(5))]);
        assert_eq!(b.store().get(id).unwrap().version(), Version::new(1));
        assert_eq!(b.updates_applied(), 1);
    }

    #[test]
    fn a_recycled_output_is_refilled_from_empty() {
        let (mut b, id) = backup_with_object();
        let ping = |seq| WireMessage::Ping {
            epoch: Epoch::INITIAL,
            from: NodeId::new(0),
            seq,
            scrub: None,
        };
        let batch = WireMessage::Batch {
            epoch: Epoch::INITIAL,
            messages: vec![update(id, 1, 5), ping(1)],
        };
        let out = b.handle_message(&batch, t(12));
        assert_eq!((out.applied.len(), out.sends.len()), (1, 1));
        b.recycle(out);
        let out = b.handle_message(&ping(2), t(13));
        assert!(out.applied.is_empty(), "nothing of the first frame is left");
        assert!(
            out.applied.capacity() > 0,
            "the first frame's list is reused"
        );
        assert!(matches!(
            out.sends[..],
            [(Route::Reply, WireMessage::PingAck { seq: 2, .. })]
        ));
    }

    #[test]
    fn stale_and_duplicate_updates_are_ignored() {
        let (mut b, id) = backup_with_object();
        b.handle_message(&update(id, 2, 10), t(15));
        let out = b.handle_message(&update(id, 1, 5), t(16));
        assert!(out.applied.is_empty());
        let out = b.handle_message(&update(id, 2, 10), t(17));
        assert!(out.applied.is_empty());
        assert_eq!(b.duplicates_ignored(), 2);
        assert_eq!(b.store().get(id).unwrap().version(), Version::new(2));
    }

    #[test]
    fn watchdog_requests_retransmission_after_allowance() {
        let (mut b, id) = backup_with_object();
        // Allowance = 195 + 10 + 5 = 210 ms with no update since t=0.
        assert!(b.tick_watchdog(id, t(200)).is_none());
        let req = b.tick_watchdog(id, t(211)).expect("watchdog must fire");
        match req {
            WireMessage::RetransmitRequest {
                object,
                have_version,
                ..
            } => {
                assert_eq!(object, id);
                assert_eq!(have_version, Version::INITIAL);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(b.retransmit_requests_sent(), 1);
        // Immediately after, the allowance restarts: no flood.
        assert!(b.tick_watchdog(id, t(212)).is_none());
    }

    #[test]
    fn updates_reset_the_watchdog() {
        let (mut b, id) = backup_with_object();
        b.handle_message(&update(id, 1, 100), t(150));
        assert!(b.tick_watchdog(id, t(300)).is_none());
        assert!(b.tick_watchdog(id, t(361)).is_some());
    }

    #[test]
    fn watchdog_ignores_unknown_objects() {
        let (mut b, _) = backup_with_object();
        assert!(b.tick_watchdog(ObjectId::new(42), t(1000)).is_none());
    }

    #[test]
    fn ping_is_acked() {
        let (mut b, _) = backup_with_object();
        let out = b.handle_message(
            &WireMessage::Ping {
                epoch: Epoch::INITIAL,
                from: NodeId::new(0),
                seq: 9,
                scrub: None,
            },
            t(1),
        );
        assert_eq!(
            out.sends,
            vec![(
                Route::Reply,
                WireMessage::PingAck {
                    epoch: Epoch::INITIAL,
                    from: NodeId::new(1),
                    seq: 9
                }
            )]
        );
    }

    #[test]
    fn declares_primary_dead_after_silent_heartbeats() {
        let (mut b, _) = backup_with_object();
        let mut now = Time::ZERO;
        let mut declared = false;
        for _ in 0..50 {
            if !b.tick_heartbeat(NodeId::new(0), now).died.is_empty() {
                declared = true;
                break;
            }
            now += ms(50);
        }
        assert!(declared);
        assert!(!b.is_primary_alive());
        // Watchdogs stop once the primary is dead.
        assert!(b.tick_watchdog(ObjectId::new(0), now + ms(1000)).is_none());
    }

    #[test]
    fn promote_preserves_state_and_serves() {
        let (mut b, id) = backup_with_object();
        b.handle_message(&update(id, 3, 50), t(60));
        let mut new_primary = b.promote(t(200));
        assert_eq!(new_primary.node(), NodeId::new(1));
        // Promotion mints the next fencing epoch.
        assert_eq!(new_primary.epoch(), Epoch::new(1));
        assert_eq!(
            new_primary.store().get(id).unwrap().version(),
            Version::new(3)
        );
        // The new primary continues the version sequence.
        let v = new_primary.apply_write(id, &[9], t(210)).unwrap();
        assert_eq!(v, Version::new(4));
        // No backup yet: update production suppressed.
        assert!(new_primary.make_update(id, t(211)).is_none());
        assert!(!new_primary.is_backup_alive());
        // Schedule was recomputed from the mirrored specs.
        assert_eq!(new_primary.send_period(id), Some(ms(195)));
    }

    #[test]
    fn state_transfer_installs_snapshot() {
        let (mut b, id) = backup_with_object();
        let out = b.handle_message(
            &WireMessage::StateTransfer {
                epoch: Epoch::INITIAL,
                head: 7,
                entries: vec![StateEntry {
                    object: id,
                    version: Version::new(7),
                    timestamp: t(70),
                    payload: vec![7],
                }],
            },
            t(80),
        );
        assert_eq!(out.applied.len(), 1);
        assert_eq!(b.store().get(id).unwrap().version(), Version::new(7));
        // The transfer's head stamps this node's log position.
        assert_eq!(b.log_position(), Some(LogPosition::new(Epoch::INITIAL, 7)));
    }

    #[test]
    fn unanswered_retransmit_requests_back_off_exponentially() {
        let (mut b, id) = backup_with_object();
        // Base allowance = 195 + 10 + 5 = 210 ms.
        assert!(b.tick_watchdog(id, t(211)).is_some()); // attempt 1
                                                        // Second request needs 2×210 = 420 ms beyond t=211.
        assert!(b.tick_watchdog(id, t(211 + 420)).is_none());
        assert!(b.tick_watchdog(id, t(211 + 421)).is_some()); // attempt 2
                                                              // Third needs 4×210 = 840 ms beyond t=632.
        assert!(b.tick_watchdog(id, t(632 + 840)).is_none());
        assert!(b.tick_watchdog(id, t(632 + 841)).is_some());
        assert_eq!(b.retransmit_requests_sent(), 3);
        // A real update resets the backoff to the base allowance.
        b.handle_message(&update(id, 1, 1500), t(1500));
        assert!(b.tick_watchdog(id, t(1500 + 211)).is_some());
    }

    #[test]
    fn join_retries_back_off_and_respect_the_budget() {
        let mut b = Backup::new(NodeId::new(1), ProtocolConfig::default());
        let first = b.begin_join(Time::ZERO);
        assert!(matches!(first, WireMessage::JoinRequest { .. }));
        assert!(b.join_in_progress());
        // Retries come 50, 100, 200, 400, 800 ms apart, then every 1 s.
        let mut due = t(50);
        let mut interval = ms(50);
        for attempt in 2..=JOIN_MAX_ATTEMPTS {
            assert!(
                b.tick_join(due - ms(1)).is_none(),
                "attempt {attempt} early"
            );
            assert!(b.tick_join(due).is_some(), "attempt {attempt} due");
            interval = (interval * 2).min(JOIN_RETRY_MAX);
            due += interval;
        }
        assert_eq!(interval, JOIN_RETRY_MAX);
        // Budget spent: the next due tick gives up.
        assert!(b.tick_join(due).is_none());
        assert!(!b.join_in_progress());
        assert!(b.join_abandoned());
        assert_eq!(b.join_attempts(), JOIN_MAX_ATTEMPTS);
    }

    #[test]
    fn state_transfer_completes_the_join() {
        let (mut b, id) = backup_with_object();
        let _ = b.begin_join(t(0));
        let _ = b.handle_message(
            &WireMessage::StateTransfer {
                epoch: Epoch::INITIAL,
                head: 1,
                entries: vec![StateEntry {
                    object: id,
                    version: Version::new(1),
                    timestamp: t(5),
                    payload: vec![1],
                }],
            },
            t(20),
        );
        assert!(!b.join_in_progress());
        assert!(!b.join_abandoned());
        assert!(b.tick_join(t(10_000)).is_none());
    }

    #[test]
    fn batch_applies_every_member_and_resets_watchdogs() {
        let mut b = Backup::new(NodeId::new(1), ProtocolConfig::default());
        let a = ObjectId::new(0);
        let c = ObjectId::new(1);
        b.sync_registration(a, spec(), ms(195), Time::ZERO);
        b.sync_registration(c, spec(), ms(195), Time::ZERO);
        let batch = WireMessage::Batch {
            epoch: Epoch::INITIAL,
            messages: vec![update(a, 1, 5), update(c, 1, 6)],
        };
        let out = b.handle_message(&batch, t(12));
        assert_eq!(out.applied.len(), 2);
        assert_eq!(b.updates_applied(), 2);
        // Both watchdogs were fed by the one frame.
        assert!(b.tick_watchdog(a, t(12 + 210)).is_none());
        assert!(b.tick_watchdog(c, t(12 + 210)).is_none());
        assert!(b.tick_watchdog(a, t(12 + 211)).is_some());
    }

    #[test]
    fn update_traffic_suppresses_explicit_pings() {
        let (mut b, id) = backup_with_object();
        // Steady updates every 40 ms for 2 s: the backup never needs to
        // probe the primary explicitly.
        let mut now = Time::ZERO;
        for k in 1..=50u64 {
            now = t(k * 40);
            b.handle_message(&update(id, k, k * 40), now);
            let out = b.tick_heartbeat(NodeId::new(0), now);
            assert!(out.sends.is_empty(), "ping at {now} despite update traffic");
            assert!(out.died.is_empty());
        }
        assert!(b.is_primary_alive());
        // Traffic stops: the explicit ping fallback resumes, and silence
        // eventually kills the primary.
        let mut pinged = false;
        let mut declared = false;
        for _ in 0..50 {
            now += ms(50);
            let out = b.tick_heartbeat(NodeId::new(0), now);
            pinged |= !out.sends.is_empty();
            if !out.died.is_empty() {
                declared = true;
                break;
            }
        }
        assert!(pinged, "idle fallback ping never sent");
        assert!(declared, "silent primary never declared dead");
    }

    #[test]
    fn sync_deregistration_removes_watchdog() {
        let (mut b, id) = backup_with_object();
        b.sync_deregistration(id);
        assert!(b.store().get(id).is_none());
        assert!(b.tick_watchdog(id, t(10_000)).is_none());
    }

    #[test]
    fn sync_registry_rearms_watchdog_window() {
        let (mut b, id) = backup_with_object();
        let spec = b.store().get(id).unwrap().spec().clone();
        b.sync_registry(&[(id, spec, ms(50))], t(0));
        // New allowance = 50 + 10 + 5 = 65 ms.
        assert!(b.tick_watchdog(id, t(66)).is_some());
    }

    #[test]
    fn sync_registry_drops_objects_the_registry_no_longer_lists() {
        let (mut b, kept) = backup_with_object();
        let shed = ObjectId::new(1);
        b.sync_registration(shed, spec(), ms(195), Time::ZERO);
        b.sync_registry(&[(kept, spec(), ms(195))], t(0));
        assert_eq!(b.store().ids().collect::<Vec<_>>(), vec![kept]);
        assert!(b.tick_watchdog(shed, t(10_000)).is_none());
        // A promotion rebuilds the registry from the mirrored store.
        assert!(b.promote(t(1)).send_period(shed).is_none());
    }

    #[test]
    fn stale_epoch_update_never_reaches_the_store() {
        let (mut b, id) = backup_with_object();
        // Adopt epoch 1 from a fresh update.
        b.handle_message(&update_at_epoch(Epoch::new(1), id, 3, 10), t(12));
        assert_eq!(b.epoch(), Epoch::new(1));
        // A deposed primary streams a *newer version* at the old epoch:
        // fenced, even though the version would have won the version race.
        let out = b.handle_message(&update_at_epoch(Epoch::INITIAL, id, 9, 20), t(22));
        assert!(out.applied.is_empty());
        assert_eq!(out.fenced, vec![(Epoch::INITIAL, Epoch::new(1))]);
        assert_eq!(b.store().get(id).unwrap().version(), Version::new(3));
    }

    #[test]
    fn an_abandoned_join_refuses_reads_until_a_catch_up_lands() {
        let (mut b, id) = backup_with_object();
        b.handle_message(&update(id, 1, 5), t(6));
        assert!(matches!(
            b.serve_read(id, None, t(7)),
            BackupRead::Served { .. }
        ));
        // A rejoin whose every request goes unanswered gives up, and the
        // store still holds its pre-outage image.
        let _ = b.begin_join(t(10));
        let mut now = t(10);
        while !b.join_abandoned() {
            now += ms(1_000);
            let _ = b.tick_join(now);
        }
        assert!(!b.join_in_progress() && b.catching_up());
        assert!(matches!(
            b.serve_read(id, None, now),
            BackupRead::Behind { .. }
        ));
        let request = WireMessage::ReadRequest {
            epoch: Epoch::INITIAL,
            from: NodeId::new(9),
            object: id,
            floor: None,
        };
        let out = b.handle_message(&request, now);
        assert!(matches!(
            out.sends[..],
            [(
                Route::Reply,
                WireMessage::ReadReply {
                    status: ReadStatus::Behind,
                    ..
                }
            )]
        ));
        // A catch-up frame that lands after all ends the abandonment.
        let transfer = WireMessage::StateTransfer {
            epoch: Epoch::INITIAL,
            head: 2,
            entries: vec![StateEntry {
                object: id,
                version: Version::new(2),
                timestamp: now,
                payload: vec![2],
            }],
        };
        b.handle_message(&transfer, now);
        assert!(!b.catching_up());
        assert!(matches!(
            b.serve_read(id, None, now),
            BackupRead::Served { .. }
        ));
    }

    #[test]
    fn stale_ping_earns_a_current_epoch_ack() {
        let (mut b, id) = backup_with_object();
        b.handle_message(&update_at_epoch(Epoch::new(2), id, 1, 5), t(6));
        let out = b.handle_message(
            &WireMessage::Ping {
                epoch: Epoch::INITIAL,
                from: NodeId::new(0),
                seq: 11,
                scrub: None,
            },
            t(7),
        );
        // The reply teaches the deposed sender the current epoch.
        assert_eq!(
            out.sends,
            vec![(
                Route::Reply,
                WireMessage::PingAck {
                    epoch: Epoch::new(2),
                    from: NodeId::new(1),
                    seq: 11
                }
            )]
        );
        assert_eq!(out.fenced, vec![(Epoch::INITIAL, Epoch::new(2))]);
    }

    #[test]
    fn stale_frames_do_not_feed_liveness_or_watchdogs() {
        let (mut b, id) = backup_with_object();
        b.handle_message(&update_at_epoch(Epoch::new(1), id, 1, 5), t(6));
        // Stale updates keep arriving but must not reset the watchdog.
        for k in 0..4u64 {
            b.handle_message(
                &update_at_epoch(Epoch::INITIAL, id, 10 + k, 50 + k),
                t(50 + k * 50),
            );
        }
        // Allowance = 195 + 10 + 5 = 210 ms from the *fresh* update at t=6.
        assert!(b.tick_watchdog(id, t(6 + 211)).is_some());
    }

    #[test]
    fn resync_cycle_retries_and_completes_on_diff() {
        let mut b = Backup::new(NodeId::new(0), ProtocolConfig::default());
        let id = ObjectId::new(0);
        b.sync_registration(id, spec(), ms(195), Time::ZERO);
        b.handle_message(&update_at_epoch(Epoch::new(1), id, 4, 5), t(6));
        let first = b.begin_resync(t(10));
        match &first {
            WireMessage::ResyncRequest {
                epoch,
                from,
                position,
                versions,
            } => {
                assert_eq!(*epoch, Epoch::new(1));
                assert_eq!(*from, NodeId::new(0));
                assert_eq!(*position, Some(LogPosition::new(Epoch::new(1), 4)));
                assert_eq!(versions, &vec![(id, Epoch::new(1), Version::new(4))]);
            }
            other => panic!("expected resync request, got {other:?}"),
        }
        // Unanswered: the retry is another resync request, not a join.
        let retry = b.tick_join(t(60)).expect("retry due");
        assert!(matches!(retry, WireMessage::ResyncRequest { .. }));
        // The diff completes the cycle and installs the missing state.
        let out = b.handle_message(
            &WireMessage::ResyncDiff {
                epoch: Epoch::new(1),
                head: 6,
                entries: vec![StateEntry {
                    object: id,
                    version: Version::new(6),
                    timestamp: t(55),
                    payload: vec![6],
                }],
            },
            t(70),
        );
        assert_eq!(out.applied.len(), 1);
        assert!(!b.join_in_progress());
        assert_eq!(b.store().get(id).unwrap().version(), Version::new(6));
    }

    #[test]
    fn resync_diff_overwrites_divergent_split_brain_values() {
        // This node, as a deposed primary, wrote version 9 under epoch 0
        // during the split-brain window. The successor (epoch 1) serves
        // version 3. The diff's epoch outranks the divergent value's
        // write epoch, so it must overwrite despite the lower version.
        let (mut b, id) = backup_with_object();
        b.handle_message(&update(id, 9, 20), t(22));
        assert_eq!(b.store().get(id).unwrap().version(), Version::new(9));
        let _ = b.begin_resync(t(30));
        let out = b.handle_message(
            &WireMessage::ResyncDiff {
                epoch: Epoch::new(1),
                head: 3,
                entries: vec![StateEntry {
                    object: id,
                    version: Version::new(3),
                    timestamp: t(25),
                    payload: vec![3],
                }],
            },
            t(35),
        );
        assert_eq!(out.applied, vec![(id, Version::new(3), t(25))]);
        let entry = b.store().get(id).unwrap();
        assert_eq!(entry.version(), Version::new(3));
        assert_eq!(entry.write_epoch(), Epoch::new(1));
        assert_eq!(entry.value().unwrap().payload(), &[3]);
        // Follow-up updates from the new regime continue normally.
        let out = b.handle_message(&update_at_epoch(Epoch::new(1), id, 4, 40), t(42));
        assert_eq!(out.applied.len(), 1, "successor updates must not stall");
    }

    #[test]
    fn promotion_after_resync_minted_epoch_exceeds_everything_seen() {
        let (mut b, id) = backup_with_object();
        b.handle_message(&update_at_epoch(Epoch::new(3), id, 1, 5), t(6));
        let p = b.promote(t(10));
        assert_eq!(p.epoch(), Epoch::new(4));
    }

    #[test]
    fn updates_advance_the_log_position_monotonically() {
        let (mut b, id) = backup_with_object();
        assert_eq!(b.log_position(), None);
        b.handle_message(&update(id, 3, 10), t(12));
        assert_eq!(b.log_position(), Some(LogPosition::new(Epoch::INITIAL, 3)));
        // An out-of-order (lower-seq) duplicate never moves it backward.
        b.handle_message(&update(id, 1, 5), t(13));
        assert_eq!(b.log_position(), Some(LogPosition::new(Epoch::INITIAL, 3)));
        // A higher epoch outranks any seq of the old log.
        b.handle_message(&update_at_epoch(Epoch::new(1), id, 1, 20), t(21));
        assert_eq!(b.log_position(), Some(LogPosition::new(Epoch::new(1), 1)));
        // ...and stale-epoch frames are fenced before they can touch it.
        b.handle_message(&update_at_epoch(Epoch::INITIAL, id, 99, 30), t(31));
        assert_eq!(b.log_position(), Some(LogPosition::new(Epoch::new(1), 1)));
    }

    #[test]
    fn join_request_advertises_the_position() {
        let (mut b, id) = backup_with_object();
        b.handle_message(&update(id, 5, 10), t(12));
        match b.begin_join(t(20)) {
            WireMessage::JoinRequest { position, .. } => {
                assert_eq!(position, Some(LogPosition::new(Epoch::INITIAL, 5)));
            }
            other => panic!("expected join request, got {other:?}"),
        }
        // Retries advertise it too.
        match b.tick_join(t(10_000)) {
            Some(WireMessage::JoinRequest { position, .. }) => {
                assert_eq!(position, Some(LogPosition::new(Epoch::INITIAL, 5)));
            }
            other => panic!("expected join retry, got {other:?}"),
        }
    }

    #[test]
    fn log_suffix_completes_the_join_and_stamps_the_head() {
        let (mut b, id) = backup_with_object();
        b.handle_message(&update(id, 2, 10), t(12));
        let _ = b.begin_join(t(20));
        let out = b.handle_message(
            &WireMessage::LogSuffix {
                epoch: Epoch::INITIAL,
                head: 4,
                entries: vec![StateEntry {
                    object: id,
                    version: Version::new(4),
                    timestamp: t(18),
                    payload: vec![4],
                }],
            },
            t(25),
        );
        assert_eq!(out.applied, vec![(id, Version::new(4), t(18))]);
        assert!(!b.join_in_progress());
        assert_eq!(b.store().get(id).unwrap().version(), Version::new(4));
        assert_eq!(b.log_position(), Some(LogPosition::new(Epoch::INITIAL, 4)));
        // An empty suffix (already caught up) still completes the cycle.
        let _ = b.begin_join(t(30));
        b.handle_message(
            &WireMessage::LogSuffix {
                epoch: Epoch::INITIAL,
                head: 4,
                entries: vec![],
            },
            t(35),
        );
        assert!(!b.join_in_progress());
    }
}
