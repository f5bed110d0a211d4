//! The typed event taxonomy of the hot protocol paths.
//!
//! Every observable protocol action is one [`EventKind`] variant; the bus
//! stamps it into an [`ObsEvent`] with a sequence number and a timestamp
//! in either the **virtual** clock domain (simulation) or the **real**
//! one (the thread runtime). Keeping the taxonomy closed (an enum, not
//! free-form strings) is what makes the JSONL export schema-checkable
//! and the determinism test byte-exact.

use crate::json::{JsonObject, JsonValue};
use rtpb_types::{NodeId, ObjectId, Time, TimeDelta, Version};
use std::collections::BTreeMap;

/// Which clock stamped an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Virtual time from the discrete-event simulator (deterministic).
    Virtual,
    /// Real time from the thread runtime's monotonic clock.
    Real,
}

impl ClockDomain {
    /// The schema name of the domain.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ClockDomain::Virtual => "virtual",
            ClockDomain::Real => "real",
        }
    }
}

/// A failover/role state, for [`EventKind::RoleTransition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Serving as the primary.
    Primary,
    /// Tracking the primary as a backup.
    Backup,
    /// Crashed / not serving.
    Down,
    /// Re-integrating via join + state transfer.
    Joining,
}

impl Role {
    /// The schema name of the role.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Backup => "backup",
            Role::Down => "down",
            Role::Joining => "joining",
        }
    }
}

/// One structured protocol event.
///
/// Non-exhaustive: the taxonomy grows with the protocol. Downstream
/// matches need a wildcard arm; the schema validator and JSONL writer in
/// this crate stay exhaustive.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EventKind {
    /// The primary transmitted an update toward a backup.
    UpdateSent {
        /// Updated object.
        object: ObjectId,
        /// Version carried by the update.
        version: Version,
        /// Destination backup.
        to: NodeId,
        /// Whether the link dropped it (known in simulation only).
        lost: bool,
    },
    /// The primary transmitted a coalesced batch frame toward a backup.
    /// The contained updates are reported individually as
    /// [`EventKind::UpdateSent`] with the frame's shared loss outcome.
    BatchSent {
        /// Destination backup.
        to: NodeId,
        /// Number of sub-messages carried by the frame.
        size: u64,
        /// Whether the link dropped the whole frame (one decision per
        /// frame; known in simulation only).
        lost: bool,
    },
    /// A backup applied an update to its store.
    UpdateApplied {
        /// Updated object.
        object: ObjectId,
        /// Version installed.
        version: Version,
        /// The applying backup.
        node: NodeId,
    },
    /// A backup's watchdog requested a retransmission for a stale object.
    RetransmitRequested {
        /// The stale object.
        object: ObjectId,
        /// The requesting backup.
        node: NodeId,
    },
    /// A heartbeat probe was sent.
    HeartbeatSent {
        /// Probe origin.
        from: NodeId,
        /// Probe destination.
        to: NodeId,
    },
    /// A failure detector expired: `from` declared `peer` dead.
    HeartbeatMissed {
        /// The node whose detector fired.
        from: NodeId,
        /// The peer declared dead.
        peer: NodeId,
    },
    /// A node changed role (promotion, crash, re-join).
    RoleTransition {
        /// The node transitioning.
        node: NodeId,
        /// Role before.
        from: Role,
        /// Role after.
        to: Role,
    },
    /// Admission control decided on a registration request.
    AdmissionDecision {
        /// The object id (the would-be id on rejection).
        object: ObjectId,
        /// Whether the object was admitted.
        admitted: bool,
        /// Machine-readable reason (empty when admitted).
        reason: String,
    },
    /// A client write completed at the serving primary.
    ClientWrite {
        /// Written object.
        object: ObjectId,
        /// Version produced.
        version: Version,
        /// Write-arrival to completion latency.
        response: TimeDelta,
    },
    /// A client read was served locally by a replica (or the primary,
    /// for strong reads) with a staleness certificate attached.
    ReadServed {
        /// Read object.
        object: ObjectId,
        /// Node that answered the read.
        served_by: NodeId,
        /// Version attested by the certificate.
        version: Version,
        /// Certificate age bound (zero for strong reads).
        age_bound: TimeDelta,
        /// Requested consistency level (e.g. `"bounded"`, `"monotonic"`).
        consistency: &'static str,
    },
    /// A client read could not be served by any eligible replica and
    /// was redirected to the serving primary.
    ReadRedirected {
        /// Read object.
        object: ObjectId,
        /// The primary the read was redirected to.
        primary: NodeId,
        /// Requested consistency level.
        consistency: &'static str,
        /// Machine-readable reason (e.g. `"behind_floor"`, `"bound_unmet"`).
        reason: &'static str,
    },
    /// A fault-plan fault was injected.
    FaultInjected {
        /// Fault kind name (e.g. `"primary_crash"`).
        fault: &'static str,
        /// Index into the fault report.
        record: u64,
    },
    /// The protocol first reacted to an injected fault.
    FaultDetected {
        /// Index into the fault report.
        record: u64,
    },
    /// An injected fault healed (cluster whole again).
    FaultRecovered {
        /// Index into the fault report.
        record: u64,
    },
    /// The link dropped a message (loss, burst, outage window).
    LinkDropped {
        /// Wire size of the dropped message.
        bytes: u64,
        /// Link label (e.g. `"p2b[0]"`).
        link: String,
    },
    /// A sender refused a frame larger than the network's datagram
    /// limit; the frame never reached a link.
    SendRejected {
        /// The sending node.
        from: NodeId,
        /// The intended destination.
        to: NodeId,
        /// Encoded size of the refused frame.
        bytes: u64,
    },
    /// The link duplicated or reordered a delivery.
    LinkPerturbed {
        /// `"duplicate"` or `"reorder"`.
        effect: &'static str,
        /// Link label.
        link: String,
    },
    /// An object was shed under overload (graceful degradation).
    ObjectShed {
        /// The shed object.
        object: ObjectId,
    },
    /// A replica fenced a frame carrying an epoch older than its own
    /// (split-brain protection: the sender was deposed).
    StaleEpochRejected {
        /// The fencing replica.
        node: NodeId,
        /// The stale epoch the frame carried.
        frame_epoch: u64,
        /// The fencing replica's current epoch.
        local_epoch: u64,
    },
    /// A deposed primary observed a higher epoch and stepped down.
    PrimaryDemoted {
        /// The demoted node.
        node: NodeId,
        /// The epoch it served under.
        from_epoch: u64,
        /// The successor epoch it observed.
        to_epoch: u64,
    },
    /// A demoted replica began anti-entropy resync with the successor.
    ResyncStarted {
        /// The resyncing replica.
        node: NodeId,
        /// Objects whose versions it reported.
        objects: u64,
    },
    /// A resync diff landed; the replica is consistent with the
    /// successor's history again.
    ResyncCompleted {
        /// The resynced replica.
        node: NodeId,
    },
    /// The primary decided how to re-integrate a re-joining replica:
    /// replay a log suffix, ship a snapshot-bounded partial transfer, or
    /// fall back to a full state transfer.
    CatchUpPlan {
        /// The re-joining replica.
        node: NodeId,
        /// Chosen path: `"log_suffix"`, `"snapshot_diff"`, or
        /// `"full_transfer"`.
        path: &'static str,
        /// Log records between the replica's position and the head.
        gap: u64,
        /// Entries shipped by the chosen reply.
        records: u64,
        /// Encoded size of the reply frame.
        bytes: u64,
    },
    /// The primary snapshotted its store and truncated the update log.
    StoreSnapshot {
        /// The snapshotting primary.
        node: NodeId,
        /// Log head sequence captured by the snapshot (named `head`, not
        /// `seq`, because every JSONL line already carries the bus
        /// sequence number as `seq`).
        head: u64,
        /// Records retained in the log after truncation.
        log_len: u64,
    },
    /// A node's temporal monitor observed evidence contradicting the
    /// configured timing envelope (clock skew or link delay bound).
    TimingViolation {
        /// The node that observed the violation.
        node: NodeId,
        /// Which evidence source fired: `"round_trip_exceeded"`,
        /// `"timestamp_from_future"`, `"renewal_from_future"`,
        /// `"local_clock_regression"`, or `"clock_stalled"`.
        evidence: &'static str,
        /// The observed quantity, in nanoseconds (round-trip time, how far
        /// ahead a timestamp was, regression magnitude, …).
        observed_ns: u64,
        /// The envelope bound the observation exceeded, in nanoseconds.
        bound_ns: u64,
    },
    /// A node entered degraded mode after a timing violation: certificate
    /// minting, admissions, and lease renewal stop until the envelope
    /// holds again for the configured quiet period.
    MonitorDegraded {
        /// The degrading node.
        node: NodeId,
    },
    /// A degraded node observed the envelope holding for the full quiet
    /// period and re-enabled its fast paths.
    MonitorRecovered {
        /// The recovering node.
        node: NodeId,
    },
    /// A checksum verification failed: a wire frame's CRC trailer, a
    /// retained log record, a log snapshot, or a stored object image no
    /// longer matched its checksum. The corrupted datum was contained
    /// (frame dropped, record withheld, entry quarantined) before any of
    /// its bytes could influence replicated state or a certificate.
    IntegrityViolation {
        /// The node that detected the corruption.
        node: NodeId,
        /// Which layer's check failed: `"frame"`, `"log_record"`,
        /// `"log_snapshot"`, or `"store_entry"`.
        source: &'static str,
        /// The object involved (`u64::MAX` when the corrupted datum
        /// names none, e.g. a frame that never parsed).
        object: u64,
    },
    /// A background scrub found a backup's per-range store digest
    /// diverging from the primary's; the backup initiates anti-entropy
    /// repair.
    ScrubDivergence {
        /// The diverging backup.
        node: NodeId,
        /// The diverging range index.
        range: u64,
        /// Total ranges the object space is divided into.
        ranges: u64,
    },
}

impl EventKind {
    /// The schema name of the event kind (the JSONL `kind` field).
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            EventKind::UpdateSent { .. } => "update_sent",
            EventKind::BatchSent { .. } => "batch_sent",
            EventKind::UpdateApplied { .. } => "update_applied",
            EventKind::RetransmitRequested { .. } => "retransmit_requested",
            EventKind::HeartbeatSent { .. } => "heartbeat_sent",
            EventKind::HeartbeatMissed { .. } => "heartbeat_missed",
            EventKind::RoleTransition { .. } => "role_transition",
            EventKind::AdmissionDecision { .. } => "admission_decision",
            EventKind::ClientWrite { .. } => "client_write",
            EventKind::ReadServed { .. } => "read_served",
            EventKind::ReadRedirected { .. } => "read_redirected",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::FaultDetected { .. } => "fault_detected",
            EventKind::FaultRecovered { .. } => "fault_recovered",
            EventKind::LinkDropped { .. } => "link_dropped",
            EventKind::SendRejected { .. } => "send_rejected",
            EventKind::LinkPerturbed { .. } => "link_perturbed",
            EventKind::ObjectShed { .. } => "object_shed",
            EventKind::StaleEpochRejected { .. } => "stale_epoch_rejected",
            EventKind::PrimaryDemoted { .. } => "primary_demoted",
            EventKind::ResyncStarted { .. } => "resync_started",
            EventKind::ResyncCompleted { .. } => "resync_completed",
            EventKind::CatchUpPlan { .. } => "catch_up_plan",
            EventKind::StoreSnapshot { .. } => "store_snapshot",
            EventKind::TimingViolation { .. } => "timing_violation",
            EventKind::MonitorDegraded { .. } => "monitor_degraded",
            EventKind::MonitorRecovered { .. } => "monitor_recovered",
            EventKind::IntegrityViolation { .. } => "integrity_violation",
            EventKind::ScrubDivergence { .. } => "scrub_divergence",
        }
    }
}

/// One stamped event as stored in the ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Bus-wide sequence number (total order across writers).
    pub seq: u64,
    /// Timestamp in `clock`'s domain, nanoseconds since its epoch.
    pub at: Time,
    /// Which clock produced `at`.
    pub clock: ClockDomain,
    /// What happened.
    pub kind: EventKind,
}

impl ObsEvent {
    /// Renders the event as one JSONL line (no trailing newline).
    ///
    /// Schema: every line carries `seq`, `t_ns`, `clock`, and `kind`;
    /// kind-specific payload fields follow in a fixed order.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut o = JsonObject::new();
        o.uint_field("seq", self.seq)
            .uint_field("t_ns", self.at.as_nanos())
            .str_field("clock", self.clock.name())
            .str_field("kind", self.kind.name());
        match &self.kind {
            EventKind::UpdateSent {
                object,
                version,
                to,
                lost,
            } => {
                o.uint_field("object", u64::from(object.index()))
                    .uint_field("version", version.value())
                    .uint_field("to", u64::from(to.index()))
                    .bool_field("lost", *lost);
            }
            EventKind::BatchSent { to, size, lost } => {
                o.uint_field("to", u64::from(to.index()))
                    .uint_field("size", *size)
                    .bool_field("lost", *lost);
            }
            EventKind::UpdateApplied {
                object,
                version,
                node,
            } => {
                o.uint_field("object", u64::from(object.index()))
                    .uint_field("version", version.value())
                    .uint_field("node", u64::from(node.index()));
            }
            EventKind::RetransmitRequested { object, node } => {
                o.uint_field("object", u64::from(object.index()))
                    .uint_field("node", u64::from(node.index()));
            }
            EventKind::HeartbeatSent { from, to } => {
                o.uint_field("from", u64::from(from.index()))
                    .uint_field("to", u64::from(to.index()));
            }
            EventKind::HeartbeatMissed { from, peer } => {
                o.uint_field("from", u64::from(from.index()))
                    .uint_field("peer", u64::from(peer.index()));
            }
            EventKind::RoleTransition { node, from, to } => {
                o.uint_field("node", u64::from(node.index()))
                    .str_field("from", from.name())
                    .str_field("to", to.name());
            }
            EventKind::AdmissionDecision {
                object,
                admitted,
                reason,
            } => {
                o.uint_field("object", u64::from(object.index()))
                    .bool_field("admitted", *admitted)
                    .str_field("reason", reason);
            }
            EventKind::ClientWrite {
                object,
                version,
                response,
            } => {
                o.uint_field("object", u64::from(object.index()))
                    .uint_field("version", version.value())
                    .uint_field("response_ns", response.as_nanos());
            }
            EventKind::ReadServed {
                object,
                served_by,
                version,
                age_bound,
                consistency,
            } => {
                o.uint_field("object", u64::from(object.index()))
                    .uint_field("served_by", u64::from(served_by.index()))
                    .uint_field("version", version.value())
                    .uint_field("age_bound_ns", age_bound.as_nanos())
                    .str_field("consistency", consistency);
            }
            EventKind::ReadRedirected {
                object,
                primary,
                consistency,
                reason,
            } => {
                o.uint_field("object", u64::from(object.index()))
                    .uint_field("primary", u64::from(primary.index()))
                    .str_field("consistency", consistency)
                    .str_field("reason", reason);
            }
            EventKind::FaultInjected { fault, record } => {
                o.str_field("fault", fault).uint_field("record", *record);
            }
            EventKind::FaultDetected { record } | EventKind::FaultRecovered { record } => {
                o.uint_field("record", *record);
            }
            EventKind::LinkDropped { bytes, link } => {
                o.uint_field("bytes", *bytes).str_field("link", link);
            }
            EventKind::SendRejected { from, to, bytes } => {
                o.uint_field("from", u64::from(from.index()))
                    .uint_field("to", u64::from(to.index()))
                    .uint_field("bytes", *bytes);
            }
            EventKind::LinkPerturbed { effect, link } => {
                o.str_field("effect", effect).str_field("link", link);
            }
            EventKind::ObjectShed { object } => {
                o.uint_field("object", u64::from(object.index()));
            }
            EventKind::StaleEpochRejected {
                node,
                frame_epoch,
                local_epoch,
            } => {
                o.uint_field("node", u64::from(node.index()))
                    .uint_field("frame_epoch", *frame_epoch)
                    .uint_field("local_epoch", *local_epoch);
            }
            EventKind::PrimaryDemoted {
                node,
                from_epoch,
                to_epoch,
            } => {
                o.uint_field("node", u64::from(node.index()))
                    .uint_field("from_epoch", *from_epoch)
                    .uint_field("to_epoch", *to_epoch);
            }
            EventKind::ResyncStarted { node, objects } => {
                o.uint_field("node", u64::from(node.index()))
                    .uint_field("objects", *objects);
            }
            EventKind::ResyncCompleted { node } => {
                o.uint_field("node", u64::from(node.index()));
            }
            EventKind::CatchUpPlan {
                node,
                path,
                gap,
                records,
                bytes,
            } => {
                o.uint_field("node", u64::from(node.index()))
                    .str_field("path", path)
                    .uint_field("gap", *gap)
                    .uint_field("records", *records)
                    .uint_field("bytes", *bytes);
            }
            EventKind::StoreSnapshot {
                node,
                head,
                log_len,
            } => {
                o.uint_field("node", u64::from(node.index()))
                    .uint_field("head", *head)
                    .uint_field("log_len", *log_len);
            }
            EventKind::TimingViolation {
                node,
                evidence,
                observed_ns,
                bound_ns,
            } => {
                o.uint_field("node", u64::from(node.index()))
                    .str_field("evidence", evidence)
                    .uint_field("observed_ns", *observed_ns)
                    .uint_field("bound_ns", *bound_ns);
            }
            EventKind::MonitorDegraded { node } => {
                o.uint_field("node", u64::from(node.index()));
            }
            EventKind::MonitorRecovered { node } => {
                o.uint_field("node", u64::from(node.index()));
            }
            EventKind::IntegrityViolation {
                node,
                source,
                object,
            } => {
                o.uint_field("node", u64::from(node.index()))
                    .str_field("source", source)
                    .uint_field("object", *object);
            }
            EventKind::ScrubDivergence {
                node,
                range,
                ranges,
            } => {
                o.uint_field("node", u64::from(node.index()))
                    .uint_field("range", *range)
                    .uint_field("ranges", *ranges);
            }
        }
        o.finish()
    }
}

/// Why a JSONL trace line failed schema validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The line is not a flat JSON object.
    Malformed(String),
    /// A required field is missing or has the wrong type.
    MissingField(&'static str),
    /// The `kind` field names no known event.
    UnknownKind(String),
    /// The `clock` field names no known domain.
    UnknownClock(String),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Malformed(e) => write!(f, "malformed line: {e}"),
            SchemaError::MissingField(k) => write!(f, "missing or mistyped field {k:?}"),
            SchemaError::UnknownKind(k) => write!(f, "unknown event kind {k:?}"),
            SchemaError::UnknownClock(c) => write!(f, "unknown clock domain {c:?}"),
        }
    }
}

impl std::error::Error for SchemaError {}

fn require_u64(map: &BTreeMap<String, JsonValue>, key: &'static str) -> Result<u64, SchemaError> {
    map.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or(SchemaError::MissingField(key))
}

fn require_str<'m>(
    map: &'m BTreeMap<String, JsonValue>,
    key: &'static str,
) -> Result<&'m str, SchemaError> {
    map.get(key)
        .and_then(JsonValue::as_str)
        .ok_or(SchemaError::MissingField(key))
}

fn require_bool(map: &BTreeMap<String, JsonValue>, key: &'static str) -> Result<(), SchemaError> {
    map.get(key)
        .and_then(JsonValue::as_bool)
        .map(|_| ())
        .ok_or(SchemaError::MissingField(key))
}

/// Validates one JSONL trace line against the event schema, returning the
/// `(seq, t_ns, kind)` triple on success.
///
/// # Errors
///
/// Returns a [`SchemaError`] describing the first violation.
pub fn validate_line(line: &str) -> Result<(u64, u64, String), SchemaError> {
    let map = crate::json::parse_flat(line).map_err(|e| SchemaError::Malformed(e.to_string()))?;
    let seq = require_u64(&map, "seq")?;
    let t_ns = require_u64(&map, "t_ns")?;
    let clock = require_str(&map, "clock")?;
    if clock != "virtual" && clock != "real" {
        return Err(SchemaError::UnknownClock(clock.to_string()));
    }
    let kind = require_str(&map, "kind")?.to_string();
    match kind.as_str() {
        "update_sent" => {
            require_u64(&map, "object")?;
            require_u64(&map, "version")?;
            require_u64(&map, "to")?;
            require_bool(&map, "lost")?;
        }
        "batch_sent" => {
            require_u64(&map, "to")?;
            require_u64(&map, "size")?;
            require_bool(&map, "lost")?;
        }
        "update_applied" => {
            require_u64(&map, "object")?;
            require_u64(&map, "version")?;
            require_u64(&map, "node")?;
        }
        "retransmit_requested" => {
            require_u64(&map, "object")?;
            require_u64(&map, "node")?;
        }
        "heartbeat_sent" => {
            require_u64(&map, "from")?;
            require_u64(&map, "to")?;
        }
        "heartbeat_missed" => {
            require_u64(&map, "from")?;
            require_u64(&map, "peer")?;
        }
        "role_transition" => {
            require_u64(&map, "node")?;
            require_str(&map, "from")?;
            require_str(&map, "to")?;
        }
        "admission_decision" => {
            require_u64(&map, "object")?;
            require_bool(&map, "admitted")?;
            require_str(&map, "reason")?;
        }
        "client_write" => {
            require_u64(&map, "object")?;
            require_u64(&map, "version")?;
            require_u64(&map, "response_ns")?;
        }
        "read_served" => {
            require_u64(&map, "object")?;
            require_u64(&map, "served_by")?;
            require_u64(&map, "version")?;
            require_u64(&map, "age_bound_ns")?;
            require_str(&map, "consistency")?;
        }
        "read_redirected" => {
            require_u64(&map, "object")?;
            require_u64(&map, "primary")?;
            require_str(&map, "consistency")?;
            require_str(&map, "reason")?;
        }
        "fault_injected" => {
            require_str(&map, "fault")?;
            require_u64(&map, "record")?;
        }
        "fault_detected" | "fault_recovered" => {
            require_u64(&map, "record")?;
        }
        "link_dropped" => {
            require_u64(&map, "bytes")?;
            require_str(&map, "link")?;
        }
        "send_rejected" => {
            require_u64(&map, "from")?;
            require_u64(&map, "to")?;
            require_u64(&map, "bytes")?;
        }
        "link_perturbed" => {
            require_str(&map, "effect")?;
            require_str(&map, "link")?;
        }
        "object_shed" => {
            require_u64(&map, "object")?;
        }
        "stale_epoch_rejected" => {
            require_u64(&map, "node")?;
            require_u64(&map, "frame_epoch")?;
            require_u64(&map, "local_epoch")?;
        }
        "primary_demoted" => {
            require_u64(&map, "node")?;
            require_u64(&map, "from_epoch")?;
            require_u64(&map, "to_epoch")?;
        }
        "resync_started" => {
            require_u64(&map, "node")?;
            require_u64(&map, "objects")?;
        }
        "resync_completed" => {
            require_u64(&map, "node")?;
        }
        "catch_up_plan" => {
            require_u64(&map, "node")?;
            require_str(&map, "path")?;
            require_u64(&map, "gap")?;
            require_u64(&map, "records")?;
            require_u64(&map, "bytes")?;
        }
        "store_snapshot" => {
            require_u64(&map, "node")?;
            require_u64(&map, "head")?;
            require_u64(&map, "log_len")?;
        }
        "timing_violation" => {
            require_u64(&map, "node")?;
            require_str(&map, "evidence")?;
            require_u64(&map, "observed_ns")?;
            require_u64(&map, "bound_ns")?;
        }
        "monitor_degraded" | "monitor_recovered" => {
            require_u64(&map, "node")?;
        }
        "integrity_violation" => {
            require_u64(&map, "node")?;
            require_str(&map, "source")?;
            require_u64(&map, "object")?;
        }
        "scrub_divergence" => {
            require_u64(&map, "node")?;
            require_u64(&map, "range")?;
            require_u64(&map, "ranges")?;
        }
        other => return Err(SchemaError::UnknownKind(other.to_string())),
    }
    Ok((seq, t_ns, kind))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn ev(kind: EventKind) -> ObsEvent {
        ObsEvent {
            seq: 1,
            at: Time::from_millis(5),
            clock: ClockDomain::Virtual,
            kind,
        }
    }

    /// One event of every kind.
    pub(crate) fn every_kind() -> Vec<EventKind> {
        vec![
            EventKind::UpdateSent {
                object: ObjectId::new(1),
                version: Version::new(3),
                to: NodeId::new(1),
                lost: false,
            },
            EventKind::BatchSent {
                to: NodeId::new(1),
                size: 12,
                lost: true,
            },
            EventKind::UpdateApplied {
                object: ObjectId::new(1),
                version: Version::new(3),
                node: NodeId::new(1),
            },
            EventKind::RetransmitRequested {
                object: ObjectId::new(1),
                node: NodeId::new(1),
            },
            EventKind::HeartbeatSent {
                from: NodeId::new(0),
                to: NodeId::new(1),
            },
            EventKind::HeartbeatMissed {
                from: NodeId::new(1),
                peer: NodeId::new(0),
            },
            EventKind::RoleTransition {
                node: NodeId::new(1),
                from: Role::Backup,
                to: Role::Primary,
            },
            EventKind::AdmissionDecision {
                object: ObjectId::new(2),
                admitted: false,
                reason: "utilization".into(),
            },
            EventKind::ClientWrite {
                object: ObjectId::new(1),
                version: Version::new(4),
                response: TimeDelta::from_micros(12),
            },
            EventKind::ReadServed {
                object: ObjectId::new(1),
                served_by: NodeId::new(2),
                version: Version::new(4),
                age_bound: TimeDelta::from_micros(250),
                consistency: "bounded",
            },
            EventKind::ReadRedirected {
                object: ObjectId::new(1),
                primary: NodeId::new(0),
                consistency: "read_your_writes",
                reason: "behind_floor",
            },
            EventKind::FaultInjected {
                fault: "loss_burst",
                record: 0,
            },
            EventKind::FaultDetected { record: 0 },
            EventKind::FaultRecovered { record: 0 },
            EventKind::LinkDropped {
                bytes: 96,
                link: "p2b[0]".into(),
            },
            EventKind::SendRejected {
                from: NodeId::new(0),
                to: NodeId::new(1),
                bytes: 78_361,
            },
            EventKind::LinkPerturbed {
                effect: "duplicate",
                link: "p2b[0]".into(),
            },
            EventKind::ObjectShed {
                object: ObjectId::new(7),
            },
            EventKind::StaleEpochRejected {
                node: NodeId::new(2),
                frame_epoch: 1,
                local_epoch: 2,
            },
            EventKind::PrimaryDemoted {
                node: NodeId::new(0),
                from_epoch: 1,
                to_epoch: 2,
            },
            EventKind::ResyncStarted {
                node: NodeId::new(0),
                objects: 4,
            },
            EventKind::ResyncCompleted {
                node: NodeId::new(0),
            },
            EventKind::CatchUpPlan {
                node: NodeId::new(1),
                path: "log_suffix",
                gap: 12,
                records: 12,
                bytes: 900,
            },
            EventKind::StoreSnapshot {
                node: NodeId::new(0),
                head: 256,
                log_len: 128,
            },
            EventKind::TimingViolation {
                node: NodeId::new(1),
                evidence: "round_trip_exceeded",
                observed_ns: 45_000_000,
                bound_ns: 30_000_000,
            },
            EventKind::MonitorDegraded {
                node: NodeId::new(1),
            },
            EventKind::MonitorRecovered {
                node: NodeId::new(1),
            },
            EventKind::IntegrityViolation {
                node: NodeId::new(1),
                source: "frame",
                object: u64::MAX,
            },
            EventKind::ScrubDivergence {
                node: NodeId::new(1),
                range: 3,
                ranges: 8,
            },
        ]
    }

    #[test]
    fn every_kind_serializes_schema_valid() {
        for kind in every_kind() {
            let name = kind.name();
            let line = ev(kind).to_jsonl();
            let (seq, t_ns, parsed) =
                validate_line(&line).unwrap_or_else(|e| panic!("{name}: {e}\n{line}"));
            assert_eq!(seq, 1);
            assert_eq!(t_ns, 5_000_000);
            assert_eq!(parsed, name);
        }
    }

    #[test]
    fn validator_rejects_missing_fields_and_unknown_kinds() {
        assert!(matches!(
            validate_line(r#"{"seq":1,"t_ns":0,"clock":"virtual","kind":"update_sent"}"#),
            Err(SchemaError::MissingField("object"))
        ));
        assert!(matches!(
            validate_line(r#"{"seq":1,"t_ns":0,"clock":"virtual","kind":"nope"}"#),
            Err(SchemaError::UnknownKind(_))
        ));
        assert!(matches!(
            validate_line(
                r#"{"seq":1,"t_ns":0,"clock":"lunar","kind":"fault_detected","record":0}"#
            ),
            Err(SchemaError::UnknownClock(_))
        ));
        assert!(matches!(
            validate_line("not json"),
            Err(SchemaError::Malformed(_))
        ));
    }

    #[test]
    fn send_rejected_round_trips_through_jsonl() {
        let line = ev(EventKind::SendRejected {
            from: NodeId::new(0),
            to: NodeId::new(2),
            bytes: 78_361,
        })
        .to_jsonl();
        assert_eq!(
            validate_line(&line).unwrap(),
            (1, 5_000_000, "send_rejected".to_string())
        );
        let map = crate::json::parse_flat(&line).unwrap();
        let field = |k: &str| map.get(k).and_then(JsonValue::as_u64);
        assert_eq!(field("from"), Some(0));
        assert_eq!(field("to"), Some(2));
        assert_eq!(field("bytes"), Some(78_361));
        assert!(matches!(
            validate_line(
                r#"{"seq":1,"t_ns":0,"clock":"virtual","kind":"send_rejected","from":0,"to":1}"#
            ),
            Err(SchemaError::MissingField("bytes"))
        ));
    }
}
