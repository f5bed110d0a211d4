//! The RTPB wire protocol: message types and binary codec.
//!
//! This codec is RTPB's anchor protocol (paper §4.1): the messages the
//! primary and backup exchange are object updates, heartbeat pings/acks,
//! backup-initiated retransmission requests (§4.3), the state-transfer
//! messages used to integrate a new backup after a failure (§4.4), and the
//! anti-entropy resync exchange a deposed primary runs after a partition
//! heals.
//!
//! Every frame carries the sender's **fencing epoch** immediately after the
//! type tag: a monotonically increasing token minted at promotion. Receivers
//! reject frames from epochs lower than the highest they have observed, so
//! a deposed primary on the far side of a partition cannot overwrite state
//! owned by its successor (see `DESIGN.md` §10).
//!
//! The codec is a hand-rolled length-prefixed binary format so that the
//! simulated network carries real bytes (and so corruption tests are
//! meaningful), not in-process object references.
//!
//! Every **outermost** frame ends in a 4-byte CRC32C trailer computed over
//! the frame body at [`WireMessage::encode_into`] time and verified first
//! thing by [`WireFrame::parse`] (DESIGN.md §15). Batch sub-frames are
//! covered by their enclosing frame's checksum and carry no trailer of
//! their own. A frame whose trailer does not match is rejected with the
//! typed [`CodecError::ChecksumMismatch`] before any field of the body is
//! interpreted — corruption can never panic the decoder or smuggle a
//! plausible-but-wrong field value past it.

use core::fmt;
use rtpb_types::{crc32c, Epoch, LogPosition, NodeId, ObjectId, Time, TimeDelta, Version};
use std::error::Error;

/// A decoded RTPB protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireMessage {
    /// An object update from the primary to the backup.
    Update {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The object being refreshed.
        object: ObjectId,
        /// Version counter at the primary.
        version: Version,
        /// The primary-side timestamp of this version (the client write's
        /// completion time — the paper's `T_i^P`).
        timestamp: Time,
        /// Sequence number in the sender's update log of the newest write
        /// to this object (0 when the object has no logged write under the
        /// sender's epoch). Backups advance their `LogPosition` from this,
        /// so a later re-join can be served as a log suffix.
        seq: u64,
        /// The object payload.
        payload: Vec<u8>,
    },
    /// A liveness probe (either direction).
    Ping {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The sender.
        from: NodeId,
        /// Probe sequence number, echoed in the ack.
        seq: u64,
        /// A background-scrub digest the primary piggybacks on its
        /// heartbeats (DESIGN.md §15). `None` on backup-originated pings
        /// and when scrubbing is disabled.
        scrub: Option<ScrubDigest>,
    },
    /// Acknowledgement of a [`WireMessage::Ping`].
    ///
    /// The ack carries the responder's *current* epoch, which may be higher
    /// than the probe's: that is how a deposed primary learns, after a
    /// partition heals, that it has been superseded.
    PingAck {
        /// The responder's fencing epoch.
        epoch: Epoch,
        /// The responder.
        from: NodeId,
        /// The probe sequence number being acknowledged.
        seq: u64,
    },
    /// The backup asks the primary to re-send an object it believes is
    /// stale (loss compensation, §4.3).
    RetransmitRequest {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The stale object.
        object: ObjectId,
        /// The newest version the backup holds.
        have_version: Version,
    },
    /// A node asks to join the service as the new backup (§4.4).
    JoinRequest {
        /// The highest epoch the joiner has observed.
        epoch: Epoch,
        /// The joining node.
        from: NodeId,
        /// The last update-log position the joiner applied, if it has one
        /// (a restarted backup rejoining with retained state). The primary
        /// serves the gap as a log suffix or snapshot diff when it can;
        /// `None` always yields a full state transfer.
        position: Option<LogPosition>,
    },
    /// Acknowledgement of one applied update. Only sent when the
    /// `ack_updates` ablation is enabled — the paper's design avoids
    /// per-update acks (§4.3).
    UpdateAck {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The acknowledged object.
        object: ObjectId,
        /// The version now installed at the backup.
        version: Version,
    },
    /// Full state transfer installing a joining backup: one entry per
    /// registered object.
    StateTransfer {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The sender's update-log head when the transfer was cut: the
        /// receiver's new log position is `(epoch, head)`.
        head: u64,
        /// `(object, version, timestamp, payload)` for every object.
        entries: Vec<StateEntry>,
    },
    /// A coalesced frame carrying several sub-messages as one wire unit.
    ///
    /// The batched update pipeline gathers every update due within the
    /// coalescing window into a single frame, so the link makes one
    /// loss/delay decision for all of them. Batches cannot nest.
    Batch {
        /// The sender's fencing epoch (sub-messages carry it too; the
        /// frame-level copy lets receivers fence a whole batch cheaply).
        epoch: Epoch,
        /// The coalesced sub-messages, in send order.
        messages: Vec<WireMessage>,
    },
    /// A deposed primary opens anti-entropy resync: it reports its
    /// per-object version vector so the new primary can compute a diff.
    ResyncRequest {
        /// The highest epoch the requester has observed (at least the new
        /// primary's epoch, learned from the frame that demoted it).
        epoch: Epoch,
        /// The requesting node.
        from: NodeId,
        /// The last update-log position the requester applied, if any —
        /// lets the new primary serve the resync as a log suffix when its
        /// log still covers the gap.
        position: Option<LogPosition>,
        /// `(object, write_epoch, version)` for every object the requester
        /// holds. The write epoch is the regime the requester's image of
        /// that object was written under: bare version counters from
        /// different epochs are incomparable (a deposed primary may have
        /// run its counter past the successor's), so the diff is computed
        /// on the lexicographic `(write_epoch, version)` tag.
        versions: Vec<(ObjectId, Epoch, Version)>,
    },
    /// The new primary's reply to a [`WireMessage::ResyncRequest`]: every
    /// object whose authoritative version is newer than the requester's.
    ResyncDiff {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The sender's update-log head when the diff was cut: the
        /// receiver's new log position is `(epoch, head)`.
        head: u64,
        /// Entries the requester must install to catch up.
        entries: Vec<StateEntry>,
    },
    /// The suffix of the primary's update log covering a re-joining
    /// backup's gap — the cheap catch-up path: its cost scales with the
    /// outage length, not the store size. Entries are batched and
    /// length-prefixed like [`WireMessage::Batch`] sub-frames and are
    /// replayed through the receiving store's epoch-aware `(write_epoch,
    /// version)` ordering, so replay is idempotent and reorder-safe.
    LogSuffix {
        /// The sender's fencing epoch (the epoch the log belongs to).
        epoch: Epoch,
        /// The sender's log head: the receiver's position after replaying
        /// every entry is `(epoch, head)`.
        head: u64,
        /// The missing records, oldest first, one entry per record.
        entries: Vec<StateEntry>,
    },
    /// A client read routed to a replica (or the primary, for strong
    /// reads). Reads never assert write authority, so replicas answer
    /// them even when the requester's epoch is stale — the reply carries
    /// the server's current epoch, which is how a lagging client learns
    /// about a failover.
    ReadRequest {
        /// The highest fencing epoch the requester has observed.
        epoch: Epoch,
        /// The requesting node.
        from: NodeId,
        /// The object to read.
        object: ObjectId,
        /// The session floor: the minimum update-log position the server
        /// must have applied for its answer to respect the requester's
        /// monotonic-read / read-your-writes guarantees. `None` imposes
        /// no floor.
        floor: Option<LogPosition>,
    },
    /// A replica's answer to a [`WireMessage::ReadRequest`].
    ReadReply {
        /// The responder's *current* fencing epoch (may exceed the
        /// request's).
        epoch: Epoch,
        /// The object that was read.
        object: ObjectId,
        /// Whether the read was served, refused as behind the session
        /// floor, or unknown at this replica.
        status: ReadStatus,
        /// The fencing epoch the served value was written under
        /// (meaningful only when `status` is [`ReadStatus::Served`]).
        write_epoch: Epoch,
        /// The served value's version (meaningful only when served).
        version: Version,
        /// The server's staleness bound for the served value at serve
        /// time (meaningful only when served).
        age_bound: TimeDelta,
        /// The server's last applied update-log position, if any — the
        /// requester folds it into its session token.
        position: Option<LogPosition>,
        /// The served value (empty unless `status` is
        /// [`ReadStatus::Served`]).
        payload: Vec<u8>,
    },
}

/// The disposition of one [`WireMessage::ReadReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// The value and its staleness certificate are in the reply.
    Served,
    /// The replica's applied log position is behind the request's session
    /// floor; the requester should try another replica or the primary.
    Behind,
    /// The replica does not hold the object.
    Unknown,
    /// The replica's temporal monitor detected a timing-assumption
    /// violation: no sound staleness certificate can be minted, so the
    /// read is refused explicitly rather than served with a certificate
    /// that might lie (DESIGN.md §14).
    Unsound,
}

impl ReadStatus {
    /// The wire encoding of the status.
    #[must_use]
    pub const fn as_u8(self) -> u8 {
        match self {
            ReadStatus::Served => 0,
            ReadStatus::Behind => 1,
            ReadStatus::Unknown => 2,
            ReadStatus::Unsound => 3,
        }
    }

    /// Decodes a wire status byte.
    #[must_use]
    pub const fn from_u8(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(ReadStatus::Served),
            1 => Some(ReadStatus::Behind),
            2 => Some(ReadStatus::Unknown),
            3 => Some(ReadStatus::Unsound),
            _ => None,
        }
    }
}

/// A per-range store digest piggybacked on a primary heartbeat
/// [`WireMessage::Ping`] (DESIGN.md §15).
///
/// The primary walks its store in `ranges` fixed ranges (objects are
/// assigned by `id.index() % ranges`), one range per scrub tick, and
/// publishes the digest of the authoritative image alongside the log
/// head it was cut at. A backup that has applied at least that head
/// recomputes the digest over its own image of the range; divergence is
/// latent corruption (or a missed repair) and triggers anti-entropy
/// resync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubDigest {
    /// The range this digest covers, in `0..ranges`.
    pub range: u32,
    /// The total number of scrub ranges the store is partitioned into.
    pub ranges: u32,
    /// The primary's update-log head sequence when the digest was cut.
    /// Backups behind this head skip the comparison instead of reporting
    /// ordinary replication lag as divergence.
    pub head: u64,
    /// The digest of the range's authoritative object images.
    pub digest: u64,
}

/// One object's state in a [`WireMessage::StateTransfer`],
/// [`WireMessage::ResyncDiff`], or [`WireMessage::LogSuffix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateEntry {
    /// The object.
    pub object: ObjectId,
    /// Its version at the primary.
    pub version: Version,
    /// Its timestamp at the primary.
    pub timestamp: Time,
    /// Its payload.
    pub payload: Vec<u8>,
}

/// Why a byte buffer failed to decode.
///
/// Every variant carries enough context to diagnose the rejection from a
/// trace line alone: byte offsets are relative to the start of the
/// (sub-)frame being parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the message did.
    Truncated {
        /// Byte offset at which the decoder needed more input.
        at: usize,
    },
    /// The leading type tag is unknown.
    UnknownTag {
        /// The unrecognised tag byte.
        tag: u8,
    },
    /// A length field exceeds the remaining buffer or a sanity limit.
    BadLength {
        /// The implausible declared length (or count).
        len: usize,
        /// Byte offset of the offending field.
        at: usize,
    },
    /// Trailing bytes followed a complete message.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
        /// Byte offset at which the surplus starts.
        at: usize,
    },
    /// A [`WireMessage::Batch`] frame contained another batch.
    NestedBatch,
    /// The frame's CRC32C trailer did not match its body — the bytes
    /// were corrupted somewhere between [`WireMessage::encode_into`] and
    /// here. Checked before any body field is interpreted, so this is
    /// the error corruption faults surface as.
    ChecksumMismatch {
        /// The checksum the trailer claimed.
        expected: u32,
        /// The checksum the received body actually has.
        actual: u32,
        /// Total frame length (body plus trailer) as received.
        len: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { at } => write!(f, "message truncated at byte {at}"),
            CodecError::UnknownTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            CodecError::BadLength { len, at } => {
                write!(f, "implausible length field {len} at byte {at}")
            }
            CodecError::TrailingBytes { count, at } => {
                write!(f, "{count} trailing bytes after message at byte {at}")
            }
            CodecError::NestedBatch => write!(f, "batch frame nested inside a batch"),
            CodecError::ChecksumMismatch { expected, actual, len } => write!(
                f,
                "checksum mismatch on {len}-byte frame: trailer {expected:#010x}, body {actual:#010x}"
            ),
        }
    }
}

impl Error for CodecError {}

const TAG_UPDATE: u8 = 1;
const TAG_PING: u8 = 2;
const TAG_PING_ACK: u8 = 3;
const TAG_RETRANSMIT: u8 = 4;
const TAG_JOIN: u8 = 5;
const TAG_STATE: u8 = 6;
const TAG_UPDATE_ACK: u8 = 7;
const TAG_BATCH: u8 = 8;
const TAG_RESYNC_REQ: u8 = 9;
const TAG_RESYNC_DIFF: u8 = 10;
const TAG_LOG_SUFFIX: u8 = 11;
const TAG_READ_REQ: u8 = 12;
const TAG_READ_REPLY: u8 = 13;

/// Upper bound on any single decoded payload length or entry count:
/// a length field above this is rejected before any allocation.
pub const MAX_DECODE_LEN: usize = 1 << 24;

/// Upper bound on the *sum* of declared payload bytes across one frame
/// (batch sub-messages and catch-up entries included). Each payload is
/// individually capped by [`MAX_DECODE_LEN`], but a hostile batch could
/// otherwise stack many maximal payloads; the aggregate budget bounds
/// what a single frame can make the decoder hold.
pub const MAX_FRAME_PAYLOAD_TOTAL: usize = 1 << 26;

/// Length of the CRC32C trailer on every outermost frame.
pub const CRC_LEN: usize = 4;

impl WireMessage {
    /// Encodes the message to a fresh buffer.
    ///
    /// Convenience wrapper over [`WireMessage::encode_into`]; the hot
    /// send path should lease a pooled buffer instead
    /// (`rtpb_types::BufPool`) so steady-state encoding allocates
    /// nothing.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Appends this frame's encoding to `buf` — the zero-copy encode
    /// path. Batch sub-frames are written in place behind a backpatched
    /// length prefix, so coalescing never encodes into nested
    /// temporaries.
    ///
    /// Every frame shares the prefix `[tag u8][epoch u64]`, so fencing
    /// checks can run before the body is interpreted.
    ///
    /// # Panics
    ///
    /// Panics if a [`WireMessage::Batch`] contains another batch
    /// (batches cannot nest).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.encoded_len());
        let start = buf.len();
        self.encode_body(buf);
        let crc = crc32c(&buf[start..]);
        buf.extend_from_slice(&crc.to_be_bytes());
    }

    /// Appends the frame body (everything except the CRC32C trailer).
    /// Batch sub-frames are encoded with this, so only the outermost
    /// frame carries a trailer — the whole batch is covered by one
    /// checksum.
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            WireMessage::Update {
                epoch,
                object,
                version,
                timestamp,
                seq,
                payload,
            } => {
                buf.push(TAG_UPDATE);
                put_u64(buf, epoch.value());
                put_u32(buf, object.index());
                put_u64(buf, version.value());
                put_u64(buf, timestamp.as_nanos());
                put_u64(buf, *seq);
                put_bytes(buf, payload);
            }
            WireMessage::Ping {
                epoch,
                from,
                seq,
                scrub,
            } => {
                buf.push(TAG_PING);
                put_u64(buf, epoch.value());
                put_u32(buf, u32::from(from.index()));
                put_u64(buf, *seq);
                put_scrub(buf, *scrub);
            }
            WireMessage::PingAck { epoch, from, seq } => {
                buf.push(TAG_PING_ACK);
                put_u64(buf, epoch.value());
                put_u32(buf, u32::from(from.index()));
                put_u64(buf, *seq);
            }
            WireMessage::RetransmitRequest {
                epoch,
                object,
                have_version,
            } => {
                buf.push(TAG_RETRANSMIT);
                put_u64(buf, epoch.value());
                put_u32(buf, object.index());
                put_u64(buf, have_version.value());
            }
            WireMessage::JoinRequest {
                epoch,
                from,
                position,
            } => {
                buf.push(TAG_JOIN);
                put_u64(buf, epoch.value());
                put_u32(buf, u32::from(from.index()));
                put_position(buf, *position);
            }
            WireMessage::UpdateAck {
                epoch,
                object,
                version,
            } => {
                buf.push(TAG_UPDATE_ACK);
                put_u64(buf, epoch.value());
                put_u32(buf, object.index());
                put_u64(buf, version.value());
            }
            WireMessage::StateTransfer {
                epoch,
                head,
                entries,
            } => {
                buf.push(TAG_STATE);
                put_u64(buf, epoch.value());
                put_u64(buf, *head);
                put_u32(buf, entries.len() as u32);
                for e in entries {
                    put_entry(buf, e);
                }
            }
            WireMessage::Batch { epoch, messages } => {
                buf.push(TAG_BATCH);
                put_u64(buf, epoch.value());
                put_u32(buf, messages.len() as u32);
                for m in messages {
                    assert!(
                        !matches!(m, WireMessage::Batch { .. }),
                        "batches cannot nest"
                    );
                    // Sub-frame in place: reserve the length slot, encode
                    // directly into the shared buffer, backpatch.
                    let len_at = buf.len();
                    put_u32(buf, 0);
                    let body_at = buf.len();
                    m.encode_body(buf);
                    let len = (buf.len() - body_at) as u32;
                    buf[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
                }
            }
            WireMessage::ResyncRequest {
                epoch,
                from,
                position,
                versions,
            } => {
                buf.push(TAG_RESYNC_REQ);
                put_u64(buf, epoch.value());
                put_u32(buf, u32::from(from.index()));
                put_position(buf, *position);
                put_u32(buf, versions.len() as u32);
                for (object, write_epoch, version) in versions {
                    put_u32(buf, object.index());
                    put_u64(buf, write_epoch.value());
                    put_u64(buf, version.value());
                }
            }
            WireMessage::ResyncDiff {
                epoch,
                head,
                entries,
            } => {
                buf.push(TAG_RESYNC_DIFF);
                put_u64(buf, epoch.value());
                put_u64(buf, *head);
                put_u32(buf, entries.len() as u32);
                for e in entries {
                    put_entry(buf, e);
                }
            }
            WireMessage::LogSuffix {
                epoch,
                head,
                entries,
            } => {
                buf.push(TAG_LOG_SUFFIX);
                put_u64(buf, epoch.value());
                put_u64(buf, *head);
                put_u32(buf, entries.len() as u32);
                for e in entries {
                    put_entry(buf, e);
                }
            }
            WireMessage::ReadRequest {
                epoch,
                from,
                object,
                floor,
            } => {
                buf.push(TAG_READ_REQ);
                put_u64(buf, epoch.value());
                put_u32(buf, u32::from(from.index()));
                put_u32(buf, object.index());
                put_position(buf, *floor);
            }
            WireMessage::ReadReply {
                epoch,
                object,
                status,
                write_epoch,
                version,
                age_bound,
                position,
                payload,
            } => {
                buf.push(TAG_READ_REPLY);
                put_u64(buf, epoch.value());
                put_u32(buf, object.index());
                buf.push(status.as_u8());
                put_u64(buf, write_epoch.value());
                put_u64(buf, version.value());
                put_u64(buf, age_bound.as_nanos());
                put_position(buf, *position);
                put_bytes(buf, payload);
            }
        }
    }

    /// The exact number of bytes [`WireMessage::encode`] produces
    /// (CRC32C trailer included), computed without encoding — drivers
    /// that only need a frame's cost (CPU service time, link occupancy)
    /// call this instead of encoding a throwaway buffer.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.body_len() + CRC_LEN
    }

    /// Body length, excluding the trailer. Batch sub-frames use this
    /// directly (they carry no trailer of their own).
    fn body_len(&self) -> usize {
        // tag + epoch prefix on every frame.
        const PREFIX: usize = 1 + 8;
        fn position_len(p: &Option<LogPosition>) -> usize {
            match p {
                None => 1,
                Some(_) => 1 + 8 + 8,
            }
        }
        fn entry_len(e: &StateEntry) -> usize {
            4 + 8 + 8 + 4 + e.payload.len()
        }
        fn scrub_len(s: &Option<ScrubDigest>) -> usize {
            match s {
                None => 1,
                Some(_) => 1 + 4 + 4 + 8 + 8,
            }
        }
        match self {
            WireMessage::Update { payload, .. } => PREFIX + 4 + 8 + 8 + 8 + 4 + payload.len(),
            WireMessage::Ping { scrub, .. } => PREFIX + 4 + 8 + scrub_len(scrub),
            WireMessage::PingAck { .. }
            | WireMessage::RetransmitRequest { .. }
            | WireMessage::UpdateAck { .. } => PREFIX + 4 + 8,
            WireMessage::JoinRequest { position, .. } => PREFIX + 4 + position_len(position),
            WireMessage::StateTransfer { entries, .. }
            | WireMessage::ResyncDiff { entries, .. }
            | WireMessage::LogSuffix { entries, .. } => {
                PREFIX + 8 + 4 + entries.iter().map(entry_len).sum::<usize>()
            }
            WireMessage::Batch { messages, .. } => {
                PREFIX + 4 + messages.iter().map(|m| 4 + m.body_len()).sum::<usize>()
            }
            WireMessage::ResyncRequest {
                position, versions, ..
            } => PREFIX + 4 + position_len(position) + 4 + versions.len() * (4 + 8 + 8),
            WireMessage::ReadRequest { floor, .. } => PREFIX + 4 + 4 + position_len(floor),
            WireMessage::ReadReply {
                position, payload, ..
            } => PREFIX + 4 + 1 + 8 + 8 + 8 + position_len(position) + 4 + payload.len(),
        }
    }

    /// Decodes a message from bytes into the owned representation.
    ///
    /// This is the state-machine boundary: stores mutate and retain
    /// payloads, so they take owned buffers. Receive paths that only
    /// inspect or relay a frame should use [`WireFrame::parse`], which
    /// borrows payloads from the receive buffer instead of copying.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation, unknown tags, implausible
    /// lengths, or trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        WireFrame::parse(bytes).map(|frame| frame.to_owned())
    }

    /// The sender's fencing epoch carried by this frame.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        match self {
            WireMessage::Update { epoch, .. }
            | WireMessage::Ping { epoch, .. }
            | WireMessage::PingAck { epoch, .. }
            | WireMessage::RetransmitRequest { epoch, .. }
            | WireMessage::JoinRequest { epoch, .. }
            | WireMessage::UpdateAck { epoch, .. }
            | WireMessage::StateTransfer { epoch, .. }
            | WireMessage::Batch { epoch, .. }
            | WireMessage::ResyncRequest { epoch, .. }
            | WireMessage::ResyncDiff { epoch, .. }
            | WireMessage::LogSuffix { epoch, .. }
            | WireMessage::ReadRequest { epoch, .. }
            | WireMessage::ReadReply { epoch, .. } => *epoch,
        }
    }

    /// Number of object updates this frame carries (counting into
    /// batches), for frames-vs-messages accounting.
    #[must_use]
    pub fn update_count(&self) -> usize {
        match self {
            WireMessage::Update { .. } => 1,
            WireMessage::Batch { messages, .. } => {
                messages.iter().map(WireMessage::update_count).sum()
            }
            _ => 0,
        }
    }

    /// The updates this frame carries: the frame itself for a bare
    /// [`WireMessage::Update`], its members for a [`WireMessage::Batch`],
    /// none for anything else.
    #[must_use]
    pub fn carried_updates(&self) -> &[WireMessage] {
        match self {
            WireMessage::Update { .. } => std::slice::from_ref(self),
            WireMessage::Batch { messages, .. } => messages,
            _ => &[],
        }
    }

    /// The link-class rule both drivers route by: a frame rides the
    /// lossy data link when it carries updates or is catch-up traffic;
    /// any other frame is control traffic, which the paper assumes
    /// physical redundancy shields from loss (§4.1).
    #[must_use]
    pub fn rides_data_link(&self) -> bool {
        matches!(
            self,
            WireMessage::Update { .. }
                | WireMessage::Batch { .. }
                | WireMessage::JoinRequest { .. }
                | WireMessage::ResyncRequest { .. }
                | WireMessage::StateTransfer { .. }
                | WireMessage::ResyncDiff { .. }
                | WireMessage::LogSuffix { .. }
        )
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

fn put_entry(buf: &mut Vec<u8>, e: &StateEntry) {
    put_u32(buf, e.object.index());
    put_u64(buf, e.version.value());
    put_u64(buf, e.timestamp.as_nanos());
    put_bytes(buf, &e.payload);
}

fn put_position(buf: &mut Vec<u8>, position: Option<LogPosition>) {
    match position {
        None => buf.push(0),
        Some(p) => {
            buf.push(1);
            put_u64(buf, p.epoch().value());
            put_u64(buf, p.seq());
        }
    }
}

fn put_scrub(buf: &mut Vec<u8>, scrub: Option<ScrubDigest>) {
    match scrub {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            put_u32(buf, s.range);
            put_u32(buf, s.ranges);
            put_u64(buf, s.head);
            put_u64(buf, s.digest);
        }
    }
}

/// A decoded frame whose payloads borrow the receive buffer.
///
/// [`WireFrame::parse`] fully *validates* a frame (same checks, same
/// error precedence as [`WireMessage::decode`]) but copies nothing:
/// every payload is a `&'a [u8]` slice of the input, and repeated fields
/// (catch-up entries, batch sub-frames, resync version vectors) are
/// exposed as re-walking iterators over the validated byte region.
/// Receive paths inspect, meter, and route frames through this view;
/// only the state-machine boundary — where a store mutates and retains
/// the payload — materializes owned data (via [`WireFrame::to_owned`]
/// or a store's copy-from-slice apply).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireFrame<'a> {
    /// Borrowing view of [`WireMessage::Update`].
    Update {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The object being refreshed.
        object: ObjectId,
        /// Version counter at the primary.
        version: Version,
        /// The primary-side timestamp of this version.
        timestamp: Time,
        /// Update-log sequence number (see [`WireMessage::Update`]).
        seq: u64,
        /// The object payload, borrowed from the receive buffer.
        payload: &'a [u8],
    },
    /// Borrowing view of [`WireMessage::Ping`].
    Ping {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The sender.
        from: NodeId,
        /// Probe sequence number.
        seq: u64,
        /// Piggybacked scrub digest, if any (see [`WireMessage::Ping`]).
        scrub: Option<ScrubDigest>,
    },
    /// Borrowing view of [`WireMessage::PingAck`].
    PingAck {
        /// The responder's fencing epoch.
        epoch: Epoch,
        /// The responder.
        from: NodeId,
        /// The probe sequence number being acknowledged.
        seq: u64,
    },
    /// Borrowing view of [`WireMessage::RetransmitRequest`].
    RetransmitRequest {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The stale object.
        object: ObjectId,
        /// The newest version the backup holds.
        have_version: Version,
    },
    /// Borrowing view of [`WireMessage::JoinRequest`].
    JoinRequest {
        /// The highest epoch the joiner has observed.
        epoch: Epoch,
        /// The joining node.
        from: NodeId,
        /// The joiner's last applied log position, if any.
        position: Option<LogPosition>,
    },
    /// Borrowing view of [`WireMessage::UpdateAck`].
    UpdateAck {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The acknowledged object.
        object: ObjectId,
        /// The version now installed at the backup.
        version: Version,
    },
    /// Borrowing view of [`WireMessage::StateTransfer`].
    StateTransfer {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The sender's update-log head when the transfer was cut.
        head: u64,
        /// The shipped entries, payloads borrowed.
        entries: EntrySlice<'a>,
    },
    /// Borrowing view of [`WireMessage::Batch`].
    Batch {
        /// The frame-level fencing epoch.
        epoch: Epoch,
        /// The coalesced sub-frames, in send order.
        frames: FrameSlice<'a>,
    },
    /// Borrowing view of [`WireMessage::ResyncRequest`].
    ResyncRequest {
        /// The highest epoch the requester has observed.
        epoch: Epoch,
        /// The requesting node.
        from: NodeId,
        /// The requester's last applied log position, if any.
        position: Option<LogPosition>,
        /// The requester's tagged version vector.
        versions: VersionSlice<'a>,
    },
    /// Borrowing view of [`WireMessage::ResyncDiff`].
    ResyncDiff {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The sender's update-log head when the diff was cut.
        head: u64,
        /// Entries the requester must install, payloads borrowed.
        entries: EntrySlice<'a>,
    },
    /// Borrowing view of [`WireMessage::LogSuffix`].
    LogSuffix {
        /// The sender's fencing epoch.
        epoch: Epoch,
        /// The sender's log head.
        head: u64,
        /// The missing records, oldest first, payloads borrowed.
        entries: EntrySlice<'a>,
    },
    /// Borrowing view of [`WireMessage::ReadRequest`].
    ReadRequest {
        /// The highest fencing epoch the requester has observed.
        epoch: Epoch,
        /// The requesting node.
        from: NodeId,
        /// The object to read.
        object: ObjectId,
        /// The session floor, if any.
        floor: Option<LogPosition>,
    },
    /// Borrowing view of [`WireMessage::ReadReply`].
    ReadReply {
        /// The responder's current fencing epoch.
        epoch: Epoch,
        /// The object that was read.
        object: ObjectId,
        /// The read's disposition.
        status: ReadStatus,
        /// The fencing epoch the served value was written under.
        write_epoch: Epoch,
        /// The served value's version.
        version: Version,
        /// The server's staleness bound at serve time.
        age_bound: TimeDelta,
        /// The server's last applied log position, if any.
        position: Option<LogPosition>,
        /// The served value, borrowed from the receive buffer.
        payload: &'a [u8],
    },
}

/// One entry of a catch-up frame, payload borrowed from the receive
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateEntryRef<'a> {
    /// The object.
    pub object: ObjectId,
    /// Its version at the primary.
    pub version: Version,
    /// Its timestamp at the primary.
    pub timestamp: Time,
    /// Its payload.
    pub payload: &'a [u8],
}

impl StateEntryRef<'_> {
    /// Copies into the owned representation.
    #[must_use]
    pub fn to_owned(&self) -> StateEntry {
        StateEntry {
            object: self.object,
            version: self.version,
            timestamp: self.timestamp,
            payload: self.payload.to_vec(),
        }
    }
}

impl StateEntry {
    /// A borrowing view of this entry.
    #[must_use]
    pub fn as_ref(&self) -> StateEntryRef<'_> {
        StateEntryRef {
            object: self.object,
            version: self.version,
            timestamp: self.timestamp,
            payload: &self.payload,
        }
    }
}

/// The validated byte region holding a catch-up frame's entries.
///
/// Produced only by [`WireFrame::parse`], which has already walked and
/// validated every record — iteration re-walks the region and cannot
/// fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntrySlice<'a> {
    buf: &'a [u8],
    count: u32,
}

impl<'a> EntrySlice<'a> {
    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the frame carries no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the entries, payloads borrowed.
    #[must_use]
    pub fn iter(&self) -> EntryIter<'a> {
        EntryIter {
            r: Reader::new(self.buf),
            remaining: self.count,
        }
    }
}

impl<'a> IntoIterator for &EntrySlice<'a> {
    type Item = StateEntryRef<'a>;
    type IntoIter = EntryIter<'a>;

    fn into_iter(self) -> EntryIter<'a> {
        self.iter()
    }
}

/// Iterator over a validated [`EntrySlice`].
#[derive(Debug)]
pub struct EntryIter<'a> {
    r: Reader<'a>,
    remaining: u32,
}

impl<'a> Iterator for EntryIter<'a> {
    type Item = StateEntryRef<'a>;

    fn next(&mut self) -> Option<StateEntryRef<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // The region was validated at parse time; these reads cannot
        // fail on a slice produced by `WireFrame::parse`.
        let entry = (|| {
            Some(StateEntryRef {
                object: ObjectId::new(self.r.u32().ok()?),
                version: Version::new(self.r.u64().ok()?),
                timestamp: Time::from_nanos(self.r.u64().ok()?),
                payload: self.r.bytes_ref().ok()?,
            })
        })();
        debug_assert!(entry.is_some(), "EntrySlice regions are pre-validated");
        entry
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining as usize))
    }
}

/// The validated byte region holding a batch's sub-frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSlice<'a> {
    buf: &'a [u8],
    count: u32,
}

impl<'a> FrameSlice<'a> {
    /// Number of sub-frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the sub-frames as borrowing views.
    #[must_use]
    pub fn iter(&self) -> FrameIter<'a> {
        FrameIter {
            r: Reader::new(self.buf),
            remaining: self.count,
        }
    }
}

impl<'a> IntoIterator for &FrameSlice<'a> {
    type Item = WireFrame<'a>;
    type IntoIter = FrameIter<'a>;

    fn into_iter(self) -> FrameIter<'a> {
        self.iter()
    }
}

/// Iterator over a validated [`FrameSlice`].
#[derive(Debug)]
pub struct FrameIter<'a> {
    r: Reader<'a>,
    remaining: u32,
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = WireFrame<'a>;

    fn next(&mut self) -> Option<WireFrame<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Re-parsing a validated region: the budget was enforced at
        // parse time, so iteration runs with an unbounded one.
        let mut budget = usize::MAX;
        let frame = self
            .r
            .frame_bytes()
            .ok()
            .and_then(|sub| WireFrame::parse_sub(sub, &mut budget).ok());
        debug_assert!(frame.is_some(), "FrameSlice regions are pre-validated");
        frame
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining as usize))
    }
}

/// The validated byte region holding a resync request's version vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionSlice<'a> {
    buf: &'a [u8],
    count: u32,
}

impl<'a> VersionSlice<'a> {
    /// Number of reported objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the vector is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the `(object, write_epoch, version)` tags.
    #[must_use]
    pub fn iter(&self) -> VersionIter<'a> {
        VersionIter {
            r: Reader::new(self.buf),
            remaining: self.count,
        }
    }
}

impl<'a> IntoIterator for &VersionSlice<'a> {
    type Item = (ObjectId, Epoch, Version);
    type IntoIter = VersionIter<'a>;

    fn into_iter(self) -> VersionIter<'a> {
        self.iter()
    }
}

/// Iterator over a validated [`VersionSlice`].
#[derive(Debug)]
pub struct VersionIter<'a> {
    r: Reader<'a>,
    remaining: u32,
}

impl Iterator for VersionIter<'_> {
    type Item = (ObjectId, Epoch, Version);

    fn next(&mut self) -> Option<(ObjectId, Epoch, Version)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let tag = (|| {
            Some((
                ObjectId::new(self.r.u32().ok()?),
                Epoch::new(self.r.u64().ok()?),
                Version::new(self.r.u64().ok()?),
            ))
        })();
        debug_assert!(tag.is_some(), "VersionSlice regions are pre-validated");
        tag
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining as usize))
    }
}

impl<'a> WireFrame<'a> {
    /// Parses and fully validates a frame without copying payloads.
    ///
    /// The CRC32C trailer is verified **first**, over the whole body,
    /// before any field is interpreted — a corrupted frame is rejected
    /// as [`CodecError::ChecksumMismatch`] even when the flipped bits
    /// would still have produced a structurally valid parse. Validation
    /// of the body is byte-for-byte equivalent to the owned decoder
    /// (same errors, same precedence), including the whole-frame
    /// payload budget [`MAX_FRAME_PAYLOAD_TOTAL`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on checksum mismatch, truncation, unknown
    /// tags, implausible lengths, or trailing garbage.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CodecError> {
        if bytes.len() < CRC_LEN {
            return Err(CodecError::Truncated { at: bytes.len() });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - CRC_LEN);
        let expected = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let actual = crc32c(body);
        if expected != actual {
            return Err(CodecError::ChecksumMismatch {
                expected,
                actual,
                len: bytes.len(),
            });
        }
        let mut payload_budget = MAX_FRAME_PAYLOAD_TOTAL;
        Self::parse_inner(body, &mut payload_budget, true)
    }

    /// Parses a batch sub-frame (nested batches rejected up front).
    fn parse_sub(bytes: &'a [u8], payload_budget: &mut usize) -> Result<Self, CodecError> {
        Self::parse_inner(bytes, payload_budget, false)
    }

    fn parse_inner(
        bytes: &'a [u8],
        payload_budget: &mut usize,
        allow_batch: bool,
    ) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        if tag == TAG_BATCH && !allow_batch {
            return Err(CodecError::NestedBatch);
        }
        let epoch = Epoch::new(r.u64()?);
        let frame = match tag {
            TAG_UPDATE => WireFrame::Update {
                epoch,
                object: ObjectId::new(r.u32()?),
                version: Version::new(r.u64()?),
                timestamp: Time::from_nanos(r.u64()?),
                seq: r.u64()?,
                payload: r.payload(payload_budget)?,
            },
            TAG_PING => WireFrame::Ping {
                epoch,
                from: NodeId::new(r.u32()? as u16),
                seq: r.u64()?,
                scrub: r.scrub()?,
            },
            TAG_PING_ACK => WireFrame::PingAck {
                epoch,
                from: NodeId::new(r.u32()? as u16),
                seq: r.u64()?,
            },
            TAG_RETRANSMIT => WireFrame::RetransmitRequest {
                epoch,
                object: ObjectId::new(r.u32()?),
                have_version: Version::new(r.u64()?),
            },
            TAG_JOIN => WireFrame::JoinRequest {
                epoch,
                from: NodeId::new(r.u32()? as u16),
                position: r.position()?,
            },
            TAG_UPDATE_ACK => WireFrame::UpdateAck {
                epoch,
                object: ObjectId::new(r.u32()?),
                version: Version::new(r.u64()?),
            },
            TAG_STATE => WireFrame::StateTransfer {
                epoch,
                head: r.u64()?,
                entries: r.entries(payload_budget)?,
            },
            TAG_BATCH => {
                let count = r.u32()? as usize;
                if count > MAX_DECODE_LEN {
                    return Err(CodecError::BadLength {
                        len: count,
                        at: r.pos - 4,
                    });
                }
                let start = r.pos;
                for _ in 0..count {
                    let sub = r.frame_bytes()?;
                    WireFrame::parse_sub(sub, payload_budget)?;
                }
                WireFrame::Batch {
                    epoch,
                    frames: FrameSlice {
                        buf: &bytes[start..r.pos],
                        count: count as u32,
                    },
                }
            }
            TAG_RESYNC_REQ => {
                let from = NodeId::new(r.u32()? as u16);
                let position = r.position()?;
                let count = r.u32()? as usize;
                if count > MAX_DECODE_LEN {
                    return Err(CodecError::BadLength {
                        len: count,
                        at: r.pos - 4,
                    });
                }
                let start = r.pos;
                r.take(count * (4 + 8 + 8))?;
                WireFrame::ResyncRequest {
                    epoch,
                    from,
                    position,
                    versions: VersionSlice {
                        buf: &bytes[start..r.pos],
                        count: count as u32,
                    },
                }
            }
            TAG_RESYNC_DIFF => WireFrame::ResyncDiff {
                epoch,
                head: r.u64()?,
                entries: r.entries(payload_budget)?,
            },
            TAG_LOG_SUFFIX => WireFrame::LogSuffix {
                epoch,
                head: r.u64()?,
                entries: r.entries(payload_budget)?,
            },
            TAG_READ_REQ => WireFrame::ReadRequest {
                epoch,
                from: NodeId::new(r.u32()? as u16),
                object: ObjectId::new(r.u32()?),
                floor: r.position()?,
            },
            TAG_READ_REPLY => WireFrame::ReadReply {
                epoch,
                object: ObjectId::new(r.u32()?),
                status: {
                    let byte = r.u8()?;
                    ReadStatus::from_u8(byte).ok_or(CodecError::BadLength {
                        len: byte as usize,
                        at: r.pos - 1,
                    })?
                },
                write_epoch: Epoch::new(r.u64()?),
                version: Version::new(r.u64()?),
                age_bound: TimeDelta::from_nanos(r.u64()?),
                position: r.position()?,
                payload: r.payload(payload_budget)?,
            },
            other => return Err(CodecError::UnknownTag { tag: other }),
        };
        if r.pos != bytes.len() {
            return Err(CodecError::TrailingBytes {
                count: bytes.len() - r.pos,
                at: r.pos,
            });
        }
        Ok(frame)
    }

    /// Copies this view into the owned [`WireMessage`] representation —
    /// the state-machine boundary's materialization step.
    #[must_use]
    pub fn to_owned(&self) -> WireMessage {
        match self {
            WireFrame::Update {
                epoch,
                object,
                version,
                timestamp,
                seq,
                payload,
            } => WireMessage::Update {
                epoch: *epoch,
                object: *object,
                version: *version,
                timestamp: *timestamp,
                seq: *seq,
                payload: payload.to_vec(),
            },
            WireFrame::Ping {
                epoch,
                from,
                seq,
                scrub,
            } => WireMessage::Ping {
                epoch: *epoch,
                from: *from,
                seq: *seq,
                scrub: *scrub,
            },
            WireFrame::PingAck { epoch, from, seq } => WireMessage::PingAck {
                epoch: *epoch,
                from: *from,
                seq: *seq,
            },
            WireFrame::RetransmitRequest {
                epoch,
                object,
                have_version,
            } => WireMessage::RetransmitRequest {
                epoch: *epoch,
                object: *object,
                have_version: *have_version,
            },
            WireFrame::JoinRequest {
                epoch,
                from,
                position,
            } => WireMessage::JoinRequest {
                epoch: *epoch,
                from: *from,
                position: *position,
            },
            WireFrame::UpdateAck {
                epoch,
                object,
                version,
            } => WireMessage::UpdateAck {
                epoch: *epoch,
                object: *object,
                version: *version,
            },
            WireFrame::StateTransfer {
                epoch,
                head,
                entries,
            } => WireMessage::StateTransfer {
                epoch: *epoch,
                head: *head,
                entries: entries.iter().map(|e| e.to_owned()).collect(),
            },
            WireFrame::Batch { epoch, frames } => WireMessage::Batch {
                epoch: *epoch,
                messages: frames.iter().map(|f| f.to_owned()).collect(),
            },
            WireFrame::ResyncRequest {
                epoch,
                from,
                position,
                versions,
            } => WireMessage::ResyncRequest {
                epoch: *epoch,
                from: *from,
                position: *position,
                versions: versions.iter().collect(),
            },
            WireFrame::ResyncDiff {
                epoch,
                head,
                entries,
            } => WireMessage::ResyncDiff {
                epoch: *epoch,
                head: *head,
                entries: entries.iter().map(|e| e.to_owned()).collect(),
            },
            WireFrame::LogSuffix {
                epoch,
                head,
                entries,
            } => WireMessage::LogSuffix {
                epoch: *epoch,
                head: *head,
                entries: entries.iter().map(|e| e.to_owned()).collect(),
            },
            WireFrame::ReadRequest {
                epoch,
                from,
                object,
                floor,
            } => WireMessage::ReadRequest {
                epoch: *epoch,
                from: *from,
                object: *object,
                floor: *floor,
            },
            WireFrame::ReadReply {
                epoch,
                object,
                status,
                write_epoch,
                version,
                age_bound,
                position,
                payload,
            } => WireMessage::ReadReply {
                epoch: *epoch,
                object: *object,
                status: *status,
                write_epoch: *write_epoch,
                version: *version,
                age_bound: *age_bound,
                position: *position,
                payload: payload.to_vec(),
            },
        }
    }

    /// The sender's fencing epoch carried by this frame.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        match self {
            WireFrame::Update { epoch, .. }
            | WireFrame::Ping { epoch, .. }
            | WireFrame::PingAck { epoch, .. }
            | WireFrame::RetransmitRequest { epoch, .. }
            | WireFrame::JoinRequest { epoch, .. }
            | WireFrame::UpdateAck { epoch, .. }
            | WireFrame::StateTransfer { epoch, .. }
            | WireFrame::Batch { epoch, .. }
            | WireFrame::ResyncRequest { epoch, .. }
            | WireFrame::ResyncDiff { epoch, .. }
            | WireFrame::LogSuffix { epoch, .. }
            | WireFrame::ReadRequest { epoch, .. }
            | WireFrame::ReadReply { epoch, .. } => *epoch,
        }
    }

    /// Number of object updates this frame carries (counting into
    /// batches), matching [`WireMessage::update_count`].
    #[must_use]
    pub fn update_count(&self) -> usize {
        match self {
            WireFrame::Update { .. } => 1,
            WireFrame::Batch { frames, .. } => frames.iter().map(|f| f.update_count()).sum(),
            _ => 0,
        }
    }

    /// Calls `visit` with `(object, version)` for every update the
    /// frame carries — the borrowing replacement for walking an owned
    /// batch's members.
    pub fn for_each_update(&self, mut visit: impl FnMut(ObjectId, Version)) {
        match self {
            WireFrame::Update {
                object, version, ..
            } => visit(*object, *version),
            WireFrame::Batch { frames, .. } => {
                for f in frames.iter() {
                    if let WireFrame::Update {
                        object, version, ..
                    } = f
                    {
                        visit(object, version);
                    }
                }
            }
            _ => {}
        }
    }
}

#[derive(Debug)]
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Truncated { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn position(&mut self) -> Result<Option<LogPosition>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(LogPosition::new(Epoch::new(self.u64()?), self.u64()?))),
            other => Err(CodecError::BadLength {
                len: other as usize,
                at: self.pos - 1,
            }),
        }
    }

    fn scrub(&mut self) -> Result<Option<ScrubDigest>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(ScrubDigest {
                range: self.u32()?,
                ranges: self.u32()?,
                head: self.u64()?,
                digest: self.u64()?,
            })),
            other => Err(CodecError::BadLength {
                len: other as usize,
                at: self.pos - 1,
            }),
        }
    }

    /// A length-prefixed byte run, checked against the per-item cap but
    /// not the frame budget (used where the region was already budgeted,
    /// or holds frame bytes rather than payload bytes).
    fn bytes_ref(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_DECODE_LEN {
            return Err(CodecError::BadLength {
                len,
                at: self.pos - 4,
            });
        }
        self.take(len)
    }

    /// A length-prefixed batch sub-frame region.
    fn frame_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        self.bytes_ref()
    }

    /// A length-prefixed *payload*, charged against the whole-frame
    /// budget before the bytes are touched — the declared sum across
    /// one frame can never exceed [`MAX_FRAME_PAYLOAD_TOTAL`], however
    /// the lengths are split up.
    fn payload(&mut self, budget: &mut usize) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_DECODE_LEN {
            return Err(CodecError::BadLength {
                len,
                at: self.pos - 4,
            });
        }
        match budget.checked_sub(len) {
            Some(rest) => *budget = rest,
            None => {
                // Report the aggregate the frame tried to claim.
                let spent = MAX_FRAME_PAYLOAD_TOTAL.saturating_sub(*budget);
                return Err(CodecError::BadLength {
                    len: spent + len,
                    at: self.pos - 4,
                });
            }
        }
        self.take(len)
    }

    fn entries(&mut self, budget: &mut usize) -> Result<EntrySlice<'a>, CodecError> {
        let count = self.u32()? as usize;
        if count > MAX_DECODE_LEN {
            return Err(CodecError::BadLength {
                len: count,
                at: self.pos - 4,
            });
        }
        let start = self.pos;
        for _ in 0..count {
            self.u32()?; // object
            self.u64()?; // version
            self.u64()?; // timestamp
            self.payload(budget)?;
        }
        Ok(EntrySlice {
            buf: &self.buf[start..self.pos],
            count: count as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends the CRC32C trailer a hand-assembled frame *body* needs to
    /// get past the checksum gate and reach the structural parser.
    fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32c(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        body
    }

    fn samples() -> Vec<WireMessage> {
        vec![
            WireMessage::Update {
                epoch: Epoch::new(2),
                object: ObjectId::new(7),
                version: Version::new(42),
                timestamp: Time::from_millis(1234),
                seq: 42,
                payload: vec![1, 2, 3, 4],
            },
            WireMessage::Update {
                epoch: Epoch::INITIAL,
                object: ObjectId::new(0),
                version: Version::INITIAL,
                timestamp: Time::ZERO,
                seq: 0,
                payload: Vec::new(),
            },
            WireMessage::Ping {
                epoch: Epoch::INITIAL,
                from: NodeId::new(1),
                seq: 99,
                scrub: None,
            },
            WireMessage::Ping {
                epoch: Epoch::new(4),
                from: NodeId::new(0),
                seq: 7,
                scrub: Some(ScrubDigest {
                    range: 3,
                    ranges: 8,
                    head: 512,
                    digest: 0xDEAD_BEEF_CAFE_F00D,
                }),
            },
            WireMessage::PingAck {
                epoch: Epoch::new(3),
                from: NodeId::new(2),
                seq: 99,
            },
            WireMessage::RetransmitRequest {
                epoch: Epoch::new(1),
                object: ObjectId::new(3),
                have_version: Version::new(5),
            },
            WireMessage::JoinRequest {
                epoch: Epoch::INITIAL,
                from: NodeId::new(9),
                position: None,
            },
            WireMessage::JoinRequest {
                epoch: Epoch::new(3),
                from: NodeId::new(9),
                position: Some(LogPosition::new(Epoch::new(3), 512)),
            },
            WireMessage::UpdateAck {
                epoch: Epoch::new(1),
                object: ObjectId::new(4),
                version: Version::new(17),
            },
            WireMessage::StateTransfer {
                epoch: Epoch::new(5),
                head: 77,
                entries: vec![
                    StateEntry {
                        object: ObjectId::new(1),
                        version: Version::new(10),
                        timestamp: Time::from_millis(500),
                        payload: vec![0xAA; 16],
                    },
                    StateEntry {
                        object: ObjectId::new(2),
                        version: Version::new(20),
                        timestamp: Time::from_millis(600),
                        payload: Vec::new(),
                    },
                ],
            },
            WireMessage::StateTransfer {
                epoch: Epoch::INITIAL,
                head: 0,
                entries: vec![],
            },
            WireMessage::Batch {
                epoch: Epoch::new(4),
                messages: vec![
                    WireMessage::Update {
                        epoch: Epoch::new(4),
                        object: ObjectId::new(1),
                        version: Version::new(3),
                        timestamp: Time::from_millis(10),
                        seq: 3,
                        payload: vec![0x11, 0x22],
                    },
                    WireMessage::Update {
                        epoch: Epoch::new(4),
                        object: ObjectId::new(2),
                        version: Version::new(9),
                        timestamp: Time::from_millis(11),
                        seq: 0,
                        payload: Vec::new(),
                    },
                    WireMessage::Ping {
                        epoch: Epoch::new(4),
                        from: NodeId::new(0),
                        seq: 7,
                        scrub: None,
                    },
                ],
            },
            WireMessage::Batch {
                epoch: Epoch::INITIAL,
                messages: vec![],
            },
            WireMessage::ResyncRequest {
                epoch: Epoch::new(6),
                from: NodeId::new(0),
                position: Some(LogPosition::new(Epoch::new(5), 1000)),
                versions: vec![
                    (ObjectId::new(0), Epoch::new(6), Version::new(12)),
                    (ObjectId::new(1), Epoch::new(2), Version::new(3)),
                ],
            },
            WireMessage::ResyncRequest {
                epoch: Epoch::new(1),
                from: NodeId::new(5),
                position: None,
                versions: vec![],
            },
            WireMessage::ResyncDiff {
                epoch: Epoch::new(6),
                head: 13,
                entries: vec![StateEntry {
                    object: ObjectId::new(0),
                    version: Version::new(15),
                    timestamp: Time::from_millis(900),
                    payload: vec![9, 8, 7],
                }],
            },
            WireMessage::ResyncDiff {
                epoch: Epoch::new(2),
                head: 0,
                entries: vec![],
            },
            WireMessage::LogSuffix {
                epoch: Epoch::new(6),
                head: 1005,
                entries: vec![
                    StateEntry {
                        object: ObjectId::new(3),
                        version: Version::new(6),
                        timestamp: Time::from_millis(950),
                        payload: vec![1],
                    },
                    StateEntry {
                        object: ObjectId::new(4),
                        version: Version::new(2),
                        timestamp: Time::from_millis(960),
                        payload: Vec::new(),
                    },
                ],
            },
            WireMessage::LogSuffix {
                epoch: Epoch::INITIAL,
                head: 0,
                entries: vec![],
            },
            WireMessage::ReadRequest {
                epoch: Epoch::new(2),
                from: NodeId::new(7),
                object: ObjectId::new(3),
                floor: Some(LogPosition::new(Epoch::new(2), 40)),
            },
            WireMessage::ReadRequest {
                epoch: Epoch::INITIAL,
                from: NodeId::new(7),
                object: ObjectId::new(0),
                floor: None,
            },
            WireMessage::ReadReply {
                epoch: Epoch::new(2),
                object: ObjectId::new(3),
                status: ReadStatus::Served,
                write_epoch: Epoch::new(2),
                version: Version::new(41),
                age_bound: TimeDelta::from_millis(120),
                position: Some(LogPosition::new(Epoch::new(2), 44)),
                payload: vec![5, 6, 7],
            },
            WireMessage::ReadReply {
                epoch: Epoch::new(3),
                object: ObjectId::new(3),
                status: ReadStatus::Behind,
                write_epoch: Epoch::INITIAL,
                version: Version::INITIAL,
                age_bound: TimeDelta::ZERO,
                position: None,
                payload: Vec::new(),
            },
        ]
    }

    #[test]
    fn round_trip_every_variant() {
        for msg in samples() {
            let bytes = msg.encode();
            let decoded = WireMessage::decode(&bytes)
                .unwrap_or_else(|e| panic!("decode of {msg:?} failed: {e}"));
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                let r = WireMessage::decode(&bytes[..cut]);
                assert!(r.is_err(), "{msg:?} truncated at {cut} decoded");
            }
        }
    }

    #[test]
    fn every_frame_reports_its_epoch() {
        for msg in samples() {
            let decoded = WireMessage::decode(&msg.encode()).unwrap();
            assert_eq!(decoded.epoch(), msg.epoch(), "epoch lost for {msg:?}");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        // The epoch prefix is consumed before the tag is matched, so an
        // unknown tag needs 8 epoch bytes behind it to reach the match.
        let mut bytes = vec![0xEE];
        put_u64(&mut bytes, 0);
        assert_eq!(
            WireMessage::decode(&seal(bytes)),
            Err(CodecError::UnknownTag { tag: 0xEE })
        );
        assert_eq!(
            WireMessage::decode(&[]),
            Err(CodecError::Truncated { at: 0 })
        );
        assert_eq!(
            WireMessage::decode(&[0xEE]),
            Err(CodecError::Truncated { at: 1 })
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        // Appending a byte to a sealed frame breaks the checksum before
        // the structural check sees it.
        let mut appended = WireMessage::Ping {
            epoch: Epoch::INITIAL,
            from: NodeId::new(1),
            seq: 2,
            scrub: None,
        }
        .encode();
        appended.push(0);
        assert!(matches!(
            WireMessage::decode(&appended),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // Surplus bytes *inside* a sealed frame hit the structural check.
        let mut body = vec![TAG_PING];
        put_u64(&mut body, 0); // epoch
        put_u32(&mut body, 1); // from
        put_u64(&mut body, 2); // seq
        body.push(0); // no scrub digest
        let at = body.len();
        body.push(0); // surplus
        assert_eq!(
            WireMessage::decode(&seal(body)),
            Err(CodecError::TrailingBytes { count: 1, at })
        );
    }

    #[test]
    fn implausible_payload_length_rejected_before_allocation() {
        let mut bytes = vec![TAG_UPDATE];
        put_u64(&mut bytes, 0); // epoch
        put_u32(&mut bytes, 1);
        put_u64(&mut bytes, 1);
        put_u64(&mut bytes, 1);
        put_u64(&mut bytes, 1); // log seq
        let at = bytes.len();
        put_u32(&mut bytes, u32::MAX); // claimed payload length
        let err = WireMessage::decode(&seal(bytes)).unwrap_err();
        assert_eq!(
            err,
            CodecError::BadLength {
                len: u32::MAX as usize,
                at,
            }
        );
    }

    #[test]
    fn implausible_entry_count_rejected() {
        for tag in [TAG_STATE, TAG_RESYNC_DIFF, TAG_LOG_SUFFIX] {
            let mut bytes = vec![tag];
            put_u64(&mut bytes, 0); // epoch
            put_u64(&mut bytes, 0); // log head
            put_u32(&mut bytes, u32::MAX);
            let err = WireMessage::decode(&seal(bytes)).unwrap_err();
            assert!(
                matches!(err, CodecError::BadLength { len, .. } if len == u32::MAX as usize),
                "tag {tag}: {err:?}"
            );
        }
        let mut bytes = vec![TAG_RESYNC_REQ];
        put_u64(&mut bytes, 0); // epoch
        put_u32(&mut bytes, 0); // from
        bytes.push(0); // no position
        put_u32(&mut bytes, u32::MAX); // version-vector count
        let err = WireMessage::decode(&seal(bytes)).unwrap_err();
        assert!(matches!(err, CodecError::BadLength { len, .. } if len == u32::MAX as usize));
    }

    #[test]
    fn bad_read_status_rejected() {
        let mut bytes = vec![TAG_READ_REPLY];
        put_u64(&mut bytes, 0); // epoch
        put_u32(&mut bytes, 1); // object
        let at = bytes.len();
        bytes.push(9); // no such status
        assert_eq!(
            WireMessage::decode(&seal(bytes)),
            Err(CodecError::BadLength { len: 9, at })
        );
    }

    #[test]
    fn bad_position_flag_rejected() {
        let mut bytes = vec![TAG_JOIN];
        put_u64(&mut bytes, 0); // epoch
        put_u32(&mut bytes, 1); // from
        let at = bytes.len();
        bytes.push(7); // neither "absent" nor "present"
        assert_eq!(
            WireMessage::decode(&seal(bytes)),
            Err(CodecError::BadLength { len: 7, at })
        );
    }

    #[test]
    fn bad_scrub_flag_rejected() {
        let mut bytes = vec![TAG_PING];
        put_u64(&mut bytes, 0); // epoch
        put_u32(&mut bytes, 1); // from
        put_u64(&mut bytes, 2); // seq
        let at = bytes.len();
        bytes.push(5); // neither "absent" nor "present"
        assert_eq!(
            WireMessage::decode(&seal(bytes)),
            Err(CodecError::BadLength { len: 5, at })
        );
    }

    #[test]
    fn nested_batch_rejected_at_decode() {
        // Hand-assemble a batch whose single sub-message is itself a
        // (bodies-only — sub-frames carry no trailer) empty batch.
        let mut inner = vec![TAG_BATCH];
        put_u64(&mut inner, 0); // epoch
        put_u32(&mut inner, 0); // count
        let mut bytes = vec![TAG_BATCH];
        put_u64(&mut bytes, 0); // epoch
        put_u32(&mut bytes, 1);
        put_bytes(&mut bytes, &inner);
        assert_eq!(
            WireMessage::decode(&seal(bytes)),
            Err(CodecError::NestedBatch)
        );
    }

    #[test]
    fn implausible_batch_count_rejected() {
        let mut bytes = vec![TAG_BATCH];
        put_u64(&mut bytes, 0); // epoch
        put_u32(&mut bytes, u32::MAX);
        let err = WireMessage::decode(&seal(bytes)).unwrap_err();
        assert!(matches!(err, CodecError::BadLength { len, .. } if len == u32::MAX as usize));
    }

    #[test]
    fn corrupted_sub_message_poisons_the_whole_batch() {
        let msg = WireMessage::Batch {
            epoch: Epoch::INITIAL,
            messages: vec![WireMessage::Update {
                epoch: Epoch::INITIAL,
                object: ObjectId::new(1),
                version: Version::new(1),
                timestamp: Time::from_millis(1),
                seq: 1,
                payload: vec![1, 2, 3],
            }],
        };
        let encoded = msg.encode();
        // Any flip in the sealed bytes trips the checksum first.
        let sub_tag_at = 1 + 8 + 4 + 4;
        let mut flipped = encoded.clone();
        flipped[sub_tag_at] = 0xEE;
        assert!(matches!(
            WireMessage::decode(&flipped),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // Re-sealing after the flip models a corrupt *sender*: the
        // structural check still poisons the whole batch.
        let good = encoded[..encoded.len() - CRC_LEN].to_vec();
        let mut bad = good.clone();
        bad[sub_tag_at] = 0xEE;
        assert_eq!(
            WireMessage::decode(&seal(bad)),
            Err(CodecError::UnknownTag { tag: 0xEE })
        );
        // Shrink the sub-message length prefix so the sub decode truncates.
        let mut short = good;
        short[sub_tag_at - 1] -= 1;
        assert!(WireMessage::decode(&seal(short)).is_err());
    }

    #[test]
    fn update_count_sees_through_batches() {
        for msg in samples() {
            match &msg {
                WireMessage::Update { .. } => assert_eq!(msg.update_count(), 1),
                WireMessage::Batch { messages, .. } => assert_eq!(
                    msg.update_count(),
                    messages
                        .iter()
                        .filter(|m| matches!(m, WireMessage::Update { .. }))
                        .count()
                ),
                _ => assert_eq!(msg.update_count(), 0),
            }
        }
    }

    #[test]
    fn codec_error_display() {
        assert_eq!(
            CodecError::Truncated { at: 12 }.to_string(),
            "message truncated at byte 12"
        );
        assert!(CodecError::UnknownTag { tag: 7 }
            .to_string()
            .contains("0x07"));
        let mismatch = CodecError::ChecksumMismatch {
            expected: 0xAABB_CCDD,
            actual: 0x1122_3344,
            len: 27,
        };
        let text = mismatch.to_string();
        assert!(text.contains("0xaabbccdd"), "{text}");
        assert!(text.contains("27-byte"), "{text}");
    }

    #[test]
    fn encode_into_matches_encode_and_reserves_exactly() {
        for msg in samples() {
            let fresh = msg.encode();
            assert_eq!(fresh.len(), msg.encoded_len(), "{msg:?}");
            let mut reused = Vec::new();
            msg.encode_into(&mut reused);
            assert_eq!(reused, fresh, "{msg:?}");
            // A dirty, reused buffer appends — framing is positional,
            // not absolute.
            let mut appended = vec![0xFF, 0xFE];
            msg.encode_into(&mut appended);
            assert_eq!(&appended[2..], fresh.as_slice(), "{msg:?}");
        }
    }

    #[test]
    fn frame_parse_round_trips_every_variant() {
        for msg in samples() {
            let bytes = msg.encode();
            let frame =
                WireFrame::parse(&bytes).unwrap_or_else(|e| panic!("parse of {msg:?} failed: {e}"));
            assert_eq!(frame.epoch(), msg.epoch());
            assert_eq!(frame.update_count(), msg.update_count());
            assert_eq!(frame.to_owned(), msg, "{msg:?}");
        }
    }

    #[test]
    fn frame_payloads_borrow_the_receive_buffer() {
        let msg = WireMessage::Update {
            epoch: Epoch::new(9),
            object: ObjectId::new(3),
            version: Version::new(7),
            timestamp: Time::from_millis(5),
            seq: 11,
            payload: vec![0xAB; 64],
        };
        let bytes = msg.encode();
        let WireFrame::Update { payload, .. } = WireFrame::parse(&bytes).unwrap() else {
            panic!("wrong variant");
        };
        // The payload is a slice *of* the receive buffer, not a copy
        // (it sits just ahead of the CRC trailer).
        let start = bytes.len() - 64 - CRC_LEN;
        assert!(std::ptr::eq(payload, &bytes[start..start + 64]));
    }

    #[test]
    fn frame_parse_rejects_everything_decode_rejects() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WireFrame::parse(&bytes[..cut]).is_err(),
                    "{msg:?} truncated at {cut} parsed"
                );
            }
        }
    }

    #[test]
    fn batch_sub_frames_iterate_in_send_order() {
        let samples_with_batch = samples();
        let batch = samples_with_batch
            .iter()
            .find(|m| matches!(m, WireMessage::Batch { messages, .. } if !messages.is_empty()))
            .expect("samples carry a non-empty batch");
        let bytes = batch.encode();
        let WireFrame::Batch { frames, .. } = WireFrame::parse(&bytes).unwrap() else {
            panic!("wrong variant");
        };
        let WireMessage::Batch { messages, .. } = batch else {
            unreachable!()
        };
        assert_eq!(frames.len(), messages.len());
        for (frame, message) in frames.iter().zip(messages) {
            assert_eq!(&frame.to_owned(), message);
        }
    }

    #[test]
    fn aggregate_payload_budget_rejects_hostile_batches() {
        // Each sub-update *individually* sits at the per-payload cap,
        // so the per-item check never fires — but their sum blows the
        // whole-frame budget. Without the aggregate cap a single batch
        // could claim (count × MAX_DECODE_LEN) bytes of owned payload.
        let payload_len = MAX_DECODE_LEN - 41; // sub-frame = exactly MAX_DECODE_LEN
        let subs = MAX_FRAME_PAYLOAD_TOTAL / payload_len + 1;
        let mut bytes = vec![TAG_BATCH];
        put_u64(&mut bytes, 0); // epoch
        put_u32(&mut bytes, subs as u32);
        for _ in 0..subs {
            put_u32(&mut bytes, (41 + payload_len) as u32); // sub-frame length
            bytes.push(TAG_UPDATE);
            put_u64(&mut bytes, 0); // epoch
            put_u32(&mut bytes, 1); // object
            put_u64(&mut bytes, 1); // version
            put_u64(&mut bytes, 1); // timestamp
            put_u64(&mut bytes, 1); // seq
            put_u32(&mut bytes, payload_len as u32);
            bytes.resize(bytes.len() + payload_len, 0);
        }
        let bytes = seal(bytes);
        let err = WireMessage::decode(&bytes).unwrap_err();
        assert!(
            matches!(err, CodecError::BadLength { len, .. } if len > MAX_FRAME_PAYLOAD_TOTAL),
            "expected aggregate BadLength, got {err:?}"
        );
        assert_eq!(WireFrame::parse(&bytes).unwrap_err(), err);

        // And when the claimed lengths are *not* backed by bytes, the
        // lying frame is rejected while still tiny — parse borrows, so
        // a bad frame never causes an allocation at all.
        let small = &bytes[..256];
        assert!(WireFrame::parse(small).is_err());
        assert!(WireMessage::decode(small).is_err());
    }

    #[test]
    fn aggregate_budget_spans_catch_up_entries_too() {
        let entries = MAX_FRAME_PAYLOAD_TOTAL / MAX_DECODE_LEN + 1;
        let mut bytes = vec![TAG_LOG_SUFFIX];
        put_u64(&mut bytes, 0); // epoch
        put_u64(&mut bytes, 0); // head
        put_u32(&mut bytes, entries as u32);
        for _ in 0..entries {
            put_u32(&mut bytes, 1); // object
            put_u64(&mut bytes, 1); // version
            put_u64(&mut bytes, 1); // timestamp
            put_u32(&mut bytes, MAX_DECODE_LEN as u32); // per-item cap, exactly
            bytes.resize(bytes.len() + MAX_DECODE_LEN, 0);
        }
        let err = WireMessage::decode(&seal(bytes)).unwrap_err();
        assert!(
            matches!(err, CodecError::BadLength { len, .. } if len > MAX_FRAME_PAYLOAD_TOTAL),
            "expected aggregate BadLength, got {err:?}"
        );
    }

    #[test]
    fn honest_frames_under_the_budget_still_decode() {
        // A batch whose payloads sum close to (but under) the budget is
        // legitimate and must decode — only the declared-sum overflow
        // trips the cap.
        let msg = WireMessage::Batch {
            epoch: Epoch::new(1),
            messages: (0..4)
                .map(|i| WireMessage::Update {
                    epoch: Epoch::new(1),
                    object: ObjectId::new(i),
                    version: Version::new(1),
                    timestamp: Time::from_millis(1),
                    seq: 0,
                    payload: vec![0u8; 1 << 16],
                })
                .collect(),
        };
        assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn nested_batch_rejected_at_parse() {
        let mut inner = vec![TAG_BATCH];
        put_u64(&mut inner, 0); // epoch
        put_u32(&mut inner, 0); // count
        let mut bytes = vec![TAG_BATCH];
        put_u64(&mut bytes, 0); // epoch
        put_u32(&mut bytes, 1);
        put_bytes(&mut bytes, &inner);
        assert_eq!(WireFrame::parse(&seal(bytes)), Err(CodecError::NestedBatch));
    }

    #[test]
    fn for_each_update_matches_update_count() {
        for msg in samples() {
            let bytes = msg.encode();
            let frame = WireFrame::parse(&bytes).unwrap();
            let mut seen = 0usize;
            frame.for_each_update(|_, _| seen += 1);
            assert_eq!(seen, msg.update_count(), "{msg:?}");
        }
    }

    #[test]
    fn state_entry_as_ref_round_trips() {
        let entry = StateEntry {
            object: ObjectId::new(4),
            version: Version::new(9),
            timestamp: Time::from_millis(12),
            payload: vec![5, 6, 7],
        };
        let view = entry.as_ref();
        assert_eq!(view.payload, &[5, 6, 7]);
        assert_eq!(view.to_owned(), entry);
    }

    #[test]
    fn update_payload_survives_large_sizes() {
        let msg = WireMessage::Update {
            epoch: Epoch::new(1),
            object: ObjectId::new(1),
            version: Version::new(1),
            timestamp: Time::from_secs(1),
            seq: 1,
            payload: (0..=255u8).cycle().take(10_000).collect(),
        };
        let decoded = WireMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn checksum_is_verified_before_the_body_is_interpreted() {
        // Flip a payload byte to a value that would still parse fine
        // structurally — only the checksum can tell, and it must, with
        // the typed error carrying enough context to diagnose.
        let msg = WireMessage::Update {
            epoch: Epoch::new(2),
            object: ObjectId::new(7),
            version: Version::new(42),
            timestamp: Time::from_millis(1234),
            seq: 42,
            payload: vec![1, 2, 3, 4],
        };
        let mut bytes = msg.encode();
        let payload_at = bytes.len() - CRC_LEN - 2;
        bytes[payload_at] ^= 0xFF;
        let err = WireMessage::decode(&bytes).unwrap_err();
        let CodecError::ChecksumMismatch {
            expected,
            actual,
            len,
        } = err
        else {
            panic!("expected ChecksumMismatch, got {err:?}");
        };
        assert_ne!(expected, actual);
        assert_eq!(len, bytes.len());
        // The borrowing parser rejects it identically.
        assert_eq!(WireFrame::parse(&bytes).unwrap_err(), err);
    }

    #[test]
    fn any_single_bit_flip_in_any_frame_is_detected() {
        // CRC32C detects all single-bit errors, so this is a guarantee,
        // not a sampling claim: for every sample frame, flipping any one
        // bit anywhere (body or trailer) must yield a decode error — no
        // silently accepted semantic change is possible.
        for msg in samples() {
            let bytes = msg.encode();
            for byte in 0..bytes.len() {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[byte] ^= 1 << bit;
                    assert!(
                        WireFrame::parse(&flipped).is_err(),
                        "{msg:?}: flip at {byte}:{bit} accepted"
                    );
                    assert!(
                        WireMessage::decode(&flipped).is_err(),
                        "{msg:?}: flip at {byte}:{bit} decoded"
                    );
                }
            }
        }
    }

    #[test]
    fn scrub_digest_round_trips_on_pings() {
        let scrub = ScrubDigest {
            range: 2,
            ranges: 16,
            head: 9001,
            digest: 0x0102_0304_0506_0708,
        };
        let msg = WireMessage::Ping {
            epoch: Epoch::new(3),
            from: NodeId::new(0),
            seq: 44,
            scrub: Some(scrub),
        };
        let bytes = msg.encode();
        let WireFrame::Ping {
            scrub: parsed_scrub,
            ..
        } = WireFrame::parse(&bytes).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(parsed_scrub, Some(scrub));
        assert_eq!(WireMessage::decode(&bytes).unwrap(), msg);
    }
}
