//! The primary's append-only update log and its snapshot/retention model.
//!
//! Every client write the primary applies is also appended to an
//! [`UpdateLog`]: an in-memory ring of [`LogRecord`]s, sequence-numbered
//! from 1 within the fencing epoch the log was minted under. Backups track
//! the last record they have applied as a `LogPosition`; a re-joining
//! backup ships that position and, if the ring still covers the gap, the
//! primary replies with just the missing suffix instead of re-shipping the
//! whole store — recovery cost proportional to outage length, not store
//! size (the "recovery barrier" of passive replication; see Junqueira &
//! Serafini in PAPERS.md).
//!
//! Two mechanisms bound the ring:
//!
//! - A hard retention cap ([`ProtocolConfig::log_retention`]): the oldest
//!   record is dropped once the ring is full.
//! - Periodic snapshot marks ([`ProtocolConfig::snapshot_interval`]
//!   appends apart), kept as a *delta chain*: each mark seals only the
//!   objects whose `(write_epoch, version)` freshness tag changed since
//!   the previous mark, each with the tag it had at that previous mark.
//!   Records at or before the oldest retained mark are truncated. A gap
//!   that predates the ring can still be served as a *snapshot diff*:
//!   merging the deltas after the requester's mark with the changes not
//!   yet sealed yields every changed object's tag at that mark, and only
//!   objects whose tag moved past it ship.
//!
//! Keeping the chain costs O(changes), not O(store): a write notes at most
//! one tag, and a mark sorts and checksums only what was noted since the
//! previous one.
//!
//! The three catch-up paths a primary can choose are named by
//! [`CatchUpPath`] and surfaced in traces as `catch_up_plan` events.

use crate::config::ProtocolConfig;
use crate::table::IdTable;
use rtpb_types::{Crc32c, Epoch, ObjectId, Time, Version};
use std::collections::{BTreeMap, VecDeque};

/// One appended client write: the object's new image plus its sequence
/// number in the owning epoch's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// 1-based sequence number within the log's epoch.
    pub seq: u64,
    /// The written object.
    pub object: ObjectId,
    /// Version the write produced.
    pub version: Version,
    /// Write timestamp (the image's temporal-consistency anchor).
    pub timestamp: Time,
    /// The written payload.
    pub payload: Vec<u8>,
    /// CRC32C over every other field, computed at append time
    /// (DESIGN.md §15). A record whose stored bytes no longer match is
    /// never served as catch-up material.
    pub crc: u32,
}

impl LogRecord {
    /// The checksum this record's current fields produce.
    #[must_use]
    pub fn compute_crc(&self) -> u32 {
        let mut c = Crc32c::new();
        c.update_u64(self.seq);
        c.update_u32(self.object.index());
        c.update_u64(self.version.value());
        c.update_u64(self.timestamp.as_nanos());
        c.update(&self.payload);
        c.finalize()
    }

    /// Whether the record still matches the checksum taken at append.
    #[must_use]
    pub fn verify(&self) -> bool {
        self.crc == self.compute_crc()
    }
}

/// One link of the snapshot delta chain: the objects whose `(write_epoch,
/// version)` freshness tag changed between the previous mark and this
/// one, each with the tag it had at the previous mark, sealed under one
/// CRC32C.
///
/// A snapshot is *metadata only* — the store itself is the snapshot's
/// payload, consulted lazily when a gap is served from it.
#[derive(Debug, Clone)]
pub struct LogSnapshot {
    seq: u64,
    /// `(object, tag at the previous mark)`, in id order.
    changed: Vec<(ObjectId, (Epoch, Version))>,
    crc: u32,
}

fn snapshot_crc(seq: u64, changed: &[(ObjectId, (Epoch, Version))]) -> u32 {
    let mut c = Crc32c::new();
    c.update_u64(seq);
    for (id, (epoch, version)) in changed {
        c.update_u32(id.index());
        c.update_u64(epoch.value());
        c.update_u64(version.value());
    }
    c.finalize()
}

impl LogSnapshot {
    /// The log sequence number the snapshot was taken at.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of changed tags the mark sealed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.changed.len()
    }

    /// Whether no tag changed since the previous mark.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// Whether the delta still matches the checksum taken when it was
    /// sealed. A diff that would read a delta that fails is withheld — the
    /// catch-up ladder falls through to a full transfer.
    #[must_use]
    pub fn verify(&self) -> bool {
        self.crc == snapshot_crc(self.seq, &self.changed)
    }
}

/// Which re-integration path the primary chose for a gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatchUpPath {
    /// The log ring still covered the gap: ship only the missing records.
    LogSuffix,
    /// The ring had truncated, but a retained snapshot predates the gap:
    /// ship only objects whose freshness tag moved since that snapshot.
    SnapshotDiff,
    /// Nothing usable covered the gap (or the requester had no position /
    /// a position from another epoch): ship the full store.
    FullTransfer,
}

impl CatchUpPath {
    /// The schema name used in `catch_up_plan` trace events.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CatchUpPath::LogSuffix => "log_suffix",
            CatchUpPath::SnapshotDiff => "snapshot_diff",
            CatchUpPath::FullTransfer => "full_transfer",
        }
    }
}

/// The per-group append-only update log held by the serving primary.
///
/// Records are contiguous: `seq` runs from `front().seq` to [`UpdateLog::head`]
/// without holes, so "does the ring cover a gap after position `p`"
/// reduces to `front().seq <= p + 1`.
///
/// # Examples
///
/// ```
/// use rtpb_core::config::ProtocolConfig;
/// use rtpb_core::log::UpdateLog;
/// use rtpb_types::{Epoch, ObjectId, Time, Version};
///
/// let mut log = UpdateLog::new(Epoch::INITIAL, &ProtocolConfig::default());
/// let seq = log.append(ObjectId::new(0), Version::new(1), Time::ZERO, &[1]);
/// assert_eq!(seq, 1);
/// assert_eq!(log.head(), 1);
/// // A backup already at the head needs an empty suffix…
/// assert_eq!(log.suffix_after(1).map(Iterator::count), Some(0));
/// // …one a record behind needs exactly that record.
/// assert_eq!(log.suffix_after(0).map(Iterator::count), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct UpdateLog {
    epoch: Epoch,
    retention: usize,
    snapshot_interval: u64,
    snapshots_retained: usize,
    records: VecDeque<LogRecord>,
    /// Payload buffers of dropped records, refilled by later appends so a
    /// full ring appends without allocating.
    spare: Vec<Vec<u8>>,
    next_seq: u64,
    /// Highest appended seq per object — survives truncation, so updates
    /// can always be stamped with the object's latest log coordinate.
    latest: IdTable<u64>,
    snapshots: VecDeque<LogSnapshot>,
    /// Changes noted since the last mark: `(object, tag at that mark)`,
    /// in the order first noted. The next mark sorts and seals them.
    unsealed: Vec<(ObjectId, (Epoch, Version))>,
    /// The number of marks taken when each object was last noted, so only
    /// an object's first change after a mark is recorded.
    noted_at: IdTable<u64>,
    marks: u64,
    appends_since_snapshot: u64,
    truncated: u64,
}

impl UpdateLog {
    /// Creates an empty log owned by `epoch`, sized from the config's
    /// retention/snapshot knobs.
    #[must_use]
    pub fn new(epoch: Epoch, config: &ProtocolConfig) -> Self {
        UpdateLog {
            epoch,
            retention: config.log_retention.max(1),
            snapshot_interval: config.snapshot_interval.max(1),
            snapshots_retained: config.snapshots_retained.max(1),
            records: VecDeque::new(),
            spare: Vec::new(),
            next_seq: 1,
            latest: IdTable::default(),
            snapshots: VecDeque::new(),
            unsealed: Vec::new(),
            noted_at: IdTable::default(),
            marks: 0,
            appends_since_snapshot: 0,
            truncated: 0,
        }
    }

    /// The fencing epoch whose writes this log records.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The sequence number of the newest record (0 when nothing has been
    /// appended yet).
    #[must_use]
    pub fn head(&self) -> u64 {
        self.next_seq - 1
    }

    /// Records currently retained in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records dropped by the retention cap or snapshot truncation.
    #[must_use]
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// The newest appended seq for `object`, if it was ever logged.
    #[must_use]
    pub fn latest_seq(&self, object: ObjectId) -> Option<u64> {
        self.latest.get(object).copied()
    }

    /// Notes that `object`'s freshness tag is about to move away from
    /// `before` — a write, or a quarantine that resets the tag. Only the
    /// first change after a mark is kept, so the noted tag is the one the
    /// object had at that mark.
    pub fn note_change(&mut self, object: ObjectId, before: (Epoch, Version)) {
        if self.noted_at.insert(object, self.marks) != Some(self.marks) {
            self.unsealed.push((object, before));
        }
    }

    /// Appends a write, returning its sequence number. Drops the oldest
    /// record if the ring is at its retention cap. The payload is copied
    /// into the buffer of a record dropped earlier, if there is one.
    pub fn append(
        &mut self,
        object: ObjectId,
        version: Version,
        timestamp: Time,
        payload: &[u8],
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.records.len() >= self.retention {
            self.drop_oldest();
        }
        let mut buffer = self.spare.pop().unwrap_or_default();
        buffer.extend_from_slice(payload);
        let mut record = LogRecord {
            seq,
            object,
            version,
            timestamp,
            payload: buffer,
            crc: 0,
        };
        record.crc = record.compute_crc();
        self.records.push_back(record);
        self.latest.insert(object, seq);
        self.appends_since_snapshot += 1;
        seq
    }

    /// Drops the oldest record, keeping its emptied payload buffer for a
    /// later append.
    fn drop_oldest(&mut self) {
        if let Some(mut record) = self.records.pop_front() {
            record.payload.clear();
            self.spare.push(record.payload);
            self.truncated += 1;
        }
    }

    /// Whether enough appends have accumulated that the owner should take
    /// a store snapshot.
    #[must_use]
    pub fn snapshot_due(&self) -> bool {
        self.appends_since_snapshot >= self.snapshot_interval
    }

    /// Takes a snapshot mark at the log head: seals the changes noted
    /// since the previous mark as one delta (see [`LogSnapshot`]), retires
    /// marks beyond the retained count, and truncates records the oldest
    /// retained mark makes redundant. Costs O(k log k) in the k objects
    /// noted since the previous mark, whatever the store's size.
    ///
    /// Returns `(head_seq, records_retained_after_truncation)`.
    pub fn take_snapshot(&mut self) -> (u64, u64) {
        let seq = self.head();
        let mut changed = std::mem::take(&mut self.unsealed);
        changed.sort_unstable_by_key(|&(id, _)| id);
        let crc = snapshot_crc(seq, &changed);
        self.snapshots.push_back(LogSnapshot { seq, changed, crc });
        self.marks += 1;
        while self.snapshots.len() > self.snapshots_retained {
            // The retired delta's list collects the changes until the
            // next mark.
            if let Some(LogSnapshot { mut changed, .. }) = self.snapshots.pop_front() {
                changed.clear();
                self.unsealed = changed;
            }
        }
        // Records at or before the oldest retained snapshot can never be
        // needed: any gap reaching that far back is served from the
        // snapshot (or a newer one) as a diff.
        let floor = self.snapshots.front().map_or(0, LogSnapshot::seq);
        while self.records.front().is_some_and(|r| r.seq <= floor) {
            self.drop_oldest();
        }
        self.appends_since_snapshot = 0;
        (seq, self.records.len() as u64)
    }

    /// The records strictly after `seq`, oldest first, if the ring still
    /// covers them all. `Some` with an empty iterator when `seq` is at (or
    /// past) the head; `None` when the gap predates retention.
    #[must_use]
    pub fn suffix_after(&self, seq: u64) -> Option<impl Iterator<Item = &LogRecord>> {
        let front = self.records.front().map_or(self.next_seq, |r| r.seq);
        let skip = if seq >= self.head() {
            self.records.len()
        } else if seq + 1 >= front {
            (seq + 1 - front) as usize
        } else {
            return None;
        };
        Some(self.records.iter().skip(skip))
    }

    /// The newest retained snapshot taken at or before `seq`, if any — the
    /// basis for a snapshot diff when the ring no longer covers the gap.
    #[must_use]
    pub fn snapshot_at_or_before(&self, seq: u64) -> Option<&LogSnapshot> {
        self.snapshots.iter().rev().find(|s| s.seq <= seq)
    }

    /// The retained snapshot marks, oldest first.
    pub fn snapshots(&self) -> impl Iterator<Item = &LogSnapshot> + '_ {
        self.snapshots.iter()
    }

    /// The tag each object changed since the mark at `base` had at that
    /// mark: the deltas sealed after `base` merged with the unsealed
    /// changes, the earliest recorded tag winning. An object absent from
    /// the result holds the tag it had at `base`, and one registered
    /// after `base` counts as the never-written tag there.
    ///
    /// # Errors
    ///
    /// The seq of the first delta read whose checksum fails; a diff built
    /// from it could withhold objects the requester needs.
    pub fn changed_since(&self, base: u64) -> Result<BTreeMap<ObjectId, (Epoch, Version)>, u64> {
        let mut tags = BTreeMap::new();
        for snap in self.snapshots.iter().filter(|s| s.seq > base) {
            if !snap.verify() {
                return Err(snap.seq);
            }
            for &(id, tag) in &snap.changed {
                tags.entry(id).or_insert(tag);
            }
        }
        for &(id, tag) in &self.unsealed {
            tags.entry(id).or_insert(tag);
        }
        Ok(tags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl UpdateLog {
        /// Flips `mask` into one byte of the retained record at `seq`
        /// (into its stored checksum when the payload is empty),
        /// *without* refreshing the checksum — silent in-memory
        /// corruption of "durable" log state. Returns `false` when the
        /// ring no longer retains `seq`.
        fn corrupt_record(&mut self, seq: u64, byte: usize, mask: u8) -> bool {
            let Some(record) = self.records.iter_mut().find(|r| r.seq == seq) else {
                return false;
            };
            if record.payload.is_empty() {
                record.crc ^= u32::from(mask.max(1));
            } else {
                let at = byte % record.payload.len();
                record.payload[at] ^= mask.max(1);
            }
            true
        }
    }

    fn cfg(retention: usize, interval: u64, retained: usize) -> ProtocolConfig {
        ProtocolConfig {
            log_retention: retention,
            snapshot_interval: interval,
            snapshots_retained: retained,
            ..ProtocolConfig::default()
        }
    }

    fn append_n(log: &mut UpdateLog, n: u64) {
        for i in 0..n {
            log.append(
                ObjectId::new((i % 3) as u32),
                Version::new(i + 1),
                Time::from_millis(i),
                &[i as u8],
            );
        }
    }

    #[test]
    fn seqs_are_contiguous_from_one() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(16, 8, 2));
        append_n(&mut log, 5);
        assert_eq!(log.head(), 5);
        let seqs: Vec<u64> = log.suffix_after(0).unwrap().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(log.suffix_after(3).unwrap().count(), 2);
        assert_eq!(log.suffix_after(5).unwrap().count(), 0);
        assert_eq!(log.suffix_after(99).unwrap().count(), 0);
    }

    #[test]
    fn retention_cap_drops_oldest_and_gap_becomes_unservable() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(4, 1_000, 2));
        append_n(&mut log, 10);
        assert_eq!(log.len(), 4);
        assert_eq!(log.truncated(), 6);
        // Ring holds 7..=10: a backup at 6 is served, one at 5 is not.
        assert_eq!(log.suffix_after(6).unwrap().count(), 4);
        assert!(log.suffix_after(5).is_none());
    }

    #[test]
    fn latest_seq_survives_truncation() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(2, 1_000, 2));
        append_n(&mut log, 9);
        // Object 0 was last written at seq 7 (i = 6), long since evicted.
        assert_eq!(log.latest_seq(ObjectId::new(0)), Some(7));
        assert_eq!(log.latest_seq(ObjectId::new(9)), None);
    }

    #[test]
    fn snapshots_truncate_up_to_the_oldest_retained() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(1_000, 4, 2));
        append_n(&mut log, 4);
        assert!(log.snapshot_due());
        let (s1, _) = log.take_snapshot();
        assert_eq!(s1, 4);
        assert!(!log.snapshot_due());
        append_n(&mut log, 4);
        let (s2, _) = log.take_snapshot();
        assert_eq!(s2, 8);
        // Two snapshots retained (at 4 and 8): records ≤ 4 truncated.
        assert_eq!(log.len(), 4);
        assert!(log.suffix_after(4).is_some());
        assert!(log.suffix_after(3).is_none());
        // A third snapshot retires the one at 4; floor moves to 8.
        append_n(&mut log, 4);
        log.take_snapshot();
        assert!(log.suffix_after(8).is_some());
        assert!(log.suffix_after(7).is_none());
        assert_eq!(log.snapshot_at_or_before(9).unwrap().seq(), 8);
        assert_eq!(log.snapshot_at_or_before(7).map(LogSnapshot::seq), None);
    }

    fn tag(version: u64) -> (Epoch, Version) {
        (Epoch::INITIAL, Version::new(version))
    }

    #[test]
    fn snapshots_seal_only_the_first_change_after_each_mark() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(64, 1_000, 4));
        let (a, b, c) = (ObjectId::new(0), ObjectId::new(1), ObjectId::new(2));
        let mark = |log: &mut UpdateLog| {
            append_n(log, 1);
            log.take_snapshot().0
        };
        log.note_change(b, tag(4));
        log.note_change(a, tag(7));
        log.note_change(b, tag(5)); // second change since the mark: dropped
        let first = mark(&mut log);
        let snap = log.snapshot_at_or_before(first).unwrap();
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
        log.note_change(b, tag(6));
        log.note_change(c, tag(0));
        let second = mark(&mut log);
        assert_eq!(log.snapshot_at_or_before(second).unwrap().len(), 2);
        log.note_change(c, tag(1));
        log.note_change(a, tag(8));
        // From the first mark: b and c from the second delta, a from the
        // unsealed changes; from the second mark, only the unsealed ones.
        let since_first = log.changed_since(first).unwrap();
        assert_eq!(
            since_first.into_iter().collect::<Vec<_>>(),
            vec![(a, tag(8)), (b, tag(6)), (c, tag(0))]
        );
        let since_second = log.changed_since(second).unwrap();
        assert_eq!(
            since_second.into_iter().collect::<Vec<_>>(),
            vec![(a, tag(8)), (c, tag(1))]
        );
        // Nothing noted since the previous mark: an empty delta.
        mark(&mut log);
        let last = mark(&mut log);
        assert!(log.snapshot_at_or_before(last).unwrap().is_empty());
        assert_eq!(log.snapshots().count(), 4);
    }

    #[test]
    fn empty_log_serves_empty_suffix_at_origin() {
        let log = UpdateLog::new(Epoch::INITIAL, &cfg(8, 8, 2));
        assert_eq!(log.head(), 0);
        assert!(log.is_empty());
        assert_eq!(log.suffix_after(0).unwrap().count(), 0);
    }

    #[test]
    fn appended_records_verify_and_corruption_is_detected() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(16, 100, 2));
        append_n(&mut log, 5);
        assert!(log.suffix_after(0).unwrap().all(LogRecord::verify));
        assert!(log.corrupt_record(3, 0, 0x40));
        let bad: Vec<u64> = log
            .suffix_after(0)
            .unwrap()
            .filter(|r| !r.verify())
            .map(|r| r.seq)
            .collect();
        assert_eq!(bad, vec![3]);
        // A seq the ring no longer retains cannot be corrupted.
        assert!(!log.corrupt_record(99, 0, 0x40));
    }

    #[test]
    fn empty_payload_records_are_still_corruptible() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(16, 100, 2));
        log.append(ObjectId::new(0), Version::new(1), Time::ZERO, &[]);
        assert!(log.corrupt_record(1, 7, 0x01));
        assert!(!log.suffix_after(0).unwrap().all(LogRecord::verify));
    }

    #[test]
    fn records_in_recycled_buffers_keep_their_payloads_and_checksums() {
        // Lengths 1 to 29, shrinking and growing from record to record.
        let payload = |seq: u64| vec![seq as u8; 1 + (seq * 7 % 5) as usize * 7];
        let append = |log: &mut UpdateLog, seqs: std::ops::RangeInclusive<u64>| {
            for seq in seqs {
                let at = Time::from_millis(seq);
                log.append(ObjectId::new(0), Version::new(seq), at, &payload(seq));
            }
        };
        let intact = |log: &UpdateLog, after: u64| {
            let suffix: Vec<&LogRecord> = log.suffix_after(after).unwrap().collect();
            assert!(!suffix.is_empty());
            for r in suffix {
                assert_eq!(r.payload, payload(r.seq), "record {}", r.seq);
                assert!(r.verify(), "record {}", r.seq);
            }
        };
        // The ring wraps: records 5 to 12 reuse the buffers of 1 to 8.
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(4, 1_000, 2));
        append(&mut log, 1..=12);
        assert_eq!(log.spare.len(), 0, "each drop feeds the next append");
        intact(&log, 8);
        // A snapshot truncates records 1 to 12 at once, and the next
        // appends refill their buffers.
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(64, 1_000, 1));
        append(&mut log, 1..=12);
        log.take_snapshot();
        assert_eq!((log.len(), log.spare.len()), (0, 12));
        append(&mut log, 13..=20);
        assert_eq!(log.spare.len(), 4);
        intact(&log, 12);
    }

    #[test]
    fn snapshots_verify_their_tags() {
        let mut log = UpdateLog::new(Epoch::INITIAL, &cfg(8, 2, 2));
        log.note_change(ObjectId::new(0), tag(1));
        let (seq, _) = log.take_snapshot();
        assert!(log.snapshot_at_or_before(seq).unwrap().verify());
        assert!(log.changed_since(0).is_ok());
    }
}
