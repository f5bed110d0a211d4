//! The replicated-object table held by each replica.

use crate::table::IdTable;
use rtpb_types::{Crc32c, Epoch, ObjectId, ObjectSpec, ObjectValue, Time, TimeDelta, Version};

/// One object's slot in a replica's store.
///
/// The registration spec lives out of line, behind a `Box`. It is read
/// only when the object set or the send schedule changes (admission,
/// shedding, promotion), never on the write, apply or read path, yet
/// inline its 104 bytes made a slot 168 bytes. Boxed, a slot is 72 bytes,
/// so a lookup or scan that needs only the image and its tag pulls in
/// less than half the memory.
#[derive(Debug, Clone)]
pub struct ObjectEntry {
    spec: Box<ObjectSpec>,
    value: Option<ObjectValue>,
    /// The fencing epoch the current image was written under. Version
    /// counters only totally order writes *within* one epoch (one primary
    /// mints them); across a split-brain window two regimes number writes
    /// independently, so freshness is the lexicographic pair
    /// `(write_epoch, version)` — a successor's first write beats any
    /// divergent counter the deposed regime ran up.
    write_epoch: Epoch,
    registered_at: Time,
    /// CRC32C over the held image — `(write_epoch, version, timestamp,
    /// payload)` — refreshed on every install (DESIGN.md §15). Zero while
    /// the slot holds no value.
    crc: u32,
}

impl ObjectEntry {
    fn image_crc(&self) -> u32 {
        let Some(value) = &self.value else { return 0 };
        let mut c = Crc32c::new();
        c.update_u64(self.write_epoch.value());
        c.update_u64(value.version().value());
        c.update_u64(value.timestamp().as_nanos());
        c.update(value.payload());
        c.finalize()
    }

    fn refresh_crc(&mut self) {
        self.crc = self.image_crc();
    }

    /// Whether the held image still matches the checksum taken when it
    /// was installed. Empty slots trivially verify.
    #[must_use]
    pub fn verify(&self) -> bool {
        self.value.is_none() || self.crc == self.image_crc()
    }
    /// The registration spec.
    #[must_use]
    pub fn spec(&self) -> &ObjectSpec {
        &self.spec
    }

    /// The current image, if any update has been applied.
    #[must_use]
    pub fn value(&self) -> Option<&ObjectValue> {
        self.value.as_ref()
    }

    /// When the object was registered at this replica.
    #[must_use]
    pub fn registered_at(&self) -> Time {
        self.registered_at
    }

    /// The fencing epoch the current image was written under
    /// ([`Epoch::INITIAL`] if never written).
    #[must_use]
    pub fn write_epoch(&self) -> Epoch {
        self.write_epoch
    }

    /// The current version, or [`Version::INITIAL`] if never written.
    #[must_use]
    pub fn version(&self) -> Version {
        self.value
            .as_ref()
            .map_or(Version::INITIAL, ObjectValue::version)
    }

    /// The freshness tag `(write_epoch, version)`; a never-written slot
    /// carries `(Epoch::INITIAL, Version::INITIAL)`.
    #[must_use]
    pub fn tag(&self) -> (Epoch, Version) {
        (self.write_epoch, self.version())
    }

    /// Image staleness `t - T_i(t)` at `now`, or `None` if never written.
    #[must_use]
    pub fn staleness(&self, now: Time) -> Option<TimeDelta> {
        self.value.as_ref().map(|v| v.staleness(now))
    }
}

/// A replica's table of registered objects, indexed by [`ObjectId`].
///
/// Both the primary and the backup hold one; the primary's is written by
/// client updates, the backup's by update messages.
///
/// # Examples
///
/// ```
/// use rtpb_core::store::ObjectStore;
/// use rtpb_types::{Epoch, ObjectSpec, ObjectValue, Time, TimeDelta, Version};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = ObjectStore::new();
/// let spec = ObjectSpec::builder("x")
///     .update_period(TimeDelta::from_millis(100))
///     .primary_bound(TimeDelta::from_millis(150))
///     .backup_bound(TimeDelta::from_millis(550))
///     .build()?;
/// let id = store.register(spec, Time::ZERO);
/// let value = ObjectValue::new(Version::new(1), Time::from_millis(5), vec![1]);
/// store.apply(id, value, Epoch::INITIAL);
/// assert_eq!(store.get(id).unwrap().version(), Version::new(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    entries: IdTable<ObjectEntry>,
    next_id: u32,
}

impl ObjectStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// The id the next [`ObjectStore::register`] call will assign —
    /// admission control evaluates constraints against it before the
    /// object actually joins the table.
    #[must_use]
    pub fn peek_next_id(&self) -> ObjectId {
        ObjectId::new(self.next_id)
    }

    /// Registers an object, assigning the next id.
    pub fn register(&mut self, spec: ObjectSpec, now: Time) -> ObjectId {
        let id = ObjectId::new(self.next_id);
        self.next_id += 1;
        self.entries.insert(
            id,
            ObjectEntry {
                spec: Box::new(spec),
                value: None,
                write_epoch: Epoch::INITIAL,
                registered_at: now,
                crc: 0,
            },
        );
        id
    }

    /// Registers an object under a caller-chosen id (used when installing
    /// a state snapshot on a new backup, which must preserve ids).
    ///
    /// Keeps the id counter ahead of every explicit id.
    pub fn register_with_id(&mut self, id: ObjectId, spec: ObjectSpec, now: Time) {
        self.next_id = self.next_id.max(id.index() + 1);
        self.entries.insert(
            id,
            ObjectEntry {
                spec: Box::new(spec),
                value: None,
                write_epoch: Epoch::INITIAL,
                registered_at: now,
                crc: 0,
            },
        );
    }

    /// Removes an object from the table.
    pub fn deregister(&mut self, id: ObjectId) -> Option<ObjectEntry> {
        self.entries.remove(id)
    }

    /// Applies a new image if it is newer than the current one, where
    /// "newer" is the lexicographic order on `(epoch, version)`: a write
    /// minted under a higher fencing epoch supersedes any version counter
    /// of an older regime, and within one epoch the version counter
    /// decides.
    ///
    /// Returns `true` if the image was installed, `false` if it was stale
    /// (an older or equal tag — e.g. a retransmitted duplicate, or a
    /// divergent write from a deposed regime) or the object is unknown.
    pub fn apply(&mut self, id: ObjectId, value: ObjectValue, epoch: Epoch) -> bool {
        match self.entries.get_mut(id) {
            Some(entry) if (epoch, value.version()) > entry.tag() => {
                entry.value = Some(value);
                entry.write_epoch = epoch;
                entry.refresh_crc();
                true
            }
            _ => false,
        }
    }

    /// [`ObjectStore::apply`], but from borrowed parts: the hot receive
    /// path hands the payload slice straight out of the wire frame, and
    /// a slot that already holds a value is overwritten in place — its
    /// payload buffer is reused, so the steady-state apply allocates
    /// only when an update outgrows the existing capacity.
    pub fn apply_from_parts(
        &mut self,
        id: ObjectId,
        version: Version,
        timestamp: Time,
        payload: &[u8],
        epoch: Epoch,
    ) -> bool {
        match self.entries.get_mut(id) {
            Some(entry) if (epoch, version) > entry.tag() => {
                match &mut entry.value {
                    Some(value) => value.overwrite(version, timestamp, payload),
                    slot => {
                        *slot = Some(ObjectValue::new(version, timestamp, payload.to_vec()));
                    }
                }
                entry.write_epoch = epoch;
                entry.refresh_crc();
                true
            }
            _ => false,
        }
    }

    /// Re-tags every valued entry with `epoch`. Called at promotion: the
    /// new primary adopts its whole image as the opening state of its
    /// regime, so every value it serves (and every update it sends) carries
    /// its own epoch. This is what lets resync reconcile divergent
    /// split-brain counters — the successor's adopted tags dominate any
    /// version number a deposed primary minted under an older epoch.
    pub fn adopt_epoch(&mut self, epoch: Epoch) {
        for (_, entry) in self.entries.iter_mut() {
            if entry.value.is_some() && epoch > entry.write_epoch {
                entry.write_epoch = epoch;
                entry.refresh_crc();
            }
        }
    }

    /// The entry for `id`, if registered.
    #[must_use]
    pub fn get(&self, id: ObjectId) -> Option<&ObjectEntry> {
        self.entries.get(id)
    }

    /// Number of registered objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no objects are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(id, entry)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectEntry)> {
        self.entries.iter()
    }

    /// All registered ids, in order.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.entries.iter().map(|(id, _)| id)
    }

    /// Verifies every entry's checksum and **quarantines** the failures:
    /// the corrupted image is dropped and the slot's freshness tag is
    /// reset to the never-written `(Epoch::INITIAL, Version::INITIAL)`,
    /// so the authoritative copy re-shipped by catch-up or anti-entropy
    /// repair passes the `(epoch, version)` install gate — a poisoned tag
    /// must never outrank its own repair. Returns each quarantined id with
    /// the tag it held before the reset, in id order.
    pub fn audit(&mut self) -> Vec<(ObjectId, (Epoch, Version))> {
        let mut quarantined = Vec::new();
        for (id, entry) in self.entries.iter_mut() {
            if !entry.verify() {
                quarantined.push((id, entry.tag()));
                entry.value = None;
                entry.write_epoch = Epoch::INITIAL;
                entry.crc = 0;
            }
        }
        quarantined
    }

    /// Fault-injection hook: flips `mask` into one byte of `id`'s held
    /// payload (into the stored checksum when the payload is empty),
    /// *without* refreshing the checksum — modelling silent in-memory
    /// corruption of retained state. Returns `false` when the slot holds
    /// no value to corrupt.
    pub fn corrupt_payload(&mut self, id: ObjectId, byte: usize, mask: u8) -> bool {
        let Some(entry) = self.entries.get_mut(id) else {
            return false;
        };
        let Some(value) = &mut entry.value else {
            return false;
        };
        let mut payload = value.payload().to_vec();
        if payload.is_empty() {
            entry.crc ^= u32::from(mask.max(1));
            return true;
        }
        let at = byte % payload.len();
        payload[at] ^= mask.max(1);
        let (version, timestamp) = (value.version(), value.timestamp());
        value.overwrite(version, timestamp, &payload);
        true
    }

    /// The scrub digest of one range (objects with `id.index() % ranges
    /// == range`), folded over every valued entry's `(id, write_epoch,
    /// version, timestamp, payload)` in id order — FNV-1a so the digest
    /// is cheap, order-sensitive, and dependency-free. Two replicas that
    /// hold the same images for the range always agree; a corrupted or
    /// diverged image disagrees with overwhelming probability, and the
    /// scrub exchange (DESIGN.md §15) turns that disagreement into
    /// targeted anti-entropy repair.
    #[must_use]
    pub fn range_digest(&self, range: u32, ranges: u32) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        fn fold(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(FNV_PRIME);
            }
        }
        let ranges = ranges.max(1);
        let mut h = FNV_OFFSET;
        for (id, entry) in self.entries.iter() {
            if id.index() % ranges != range {
                continue;
            }
            let Some(value) = &entry.value else { continue };
            fold(&mut h, &id.index().to_be_bytes());
            fold(&mut h, &entry.write_epoch.value().to_be_bytes());
            fold(&mut h, &value.version().value().to_be_bytes());
            fold(&mut h, &value.timestamp().as_nanos().to_be_bytes());
            fold(&mut h, value.payload());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> ObjectSpec {
        ObjectSpec::builder(name)
            .update_period(TimeDelta::from_millis(100))
            .primary_bound(TimeDelta::from_millis(150))
            .backup_bound(TimeDelta::from_millis(550))
            .build()
            .unwrap()
    }

    fn val(version: u64, ms: u64) -> ObjectValue {
        ObjectValue::new(
            Version::new(version),
            Time::from_millis(ms),
            vec![version as u8],
        )
    }

    #[test]
    fn register_assigns_sequential_ids() {
        let mut s = ObjectStore::new();
        let a = s.register(spec("a"), Time::ZERO);
        let b = s.register(spec("b"), Time::ZERO);
        assert_eq!(a, ObjectId::new(0));
        assert_eq!(b, ObjectId::new(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a).unwrap().spec().name(), "a");
    }

    #[test]
    fn fresh_entry_has_no_value() {
        let mut s = ObjectStore::new();
        let id = s.register(spec("a"), Time::from_millis(3));
        let e = s.get(id).unwrap();
        assert!(e.value().is_none());
        assert_eq!(e.version(), Version::INITIAL);
        assert_eq!(e.staleness(Time::from_millis(10)), None);
        assert_eq!(e.registered_at(), Time::from_millis(3));
    }

    #[test]
    fn apply_installs_newer_versions_only() {
        let mut s = ObjectStore::new();
        let id = s.register(spec("a"), Time::ZERO);
        let e0 = Epoch::INITIAL;
        assert!(s.apply(id, val(1, 10), e0));
        assert!(s.apply(id, val(3, 30), e0));
        // Stale reordered update: rejected.
        assert!(!s.apply(id, val(2, 20), e0));
        // Duplicate: rejected.
        assert!(!s.apply(id, val(3, 30), e0));
        assert_eq!(s.get(id).unwrap().version(), Version::new(3));
    }

    #[test]
    fn higher_epoch_beats_higher_version() {
        let mut s = ObjectStore::new();
        let id = s.register(spec("a"), Time::ZERO);
        // A deposed regime ran its counter up to 9 under epoch 0...
        assert!(s.apply(id, val(9, 90), Epoch::INITIAL));
        // ...but the successor's first write under epoch 1 supersedes it.
        assert!(s.apply(id, val(2, 100), Epoch::new(1)));
        let e = s.get(id).unwrap();
        assert_eq!(e.version(), Version::new(2));
        assert_eq!(e.write_epoch(), Epoch::new(1));
        // And the deposed regime can never win the slot back.
        assert!(!s.apply(id, val(50, 110), Epoch::INITIAL));
        assert_eq!(s.get(id).unwrap().version(), Version::new(2));
    }

    #[test]
    fn adopt_epoch_retags_valued_entries_only() {
        let mut s = ObjectStore::new();
        let written = s.register(spec("a"), Time::ZERO);
        let empty = s.register(spec("b"), Time::ZERO);
        s.apply(written, val(4, 40), Epoch::INITIAL);
        s.adopt_epoch(Epoch::new(2));
        assert_eq!(s.get(written).unwrap().write_epoch(), Epoch::new(2));
        // Never-written slots keep the initial tag: there is no value for
        // the new regime to claim, and (epoch, INITIAL) must stay below
        // any real write.
        assert_eq!(s.get(empty).unwrap().write_epoch(), Epoch::INITIAL);
        // Adoption is monotone: an older epoch cannot downgrade the tag.
        s.adopt_epoch(Epoch::new(1));
        assert_eq!(s.get(written).unwrap().write_epoch(), Epoch::new(2));
    }

    #[test]
    fn apply_from_parts_matches_apply() {
        let mut owned = ObjectStore::new();
        let mut parts = ObjectStore::new();
        let id = owned.register(spec("a"), Time::ZERO);
        parts.register(spec("a"), Time::ZERO);
        let e0 = Epoch::INITIAL;
        let cases: Vec<(u64, u64, Vec<u8>)> = vec![
            (1, 10, vec![1, 2, 3]),
            (3, 30, vec![9]),
            (2, 20, vec![7, 7]), // stale: both must reject
            (3, 30, vec![9]),    // duplicate: both must reject
            (4, 40, vec![0; 64]),
        ];
        for (v, ms, payload) in cases {
            let a = owned.apply(
                id,
                ObjectValue::new(Version::new(v), Time::from_millis(ms), payload.clone()),
                e0,
            );
            let b =
                parts.apply_from_parts(id, Version::new(v), Time::from_millis(ms), &payload, e0);
            assert_eq!(a, b, "verdicts diverge at v{v}");
            assert_eq!(
                owned.get(id).unwrap().value(),
                parts.get(id).unwrap().value(),
                "images diverge at v{v}"
            );
        }
        assert!(!parts.apply_from_parts(ObjectId::new(9), Version::new(1), Time::ZERO, &[], e0));
    }

    #[test]
    fn apply_to_unknown_object_is_rejected() {
        let mut s = ObjectStore::new();
        assert!(!s.apply(ObjectId::new(5), val(1, 1), Epoch::INITIAL));
    }

    #[test]
    fn staleness_tracks_timestamp() {
        let mut s = ObjectStore::new();
        let id = s.register(spec("a"), Time::ZERO);
        s.apply(id, val(1, 10), Epoch::INITIAL);
        assert_eq!(
            s.get(id).unwrap().staleness(Time::from_millis(25)),
            Some(TimeDelta::from_millis(15))
        );
    }

    #[test]
    fn deregister_removes_entry() {
        let mut s = ObjectStore::new();
        let id = s.register(spec("a"), Time::ZERO);
        assert!(s.deregister(id).is_some());
        assert!(s.deregister(id).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn register_with_id_preserves_ids_and_counter() {
        let mut s = ObjectStore::new();
        s.register_with_id(ObjectId::new(7), spec("x"), Time::ZERO);
        let next = s.register(spec("y"), Time::ZERO);
        assert_eq!(next, ObjectId::new(8));
        assert_eq!(s.ids().collect::<Vec<_>>(), vec![ObjectId::new(7), next]);
    }

    #[test]
    fn iteration_is_in_id_order() {
        let mut s = ObjectStore::new();
        s.register(spec("a"), Time::ZERO);
        s.register(spec("b"), Time::ZERO);
        s.register(spec("c"), Time::ZERO);
        let names: Vec<&str> = s.iter().map(|(_, e)| e.spec().name()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn entries_verify_until_corrupted_and_audit_quarantines() {
        let mut s = ObjectStore::new();
        let good = s.register(spec("a"), Time::ZERO);
        let bad = s.register(spec("b"), Time::ZERO);
        s.apply(good, val(1, 10), Epoch::new(2));
        s.apply(bad, val(5, 20), Epoch::new(2));
        assert!(s.iter().all(|(_, e)| e.verify()));
        assert!(s.corrupt_payload(bad, 0, 0x80));
        assert!(s.get(good).unwrap().verify());
        assert!(!s.get(bad).unwrap().verify());
        assert_eq!(s.audit(), vec![(bad, (Epoch::new(2), Version::new(5)))]);
        // Quarantine drops the image and resets the freshness tag so the
        // repair re-ship passes the (epoch, version) gate.
        let e = s.get(bad).unwrap();
        assert!(e.value().is_none());
        assert_eq!(e.write_epoch(), Epoch::INITIAL);
        assert!(e.verify());
        assert!(s.apply(bad, val(5, 20), Epoch::new(2)), "repair must land");
        assert!(s.get(bad).unwrap().verify());
        // A clean store audits to nothing.
        assert!(s.audit().is_empty());
    }

    #[test]
    fn corrupting_empty_slots_and_empty_payloads() {
        let mut s = ObjectStore::new();
        let id = s.register(spec("a"), Time::ZERO);
        // No value yet: nothing to corrupt.
        assert!(!s.corrupt_payload(id, 0, 0x01));
        // Empty payload: the stored checksum itself is flipped.
        s.apply(
            id,
            ObjectValue::new(Version::new(1), Time::from_millis(1), Vec::new()),
            Epoch::INITIAL,
        );
        assert!(s.corrupt_payload(id, 3, 0x01));
        assert!(!s.get(id).unwrap().verify());
    }

    #[test]
    fn range_digests_partition_and_detect_divergence() {
        let mut a = ObjectStore::new();
        let mut b = ObjectStore::new();
        for name in ["w", "x", "y", "z"] {
            a.register(spec(name), Time::ZERO);
            b.register(spec(name), Time::ZERO);
        }
        for i in 0..4u64 {
            a.apply(
                ObjectId::new(i as u32),
                val(i + 1, 10 * (i + 1)),
                Epoch::INITIAL,
            );
            b.apply(
                ObjectId::new(i as u32),
                val(i + 1, 10 * (i + 1)),
                Epoch::INITIAL,
            );
        }
        for range in 0..2 {
            assert_eq!(a.range_digest(range, 2), b.range_digest(range, 2));
        }
        // Corrupt object 2 (range 0 of 2): only that range diverges.
        assert!(b.corrupt_payload(ObjectId::new(2), 0, 0x04));
        assert_ne!(a.range_digest(0, 2), b.range_digest(0, 2));
        assert_eq!(a.range_digest(1, 2), b.range_digest(1, 2));
    }
}
