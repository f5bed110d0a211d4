//! The performability metrics of the paper's evaluation (§5).
//!
//! Three families of measurements, fed by protocol events:
//!
//! - **Client response time** (§5.1): write-arrival to write-completion at
//!   the primary, Figures 6–7.
//! - **Primary–backup distance** (§5.2): how long the backup has been
//!   *divergent* — missing the primary's newest version. The distance is
//!   zero while the backup holds the latest image, starts counting at the
//!   client write that made the backup stale, and resets when an update
//!   carrying the newest version lands. Under admission control it is
//!   bounded by `r_i + ℓ` (one update period plus transit), which is why
//!   the paper measures it "close to zero when there is no message loss";
//!   each lost update adds another `r_i`. Figures 8–10 report the
//!   *average maximum* distance — the per-object maximum, averaged over
//!   objects.
//! - **Duration of backup inconsistency** (§5.3): "if an update message
//!   is lost, the backup would stay inconsistent until the next update
//!   message comes" — measured as the excess of each update-arrival gap
//!   over the scheduled refresh allowance `r_i + ℓ (+slack)`,
//!   Figures 11–12. The *window* violations (distance beyond `δ_i`) are
//!   tracked separately; they are the guarantee, the refresh gaps are the
//!   figure.
//!
//! Distance is piecewise linear with breakpoints only at write/apply
//! events, so exact accounting is possible without sampling. The books
//! advance the distance clock only at applies and at
//! [`ClusterMetrics::finalize`]: between two applies the start of the
//! divergence (the oldest write the backup lacks) moves only when nothing
//! was pending, when the distance was zero, and advances compose, so one
//! advance at the apply accrues exactly what one per write would. A report
//! read between applies advances a copy of the books to the object's last
//! write, as a per-write advance would have left them.
//!
//! # The write journal
//!
//! The read path's ground truth ([`ClusterMetrics::earliest_write_after`])
//! needs each object's last 64 (`RECENT_WRITE_HISTORY`) primary writes, and
//! the distance needs the writes the backup has not yet covered, the
//! *pending* writes. Both are the newest entries of the object's chain in
//! one journal shared by all objects, appended in commit order: an entry
//! is `(version, time, index of the same object's previous entry)`, and an
//! object keeps only the index of its newest entry, how many writes are
//! pending, and the index and time of the oldest of them. A write
//! therefore touches the journal's tail, one hot cache line, not a 1 KB
//! per-object history in a table that outgrows the cache at a few
//! thousand objects, nor a per-object queue with a heap buffer of its own.
//!
//! An object's *live* entries are its last `max(RECENT_WRITE_HISTORY,
//! pending)` writes. Once the journal holds more than twice its live
//! entries plus `JOURNAL_SLACK`, a backward marking pass and a forward
//! sweep keep exactly the entries reachable from each object's newest
//! entry within that budget, in commit order, and relink them and each
//! object's oldest pending write. Reachability, not the id an entry was
//! written for, decides what survives: re-tracking an id starts a fresh
//! chain, so the old chain becomes unreachable and its history never comes
//! back. The journal thus never holds more than `2 × live + JOURNAL_SLACK`
//! entries (24 bytes each), a compaction costs O(journal) once per at
//! least `live + JOURNAL_SLACK` appends, and capacity reserved at each
//! compaction covers the appends until the next, so the steady state
//! allocates nothing.

use crate::table::IdTable;
use rtpb_types::{ObjectId, Time, TimeDelta, Version};

/// How many of an object's most recent primary writes the read-path
/// staleness validator ([`ClusterMetrics::earliest_write_after`]) sees.
///
/// They are the newest entries of the object's chain in the shared write
/// journal. A query walks back from the newest entry over at most this
/// many, so its cost is bounded however many writes the object has had.
/// Older writes only make the validator more lenient once dropped, never
/// produce a false violation.
const RECENT_WRITE_HISTORY: usize = 64;

/// Entries the write journal may hold beyond twice its live ones before
/// it is compacted, so that a cluster of a few objects does not compact
/// every few writes.
const JOURNAL_SLACK: usize = 256;

/// The `prev` link that ends an object's chain in the write journal. It
/// lies past the end of every journal (appends stay below it), so looking
/// it up finds nothing.
const NO_ENTRY: u32 = u32::MAX;

/// One primary write in the [`WriteJournal`].
#[derive(Debug, Clone, Copy)]
struct JournalEntry {
    version: Version,
    time: Time,
    /// The journal index of the same object's previous write, or
    /// [`NO_ENTRY`].
    prev: u32,
}

/// Every object's recent and pending primary writes, in commit order,
/// chained per object from the newest entry backwards (see the module
/// docs).
#[derive(Debug, Clone, Default)]
struct WriteJournal {
    entries: Vec<JournalEntry>,
    /// Σ over tracked objects of [`ObjectMetrics::kept`]: the entries a
    /// compaction keeps.
    live: usize,
    /// Compaction scratch, one slot per entry: `NO_ENTRY` for a dead
    /// entry, otherwise how many older entries of its chain to keep while
    /// marking, and its index after the sweep. Kept to reuse its capacity.
    remap: Vec<u32>,
}

impl WriteJournal {
    /// Appends a write to the chain whose newest entry is `*newest`, and
    /// makes it the newest.
    fn append(&mut self, newest: &mut u32, version: Version, time: Time) {
        let at = u32::try_from(self.entries.len())
            .ok()
            .filter(|&at| at != NO_ENTRY)
            .expect("the write journal stays below u32::MAX entries");
        self.entries.push(JournalEntry {
            version,
            time,
            prev: *newest,
        });
        *newest = at;
    }

    /// The chain that starts at `newest`, newest first, each entry with
    /// its index.
    fn chain(&self, newest: u32) -> impl Iterator<Item = (u32, &JournalEntry)> + '_ {
        std::iter::successors(
            self.entries.get(newest as usize).map(|e| (newest, e)),
            |&(_, e)| {
                self.entries
                    .get(e.prev as usize)
                    .map(|older| (e.prev, older))
            },
        )
    }

    /// The object's last writes, newest first: at most
    /// [`RECENT_WRITE_HISTORY`] entries of the chain that starts at
    /// `newest`.
    fn history(&self, newest: u32) -> impl Iterator<Item = &JournalEntry> + '_ {
        self.chain(newest)
            .map(|(_, e)| e)
            .take(RECENT_WRITE_HISTORY)
    }

    /// Compacts the journal once it holds more than `2 × live +
    /// JOURNAL_SLACK` entries: keeps each object's live entries, in commit
    /// order, and rewrites every link, every object's newest index and
    /// every oldest pending index to match.
    fn compact_if_due(&mut self, objects: &mut IdTable<ObjectMetrics>) {
        if self.entries.len() <= 2 * self.live + JOURNAL_SLACK {
            return;
        }
        // Mark each kept entry with how many older entries of its chain
        // to keep: an object's newest entry starts at its budget minus
        // one, and an entry with some left passes one fewer to the entry
        // it links to. Links point backwards and no two entries link to
        // the same one, so a single pass from the newest entry down marks
        // every chain without walking any of them.
        self.remap.clear();
        self.remap.resize(self.entries.len(), NO_ENTRY);
        for m in objects.values() {
            if let Some(left) = self.remap.get_mut(m.newest as usize) {
                *left = m.kept() as u32 - 1;
            }
        }
        for at in (0..self.entries.len()).rev() {
            let left = self.remap[at];
            if left != NO_ENTRY && left > 0 {
                if let Some(older) = self.remap.get_mut(self.entries[at].prev as usize) {
                    *older = left - 1;
                }
            }
        }
        // Sweep: slide the marked entries down in commit order. A link
        // always points at an older entry, so its target is already
        // renumbered, or dead (past its object's budget) and ends the
        // chain.
        let mut kept = 0;
        for at in 0..self.entries.len() {
            if self.remap[at] == NO_ENTRY {
                continue;
            }
            let mut entry = self.entries[at];
            entry.prev = self.relinked(entry.prev);
            self.entries[kept as usize] = entry;
            self.remap[at] = kept;
            kept += 1;
        }
        self.entries.truncate(kept as usize);
        debug_assert_eq!(self.entries.len(), self.live);
        for (_, m) in objects.iter_mut() {
            m.newest = self.relinked(m.newest);
            m.front = self.relinked(m.front);
        }
        // Room for the appends until the next compaction, if no object
        // joins the live set meanwhile.
        self.entries.reserve(self.live + JOURNAL_SLACK + 1);
    }

    /// Where the sweep moved the entry at `at`, or [`NO_ENTRY`] if it was
    /// dropped (or `at` ends a chain).
    fn relinked(&self, at: u32) -> u32 {
        self.remap.get(at as usize).copied().unwrap_or(NO_ENTRY)
    }
}

/// Per-object metric state.
#[derive(Debug, Clone, Copy)]
struct ObjectMetrics {
    window: TimeDelta,
    backup_bound: TimeDelta,
    primary_bound: TimeDelta,
    // Primary-side image.
    primary_version: Version,
    primary_ts: Option<Time>,
    // Backup-side image (timestamp in primary-write coordinates).
    backup_ts: Option<Time>,
    // The object's newest entry in the shared write journal (`NO_ENTRY`
    // before the first write), and the ordinal (`writes` after it) of the
    // last write whose version fell below its predecessor's, 0 if none.
    newest: u32,
    regressed_at: u64,
    // Divergence (distance) accounting: the object's last `pending`
    // writes are not yet known to have reached the backup. `front` is the
    // journal index of the oldest of them and `front_ts` its time; the
    // distance at time t is `t - front_ts` (zero when none is pending).
    pending: u32,
    front: u32,
    front_ts: Time,
    last_event: Time,
    in_violation: bool,
    max_distance: TimeDelta,
    max_window_excess: TimeDelta,
    episode_count: u64,
    total_violation: TimeDelta,
    // Refresh accounting (§5.3): arrival gaps vs the scheduled cadence.
    refresh_allowance: Option<TimeDelta>,
    last_refresh: Option<Time>,
    refresh_episodes: u64,
    total_refresh_excess: TimeDelta,
    // External-consistency accounting.
    primary_violations: u64,
    primary_max_gap: TimeDelta,
    backup_violations: u64,
    backup_violation_time: TimeDelta,
    backup_max_staleness: TimeDelta,
    // Counters.
    writes: u64,
    applies: u64,
}

impl ObjectMetrics {
    fn new(window: TimeDelta, primary_bound: TimeDelta, backup_bound: TimeDelta) -> Self {
        ObjectMetrics {
            window,
            backup_bound,
            primary_bound,
            primary_version: Version::INITIAL,
            primary_ts: None,
            backup_ts: None,
            newest: NO_ENTRY,
            regressed_at: 0,
            pending: 0,
            front: NO_ENTRY,
            front_ts: Time::ZERO,
            last_event: Time::ZERO,
            in_violation: false,
            max_distance: TimeDelta::ZERO,
            max_window_excess: TimeDelta::ZERO,
            episode_count: 0,
            total_violation: TimeDelta::ZERO,
            refresh_allowance: None,
            last_refresh: None,
            refresh_episodes: 0,
            total_refresh_excess: TimeDelta::ZERO,
            primary_violations: 0,
            primary_max_gap: TimeDelta::ZERO,
            backup_violations: 0,
            backup_violation_time: TimeDelta::ZERO,
            backup_max_staleness: TimeDelta::ZERO,
            writes: 0,
            applies: 0,
        }
    }

    /// Advances the divergence clock to `now`: updates the running
    /// distance maxima and integrates out-of-window time exactly (the
    /// distance grows linearly between events, so the crossing instant
    /// `front + window` is computable in closed form).
    fn advance(&mut self, now: Time) {
        if self.pending > 0 {
            let d = now.saturating_since(self.front_ts);
            self.max_distance = self.max_distance.max(d);
            let excess = d.saturating_sub(self.window);
            self.max_window_excess = self.max_window_excess.max(excess);
            let threshold = self.front_ts + self.window;
            if now > threshold {
                let from = self.last_event.max(threshold);
                self.total_violation += now.saturating_since(from);
                if !self.in_violation {
                    self.episode_count += 1;
                    self.in_violation = true;
                }
            }
        }
        self.last_event = now;
    }

    /// These books as a per-write advance would have left them: the
    /// distance clock advanced to the object's last write, if that came
    /// after the last apply.
    fn settled(mut self) -> Self {
        if let Some(last_write) = self.primary_ts.filter(|&ts| ts > self.last_event) {
            self.advance(last_write);
        }
        self
    }

    /// The object's live entries in the write journal, which a compaction
    /// keeps: its last [`RECENT_WRITE_HISTORY`] writes, or all its pending
    /// writes if more are pending.
    fn kept(&self) -> usize {
        let budget = RECENT_WRITE_HISTORY.max(self.pending as usize);
        self.writes.min(budget as u64) as usize
    }

    /// Whether the versions of the object's last
    /// [`RECENT_WRITE_HISTORY`] writes never decrease, oldest to newest.
    fn history_is_monotone(&self) -> bool {
        self.regressed_at <= self.writes.saturating_sub(RECENT_WRITE_HISTORY as u64 - 1)
    }

    /// Pops the pending writes the backup has now covered, oldest first
    /// while their version is ≤ the applied one, and re-evaluates the
    /// violation flag against the new front.
    ///
    /// The pending writes are the newest `pending` entries of the
    /// object's chain in `journal`. Nothing pops while the oldest one is
    /// newer than `version`. Otherwise the writes that stay run from the
    /// newest entry back to the oldest pending one newer than `version`,
    /// and one walk back from the newest entry finds it: while no version
    /// regression lies among the pending writes, the newer ones form a
    /// suffix and the walk stops at the first version ≤ `version`;
    /// otherwise it visits every pending write.
    fn cover_up_to(&mut self, journal: &WriteJournal, version: Version, now: Time) {
        if self.pending > 0 && journal.entries[self.front as usize].version <= version {
            let monotone = self.regressed_at + u64::from(self.pending) <= self.writes + 1;
            let mut left = 0;
            let pending = journal.chain(self.newest).take(self.pending as usize);
            for (depth, (at, write)) in (1..).zip(pending) {
                if write.version > version {
                    left = depth;
                    self.front = at;
                    self.front_ts = write.time;
                } else if monotone {
                    break;
                }
            }
            self.pending = left;
        }
        self.in_violation =
            self.pending > 0 && now > self.front_ts + self.window && self.in_violation;
    }
}

/// The kind of an injected fault, for [`FaultRecord`] attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The primary host fail-stopped.
    PrimaryCrash,
    /// A backup host fail-stopped.
    BackupCrash,
    /// A crashed backup host restarted and re-joined.
    BackupRecovery,
    /// A replica pair was partitioned for a window.
    Partition,
    /// The serving primary was cut off from every backup for a window
    /// while it kept running (split-brain).
    PrimaryPartition,
    /// The data path suffered an elevated-loss window.
    LossBurst,
    /// The data path suffered an added-latency window.
    DelaySpike,
    /// A node's local clock was stepped by an offset for a window.
    ClockStep,
    /// A node's local clock drifted at an off-nominal rate for a window.
    ClockDrift,
    /// A node's local clock froze at its reading for a window.
    ClockFreeze,
    /// The data path flipped bits in transported frames for a window.
    CorruptFrame,
    /// Stored object images retained across a backup restart were
    /// corrupted (bit rot on the durable store).
    CorruptState,
}

impl InjectedFault {
    /// The schema name of the fault kind (the `fault` field of a
    /// `fault_injected` event).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            InjectedFault::PrimaryCrash => "primary_crash",
            InjectedFault::BackupCrash => "backup_crash",
            InjectedFault::BackupRecovery => "backup_recovery",
            InjectedFault::Partition => "partition",
            InjectedFault::PrimaryPartition => "primary_partition",
            InjectedFault::LossBurst => "loss_burst",
            InjectedFault::DelaySpike => "delay_spike",
            InjectedFault::ClockStep => "clock_step",
            InjectedFault::ClockDrift => "clock_drift",
            InjectedFault::ClockFreeze => "clock_freeze",
            InjectedFault::CorruptFrame => "corrupt_frame",
            InjectedFault::CorruptState => "corrupt_state",
        }
    }
}

/// The lifecycle of one injected fault: when it was injected, when the
/// protocol *detected* it (a failure detector fired, or loss evidence
/// like a retransmission request surfaced), when the cluster *recovered*
/// (failover complete, replica re-integrated, or the window healed), and
/// how many protocol retries the recovery consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// What was injected.
    pub kind: InjectedFault,
    /// Injection instant.
    pub injected_at: Time,
    /// First instant the protocol reacted to the fault, if it ever did.
    pub detected_at: Option<Time>,
    /// Instant the cluster was whole again, if it recovered.
    pub recovered_at: Option<Time>,
    /// Protocol retries attributable to this fault (join retries,
    /// retransmission requests).
    pub retries: u64,
}

impl FaultRecord {
    /// Injection-to-detection latency, if detected.
    #[must_use]
    pub fn detection_latency(&self) -> Option<TimeDelta> {
        Some(self.detected_at?.saturating_since(self.injected_at))
    }

    /// Injection-to-recovery duration, if recovered.
    #[must_use]
    pub fn recovery_time(&self) -> Option<TimeDelta> {
        Some(self.recovered_at?.saturating_since(self.injected_at))
    }
}

/// A read-only summary of one object's run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectReport {
    /// The consistency window `δ_i` the object was admitted with.
    pub window: TimeDelta,
    /// Client writes applied at the primary.
    pub writes: u64,
    /// Updates applied at the backup.
    pub applies: u64,
    /// Maximum observed primary–backup distance.
    pub max_distance: TimeDelta,
    /// Maximum amount by which the distance exceeded the window.
    pub max_window_excess: TimeDelta,
    /// Number of intervals during which the distance exceeded the window
    /// `δ_i` — violations of the replication guarantee.
    pub window_episodes: u64,
    /// Total time the backup spent out of its window.
    pub total_window_violation: TimeDelta,
    /// Number of §5.3 inconsistency episodes: update-arrival gaps that
    /// exceeded the scheduled refresh allowance (a lost update leaves the
    /// backup inconsistent until the next arrival).
    pub inconsistency_episodes: u64,
    /// Mean duration of those episodes ([`TimeDelta::ZERO`] if none).
    pub mean_inconsistency: TimeDelta,
    /// Total of those episode durations.
    pub total_inconsistency: TimeDelta,
    /// External-bound (`δ_i^P`) violations observed at the primary
    /// (write-to-write gaps exceeding the bound).
    pub primary_violations: u64,
    /// External-bound (`δ_i^B`) violation intervals observed at the
    /// backup.
    pub backup_violations: u64,
    /// Total time the backup image was older than `δ_i^B`.
    pub backup_violation_time: TimeDelta,
    /// Worst backup image staleness observed at an apply event.
    pub backup_max_staleness: TimeDelta,
}

/// Aggregated metrics for a whole cluster run.
///
/// Fed by the [`steps`](crate::steps) both drivers run; a driver only
/// tracks objects, sets their refresh allowances and reads the report.
/// Update, loss and retransmission counts live in the `cluster.*`
/// registry ([`Instruments`](crate::telemetry::Instruments)), not here.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    objects: IdTable<ObjectMetrics>,
    journal: WriteJournal,
    responses: u64,
    response_nanos: u128,
    first_declared_at: Option<Time>,
    declared_at: Option<Time>,
    failover_duration: Option<TimeDelta>,
}

impl ClusterMetrics {
    /// Creates an empty metrics sink.
    #[must_use]
    pub fn new() -> Self {
        ClusterMetrics::default()
    }

    /// Starts tracking an object. Tracking an id again restarts its
    /// metrics and its write history.
    pub fn track_object(
        &mut self,
        id: ObjectId,
        window: TimeDelta,
        primary_bound: TimeDelta,
        backup_bound: TimeDelta,
    ) {
        let fresh = ObjectMetrics::new(window, primary_bound, backup_bound);
        if let Some(old) = self.objects.insert(id, fresh) {
            self.journal.live -= old.kept();
            self.journal.compact_if_due(&mut self.objects);
        }
    }

    /// Records the completion of a client write at the primary.
    pub fn on_primary_write(&mut self, id: ObjectId, version: Version, now: Time) {
        let Some(m) = self.objects.get_mut(id) else {
            return;
        };
        let kept = m.kept();
        m.writes += 1;
        if let Some(prev) = m.primary_ts {
            let gap = now.saturating_since(prev);
            m.primary_max_gap = m.primary_max_gap.max(gap);
            if gap > m.primary_bound {
                m.primary_violations += 1;
            }
        }
        if version < m.primary_version {
            m.regressed_at = m.writes;
        }
        m.primary_version = version;
        m.primary_ts = Some(now);
        self.journal.append(&mut m.newest, version, now);
        // With nothing pending the distance was zero and the clock has
        // nothing to accrue up to here; this write starts the divergence.
        if m.pending == 0 {
            m.front = m.newest;
            m.front_ts = now;
        }
        m.pending += 1;
        self.journal.live += m.kept() - kept;
        self.journal.compact_if_due(&mut self.objects);
    }

    /// Timestamp of the earliest of the object's last 64 writes
    /// (`RECENT_WRITE_HISTORY`) with a version strictly greater than
    /// `version`, if any.
    ///
    /// This is the ground truth a [`StalenessCertificate`] is checked
    /// against: a read served at version `v` at time `t` is truly
    /// `t - earliest_write_after(id, v)` stale (zero when no newer write
    /// exists). Forgetting older writes can only under-report true
    /// staleness, so a validator built on this accessor never raises a
    /// false violation.
    ///
    /// The walk goes back from the newest write in the shared write
    /// journal. While the window's versions never decrease, the writes
    /// newer than `version` form a suffix of it, so the walk stops at the
    /// first version ≤ `version`. A successor primary that renumbers after
    /// failover can make versions go backwards; while such a step lies
    /// inside the window, the walk scans all of it. Either way the answer
    /// is the oldest qualifying write of the window, exactly what a
    /// 64-entry ring scanned from its oldest entry returns.
    ///
    /// [`StalenessCertificate`]: rtpb_types::StalenessCertificate
    #[must_use]
    pub fn earliest_write_after(&self, id: ObjectId, version: Version) -> Option<Time> {
        let m = self.objects.get(id)?;
        let monotone = m.history_is_monotone();
        let mut earliest = None;
        for write in self.journal.history(m.newest) {
            if write.version > version {
                earliest = Some(write.time);
            } else if monotone {
                break;
            }
        }
        earliest
    }

    /// Records an update applied at the backup. `write_ts` is the
    /// primary-side timestamp carried by the update.
    pub fn on_backup_apply(&mut self, id: ObjectId, version: Version, write_ts: Time, now: Time) {
        let Some(m) = self.objects.get_mut(id) else {
            return;
        };
        m.applies += 1;
        // External staleness just before this apply refreshed the image.
        if let Some(old_ts) = m.backup_ts {
            let staleness = now.saturating_since(old_ts);
            m.backup_max_staleness = m.backup_max_staleness.max(staleness);
            if staleness > m.backup_bound {
                m.backup_violations += 1;
                m.backup_violation_time += staleness - m.backup_bound;
            }
        }
        m.backup_ts = Some(write_ts);
        let kept = m.kept();
        m.advance(now);
        m.cover_up_to(&self.journal, version, now);
        self.journal.live -= kept - m.kept();
        self.journal.compact_if_due(&mut self.objects);
    }

    /// Records a client-write response time.
    pub fn record_response(&mut self, response: TimeDelta) {
        self.responses += 1;
        self.response_nanos += u128::from(response.as_nanos());
    }

    /// Records the instant a backup declared the primary dead.
    pub fn record_failover_started(&mut self, now: Time) {
        self.first_declared_at.get_or_insert(now);
        self.declared_at = Some(now);
    }

    /// Records the instant a new primary began serving and returns this
    /// failover's duration, timed from the latest declaration before it:
    /// an earlier false alarm healed by re-join does not count.
    pub fn record_failover_complete(&mut self, now: Time) -> Option<TimeDelta> {
        let duration = self.declared_at.map(|at| now.saturating_since(at));
        self.failover_duration = self.failover_duration.or(duration);
        duration
    }

    /// Accounts open divergence intervals and refresh gaps up to the end
    /// of the run.
    pub fn finalize(&mut self, now: Time) {
        for (_, m) in self.objects.iter_mut() {
            m.advance(now);
            if let (Some(allow), Some(last)) = (m.refresh_allowance, m.last_refresh) {
                let gap = now.saturating_since(last);
                if gap > allow {
                    m.refresh_episodes += 1;
                    m.total_refresh_excess += gap - allow;
                    m.last_refresh = Some(now);
                }
            }
        }
    }

    /// The report for one object, if tracked.
    #[must_use]
    pub fn object_report(&self, id: ObjectId) -> Option<ObjectReport> {
        let m = self.objects.get(id)?.settled();
        Some(ObjectReport {
            window: m.window,
            writes: m.writes,
            applies: m.applies,
            max_distance: m.max_distance,
            max_window_excess: m.max_window_excess,
            window_episodes: m.episode_count,
            total_window_violation: m.total_violation,
            inconsistency_episodes: m.refresh_episodes,
            mean_inconsistency: if m.refresh_episodes == 0 {
                TimeDelta::ZERO
            } else {
                m.total_refresh_excess / m.refresh_episodes
            },
            total_inconsistency: m.total_refresh_excess,
            primary_violations: m.primary_violations,
            backup_violations: m.backup_violations,
            backup_violation_time: m.backup_violation_time,
            backup_max_staleness: m.backup_max_staleness,
        })
    }

    /// Ids of all tracked objects.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.iter().map(|(id, _)| id)
    }

    /// Mean client response time (§5.1, Figures 6–7), or `None` if no
    /// write crossed a queue.
    #[must_use]
    pub fn mean_response_time(&self) -> Option<TimeDelta> {
        (self.responses > 0).then(|| {
            TimeDelta::from_nanos((self.response_nanos / u128::from(self.responses)) as u64)
        })
    }

    /// The *average maximum distance* of Figures 8–10: each object's
    /// maximum distance, averaged over objects.
    #[must_use]
    pub fn average_max_distance(&self) -> Option<TimeDelta> {
        if self.objects.is_empty() {
            return None;
        }
        let total: u128 = self
            .objects
            .values()
            .map(|m| u128::from(m.settled().max_distance.as_nanos()))
            .sum();
        Some(TimeDelta::from_nanos(
            (total / self.objects.len() as u128) as u64,
        ))
    }

    /// Mean §5.3 inconsistency-episode duration across all objects
    /// (Figures 11–12), or `None` if no episode occurred.
    #[must_use]
    pub fn mean_inconsistency_duration(&self) -> Option<TimeDelta> {
        let episodes: u64 = self.objects.values().map(|m| m.refresh_episodes).sum();
        if episodes == 0 {
            return None;
        }
        let total: TimeDelta = self.objects.values().map(|m| m.total_refresh_excess).sum();
        Some(total / episodes)
    }

    /// Sets the scheduled refresh allowance for an object: the update
    /// period in force plus the delay bound (and any slack). Arrival gaps
    /// beyond this count as §5.3 inconsistency.
    pub fn set_refresh_allowance(&mut self, id: ObjectId, allowance: TimeDelta) {
        if let Some(m) = self.objects.get_mut(id) {
            m.refresh_allowance = Some(allowance);
        }
    }

    /// Records an update arrival at the backup (fresh or duplicate): the
    /// backup's refresh clock resets either way, since even a duplicate
    /// proves currency as of its snapshot.
    pub fn on_backup_refresh(&mut self, id: ObjectId, now: Time) {
        let Some(m) = self.objects.get_mut(id) else {
            return;
        };
        if let (Some(allow), Some(last)) = (m.refresh_allowance, m.last_refresh) {
            let gap = now.saturating_since(last);
            if gap > allow {
                m.refresh_episodes += 1;
                m.total_refresh_excess += gap - allow;
            }
        }
        m.last_refresh = Some(now);
    }

    /// First instant a backup declared the primary dead, if any detector
    /// ever fired (even a false alarm later healed by re-join).
    #[must_use]
    pub fn failover_started_at(&self) -> Option<Time> {
        self.first_declared_at
    }

    /// Time from the primary-death declaration to the new primary
    /// serving, for the run's first failover, if one happened.
    #[must_use]
    pub fn failover_duration(&self) -> Option<TimeDelta> {
        self.failover_duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn t(v: u64) -> Time {
        Time::from_millis(v)
    }

    fn metrics_with_object(window_ms: u64) -> (ClusterMetrics, ObjectId) {
        let mut m = ClusterMetrics::new();
        let id = ObjectId::new(0);
        m.track_object(id, ms(window_ms), ms(150), ms(150 + window_ms));
        (m, id)
    }

    #[test]
    fn distance_is_the_divergence_duration() {
        let (mut m, id) = metrics_with_object(400);
        // Write at t=10 starts divergence; the matching apply at t=20
        // closes it → distance peaked at 10 ms.
        m.on_primary_write(id, Version::new(1), t(10));
        m.on_backup_apply(id, Version::new(1), t(10), t(20));
        let r = m.object_report(id).unwrap();
        assert_eq!(r.max_distance, ms(10));
        assert_eq!(r.writes, 1);
        assert_eq!(r.applies, 1);
        assert_eq!(r.window_episodes, 0); // never left the window
    }

    #[test]
    fn divergence_start_is_anchored_at_the_first_missed_write() {
        let (mut m, id) = metrics_with_object(400);
        m.on_primary_write(id, Version::new(1), t(0));
        m.on_backup_apply(id, Version::new(1), t(0), t(5));
        // Two writes go unreplicated; divergence runs from t=100.
        m.on_primary_write(id, Version::new(2), t(100));
        m.on_primary_write(id, Version::new(3), t(200));
        // An intermediate version advances the divergence anchor to the
        // first write it does not cover (v3 at t=200): distance peaked at
        // 250 - 100 = 150 ms just before the apply.
        m.on_backup_apply(id, Version::new(2), t(100), t(250));
        assert_eq!(m.object_report(id).unwrap().max_distance, ms(150));
        // Catching up fully: the remaining divergence ran 200 → 310,
        // never exceeding the earlier 150 ms peak.
        m.on_backup_apply(id, Version::new(3), t(200), t(310));
        assert_eq!(m.object_report(id).unwrap().max_distance, ms(150));
        assert_eq!(m.object_report(id).unwrap().window_episodes, 0);
    }

    #[test]
    fn window_excess_and_episodes() {
        let (mut m, id) = metrics_with_object(100);
        m.on_primary_write(id, Version::new(1), t(0));
        m.on_backup_apply(id, Version::new(1), t(0), t(5));
        // Divergence from t=150; recovery at t=280 → 130 ms diverged,
        // 30 ms of it beyond the 100 ms window.
        m.on_primary_write(id, Version::new(2), t(150));
        m.on_backup_apply(id, Version::new(2), t(150), t(280));
        let r = m.object_report(id).unwrap();
        assert_eq!(r.max_distance, ms(130));
        assert_eq!(r.max_window_excess, ms(30));
        assert_eq!(r.window_episodes, 1);
        assert_eq!(r.total_window_violation, ms(30));
    }

    #[test]
    fn open_episode_closed_by_finalize() {
        let (mut m, id) = metrics_with_object(100);
        m.on_primary_write(id, Version::new(1), t(0));
        m.on_backup_apply(id, Version::new(1), t(0), t(5));
        m.on_primary_write(id, Version::new(2), t(200)); // never replicated
        m.finalize(t(500));
        let r = m.object_report(id).unwrap();
        // Diverged 200 → 500 (300 ms), of which 200 ms beyond the window.
        assert_eq!(r.max_distance, ms(300));
        assert_eq!(r.window_episodes, 1);
        assert_eq!(r.total_window_violation, ms(200));
    }

    #[test]
    fn primary_violations_counted_from_write_gaps() {
        let (mut m, id) = metrics_with_object(400); // δP = 150
        m.on_primary_write(id, Version::new(1), t(0));
        m.on_primary_write(id, Version::new(2), t(100)); // gap 100: fine
        m.on_primary_write(id, Version::new(3), t(300)); // gap 200 > 150
        let r = m.object_report(id).unwrap();
        assert_eq!(r.primary_violations, 1);
    }

    #[test]
    fn backup_violations_from_staleness_at_apply() {
        let (mut m, id) = metrics_with_object(400); // δB = 550
        m.on_primary_write(id, Version::new(1), t(0));
        m.on_backup_apply(id, Version::new(1), t(0), t(10));
        m.on_primary_write(id, Version::new(2), t(100));
        // Next apply arrives very late: image from t=0 was 700 ms old.
        m.on_backup_apply(id, Version::new(2), t(100), t(700));
        let r = m.object_report(id).unwrap();
        assert_eq!(r.backup_violations, 1);
        assert_eq!(r.backup_violation_time, ms(150)); // 700 - 550
        assert_eq!(r.backup_max_staleness, ms(700));
    }

    #[test]
    fn response_times_aggregate() {
        let (mut m, _) = metrics_with_object(400);
        assert_eq!(m.mean_response_time(), None);
        m.record_response(ms(1));
        m.record_response(ms(3));
        m.record_response(TimeDelta::from_nanos(1));
        // Integer division of the nanosecond total, rounding down.
        assert_eq!(
            m.mean_response_time(),
            Some(TimeDelta::from_nanos(4_000_001 / 3))
        );
    }

    #[test]
    fn average_max_distance_across_objects() {
        let mut m = ClusterMetrics::new();
        let a = ObjectId::new(0);
        let b = ObjectId::new(1);
        m.track_object(a, ms(400), ms(150), ms(550));
        m.track_object(b, ms(400), ms(150), ms(550));
        // a diverges 0→100 (100 ms); b diverges 0→300 (300 ms).
        m.on_primary_write(a, Version::new(1), t(0));
        m.on_backup_apply(a, Version::new(1), t(0), t(100));
        m.on_primary_write(b, Version::new(1), t(0));
        m.on_backup_apply(b, Version::new(1), t(0), t(300));
        assert_eq!(m.average_max_distance(), Some(ms(200)));
    }

    #[test]
    fn empty_metrics_return_none() {
        let m = ClusterMetrics::new();
        assert_eq!(m.average_max_distance(), None);
        assert_eq!(m.mean_inconsistency_duration(), None);
        assert_eq!(m.object_report(ObjectId::new(0)), None);
        assert_eq!(m.failover_duration(), None);
    }

    #[test]
    fn failover_timing() {
        let mut m = ClusterMetrics::new();
        // A false alarm at 10 ms heals by re-join; the real declaration
        // at 100 ms times the promotion at 140 ms.
        m.record_failover_started(t(10));
        m.record_failover_started(t(100));
        assert_eq!(m.record_failover_complete(t(140)), Some(ms(40)));
        // A second failover is timed on its own; the first one stays.
        m.record_failover_started(t(999));
        assert_eq!(m.record_failover_complete(t(1_004)), Some(ms(5)));
        assert_eq!(m.failover_duration(), Some(ms(40)));
        assert_eq!(m.failover_started_at(), Some(t(10)));
    }

    #[test]
    fn duplicate_applies_while_current_change_nothing() {
        let (mut m, id) = metrics_with_object(400);
        m.on_primary_write(id, Version::new(1), t(0));
        m.on_backup_apply(id, Version::new(1), t(0), t(5));
        m.on_backup_apply(id, Version::new(1), t(0), t(10));
        // The only divergence was 0 → 5.
        assert_eq!(m.object_report(id).unwrap().max_distance, ms(5));
        assert_eq!(m.object_report(id).unwrap().window_episodes, 0);
    }

    #[test]
    fn refresh_gaps_count_section_5_3_inconsistency() {
        let (mut m, id) = metrics_with_object(400);
        // Scheduled cadence 100 ms + 15 ms allowance head-room.
        m.set_refresh_allowance(id, ms(115));
        m.on_backup_refresh(id, t(100));
        m.on_backup_refresh(id, t(200)); // gap 100: fine
        m.on_backup_refresh(id, t(500)); // gap 300: 185 ms of inconsistency
        let r = m.object_report(id).unwrap();
        assert_eq!(r.inconsistency_episodes, 1);
        assert_eq!(r.total_inconsistency, ms(185));
        assert_eq!(r.mean_inconsistency, ms(185));
    }

    #[test]
    fn refresh_gap_open_at_end_is_finalized() {
        let (mut m, id) = metrics_with_object(400);
        m.set_refresh_allowance(id, ms(115));
        m.on_backup_refresh(id, t(100));
        m.finalize(t(400)); // gap 300 → 185 ms excess
        assert_eq!(m.object_report(id).unwrap().inconsistency_episodes, 1);
        assert_eq!(m.mean_inconsistency_duration(), Some(ms(185)));
    }

    #[test]
    fn journal_stays_within_twice_its_live_entries_plus_slack() {
        const OBJECTS: u32 = 12;
        // Applies trail their writes by this many writes, as the hot-path
        // `ledger` scenario's do, so that few writes stay pending.
        const LAG: usize = 3 * OBJECTS as usize;
        let mut m = ClusterMetrics::new();
        for i in 0..OBJECTS {
            m.track_object(ObjectId::new(i), ms(400), ms(150), ms(550));
        }
        let mut rng = rtpb_sim::SimRng::seed_from(11);
        let mut versions = [0u64; OBJECTS as usize];
        let mut unapplied = VecDeque::new();
        // Writes `version` to object `i` at `now` and applies the write
        // made `LAG` writes earlier.
        fn write_and_apply(
            m: &mut ClusterMetrics,
            unapplied: &mut VecDeque<(ObjectId, Version, Time)>,
            i: usize,
            version: u64,
            now: Time,
        ) {
            let id = ObjectId::new(i as u32);
            m.on_primary_write(id, Version::new(version), now);
            unapplied.push_back((id, Version::new(version), now));
            if unapplied.len() > LAG {
                let (id, version, written) = unapplied.pop_front().expect("nonempty");
                m.on_backup_apply(id, version, written, now);
            }
        }
        // Checks the bound and reports whether the step compacted.
        fn compacted(m: &ClusterMetrics, before: usize) -> bool {
            let live: usize = m.objects.values().map(ObjectMetrics::kept).sum();
            assert_eq!(m.journal.live, live);
            let len = m.journal.entries.len();
            assert!(
                len <= 2 * live + JOURNAL_SLACK,
                "{len} entries, {live} live"
            );
            len < before
        }
        let mut compactions = 0;
        // Random writes, regressions and re-tracks.
        for step in 0..30_000u64 {
            let i = rng.index(OBJECTS as usize);
            let before = m.journal.entries.len();
            if rng.chance(0.002) {
                m.track_object(ObjectId::new(i as u32), ms(400), ms(150), ms(550));
                versions[i] = 0;
            } else {
                versions[i] = if rng.chance(0.05) {
                    versions[i].saturating_sub(3)
                } else {
                    versions[i] + 1
                };
                write_and_apply(&mut m, &mut unapplied, i, versions[i], t(step));
            }
            compactions += usize::from(compacted(&m, before));
        }
        assert!(compactions >= 20, "only {compactions} compactions");
        // Round-robin writes: once every window is full and one compaction
        // has reserved room, the journal's buffer never grows again.
        let mut capacity = None;
        for step in 0..20_000u64 {
            let i = (step % u64::from(OBJECTS)) as usize;
            versions[i] += 1;
            let before = m.journal.entries.len();
            write_and_apply(&mut m, &mut unapplied, i, versions[i], t(30_000 + step));
            if compacted(&m, before) && step >= 64 * u64::from(OBJECTS) {
                capacity.get_or_insert(m.journal.entries.capacity());
            }
            if let Some(c) = capacity {
                assert_eq!(m.journal.entries.capacity(), c, "steady state reallocated");
            }
        }
        assert!(capacity.is_some(), "no compaction in steady state");
        // A backlog longer than the read path's window: object 0 keeps
        // writing while nothing covers it, across two compactions.
        let stuck = ObjectId::new(0);
        unapplied.retain(|&(id, ..)| id != stuck);
        m.on_backup_apply(stuck, Version::new(versions[0]), t(49_999), t(49_999));
        assert_eq!(m.objects.get(stuck).unwrap().pending, 0);
        let mut backlog_from = None;
        let mut compactions = 0;
        let mut step = 50_000;
        while compactions < 2 || m.objects.get(stuck).unwrap().pending < 200 {
            let i = (step % u64::from(OBJECTS)) as usize;
            versions[i] += 1;
            let before = m.journal.entries.len();
            if i == 0 {
                backlog_from.get_or_insert((versions[0], t(step)));
                m.on_primary_write(stuck, Version::new(versions[0]), t(step));
            } else {
                write_and_apply(&mut m, &mut unapplied, i, versions[i], t(step));
            }
            if compacted(&m, before) {
                compactions += usize::from(m.objects.get(stuck).unwrap().pending > 64);
            }
            step += 1;
        }
        let backlog_from = backlog_from.unwrap();
        let s = *m.objects.get(stuck).unwrap();
        let oldest = m.journal.chain(s.newest).nth(s.pending as usize - 1);
        let (at, oldest) = oldest.expect("every pending write kept");
        assert_eq!(at, s.front);
        assert_eq!((oldest.version.value(), oldest.time), backlog_from);
        assert_eq!(s.front_ts, backlog_from.1);
        // One apply covers the whole backlog.
        m.on_backup_apply(stuck, Version::new(versions[0]), t(step), t(step));
        assert_eq!(m.objects.get(stuck).unwrap().pending, 0);
        let report = m.object_report(stuck).unwrap();
        assert_eq!(
            report.max_distance,
            t(step).saturating_since(backlog_from.1)
        );
    }

    #[test]
    fn refresh_without_allowance_is_ignored() {
        let (mut m, id) = metrics_with_object(400);
        m.on_backup_refresh(id, t(100));
        m.on_backup_refresh(id, t(900));
        assert_eq!(m.object_report(id).unwrap().inconsistency_episodes, 0);
    }
}
