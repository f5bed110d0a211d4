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
//! events, so exact accounting is possible without sampling.

use rtpb_sim::Summary;
use rtpb_types::{ObjectId, Time, TimeDelta, Version};
use std::collections::{BTreeMap, VecDeque};

/// Per-object cap on the recent-write history used by the read-path
/// staleness validator.
const RECENT_WRITE_HISTORY: usize = 64;

/// Per-object metric state.
#[derive(Debug, Clone)]
struct ObjectMetrics {
    window: TimeDelta,
    backup_bound: TimeDelta,
    primary_bound: TimeDelta,
    // Primary-side image.
    primary_version: Version,
    primary_ts: Option<Time>,
    // Backup-side image (timestamp in primary-write coordinates).
    backup_version: Version,
    backup_ts: Option<Time>,
    // Divergence (distance) accounting: the queue of writes not yet
    // known to have reached the backup, oldest first. The distance at
    // time t is `t - front.timestamp` (zero when empty).
    pending: VecDeque<(Version, Time)>,
    // Bounded history of recent primary writes, oldest first. Lets the
    // read-path validator recover the true staleness of a served
    // certificate (the age of the earliest write the reader missed).
    // Evicting old entries only makes the validator more lenient, never
    // produces a false violation.
    recent_writes: VecDeque<(Version, Time)>,
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
            backup_version: Version::INITIAL,
            backup_ts: None,
            pending: VecDeque::new(),
            recent_writes: VecDeque::new(),
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
        if let Some(&(_, front_ts)) = self.pending.front() {
            let d = now.saturating_since(front_ts);
            self.max_distance = self.max_distance.max(d);
            let excess = d.saturating_sub(self.window);
            self.max_window_excess = self.max_window_excess.max(excess);
            let threshold = front_ts + self.window;
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

    /// Pops every pending write the backup has now covered (version ≤ the
    /// applied one) and re-evaluates the violation flag against the new
    /// front.
    fn cover_up_to(&mut self, version: Version, now: Time) {
        while self.pending.front().is_some_and(|&(v, _)| v <= version) {
            self.pending.pop_front();
        }
        self.in_violation = match self.pending.front() {
            Some(&(_, front_ts)) => now > front_ts + self.window && self.in_violation,
            None => false,
        };
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
/// Fed by the harness; read by the figure benches and by tests.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    objects: BTreeMap<ObjectId, ObjectMetrics>,
    response_times: Summary,
    updates_sent: u64,
    updates_lost: u64,
    retransmit_requests: u64,
    failover_at: Option<Time>,
    failover_complete_at: Option<Time>,
}

impl ClusterMetrics {
    /// Creates an empty metrics sink.
    #[must_use]
    pub fn new() -> Self {
        ClusterMetrics::default()
    }

    /// Starts tracking an object.
    pub fn track_object(
        &mut self,
        id: ObjectId,
        window: TimeDelta,
        primary_bound: TimeDelta,
        backup_bound: TimeDelta,
    ) {
        self.objects
            .insert(id, ObjectMetrics::new(window, primary_bound, backup_bound));
    }

    /// Records the completion of a client write at the primary.
    pub fn on_primary_write(&mut self, id: ObjectId, version: Version, now: Time) {
        let Some(m) = self.objects.get_mut(&id) else {
            return;
        };
        m.writes += 1;
        if let Some(prev) = m.primary_ts {
            let gap = now.saturating_since(prev);
            m.primary_max_gap = m.primary_max_gap.max(gap);
            if gap > m.primary_bound {
                m.primary_violations += 1;
            }
        }
        m.primary_version = version;
        m.primary_ts = Some(now);
        m.advance(now);
        m.pending.push_back((version, now));
        if m.recent_writes.len() >= RECENT_WRITE_HISTORY {
            m.recent_writes.pop_front();
        }
        m.recent_writes.push_back((version, now));
    }

    /// Timestamp of the earliest recorded write to `id` with a version
    /// strictly greater than `version`, if any is still in the bounded
    /// history.
    ///
    /// This is the ground truth a [`StalenessCertificate`] is checked
    /// against: a read served at version `v` at time `t` is truly
    /// `t - earliest_write_after(id, v)` stale (zero when no newer write
    /// exists). History eviction can only under-report true staleness,
    /// so a validator built on this accessor never raises a false
    /// violation.
    ///
    /// [`StalenessCertificate`]: rtpb_types::StalenessCertificate
    #[must_use]
    pub fn earliest_write_after(&self, id: ObjectId, version: Version) -> Option<Time> {
        let m = self.objects.get(&id)?;
        m.recent_writes
            .iter()
            .find(|&&(v, _)| v > version)
            .map(|&(_, ts)| ts)
    }

    /// Records an update applied at the backup. `write_ts` is the
    /// primary-side timestamp carried by the update.
    pub fn on_backup_apply(&mut self, id: ObjectId, version: Version, write_ts: Time, now: Time) {
        let Some(m) = self.objects.get_mut(&id) else {
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
        m.backup_version = version;
        m.backup_ts = Some(write_ts);
        m.advance(now);
        m.cover_up_to(version, now);
    }

    /// Records a client-write response time.
    pub fn record_response(&mut self, response: TimeDelta) {
        self.response_times.record(response);
    }

    /// Records an update transmission (and whether the link lost it).
    pub fn record_update_sent(&mut self, lost: bool) {
        self.updates_sent += 1;
        if lost {
            self.updates_lost += 1;
        }
    }

    /// Records a backup-initiated retransmission request.
    pub fn record_retransmit_request(&mut self) {
        self.retransmit_requests += 1;
    }

    /// Records the instant the primary was declared dead by the backup.
    pub fn record_failover_started(&mut self, now: Time) {
        self.failover_at.get_or_insert(now);
    }

    /// Records the instant the new primary began serving.
    pub fn record_failover_complete(&mut self, now: Time) {
        self.failover_complete_at.get_or_insert(now);
    }

    /// Accounts open divergence intervals and refresh gaps up to the end
    /// of the run.
    pub fn finalize(&mut self, now: Time) {
        for m in self.objects.values_mut() {
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
        let m = self.objects.get(&id)?;
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
        self.objects.keys().copied()
    }

    /// Client response-time summary.
    #[must_use]
    pub fn response_times(&self) -> &Summary {
        &self.response_times
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
            .map(|m| u128::from(m.max_distance.as_nanos()))
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
        if let Some(m) = self.objects.get_mut(&id) {
            m.refresh_allowance = Some(allowance);
        }
    }

    /// Records an update arrival at the backup (fresh or duplicate): the
    /// backup's refresh clock resets either way, since even a duplicate
    /// proves currency as of its snapshot.
    pub fn on_backup_refresh(&mut self, id: ObjectId, now: Time) {
        let Some(m) = self.objects.get_mut(&id) else {
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

    /// Total updates transmitted toward the backup.
    #[must_use]
    pub fn updates_sent(&self) -> u64 {
        self.updates_sent
    }

    /// Updates the link dropped.
    #[must_use]
    pub fn updates_lost(&self) -> u64 {
        self.updates_lost
    }

    /// Retransmission requests the backup issued.
    #[must_use]
    pub fn retransmit_requests(&self) -> u64 {
        self.retransmit_requests
    }

    /// First instant a backup declared the primary dead, if any detector
    /// ever fired (even a false alarm later healed by re-join).
    #[must_use]
    pub fn failover_started_at(&self) -> Option<Time> {
        self.failover_at
    }

    /// Time from primary-death declaration to the new primary serving,
    /// if a failover happened.
    #[must_use]
    pub fn failover_duration(&self) -> Option<TimeDelta> {
        Some(
            self.failover_complete_at?
                .saturating_since(self.failover_at?),
        )
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
        m.record_response(ms(1));
        m.record_response(ms(3));
        assert_eq!(m.response_times().count(), 2);
        assert_eq!(m.response_times().mean(), Some(ms(2)));
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
        m.record_failover_started(t(100));
        m.record_failover_complete(t(140));
        // Later repeats do not overwrite.
        m.record_failover_started(t(999));
        assert_eq!(m.failover_duration(), Some(ms(40)));
    }

    #[test]
    fn update_counters() {
        let mut m = ClusterMetrics::new();
        m.record_update_sent(false);
        m.record_update_sent(true);
        m.record_retransmit_request();
        assert_eq!(m.updates_sent(), 2);
        assert_eq!(m.updates_lost(), 1);
        assert_eq!(m.retransmit_requests(), 1);
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
    fn refresh_without_allowance_is_ignored() {
        let (mut m, id) = metrics_with_object(400);
        m.on_backup_refresh(id, t(100));
        m.on_backup_refresh(id, t(900));
        assert_eq!(m.object_report(id).unwrap().inconsistency_episodes, 0);
    }
}
