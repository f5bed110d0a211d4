//! `ClusterMetrics` keeps each object's recent and pending writes in one
//! write journal shared by all objects (DESIGN.md §13). The read path's
//! ground truth, `earliest_write_after`, walks an object's chain back
//! from its newest write, stopping early while the window's versions
//! never decrease. The distance books read the pending writes from the
//! same chain and advance their clock only at applies and at `finalize`.
//! The journal compacts to what each chain reaches.
//!
//! This test pins both against a reference: a per-object ring of the last
//! 64 writes, scanned from its oldest entry, and the books as a queue of
//! pending writes, popped front-first while the version is ≤ the applied
//! one, with the distance clock advanced at every write and apply. Every
//! report field must agree after every step, both live and in a finalized
//! clone.

use rtpb::core::{ClusterMetrics, ObjectReport};
use rtpb::sim::propcheck::{run_cases, Gen};
use rtpb::types::{ObjectId, Time, TimeDelta, Version};
use std::collections::VecDeque;

/// Writes per object that `earliest_write_after` sees.
const HISTORY: usize = 64;

/// The reference books of one object.
#[derive(Clone)]
struct Books {
    primary_bound: TimeDelta,
    backup_bound: TimeDelta,
    /// The last [`HISTORY`] writes, oldest first.
    ring: VecDeque<(Version, Time)>,
    /// The writes the backup has not covered, oldest first.
    pending: VecDeque<(Version, Time)>,
    primary_ts: Option<Time>,
    backup_ts: Option<Time>,
    last_event: Time,
    in_violation: bool,
    refresh_allowance: Option<TimeDelta>,
    last_refresh: Option<Time>,
    /// The running figures; `mean_inconsistency` is filled in by
    /// [`Books::report`].
    figures: ObjectReport,
}

impl Books {
    fn new(window: TimeDelta, primary_bound: TimeDelta, backup_bound: TimeDelta) -> Self {
        Books {
            primary_bound,
            backup_bound,
            ring: VecDeque::with_capacity(HISTORY),
            pending: VecDeque::new(),
            primary_ts: None,
            backup_ts: None,
            last_event: Time::ZERO,
            in_violation: false,
            refresh_allowance: None,
            last_refresh: None,
            figures: ObjectReport {
                window,
                writes: 0,
                applies: 0,
                max_distance: TimeDelta::ZERO,
                max_window_excess: TimeDelta::ZERO,
                window_episodes: 0,
                total_window_violation: TimeDelta::ZERO,
                inconsistency_episodes: 0,
                mean_inconsistency: TimeDelta::ZERO,
                total_inconsistency: TimeDelta::ZERO,
                primary_violations: 0,
                backup_violations: 0,
                backup_violation_time: TimeDelta::ZERO,
                backup_max_staleness: TimeDelta::ZERO,
            },
        }
    }

    /// Advances the distance clock to `now` against the oldest pending
    /// write.
    fn advance(&mut self, now: Time) {
        let f = &mut self.figures;
        if let Some(&(_, front)) = self.pending.front() {
            let distance = now.saturating_since(front);
            f.max_distance = f.max_distance.max(distance);
            f.max_window_excess = f.max_window_excess.max(distance.saturating_sub(f.window));
            let threshold = front + f.window;
            if now > threshold {
                f.total_window_violation += now.saturating_since(self.last_event.max(threshold));
                if !self.in_violation {
                    f.window_episodes += 1;
                    self.in_violation = true;
                }
            }
        }
        self.last_event = now;
    }

    fn write(&mut self, version: Version, now: Time) {
        self.figures.writes += 1;
        if let Some(prev) = self.primary_ts {
            if now.saturating_since(prev) > self.primary_bound {
                self.figures.primary_violations += 1;
            }
        }
        self.primary_ts = Some(now);
        self.advance(now);
        self.pending.push_back((version, now));
        if self.ring.len() == HISTORY {
            self.ring.pop_front();
        }
        self.ring.push_back((version, now));
    }

    fn apply(&mut self, version: Version, write_ts: Time, now: Time) {
        let f = &mut self.figures;
        f.applies += 1;
        if let Some(old) = self.backup_ts {
            let staleness = now.saturating_since(old);
            f.backup_max_staleness = f.backup_max_staleness.max(staleness);
            if staleness > self.backup_bound {
                f.backup_violations += 1;
                f.backup_violation_time += staleness - self.backup_bound;
            }
        }
        self.backup_ts = Some(write_ts);
        self.advance(now);
        while self.pending.front().is_some_and(|&(v, _)| v <= version) {
            self.pending.pop_front();
        }
        self.in_violation = match self.pending.front() {
            Some(&(_, front)) => now > front + self.figures.window && self.in_violation,
            None => false,
        };
    }

    /// Counts the refresh gap up to `now` if it exceeds the allowance, and
    /// reports whether it did.
    fn refresh_gap(&mut self, now: Time) -> bool {
        let (Some(allowance), Some(last)) = (self.refresh_allowance, self.last_refresh) else {
            return false;
        };
        let gap = now.saturating_since(last);
        let over = gap > allowance;
        if over {
            self.figures.inconsistency_episodes += 1;
            self.figures.total_inconsistency += gap - allowance;
        }
        over
    }

    fn refresh(&mut self, now: Time) {
        self.refresh_gap(now);
        self.last_refresh = Some(now);
    }

    fn finalize(&mut self, now: Time) {
        self.advance(now);
        if self.refresh_gap(now) {
            self.last_refresh = Some(now);
        }
    }

    fn report(&self) -> ObjectReport {
        let f = &self.figures;
        ObjectReport {
            mean_inconsistency: if f.inconsistency_episodes == 0 {
                TimeDelta::ZERO
            } else {
                f.total_inconsistency / f.inconsistency_episodes
            },
            ..f.clone()
        }
    }

    fn earliest_write_after(&self, version: Version) -> Option<Time> {
        self.ring
            .iter()
            .find(|&&(v, _)| v > version)
            .map(|&(_, t)| t)
    }
}

/// The reference for every object; `None` for an id never tracked.
struct Reference(Vec<Option<Books>>);

/// Starts (or restarts) tracking object `i` on both sides with bounds
/// drawn from `g`: windows from 1 ms, so steps of up to 300 µs cross them.
fn track(g: &mut Gen, metrics: &mut ClusterMetrics, reference: &mut Reference, i: usize) {
    let us = TimeDelta::from_micros;
    let window = us(g.u64_in(1_000, 40_000));
    let primary_bound = us(g.u64_in(100, 2_000));
    let backup_bound = window + us(g.u64_in(0, 2_000));
    metrics.track_object(ObjectId::new(i as u32), window, primary_bound, backup_bound);
    reference.0[i] = Some(Books::new(window, primary_bound, backup_bound));
}

/// Checks object `i`'s report, live and in a clone finalized at `now`.
fn check_report(metrics: &ClusterMetrics, reference: &Reference, i: usize, now: Time) {
    let id = ObjectId::new(i as u32);
    let books = reference.0.get(i).and_then(Option::as_ref);
    assert_eq!(
        metrics.object_report(id),
        books.map(Books::report),
        "object {i}, live, at {now:?}"
    );
    let mut finalized = metrics.clone();
    finalized.finalize(now);
    let books = books.cloned().map(|mut b| {
        b.finalize(now);
        b.report()
    });
    assert_eq!(
        finalized.object_report(id),
        books,
        "object {i}, finalized at {now:?}"
    );
}

/// Asks `id` (which may be untracked) about a version anywhere from far
/// below its window to above its newest write.
fn check_query(
    g: &mut Gen,
    metrics: &ClusterMetrics,
    reference: &Reference,
    i: usize,
    newest: u64,
) {
    let version = if g.chance(0.5) {
        g.u64_in(newest.saturating_sub(HISTORY as u64 + 16), newest + 3)
    } else {
        g.u64_in(0, newest + 3)
    };
    let version = Version::new(version);
    let books = reference.0.get(i).and_then(Option::as_ref);
    assert_eq!(
        metrics.earliest_write_after(ObjectId::new(i as u32), version),
        books.and_then(|b| b.earliest_write_after(version)),
        "object {i} asked about {version:?}"
    );
}

/// A version for an apply to object `i`: below, inside or above its
/// pending writes' range, or anything up to its newest write.
fn applied_version(g: &mut Gen, books: &Books, newest: u64) -> u64 {
    let lowest = books.pending.iter().map(|&(v, _)| v.value()).min();
    let highest = books.pending.iter().map(|&(v, _)| v.value()).max();
    match (g.u64_in(0, 4), lowest, highest) {
        (0, Some(lo), _) => g.u64_in(lo.saturating_sub(3), lo.max(1)),
        (1, Some(lo), Some(hi)) => g.u64_in(lo, hi + 1),
        (2, _, Some(hi)) => g.u64_in(hi, hi + 4),
        _ => g.u64_in(0, newest + 1),
    }
}

#[test]
fn earliest_write_after_matches_a_64_entry_ring() {
    run_cases("write_journal_matches_ring", 32, |g| {
        let objects = g.usize_in(2, 41);
        let mut metrics = ClusterMetrics::new();
        let mut reference = Reference(vec![None; objects]);
        // The version each object's next plain write follows.
        let mut versions = vec![0u64; objects];
        for i in 0..objects {
            track(g, &mut metrics, &mut reference, i);
        }
        // The journal compacts at twice its live entries (64 per object)
        // plus a small constant, so this many steps force several
        // compactions.
        let steps = objects * HISTORY * g.usize_in(6, 12) + 2_048;
        let mut now = Time::ZERO;
        for _ in 0..steps {
            now += TimeDelta::from_micros(g.u64_in(0, 300));
            let i = g.usize_in(0, objects);
            let id = ObjectId::new(i as u32);
            let books = reference.0[i].as_mut().expect("tracked");
            match g.u64_in(0, 1_000) {
                // Re-tracking restarts the object's history empty.
                0..=2 => {
                    track(g, &mut metrics, &mut reference, i);
                    versions[i] = 0;
                }
                // More than the read path's 64 writes left pending, then
                // covered by one apply.
                3 => {
                    for _ in 0..g.usize_in(65, 160) {
                        now += TimeDelta::from_micros(g.u64_in(0, 300));
                        versions[i] += 1;
                        let version = Version::new(versions[i]);
                        metrics.on_primary_write(id, version, now);
                        books.write(version, now);
                    }
                    let covering = books.pending.iter().map(|&(v, _)| v).max();
                    let covering = covering.expect("writes pending");
                    metrics.on_backup_apply(id, covering, now, now);
                    books.apply(covering, now, now);
                    assert!(books.pending.is_empty());
                }
                // The run's end, read mid-run: the books go on after it.
                4 => {
                    metrics.finalize(now);
                    for books in reference.0.iter_mut().flatten() {
                        books.finalize(now);
                    }
                }
                // A backup apply below, inside or above the pending
                // writes: the journal's queries must not see it.
                5..=199 => {
                    let version = Version::new(applied_version(g, books, versions[i]));
                    let write_ts = Time::from_nanos(g.u64_in(0, now.as_nanos() + 1));
                    metrics.on_backup_apply(id, version, write_ts, now);
                    books.apply(version, write_ts, now);
                }
                // An update arrival resets the refresh clock.
                200..=279 => {
                    metrics.on_backup_refresh(id, now);
                    books.refresh(now);
                }
                280..=289 => {
                    let allowance = TimeDelta::from_micros(g.u64_in(100, 3_000));
                    metrics.set_refresh_allowance(id, allowance);
                    books.refresh_allowance = Some(allowance);
                }
                roll => {
                    versions[i] = match roll {
                        // A successor renumbering after failover.
                        290..=349 => versions[i].saturating_sub(g.u64_in(1, 6)),
                        // The same version again.
                        350..=409 => versions[i],
                        _ => versions[i] + 1,
                    };
                    let version = Version::new(versions[i]);
                    metrics.on_primary_write(id, version, now);
                    books.write(version, now);
                }
            }
            check_report(&metrics, &reference, i, now);
            // Some queries name an id nobody tracks.
            let q = g.usize_in(0, objects + 2);
            let newest = versions.get(q).copied().unwrap_or(0);
            check_query(g, &metrics, &reference, q, newest);
        }
        for (i, &newest) in versions.iter().enumerate() {
            check_report(&metrics, &reference, i, now);
            for _ in 0..16 {
                check_query(g, &metrics, &reference, i, newest);
            }
        }
    });
}
