//! `ClusterMetrics::earliest_write_after` is the read path's ground truth:
//! the write time a served version missed. It answers from one write
//! journal shared by all objects (DESIGN.md §13), walking each object's
//! chain back from its newest write, stopping early while the window's
//! versions never decrease, and compacting to what each chain reaches.
//! This test pins that the answer is exactly the one a per-object ring of
//! the last 64 writes, scanned from its oldest entry, gives.

use rtpb::core::ClusterMetrics;
use rtpb::sim::propcheck::{run_cases, Gen};
use rtpb::types::{ObjectId, Time, TimeDelta, Version};
use std::collections::VecDeque;

/// Writes per object that `earliest_write_after` sees.
const HISTORY: usize = 64;

/// The reference: each tracked object's last [`HISTORY`] writes, oldest
/// first.
struct Rings(Vec<Option<VecDeque<(Version, Time)>>>);

impl Rings {
    fn track(&mut self, i: usize) {
        self.0[i] = Some(VecDeque::with_capacity(HISTORY));
    }

    fn write(&mut self, i: usize, version: Version, now: Time) {
        if let Some(ring) = &mut self.0[i] {
            if ring.len() == HISTORY {
                ring.pop_front();
            }
            ring.push_back((version, now));
        }
    }

    fn earliest_write_after(&self, i: usize, version: Version) -> Option<Time> {
        let ring = self.0.get(i)?.as_ref()?;
        ring.iter().find(|&&(v, _)| v > version).map(|&(_, t)| t)
    }
}

fn track(metrics: &mut ClusterMetrics, rings: &mut Rings, i: usize) {
    let ms = TimeDelta::from_millis;
    metrics.track_object(ObjectId::new(i as u32), ms(400), ms(150), ms(550));
    rings.track(i);
}

/// Asks `id` (which may be untracked) about a version anywhere from far
/// below its window to above its newest write.
fn check_query(g: &mut Gen, metrics: &ClusterMetrics, rings: &Rings, i: usize, newest: u64) {
    let version = if g.chance(0.5) {
        g.u64_in(newest.saturating_sub(HISTORY as u64 + 16), newest + 3)
    } else {
        g.u64_in(0, newest + 3)
    };
    let version = Version::new(version);
    assert_eq!(
        metrics.earliest_write_after(ObjectId::new(i as u32), version),
        rings.earliest_write_after(i, version),
        "object {i} asked about {version:?}"
    );
}

#[test]
fn earliest_write_after_matches_a_64_entry_ring() {
    run_cases("write_journal_matches_ring", 32, |g| {
        let objects = g.usize_in(2, 41);
        let mut metrics = ClusterMetrics::new();
        let mut rings = Rings(vec![None; objects]);
        // The version each object's next plain write follows.
        let mut versions = vec![0u64; objects];
        for i in 0..objects {
            track(&mut metrics, &mut rings, i);
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
            match g.u64_in(0, 1_000) {
                // Re-tracking restarts the object's history empty.
                0..=2 => {
                    track(&mut metrics, &mut rings, i);
                    versions[i] = 0;
                }
                // A backup apply of some earlier version: the journal
                // must not see it.
                3..=199 => {
                    let applied = g.u64_in(0, versions[i] + 1);
                    metrics.on_backup_apply(id, Version::new(applied), now, now);
                }
                roll => {
                    versions[i] = match roll {
                        // A successor renumbering after failover.
                        200..=259 => versions[i].saturating_sub(g.u64_in(1, 6)),
                        // The same version again.
                        260..=319 => versions[i],
                        _ => versions[i] + 1,
                    };
                    let version = Version::new(versions[i]);
                    metrics.on_primary_write(id, version, now);
                    rings.write(i, version, now);
                }
            }
            // Some queries name an id nobody tracks.
            let q = g.usize_in(0, objects + 2);
            let newest = versions.get(q).copied().unwrap_or(0);
            check_query(g, &metrics, &rings, q, newest);
        }
        for (i, &newest) in versions.iter().enumerate() {
            for _ in 0..16 {
                check_query(g, &metrics, &rings, i, newest);
            }
        }
    });
}
