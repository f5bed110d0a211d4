//! The primary's snapshot marks form a delta chain (DESIGN.md §11): each
//! mark seals only the objects whose `(write_epoch, version)` tag changed
//! since the previous mark. These tests pin the two promises that makes:
//! a snapshot diff ships exactly what a comparison against the full tag
//! map at the mark would ship, and a mark's size follows the writes since
//! the previous mark, not the size of the store.

#![allow(deprecated)] // drives `Primary::apply_client_write` directly

use rtpb::core::config::ProtocolConfig;
use rtpb::core::log::CatchUpPath;
use rtpb::core::primary::Primary;
use rtpb::core::store::ObjectStore;
use rtpb::core::wire::{StateEntry, WireMessage};
use rtpb::core::{IntegrityEvent, IntegritySource};
use rtpb::sim::propcheck::{run_cases, Gen};
use rtpb::types::{Epoch, LogPosition, NodeId, ObjectId, ObjectSpec, Time, TimeDelta, Version};
use std::collections::BTreeMap;

type Tags = BTreeMap<ObjectId, (Epoch, Version)>;

fn spec() -> ObjectSpec {
    ObjectSpec::builder("chain")
        .update_period(TimeDelta::from_millis(100))
        .primary_bound(TimeDelta::from_millis(150))
        .backup_bound(TimeDelta::from_millis(550))
        .build()
        .unwrap()
}

/// Every registered object's tag, never-written ones included.
fn full_tags(store: &ObjectStore) -> Tags {
    store.iter().map(|(id, e)| (id, e.tag())).collect()
}

/// What a diff against the full tag map `at_mark` ships: every valued
/// object whose tag exceeds the one it had at the mark (an object
/// registered after the mark counts as never written), in id order.
fn reference_diff(store: &ObjectStore, at_mark: &Tags) -> Vec<StateEntry> {
    store
        .iter()
        .filter_map(|(id, e)| {
            let value = e.value()?;
            let had = at_mark
                .get(&id)
                .copied()
                .unwrap_or((Epoch::INITIAL, Version::INITIAL));
            (e.tag() > had).then(|| StateEntry {
                object: id,
                version: value.version(),
                timestamp: value.timestamp(),
                payload: value.payload().to_vec(),
            })
        })
        .collect()
}

/// Joins at every position up to the head and, for each join the primary
/// serves from the snapshot-diff rung, compares the reply with the
/// reference built from the full tags recorded at the base mark. Returns
/// how many diffs were checked.
fn check_every_diff(p: &mut Primary, marks: &BTreeMap<u64, Tags>, now: &mut Time) -> usize {
    let epoch = p.log().epoch();
    let mut checked = 0;
    for seq in 0..=p.log().head() {
        *now += TimeDelta::from_micros(1);
        let join = WireMessage::JoinRequest {
            epoch,
            from: NodeId::new(1),
            position: Some(LogPosition::new(epoch, seq)),
        };
        let out = p.handle_message(&join, *now);
        if out.catch_up.expect("a join is always planned").path != CatchUpPath::SnapshotDiff {
            continue;
        }
        let base = p
            .log()
            .snapshot_at_or_before(seq)
            .expect("a diff has a base");
        let at_mark = &marks[&base.seq()];
        let Some((_, WireMessage::StateTransfer { entries, .. })) = out.sends.first() else {
            panic!("a snapshot diff ships as a state transfer");
        };
        assert_eq!(
            *entries,
            reference_diff(p.store(), at_mark),
            "diff for position {seq} against the mark at {}",
            base.seq()
        );
        checked += 1;
    }
    checked
}

/// Random histories of writes, registrations, deregistrations and scrub
/// quarantines under random snapshot and retention knobs: every reply on
/// the snapshot-diff rung equals the full-tag reference — same ids,
/// versions, timestamps, payloads and order.
#[test]
fn snapshot_diffs_match_the_full_tag_oracle() {
    let mut diffs = 0;
    let mut quarantines = 0;
    run_cases("snapshot-chain-oracle", 48, |g: &mut Gen| {
        let config = ProtocolConfig {
            log_retention: g.usize_in(2, 40),
            snapshot_interval: g.u64_in(2, 12),
            snapshots_retained: g.usize_in(1, 5),
            scrub_interval: TimeDelta::from_millis(g.u64_in(1, 8)),
            scrub_ranges: g.u64_in(1, 4) as u32,
            // The joins below arrive in bursts at near-identical instants;
            // the clock monitor would read that as a stalled clock.
            monitor_enabled: false,
            ..ProtocolConfig::default()
        };
        let mut p = Primary::new(NodeId::new(0), config);
        p.add_backup(NodeId::new(1), Time::ZERO);
        let mut ids: Vec<ObjectId> = (0..g.usize_in(1, 8))
            .map(|_| p.register(spec(), Time::ZERO).unwrap())
            .collect();
        let mut marks = BTreeMap::new();
        let mut now = Time::ZERO;
        for _ in 0..g.usize_in(10, 120) {
            now += TimeDelta::from_millis(1);
            let roll = g.u64_in(0, 100);
            if roll < 4 && ids.len() > 1 {
                let victim = ids.remove(g.usize_in(0, ids.len()));
                assert!(p.deregister(victim));
            } else if roll < 8 {
                ids.push(p.register(spec(), now).unwrap());
            } else if roll < 16 {
                let id = ids[g.usize_in(0, ids.len())];
                p.corrupt_stored_payload(id, g.usize_in(0, 32), 0x10);
            } else {
                let id = ids[g.usize_in(0, ids.len())];
                p.apply_client_write(id, g.bytes(12), now)
                    .expect("the lease covers the whole history");
            }
            // A write may have taken a mark: record the tags it saw.
            for (seq, _) in p.take_snapshot_marks() {
                marks.insert(seq, full_tags(p.store()));
            }
            // Heartbeat ticks run the scrubber, which quarantines (and
            // resets the tag of) every entry whose checksum fails.
            quarantines += p
                .tick_heartbeat(now)
                .integrity
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        IntegrityEvent::Violation {
                            source: IntegritySource::StoreEntry,
                            ..
                        }
                    )
                })
                .count();
            if g.chance(0.1) {
                diffs += check_every_diff(&mut p, &marks, &mut now);
            }
        }
        diffs += check_every_diff(&mut p, &marks, &mut now);
    });
    assert!(diffs > 500, "only {diffs} snapshot diffs were checked");
    assert!(quarantines > 20, "only {quarantines} quarantines happened");
}

/// A mark seals at most `snapshot_interval` tags — the writes since the
/// previous mark — however many objects the store holds. With full-tag
/// snapshots each of these marks held all 10,000.
#[test]
fn snapshot_marks_hold_only_the_tags_written_since_the_previous_mark() {
    let config = ProtocolConfig {
        // Ten thousand of these objects would overload the update CPU;
        // this test is about the log, not admission.
        admission_enabled: false,
        ..ProtocolConfig::default()
    };
    assert_eq!(config.snapshot_interval, 256);
    let mut p = Primary::new(NodeId::new(0), config);
    let ids: Vec<ObjectId> = (0..10_000)
        .map(|_| p.register(spec(), Time::ZERO).unwrap())
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let now = Time::from_millis(1 + i as u64 / 100);
        p.apply_client_write(id, vec![1], now)
            .expect("a solo primary serves");
    }
    assert_eq!(p.take_snapshot_marks().len(), 10_000 / 256);
    assert_eq!(p.store().len(), 10_000);
    let kept: Vec<usize> = p.log().snapshots().map(|s| s.len()).collect();
    assert!(!kept.is_empty());
    assert!(
        kept.iter().all(|&len| len <= 256),
        "snapshot sizes {kept:?}"
    );
}
