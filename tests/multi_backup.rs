//! The multi-backup extension (listed as future work in the paper §7):
//! several backups, independent failure detectors, rank-free takeover,
//! and re-join of survivors.

use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb::obs::{EventBus, MetricsRegistry};
use rtpb::types::{crc32c, NodeId, ObjectSpec, Time, TimeDelta};
use rtpb::RtpbClient;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn spec(period: u64) -> ObjectSpec {
    ObjectSpec::builder("mb-obj")
        .update_period(ms(period))
        .primary_bound(ms(period + 50))
        .backup_bound(ms(period + 450))
        .build()
        .unwrap()
}

fn cluster(backups: usize) -> RtpbClient {
    let config = ClusterConfig {
        num_backups: backups,
        ..ClusterConfig::default()
    };
    RtpbClient::new(config)
}

#[test]
fn updates_are_broadcast_to_every_backup() {
    let mut cluster = cluster(3);
    cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(5));
    let backups = cluster.backups();
    assert_eq!(backups.len(), 3);
    for b in &backups {
        assert!(
            b.updates_applied() > 10,
            "{} received only {} updates",
            b.node(),
            b.updates_applied()
        );
    }
    assert!(!cluster.has_failed_over());
}

#[test]
fn losing_one_backup_does_not_interrupt_replication() {
    let mut cluster = cluster(2);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(2));
    // Kill the first (metrics) backup; the second keeps replicating.
    cluster.inject(FaultEvent::CrashBackup { host: 0 });
    cluster.run_for(TimeDelta::from_secs(3));
    assert!(!cluster.has_failed_over());
    let backups = cluster.backups();
    assert_eq!(backups.len(), 1);
    assert_eq!(backups[0].node(), NodeId::new(2));
    assert!(backups[0].updates_applied() > 0);
    // The primary dropped the dead peer and still produces updates.
    let primary = cluster.primary().unwrap();
    assert_eq!(primary.backups(), vec![NodeId::new(2)]);
    assert!(cluster.metrics().object_report(id).unwrap().writes > 0);
}

#[test]
fn failover_promotes_one_backup_and_rejoins_the_others() {
    let mut cluster = cluster(2);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(2));
    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(2));

    assert!(cluster.has_failed_over());
    let new_primary = cluster.primary().expect("someone took over");
    let promoted = new_primary.node();
    assert!(
        promoted == NodeId::new(1) || promoted == NodeId::new(2),
        "a backup must have promoted, got {promoted}"
    );
    // Exactly one survivor serves as backup and re-joined the new primary.
    let backups = cluster.backups();
    assert_eq!(backups.len(), 1);
    let survivor = backups[0].node();
    assert_ne!(survivor, promoted);
    assert_eq!(cluster.primary().unwrap().backups(), vec![survivor]);

    // Replication continues: the survivor receives updates from the new
    // primary.
    let applies_before = cluster.backups()[0].updates_applied();
    cluster.run_for(TimeDelta::from_secs(3));
    let applies_after = cluster.backups()[0].updates_applied();
    assert!(
        applies_after > applies_before,
        "survivor must keep receiving updates ({applies_before} → {applies_after})"
    );
    assert!(cluster.metrics().object_report(id).unwrap().writes > 0);
}

/// Failover promotes the *least-stale* live backup (maximal version
/// vector), not whichever detector happens to fire first. A backup that
/// was partitioned away right before the crash — and therefore missed a
/// burst of updates — must lose the election to its fresher sibling,
/// even though the tie-break would otherwise prefer its lower index.
#[test]
fn failover_promotes_the_least_stale_backup() {
    let mut cluster = cluster(2);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(2));
    // Host 0 (node#1) goes dark and misses ~12 updates; host 1 (node#2)
    // keeps applying. The primary dies while host 0 is still cut off.
    cluster.inject(FaultEvent::Partition {
        host: 0,
        duration: ms(800),
    });
    cluster.run_for(ms(600));
    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(3));

    assert!(cluster.has_failed_over());
    let promoted = cluster.primary().expect("someone took over").node();
    assert_eq!(
        promoted,
        NodeId::new(2),
        "the fresher backup must win the election"
    );
    assert_eq!(cluster.name_service().resolve(), NodeId::new(2));
    // The stale replica re-joins the new primary and catches up.
    let backups = cluster.backups();
    assert_eq!(backups.len(), 1);
    assert_eq!(backups[0].node(), NodeId::new(1));
    let applies_before = backups[0].updates_applied();
    cluster.run_for(TimeDelta::from_secs(2));
    assert!(cluster.backups()[0].updates_applied() > applies_before);
    assert!(cluster.metrics().object_report(id).unwrap().writes > 0);
}

#[test]
fn two_failovers_with_three_replicas() {
    let mut cluster = cluster(3);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(1));

    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(2));
    assert_eq!(cluster.name_service().failover_count(), 1);
    assert_eq!(cluster.backups().len(), 2);

    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(2));
    assert_eq!(cluster.name_service().failover_count(), 2);
    assert_eq!(cluster.backups().len(), 1);

    // Still serving and replicating after two failures.
    let writes_before = cluster.metrics().object_report(id).unwrap().writes;
    let applies_before = cluster.backups()[0].updates_applied();
    cluster.run_for(TimeDelta::from_secs(2));
    assert!(cluster.metrics().object_report(id).unwrap().writes > writes_before);
    assert!(cluster.backups()[0].updates_applied() > applies_before);
}

#[test]
fn extra_backups_do_not_change_primary_side_guarantees() {
    // Consistency metrics (tracked against the first backup) hold with
    // any replica count.
    for n in [1usize, 2, 3] {
        let mut cluster = cluster(n);
        let id = cluster.register(spec(100)).unwrap();
        cluster.run_for(TimeDelta::from_secs(10));
        let r = cluster.metrics().object_report(id).unwrap();
        assert_eq!(r.backup_violations, 0, "{n} backups: bound violated");
        assert_eq!(r.window_episodes, 0, "{n} backups: window violated");
        assert!(r.applies > 0);
    }
}

/// `(byte length, crc32c)` of an exported stream, pinned across commits:
/// a change that alters a seeded trace must update the constant and say
/// why.
fn digest(text: &str) -> (usize, u32) {
    (text.len(), crc32c(text.as_bytes()))
}

/// Two primary crashes with three replicas and recruitment on: the trace
/// covers a takeover whose survivors re-join the new primary, a second
/// takeover, and, once the last survivor crashes as well, the recruitment
/// of a replacement backup. It replays
/// byte-identically, and its digest is pinned across commits.
#[test]
fn double_failover_with_recruitment_replays_byte_identically() {
    let run = || {
        let config = ClusterConfig {
            seed: 53,
            num_backups: 3,
            recruit_backup_after: Some(ms(300)),
            bus: EventBus::with_capacity(1 << 17),
            registry: MetricsRegistry::new(),
            fault_plan: FaultPlan::new()
                .at(Time::from_millis(1_000), FaultEvent::CrashPrimary)
                .at(Time::from_millis(3_000), FaultEvent::CrashPrimary)
                // The last survivor dies too, so the primary recruits.
                .at(
                    Time::from_millis(4_500),
                    FaultEvent::CrashBackup { host: 2 },
                ),
            ..ClusterConfig::default()
        };
        let mut cluster = RtpbClient::new(config);
        cluster.register(spec(50)).unwrap();
        cluster.register(spec(100)).unwrap();
        cluster.run_for(TimeDelta::from_secs(7));
        assert_eq!(cluster.name_service().failover_count(), 2);
        assert_eq!(
            cluster
                .backups()
                .iter()
                .map(|b| b.node())
                .collect::<Vec<_>>(),
            vec![NodeId::new(4)],
            "the recruit is the only live backup"
        );
        (
            cluster.export_jsonl(),
            cluster.registry().snapshot().to_jsonl(),
        )
    };
    let (jsonl_a, registry_a) = run();
    let (jsonl_b, registry_b) = run();
    assert_eq!(jsonl_a, jsonl_b, "same seed must replay byte-identically");
    assert_eq!(registry_a, registry_b);
    assert_eq!(digest(&jsonl_a), (74_323, 0x8017_5269), "pinned trace");
    assert_eq!(digest(&registry_a), (1_492, 0x9634_7090), "pinned registry");
}
