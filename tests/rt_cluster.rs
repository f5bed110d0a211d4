//! The real-clock runtime with several backups and a fault plan. Every
//! assertion is about events and counts, never about latency, so a
//! loaded host slows these runs down without failing them.

use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb::obs::{EventBus, EventKind, ObsEvent, Role};
use rtpb::rt::{RtCluster, RtConfig, RtReport};
use rtpb::types::{NodeId, ObjectSpec, Time, TimeDelta};
use std::time::Duration;

fn spec(period_ms: u64) -> ObjectSpec {
    ObjectSpec::builder("rt")
        .update_period(TimeDelta::from_millis(period_ms))
        .primary_bound(TimeDelta::from_millis(period_ms + 50))
        .backup_bound(TimeDelta::from_millis(period_ms + 450))
        .build()
        .unwrap()
}

fn at_ms(v: u64) -> Time {
    Time::from_millis(v)
}

/// Runs `cluster` with one 20 ms object for `millis` of wall-clock time,
/// tracing onto a fresh bus.
fn run(mut cluster: ClusterConfig, millis: u64) -> (RtReport, Vec<ObsEvent>) {
    cluster.bus = EventBus::with_capacity(1 << 17);
    let bus = cluster.bus.clone();
    let config = RtConfig {
        cluster,
        objects: vec![spec(20)],
        read_period: None,
    };
    let report = RtCluster::run(config, Duration::from_millis(millis)).unwrap();
    (report, bus.collect())
}

#[test]
fn two_backups_fail_over_once_and_the_survivor_rejoins() {
    let cluster = ClusterConfig {
        num_backups: 2,
        fault_plan: FaultPlan::new().at(at_ms(400), FaultEvent::CrashPrimary),
        ..ClusterConfig::default()
    };
    let (report, events) = run(cluster, 2_000);
    assert!(report.failed_over);

    let takeovers: Vec<&ObsEvent> = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::RoleTransition {
                    from: Role::Backup,
                    to: Role::Primary,
                    ..
                }
            )
        })
        .collect();
    assert_eq!(takeovers.len(), 1, "exactly one backup takes over");
    let EventKind::RoleTransition { node: promoted, .. } = takeovers[0].kind else {
        unreachable!()
    };
    let taken_over_at = takeovers[0].seq;
    assert!(promoted == NodeId::new(1) || promoted == NodeId::new(2));
    let survivor = if promoted == NodeId::new(1) {
        NodeId::new(2)
    } else {
        NodeId::new(1)
    };

    let after = |pred: &dyn Fn(&EventKind) -> bool| {
        events
            .iter()
            .any(|e| e.seq > taken_over_at && pred(&e.kind))
    };
    assert!(
        after(&|k| matches!(
            k,
            EventKind::RoleTransition { node, from: Role::Joining, to: Role::Backup }
                if *node == survivor
        )),
        "the other backup must rejoin the new primary"
    );
    assert!(
        after(&|k| matches!(k, EventKind::ClientWrite { .. })),
        "writes must continue after the crash"
    );
    assert!(
        after(&|k| matches!(k, EventKind::UpdateApplied { node, .. } if *node == survivor)),
        "the survivor must apply updates from the new primary"
    );
}

/// The catch-up path each restart's rejoin took.
fn plans(events: &[ObsEvent]) -> Vec<&'static str> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CatchUpPlan { path, .. } => Some(path),
            _ => None,
        })
        .collect()
}

#[test]
fn durable_restart_catches_up_from_the_log() {
    let cluster = ClusterConfig {
        fault_plan: FaultPlan::new()
            .at(at_ms(300), FaultEvent::CrashBackup { host: 0 })
            .at(at_ms(700), FaultEvent::RestartBackup { host: 0 }),
        ..ClusterConfig::default()
    };
    let (report, events) = run(cluster, 2_000);
    assert!(!report.failed_over, "the primary stays up");
    assert_eq!(
        report.backup_rejoins, 1,
        "the restarted backup re-integrates"
    );
    assert_eq!(
        report.suffix_rejoins, 1,
        "a durable restart within retention catches up from the log"
    );
    assert_eq!(plans(&events), ["log_suffix"]);
}

#[test]
fn cold_recovery_takes_a_full_transfer() {
    let cluster = ClusterConfig {
        fault_plan: FaultPlan::new()
            .at(at_ms(300), FaultEvent::CrashBackup { host: 0 })
            .at(at_ms(700), FaultEvent::RecoverBackup { host: 0 }),
        ..ClusterConfig::default()
    };
    let (report, events) = run(cluster, 2_000);
    assert!(!report.failed_over, "the primary stays up");
    assert_eq!(
        report.backup_rejoins, 1,
        "the recovered backup re-integrates"
    );
    assert_eq!(
        report.suffix_rejoins, 0,
        "a cold restart has no position and cannot use the log"
    );
    assert_eq!(plans(&events), ["full_transfer"]);
    assert!(report.updates_applied > 0);
}

#[test]
fn corrupted_frames_are_caught_and_replication_goes_on() {
    let mut cluster = ClusterConfig::default();
    cluster.link.corrupt_probability = 0.2;
    let (report, events) = run(cluster, 1_500);
    let caught = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::IntegrityViolation {
                    source: "frame",
                    ..
                }
            )
        })
        .count() as u64;
    assert!(caught > 0, "the CRC trailer must catch flipped bits");
    assert_eq!(report.integrity_violations, caught);
    assert!(report.updates_applied > 0, "replication must go on");
}
