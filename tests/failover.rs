//! Failure-injection integration tests: crashes, takeover, and
//! re-integration (paper §4.4).

use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb::types::{NodeId, ObjectSpec, Time, TimeDelta};
use rtpb::RtpbClient;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn spec(period: u64) -> ObjectSpec {
    ObjectSpec::builder("fo-obj")
        .update_period(ms(period))
        .primary_bound(ms(period + 50))
        .backup_bound(ms(period + 450))
        .build()
        .unwrap()
}

fn cluster_with(recruit_ms: Option<u64>) -> RtpbClient {
    RtpbClient::new(ClusterConfig {
        recruit_backup_after: recruit_ms.map(ms),
        ..ClusterConfig::default()
    })
}

#[test]
fn failover_happens_within_detection_budget() {
    // Detection needs `miss_threshold` unanswered probes, each waiting
    // `heartbeat_timeout`: 3 × 100 ms plus scheduling slack.
    let mut cluster = cluster_with(None);
    cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(1));
    let crash_at = cluster.now();
    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(1));
    assert!(cluster.has_failed_over());
    let bindings = cluster.name_service().history();
    let takeover_at = bindings.last().unwrap().since;
    let detection = takeover_at.saturating_since(crash_at);
    assert!(
        detection <= ms(500),
        "detection + takeover took {detection}, expected within 500ms"
    );
    // Failover duration metric (declared-dead → serving) is ~instant in
    // the model, but must be present and small.
    let d = cluster.metrics().failover_duration().unwrap();
    assert!(d <= ms(50));
}

#[test]
fn writes_resume_after_takeover_with_preserved_state() {
    let mut cluster = cluster_with(None);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(2));
    let version_before = cluster.backup().unwrap().store().get(id).unwrap().version();
    assert!(version_before.value() > 0, "backup has replicated state");
    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(2));
    let new_primary = cluster.primary().unwrap();
    assert_eq!(new_primary.node(), NodeId::new(1));
    let version_after = new_primary.store().get(id).unwrap().version();
    assert!(
        version_after > version_before,
        "promoted primary continues the version sequence \
         ({version_before} → {version_after})"
    );
}

#[test]
fn backup_crash_stops_updates_until_recruitment() {
    let mut cluster = cluster_with(Some(400));
    cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(1));
    cluster.inject(FaultEvent::CrashBackup { host: 0 });
    // Give detection time, then measure that update production pauses.
    cluster.run_for(TimeDelta::from_secs(1));
    let sent_at_pause = cluster.metrics().updates_sent();
    assert!(
        cluster.primary().unwrap().is_backup_alive(),
        "by now a replacement backup has been recruited and joined"
    );
    cluster.run_for(TimeDelta::from_secs(2));
    let sent_after = cluster.metrics().updates_sent();
    assert!(
        sent_after > sent_at_pause,
        "updates must flow to the replacement backup"
    );
    let backup = cluster.backup().unwrap();
    assert_eq!(backup.node(), NodeId::new(2));
    assert!(backup.updates_applied() > 0);
}

#[test]
fn double_fault_leaves_service_down_without_recruitment() {
    let mut cluster = cluster_with(None);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(1));
    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(1));
    assert!(cluster.has_failed_over());
    // Now the (sole) promoted server dies too.
    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(1));
    assert!(cluster.primary().is_none());
    assert!(cluster.backup().is_none());
    let writes_down = cluster.metrics().object_report(id).unwrap().writes;
    cluster.run_for(TimeDelta::from_secs(1));
    assert_eq!(
        cluster.metrics().object_report(id).unwrap().writes,
        writes_down,
        "no one serves writes after a double fault"
    );
}

#[test]
fn full_cycle_crash_takeover_recruit_then_second_failover() {
    let mut cluster = cluster_with(Some(300));
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(1));

    // First failure: node#0 dies, node#1 takes over, node#2 recruited.
    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(2));
    assert_eq!(cluster.name_service().resolve(), NodeId::new(1));
    assert_eq!(cluster.backup().unwrap().node(), NodeId::new(2));
    cluster.run_for(TimeDelta::from_secs(2));
    assert!(cluster.backup().unwrap().updates_applied() > 0);

    // Second failure: node#1 dies, node#2 takes over.
    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(2));
    assert_eq!(cluster.name_service().resolve(), NodeId::new(2));
    assert_eq!(cluster.name_service().failover_count(), 2);
    let r = cluster.metrics().object_report(id).unwrap();
    assert!(r.writes > 0);
    // The twice-promoted primary still holds the object.
    assert!(cluster.primary().unwrap().store().get(id).is_some());
}

#[test]
fn promotion_keeps_inter_object_constraints() {
    let mut cluster = cluster_with(None);
    // Window 320 ms → period (320 - 10)/2 = 155 ms on its own;
    // δ_ab = 200 ms tightens both members to (200 - 10)/2 = 95 ms.
    let spec = |name: &str| {
        ObjectSpec::builder(name)
            .update_period(ms(50))
            .primary_bound(ms(80))
            .backup_bound(ms(400))
    };
    let a = cluster.register(spec("a").build().unwrap()).unwrap();
    let b = cluster
        .register(spec("b").constraint(a, ms(200)).build().unwrap())
        .unwrap();
    let primary = cluster.primary().unwrap();
    assert_eq!(primary.send_period(a), Some(ms(95)));
    assert_eq!(primary.send_period(b), Some(ms(95)));
    cluster.run_for(TimeDelta::from_secs(1));
    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(1));
    assert!(cluster.has_failed_over());
    // The successor rebuilds δ_ab from the mirrored specs.
    let successor = cluster.primary().unwrap();
    assert_eq!(successor.node(), NodeId::new(1));
    assert_eq!(successor.constraints().len(), 1);
    assert_eq!(successor.send_period(a), Some(ms(95)));
    assert_eq!(successor.send_period(b), Some(ms(95)));
}

#[test]
fn no_spurious_failover_under_update_loss() {
    // Update loss (even heavy) must not kill the service: heartbeats ride
    // the physically-redundant control path (§4.1 assumption).
    let mut config = ClusterConfig::default();
    config.link.loss_probability = 0.5;
    let mut cluster = RtpbClient::new(config);
    cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(30));
    assert!(!cluster.has_failed_over(), "no failover without a crash");
}

#[test]
fn shared_fate_when_control_traffic_is_also_lossy() {
    // With the exemption disabled and brutal loss, the detectors will
    // eventually misfire — demonstrating why the paper assumes a
    // redundant control path.
    let mut config = ClusterConfig {
        control_loss_exempt: false,
        ..ClusterConfig::default()
    };
    config.link.loss_probability = 0.9;
    let mut cluster = RtpbClient::new(config);
    cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(30));
    // Bounded-retry re-join can heal a false alarm before we look, so
    // assert on the record of detector activity, not the end state.
    assert!(
        cluster.metrics().failover_started_at().is_some()
            || cluster.has_failed_over()
            || !cluster.primary().unwrap().is_backup_alive(),
        "at 90% loss on everything, some detector must have fired"
    );
}

/// A primary crash while a client write is in service on its CPU. The
/// completion already scheduled for that write belongs to the dead
/// primary: it must neither panic on the cleared queue nor complete the
/// successor's work early. Each write holds the CPU for 3 ms from
/// 0.997 ms past every 10 ms, so every crash instant below lands
/// mid-service.
#[test]
fn primary_crash_mid_service_fails_over_and_keeps_writing() {
    for crash_us in (1_001_000..=1_003_500).step_by(500) {
        let mut cluster = RtpbClient::new(ClusterConfig {
            num_backups: 2,
            fault_plan: FaultPlan::new().at(Time::from_micros(crash_us), FaultEvent::CrashPrimary),
            ..ClusterConfig::default()
        });
        let spec = ObjectSpec::builder("busy")
            .update_period(ms(10))
            .exec_time(ms(3))
            .primary_bound(ms(60))
            .backup_bound(ms(460))
            .build()
            .unwrap();
        let id = cluster.register(spec).unwrap();
        cluster.run_for(TimeDelta::from_secs(2));
        assert!(cluster.has_failed_over(), "crash at {crash_us} µs");
        let before = cluster.report().object_report(id).unwrap().writes;
        cluster.run_for(TimeDelta::from_secs(1));
        let after = cluster.report().object_report(id).unwrap().writes;
        assert!(
            after > before,
            "crash at {crash_us} µs: the successor must keep accepting writes"
        );
        cluster
            .write(id, vec![1])
            .unwrap_or_else(|e| panic!("crash at {crash_us} µs: {e}"));
    }
}
