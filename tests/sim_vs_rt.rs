//! Agreement between the deterministic simulation and the real-clock
//! thread runtime: the same protocol cores must show the same qualitative
//! behaviour under both drivers.

use rtpb::core::harness::{ClusterConfig, FaultEvent};
use rtpb::obs::{EventBus, ObsEvent};
use rtpb::rt::{RtCluster, RtConfig};
use rtpb::types::{ObjectSpec, TimeDelta};
use rtpb::RtpbClient;
use std::collections::BTreeSet;
use std::time::Duration;

fn spec(period_ms: u64) -> ObjectSpec {
    ObjectSpec::builder("cmp")
        .update_period(TimeDelta::from_millis(period_ms))
        .primary_bound(TimeDelta::from_millis(period_ms + 60))
        .backup_bound(TimeDelta::from_millis(period_ms + 500))
        .build()
        .unwrap()
}

#[test]
fn both_drivers_replicate_and_stay_consistent() {
    // Simulation: 2 virtual seconds.
    let mut cluster = RtpbClient::new(ClusterConfig::default());
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(2));
    let sim_report = cluster.metrics().object_report(id).unwrap();

    // Threads: 2 wall-clock seconds.
    let mut config = RtConfig::default();
    config.objects.push(spec(50));
    let rt_report = RtCluster::run(config, Duration::from_secs(2)).unwrap();

    // Both served roughly period-count writes.
    let expected = 2_000 / 50;
    assert!(sim_report.writes >= expected - 4);
    assert!(
        rt_report.writes >= expected - 8,
        "rt writes {}",
        rt_report.writes
    );
    // Both replicated to the backup.
    assert!(sim_report.applies > 0);
    assert!(rt_report.updates_applied > 0);
    // Neither violated the window.
    assert_eq!(sim_report.inconsistency_episodes, 0);
    assert_eq!(rt_report.inconsistency_episodes, 0);
}

#[test]
fn both_drivers_fail_over_on_primary_death() {
    // Simulation.
    let mut cluster = RtpbClient::new(ClusterConfig::default());
    cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(1));
    cluster.inject(FaultEvent::CrashPrimary);
    cluster.run_for(TimeDelta::from_secs(1));
    assert!(cluster.has_failed_over());

    // Threads.
    let mut config = RtConfig::default();
    config.objects.push(spec(50));
    config.crash_primary_after = Some(Duration::from_millis(400));
    let report = RtCluster::run(config, Duration::from_secs(2)).unwrap();
    assert!(report.failed_over);
}

#[test]
fn both_drivers_survive_update_loss_via_retransmission() {
    let loss = 0.5;

    let mut sim_config = ClusterConfig::default();
    sim_config.link.loss_probability = loss;
    let mut cluster = RtpbClient::new(sim_config);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(5));
    let sim_report = cluster.metrics().object_report(id).unwrap();
    assert!(sim_report.applies > 0);
    assert!(cluster.metrics().retransmit_requests() > 0);

    let mut rt_config = RtConfig::default();
    rt_config.link.loss_probability = loss;
    rt_config.objects.push(spec(50));
    let rt_report = RtCluster::run(rt_config, Duration::from_secs(2)).unwrap();
    assert!(rt_report.updates_applied > 0);
    assert!(rt_report.retransmit_requests > 0);
    assert!(
        !rt_report.failed_over,
        "update loss must not kill the service"
    );
}

#[test]
fn both_drivers_emit_the_same_event_kinds() {
    // One healthy batched run per driver: the same cores and the same
    // telemetry steps must produce the same taxonomy under both clocks.
    let coalesce = TimeDelta::from_millis(5);
    let kinds = |events: Vec<ObsEvent>| -> BTreeSet<&'static str> {
        events.iter().map(|e| e.kind.name()).collect()
    };

    let mut sim_config = ClusterConfig {
        bus: EventBus::with_capacity(1 << 16),
        ..ClusterConfig::default()
    };
    sim_config.protocol.coalesce_window = coalesce;
    let mut cluster = RtpbClient::new(sim_config);
    cluster.register(spec(20)).unwrap();
    cluster.run_for(TimeDelta::from_secs(1));
    let sim = kinds(cluster.bus().collect());

    let mut rt_config = RtConfig::default();
    rt_config.protocol.coalesce_window = coalesce;
    rt_config.objects.push(spec(20));
    rt_config.bus = EventBus::with_capacity(1 << 16);
    let bus = rt_config.bus.clone();
    RtCluster::run(rt_config, Duration::from_secs(1)).unwrap();
    let rt = kinds(bus.collect());

    // The runtime admits its objects before the run starts and reports
    // no admission decisions.
    let missing: Vec<&str> = sim
        .iter()
        .copied()
        .filter(|&k| k != "admission_decision" && !rt.contains(k))
        .collect();
    assert!(
        missing.is_empty(),
        "rt never emitted {missing:?} (sim: {sim:?}, rt: {rt:?})"
    );
    assert!(sim.contains("batch_sent"), "the run must batch: {sim:?}");
}
