//! Agreement between the deterministic simulation and the real-clock
//! thread runtime: each scenario builds one `ClusterConfig` and runs it
//! on both drivers, which run the same per-host steps and must show the
//! same qualitative behaviour.

use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb::core::metrics::{FaultRecord, InjectedFault, ObjectReport};
use rtpb::obs::{EventBus, EventKind, MetricsRegistry, ObsEvent, Role};
use rtpb::rt::{RtCluster, RtConfig, RtReport};
use rtpb::types::{ObjectId, ObjectSpec, Time, TimeDelta};
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

/// Runs `config` in the simulator for `seconds` of virtual time.
fn simulate(config: &ClusterConfig, period_ms: u64, seconds: u64) -> RtpbClient {
    let mut cluster = RtpbClient::new(config.clone());
    cluster.register(spec(period_ms)).unwrap();
    cluster.run_for(TimeDelta::from_secs(seconds));
    cluster
}

/// Runs `config` on threads for `seconds` of wall-clock time.
fn run_threads(config: &ClusterConfig, period_ms: u64, seconds: u64) -> RtReport {
    let config = RtConfig {
        cluster: config.clone(),
        objects: vec![spec(period_ms)],
        read_period: None,
    };
    RtCluster::run(config, Duration::from_secs(seconds)).unwrap()
}

/// The one object each scenario registers.
fn cluster_id(cluster: &RtpbClient) -> ObjectId {
    cluster.metrics().object_ids().next().expect("one object")
}

/// The runtime's report on the one object it ran.
fn rt_object(report: &RtReport) -> ObjectReport {
    let id = report.metrics.object_ids().next().expect("one object");
    report.metrics.object_report(id).expect("tracked")
}

/// The kinds of a fault report's records, in injection order.
fn kinds(records: &[FaultRecord]) -> Vec<InjectedFault> {
    records.iter().map(|r| r.kind).collect()
}

#[test]
fn both_drivers_replicate_and_stay_consistent() {
    let config = ClusterConfig::default();
    let cluster = simulate(&config, 50, 2);
    let sim_report = cluster
        .metrics()
        .object_report(cluster_id(&cluster))
        .unwrap();
    let rt_report = rt_object(&run_threads(&config, 50, 2));

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
    assert!(rt_report.applies > 0);
    // Neither violated the window.
    assert_eq!(sim_report.inconsistency_episodes, 0);
    assert_eq!(rt_report.inconsistency_episodes, 0);
}

#[test]
fn both_drivers_fail_over_on_primary_death() {
    let config = ClusterConfig {
        fault_plan: FaultPlan::new().at(Time::from_millis(400), FaultEvent::CrashPrimary),
        ..ClusterConfig::default()
    };
    let sim = simulate(&config, 50, 2);
    assert!(sim.has_failed_over());
    let rt = run_threads(&config, 50, 2);
    assert!(rt.failed_over);
    assert_eq!(kinds(sim.fault_report()), [InjectedFault::PrimaryCrash]);
    assert_eq!(kinds(&rt.faults), kinds(sim.fault_report()));
}

#[test]
fn both_drivers_record_a_durable_restart_alike() {
    let config = ClusterConfig {
        fault_plan: FaultPlan::new()
            .at(Time::from_millis(300), FaultEvent::CrashBackup { host: 0 })
            .at(
                Time::from_millis(700),
                FaultEvent::RestartBackup { host: 0 },
            ),
        ..ClusterConfig::default()
    };
    let sim = simulate(&config, 50, 2);
    let rt = run_threads(&config, 50, 2);
    assert_eq!(
        kinds(sim.fault_report()),
        [InjectedFault::BackupCrash, InjectedFault::BackupRecovery]
    );
    assert_eq!(kinds(&rt.faults), kinds(sim.fault_report()));
    for records in [sim.fault_report(), &rt.faults] {
        assert!(
            records.iter().all(|r| r.recovered_at.is_some()),
            "both drivers see the backup rejoin and catch up: {records:?}"
        );
    }
}

#[test]
fn both_drivers_survive_update_loss_via_retransmission() {
    let mut config = ClusterConfig {
        registry: MetricsRegistry::new(),
        ..ClusterConfig::default()
    };
    config.link.loss_probability = 0.5;

    let cluster = simulate(&config, 50, 5);
    let sim_report = cluster
        .metrics()
        .object_report(cluster_id(&cluster))
        .unwrap();
    assert!(sim_report.applies > 0);
    let requests = cluster.registry().snapshot();
    assert!(requests.counter("cluster.retransmit_requests").unwrap() > 0);

    config.registry = MetricsRegistry::new();
    let rt_report = run_threads(&config, 50, 2);
    assert!(rt_object(&rt_report).applies > 0);
    let requests = config.registry.snapshot();
    assert!(requests.counter("cluster.retransmit_requests").unwrap() > 0);
    assert!(
        !rt_report.failed_over,
        "update loss must not kill the service"
    );
}

#[test]
fn both_drivers_emit_the_same_event_kinds() {
    // One healthy batched run per driver: the same cores and the same
    // steps must produce the same taxonomy under both clocks.
    let kinds = |events: Vec<ObsEvent>| -> BTreeSet<&'static str> {
        events.iter().map(|e| e.kind.name()).collect()
    };
    let mut config = ClusterConfig {
        bus: EventBus::with_capacity(1 << 16),
        ..ClusterConfig::default()
    };
    config.protocol.coalesce_window = TimeDelta::from_millis(5);
    let sim = kinds(simulate(&config, 20, 1).bus().collect());

    config.bus = EventBus::with_capacity(1 << 16);
    run_threads(&config, 20, 1);
    let rt = kinds(config.bus.collect());

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

/// The ordered `(from, to)` role transitions of a trace, without node
/// ids or times.
fn transitions(events: &[ObsEvent]) -> Vec<(Role, Role)> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RoleTransition { from, to, .. } => Some((from, to)),
            _ => None,
        })
        .collect()
}

#[test]
fn both_drivers_take_over_alike_with_two_backups() {
    let mut config = ClusterConfig {
        num_backups: 2,
        fault_plan: FaultPlan::new().at(Time::from_millis(500), FaultEvent::CrashPrimary),
        bus: EventBus::with_capacity(1 << 16),
        ..ClusterConfig::default()
    };
    let sim = transitions(&simulate(&config, 50, 2).bus().collect());

    config.bus = EventBus::with_capacity(1 << 16);
    run_threads(&config, 50, 2);
    let rt = transitions(&config.bus.collect());

    assert_eq!(
        sim,
        vec![
            (Role::Primary, Role::Down),
            (Role::Backup, Role::Primary),
            (Role::Joining, Role::Backup),
        ],
        "the crash, one takeover, and the survivor's rejoin"
    );
    assert_eq!(rt, sim, "both drivers must fail over alike");
}
