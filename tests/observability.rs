//! Observability-layer guarantees at the cluster level: seeded runs
//! export byte-identical event streams, tracing never perturbs protocol
//! outcomes, a faulty run's trace carries the full event taxonomy with
//! (time, seq)-monotone ordering, and the registry's counts agree with
//! the events and the ledger.

use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb::obs::{validate_line, EventBus, EventKind, MetricsRegistry};
use rtpb::types::{crc32c, ObjectSpec, Time, TimeDelta};
use rtpb::RtpbClient;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn spec(name: &str, period: u64) -> ObjectSpec {
    ObjectSpec::builder(name)
        .update_period(ms(period))
        .primary_bound(ms(period + 50))
        .backup_bound(ms(period + 450))
        .build()
        .unwrap()
}

/// `(byte length, crc32c)` of an exported stream, pinned across commits:
/// a change that alters a seeded trace must update the constant and say
/// why.
fn digest(text: &str) -> (usize, u32) {
    (text.len(), crc32c(text.as_bytes()))
}

/// A stormy schedule: loss, a partition, a backup crash/restart, and a
/// primary crash at the end so the trace also records a failover.
fn stormy_plan() -> FaultPlan {
    FaultPlan::new()
        .at(
            Time::from_millis(1_000),
            FaultEvent::LossBurst {
                host: None,
                duration: ms(800),
                loss: 1.0,
            },
        )
        .at(
            Time::from_millis(3_000),
            FaultEvent::Partition {
                host: 0,
                duration: ms(700),
            },
        )
        .at(
            Time::from_millis(5_000),
            FaultEvent::CrashBackup { host: 0 },
        )
        .at(
            Time::from_millis(6_000),
            FaultEvent::RecoverBackup { host: 0 },
        )
        .at(Time::from_millis(8_000), FaultEvent::CrashPrimary)
}

/// A cluster on the stormy plan with two objects registered, not yet
/// run.
fn stormy_cluster(seed: u64, traced: bool) -> RtpbClient {
    let config = ClusterConfig {
        seed,
        fault_plan: stormy_plan(),
        bus: if traced {
            EventBus::with_capacity(1 << 17)
        } else {
            EventBus::default()
        },
        registry: if traced {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        },
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    cluster.register(spec("a", 50)).unwrap();
    cluster.register(spec("b", 100)).unwrap();
    cluster
}

/// The stormy cluster after its 10 s run.
fn stormy_run(seed: u64, traced: bool) -> RtpbClient {
    let mut cluster = stormy_cluster(seed, traced);
    cluster.run_for(TimeDelta::from_secs(10));
    cluster
}

/// Two runs with the same seed export byte-identical JSONL streams —
/// tracing is a deterministic function of (config, seed), down to the
/// sequence numbers.
#[test]
fn seeded_runs_export_byte_identical_event_streams() {
    let a = stormy_run(31, true);
    let b = stormy_run(31, true);
    let jsonl_a = a.export_jsonl();
    assert!(!jsonl_a.is_empty(), "a stormy run must produce events");
    assert_eq!(jsonl_a, b.export_jsonl(), "traces must replay exactly");
    assert_eq!(
        a.registry().snapshot(),
        b.registry().snapshot(),
        "metrics must replay exactly"
    );
    assert_eq!(digest(&jsonl_a), (70_278, 0x907f_a719), "pinned trace");
    assert_eq!(
        digest(&a.registry().snapshot().to_jsonl()),
        (1_514, 0x932a_27fd),
        "pinned registry snapshot"
    );

    // A different seed gives a different storm.
    let c = stormy_run(32, true);
    assert_ne!(jsonl_a, c.export_jsonl(), "seed must steer the trace");
}

/// Tracing is observation only: a traced run and an untraced run with
/// the same seed reach identical protocol outcomes. The untraced run
/// keeps its registry off, so the runs compare the retransmission
/// requests each live backup has sent, sampled every virtual second.
#[test]
fn tracing_on_and_off_reach_identical_outcomes() {
    let run = |traced| {
        let mut cluster = stormy_cluster(37, traced);
        let mut requests = Vec::new();
        for _ in 0..10 {
            cluster.run_for(TimeDelta::from_secs(1));
            let backups = cluster.backups();
            let sent = backups.iter().map(|b| b.retransmit_requests_sent());
            requests.push(sent.collect::<Vec<_>>());
        }
        (cluster, requests)
    };
    let (traced, traced_requests) = run(true);
    let (bare, bare_requests) = run(false);

    assert!(bare.bus().collect().is_empty(), "disabled bus stays empty");
    assert_eq!(traced.fault_report(), bare.fault_report());
    assert_eq!(traced.has_failed_over(), bare.has_failed_over());
    assert_eq!(traced_requests, bare_requests);
    assert!(
        traced_requests.iter().flatten().any(|&n| n > 0),
        "the loss burst must provoke retransmission requests"
    );
    let (rt, rb) = (traced.report(), bare.report());
    for cluster in [&traced, &bare] {
        assert!(cluster.has_failed_over(), "the primary crash must promote");
    }
    for id in rt.object_ids() {
        let (ot, ob) = (rt.object_report(id).unwrap(), rb.object_report(id).unwrap());
        assert_eq!(ot.writes, ob.writes);
        assert_eq!(ot.applies, ob.applies);
        assert_eq!(ot.max_distance, ob.max_distance);
    }
}

/// The stormy trace covers the protocol taxonomy — updates, heartbeats,
/// the failover role transition, and the full fault lifecycle — and every
/// line is schema-valid with (time, seq)-monotone ordering.
#[test]
fn stormy_trace_covers_taxonomy_with_monotone_timestamps() {
    let cluster = stormy_run(41, true);

    let events = cluster.bus().collect();
    assert_eq!(cluster.bus().dropped(), 0, "ring must not overflow here");

    let has = |pred: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
    assert!(has(&|k| matches!(k, EventKind::UpdateSent { .. })));
    assert!(has(&|k| matches!(k, EventKind::UpdateApplied { .. })));
    assert!(has(&|k| matches!(k, EventKind::HeartbeatSent { .. })));
    assert!(has(&|k| matches!(k, EventKind::HeartbeatMissed { .. })));
    assert!(
        has(&|k| matches!(k, EventKind::RoleTransition { .. })),
        "the failover must appear as a role transition"
    );
    assert!(has(&|k| matches!(k, EventKind::FaultInjected { .. })));
    assert!(has(&|k| matches!(k, EventKind::FaultDetected { .. })));
    assert!(has(&|k| matches!(k, EventKind::FaultRecovered { .. })));
    assert!(has(&|k| matches!(k, EventKind::RetransmitRequested { .. })));
    assert!(has(&|k| matches!(k, EventKind::AdmissionDecision { .. })));
    assert!(has(&|k| matches!(k, EventKind::ClientWrite { .. })));

    let jsonl = cluster.export_jsonl();
    assert_eq!(jsonl.lines().count(), events.len());
    let mut last = (0u64, 0u64);
    for line in jsonl.lines() {
        let (seq, t_ns, _) = validate_line(line).expect("schema-valid line");
        assert!((t_ns, seq) >= last, "stream must be (time, seq)-ordered");
        last = (t_ns, seq);
    }
}

/// Update, loss and retransmission counts live only in the `cluster.*`
/// registry, and the ledger keeps a response-time total: on a lossy run
/// each count equals the events that report it, and the ledger's mean
/// response time equals the registry histogram's.
#[test]
fn registry_counts_match_the_events_and_the_ledger_mean() {
    let mut config = ClusterConfig {
        seed: 13,
        bus: EventBus::with_capacity(1 << 17),
        registry: MetricsRegistry::new(),
        ..ClusterConfig::default()
    };
    config.link.loss_probability = 0.2;
    let mut cluster = RtpbClient::new(config);
    cluster.register(spec("a", 50)).unwrap();
    cluster.register(spec("b", 100)).unwrap();
    cluster.run_for(TimeDelta::from_secs(5));

    let events = cluster.bus().collect();
    assert_eq!(cluster.bus().dropped(), 0, "ring must not overflow here");
    let (mut sent, mut lost, mut requested) = (0, 0, 0);
    for event in &events {
        match event.kind {
            EventKind::UpdateSent { lost: dropped, .. } => {
                sent += 1;
                lost += u64::from(dropped);
            }
            EventKind::RetransmitRequested { .. } => requested += 1,
            _ => {}
        }
    }
    assert!(sent > 0 && lost > 0 && requested > 0);
    let snapshot = cluster.registry().snapshot();
    assert_eq!(snapshot.counter("cluster.updates_sent"), Some(sent));
    assert_eq!(snapshot.counter("cluster.updates_lost"), Some(lost));
    assert_eq!(
        snapshot.counter("cluster.retransmit_requests"),
        Some(requested)
    );
    let response = snapshot.histogram("cluster.response_time").unwrap();
    assert!(response.count > 0);
    assert_eq!(cluster.metrics().mean_response_time(), response.mean);
}
