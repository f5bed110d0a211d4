//! Kill-restart-under-load recovery scenarios for the durable update
//! log (DESIGN.md §11): a restarted backup advertises its last applied
//! log position and the primary picks the cheapest catch-up path that
//! covers the gap — log suffix for short outages, snapshot diff once
//! the ring has truncated, full state transfer only when the gap
//! predates every retained snapshot. Plus a Theorem-5 regression pin
//! for objects unaffected by the crash, and seeded-replay determinism
//! with crashes in the plan.

use rtpb::core::config::ProtocolConfig;
use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan, MAX_DATAGRAM_BYTES};
use rtpb::core::log::CatchUpPath;
use rtpb::obs::{EventBus, EventKind, MetricsRegistry};
use rtpb::types::{crc32c, ObjectSpec, Time, TimeDelta};
use rtpb::{ReadConsistency, RtpbClient};

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn at_ms(v: u64) -> Time {
    Time::from_millis(v)
}

fn spec(period: u64) -> ObjectSpec {
    ObjectSpec::builder("rec-obj")
        .update_period(ms(period))
        .primary_bound(ms(period + 50))
        .backup_bound(ms(period + 450))
        .build()
        .unwrap()
}

/// A kill-restart plan for backup `host`: fail-stop at `crash_ms`,
/// durable-storage restart at `restart_ms`.
/// `(byte length, crc32c)` of an exported stream, pinned across commits:
/// a change that alters a seeded trace must update the constant and say
/// why.
fn digest(text: &str) -> (usize, u32) {
    (text.len(), crc32c(text.as_bytes()))
}

fn kill_restart(host: usize, crash_ms: u64, restart_ms: u64) -> FaultPlan {
    FaultPlan::new()
        .at(at_ms(crash_ms), FaultEvent::CrashBackup { host })
        .at(at_ms(restart_ms), FaultEvent::RestartBackup { host })
}

/// Scenario 1: a short outage. The ring still covers the gap, so the
/// primary ships only the records the backup missed.
#[test]
fn short_gap_restart_replays_the_log_suffix() {
    let config = ClusterConfig {
        auto_failover: false,
        fault_plan: kill_restart(0, 1_000, 1_300),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(4));

    let plans = cluster.cluster().catch_up_plans();
    assert!(!plans.is_empty(), "the rejoin must produce a plan");
    assert_eq!(plans[0].path, CatchUpPath::LogSuffix);
    assert!(plans[0].gap > 0, "a 300 ms outage misses some records");
    // Both fault records (crash, restart) resolved, and the backup is
    // live again at a recorded position.
    let report = cluster.fault_report();
    assert_eq!(report.len(), 2);
    assert!(report[1].recovery_time().is_some(), "rejoin never landed");
    let backup = cluster.backup().expect("restarted backup");
    assert!(backup.log_position().is_some());
    assert!(backup.updates_applied() > 0);
    let r = cluster.report().object_report(id).unwrap();
    assert!(r.writes > 0 && r.applies > 0);
}

/// Scenario 2: a long outage. The retention cap has dropped the gap's
/// records, but a retained snapshot predates the backup's position, so
/// the primary ships a snapshot diff — only objects whose freshness tag
/// moved — and the replicas still converge.
#[test]
fn long_gap_restart_uses_the_snapshot_diff() {
    let config = ClusterConfig {
        protocol: ProtocolConfig {
            log_retention: 64,
            snapshot_interval: 128,
            snapshots_retained: 4,
            ..ProtocolConfig::default()
        },
        // A second backup keeps acking through the outage so the
        // primary's lease never lapses and the log keeps growing.
        num_backups: 2,
        auto_failover: false,
        fault_plan: kill_restart(0, 4_000, 6_000),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(20)).unwrap();
    cluster.run_for(TimeDelta::from_secs(8));

    let plans = cluster.cluster().catch_up_plans();
    assert!(!plans.is_empty(), "the rejoin must produce a plan");
    assert_eq!(
        plans[0].path,
        CatchUpPath::SnapshotDiff,
        "a gap past the ring but inside snapshot retention rides the diff"
    );
    assert!(cluster.fault_report()[1].recovery_time().is_some());
    // Convergence: the restarted backup's image caught back up to the
    // primary's current version modulo in-flight updates.
    let p = cluster.primary().expect("serving primary");
    let b = cluster.backup().expect("restarted backup");
    let p_ver = p.store().get(id).unwrap().version().value();
    let b_ver = b.store().get(id).unwrap().version().value();
    assert!(
        p_ver.saturating_sub(b_ver) <= 5,
        "backup stuck at v{b_ver} while primary reached v{p_ver}"
    );
}

/// Scenario 3: an outage so long its position predates every retained
/// snapshot. Nothing covers the gap — the primary falls back to a full
/// state transfer, declared as such in the plan.
#[test]
fn pre_retention_gap_falls_back_to_full_transfer() {
    let config = ClusterConfig {
        protocol: ProtocolConfig {
            log_retention: 32,
            snapshot_interval: 64,
            snapshots_retained: 2,
            ..ProtocolConfig::default()
        },
        num_backups: 2,
        auto_failover: false,
        fault_plan: kill_restart(0, 500, 6_000),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let ids: Vec<_> = cluster
        .register_many(vec![spec(20), spec(40), spec(80)])
        .unwrap();
    cluster.run_for(TimeDelta::from_secs(8));

    let plans = cluster.cluster().catch_up_plans();
    assert!(!plans.is_empty(), "the rejoin must produce a plan");
    assert_eq!(plans[0].path, CatchUpPath::FullTransfer);
    assert_eq!(
        plans[0].records,
        ids.len() as u64,
        "a full transfer ships every registered object"
    );
    assert!(cluster.fault_report()[1].recovery_time().is_some());
}

/// A short outage ships a sliver of the store. A 25 ms outage against a
/// 400 ms write period misses about 6% of 80 objects' writes, so the
/// durable restart's log suffix costs under half the bytes of the full
/// transfer the cold restart of the same outage needs. Both replies are
/// sent and land.
#[test]
fn short_outage_ships_a_sliver_of_the_store() {
    let spec = ObjectSpec::builder("rec-obj")
        .update_period(ms(400))
        .exec_time(TimeDelta::from_micros(1))
        .primary_bound(ms(600))
        .backup_bound(ms(1_500))
        .build()
        .unwrap();
    let run = |restart: FaultEvent| {
        let config = ClusterConfig {
            protocol: ProtocolConfig {
                admission_enabled: false,
                send_cost_base: TimeDelta::from_micros(1),
                send_cost_per_byte: TimeDelta::ZERO,
                log_retention: 4_096,
                snapshot_interval: 1_024,
                ..ProtocolConfig::default()
            },
            seed: 42,
            // A second backup keeps acking through the outage so the
            // primary's lease never lapses and the write load stays on.
            num_backups: 2,
            auto_failover: false,
            registry: MetricsRegistry::new(),
            fault_plan: FaultPlan::new()
                .at(at_ms(1_000), FaultEvent::CrashBackup { host: 0 })
                .at(at_ms(1_025), restart),
            ..ClusterConfig::default()
        };
        let mut cluster = RtpbClient::new(config);
        cluster.register_many(vec![spec.clone(); 80]).unwrap();
        cluster.run_for(ms(2_525));
        assert_eq!(
            cluster
                .registry()
                .snapshot()
                .counter("cluster.send_rejected"),
            Some(0),
            "the catch-up reply fits in one datagram"
        );
        assert!(
            cluster.fault_report()[1].recovery_time().is_some(),
            "the restarted backup must re-integrate"
        );
        cluster.cluster().catch_up_plans()[0].clone()
    };
    let durable = run(FaultEvent::RestartBackup { host: 0 });
    let cold = run(FaultEvent::RecoverBackup { host: 0 });
    assert_eq!(durable.path, CatchUpPath::LogSuffix);
    assert_eq!(cold.path, CatchUpPath::FullTransfer);
    assert!(
        durable.bytes * 2 < cold.bytes,
        "the suffix ({} B) must undercut half the full transfer ({} B)",
        durable.bytes,
        cold.bytes
    );
}

/// Regression pin for the catch-up read gate: a restarted backup's
/// store holds its pre-crash image until the re-integration frame
/// lands, and a read served from that window would hand the client a
/// value the primary overwrote many periods ago. The gate lives in the
/// backup alone (`Backup::catching_up`, which both `Backup::serve_read`
/// and the harness's routing consult) and must route every read in the
/// window to the primary instead; once the resync lands, replica reads
/// resume and only post-resync versions are ever served.
#[test]
fn reads_during_catch_up_never_serve_pre_resync_values() {
    let config = ClusterConfig {
        auto_failover: false,
        fault_plan: kill_restart(0, 1_000, 1_600),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();

    // A bound far beyond any real staleness: the Bounded filter never
    // redirects on its own, so the only thing standing between the
    // client and a pre-resync image is the eligibility gate.
    let huge = TimeDelta::from_secs(60);

    // Steady state: replica reads work before the crash.
    cluster.run_for(TimeDelta::from_secs(1));
    let v_crash = cluster
        .primary()
        .expect("serving")
        .store()
        .get(id)
        .unwrap()
        .version()
        .value();
    assert!(v_crash > 0, "one second of 50 ms writes landed");

    // Step through outage + restart + catch-up in 5 ms slices, reading
    // at every step. The primary keeps writing throughout, so any
    // replica-served read showing a version at or below the crash
    // high-water is a pre-resync value escaping the gate.
    let mut redirects_after_restart = 0u32;
    let mut replica_reads_after_restart = 0u32;
    for step in 0..400u64 {
        cluster.run_for(ms(5));
        let now_ms = 1_000 + 5 * (step + 1);
        // While the only backup is down the primary's leadership lease
        // can lapse and its own read gate refuses (`Unavailable`);
        // that's a correct refusal, not a gate leak.
        let outcome = match cluster.read(id, ReadConsistency::Bounded(huge)) {
            Ok(outcome) => outcome,
            Err(rtpb::ReadError::Unavailable) => continue,
            Err(other) => panic!("t={now_ms}ms: unexpected read error {other}"),
        };
        if outcome.is_redirect() {
            if now_ms > 1_600 {
                redirects_after_restart += 1;
            }
            continue;
        }
        if now_ms > 1_000 {
            assert!(
                outcome.certificate().version.value() > v_crash,
                "t={now_ms}ms: replica served v{} but the primary was past \
                 v{v_crash} before the crash — pre-resync value leaked",
                outcome.certificate().version.value()
            );
            if now_ms > 1_600 {
                replica_reads_after_restart += 1;
            }
        }
    }
    assert!(
        redirects_after_restart > 0,
        "the catch-up window must actually gate reads to the primary"
    );
    assert!(
        replica_reads_after_restart > 0,
        "once the resync lands, replica reads must resume"
    );
    assert!(
        cluster.fault_report()[1].recovery_time().is_some(),
        "the restarted backup must re-integrate"
    );
}

/// Theorem-5 regression pin: objects replicated to the *surviving*
/// backup keep their temporal-consistency bounds for the whole run, even
/// while the other backup crashes and re-integrates. (Consistency
/// metrics track the first backup, so the kill-restart targets host 1.)
#[test]
fn bounds_hold_for_unaffected_objects_throughout_recovery() {
    let config = ClusterConfig {
        num_backups: 2,
        auto_failover: false,
        fault_plan: kill_restart(1, 1_000, 1_400),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let ids: Vec<_> = cluster
        .register_many(vec![spec(50), spec(100), spec(200)])
        .unwrap();
    cluster.run_for(TimeDelta::from_secs(6));

    assert!(
        cluster.fault_report()[1].recovery_time().is_some(),
        "the crashed backup must re-integrate"
    );
    let report = cluster.report();
    for id in ids {
        let r = report.object_report(id).unwrap();
        assert!(r.writes > 0 && r.applies > 0);
        assert_eq!(
            r.window_episodes, 0,
            "{id}: Theorem-5 window violated during a peer's recovery"
        );
        assert_eq!(r.backup_violations, 0, "{id}: backup bound violated");
    }
}

/// Seeded chaos replays are byte-identical: two runs with the same
/// config, seed, and kill-restart plan export the same trace and make
/// the same catch-up decisions — recovery traffic riding the lossy data
/// path included.
#[test]
fn seeded_kill_restart_replays_byte_identical() {
    let run = || {
        let mut config = ClusterConfig {
            auto_failover: false,
            bus: EventBus::with_capacity(1 << 16),
            fault_plan: kill_restart(0, 1_000, 1_600),
            ..ClusterConfig::default()
        };
        config.seed = 1717;
        config.link.loss_probability = 0.3;
        let bus = config.bus.clone();
        let mut cluster = RtpbClient::new(config);
        cluster.register(spec(50)).unwrap();
        cluster.run_for(TimeDelta::from_secs(5));
        let plans: Vec<String> = cluster
            .cluster()
            .catch_up_plans()
            .iter()
            .map(|p| format!("{p:?}"))
            .collect();
        (bus.export_jsonl(), plans)
    };
    let (trace_a, plans_a) = run();
    let (trace_b, plans_b) = run();
    assert!(!plans_a.is_empty());
    assert_eq!(plans_a, plans_b, "catch-up decisions must replay");
    assert_eq!(trace_a, trace_b, "traces must be byte-identical");
    assert_eq!(digest(&trace_a), (33_203, 0x4d5b_0296), "pinned trace");
}

/// A frame lost on the recovery path is not fatal: catch-up frames ride
/// the lossy data path, and the bounded-retry join cycle still lands a
/// catch-up reply.
#[test]
fn lossy_recovery_path_still_reintegrates() {
    let mut config = ClusterConfig {
        auto_failover: false,
        fault_plan: kill_restart(0, 1_000, 1_500),
        ..ClusterConfig::default()
    };
    config.seed = 99;
    config.link.loss_probability = 0.5;
    let mut cluster = RtpbClient::new(config);
    cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(10));
    let backup = cluster.backup().expect("backup host");
    assert!(
        !backup.join_in_progress() && !backup.join_abandoned(),
        "rejoin must complete"
    );
    assert!(
        cluster.fault_report()[1].recovery_time().is_some(),
        "recovery must be recorded"
    );
}

/// A catch-up reply over the datagram cap is refused at the sender, and
/// the refusal is a typed, counted event instead of a silent drop. With
/// 64 objects of 1,200 B the full transfer to a cold-recovered backup
/// exceeds 65,535 bytes; with 40 it fits and nothing is refused.
#[test]
fn oversized_catch_up_frames_are_refused_and_counted() {
    let run = |objects: usize| {
        let config = ClusterConfig {
            auto_failover: false,
            bus: EventBus::with_capacity(1 << 17),
            registry: MetricsRegistry::new(),
            fault_plan: FaultPlan::new()
                .at(at_ms(1_000), FaultEvent::CrashBackup { host: 0 })
                .at(at_ms(1_500), FaultEvent::RecoverBackup { host: 0 }),
            ..ClusterConfig::default()
        };
        let mut cluster = RtpbClient::new(config);
        for i in 0..objects {
            let spec = ObjectSpec::builder(format!("big-{i}"))
                .update_period(ms(100))
                .primary_bound(ms(150))
                .backup_bound(ms(550))
                .size_bytes(1_200)
                .build()
                .unwrap();
            cluster.register(spec).unwrap();
        }
        cluster.run_for(TimeDelta::from_secs(4));
        let rejected = cluster
            .registry()
            .snapshot()
            .counter("cluster.send_rejected")
            .unwrap();
        let sizes: Vec<u64> = cluster
            .bus()
            .collect()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::SendRejected { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        (rejected, sizes)
    };
    let (rejected, sizes) = run(64);
    assert!(rejected >= 1, "the oversized full transfer must be refused");
    assert_eq!(sizes.len() as u64, rejected, "one event per refusal");
    assert!(
        sizes.iter().all(|&b| b > MAX_DATAGRAM_BYTES as u64),
        "only frames over the cap are refused: {sizes:?}"
    );
    let (rejected, sizes) = run(40);
    assert_eq!(rejected, 0, "a transfer under the cap is sent: {sizes:?}");
}
