//! End-to-end integrity scenarios (DESIGN.md §15): wire-frame
//! corruption detected by the CRC32C trailer and repaired by the
//! retransmission machinery, durable-store bit rot quarantined by the
//! restart audit and re-shipped down the catch-up ladder, silent rot
//! found by the background scrubber and repaired via anti-entropy
//! resync — and the combined chaos acceptance run replaying
//! byte-identically under a fixed seed.

use rtpb::core::config::ProtocolConfig;
use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb::core::log::CatchUpPath;
use rtpb::core::metrics::InjectedFault;
use rtpb::obs::{EventBus, EventKind, MetricsRegistry};
use rtpb::types::{crc32c, NodeId, ObjectId, ObjectSpec, ReadOutcome, Time, TimeDelta};
use rtpb::{ReadConsistency, RtpbClient};

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn at_ms(v: u64) -> Time {
    Time::from_millis(v)
}

fn spec(period: u64) -> ObjectSpec {
    ObjectSpec::builder("integrity-obj")
        .update_period(ms(period))
        .primary_bound(ms(period + 50))
        .backup_bound(ms(period + 450))
        .build()
        .unwrap()
}

/// A counter from the registry snapshot; panics if the registry was left
/// disabled, so a missing count can never read as zero.
fn counter(cluster: &RtpbClient, name: &str) -> u64 {
    cluster
        .registry()
        .snapshot()
        .counter(name)
        .expect("the test enables the registry")
}

/// Ground-truth certificate audit (shared with the clock-chaos suite):
/// every replica-served read's staleness certificate is checked against
/// the recorded write history on the global clock. With corruption in
/// the plan this doubles as the "no certificate vouches for corrupt
/// state" check — a quarantined or stale image served with a too-small
/// bound would fail it.
fn assert_certificates_sound(cluster: &RtpbClient, id: ObjectId) {
    let report = cluster.report();
    for event in cluster.bus().collect() {
        let EventKind::ReadServed {
            object,
            served_by,
            version,
            age_bound,
            ..
        } = event.kind
        else {
            continue;
        };
        if object != id {
            continue;
        }
        let Some(w) = report.earliest_write_after(id, version) else {
            continue;
        };
        if w <= event.at {
            let true_staleness = event.at.saturating_since(w);
            assert!(
                true_staleness <= age_bound,
                "unsound certificate from {served_by} at {}: claimed ≤ {age_bound}, \
                 truly {true_staleness} stale",
                event.at
            );
        }
    }
}

/// Scenario 1: a total bit-flip window on every data path. Every
/// corrupted frame is caught by the CRC32C trailer at the receiver and
/// dropped — never parsed, never applied — and the outage heals through
/// the same watchdog/retransmission machinery as loss.
#[test]
fn corrupt_frames_are_detected_dropped_and_repaired() {
    let config = ClusterConfig {
        seed: 53,
        bus: EventBus::with_capacity(1 << 17),
        registry: MetricsRegistry::new(),
        fault_plan: FaultPlan::new().at(
            at_ms(2_000),
            FaultEvent::CorruptFrame {
                host: None,
                duration: ms(1_500),
                probability: 1.0,
            },
        ),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(8));

    assert!(
        !cluster.has_failed_over(),
        "frame corruption must degrade, not depose"
    );
    // Every flip was detected: the corrupted-delivery count and the
    // violation count move together, and each violation names the frame
    // layer.
    let corrupted = cluster.cluster().corrupt_messages();
    assert!(
        corrupted > 0,
        "a 1.0-probability window must corrupt frames"
    );
    assert!(counter(&cluster, "cluster.integrity_violations") >= corrupted);
    let events = cluster.bus().collect();
    let frame_violations = events
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
    assert_eq!(frame_violations, corrupted, "every drop must be traced");
    let metric = cluster
        .registry()
        .snapshot()
        .counter("cluster.integrity_violations")
        .unwrap_or(0);
    assert!(metric >= corrupted);

    // The fault record: detected via the starved watchdogs (corruption
    // manifests as loss to the protocol), healed on schedule.
    let faults = cluster.fault_report();
    assert_eq!(faults.len(), 1);
    let window = &faults[0];
    assert_eq!(window.kind, InjectedFault::CorruptFrame);
    let detection = window.detection_latency().expect("window undetected");
    assert!(detection <= ms(1_000), "detection took {detection}");
    assert_eq!(window.recovered_at, Some(at_ms(3_500)), "heals with window");
    assert!(counter(&cluster, "cluster.retransmit_requests") > 0);

    // The backup went stale for roughly the window and recovered; no
    // corrupted byte ever reached its store.
    let obj = cluster.report().object_report(id).unwrap().clone();
    assert!(obj.inconsistency_episodes >= 1);
    assert!(obj.max_distance >= ms(1_000), "got {}", obj.max_distance);
    assert!(obj.max_distance <= ms(3_000), "got {}", obj.max_distance);
    let applies_now = obj.applies;
    cluster.run_for(TimeDelta::from_secs(2));
    assert!(
        cluster.report().object_report(id).unwrap().applies > applies_now,
        "replication must flow again after the heal"
    );
    assert_certificates_sound(&cluster, id);
}

/// Scenario 2: bit rot on a backup's durable store, surfacing across a
/// kill-restart. The restart audit quarantines every image whose
/// install-time checksum fails and clears the applied position — the
/// store can no longer vouch that its position reflects its contents —
/// so the rejoin falls to the bottom of the catch-up ladder and the
/// full transfer re-installs the quarantined objects.
#[test]
fn state_rot_is_quarantined_at_restart_and_repaired_by_catch_up() {
    let config = ClusterConfig {
        seed: 59,
        auto_failover: false,
        bus: EventBus::with_capacity(1 << 17),
        registry: MetricsRegistry::new(),
        fault_plan: FaultPlan::new()
            .at(at_ms(1_000), FaultEvent::CrashBackup { host: 0 })
            .at(at_ms(1_200), FaultEvent::CorruptState { host: 0, flips: 1 })
            .at(at_ms(1_400), FaultEvent::RestartBackup { host: 0 }),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(5));

    // The rot was latent until the restart audit ran, then detected and
    // repaired by the catch-up frame.
    let faults = cluster.fault_report();
    let rot = faults
        .iter()
        .find(|f| f.kind == InjectedFault::CorruptState)
        .expect("rot fault recorded");
    assert_eq!(rot.injected_at, at_ms(1_200));
    let detected = rot.detected_at.expect("rot must be caught by the audit");
    assert!(detected >= at_ms(1_400), "detection cannot precede restart");
    assert!(
        detected <= at_ms(1_450),
        "audit runs at restart: {detected}"
    );
    assert!(
        rot.recovered_at.expect("rot must be repaired") > detected,
        "repair lands with the catch-up frame"
    );

    // The quarantine was traced, and the rejoin fell past the log-suffix
    // rung: a 400 ms outage alone would have been a suffix replay, but a
    // store that failed its audit gets the full transfer.
    let events = cluster.bus().collect();
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::IntegrityViolation {
                source: "store_entry",
                ..
            }
        )),
        "the quarantined entry must be traced"
    );
    let plans = cluster.cluster().catch_up_plans();
    assert!(!plans.is_empty(), "the rejoin must produce a plan");
    assert_eq!(
        plans[0].path,
        CatchUpPath::FullTransfer,
        "a rotted store cannot vouch for its position"
    );

    // Converged: the repaired backup mirrors the primary again and the
    // re-installed image verifies.
    let primary = cluster.primary().unwrap();
    let backup = cluster.backup().expect("backup repaired");
    let v_primary = primary.store().get(id).unwrap().version().value();
    let v_backup = backup.store().get(id).unwrap().version().value();
    assert!(
        v_primary - v_backup <= 2,
        "repaired store must be current ({v_backup} vs {v_primary})"
    );
    assert_certificates_sound(&cluster, id);
}

/// Scenario 3: *silent* rot — a flipped byte on a running backup, with
/// no crash and no local read to trip over it. The background scrubber
/// (primary-piggybacked per-range digests) is the only detector left,
/// and on divergence the backup quarantines what its own checksums can
/// prove, clears its position, and repairs via anti-entropy resync.
#[test]
fn scrubber_finds_silent_rot_and_repairs_via_resync() {
    let config = ClusterConfig {
        seed: 61,
        protocol: ProtocolConfig {
            scrub_interval: ms(100),
            scrub_ranges: 1,
            ..ProtocolConfig::default()
        },
        bus: EventBus::with_capacity(1 << 17),
        registry: MetricsRegistry::new(),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(200)).unwrap();
    cluster.run_for(TimeDelta::from_secs(2));
    assert_eq!(
        counter(&cluster, "cluster.scrub_divergences"),
        0,
        "a healthy store must scrub clean"
    );

    assert!(
        cluster.cluster_mut().rot_backup_store(0, id, 0, 0x10),
        "the backup must hold an image to rot"
    );
    cluster.run_for(TimeDelta::from_secs(4));

    assert!(
        counter(&cluster, "cluster.scrub_divergences") >= 1,
        "the scrubber must notice the diverged digest"
    );
    let events = cluster.bus().collect();
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::ScrubDivergence { .. })));
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::IntegrityViolation {
                source: "store_entry",
                ..
            }
        )),
        "the rotted entry fails its own checksum once audited"
    );
    // Repair rode the anti-entropy resync path and converged.
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::ResyncStarted { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::ResyncCompleted { .. })));
    let primary = cluster.primary().unwrap();
    let backup = cluster.backup().expect("backup repaired");
    let v_primary = primary.store().get(id).unwrap().version().value();
    let v_backup = backup.store().get(id).unwrap().version().value();
    assert!(
        v_primary - v_backup <= 2,
        "repaired store must be current ({v_backup} vs {v_primary})"
    );
    assert!(!backup.join_in_progress(), "resync must have completed");
    // And once repaired, later scrubs pass again: no divergence in the
    // final second of the run.
    let last_divergence = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ScrubDivergence { .. }))
        .map(|e| e.at)
        .max()
        .unwrap();
    assert!(
        last_divergence + ms(1_000) <= cluster.now(),
        "divergence must stop once repaired (last at {last_divergence})"
    );
    assert_certificates_sound(&cluster, id);
}

/// The §15 acceptance plan: frame corruption, store rot across a
/// kill-restart, a crash and a loss burst, all in one run.
/// `(byte length, crc32c)` of an exported stream, pinned across commits:
/// a change that alters a seeded trace must update the constant and say
/// why.
fn digest(text: &str) -> (usize, u32) {
    (text.len(), crc32c(text.as_bytes()))
}

fn acceptance_cluster(seed: u64) -> RtpbClient {
    let config = ClusterConfig {
        seed,
        num_backups: 2,
        auto_failover: false,
        bus: EventBus::with_capacity(1 << 18),
        registry: MetricsRegistry::new(),
        fault_plan: FaultPlan::new()
            .at(
                at_ms(1_000),
                FaultEvent::LossBurst {
                    host: None,
                    duration: ms(500),
                    loss: 0.5,
                },
            )
            .at(
                at_ms(2_000),
                FaultEvent::CorruptFrame {
                    host: None,
                    duration: ms(1_000),
                    probability: 0.5,
                },
            )
            .at(at_ms(3_500), FaultEvent::CrashBackup { host: 0 })
            .at(at_ms(4_000), FaultEvent::CorruptState { host: 0, flips: 1 })
            .at(at_ms(4_500), FaultEvent::RestartBackup { host: 0 }),
        ..ClusterConfig::default()
    };
    RtpbClient::new(config)
}

/// Scenario 4: the acceptance run. Corruption at both layers plus loss
/// and a crash; the service survives, every corrupted frame and rotted
/// image is detected before its bytes reach replicated state, the
/// certificate audit passes over the whole run, and both backups
/// converge with the primary.
#[test]
fn combined_corruption_chaos_detects_everything_and_converges() {
    let mut cluster = acceptance_cluster(67);
    let id = cluster.register(spec(50)).unwrap();
    // Interleave reads with the chaos so certificates are actually
    // minted while corruption is in flight.
    let mut replica_serves = 0u64;
    for _ in 0..80 {
        cluster.run_for(ms(100));
        if matches!(
            cluster.read(id, ReadConsistency::Bounded(ms(500))),
            Ok(ReadOutcome::Replica { .. })
        ) {
            replica_serves += 1;
        }
    }
    assert!(replica_serves > 0, "replicas must serve around the chaos");

    assert!(!cluster.has_failed_over(), "the primary never died");
    assert!(cluster.cluster().corrupt_messages() > 0);
    assert!(counter(&cluster, "cluster.integrity_violations") > 0);
    let events = cluster.bus().collect();
    for source in ["frame", "store_entry"] {
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                EventKind::IntegrityViolation { source: s, .. } if s == source
            )),
            "expected a {source} violation in this plan"
        );
    }

    // Every planned fault was recorded; the windowed and rot faults all
    // closed.
    let faults = cluster.fault_report().to_vec();
    assert_eq!(faults.len(), 5, "every planned fault must be recorded");
    for kind in [
        InjectedFault::LossBurst,
        InjectedFault::CorruptFrame,
        InjectedFault::CorruptState,
    ] {
        let f = faults.iter().find(|f| f.kind == kind).unwrap();
        assert!(f.detected_at.is_some(), "{kind:?} undetected");
        assert!(f.recovered_at.is_some(), "{kind:?} unrecovered");
    }

    // No certificate ever vouched for corrupt or stale state.
    assert_certificates_sound(&cluster, id);

    // Both backups — including the one restarted over a rotted store —
    // converged with the primary: each trails by at most one send
    // period's worth of writes (updates ship on the send schedule, not
    // per write) plus the update in flight.
    let primary = cluster.primary().unwrap();
    let v_primary = primary.store().get(id).unwrap().version().value();
    let send_period = primary.send_period(id).unwrap();
    let lag_allowance = send_period.as_millis() / 50 + 2;
    let backups = cluster.backups();
    assert_eq!(backups.len(), 2, "both backups must be live at the end");
    for backup in backups {
        let v = backup.store().get(id).unwrap().version().value();
        assert!(
            v_primary - v <= lag_allowance,
            "{} must be current ({v} vs {v_primary}, allowance {lag_allowance})",
            backup.node()
        );
        assert!(!backup.join_in_progress());
    }
    assert!(
        faults
            .iter()
            .find(|f| f.kind == InjectedFault::CorruptState)
            .unwrap()
            .recovered_at
            .unwrap()
            > at_ms(4_500),
        "rot repair lands after the restart"
    );
    // The restarted host is host 0 = node#1.
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::CatchUpPlan { node, .. } if node == NodeId::new(1)
        )),
        "the rotted rejoiner must go through the catch-up ladder"
    );
}

/// Scenario 5: the acceptance run is a deterministic function of the
/// seed — injection, per-frame flips, quarantine, repair — down to a
/// byte-identical structured-event log.
#[test]
fn corruption_chaos_replays_byte_identically() {
    let run = || {
        let mut cluster = acceptance_cluster(67);
        cluster.register(spec(50)).unwrap();
        cluster.run_for(TimeDelta::from_secs(8));
        (
            cluster.export_jsonl(),
            cluster.fault_report().to_vec(),
            cluster.cluster().corrupt_messages(),
            counter(&cluster, "cluster.integrity_violations"),
            cluster.registry().snapshot().to_jsonl(),
        )
    };
    let (jsonl_a, faults_a, corrupted_a, violations_a, registry_a) = run();
    let (jsonl_b, faults_b, corrupted_b, violations_b, _) = run();
    assert_eq!(digest(&jsonl_a), (87_352, 0x2391_9c20), "pinned trace");
    assert_eq!(digest(&registry_a), (1_510, 0xa099_39e9), "pinned registry");
    assert_eq!(jsonl_a, jsonl_b, "same seed must replay byte-identically");
    assert_eq!(faults_a, faults_b);
    assert_eq!(corrupted_a, corrupted_b);
    assert_eq!(violations_a, violations_b);
    assert!(corrupted_a > 0, "the plan must actually corrupt frames");
    assert!(jsonl_a.contains("integrity_violation"));
    assert!(jsonl_a.contains("fault_recovered"));
    assert!(jsonl_a.contains("catch_up_plan"));
}
