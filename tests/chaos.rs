//! Deterministic fault-injection ("chaos") scenarios driven by
//! [`FaultPlan`]s: correlated loss bursts, partitions, crash/recovery
//! schedules, and delay spikes, each asserting the protocol's detection
//! and re-integration bounds from the fault report.

use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb::core::metrics::InjectedFault;
use rtpb::obs::{EventBus, EventKind, MetricsRegistry};
use rtpb::sim::propcheck::run_cases;
use rtpb::types::{crc32c, NodeId, ObjectId, ObjectSpec, ReadError, ReadOutcome, Time, TimeDelta};
use rtpb::{ReadConsistency, RtpbClient};

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn at_ms(v: u64) -> Time {
    Time::from_millis(v)
}

/// Retransmission requests the primary received
/// (`cluster.retransmit_requests`).
fn retransmit_requests(cluster: &RtpbClient) -> u64 {
    cluster
        .registry()
        .snapshot()
        .counter("cluster.retransmit_requests")
        .expect("the test enables the registry")
}

fn spec(period: u64) -> ObjectSpec {
    ObjectSpec::builder("chaos-obj")
        .update_period(ms(period))
        .primary_bound(ms(period + 50))
        .backup_bound(ms(period + 450))
        .build()
        .unwrap()
}

/// §4.4 failure-detection budget: the declaration bound (three
/// unanswered probes of 100 ms each), plus scheduling slack.
const DETECTION_BUDGET: TimeDelta = TimeDelta::from_millis(600);

/// Scenario 1: a total loss burst on every data path. The backup's
/// watchdogs detect it via retransmission requests; the report shows a
/// bounded inconsistency interval that closes when the burst ends.
#[test]
fn loss_burst_is_detected_and_heals() {
    let config = ClusterConfig {
        seed: 7,
        fault_plan: FaultPlan::new().at(
            at_ms(2_000),
            FaultEvent::LossBurst {
                host: None,
                duration: ms(2_000),
                loss: 1.0,
            },
        ),
        registry: MetricsRegistry::new(),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(8));

    assert!(!cluster.has_failed_over(), "loss must not kill the service");
    let faults = cluster.fault_report();
    assert_eq!(faults.len(), 1);
    let burst = &faults[0];
    assert_eq!(burst.kind, InjectedFault::LossBurst);
    assert_eq!(burst.injected_at, at_ms(2_000));
    // Watchdog-driven detection: within one refresh allowance plus the
    // watchdog tick, well under a second.
    let detection = burst.detection_latency().expect("burst undetected");
    assert!(detection <= ms(1_000), "detection took {detection}");
    assert!(burst.retries >= 1, "retransmissions must be counted");
    assert_eq!(burst.recovered_at, Some(at_ms(4_000)), "heals with window");

    let report = cluster.report();
    let obj = report.object_report(id).unwrap();
    assert!(
        obj.inconsistency_episodes >= 1,
        "a 2 s total-loss burst leaves the backup inconsistent"
    );
    // The backup image went stale for roughly the burst length and no
    // longer: distance is bounded by the outage duration plus a couple of
    // update periods.
    assert!(obj.max_distance >= ms(1_500), "got {}", obj.max_distance);
    assert!(obj.max_distance <= ms(3_000), "got {}", obj.max_distance);
    assert!(retransmit_requests(&cluster) > 0);
}

/// Scenario 2: the backup is partitioned away and the cut heals. Both
/// detectors fire within the §4.4 budget; the severed replica re-joins
/// with bounded retries once the partition heals.
#[test]
fn partition_detected_then_backup_reintegrates_after_heal() {
    let config = ClusterConfig {
        seed: 11,
        fault_plan: FaultPlan::new().at(
            at_ms(2_000),
            FaultEvent::Partition {
                host: 0,
                duration: ms(1_000),
            },
        ),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(8));

    assert!(
        !cluster.has_failed_over(),
        "the primary is alive: the severed backup must re-join, not promote"
    );
    let faults = cluster.fault_report();
    assert_eq!(faults.len(), 1);
    let cut = &faults[0];
    assert_eq!(cut.kind, InjectedFault::Partition);
    let detection = cut.detection_latency().expect("partition undetected");
    assert!(detection <= DETECTION_BUDGET, "detection took {detection}");
    // Re-integration: the join retry backoff caps at 1 s, so the replica
    // is back within heal + retry interval + state transfer.
    let recovered = cut.recovered_at.expect("backup never re-joined");
    assert!(recovered >= at_ms(3_000), "cannot rejoin mid-cut");
    assert!(
        recovered <= at_ms(4_500),
        "re-integration too slow: {recovered}"
    );
    assert!(cut.retries >= 1, "joins during the cut must be retried");

    // Replication resumed after the heal.
    let applies_at_heal = cluster.report().object_report(id).unwrap().applies;
    cluster.run_for(TimeDelta::from_secs(2));
    let applies_later = cluster.report().object_report(id).unwrap().applies;
    assert!(applies_later > applies_at_heal, "updates must flow again");
}

/// Scenario 3: backup crash, then a scheduled restart. The crash is
/// detected within the §4.4 budget and the restarted replica re-integrates
/// promptly through join + state transfer.
#[test]
fn backup_crash_and_recovery_meet_their_bounds() {
    let config = ClusterConfig {
        seed: 13,
        fault_plan: FaultPlan::new()
            .at(at_ms(1_000), FaultEvent::CrashBackup { host: 0 })
            .at(at_ms(2_500), FaultEvent::RecoverBackup { host: 0 }),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(6));

    let faults = cluster.fault_report();
    assert_eq!(faults.len(), 2);
    let crash = &faults[0];
    assert_eq!(crash.kind, InjectedFault::BackupCrash);
    let detection = crash.detection_latency().expect("crash undetected");
    assert!(detection <= DETECTION_BUDGET, "detection took {detection}");
    // The crash fault closes when the restarted replica is tracked again.
    assert!(crash.recovered_at.expect("no rejoin") >= at_ms(2_500));

    let recovery = &faults[1];
    assert_eq!(recovery.kind, InjectedFault::BackupRecovery);
    // Join goes out immediately on a healthy control path: accepted and
    // state-transferred within a few link delays.
    let rejoin = recovery.recovery_time().expect("state transfer missing");
    assert!(rejoin <= ms(200), "re-integration took {rejoin}");

    let backup = cluster.backup().expect("backup restored");
    assert!(backup.updates_applied() > 0, "replication resumed");
    assert!(!backup.join_in_progress());
    assert!(cluster.report().object_report(id).unwrap().applies > 0);
}

/// Scenario 4: the primary crashes while a recovering backup's state
/// transfer is in flight. The join goes unanswered, the recovering
/// replica's detector fires, and it promotes itself — service survives.
#[test]
fn primary_crash_during_state_transfer_still_fails_over() {
    let config = ClusterConfig {
        seed: 17,
        fault_plan: FaultPlan::new()
            .at(at_ms(1_000), FaultEvent::CrashBackup { host: 0 })
            .at(at_ms(3_000), FaultEvent::RecoverBackup { host: 0 })
            // The join request is in flight (links deliver in 1–10 ms);
            // the primary dies before it can answer with a state transfer.
            .at(Time::from_micros(3_000_500), FaultEvent::CrashPrimary),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(6));

    assert!(
        cluster.has_failed_over(),
        "recovering backup must take over"
    );
    let primary = cluster.primary().expect("service restored");
    assert_eq!(primary.node(), NodeId::new(1));

    let faults = cluster.fault_report();
    assert_eq!(faults.len(), 3);
    let crash = &faults[2];
    assert_eq!(crash.kind, InjectedFault::PrimaryCrash);
    let detection = crash.detection_latency().expect("crash undetected");
    assert!(detection <= DETECTION_BUDGET, "detection took {detection}");
    assert!(crash.recovery_time().is_some(), "failover must complete");

    // The interrupted recovery never saw its state transfer.
    let recovery = &faults[1];
    assert_eq!(recovery.kind, InjectedFault::BackupRecovery);
    assert!(
        recovery.recovered_at.is_none(),
        "state transfer was cut short by the primary crash"
    );

    // The promoted (previously recovering) replica serves writes.
    let writes_at_takeover = cluster.report().object_report(id).unwrap().writes;
    cluster.run_for(TimeDelta::from_secs(2));
    let writes_later = cluster.report().object_report(id).unwrap().writes;
    assert!(writes_later > writes_at_takeover, "writes must resume");
}

/// Scenario 5: a delay spike that pushes deliveries well past the assumed
/// link bound ℓ. The backup's freshness watchdogs notice the stretched
/// update gap and request retransmission; the spike heals on schedule.
#[test]
fn delay_spike_past_link_bound_triggers_watchdogs() {
    let config = ClusterConfig {
        seed: 19,
        fault_plan: FaultPlan::new().at(
            at_ms(2_000),
            FaultEvent::DelaySpike {
                host: None,
                duration: ms(1_500),
                // ℓ is 10 ms: deliveries overshoot the admission-control
                // assumption by an order of magnitude.
                extra: ms(100),
            },
        ),
        registry: MetricsRegistry::new(),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();
    let allowance = {
        let primary = cluster.primary().unwrap();
        primary.send_period(id).unwrap() + ms(10) + ms(5)
    };
    cluster.run_for(TimeDelta::from_secs(8));

    assert!(
        !cluster.has_failed_over(),
        "latency must not kill the service"
    );
    let faults = cluster.fault_report();
    assert_eq!(faults.len(), 1);
    let spike = &faults[0];
    assert_eq!(spike.kind, InjectedFault::DelaySpike);
    let detection = spike.detection_latency().expect("spike undetected");
    // First stretched gap exceeds the refresh allowance; the watchdog
    // fires within one more allowance of polling slack.
    assert!(
        detection <= allowance * 2 + ms(100),
        "detection took {detection} (allowance {allowance})"
    );
    assert_eq!(spike.recovered_at, Some(at_ms(3_500)));
    assert!(retransmit_requests(&cluster) > 0);
}

/// The whole point of *planned* chaos: identical seeds and plans give
/// identical fault lifecycles and metrics, bit for bit.
#[test]
fn chaos_runs_are_deterministic() {
    let run = || {
        let config = ClusterConfig {
            seed: 23,
            fault_plan: FaultPlan::new()
                .at(
                    at_ms(1_000),
                    FaultEvent::LossBurst {
                        host: None,
                        duration: ms(500),
                        loss: 0.8,
                    },
                )
                .at(
                    at_ms(2_000),
                    FaultEvent::Partition {
                        host: 0,
                        duration: ms(700),
                    },
                )
                .at(at_ms(4_000), FaultEvent::CrashBackup { host: 0 })
                .at(at_ms(5_000), FaultEvent::RecoverBackup { host: 0 })
                .at(
                    at_ms(6_500),
                    FaultEvent::DelaySpike {
                        host: None,
                        duration: ms(400),
                        extra: ms(50),
                    },
                ),
            registry: MetricsRegistry::new(),
            ..ClusterConfig::default()
        };
        let mut cluster = RtpbClient::new(config);
        let id = cluster.register(spec(50)).unwrap();
        cluster.run_for(TimeDelta::from_secs(10));
        let report = cluster.report();
        let obj = report.object_report(id).unwrap().clone();
        (
            cluster.fault_report().to_vec(),
            obj.writes,
            obj.applies,
            obj.max_distance,
            retransmit_requests(&cluster),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed + same plan must replay identically");
    assert_eq!(a.0.len(), 5, "every planned fault must be recorded");
}

/// The split-brain scenario: the primary is cut off from every backup
/// while it keeps running. Two replicas must never both act as primary
/// against the same store, so the promotion mints a fresh fencing epoch
/// and every frame from the deposed regime is rejected on arrival.
/// `(byte length, crc32c)` of an exported stream, pinned across commits:
/// a change that alters a seeded trace must update the constant and say
/// why.
fn digest(text: &str) -> (usize, u32) {
    (text.len(), crc32c(text.as_bytes()))
}

fn split_brain_cluster(seed: u64) -> RtpbClient {
    let config = ClusterConfig {
        seed,
        num_backups: 2,
        bus: EventBus::with_capacity(1 << 17),
        registry: MetricsRegistry::new(),
        fault_plan: FaultPlan::new().at(
            at_ms(2_000),
            FaultEvent::PartitionPrimary {
                duration: ms(2_000),
            },
        ),
        ..ClusterConfig::default()
    };
    RtpbClient::new(config)
}

/// Scenario 6: split-brain. The primary is partitioned away mid-burst, a
/// backup promotes under a higher fencing epoch while the old primary is
/// still alive, and after the heal the deposed primary's frames are
/// fenced — zero stale-epoch writes reach any store — before it demotes
/// itself and re-integrates as a backup via anti-entropy resync.
#[test]
fn split_brain_fences_the_deposed_primary_and_resyncs_it() {
    let mut cluster = split_brain_cluster(31);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(8));

    // A backup promoted while the old primary was alive behind the cut.
    assert!(cluster.has_failed_over(), "split-brain must promote");
    let primary = cluster.primary().expect("service must survive");
    assert_ne!(primary.node(), NodeId::new(0), "old primary stays deposed");
    let serving_epoch = cluster.cluster().fencing_epoch().expect("serving").value();
    assert!(serving_epoch > 0, "promotion must mint a fresh epoch");

    // Fencing did real work: stale-epoch frames arrived and were
    // rejected, never applied.
    let fenced = cluster
        .registry()
        .snapshot()
        .counter("cluster.fenced_frames")
        .unwrap_or(0);
    assert!(fenced > 0, "the deposed primary's frames must be fenced");
    let events = cluster.bus().collect();
    let stale: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::StaleEpochRejected {
                frame_epoch,
                local_epoch,
                ..
            } => Some((frame_epoch, local_epoch)),
            _ => None,
        })
        .collect();
    assert!(!stale.is_empty(), "stale-epoch rejections must be recorded");
    for (frame, local) in &stale {
        assert!(
            frame < local,
            "only strictly older epochs may be fenced ({frame} !< {local})"
        );
    }

    // The deposed primary saw the higher epoch, demoted itself, and
    // resynced back in as a backup of the new regime.
    assert!(
        cluster.cluster().deposed_primary().is_none(),
        "must have demoted"
    );
    assert!(
        events.iter().any(
            |e| matches!(e.kind, EventKind::PrimaryDemoted { node, .. } if node == NodeId::new(0))
        ),
        "demotion must be announced"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::ResyncStarted { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::ResyncCompleted { .. })));
    let rejoined = cluster
        .backups()
        .into_iter()
        .find(|b| b.node() == NodeId::new(0))
        .expect("deposed primary must re-join as a backup");
    assert_eq!(
        rejoined.epoch().value(),
        serving_epoch,
        "resync must adopt the successor's epoch"
    );
    assert!(!rejoined.join_in_progress(), "resync must have completed");
    // Anti-entropy converged: the ex-primary's image trails the serving
    // store by at most the updates still in flight.
    let v_serving = primary.store().get(id).unwrap().version().value();
    let v_rejoined = rejoined.store().get(id).unwrap().version().value();
    assert!(
        v_serving - v_rejoined <= 2,
        "resynced store must be current ({v_rejoined} vs {v_serving})"
    );

    // The fault record closes within the bounded-retry budget: cut at
    // 2 s, promotion within the §4.4 detection bound, heal at 4 s, then
    // one probe round-trip plus the resync exchange.
    let faults = cluster.fault_report();
    assert_eq!(faults.len(), 1);
    let cut = &faults[0];
    assert_eq!(cut.kind, InjectedFault::PrimaryPartition);
    let detection = cut.detection_latency().expect("cut undetected");
    assert!(detection <= DETECTION_BUDGET, "detection took {detection}");
    let recovered = cut.recovered_at.expect("deposed primary never resynced");
    assert!(recovered >= at_ms(4_000), "cannot resync mid-cut");
    assert!(
        recovered <= at_ms(5_000),
        "re-integration too slow: {recovered}"
    );
    assert!(cut.retries <= 10, "retry budget exceeded: {}", cut.retries);

    // Replication keeps flowing in the new regime.
    let applies_now = cluster.report().object_report(id).unwrap().applies;
    cluster.run_for(TimeDelta::from_secs(2));
    let applies_later = cluster.report().object_report(id).unwrap().applies;
    assert!(applies_later > applies_now, "updates must keep flowing");
}

/// Split-brain runs are a deterministic function of the seed: the full
/// structured-event log — promotion, fencing, demotion, resync — replays
/// byte-identically.
#[test]
fn split_brain_replays_byte_identically() {
    let run = || {
        let mut cluster = split_brain_cluster(31);
        cluster.register(spec(50)).unwrap();
        cluster.run_for(TimeDelta::from_secs(8));
        (
            cluster.export_jsonl(),
            cluster.fault_report().to_vec(),
            cluster.registry().snapshot().to_jsonl(),
        )
    };
    let (jsonl_a, faults_a, registry_a) = run();
    let (jsonl_b, faults_b, _) = run();
    assert_eq!(jsonl_a, jsonl_b, "same seed must replay byte-identically");
    assert_eq!(faults_a, faults_b);
    assert_eq!(digest(&jsonl_a), (85_126, 0x7d06_e07d), "pinned trace");
    assert_eq!(digest(&registry_a), (1_492, 0x1b2d_62c5), "pinned registry");
    assert!(jsonl_a.contains("stale_epoch_rejected"));
    assert!(jsonl_a.contains("primary_demoted"));
    assert!(jsonl_a.contains("resync_completed"));
}

/// A cut shorter than the §4.4 detection bound heals silently: no
/// promotion, no epoch change, no fencing — the lease math
/// (`lease + skew < detection bound`) guarantees the primary's lease
/// lapses before any backup could have declared it dead.
#[test]
fn sub_detection_primary_cut_heals_without_promotion() {
    let config = ClusterConfig {
        seed: 37,
        num_backups: 2,
        fault_plan: FaultPlan::new().at(
            at_ms(2_000),
            FaultEvent::PartitionPrimary {
                duration: ms(200), // < 300 ms detection bound
            },
        ),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(6));

    assert!(!cluster.has_failed_over(), "short cut must not promote");
    assert_eq!(cluster.primary().unwrap().node(), NodeId::new(0));
    assert_eq!(cluster.cluster().fencing_epoch().unwrap().value(), 0);
    assert!(cluster.cluster().deposed_primary().is_none());
    let faults = cluster.fault_report();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].recovered_at, Some(at_ms(2_200)));
    assert!(cluster.report().object_report(id).unwrap().applies > 0);
}

/// With auto-failover off, a *detected* primary cut must not strand the
/// cluster: no backup promotes, and once the cut heals the severed
/// replicas re-join the still-serving primary (re-arming its lease) so
/// replication resumes.
#[test]
fn detected_primary_cut_without_auto_failover_reintegrates() {
    let config = ClusterConfig {
        seed: 41,
        num_backups: 2,
        auto_failover: false,
        fault_plan: FaultPlan::new().at(
            at_ms(2_000),
            FaultEvent::PartitionPrimary {
                duration: ms(1_500), // > 300 ms: detectors fire mid-cut
            },
        ),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(8));

    assert!(
        !cluster.has_failed_over(),
        "auto_failover off: no promotion"
    );
    assert_eq!(cluster.primary().unwrap().node(), NodeId::new(0));
    assert_eq!(cluster.cluster().fencing_epoch().unwrap().value(), 0);
    assert!(cluster.cluster().deposed_primary().is_none());
    let faults = cluster.fault_report();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].recovered_at, Some(at_ms(3_500)));
    // Replication resumed after the heal: the backups re-joined and the
    // primary's lease is being renewed again.
    let applies_now = cluster.report().object_report(id).unwrap().applies;
    cluster.run_for(TimeDelta::from_secs(2));
    assert!(
        cluster.report().object_report(id).unwrap().applies > applies_now,
        "updates must flow again after the heal"
    );
}

/// Ground-truth certificate audit (DESIGN.md §14): every replica-served
/// read's staleness certificate is checked against the recorded write
/// history on the *global* clock. A read of version `v` at instant `t`
/// whose successor write landed at `w ≤ t` was truly `t − w` stale; a
/// certificate claiming less lied. History eviction can only
/// under-report true staleness, so this audit never raises a false
/// violation.
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

/// §14 acceptance scenario: one backup's clock steps backward by 5× the
/// configured `clock_skew` mid-run (the dangerous direction — regressed
/// clocks under-report staleness). The runtime temporal monitor turns the
/// observable evidence (local clock regression, update timestamps from
/// the future) into typed violations, the replica refuses reads with an
/// explicit unsound status instead of minting certificates it cannot
/// prove, and once the clock is disciplined back and the envelope holds
/// for the quiet period, certificate serving resumes. No certificate
/// served at any point under-reports true staleness.
#[test]
fn backward_clock_step_degrades_backup_then_recovers() {
    let config = ClusterConfig {
        seed: 43,
        bus: EventBus::with_capacity(1 << 17),
        registry: MetricsRegistry::new(),
        fault_plan: FaultPlan::new().at(
            at_ms(2_000),
            FaultEvent::ClockStep {
                host: Some(0),
                offset: ms(50), // 5 × the 10 ms clock_skew envelope
                backward: true,
                duration: ms(1_000),
            },
        ),
        ..ClusterConfig::default()
    };
    let mut cluster = RtpbClient::new(config);
    let id = cluster.register(spec(50)).unwrap();

    let mut serve_times = Vec::new();
    for step in 1..=60u64 {
        cluster.run_for(ms(100));
        if matches!(
            cluster.read(id, ReadConsistency::Bounded(ms(500))),
            Ok(ReadOutcome::Replica { .. })
        ) {
            serve_times.push(step * 100);
        }
    }

    // The violation was observed, counted, and traced.
    let violations = cluster
        .registry()
        .snapshot()
        .counter("cluster.timing_violations")
        .unwrap_or(0);
    assert!(violations > 0, "the 50 ms step must be detected");
    let events = cluster.bus().collect();
    let backup_node = NodeId::new(1);
    assert!(
        events.iter().any(|e| matches!(
            &e.kind,
            EventKind::TimingViolation { node, .. } if *node == backup_node
        )),
        "typed timing_violation events must be emitted"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::MonitorDegraded { node } if node == backup_node)));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::MonitorRecovered { node } if node == backup_node)));

    // Degradation was externally visible. The regression violation at
    // 2 s is stamped with the regressed local clock, so the quiet-period
    // countdown cannot complete before 2.5 s on the global timeline:
    // every read in between must be refused. (Past 2.5 s the monitor is
    // honestly evidence-driven — at a 50 ms step the shipped write
    // timestamps are only *marginally* from the future, so degradation
    // may lapse and re-latch; the per-span audit below pins the actual
    // guarantee, serving never overlaps a degraded span.)
    assert!(
        serve_times.iter().any(|&t| t <= 2_000),
        "replica must serve before the fault"
    );
    assert!(
        !serve_times.iter().any(|&t| t > 2_000 && t < 2_500),
        "the replica must refuse throughout the guaranteed-degraded window"
    );
    assert!(
        serve_times.iter().any(|&t| t > 3_500),
        "serving must resume after heal + quiet period"
    );

    // No certificate left the replica while its monitor was degraded:
    // reconstruct the degraded spans from the event log and check every
    // replica-served read against them. A serve exactly at a recovery
    // instant is fine — the envelope has already held for the full quiet
    // period by then.
    let mut spans = Vec::new();
    let mut opened: Option<Time> = None;
    for e in &events {
        match e.kind {
            EventKind::MonitorDegraded { node } if node == backup_node => {
                opened = Some(e.at);
            }
            EventKind::MonitorRecovered { node } if node == backup_node => {
                if let Some(s) = opened.take() {
                    spans.push((s, e.at));
                }
            }
            _ => {}
        }
    }
    if let Some(s) = opened {
        spans.push((s, cluster.now()));
    }
    assert!(!spans.is_empty());
    for e in &events {
        let EventKind::ReadServed { served_by, .. } = e.kind else {
            continue;
        };
        if served_by != backup_node {
            continue;
        }
        assert!(
            !spans.iter().any(|&(s, r)| e.at > s && e.at < r),
            "replica served at {} inside degraded span",
            e.at
        );
    }
    assert!(
        events.iter().any(|e| matches!(
            &e.kind,
            EventKind::ReadRedirected { reason, .. } if *reason == "unsound"
        )),
        "refusals must carry the explicit unsound reason"
    );

    // The fault record attributes detection to the monitor and closes at
    // the scheduled heal.
    let faults = cluster.fault_report();
    assert_eq!(faults.len(), 1);
    let step = &faults[0];
    assert_eq!(step.kind, InjectedFault::ClockStep);
    let detection = step.detection_latency().expect("step undetected");
    assert!(detection <= ms(100), "detection took {detection}");
    assert_eq!(step.recovered_at, Some(at_ms(3_000)), "heals with window");

    // The safety property the whole section exists for.
    assert_certificates_sound(&cluster, id);
}

/// The two-sided §14 contract, property-checked. Within the envelope —
/// steady skew at most `clock_skew`, built up by a gentle drift — the
/// monitor stays silent and every certificate is sound. Beyond it — a
/// backward step of 3–15× the skew bound — a violation is raised, the
/// degraded replica refuses to serve, and still no unsound certificate
/// escapes.
#[test]
fn clock_chaos_contract_is_two_sided() {
    // Within: drift accumulating ≤ ~5 ms of skew over the run (half the
    // 10 ms envelope) on either node, never healed mid-run (discipline
    // snap-back is itself a step). Zero violations, bounds hold.
    run_cases("clock_skew_within_envelope_is_silent", 6, |g| {
        let host = if g.chance(0.5) { None } else { Some(0) };
        let fast = g.chance(0.5);
        let (num, den) = if fast { (1_001, 1_000) } else { (999, 1_000) };
        let config = ClusterConfig {
            seed: g.u64_in(0, 1 << 32),
            bus: EventBus::with_capacity(1 << 16),
            registry: MetricsRegistry::new(),
            fault_plan: FaultPlan::new().at(
                at_ms(500),
                FaultEvent::ClockDrift {
                    host,
                    rate_num: num,
                    rate_den: den,
                    duration: TimeDelta::from_secs(60), // outlives the run
                },
            ),
            ..ClusterConfig::default()
        };
        let mut cluster = RtpbClient::new(config);
        let id = cluster.register(spec(50)).unwrap();
        for _ in 0..50 {
            cluster.run_for(ms(100));
            let outcome = cluster.read(id, ReadConsistency::Bounded(ms(500)));
            assert!(
                !matches!(outcome, Err(ReadError::Unsound)),
                "within-envelope skew must not refuse reads"
            );
        }
        let violations = cluster
            .registry()
            .snapshot()
            .counter("cluster.timing_violations")
            .unwrap_or(0);
        assert_eq!(violations, 0, "skew within the envelope must be silent");
        assert_eq!(
            cluster
                .report()
                .object_report(id)
                .unwrap()
                .backup_violations,
            0
        );
        assert_certificates_sound(&cluster, id);
    });

    // Beyond: a backward step the evidence cannot miss. At ≥ 80 ms the
    // step exceeds the worst-case write-to-delivery staleness (one write
    // period + link delay + skew), so *every* shipped update carries a
    // timestamp from the local future and degradation stays latched
    // until the heal. The monitor must fire, the replica must refuse
    // throughout the fault, serving must resume after heal + quiet
    // period, and the certificate audit must pass over the whole run.
    run_cases("clock_step_beyond_envelope_degrades_safely", 6, |g| {
        let offset = g.u64_in(80, 151);
        let t0 = g.u64_in(1_000, 2_500);
        let config = ClusterConfig {
            seed: g.u64_in(0, 1 << 32),
            bus: EventBus::with_capacity(1 << 16),
            registry: MetricsRegistry::new(),
            fault_plan: FaultPlan::new().at(
                at_ms(t0),
                FaultEvent::ClockStep {
                    host: Some(0),
                    offset: ms(offset),
                    backward: true,
                    duration: ms(500),
                },
            ),
            ..ClusterConfig::default()
        };
        let mut cluster = RtpbClient::new(config);
        let id = cluster.register(spec(50)).unwrap();
        // Run past the step plus one heartbeat tick so the evidence has
        // reached the monitor before any client consumes certificates.
        cluster.run_for(ms(t0 + 100));
        let mut recovered_serves = 0u64;
        loop {
            let now = cluster.now();
            let served = matches!(
                cluster.read(id, ReadConsistency::Bounded(ms(500))),
                Ok(ReadOutcome::Replica { .. })
            );
            if now <= at_ms(t0 + 500) {
                // Latched: fresh violations arrive faster than the quiet
                // period can elapse until the clock is disciplined.
                assert!(
                    !served,
                    "degraded replica served (offset {offset} ms at {t0} ms, now {now})"
                );
            } else if now >= at_ms(t0 + 1_100) && served {
                // Heal at t0 + 500 ms, then the quiet period (measured on
                // the healed clock) re-enables the fast path.
                recovered_serves += 1;
            }
            if now >= Time::from_secs(6) {
                break;
            }
            cluster.run_for(ms(100));
        }
        let violations = cluster
            .registry()
            .snapshot()
            .counter("cluster.timing_violations")
            .unwrap_or(0);
        assert!(violations > 0, "a {offset} ms backward step must be caught");
        assert!(
            recovered_serves > 0,
            "serving must resume after heal + quiet period"
        );
        assert_certificates_sound(&cluster, id);
    });
}

/// The three clock-fault kinds replay byte-identically: same seed, same
/// plan, same full structured-event log — injection, violations,
/// degradation, heal, recovery.
#[test]
fn clock_chaos_replays_byte_identically() {
    let run = || {
        let config = ClusterConfig {
            seed: 47,
            bus: EventBus::with_capacity(1 << 17),
            registry: MetricsRegistry::new(),
            fault_plan: FaultPlan::new()
                .at(
                    at_ms(1_000),
                    FaultEvent::ClockStep {
                        host: Some(0),
                        offset: ms(50),
                        backward: true,
                        duration: ms(600),
                    },
                )
                .at(
                    at_ms(3_000),
                    FaultEvent::ClockDrift {
                        host: None,
                        rate_num: 5,
                        rate_den: 4,
                        duration: ms(800),
                    },
                )
                .at(
                    at_ms(5_000),
                    FaultEvent::ClockFreeze {
                        host: Some(0),
                        duration: ms(700),
                    },
                ),
            ..ClusterConfig::default()
        };
        let mut cluster = RtpbClient::new(config);
        cluster.register(spec(50)).unwrap();
        cluster.run_for(TimeDelta::from_secs(8));
        (
            cluster.export_jsonl(),
            cluster.fault_report().to_vec(),
            cluster.registry().snapshot().to_jsonl(),
        )
    };
    let (jsonl_a, faults_a, registry_a) = run();
    let (jsonl_b, faults_b, _) = run();
    assert_eq!(jsonl_a, jsonl_b, "same seed must replay byte-identically");
    assert_eq!(faults_a, faults_b);
    assert_eq!(digest(&jsonl_a), (53_678, 0xc580_8e4b), "pinned trace");
    assert_eq!(digest(&registry_a), (1_488, 0x1c7f_bca4), "pinned registry");
    assert_eq!(faults_a.len(), 3);
    assert_eq!(faults_a[0].kind, InjectedFault::ClockStep);
    assert_eq!(faults_a[1].kind, InjectedFault::ClockDrift);
    assert_eq!(faults_a[2].kind, InjectedFault::ClockFreeze);
    assert!(jsonl_a.contains("timing_violation"));
    assert!(jsonl_a.contains("monitor_degraded"));
    assert!(jsonl_a.contains("monitor_recovered"));
}

/// Satellite of §4.4: with the control-path loss exemption turned off,
/// heartbeats share the lossy fate of updates — yet a real crash is still
/// detected within the bound, because detection feeds on *absence* of
/// acks, which loss can only make more absent.
#[test]
fn lossy_heartbeats_still_fail_over_within_detection_bound() {
    let mut config = ClusterConfig {
        control_loss_exempt: false,
        seed: 29,
        fault_plan: FaultPlan::new().at(at_ms(1_000), FaultEvent::CrashPrimary),
        ..ClusterConfig::default()
    };
    config.link.loss_probability = 0.3;
    let mut cluster = RtpbClient::new(config);
    cluster.register(spec(50)).unwrap();
    cluster.run_for(TimeDelta::from_secs(4));

    assert!(cluster.has_failed_over());
    let faults = cluster.fault_report();
    assert_eq!(faults.len(), 1);
    let crash = &faults[0];
    assert_eq!(crash.kind, InjectedFault::PrimaryCrash);
    let detection = crash.detection_latency().expect("crash undetected");
    assert!(
        detection <= DETECTION_BUDGET,
        "lossy control path must not delay detecting a true crash: {detection}"
    );
    assert_eq!(cluster.name_service().resolve(), NodeId::new(1));
}

/// Runs `cluster` for `span` with eight objects of `spec` and checks
/// that each backup applies an object's versions in strictly increasing
/// order and ignored some arrivals. Returns the objects and how many
/// frames the links duplicated and reordered.
fn applies_in_order(
    seed: u64,
    mut cluster: RtpbClient,
    spec: &ObjectSpec,
    span: TimeDelta,
) -> (RtpbClient, Vec<ObjectId>, u64, u64) {
    let ids: Vec<ObjectId> = (0..8)
        .map(|_| cluster.register(spec.clone()).unwrap())
        .collect();
    cluster.run_for(span);
    assert_eq!(cluster.bus().dropped(), 0, "seed {seed}: trace truncated");
    let mut last = std::collections::BTreeMap::new();
    let (mut applied, mut duplicated, mut reordered) = (0, 0, 0);
    for event in &cluster.bus().collect() {
        match &event.kind {
            EventKind::UpdateApplied {
                object,
                version,
                node,
            } => {
                applied += 1;
                if let Some(prev) = last.insert((*node, *object), *version) {
                    assert!(
                        *version > prev,
                        "seed {seed}: {node} applied {object} {version} after {prev}"
                    );
                }
            }
            EventKind::LinkPerturbed { effect, .. } => match *effect {
                "duplicate" => duplicated += 1,
                "reorder" => reordered += 1,
                other => panic!("unknown link effect {other}"),
            },
            _ => {}
        }
    }
    assert!(applied > 0, "seed {seed}: nothing applied");
    let ignored: u64 = cluster
        .backups()
        .iter()
        .map(|b| b.duplicates_ignored())
        .sum();
    assert!(ignored > 0, "seed {seed}: the backups ignored no arrival");
    (cluster, ids, duplicated, reordered)
}

/// Duplicated and reordered frames on the data path, with 5% loss, at
/// cluster level: two backups, eight objects written every 50 ms with
/// δ^P = 100 ms and δ^B = 500 ms. Each backup applies an object's
/// versions in strictly increasing order, ignores the stale and repeated
/// copies, and keeps every object inside its window. Each seed sees about
/// 230–260 duplicated and 230–260 reordered frames.
#[test]
fn duplicated_and_reordered_frames_apply_in_order() {
    for seed in 1..=3 {
        let mut config = ClusterConfig {
            seed,
            num_backups: 2,
            bus: EventBus::with_capacity(1 << 17),
            ..ClusterConfig::default()
        };
        config.link.duplicate_probability = 0.3;
        config.link.reorder_probability = 0.3;
        config.link.loss_probability = 0.05;
        let spec = ObjectSpec::builder("perturbed")
            .update_period(ms(50))
            .primary_bound(ms(100))
            .backup_bound(ms(500))
            .build()
            .unwrap();
        let (cluster, ids, duplicated, reordered) = applies_in_order(
            seed,
            RtpbClient::new(config),
            &spec,
            TimeDelta::from_secs(10),
        );
        assert!(duplicated > 0, "seed {seed}: no frame was duplicated");
        assert!(reordered > 0, "seed {seed}: no frame was reordered");
        for id in ids {
            let report = cluster.metrics().object_report(id).unwrap();
            assert_eq!(
                report.window_episodes, 0,
                "seed {seed}: {id} left its window"
            );
            assert_eq!(
                report.backup_violations, 0,
                "seed {seed}: {id} violated δ^B"
            );
        }
    }
}

/// Reordering whose hold-back outlasts the send period, so an object's
/// older version can land after a newer one: ℓ = 39 ms, the largest
/// delay bound the lease rule admits at ε = 10 ms (250 + 10 + 39 < 300),
/// and eight objects written every 20 ms with δ^P = 40 ms and δ^B =
/// 140 ms, sent every (100 − 39) / 2 = 30.5 ms. Only the store's
/// `(epoch, version)` ordering keeps a late older copy out, so each
/// backup still applies an object's versions in strictly increasing
/// order and ignores the late copies. No window is asserted: a hold-back
/// past ℓ is the fault being modelled.
#[test]
fn reordering_past_the_send_period_never_applies_an_older_version() {
    for seed in 1..=3 {
        let mut config = ClusterConfig {
            seed,
            num_backups: 2,
            bus: EventBus::with_capacity(1 << 17),
            ..ClusterConfig::default()
        };
        config.protocol.link_delay_bound = ms(39);
        config.link.delay_max = ms(39);
        config.link.reorder_probability = 0.3;
        let spec = ObjectSpec::builder("held back")
            .update_period(ms(20))
            .primary_bound(ms(40))
            .backup_bound(ms(140))
            .build()
            .unwrap();
        let (_, _, duplicated, reordered) = applies_in_order(
            seed,
            RtpbClient::new(config),
            &spec,
            TimeDelta::from_secs(10),
        );
        assert_eq!(duplicated, 0, "seed {seed}: no duplication configured");
        assert!(reordered > 0, "seed {seed}: no frame was reordered");
    }
}
