//! Property-based tests (seeded `propcheck` cases) on the core invariants:
//!
//! - Theorem 2/3 phase-variance bounds hold on every recorded timeline.
//! - The wire codec round-trips arbitrary messages and never panics on
//!   arbitrary bytes.
//! - Admission implies no consistency violations in lossless simulation.
//! - Distance-constrained specialization preserves its contracts.

use rtpb::core::harness::{ClusterConfig, FaultEvent, FaultPlan};
use rtpb::core::wire::{WireFrame, WireMessage};
use rtpb::sched::analysis::dcs;
use rtpb::sched::exec::{run_dcs, run_edf, run_rm, Horizon};
use rtpb::sched::task::{PeriodicTask, TaskSet};
use rtpb::sched::VarianceBound;
use rtpb::sim::propcheck::{run_cases, Gen};
use rtpb::types::BufPool;
use rtpb::types::{Epoch, NodeId, ObjectId, ObjectSpec, Time, TimeDelta, Version};
use rtpb::{ReadConsistency, RtpbClient};

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

/// Up to five tasks with periods 5..120 ms and utilization ≤ ~0.6.
fn gen_task_set(g: &mut Gen) -> TaskSet {
    loop {
        let n = g.usize_in(1, 5);
        let tasks: Vec<PeriodicTask> = (0..n)
            .map(|_| {
                let p = g.u64_in(5, 120);
                let e = g.u64_in(1, 8).min(p - 1).max(1);
                PeriodicTask::new(ms(p), ms(e))
            })
            .collect();
        let util: f64 = tasks.iter().map(PeriodicTask::utilization).sum();
        if util > 0.6 {
            continue;
        }
        if let Ok(set) = TaskSet::try_from_iter(tasks) {
            return set;
        }
    }
}

#[test]
fn rm_phase_variance_never_exceeds_theorem2() {
    run_cases("rm_phase_variance_never_exceeds_theorem2", 48, |g| {
        let tasks = gen_task_set(g);
        let x = tasks.utilization();
        let n = tasks.len();
        let tl = run_rm(&tasks, Horizon::cycles(30));
        assert_eq!(tl.deadline_misses(), 0);
        for task in tasks.iter() {
            if let Some(v) = tl.phase_variance(task.id()) {
                let bound = VarianceBound::rm_effective(task.period(), task.exec(), x, n);
                assert!(
                    v <= bound,
                    "task {} variance {} exceeds bound {}",
                    task.id(),
                    v,
                    bound
                );
            }
        }
    });
}

#[test]
fn edf_phase_variance_never_exceeds_inherent_bound() {
    run_cases("edf_phase_variance_never_exceeds_inherent_bound", 48, |g| {
        let tasks = gen_task_set(g);
        let tl = run_edf(&tasks, Horizon::cycles(30));
        assert_eq!(tl.deadline_misses(), 0);
        for task in tasks.iter() {
            if let Some(v) = tl.phase_variance(task.id()) {
                let inherent = VarianceBound::inherent(task.period(), task.exec());
                assert!(v <= inherent);
            }
        }
    });
}

#[test]
fn dcs_gives_exactly_zero_variance_whenever_theorem3_holds() {
    run_cases(
        "dcs_gives_exactly_zero_variance_whenever_theorem3_holds",
        48,
        |g| {
            let tasks = gen_task_set(g);
            // Utilization ≤ 0.6 < ln 2 ≤ n(2^{1/n}-1): Theorem 3 always holds.
            assert!(dcs::theorem3_condition(&tasks));
            let tl = run_dcs(&tasks, Horizon::cycles(30)).expect("Sr feasible");
            assert_eq!(tl.deadline_misses(), 0);
            for task in tl.tasks().iter() {
                if let Some(v) = tl.phase_variance(task.id()) {
                    assert_eq!(v, TimeDelta::ZERO);
                }
            }
        },
    );
}

#[test]
fn dcs_specialization_contracts() {
    run_cases("dcs_specialization_contracts", 48, |g| {
        let tasks = gen_task_set(g);
        let sp = dcs::specialize(&tasks).expect("feasible below 0.6");
        assert!(sp.utilization() <= 1.0 + 1e-9);
        for (orig, spec) in tasks.iter().zip(sp.tasks().iter()) {
            // Never longer, never less than half.
            assert!(spec.period() <= orig.period());
            assert!(spec.period() * 2 > orig.period());
        }
        // Pairwise harmonic.
        let periods: Vec<u64> = sp.tasks().iter().map(|t| t.period().as_nanos()).collect();
        for a in &periods {
            for b in &periods {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                assert_eq!(hi % lo, 0);
            }
        }
    });
}

#[test]
fn wire_codec_round_trips() {
    run_cases("wire_codec_round_trips", 64, |g| {
        let msg = WireMessage::Update {
            epoch: Epoch::new(g.any_u64()),
            object: ObjectId::new(g.u64_in(0, 1000) as u32),
            version: Version::new(g.any_u64()),
            timestamp: Time::from_nanos(g.any_u64() / 2),
            seq: g.any_u64(),
            payload: g.bytes(512),
        };
        let decoded = WireMessage::decode(&msg.encode()).expect("round trip");
        assert_eq!(decoded, msg);
    });
}

/// The Batch frame round-trips arbitrary member lists through a single
/// codec pass, and truncating the encoded frame at any prefix is a
/// decode error, never a panic or a partial batch.
#[test]
fn batch_codec_round_trips_and_rejects_truncation() {
    run_cases("batch_codec_round_trips_and_rejects_truncation", 64, |g| {
        let n = g.usize_in(0, 8);
        let messages: Vec<WireMessage> = (0..n)
            .map(|_| match g.usize_in(0, 2) {
                0 => WireMessage::Update {
                    epoch: Epoch::new(g.any_u64()),
                    object: ObjectId::new(g.u64_in(0, 64) as u32),
                    version: Version::new(g.any_u64()),
                    timestamp: Time::from_nanos(g.any_u64() / 2),
                    seq: g.any_u64(),
                    payload: g.bytes(64),
                },
                1 => WireMessage::Ping {
                    epoch: Epoch::new(g.any_u64()),
                    from: NodeId::new(g.u64_in(0, 4) as u16),
                    seq: g.any_u64(),
                    scrub: None,
                },
                _ => WireMessage::RetransmitRequest {
                    epoch: Epoch::new(g.any_u64()),
                    object: ObjectId::new(g.u64_in(0, 64) as u32),
                    have_version: Version::new(g.any_u64()),
                },
            })
            .collect();
        let msg = WireMessage::Batch {
            epoch: Epoch::new(g.any_u64()),
            messages,
        };
        let bytes = msg.encode();
        assert_eq!(WireMessage::decode(&bytes).expect("round trip"), msg);
        let cut = g.usize_in(0, bytes.len() - 1);
        assert!(
            WireMessage::decode(&bytes[..cut]).is_err(),
            "truncation at {cut} must not decode"
        );
    });
}

#[test]
fn wire_decoder_never_panics_on_garbage() {
    run_cases("wire_decoder_never_panics_on_garbage", 256, |g| {
        let bytes = g.bytes(256);
        let _ = WireMessage::decode(&bytes); // must not panic
    });
}

/// The zero-copy encode path cannot drift from the classic codec: for
/// arbitrary generated messages, `encode_into` a pooled lease — fresh
/// from the allocator or recycled through the free list — produces
/// bytes identical to `encode()`, and the borrowing `WireFrame` view
/// re-owns the exact original message from those bytes.
#[test]
fn encode_into_is_byte_identical_to_encode() {
    run_cases("encode_into_is_byte_identical_to_encode", 64, |g| {
        let pool = BufPool::new();
        let n = g.usize_in(0, 6);
        let messages: Vec<WireMessage> = (0..n)
            .map(|_| match g.usize_in(0, 2) {
                0 => WireMessage::Update {
                    epoch: Epoch::new(g.any_u64()),
                    object: ObjectId::new(g.u64_in(0, 64) as u32),
                    version: Version::new(g.any_u64()),
                    timestamp: Time::from_nanos(g.any_u64() / 2),
                    seq: g.any_u64(),
                    payload: g.bytes(96),
                },
                1 => WireMessage::Ping {
                    epoch: Epoch::new(g.any_u64()),
                    from: NodeId::new(g.u64_in(0, 4) as u16),
                    seq: g.any_u64(),
                    scrub: None,
                },
                _ => WireMessage::RetransmitRequest {
                    epoch: Epoch::new(g.any_u64()),
                    object: ObjectId::new(g.u64_in(0, 64) as u32),
                    have_version: Version::new(g.any_u64()),
                },
            })
            .collect();
        let msg = if g.usize_in(0, 1) == 0 && !messages.is_empty() {
            messages.into_iter().next().expect("non-empty")
        } else {
            WireMessage::Batch {
                epoch: Epoch::new(g.any_u64()),
                messages,
            }
        };
        let classic = msg.encode();
        // First lease comes straight from the allocator.
        let mut lease = pool.lease();
        msg.encode_into(&mut lease);
        assert_eq!(lease.as_slice(), &classic[..]);
        drop(lease);
        // Second lease is a recycled buffer with stale capacity.
        let mut lease = pool.lease();
        msg.encode_into(&mut lease);
        assert_eq!(lease.as_slice(), &classic[..]);
        assert_eq!(pool.reuses(), 1, "second lease must come from the pool");
        // The borrowing view replays to the identical owned message.
        let frame = WireFrame::parse(&classic).expect("view parses");
        assert_eq!(frame.to_owned(), msg);
    });
}

/// Pool hygiene under chaos: a frame lives until its last arrival lands,
/// so after a seeded run full of link faults the test crashes every host,
/// which stops all sending, and runs well past ℓ. Then no kept frame may
/// still be held (a nonzero outstanding count is a leak), and the pool
/// must actually have reused frames, or the zero-alloc send path is an
/// illusion.
#[test]
fn send_pool_leases_all_return_after_seeded_chaos() {
    run_cases("send_pool_leases_all_return_after_seeded_chaos", 8, |g| {
        let mut plan = FaultPlan::new();
        for _ in 0..g.usize_in(1, 3) {
            let at = Time::from_millis(g.u64_in(500, 4_000));
            plan = match g.usize_in(0, 2) {
                0 => plan.at(
                    at,
                    FaultEvent::LossBurst {
                        host: None,
                        duration: ms(g.u64_in(100, 600)),
                        loss: g.u64_in(20, 90) as f64 / 100.0,
                    },
                ),
                1 => plan.at(at, FaultEvent::CrashPrimary),
                _ => plan.at(
                    at,
                    FaultEvent::PartitionPrimary {
                        duration: ms(g.u64_in(300, 1_000)),
                    },
                ),
            };
        }
        let config = ClusterConfig {
            seed: g.u64_in(0, 10_000),
            num_backups: 2,
            fault_plan: plan,
            ..ClusterConfig::default()
        };
        let ell = config.protocol.link_delay_bound;
        let mut cluster = RtpbClient::new(config);
        let spec = ObjectSpec::builder("pool")
            .update_period(ms(40))
            .primary_bound(ms(90))
            .backup_bound(ms(500))
            .build()
            .expect("structurally valid");
        cluster.register(spec).expect("admitted");
        cluster.run_for(TimeDelta::from_secs(6));
        let hosts = cluster.cluster().read_load().len();
        let sim = cluster.cluster_mut();
        for host in 0..hosts {
            sim.inject(FaultEvent::CrashBackup { host });
        }
        sim.inject(FaultEvent::CrashPrimary);
        sim.run_for(ell * 2);
        let (outstanding, issued, reuses) = sim.send_pool_stats();
        assert_eq!(outstanding, 0, "leaked {outstanding} of {issued} frames");
        assert!(issued > 0, "chaos run must exercise the send path");
        assert!(reuses > 0, "the pool never reused a frame");
    });
}

#[test]
fn admitted_objects_hold_their_bounds_in_lossless_runs() {
    run_cases(
        "admitted_objects_hold_their_bounds_in_lossless_runs",
        24,
        |g| {
            let period = g.u64_in(20, 200);
            let bound_slack = g.u64_in(1, 100);
            let window = g.u64_in(50, 600);
            let seed = g.u64_in(0, 1000);
            let config = ClusterConfig {
                seed,
                ..ClusterConfig::default()
            };
            let mut cluster = RtpbClient::new(config);
            let spec = ObjectSpec::builder("prop")
                .update_period(ms(period))
                .primary_bound(ms(period + bound_slack))
                .backup_bound(ms(period + bound_slack + window))
                .build()
                .expect("structurally valid");
            // Admission may reject (window ≤ ℓ): that is a correct outcome.
            if let Ok(id) = cluster.register(spec) {
                cluster.run_for(TimeDelta::from_secs(8));
                let r = cluster.metrics().object_report(id).expect("tracked");
                assert_eq!(r.backup_violations, 0, "backup bound violated");
                assert_eq!(r.primary_violations, 0, "primary bound violated");
                assert!(r.max_distance <= r.window);
            }
        },
    );
}

/// Theorem 5 under chaos: for any seeded fault plan made of *bounded*
/// link faults (loss bursts and delay spikes — both replicas stay alive),
/// an admitted object's primary–backup distance never exceeds the
/// lossless Theorem 5 bound (the window δ) plus the fault envelope: the
/// total time updates could be suppressed or deferred, plus one
/// watchdog-retransmission round to re-establish currency.
#[test]
fn distance_stays_within_theorem5_bound_plus_fault_envelope() {
    run_cases(
        "distance_stays_within_theorem5_bound_plus_fault_envelope",
        16,
        |g| {
            let seed = g.u64_in(0, 10_000);
            let n_faults = g.usize_in(1, 3);
            let mut plan = FaultPlan::new();
            // Everything the plan may withhold from the backup, end to end.
            let mut envelope = TimeDelta::ZERO;
            for _ in 0..n_faults {
                let at = Time::from_millis(g.u64_in(1_000, 6_000));
                let duration = ms(g.u64_in(100, 800));
                if g.usize_in(0, 1) == 0 {
                    let loss = g.u64_in(20, 100) as f64 / 100.0;
                    plan = plan.at(
                        at,
                        FaultEvent::LossBurst {
                            host: None,
                            duration,
                            loss,
                        },
                    );
                    envelope += duration;
                } else {
                    let extra = ms(g.u64_in(10, 50));
                    plan = plan.at(
                        at,
                        FaultEvent::DelaySpike {
                            host: None,
                            duration,
                            extra,
                        },
                    );
                    envelope += extra;
                }
            }
            let config = ClusterConfig {
                seed,
                fault_plan: plan,
                ..ClusterConfig::default()
            };
            let mut cluster = RtpbClient::new(config);
            let period = g.u64_in(20, 120);
            let spec = ObjectSpec::builder("t5")
                .update_period(ms(period))
                .primary_bound(ms(period + 50))
                .backup_bound(ms(period + 450))
                .build()
                .expect("structurally valid");
            if let Ok(id) = cluster.register(spec) {
                let send_period = cluster
                    .primary()
                    .expect("serving")
                    .send_period(id)
                    .expect("admitted");
                cluster.run_for(TimeDelta::from_secs(9));
                assert!(!cluster.has_failed_over(), "link faults must not kill");
                let r = cluster.metrics().object_report(id).expect("tracked");
                // One watchdog-retransmission round: the gap is noticed
                // within two watchdog polls of the refresh allowance, and
                // the resend takes another link traversal.
                let ell = ms(10);
                let allowance = send_period + ell + ms(5);
                let bound = r.window + envelope + allowance * 2 + ell;
                assert!(
                    r.max_distance <= bound,
                    "distance {} exceeds Theorem 5 bound {} + envelope {}",
                    r.max_distance,
                    r.window,
                    envelope
                );
                assert!(r.applies > 0, "replication must make progress");
            }
        },
    );
}

/// Fencing epochs are strictly monotone across arbitrary fault plans:
/// the serving primary's epoch never regresses, and every completed
/// failover — crash-driven or split-brain — mints a strictly higher
/// epoch. This is the invariant that makes epoch comparison a safe
/// staleness test at every store.
#[test]
fn fencing_epochs_are_strictly_monotone_across_fault_plans() {
    run_cases(
        "fencing_epochs_are_strictly_monotone_across_fault_plans",
        12,
        |g| {
            let n = g.usize_in(1, 3);
            let mut plan = FaultPlan::new();
            for k in 0..n {
                let at = Time::from_millis(1_000 + 2_500 * k as u64 + g.u64_in(0, 500));
                plan = match g.usize_in(0, 2) {
                    0 => plan.at(at, FaultEvent::CrashPrimary),
                    1 => plan.at(
                        at,
                        FaultEvent::PartitionPrimary {
                            duration: ms(g.u64_in(400, 1_500)),
                        },
                    ),
                    _ => plan.at(
                        at,
                        FaultEvent::Partition {
                            host: 0,
                            duration: ms(g.u64_in(200, 800)),
                        },
                    ),
                };
            }
            let config = ClusterConfig {
                seed: g.u64_in(0, 10_000),
                num_backups: 3,
                fault_plan: plan,
                ..ClusterConfig::default()
            };
            let mut cluster = RtpbClient::new(config);
            let spec = ObjectSpec::builder("epoch")
                .update_period(ms(50))
                .primary_bound(ms(100))
                .backup_bound(ms(500))
                .build()
                .expect("structurally valid");
            cluster.register(spec).expect("admitted");
            let mut last_epoch = cluster.cluster().fencing_epoch().expect("serving").value();
            let mut last_failovers = cluster.name_service().failover_count();
            for _ in 0..100 {
                cluster.run_for(ms(100));
                let Some(epoch) = cluster.cluster().fencing_epoch().map(|e| e.value()) else {
                    continue; // crashed, successor not yet promoted
                };
                let failovers = cluster.name_service().failover_count();
                if failovers > last_failovers {
                    assert!(
                        epoch > last_epoch,
                        "promotion must mint a strictly higher epoch ({epoch} !> {last_epoch})"
                    );
                } else {
                    assert_eq!(
                        epoch, last_epoch,
                        "a serving primary must never change epoch in place"
                    );
                }
                last_epoch = epoch;
                last_failovers = failovers;
            }
        },
    );
}

#[test]
fn lemma1_is_strictly_stronger_than_theorem1_with_zero_variance() {
    use rtpb::sched::consistency;
    // For any δ and e < δ: Lemma 1's bound (δ+e)/2 < Theorem 1's δ at v=0.
    for (delta, exec) in [(100u64, 10u64), (50, 1), (500, 499)] {
        let l1 = consistency::lemma1_max_period(ms(exec), ms(delta));
        let t1 = consistency::theorem1_max_period(ms(delta), TimeDelta::ZERO).unwrap();
        assert!(l1 < t1, "δ={delta}, e={exec}: {l1} !< {t1}");
    }
}

/// Theorem-5 soundness of staleness certificates under seeded chaos:
/// for random fault plans (loss bursts, replica partitions, delay
/// spikes) and random read schedules, every certificate's `age_bound`
/// dominates the *true* staleness of the value it certifies — the time
/// since the earliest primary write the served version misses, per the
/// metrics-side write history. The bound is computed from the value's
/// own write timestamp, so no fault the plan can inject (including a
/// saturated or silent primary) can make it lie.
#[test]
fn certificates_bound_true_staleness_under_chaos() {
    run_cases("certificates_bound_true_staleness_under_chaos", 10, |g| {
        let seed = g.u64_in(0, 10_000);
        let mut plan = FaultPlan::new();
        for _ in 0..g.usize_in(1, 3) {
            let at = Time::from_millis(g.u64_in(500, 4_000));
            let duration = ms(g.u64_in(100, 600));
            plan = match g.usize_in(0, 3) {
                0 => plan.at(
                    at,
                    FaultEvent::LossBurst {
                        host: None,
                        duration,
                        loss: g.u64_in(30, 100) as f64 / 100.0,
                    },
                ),
                1 => plan.at(at, FaultEvent::Partition { host: 0, duration }),
                _ => plan.at(
                    at,
                    FaultEvent::DelaySpike {
                        host: None,
                        duration,
                        extra: ms(g.u64_in(10, 60)),
                    },
                ),
            };
        }
        let config = ClusterConfig {
            seed,
            num_backups: g.usize_in(1, 3),
            fault_plan: plan,
            ..ClusterConfig::default()
        };
        let mut client = RtpbClient::new(config);
        let n = g.usize_in(1, 3);
        let ids: Vec<_> = (0..n)
            .filter_map(|i| {
                let period = g.u64_in(30, 120);
                let spec = ObjectSpec::builder(format!("cert-{i}"))
                    .update_period(ms(period))
                    .primary_bound(ms(period + 50))
                    .backup_bound(ms(period + 450))
                    .build()
                    .expect("structurally valid");
                client.register(spec).ok()
            })
            .collect();
        if ids.is_empty() {
            return;
        }
        // A bound the filter never rejects: every served certificate is
        // checked against ground truth, not pre-screened away.
        let huge = TimeDelta::from_secs(60);
        let mut checked = 0u32;
        for _ in 0..120 {
            client.run_for(ms(40));
            let id = ids[g.usize_in(0, ids.len())];
            let Ok(outcome) = client.read(id, ReadConsistency::Bounded(huge)) else {
                continue;
            };
            let cert = outcome.certificate();
            let now = client.now();
            let true_staleness = client
                .metrics()
                .earliest_write_after(id, cert.version)
                .map_or(TimeDelta::ZERO, |t| now.saturating_since(t));
            assert!(
                cert.age_bound >= true_staleness,
                "seed {seed}: cert for {id} v{} claims age ≤ {} but the value \
                 is truly {} stale",
                cert.version.value(),
                cert.age_bound,
                true_staleness
            );
            checked += 1;
        }
        assert!(checked > 0, "seed {seed}: chaos starved every read");
    });
}

/// Session-guarantee pin: under `ReadConsistency::Monotonic`, the
/// `(write_epoch, version)` a session observes never regresses — not
/// between replicas with different replication lag, and not across a
/// mid-run primary crash and failover, where the token's `(epoch, seq)`
/// log-position floor is what survives the epoch change. The token's
/// observed high-water itself must also be monotone.
#[test]
fn monotonic_reads_never_regress_across_failover() {
    run_cases("monotonic_reads_never_regress_across_failover", 10, |g| {
        let seed = g.u64_in(0, 10_000);
        let crash_at = g.u64_in(1_500, 3_000);
        let config = ClusterConfig {
            seed,
            num_backups: 2,
            fault_plan: FaultPlan::new().at(Time::from_millis(crash_at), FaultEvent::CrashPrimary),
            ..ClusterConfig::default()
        };
        let mut client = RtpbClient::new(config);
        let period = g.u64_in(30, 100);
        let spec = ObjectSpec::builder("mono")
            .update_period(ms(period))
            .primary_bound(ms(period + 50))
            .backup_bound(ms(period + 450))
            .build()
            .expect("structurally valid");
        let id = client.register(spec).expect("admitted");

        let mut last_seen: Option<(Epoch, Version)> = None;
        let mut last_observed = None;
        let mut served = 0u32;
        for _ in 0..240 {
            client.run_for(ms(25));
            // Failover windows legitimately refuse (`Unavailable`);
            // the guarantee is about the reads that *are* answered.
            let Ok(outcome) = client.read(id, ReadConsistency::Monotonic) else {
                continue;
            };
            let cert = outcome.certificate();
            let key = (cert.write_epoch, cert.version);
            if let Some(prev) = last_seen {
                assert!(
                    key >= prev,
                    "seed {seed}: session observed {prev:?} then regressed to {key:?}"
                );
            }
            last_seen = Some(key);
            let observed = client.session_token().observed();
            assert!(
                observed >= last_observed,
                "seed {seed}: token high-water regressed: {last_observed:?} -> {observed:?}"
            );
            last_observed = observed;
            served += 1;
        }
        assert!(served > 0, "seed {seed}: no read was ever served");
        assert!(
            client.has_failed_over(),
            "seed {seed}: the crash at {crash_at} ms must trigger failover"
        );
    });
}
