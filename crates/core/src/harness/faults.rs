//! Declarative fault plans for robustness experiments, and the ledger
//! that follows each injected fault through its lifecycle.
//!
//! A [`FaultPlan`] is a timestamped list of [`FaultEvent`]s executed by
//! [`SimCluster`](super::SimCluster) as ordinary simulation events, so a
//! chaos scenario — crashes, partitions, loss bursts, delay spikes,
//! recoveries — is a deterministic, replayable function of the cluster
//! seed. Per-fault outcomes (detection latency, recovery time, retries
//! spent) live in a [`FaultLedger`]: one [`FaultRecord`] per injected
//! fault, each lifecycle step (inject, detect, recover, retry) one ledger
//! call that updates the record and emits its `fault_*` event, and the
//! open records keyed by the protocol step that will detect or close
//! them. Both drivers keep one; the shared steps record the protocol's
//! part of each lifecycle in it (DESIGN.md §8).
//!
//! # Examples
//!
//! ```
//! use rtpb_core::harness::{FaultEvent, FaultPlan};
//! use rtpb_types::{Time, TimeDelta};
//!
//! let plan = FaultPlan::new()
//!     .at(Time::from_secs(2), FaultEvent::Partition {
//!         host: 0,
//!         duration: TimeDelta::from_millis(800),
//!     })
//!     .at(Time::from_secs(5), FaultEvent::CrashPrimary);
//! assert_eq!(plan.len(), 2);
//! ```

use crate::metrics::{FaultRecord, InjectedFault};
use rtpb_obs::{ClockDomain, EventKind, EventWriter};
use rtpb_types::{NodeId, Time, TimeDelta};
use std::collections::BTreeMap;

/// One scheduled fault in a [`FaultPlan`].
///
/// Marked `#[non_exhaustive]`: new fault kinds are added as the chaos
/// vocabulary grows (the clock faults below arrived after the first
/// release), so downstream matches must carry a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FaultEvent {
    /// The primary host crashes (fail-stop, §4.1).
    CrashPrimary,
    /// Backup host `host` crashes (fail-stop).
    CrashBackup {
        /// Index of the backup host (0-based, in creation order).
        host: usize,
    },
    /// A previously crashed backup host restarts with empty state and
    /// re-joins the serving primary via the state-transfer path.
    RecoverBackup {
        /// Index of the backup host to restart.
        host: usize,
    },
    /// A previously crashed backup host restarts with its pre-crash state
    /// intact (durable storage survived the crash) and re-joins the
    /// serving primary advertising its last applied log position, so the
    /// primary can ship only the update-log suffix it missed instead of a
    /// full state transfer (DESIGN.md §11).
    RestartBackup {
        /// Index of the backup host to restart.
        host: usize,
    },
    /// All four link directions between the primary and backup `host` go
    /// dark for `duration` (a network partition of that replica pair).
    Partition {
        /// Index of the partitioned backup host.
        host: usize,
        /// How long the partition lasts.
        duration: TimeDelta,
    },
    /// The serving primary is cut off from **every** backup for
    /// `duration` while it keeps running (the split-brain scenario). If
    /// the cut outlasts the failure-detection bound and auto-failover is
    /// on, a backup promotes itself under a fresh fencing epoch while the
    /// deposed primary is still alive on the minority side; after the
    /// heal the deposed primary discovers the higher epoch, demotes
    /// itself, and re-integrates via anti-entropy resync.
    PartitionPrimary {
        /// How long the primary stays cut off.
        duration: TimeDelta,
    },
    /// The primary→backup data path drops messages with probability
    /// `loss` for `duration`.
    LossBurst {
        /// Affected backup host, or `None` for every host.
        host: Option<usize>,
        /// How long the burst lasts.
        duration: TimeDelta,
        /// Loss probability during the burst (overrides the configured
        /// rate if higher).
        loss: f64,
    },
    /// The primary→backup data path adds `extra` latency to every
    /// delivered message for `duration` (deliveries may exceed the
    /// nominal bound `ℓ`).
    DelaySpike {
        /// Affected backup host, or `None` for every host.
        host: Option<usize>,
        /// How long the spike lasts.
        duration: TimeDelta,
        /// Extra one-way latency imposed while active.
        extra: TimeDelta,
    },
    /// Sets the steady-state loss probability on every primary→backup
    /// data path from this instant on (parameter sweeps). Unlike the
    /// windowed faults above this is a knob, not an outage: it opens no
    /// fault record and never heals on its own.
    SetLoss {
        /// The new loss probability (clamped to `[0, 1]`).
        loss: f64,
    },
    /// A node's local clock steps by `offset` — an NTP-style correction,
    /// VM migration, or operator `date -s`. The event queue (and thus
    /// replay determinism) stays on the global timeline; only the local
    /// readings handed to the affected node's state machine move. The
    /// clock is disciplined back onto the global timeline after
    /// `duration` (a [`ClockModel::heal`](rtpb_sim::ClockModel::heal)
    /// discontinuity).
    ///
    /// A **backward** step is the dangerous direction: certificates
    /// minted from the regressed clock under-report staleness.
    ClockStep {
        /// Affected backup host, or `None` for the primary host.
        host: Option<usize>,
        /// Step magnitude.
        offset: TimeDelta,
        /// `true` steps the clock behind the global timeline, `false`
        /// ahead of it.
        backward: bool,
        /// Interval after which the clock is disciplined back.
        duration: TimeDelta,
    },
    /// A node's local clock drifts: it advances `rate_num` nanoseconds
    /// per `rate_den` global nanoseconds (`1/1` is nominal) until healed
    /// after `duration`.
    ClockDrift {
        /// Affected backup host, or `None` for the primary host.
        host: Option<usize>,
        /// Drift rate numerator.
        rate_num: u32,
        /// Drift rate denominator (must be non-zero).
        rate_den: u32,
        /// Interval after which the clock is disciplined back.
        duration: TimeDelta,
    },
    /// A node's local clock freezes at its current reading (a firmware
    /// stall) until healed after `duration`.
    ClockFreeze {
        /// Affected backup host, or `None` for the primary host.
        host: Option<usize>,
        /// Interval after which the clock is disciplined back.
        duration: TimeDelta,
    },
    /// The primary→backup data path flips one bit in transported frames
    /// with probability `probability` for `duration` — a faulty NIC,
    /// cable, or switch buffer. The CRC32C frame trailer detects every
    /// single-bit flip, so a corrupted frame is dropped at the receiver
    /// (raising an `integrity_violation` event) and repaired by the same
    /// retransmission machinery that handles loss.
    CorruptFrame {
        /// Affected backup host, or `None` for every host.
        host: Option<usize>,
        /// How long the corruption window lasts.
        duration: TimeDelta,
        /// Per-frame corruption probability during the window.
        probability: f64,
    },
    /// Flips bytes in `flips` stored object images retained across backup
    /// `host`'s *next* restart — bit rot on the durable store. The
    /// restart-recovery audit quarantines every entry whose install-time
    /// checksum fails and the re-join falls down the catch-up ladder to a
    /// path that re-ships the quarantined objects.
    CorruptState {
        /// Index of the backup host whose retained store rots.
        host: usize,
        /// How many stored images are corrupted (one flipped byte each).
        flips: u32,
    },
}

/// A deterministic, timestamped schedule of faults to inject into a
/// cluster run.
///
/// Events fire in timestamp order (ties in insertion order). The plan is
/// part of [`ClusterConfig`](super::ClusterConfig), so two runs with the
/// same config and seed inject — and recover from — exactly the same
/// faults at exactly the same instants.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<(Time, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at an absolute instant (builder style).
    #[must_use]
    pub fn at(mut self, at: Time, event: FaultEvent) -> Self {
        self.events.push((at, event));
        self
    }

    /// The scheduled events, in timestamp order.
    #[must_use]
    pub fn events(&self) -> Vec<(Time, FaultEvent)> {
        let mut sorted = self.events.clone();
        sorted.sort_by_key(|&(at, _)| at);
        sorted
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The protocol step an open fault record waits for, keyed by the role
/// or backup node it concerns. A key holds one record at a time: opening
/// a second record under the same key forgets the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Pending {
    /// A primary crash: a backup's failure detector detects it, the
    /// promotion closes it.
    PrimaryCrash,
    /// A crash of backup `node`: the primary's failure detector detects
    /// it, the primary admitting it back closes it.
    BackupCrash(NodeId),
    /// The restart of backup `node`: the primary admitting it back
    /// detects it, its catch-up frame closes it.
    Recovery(NodeId),
    /// A partition of backup `node`: either failure detector detects it,
    /// the primary admitting it back closes it (or the heal, if nobody
    /// noticed).
    Partition(NodeId),
    /// A demoted ex-primary resyncing as backup `node`: its resync diff
    /// closes it.
    Resync(NodeId),
    /// Store rot the restart audit of backup `node` caught: the catch-up
    /// frame that re-ships the quarantined objects closes it.
    Rot(NodeId),
}

/// What a newly injected fault waits for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Watch {
    /// Nothing the ledger tracks: the driver holds the record itself
    /// (a primary partition, latent store rot).
    Caller,
    /// The keyed protocol step.
    Step(Pending),
    /// A data-path window on backup `host` (every backup if `None`)
    /// until `until`: retransmission requests from a matching backup
    /// detect it until the grace period after `until` runs out.
    Window {
        /// The affected backup, or `None` for every backup.
        host: Option<NodeId>,
        /// When the window closes.
        until: Time,
    },
    /// A clock fault: the first timing violation any node raises detects
    /// it — the monitor cannot tell whose clock broke, only that the
    /// envelope did.
    Clock,
}

/// How long after a data-path window closes a retransmission request is
/// still attributed to it.
const WINDOW_GRACE: TimeDelta = TimeDelta::from_secs(1);

/// When a ledger step happens on the driver's clock, and the counting
/// writer its `fault_*` event goes out through, which folds
/// `fault_injected` into `cluster.faults_injected`.
#[derive(Debug, Clone, Copy)]
pub struct Stamp<'w> {
    /// The driver's clock: virtual or real.
    pub clock: ClockDomain,
    /// The instant the step happens.
    pub now: Time,
    /// The driver's counting writer.
    pub writer: &'w EventWriter,
}

impl Stamp<'_> {
    fn emit(self, kind: EventKind) {
        self.writer.emit(self.clock, self.now, kind);
    }
}

/// Every injected fault's [`FaultRecord`], plus the open ones keyed by
/// what will detect or close them. Both drivers keep one and lend it to
/// the steps ([`Driver::faults`](crate::steps::Driver::faults)), which
/// record the protocol's part of each lifecycle; each lifecycle step is
/// one call that updates the record and emits its event.
#[derive(Debug, Default)]
pub struct FaultLedger {
    records: Vec<FaultRecord>,
    pending: BTreeMap<Pending, usize>,
    /// Open data-path windows as `(record, backup, until)`, in injection
    /// order; pruned as retransmission requests arrive.
    windows: Vec<(usize, Option<NodeId>, Time)>,
    /// Open clock faults, in injection order.
    clocks: Vec<usize>,
}

impl FaultLedger {
    /// Every injected fault's lifecycle, in injection order.
    #[must_use]
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Opens a record for a fault injected `at`, emits `fault_injected`
    /// and files the record under `watch`. Returns the record's index.
    pub(crate) fn inject(&mut self, at: Stamp<'_>, kind: InjectedFault, watch: Watch) -> usize {
        let record = self.records.len();
        self.records.push(FaultRecord {
            kind,
            injected_at: at.now,
            detected_at: None,
            recovered_at: None,
            retries: 0,
        });
        at.emit(EventKind::FaultInjected {
            fault: kind.name(),
            record: record as u64,
        });
        match watch {
            Watch::Caller => {}
            Watch::Step(key) => self.watch(key, record),
            Watch::Window { host, until } => self.windows.push((record, host, until)),
            Watch::Clock => self.clocks.push(record),
        }
        record
    }

    /// Files an already open `record` under `key`.
    pub(crate) fn watch(&mut self, key: Pending, record: usize) {
        self.pending.insert(key, record);
    }

    /// The record open under `key`, if any.
    pub(crate) fn pending(&self, key: Pending) -> Option<usize> {
        self.pending.get(&key).copied()
    }

    /// Removes and returns the record open under `key`, if any.
    pub(crate) fn take(&mut self, key: Pending) -> Option<usize> {
        self.pending.remove(&key)
    }

    /// Marks `record` detected `at` and emits `fault_detected`. A record
    /// keeps its first detection instant; every call still emits.
    pub(crate) fn detect(&mut self, at: Stamp<'_>, record: usize) {
        self.records[record].detected_at.get_or_insert(at.now);
        at.emit(EventKind::FaultDetected {
            record: record as u64,
        });
    }

    /// [`FaultLedger::detect`] for the record open under `key`, if any.
    pub(crate) fn detect_pending(&mut self, at: Stamp<'_>, key: Pending) {
        if let Some(record) = self.pending(key) {
            self.detect(at, record);
        }
    }

    /// Marks `record` recovered `at` and emits `fault_recovered`. A record
    /// keeps its first recovery instant.
    pub(crate) fn recover(&mut self, at: Stamp<'_>, record: usize) {
        self.records[record].recovered_at.get_or_insert(at.now);
        at.emit(EventKind::FaultRecovered {
            record: record as u64,
        });
    }

    /// Closes the record open under `key`, if any, with
    /// [`FaultLedger::recover`], and returns its recovery time.
    pub(crate) fn recover_pending(&mut self, at: Stamp<'_>, key: Pending) -> Option<TimeDelta> {
        let record = self.take(key)?;
        self.recover(at, record);
        self.records[record].recovery_time()
    }

    /// Counts one protocol retry against `record`.
    fn retry(&mut self, record: usize) {
        self.records[record].retries += 1;
    }

    /// Backup `node` re-sent its join request: the retry counts against
    /// its open restart, partition or resync record, in that order of
    /// precedence.
    pub(crate) fn join_retried(&mut self, node: NodeId) {
        let record = [
            Pending::Recovery(node),
            Pending::Partition(node),
            Pending::Resync(node),
        ]
        .into_iter()
        .find_map(|key| self.pending(key));
        if let Some(record) = record {
            self.retry(record);
        }
    }

    /// A retransmission request from backup `node` arrived: it is how a
    /// loss burst, delay spike or frame-corruption window manifests, so
    /// every matching open window is detected and charged a retry.
    /// Windows that closed more than the grace period ago are dropped.
    pub(crate) fn retransmit_requested(&mut self, at: Stamp<'_>, node: NodeId) {
        let mut hit = Vec::new();
        self.windows.retain(|&(record, affected, until)| {
            if at.now > until + WINDOW_GRACE {
                return false;
            }
            if affected.is_none_or(|host| host == node) {
                hit.push(record);
            }
            true
        });
        for record in hit {
            self.detect(at, record);
            self.retry(record);
        }
    }

    /// A node raised a timing violation: every open clock fault not yet
    /// detected is detected now.
    pub(crate) fn timing_violation(&mut self, at: Stamp<'_>) {
        for i in 0..self.clocks.len() {
            let record = self.clocks[i];
            if self.records[record].detected_at.is_none() {
                self.detect(at, record);
            }
        }
    }

    /// A clock fault's window elapsed: the clock is back on the global
    /// timeline and the fault recovers.
    pub(crate) fn clock_healed(&mut self, at: Stamp<'_>, record: usize) {
        self.clocks.retain(|&r| r != record);
        self.recover(at, record);
    }

    /// A partition or data-path window closed. A partition nobody detected
    /// healed silently and recovers now; a detected one stays open until
    /// the severed replica rejoins. A data-path window recovers now.
    pub(crate) fn window_closed(&mut self, at: Stamp<'_>, record: usize) {
        let key = self
            .pending
            .iter()
            .find(|&(_, &r)| r == record)
            .map(|(&key, _)| key);
        if let Some(key) = key {
            if self.records[record].detected_at.is_some() {
                return;
            }
            self.pending.remove(&key);
        }
        self.recover(at, record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpb_obs::{EventBus, MetricsRegistry, ObsEvent};

    #[test]
    fn events_come_back_in_timestamp_order() {
        let plan = FaultPlan::new()
            .at(Time::from_secs(5), FaultEvent::CrashPrimary)
            .at(Time::from_secs(1), FaultEvent::CrashBackup { host: 0 })
            .at(Time::from_secs(3), FaultEvent::RecoverBackup { host: 0 });
        let order: Vec<Time> = plan.events().iter().map(|&(at, _)| at).collect();
        assert_eq!(
            order,
            vec![Time::from_secs(1), Time::from_secs(3), Time::from_secs(5)]
        );
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_plan() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.events(), Vec::new());
    }

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    /// One ledger step, run at its instant.
    type Step = fn(&mut FaultLedger, Stamp<'_>);

    /// Runs each step against one ledger, stamped at its instant, and
    /// returns the ledger, the events it emitted and the registry they
    /// were folded into.
    fn run(steps: Vec<(u64, Step)>) -> (FaultLedger, Vec<ObsEvent>, MetricsRegistry) {
        let bus = EventBus::with_capacity(64);
        let registry = MetricsRegistry::new();
        let writer = bus.writer().counting(&registry);
        let mut ledger = FaultLedger::default();
        for (at, step) in steps {
            let stamp = Stamp {
                clock: ClockDomain::Virtual,
                now: t(at),
                writer: &writer,
            };
            step(&mut ledger, stamp);
        }
        (ledger, bus.collect(), registry)
    }

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn each_step_updates_its_record_and_emits_its_event() {
        let (ledger, events, registry) = run(vec![
            (100, |l, at| {
                let watch = Watch::Step(Pending::PrimaryCrash);
                l.inject(at, InjectedFault::PrimaryCrash, watch);
            }),
            (250, |l, at| l.detect_pending(at, Pending::PrimaryCrash)),
            // A repeat still emits but keeps the first instant.
            (260, |l, at| l.detect(at, 0)),
            (300, |l, at| {
                let took = l.recover_pending(at, Pending::PrimaryCrash);
                assert_eq!(took, Some(TimeDelta::from_millis(200)));
            }),
            (310, |l, at| l.recover(at, 0)),
            (320, |l, _| l.retry(0)),
        ]);
        let r = &ledger.records()[0];
        assert_eq!(r.kind, InjectedFault::PrimaryCrash);
        assert_eq!(r.injected_at, t(100));
        assert_eq!(r.detected_at, Some(t(250)));
        assert_eq!(r.recovered_at, Some(t(300)));
        assert_eq!(r.retries, 1);
        assert_eq!(ledger.pending(Pending::PrimaryCrash), None);
        assert_eq!(
            registry.snapshot().counter("cluster.faults_injected"),
            Some(1)
        );
        let got: Vec<(Time, EventKind)> = events.into_iter().map(|e| (e.at, e.kind)).collect();
        assert_eq!(
            got,
            vec![
                (
                    t(100),
                    EventKind::FaultInjected {
                        fault: "primary_crash",
                        record: 0
                    }
                ),
                (t(250), EventKind::FaultDetected { record: 0 }),
                (t(260), EventKind::FaultDetected { record: 0 }),
                (t(300), EventKind::FaultRecovered { record: 0 }),
                (t(310), EventKind::FaultRecovered { record: 0 }),
            ]
        );
    }

    #[test]
    fn open_records_are_attributed_to_the_step_that_closes_them() {
        let (ledger, events, _) = run(vec![
            (0, |l, at| {
                let (host, until) = (Some(n(1)), t(200));
                l.inject(at, InjectedFault::LossBurst, Watch::Window { host, until });
                l.inject(at, InjectedFault::ClockStep, Watch::Clock);
                for node in [n(0), n(2)] {
                    let watch = Watch::Step(Pending::Partition(node));
                    l.inject(at, InjectedFault::Partition, watch);
                }
            }),
            // A request from another node says nothing about node 1's burst.
            (50, |l, at| l.retransmit_requested(at, n(0))),
            (60, |l, at| l.retransmit_requested(at, n(1))),
            (70, |l, at| l.timing_violation(at)),
            // Only the first violation detects a clock fault.
            (80, |l, at| l.timing_violation(at)),
            (90, |l, at| l.detect_pending(at, Pending::Partition(n(2)))),
            // An undetected cut heals silently; a detected one waits for
            // the rejoin.
            (100, |l, at| l.window_closed(at, 2)),
            (110, |l, at| l.window_closed(at, 3)),
            (120, |l, at| l.clock_healed(at, 1)),
            // Past the grace period the burst no longer takes the blame.
            (1_300, |l, at| l.retransmit_requested(at, n(1))),
            (1_400, |l, _| l.join_retried(n(2))),
        ]);
        let r = ledger.records();
        assert_eq!((r[0].detected_at, r[0].retries), (Some(t(60)), 1));
        assert_eq!(r[1].detected_at, Some(t(70)));
        assert_eq!(r[1].recovered_at, Some(t(120)));
        assert_eq!(r[2].recovered_at, Some(t(100)));
        assert_eq!(ledger.pending(Pending::Partition(n(0))), None);
        assert_eq!(r[3].recovered_at, None);
        assert_eq!(r[3].retries, 1);
        assert_eq!(ledger.pending(Pending::Partition(n(2))), Some(3));
        let detected: Vec<(Time, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FaultDetected { record } => Some((e.at, record)),
                _ => None,
            })
            .collect();
        assert_eq!(detected, vec![(t(60), 0), (t(70), 1), (t(90), 3)]);
    }
}
