//! Declarative fault plans for robustness experiments, and the ledger
//! that follows each injected fault through its lifecycle.
//!
//! A [`FaultPlan`] is a timestamped list of [`FaultEvent`]s executed by
//! [`SimCluster`](super::SimCluster) as ordinary simulation events, so a
//! chaos scenario — crashes, partitions, loss bursts, delay spikes,
//! recoveries — is a deterministic, replayable function of the cluster
//! seed. Per-fault outcomes (detection latency, recovery time, retries
//! spent) live in the cluster's `FaultLedger`: one
//! [`FaultRecord`] per injected fault, each lifecycle step (inject,
//! detect, recover, retry) one ledger call that updates the record and
//! emits its `fault_*` event, and the open records keyed by the protocol
//! step that will detect or close them.
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
use rtpb_obs::{Counter, EventKind, MetricsRegistry};
use rtpb_sim::Context;
use rtpb_types::{Time, TimeDelta};
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
/// or backup host it concerns. A key holds one record at a time: opening
/// a second record under the same key forgets the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Pending {
    /// A primary crash: a backup's failure detector detects it, the
    /// failover closes it.
    PrimaryCrash,
    /// A crash of backup host `i`: the primary's failure detector detects
    /// it, the host's rejoin closes it.
    BackupCrash(usize),
    /// The restart of backup host `i`: the primary admitting it back
    /// detects it, its catch-up frame closes it.
    Recovery(usize),
    /// A partition of backup host `i`: either failure detector detects
    /// it, the host's rejoin closes it (or the heal, if nobody noticed).
    Partition(usize),
    /// A demoted ex-primary resyncing as backup host `i`: its resync
    /// diff closes it.
    Resync(usize),
    /// Store rot the restart audit of backup host `i` caught: the
    /// catch-up frame that re-ships the quarantined objects closes it.
    Rot(usize),
}

/// What a newly injected fault waits for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Watch {
    /// Nothing the ledger tracks: the cluster holds the record itself
    /// (a primary partition, latent store rot).
    Caller,
    /// The keyed protocol step.
    Step(Pending),
    /// A data-path window on backup host `host` (every host if `None`)
    /// until `until`: retransmission requests from a matching host detect
    /// it until the grace period after `until` runs out.
    Window {
        /// The affected host, or `None` for every host.
        host: Option<usize>,
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

/// Every injected fault's [`FaultRecord`], plus the open ones keyed by
/// what will detect or close them. Each lifecycle step is one call that
/// updates the record and emits its event through the caller's
/// [`Context`].
#[derive(Debug)]
pub(crate) struct FaultLedger {
    records: Vec<FaultRecord>,
    /// `cluster.faults_injected`.
    injected: Counter,
    pending: BTreeMap<Pending, usize>,
    /// Open data-path windows as `(record, host, until)`, in injection
    /// order; pruned as retransmission requests arrive.
    windows: Vec<(usize, Option<usize>, Time)>,
    /// Open clock faults, in injection order.
    clocks: Vec<usize>,
}

impl FaultLedger {
    /// An empty ledger counting injections into `registry`.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        FaultLedger {
            records: Vec::new(),
            injected: registry.counter("cluster.faults_injected"),
            pending: BTreeMap::new(),
            windows: Vec::new(),
            clocks: Vec::new(),
        }
    }

    /// Every injected fault's lifecycle, in injection order.
    pub(crate) fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Opens a record for a fault injected now, counts it, emits
    /// `fault_injected` and files the record under `watch`. Returns the
    /// record's index.
    pub(crate) fn inject<E>(
        &mut self,
        ctx: &Context<'_, E>,
        kind: InjectedFault,
        watch: Watch,
    ) -> usize {
        let record = self.records.len();
        self.records.push(FaultRecord {
            kind,
            injected_at: ctx.now(),
            detected_at: None,
            recovered_at: None,
            retries: 0,
        });
        self.injected.inc();
        ctx.emit(EventKind::FaultInjected {
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

    /// Whether backup host `host` is still re-integrating: a restart or a
    /// resync whose catch-up frame has not landed yet.
    pub(crate) fn reintegrating(&self, host: usize) -> bool {
        self.pending.contains_key(&Pending::Recovery(host))
            || self.pending.contains_key(&Pending::Resync(host))
    }

    /// Marks `record` detected now and emits `fault_detected`. A record
    /// keeps its first detection instant; every call still emits.
    pub(crate) fn detect<E>(&mut self, ctx: &Context<'_, E>, record: usize) {
        self.records[record].detected_at.get_or_insert(ctx.now());
        ctx.emit(EventKind::FaultDetected {
            record: record as u64,
        });
    }

    /// [`FaultLedger::detect`] for the record open under `key`, if any.
    pub(crate) fn detect_pending<E>(&mut self, ctx: &Context<'_, E>, key: Pending) {
        if let Some(record) = self.pending(key) {
            self.detect(ctx, record);
        }
    }

    /// Marks `record` recovered now and emits `fault_recovered`. A record
    /// keeps its first recovery instant.
    pub(crate) fn recover<E>(&mut self, ctx: &Context<'_, E>, record: usize) {
        self.records[record].recovered_at.get_or_insert(ctx.now());
        ctx.emit(EventKind::FaultRecovered {
            record: record as u64,
        });
    }

    /// Closes the record open under `key`, if any, with
    /// [`FaultLedger::recover`].
    pub(crate) fn recover_pending<E>(&mut self, ctx: &Context<'_, E>, key: Pending) {
        if let Some(record) = self.take(key) {
            self.recover(ctx, record);
        }
    }

    /// Counts one protocol retry against `record`.
    pub(crate) fn retry(&mut self, record: usize) {
        self.records[record].retries += 1;
    }

    /// Backup host `host` re-sent its join request: the retry counts
    /// against its open restart, partition or resync record, in that
    /// order of precedence.
    pub(crate) fn join_retried(&mut self, host: usize) {
        let record = [
            Pending::Recovery(host),
            Pending::Partition(host),
            Pending::Resync(host),
        ]
        .into_iter()
        .find_map(|key| self.pending(key));
        if let Some(record) = record {
            self.retry(record);
        }
    }

    /// A retransmission request from backup host `host` arrived: it is how
    /// a loss burst, delay spike or frame-corruption window manifests, so
    /// every matching open window is detected and charged a retry.
    /// Windows that closed more than the grace period ago are dropped.
    pub(crate) fn retransmit_requested<E>(&mut self, ctx: &Context<'_, E>, host: usize) {
        let now = ctx.now();
        let mut hit = Vec::new();
        self.windows.retain(|&(record, affected, until)| {
            if now > until + WINDOW_GRACE {
                return false;
            }
            if affected.is_none() || affected == Some(host) {
                hit.push(record);
            }
            true
        });
        for record in hit {
            self.detect(ctx, record);
            self.retry(record);
        }
    }

    /// A node raised a timing violation: every open clock fault not yet
    /// detected is detected now.
    pub(crate) fn timing_violation<E>(&mut self, ctx: &Context<'_, E>) {
        for i in 0..self.clocks.len() {
            let record = self.clocks[i];
            if self.records[record].detected_at.is_none() {
                self.detect(ctx, record);
            }
        }
    }

    /// A clock fault's window elapsed: the clock is back on the global
    /// timeline and the fault recovers.
    pub(crate) fn clock_healed<E>(&mut self, ctx: &Context<'_, E>, record: usize) {
        self.clocks.retain(|&r| r != record);
        self.recover(ctx, record);
    }

    /// A partition or data-path window closed. A partition nobody detected
    /// healed silently and recovers now; a detected one stays open until
    /// the severed replica rejoins. A data-path window recovers now.
    pub(crate) fn window_closed<E>(&mut self, ctx: &Context<'_, E>, record: usize) {
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
        self.recover(ctx, record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpb_obs::{EventBus, ObsEvent};
    use rtpb_sim::{Simulation, World};

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

    /// Runs each scheduled step against the ledger at the step's instant.
    struct Steps(FaultLedger);

    struct Step(fn(&mut FaultLedger, &Context<'_, Step>));

    impl World for Steps {
        type Event = Step;
        fn handle(&mut self, ctx: &mut Context<'_, Step>, step: Step) {
            (step.0)(&mut self.0, ctx);
        }
    }

    fn run(steps: Vec<(u64, Step)>) -> (FaultLedger, Vec<ObsEvent>, MetricsRegistry) {
        let bus = EventBus::with_capacity(64);
        let registry = MetricsRegistry::new();
        let mut sim =
            Simulation::new(Steps(FaultLedger::new(&registry)), 0).with_observer(bus.writer());
        for (at, step) in steps {
            sim.schedule_at(t(at), step);
        }
        sim.run_to_completion();
        (sim.into_world().0, bus.collect(), registry)
    }

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn each_step_updates_its_record_and_emits_its_event() {
        let (ledger, events, registry) = run(vec![
            (
                100,
                Step(|l, ctx| {
                    l.inject(
                        ctx,
                        InjectedFault::PrimaryCrash,
                        Watch::Step(Pending::PrimaryCrash),
                    );
                }),
            ),
            (
                250,
                Step(|l, ctx| l.detect_pending(ctx, Pending::PrimaryCrash)),
            ),
            // A repeat still emits but keeps the first instant.
            (260, Step(|l, ctx| l.detect(ctx, 0))),
            (
                300,
                Step(|l, ctx| l.recover_pending(ctx, Pending::PrimaryCrash)),
            ),
            (310, Step(|l, ctx| l.recover(ctx, 0))),
            (320, Step(|l, _| l.retry(0))),
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
            (
                0,
                Step(|l, ctx| {
                    let until = t(200);
                    let host = Some(1);
                    l.inject(ctx, InjectedFault::LossBurst, Watch::Window { host, until });
                    l.inject(ctx, InjectedFault::ClockStep, Watch::Clock);
                    l.inject(
                        ctx,
                        InjectedFault::Partition,
                        Watch::Step(Pending::Partition(0)),
                    );
                    l.inject(
                        ctx,
                        InjectedFault::Partition,
                        Watch::Step(Pending::Partition(2)),
                    );
                }),
            ),
            // A request from another host says nothing about host 1's burst.
            (50, Step(|l, ctx| l.retransmit_requested(ctx, 0))),
            (60, Step(|l, ctx| l.retransmit_requested(ctx, 1))),
            (70, Step(|l, ctx| l.timing_violation(ctx))),
            // Only the first violation detects a clock fault.
            (80, Step(|l, ctx| l.timing_violation(ctx))),
            (
                90,
                Step(|l, ctx| l.detect_pending(ctx, Pending::Partition(2))),
            ),
            // An undetected cut heals silently; a detected one waits for
            // the rejoin.
            (100, Step(|l, ctx| l.window_closed(ctx, 2))),
            (110, Step(|l, ctx| l.window_closed(ctx, 3))),
            (120, Step(|l, ctx| l.clock_healed(ctx, 1))),
            // Past the grace period the burst no longer takes the blame.
            (1_300, Step(|l, ctx| l.retransmit_requested(ctx, 1))),
            (1_400, Step(|l, _| l.join_retried(2))),
        ]);
        let r = ledger.records();
        assert_eq!((r[0].detected_at, r[0].retries), (Some(t(60)), 1));
        assert_eq!(r[1].detected_at, Some(t(70)));
        assert_eq!(r[1].recovered_at, Some(t(120)));
        assert_eq!(r[2].recovered_at, Some(t(100)));
        assert_eq!(ledger.pending(Pending::Partition(0)), None);
        assert_eq!(r[3].recovered_at, None);
        assert_eq!(r[3].retries, 1);
        assert_eq!(ledger.pending(Pending::Partition(2)), Some(3));
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
