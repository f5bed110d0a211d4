//! The simulated RTPB cluster: client + primary + backup(s) over lossy
//! links.
//!
//! [`SimCluster`] wires the sans-io [`Primary`] and [`Backup`] state
//! machines, the [`CpuQueue`](super::CpuQueue) model of the primary host,
//! and per-replica [`LossyLink`]s into an [`rtpb_sim::Simulation`]. Every
//! run is a deterministic function of the [`ClusterConfig`] (including its
//! seed), which is what makes the paper's parameter sweeps exactly
//! reproducible.
//!
//! The cluster supports the paper's future-work extension of **multiple
//! backups** ([`ClusterConfig::num_backups`]): updates are broadcast to
//! every tracked backup, each replica pair has an independent failure
//! detector, the first backup to detect a primary death promotes itself,
//! and the surviving backups re-join the new primary via state transfer.

use crate::backup::{Backup, BackupRead};
use crate::config::{ConfigError, ProtocolConfig};
use crate::harness::cpu::{CpuQueue, Work};
use crate::harness::faults::{FaultEvent, FaultLedger, FaultPlan, Pending, Watch};
use crate::metrics::{ClusterMetrics, FaultRecord, InjectedFault};
use crate::name_service::NameService;
use crate::primary::{CatchUpDecision, Primary};
use crate::steps::{self, Coalescer, Driver, Fact, Route, SweepMember, Sweeps, TimerKind};
use crate::table::IdTable;
use crate::telemetry::Instruments;
use crate::wire::WireMessage;
use rtpb_net::{FaultKind, FaultWindow, LinkConfig, LossyLink};
use rtpb_obs::{EventBus, EventKind, MetricsRegistry, Role};
use rtpb_sim::{ClockModel, Context, Simulation, World};
use rtpb_types::{
    AdmissionError, Epoch, Frame, FramePool, LogPosition, NodeId, ObjectId, ObjectSpec,
    ReadConsistency, ReadError, ReadOutcome, StalenessCertificate, Time, TimeDelta, Version,
    WriteError,
};
use std::collections::{BTreeMap, BTreeSet};

/// Per-object `(write_epoch, version)` freshness tags of a replica's
/// store, used to rank failover candidates.
type FreshnessTags = BTreeMap<ObjectId, (u64, u64)>;

/// Configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// RTPB protocol parameters.
    pub protocol: ProtocolConfig,
    /// The primary→backup link; every other direction uses the same
    /// parameters with independent random streams.
    pub link: LinkConfig,
    /// Root random seed (links, payload jitter).
    pub seed: u64,
    /// Number of backup replicas (the paper's prototype uses 1; more is
    /// the multi-backup extension listed as future work).
    pub num_backups: usize,
    /// Whether a backup automatically promotes itself when it declares
    /// the primary dead (§4.4).
    pub auto_failover: bool,
    /// If set, a replacement backup is recruited this long after the last
    /// backup is lost.
    pub recruit_backup_after: Option<TimeDelta>,
    /// Whether control traffic (heartbeats, acks, retransmission
    /// requests) is exempt from the configured loss probability. Defaults
    /// to `true`: the paper assumes link failures are masked by physical
    /// redundancy (§4.1), and its loss sweeps are about *update* messages
    /// from the primary to the backup (§5.2). Set to `false` to subject
    /// every message to loss. Catch-up traffic (join and resync requests
    /// and their replies) is never exempt: a recovering replica's
    /// exchange crosses the same network as the updates, and the
    /// bounded-retry join cycle exists to survive its loss.
    pub control_loss_exempt: bool,
    /// Deterministic fault schedule executed during the run (crashes,
    /// partitions, loss bursts, delay spikes, recoveries).
    pub fault_plan: FaultPlan,
    /// Structured-event bus; when enabled, the cluster emits typed
    /// protocol events (update send/apply, heartbeats, role transitions,
    /// admission decisions, fault lifecycles) stamped with the virtual
    /// clock. Emission never consumes randomness, so instrumented runs
    /// produce the exact protocol outcomes of uninstrumented ones.
    pub bus: EventBus,
    /// Metrics registry; when enabled, hot-path counters and latency
    /// histograms (client response, failover duration) are maintained
    /// alongside the structured events.
    pub registry: MetricsRegistry,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            protocol: ProtocolConfig::default(),
            link: LinkConfig::default(),
            seed: 0,
            num_backups: 1,
            auto_failover: true,
            recruit_backup_after: None,
            control_loss_exempt: true,
            fault_plan: FaultPlan::new(),
            bus: EventBus::disabled(),
            registry: MetricsRegistry::disabled(),
        }
    }
}

impl ClusterConfig {
    /// Checks the configuration for contradictions — most importantly the
    /// lease-sizing inequality `lease + skew + ℓ < declaration bound`
    /// (DESIGN.md §10) — returning the first [`ConfigError`] found.
    ///
    /// [`SimCluster::new`] calls this and panics on error; callers that
    /// build configurations from untrusted input can invoke it directly
    /// and surface the error instead.
    ///
    /// # Errors
    ///
    /// Returns the first configuration contradiction discovered; see
    /// [`ConfigError`] for the full catalogue.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.protocol.check()
    }
}

/// One end of a simulated link. Every link joins a backup host to the
/// primary role: the serving primary or, during a split-brain window,
/// the deposed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Peer {
    /// The serving primary: whichever node the name service binds.
    Primary,
    /// The primary deposed behind a split-brain partition.
    Deposed,
    /// Backup host `i`.
    Backup(usize),
}

#[derive(Debug)]
enum Event {
    ClientWrite {
        object: ObjectId,
    },
    /// The primary CPU finished its item in service, if the queue has not
    /// been cleared since the completion was scheduled (see
    /// [`CpuQueue::generation`]).
    CpuFinished {
        generation: u64,
    },
    /// The per-object timers of sweep group `slot` are due, if the timer
    /// epoch has not moved since the group was filed.
    Sweep {
        epoch: u32,
        slot: u32,
    },
    FlushBatch,
    PrimaryHeartbeat,
    BackupHeartbeat,
    /// Probe cadence of a deposed primary stranded on the minority side
    /// of a split-brain partition.
    DeposedTick,
    /// A frame [`ClusterWorld::route`] put on a link arrives at `to`;
    /// replies go back to `from`.
    Deliver {
        from: Peer,
        to: Peer,
        frame: Frame,
    },
    Inject {
        fault: FaultEvent,
    },
    RecruitBackup,
    FaultAt {
        index: usize,
    },
    FaultHealed {
        record: usize,
        host: Option<usize>,
    },
    /// A clock fault's heal window elapsed: the affected slot's clock is
    /// disciplined back onto the global timeline. Distinct from
    /// [`Event::FaultHealed`] because clock faults touch a clock model,
    /// not link windows.
    ClockFaultHealed {
        record: usize,
        slot: usize,
    },
}

/// A message encoded once for every destination [`ClusterWorld::route`]
/// sends it to: every link and every arrival shares `bytes`.
struct Encoded<'m> {
    msg: &'m WireMessage,
    bytes: Frame,
}

/// What the world reads of a registered object's spec: its client's
/// write period and execution time, and its payload size.
#[derive(Debug, Clone, Copy)]
struct ClientLoad {
    period: TimeDelta,
    exec: TimeDelta,
    size: usize,
}

/// One backup replica's host: the state machine plus its four link
/// directions (data/control × to/from the primary).
struct BackupHost {
    node: NodeId,
    backup: Option<Backup>,
    /// The pre-crash state machine of a crashed host, held for
    /// [`FaultEvent::RestartBackup`] (durable storage that survives the
    /// crash). Dropped if the host instead recovers cold via
    /// [`FaultEvent::RecoverBackup`].
    parked: Option<Backup>,
    /// Reads this host has answered (least-loaded routing tiebreak).
    reads_served: u64,
    /// When this host's serial read queue drains: a read issued at `t`
    /// starts at `max(t, busy_until)` and occupies the host for its
    /// service cost. Models local read capacity without a network hop.
    busy_until: Time,
    data_link: LossyLink,
    ctrl_link: LossyLink,
    rev_data_link: LossyLink,
    rev_ctrl_link: LossyLink,
}

impl BackupHost {
    fn new(node: NodeId, index: usize, config: &ClusterConfig) -> Self {
        let lossless = LinkConfig {
            loss_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            corrupt_probability: 0.0,
            burst: None,
            ..config.link
        };
        let base = config.seed.wrapping_add(100 + 4 * index as u64);
        let mut host = BackupHost {
            node,
            backup: Some(Backup::new(node, config.protocol.clone())),
            parked: None,
            reads_served: 0,
            busy_until: Time::ZERO,
            data_link: LossyLink::new(config.link, base),
            ctrl_link: LossyLink::new(lossless, base.wrapping_add(1)),
            rev_data_link: LossyLink::new(config.link, base.wrapping_add(2)),
            rev_ctrl_link: LossyLink::new(lossless, base.wrapping_add(3)),
        };
        if config.bus.is_enabled() {
            host.data_link
                .attach_observer(config.bus.writer(), format!("p->b{index}.data"));
            host.ctrl_link
                .attach_observer(config.bus.writer(), format!("p->b{index}.ctrl"));
            host.rev_data_link
                .attach_observer(config.bus.writer(), format!("b{index}->p.data"));
            host.rev_ctrl_link
                .attach_observer(config.bus.writer(), format!("b{index}->p.ctrl"));
        }
        host
    }
}

/// A primary that kept running after a backup promoted itself on the
/// other side of a partition (the split-brain window). It probes its
/// last-known peers; the successor's higher fencing epoch, echoed in a
/// ping ack after the heal, is what makes it step down.
struct DeposedPrimary {
    primary: Primary,
    /// The instant its side of the partition heals; until then every
    /// frame to or from it is dropped.
    cut_until: Time,
    /// The open [`InjectedFault::PrimaryPartition`] record, closed when
    /// the demoted replica's resync diff lands.
    record: usize,
}

struct ClusterWorld {
    config: ClusterConfig,
    primary: Option<Primary>,
    /// See [`DeposedPrimary`]; `Some` only during a split-brain window.
    deposed: Option<DeposedPrimary>,
    hosts: Vec<BackupHost>,
    cpu: CpuQueue,
    metrics: ClusterMetrics,
    instruments: Instruments,
    names: NameService,
    /// The client load of every registered object.
    loads: IdTable<ClientLoad>,
    /// The timer epoch: bumped by every restart of the per-object timers
    /// and by a failover, so sweeps filed before it do nothing.
    epoch: u32,
    /// The per-object send timers and watchdogs, grouped by due instant.
    sweeps: Sweeps,
    next_node: u16,
    write_counter: u64,
    /// The buffer each simulated client write builds its payload in.
    write_buf: Vec<u8>,
    corrupt_messages: u64,
    /// The fault plan, sorted by injection time; `Event::FaultAt` indexes
    /// into this.
    plan: Vec<(Time, FaultEvent)>,
    /// Every injected fault's record, and the open ones awaiting
    /// detection or recovery.
    faults: FaultLedger,
    /// An active cut isolating the serving primary: `(record, until)`.
    /// Moves into [`DeposedPrimary`] if a backup promotes meanwhile.
    primary_partition: Option<(usize, Time)>,
    /// When the last overload shed happened (rate-limits shedding).
    last_shed_at: Option<Time>,
    /// The serving primary's coalescing window (only used when
    /// [`ProtocolConfig::batching_enabled`] holds).
    coalescer: Coalescer,
    /// Every catch-up decision the serving primary made this run, in
    /// order. The same decisions ride the event bus as `catch_up_plan`
    /// events, but the bus is a bounded ring — this list survives
    /// high-rate runs that evict old events.
    catch_up_plans: Vec<CatchUpDecision>,
    /// Every outbound frame is encoded into a frame of this pool
    /// ([`ClusterWorld::encode`]), which reuses it once its last arrival
    /// has landed.
    send_pool: FramePool,
    /// Per-role-slot clock models (DESIGN.md §14): slot 0 is the primary
    /// role, slot `1 + i` is backup host `i`. The event queue stays on
    /// the global virtual timeline; only the `now` handed to a slot's
    /// state machine is translated, so clock faults perturb protocol
    /// decisions without perturbing replay determinism. Empty entries
    /// (and an empty vec) read as the identity clock.
    clocks: Vec<ClockModel>,
    /// Bit rot scheduled by [`FaultEvent::CorruptState`], keyed by host:
    /// `(flips, record)`. The rot manifests at the host's *next*
    /// [`FaultEvent::RestartBackup`], when the retained store is read
    /// back and audited.
    pending_state_rot: BTreeMap<usize, (u32, usize)>,
    /// Hosts whose own scrub check kicked off an anti-entropy resync
    /// (`ResyncStarted` emitted), awaiting the catch-up frame that closes
    /// it with a `ResyncCompleted`.
    scrub_repair: BTreeSet<usize>,
}

impl ClusterWorld {
    /// The clock model of role slot `slot`, growing the table with
    /// identity clocks on first faulted access.
    fn clock_mut(&mut self, slot: usize) -> &mut ClockModel {
        if self.clocks.len() <= slot {
            self.clocks.resize(slot + 1, ClockModel::new());
        }
        &mut self.clocks[slot]
    }

    /// The primary role's local reading of the global instant `global`.
    fn primary_local(&self, global: Time) -> Time {
        self.clocks.first().map_or(global, |c| c.local(global))
    }

    /// Backup host `i`'s local reading of the global instant `global`.
    fn backup_local(&self, i: usize, global: Time) -> Time {
        self.clocks.get(1 + i).map_or(global, |c| c.local(global))
    }

    /// `host` running a step, with the event context.
    fn at<'a, 'c>(&'a mut self, ctx: &'a mut Context<'c, Event>, host: Peer) -> At<'a, 'c> {
        At {
            world: self,
            ctx,
            host,
            sender: host,
            rot: None,
        }
    }

    /// The serving primary. Callers guard on `self.primary` being `Some`
    /// before reaching any path that takes it.
    ///
    /// # Panics
    ///
    /// Panics if no primary is serving.
    fn serving(&self) -> &Primary {
        self.primary.as_ref().expect("no serving primary")
    }

    /// The index of the backup host whose deliveries feed the per-object
    /// metrics: the first live one (the failover target).
    fn metrics_host(&self) -> Option<usize> {
        self.hosts.iter().position(|h| h.backup.is_some())
    }

    fn live_backup_count(&self) -> usize {
        self.hosts.iter().filter(|h| h.backup.is_some()).count()
    }

    /// Whether host `i` may answer client reads: its replica is live,
    /// not mid-join, and not inside an open crash-recovery or resync
    /// window. The window checks are the harness-level half of the
    /// catch-up read gate — a recovering replica's store can hold
    /// pre-crash values until its re-integration frame lands, and those
    /// must never be served ([`Backup::serve_read`] enforces the
    /// state-machine half via `join_in_progress`).
    fn read_eligible(&self, i: usize) -> bool {
        self.hosts[i]
            .backup
            .as_ref()
            .is_some_and(|b| !b.join_in_progress())
            && !self.faults.reintegrating(i)
    }

    /// Whether the serving primary is currently cut off from every
    /// backup ([`FaultEvent::PartitionPrimary`]). While true, frames in
    /// either direction between the primary and the backups are dropped.
    fn primary_cut(&self, now: Time) -> bool {
        self.primary_partition.is_some_and(|(_, until)| now < until)
    }

    /// Encodes `msg` once, into a pooled frame that every destination
    /// and arrival of the frame shares.
    fn encode<'m>(&mut self, msg: &'m WireMessage) -> Encoded<'m> {
        Encoded {
            msg,
            bytes: self.send_pool.frame(|buf| msg.encode_into(buf)),
        }
    }

    /// Encodes `msg` and routes it from `from` to `to`.
    fn send(&mut self, ctx: &mut Context<'_, Event>, from: Peer, to: Peer, msg: &WireMessage) {
        let frame = self.encode(msg);
        self.route(ctx, from, to, &frame);
    }

    /// Sends an update-carrying frame to every backup the primary tracks,
    /// encoded once for all of them. Each host's link decides loss and
    /// delay for the whole frame, so a dropped batch drops every update
    /// it carries together (correlated loss).
    fn broadcast(&mut self, ctx: &mut Context<'_, Event>, msg: &WireMessage) {
        let frame = self.encode(msg);
        for host in 0..self.hosts.len() {
            let node = self.hosts[host].node;
            if self.primary.as_ref().is_some_and(|p| p.tracks(node)) {
                self.route(ctx, Peer::Primary, Peer::Backup(host), &frame);
            }
        }
    }

    /// Puts one frame on the link between `from` and `to`: the only way a
    /// frame enters the simulated network. Every link joins a backup host
    /// to the primary role, and the frame takes that link's data or
    /// control lane by [`WireMessage::rides_data_link`], after three gates:
    ///
    /// - a partition: frames to or from the serving primary die inside a
    ///   [`FaultEvent::PartitionPrimary`] cut, and frames to or from the
    ///   deposed primary die until its side heals;
    /// - the datagram cap: a frame over
    ///   [`MAX_DATAGRAM_BYTES`](steps::MAX_DATAGRAM_BYTES) is refused with
    ///   an [`EventKind::SendRejected`] and a `cluster.send_rejected`
    ///   count;
    /// - a crashed destination: a frame to a crashed backup host is never
    ///   put on a link, so it draws no randomness. Heartbeat probes are
    ///   the exception.
    ///
    /// Update-carrying frames are counted as they leave, through the
    /// shared [`steps::transmit`], and in the per-object ledger when the
    /// destination feeds the metrics.
    fn route(&mut self, ctx: &mut Context<'_, Event>, from: Peer, to: Peer, frame: &Encoded<'_>) {
        let now = ctx.now();
        let (host, outbound, end) = match (from, to) {
            (end, Peer::Backup(host)) => (host, true, end),
            (Peer::Backup(host), end) => (host, false, end),
            _ => unreachable!("every link has a backup host at one end"),
        };
        let end_node = match end {
            Peer::Primary if self.primary_cut(now) => return,
            Peer::Primary => self.names.resolve(),
            Peer::Deposed => match self.deposed.as_ref() {
                Some(dep) if now >= dep.cut_until => dep.primary.node(),
                _ => return,
            },
            Peer::Backup(_) => unreachable!("backups never address each other"),
        };
        let host_node = self.hosts[host].node;
        let (from_node, to_node) = if outbound {
            (end_node, host_node)
        } else {
            (host_node, end_node)
        };
        let bytes = frame.bytes.len();
        let data = frame.msg.rides_data_link() || !self.config.control_loss_exempt;
        let sent = steps::transmit(
            &self.instruments,
            from_node,
            to_node,
            frame.msg,
            bytes,
            |kind| ctx.emit(kind),
            || {
                let h = &mut self.hosts[host];
                // A heartbeat probe goes out even to a crashed host: the
                // detector sends it because it cannot see the crash, and
                // the probe dies at the dead host.
                let probe = matches!(frame.msg, WireMessage::Ping { .. });
                if outbound && !probe && h.backup.is_none() {
                    return None;
                }
                let link = match (outbound, data) {
                    (true, true) => &mut h.data_link,
                    (true, false) => &mut h.ctrl_link,
                    (false, true) => &mut h.rev_data_link,
                    (false, false) => &mut h.rev_ctrl_link,
                };
                Some(link.transmit(now, bytes))
            },
        );
        let Some((outcome, carried)) = sent else {
            return;
        };
        if carried > 0 && self.metrics_host() == Some(host) {
            for _ in 0..carried {
                self.metrics.record_update_sent(outcome.is_lost());
            }
        }
        for at in outcome.arrivals() {
            ctx.schedule_at(
                at,
                Event::Deliver {
                    from,
                    to,
                    frame: steps::arrival_bytes(&frame.bytes, outcome),
                },
            );
        }
    }

    /// Offers work to the primary's CPU, scheduling its completion if the
    /// CPU was idle.
    fn submit(&mut self, ctx: &mut Context<'_, Event>, work: Work, cost: TimeDelta) {
        if let Some(service) = self.cpu.submit(work, cost) {
            let generation = self.cpu.generation();
            ctx.schedule_in(service, Event::CpuFinished { generation });
        }
    }

    fn watchdog_interval(&self, object: ObjectId) -> TimeDelta {
        let period = self.primary.as_ref().and_then(|p| p.send_period(object));
        steps::watchdog_interval(&self.config.protocol, period)
    }

    /// Restarts every per-object timer under a fresh epoch (after
    /// registration, schedule recomputation, or backup integration): for
    /// each object in id order, its send timer (if it has a send period)
    /// and then its watchdog are filed into sweeps.
    ///
    /// First firings are phase-staggered across the period so the send
    /// workload interleaves like a real fixed-priority schedule instead of
    /// arriving in one burst. The §5.3 refresh budget of every sent object
    /// is reset to its new period's allowance.
    fn restart_object_timers(&mut self, ctx: &mut Context<'_, Event>) {
        self.epoch += 1;
        let ClusterWorld {
            loads,
            primary,
            sweeps,
            metrics,
            config,
            epoch,
            ..
        } = self;
        for (id, _) in loads.iter() {
            let period = primary.as_ref().and_then(|p| p.send_period(id));
            if let Some(period) = period {
                let phase = steps::send_phase(id, period);
                file(sweeps, ctx, *epoch, (id, TimerKind::Send), phase);
                metrics.set_refresh_allowance(id, config.protocol.refresh_allowance(period));
            }
            let interval = steps::watchdog_interval(&config.protocol, period);
            file(sweeps, ctx, *epoch, (id, TimerKind::Watchdog), interval);
        }
    }

    /// Runs a sweep: its members in filing order, each a send timer at
    /// the primary or a watchdog checked on every backup host in turn.
    /// Each member files its next firing first. A watchdog's interval is
    /// taken now, from the serving primary's send period (100 ms while no
    /// primary serves); an object no longer registered drops out.
    fn sweep(&mut self, ctx: &mut Context<'_, Event>, members: &[SweepMember]) {
        for &(object, kind) in members {
            match kind {
                TimerKind::Send => {
                    steps::send_timer(&mut self.at(ctx, Peer::Primary), object, |at, period| {
                        let epoch = at.world.epoch;
                        file(&mut at.world.sweeps, at.ctx, epoch, (object, kind), period);
                    });
                }
                TimerKind::Watchdog => {
                    if !self.loads.contains(object) {
                        continue;
                    }
                    let interval = self.watchdog_interval(object);
                    file(&mut self.sweeps, ctx, self.epoch, (object, kind), interval);
                    for i in 0..self.hosts.len() {
                        steps::watchdog(&mut self.at(ctx, Peer::Backup(i)), object);
                    }
                }
            }
        }
    }

    /// A backup's per-object freshness tags: `(write_epoch, version)` for
    /// every valued slot. Never-written slots are implicitly the minimal
    /// tag `(0, 0)`.
    fn freshness_tags(backup: &Backup) -> FreshnessTags {
        backup
            .store()
            .iter()
            .filter_map(|(id, e)| {
                e.value()
                    .map(|v| (id, (e.write_epoch().value(), v.version().value())))
            })
            .collect()
    }

    /// Whether `a`'s store dominates `b`'s: at least as fresh — by the
    /// lexicographic `(write_epoch, version)` tag — for every object, and
    /// strictly fresher for at least one. Scalar version sums cannot rank
    /// replicas after a split-brain window (a divergent replica's inflated
    /// counters would outvote a genuinely fresher one); element-wise
    /// comparison of epoch-qualified tags can.
    fn dominates(a: &FreshnessTags, b: &FreshnessTags) -> bool {
        let min = (0u64, 0u64);
        let mut strictly = false;
        for (id, &tb) in b {
            let ta = a.get(id).copied().unwrap_or(min);
            if ta < tb {
                return false;
            }
            if ta > tb {
                strictly = true;
            }
        }
        for (id, &ta) in a {
            if !b.contains_key(id) && ta > min {
                strictly = true;
            }
        }
        strictly
    }

    /// The failover target: a live backup no other live backup dominates.
    /// Candidates are folded in host-index order; a challenger replaces
    /// the incumbent only if it dominates it, or — when the two are
    /// incomparable — by the deterministic tie-break (highest maximal
    /// write epoch, then highest tag total), with the incumbent (lower
    /// index) winning exact ties. The epoch component of the tie-break
    /// prefers a replica that heard from the newest regime over one
    /// holding divergent state from a deposed one.
    fn failover_target(&self) -> Option<usize> {
        fn rank(tags: &FreshnessTags) -> (u64, u64) {
            let max_epoch = tags.values().map(|&(e, _)| e).max().unwrap_or(0);
            let total: u64 = tags.values().map(|&(e, v)| e.saturating_add(v)).sum();
            (max_epoch, total)
        }
        let mut best: Option<(usize, FreshnessTags)> = None;
        for (i, h) in self.hosts.iter().enumerate() {
            let Some(b) = h.backup.as_ref() else {
                continue;
            };
            let tags = Self::freshness_tags(b);
            best = match best {
                None => Some((i, tags)),
                Some((j, cur)) => {
                    if Self::dominates(&tags, &cur)
                        || (!Self::dominates(&cur, &tags) && rank(&tags) > rank(&cur))
                    {
                        Some((i, tags))
                    } else {
                        Some((j, cur))
                    }
                }
            };
        }
        best.map(|(i, _)| i)
    }

    /// A backup takes over as the new primary (§4.4). The first detector
    /// to fire triggers the failover, but the replica promoted is the
    /// least-stale live backup ([`ClusterWorld::failover_target`]);
    /// surviving backups re-arm their detectors and join the new primary.
    fn do_failover(&mut self, ctx: &mut Context<'_, Event>, detector: usize) {
        let host = self.failover_target().unwrap_or(detector);
        let Some(backup) = self.hosts[host].backup.take() else {
            return;
        };
        let now = ctx.now();
        // The promoting replica stamps the takeover with its own (possibly
        // faulted) backup clock; from here on it reads the primary role's
        // clock slot.
        let new_primary = steps::promote(&mut self.at(ctx, Peer::Backup(host)), backup);
        // §4.4: "The new primary changes the address in the name file to
        // its own internet address, invokes a backup version of the
        // client application ... and then waits to recruit a new backup."
        self.names.rebind(new_primary.node(), now);
        self.primary = Some(new_primary);
        self.cpu.clear();
        self.epoch += 1; // invalidate the dead primary's timers

        // Failover completion ends the primary-crash fault: the service
        // is serving again.
        self.faults.recover_pending(ctx, Pending::PrimaryCrash);
        // Surviving backups track the new primary and re-join (the
        // multi-backup extension).
        for i in 0..self.hosts.len() {
            steps::join(&mut self.at(ctx, Peer::Backup(i)));
        }
        if self.live_backup_count() == 0 {
            if let Some(delay) = self.config.recruit_backup_after {
                ctx.schedule_in(delay, Event::RecruitBackup);
            }
        }
    }

    /// Split-brain promotion: a backup's detector fired while the old
    /// primary is alive but cut off. The old primary moves to the
    /// deposed slot (keeping its store and its stale epoch) and a backup
    /// promotes under a fresh epoch; from here on only the fencing
    /// epoch keeps the two regimes from corrupting each other.
    fn depose_and_failover(&mut self, ctx: &mut Context<'_, Event>, detector: usize) {
        let Some((record, until)) = self.primary_partition.take() else {
            return;
        };
        let Some(old) = self.primary.take() else {
            return;
        };
        self.deposed = Some(DeposedPrimary {
            primary: old,
            cut_until: until,
            record,
        });
        ctx.schedule_in(
            steps::heartbeat_tick(&self.config.protocol),
            Event::DeposedTick,
        );
        self.do_failover(ctx, detector);
    }

    /// The deposed primary observed the successor's higher epoch: it
    /// steps down, becomes a backup host, and starts anti-entropy resync
    /// against the serving primary through the bounded-retry join path.
    fn demote_deposed(&mut self, ctx: &mut Context<'_, Event>) {
        let Some(dep) = self.deposed.take() else {
            return;
        };
        let now = ctx.now();
        let node = dep.primary.node();
        let from_epoch = dep.primary.epoch().value();
        let to_epoch = dep.primary.observed_epoch().value();
        ctx.emit(EventKind::PrimaryDemoted {
            node,
            from_epoch,
            to_epoch,
        });
        ctx.emit(EventKind::RoleTransition {
            node,
            from: Role::Primary,
            to: Role::Joining,
        });
        let mut backup = dep.primary.demote(now);
        let resync = backup.begin_resync(now);
        let objects = match &resync {
            WireMessage::ResyncRequest { versions, .. } => versions.len() as u64,
            _ => 0,
        };
        ctx.emit(EventKind::ResyncStarted { node, objects });
        let index = self.hosts.len();
        let mut host = BackupHost::new(node, index, &self.config);
        host.backup = Some(backup);
        self.hosts.push(host);
        self.faults.watch(Pending::Resync(index), dep.record);
        self.send(ctx, Peer::Backup(index), Peer::Primary, &resync);
    }

    /// The node at `peer` while it is up: `None` for a crashed backup
    /// host, a crashed primary, or an empty deposed slot.
    fn live_node(&self, peer: Peer) -> Option<NodeId> {
        match peer {
            Peer::Primary => self.primary.as_ref().map(Primary::node),
            Peer::Deposed => self.deposed.as_ref().map(|d| d.primary.node()),
            Peer::Backup(i) => self
                .hosts
                .get(i)
                .filter(|h| h.backup.is_some())
                .map(|h| h.node),
        }
    }

    /// A frame arrives at `to`. A crashed destination loses it; otherwise
    /// the bytes go straight to [`steps::parse`], which checks the CRC
    /// trailer before reading any field, and a frame that fails is
    /// counted and dropped.
    fn deliver(&mut self, ctx: &mut Context<'_, Event>, from: Peer, to: Peer, bytes: &[u8]) {
        let Some(node) = self.live_node(to) else {
            return;
        };
        let mut at = self.at(ctx, to);
        at.sender = from;
        let Some(frame) = steps::parse(&mut at, node, bytes) else {
            self.corrupt_messages += 1;
            return;
        };
        match (from, to) {
            (_, Peer::Backup(_)) => steps::backup_receive(&mut at, &frame),
            (Peer::Backup(host), Peer::Primary) => {
                let sender = at.world.hosts[host].node;
                steps::primary_receive(&mut at, sender, &frame);
            }
            (_, Peer::Deposed) => {
                if steps::deposed_receive(&mut at, &frame) {
                    self.demote_deposed(ctx);
                }
            }
            _ => unreachable!("every link has a backup host at one end"),
        }
    }

    /// A catch-up frame (full transfer, anti-entropy diff, or log suffix)
    /// landed at backup host `host`: a recovering replica is consistent
    /// again, so its re-integration records close.
    fn catch_up_landed(&mut self, ctx: &mut Context<'_, Event>, host: usize) {
        let node = self.hosts[host].node;
        if let Some(record) = self.faults.take(Pending::Recovery(host)) {
            let injected = self.faults.records()[record].injected_at;
            self.instruments
                .recovery_time
                .record(ctx.now().saturating_since(injected));
            self.faults.recover(ctx, record);
        }
        if let Some(record) = self.faults.take(Pending::Resync(host)) {
            ctx.emit(EventKind::ResyncCompleted { node });
            self.faults.recover(ctx, record);
        }
        if self.scrub_repair.remove(&host) {
            // The diff landed: the scrub-triggered anti-entropy repair is
            // complete.
            ctx.emit(EventKind::ResyncCompleted { node });
        }
        // The catch-up frame re-shipped the quarantined objects: the store
        // rot is repaired.
        self.faults.recover_pending(ctx, Pending::Rot(host));
    }

    /// Backup host `host`'s detector declared the primary dead.
    fn primary_declared_dead(&mut self, ctx: &mut Context<'_, Event>, host: usize) {
        self.metrics.record_failover_started(ctx.now());
        self.faults.detect_pending(ctx, Pending::PrimaryCrash);
        self.faults.detect_pending(ctx, Pending::Partition(host));
        if let Some((record, _)) = self.primary_partition {
            self.faults.detect(ctx, record);
        }
        if self.config.auto_failover && self.primary.is_none() {
            // First detector to fire takes over.
            self.do_failover(ctx, host);
        } else if self.config.auto_failover && self.primary_partition.is_some() {
            // The primary is alive but unreachable: promote anyway
            // (split-brain). The fencing epoch minted at promotion is what
            // keeps the deposed primary's frames out of every store.
            self.depose_and_failover(ctx, host);
        } else if self.primary.is_some() {
            // A sibling already promoted (or this was a false alarm):
            // re-join the serving primary with bounded retries — even with
            // auto-failover off, a severed replica must find its way back
            // once the cut heals.
            steps::join(&mut self.at(ctx, Peer::Backup(host)));
        }
    }

    /// The primary's detector declared backup `node` dead.
    fn backup_declared_dead(&mut self, ctx: &mut Context<'_, Event>, node: NodeId) {
        if let Some(i) = self.hosts.iter().position(|h| h.node == node) {
            self.faults.detect_pending(ctx, Pending::BackupCrash(i));
            self.faults.detect_pending(ctx, Pending::Partition(i));
        }
        if self.primary.as_ref().is_some_and(|p| !p.is_backup_alive()) {
            if let Some(delay) = self.config.recruit_backup_after {
                ctx.schedule_in(delay, Event::RecruitBackup);
            }
        }
    }

    /// The serving primary admitted backup host `host` back.
    fn backup_joined(&mut self, ctx: &mut Context<'_, Event>, host: usize) {
        let now = ctx.now();
        // The recovery itself completes when the catch-up frame lands.
        self.faults.detect_pending(ctx, Pending::Recovery(host));
        self.faults.recover_pending(ctx, Pending::Partition(host));
        self.faults.recover_pending(ctx, Pending::BackupCrash(host));
        // Re-sync registrations the joining host missed while it was
        // crashed or partitioned away (object *state* arrives via the
        // catch-up reply already in flight).
        let registry = self.serving().registry();
        let local = self.backup_local(host, now);
        if let Some(backup) = self.hosts.get_mut(host).and_then(|h| h.backup.as_mut()) {
            backup.sync_registry(&registry, local);
        }
        self.restart_object_timers(ctx);
    }

    /// Kills the primary host (crash fault). The backups' failure
    /// detectors notice via missed heartbeats (§4.4).
    fn inject_primary_crash(&mut self, ctx: &mut Context<'_, Event>) {
        let Some(node) = self.primary.as_ref().map(Primary::node) else {
            return;
        };
        self.faults.inject(
            ctx,
            InjectedFault::PrimaryCrash,
            Watch::Step(Pending::PrimaryCrash),
        );
        ctx.emit(EventKind::RoleTransition {
            node,
            from: Role::Primary,
            to: Role::Down,
        });
        self.primary = None;
        self.cpu.clear();
    }

    /// Kills one backup host (crash fault). The primary's failure
    /// detector notices via missed ping acks.
    fn inject_backup_crash(&mut self, ctx: &mut Context<'_, Event>, host: usize) {
        let Some(h) = self.hosts.get_mut(host) else {
            return;
        };
        if h.backup.is_none() {
            return;
        }
        let node = h.node;
        // Park the state machine: if the host later restarts (rather than
        // recovering cold) its durable store survives the crash and the
        // rejoin can catch up from its log position.
        h.parked = h.backup.take();
        self.faults.inject(
            ctx,
            InjectedFault::BackupCrash,
            Watch::Step(Pending::BackupCrash(host)),
        );
        ctx.emit(EventKind::RoleTransition {
            node,
            from: Role::Backup,
            to: Role::Down,
        });
    }

    /// Restarts a crashed backup host. The replica comes back empty and
    /// re-integrates through the normal join / state-transfer path with
    /// bounded retries.
    fn recover_backup(&mut self, ctx: &mut Context<'_, Event>, host: usize) {
        let local = self.backup_local(host, ctx.now());
        let Some(h) = self.hosts.get_mut(host) else {
            return;
        };
        if h.backup.is_some() {
            return;
        }
        // Cold recovery: whatever state the crash left behind is gone.
        h.parked = None;
        let mut backup = Backup::new(h.node, self.config.protocol.clone());
        // Registry sync rides the reliable control channel; the object
        // *state* arrives via the StateTransfer reply to the join request.
        if let Some(primary) = self.primary.as_ref() {
            backup.sync_registry(&primary.registry(), local);
        }
        h.backup = Some(backup);
        steps::restart(&mut self.at(ctx, Peer::Backup(host)), false);
    }

    /// Restarts a crashed backup host with its pre-crash state intact
    /// (durable storage survived the crash). The replica re-arms its
    /// detector and re-joins advertising its last applied log position,
    /// so the primary can ship just the log suffix it missed — falling
    /// back to a snapshot diff or a full transfer only when the outage
    /// outlived the log's retention. A host with nothing parked (never
    /// crashed, or already recovered cold) recovers cold instead.
    fn restart_backup(&mut self, ctx: &mut Context<'_, Event>, host: usize) {
        let rot = self.pending_state_rot.remove(&host);
        let rotted = {
            let Some(h) = self.hosts.get_mut(host) else {
                return;
            };
            if h.backup.is_some() {
                return;
            }
            let Some(mut backup) = h.parked.take() else {
                self.recover_backup(ctx, host);
                return;
            };
            // Scheduled bit rot manifests now, when the durable store is
            // read back: flip one byte in each of the first `flips`
            // retained images (deterministic — part of the fault plan,
            // not the random stream), then audit. The audit quarantines
            // every failing entry and forgets the replica's log
            // position, so the re-join falls down the catch-up ladder to
            // a path that re-ships the quarantined objects.
            let mut rotted = false;
            if let Some((flips, _)) = rot {
                let mut applied = 0u32;
                let ids: Vec<ObjectId> = backup.store().ids().collect();
                for (i, id) in ids.into_iter().enumerate() {
                    if applied == flips {
                        break;
                    }
                    if backup.corrupt_stored_payload(id, i, 1 << (i % 8)) {
                        applied += 1;
                    }
                }
                rotted = !backup.audit_integrity().is_empty();
            }
            h.backup = Some(backup);
            rotted
        };
        let mut at = self.at(ctx, Peer::Backup(host));
        at.rot = rot.filter(|_| rotted).map(|(_, record)| record);
        steps::restart(&mut at, true);
    }

    /// A restarted backup host is about to announce its rejoin: the
    /// restart audit's catch of `rot` (a record) is detected now, and the
    /// restart opens a fault record that the host's catch-up frame closes.
    fn rejoining(&mut self, ctx: &mut Context<'_, Event>, host: usize, rot: Option<usize>) {
        if let Some(record) = rot {
            // Recovery is the catch-up frame that re-ships the
            // quarantined objects.
            self.faults.detect(ctx, record);
            self.faults.watch(Pending::Rot(host), record);
        }
        self.faults.inject(
            ctx,
            InjectedFault::BackupRecovery,
            Watch::Step(Pending::Recovery(host)),
        );
    }

    /// Opens a time-windowed fault of `kind` on the primary→backup data
    /// path of one host (every host if `host` is `None`) for `duration`.
    /// Its record waits for the retransmission requests the window
    /// provokes; the window heals on its own.
    fn data_window_fault(
        &mut self,
        ctx: &mut Context<'_, Event>,
        fault: InjectedFault,
        host: Option<usize>,
        duration: TimeDelta,
        kind: FaultKind,
    ) {
        let from = ctx.now();
        let until = from + duration;
        let record = self
            .faults
            .inject(ctx, fault, Watch::Window { host, until });
        let window = FaultWindow { from, until, kind };
        for (i, h) in self.hosts.iter_mut().enumerate() {
            if host.is_none_or(|only| only == i) {
                h.data_link.push_window(window);
            }
        }
        ctx.schedule_at(until, Event::FaultHealed { record, host });
    }

    /// Perturbs the clock of backup host `host`'s role slot (the
    /// primary's if `None`) and opens the fault's record: the first
    /// timing violation detects it, and the clock is disciplined back
    /// after `duration`.
    fn clock_fault(
        &mut self,
        ctx: &mut Context<'_, Event>,
        fault: InjectedFault,
        host: Option<usize>,
        duration: TimeDelta,
        perturb: impl FnOnce(&mut ClockModel),
    ) {
        let slot = host.map_or(0, |h| 1 + h);
        perturb(self.clock_mut(slot));
        let record = self.faults.inject(ctx, fault, Watch::Clock);
        ctx.schedule_at(
            ctx.now() + duration,
            Event::ClockFaultHealed { record, slot },
        );
    }

    /// Executes one scheduled [`FaultEvent`] at the current instant.
    fn apply_fault(&mut self, ctx: &mut Context<'_, Event>, fault: FaultEvent) {
        let now = ctx.now();
        match fault {
            FaultEvent::CrashPrimary => self.inject_primary_crash(ctx),
            FaultEvent::CrashBackup { host } => self.inject_backup_crash(ctx, host),
            FaultEvent::RecoverBackup { host } => self.recover_backup(ctx, host),
            FaultEvent::RestartBackup { host } => self.restart_backup(ctx, host),
            FaultEvent::Partition { host, duration } => {
                let Some(h) = self.hosts.get_mut(host) else {
                    return;
                };
                let until = now + duration;
                let window = FaultWindow {
                    from: now,
                    until,
                    kind: FaultKind::Outage,
                };
                h.data_link.push_window(window);
                h.ctrl_link.push_window(window);
                h.rev_data_link.push_window(window);
                h.rev_ctrl_link.push_window(window);
                let record = self.faults.inject(
                    ctx,
                    InjectedFault::Partition,
                    Watch::Step(Pending::Partition(host)),
                );
                ctx.schedule_at(
                    until,
                    Event::FaultHealed {
                        record,
                        host: Some(host),
                    },
                );
            }
            FaultEvent::PartitionPrimary { duration } => {
                if self.primary.is_none() {
                    return;
                }
                let until = now + duration;
                let record =
                    self.faults
                        .inject(ctx, InjectedFault::PrimaryPartition, Watch::Caller);
                self.primary_partition = Some((record, until));
                ctx.schedule_at(until, Event::FaultHealed { record, host: None });
            }
            // Plans are declarative data: clamp rather than panic on an
            // out-of-range probability.
            FaultEvent::LossBurst {
                host,
                duration,
                loss,
            } => self.data_window_fault(
                ctx,
                InjectedFault::LossBurst,
                host,
                duration,
                FaultKind::Loss(loss.clamp(0.0, 1.0)),
            ),
            FaultEvent::DelaySpike {
                host,
                duration,
                extra,
            } => self.data_window_fault(
                ctx,
                InjectedFault::DelaySpike,
                host,
                duration,
                FaultKind::DelaySpike(extra),
            ),
            // Corrupted frames are dropped at the receiver's CRC check, so
            // the fault manifests exactly like loss: the retransmission
            // requests it provokes attribute detection, same as a loss
            // burst.
            FaultEvent::CorruptFrame {
                host,
                duration,
                probability,
            } => self.data_window_fault(
                ctx,
                InjectedFault::CorruptFrame,
                host,
                duration,
                FaultKind::Corrupt(probability.clamp(0.0, 1.0)),
            ),
            FaultEvent::SetLoss { loss } => {
                // A sweep knob, not a fault: adjusts the steady-state loss
                // probability on every primary→backup data path without
                // opening a fault record.
                let p = loss.clamp(0.0, 1.0);
                for h in &mut self.hosts {
                    h.data_link.set_loss_probability(p);
                }
            }
            FaultEvent::ClockStep {
                host,
                offset,
                backward,
                duration,
            } => self.clock_fault(ctx, InjectedFault::ClockStep, host, duration, |clock| {
                if backward {
                    clock.step_behind(now, offset);
                } else {
                    clock.step_ahead(now, offset);
                }
            }),
            // Plans are declarative data: clamp a zero denominator rather
            // than panic.
            FaultEvent::ClockDrift {
                host,
                rate_num,
                rate_den,
                duration,
            } => self.clock_fault(ctx, InjectedFault::ClockDrift, host, duration, |clock| {
                clock.set_rate(now, rate_num, rate_den.max(1));
            }),
            FaultEvent::ClockFreeze { host, duration } => {
                self.clock_fault(ctx, InjectedFault::ClockFreeze, host, duration, |clock| {
                    clock.freeze(now);
                });
            }
            FaultEvent::CorruptState { host, flips } => {
                // Bit rot on the durable store is latent: nothing
                // observable happens until the host restarts and reads
                // the rotted images back (see `restart_backup`, where
                // detection is attributed to the recovery audit).
                let record = self
                    .faults
                    .inject(ctx, InjectedFault::CorruptState, Watch::Caller);
                let entry = self.pending_state_rot.entry(host).or_insert((0, record));
                entry.0 += flips;
            }
        }
    }

    fn finish_work(&mut self, ctx: &mut Context<'_, Event>, work: Work) {
        match work {
            Work::ClientWrite {
                object,
                arrival,
                stamp,
            } => {
                let response = ctx.now().saturating_since(arrival);
                // The payload: the write's stamp, big-endian, then zeroes
                // to the object's size.
                let mut payload = std::mem::take(&mut self.write_buf);
                let size = self.loads.get(object).map_or(0, |load| load.size);
                payload.clear();
                payload.resize(size, 0);
                let stamp = stamp.to_be_bytes();
                let n = stamp.len().min(size);
                payload[..n].copy_from_slice(&stamp[..n]);
                let mut at = self.at(ctx, Peer::Primary);
                // Coupled-replication ablation: transmit on every write
                // (the design the paper's decoupling avoids).
                if steps::client_write(&mut at, object, &payload, Some(response)).is_some()
                    && at.world.config.protocol.eager_send
                {
                    steps::send_update(&mut at, object);
                }
                self.write_buf = payload;
            }
            Work::SendUpdate { message } => {
                // The snapshot was taken when the send task ran; by now it
                // may be stale if the CPU was backlogged — transmit as-is.
                if self.primary.is_some() {
                    self.broadcast(ctx, &message);
                }
                self.coalescer.recycle(message);
            }
        }
    }
}

impl World for ClusterWorld {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Context<'_, Event>, event: Event) {
        match event {
            Event::ClientWrite { object } => {
                let Some(&ClientLoad { period, exec, .. }) = self.loads.get(object) else {
                    return;
                };
                // The client samples the environment regardless of server
                // health; a write is lost if no primary is serving.
                ctx.schedule_in(period, Event::ClientWrite { object });
                if self.primary.is_none() {
                    return;
                }
                // Graceful degradation: under CPU overload, shed the
                // lowest-criticality object through the admission pipeline
                // instead of letting every response time diverge.
                let cooled_down = self
                    .last_shed_at
                    .is_none_or(|at| ctx.now() >= at + self.config.protocol.shed_cooldown);
                if self.config.protocol.shed_enabled
                    && cooled_down
                    && self.cpu.backlog() > self.config.protocol.shed_backlog_threshold
                {
                    let shed = self
                        .primary
                        .as_mut()
                        .and_then(Primary::shed_lowest_criticality);
                    if let Some(shed) = shed {
                        ctx.emit(EventKind::ObjectShed { object: shed });
                        self.last_shed_at = Some(ctx.now());
                        self.loads.remove(shed);
                        for h in &mut self.hosts {
                            if let Some(b) = h.backup.as_mut() {
                                b.sync_deregistration(shed);
                            }
                        }
                        if shed == object {
                            return;
                        }
                    }
                }
                self.write_counter += 1;
                let work = Work::ClientWrite {
                    object,
                    arrival: ctx.now(),
                    stamp: self.write_counter,
                };
                self.submit(ctx, work, exec);
            }
            Event::CpuFinished { generation } => {
                // A crash cleared the queue after this completion was
                // scheduled: the item it would complete is gone.
                if generation != self.cpu.generation() {
                    return;
                }
                let (work, next) = self.cpu.complete();
                if let Some(service) = next {
                    ctx.schedule_in(service, Event::CpuFinished { generation });
                }
                self.finish_work(ctx, work);
            }
            Event::Sweep { epoch, slot } => {
                let members = self.sweeps.take(slot);
                if epoch == self.epoch {
                    self.sweep(ctx, &members);
                }
                self.sweeps.release(slot, members);
            }
            // One-shot: no epoch guard. After a failover or re-join the
            // parked ids simply snapshot whatever still exists; objects
            // gone from the store contribute nothing.
            Event::FlushBatch => steps::flush(&mut self.at(ctx, Peer::Primary)),
            Event::PrimaryHeartbeat => {
                ctx.schedule_in(
                    steps::heartbeat_tick(&self.config.protocol),
                    Event::PrimaryHeartbeat,
                );
                steps::primary_heartbeat(&mut self.at(ctx, Peer::Primary));
            }
            Event::BackupHeartbeat => {
                ctx.schedule_in(
                    steps::heartbeat_tick(&self.config.protocol),
                    Event::BackupHeartbeat,
                );
                // Every probe this tick names the primary bound when the
                // tick began, even if a detector promotes a sibling midway.
                let primary = self.names.resolve();
                for i in 0..self.hosts.len() {
                    steps::backup_heartbeat(&mut self.at(ctx, Peer::Backup(i)), primary);
                }
            }
            Event::DeposedTick => {
                if self.deposed.is_none() {
                    return;
                }
                ctx.schedule_in(
                    steps::heartbeat_tick(&self.config.protocol),
                    Event::DeposedTick,
                );
                // The deposed primary probes its last-known cluster; a
                // successor's higher-epoch ping ack is how it learns it
                // was superseded once the partition heals.
                for i in 0..self.hosts.len() {
                    if self.hosts[i].backup.is_none() {
                        continue;
                    }
                    let Some(dep) = self.deposed.as_mut() else {
                        break;
                    };
                    let from = dep.primary.node();
                    let ping = dep.primary.probe_ping();
                    let to = self.hosts[i].node;
                    ctx.emit(EventKind::HeartbeatSent { from, to });
                    self.send(ctx, Peer::Deposed, Peer::Backup(i), &ping);
                }
            }
            Event::Deliver { from, to, frame } => self.deliver(ctx, from, to, &frame),
            Event::Inject { fault } => self.apply_fault(ctx, fault),
            Event::FaultAt { index } => {
                let (_, fault) = self.plan[index];
                self.apply_fault(ctx, fault);
            }
            Event::FaultHealed { record, host } => {
                let now = ctx.now();
                match host {
                    Some(i) => {
                        if let Some(h) = self.hosts.get_mut(i) {
                            h.data_link.expire_windows(now);
                            h.ctrl_link.expire_windows(now);
                            h.rev_data_link.expire_windows(now);
                            h.rev_ctrl_link.expire_windows(now);
                        }
                    }
                    None => {
                        for h in &mut self.hosts {
                            h.data_link.expire_windows(now);
                        }
                    }
                }
                if self.primary_partition.is_some_and(|(r, _)| r == record) {
                    // The cut healed before any backup promoted (or
                    // auto-failover is off): the primary never lost its
                    // role, so restored connectivity is recovery.
                    self.primary_partition = None;
                    self.faults.recover(ctx, record);
                    return;
                }
                if self.deposed.as_ref().is_some_and(|d| d.record == record) {
                    // Split-brain in progress: the record stays open
                    // until the deposed primary demotes and resyncs into
                    // the successor's cluster.
                    return;
                }
                self.faults.window_closed(ctx, record);
            }
            Event::ClockFaultHealed { record, slot } => {
                // Clock discipline snaps the slot's local reading back
                // onto the global timeline. The *fault* is over, but a
                // monitor degraded by it stays pessimistic until the
                // envelope holds for the full quiet period.
                let now = ctx.now();
                self.clock_mut(slot).heal(now);
                self.faults.clock_healed(ctx, record);
            }
            Event::RecruitBackup => {
                if self.primary.is_none() || self.live_backup_count() > 0 {
                    return;
                }
                let node = NodeId::new(self.next_node);
                self.next_node += 1;
                ctx.emit(EventKind::RoleTransition {
                    node,
                    from: Role::Down,
                    to: Role::Joining,
                });
                let index = self.hosts.len();
                let mut host = BackupHost::new(node, index, &self.config);
                // Registry sync rides the (reliable) control channel; the
                // object *state* arrives via the StateTransfer reply to
                // the join request.
                let registry = self.serving().registry();
                let local = self.backup_local(index, ctx.now());
                let join = host.backup.as_mut().map(|backup| {
                    backup.sync_registry(&registry, local);
                    backup.begin_join(local)
                });
                self.hosts.push(host);
                if let Some(join) = join {
                    self.send(ctx, Peer::Backup(index), Peer::Primary, &join);
                }
            }
        }
    }
}

/// Files `member`'s next firing, `after` from now, and schedules the
/// sweep of the group it opens, if it opens one.
fn file(
    sweeps: &mut Sweeps,
    ctx: &mut Context<'_, Event>,
    epoch: u32,
    member: SweepMember,
    after: TimeDelta,
) {
    let due = ctx.now() + after;
    if let Some(slot) = sweeps.file(member, due, epoch, ctx.scheduled()) {
        ctx.schedule_at(due, Event::Sweep { epoch, slot });
    }
}

/// One host of the simulated cluster running a [`steps`] step: the
/// world, the event context, the host and the sender of the frame the
/// step handles.
struct At<'a, 'c> {
    world: &'a mut ClusterWorld,
    ctx: &'a mut Context<'c, Event>,
    host: Peer,
    sender: Peer,
    /// The fault record of store rot a durable restart's audit caught,
    /// detected when the rejoin is announced.
    rot: Option<usize>,
}

impl Driver for At<'_, '_> {
    fn now(&self) -> Time {
        self.ctx.now()
    }

    fn local(&self) -> Time {
        let now = self.ctx.now();
        match self.host {
            Peer::Primary => self.world.primary_local(now),
            Peer::Backup(i) => self.world.backup_local(i, now),
            // A deposed ex-primary holds no clock slot: clock faults
            // address the primary role and the backup hosts.
            Peer::Deposed => now,
        }
    }

    fn instruments(&self) -> &Instruments {
        &self.world.instruments
    }

    fn ledger(&mut self, feed: impl FnOnce(&mut ClusterMetrics)) {
        feed(&mut self.world.metrics);
    }

    fn ledger_replica(&self) -> bool {
        matches!(self.host, Peer::Backup(i) if self.world.metrics_host() == Some(i))
    }

    fn emit(&mut self, kind: EventKind) {
        self.ctx.emit(kind);
    }

    fn primary(&mut self) -> Option<&mut Primary> {
        match self.host {
            Peer::Primary => self.world.primary.as_mut(),
            Peer::Deposed => self.world.deposed.as_mut().map(|d| &mut d.primary),
            Peer::Backup(_) => None,
        }
    }

    fn backup(&mut self) -> Option<&mut Backup> {
        match self.host {
            Peer::Backup(i) => self.world.hosts.get_mut(i)?.backup.as_mut(),
            _ => None,
        }
    }

    fn coalescer(&mut self) -> &mut Coalescer {
        &mut self.world.coalescer
    }

    /// Update transmissions consume primary CPU (under overload they
    /// queue too: there is no free path to the backups); everything else
    /// goes straight to its link.
    fn send(&mut self, route: Route, msg: WireMessage) {
        let world = &mut *self.world;
        let protocol = &world.config.protocol;
        let (to, cost) = match route {
            Route::Primary => (Peer::Primary, None),
            Route::Node(node) => match world.hosts.iter().position(|h| h.node == node) {
                Some(i) => (Peer::Backup(i), None),
                None => return,
            },
            Route::Update(object) => {
                let size = world.loads.get(object).map_or(64, |load| load.size);
                (Peer::Primary, Some(protocol.send_cost(size)))
            }
            Route::Batch => (Peer::Primary, Some(protocol.send_cost(msg.encoded_len()))),
            Route::Reply if self.host == Peer::Primary => {
                let cost = matches!(msg, WireMessage::Update { .. })
                    .then(|| protocol.send_cost(msg.encoded_len()));
                (self.sender, cost)
            }
            Route::Reply => {
                // A resync request from a live backup that is neither a
                // demoted ex-primary nor already mid-repair is the scrub
                // check kicking off anti-entropy (DESIGN.md §15).
                if let (Peer::Backup(host), WireMessage::ResyncRequest { versions, .. }) =
                    (self.host, &msg)
                {
                    if self.sender != Peer::Deposed
                        && world.faults.pending(Pending::Resync(host)).is_none()
                        && world.scrub_repair.insert(host)
                    {
                        self.ctx.emit(EventKind::ResyncStarted {
                            node: world.hosts[host].node,
                            objects: versions.len() as u64,
                        });
                    }
                }
                // Replies go back to the sender: a frame from the deposed
                // primary is answered there (the reply carries this
                // replica's newer epoch), not at the serving primary.
                (self.sender, None)
            }
        };
        match cost {
            Some(cost) => world.submit(self.ctx, Work::SendUpdate { message: msg }, cost),
            None => world.send(self.ctx, self.host, to, &msg),
        }
    }

    fn arm_flush(&mut self, after: TimeDelta) {
        self.ctx.schedule_in(after, Event::FlushBatch);
    }

    fn react(&mut self, fact: Fact) {
        let (world, ctx) = (&mut *self.world, &mut *self.ctx);
        match (fact, self.host, self.sender) {
            (Fact::TimingViolation, ..) => world.faults.timing_violation(ctx),
            (Fact::RetransmitRequested, _, Peer::Backup(host)) => {
                world.faults.retransmit_requested(ctx, host);
            }
            (Fact::CatchUpPlanned(plan), ..) => world.catch_up_plans.push(plan),
            (Fact::CatchUpLanded { .. }, Peer::Backup(host), _) => {
                world.catch_up_landed(ctx, host);
            }
            (Fact::PeerDead { peer }, Peer::Primary, _) => world.backup_declared_dead(ctx, peer),
            (Fact::PeerDead { .. }, Peer::Backup(host), _) => {
                world.primary_declared_dead(ctx, host);
            }
            (Fact::BackupJoined { .. }, _, Peer::Backup(host)) => world.backup_joined(ctx, host),
            (Fact::JoinRetried, Peer::Backup(host), _) => world.faults.join_retried(host),
            (Fact::Rejoining, Peer::Backup(host), _) => world.rejoining(ctx, host, self.rot),
            _ => {}
        }
    }
}

impl std::fmt::Debug for ClusterWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterWorld")
            .field("objects", &self.loads.len())
            .field("backups", &self.live_backup_count())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

/// A simulated RTPB cluster: one primary, one or more backups, one client
/// workload, lossy links, full metrics.
///
/// # Examples
///
/// ```
/// use rtpb_core::harness::{ClusterConfig, SimCluster};
/// use rtpb_types::{ObjectSpec, TimeDelta};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cluster = SimCluster::new(ClusterConfig::default());
/// let spec = ObjectSpec::builder("altitude")
///     .update_period(TimeDelta::from_millis(100))
///     .primary_bound(TimeDelta::from_millis(150))
///     .backup_bound(TimeDelta::from_millis(550))
///     .build()?;
/// let id = cluster.register(spec)?;
/// cluster.run_for(TimeDelta::from_secs(2));
/// let report = cluster.metrics().object_report(id).expect("tracked");
/// assert!(report.writes > 0);
/// assert_eq!(report.backup_violations, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimCluster {
    sim: Simulation<ClusterWorld>,
}

impl SimCluster {
    /// Builds a cluster and starts its heartbeat machinery at time zero.
    ///
    /// # Panics
    ///
    /// Panics if the protocol or link configuration is invalid, or
    /// `num_backups` is zero.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        assert!(config.num_backups >= 1, "need at least one backup");
        let primary_node = NodeId::new(0);
        let mut primary = Primary::new(primary_node, config.protocol.clone());
        let hosts: Vec<BackupHost> = (0..config.num_backups)
            .map(|i| {
                let node = NodeId::new(1 + i as u16);
                primary.add_backup(node, Time::ZERO);
                BackupHost::new(node, i, &config)
            })
            .collect();
        let next_node = 1 + config.num_backups as u16;
        let plan = config.fault_plan.events();
        let instruments = Instruments::from_registry(&config.registry);
        let faults = FaultLedger::new(&config.registry);
        let world = ClusterWorld {
            primary: Some(primary),
            deposed: None,
            hosts,
            cpu: CpuQueue::new(),
            metrics: ClusterMetrics::new(),
            instruments,
            names: NameService::new(primary_node),
            loads: IdTable::default(),
            epoch: 0,
            sweeps: Sweeps::default(),
            next_node,
            write_counter: 0,
            write_buf: Vec::new(),
            corrupt_messages: 0,
            plan,
            faults,
            primary_partition: None,
            last_shed_at: None,
            coalescer: Coalescer::default(),
            catch_up_plans: Vec::new(),
            send_pool: FramePool::new(),
            clocks: Vec::new(),
            pending_state_rot: BTreeMap::new(),
            scrub_repair: BTreeSet::new(),
            config,
        };
        let seed = world.config.seed;
        let observer = world.config.bus.writer();
        let schedule: Vec<Time> = world.plan.iter().map(|&(at, _)| at).collect();
        let mut sim = Simulation::new(world, seed).with_observer(observer);
        sim.schedule_at(Time::ZERO, Event::PrimaryHeartbeat);
        sim.schedule_at(Time::ZERO, Event::BackupHeartbeat);
        for (index, at) in schedule.into_iter().enumerate() {
            sim.schedule_at(at, Event::FaultAt { index });
        }
        SimCluster { sim }
    }

    /// Registers an object. The [`ObjectSpec`] is the single entry point
    /// for everything about the object, including inter-object
    /// constraints ([`ObjectSpec::with_constraints`] or the builder's
    /// `constraint`, §3, §4.2).
    ///
    /// # Errors
    ///
    /// Propagates the primary's admission decision; on rejection nothing
    /// is registered anywhere.
    pub fn register(&mut self, spec: ObjectSpec) -> Result<ObjectId, AdmissionError> {
        self.register_many(vec![spec]).map(|ids| ids[0])
    }

    /// Registers a batch of objects in one pass.
    ///
    /// Semantically equivalent to calling [`SimCluster::register`] per
    /// spec, but the backup registry mirror and the object-timer restart
    /// run once for the whole batch instead of once per object. Together
    /// with the primary's incremental admission (O(log n) per object
    /// without constraints under the utilization tests) a batch of n
    /// objects registers in O(n log n), which is what makes 10k-object
    /// runs feasible.
    ///
    /// # Errors
    ///
    /// Stops at the first rejected spec and propagates its admission
    /// error; objects admitted before it stay registered.
    pub fn register_many(
        &mut self,
        specs: Vec<ObjectSpec>,
    ) -> Result<Vec<ObjectId>, AdmissionError> {
        let mut ids = Vec::with_capacity(specs.len());
        let mut rejected = None;
        for spec in specs {
            match self.admit_one(spec) {
                Ok(id) => ids.push(id),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        if !ids.is_empty() {
            self.mirror_registry_to_backups();
            // Registration may have retimed every object (constraints,
            // compression): restart all object timers under a fresh
            // epoch.
            self.sim
                .with_context(|world, ctx| world.restart_object_timers(ctx));
        }
        match rejected {
            Some(e) => Err(e),
            None => Ok(ids),
        }
    }

    /// Admits one object at the primary and tracks it in the harness;
    /// the backup mirror and timer restart are the caller's problem
    /// (batched in [`SimCluster::register_many`]).
    fn admit_one(&mut self, spec: ObjectSpec) -> Result<ObjectId, AdmissionError> {
        let now = self.sim.now();
        let load = ClientLoad {
            period: spec.update_period(),
            exec: spec.exec_time(),
            size: spec.size_bytes(),
        };
        let (window, primary_bound, backup_bound) =
            (spec.window(), spec.primary_bound(), spec.backup_bound());
        let admitted = {
            let world = self.sim.world_mut();
            match world.primary.as_mut() {
                None => Err(AdmissionError::ServiceUnavailable),
                Some(primary) => primary.register(spec, now),
            }
        };
        let id = match admitted {
            Ok(id) => {
                self.sim.emit(EventKind::AdmissionDecision {
                    object: id,
                    admitted: true,
                    reason: String::new(),
                });
                id
            }
            Err(e) => {
                // Rejected objects never receive an id; the sentinel
                // marks the decision as id-less in the trace.
                self.sim.emit(EventKind::AdmissionDecision {
                    object: ObjectId::new(u32::MAX),
                    admitted: false,
                    reason: e.to_string(),
                });
                return Err(e);
            }
        };
        let write_phase = {
            let world = self.sim.world_mut();
            world.loads.insert(id, load);
            world
                .metrics
                .track_object(id, window, primary_bound, backup_bound);
            // Deterministic phase stagger spreads client writes so they
            // do not all hit the CPU in one burst.
            let stagger = TimeDelta::from_micros(997 * (u64::from(id.index()) + 1));
            stagger % load.period
        };
        self.sim
            .schedule_in(write_phase, Event::ClientWrite { object: id });
        Ok(id)
    }

    /// Mirrors the new registrations (space reservation, §4.2) and the
    /// recomputed periods of every object to every backup.
    fn mirror_registry_to_backups(&mut self) {
        let now = self.sim.now();
        let world = self.sim.world_mut();
        let registry = world.serving().registry();
        for i in 0..world.hosts.len() {
            let local = world.backup_local(i, now);
            if let Some(backup) = world.hosts[i].backup.as_mut() {
                backup.sync_registry(&registry, local);
            }
        }
    }

    /// Advances the cluster by `span` of virtual time.
    pub fn run_for(&mut self, span: TimeDelta) {
        self.sim.run_for(span);
    }

    /// Applies a client write at the serving primary, routed through the
    /// name service — the synchronous write path behind
    /// [`RtpbClient::write`](crate::client::RtpbClient::write).
    ///
    /// Unlike the cluster's own periodic write load (which crosses the
    /// CPU queue and feeds the response-time distribution), facade
    /// writes complete in zero virtual time; they count in
    /// `cluster.client_writes` and the per-object metrics but do not
    /// perturb the response-time histogram.
    pub(crate) fn client_write(
        &mut self,
        object: ObjectId,
        payload: &[u8],
    ) -> Result<(Version, LogPosition), WriteError> {
        self.sim.with_context(|world, ctx| {
            if !world.loads.contains(object) {
                return Err(WriteError::UnknownObject(object));
            }
            let serving = world.names.resolve();
            if world.primary.as_ref().is_none_or(|p| p.node() != serving) {
                return Err(WriteError::Unavailable);
            }
            let version =
                steps::client_write(&mut world.at(ctx, Peer::Primary), object, payload, None)
                    .ok_or(WriteError::Unavailable)?;
            Ok((version, world.serving().position()))
        })
    }

    /// Routes a client read — the path behind
    /// [`RtpbClient::read`](crate::client::RtpbClient::read).
    ///
    /// Strong reads go straight to the serving primary. Every other
    /// level tries the read-eligible backups least-loaded-first (a host
    /// is eligible when its replica is live, not mid-join, and not
    /// inside a crash-recovery or resync window); a backup behind the
    /// session floor or over the staleness bound is skipped, and when
    /// no replica qualifies the read redirects to the primary.
    ///
    /// On success also returns the server's applied [`LogPosition`]
    /// (when it reported one) so the caller can advance its session
    /// token's high-water mark.
    pub(crate) fn client_read(
        &mut self,
        object: ObjectId,
        consistency: &ReadConsistency,
        floor: Option<LogPosition>,
    ) -> Result<(ReadOutcome, Option<LogPosition>), ReadError> {
        enum Routed {
            Replica {
                served_by: NodeId,
                payload: Vec<u8>,
                certificate: StalenessCertificate,
                position: Option<LogPosition>,
            },
            Redirect {
                primary: NodeId,
                payload: Vec<u8>,
                certificate: StalenessCertificate,
                position: Option<LogPosition>,
                reason: &'static str,
            },
        }
        let now = self.sim.now();
        let routed = {
            let world = self.sim.world_mut();
            if !world.loads.contains(object) {
                return Err(ReadError::UnknownObject(object));
            }
            let mut chosen = None;
            let mut saw_eligible = false;
            let mut saw_behind = false;
            let mut saw_bound_unmet = false;
            let mut saw_unsound = false;
            if !matches!(consistency, ReadConsistency::Strong) {
                // Least-loaded first: each pass picks the eligible host
                // with the least key above the previous pick's. Nothing
                // in the loop changes a key, and keys are unique (they end
                // in the index), so this is the sorted order without
                // collecting it. The first pick usually serves.
                let mut last = None;
                while let Some(key) = (0..world.hosts.len())
                    .filter(|&i| world.read_eligible(i))
                    .map(|i| {
                        let h = &world.hosts[i];
                        (h.busy_until.max(now), h.reads_served, i)
                    })
                    .filter(|&key| last < Some(key))
                    .min()
                {
                    last = Some(key);
                    saw_eligible = true;
                    let i = key.2;
                    let local = world.backup_local(i, now);
                    let Some(backup) = world.hosts[i].backup.as_ref() else {
                        continue;
                    };
                    match backup.serve_read(object, floor, local) {
                        BackupRead::Served {
                            payload,
                            certificate,
                            position,
                        } => {
                            if let ReadConsistency::Bounded(bound) = consistency {
                                if !certificate.respects(*bound) {
                                    saw_bound_unmet = true;
                                    continue;
                                }
                            }
                            chosen = Some((i, payload, certificate, position));
                            break;
                        }
                        BackupRead::Behind { .. } => saw_behind = true,
                        BackupRead::Unknown => {}
                        BackupRead::Unsound { .. } => saw_unsound = true,
                    }
                }
            }
            if let Some((i, payload, certificate, position)) = chosen {
                let cost = world.config.protocol.read_cost(payload.len());
                let host = &mut world.hosts[i];
                let start = host.busy_until.max(now);
                host.busy_until = start + cost;
                host.reads_served += 1;
                let latency = start.saturating_since(now) + cost;
                world.instruments.reads_served.inc();
                world.instruments.read_latency.record(latency);
                Routed::Replica {
                    served_by: world.hosts[i].node,
                    payload,
                    certificate,
                    position,
                }
            } else {
                let reason = if matches!(consistency, ReadConsistency::Strong) {
                    "strong"
                } else if !saw_eligible {
                    "no_replica"
                } else if saw_unsound {
                    // An explicit unsound refusal: the replica's clock
                    // evidence disqualified its certificates (§14).
                    "unsound"
                } else if saw_bound_unmet {
                    "bound_unmet"
                } else if saw_behind {
                    "behind_floor"
                } else {
                    "not_replicated"
                };
                let serving = world.names.resolve();
                let Some(primary) = world.primary.as_ref().filter(|p| p.node() == serving) else {
                    return Err(ReadError::Unavailable);
                };
                match primary.serve_read(object, world.primary_local(now)) {
                    Some(read) => {
                        let cost = world.config.protocol.read_cost(read.payload.len());
                        // A redirected read pays the round trip to the
                        // primary on top of the service cost.
                        let latency = cost + world.config.protocol.link_delay_bound * 2;
                        if matches!(consistency, ReadConsistency::Strong) {
                            world.instruments.reads_served.inc();
                        } else {
                            world.instruments.read_redirects.inc();
                        }
                        world.instruments.read_latency.record(latency);
                        Routed::Redirect {
                            primary: primary.node(),
                            payload: read.payload,
                            certificate: read.certificate,
                            position: Some(read.position),
                            reason,
                        }
                    }
                    None => {
                        // A temporally degraded primary refuses with the
                        // explicit unsound error — no sound certificate
                        // can be minted anywhere right now. Otherwise:
                        // registered but never written is the caller's
                        // bug (`NoValue`); a gate-refused primary is the
                        // cluster's problem (`Unavailable`).
                        if primary.monitor().is_degraded() {
                            return Err(ReadError::Unsound);
                        }
                        let never_written = primary
                            .store()
                            .get(object)
                            .is_some_and(|e| e.value().is_none());
                        return Err(if never_written {
                            ReadError::NoValue(object)
                        } else {
                            ReadError::Unavailable
                        });
                    }
                }
            }
        };
        match routed {
            Routed::Replica {
                served_by,
                payload,
                certificate,
                position,
            } => {
                self.sim.emit(EventKind::ReadServed {
                    object,
                    served_by,
                    version: certificate.version,
                    age_bound: certificate.age_bound,
                    consistency: consistency.name(),
                });
                Ok((
                    ReadOutcome::Replica {
                        served_by,
                        payload,
                        certificate,
                    },
                    position,
                ))
            }
            Routed::Redirect {
                primary,
                payload,
                certificate,
                position,
                reason,
            } => {
                if matches!(consistency, ReadConsistency::Strong) {
                    self.sim.emit(EventKind::ReadServed {
                        object,
                        served_by: primary,
                        version: certificate.version,
                        age_bound: certificate.age_bound,
                        consistency: consistency.name(),
                    });
                    Ok((
                        ReadOutcome::Replica {
                            served_by: primary,
                            payload,
                            certificate,
                        },
                        position,
                    ))
                } else {
                    self.sim.emit(EventKind::ReadRedirected {
                        object,
                        primary,
                        consistency: consistency.name(),
                        reason,
                    });
                    Ok((
                        ReadOutcome::Redirect {
                            primary,
                            payload,
                            certificate,
                        },
                        position,
                    ))
                }
            }
        }
    }

    /// Per-host read-service telemetry, in host order:
    /// `(node, live, reads_served, busy_until)`. The bench's scaling
    /// model reads the drain instants from here.
    #[must_use]
    pub fn read_load(&self) -> Vec<(NodeId, bool, u64, Time)> {
        self.sim
            .world()
            .hosts
            .iter()
            .map(|h| (h.node, h.backup.is_some(), h.reads_served, h.busy_until))
            .collect()
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Events the simulator has dispatched so far
    /// ([`Simulation::events_handled`]).
    #[must_use]
    pub fn events_handled(&self) -> u64 {
        self.sim.events_handled()
    }

    /// Live metrics (open inconsistency episodes not yet closed; see
    /// [`SimCluster::report`]).
    #[must_use]
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.sim.world().metrics
    }

    /// A finalized snapshot of the metrics as of now (open episodes
    /// closed). The live cluster is unaffected.
    #[must_use]
    pub fn report(&self) -> ClusterMetrics {
        let mut snapshot = self.sim.world().metrics.clone();
        snapshot.finalize(self.now());
        snapshot
    }

    /// Injects one [`FaultEvent`] at the current instant — the single
    /// entry point for ad-hoc fault injection, taking the same event
    /// vocabulary as a scheduled [`FaultPlan`]
    /// ([`ClusterConfig::fault_plan`]). Crash, recovery, partition, and
    /// burst faults are tracked in [`SimCluster::fault_report`];
    /// [`FaultEvent::SetLoss`] is a sweep knob and opens no record.
    pub fn inject(&mut self, fault: FaultEvent) {
        self.sim
            .schedule_in(TimeDelta::ZERO, Event::Inject { fault });
    }

    /// Per-fault lifecycle records (injection, detection, recovery,
    /// retries) for every fault injected so far — manually or via
    /// [`ClusterConfig::fault_plan`].
    #[must_use]
    pub fn fault_report(&self) -> &[FaultRecord] {
        self.sim.world().faults.records()
    }

    /// Every catch-up decision the serving primary made this run, in
    /// order — which of the three re-integration paths served each
    /// rejoin/resync, and at what gap/record/byte cost. Unlike the
    /// `catch_up_plan` events on the bounded trace ring, this list is
    /// never evicted.
    #[must_use]
    pub fn catch_up_plans(&self) -> &[CatchUpDecision] {
        &self.sim.world().catch_up_plans
    }

    /// Whether a failover has occurred.
    #[must_use]
    pub fn has_failed_over(&self) -> bool {
        self.sim.world().names.failover_count() > 0
    }

    /// The name service (binding history).
    #[must_use]
    pub fn name_service(&self) -> &NameService {
        &self.sim.world().names
    }

    /// The serving primary, if any.
    #[must_use]
    pub fn primary(&self) -> Option<&Primary> {
        self.sim.world().primary.as_ref()
    }

    /// The deposed primary still running on the minority side of a
    /// split-brain partition, if any. `None` before any split-brain
    /// promotion and again after the deposed primary demotes itself.
    #[must_use]
    pub fn deposed_primary(&self) -> Option<&Primary> {
        self.sim.world().deposed.as_ref().map(|d| &d.primary)
    }

    /// The serving primary's fencing epoch ([`Epoch`]), if a primary
    /// serves.
    #[must_use]
    pub fn fencing_epoch(&self) -> Option<Epoch> {
        self.sim.world().primary.as_ref().map(Primary::epoch)
    }

    /// The first live backup, if any.
    #[must_use]
    pub fn backup(&self) -> Option<&Backup> {
        let world = self.sim.world();
        world
            .metrics_host()
            .and_then(|i| world.hosts[i].backup.as_ref())
    }

    /// All live backups, in host order.
    #[must_use]
    pub fn backups(&self) -> Vec<&Backup> {
        self.sim
            .world()
            .hosts
            .iter()
            .filter_map(|h| h.backup.as_ref())
            .collect()
    }

    /// Frames dropped on arrival because they failed to parse: in
    /// practice an in-transit bit flip, caught by the CRC32C trailer
    /// before any field is read.
    #[must_use]
    pub fn corrupt_messages(&self) -> u64 {
        self.sim.world().corrupt_messages
    }

    /// Fault-injection hook: silently flips `mask` into host `host`'s
    /// stored image of `id`, with no restart and no audit — latent rot
    /// for the background scrubber (DESIGN.md §15) to find. Returns
    /// whether the host held a value to corrupt.
    pub fn rot_backup_store(&mut self, host: usize, id: ObjectId, byte: usize, mask: u8) -> bool {
        self.sim
            .world_mut()
            .hosts
            .get_mut(host)
            .and_then(|h| h.backup.as_mut())
            .is_some_and(|b| b.corrupt_stored_payload(id, byte, mask))
    }

    /// The send pool's statistics as `(outstanding, issued, reuses)`:
    /// kept frames a link or queued arrival still holds, frames encoded,
    /// and frames written into a reused buffer. A frame outlives its send
    /// until its last arrival lands, so `outstanding` reads zero only
    /// once no frame is in flight: the invariant the pool leak test pins
    /// after a seeded chaos run.
    #[must_use]
    pub fn send_pool_stats(&self) -> (u64, u64, u64) {
        let pool = &self.sim.world().send_pool;
        (pool.outstanding(), pool.issued(), pool.reuses())
    }

    /// The current CPU backlog at the primary host (writes + sends
    /// queued).
    #[must_use]
    pub fn cpu_backlog(&self) -> usize {
        self.sim.world().cpu.backlog()
    }

    /// The structured-event bus this cluster emits onto (disabled unless
    /// [`ClusterConfig::bus`] was set).
    #[must_use]
    pub fn bus(&self) -> &EventBus {
        &self.sim.world().config.bus
    }

    /// The metrics registry (disabled unless [`ClusterConfig::registry`]
    /// was set).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.sim.world().config.registry
    }

    /// Exports the structured event stream as JSONL, events sorted by
    /// `(virtual time, sequence)`. Empty on a disabled bus.
    #[must_use]
    pub fn export_jsonl(&self) -> String {
        self.sim.world().config.bus.export_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulingMode;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn spec(period: u64, dp: u64, db: u64) -> ObjectSpec {
        ObjectSpec::builder("obj")
            .update_period(ms(period))
            .primary_bound(ms(dp))
            .backup_bound(ms(db))
            .build()
            .unwrap()
    }

    #[test]
    fn lossless_run_keeps_backup_consistent() {
        let mut cluster = SimCluster::new(ClusterConfig::default());
        let id = cluster.register(spec(100, 150, 550)).unwrap();
        cluster.run_for(TimeDelta::from_secs(5));
        let report = cluster.metrics().object_report(id).unwrap();
        assert!(report.writes >= 48, "writes: {}", report.writes);
        assert!(report.applies > 0);
        assert_eq!(report.backup_violations, 0);
        assert_eq!(report.window_episodes, 0);
        assert_eq!(report.inconsistency_episodes, 0);
        assert_eq!(report.primary_violations, 0);
        assert_eq!(cluster.corrupt_messages(), 0);
        // Distance bounded by the window (Theorem 5 with 2× slack).
        assert!(report.max_distance <= report.window);
    }

    #[test]
    fn responses_are_fast_under_admission_control() {
        let mut cluster = SimCluster::new(ClusterConfig::default());
        for _ in 0..4 {
            cluster.register(spec(100, 150, 550)).unwrap();
        }
        cluster.run_for(TimeDelta::from_secs(5));
        let mean = cluster.metrics().response_times().mean().unwrap();
        assert!(
            mean < ms(5),
            "admitted load must respond quickly, got {mean}"
        );
    }

    #[test]
    fn loss_increases_distance() {
        let run = |loss: f64| {
            let mut config = ClusterConfig::default();
            config.link.loss_probability = loss;
            let mut cluster = SimCluster::new(config);
            for _ in 0..4 {
                cluster.register(spec(100, 150, 550)).unwrap();
            }
            cluster.run_for(TimeDelta::from_secs(30));
            cluster.report().average_max_distance().unwrap()
        };
        let clean = run(0.0);
        let lossy = run(0.15);
        assert!(
            lossy > clean,
            "distance must grow with loss: clean {clean}, lossy {lossy}"
        );
    }

    #[test]
    fn retransmit_requests_fire_under_loss() {
        let mut config = ClusterConfig::default();
        config.link.loss_probability = 0.4;
        let mut cluster = SimCluster::new(config);
        cluster.register(spec(100, 150, 550)).unwrap();
        cluster.run_for(TimeDelta::from_secs(20));
        assert!(cluster.metrics().retransmit_requests() > 0);
    }

    #[test]
    fn primary_crash_triggers_failover() {
        let mut cluster = SimCluster::new(ClusterConfig::default());
        let id = cluster.register(spec(100, 150, 550)).unwrap();
        cluster.run_for(TimeDelta::from_secs(2));
        let writes_before = cluster.metrics().object_report(id).unwrap().writes;
        cluster.inject(FaultEvent::CrashPrimary);
        cluster.run_for(TimeDelta::from_secs(2));
        assert!(cluster.has_failed_over());
        assert_eq!(cluster.name_service().resolve(), NodeId::new(1));
        // The promoted primary serves client writes.
        let writes_after = cluster.metrics().object_report(id).unwrap().writes;
        assert!(
            writes_after > writes_before,
            "promoted primary must serve writes ({writes_before} → {writes_after})"
        );
        // State carried over: the object survived with its spec.
        let primary = cluster.primary().unwrap();
        assert_eq!(primary.node(), NodeId::new(1));
        assert!(primary.store().get(id).is_some());
        assert!(cluster.metrics().failover_duration().is_some());
    }

    #[test]
    fn backup_crash_cancels_updates_then_recruit_restores_replication() {
        let config = ClusterConfig {
            recruit_backup_after: Some(TimeDelta::from_millis(500)),
            ..ClusterConfig::default()
        };
        let mut cluster = SimCluster::new(config);
        let id = cluster.register(spec(100, 150, 550)).unwrap();
        cluster.run_for(TimeDelta::from_secs(2));
        cluster.inject(FaultEvent::CrashBackup { host: 0 });
        cluster.run_for(TimeDelta::from_secs(1));
        // New backup recruited and receiving state.
        let backup = cluster.backup().expect("recruited");
        assert_eq!(backup.node(), NodeId::new(2));
        cluster.run_for(TimeDelta::from_secs(2));
        let applies = cluster.backup().unwrap().updates_applied();
        assert!(applies > 0, "new backup must receive updates");
        assert!(cluster.metrics().object_report(id).unwrap().applies > 0);
    }

    #[test]
    fn compressed_mode_sends_more_often() {
        let run = |mode: SchedulingMode| {
            let mut config = ClusterConfig::default();
            config.protocol.scheduling_mode = mode;
            let mut cluster = SimCluster::new(config);
            for _ in 0..4 {
                cluster.register(spec(100, 150, 550)).unwrap();
            }
            cluster.run_for(TimeDelta::from_secs(5));
            cluster.metrics().updates_sent()
        };
        let normal = run(SchedulingMode::Normal);
        let compressed = run(SchedulingMode::Compressed);
        assert!(
            compressed > normal * 2,
            "compressed ({compressed}) must send far more than normal ({normal})"
        );
    }

    #[test]
    fn without_admission_response_time_degrades_at_scale() {
        let run = |admission: bool, n: usize| {
            let mut config = ClusterConfig::default();
            config.protocol.admission_enabled = admission;
            // Make sends expensive enough that many objects overload the
            // CPU.
            config.protocol.send_cost_base = TimeDelta::from_millis(2);
            let mut cluster = SimCluster::new(config);
            let mut registered = 0;
            for _ in 0..n {
                if cluster.register(spec(100, 150, 250)).is_ok() {
                    registered += 1;
                }
            }
            cluster.run_for(TimeDelta::from_secs(10));
            (
                registered,
                cluster.metrics().response_times().mean().unwrap(),
            )
        };
        let (with_n, with_mean) = run(true, 48);
        let (without_n, without_mean) = run(false, 48);
        assert!(with_n < 48, "admission must reject some of the 48");
        assert_eq!(without_n, 48, "disabled admission accepts everything");
        assert!(
            without_mean > with_mean * 10,
            "overload must blow up response time ({with_mean} vs {without_mean})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut config = ClusterConfig::default();
            config.link.loss_probability = 0.1;
            config.seed = 1234;
            let mut cluster = SimCluster::new(config);
            let id = cluster.register(spec(100, 150, 550)).unwrap();
            cluster.run_for(TimeDelta::from_secs(10));
            let r = cluster.metrics().object_report(id).unwrap();
            (r.writes, r.applies, r.max_distance)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn planned_backup_crash_and_recovery_are_tracked() {
        use crate::harness::faults::{FaultEvent, FaultPlan};
        use crate::metrics::InjectedFault;
        let config = ClusterConfig {
            auto_failover: false,
            fault_plan: FaultPlan::new()
                .at(
                    Time::from_millis(1_000),
                    FaultEvent::CrashBackup { host: 0 },
                )
                .at(
                    Time::from_millis(2_000),
                    FaultEvent::RecoverBackup { host: 0 },
                ),
            ..ClusterConfig::default()
        };
        let mut cluster = SimCluster::new(config);
        cluster.register(spec(100, 150, 550)).unwrap();
        cluster.run_for(TimeDelta::from_secs(5));
        let report = cluster.fault_report();
        assert_eq!(report.len(), 2);
        let crash = &report[0];
        assert_eq!(crash.kind, InjectedFault::BackupCrash);
        assert_eq!(crash.injected_at, Time::from_millis(1_000));
        assert!(crash.detection_latency().is_some(), "crash undetected");
        let recovery = &report[1];
        assert_eq!(recovery.kind, InjectedFault::BackupRecovery);
        assert!(
            recovery.recovery_time().is_some(),
            "state transfer never landed"
        );
        assert!(crash.recovery_time().is_some(), "rejoin not attributed");
        // The recovered replica receives updates again.
        let backup = cluster.backup().expect("recovered backup");
        assert!(backup.updates_applied() > 0);
        assert!(!backup.join_in_progress());
    }

    #[test]
    fn restarted_backup_catches_up_from_its_log_position() {
        use crate::harness::faults::{FaultEvent, FaultPlan};
        let config = ClusterConfig {
            auto_failover: false,
            bus: EventBus::with_capacity(65_536),
            fault_plan: FaultPlan::new()
                .at(
                    Time::from_millis(1_000),
                    FaultEvent::CrashBackup { host: 0 },
                )
                .at(
                    Time::from_millis(1_400),
                    FaultEvent::RestartBackup { host: 0 },
                ),
            ..ClusterConfig::default()
        };
        let bus = config.bus.clone();
        let mut cluster = SimCluster::new(config);
        cluster.register(spec(100, 150, 550)).unwrap();
        cluster.run_for(TimeDelta::from_secs(4));
        // The restarted replica kept its durable state: it rejoined and
        // receives updates again.
        let backup = cluster.backup().expect("restarted backup");
        assert!(!backup.join_in_progress());
        assert!(backup.updates_applied() > 0);
        assert!(backup.log_position().is_some());
        // The primary chose the short-gap path: a log suffix, not a full
        // state transfer.
        let plans: Vec<_> = bus
            .collect()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::CatchUpPlan { path, gap, .. } => Some((path, gap)),
                _ => None,
            })
            .collect();
        assert!(!plans.is_empty(), "rejoin must produce a catch-up plan");
        assert_eq!(plans[0].0, "log_suffix", "short outage → suffix replay");
        // Both fault records (crash + restart) resolved.
        let report = cluster.fault_report();
        assert_eq!(report.len(), 2);
        assert!(report[1].recovery_time().is_some(), "suffix never landed");
    }

    #[test]
    fn recovery_frames_ride_the_lossy_path_and_retries_survive_it() {
        use crate::harness::faults::{FaultEvent, FaultPlan};
        // Heavy loss on the path catch-up frames share with updates: the
        // bounded-retry join cycle must still land a catch-up reply.
        let mut config = ClusterConfig {
            auto_failover: false,
            fault_plan: FaultPlan::new()
                .at(
                    Time::from_millis(1_000),
                    FaultEvent::CrashBackup { host: 0 },
                )
                .at(
                    Time::from_millis(1_500),
                    FaultEvent::RestartBackup { host: 0 },
                ),
            ..ClusterConfig::default()
        };
        config.link.loss_probability = 0.5;
        config.seed = 42;
        let mut cluster = SimCluster::new(config);
        cluster.register(spec(100, 150, 550)).unwrap();
        cluster.run_for(TimeDelta::from_secs(10));
        let backup = cluster.backup().expect("backup");
        assert!(!backup.join_in_progress(), "join must complete");
        assert!(!backup.join_abandoned(), "budget must survive 50% loss");
    }

    #[test]
    fn short_partition_heals_silently() {
        use crate::harness::faults::{FaultEvent, FaultPlan};
        // 80 ms cut, well under the ~300 ms detection bound: nobody
        // declares anybody dead and the record closes at heal time.
        let config = ClusterConfig {
            fault_plan: FaultPlan::new().at(
                Time::from_millis(1_000),
                FaultEvent::Partition {
                    host: 0,
                    duration: ms(80),
                },
            ),
            ..ClusterConfig::default()
        };
        let mut cluster = SimCluster::new(config);
        cluster.register(spec(100, 150, 550)).unwrap();
        cluster.run_for(TimeDelta::from_secs(3));
        assert!(!cluster.has_failed_over());
        let report = cluster.fault_report();
        assert_eq!(report.len(), 1);
        assert!(report[0].detected_at.is_none());
        assert_eq!(report[0].recovered_at, Some(Time::from_millis(1_080)));
    }

    #[test]
    fn overload_sheds_lowest_criticality_object() {
        let mut config = ClusterConfig::default();
        config.protocol.admission_enabled = false;
        config.protocol.shed_enabled = true;
        config.protocol.shed_backlog_threshold = 8;
        config.protocol.send_cost_base = TimeDelta::from_millis(2);
        let mut cluster = SimCluster::new(config);
        let mut ids = Vec::new();
        for i in 0..48 {
            let spec = ObjectSpec::builder(format!("o{i}"))
                .update_period(ms(100))
                .primary_bound(ms(150))
                .backup_bound(ms(250))
                .criticality(i as u32)
                .build()
                .unwrap();
            ids.push(cluster.register(spec).unwrap());
        }
        cluster.run_for(TimeDelta::from_secs(10));
        let primary = cluster.primary().unwrap();
        let survivors: Vec<_> = ids
            .iter()
            .filter(|&&id| primary.store().get(id).is_some())
            .collect();
        assert!(survivors.len() < ids.len(), "overload must shed something");
        // The highest-criticality object survives; the first shed was the
        // lowest-criticality one.
        assert!(primary.store().get(*ids.last().unwrap()).is_some());
        assert!(primary.store().get(ids[0]).is_none());
        // A shed object keeps no send period, so its send timer lapses,
        // and its watchdog drops out of the sweeps too.
        assert!(primary.send_period(ids[0]).is_none());
        assert!(!cluster.sim.world().sweeps.holds(ids[0]));
        assert!(cluster.sim.world().sweeps.holds(*ids.last().unwrap()));
    }

    #[test]
    fn event_bus_captures_protocol_lifecycle() {
        let config = ClusterConfig {
            bus: EventBus::with_capacity(65_536),
            registry: MetricsRegistry::new(),
            ..ClusterConfig::default()
        };
        let bus = config.bus.clone();
        let registry = config.registry.clone();
        let mut cluster = SimCluster::new(config);
        cluster.register(spec(100, 150, 550)).unwrap();
        cluster.run_for(TimeDelta::from_secs(2));
        cluster.inject(FaultEvent::CrashPrimary);
        cluster.run_for(TimeDelta::from_secs(2));

        let events = bus.collect();
        let kinds: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.kind.name()).collect();
        for required in [
            "admission_decision",
            "update_sent",
            "update_applied",
            "heartbeat_sent",
            "heartbeat_missed",
            "role_transition",
            "fault_injected",
            "fault_detected",
            "fault_recovered",
            "client_write",
        ] {
            assert!(kinds.contains(required), "missing {required}: {kinds:?}");
        }
        // The merged stream is ordered and schema-valid.
        for pair in events.windows(2) {
            assert!((pair[0].at, pair[0].seq) <= (pair[1].at, pair[1].seq));
        }
        for line in cluster.export_jsonl().lines() {
            rtpb_obs::validate_line(line).expect("schema-valid line");
        }
        // Registry counters track the protocol.
        let snap = registry.snapshot();
        assert!(snap.counter("cluster.updates_sent").unwrap() > 0);
        assert!(snap.counter("cluster.client_writes").unwrap() > 0);
        assert_eq!(snap.counter("cluster.failovers"), Some(1));
        assert!(snap.histogram("cluster.response_time").unwrap().count > 0);
    }

    #[test]
    fn tracing_does_not_change_outcomes() {
        let run = |bus: EventBus| {
            let mut config = ClusterConfig {
                bus,
                ..ClusterConfig::default()
            };
            config.link.loss_probability = 0.2;
            config.seed = 77;
            let mut cluster = SimCluster::new(config);
            let id = cluster.register(spec(100, 150, 550)).unwrap();
            cluster.run_for(TimeDelta::from_secs(10));
            let r = cluster.metrics().object_report(id).unwrap();
            (r.writes, r.applies, r.max_distance)
        };
        assert_eq!(
            run(EventBus::disabled()),
            run(EventBus::with_capacity(65_536))
        );
    }

    #[test]
    fn registration_after_failover_serves_from_new_primary() {
        let mut cluster = SimCluster::new(ClusterConfig::default());
        cluster.register(spec(100, 150, 550)).unwrap();
        cluster.run_for(TimeDelta::from_secs(1));
        cluster.inject(FaultEvent::CrashPrimary);
        cluster.run_for(TimeDelta::from_secs(1));
        assert!(cluster.has_failed_over());
        // New registrations go to the promoted primary.
        let id2 = cluster.register(spec(100, 150, 550)).unwrap();
        cluster.run_for(TimeDelta::from_secs(1));
        assert!(cluster.metrics().object_report(id2).unwrap().writes > 0);
    }
}
