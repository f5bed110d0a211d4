//! Each host's reaction to each input, written once for both drivers.
//!
//! The simulator ([`SimCluster`](crate::harness::SimCluster)) and the
//! real-thread runtime (`rtpb-rt`) run the same steps: a step calls the
//! sans-io core, then counts and emits what the core reported, through
//! the `cluster.*` [`Instruments`], the per-object [`ClusterMetrics`]
//! ledger and the event stream. A driver supplies what differs between
//! virtual time and real threads through the [`Driver`] trait:
//!
//! - its clock, and the host's local reading of it;
//! - where a frame goes and what it costs ([`Driver::send`]): the
//!   simulator queues update transmissions on its CPU model, the runtime
//!   puts every frame straight on a link;
//! - how it reacts to the [`Fact`]s a step reports, at the point in the
//!   step where the reaction belongs: a peer declared dead, a backup
//!   joined, a catch-up frame landed, a retransmission requested, a
//!   timing violation.
//!
//! Steps are generic over the driver, so a step costs its branches and
//! allocates nothing beyond what the core call itself does. The steps on
//! the simulator's per-event path are `#[inline(always)]`: left to the
//! compiler's heuristics, they cost about 4% of perfbench's `stream`
//! throughput.

use crate::backup::Backup;
use crate::config::ProtocolConfig;
use crate::integrity::IntegrityEvent;
use crate::metrics::ClusterMetrics;
use crate::monitor::MonitorEvent;
use crate::primary::{CatchUpDecision, Primary};
use crate::table::IdTable;
use crate::telemetry::Instruments;
use crate::wire::{WireFrame, WireMessage};
use rtpb_net::LinkOutcome;
use rtpb_obs::{EventKind, Role};
use rtpb_types::{Epoch, NodeId, ObjectId, Time, TimeDelta, Version};
use std::sync::Arc;

/// The largest frame either driver's network carries, in bytes: the
/// 16-bit length limit of the paper's UDP datagrams (§4.1). A larger
/// frame is refused at the sender with an [`EventKind::SendRejected`] and
/// never reaches a link.
pub const MAX_DATAGRAM_BYTES: usize = 65_535;

/// Where a step sends a frame. The driver resolves the destination and
/// decides what the transmission costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// To the serving primary.
    Primary,
    /// Back to the sender of the frame being handled.
    Reply,
    /// To one backup node (a heartbeat probe).
    Node(NodeId),
    /// One object's periodic update, to every backup the primary tracks.
    Update(ObjectId),
    /// A coalesced batch, to every backup the primary tracks.
    Batch,
}

/// A timer a step arms on its host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// The periodic send task of one object.
    Send(ObjectId),
    /// The end of the open coalescing window.
    Flush,
}

/// Something a step observed that the driver reacts to.
#[derive(Debug, Clone)]
pub enum Fact {
    /// The primary received a retransmission request; reported before
    /// the core handles it.
    RetransmitRequested,
    /// The host's temporal monitor raised a violation; reported right
    /// after its `timing_violation` event.
    TimingViolation,
    /// The primary decided how to serve a joining or resyncing replica.
    CatchUpPlanned(CatchUpDecision),
    /// A catch-up frame (full transfer, resync diff or log suffix) landed
    /// at this backup; `suffix` if it was a log suffix.
    CatchUpLanded {
        /// Whether the frame was a log suffix.
        suffix: bool,
    },
    /// The host's failure detector declared `peer` dead: a backup for a
    /// primary, the primary for a backup.
    PeerDead {
        /// The peer declared dead.
        peer: NodeId,
    },
    /// The primary admitted `node` back as a backup; reported after the
    /// replies to its request were sent.
    BackupJoined {
        /// The admitted backup.
        node: NodeId,
    },
    /// A pending join cycle timed out and is being retried.
    JoinRetried,
    /// A restarted backup is about to announce its rejoin.
    Rejoining,
}

/// What a step needs from the driver that runs it.
pub trait Driver {
    /// The driver's clock: virtual time in the simulator, the monotonic
    /// clock in `rtpb-rt`. Ledger entries are stamped with it.
    fn now(&self) -> Time;
    /// The host's local reading of [`Driver::now`], which the core sees.
    fn local(&self) -> Time;
    /// The `cluster.*` counters and histograms.
    fn instruments(&self) -> &Instruments;
    /// Feeds the per-object ledger.
    fn ledger(&mut self, feed: impl FnOnce(&mut ClusterMetrics));
    /// Whether this host is the backup whose deliveries the ledger
    /// follows: the first live one.
    fn ledger_replica(&self) -> bool;
    /// Emits one event on the driver's clock.
    fn emit(&mut self, kind: EventKind);
    /// The host's primary state machine, if it runs one.
    fn primary(&mut self) -> Option<&mut Primary>;
    /// The host's backup state machine, if it runs one.
    fn backup(&mut self) -> Option<&mut Backup>;
    /// The primary's coalescing window.
    fn coalescer(&mut self) -> &mut Coalescer;
    /// Sends `msg` along `route`.
    fn send(&mut self, route: Route, msg: WireMessage);
    /// Arms `timer` to fire `after` from now.
    fn arm(&mut self, after: TimeDelta, timer: Timer);
    /// Reacts to `fact`.
    fn react(&mut self, fact: Fact);
}

/// The objects whose send timers fired inside the open coalescing window,
/// in firing order, awaiting the flush that carries them in one frame.
#[derive(Debug, Default)]
pub struct Coalescer {
    pending: Vec<ObjectId>,
    /// The ids in `pending`, so parking costs one lookup however full the
    /// window is.
    parked: IdTable<()>,
    /// Whether a flush is armed for the open window.
    flush_armed: bool,
}

/// The heartbeat cadence of every host: half the heartbeat period.
#[must_use]
pub fn heartbeat_tick(config: &ProtocolConfig) -> TimeDelta {
    config.heartbeat_period / 2
}

/// How often a backup's watchdog checks an object sent every `period`
/// (100 ms if unknown): half its §5.3 refresh allowance, at least 1 ms.
#[must_use]
#[inline(always)]
pub fn watchdog_interval(config: &ProtocolConfig, period: Option<TimeDelta>) -> TimeDelta {
    let period = period.unwrap_or(TimeDelta::from_millis(100));
    (config.refresh_allowance(period) / 2).max(TimeDelta::from_millis(1))
}

/// A deterministic per-object phase within `(0, period]`, spreading the
/// first firings of periodic send tasks across the period.
#[must_use]
pub fn send_phase(id: ObjectId, period: TimeDelta) -> TimeDelta {
    let h = (u64::from(id.index())).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    let frac = h % 64;
    let offset = period.mul_ratio(frac, 64);
    if offset.is_zero() {
        period
    } else {
        offset
    }
}

/// The bytes one arrival of `outcome` delivers: the shared frame as sent,
/// or a copy with the link's in-transit bit flip applied. The link is
/// payload-oblivious: it picks a bit within the frame
/// ([`LinkOutcome::Corrupted`]) and the driver, which owns the bytes,
/// flips it; the receiver then sees a frame whose CRC trailer no longer
/// matches.
#[must_use]
pub fn arrival_bytes(frame: &Arc<[u8]>, outcome: LinkOutcome) -> Arc<[u8]> {
    match outcome.corrupted_bit() {
        Some(bit) => {
            let mut copy = frame.to_vec();
            copy[(bit / 8) as usize] ^= 1 << (bit % 8);
            copy.into()
        }
        None => Arc::clone(frame),
    }
}

/// Puts one encoded frame of `bytes` from `from` toward `to`. A frame
/// over [`MAX_DATAGRAM_BYTES`] is refused with a `send_rejected` event
/// and count. Otherwise `fate` draws the link's outcome, or returns
/// `None` when the driver's own gates drop the frame first; a frame that
/// carries updates is then counted and emitted as sent, and lost with
/// its frame. Returns the outcome and the number of updates carried.
#[inline(always)]
pub fn transmit(
    tel: &Instruments,
    from: NodeId,
    to: NodeId,
    msg: &WireMessage,
    bytes: usize,
    mut emit: impl FnMut(EventKind),
    fate: impl FnOnce() -> Option<LinkOutcome>,
) -> Option<(LinkOutcome, usize)> {
    if bytes > MAX_DATAGRAM_BYTES {
        tel.send_rejected.inc();
        emit(EventKind::SendRejected {
            from,
            to,
            bytes: bytes as u64,
        });
        return None;
    }
    let outcome = fate()?;
    let lost = outcome.is_lost();
    let updates = msg.carried_updates();
    if !updates.is_empty() {
        tel.frames_sent.inc();
        if let WireMessage::Batch { messages, .. } = msg {
            let size = messages.len() as u64;
            tel.batch_occupancy.record_nanos(size);
            emit(EventKind::BatchSent { to, size, lost });
        }
        for update in updates {
            if let WireMessage::Update {
                object, version, ..
            } = update
            {
                tel.updates_sent.inc();
                if lost {
                    tel.updates_lost.inc();
                }
                emit(EventKind::UpdateSent {
                    object: *object,
                    version: *version,
                    to,
                    lost,
                });
            }
        }
    }
    Some((outcome, updates.len()))
}

/// Parses arrived bytes. A frame that fails (in practice an in-transit
/// bit flip, caught by the CRC32C trailer before any field is read) is
/// counted and emitted as a frame integrity violation at `node` and
/// dropped; the retransmission machinery repairs the gap like a loss.
#[inline(always)]
pub fn parse<'b>(d: &mut impl Driver, node: NodeId, bytes: &'b [u8]) -> Option<WireFrame<'b>> {
    let frame = WireFrame::parse(bytes).ok();
    if frame.is_none() {
        d.instruments().integrity_violations.inc();
        d.emit(EventKind::IntegrityViolation {
            node,
            source: "frame",
            object: u64::MAX,
        });
    }
    frame
}

/// A serving primary applies one client write. On success it emits the
/// store snapshots the write triggered, feeds the ledger, counts the
/// write and emits `client_write`. `response` is the write's response
/// time when it crossed a queue; a write applied in zero time (the
/// session facade) records none and reports zero.
#[inline(always)]
pub fn client_write(
    d: &mut impl Driver,
    object: ObjectId,
    payload: Vec<u8>,
    response: Option<TimeDelta>,
) -> Option<Version> {
    let (now, local) = (d.now(), d.local());
    let primary = d.primary()?;
    let version = primary.apply_write(object, payload, local)?;
    let node = primary.node();
    for (head, log_len) in primary.take_snapshot_marks() {
        d.emit(EventKind::StoreSnapshot {
            node,
            head,
            log_len,
        });
    }
    d.ledger(|m| {
        if let Some(response) = response {
            m.record_response(response);
        }
        m.on_primary_write(object, version, now);
    });
    let tel = d.instruments();
    tel.client_writes.inc();
    if let Some(response) = response {
        tel.response_time.record(response);
    }
    d.emit(EventKind::ClientWrite {
        object,
        version,
        response: response.unwrap_or(TimeDelta::ZERO),
    });
    Some(version)
}

/// The send timer of `object` fired at the primary. While a backup is
/// alive the timer re-arms itself; then the object is parked in the
/// coalescing window (arming the flush if none is armed), or, without
/// batching, snapshotted and sent on its own (§4.3). With no backup alive
/// the timer lapses: update traffic stops until one rejoins (§4.4).
#[inline(always)]
pub fn send_timer(d: &mut impl Driver, object: ObjectId) {
    let Some(primary) = d.primary() else {
        return;
    };
    if !primary.is_backup_alive() {
        return;
    }
    let Some(period) = primary.send_period(object) else {
        return;
    };
    let batching = primary.config().batching_enabled();
    let window = primary.config().coalesce_window;
    d.arm(period, Timer::Send(object));
    if batching {
        let window_open = {
            let c = d.coalescer();
            if c.parked.insert(object, ()).is_none() {
                c.pending.push(object);
            }
            std::mem::replace(&mut c.flush_armed, true)
        };
        if !window_open {
            d.arm(window, Timer::Flush);
        }
        return;
    }
    let local = d.local();
    if let Some(update) = d.primary().and_then(|p| p.make_update(object, local)) {
        d.send(Route::Update(object), update);
    }
}

/// The coalescing window closed: every parked object goes out in one
/// batch frame, if a primary with a live backup still serves.
#[inline(always)]
pub fn flush(d: &mut impl Driver) {
    let mut ids = {
        let c = d.coalescer();
        c.flush_armed = false;
        for &id in &c.pending {
            c.parked.remove(id);
        }
        std::mem::take(&mut c.pending)
    };
    let local = d.local();
    let batch = d
        .primary()
        .filter(|p| p.is_backup_alive())
        .and_then(|p| p.make_batch(&ids, local));
    // Hand the emptied list back so the next window reuses its capacity.
    ids.clear();
    d.coalescer().pending = ids;
    if let Some(batch) = batch {
        d.send(Route::Batch, batch);
    }
}

/// The primary handles a frame from backup `from`: a retransmission
/// request is counted first, then the core's output is counted and
/// emitted, the replies are sent back, and a joined backup is announced.
#[inline(always)]
pub fn primary_receive(d: &mut impl Driver, from: NodeId, msg: &WireMessage) {
    if let WireMessage::RetransmitRequest { object, .. } = msg {
        d.ledger(ClusterMetrics::record_retransmit_request);
        d.instruments().retransmit_requests.inc();
        d.emit(EventKind::RetransmitRequested {
            object: *object,
            node: from,
        });
        d.react(Fact::RetransmitRequested);
    }
    let local = d.local();
    let Some(primary) = d.primary() else {
        return;
    };
    let node = primary.node();
    let out = primary.handle_message(msg, local);
    let epoch = primary.epoch();
    let monitor = primary.drain_monitor_events();
    let integrity = primary.drain_integrity_events();
    monitor_events(d, node, monitor);
    integrity_events(d, node, integrity);
    fenced(d, node, epoch, &out.stale_rejected);
    if let Some(plan) = out.catch_up {
        d.instruments().catchup_bytes.add(plan.bytes);
        d.emit(EventKind::CatchUpPlan {
            node: plan.node,
            path: plan.path.name(),
            gap: plan.gap,
            records: plan.records,
            bytes: plan.bytes,
        });
        d.react(Fact::CatchUpPlanned(plan));
    }
    for reply in out.replies {
        d.send(Route::Reply, reply);
    }
    if out.backup_joined {
        d.emit(EventKind::RoleTransition {
            node: from,
            from: Role::Joining,
            to: Role::Backup,
        });
        d.react(Fact::BackupJoined { node: from });
    }
}

/// A deposed primary (the minority side of a split brain) handles a
/// frame: only fencing is counted, and its replies go nowhere. Returns
/// whether the frame proved it superseded.
pub fn deposed_receive(d: &mut impl Driver, msg: &WireMessage) -> bool {
    let local = d.local();
    let Some(primary) = d.primary() else {
        return false;
    };
    let out = primary.handle_message(msg, local);
    let node = primary.node();
    let epoch = primary.epoch();
    let superseded = primary.is_deposed();
    fenced(d, node, epoch, &out.stale_rejected);
    superseded
}

/// A backup handles a frame. The receive hot path stays on the borrowed
/// decode view: payload slices point into the delivered bytes and flow
/// straight into the store. Every arrival, fresh or duplicate, resets the
/// §5.3 refresh clock of each update it carries; a catch-up frame ends a
/// re-integration; each applied update is emitted and fed to the ledger;
/// the replies go back to the sender.
#[inline(always)]
pub fn backup_receive(d: &mut impl Driver, frame: &WireFrame<'_>) {
    let (now, local) = (d.now(), d.local());
    let follows = d.ledger_replica();
    if follows {
        d.ledger(|m| frame.for_each_update(|object, _| m.on_backup_refresh(object, now)));
    }
    let Some(backup) = d.backup() else {
        return;
    };
    let node = backup.node();
    let out = backup.handle_frame(frame, local);
    let epoch = backup.epoch();
    let monitor = backup.drain_monitor_events();
    let integrity = backup.drain_integrity_events();
    monitor_events(d, node, monitor);
    integrity_events(d, node, integrity);
    fenced(d, node, epoch, &out.stale_rejected);
    if matches!(
        frame,
        WireFrame::StateTransfer { .. }
            | WireFrame::ResyncDiff { .. }
            | WireFrame::LogSuffix { .. }
    ) {
        d.react(Fact::CatchUpLanded {
            suffix: matches!(frame, WireFrame::LogSuffix { .. }),
        });
    }
    for &(object, version, write_ts) in &out.applied {
        d.emit(EventKind::UpdateApplied {
            object,
            version,
            node,
        });
        if follows {
            d.ledger(|m| m.on_backup_apply(object, version, write_ts, now));
        }
    }
    for reply in out.replies {
        d.send(Route::Reply, reply);
    }
}

/// The primary's heartbeat tick: probes every tracked backup and
/// declares dead those past the miss threshold (whose update traffic the
/// core has already cancelled, §4.4).
pub fn primary_heartbeat(d: &mut impl Driver) {
    let local = d.local();
    let Some(primary) = d.primary() else {
        return;
    };
    let node = primary.node();
    let round = primary.tick_heartbeat(local);
    let monitor = primary.drain_monitor_events();
    let integrity = primary.drain_integrity_events();
    monitor_events(d, node, monitor);
    integrity_events(d, node, integrity);
    for (to, ping) in round.pings {
        d.emit(EventKind::HeartbeatSent { from: node, to });
        d.send(Route::Node(to), ping);
    }
    for peer in round.died {
        d.emit(EventKind::HeartbeatMissed { from: node, peer });
        d.react(Fact::PeerDead { peer });
    }
}

/// A backup's heartbeat tick against the serving primary `primary`:
/// probes it, declares it dead past the miss threshold (the driver
/// promotes or rejoins), and retries a pending join cycle.
pub fn backup_heartbeat(d: &mut impl Driver, primary: NodeId) {
    let local = d.local();
    let Some(backup) = d.backup() else {
        return;
    };
    let node = backup.node();
    let (ping, died) = backup.tick_heartbeat(local);
    let monitor = backup.drain_monitor_events();
    let integrity = backup.drain_integrity_events();
    monitor_events(d, node, monitor);
    integrity_events(d, node, integrity);
    if let Some(ping) = ping {
        d.emit(EventKind::HeartbeatSent {
            from: node,
            to: primary,
        });
        d.send(Route::Primary, ping);
    }
    if died {
        d.emit(EventKind::HeartbeatMissed {
            from: node,
            peer: primary,
        });
        d.react(Fact::PeerDead { peer: primary });
    }
    if let Some(join) = d.backup().and_then(|b| b.tick_join(local)) {
        d.react(Fact::JoinRetried);
        d.send(Route::Primary, join);
    }
}

/// A backup's watchdog for `object` fired: a stale object is requested
/// again from the primary (§4.3).
pub fn watchdog(d: &mut impl Driver, object: ObjectId) {
    let local = d.local();
    if let Some(request) = d.backup().and_then(|b| b.tick_watchdog(object, local)) {
        d.send(Route::Primary, request);
    }
}

/// A backup re-joins the serving primary: it re-arms its failure
/// detector and opens a bounded-retry join cycle.
pub fn join(d: &mut impl Driver) {
    let local = d.local();
    if let Some(backup) = d.backup() {
        backup.rearm(local);
        let join = backup.begin_join(local);
        d.send(Route::Primary, join);
    }
}

/// A crashed backup host came back with the state machine the driver put
/// in its slot: a fresh one (cold) or its retained one (`durable`), which
/// re-arms its detector and advertises its last applied log position so
/// the primary can ship just the suffix it missed (DESIGN.md §11). The
/// restart's integrity incidents are surfaced, then the rejoin is
/// announced and the join request sent.
pub fn restart(d: &mut impl Driver, durable: bool) {
    let local = d.local();
    let Some(backup) = d.backup() else {
        return;
    };
    let node = backup.node();
    let integrity = backup.drain_integrity_events();
    if durable {
        backup.rearm(local);
    }
    let join = backup.begin_join(local);
    integrity_events(d, node, integrity);
    d.react(Fact::Rejoining);
    d.emit(EventKind::RoleTransition {
        node,
        from: Role::Down,
        to: Role::Joining,
    });
    d.send(Route::Primary, join);
}

/// A backup takes over as the new primary (§4.4): the promotion is
/// emitted and counted, and the ledger closes the failover. The driver
/// rebinds the name and decides who rejoins.
pub fn promote(d: &mut impl Driver, backup: Backup) -> Primary {
    let local = d.local();
    let now = d.now();
    d.emit(EventKind::RoleTransition {
        node: backup.node(),
        from: Role::Backup,
        to: Role::Primary,
    });
    d.instruments().failovers.inc();
    let primary = backup.promote(local);
    let mut duration = None;
    d.ledger(|m| {
        m.record_failover_complete(now);
        duration = m.failover_duration();
    });
    if let Some(duration) = duration {
        d.instruments().failover_time.record(duration);
    }
    primary
}

/// Surfaces a host's drained temporal-monitor events (DESIGN.md §14):
/// each violation is counted, emitted and reported as a fact before the
/// next event.
fn monitor_events(d: &mut impl Driver, node: NodeId, events: Vec<MonitorEvent>) {
    for event in events {
        let kind = match event {
            MonitorEvent::Violation(v) => {
                d.instruments().timing_violations.inc();
                EventKind::TimingViolation {
                    node,
                    evidence: v.name(),
                    observed_ns: v.observed_ns(),
                    bound_ns: v.bound_ns(),
                }
            }
            MonitorEvent::Degraded => EventKind::MonitorDegraded { node },
            MonitorEvent::Recovered => EventKind::MonitorRecovered { node },
        };
        let violation = matches!(kind, EventKind::TimingViolation { .. });
        d.emit(kind);
        if violation {
            d.react(Fact::TimingViolation);
        }
    }
}

/// Surfaces a host's drained integrity incidents (DESIGN.md §15).
/// Containment already happened inside the core (frame dropped, record
/// withheld, entry quarantined); this is the observability half.
fn integrity_events(d: &mut impl Driver, node: NodeId, events: Vec<IntegrityEvent>) {
    for event in events {
        let tel = d.instruments();
        let kind = match event {
            IntegrityEvent::Violation { source, object, .. } => {
                tel.integrity_violations.inc();
                EventKind::IntegrityViolation {
                    node,
                    source: source.name(),
                    object: object.map_or(u64::MAX, |id| u64::from(id.index())),
                }
            }
            IntegrityEvent::ScrubDivergence { range, ranges } => {
                tel.scrub_divergences.inc();
                EventKind::ScrubDivergence {
                    node,
                    range: u64::from(range),
                    ranges: u64::from(ranges),
                }
            }
        };
        d.emit(kind);
    }
}

/// Counts and emits the stale-epoch frames `node`, now at epoch `local`,
/// just fenced.
fn fenced(d: &mut impl Driver, node: NodeId, local: Epoch, stale: &[Epoch]) {
    for &frame in stale {
        d.instruments().fenced_frames.inc();
        d.emit(EventKind::StaleEpochRejected {
            node,
            frame_epoch: frame.value(),
            local_epoch: local.value(),
        });
    }
}
