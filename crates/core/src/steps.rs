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
use rtpb_types::{Epoch, Frame, NodeId, ObjectId, Time, TimeDelta, Version};
use std::collections::HashMap;

/// The largest frame either driver's network carries, in bytes: the
/// 16-bit length limit of the paper's UDP datagrams (§4.1). A larger
/// frame is refused at the sender with an [`EventKind::SendRejected`] and
/// never reaches a link.
pub const MAX_DATAGRAM_BYTES: usize = 65_535;

/// How many update slots may wait in a [`Coalescer`] before it stops
/// taking back sent single updates: more than the simulator's CPU model
/// holds queued after one sweep of send timers at perfbench's sizes
/// (about 160 at 10k objects), so the unbatched path reuses its slots,
/// and few enough that a burst of retransmission replies cannot pin
/// memory.
const MAX_SPARE_SINGLES: usize = 1_024;

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
    /// Sends `msg` along `route`. A driver done with a sent batch hands
    /// it back through [`Coalescer::recycle`].
    fn send(&mut self, route: Route, msg: WireMessage);
    /// Arms the flush that closes the open coalescing window, `after`
    /// from now.
    fn arm_flush(&mut self, after: TimeDelta);
    /// Reacts to `fact`.
    fn react(&mut self, fact: Fact);
}

/// The objects whose send timers fired inside the open coalescing window,
/// in firing order, awaiting the flush that carries them in one frame;
/// and the update slots of frames the driver sent and handed back.
///
/// A flush, and an unbatched send, writes each update over a slot the
/// driver handed back ([`Coalescer::recycle`]), so in steady state
/// neither allocates an update or a payload buffer.
#[derive(Debug, Default)]
pub struct Coalescer {
    pending: Vec<ObjectId>,
    /// The ids in `pending`, so parking costs one lookup however full the
    /// window is.
    parked: IdTable<()>,
    /// Whether a flush is armed for the open window.
    flush_armed: bool,
    /// Update slots of frames handed back, each holding its payload
    /// buffer for the next update to refill.
    spare: Vec<WireMessage>,
    /// The emptied update list of a batch handed back: the next batch's.
    list: Vec<WireMessage>,
}

impl Coalescer {
    /// Parks `object` in the open window, once however often its timer
    /// fires there. Returns whether this opened the window, in which case
    /// the caller arms the flush.
    pub fn park(&mut self, object: ObjectId) -> bool {
        if self.parked.insert(object, ()).is_none() {
            self.pending.push(object);
        }
        !std::mem::replace(&mut self.flush_armed, true)
    }

    /// Closes the window: the batch [`Primary::make_batch`] builds for the
    /// parked objects at `now`, in parking order, or `None` when no
    /// update survives or no `primary` serves. Each update is written
    /// over a spare slot ([`Coalescer::update`]).
    pub fn flush(&mut self, primary: Option<&mut Primary>, now: Time) -> Option<WireMessage> {
        self.flush_armed = false;
        for &id in &self.pending {
            self.parked.remove(id);
        }
        let mut batch = None;
        if let Some(primary) = primary {
            let mut messages = std::mem::take(&mut self.list);
            for i in 0..self.pending.len() {
                messages.extend(self.update(primary, self.pending[i], now));
            }
            if messages.is_empty() {
                self.list = messages;
            } else {
                batch = Some(WireMessage::Batch {
                    epoch: primary.epoch(),
                    messages,
                });
            }
        }
        self.pending.clear();
        batch
    }

    /// The update [`Primary::make_update`] makes for `id` at `now`,
    /// written over a spare slot; only when none is left is a fresh one
    /// made.
    pub fn update(
        &mut self,
        primary: &mut Primary,
        id: ObjectId,
        now: Time,
    ) -> Option<WireMessage> {
        let Some(mut slot) = self.spare.pop() else {
            return primary.make_update(id, now);
        };
        if primary.refill_update(id, now, &mut slot) {
            Some(slot)
        } else {
            self.spare.push(slot);
            None
        }
    }

    /// Takes back a frame the driver has sent: a batch's update slots
    /// keep their payload buffers for later updates, and so does a single
    /// update while fewer than 1,024 slots wait. Any other frame is
    /// dropped.
    pub fn recycle(&mut self, msg: WireMessage) {
        match msg {
            WireMessage::Batch { mut messages, .. } => {
                self.spare.append(&mut messages);
                if messages.capacity() > self.list.capacity() {
                    self.list = messages;
                }
            }
            update @ WireMessage::Update { .. } if self.spare.len() < MAX_SPARE_SINGLES => {
                self.spare.push(update);
            }
            _ => {}
        }
    }
}

/// Which per-object timer a sweep member runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// The object's periodic send task, at the primary (§4.3).
    Send,
    /// The object's freshness watchdog, at the backups (§5.3).
    Watchdog,
}

/// One per-object timer in a sweep.
pub type SweepMember = (ObjectId, TimerKind);

/// Per-object timers grouped into sweeps: one queued event per group of
/// timers due at one instant, instead of one per timer (the
/// timing-wheel idea of Varghese and Lauck, SOSP 1987). Every timer fires
/// at the instants, and in the order, its own event would have fired:
///
/// - A timer restart files every object's timers in id order.
/// - A sweep runs its members in filing order, and each member files its
///   next firing as it runs, before anything it schedules itself.
/// - A member joins the group open for its instant only if nothing else
///   was scheduled since the group took its last member. So a group runs
///   exactly where its members' own events would have run, even where
///   another event falls on the same instant.
///
/// The driver schedules one event per group, naming its slot, as soon as
/// [`Sweeps::file`] opens the group. Running it means [`Sweeps::take`],
/// the members, then [`Sweeps::release`].
#[derive(Debug, Default)]
pub struct Sweeps {
    /// Member lists by slot.
    groups: Vec<Vec<SweepMember>>,
    /// Slots whose groups ran, free for new ones.
    free: Vec<u32>,
    /// The groups still taking members: due instant and slot.
    open: Vec<(Time, u32)>,
    /// `open` by due instant.
    index: HashMap<Time, usize>,
    /// The `open` entry filed into last.
    last: usize,
    /// The driver's count of scheduled events after the last filing, and
    /// the timer epoch it filed under.
    seen: (u64, u32),
}

impl Sweeps {
    /// Files `member` to fire at `due` under timer epoch `epoch`.
    /// `scheduled` is the driver's count of events ever scheduled on its
    /// queue. Returns the slot of a group opened for the member, which
    /// the driver schedules at `due` right away.
    pub fn file(
        &mut self,
        member: SweepMember,
        due: Time,
        epoch: u32,
        scheduled: u64,
    ) -> Option<u32> {
        if self.seen != (scheduled, epoch) {
            for (due, _) in self.open.drain(..) {
                self.index.remove(&due);
            }
        }
        let at = match self.open.get(self.last) {
            Some(&(d, _)) if d == due => Some(self.last),
            _ => self.index.get(&due).copied(),
        };
        if let Some(i) = at {
            self.last = i;
            self.groups[self.open[i].1 as usize].push(member);
            self.seen = (scheduled, epoch);
            return None;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.groups.push(Vec::new());
            u32::try_from(self.groups.len() - 1).expect("sweep slots fit u32")
        });
        self.groups[slot as usize].push(member);
        self.last = self.open.len();
        self.index.insert(due, self.last);
        self.open.push((due, slot));
        self.seen = (scheduled + 1, epoch);
        Some(slot)
    }

    /// The members of the group in `slot`, in firing order.
    pub fn take(&mut self, slot: u32) -> Vec<SweepMember> {
        std::mem::take(&mut self.groups[slot as usize])
    }

    /// Frees `slot` once its members ran; `members` keeps its capacity
    /// for a later group.
    pub fn release(&mut self, slot: u32, mut members: Vec<SweepMember>) {
        members.clear();
        self.groups[slot as usize] = members;
        self.free.push(slot);
    }
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
pub fn arrival_bytes(frame: &Frame, outcome: LinkOutcome) -> Frame {
    match outcome.corrupted_bit() {
        Some(bit) => frame.with_flipped_bit(bit),
        None => frame.clone(),
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
    payload: &[u8],
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
/// alive the timer re-arms: `rearm` files its next firing one send period
/// on, before the step does anything else. Then the object is parked in
/// the coalescing window (arming the flush if none is armed), or, without
/// batching, snapshotted and sent on its own (§4.3). With no backup alive,
/// or no send period for the object, the timer lapses: update traffic
/// stops until one rejoins (§4.4).
#[inline(always)]
pub fn send_timer<D: Driver>(d: &mut D, object: ObjectId, rearm: impl FnOnce(&mut D, TimeDelta)) {
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
    rearm(d, period);
    if batching {
        if d.coalescer().park(object) {
            d.arm_flush(window);
        }
        return;
    }
    send_update(d, object);
}

/// The primary snapshots `object` into a spare update slot
/// ([`Coalescer::update`]) and sends it on its own, if it produces an
/// update.
#[inline(always)]
pub(crate) fn send_update(d: &mut impl Driver, object: ObjectId) {
    let local = d.local();
    let mut coalescer = std::mem::take(d.coalescer());
    let update = d.primary().and_then(|p| coalescer.update(p, object, local));
    *d.coalescer() = coalescer;
    if let Some(update) = update {
        d.send(Route::Update(object), update);
    }
}

/// The coalescing window closed: every parked object goes out in one
/// batch frame, if a primary with a live backup still serves.
#[inline(always)]
pub fn flush(d: &mut impl Driver) {
    let mut coalescer = std::mem::take(d.coalescer());
    let local = d.local();
    let batch = coalescer.flush(d.primary().filter(|p| p.is_backup_alive()), local);
    *d.coalescer() = coalescer;
    if let Some(batch) = batch {
        d.send(Route::Batch, batch);
    }
}

/// The primary handles a frame from backup `from`, on the parsed view: a
/// retransmission request is counted first, then the core's output is
/// counted and emitted, the replies are sent back, and a joined backup is
/// announced.
#[inline(always)]
pub fn primary_receive(d: &mut impl Driver, from: NodeId, frame: &WireFrame<'_>) {
    if let WireFrame::RetransmitRequest { object, .. } = frame {
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
    let out = primary.handle_frame(frame, local);
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
pub fn deposed_receive(d: &mut impl Driver, frame: &WireFrame<'_>) -> bool {
    let local = d.local();
    let Some(primary) = d.primary() else {
        return false;
    };
    let out = primary.handle_frame(frame, local);
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
/// the replies go back to the sender, and the output's emptied vectors
/// back to the backup ([`Backup::recycle`]).
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
    let mut out = backup.handle_frame(frame, local);
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
    for reply in out.replies.drain(..) {
        d.send(Route::Reply, reply);
    }
    if let Some(backup) = d.backup() {
        backup.recycle(out);
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
#[inline(always)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use rtpb_types::ObjectSpec;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    /// The frame a driver puts on the wire for `msg`.
    fn frame(msg: &WireMessage) -> Vec<u8> {
        let mut bytes = Vec::new();
        msg.encode_into(&mut bytes);
        bytes
    }

    #[test]
    fn flushes_refill_recycled_slots_into_the_frames_make_batch_builds() {
        let mut p = Primary::new(NodeId::new(0), ProtocolConfig::default());
        p.add_backup(NodeId::new(1), Time::ZERO);
        let spec = ObjectSpec::builder("o")
            .update_period(ms(100))
            .primary_bound(ms(150))
            .backup_bound(ms(550))
            .build()
            .unwrap();
        let ids: Vec<ObjectId> = (0..8)
            .map(|_| p.register(spec.clone(), Time::ZERO).unwrap())
            .collect();
        // Object 6 is never written; object 7 is deregistered below.
        for (i, &id) in ids[..6].iter().chain(&ids[7..]).enumerate() {
            p.apply_write(id, &[i as u8; 48], Time::from_millis(1));
        }
        let mut c = Coalescer::default();
        // Windows that grow, shrink, hold unwritten and deregistered ids
        // (and park one id twice), grow past every batch before, and
        // carry nothing at all; object 0's payload shrinks in round 2.
        let windows: [&[usize]; 6] = [
            &[0, 1, 2],
            &[3, 0],
            &[1, 2, 0, 4, 5],
            &[6, 2, 7, 2],
            &[0, 1, 2, 3, 4, 5, 7],
            &[6],
        ];
        for (round, window) in windows.iter().enumerate() {
            let now = Time::from_millis(2 + round as u64);
            if round == 2 {
                p.apply_write(ids[0], &[9; 5], now);
            }
            if round == 3 {
                p.deregister(ids[7]);
            }
            // Parking order, each id once: what the window holds.
            let mut held = Vec::new();
            for (k, &i) in window.iter().enumerate() {
                assert_eq!(
                    c.park(ids[i]),
                    k == 0,
                    "round {round}: only the first park opens"
                );
                if !held.contains(&ids[i]) {
                    held.push(ids[i]);
                }
            }
            let reference = p.make_batch(&held, now);
            let batch = c.flush(Some(&mut p), now);
            assert_eq!(
                batch.as_ref().map(frame),
                reference.as_ref().map(frame),
                "round {round}"
            );
            if let Some(batch) = batch {
                c.recycle(batch);
            }
        }
    }

    #[test]
    fn sent_single_updates_come_back_as_slots_up_to_the_bound() {
        let mut p = Primary::new(NodeId::new(0), ProtocolConfig::default());
        p.add_backup(NodeId::new(1), Time::ZERO);
        let spec = ObjectSpec::builder("o")
            .update_period(ms(100))
            .primary_bound(ms(150))
            .backup_bound(ms(550))
            .build()
            .unwrap();
        let id = p.register(spec, Time::ZERO).unwrap();
        p.apply_write(id, &[7; 48], Time::from_millis(1));
        let now = Time::from_millis(2);
        let reference = frame(&p.make_update(id, now).unwrap());
        let mut c = Coalescer::default();
        let sent: Vec<WireMessage> = (0..MAX_SPARE_SINGLES + 3)
            .map(|_| c.update(&mut p, id, now).unwrap())
            .collect();
        for update in sent {
            c.recycle(update);
        }
        assert_eq!(c.spare.len(), MAX_SPARE_SINGLES);
        let refilled = c.update(&mut p, id, now).unwrap();
        assert_eq!(frame(&refilled), reference);
        assert_eq!(c.spare.len(), MAX_SPARE_SINGLES - 1);
    }

    impl Sweeps {
        /// Whether a group waiting to run holds a timer of `object`.
        pub(crate) fn holds(&self, object: ObjectId) -> bool {
            self.groups.iter().flatten().any(|&(id, _)| id == object)
        }
    }
}
