//! Each host's reaction to each input, written once for both drivers.
//!
//! The simulator ([`SimCluster`](crate::harness::SimCluster)) and the
//! real-thread runtime (`rtpb-rt`) run the same steps: a step calls the
//! sans-io core, then emits what the core reported ([`Output`]), which
//! the driver's writer folds into the `cluster.*` counters, and feeds the
//! per-object [`ClusterMetrics`] ledger, the [`Instruments`] no event
//! carries and the [`FaultLedger`], which follows each crash and restart
//! from injection through detection to recovery. A driver supplies what
//! differs between virtual time and real threads through the [`Driver`]
//! trait:
//!
//! - its clock, and the host's local reading of it;
//! - where a frame goes and what it costs ([`Driver::send`]): the
//!   simulator queues update transmissions on its CPU model, the runtime
//!   puts every frame straight on a link;
//! - how it reacts to the [`Fact`]s a step reports, at the point in the
//!   step where the reaction belongs: a peer declared dead, a backup
//!   joined, a catch-up planned or landed, a restarted backup rejoining.
//!
//! Steps are generic over the driver, so a step costs its branches and
//! allocates nothing beyond what the core call itself does. The steps on
//! the simulator's per-event path are `#[inline(always)]`: left to the
//! compiler's heuristics, they cost about 4% of perfbench's `stream`
//! throughput.

use crate::backup::Backup;
use crate::config::ProtocolConfig;
use crate::harness::{FaultLedger, Pending, Stamp, Watch};
use crate::heartbeat::HEARTBEAT_PERIOD;
use crate::integrity::IntegrityEvent;
use crate::metrics::{ClusterMetrics, InjectedFault};
use crate::monitor::{MonitorEvent, TemporalMonitor};
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

/// What one call into a protocol core produced: the frames to send and
/// the facts to record (§4.3, §4.4). A step surfaces it and hands it back
/// through [`Primary::recycle`] or [`Backup::recycle`], so the next call
/// refills its emptied lists.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// The reporting core's node.
    pub node: NodeId,
    /// Frames to send, each along its route: [`Route::Reply`],
    /// [`Route::Primary`] or [`Route::Node`]. A ping along
    /// `Route::Node(to)` is a heartbeat probe of `to`.
    pub sends: Vec<(Route, WireMessage)>,
    /// Frames rejected as stale, as `(frame epoch, the core's epoch)`;
    /// none reached the store.
    pub fenced: Vec<(Epoch, Epoch)>,
    /// Temporal-monitor events (DESIGN.md §14).
    pub monitor: Vec<MonitorEvent>,
    /// Integrity incidents (DESIGN.md §15), including those raised since
    /// the previous call, such as the restart audit's.
    pub integrity: Vec<IntegrityEvent>,
    /// How the primary decided to serve a joining or resyncing replica.
    pub catch_up: Option<CatchUpDecision>,
    /// Updates the backup installed, as `(object, version, primary write
    /// timestamp)`.
    pub applied: Vec<(ObjectId, Version, Time)>,
    /// Peers the failure detector declared dead.
    pub died: Vec<NodeId>,
    /// The backup the primary admitted.
    pub joined: Option<NodeId>,
}

impl Output {
    /// The output a call of the core at `node` fills: `spare`, the one
    /// handed back last, or a new one.
    pub(crate) fn take(spare: &mut Option<Output>, node: NodeId) -> Output {
        spare.take().unwrap_or_else(|| Output {
            node,
            ..Output::default()
        })
    }

    /// Closes a call: moves in the monitor's events and the incidents
    /// raised since the last call.
    pub(crate) fn close(
        &mut self,
        monitor: &mut TemporalMonitor,
        integrity: &mut Vec<IntegrityEvent>,
    ) {
        monitor.drain_into(&mut self.monitor);
        self.integrity.append(integrity);
    }

    /// Queues `msg` back to the sender of the frame being handled.
    pub(crate) fn reply(&mut self, msg: WireMessage) {
        self.sends.push((Route::Reply, msg));
    }

    /// Empties every list, keeping its capacity, and clears every fact.
    pub(crate) fn clear(&mut self) {
        self.sends.clear();
        self.fenced.clear();
        self.monitor.clear();
        self.integrity.clear();
        self.catch_up = None;
        self.applied.clear();
        self.died.clear();
        self.joined = None;
    }
}

/// Something a step observed that the driver reacts to.
#[derive(Debug, Clone)]
pub enum Fact {
    /// The primary decided how to serve a joining or resyncing replica.
    CatchUpPlanned(CatchUpDecision),
    /// A catch-up frame (full transfer, resync diff or log suffix) landed
    /// at this backup; its restart record is closed.
    CatchUpLanded,
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
    /// A restarted backup is about to open its restart record and
    /// announce its rejoin.
    Rejoining,
}

/// What a step needs from the driver that runs it.
pub trait Driver {
    /// The driver's clock: virtual time in the simulator, the monotonic
    /// clock in `rtpb-rt`. Ledger entries are stamped with it.
    fn now(&self) -> Time;
    /// The host's local reading of [`Driver::now`], which the core sees.
    fn local(&self) -> Time;
    /// The `cluster.*` instruments no event carries.
    fn instruments(&self) -> &Instruments;
    /// Feeds the per-object ledger.
    fn ledger(&mut self, feed: impl FnOnce(&mut ClusterMetrics));
    /// Lends the fault ledger to `books`, stamped with [`Driver::now`]
    /// and the writer [`Driver::emit`] uses.
    fn faults<R>(&mut self, books: impl FnOnce(&mut FaultLedger, Stamp<'_>) -> R) -> R;
    /// Whether this host is the backup whose deliveries the ledger
    /// follows: the first live one.
    fn ledger_replica(&self) -> bool;
    /// Emits one event on the driver's clock, through a counting writer.
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
pub fn heartbeat_tick() -> TimeDelta {
    HEARTBEAT_PERIOD / 2
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
/// over [`MAX_DATAGRAM_BYTES`] is refused with a `send_rejected` event.
/// Otherwise `fate` draws the link's outcome, or returns `None` when the
/// driver's own gates drop the frame first; a frame that carries updates
/// is then counted and emitted as sent, and lost with its frame. Returns
/// the outcome.
#[inline(always)]
pub fn transmit(
    tel: &Instruments,
    from: NodeId,
    to: NodeId,
    msg: &WireMessage,
    bytes: usize,
    mut emit: impl FnMut(EventKind),
    fate: impl FnOnce() -> Option<LinkOutcome>,
) -> Option<LinkOutcome> {
    if bytes > MAX_DATAGRAM_BYTES {
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
            emit(EventKind::BatchSent { to, size, lost });
        }
        for update in updates {
            if let WireMessage::Update {
                object, version, ..
            } = update
            {
                emit(EventKind::UpdateSent {
                    object: *object,
                    version: *version,
                    to,
                    lost,
                });
            }
        }
    }
    Some(outcome)
}

/// Parses arrived bytes. A frame that fails (in practice an in-transit
/// bit flip, caught by the CRC32C trailer before any field is read) is
/// emitted as a frame integrity violation at `node` and dropped; the
/// retransmission machinery repairs the gap like a loss.
#[inline(always)]
pub fn parse<'b>(d: &mut impl Driver, node: NodeId, bytes: &'b [u8]) -> Option<WireFrame<'b>> {
    let frame = WireFrame::parse(bytes).ok();
    if frame.is_none() {
        d.emit(EventKind::IntegrityViolation {
            node,
            source: "frame",
            object: u64::MAX,
        });
    }
    frame
}

/// A serving primary applies one client write. On success it emits the
/// store snapshots the write triggered, feeds the ledger, records the
/// response time and emits `client_write`. `response` is the write's
/// response time when it crossed a queue; a write applied in zero time
/// (the session facade) records none and reports zero.
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
    if let Some(response) = response {
        d.instruments().response_time.record(response);
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
/// retransmission request is emitted and charged to the data-path fault
/// windows open on `from` first, then the core's output is surfaced in
/// the fixed order of DESIGN.md §16.
#[inline(always)]
pub fn primary_receive(d: &mut impl Driver, from: NodeId, frame: &WireFrame<'_>) {
    if let WireFrame::RetransmitRequest { object, .. } = frame {
        d.emit(EventKind::RetransmitRequested {
            object: *object,
            node: from,
        });
        d.faults(|f, at| f.retransmit_requested(at, from));
    }
    let local = d.local();
    let Some(primary) = d.primary() else {
        return;
    };
    let out = primary.handle_frame(frame, local);
    record(d, out, |_, _| {});
}

/// A deposed primary (the minority side of a split brain) handles a
/// frame. Only its fencing surfaces: its replies go nowhere, and its
/// incidents die with it. Returns whether the frame proved it
/// superseded.
pub fn deposed_receive(d: &mut impl Driver, frame: &WireFrame<'_>) -> bool {
    let local = d.local();
    let Some(primary) = d.primary() else {
        return false;
    };
    let mut out = primary.handle_frame(frame, local);
    let superseded = primary.is_deposed();
    let fenced = std::mem::take(&mut out.fenced);
    out.clear();
    out.fenced = fenced;
    record(d, out, |_, _| {});
    superseded
}

/// A backup handles a frame. The receive hot path stays on the borrowed
/// decode view: payload slices point into the delivered bytes and flow
/// straight into the store. Between the output's facts and its replies
/// (DESIGN.md §16), a catch-up frame ends a re-integration (its restart
/// record closes, timed into `cluster.recovery_time`), each applied
/// update is emitted, and at the backup the ledger follows, one ledger
/// feed per frame resets the §5.3 refresh clock of each update the frame
/// carries, fresh or duplicate, then records each applied update.
#[inline(always)]
pub fn backup_receive(d: &mut impl Driver, frame: &WireFrame<'_>) {
    let (now, local) = (d.now(), d.local());
    let follows = d.ledger_replica();
    let Some(backup) = d.backup() else {
        return;
    };
    let out = backup.handle_frame(frame, local);
    record(d, out, |d, out| {
        if matches!(
            frame,
            WireFrame::StateTransfer { .. }
                | WireFrame::ResyncDiff { .. }
                | WireFrame::LogSuffix { .. }
        ) {
            let node = out.node;
            let took = d.faults(|f, at| f.recover_pending(at, Pending::Recovery(node)));
            if let Some(took) = took {
                d.instruments().recovery_time.record(took);
            }
            d.react(Fact::CatchUpLanded);
        }
        for &(object, version, _) in &out.applied {
            d.emit(EventKind::UpdateApplied {
                object,
                version,
                node: out.node,
            });
        }
        if follows {
            d.ledger(|m| {
                frame.for_each_update(|object, _| m.on_backup_refresh(object, now));
                for &(object, version, write_ts) in &out.applied {
                    m.on_backup_apply(object, version, write_ts, now);
                }
            });
        }
    });
}

/// The primary's heartbeat tick: probes every tracked backup and
/// declares dead those past the miss threshold (whose update traffic the
/// core has already cancelled, §4.4).
pub fn primary_heartbeat(d: &mut impl Driver) {
    let local = d.local();
    let Some(primary) = d.primary() else {
        return;
    };
    let out = primary.tick_heartbeat(local);
    record(d, out, |_, _| {});
}

/// A backup's heartbeat tick against the serving primary `primary`:
/// probes it, declares it dead past the miss threshold (the ledger
/// records the instant, and the driver promotes or rejoins), and retries
/// a pending join cycle, charging the retry to the backup's open fault.
pub fn backup_heartbeat(d: &mut impl Driver, primary: NodeId) {
    let local = d.local();
    let Some(backup) = d.backup() else {
        return;
    };
    let node = backup.node();
    let out = backup.tick_heartbeat(primary, local);
    record(d, out, |d, out| {
        if !out.died.is_empty() {
            let now = d.now();
            d.ledger(|m| m.record_failover_started(now));
        }
    });
    if let Some(join) = d.backup().and_then(|b| b.tick_join(local)) {
        d.faults(|f, _| f.join_retried(node));
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

/// The host crashes (fail-stop, §4.1): its crash record opens, for the
/// peers' failure detectors to detect, then it goes down. The driver
/// takes its state machine away afterwards.
pub fn crash(d: &mut impl Driver) {
    use InjectedFault::{BackupCrash, PrimaryCrash};
    let primary = d.primary().map(|p| p.node());
    let Some(node) = primary.or_else(|| d.backup().map(|b| b.node())) else {
        return;
    };
    let (from, kind, key) = match primary {
        Some(_) => (Role::Primary, PrimaryCrash, Pending::PrimaryCrash),
        None => (Role::Backup, BackupCrash, Pending::BackupCrash(node)),
    };
    d.faults(|f, at| f.inject(at, kind, Watch::Step(key)));
    d.emit(EventKind::RoleTransition {
        node,
        from,
        to: Role::Down,
    });
}

/// A crashed backup host came back with the state machine the driver put
/// in its slot: a fresh one (cold) or its retained one (`durable`), which
/// re-arms its detector and advertises its last applied log position so
/// the primary can ship just the suffix it missed (DESIGN.md §11). The
/// restart's integrity incidents are surfaced, the driver reacts, the
/// restart record opens (the primary's admission detects it, the
/// catch-up frame closes it), then the rejoin is announced and the join
/// request sent.
pub fn restart(d: &mut impl Driver, durable: bool) {
    let local = d.local();
    let Some(backup) = d.backup() else {
        return;
    };
    let out = backup.restart(durable, local);
    record(d, out, |d, out| {
        d.react(Fact::Rejoining);
        let watch = Watch::Step(Pending::Recovery(out.node));
        d.faults(|f, at| f.inject(at, InjectedFault::BackupRecovery, watch));
        d.emit(EventKind::RoleTransition {
            node: out.node,
            from: Role::Down,
            to: Role::Joining,
        });
    });
}

/// A backup takes over as the new primary (§4.4): the promotion is
/// emitted, the ledger times it from the latest declaration, one
/// `cluster.failover_time` sample per promotion, and the primary crash
/// recovers. The driver rebinds the name and decides who rejoins.
pub fn promote(d: &mut impl Driver, backup: Backup) -> Primary {
    let local = d.local();
    let now = d.now();
    d.emit(EventKind::RoleTransition {
        node: backup.node(),
        from: Role::Backup,
        to: Role::Primary,
    });
    let primary = backup.promote(local);
    let mut duration = None;
    d.ledger(|m| duration = m.record_failover_complete(now));
    if let Some(duration) = duration {
        d.instruments().failover_time.record(duration);
    }
    d.faults(|f, at| f.recover_pending(at, Pending::PrimaryCrash));
    primary
}

/// Surfaces a core's output in a fixed order, then hands it back to the
/// host's core: the temporal-monitor events (DESIGN.md §14), a violation
/// detecting the open clock faults before the next event; the integrity
/// incidents, whose containment already happened inside the core (§15);
/// the fenced frames; the catch-up plan, a fact; `middle`, the step's own
/// part; each send, a probe announced by its `heartbeat_sent`; each peer
/// declared dead, which detects its crash and a partition of the pair;
/// and the backup admitted, which detects its restart and closes its
/// crash and partition.
#[inline(always)]
fn record<D: Driver>(d: &mut D, mut out: Output, middle: impl FnOnce(&mut D, &Output)) {
    let node = out.node;
    for event in out.monitor.drain(..) {
        match event {
            MonitorEvent::Violation(v) => {
                d.emit(EventKind::TimingViolation {
                    node,
                    evidence: v.name(),
                    observed_ns: v.observed_ns(),
                    bound_ns: v.bound_ns(),
                });
                d.faults(|f, at| f.timing_violation(at));
            }
            MonitorEvent::Degraded => d.emit(EventKind::MonitorDegraded { node }),
            MonitorEvent::Recovered => d.emit(EventKind::MonitorRecovered { node }),
        }
    }
    for event in out.integrity.drain(..) {
        d.emit(match event {
            IntegrityEvent::Violation { source, object, .. } => EventKind::IntegrityViolation {
                node,
                source: source.name(),
                object: object.map_or(u64::MAX, |id| u64::from(id.index())),
            },
            IntegrityEvent::ScrubDivergence { range, ranges } => EventKind::ScrubDivergence {
                node,
                range: u64::from(range),
                ranges: u64::from(ranges),
            },
        });
    }
    for &(frame, local) in &out.fenced {
        d.emit(EventKind::StaleEpochRejected {
            node,
            frame_epoch: frame.value(),
            local_epoch: local.value(),
        });
    }
    if let Some(plan) = out.catch_up.take() {
        d.emit(EventKind::CatchUpPlan {
            node: plan.node,
            path: plan.path.name(),
            gap: plan.gap,
            records: plan.records,
            bytes: plan.bytes,
        });
        d.react(Fact::CatchUpPlanned(plan));
    }
    middle(d, &out);
    for (route, msg) in out.sends.drain(..) {
        if let (Route::Node(to), WireMessage::Ping { .. }) = (route, &msg) {
            d.emit(EventKind::HeartbeatSent { from: node, to });
        }
        d.send(route, msg);
    }
    for &peer in &out.died {
        d.emit(EventKind::HeartbeatMissed { from: node, peer });
        // A primary declares a backup dead, a backup its primary.
        let (crash, backup) = if d.primary().is_some() {
            (Pending::BackupCrash(peer), peer)
        } else {
            (Pending::PrimaryCrash, node)
        };
        d.faults(|f, at| {
            f.detect_pending(at, crash);
            f.detect_pending(at, Pending::Partition(backup));
        });
        d.react(Fact::PeerDead { peer });
    }
    if let Some(joined) = out.joined {
        d.emit(EventKind::RoleTransition {
            node: joined,
            from: Role::Joining,
            to: Role::Backup,
        });
        d.faults(|f, at| {
            f.detect_pending(at, Pending::Recovery(joined));
            f.recover_pending(at, Pending::Partition(joined));
            f.recover_pending(at, Pending::BackupCrash(joined));
        });
        d.react(Fact::BackupJoined { node: joined });
    }
    if let Some(primary) = d.primary() {
        primary.recycle(out);
    } else if let Some(backup) = d.backup() {
        backup.recycle(out);
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
