//! The hot-path microbench: per-operation cost of the encode / decode /
//! apply loop the wire rewrite optimises, of the simulator's event queue
//! that every experiment runs through, and of the metrics ledger every
//! write, apply and checked read updates.
//!
//! The codec scenarios are paired so every zero-copy path is measured
//! against a reference implementation of the pre-change algorithm on
//! identical inputs (asserted byte-identical before timing):
//!
//! | scenario                | measures                                    |
//! |-------------------------|---------------------------------------------|
//! | `encode_update_pooled`  | `encode_into` a [`BufPool`] lease           |
//! | `encode_update_legacy`  | fresh-`Vec` encode per frame (old `encode`) |
//! | `encode_batch_pooled`   | batch sub-frames appended in place          |
//! | `encode_batch_legacy`   | old encode-then-copy batch assembly         |
//! | `decode_view`           | borrowing [`WireFrame`] parse               |
//! | `decode_owned`          | owned [`WireMessage::decode`]               |
//! | `primary_apply`         | `Primary::apply_client_write`               |
//! | `backup_apply`          | parse + `Backup::handle_frame`              |
//! | `checksum_batch`        | raw CRC32C over one batch frame image       |
//! | `decode_view_corrupt`   | borrowing parse *rejecting* a flipped bit   |
//! | `send_deliver_frame`    | one batch from encode to backup apply       |
//! | `update_frame`          | one update from slot to two backup applies  |
//! | `event_queue`           | one push + one pop, ~15k events pending     |
//! | `ledger`                | write + apply + staleness query, 5k objects |
//! | `flush_batch`           | one 467-update window flush to a frame      |
//!
//! Every encode scenario seals the frame with its CRC32C trailer and
//! every decode scenario verifies it (the codec has no unchecksummed
//! mode), so the paired pooled/legacy numbers price the checksum cost
//! honestly. `checksum_batch` and `decode_view_corrupt` isolate that
//! cost: the raw CRC pass over a batch image, and the price of
//! *detecting* a corrupted frame (full checksum pass, then the typed
//! error — never a panic).
//!
//! `send_deliver_frame` takes one batch of `batch_size` fresh updates,
//! one per object, along the path a simulated frame takes: encode with
//! its trailer into a [`FramePool`] frame that every destination shares,
//! [`LossyLink::transmit`] on a lossless link, [`steps::arrival_bytes`],
//! [`WireFrame`] parse and [`Backup::handle_frame`], whose output goes
//! back to the backup ([`Backup::recycle`]). It prices a frame's send and
//! delivery in the simulator apart from the event loop around them.
//!
//! `update_frame` is the unbatched path `failover` runs: the primary
//! writes one `payload_bytes` update over the spare slot the previous
//! send handed back ([`Coalescer::update`]), the update is re-stamped one
//! version up so both backups install it, encoded into a pooled frame,
//! and sent over two lossless links; each arrival is parsed and applied
//! at its backup. A return of a per-frame copy, a per-update payload or a
//! per-apply output list shows up here as allocations.
//!
//! `event_queue` replays the `stream` workload's timer mix on
//! [`EventQueue`] in steady state: 5,000 objects each with a client-write
//! timer (50 ms, split by a 2 µs CPU completion), a send timer (120 ms)
//! and a watchdog (72.5 ms), plus a few frames in flight with random
//! link delays. A return of the `O(log n)` pop shows up here first.
//!
//! `ledger` drives [`ClusterMetrics`] at `stream`'s 5,000 objects. One
//! operation is a primary write to the next object round-robin, the
//! backup apply of the write made 10 ms earlier, and read_fleet's ground
//! truth query, `earliest_write_after` one version back. Every object's
//! history window is full before the clock starts. The timed operations
//! fall between two compactions of the write journal (one per 320k
//! writes here), so the row prices the per-write path; a return of the
//! per-object history rings, whose query scans 1 KB per object, shows up
//! here.
//!
//! `flush_batch` closes one coalescing window at `stream`'s occupancy:
//! 467 parked objects of `payload_bytes` each go from the primary's store
//! into the update slots of the batch the previous flush handed back
//! ([`Coalescer`]), and the batch is sealed into a pooled frame. A return
//! of an owned update and payload per object shows up here as 934
//! allocations per flush.
//!
//! Each scenario reports ns/op and (when the caller supplies an
//! allocation counter — the `hotpath` binary installs a counting global
//! allocator) allocations/op, both taken as the minimum across repeats
//! so scheduler noise cannot manufacture a regression. The binary writes
//! `BENCH_hotpath.json` under the `rtpb.hotpath.v1` schema;
//! [`validate_report_json`] is the schema gate and [`compare_reports`]
//! the CI regression gate against the checked-in baseline.
//!
//! [`BufPool`]: rtpb_types::BufPool
//! [`FramePool`]: rtpb_types::FramePool
//! [`Backup::recycle`]: rtpb_core::backup::Backup::recycle
//! [`Coalescer::update`]: rtpb_core::steps::Coalescer::update
//! [`WireFrame`]: rtpb_core::wire::WireFrame
//! [`LossyLink::transmit`]: rtpb_net::LossyLink::transmit
//! [`steps::arrival_bytes`]: rtpb_core::steps::arrival_bytes
//! [`Backup::handle_frame`]: rtpb_core::backup::Backup::handle_frame
//! [`EventQueue`]: rtpb_sim::EventQueue
//! [`ClusterMetrics`]: rtpb_core::ClusterMetrics
//! [`Coalescer`]: rtpb_core::steps::Coalescer

use rtpb_core::backup::Backup;
use rtpb_core::config::ProtocolConfig;
use rtpb_core::primary::Primary;
use rtpb_core::steps::{self, Coalescer};
use rtpb_core::wire::{WireFrame, WireMessage, CRC_LEN};
use rtpb_core::ClusterMetrics;
use rtpb_net::{LinkConfig, LossyLink};
use rtpb_obs::json::{parse_flat, JsonObject, JsonValue};
use rtpb_sim::{EventQueue, SimRng};
use rtpb_types::{
    crc32c, BufPool, Epoch, FramePool, NodeId, ObjectId, ObjectSpec, Time, TimeDelta, Version,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Reads the process-wide allocation count; the `hotpath` binary wires
/// this to a counting `#[global_allocator]`. `None` disables alloc
/// metering (allocations/op report as zero and `allocs_counted` is
/// `false` in the JSON header).
pub type AllocCounter = fn() -> u64;

/// Every scenario the suite runs, in report order.
pub const SCENARIOS: [&str; 15] = [
    "encode_update_pooled",
    "encode_update_legacy",
    "encode_batch_pooled",
    "encode_batch_legacy",
    "decode_view",
    "decode_owned",
    "primary_apply",
    "backup_apply",
    "checksum_batch",
    "decode_view_corrupt",
    "send_deliver_frame",
    "update_frame",
    "event_queue",
    "ledger",
    "flush_batch",
];

/// Parameters of one suite run.
#[derive(Debug, Clone)]
pub struct HotpathConfig {
    /// Timed operations per repeat.
    pub iters: u64,
    /// Update payload size in bytes.
    pub payload_bytes: usize,
    /// Sub-messages per batch frame in the batch scenarios.
    pub batch_size: usize,
    /// Repeats per scenario; the minimum ns/op and allocs/op win.
    pub repeats: u32,
}

impl Default for HotpathConfig {
    fn default() -> Self {
        HotpathConfig {
            iters: 100_000,
            payload_bytes: 64,
            batch_size: 8,
            repeats: 5,
        }
    }
}

impl HotpathConfig {
    /// Quick variant for CI smoke runs: shorter repeats, but no fewer
    /// of them — the regression gate takes the minimum across repeats,
    /// and dropping repeats is what makes a noisy runner flag phantom
    /// regressions.
    #[must_use]
    pub fn quick() -> Self {
        HotpathConfig {
            iters: 50_000,
            ..HotpathConfig::default()
        }
    }
}

/// One scenario's measured cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name (one of [`SCENARIOS`]).
    pub name: &'static str,
    /// Best-of-repeats nanoseconds per operation.
    pub ns_per_op: f64,
    /// Best-of-repeats allocations per operation (zero when no counter
    /// was supplied).
    pub allocs_per_op: f64,
}

/// The whole suite's results.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// The configuration the suite ran with.
    pub config: HotpathConfig,
    /// Whether an [`AllocCounter`] was metering allocations.
    pub allocs_counted: bool,
    /// One outcome per entry in [`SCENARIOS`], in order.
    pub scenarios: Vec<ScenarioOutcome>,
}

/// Best-of-repeats measurement harness. `setup` builds fresh scenario
/// state per repeat (outside the timed region); one warm-up operation
/// primes pools and buffer capacities before the clock starts.
fn bench<S>(
    name: &'static str,
    config: &HotpathConfig,
    counter: Option<AllocCounter>,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut S),
) -> ScenarioOutcome {
    let mut best_ns = f64::INFINITY;
    let mut best_allocs = f64::INFINITY;
    for _ in 0..config.repeats.max(1) {
        let mut state = setup();
        op(&mut state);
        let before = counter.map(|c| c());
        let start = Instant::now();
        for _ in 0..config.iters {
            op(&mut state);
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        best_ns = best_ns.min(elapsed / config.iters as f64);
        if let (Some(c), Some(before)) = (counter, before) {
            best_allocs = best_allocs.min((c() - before) as f64 / config.iters as f64);
        }
    }
    ScenarioOutcome {
        name,
        ns_per_op: best_ns,
        allocs_per_op: if counter.is_some() { best_allocs } else { 0.0 },
    }
}

fn bench_spec(payload_bytes: usize) -> ObjectSpec {
    ObjectSpec::builder("hot-obj")
        .update_period(TimeDelta::from_millis(50))
        .primary_bound(TimeDelta::from_millis(150))
        .backup_bound(TimeDelta::from_millis(400))
        .size_bytes(payload_bytes.max(1))
        .build()
        .expect("valid bench spec")
}

fn sample_update(config: &HotpathConfig, version: u64, seq: u64) -> WireMessage {
    WireMessage::Update {
        epoch: Epoch::new(3),
        object: ObjectId::new(0),
        version: Version::new(version),
        timestamp: Time::from_millis(version),
        seq,
        payload: vec![0xA5; config.payload_bytes],
    }
}

fn sample_batch(config: &HotpathConfig) -> WireMessage {
    WireMessage::Batch {
        epoch: Epoch::new(3),
        messages: (0..config.batch_size as u64)
            .map(|i| sample_update(config, i + 1, i + 1))
            .collect(),
    }
}

/// One sub-frame's body bytes via the old encode-to-temporary path.
/// Sub-frames carry no trailer on the wire (the enclosing batch's
/// trailer covers them), so the temporary's own trailer is stripped —
/// the reference keeps the old allocation profile while producing the
/// checksummed format's exact bytes.
fn legacy_body(m: &WireMessage) -> Vec<u8> {
    let mut inner = Vec::new();
    m.encode_into(&mut inner);
    inner.truncate(inner.len() - CRC_LEN);
    inner
}

/// Reference implementation of the pre-change encoder: a fresh unsized
/// `Vec` per frame, and batches assembled encode-then-copy (each
/// sub-message encoded into its own temporary, then copied behind a
/// length prefix, with the CRC32C trailer sealed over the assembled
/// whole). Byte-identical to [`WireMessage::encode`] — the suite
/// asserts this before timing — but with the old allocation profile.
fn legacy_encode(msg: &WireMessage) -> Vec<u8> {
    let mut buf = Vec::new();
    if let WireMessage::Batch { messages, .. } = msg {
        // Batch header: tag + epoch + count (the first 13 bytes).
        let mut header = Vec::new();
        msg.encode_into(&mut header);
        buf.extend_from_slice(&header[..13]);
        for m in messages {
            let inner = legacy_body(m);
            buf.extend_from_slice(&(inner.len() as u32).to_be_bytes());
            buf.extend_from_slice(&inner);
        }
        let crc = crc32c(&buf);
        buf.extend_from_slice(&crc.to_be_bytes());
    } else {
        msg.encode_into(&mut buf);
    }
    buf
}

/// The legacy batch reference above re-encodes the header through the
/// new encoder, which would hide the old header cost; the timed closure
/// uses this precomputed-header variant instead, replicating exactly the
/// old per-iteration allocations: one growing outer vector plus one
/// temporary per sub-message.
fn legacy_encode_batch_with(header: &[u8], messages: &[WireMessage]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(header);
    for m in messages {
        let inner = legacy_body(m);
        buf.extend_from_slice(&(inner.len() as u32).to_be_bytes());
        buf.extend_from_slice(&inner);
    }
    let crc = crc32c(&buf);
    buf.extend_from_slice(&crc.to_be_bytes());
    buf
}

/// The `send_deliver_frame` state: the primary's frame pool, one lossless
/// link, the receiving backup with one object per batch member, and the
/// batch, re-stamped with fresh versions before each send.
struct SendDeliverState {
    pool: FramePool,
    link: LossyLink,
    backup: Backup,
    batch: WireMessage,
    now: Time,
}

impl SendDeliverState {
    fn new(config: &HotpathConfig) -> Self {
        let mut backup = Backup::new(NodeId::new(1), ProtocolConfig::default());
        for i in 0..config.batch_size {
            backup.sync_registration(
                ObjectId::new(i as u32),
                bench_spec(config.payload_bytes),
                TimeDelta::from_millis(50),
                Time::ZERO,
            );
        }
        let mut batch = sample_batch(config);
        let WireMessage::Batch { messages, .. } = &mut batch else {
            unreachable!("sample_batch builds a batch");
        };
        for (i, m) in messages.iter_mut().enumerate() {
            if let WireMessage::Update { object, .. } = m {
                *object = ObjectId::new(i as u32);
            }
        }
        SendDeliverState {
            pool: FramePool::new(),
            link: LossyLink::new(LinkConfig::default(), 7),
            backup,
            batch,
            now: Time::ZERO,
        }
    }

    /// One operation: one microsecond on, one version up for every
    /// object, then send and deliver the batch. Returns how many updates
    /// the backup installed.
    fn step(&mut self) -> usize {
        self.now += TimeDelta::from_micros(1);
        let WireMessage::Batch { messages, .. } = &mut self.batch else {
            unreachable!("the state holds a batch");
        };
        let members = messages.len() as u64;
        for m in messages.iter_mut() {
            if let WireMessage::Update {
                version,
                timestamp,
                seq,
                ..
            } = m
            {
                *version = Version::new(version.value() + 1);
                *timestamp = self.now;
                *seq += members;
            }
        }
        let batch = &self.batch;
        let frame = self.pool.frame(|buf| batch.encode_into(buf));
        let outcome = self.link.transmit(self.now, frame.len());
        let arrived = steps::arrival_bytes(&frame, outcome);
        let parsed = WireFrame::parse(&arrived).expect("a lossless link delivers intact frames");
        let out = self.backup.handle_frame(&parsed, self.now);
        let applied = out.applied.len();
        self.backup.recycle(out);
        applied
    }
}

/// The `update_frame` state: a primary holding one written object, its
/// coalescer's spare slots, its frame pool, and two backups behind
/// lossless links.
struct UpdateFrameState {
    primary: Primary,
    coalescer: Coalescer,
    pool: FramePool,
    backups: [(LossyLink, Backup); 2],
    id: ObjectId,
    version: u64,
}

/// The instant every `update_frame` operation runs at: inside the
/// primary's lease however many operations run.
const UPDATE_FRAME_NOW: Time = Time::from_millis(2);

impl UpdateFrameState {
    fn new(config: &HotpathConfig) -> Self {
        let protocol = ProtocolConfig {
            admission_enabled: false,
            ..ProtocolConfig::default()
        };
        let mut primary = Primary::new(NodeId::new(0), protocol.clone());
        let spec = bench_spec(config.payload_bytes);
        let id = primary
            .register(spec.clone(), Time::ZERO)
            .expect("admission is off");
        let backups = [1u16, 2].map(|node| {
            primary.add_backup(NodeId::new(node), Time::ZERO);
            let mut backup = Backup::new(NodeId::new(node), protocol.clone());
            let period = TimeDelta::from_millis(50);
            backup.sync_registration(id, spec.clone(), period, Time::ZERO);
            let link = LossyLink::new(LinkConfig::default(), 7 + u64::from(node));
            (link, backup)
        });
        let payload = vec![0xA5u8; config.payload_bytes];
        #[allow(deprecated)]
        primary.apply_client_write(id, payload, Time::from_millis(1));
        UpdateFrameState {
            primary,
            coalescer: Coalescer::default(),
            pool: FramePool::new(),
            backups,
            id,
            version: 1,
        }
    }

    /// One operation: the object's update into the spare slot, one
    /// version up, then encode, send, deliver and apply at both backups,
    /// and hand the slot back. Returns how many updates the backups
    /// installed.
    fn step(&mut self) -> usize {
        let now = UPDATE_FRAME_NOW;
        self.version += 1;
        let mut update = self
            .coalescer
            .update(&mut self.primary, self.id, now)
            .expect("the object is written and both backups are tracked");
        if let WireMessage::Update { version, .. } = &mut update {
            *version = Version::new(self.version);
        }
        let frame = self.pool.frame(|buf| update.encode_into(buf));
        let mut applied = 0;
        for (link, backup) in &mut self.backups {
            let outcome = link.transmit(now, frame.len());
            let arrived = steps::arrival_bytes(&frame, outcome);
            let parsed =
                WireFrame::parse(&arrived).expect("a lossless link delivers intact frames");
            let out = backup.handle_frame(&parsed, now);
            applied += out.applied.len();
            backup.recycle(out);
        }
        self.coalescer.recycle(update);
        applied
    }
}

/// Objects in the `event_queue` scenario, each with three timers.
const QUEUE_OBJECTS: usize = 5_000;

/// Frames in flight in the `event_queue` scenario.
const QUEUE_FRAMES: usize = 8;

/// `stream`'s timer delays at 5k objects: the client-write period, the
/// CPU service time of a write, the send period and the watchdog
/// interval.
const WRITE_PERIOD: TimeDelta = TimeDelta::from_millis(50);
const CPU_SERVICE: TimeDelta = TimeDelta::from_micros(2);
const SEND_PERIOD: TimeDelta = TimeDelta::from_millis(120);
const WATCHDOG_INTERVAL: TimeDelta = TimeDelta::from_micros(72_500);

/// One pending event of the `event_queue` scenario, padded to the
/// simulator's 48-byte cluster event.
#[derive(Debug, Clone, Copy)]
struct Timer {
    kind: TimerKind,
    _pad: [u64; 5],
}

#[derive(Debug, Clone, Copy)]
enum TimerKind {
    ClientWrite,
    CpuFinished,
    Send,
    Watchdog,
    Deliver,
}

/// The `event_queue` state: the queue, its clock, and the random
/// source of link delays.
struct QueueState {
    queue: EventQueue<Timer>,
    now: Time,
    rng: SimRng,
}

impl QueueState {
    /// Fills the queue with phase-staggered timers and runs it past the
    /// longest period, so every timer has re-armed with its own delay.
    fn steady() -> Self {
        let mut rng = SimRng::seed_from(7);
        let mut queue = EventQueue::new();
        let timers = [
            (TimerKind::ClientWrite, WRITE_PERIOD),
            (TimerKind::Send, SEND_PERIOD),
            (TimerKind::Watchdog, WATCHDOG_INTERVAL),
        ];
        for (kind, period) in timers {
            for _ in 0..QUEUE_OBJECTS {
                let phase = rng.delay_between(TimeDelta::ZERO, period);
                queue.push(Time::ZERO + phase, Timer { kind, _pad: [0; 5] });
            }
        }
        for _ in 0..QUEUE_FRAMES {
            let delay = Self::link_delay(&mut rng);
            let kind = TimerKind::Deliver;
            queue.push(Time::ZERO + delay, Timer { kind, _pad: [0; 5] });
        }
        let mut state = QueueState {
            queue,
            now: Time::ZERO,
            rng,
        };
        while state.now < Time::from_millis(250) {
            state.step();
        }
        state
    }

    fn link_delay(rng: &mut SimRng) -> TimeDelta {
        rng.delay_between(TimeDelta::from_micros(100), TimeDelta::from_millis(10))
    }

    /// One operation: pop the earliest event and push its successor.
    fn step(&mut self) {
        let (now, timer) = self.queue.pop().expect("every event re-arms");
        let (kind, delay) = match timer.kind {
            TimerKind::ClientWrite => (TimerKind::CpuFinished, CPU_SERVICE),
            TimerKind::CpuFinished => (TimerKind::ClientWrite, WRITE_PERIOD - CPU_SERVICE),
            TimerKind::Send => (TimerKind::Send, SEND_PERIOD),
            TimerKind::Watchdog => (TimerKind::Watchdog, WATCHDOG_INTERVAL),
            TimerKind::Deliver => (TimerKind::Deliver, Self::link_delay(&mut self.rng)),
        };
        self.queue.push(now + delay, Timer { kind, ..timer });
        self.now = now;
    }
}

/// Objects the `ledger` scenario tracks: `stream`'s object count.
const LEDGER_OBJECTS: u64 = 5_000;

/// The `ledger` scenario's virtual time per write: one write per object
/// per 50 ms, `stream`'s write period.
const LEDGER_WRITE_GAP: TimeDelta = TimeDelta::from_micros(10);

/// How many writes an apply trails its write by in the `ledger`
/// scenario: 10 ms, about `stream`'s coalescing window.
const LEDGER_APPLY_LAG: u64 = 1_000;

/// Writes per object before the `ledger` clock starts: past a full
/// history window and the journal's first compaction.
const LEDGER_WARMUP_ROUNDS: u64 = 130;

/// The `ledger` state: the metrics ledger and the number of writes made.
struct LedgerState {
    metrics: ClusterMetrics,
    writes: u64,
}

impl LedgerState {
    fn steady() -> Self {
        let mut state = LedgerState {
            metrics: ClusterMetrics::new(),
            writes: 0,
        };
        for i in 0..LEDGER_OBJECTS {
            let id = ObjectId::new(i as u32);
            let window = TimeDelta::from_millis(100);
            let bound = TimeDelta::from_millis(150);
            state
                .metrics
                .track_object(id, window, bound, bound + window);
        }
        while state.writes < LEDGER_WARMUP_ROUNDS * LEDGER_OBJECTS {
            state.step();
        }
        state
    }

    /// The `n`th write: round-robin over the objects, each write one
    /// version past the object's previous one.
    fn write(n: u64) -> (ObjectId, Version, Time) {
        let id = ObjectId::new((n % LEDGER_OBJECTS) as u32);
        let version = Version::new(n / LEDGER_OBJECTS + 1);
        (id, version, Time::ZERO + LEDGER_WRITE_GAP * n)
    }

    /// One operation; returns the query's answer.
    fn step(&mut self) -> Option<Time> {
        let (id, version, now) = Self::write(self.writes);
        self.metrics.on_primary_write(id, version, now);
        if let Some(earlier) = self.writes.checked_sub(LEDGER_APPLY_LAG) {
            let (applied, applied_version, written) = Self::write(earlier);
            self.metrics
                .on_backup_apply(applied, applied_version, written, now);
        }
        self.writes += 1;
        let behind = Version::new(version.value() - 1);
        self.metrics.earliest_write_after(id, behind)
    }
}

/// Objects parked per coalescing window in `flush_batch`: `stream`'s
/// occupancy (5,000 objects sent every 120 ms, one flush per 11.25 ms).
const FLUSH_OCCUPANCY: u32 = 467;

/// The `flush_batch` state: a primary holding one written object per
/// parked id, its coalescer, and the send pool the frame is sealed into.
struct FlushState {
    primary: Primary,
    coalescer: Coalescer,
    ids: Vec<ObjectId>,
    pool: BufPool,
}

impl FlushState {
    fn new(config: &HotpathConfig) -> Self {
        let protocol = ProtocolConfig {
            admission_enabled: false,
            ..ProtocolConfig::default()
        };
        let mut primary = Primary::new(NodeId::new(0), protocol);
        primary.add_backup(NodeId::new(1), Time::ZERO);
        let payload = vec![0xA5u8; config.payload_bytes];
        let ids = (0..FLUSH_OCCUPANCY)
            .map(|_| {
                let id = primary
                    .register(bench_spec(config.payload_bytes), Time::ZERO)
                    .expect("admission is off");
                #[allow(deprecated)]
                primary.apply_client_write(id, payload.clone(), Time::from_millis(1));
                id
            })
            .collect();
        FlushState {
            primary,
            coalescer: Coalescer::default(),
            ids,
            pool: BufPool::new(),
        }
    }

    /// One operation: park every object, flush the window into a frame,
    /// seal it, and hand the batch back. Returns the frame's length.
    fn step(&mut self) -> usize {
        for &id in &self.ids {
            self.coalescer.park(id);
        }
        let batch = self
            .coalescer
            .flush(Some(&mut self.primary), Time::from_millis(2))
            .expect("every parked object is written");
        let mut buf = self.pool.lease();
        batch.encode_into(&mut buf);
        self.coalescer.recycle(batch);
        buf.as_slice().len()
    }
}

/// Runs the whole suite. Pass the binary's allocation counter to meter
/// allocations/op; pass `None` (e.g. from unit tests, where no counting
/// allocator is installed) to record timing only.
#[must_use]
pub fn run_suite(config: &HotpathConfig, counter: Option<AllocCounter>) -> HotpathReport {
    let update = sample_update(config, 1, 1);
    let batch = sample_batch(config);
    let update_bytes = update.encode();
    let batch_bytes = batch.encode();
    assert_eq!(
        legacy_encode(&update),
        update_bytes,
        "legacy reference encoder must stay bit-compatible"
    );
    assert_eq!(
        legacy_encode(&batch),
        batch_bytes,
        "legacy reference encoder must stay bit-compatible"
    );
    let batch_header = batch_bytes[..13].to_vec();
    let WireMessage::Batch { messages, .. } = batch.clone() else {
        unreachable!("sample_batch builds a batch");
    };
    assert_eq!(
        legacy_encode_batch_with(&batch_header, &messages),
        batch_bytes,
        "legacy batch assembly must stay bit-compatible"
    );

    let mut scenarios = Vec::new();
    scenarios.push(bench(
        "encode_update_pooled",
        config,
        counter,
        || (BufPool::new(), update.clone()),
        |(pool, msg)| {
            let mut buf = pool.lease();
            msg.encode_into(&mut buf);
            black_box(buf.as_slice().len());
        },
    ));
    scenarios.push(bench(
        "encode_update_legacy",
        config,
        counter,
        || update.clone(),
        |msg| {
            let mut buf = Vec::new();
            msg.encode_into(&mut buf);
            black_box(buf.len());
        },
    ));
    scenarios.push(bench(
        "encode_batch_pooled",
        config,
        counter,
        || (BufPool::new(), batch.clone()),
        |(pool, msg)| {
            let mut buf = pool.lease();
            msg.encode_into(&mut buf);
            black_box(buf.as_slice().len());
        },
    ));
    scenarios.push(bench(
        "encode_batch_legacy",
        config,
        counter,
        || (batch_header.clone(), messages.clone()),
        |(header, messages)| {
            let buf = legacy_encode_batch_with(header, messages);
            black_box(buf.len());
        },
    ));
    scenarios.push(bench(
        "decode_view",
        config,
        counter,
        || batch_bytes.clone(),
        |bytes| {
            let frame = WireFrame::parse(bytes).expect("valid frame");
            black_box(frame.update_count());
        },
    ));
    scenarios.push(bench(
        "decode_owned",
        config,
        counter,
        || batch_bytes.clone(),
        |bytes| {
            let msg = WireMessage::decode(bytes).expect("valid frame");
            black_box(msg.update_count());
        },
    ));
    scenarios.push(bench(
        "primary_apply",
        config,
        counter,
        || {
            let mut primary = Primary::new(NodeId::new(0), ProtocolConfig::default());
            let id = primary
                .register(bench_spec(config.payload_bytes), Time::ZERO)
                .expect("admitted");
            let payload = vec![0xA5u8; config.payload_bytes];
            (primary, id, payload)
        },
        |(primary, id, payload)| {
            // Micro-benching the state-machine apply itself, so the
            // deprecated direct entry (bypassing the session facade) is
            // exactly what this scenario measures.
            #[allow(deprecated)]
            let v = primary.apply_client_write(*id, payload.clone(), Time::from_millis(1));
            black_box(v.expect("write accepted"));
        },
    ));
    scenarios.push({
        // Pre-encode one strictly-fresher update frame per operation so
        // every apply takes the install path, not the duplicate path.
        let frames: Vec<Vec<u8>> = (0..=config.iters + 1)
            .map(|i| sample_update(config, i + 1, i + 1).encode())
            .collect();
        bench(
            "backup_apply",
            config,
            counter,
            || {
                let mut backup = Backup::new(NodeId::new(1), ProtocolConfig::default());
                backup.sync_registration(
                    ObjectId::new(0),
                    bench_spec(config.payload_bytes),
                    TimeDelta::from_millis(50),
                    Time::ZERO,
                );
                (backup, 0usize)
            },
            |(backup, next)| {
                let frame = WireFrame::parse(&frames[*next]).expect("valid frame");
                let out = backup.handle_frame(&frame, Time::from_millis(1));
                black_box(out.applied.len());
                *next += 1;
            },
        )
    });
    scenarios.push(bench(
        "checksum_batch",
        config,
        counter,
        || batch_bytes.clone(),
        |bytes| {
            black_box(crc32c(bytes));
        },
    ));
    scenarios.push(bench(
        "decode_view_corrupt",
        config,
        counter,
        || {
            // One flipped payload bit: the parse must walk the whole
            // frame's checksum and come back with the typed error.
            let mut bytes = batch_bytes.clone();
            let at = bytes.len() - CRC_LEN - 1;
            bytes[at] ^= 0x01;
            bytes
        },
        |bytes| {
            let err = WireFrame::parse(bytes).expect_err("flip must be detected");
            black_box(&err);
        },
    ));
    scenarios.push(bench(
        "send_deliver_frame",
        config,
        counter,
        || SendDeliverState::new(config),
        |state| {
            black_box(state.step());
        },
    ));
    scenarios.push(bench(
        "update_frame",
        config,
        counter,
        || UpdateFrameState::new(config),
        |state| {
            black_box(state.step());
        },
    ));
    scenarios.push(bench(
        "event_queue",
        config,
        counter,
        QueueState::steady,
        |state| {
            state.step();
            black_box(state.now);
        },
    ));
    scenarios.push(bench(
        "ledger",
        config,
        counter,
        LedgerState::steady,
        |state| {
            black_box(state.step());
        },
    ));
    scenarios.push(bench(
        "flush_batch",
        config,
        counter,
        || FlushState::new(config),
        |state| {
            black_box(state.step());
        },
    ));

    HotpathReport {
        config: config.clone(),
        allocs_counted: counter.is_some(),
        scenarios,
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

impl HotpathReport {
    /// The outcome of one named scenario, if present.
    #[must_use]
    pub fn scenario(&self, name: &str) -> Option<&ScenarioOutcome> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Renders the report as the `BENCH_hotpath.json` document. Top
    /// level is a nested JSON object; the per-scenario leaves are flat
    /// objects in the trace-JSON dialect so the validator checks them
    /// with the same parser the event schema uses.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"rtpb.hotpath.v1\",");
        let _ = writeln!(out, "  \"iters\": {},", self.config.iters);
        let _ = writeln!(out, "  \"payload_bytes\": {},", self.config.payload_bytes);
        let _ = writeln!(out, "  \"batch_size\": {},", self.config.batch_size);
        let _ = writeln!(out, "  \"repeats\": {},", self.config.repeats);
        let _ = writeln!(out, "  \"allocs_counted\": {},", self.allocs_counted);
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            let mut o = JsonObject::new();
            o.str_field("name", s.name)
                .float_field("ns_per_op", round2(s.ns_per_op))
                .float_field("allocs_per_op", round2(s.allocs_per_op));
            let _ = write!(out, "    {}", o.finish());
            out.push_str(if i + 1 == self.scenarios.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders a human-readable summary table.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "hot-path microbench ({} iters/repeat)",
            self.config.iters
        );
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>14}",
            "scenario", "ns/op", "allocs/op"
        );
        for s in &self.scenarios {
            let _ = writeln!(
                out,
                "{:<22} {:>12.1} {:>14.2}",
                s.name, s.ns_per_op, s.allocs_per_op
            );
        }
        out
    }
}

/// Extracts every scenario leaf from a report document as
/// `(name, ns_per_op, allocs_per_op)` triples.
fn parse_scenarios(text: &str) -> Result<Vec<(String, f64, f64)>, String> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(p) = text[at..].find("{\"name\":") {
        let start = at + p;
        let end = text[start..]
            .find('}')
            .map(|q| start + q + 1)
            .ok_or("unterminated scenario object")?;
        let flat =
            parse_flat(&text[start..end]).map_err(|e| format!("bad scenario object: {e}"))?;
        let name = flat
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("scenario missing \"name\"")?
            .to_string();
        let num = |field: &str| -> Result<f64, String> {
            match flat.get(field) {
                Some(JsonValue::Float(v)) => Ok(*v),
                Some(JsonValue::UInt(v)) => Ok(*v as f64),
                Some(_) => Err(format!("\"{name}\".\"{field}\" has the wrong type")),
                None => Err(format!("\"{name}\" missing field \"{field}\"")),
            }
        };
        out.push((name.clone(), num("ns_per_op")?, num("allocs_per_op")?));
        at = end;
    }
    Ok(out)
}

/// Validates a `BENCH_hotpath.json` document against the v1 schema: the
/// header fields, and every scenario in [`SCENARIOS`] present exactly
/// once with numeric `ns_per_op` and `allocs_per_op`.
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    if !text.contains("\"schema\": \"rtpb.hotpath.v1\"") {
        return Err("missing or unknown \"schema\" header".into());
    }
    for key in ["iters", "payload_bytes", "batch_size", "repeats"] {
        if !text.contains(&format!("\"{key}\": ")) {
            return Err(format!("missing header field \"{key}\""));
        }
    }
    if !text.contains("\"allocs_counted\": ") {
        return Err("missing header field \"allocs_counted\"".into());
    }
    let scenarios = parse_scenarios(text)?;
    for required in SCENARIOS {
        match scenarios.iter().filter(|(n, _, _)| n == required).count() {
            1 => {}
            0 => return Err(format!("missing scenario \"{required}\"")),
            _ => return Err(format!("duplicate scenario \"{required}\"")),
        }
    }
    Ok(())
}

/// Compares a fresh report against a baseline: a metric regresses when
/// it exceeds the baseline by more than `threshold_pct` percent AND by
/// an absolute floor (0.5 ns or 0.5 allocs), so near-zero baselines
/// don't flag on measurement noise. Scenarios present in only one of
/// the two documents are ignored — adding a scenario must not fail the
/// gate retroactively — and so are the `*_legacy` reference scenarios:
/// they model the *pre-change* codec for comparison, so their cost is
/// not a floor the product has to defend (and, being malloc-bound,
/// they are the noisiest numbers in the report).
///
/// Returns the list of regressions, one description per failing metric
/// (empty means the gate passes).
///
/// # Errors
///
/// Returns a description of the first parse problem in either document.
pub fn compare_reports(
    fresh: &str,
    baseline: &str,
    threshold_pct: f64,
) -> Result<Vec<String>, String> {
    let fresh = parse_scenarios(fresh)?;
    let baseline = parse_scenarios(baseline)?;
    let factor = 1.0 + threshold_pct / 100.0;
    let mut regressions = Vec::new();
    for (name, base_ns, base_allocs) in &baseline {
        if name.ends_with("_legacy") {
            continue;
        }
        let Some((_, new_ns, new_allocs)) = fresh.iter().find(|(n, _, _)| n == name) else {
            continue;
        };
        if *new_ns > base_ns * factor && *new_ns > base_ns + 0.5 {
            regressions.push(format!(
                "{name}: ns_per_op {new_ns:.1} exceeds baseline {base_ns:.1} by more than {threshold_pct}%"
            ));
        }
        if *new_allocs > base_allocs * factor && *new_allocs > base_allocs + 0.5 {
            regressions.push(format!(
                "{name}: allocs_per_op {new_allocs:.2} exceeds baseline {base_allocs:.2} by more than {threshold_pct}%"
            ));
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HotpathConfig {
        HotpathConfig {
            iters: 50,
            payload_bytes: 16,
            batch_size: 3,
            repeats: 1,
        }
    }

    #[test]
    fn suite_runs_and_reports_every_scenario() {
        let report = run_suite(&tiny(), None);
        assert_eq!(report.scenarios.len(), SCENARIOS.len());
        for (s, name) in report.scenarios.iter().zip(SCENARIOS) {
            assert_eq!(s.name, name);
            assert!(s.ns_per_op.is_finite() && s.ns_per_op >= 0.0, "{name}");
        }
        assert!(!report.allocs_counted);
    }

    #[test]
    fn json_passes_its_own_schema_gate() {
        let text = run_suite(&tiny(), None).to_json();
        validate_report_json(&text).expect("schema-valid");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_report_json("{}").is_err());
        let text = run_suite(&tiny(), None).to_json();
        assert!(validate_report_json(&text.replace("rtpb.hotpath.v1", "v0")).is_err());
        assert!(validate_report_json(&text.replace("decode_view", "decode_misc")).is_err());
        assert!(validate_report_json(&text.replace("\"iters\": ", "\"its\": ")).is_err());
    }

    fn synthetic(tweak: impl Fn(&mut ScenarioOutcome)) -> String {
        let mut report = HotpathReport {
            config: tiny(),
            allocs_counted: true,
            scenarios: SCENARIOS
                .iter()
                .enumerate()
                .map(|(i, &name)| {
                    let mut s = ScenarioOutcome {
                        name,
                        ns_per_op: 100.0 + i as f64,
                        allocs_per_op: i as f64,
                    };
                    tweak(&mut s);
                    s
                })
                .collect(),
        };
        report.config.repeats = 1;
        report.to_json()
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let base = synthetic(|_| {});
        // Identical reports never regress.
        assert_eq!(
            compare_reports(&base, &base, 25.0).unwrap(),
            Vec::<String>::new()
        );
        // A 10% drift under the 25% threshold is tolerated.
        let drift = synthetic(|s| s.ns_per_op *= 1.1);
        assert_eq!(
            compare_reports(&drift, &base, 25.0).unwrap(),
            Vec::<String>::new()
        );
        // A 2x ns_per_op blowup on one scenario is flagged, alone.
        let blowup = synthetic(|s| {
            if s.name == "decode_owned" {
                s.ns_per_op *= 2.0;
            }
        });
        let regressions = compare_reports(&blowup, &base, 25.0).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].starts_with("decode_owned: ns_per_op"));
        // Sub-floor noise above a near-zero alloc baseline is not a
        // regression (0 -> 0.3 allocs/op is 30% of nothing)...
        let noise = synthetic(|s| s.allocs_per_op += 0.3);
        assert_eq!(
            compare_reports(&noise, &base, 25.0).unwrap(),
            Vec::<String>::new()
        );
        // ...but a real alloc jump is.
        let leak = synthetic(|s| {
            if s.name == "encode_batch_pooled" {
                s.allocs_per_op += 9.0;
            }
        });
        let regressions = compare_reports(&leak, &base, 25.0).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].starts_with("encode_batch_pooled: allocs_per_op"));
        // Legacy reference scenarios are comparison baselines, not
        // product paths — a blowup there never fails the gate.
        let legacy_blowup = synthetic(|s| {
            if s.name.ends_with("_legacy") {
                s.ns_per_op *= 10.0;
                s.allocs_per_op += 100.0;
            }
        });
        assert_eq!(
            compare_reports(&legacy_blowup, &base, 25.0).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn send_deliver_frame_applies_every_update_in_the_batch() {
        let config = HotpathConfig::default();
        assert_eq!(config.batch_size, 8);
        let mut state = SendDeliverState::new(&config);
        for _ in 0..100 {
            assert_eq!(state.step(), 8);
        }
    }

    #[test]
    fn update_frame_installs_every_update_at_both_backups() {
        let mut state = UpdateFrameState::new(&HotpathConfig::default());
        for _ in 0..100 {
            assert_eq!(state.step(), 2);
        }
        let pool = &state.pool;
        assert_eq!(
            pool.reuses() + 1,
            pool.issued(),
            "one frame serves every send"
        );
    }

    #[test]
    fn event_queue_scenario_keeps_every_timer_pending() {
        let mut state = QueueState::steady();
        let pending = 3 * QUEUE_OBJECTS + QUEUE_FRAMES;
        assert_eq!(state.queue.len(), pending);
        let before = state.now;
        for _ in 0..1_000 {
            state.step();
        }
        assert!(state.now > before);
        assert_eq!(state.queue.len(), pending);
    }

    #[test]
    fn ledger_scenario_answers_with_the_write_just_made() {
        let mut state = LedgerState::steady();
        for _ in 0..1_000 {
            let (id, _, now) = LedgerState::write(state.writes);
            assert_eq!(state.step(), Some(now));
            let report = state.metrics.object_report(id).expect("tracked");
            // Every earlier write to the object has been applied.
            assert_eq!(report.applies + 1, report.writes);
        }
    }

    #[test]
    fn legacy_encoders_stay_bit_compatible() {
        let config = tiny();
        let batch = sample_batch(&config);
        assert_eq!(legacy_encode(&batch), batch.encode());
        let update = sample_update(&config, 7, 7);
        assert_eq!(legacy_encode(&update), update.encode());
    }
}
