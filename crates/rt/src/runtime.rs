//! The thread-based cluster runtime.

use rtpb_core::backup::Backup;
use rtpb_core::config::ConfigError;
use rtpb_core::harness::{ClusterConfig, FaultEvent};
use rtpb_core::metrics::ClusterMetrics;
use rtpb_core::name_service::NameService;
use rtpb_core::primary::Primary;
use rtpb_core::steps::{self, Coalescer, Driver, Fact, Route, SweepMember, Sweeps, TimerKind};
use rtpb_core::telemetry::Instruments;
use rtpb_core::wire::{ReadStatus, WireMessage};
use rtpb_net::{LinkConfig, LossyLink};
use rtpb_obs::{ClockDomain, EventKind, EventWriter, MetricsRegistry, Role};
use rtpb_sim::EventQueue;
use rtpb_types::{
    AdmissionError, Epoch, Frame, FramePool, NodeId, ObjectId, ObjectSpec, Time, TimeDelta,
};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for a real-clock run: a simulator [`ClusterConfig`],
/// plus what the simulator takes through its API instead.
///
/// `num_backups`, `link`, `seed`, `auto_failover`,
/// `control_loss_exempt`, `bus` and `registry` mean what they mean in the
/// simulator. The fault plan runs at wall-clock offsets from the start
/// of the run; [`RtCluster::run`] refuses what the runtime cannot
/// execute.
#[derive(Debug, Clone, Default)]
pub struct RtConfig {
    /// The cluster to run.
    pub cluster: ClusterConfig,
    /// Objects to register before the run starts.
    pub objects: Vec<ObjectSpec>,
    /// If set, a reader thread issues one replica read per period
    /// (round-robin over the objects) as wire-level
    /// [`WireMessage::ReadRequest`] frames: first to the first live
    /// backup, and — when it answers `Behind`/`Unknown` or not at all —
    /// again to the primary (counted as a redirect).
    pub read_period: Option<Duration>,
}

/// The outcome of a real-clock run.
#[derive(Debug, Clone)]
pub struct RtReport {
    /// Client writes applied by a serving primary.
    pub writes: u64,
    /// Updates transmitted toward the backups.
    pub updates_sent: u64,
    /// Updates installed at the backup the ledger follows (the first
    /// live one).
    pub updates_applied: u64,
    /// Backup-initiated retransmission requests observed.
    pub retransmit_requests: u64,
    /// Mean client response time (channel + apply latency).
    pub mean_response: Option<TimeDelta>,
    /// Average per-object maximum primary–backup distance.
    pub average_max_distance: Option<TimeDelta>,
    /// Out-of-window episodes across all objects.
    pub inconsistency_episodes: u64,
    /// Whether a backup promoted itself during the run.
    pub failed_over: bool,
    /// Catch-up frames (state transfer, resync diff or log suffix) that
    /// landed at a backup re-joining a primary.
    pub backup_rejoins: u64,
    /// The subset of [`RtReport::backup_rejoins`] completed by a log
    /// suffix instead of a full state transfer (durable restarts whose
    /// gap the primary's update log still covered).
    pub suffix_rejoins: u64,
    /// Replica reads answered locally by a backup (with a staleness
    /// certificate); 0 unless [`RtConfig::read_period`] is set.
    pub reads_served: u64,
    /// Reads the backup could not serve that were redirected to (and
    /// answered by) the primary.
    pub read_redirects: u64,
    /// Timing-assumption violations raised by the runtime temporal
    /// monitors (DESIGN.md §14). Zero on a healthy host: the real clock
    /// is monotone and the default envelope absorbs scheduler jitter.
    pub timing_violations: u64,
    /// Checksum verification failures detected by any node — wire
    /// frames, retained log records, log snapshots, or stored object
    /// images (DESIGN.md §15).
    pub integrity_violations: u64,
}

/// Why a real-clock run could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum RtError {
    /// No objects were configured.
    NoObjects,
    /// The cluster has no backup.
    NoBackups,
    /// The configuration contradicts itself.
    Config(ConfigError),
    /// The configuration asks for something the runtime does not execute:
    /// a fault-plan event other than `CrashPrimary`, `CrashBackup`,
    /// `RecoverBackup` and `RestartBackup` on an existing host, or
    /// backup recruitment.
    Unsupported(String),
    /// An object failed admission control.
    Rejected(AdmissionError),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::NoObjects => write!(f, "no objects configured"),
            RtError::NoBackups => write!(f, "the cluster needs at least one backup"),
            RtError::Config(e) => write!(f, "invalid configuration: {e}"),
            RtError::Unsupported(what) => write!(f, "the runtime cannot execute {what}"),
            RtError::Rejected(e) => write!(f, "object rejected by admission control: {e}"),
        }
    }
}

impl Error for RtError {}

impl From<AdmissionError> for RtError {
    fn from(e: AdmissionError) -> Self {
        RtError::Rejected(e)
    }
}

/// The real-clock cluster. Use [`RtCluster::run`] to execute a complete
/// run; threads are joined before it returns.
#[derive(Debug)]
pub struct RtCluster;

/// The longest a thread blocks before it re-checks the stop flag.
const MAX_WAIT: Duration = Duration::from_millis(5);

/// What a node's inbox carries.
enum Input {
    /// A frame from node `from` that arrives at `due`.
    Frame {
        from: NodeId,
        due: Time,
        bytes: Frame,
    },
    /// A client write sent at `sent`.
    Write {
        object: ObjectId,
        payload: Vec<u8>,
        sent: Time,
    },
    /// A fault-plan event aimed at this node.
    Fault(FaultEvent),
}

/// A node's role, as published for routing and ledger attribution.
const DOWN: u8 = 0;
const PRIMARY: u8 = 1;
const BACKUP: u8 = 2;

struct Shared {
    start: Instant,
    stop: AtomicBool,
    names: Mutex<NameService>,
    /// Each node's role code, indexed by node id.
    roles: Vec<AtomicU8>,
    /// Each node's inbox, indexed by node id; the reader's comes last.
    inboxes: Vec<Sender<Input>>,
    metrics: Mutex<ClusterMetrics>,
    instruments: Instruments,
    rejoins: AtomicU64,
    suffix_rejoins: AtomicU64,
}

impl Shared {
    fn now(&self) -> Time {
        Time::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn serving(&self) -> NodeId {
        self.names.lock().expect("names poisoned").resolve()
    }

    /// The first node holding a backup state machine: the replica the
    /// ledger follows and the reader asks first.
    fn ledger_replica(&self) -> Option<NodeId> {
        self.roles
            .iter()
            .position(|r| r.load(Ordering::SeqCst) == BACKUP)
            .map(node_id)
    }
}

fn node_id(index: usize) -> NodeId {
    NodeId::new(u16::try_from(index).expect("node ids fit u16"))
}

/// Sleeps until `due` on the run's clock, at most [`MAX_WAIT`].
fn nap_until(shared: &Shared, due: Time) {
    let wait = due.saturating_since(shared.now());
    std::thread::sleep(Duration::from(wait).min(MAX_WAIT));
}

impl RtCluster {
    /// Runs a cluster for `duration` of wall-clock time and reports.
    ///
    /// # Errors
    ///
    /// Returns [`RtError`] if no objects are configured, the
    /// configuration is invalid or asks for something the runtime does
    /// not execute, or admission control rejects an object.
    pub fn run(config: RtConfig, duration: Duration) -> Result<RtReport, RtError> {
        let RtConfig {
            cluster,
            objects,
            read_period,
        } = config;
        if objects.is_empty() {
            return Err(RtError::NoObjects);
        }
        cluster.validate().map_err(RtError::Config)?;
        if cluster.num_backups == 0 {
            return Err(RtError::NoBackups);
        }
        if cluster.recruit_backup_after.is_some() {
            return Err(RtError::Unsupported("recruit_backup_after".into()));
        }
        let plan = cluster.fault_plan.events();
        for (_, event) in &plan {
            match *event {
                FaultEvent::CrashPrimary => {}
                FaultEvent::CrashBackup { host }
                | FaultEvent::RecoverBackup { host }
                | FaultEvent::RestartBackup { host }
                    if host < cluster.num_backups => {}
                other => return Err(RtError::Unsupported(format!("{other:?}"))),
            }
        }

        // Count into the configured registry, or into a private one so
        // the report reads real counts either way.
        let registry = if cluster.registry.is_enabled() {
            cluster.registry.clone()
        } else {
            MetricsRegistry::new()
        };
        let nodes = 1 + cluster.num_backups;
        let reader = node_id(nodes);
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..=nodes).map(|_| channel()).unzip();
        let start = Instant::now();
        let mut primary = Primary::new(node_id(0), cluster.protocol.clone());
        let mut metrics = ClusterMetrics::new();
        let mut ids = Vec::new();
        for backup in 1..nodes {
            primary.add_backup(node_id(backup), Time::ZERO);
        }
        for spec in objects {
            let id = primary.register(spec.clone(), Time::ZERO)?;
            metrics.track_object(id, spec.window(), spec.primary_bound(), spec.backup_bound());
            ids.push((id, spec));
        }
        let registry_snapshot: Arc<[(ObjectId, ObjectSpec, TimeDelta)]> = primary.registry().into();
        for (id, _, period) in registry_snapshot.iter() {
            metrics.set_refresh_allowance(*id, cluster.protocol.refresh_allowance(*period));
        }
        let shared = Arc::new(Shared {
            start,
            stop: AtomicBool::new(false),
            names: Mutex::new(NameService::new(node_id(0))),
            roles: (0..nodes)
                .map(|i| AtomicU8::new(if i == 0 { PRIMARY } else { BACKUP }))
                .collect(),
            inboxes,
            metrics: Mutex::new(metrics),
            instruments: Instruments::from_registry(&registry),
            rejoins: AtomicU64::new(0),
            suffix_rejoins: AtomicU64::new(0),
        });
        let cluster = Arc::new(cluster);

        let mut hosts = vec![Host::Primary(Box::new(primary))];
        for index in 1..nodes {
            let backup = fresh_backup(node_id(index), &cluster, &registry_snapshot, Time::ZERO);
            hosts.push(Host::Backup(Box::new(backup)));
        }
        let mut threads = Vec::new();
        let mut receivers = receivers.into_iter();
        for (index, host) in hosts.into_iter().enumerate() {
            let inbox = receivers.next().expect("one inbox per node");
            let node = Node::new(
                node_id(index),
                host,
                Arc::clone(&shared),
                Arc::clone(&cluster),
                Arc::clone(&registry_snapshot),
            );
            threads.push(std::thread::spawn(move || node.run(&inbox)));
        }
        let reader_inbox = receivers.next().expect("the reader's inbox");
        if let Some(period) = read_period {
            let shared = Arc::clone(&shared);
            let objects: Vec<ObjectId> = ids.iter().map(|(id, _)| *id).collect();
            let outbox = Outbox::new(reader, nodes + 1, &cluster);
            threads.push(std::thread::spawn(move || {
                reader_loop(&shared, outbox, &objects, &reader_inbox, period);
            }));
        }
        let client = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || client_loop(&client, &ids)));

        // The fault plan, at wall-clock offsets from the start.
        let end = Time::ZERO + TimeDelta::from(duration);
        for (at, event) in plan {
            if at >= end {
                break;
            }
            while shared.now() < at {
                nap_until(&shared, at);
            }
            let target = match event {
                FaultEvent::CrashBackup { host }
                | FaultEvent::RecoverBackup { host }
                | FaultEvent::RestartBackup { host } => node_id(1 + host),
                _ => shared.serving(),
            };
            let _ = shared.inboxes[usize::from(target.index())].send(Input::Fault(event));
        }
        while shared.now() < end {
            nap_until(&shared, end);
        }
        shared.stop.store(true, Ordering::SeqCst);
        for thread in threads {
            thread.join().expect("runtime thread");
        }

        let mut metrics = shared.metrics.lock().expect("metrics poisoned").clone();
        metrics.finalize(shared.now());
        let reports: Vec<_> = metrics
            .object_ids()
            .filter_map(|id| metrics.object_report(id))
            .collect();
        let failed_over = shared
            .names
            .lock()
            .expect("names poisoned")
            .failover_count()
            > 0;
        let counters = &shared.instruments;
        Ok(RtReport {
            writes: reports.iter().map(|r| r.writes).sum(),
            updates_sent: counters.updates_sent.get(),
            updates_applied: reports.iter().map(|r| r.applies).sum(),
            retransmit_requests: counters.retransmit_requests.get(),
            mean_response: metrics.response_times().mean(),
            average_max_distance: metrics.average_max_distance(),
            inconsistency_episodes: reports.iter().map(|r| r.inconsistency_episodes).sum(),
            failed_over,
            backup_rejoins: shared.rejoins.load(Ordering::SeqCst),
            suffix_rejoins: shared.suffix_rejoins.load(Ordering::SeqCst),
            reads_served: counters.reads_served.get(),
            read_redirects: counters.read_redirects.get(),
            timing_violations: counters.timing_violations.get(),
            integrity_violations: counters.integrity_violations.get(),
        })
    }
}

/// A backup that holds the registry but no object state yet.
fn fresh_backup(
    node: NodeId,
    cluster: &ClusterConfig,
    registry: &[(ObjectId, ObjectSpec, TimeDelta)],
    now: Time,
) -> Backup {
    let mut backup = Backup::new(node, cluster.protocol.clone());
    backup.sync_registry(registry, now);
    backup
}

/// The client thread: each object's writes at its update period, sent to
/// whichever node the name service binds.
fn client_loop(shared: &Shared, objects: &[(ObjectId, ObjectSpec)]) {
    let mut due = EventQueue::new();
    for (i, _) in objects.iter().enumerate() {
        due.push(Time::ZERO + TimeDelta::from_micros(997 * (i as u64 + 1)), i);
    }
    let mut counter: u64 = 0;
    while !shared.stopped() {
        let now = shared.now();
        let Some((at, i)) = due.pop_due(now) else {
            nap_until(shared, due.peek_time().unwrap_or(now));
            continue;
        };
        let (id, spec) = &objects[i];
        counter += 1;
        let mut payload = vec![0u8; spec.size_bytes()];
        let stamp = counter.to_be_bytes();
        let n = stamp.len().min(payload.len());
        payload[..n].copy_from_slice(&stamp[..n]);
        let serving = shared.serving();
        let _ = shared.inboxes[usize::from(serving.index())].send(Input::Write {
            object: *id,
            payload,
            sent: now,
        });
        due.push(at + spec.update_period(), i);
    }
}

/// The reader thread: one replica read per `period`, round-robin over
/// the objects. Reads go to the first live backup; a backup that answers
/// `Behind`/`Unknown`/`Unsound` (or not at all within the reply deadline)
/// costs a redirect to the primary.
fn reader_loop(
    shared: &Shared,
    mut outbox: Outbox,
    objects: &[ObjectId],
    replies: &Receiver<Input>,
    period: Duration,
) {
    let reader = outbox.from;
    let obs = outbox.obs.clone();
    let emit = |kind: EventKind| obs.emit(ClockDomain::Real, shared.now(), kind);
    let reply_deadline = Duration::from_millis(50);
    // Requests are strictly sequential, one outstanding at a time.
    let mut ask = |node: NodeId, request: &WireMessage| -> Option<WireMessage> {
        let bytes = outbox.encode(request);
        outbox.transmit(shared, node, request, &bytes);
        let deadline = Instant::now() + reply_deadline;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match replies.recv_timeout(left.min(MAX_WAIT)) {
                Ok(Input::Frame { due, bytes, .. }) => {
                    while shared.now() < due {
                        nap_until(shared, due);
                    }
                    if let Ok(reply @ WireMessage::ReadReply { .. }) = WireMessage::decode(&bytes) {
                        return Some(reply);
                    }
                }
                Ok(_) | Err(RecvTimeoutError::Timeout) if !left.is_zero() => {}
                _ => return None,
            }
        }
    };
    for object in objects.iter().cycle() {
        if shared.stopped() {
            return;
        }
        let request = WireMessage::ReadRequest {
            epoch: Epoch::INITIAL,
            from: reader,
            object: *object,
            floor: None,
        };
        let answer = shared
            .ledger_replica()
            .and_then(|node| ask(node, &request).map(|reply| (node, reply)));
        match answer {
            Some((
                served_by,
                WireMessage::ReadReply {
                    status: ReadStatus::Served,
                    version,
                    age_bound,
                    ..
                },
            )) => {
                shared.instruments.reads_served.inc();
                emit(EventKind::ReadServed {
                    object: *object,
                    served_by,
                    version,
                    age_bound,
                    consistency: "bounded",
                });
            }
            other => {
                // Redirect: ask the primary (the authoritative copy). An
                // `Unsound` refusal means the backup's monitor disowned
                // its certificates (DESIGN.md §14).
                let unsound = matches!(other, Some((_, WireMessage::ReadReply { status, .. })) if status == ReadStatus::Unsound);
                let reason = if unsound {
                    "replica_unsound"
                } else {
                    "replica_unavailable"
                };
                let primary = shared.serving();
                if let Some(WireMessage::ReadReply {
                    status: ReadStatus::Served,
                    ..
                }) = ask(primary, &request)
                {
                    shared.instruments.read_redirects.inc();
                    emit(EventKind::ReadRedirected {
                        object: *object,
                        primary,
                        consistency: "bounded",
                        reason,
                    });
                }
            }
        }
        std::thread::sleep(period);
    }
}

/// What a node runs: a primary, a backup, or nothing (a crashed host,
/// holding the retained state machine a durable restart brings back).
enum Host {
    Primary(Box<Primary>),
    Backup(Box<Backup>),
    Down(Option<Box<Backup>>),
}

/// A node timer, tagged with the role generation that armed it.
enum Tick {
    /// The per-object timers of one sweep group: the primary's send
    /// timers, or a backup's watchdogs.
    Sweep(u32),
    /// The end of the open coalescing window.
    Flush,
    Heartbeat,
}

/// What a node's timer queue holds.
enum Due {
    /// A timer armed in role generation `generation`.
    Timer { generation: u32, tick: Tick },
    /// A frame in flight from `from`, delivered when due.
    Arrival { from: NodeId, bytes: Frame },
}

/// The data and control lanes of one outbound link.
struct Lanes {
    data: LossyLink,
    control: LossyLink,
}

/// A sender's outbound links, one per destination id, and its frame
/// encoder.
struct Outbox {
    from: NodeId,
    lanes: Vec<Lanes>,
    control_loss_exempt: bool,
    obs: EventWriter,
    /// The sender's frames, reused once the receiving thread has handled
    /// their last arrival.
    pool: FramePool,
}

impl Outbox {
    fn new(from: NodeId, destinations: usize, cluster: &ClusterConfig) -> Self {
        // Control traffic rides a physically redundant path with the
        // same delays but none of the faults (§4.1).
        let control = LinkConfig {
            loss_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            corrupt_probability: 0.0,
            burst: None,
            ..cluster.link
        };
        let lanes = (0..destinations as u64)
            .map(|to| {
                let from = u64::from(from.index()) << 20;
                let base = cluster.seed.wrapping_add(100 + from + 2 * to);
                Lanes {
                    data: LossyLink::new(cluster.link, base),
                    control: LossyLink::new(control, base.wrapping_add(1)),
                }
            })
            .collect();
        Outbox {
            from,
            lanes,
            control_loss_exempt: cluster.control_loss_exempt,
            obs: cluster.bus.writer(),
            pool: FramePool::new(),
        }
    }

    /// Encodes `msg` once, into a pooled frame that every destination
    /// and arrival of the frame shares.
    fn encode(&mut self, msg: &WireMessage) -> Frame {
        self.pool.frame(|buf| msg.encode_into(buf))
    }

    /// Puts `msg`, encoded as `bytes`, on the link to `to`: the link
    /// draws its fate now, and each arrival lands in `to`'s inbox with
    /// its due time (and its bit flip, if corrupted).
    fn transmit(&mut self, shared: &Shared, to: NodeId, msg: &WireMessage, bytes: &Frame) {
        let now = shared.now();
        let data = msg.rides_data_link() || !self.control_loss_exempt;
        let lanes = &mut self.lanes[usize::from(to.index())];
        let obs = &self.obs;
        let sent = steps::transmit(
            &shared.instruments,
            self.from,
            to,
            msg,
            bytes.len(),
            |kind| obs.emit(ClockDomain::Real, now, kind),
            || {
                let lane = if data {
                    &mut lanes.data
                } else {
                    &mut lanes.control
                };
                Some(lane.transmit(now, bytes.len()))
            },
        );
        let Some((outcome, carried)) = sent else {
            return;
        };
        if carried > 0 && shared.ledger_replica() == Some(to) {
            let mut metrics = shared.metrics.lock().expect("metrics poisoned");
            for _ in 0..carried {
                metrics.record_update_sent(outcome.is_lost());
            }
        }
        for due in outcome.arrivals() {
            let _ = shared.inboxes[usize::from(to.index())].send(Input::Frame {
                from: self.from,
                due,
                bytes: steps::arrival_bytes(bytes, outcome),
            });
        }
    }
}

/// One node thread: a host running the shared steps over one timer
/// queue, moving between primary, backup and down.
struct Node {
    id: NodeId,
    host: Host,
    shared: Arc<Shared>,
    cluster: Arc<ClusterConfig>,
    registry: Arc<[(ObjectId, ObjectSpec, TimeDelta)]>,
    outbox: Outbox,
    queue: EventQueue<Due>,
    /// Bumped on every role change; timers of an older role lapse.
    generation: u32,
    /// The role's per-object timers, grouped by due instant.
    sweeps: Sweeps,
    coalescer: Coalescer,
    /// The sender of the frame being handled.
    sender: NodeId,
    /// The primary this node follows as a backup: the one its failure
    /// detector watches and its requests go to.
    primary: NodeId,
}

impl Node {
    fn new(
        id: NodeId,
        host: Host,
        shared: Arc<Shared>,
        cluster: Arc<ClusterConfig>,
        registry: Arc<[(ObjectId, ObjectSpec, TimeDelta)]>,
    ) -> Self {
        Node {
            id,
            host,
            outbox: Outbox::new(id, shared.inboxes.len(), &cluster),
            primary: shared.serving(),
            shared,
            cluster,
            registry,
            queue: EventQueue::new(),
            generation: 0,
            sweeps: Sweeps::default(),
            coalescer: Coalescer::default(),
            sender: id,
        }
    }

    fn run(mut self, inbox: &Receiver<Input>) {
        self.arm_role();
        while !self.shared.stopped() {
            let now = self.shared.now();
            while let Some((_, due)) = self.queue.pop_due(now) {
                self.fire(due);
            }
            let wait = self
                .queue
                .peek_time()
                .map_or(MAX_WAIT, |t| Duration::from(t.saturating_since(now)))
                .min(MAX_WAIT);
            match inbox.recv_timeout(wait) {
                Ok(Input::Frame { from, due, bytes }) => {
                    self.queue.push(due, Due::Arrival { from, bytes });
                }
                Ok(Input::Write {
                    object,
                    payload,
                    sent,
                }) => {
                    let response = self.shared.now().saturating_since(sent);
                    steps::client_write(&mut self, object, &payload, Some(response));
                }
                Ok(Input::Fault(fault)) => self.fault(fault),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    fn fire(&mut self, due: Due) {
        let (generation, tick) = match due {
            Due::Arrival { from, bytes } => return self.receive(from, &bytes),
            Due::Timer { generation, tick } => (generation, tick),
        };
        let current = generation == self.generation;
        match tick {
            Tick::Sweep(slot) => {
                let members = self.sweeps.take(slot);
                if current {
                    self.sweep(&members);
                }
                self.sweeps.release(slot, members);
            }
            Tick::Flush if current => steps::flush(self),
            Tick::Heartbeat if current => {
                self.schedule(
                    steps::heartbeat_tick(&self.cluster.protocol),
                    Tick::Heartbeat,
                );
                if matches!(self.host, Host::Primary(_)) {
                    steps::primary_heartbeat(self);
                } else {
                    steps::backup_heartbeat(self, self.primary);
                }
            }
            Tick::Flush | Tick::Heartbeat => {}
        }
    }

    /// Runs a sweep's members in filing order: the primary's send timers
    /// or this backup's watchdogs. Each member files its next firing
    /// first, from one clock reading for the whole sweep.
    fn sweep(&mut self, members: &[SweepMember]) {
        let now = self.shared.now();
        for &(object, kind) in members {
            match kind {
                TimerKind::Send => steps::send_timer(self, object, |node, period| {
                    node.file((object, kind), now + period);
                }),
                TimerKind::Watchdog => {
                    self.file((object, kind), now + self.watchdog_interval(object));
                    steps::watchdog(self, object);
                }
            }
        }
    }

    /// Files `member` to fire at `due`, and schedules the sweep of the
    /// group it opens, if it opens one.
    fn file(&mut self, member: SweepMember, due: Time) {
        let generation = self.generation;
        if let Some(slot) = self
            .sweeps
            .file(member, due, generation, self.queue.pushed())
        {
            let tick = Tick::Sweep(slot);
            self.queue.push(due, Due::Timer { generation, tick });
        }
    }

    /// A frame arrives. A crashed host neither speaks nor listens.
    fn receive(&mut self, from: NodeId, bytes: &[u8]) {
        if matches!(self.host, Host::Down(_)) {
            return;
        }
        self.sender = from;
        let Some(frame) = steps::parse(self, self.id, bytes) else {
            return;
        };
        if matches!(self.host, Host::Primary(_)) {
            steps::primary_receive(self, from, &frame);
        } else {
            steps::backup_receive(self, &frame);
        }
    }

    /// Executes a fault-plan event aimed at this node, if the node is in
    /// the role the event acts on.
    fn fault(&mut self, fault: FaultEvent) {
        let now = self.shared.now();
        let host = std::mem::replace(&mut self.host, Host::Down(None));
        let (host, durable) = match (fault, host) {
            (FaultEvent::CrashPrimary, Host::Primary(_)) => {
                self.emit(EventKind::RoleTransition {
                    node: self.id,
                    from: Role::Primary,
                    to: Role::Down,
                });
                (Host::Down(None), None)
            }
            (FaultEvent::CrashBackup { .. }, Host::Backup(backup)) => {
                self.emit(EventKind::RoleTransition {
                    node: self.id,
                    from: Role::Backup,
                    to: Role::Down,
                });
                (Host::Down(Some(backup)), None)
            }
            (FaultEvent::RestartBackup { .. }, Host::Down(Some(retained))) => {
                (Host::Backup(retained), Some(true))
            }
            (
                FaultEvent::RecoverBackup { .. } | FaultEvent::RestartBackup { .. },
                Host::Down(_),
            ) => {
                let backup = fresh_backup(self.id, &self.cluster, &self.registry, now);
                (Host::Backup(Box::new(backup)), Some(false))
            }
            (_, unchanged) => {
                self.host = unchanged;
                return;
            }
        };
        self.become_host(host);
        if let Some(durable) = durable {
            self.primary = self.shared.serving();
            steps::restart(self, durable);
        }
    }

    /// Moves the node into `host`: the old role's timers lapse, the new
    /// role's start, and the role is published.
    fn become_host(&mut self, host: Host) {
        self.host = host;
        let code = match self.host {
            Host::Primary(_) => PRIMARY,
            Host::Backup(_) => BACKUP,
            Host::Down(_) => DOWN,
        };
        self.shared.roles[usize::from(self.id.index())].store(code, Ordering::SeqCst);
        self.arm_role();
    }

    /// Starts the current role's timers under a fresh generation: a
    /// primary's heartbeat and phase-staggered send tasks, a backup's
    /// heartbeat and watchdogs, filed into sweeps in id order.
    fn arm_role(&mut self) {
        self.generation += 1;
        self.coalescer = Coalescer::default();
        let registry = Arc::clone(&self.registry);
        let now = self.shared.now();
        match &self.host {
            Host::Primary(_) => {
                self.schedule(TimeDelta::ZERO, Tick::Heartbeat);
                for &(id, _, period) in registry.iter() {
                    self.file((id, TimerKind::Send), now + steps::send_phase(id, period));
                }
            }
            Host::Backup(_) => {
                self.schedule(TimeDelta::ZERO, Tick::Heartbeat);
                for &(id, _, _) in registry.iter() {
                    let interval = self.watchdog_interval(id);
                    self.file((id, TimerKind::Watchdog), now + interval);
                }
            }
            Host::Down(_) => {}
        }
    }

    fn schedule(&mut self, after: TimeDelta, tick: Tick) {
        let generation = self.generation;
        self.queue
            .push(self.shared.now() + after, Due::Timer { generation, tick });
    }

    fn watchdog_interval(&self, object: ObjectId) -> TimeDelta {
        // The registry lists objects in id order.
        let period = self
            .registry
            .binary_search_by_key(&object, |(id, _, _)| *id)
            .ok()
            .map(|i| self.registry[i].2);
        steps::watchdog_interval(&self.cluster.protocol, period)
    }
}

impl Driver for Node {
    fn now(&self) -> Time {
        self.shared.now()
    }

    fn local(&self) -> Time {
        self.shared.now()
    }

    fn instruments(&self) -> &Instruments {
        &self.shared.instruments
    }

    fn ledger(&mut self, feed: impl FnOnce(&mut ClusterMetrics)) {
        feed(&mut self.shared.metrics.lock().expect("metrics poisoned"));
    }

    fn ledger_replica(&self) -> bool {
        self.shared.ledger_replica() == Some(self.id)
    }

    fn emit(&mut self, kind: EventKind) {
        self.outbox
            .obs
            .emit(ClockDomain::Real, self.shared.now(), kind);
    }

    fn primary(&mut self) -> Option<&mut Primary> {
        match &mut self.host {
            Host::Primary(primary) => Some(primary),
            _ => None,
        }
    }

    fn backup(&mut self) -> Option<&mut Backup> {
        match &mut self.host {
            Host::Backup(backup) => Some(backup),
            _ => None,
        }
    }

    fn coalescer(&mut self) -> &mut Coalescer {
        &mut self.coalescer
    }

    fn send(&mut self, route: Route, msg: WireMessage) {
        let bytes = self.outbox.encode(&msg);
        let to = match route {
            Route::Primary => self.primary,
            Route::Reply => self.sender,
            Route::Node(to) => to,
            Route::Update(_) | Route::Batch => {
                for to in (0..self.shared.roles.len()).map(node_id) {
                    if matches!(&self.host, Host::Primary(p) if p.tracks(to)) {
                        self.outbox.transmit(&self.shared, to, &msg, &bytes);
                    }
                }
                self.coalescer.recycle(msg);
                return;
            }
        };
        self.outbox.transmit(&self.shared, to, &msg, &bytes);
    }

    fn arm_flush(&mut self, after: TimeDelta) {
        self.schedule(after, Tick::Flush);
    }

    fn react(&mut self, fact: Fact) {
        match fact {
            Fact::CatchUpLanded { suffix } => {
                self.shared.rejoins.fetch_add(1, Ordering::SeqCst);
                if suffix {
                    self.shared.suffix_rejoins.fetch_add(1, Ordering::SeqCst);
                }
            }
            // The first backup to declare its primary dead while the name
            // still binds it takes over; every other one re-joins
            // whichever primary the name binds now.
            Fact::PeerDead { peer } if matches!(self.host, Host::Backup(_)) => {
                let now = self.shared.now();
                self.ledger(|m| m.record_failover_started(now));
                let takes_over = self.cluster.auto_failover && {
                    let mut names = self.shared.names.lock().expect("names poisoned");
                    let unchanged = names.resolve() == peer;
                    if unchanged {
                        names.rebind(self.id, now);
                    }
                    unchanged
                };
                if !takes_over {
                    self.primary = self.shared.serving();
                    steps::join(self);
                    return;
                }
                let Host::Backup(backup) = std::mem::replace(&mut self.host, Host::Down(None))
                else {
                    unreachable!("only a backup declares its primary dead");
                };
                let primary = steps::promote(self, *backup);
                self.become_host(Host::Primary(Box::new(primary)));
            }
            // A joined backup restarts every send task, as in the
            // simulator: tasks lapse while no backup is alive.
            Fact::BackupJoined { .. } => self.arm_role(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpb_core::config::ProtocolConfig;
    use rtpb_core::harness::FaultPlan;
    use rtpb_obs::EventBus;

    fn spec(period_ms: u64) -> ObjectSpec {
        ObjectSpec::builder("rt-obj")
            .update_period(TimeDelta::from_millis(period_ms))
            .primary_bound(TimeDelta::from_millis(period_ms + 50))
            .backup_bound(TimeDelta::from_millis(period_ms + 450))
            .build()
            .unwrap()
    }

    fn config(objects: &[u64]) -> RtConfig {
        RtConfig {
            objects: objects.iter().map(|&p| spec(p)).collect(),
            ..RtConfig::default()
        }
    }

    fn at_ms(v: u64) -> Time {
        Time::from_millis(v)
    }

    #[test]
    fn replicates_in_real_time() {
        let report = RtCluster::run(config(&[20, 30]), Duration::from_millis(1200)).unwrap();
        assert!(report.writes >= 40, "writes: {}", report.writes);
        assert!(report.updates_applied > 0, "backup must receive updates");
        assert!(!report.failed_over);
        let mean = report.mean_response.unwrap();
        assert!(
            mean < TimeDelta::from_millis(50),
            "in-process response time should be small, got {mean}"
        );
    }

    #[test]
    fn batched_pipeline_replicates_in_real_time() {
        let mut config = config(&[20, 30]);
        config.cluster.protocol.coalesce_window = TimeDelta::from_millis(5);
        config.cluster.bus = EventBus::with_capacity(16_384);
        let bus = config.cluster.bus.clone();
        let report = RtCluster::run(config, Duration::from_millis(1200)).unwrap();
        assert!(report.writes > 0);
        assert!(
            report.updates_applied > 0,
            "backup must apply batched updates"
        );
        assert!(!report.failed_over);
        let events = bus.collect();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::BatchSent { .. })),
            "batched run must emit batch frames"
        );
    }

    #[test]
    fn rejects_empty_object_list() {
        assert_eq!(
            RtCluster::run(RtConfig::default(), Duration::from_millis(10)).unwrap_err(),
            RtError::NoObjects
        );
    }

    #[test]
    fn rejects_inadmissible_objects() {
        let mut config = config(&[]);
        config.objects.push(
            ObjectSpec::builder("bad")
                .update_period(TimeDelta::from_millis(100))
                .primary_bound(TimeDelta::from_millis(50)) // p > δP
                .backup_bound(TimeDelta::from_millis(500))
                .build()
                .unwrap(),
        );
        assert!(matches!(
            RtCluster::run(config, Duration::from_millis(10)),
            Err(RtError::Rejected(_))
        ));
    }

    #[test]
    fn rejects_an_invalid_config() {
        let mut config = config(&[20]);
        // A lease outliving the detection bound would let a promoted
        // backup coexist with a still-leased primary.
        config.cluster.protocol = ProtocolConfig {
            lease_duration: TimeDelta::from_millis(400),
            ..ProtocolConfig::default()
        };
        assert!(matches!(
            RtCluster::run(config, Duration::from_millis(10)),
            Err(RtError::Config(
                ConfigError::LeaseOutlivesDeclarationBound { .. }
            ))
        ));
    }

    #[test]
    fn rejects_a_cluster_without_backups() {
        let mut config = config(&[20]);
        config.cluster.num_backups = 0;
        assert_eq!(
            RtCluster::run(config, Duration::from_millis(10)).unwrap_err(),
            RtError::NoBackups
        );
    }

    #[test]
    fn rejects_backup_recruitment() {
        let mut config = config(&[20]);
        config.cluster.recruit_backup_after = Some(TimeDelta::from_millis(100));
        assert!(matches!(
            RtCluster::run(config, Duration::from_millis(10)),
            Err(RtError::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_faults_it_cannot_execute() {
        let ms = TimeDelta::from_millis;
        for fault in [
            FaultEvent::PartitionPrimary { duration: ms(100) },
            FaultEvent::Partition {
                host: 0,
                duration: ms(100),
            },
            FaultEvent::LossBurst {
                host: None,
                duration: ms(100),
                loss: 1.0,
            },
            FaultEvent::ClockFreeze {
                host: None,
                duration: ms(100),
            },
            FaultEvent::SetLoss { loss: 0.5 },
            FaultEvent::CorruptState { host: 0, flips: 1 },
            FaultEvent::CrashBackup { host: 1 },
        ] {
            let mut config = config(&[20]);
            config.cluster.fault_plan = FaultPlan::new().at(at_ms(10), fault);
            assert!(
                matches!(
                    RtCluster::run(config, Duration::from_millis(10)),
                    Err(RtError::Unsupported(_))
                ),
                "{fault:?} must be refused"
            );
        }
    }

    #[test]
    fn failover_promotes_backup_under_real_clock() {
        let mut config = config(&[20]);
        config.cluster.fault_plan = FaultPlan::new().at(at_ms(300), FaultEvent::CrashPrimary);
        let report = RtCluster::run(config, Duration::from_millis(1500)).unwrap();
        assert!(
            report.failed_over,
            "backup must detect the crash and promote"
        );
        assert!(report.writes > 0);
    }

    #[test]
    fn lease_expiry_silences_updates_without_acks() {
        let mut config = config(&[20]);
        // The backup dies and never comes back: with nobody acking, the
        // primary's lease lapses, so under the real clock both the update
        // stream and client writes stop — a primary that once replicated
        // must assume a silent peer may have promoted past it, and keeps
        // refusing writes until a backup re-joins and re-arms the lease.
        config.cluster.fault_plan =
            FaultPlan::new().at(at_ms(300), FaultEvent::CrashBackup { host: 0 });
        let report = RtCluster::run(config, Duration::from_millis(1500)).unwrap();
        assert!(!report.failed_over, "a dead backup cannot promote");
        // ~27 writes (20 ms cadence) fit before the crash plus one lease
        // of grace; an ungated run would serve ~75.
        assert!(report.writes > 10);
        assert!(
            report.writes < 40,
            "lapsed lease must gate client writes: {}",
            report.writes
        );
        // Updates are gated the same way: ~15 fit, a full run sends ~75.
        assert!(report.updates_sent > 0);
        assert!(
            report.updates_sent < 50,
            "lapsed lease must gate updates: {}",
            report.updates_sent
        );
    }

    #[test]
    fn event_bus_captures_real_clock_run() {
        let mut config = config(&[20]);
        config.cluster.bus = EventBus::with_capacity(16_384);
        let bus = config.cluster.bus.clone();
        let report = RtCluster::run(config, Duration::from_millis(800)).unwrap();
        assert!(report.writes > 0);
        let events = bus.collect();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.clock == ClockDomain::Real));
        let kinds: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.kind.name()).collect();
        for required in [
            "update_sent",
            "update_applied",
            "heartbeat_sent",
            "client_write",
        ] {
            assert!(kinds.contains(required), "missing {required}: {kinds:?}");
        }
        for line in bus.export_jsonl().lines() {
            rtpb_obs::validate_line(line).expect("schema-valid line");
        }
    }

    #[test]
    fn counts_into_the_configured_registry() {
        let mut config = config(&[20]);
        config.cluster.registry = MetricsRegistry::new();
        let registry = config.cluster.registry.clone();
        let report = RtCluster::run(config, Duration::from_millis(500)).unwrap();
        assert!(report.updates_sent > 0);
        assert_eq!(
            registry.counter("cluster.updates_sent").get(),
            report.updates_sent
        );
    }

    #[test]
    fn replica_reads_serve_with_certificates() {
        let mut config = config(&[20]);
        config.read_period = Some(Duration::from_millis(10));
        config.cluster.bus = EventBus::with_capacity(16_384);
        let bus = config.cluster.bus.clone();
        let report = RtCluster::run(config, Duration::from_millis(1500)).unwrap();
        assert!(report.writes > 0);
        assert!(
            report.reads_served > 0,
            "the backup must answer reads locally: {report:?}"
        );
        let events = bus.collect();
        let served = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::ReadServed {
                    served_by,
                    age_bound,
                    ..
                } => Some((*served_by, *age_bound)),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert!(!served.is_empty(), "read_served events must be emitted");
        assert!(
            served.iter().all(|&(node, _)| node == NodeId::new(1)),
            "replica reads are served by the backup"
        );
        // Every certificate's age bound stays within the replication
        // machinery's promise: send period + link delay bound + slack.
        let bound = TimeDelta::from_millis(20 + 450);
        assert!(
            served.iter().all(|&(_, age)| age <= bound),
            "age bounds must stay within the object's backup window"
        );
        for line in bus.export_jsonl().lines() {
            rtpb_obs::validate_line(line).expect("schema-valid line");
        }
    }

    #[test]
    fn healthy_real_clock_run_raises_no_timing_violations() {
        let report = RtCluster::run(config(&[20]), Duration::from_millis(800)).unwrap();
        assert_eq!(
            report.timing_violations, 0,
            "a monotone real clock must stay inside the envelope"
        );
    }

    #[test]
    fn renewal_from_a_skewed_clock_does_not_extend_the_lease() {
        // The guard-start-before-send renewal anchors the lease at the
        // probe's send time. If the local clock steps backward between
        // probe and ack, the recorded send time lies in the observer's
        // future — extending the lease from it would outrun the monotone
        // bound the declaration inequality was sized against. The monitor
        // must refuse the renewal, degrade, and fence the lease instead.
        let mut p = Primary::new(NodeId::new(0), ProtocolConfig::default());
        p.add_backup(NodeId::new(1), Time::ZERO);
        let round = p.tick_heartbeat(Time::from_millis(200));
        let Some(&(_, WireMessage::Ping { seq, .. })) = round.pings.first() else {
            panic!("expected a probe, got {round:?}");
        };
        assert!(p.lease_valid(Time::from_millis(200)));
        // The ack arrives after the clock regressed to t=150: the probe's
        // send time (t=200) is now "from the future".
        p.handle_message(
            &WireMessage::PingAck {
                epoch: Epoch::INITIAL,
                from: NodeId::new(1),
                seq,
            },
            Time::from_millis(150),
        );
        assert!(p.monitor().violations() > 0, "the skew must be detected");
        assert!(p.monitor().is_degraded());
        // Not renewed from t=200 (which would hold until t=450) — the
        // degraded primary fenced the lease it already held.
        assert!(!p.lease_valid(Time::from_millis(200)));
        assert_eq!(p.lease().expires_at(), None);
    }

    #[test]
    fn loss_triggers_retransmission_requests() {
        let mut config = config(&[20]);
        config.cluster.link.loss_probability = 0.6;
        let report = RtCluster::run(config, Duration::from_millis(1500)).unwrap();
        assert!(
            report.retransmit_requests > 0,
            "watchdogs must request retransmissions under heavy loss"
        );
    }
}
