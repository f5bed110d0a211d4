//! One repetition of a workload: set-up, then the measured window in
//! 1 ms steps of virtual time, with every operation issued when it is
//! due (open loop) and every outcome checked from outside the program.

use crate::checks::{self, Acked, Expect, SessionFloors};
use crate::shape::{Shape, Workload, RESTARTED_HOST};
use crate::stats::{Calibration, Pct, Rng, Spans};
use rtpb_core::harness::FaultEvent;
use rtpb_core::RtpbClient;
use rtpb_types::{NodeId, ObjectId, ReadConsistency, Time, TimeDelta};
use std::collections::BTreeMap;
use std::time::Instant;

const STEP: TimeDelta = TimeDelta::from_millis(1);
/// Faults land this far into their step, off the microsecond grid that
/// timers and writes run on, so no CPU work is in service at that instant.
const FAULT_OFFSET: TimeDelta = TimeDelta::from_nanos(500_001);
/// Steps between calibrations inside the measured window.
const CALIBRATE_EVERY: u64 = 500;
/// Set-up gives up when the replicas are still not filled by then.
const FILL_LIMIT: TimeDelta = TimeDelta::from_secs(20);

/// The figures of one repetition that depend only on the workload and
/// seed (virtual time and operation counts). Two repetitions with the
/// same seed must agree on all of it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vt {
    /// Virtual warm-up set-up needed to fill every replica.
    pub warmup_ms: u64,
    /// Per-object worst primary–backup distance, over objects (ms).
    pub staleness: Pct,
    /// Operations attempted / failed unexpectedly (the result line).
    pub attempted: u64,
    pub failed: u64,
    /// Operations attempted / failed as `ops_failed_ratio` counts them.
    pub ops: u64,
    pub ops_failed: u64,
    pub reads: u64,
    pub replica_reads: u64,
    pub redirects: u64,
    pub writes: u64,
    pub refused: u64,
    /// Queueing plus service time of replica reads (ms).
    pub read_latency: Pct,
    /// Certificate age bounds of served reads (ms).
    pub cert_age: Pct,
    pub unavailable_ms: f64,
    pub recovery_ms: f64,
    /// Acknowledged writes of the crashed regime the successor lacks.
    pub lost_writes: u64,
    /// Fold of every seeded pick, so a self-test can see the seed act.
    pub pick_digest: u64,
}

/// One repetition's outcome. The final cluster stays available for the
/// traced analysis and the replays.
pub struct Rep {
    pub setup_s: f64,
    /// Wall-to-reference factors (see [`Calibration`]): around the set-up,
    /// and averaged over the window weighted by wall time. `window_wall_ns`
    /// excludes the calibrations inside the window.
    pub setup_scale: f64,
    pub window_scale: f64,
    pub register_ns: u64,
    pub window_wall_ns: u64,
    pub run_for_ns: u64,
    /// Backup applies inside the measured window, over every backup.
    pub applies: u64,
    /// Primary writes and produced updates inside the window.
    pub primary_writes: u64,
    pub produced: u64,
    pub vt: Vt,
    pub read_call_ns: Vec<f64>,
    pub write_call_ns: Vec<f64>,
    pub failures: Vec<String>,
    pub client: RtpbClient,
}

/// A per-node counter summed over nodes from a first observation on: a
/// restarted replica keeps its count, a new role starts from zero.
#[derive(Default)]
struct NodeCounter {
    last: BTreeMap<(NodeId, bool), u64>,
    total: u64,
}

impl NodeCounter {
    fn add(&mut self, key: (NodeId, bool), now: u64) {
        let prev = self.last.insert(key, now).unwrap_or(now);
        self.total += if now >= prev { now - prev } else { now };
    }
}

/// Work counted inside the measured window: backup applies, and primary
/// writes and produced updates.
#[derive(Default)]
struct WindowWork {
    applies: NodeCounter,
    writes: NodeCounter,
    produced: NodeCounter,
}

impl WindowWork {
    fn observe(&mut self, client: &RtpbClient) {
        for b in client.backups() {
            self.applies.add((b.node(), false), b.updates_applied());
        }
        if let Some(p) = client.primary() {
            self.writes.add((p.node(), true), p.writes_applied());
            self.produced.add((p.node(), true), p.updates_produced());
        }
    }
}

fn versions(store: &rtpb_core::store::ObjectStore, ids: &[ObjectId]) -> Vec<u64> {
    ids.iter()
        .map(|&id| store.get(id).map_or(0, |e| e.version().value()))
        .collect()
}

fn replicas_filled(client: &RtpbClient, ids: &[ObjectId]) -> bool {
    client.backups().iter().all(|b| {
        ids.iter()
            .all(|&id| b.store().get(id).is_some_and(|e| e.value().is_some()))
    })
}

fn ms(d: TimeDelta) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Builds the cluster, registers the object set and warms up until every
/// replica holds every object. Timed as `setup_s`.
fn setup(
    shape: &Shape,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
) -> Result<(RtpbClient, Vec<ObjectId>, f64, u64, u64), String> {
    let start = Instant::now();
    let root = spans.open();
    let mut client = RtpbClient::new(shape.cluster_config(seed, traced));
    let specs = (0..shape.objects).map(|_| shape.spec()).collect();
    let (ids, register_ns) = spans.time("register_many", Some(root.0), 0, || {
        client.register_many(specs)
    });
    let ids = ids.map_err(|e| format!("registration refused: {e}"))?;
    spans.time("run_for", Some(root.0), 0, || client.run_for(shape.warmup));
    while !replicas_filled(&client, &ids) {
        if client.now().saturating_since(Time::ZERO) > FILL_LIMIT {
            return Err("warm-up never filled every replica".into());
        }
        spans.time("run_for", Some(root.0), 0, || client.run_for(STEP * 10));
    }
    spans.close(root, "setup", None, 0);
    let warmup_ms = client.now().saturating_since(Time::ZERO).as_millis();
    Ok((
        client,
        ids,
        start.elapsed().as_secs_f64(),
        register_ns,
        warmup_ms,
    ))
}

/// Per-workload state of the measured window.
struct Window<'a> {
    shape: &'a Shape,
    expect: Expect,
    rng: Rng,
    ids: Vec<ObjectId>,
    vt: Vt,
    failures: Vec<String>,
    read_call_ns: Vec<f64>,
    write_call_ns: Vec<f64>,
    read_latency_ms: Vec<f64>,
    cert_age_ms: Vec<f64>,
    // read_fleet
    session: SessionFloors,
    ryw_next: Option<usize>,
    // stream
    tail_versions: Vec<u64>,
    // failover
    old_primary: Option<NodeId>,
    crash_at: Option<Time>,
    first_success: Option<Time>,
    acked_old: Vec<Acked>,
    acked_new: BTreeMap<usize, u64>,
    pre_promotion: BTreeMap<NodeId, Vec<u64>>,
    preserved: Option<Vec<u64>>,
    restart_at: Option<Time>,
    recovering: Vec<(usize, u64)>,
    unexpected_refusals: u64,
}

impl Window<'_> {
    fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    fn fold_pick(&mut self, pos: usize) {
        self.vt.pick_digest = self
            .vt
            .pick_digest
            .wrapping_mul(1_000_003)
            .wrapping_add(pos as u64);
    }

    fn read(&mut self, client: &mut RtpbClient, spans: &mut Spans, parent: u32) {
        let n = self.ids.len();
        let (pos, consistency) = match self.ryw_next.take() {
            Some(pos) => (pos, ReadConsistency::ReadYourWrites),
            None => (
                self.rng.below(n),
                ReadConsistency::Bounded(self.shape.backup_bound),
            ),
        };
        self.fold_pick(pos);
        let id = self.ids[pos];
        let request = self.vt.reads + self.vt.writes;
        let (outcome, ns) = spans.time("read", Some(parent), request, || {
            client.read(id, consistency)
        });
        self.read_call_ns.push(ns as f64);
        self.vt.reads += 1;
        let now = client.now();
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                self.vt.failed += 1;
                self.vt.ops_failed += 1;
                self.fail(format!("read of {id} failed: {e}"));
                return;
            }
        };
        let cert = *outcome.certificate();
        let true_staleness = client
            .metrics()
            .earliest_write_after(id, cert.version)
            .map_or(TimeDelta::ZERO, |t| now.saturating_since(t));
        let mut bad = false;
        if checks::cert_unsound(cert.age_bound, true_staleness, &self.expect) {
            bad = true;
            self.fail(format!(
                "certificate for {id} claims {} but the value is {} stale",
                cert.age_bound, true_staleness
            ));
        }
        if matches!(consistency, ReadConsistency::ReadYourWrites)
            && !self.session.read(pos, cert.version.value(), &self.expect)
        {
            bad = true;
            self.fail(format!("session read of {id} went backwards"));
        }
        if bad {
            self.vt.failed += 1;
            self.vt.ops_failed += 1;
        }
        self.cert_age_ms.push(ms(cert.age_bound));
        if outcome.is_redirect() {
            self.vt.redirects += 1;
        } else {
            self.vt.replica_reads += 1;
            let served_by = outcome.served_by();
            if let Some(&(_, _, _, busy)) = client.read_load().iter().find(|h| h.0 == served_by) {
                self.read_latency_ms.push(ms(busy.saturating_since(now)));
            }
        }
    }

    fn session_write(&mut self, client: &mut RtpbClient, spans: &mut Spans, parent: u32) {
        let pos = self.rng.below(self.ids.len());
        let payload = self.rng.bytes(self.shape.payload_bytes);
        let id = self.ids[pos];
        let request = self.vt.reads + self.vt.writes;
        let (result, ns) = spans.time("write", Some(parent), request, || client.write(id, payload));
        self.write_call_ns.push(ns as f64);
        self.vt.writes += 1;
        match result {
            Ok(v) => {
                self.session.wrote(pos, v.value());
                self.ryw_next = Some(pos);
            }
            Err(e) => {
                self.vt.failed += 1;
                self.vt.ops_failed += 1;
                self.fail(format!("session write to {id} refused: {e}"));
            }
        }
    }

    fn scheduled_write(&mut self, client: &mut RtpbClient, spans: &mut Spans, parent: u32) {
        let pos = self.rng.below(self.ids.len());
        self.fold_pick(pos);
        let payload = self.rng.bytes(self.shape.payload_bytes);
        let id = self.ids[pos];
        let serving = client.primary().map(rtpb_core::Primary::node);
        let now = client.now();
        let request = self.vt.writes;
        let (result, ns) = spans.time("write", Some(parent), request, || client.write(id, payload));
        self.write_call_ns.push(ns as f64);
        self.vt.writes += 1;
        match result {
            Ok(v) => {
                let by_old = serving.is_some() && serving == self.old_primary;
                if self.crash_at.is_some() && !by_old && self.first_success.is_none() {
                    self.first_success = Some(now);
                }
                if by_old {
                    self.acked_old.push(Acked {
                        object: pos,
                        version: v.value(),
                        at: now,
                    });
                } else {
                    let top = self.acked_new.entry(pos).or_default();
                    *top = (*top).max(v.value());
                }
            }
            Err(_) => {
                self.vt.refused += 1;
                // Refusals between the crash and the first write the
                // successor accepts are the outage `unavailable_ms`
                // measures; any other refusal is a failure.
                if self.crash_at.is_none() || self.first_success.is_some() {
                    self.unexpected_refusals += 1;
                }
            }
        }
    }

    /// Compares every object whose backup copy carries the primary's
    /// version byte for byte.
    fn check_payloads(&mut self, client: &RtpbClient) {
        let Some(primary) = client.primary() else {
            return;
        };
        let mut mismatches = 0;
        for b in client.backups() {
            for &id in &self.ids {
                let (Some(p), Some(c)) = (
                    primary.store().get(id).and_then(|e| e.value()),
                    b.store().get(id).and_then(|e| e.value()),
                ) else {
                    continue;
                };
                if p.version() == c.version()
                    && checks::payload_mismatch(p.payload(), c.payload(), &self.expect)
                {
                    mismatches += 1;
                }
            }
        }
        if mismatches > 0 {
            self.fail(format!(
                "{mismatches} backup copies differ from the primary's at the same version"
            ));
        }
    }

    fn inject(
        &mut self,
        client: &mut RtpbClient,
        fault: FaultEvent,
        spans: &mut Spans,
        parent: u32,
        step: u64,
    ) {
        if matches!(fault, FaultEvent::CrashPrimary) {
            self.crash_at = Some(client.now());
        }
        if matches!(fault, FaultEvent::RestartBackup { .. }) {
            let primary = client.primary().expect("a primary serves at the restart");
            let targets = versions(primary.store(), &self.ids);
            self.recovering = targets.into_iter().enumerate().collect();
            self.restart_at = Some(client.now());
        }
        spans.time("inject", Some(parent), step, || client.inject(fault));
    }

    /// After every failover step: the restarted replica's catch-up and
    /// the successor's state at promotion, both polled from outside.
    fn poll_failover(&mut self, client: &RtpbClient) {
        if let Some(restart_at) = self.restart_at {
            if !self.recovering.is_empty() {
                let node = NodeId::new(1 + RESTARTED_HOST as u16);
                if let Some(b) = client.backups().into_iter().find(|b| b.node() == node) {
                    let ids = &self.ids;
                    self.recovering.retain(|&(pos, target)| {
                        b.store().get(ids[pos]).map_or(0, |e| e.version().value()) < target
                    });
                    if self.recovering.is_empty() {
                        self.vt.recovery_ms = ms(client.now().saturating_since(restart_at));
                    }
                }
            }
        }
        if self.crash_at.is_some() && self.preserved.is_none() {
            match client.primary().map(rtpb_core::Primary::node) {
                None => {
                    for b in client.backups() {
                        self.pre_promotion
                            .insert(b.node(), versions(b.store(), &self.ids));
                    }
                }
                Some(node) if Some(node) != self.old_primary => {
                    self.preserved = self.pre_promotion.remove(&node);
                    if self.preserved.is_none() {
                        self.fail("promoted replica was never observed as a backup".into());
                    }
                }
                Some(_) => {}
            }
        }
    }
}

/// Runs one repetition: set-up, then the measured window.
pub fn run(
    shape: &Shape,
    seed: u64,
    traced: bool,
    expect: Expect,
    cal: &Calibration,
    spans: &mut Spans,
) -> Result<Rep, String> {
    let before_setup = cal.factor();
    let (mut client, ids, setup_s, register_ns, warmup_ms) = setup(shape, seed, traced, spans)?;
    let before_window = cal.factor();
    let n = ids.len();
    let mut w = Window {
        shape,
        expect,
        rng: Rng::new(seed),
        ids,
        vt: Vt {
            warmup_ms,
            ..Vt::default()
        },
        failures: Vec::new(),
        read_call_ns: Vec::new(),
        write_call_ns: Vec::new(),
        read_latency_ms: Vec::new(),
        cert_age_ms: Vec::new(),
        session: SessionFloors::new(n),
        ryw_next: None,
        tail_versions: Vec::new(),
        old_primary: client.primary().map(rtpb_core::Primary::node),
        crash_at: None,
        first_success: None,
        acked_old: Vec::new(),
        acked_new: BTreeMap::new(),
        pre_promotion: BTreeMap::new(),
        preserved: None,
        restart_at: None,
        recovering: Vec::new(),
        unexpected_refusals: 0,
    };
    let mut work = WindowWork::default();
    work.observe(&client);
    let window_ms = shape.window_ms;
    let tail_step = window_ms.saturating_sub(shape.backup_bound.as_millis());
    let mut tail_produced = 0;
    let mut run_for_ns = 0;
    // The window is timed in chunks with a calibration between each, so
    // every chunk is converted with the machine speed of its own time.
    let mut factor = before_window;
    let mut reference_ns = 0.0;
    let mut window_wall_ns = 0;
    let mut chunk_start = Instant::now();
    for step in 0..window_ms {
        let step_span = spans.open();
        if step == tail_step && shape.workload == Workload::Stream {
            let primary = client.primary().expect("stream keeps its primary");
            w.tail_versions = versions(primary.store(), &w.ids);
            tail_produced = primary.updates_produced();
        }
        for _ in 0..shape.reads_per_ms {
            w.read(&mut client, spans, step_span.0);
            if shape.reads_per_write > 0
                && w.vt.reads.is_multiple_of(u64::from(shape.reads_per_write))
            {
                w.session_write(&mut client, spans, step_span.0);
            }
        }
        for _ in 0..shape.writes_per_ms {
            w.scheduled_write(&mut client, spans, step_span.0);
        }
        let mut span = STEP;
        if shape.faults.iter().any(|&(at, _)| at == step) {
            run_for_ns += spans
                .time("run_for", Some(step_span.0), step, || {
                    client.run_for(FAULT_OFFSET);
                })
                .1;
            for &(_, fault) in shape.faults.iter().filter(|&&(at, _)| at == step) {
                w.inject(&mut client, fault, spans, step_span.0, step);
            }
            span = STEP - FAULT_OFFSET;
        }
        run_for_ns += spans
            .time("run_for", Some(step_span.0), step, || client.run_for(span))
            .1;
        work.observe(&client);
        if shape.workload == Workload::Failover {
            w.poll_failover(&client);
        }
        if shape.workload == Workload::Stream && step % 500 == 499 {
            w.check_payloads(&client);
        }
        spans.close(step_span, "step", None, step);
        if (step + 1) % CALIBRATE_EVERY == 0 || step + 1 == window_ms {
            let chunk_ns = chunk_start.elapsed().as_nanos() as u64;
            let next = cal.factor();
            reference_ns += chunk_ns as f64 * (factor + next) / 2.0;
            window_wall_ns += chunk_ns;
            factor = next;
            chunk_start = Instant::now();
        }
    }
    finish(&mut w, &client, tail_produced);

    let Window {
        vt,
        failures,
        read_call_ns,
        write_call_ns,
        ..
    } = w;
    Ok(Rep {
        setup_s,
        setup_scale: (before_setup + before_window) / 2.0,
        window_scale: reference_ns / window_wall_ns as f64,
        register_ns,
        window_wall_ns,
        run_for_ns,
        applies: work.applies.total,
        primary_writes: work.writes.total,
        produced: work.produced.total,
        vt,
        read_call_ns,
        write_call_ns,
        failures,
        client,
    })
}

/// End-of-window figures and checks.
fn finish(w: &mut Window<'_>, client: &RtpbClient, tail_produced: u64) {
    let report = client.report();
    let distances: Vec<TimeDelta> = w
        .ids
        .iter()
        .map(|&id| {
            report
                .object_report(id)
                .map_or(TimeDelta::ZERO, |r| r.max_distance)
        })
        .collect();
    let mut staleness: Vec<f64> = distances.iter().map(|&d| ms(d)).collect();
    w.vt.staleness = Pct::of(&mut staleness);
    w.vt.read_latency = Pct::of(&mut w.read_latency_ms);
    w.vt.cert_age = Pct::of(&mut w.cert_age_ms);

    match w.shape.workload {
        Workload::Stream => {
            let breaches = checks::window_breaches(&distances, &w.expect);
            if breaches > 0 {
                w.fail(format!("{breaches} objects left their δ_i window"));
            }
            w.check_payloads(client);
            // An update produced more than δ_i before the end fails if
            // the backup never reached its version.
            let backup = client.backup().expect("stream keeps its backup");
            let held = versions(backup.store(), &w.ids);
            let lagging = held
                .iter()
                .zip(&w.tail_versions)
                .filter(|(h, t)| h < t)
                .count() as u64;
            if lagging > 0 {
                w.fail(format!(
                    "the backup never reached the version {lagging} objects had δ_i before the end"
                ));
            }
            w.vt.attempted = tail_produced;
            w.vt.failed = lagging + breaches as u64;
            w.vt.ops = tail_produced;
            w.vt.ops_failed = lagging;
        }
        Workload::ReadFleet => {
            w.vt.attempted = w.vt.reads + w.vt.writes;
            w.vt.ops = w.vt.attempted;
        }
        Workload::Failover => {
            let Some(crash_at) = w.crash_at else {
                w.fail("the fault plan never crashed the primary".into());
                return;
            };
            match w.first_success {
                Some(t) => w.vt.unavailable_ms = ms(t.saturating_since(crash_at)),
                None => w.fail("no write succeeded after the primary crash".into()),
            }
            if !w.recovering.is_empty() {
                w.fail(format!(
                    "the restarted backup never caught up on {} objects",
                    w.recovering.len()
                ));
            }
            let (missing, unexcused) = match &w.preserved {
                Some(preserved) => {
                    checks::lost_writes(&w.acked_old, preserved, crash_at, &w.expect)
                }
                None => {
                    w.fail("no backup took over".into());
                    (0, 0)
                }
            };
            if unexcused > 0 {
                w.fail(format!(
                    "{unexcused} writes acknowledged more than δ_i before the crash were lost"
                ));
            }
            let mut regressed = 0;
            if let Some(primary) = client.primary() {
                let finals = versions(primary.store(), &w.ids);
                regressed = w
                    .acked_new
                    .iter()
                    .filter(|&(&pos, &v)| finals[pos] < v)
                    .count() as u64;
            }
            if regressed > 0 {
                w.fail(format!(
                    "{regressed} objects lost writes the successor acknowledged"
                ));
            }
            if w.unexpected_refusals > 0 {
                w.fail(format!(
                    "{} writes refused outside the failover outage",
                    w.unexpected_refusals
                ));
            }
            w.vt.lost_writes = missing;
            w.vt.attempted = w.vt.writes;
            w.vt.failed = unexcused + regressed + w.unexpected_refusals;
            w.vt.ops = w.vt.writes;
            w.vt.ops_failed = w.vt.refused + missing;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, seed: u64, expect: Option<Expect>) -> Rep {
        let shape = Shape::tiny(workload);
        let expect = expect.unwrap_or(Expect::for_window(shape.backup_bound));
        run(
            &shape,
            seed,
            false,
            expect,
            &Calibration::new(),
            &mut Spans::new(false),
        )
        .expect("tiny workload runs")
    }

    fn broken(workload: Workload, distort: impl FnOnce(&mut Expect)) -> Vec<String> {
        let mut expect = Expect::for_window(Shape::tiny(workload).backup_bound);
        distort(&mut expect);
        tiny(workload, 1, Some(expect)).failures
    }

    fn fired(failures: &[String], needle: &str) -> bool {
        failures.iter().any(|f| f.contains(needle))
    }

    #[test]
    fn every_tiny_workload_passes_its_checks() {
        for workload in Workload::ALL {
            let rep = tiny(workload, 1, None);
            assert!(rep.failures.is_empty(), "{workload:?}: {:?}", rep.failures);
            assert!(rep.vt.attempted > 0, "{workload:?} attempted nothing");
        }
    }

    #[test]
    fn same_seed_gives_identical_virtual_time_figures() {
        for workload in Workload::ALL {
            assert_eq!(tiny(workload, 7, None).vt, tiny(workload, 7, None).vt);
        }
    }

    #[test]
    fn a_different_seed_changes_the_picks() {
        for workload in [Workload::ReadFleet, Workload::Failover] {
            assert_ne!(
                tiny(workload, 1, None).vt.pick_digest,
                tiny(workload, 2, None).vt.pick_digest
            );
        }
    }

    #[test]
    fn stream_checks_fire_on_a_broken_expectation() {
        let window = broken(Workload::Stream, |e| e.window = TimeDelta::from_millis(1));
        assert!(fired(&window, "δ_i window"), "{window:?}");
        let payload = broken(Workload::Stream, |e| e.flip_primary_payload = true);
        assert!(fired(&payload, "differ from the primary"), "{payload:?}");
    }

    #[test]
    fn read_fleet_checks_fire_on_a_broken_expectation() {
        let certs = broken(Workload::ReadFleet, |e| {
            e.cert_margin = TimeDelta::from_secs(5)
        });
        assert!(fired(&certs, "certificate"), "{certs:?}");
        let session = broken(Workload::ReadFleet, |e| e.floor_bump = 1);
        assert!(fired(&session, "went backwards"), "{session:?}");
    }

    #[test]
    fn failover_check_fires_on_a_broken_expectation() {
        let lost = broken(Workload::Failover, |e| e.loss_allowance = TimeDelta::ZERO);
        assert!(fired(&lost, "were lost"), "{lost:?}");
    }
}
