//! The traced run: per-layer metrics of one workload and seed.
//!
//! One untraced repetition gives the wall-time baselines (so the bus's
//! own cost does not inflate them); one repetition with the event bus
//! and metrics registry on gives the counters, the virtual-time stage
//! times and the span file; the stage replays give the per-stage wall
//! costs. Two reconciliations tie the layers to the end-to-end figures.

use crate::checks::Expect;
use crate::events;
use crate::replay;
use crate::run::{self, Rep};
use crate::shape::{Shape, Workload};
use crate::stats::{Calibration, Pct, Spans};
use crate::{Metric, Outcome};
use rtpb_core::log::CatchUpPath;
use rtpb_core::metrics::InjectedFault;
use rtpb_types::NodeId;
use std::path::Path;

/// Client reads replayed on workloads whose window issues none.
const CLIENT_READ_REPLAY: usize = 20_000;
/// Tolerance of the virtual-time reconciliation.
const VT_TOLERANCE: f64 = 0.02;
/// Where the span file goes, relative to the working directory.
const SPAN_DIR: &str = "perfbench/out";

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn fault_ms(rep: &Rep, kind: InjectedFault, recovery: bool) -> f64 {
    rep.client
        .fault_report()
        .iter()
        .find(|r| r.kind == kind)
        .and_then(|r| {
            if recovery {
                r.recovery_time()
            } else {
                r.detection_latency()
            }
        })
        .map_or(0.0, |d| d.as_nanos() as f64 / 1e6)
}

pub fn per_layer(shape: &Shape, seed: u64) -> Result<Outcome, String> {
    let expect = Expect::for_window(shape.backup_bound);
    let mut failures = Vec::new();

    let cal = Calibration::new();
    let mut plain = run::run(shape, seed, false, expect, &cal, &mut Spans::new(false))?;
    let mut spans = Spans::new(true);
    let traced = run::run(shape, seed, true, expect, &cal, &mut spans)?;
    failures.extend(traced.failures.iter().cloned());
    if traced.vt != plain.vt {
        failures.push("tracing changed the protocol's virtual-time figures".into());
    }

    let client = &traced.client;
    let bus_dropped = client.bus().dropped();
    if bus_dropped > 0 {
        failures.push(format!("the event bus dropped {bus_dropped} events"));
    }
    let snapshot = client.registry().snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let updates_per_frame =
        counter("cluster.updates_sent") / counter("cluster.frames_sent").max(1.0);
    let (_, leases, reuses) = client.cluster().send_pool_stats();
    let plans = client.cluster().catch_up_plans();
    let plans_by = |path: CatchUpPath| plans.iter().filter(|p| p.path == path).count() as f64;

    // Virtual time: stage times toward the first backup, and the check
    // that they account for the end-to-end staleness.
    let stages = events::stages(&client.bus().collect(), NodeId::new(1));
    let w2s = Pct::of(&mut stages.write_to_send_ns.clone());
    let s2a = Pct::of(&mut stages.send_to_apply_ns.clone());
    let chain_p50 = ms(Pct::of(&mut stages.worst_chain_ns.clone()).p50);
    let staleness_p50 = traced.vt.staleness.p50;
    let vt_account = chain_p50 / staleness_p50;
    if shape.workload == Workload::Stream && (vt_account - 1.0).abs() > VT_TOLERANCE {
        failures.push(format!(
            "write_to_send + send_to_apply give a {chain_p50:.3} ms median worst distance, \
             staleness_p50_ms is {staleness_p50:.3}"
        ));
    }

    // Wall time: replayed stage costs against the harness's run_for.
    let batch = updates_per_frame.round() as usize;
    let before = cal.factor();
    let mut r = replay::replay(shape, batch, &plain.client, &mut spans);
    r.scale((before + cal.factor()) / 2.0);
    let applies = plain.applies.max(1) as f64;
    let run_for_per_update = plain.run_for_ns as f64 * plain.window_scale / applies;
    let per_apply = |count: u64| count as f64 / applies;
    let stage_sum = r.write_ns * per_apply(plain.primary_writes)
        + (r.batch_ns_per_update + r.encode_ns_per_update) * per_apply(plain.produced)
        + r.stack_ns_per_frame / updates_per_frame.max(1.0)
        + r.parse_ns_per_update
        + r.apply_ns_per_update;
    if stage_sum > run_for_per_update {
        failures.push(format!(
            "replayed stages cost {stage_sum:.0} ns per update, more than run_for's \
             {run_for_per_update:.0}"
        ));
    }

    // Client layer: the window's own reads where the workload has them,
    // a replay burst on the final cluster otherwise.
    let mut read_calls = plain.read_call_ns.clone();
    let mut write_calls = plain.write_call_ns.clone();
    let (read_p50, redirect_ratio, cert_p99, reads) = if plain.vt.reads > 0 {
        (
            Pct::of(&mut read_calls).p50 * plain.window_scale,
            plain.vt.redirects as f64 / plain.vt.reads as f64,
            plain.vt.cert_age.p99,
            read_calls.len(),
        )
    } else {
        let before = cal.factor();
        let (p50, redirects, cert) = replay::client_reads(
            &mut plain.client,
            shape.backup_bound,
            CLIENT_READ_REPLAY,
            &mut spans,
        );
        let scale = (before + cal.factor()) / 2.0;
        (
            p50 * scale,
            redirects as f64 / CLIENT_READ_REPLAY as f64,
            cert,
            CLIENT_READ_REPLAY,
        )
    };
    let read_cost = shape.protocol().read_cost(shape.payload_bytes).as_nanos() as f64;
    let busy_ratio = plain.vt.replica_reads as f64 * read_cost
        / (shape.backups as f64 * shape.window_ms as f64 * 1e6);
    let traced_wall = (traced.window_wall_ns as f64 * traced.window_scale)
        / (plain.window_wall_ns as f64 * plain.window_scale);

    let span_file = Path::new(SPAN_DIR).join(format!("{}.spans.jsonl", shape.workload.name()));
    std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::write(&span_file, spans.to_jsonl()))
        .map_err(|e| format!("cannot write {}: {e}", span_file.display()))?;

    let n = shape.objects as f64;
    let metrics = vec![
        Metric::new(
            "harness.register_ns_per_object",
            plain.register_ns as f64 * plain.setup_scale / n,
            "ns",
            1,
        ),
        Metric::new(
            "admission.register_ns_per_object",
            r.register_ns_per_object,
            "ns",
            1,
        ),
        Metric::new("harness.run_for_ns_per_update", run_for_per_update, "ns", 1),
        Metric::new(
            "harness.self_ns_per_update",
            run_for_per_update - stage_sum,
            "ns",
            1,
        ),
        Metric::new("primary.write_ns", r.write_ns, "ns", 1),
        Metric::new(
            "primary.batch_ns_per_update",
            r.batch_ns_per_update,
            "ns",
            r.batch,
        ),
        Metric::new("primary.updates_per_frame", updates_per_frame, "count", 1),
        Metric::new("primary.write_to_send_p50_ms", ms(w2s.p50), "ms", w2s.n),
        Metric::new("primary.write_to_send_p99_ms", ms(w2s.p99), "ms", w2s.n),
        Metric::new(
            "wire.encode_ns_per_update",
            r.encode_ns_per_update,
            "ns",
            r.batch,
        ),
        Metric::new(
            "wire.parse_ns_per_update",
            r.parse_ns_per_update,
            "ns",
            r.batch,
        ),
        Metric::new("wire.crc_ns_per_kib", r.crc_ns_per_kib, "ns", 1),
        Metric::new("wire.bytes_per_update", r.bytes_per_update, "B", r.batch),
        Metric::new(
            "wire.pool_reuse_ratio",
            reuses as f64 / leases.max(1) as f64,
            "ratio",
            leases as usize,
        ),
        Metric::new("net.stack_ns_per_frame", r.stack_ns_per_frame, "ns", 1),
        Metric::new("net.send_to_apply_p50_ms", ms(s2a.p50), "ms", s2a.n),
        Metric::new("net.send_to_apply_p99_ms", ms(s2a.p99), "ms", s2a.n),
        Metric::new(
            "net.updates_lost",
            counter("cluster.updates_lost"),
            "count",
            1,
        ),
        Metric::new(
            "backup.apply_ns_per_update",
            r.apply_ns_per_update,
            "ns",
            r.batch,
        ),
        Metric::new("backup.serve_read_ns", r.serve_read_ns, "ns", 1),
        Metric::new(
            "backup.retransmit_requests",
            counter("cluster.retransmit_requests"),
            "count",
            1,
        ),
        Metric::new("client.read_call_p50_us", read_p50 / 1e3, "us", reads),
        Metric::new("client.read_self_ns", read_p50 - r.serve_read_ns, "ns", 1),
        Metric::new(
            "client.write_call_p50_us",
            Pct::of(&mut write_calls).p50 * plain.window_scale / 1e3,
            "us",
            write_calls.len(),
        ),
        Metric::new("client.redirect_ratio", redirect_ratio, "ratio", 1),
        Metric::new("client.cert_age_bound_p99_ms", cert_p99, "ms", reads),
        Metric::new(
            "client.read_latency_p99_ms",
            plain.vt.read_latency.p99,
            "ms",
            plain.vt.read_latency.n,
        ),
        Metric::new("client.backup_busy_ratio", busy_ratio, "ratio", 1),
        Metric::new(
            "heartbeat.detection_ms",
            fault_ms(&traced, InjectedFault::PrimaryCrash, false),
            "ms",
            1,
        ),
        Metric::new(
            "heartbeat.unavailable_ms",
            traced.vt.unavailable_ms,
            "ms",
            1,
        ),
        Metric::new(
            "heartbeat.self_failover_ms",
            client
                .metrics()
                .failover_duration()
                .map_or(0.0, |d| d.as_nanos() as f64 / 1e6),
            "ms",
            1,
        ),
        Metric::new(
            "log.catchup_bytes",
            counter("cluster.catchup_bytes"),
            "B",
            1,
        ),
        Metric::new(
            "log.catchup_suffix",
            plans_by(CatchUpPath::LogSuffix),
            "count",
            1,
        ),
        Metric::new(
            "log.catchup_diff",
            plans_by(CatchUpPath::SnapshotDiff),
            "count",
            1,
        ),
        Metric::new(
            "log.catchup_full",
            plans_by(CatchUpPath::FullTransfer),
            "count",
            1,
        ),
        Metric::new("log.recovery_ms", traced.vt.recovery_ms, "ms", 1),
        Metric::new(
            "log.self_recovery_ms",
            fault_ms(&traced, InjectedFault::BackupRecovery, true),
            "ms",
            1,
        ),
        Metric::new("obs.trace_overhead_ratio", traced_wall, "ratio", 1),
        Metric::new("obs.bus_dropped", bus_dropped as f64, "count", 1),
    ];
    Ok(Outcome {
        failures,
        attempted: traced.vt.attempted,
        failed: traced.vt.failed,
        table: vec![
            Metric::new(
                "reconcile.vt_account_ratio",
                vt_account,
                "ratio",
                stages.worst_chain_ns.len(),
            ),
            Metric::new("reconcile.stage_ns_per_update", stage_sum, "ns", 1),
            Metric::new("obs.span_count", spans.spans().len() as f64, "count", 1),
        ],
        metrics,
    })
}
