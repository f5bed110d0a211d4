//! Stage replays: each public call on the update path, called directly
//! with the workload's own object count, payload size and batch
//! occupancy, and timed per unit of work. Each stage is one span.

use crate::shape::Shape;
use crate::stats::{median, Rng, Spans};
use rtpb_core::backup::Backup;
use rtpb_core::primary::Primary;
use rtpb_core::wire::WireFrame;
use rtpb_core::RtpbClient;
use rtpb_net::{Message, ProtocolGraph, UdpLike};
use rtpb_types::{crc32c, BufPool, NodeId, ObjectId, ReadConsistency, Time, TimeDelta};
use std::hint::black_box;
use std::time::Instant;

/// Timed chunks per stage; each figure is the median chunk.
const CHUNKS: usize = 5;
/// Units of work per chunk, at least.
const CHUNK_WORK: usize = 20_000;

/// What the replays measured, in ns of wall time.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    pub register_ns_per_object: f64,
    pub write_ns: f64,
    pub batch_ns_per_update: f64,
    pub encode_ns_per_update: f64,
    pub parse_ns_per_update: f64,
    pub crc_ns_per_kib: f64,
    pub bytes_per_update: f64,
    pub stack_ns_per_frame: f64,
    pub apply_ns_per_update: f64,
    pub serve_read_ns: f64,
    pub batch: usize,
}

impl Replayed {
    /// Converts every wall time to reference time (see
    /// [`crate::stats::Calibration`]).
    pub fn scale(&mut self, factor: f64) {
        for ns in [
            &mut self.register_ns_per_object,
            &mut self.write_ns,
            &mut self.batch_ns_per_update,
            &mut self.encode_ns_per_update,
            &mut self.parse_ns_per_update,
            &mut self.crc_ns_per_kib,
            &mut self.stack_ns_per_frame,
            &mut self.apply_ns_per_update,
            &mut self.serve_read_ns,
        ] {
            *ns *= factor;
        }
    }
}

/// Median over [`CHUNKS`] timed chunks of `per_chunk` calls of `op`, in
/// ns per call.
fn per_call(per_chunk: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut chunks = Vec::with_capacity(CHUNKS);
    let mut i = 0;
    for _ in 0..CHUNKS {
        let start = Instant::now();
        for _ in 0..per_chunk {
            op(i);
            i += 1;
        }
        chunks.push(start.elapsed().as_nanos() as f64 / per_chunk as f64);
    }
    median(&mut chunks)
}

/// Replays every stage. `batch` is the updates per frame the traced run
/// observed; the first backup of `final_client` serves the read replay
/// in the state the workload left it in.
pub fn replay(
    shape: &Shape,
    batch: usize,
    final_client: &RtpbClient,
    spans: &mut Spans,
) -> Replayed {
    let n = shape.objects;
    let batch = batch.clamp(1, n);
    let now = Time::from_millis(1);
    let mut out = Replayed {
        batch,
        ..Replayed::default()
    };

    let mut primary = Primary::new(NodeId::new(0), shape.protocol());
    let (ids, ns) = spans.time("replay.register", None, 0, || {
        (0..n)
            .map(|_| {
                primary
                    .register(shape.spec(), Time::ZERO)
                    .expect("admission is off")
            })
            .collect::<Vec<ObjectId>>()
    });
    out.register_ns_per_object = ns as f64 / n as f64;
    primary.add_backup(NodeId::new(1), Time::ZERO);

    let mut rng = Rng::new(0xB17E);
    let payload = rng.bytes(shape.payload_bytes);
    let open = spans.open();
    out.write_ns = per_call(CHUNK_WORK.max(n), |i| {
        // The state-machine write itself is the stage measured, so the
        // deprecated direct entry is exactly what is called.
        #[allow(deprecated)]
        let v = primary.apply_client_write(ids[i % n], payload.clone(), now);
        black_box(v.expect("lease holds"));
    });
    spans.close(open, "replay.write", None, 1);

    let windows = n / batch;
    let open = spans.open();
    let per_batch = per_call((CHUNK_WORK / batch).max(4), |i| {
        let at = (i % windows) * batch;
        black_box(primary.make_batch(&ids[at..at + batch], now));
    });
    out.batch_ns_per_update = per_batch / batch as f64;
    spans.close(open, "replay.batch", None, 2);

    let msg = primary
        .make_batch(&ids[..batch], now)
        .expect("written objects batch");
    let pool = BufPool::new();
    let open = spans.open();
    let frames = (CHUNK_WORK / batch).max(4);
    out.encode_ns_per_update = per_call(frames, |_| {
        let mut buf = pool.lease();
        msg.encode_into(&mut buf);
        black_box(buf.as_slice().len());
    }) / batch as f64;
    spans.close(open, "replay.encode", None, 3);
    let bytes = msg.encode();
    out.bytes_per_update = bytes.len() as f64 / batch as f64;

    let open = spans.open();
    out.crc_ns_per_kib = per_call(frames, |_| {
        black_box(crc32c(&bytes));
    }) / (bytes.len() as f64 / 1024.0);
    spans.close(open, "replay.crc", None, 4);

    let open = spans.open();
    out.parse_ns_per_update = per_call(frames, |_| {
        let frame = WireFrame::parse(&bytes).expect("replayed frame parses");
        black_box(frame.update_count());
    }) / batch as f64;
    spans.close(open, "replay.parse", None, 5);

    let mut tx = ProtocolGraph::builder().layer(UdpLike::new()).build();
    let mut rx = ProtocolGraph::builder().layer(UdpLike::new()).build();
    let open = spans.open();
    out.stack_ns_per_frame = per_call(frames, |_| {
        // A frame over the datagram cap is refused at send, as in the
        // simulator; the replay then times just the refusal.
        if let Ok(wire) = tx.send(Message::from_payload(bytes.as_slice())) {
            black_box(rx.receive(wire).expect("clean frame passes").is_some());
        }
    });
    spans.close(open, "replay.stack", None, 6);

    out.apply_ns_per_update = replay_apply(shape, &mut primary, &ids, batch, spans);
    out.serve_read_ns = replay_serve_read(final_client, &mut rng, spans);
    out
}

/// `Backup::handle_frame` on fresh frames: each carries a newer version
/// of every object in the batch, so every update takes the install path.
fn replay_apply(
    shape: &Shape,
    primary: &mut Primary,
    ids: &[ObjectId],
    batch: usize,
    spans: &mut Spans,
) -> f64 {
    let frames_per_pass = (CHUNK_WORK / batch).max(4);
    let now = Time::from_millis(1);
    let payload = vec![0x5A; shape.payload_bytes];
    let frames: Vec<Vec<u8>> = (0..frames_per_pass)
        .map(|_| {
            for &id in &ids[..batch] {
                #[allow(deprecated)]
                let v = primary.apply_client_write(id, payload.clone(), now);
                black_box(v);
            }
            primary
                .make_batch(&ids[..batch], now)
                .expect("written objects batch")
                .encode()
        })
        .collect();
    let open = spans.open();
    let mut passes = Vec::with_capacity(CHUNKS);
    for _ in 0..CHUNKS {
        let mut backup = Backup::new(NodeId::new(1), shape.protocol());
        for (id, spec, period) in primary.registry() {
            backup.sync_registration(id, spec, period, Time::ZERO);
        }
        let mut ns = 0;
        for bytes in &frames {
            let frame = WireFrame::parse(bytes).expect("replayed frame parses");
            let start = Instant::now();
            let applied = backup.handle_frame(&frame, now).applied.len();
            ns += start.elapsed().as_nanos();
            assert_eq!(applied, batch, "every replayed update installs");
        }
        passes.push(ns as f64 / (frames.len() * batch) as f64);
    }
    spans.close(open, "replay.apply", None, 7);
    median(&mut passes)
}

/// `Backup::serve_read` against the first backup the workload left.
fn replay_serve_read(client: &RtpbClient, rng: &mut Rng, spans: &mut Spans) -> f64 {
    let backups = client.backups();
    let Some(backup) = backups.first() else {
        return 0.0;
    };
    let ids: Vec<ObjectId> = backup.store().ids().collect();
    let picks: Vec<ObjectId> = (0..CHUNK_WORK).map(|_| ids[rng.below(ids.len())]).collect();
    let now = client.now();
    let open = spans.open();
    let ns = per_call(CHUNK_WORK, |i| {
        black_box(backup.serve_read(picks[i % picks.len()], None, now));
    });
    spans.close(open, "replay.serve_read", None, 8);
    ns
}

/// Bounded reads through the client on the workload's final cluster,
/// for workloads whose window issues none: `(p50 ns, redirects, p99
/// certificate age in ms)`.
pub fn client_reads(
    client: &mut RtpbClient,
    bound: TimeDelta,
    reads: usize,
    spans: &mut Spans,
) -> (f64, u64, f64) {
    let ids: Vec<ObjectId> = client
        .primary()
        .map(|p| p.store().ids().collect())
        .unwrap_or_default();
    if ids.is_empty() {
        return (0.0, 0, 0.0);
    }
    let mut rng = Rng::new(0xC11E);
    let mut ns = Vec::with_capacity(reads);
    let mut ages = Vec::with_capacity(reads);
    let mut redirects = 0;
    for i in 0..reads {
        let id = ids[rng.below(ids.len())];
        let (outcome, t) = spans.time("replay.client_read", None, 9 + i as u64, || {
            client.read(id, ReadConsistency::Bounded(bound))
        });
        ns.push(t as f64);
        if let Ok(o) = outcome {
            redirects += u64::from(o.is_redirect());
            ages.push(o.certificate().age_bound.as_nanos() as f64 / 1e6);
        }
    }
    (
        median(&mut ns),
        redirects,
        crate::stats::quantile(&mut ages, 0.99),
    )
}
