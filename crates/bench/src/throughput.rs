//! The batched-pipeline throughput suite.
//!
//! Drives tiers of 10/100/1k/5k objects through [`SimCluster`] twice per
//! tier — once with the coalescing window disabled (`coalesce_window =
//! 0`, one wire frame per update) and once with it enabled (updates due
//! within the window ride one [`Batch`] frame) — and reports the
//! throughput delta. The win comes from CPU amortization: every
//! unbatched transmission pays `send_cost_base`, so once the offered
//! send rate exceeds `1 / send_cost_base` the primary's CPU saturates
//! and updates queue; a batch pays the base cost once per frame.
//!
//! The `throughput` binary renders the suite as a table and writes
//! `BENCH_throughput.json`; [`validate_report_json`] is the schema gate
//! CI runs against that file.
//!
//! [`Batch`]: rtpb_core::wire::WireMessage::Batch

use crate::table::Table;
use rtpb_core::config::ProtocolConfig;
use rtpb_core::harness::{ClusterConfig, SimCluster};
use rtpb_obs::json::{parse_flat, JsonObject, JsonValue};
use rtpb_obs::MetricsRegistry;
use rtpb_types::{ObjectSpec, TimeDelta};
use std::fmt::Write as _;

/// The object tiers the full suite sweeps.
pub const DEFAULT_TIERS: [usize; 4] = [10, 100, 1000, 5000];

/// Parameters shared by every run of the suite.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Object counts to sweep.
    pub tiers: Vec<usize>,
    /// Virtual time simulated per run.
    pub run_time: TimeDelta,
    /// The coalescing window `W` used for the batched runs.
    pub coalesce_window: TimeDelta,
    /// Client write period `p_i`.
    pub write_period: TimeDelta,
    /// Primary external bound `δ_i^P`.
    pub primary_bound: TimeDelta,
    /// Backup consistency window `δ_i` (the staleness bound reported).
    pub backup_bound: TimeDelta,
    /// Payload size in bytes.
    pub size_bytes: usize,
    /// CPU cost of one client write.
    pub exec_time: TimeDelta,
    /// Base CPU cost of one transmission — the cost batching amortizes.
    pub send_cost_base: TimeDelta,
    /// Seed for both runs of every tier (same seed → fair comparison).
    pub seed: u64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            tiers: DEFAULT_TIERS.to_vec(),
            run_time: TimeDelta::from_secs(10),
            coalesce_window: TimeDelta::from_millis(10),
            write_period: TimeDelta::from_millis(50),
            primary_bound: TimeDelta::from_millis(150),
            backup_bound: TimeDelta::from_millis(400),
            size_bytes: 64,
            exec_time: TimeDelta::from_micros(2),
            send_cost_base: TimeDelta::from_millis(1),
            seed: 42,
        }
    }
}

impl ThroughputConfig {
    /// Quick variant for smoke tests and CI: shorter runs.
    #[must_use]
    pub fn quick() -> Self {
        ThroughputConfig {
            run_time: TimeDelta::from_secs(2),
            ..ThroughputConfig::default()
        }
    }

    fn spec(&self) -> ObjectSpec {
        ObjectSpec::builder("tp-obj")
            .update_period(self.write_period)
            .exec_time(self.exec_time)
            .primary_bound(self.primary_bound)
            .backup_bound(self.backup_bound)
            .size_bytes(self.size_bytes)
            .build()
            .expect("valid throughput spec")
    }

    fn cluster(&self, coalesce_window: TimeDelta) -> SimCluster {
        let mut config = ClusterConfig {
            protocol: ProtocolConfig {
                // The suite measures saturation behavior, so the offered
                // load must reach the CPU instead of being shed at the
                // admission gate (Figures 7/10 use the same switch).
                admission_enabled: false,
                send_cost_base: self.send_cost_base,
                coalesce_window,
                ..ProtocolConfig::default()
            },
            seed: self.seed,
            registry: MetricsRegistry::new(),
            ..ClusterConfig::default()
        };
        config.link.loss_probability = 0.0;
        SimCluster::new(config)
    }
}

/// What one run (one tier, one mode) measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeOutcome {
    /// Updates transmitted to the backup (post-CPU, so saturation caps
    /// this).
    pub updates_sent: u64,
    /// Updates applied at the backup.
    pub updates_applied: u64,
    /// Physical wire frames carrying those updates.
    pub frames_sent: u64,
    /// `updates_sent` per simulated second.
    pub updates_per_sec: f64,
    /// `frames_sent` per simulated second.
    pub frames_per_sec: f64,
    /// Mean sub-messages per batch frame (1.0 when unbatched).
    pub mean_batch_occupancy: f64,
    /// Worst primary–backup distance observed on any object.
    pub worst_staleness_ms: f64,
    /// The consistency window `δ_i` that staleness is measured against.
    pub staleness_bound_ms: f64,
    /// Whether every object stayed within its window for the whole run.
    pub bound_held: bool,
}

/// Both modes of one tier, plus the headline ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct TierOutcome {
    /// Number of registered objects.
    pub objects: usize,
    /// The `coalesce_window = 0` run.
    pub unbatched: ModeOutcome,
    /// The coalescing run.
    pub batched: ModeOutcome,
}

impl TierOutcome {
    /// Batched over unbatched updates/sec.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.unbatched.updates_per_sec > 0.0 {
            self.batched.updates_per_sec / self.unbatched.updates_per_sec
        } else {
            f64::INFINITY
        }
    }
}

/// The whole suite: one [`TierOutcome`] per tier.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// The configuration the suite ran with.
    pub config: ThroughputConfig,
    /// One outcome per entry in `config.tiers`.
    pub tiers: Vec<TierOutcome>,
}

fn run_mode(config: &ThroughputConfig, objects: usize, coalesce_window: TimeDelta) -> ModeOutcome {
    let mut cluster = config.cluster(coalesce_window);
    let specs = (0..objects).map(|_| config.spec()).collect();
    let ids = cluster.register_many(specs).expect("admission disabled");
    cluster.run_for(config.run_time);

    let report = cluster.report();
    let snapshot = cluster.registry().snapshot();
    let secs = config.run_time.as_millis_f64() / 1e3;
    let frames = snapshot.counter("cluster.frames_sent").unwrap_or(0);
    // Occupancy buckets hold sub-message counts (recorded via
    // `record_nanos`), so the "duration" mean reads back as a count.
    let occupancy = snapshot
        .histogram("cluster.batch_occupancy")
        .and_then(|h| h.mean)
        .map_or(1.0, |m| m.as_nanos() as f64);

    let mut applied = 0;
    let mut worst = TimeDelta::ZERO;
    let mut bound_held = true;
    for &id in &ids {
        let r = report.object_report(id).expect("tracked");
        applied += r.applies;
        worst = worst.max(r.max_distance);
        bound_held &= r.window_episodes == 0;
    }

    ModeOutcome {
        updates_sent: report.updates_sent(),
        updates_applied: applied,
        frames_sent: frames,
        updates_per_sec: report.updates_sent() as f64 / secs,
        frames_per_sec: frames as f64 / secs,
        mean_batch_occupancy: occupancy,
        worst_staleness_ms: worst.as_millis_f64(),
        staleness_bound_ms: config.backup_bound.as_millis_f64(),
        bound_held,
    }
}

/// Runs one tier in both modes under identical config and seed.
#[must_use]
pub fn run_tier(config: &ThroughputConfig, objects: usize) -> TierOutcome {
    TierOutcome {
        objects,
        unbatched: run_mode(config, objects, TimeDelta::ZERO),
        batched: run_mode(config, objects, config.coalesce_window),
    }
}

/// Runs every configured tier.
#[must_use]
pub fn run_suite(config: &ThroughputConfig) -> ThroughputReport {
    let tiers = config.tiers.iter().map(|&n| run_tier(config, n)).collect();
    ThroughputReport {
        config: config.clone(),
        tiers,
    }
}

impl ModeOutcome {
    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.uint_field("updates_sent", self.updates_sent)
            .uint_field("updates_applied", self.updates_applied)
            .uint_field("frames_sent", self.frames_sent)
            .float_field("updates_per_sec", round2(self.updates_per_sec))
            .float_field("frames_per_sec", round2(self.frames_per_sec))
            .float_field("mean_batch_occupancy", round2(self.mean_batch_occupancy))
            .float_field("worst_staleness_ms", round2(self.worst_staleness_ms))
            .float_field("staleness_bound_ms", round2(self.staleness_bound_ms))
            .bool_field("bound_held", self.bound_held);
        o.finish()
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

impl ThroughputReport {
    /// Renders the report as the `BENCH_throughput.json` document.
    ///
    /// Top level is a real (nested) JSON object; the per-mode leaves are
    /// flat objects in the trace-JSON dialect so [`validate_report_json`]
    /// can check them with the same parser the event schema uses.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"rtpb.throughput.v1\",");
        let _ = writeln!(
            out,
            "  \"run_time_ms\": {},",
            self.config.run_time.as_millis_f64() as u64
        );
        let _ = writeln!(
            out,
            "  \"coalesce_window_ms\": {},",
            self.config.coalesce_window.as_millis_f64() as u64
        );
        let _ = writeln!(
            out,
            "  \"write_period_ms\": {},",
            self.config.write_period.as_millis_f64() as u64
        );
        let _ = writeln!(out, "  \"seed\": {},", self.config.seed);
        out.push_str("  \"tiers\": [\n");
        for (i, tier) in self.tiers.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"objects\": {},", tier.objects);
            let _ = writeln!(
                out,
                "      \"updates_per_sec_speedup\": {},",
                json_float(tier.speedup())
            );
            let _ = writeln!(out, "      \"unbatched\": {},", tier.unbatched.to_json());
            let _ = writeln!(out, "      \"batched\": {}", tier.batched.to_json());
            out.push_str(if i + 1 == self.tiers.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the report as the figure-style text table.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            "Throughput: batched vs unbatched update pipeline",
            "objects",
            vec![
                "unbatched upd/s".into(),
                "batched upd/s".into(),
                "speedup".into(),
                "batched frames/s".into(),
                "mean occupancy".into(),
                "batched worst stale (ms)".into(),
            ],
        );
        for tier in &self.tiers {
            table.push_row(
                tier.objects.to_string(),
                vec![
                    Some(round2(tier.unbatched.updates_per_sec)),
                    Some(round2(tier.batched.updates_per_sec)),
                    Some(round2(tier.speedup())),
                    Some(round2(tier.batched.frames_per_sec)),
                    Some(round2(tier.batched.mean_batch_occupancy)),
                    Some(round2(tier.batched.worst_staleness_ms)),
                ],
            );
        }
        table.note(format!(
            "window W={}, send cost base {}, staleness bound {}, {} simulated per point",
            self.config.coalesce_window,
            self.config.send_cost_base,
            self.config.backup_bound,
            self.config.run_time,
        ));
        table
    }
}

fn json_float(v: f64) -> String {
    if v.is_finite() {
        format!("{}", round2(v))
    } else {
        "null".to_string()
    }
}

const MODE_FIELDS: [&str; 9] = [
    "updates_sent",
    "updates_applied",
    "frames_sent",
    "updates_per_sec",
    "frames_per_sec",
    "mean_batch_occupancy",
    "worst_staleness_ms",
    "staleness_bound_ms",
    "bound_held",
];

fn check_mode_object(text: &str, key: &str, at: usize) -> Result<usize, String> {
    let marker = format!("\"{key}\": ");
    let start = text[at..]
        .find(&marker)
        .map(|p| at + p + marker.len())
        .ok_or_else(|| format!("missing \"{key}\" object"))?;
    let end = text[start..]
        .find('}')
        .map(|p| start + p + 1)
        .ok_or_else(|| format!("unterminated \"{key}\" object"))?;
    let flat = parse_flat(&text[start..end]).map_err(|e| format!("bad \"{key}\" object: {e}"))?;
    for field in MODE_FIELDS {
        let v = flat
            .get(field)
            .ok_or_else(|| format!("\"{key}\" object missing field \"{field}\""))?;
        let ok = match field {
            "bound_held" => v.as_bool().is_some(),
            _ => matches!(v, JsonValue::UInt(_) | JsonValue::Float(_)),
        };
        if !ok {
            return Err(format!("\"{key}\".\"{field}\" has the wrong type"));
        }
    }
    Ok(end)
}

/// Validates a `BENCH_throughput.json` document against the v1 schema:
/// the header fields, at least one tier, and every per-mode leaf object
/// carrying all nine metrics with the right types.
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    if !text.contains("\"schema\": \"rtpb.throughput.v1\"") {
        return Err("missing or unknown \"schema\" header".into());
    }
    for key in [
        "run_time_ms",
        "coalesce_window_ms",
        "write_period_ms",
        "seed",
    ] {
        if !text.contains(&format!("\"{key}\": ")) {
            return Err(format!("missing header field \"{key}\""));
        }
    }
    if !text.contains("\"tiers\": [") {
        return Err("missing \"tiers\" array".into());
    }
    let mut at = 0;
    let mut tiers = 0;
    while let Some(p) = text[at..].find("\"objects\": ") {
        at += p + 1;
        if !text[at..].contains("\"updates_per_sec_speedup\":") {
            return Err("tier missing \"updates_per_sec_speedup\"".into());
        }
        at = check_mode_object(text, "unbatched", at)?;
        at = check_mode_object(text, "batched", at)?;
        tiers += 1;
    }
    if tiers == 0 {
        return Err("no tiers in report".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> ThroughputReport {
        let mode = |ups: f64| ModeOutcome {
            updates_sent: (ups * 2.0) as u64,
            updates_applied: (ups * 2.0) as u64,
            frames_sent: 100,
            updates_per_sec: ups,
            frames_per_sec: 50.0,
            mean_batch_occupancy: 4.0,
            worst_staleness_ms: 120.0,
            staleness_bound_ms: 400.0,
            bound_held: true,
        };
        ThroughputReport {
            config: ThroughputConfig {
                tiers: vec![4, 8],
                ..ThroughputConfig::quick()
            },
            tiers: vec![
                TierOutcome {
                    objects: 4,
                    unbatched: mode(100.0),
                    batched: mode(250.0),
                },
                TierOutcome {
                    objects: 8,
                    unbatched: mode(80.0),
                    batched: mode(400.0),
                },
            ],
        }
    }

    #[test]
    fn json_passes_its_own_schema_gate() {
        let text = synthetic().to_json();
        validate_report_json(&text).expect("schema-valid");
        assert!(text.contains("\"updates_per_sec_speedup\": 2.5"));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_report_json("{}").is_err());
        let text = synthetic().to_json();
        assert!(validate_report_json(&text.replace("rtpb.throughput.v1", "v0")).is_err());
        assert!(validate_report_json(&text.replace("\"frames_sent\"", "\"frames\"")).is_err());
        assert!(
            validate_report_json(&text.replace("\"bound_held\":true", "\"bound_held\":3")).is_err()
        );
    }

    #[test]
    fn table_has_one_row_per_tier() {
        let t = synthetic().to_table();
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.rows()[1].1[2], Some(5.0), "speedup column");
    }
}
