//! The RTPB benchmark: three seeded workloads in the simulator, checked
//! for correctness, reported end to end (`--trace 0`) or per layer
//! (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are a human-readable table. The exit code is 0 only when every
//! correctness check passed.

mod checks;
mod events;
mod replay;
mod run;
mod shape;
mod stats;
mod traced;

use checks::Expect;
use shape::{Shape, Workload};
use stats::{median, Calibration, Pct, Spans};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Repetitions of set-up plus window in one untraced run: at least
/// this many, and more while the time budget lasts.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A metric as printed: name, value, unit and sample count.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one invocation prints.
pub struct Outcome {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Printed in the table only.
    pub table: Vec<Metric>,
    /// Printed in the table and in the result line.
    pub metrics: Vec<Metric>,
}

/// One repetition's figures, wall times converted to reference time.
struct RepFigures {
    setup_s: f64,
    updates_per_s: f64,
    vt_per_s: f64,
    reads_per_s: f64,
    read_call_us: Pct,
    write_call_us: Pct,
    wall_setup_s: f64,
    wall_updates_per_s: f64,
    vt: run::Vt,
    failures: Vec<String>,
}

fn median_of(reps: &[RepFigures], f: impl Fn(&RepFigures) -> f64) -> f64 {
    median(&mut reps.iter().map(f).collect::<Vec<f64>>())
}

/// The untraced run: repetitions of set-up plus window until the time
/// budget is spent; each end-to-end metric is the median over them.
fn end_to_end(shape: &Shape, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let started = Instant::now();
    let expect = Expect::for_window(shape.backup_bound);
    let cal = Calibration::new();
    let mut reps: Vec<RepFigures> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs() < seconds {
        let mut rep = run::run(shape, seed, false, expect, &cal, &mut Spans::new(false))?;
        let window_s = rep.window_wall_ns as f64 / 1e9 * rep.window_scale;
        let run_for_s = rep.run_for_ns as f64 / 1e9 * rep.window_scale;
        let to_us = |ns: &mut Vec<f64>| {
            let mut pct = Pct::of(ns);
            pct.p50 *= rep.window_scale / 1e3;
            pct.p99 *= rep.window_scale / 1e3;
            pct
        };
        // The cluster is dropped with `rep`; only the figures are kept.
        reps.push(RepFigures {
            setup_s: rep.setup_s * rep.setup_scale,
            updates_per_s: rep.applies as f64 / run_for_s,
            vt_per_s: shape.window_ms as f64 / 1e3 / window_s,
            reads_per_s: rep.vt.reads as f64 / window_s,
            read_call_us: to_us(&mut rep.read_call_ns),
            write_call_us: to_us(&mut rep.write_call_ns),
            wall_setup_s: rep.setup_s,
            wall_updates_per_s: rep.applies as f64 / (rep.run_for_ns as f64 / 1e9),
            vt: rep.vt,
            failures: rep.failures,
        });
    }
    let mut failures = reps[0].failures.clone();
    if reps.iter().any(|r| r.vt != reps[0].vt) {
        failures.push("repetitions with one seed disagree on virtual-time figures".into());
    }
    let vt = reps[0].vt.clone();
    let n = reps.len();
    let objects = vt.staleness.n;
    let metrics = vec![
        Metric::new("setup_s", median_of(&reps, |r| r.setup_s), "s", n),
        Metric::new(
            "updates_per_s",
            median_of(&reps, |r| r.updates_per_s),
            "1/s",
            n,
        ),
        Metric::new("vt_s_per_s", median_of(&reps, |r| r.vt_per_s), "s/s", n),
        Metric::new("staleness_p50_ms", vt.staleness.p50, "ms", objects),
        Metric::new("staleness_p99_ms", vt.staleness.p99, "ms", objects),
    ];
    let mut table = vec![
        Metric::new("wall.setup_s", median_of(&reps, |r| r.wall_setup_s), "s", n),
        Metric::new(
            "wall.updates_per_s",
            median_of(&reps, |r| r.wall_updates_per_s),
            "1/s",
            n,
        ),
    ];
    let reads = reps[0].read_call_us.n;
    let writes = reps[0].write_call_us.n;
    if reads > 0 {
        table.push(Metric::new(
            "reads_per_s",
            median_of(&reps, |r| r.reads_per_s),
            "1/s",
            n,
        ));
        table.push(Metric::new(
            "read_call_p50_us",
            median_of(&reps, |r| r.read_call_us.p50),
            "us",
            reads,
        ));
        table.push(Metric::new(
            "read_call_p99_us",
            median_of(&reps, |r| r.read_call_us.p99),
            "us",
            reads,
        ));
    }
    if writes > 0 {
        table.push(Metric::new(
            "write_call_p50_us",
            median_of(&reps, |r| r.write_call_us.p50),
            "us",
            writes,
        ));
        table.push(Metric::new(
            "write_call_p99_us",
            median_of(&reps, |r| r.write_call_us.p99),
            "us",
            writes,
        ));
    }
    if reads > 0 {
        let latency = vt.read_latency;
        table.push(Metric::new(
            "read_latency_p50_ms",
            latency.p50,
            "ms",
            latency.n,
        ));
        table.push(Metric::new(
            "read_latency_p99_ms",
            latency.p99,
            "ms",
            latency.n,
        ));
    }
    if shape.workload == Workload::Failover {
        table.push(Metric::new("unavailable_ms", vt.unavailable_ms, "ms", 1));
        table.push(Metric::new("recovery_ms", vt.recovery_ms, "ms", 1));
        let lost = vt.lost_writes as f64;
        table.push(Metric::new(
            "acked_writes_lost",
            lost,
            "count",
            vt.writes as usize,
        ));
    }
    table.push(Metric::new("warmup_ms", vt.warmup_ms as f64, "ms", 1));
    table.push(Metric::new(
        "ops_failed_ratio",
        vt.ops_failed as f64 / vt.ops.max(1) as f64,
        "ratio",
        vt.ops as usize,
    ));
    Ok(Outcome {
        failures,
        attempted: vt.attempted,
        failed: vt.failed,
        table,
        metrics,
    })
}

fn render(args: &Args, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# workload={} seed={} trace={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let _ = writeln!(
        out,
        "# wall-clock figures are reference time: wall time x calibration speed / {} ops/s",
        stats::REFERENCE_OPS_PER_S
    );
    for m in outcome.metrics.iter().chain(&outcome.table) {
        let note = if m.name.contains("p99") && !stats::p99_supported(m.samples) {
            " (fewer than 10 samples beyond the p99)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:<34} {:>16.4} {:<6} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &outcome.failures {
        let _ = writeln!(out, "CHECK FAILED: {f}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a layer with nothing to
            // divide by reports zero.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let shape = Shape::full(args.workload);
    let result = if args.trace {
        traced::per_layer(&shape, args.seed)
    } else {
        end_to_end(&shape, args.seed, args.seconds)
    };
    match result {
        Ok(outcome) => {
            print!("{}", render(&args, &outcome));
            if outcome.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
