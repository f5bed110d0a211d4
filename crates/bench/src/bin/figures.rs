//! Regenerates every figure of the paper's evaluation (§5) as a text
//! table, plus the design-choice ablations and the theory-validation
//! table for Theorems 2–3.
//!
//! ```text
//! cargo run -p rtpb-bench --release --bin figures            # everything
//! cargo run -p rtpb-bench --release --bin figures -- --fig 8 # one figure
//! cargo run -p rtpb-bench --release --bin figures -- --quick # short runs
//! cargo run -p rtpb-bench --release --bin figures -- --csv   # CSV output
//! ```

use rtpb_bench::experiments::{
    ablations, distance_vs_loss, distance_vs_objects, inconsistency_vs_loss,
    response_time_vs_objects, theory_validation, FigureDefaults,
};
use rtpb_bench::Table;
use rtpb_core::config::SchedulingMode;

const WINDOWS_MS: [u64; 3] = [200, 400, 800];
const OBJECT_COUNTS: [usize; 8] = [2, 4, 8, 16, 24, 32, 48, 64];
const LOSSES: [f64; 6] = [0.0, 0.02, 0.05, 0.10, 0.15, 0.20];
const WRITE_PERIODS_MS: [u64; 3] = [50, 100, 200];

struct Options {
    fig: Option<u32>,
    theory_only: bool,
    quick: bool,
    csv: bool,
    trace: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        fig: None,
        theory_only: false,
        quick: false,
        csv: false,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--fig needs a number 6..=12"));
                opts.fig = Some(n);
            }
            "--theory" => opts.theory_only = true,
            "--trace" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| usage("--trace needs a JSONL file path"));
                opts.trace = Some(path);
            }
            "--quick" => opts.quick = true,
            "--csv" => opts.csv = true,
            "--help" | "-h" => usage("regenerate the paper's figures"),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    eprintln!("usage: figures [--fig N] [--theory] [--quick] [--csv] [--trace FILE.jsonl]");
    std::process::exit(2);
}

fn emit(table: &Table, csv: bool) {
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
}

fn main() {
    let opts = parse_args();

    // Trace mode: summarize a captured JSONL event stream and exit.
    if let Some(path) = &opts.trace {
        let jsonl = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("figures: cannot read {path}: {e}");
            std::process::exit(1);
        });
        let summary = rtpb_bench::TraceSummary::from_jsonl(&jsonl).unwrap_or_else(|e| {
            eprintln!("figures: {path} is not a valid trace: {e}");
            std::process::exit(1);
        });
        emit(&summary.to_table(), opts.csv);
        return;
    }

    let defaults = if opts.quick {
        FigureDefaults::quick()
    } else {
        FigureDefaults::default()
    };

    let wants = |n: u32| (opts.fig.is_none() && !opts.theory_only) || opts.fig == Some(n);

    if wants(6) {
        emit(
            &response_time_vs_objects(&defaults, &WINDOWS_MS, &OBJECT_COUNTS, true),
            opts.csv,
        );
    }
    if wants(7) {
        emit(
            &response_time_vs_objects(&defaults, &WINDOWS_MS, &OBJECT_COUNTS, false),
            opts.csv,
        );
    }
    if wants(8) {
        emit(
            &distance_vs_loss(&defaults, &WRITE_PERIODS_MS, &LOSSES, 400, 8),
            opts.csv,
        );
    }
    if wants(9) {
        emit(
            &distance_vs_objects(&defaults, &WINDOWS_MS, &OBJECT_COUNTS, true, 0.01),
            opts.csv,
        );
    }
    if wants(10) {
        emit(
            &distance_vs_objects(&defaults, &WINDOWS_MS, &OBJECT_COUNTS, false, 0.01),
            opts.csv,
        );
    }
    if wants(11) {
        emit(
            &inconsistency_vs_loss(&defaults, &WINDOWS_MS, &LOSSES, 8, SchedulingMode::Normal),
            opts.csv,
        );
    }
    if wants(12) {
        emit(
            &inconsistency_vs_loss(
                &defaults,
                &WINDOWS_MS,
                &LOSSES,
                8,
                SchedulingMode::Compressed,
            ),
            opts.csv,
        );
    }
    if opts.fig.is_none() && !opts.theory_only {
        emit(&ablations(), opts.csv);
    }
    if opts.theory_only || opts.fig.is_none() {
        emit(&theory_validation(), opts.csv);
    }
}
