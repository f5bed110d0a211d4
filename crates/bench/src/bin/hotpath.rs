//! The hot-path microbench (sibling of `figures`).
//!
//! Measures the encode / decode / apply loop (see
//! `rtpb_bench::hotpath`), prints the summary table, and writes the
//! machine-readable `BENCH_hotpath.json`. This binary installs a
//! counting global allocator, so allocations/op are real numbers here
//! (library callers without the counter get timing only).
//!
//! ```text
//! cargo run -p rtpb-bench --release --bin hotpath
//! cargo run -p rtpb-bench --release --bin hotpath -- --quick
//! cargo run -p rtpb-bench --release --bin hotpath -- --check BENCH_hotpath.json
//! cargo run -p rtpb-bench --release --bin hotpath -- --quick --check --baseline BENCH_hotpath.json
//! ```
//!
//! With `--baseline FILE`, the freshly measured report is compared
//! against `FILE` and the process exits non-zero if any metric
//! regresses beyond `--threshold` percent (default 25) — the CI
//! perf-smoke gate.

use rtpb_bench::hotpath::{compare_reports, run_suite, validate_report_json, HotpathConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts every allocation and
/// reallocation, so the suite can report allocations/op.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

struct Options {
    quick: bool,
    out: String,
    check: Option<Option<String>>,
    baseline: Option<String>,
    threshold: f64,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        out: "BENCH_hotpath.json".to_string(),
        check: None,
        baseline: None,
        threshold: 25.0,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| usage("--out needs a path"));
            }
            "--check" => {
                // With a path operand, validate that file and exit;
                // bare, validate the fresh report before writing it.
                let path = match args.peek() {
                    Some(p) if !p.starts_with("--") => Some(args.next().expect("peeked")),
                    _ => None,
                };
                opts.check = Some(path);
            }
            "--baseline" => {
                opts.baseline = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--baseline needs a path")),
                );
            }
            "--threshold" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| usage("--threshold needs a percentage"));
                match raw.parse::<f64>() {
                    Ok(v) if v >= 0.0 && v.is_finite() => opts.threshold = v,
                    _ => usage(&format!("bad --threshold value {raw}")),
                }
            }
            "--help" | "-h" => usage("hot-path encode/decode/apply microbench"),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("hotpath: {msg}");
    eprintln!(
        "usage: hotpath [--quick] [--out FILE.json] [--check [FILE.json]] \
         [--baseline FILE.json] [--threshold PCT]"
    );
    std::process::exit(2);
}

fn main() {
    let opts = parse_args();

    // Check-only mode: validate an existing report and exit.
    if let Some(Some(path)) = &opts.check {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("hotpath: cannot read {path}: {e}");
            std::process::exit(1);
        });
        if let Err(e) = validate_report_json(&text) {
            eprintln!("hotpath: {path} fails the v1 schema: {e}");
            std::process::exit(1);
        }
        println!("{path}: schema-valid rtpb.hotpath.v1 report");
        return;
    }

    let config = if opts.quick {
        HotpathConfig::quick()
    } else {
        HotpathConfig::default()
    };
    let report = run_suite(&config, Some(allocation_count));
    print!("{}", report.to_text());
    let json = report.to_json();
    validate_report_json(&json).expect("generated report must be schema-valid");
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("hotpath: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("wrote {}", opts.out);

    if let Some(path) = &opts.baseline {
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("hotpath: cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        if let Err(e) = validate_report_json(&baseline) {
            eprintln!("hotpath: baseline {path} fails the v1 schema: {e}");
            std::process::exit(1);
        }
        let regressions = match compare_reports(&json, &baseline, opts.threshold) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("hotpath: cannot compare against {path}: {e}");
                std::process::exit(1);
            }
        };
        if regressions.is_empty() {
            println!("no regression beyond {}% against {path}", opts.threshold);
        } else {
            eprintln!(
                "hotpath: {} metric(s) regressed beyond {}% against {path}:",
                regressions.len(),
                opts.threshold
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}
