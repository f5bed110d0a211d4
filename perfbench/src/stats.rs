//! Order statistics, a seeded generator, and the span recorder.

use std::fmt::Write as _;
use std::time::Instant;

/// The `q`-quantile of `samples` by the nearest-rank rule (sorts in
/// place). `0.0` for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A sample's median and 99th percentile, with its size.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pct {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Pct {
    pub fn of(samples: &mut [f64]) -> Pct {
        Pct {
            p50: quantile(samples, 0.5),
            p99: quantile(samples, 0.99),
            n: samples.len(),
        }
    }
}

/// Whether a p99 over `n` samples has at least ten samples beyond it.
pub fn p99_supported(n: usize) -> bool {
    n >= 1000
}

/// SplitMix64: the benchmark's own input generator, so that the
/// program under test receives only generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0FBE_1C4A_11D5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// Calibration-loop speed that defines one reference second.
pub const REFERENCE_OPS_PER_S: f64 = 2.5e6;

/// A fixed loop of map lookups and small allocations, the same mix the
/// simulator runs on. Its speed, measured next to each timed phase,
/// converts wall time to reference time: `wall × measured / reference`.
/// Shared and throttled machines change speed by tens of percent
/// within a minute, and the conversion cancels that drift.
pub struct Calibration {
    map: std::collections::BTreeMap<u64, Vec<u8>>,
}

impl Calibration {
    const KEYS: u64 = 262_144;
    const OPS: u64 = 100_000;

    pub fn new() -> Calibration {
        let map = (0..Self::KEYS)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), vec![i as u8; 64]))
            .collect();
        Calibration { map }
    }

    /// The loop's speed relative to the reference: a factor that turns
    /// wall time into reference time.
    pub fn factor(&self) -> f64 {
        let mut x = 1u64;
        let start = Instant::now();
        for _ in 0..Self::OPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let key = (x % Self::KEYS).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let byte = self.map.get(&key).map_or(0, |v| v[0]);
            std::hint::black_box(vec![byte; 64]);
        }
        Self::OPS as f64 / start.elapsed().as_secs_f64() / REFERENCE_OPS_PER_S
    }
}

/// One recorded span: a named interval of wall time around a call the
/// benchmark made into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Shared by every span of one request (one client operation, one
    /// simulated millisecond, or one replayed stage).
    pub request: u64,
}

/// Keeps spans in memory until the run ends. A disabled recorder still
/// times calls (the untraced run needs the durations) but keeps nothing.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    next_id: u32,
}

impl Spans {
    pub fn new(keep: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            keep,
            spans: Vec::new(),
            next_id: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id and start time.
    pub fn open(&mut self) -> (u32, u64) {
        let id = self.next_id;
        self.next_id += 1;
        (id, self.now_ns())
    }

    /// Closes span `id` opened at `start_ns`; returns its duration.
    pub fn close(
        &mut self,
        (id, start_ns): (u32, u64),
        name: &'static str,
        parent: Option<u32>,
        request: u64,
    ) -> u64 {
        let end_ns = self.now_ns();
        if self.keep {
            self.spans.push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                request,
            });
        }
        end_ns - start_ns
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let open = self.open();
        let out = f();
        let ns = self.close(open, name, parent, request);
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn spans_nest_and_serialise() {
        let mut spans = Spans::new(true);
        let outer = spans.open();
        let ((), _) = spans.time("inner", Some(outer.0), 3, || ());
        spans.close(outer, "outer", None, 3);
        assert_eq!(spans.spans().len(), 2);
        assert_eq!(spans.spans()[0].parent, Some(spans.spans()[1].id));
        assert!(spans.to_jsonl().contains("\"name\":\"inner\""));
    }
}
