//! Correctness checks. Each takes what the run observed from outside the
//! program plus an [`Expect`]ation, so a self-test can break the
//! expectation and see the check fire.

use rtpb_types::{Time, TimeDelta};

/// What a correct run must satisfy. [`Expect::for_window`] is the real
/// expectation; the self-tests distort one field at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expect {
    /// Every object's worst primary–backup distance stays within this
    /// (the workload's δ_i).
    pub window: TimeDelta,
    /// A certificate is unsound when its age bound, minus this margin,
    /// is below the read's true staleness.
    pub cert_margin: TimeDelta,
    /// Acknowledged writes may be missing after a primary crash only if
    /// they were acknowledged within this long before it.
    pub loss_allowance: TimeDelta,
    /// Added to every session floor before it is compared.
    pub floor_bump: u64,
    /// Compare backup payloads against a copy of the primary's with one
    /// byte flipped.
    pub flip_primary_payload: bool,
}

impl Expect {
    pub fn for_window(window: TimeDelta) -> Expect {
        Expect {
            window,
            cert_margin: TimeDelta::ZERO,
            loss_allowance: window,
            floor_bump: 0,
            flip_primary_payload: false,
        }
    }
}

/// Objects whose worst distance left the window.
pub fn window_breaches(max_distances: &[TimeDelta], expect: &Expect) -> usize {
    max_distances.iter().filter(|&&d| d > expect.window).count()
}

/// Whether a backup copy that claims the primary's version differs in
/// bytes from the primary's copy.
pub fn payload_mismatch(primary: &[u8], backup: &[u8], expect: &Expect) -> bool {
    if expect.flip_primary_payload && !primary.is_empty() {
        let mut flipped = primary.to_vec();
        flipped[0] ^= 0x01;
        return flipped != backup;
    }
    primary != backup
}

/// Whether a certificate under-reports the read's true staleness.
pub fn cert_unsound(age_bound: TimeDelta, true_staleness: TimeDelta, expect: &Expect) -> bool {
    age_bound.saturating_sub(expect.cert_margin) < true_staleness
}

/// A session's per-object version floors: what its own writes produced
/// and what its floor-bearing reads observed. A read under a session
/// floor must not return less.
#[derive(Debug, Clone)]
pub struct SessionFloors {
    floors: Vec<u64>,
}

impl SessionFloors {
    pub fn new(objects: usize) -> SessionFloors {
        SessionFloors {
            floors: vec![0; objects],
        }
    }

    pub fn wrote(&mut self, object: usize, version: u64) {
        self.floors[object] = self.floors[object].max(version);
    }

    /// Records a floor-bearing read; `false` when it went backwards.
    pub fn read(&mut self, object: usize, version: u64, expect: &Expect) -> bool {
        let ok = version >= self.floors[object] + expect.floor_bump;
        self.floors[object] = self.floors[object].max(version);
        ok
    }
}

/// One write the serving primary acknowledged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acked {
    pub object: usize,
    pub version: u64,
    pub at: Time,
}

/// Acknowledged writes of the crashed primary's regime that the promoted
/// replica did not hold (`missing`), and how many of those were
/// acknowledged earlier than the allowance before the crash
/// (`unexcused`).
pub fn lost_writes(
    acked: &[Acked],
    preserved: &[u64],
    crash_at: Time,
    expect: &Expect,
) -> (u64, u64) {
    let mut missing = 0;
    let mut unexcused = 0;
    for w in acked {
        if w.version > preserved[w.object] {
            missing += 1;
            if crash_at.saturating_since(w.at) > expect.loss_allowance {
                unexcused += 1;
            }
        }
    }
    (missing, unexcused)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    #[test]
    fn checks_pass_on_their_real_expectation() {
        let e = Expect::for_window(ms(400));
        assert_eq!(window_breaches(&[ms(10), ms(400)], &e), 0);
        assert!(!payload_mismatch(&[1, 2], &[1, 2], &e));
        assert!(!cert_unsound(ms(5), ms(5), &e));
        let mut s = SessionFloors::new(1);
        s.wrote(0, 3);
        assert!(s.read(0, 3, &e));
        let acked = [Acked {
            object: 0,
            version: 4,
            at: Time::from_millis(900),
        }];
        assert_eq!(
            lost_writes(&acked, &[3], Time::from_millis(1_000), &e),
            (1, 0)
        );
    }

    #[test]
    fn checks_fire_on_a_broken_input() {
        let e = Expect::for_window(ms(400));
        assert_eq!(window_breaches(&[ms(401)], &e), 1);
        assert!(payload_mismatch(&[1, 2], &[1, 3], &e));
        assert!(cert_unsound(ms(4), ms(5), &e));
        let mut s = SessionFloors::new(1);
        s.wrote(0, 3);
        assert!(!s.read(0, 2, &e));
        let acked = [Acked {
            object: 0,
            version: 4,
            at: Time::from_millis(100),
        }];
        assert_eq!(
            lost_writes(&acked, &[3], Time::from_millis(1_000), &e),
            (1, 1)
        );
    }
}
