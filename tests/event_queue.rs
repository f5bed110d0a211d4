//! The simulator's event queue pops exactly what one binary heap of
//! `(time, scheduling order)` pairs would pop, whatever mix of delays it
//! is fed: recurring delays (more of them than the queue has FIFO lanes),
//! random delays, zero delays, same-instant bursts, pushes into the past,
//! and pushes made after `run_until` moved the clock past the last
//! dispatched event. Seeded traces stay byte-identical only if this holds.

use rtpb::sim::propcheck::{run_cases, Gen};
use rtpb::sim::{Context, EventQueue, Simulation, World};
use rtpb::types::{Time, TimeDelta};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Recurring delays in ns, more distinct ones than the queue has lanes:
/// periods, watchdog intervals, service times.
const RECURRING_NS: [u64; 12] = [
    2_000,
    50_000,
    1_000_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    75_000_000,
    100_000_000,
    125_000_000,
    200_000_000,
    400_000_000,
];

fn draw_delay(g: &mut Gen) -> TimeDelta {
    match g.usize_in(0, 10) {
        0..=5 => TimeDelta::from_nanos(RECURRING_NS[g.usize_in(0, RECURRING_NS.len())]),
        6 => TimeDelta::ZERO,
        _ => TimeDelta::from_nanos(g.u64_in(0, 5_000_000)),
    }
}

/// The reference: one binary heap of `(time, sequence)`, where the
/// sequence is also the payload.
type Reference = BinaryHeap<Reverse<(Time, u64)>>;

fn pop_due(reference: &mut Reference, deadline: Time) -> Option<(Time, u64)> {
    match reference.peek() {
        Some(Reverse((t, _))) if *t <= deadline => reference.pop().map(|Reverse(pair)| pair),
        _ => None,
    }
}

#[test]
fn queue_pops_match_a_binary_heap_reference() {
    run_cases("event_queue_matches_heap", 300, |g| {
        let mut queue = EventQueue::new();
        let mut reference = Reference::new();
        let mut seq = 0u64;
        let mut push = |queue: &mut EventQueue<u64>, reference: &mut Reference, at: Time| {
            queue.push(at, seq);
            reference.push(Reverse((at, seq)));
            seq += 1;
        };
        // The instant of the last pop, and the instant pushes are made
        // from, which a `run_until` deadline can move past it.
        let mut last = Time::ZERO;
        let mut clock = Time::ZERO;
        for _ in 0..g.usize_in(50, 800) {
            match g.usize_in(0, 12) {
                0..=4 => {
                    let at = clock + draw_delay(g);
                    let burst = if g.chance(0.2) { g.usize_in(2, 6) } else { 1 };
                    for _ in 0..burst {
                        push(&mut queue, &mut reference, at);
                    }
                }
                5 => {
                    let back = g.u64_in(0, 2_000_000).min(last.as_nanos());
                    push(
                        &mut queue,
                        &mut reference,
                        last - TimeDelta::from_nanos(back),
                    );
                }
                6 => clock += TimeDelta::from_nanos(g.u64_in(1, 3_000_000)),
                7 | 8 => {
                    let deadline = clock + TimeDelta::from_nanos(g.u64_in(0, 20_000_000));
                    let got = queue.pop_due(deadline);
                    assert_eq!(got, pop_due(&mut reference, deadline));
                    if let Some((t, _)) = got {
                        last = t;
                        clock = clock.max(t);
                    }
                }
                _ => {
                    let got = queue.pop();
                    assert_eq!(got, pop_due(&mut reference, Time::MAX));
                    if let Some((t, _)) = got {
                        last = t;
                        clock = clock.max(t);
                    }
                }
            }
            assert_eq!(queue.len(), reference.len());
        }
        while let Some(want) = pop_due(&mut reference, Time::MAX) {
            assert_eq!(queue.pop(), Some(want));
        }
        assert!(queue.is_empty());
        assert_eq!(queue.pop(), None);
    });
}

/// Records every dispatch; an event whose payload is a multiple of three
/// re-arms with a recurring delay picked by that payload, so timers
/// scheduled from inside handlers mix with pushes from outside.
#[derive(Default)]
struct Recorder {
    seen: Vec<(Time, u64)>,
    next: u64,
}

fn rearm_delay(payload: u64) -> Option<TimeDelta> {
    payload
        .is_multiple_of(3)
        .then(|| TimeDelta::from_nanos(RECURRING_NS[(payload as usize / 3) % RECURRING_NS.len()]))
}

impl World for Recorder {
    type Event = u64;

    fn handle(&mut self, ctx: &mut Context<'_, u64>, payload: u64) {
        self.seen.push((ctx.now(), payload));
        if let Some(delay) = rearm_delay(payload) {
            ctx.schedule_in(delay, self.next);
            self.next += 1;
        }
    }
}

/// Plays the reference forward to `deadline` as the engine would,
/// re-arming the same events with the same sequence numbers.
fn reference_run(
    reference: &mut Reference,
    next: &mut u64,
    deadline: Time,
    limit: usize,
) -> Vec<(Time, u64)> {
    let mut out = Vec::new();
    while out.len() < limit {
        let Some((t, payload)) = pop_due(reference, deadline) else {
            break;
        };
        out.push((t, payload));
        if let Some(delay) = rearm_delay(payload) {
            reference.push(Reverse((t + delay, *next)));
            *next += 1;
        }
    }
    out
}

#[test]
fn simulation_dispatch_matches_a_binary_heap_reference() {
    run_cases("simulation_dispatch_matches_heap", 100, |g| {
        let mut sim = Simulation::new(Recorder::default(), g.any_u64());
        let mut reference = Reference::new();
        let mut next = 0u64;
        for _ in 0..g.usize_in(20, 300) {
            let before = sim.world().seen.len();
            let want = match g.usize_in(0, 5) {
                0..=2 => {
                    // Pushes from outside land after the clock `run_until`
                    // left, not the last dispatched event.
                    let delay = draw_delay(g);
                    let payload = sim.world().next;
                    sim.world_mut().next += 1;
                    sim.schedule_in(delay, payload);
                    reference.push(Reverse((sim.now() + delay, payload)));
                    next += 1;
                    Vec::new()
                }
                3 => {
                    let deadline = sim.now() + TimeDelta::from_nanos(g.u64_in(0, 30_000_000));
                    sim.run_until(deadline);
                    assert_eq!(sim.now(), deadline);
                    reference_run(&mut reference, &mut next, deadline, usize::MAX)
                }
                _ => {
                    let stepped = sim.step();
                    let want = reference_run(&mut reference, &mut next, Time::MAX, 1);
                    assert_eq!(stepped, !want.is_empty());
                    want
                }
            };
            assert_eq!(sim.world().seen[before..], want[..]);
            assert_eq!(sim.world().next, next);
        }
    });
}

#[derive(Debug)]
enum Cue {
    Tick(u32),
    Stop,
}

#[derive(Default)]
struct Ticks {
    seen: Vec<(Time, u32)>,
}

impl World for Ticks {
    type Event = Cue;

    fn handle(&mut self, ctx: &mut Context<'_, Cue>, cue: Cue) {
        match cue {
            Cue::Tick(n) => self.seen.push((ctx.now(), n)),
            Cue::Stop => ctx.stop(),
        }
    }
}

#[test]
fn run_until_dispatches_the_deadline_instant_and_honours_stop() {
    let ms = Time::from_millis;
    let mut sim = Simulation::new(Ticks::default(), 0);
    sim.schedule_at(ms(5), Cue::Tick(1));
    sim.schedule_at(ms(10), Cue::Tick(2));
    sim.schedule_at(ms(10), Cue::Tick(3));
    sim.schedule_at(ms(11), Cue::Tick(4));

    // Events at exactly the deadline run; the later one stays pending.
    sim.run_until(ms(10));
    assert_eq!(sim.world().seen, vec![(ms(5), 1), (ms(10), 2), (ms(10), 3)]);
    assert_eq!(sim.now(), ms(10));
    assert_eq!(sim.events_handled(), 3);

    // A stop mid-run halts before the next event, even one at the same
    // instant, and leaves the clock at the stop.
    sim.schedule_at(ms(12), Cue::Stop);
    sim.schedule_at(ms(12), Cue::Tick(5));
    sim.schedule_at(ms(13), Cue::Tick(6));
    sim.run_until(ms(20));
    assert!(sim.is_stopped());
    assert_eq!(sim.world().seen.last(), Some(&(ms(11), 4)));
    assert_eq!(sim.now(), ms(12));
    assert_eq!(sim.events_handled(), 5);
    assert!(!sim.step());
    sim.run_until(ms(30));
    assert_eq!(sim.now(), ms(12));
    assert_eq!(sim.events_handled(), 5);
}
