//! The simulation engine: virtual clock + event dispatch loop.

use crate::queue::EventQueue;
use crate::rng::SimRng;
use rtpb_obs::{ClockDomain, EventKind, EventWriter};
use rtpb_types::{Time, TimeDelta};

/// A simulated system: state plus an event handler.
///
/// Implementations receive events one at a time, in `(time, scheduling
/// order)` order, and may schedule further events through the
/// [`Context`]. See the [crate docs](crate) for a complete example.
pub trait World {
    /// The event type this world exchanges with the engine.
    type Event;

    /// Handles one event at the context's current time.
    fn handle(&mut self, ctx: &mut Context<'_, Self::Event>, event: Self::Event);
}

/// The engine-side capabilities available to a [`World`] while it handles
/// an event: the clock, event scheduling, randomness, and
/// structured-event emission.
#[derive(Debug)]
pub struct Context<'a, E> {
    now: Time,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut SimRng,
    observer: &'a EventWriter,
    stop_requested: &'a mut bool,
}

impl<E> Context<'_, E> {
    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`Context::now`]: scheduling into the
    /// past would break causality.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Schedules `event` after a delay of `delta`.
    pub fn schedule_in(&mut self, delta: TimeDelta, event: E) {
        self.queue.push(self.now + delta, event);
    }

    /// How many events were ever scheduled, by anyone: compare two
    /// readings to tell whether anything was scheduled in between.
    #[must_use]
    pub fn scheduled(&self) -> u64 {
        self.queue.pushed()
    }

    /// The simulation's random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Emits a structured observability event at the current virtual time.
    ///
    /// A no-op (one branch, no allocation) when the simulation was built
    /// without an observer, so instrumented and uninstrumented runs stay
    /// bit-identical.
    pub fn emit(&self, kind: EventKind) {
        self.observer.emit(ClockDomain::Virtual, self.now, kind);
    }

    /// The structured-event writer, for handing to sub-components (e.g.
    /// network links) that emit their own events.
    #[must_use]
    pub fn observer(&self) -> &EventWriter {
        self.observer
    }

    /// Requests that the run loop stop after this event.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// The discrete-event simulation engine.
///
/// Owns the virtual clock, the event queue, the random source, and the
/// [`World`] under simulation. See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    rng: SimRng,
    observer: EventWriter,
    now: Time,
    stop_requested: bool,
    events_handled: u64,
}

impl<W: World> Simulation<W> {
    /// Creates an engine around `world`, with randomness seeded by `seed`.
    pub fn new(world: W, seed: u64) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            rng: SimRng::seed_from(seed),
            observer: EventWriter::disabled(),
            now: Time::ZERO,
            stop_requested: false,
            events_handled: 0,
        }
    }

    /// Attaches a structured-event writer; events emitted through
    /// [`Context::emit`] and [`Simulation::emit`] land on its bus stamped
    /// with the virtual clock.
    #[must_use]
    pub fn with_observer(mut self, writer: EventWriter) -> Self {
        self.observer = writer;
        self
    }

    /// Emits a structured observability event at the current virtual time,
    /// from outside the event loop (e.g. setup-phase admission decisions).
    pub fn emit(&self, kind: EventKind) {
        self.observer.emit(ClockDomain::Virtual, self.now, kind);
    }

    /// The structured-event writer attached to this simulation.
    #[must_use]
    pub fn observer(&self) -> &EventWriter {
        &self.observer
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Shared access to the world.
    #[must_use]
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (e.g. to inject configuration between
    /// run segments).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Total events dispatched so far.
    #[must_use]
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Schedules an event from outside the world (initial stimulus).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at(&mut self, at: Time, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Schedules an event `delta` after the current time.
    pub fn schedule_in(&mut self, delta: TimeDelta, event: W::Event) {
        self.queue.push(self.now + delta, event);
    }

    /// Runs `f` on the world with an event context at the current
    /// instant, from outside the event loop: what `f` schedules and emits
    /// lands exactly as if an event handler had done it now.
    pub fn with_context<R>(
        &mut self,
        f: impl FnOnce(&mut W, &mut Context<'_, W::Event>) -> R,
    ) -> R {
        let mut ctx = Context {
            now: self.now,
            queue: &mut self.queue,
            rng: &mut self.rng,
            observer: &self.observer,
            stop_requested: &mut self.stop_requested,
        };
        f(&mut self.world, &mut ctx)
    }

    /// Dispatches the next event, if any, advancing the clock to it.
    ///
    /// Returns `false` if the queue was empty or a stop was requested.
    pub fn step(&mut self) -> bool {
        self.dispatch_due(Time::MAX)
    }

    /// Dispatches the next event if it is due at or before `deadline`,
    /// advancing the clock to it: one queue scan per dispatched event.
    ///
    /// Returns `false` if no event was due or a stop was requested.
    fn dispatch_due(&mut self, deadline: Time) -> bool {
        if self.stop_requested {
            return false;
        }
        let Some((time, event)) = self.queue.pop_due(deadline) else {
            return false;
        };
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.events_handled += 1;
        let mut ctx = Context {
            now: self.now,
            queue: &mut self.queue,
            rng: &mut self.rng,
            observer: &self.observer,
            stop_requested: &mut self.stop_requested,
        };
        self.world.handle(&mut ctx, event);
        true
    }

    /// Runs until the queue is exhausted, a stop is requested, or the clock
    /// would pass `deadline`; then sets the clock to `deadline` (if it was
    /// reached) and returns.
    ///
    /// Events scheduled exactly at `deadline` are dispatched.
    pub fn run_until(&mut self, deadline: Time) {
        while self.dispatch_due(deadline) {}
        if !self.stop_requested && self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `span` of virtual time from the current clock.
    pub fn run_for(&mut self, span: TimeDelta) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Runs until the queue is exhausted or a stop is requested.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Whether [`Context::stop`] was called.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.stop_requested
    }

    /// Consumes the engine and returns the world.
    #[must_use]
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    enum Ev {
        Tick,
        Chain(u32),
        Stop,
    }

    #[derive(Default)]
    struct Counter {
        ticks: u32,
        chain_depth: u32,
        times: Vec<Time>,
    }

    impl World for Counter {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
            self.times.push(ctx.now());
            match event {
                Ev::Tick => self.ticks += 1,
                Ev::Chain(n) => {
                    self.chain_depth = self.chain_depth.max(n);
                    if n > 0 {
                        ctx.schedule_in(TimeDelta::from_millis(1), Ev::Chain(n - 1));
                    }
                }
                Ev::Stop => ctx.stop(),
            }
        }
    }

    #[test]
    fn clock_advances_to_event_times() {
        let mut sim = Simulation::new(Counter::default(), 0);
        sim.schedule_at(Time::from_millis(5), Ev::Tick);
        sim.schedule_at(Time::from_millis(2), Ev::Tick);
        sim.run_to_completion();
        assert_eq!(sim.world().ticks, 2);
        assert_eq!(
            sim.world().times,
            vec![Time::from_millis(2), Time::from_millis(5)]
        );
        assert_eq!(sim.now(), Time::from_millis(5));
        assert_eq!(sim.events_handled(), 2);
    }

    #[test]
    fn chained_events_cascade() {
        let mut sim = Simulation::new(Counter::default(), 0);
        sim.schedule_at(Time::ZERO, Ev::Chain(5));
        sim.run_to_completion();
        assert_eq!(sim.now(), Time::from_millis(5));
        assert_eq!(sim.world().chain_depth, 5);
        assert_eq!(sim.events_handled(), 6);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Simulation::new(Counter::default(), 0);
        sim.schedule_at(Time::from_millis(1), Ev::Tick);
        sim.schedule_at(Time::from_millis(10), Ev::Tick);
        sim.run_until(Time::from_millis(4));
        assert_eq!(sim.world().ticks, 1);
        assert_eq!(sim.now(), Time::from_millis(4));
        // The future event is still pending.
        sim.run_until(Time::from_millis(10));
        assert_eq!(sim.world().ticks, 2);
    }

    #[test]
    fn run_until_includes_deadline_events() {
        let mut sim = Simulation::new(Counter::default(), 0);
        sim.schedule_at(Time::from_millis(4), Ev::Tick);
        sim.run_until(Time::from_millis(4));
        assert_eq!(sim.world().ticks, 1);
    }

    #[test]
    fn stop_halts_the_loop() {
        let mut sim = Simulation::new(Counter::default(), 0);
        sim.schedule_at(Time::from_millis(1), Ev::Stop);
        sim.schedule_at(Time::from_millis(2), Ev::Tick);
        sim.run_to_completion();
        assert!(sim.is_stopped());
        assert_eq!(sim.world().ticks, 0);
        assert_eq!(sim.now(), Time::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulation::new(Counter::default(), 0);
        sim.schedule_at(Time::from_millis(5), Ev::Tick);
        sim.run_to_completion();
        sim.schedule_at(Time::from_millis(1), Ev::Tick);
    }

    #[test]
    fn run_for_is_relative() {
        let mut sim = Simulation::new(Counter::default(), 0);
        sim.schedule_at(Time::from_millis(3), Ev::Tick);
        sim.run_for(TimeDelta::from_millis(2));
        assert_eq!(sim.world().ticks, 0);
        assert_eq!(sim.now(), Time::from_millis(2));
        sim.run_for(TimeDelta::from_millis(2));
        assert_eq!(sim.world().ticks, 1);
        assert_eq!(sim.now(), Time::from_millis(4));
    }

    #[test]
    fn into_world_returns_final_state() {
        let mut sim = Simulation::new(Counter::default(), 0);
        sim.schedule_at(Time::ZERO, Ev::Tick);
        sim.run_to_completion();
        let world = sim.into_world();
        assert_eq!(world.ticks, 1);
    }

    #[test]
    fn observer_stamps_virtual_time() {
        use rtpb_obs::EventBus;
        use rtpb_types::NodeId;

        struct Beacon;
        impl World for Beacon {
            type Event = ();
            fn handle(&mut self, ctx: &mut Context<'_, ()>, (): ()) {
                ctx.emit(EventKind::HeartbeatSent {
                    from: NodeId::new(0),
                    to: NodeId::new(1),
                });
            }
        }

        let bus = EventBus::with_capacity(64);
        let mut sim = Simulation::new(Beacon, 0).with_observer(bus.writer());
        sim.schedule_at(Time::from_millis(3), ());
        sim.run_to_completion();
        sim.emit(EventKind::FaultDetected { record: 0 });

        let events = bus.collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, Time::from_millis(3));
        assert_eq!(events[0].clock, ClockDomain::Virtual);
        assert_eq!(events[1].at, Time::from_millis(3));
    }

    #[test]
    fn disabled_observer_is_inert() {
        let mut sim = Simulation::new(Counter::default(), 0);
        sim.schedule_at(Time::ZERO, Ev::Tick);
        sim.run_to_completion();
        sim.emit(EventKind::FaultDetected { record: 0 });
        assert!(!sim.observer().is_enabled());
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        struct Rand {
            draws: Vec<u64>,
        }
        impl World for Rand {
            type Event = ();
            fn handle(&mut self, ctx: &mut Context<'_, ()>, (): ()) {
                let d = ctx
                    .rng()
                    .delay_between(TimeDelta::ZERO, TimeDelta::from_millis(10));
                self.draws.push(d.as_nanos());
                if self.draws.len() < 50 {
                    ctx.schedule_in(TimeDelta::from_millis(1), ());
                }
            }
        }
        let run = |seed| {
            let mut sim = Simulation::new(Rand { draws: vec![] }, seed);
            sim.schedule_at(Time::ZERO, ());
            sim.run_to_completion();
            sim.into_world().draws
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
