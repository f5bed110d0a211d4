//! Deterministic discrete-event simulation kernel.
//!
//! The RTPB evaluation (paper §5) sweeps message-loss probabilities, window
//! sizes, and object counts across many runs. Doing that in wall-clock time
//! on real hosts would take hours and be non-reproducible; this crate
//! provides the substrate the experiments run on instead: a virtual clock,
//! a total-ordered event queue, and seeded randomness, so every run is
//! exactly replayable.
//!
//! # Architecture
//!
//! A simulation is a [`World`] (your state machine) plus a [`Simulation`]
//! engine. The world handles one event at a time; inside the handler it can
//! schedule future events, cancel pending ones, draw random numbers, and
//! emit typed observability events through the [`Context`]. Two events never execute
//! concurrently, and ties in time are broken by insertion order, so the
//! whole run is a deterministic function of (world, seed, initial events).
//!
//! # Examples
//!
//! A two-event ping-pong:
//!
//! ```
//! use rtpb_sim::{Context, Simulation, World};
//! use rtpb_types::{Time, TimeDelta};
//!
//! #[derive(Debug, PartialEq)]
//! enum Msg { Ping, Pong }
//!
//! struct PingPong { pongs: u32 }
//!
//! impl World for PingPong {
//!     type Event = Msg;
//!     fn handle(&mut self, ctx: &mut Context<'_, Msg>, event: Msg) {
//!         match event {
//!             Msg::Ping => { ctx.schedule_in(TimeDelta::from_millis(1), Msg::Pong); }
//!             Msg::Pong => { self.pongs += 1; }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(PingPong { pongs: 0 }, 42);
//! sim.schedule_at(Time::ZERO, Msg::Ping);
//! sim.run_until(Time::from_millis(10));
//! assert_eq!(sim.world().pongs, 1);
//! assert_eq!(sim.now(), Time::from_millis(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod engine;
mod event;
pub mod propcheck;
mod queue;
mod rng;
mod stats;

pub use clock::ClockModel;
pub use engine::{Context, Simulation, World};
pub use event::EventId;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::Summary;
