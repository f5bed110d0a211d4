//! The simulated network: a lossy, bounded-delay link model.
//!
//! The paper's prototype composes RTPB, its *anchor protocol*, above UDP
//! in an x-kernel protocol graph (paper §4.1). In this repository the
//! anchor protocol is the `WireMessage` codec in `rtpb-core`, whose frames
//! carry their own CRC32C trailer, and the simulator hands those encoded
//! bytes straight to the link. This crate holds:
//!
//! - [`LossyLink`]: the network model — Bernoulli loss, uniformly
//!   distributed delay bounded by `ℓ` (the communication-delay bound all
//!   of the paper's backup-consistency results assume), duplication,
//!   reordering, corruption, and time-windowed faults.
//! - [`Message`], [`Protocol`], [`ProtocolGraph`] and [`UdpLike`]: the
//!   x-kernel-style header stack with a UDP-like datagram layer. No
//!   simulated frame passes through it; it is kept only because the
//!   benchmark's stage replay still times it.
//!
//! # Examples
//!
//! ```
//! use rtpb_net::{FaultKind, FaultWindow, LinkConfig, LossyLink};
//! use rtpb_types::Time;
//!
//! let mut link = LossyLink::new(LinkConfig::default(), 7);
//! // A partition of this direction between 100 ms and 200 ms.
//! link.push_window(FaultWindow {
//!     from: Time::from_millis(100),
//!     until: Time::from_millis(200),
//!     kind: FaultKind::Outage,
//! });
//! assert!(link.transmit(Time::from_millis(150), 512).is_lost());
//! let arrival = link.transmit(Time::from_millis(250), 512).arrival();
//! assert!(arrival.expect("the default link never loses") > Time::from_millis(250));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod link;
mod message;
mod protocol;
mod udp;

pub use bytes::Bytes;
pub use link::{FaultKind, FaultWindow, LinkConfig, LinkOutcome, LossyLink};
pub use message::Message;
pub use protocol::{Protocol, ProtocolError, ProtocolGraph, ProtocolGraphBuilder};
pub use udp::UdpLike;
