//! # netsim — deterministic discrete-event network simulator
//!
//! The substrate standing in for the paper's physical 1999 network of
//! instructor and student workstations. The distribution-layer claims of
//! the paper (m-ary pre-broadcast efficiency, adaptive fan-out,
//! watermark-driven duplication) are all statements about *transfer
//! volume and completion time as functions of fan-out, bandwidth and
//! object size*; this simulator captures exactly those quantities with
//! byte-accurate accounting, and nothing it does depends on wall-clock
//! time or thread scheduling — a run is a pure function of its inputs.
//!
//! ## One core, three views
//!
//! The transfer model (documented on [`sim`]) is implemented once, in a
//! crate-private *island*: a set of stations with their own event
//! queue, clock, fault state and traffic totals. The public types are
//! views of that core which differ only in where a sent message is
//! enqueued:
//!
//! * [`Network`] — one island and a metrics registry: the sequential
//!   engine;
//! * [`ParNet`] — many islands, run on worker threads in conservative
//!   lookahead windows ([`parallel`]), byte-identical to `Network`;
//! * [`IslandCtx`] — what a `ParNet` handler holds: one island for the
//!   duration of a window.
//!
//! All three implement [`NetCtx`], so a delivery handler is written
//! once and runs on either engine.
//!
//! ## Example: a two-hop relay, one handler, both engines
//!
//! ```
//! use netsim::{LinkSpec, Message, NetCtx, Network, ParNet, SimTime, StationId};
//!
//! fn relay<C: NetCtx<&'static str>>(net: &mut C, got: &mut Vec<StationId>, msg: Message<&'static str>) {
//!     got.push(msg.dst);
//!     if msg.dst == StationId(1) {
//!         net.send(msg.dst, StationId(2), msg.bytes, msg.payload);
//!     }
//! }
//!
//! let link = LinkSpec::new(1_000_000, SimTime::from_millis(1));
//!
//! let (mut net, ids) = Network::uniform(3, link);
//! net.send(ids[0], ids[1], 500_000, "lecture");
//! let mut got = Vec::new();
//! net.run(|net, msg| relay(net, &mut got, msg));
//! assert_eq!(got, vec![StationId(1), StationId(2)]);
//! assert_eq!(net.now(), SimTime::from_millis(1_002)); // 2 × (0.5 s + 1 ms)
//!
//! let (mut par, ids) = ParNet::uniform(3, link, 3); // one island per station
//! par.send(ids[0], ids[1], 500_000, "lecture");
//! let per_island = par.run(2, vec![Vec::new(); 3], |ctx, got, msg| relay(ctx, got, msg));
//! assert_eq!(per_island.concat(), got);
//! assert_eq!(par.now(), net.now());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod event;
pub mod fault;
mod island;
pub mod parallel;
pub mod sim;
pub mod time;
pub mod topology;

pub use bytes::Bytes;
pub use event::EventQueue;
pub use fault::{Fault, FaultSchedule, SendError};
pub use parallel::{IslandCtx, ParNet};
pub use sim::{Message, NetCtx, Network};
pub use time::SimTime;
pub use topology::{LinkSpec, StationId, StationStats, Topology};
