//! # wdoc-dist — course distribution for the Web document database
//!
//! Implements §4 of the paper over the [`netsim`] simulator:
//!
//! * the **m-ary broadcast tree** and the paper's child/parent position
//!   formulas — [`tree`];
//! * **pre-broadcast** of course material by store-and-forward relay,
//!   plus the unicast-star baseline — [`broadcast()`];
//! * **demand duplication with a watermark frequency**: remote accesses
//!   fetch pages until the access count crosses the watermark, then the
//!   full document is copied — [`demand`];
//! * **instance → reference migration** after a lecture ends, so
//!   student stations use buffer space only — [`migrate`];
//! * the **adaptive fan-out controller** choosing m per population,
//!   bandwidth and media type — [`adaptive`];
//! * the **self-healing broadcast** — the same m-ary relay supervised
//!   by root-side ACK timers, with bounded retries, deterministic
//!   exponential backoff and formula-driven subtree re-parenting when
//!   stations crash or links fail mid-run — [`resilient`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod broadcast;
pub mod demand;
pub mod migrate;
pub mod resilient;
pub mod station;
pub mod tree;

pub use adaptive::{predict_completion, tree_height, AdaptiveController};
pub use broadcast::{
    broadcast, broadcast_course, broadcast_object, broadcast_par, broadcast_uniform, star_uniform,
    unicast_star, BroadcastReport, CourseBroadcastReport, CourseObject,
};
pub use demand::{AccessEvent, DemandReport, DemandSim, DocSpec};
pub use migrate::{LectureDoc, LectureSession, MigrationReport, MigrationSim};
pub use resilient::{repair_parent, resilient_broadcast, Packet, ResilientReport, RetryPolicy};
pub use station::{DiskSample, Replica, StationDocs};
pub use tree::{child_index, child_position, parent_position, BroadcastTree};
