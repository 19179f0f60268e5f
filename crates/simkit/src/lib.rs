//! Deterministic discrete-event simulation kernel.
//!
//! `simkit` is the substrate every simulator crate in this workspace is
//! built on. It provides:
//!
//! - a nanosecond-resolution simulated clock ([`Nanos`]),
//! - a deterministic event queue and run loop ([`Scheduler`], [`run`]),
//! - seeded pseudo-random number generation and common distributions
//!   ([`rng`]),
//! - queueing primitives for modelling bandwidth-limited resources
//!   ([`server::TimelineServer`]),
//! - statistics collection ([`stats::Histogram`], [`stats::TimeWeighted`])
//!   and table formatting ([`table`]),
//! - a bounded flight recorder with per-stage latency attribution and
//!   Chrome/Perfetto trace export ([`trace`]),
//! - a simulated-time metrics registry and sampler with counter-track,
//!   CSV, and JSON exports ([`metrics`]).
//!
//! Determinism is a hard requirement: two runs with the same seed and the
//! same event schedule must produce bit-identical results. The event queue
//! breaks timestamp ties by insertion sequence number, and the PRNG is
//! implemented in-crate (SplitMix64 / xoshiro256++) so results do not
//! depend on external crate version churn.
//!
//! # Examples
//!
//! ```
//! use simkit::{Nanos, Scheduler, World, run};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: Nanos, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             sched.schedule(now + Nanos(100), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut world = Counter { fired: 0 };
//! let mut sched = Scheduler::new();
//! sched.schedule(Nanos(0), Ev::Tick);
//! let end = run(&mut world, &mut sched, Nanos::MAX);
//! assert_eq!(world.fired, 3);
//! assert_eq!(end, Nanos(200));
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod hash;
pub mod metrics;
pub mod rng;
pub mod server;
pub mod stats;
pub mod table;
pub mod time;
pub mod trace;

mod sched;

pub use sched::{run, Scheduler, World};
pub use time::Nanos;
