//! Software-coherent shared-memory structures on non-coherent CXL pools.
//!
//! The paper's key datapath building block (§4.1) is a sub-microsecond
//! host-to-host message channel living in shared CXL memory: a ring
//! buffer of 64 B cache-line slots, written with non-temporal stores so
//! data is visible across hosts without hardware coherence, and polled
//! by the receiver with invalidate-then-load so reads are fresh.
//!
//! This crate implements that channel twice:
//!
//! - [`ring`], [`channel`]: over the simulated [`cxl_fabric::Fabric`],
//!   with full timing — this is what the Figure 4 reproduction and the
//!   MMIO-forwarding datapath use. Every message is one slot; the
//!   channel's sender adds a FIFO queue for what a full ring cannot
//!   take yet.
//! - [`real`]: over actual process memory with atomics, byte-identical
//!   protocol, runnable across real threads — this is how we prove the
//!   protocol has no ordering bugs that the (deterministic, sequential)
//!   simulator could hide.
//!
//! # Examples
//!
//! ```
//! use cxl_fabric::{Fabric, PodConfig, HostId};
//! use shmem::ring::{RingBuf, SendOutcome, PollOutcome};
//! use simkit::Nanos;
//!
//! let mut fabric = Fabric::new(PodConfig::new(2, 2, 2));
//! let ring = RingBuf::allocate(&mut fabric, HostId(0), HostId(1), 16).unwrap();
//! let (mut tx, mut rx) = ring.split();
//!
//! let t = match tx.send(&mut fabric, Nanos(0), b"hello").unwrap() {
//!     SendOutcome::Sent(t) => t,
//!     SendOutcome::Full(_) => unreachable!(),
//! };
//! match rx.poll(&mut fabric, t).unwrap() {
//!     PollOutcome::Msg { data, .. } => assert_eq!(data, b"hello"),
//!     PollOutcome::Empty(_) => unreachable!(),
//! }
//! ```

pub mod channel;
pub mod pingpong;
pub mod real;
pub mod ring;

pub use channel::{Channel, ChannelSend, ChannelSender, ChannelStats};
pub use ring::{IdlePoll, PollOutcome, RingBuf, RingReceiver, RingSender, SendOutcome};
