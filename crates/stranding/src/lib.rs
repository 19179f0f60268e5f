//! Resource stranding and pooling analysis (§2 of the paper).
//!
//! Reproduces the paper's motivation numbers without access to Azure
//! production data:
//!
//! - **Figure 2** — percentages of stranded CPU cores, memory, SSD
//!   capacity, and NIC bandwidth. [`packing`] packs an Azure-like VM
//!   mix ([`vm`]) onto hosts until the fleet is full; whatever cannot
//!   be used once one dimension fills is *stranded*. The VM catalog is
//!   calibrated so unpooled stranding lands near the paper's headline
//!   54 % (SSD) and 29 % (NIC).
//! - **§2.1 pooling claim** — pooling SSD/NIC across N hosts cuts
//!   stranding roughly by √N (54 % → 19 %, 29 % → 10 % at N = 8).
//!   [`pooling`] re-packs the same VM stream with pod-level SSD/NIC
//!   capacity; [`erlang`] provides the analytic square-root-staffing
//!   counterpart; the correlation knob shows when pooling stops
//!   helping (the paper's caveat about colocated correlated demand).

pub mod churn;
pub mod cost;
pub mod erlang;
pub mod packing;
pub mod pooling;
pub mod vm;

pub use packing::{pack_fleet, FleetStats, HostShape};
pub use pooling::{sweep_pool_sizes, PoolSweepRow};
pub use vm::VmCatalog;
