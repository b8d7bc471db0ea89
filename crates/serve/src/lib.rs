//! PIM-as-a-service: a multi-tenant serving layer over one
//! [`pinatubo_runtime::PimSystem`].
//!
//! The paper's pitch is bulk bitwise throughput from inside the NVM
//! arrays; a production deployment serves that throughput to many
//! concurrent clients over one shared memory. This crate is that front
//! end for the simulator:
//!
//! * [`PimServer`] — tenant registry and setup: per-tenant row quotas
//!   enforced through the allocator, and home-channel placement: a
//!   tenant's first placement picks the least-worn channel, and all its
//!   `ChannelRotate` groups and compiler scratch land there, so its ops
//!   run in memory rather than over the DDR bus.
//! * [`ServeSession`] — the serving phase: bounded per-channel admission
//!   queues (a full queue pushes back on the submitting tenant), a
//!   deterministic deficit weighted round-robin scheduler multiplexing
//!   admitted batches onto the [`pinatubo_runtime::ExecSession`] worker
//!   pool, and per-tenant ledgers with p50/p99/max batch latency.
//! * [`workload`] — the mixed tenant streams (database filters, BFS
//!   frontier steps, bit-serial integer kernels) plus
//!   [`workload::replay_serial`], which re-executes a served run one
//!   batch at a time so harnesses can pin bit/stats/ledger parity.
//!
//! Every scheduling decision is a pure function of the submission
//! sequence — never of wall-clock or worker count — so a served run is
//! reproducible and its parity against serial execution is exact.
//!
//! # Example
//!
//! ```
//! use pinatubo_runtime::{MappingPolicy, PimSystem};
//! use pinatubo_serve::{PimServer, ServeConfig, TenantConfig};
//! use pinatubo_core::BitwiseOp;
//! use pinatubo_runtime::scheduler::BatchRequest;
//!
//! # fn main() -> Result<(), pinatubo_serve::ServeError> {
//! let sys = PimSystem::pcm_default(MappingPolicy::ChannelRotate);
//! let mut server = PimServer::new(sys, ServeConfig::default());
//! let t = server.register(TenantConfig {
//!     name: "tenant-a".into(),
//!     weight: 1,
//!     row_quota: 16,
//! });
//! let group = server.alloc_group(t, 3, 4096)?;
//! server.store(&group[0], &vec![true; 4096])?;
//! let mut session = server.open();
//! session.submit(
//!     t,
//!     vec![BatchRequest {
//!         op: BitwiseOp::Or,
//!         operands: vec![group[0].clone(), group[1].clone()],
//!         dst: group[2].clone(),
//!     }],
//! )?;
//! let report = session.finish()?;
//! assert_eq!(report.tenants[0].batches_completed, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod server;
pub mod stats;
pub mod workload;

pub use server::{PimServer, ServeConfig, ServeError, ServeSession, TenantConfig, TenantId};
pub use stats::{DispatchRecord, LatencyStats, ServeReport, StoreRecord, TenantReport};
pub use workload::{TenantKind, TenantSpec, TenantStream};
