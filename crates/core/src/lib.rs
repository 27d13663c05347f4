//! # spread-core
//!
//! **The paper's contribution**: the `target spread` directive set — an
//! OpenMP extension for multi-device programming that distributes data
//! and/or workload across accelerators without explicit per-device code
//! (Torres, Ferrer, Teruel; IPPS 2022).
//!
//! The directives add a *multi-device* level of parallelism above the
//! existing offloading model:
//!
//! 1. multiple **devices** — `target spread` (this crate)
//! 2. multiple teams — `teams distribute`
//! 3. multiple threads — `parallel for`
//! 4. multiple vector lanes — `simd`
//!
//! | Pragma (paper) | Builder |
//! |---|---|
//! | `#pragma omp target spread devices(…) spread_schedule(static, c) map(…) nowait depend(…)` | [`TargetSpread`] |
//! | `… target spread teams distribute parallel for num_teams(…)` | [`TargetSpread::num_teams`] + [`TargetSpread::parallel_for`] |
//! | `#pragma omp target data spread devices(…) range(…) chunk_size(…)` | [`TargetDataSpread`] |
//! | `#pragma omp target enter data spread …` | [`TargetEnterDataSpread`] |
//! | `#pragma omp target exit data spread …` | [`TargetExitDataSpread`] |
//! | `#pragma omp target update spread …` | [`TargetUpdateSpread`] |
//!
//! The `omp_spread_start` / `omp_spread_size` placeholders become a
//! [`ChunkCtx`] passed to the section-expression closures of `map`,
//! `depend`, `to` and `from` clauses — halos are plain arithmetic on it,
//! exactly as in the paper's Listing 3.
//!
//! Extensions implemented from the paper's future-work section (§IX):
//! `depend` on the data-spread directives (Listing 13), a `dynamic`
//! spread schedule, weighted static chunking, and a cross-device
//! reduction helper. Beyond §IX, robustness extensions:
//! [`SpreadClausesExt::with_resilience`] ([`ResiliencePolicy`]) rebuilds
//! a permanently lost device's chunks on the surviving devices,
//! [`SpreadClausesExt::with_pressure`] ([`PressurePolicy`]) degrades
//! gracefully under device memory pressure — capacity-aware admission,
//! adaptive chunk splitting, and host spill (see [`pressure`]) — and
//! [`SpreadClausesExt::with_integrity`] ([`IntegrityMode`]) digests
//! device payloads end to end, catching silent corruption at the
//! staged-commit and peer-receive trust boundaries and (under `heal`)
//! re-executing tainted pieces from the unharmed host image (see
//! [`integrity`]).
//!
//! # Example
//!
//! The paper's Listing 3/4 — a halo stencil spread over three devices:
//!
//! ```
//! use spread_core::prelude::*;
//! use spread_rt::prelude::*;
//! use spread_rt::kernel::KernelArg;
//! use spread_devices::Topology;
//!
//! let mut rt = Runtime::new(RuntimeConfig::new(Topology::ctepower(3)));
//! let n = 14;
//! let a = rt.host_array("A", n);
//! let b = rt.host_array("B", n);
//! rt.fill_host(a, |i| i as f64);
//!
//! rt.run(|s| {
//!     TargetSpread::devices([2, 0, 1])
//!         .with_schedule(SpreadSchedule::static_chunk(4))
//!         .map(spread_to(a, |c| c.start() - 1..c.end() + 1))
//!         .map(spread_from(b, |c| c.range()))
//!         .parallel_for(s, 1..n - 1, KernelSpec::new("stencil", 2.0, |chunk, v| {
//!             for i in chunk {
//!                 v.set(1, i, v.get(0, i - 1) + v.get(0, i) + v.get(0, i + 1));
//!             }
//!         })
//!         .arg(KernelArg::read(a, |r| r.start - 1..r.end + 1))
//!         .arg(KernelArg::write(b, |r| r)))?;
//!     Ok(())
//! })
//! .unwrap();
//! assert_eq!(rt.snapshot_host(b)[5], 4.0 + 5.0 + 6.0);
//! ```

#![warn(missing_docs)]

pub mod chunk;
pub mod clauses;
pub mod data_spread;
pub mod integrity;
pub mod pressure;
pub mod reduction;
pub mod resilience;
pub mod schedule;
pub mod spread_map;
pub mod straggler;
pub mod target_spread;
#[doc(hidden)]
pub mod testing;

pub use chunk::ChunkCtx;
pub use clauses::{ClauseSet, OverlapPolicy, SpreadClausesExt};
pub use data_spread::{
    SpreadClauses, TargetDataSpread, TargetEnterDataSpread, TargetExitDataSpread,
    TargetUpdateSpread,
};
pub use pressure::{
    degradation_events, plan_admission, spec_admission, Placement, PlannedPiece, PressurePolicy,
};
pub use reduction::ReduceOp;
pub use resilience::ResiliencePolicy;
pub use schedule::{distribute, Chunk, SpreadSchedule};
pub use spread_map::{spread_alloc, spread_from, spread_to, spread_tofrom, SectionOf, SpreadMap};
pub use spread_rt::{ExchangeMode, IntegrityMode};
pub use straggler::StragglerPolicy;
pub use target_spread::TargetSpread;

/// Convenience re-exports for writing spread programs.
pub mod prelude {
    pub use crate::chunk::ChunkCtx;
    pub use crate::clauses::{ClauseSet, OverlapPolicy, SpreadClausesExt};
    pub use crate::data_spread::{
        SpreadClauses, TargetDataSpread, TargetEnterDataSpread, TargetExitDataSpread,
        TargetUpdateSpread,
    };
    pub use crate::pressure::PressurePolicy;
    pub use crate::reduction::ReduceOp;
    pub use crate::resilience::ResiliencePolicy;
    pub use crate::schedule::SpreadSchedule;
    pub use crate::spread_map::{spread_alloc, spread_from, spread_to, spread_tofrom};
    pub use crate::straggler::StragglerPolicy;
    pub use crate::target_spread::TargetSpread;
    pub use spread_rt::{ExchangeMode, IntegrityMode};
}
