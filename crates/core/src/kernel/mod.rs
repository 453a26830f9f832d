//! The multipole accumulation kernel (paper §3.3).
//!
//! Structure mirrors the paper exactly:
//!
//! * **Pre-binning** ([`buckets`]): pairs are collected per radial bin
//!   into fixed-capacity buckets (default 128) so that each kernel
//!   invocation touches a single bin's accumulators — "this approach
//!   enables the use of effective vectorization over galaxy pairs, and
//!   also yields efficient cache reuse" (§3.3.1).
//! * **Vectorized accumulation** ([`simd`]): monomials are built by the
//!   2-FLOP parent/axis schedule over 8-wide lanes, accumulating into a
//!   per-monomial 8-element array whose horizontal reduction is deferred
//!   to the end of the primary — "replacing N/8 vector reductions with
//!   only 1 vector reduction for each of the 286 elements" (§3.3.2) —
//!   with 4 independent batches in flight for instruction-level
//!   parallelism.
//! * **Scalar reference** ([`scalar`]): the same arithmetic one lane
//!   wide; tests require bit-level-close agreement, and the
//!   vectorization ablation benchmarks the two against each other.
//! * **Selection** ([`backend`]): [`BackendKind`] names the two
//!   implementations and [`KernelAccumulator::new`] builds a worker's
//!   state for one; the engine resolves its
//!   [`EngineConfig`](crate::config::EngineConfig) choice once, to the
//!   SIMD kernel on vector targets unless a test or benchmark pins the
//!   scalar reference.
//!
//! [`testutil`] carries the deterministic input generators and
//! against-scalar checkers shared by every backend's tests and the
//! `perf_baseline` benchmark harness.

pub mod accumulator;
pub mod backend;
pub mod buckets;
pub mod scalar;
pub mod simd;
pub mod testutil;

pub use accumulator::KernelAccumulator;
pub use backend::{detect, BackendChoice, BackendKind};
pub use buckets::PairBuckets;
