//! The Galactos anisotropic 3PCF engine (the paper's core contribution).
//!
//! Implements the O(N²) algorithm of §3.1/Algorithm 1 with the
//! single-node optimizations of §3.3 and the distributed pipeline of
//! §3.2:
//!
//! * [`bins`] — radial binning of triangle side lengths;
//! * [`config`] — engine configuration (ℓmax, bins, line of sight,
//!   bucket size, precision, scheduling);
//! * [`result`] — the `ζ^m_{ℓℓ'}(r₁, r₂)` container, its isotropic
//!   compression, and merge/normalize operations;
//! * [`kernel`] — the bucketed multipole accumulation kernel behind a
//!   runtime-dispatched backend trait: per-bin pair buckets
//!   (pre-binning, §3.3.1), 8-lane deferred-reduction accumulators with
//!   4-way ILP (§3.3.2), cross-bucket tail batching, and a scalar
//!   reference path — selected per engine via config, environment, or
//!   hardware detection;
//! * [`engine`] — the staged per-primary pipeline (gather →
//!   bin/bucket → a_ℓm assembly → ζ accumulation), thread-parallel
//!   over primaries (§3.3), behind three entry points — `compute`,
//!   `compute_observed` (stage spans and counters recorded into a
//!   `galactos-obs` session) and the per-rank `compute_subset`;
//! * [`estimator`] — the estimator-selection knob dispatching
//!   [`Engine::compute`](engine::Engine::compute) between the tree
//!   traversal and the FFT-based gridded a_ℓm estimator of
//!   `galactos-grid` (mass assignment + Fourier-space shell
//!   convolutions), whose cost scales with mesh size instead of pair
//!   count;
//! * [`traversal`] — the precision-erased k-d tree (mixed-precision
//!   search, §5.4) and the two traversal modes behind one config knob:
//!   per-primary gathering and the §3.2 node-to-node leaf-blocked walk
//!   with SoA candidate blocks;
//! * [`scratch`] — reusable per-worker compute state (buckets,
//!   accumulators, ζ partials, instrumentation counters);
//! * [`schedule`] — the shared chunk/map/reduce driver implementing
//!   dynamic (work-stealing) and static primary scheduling for the
//!   engine and the distributed pipeline's rank reduction;
//! * [`naive`] — O(N³) triplet-counting and O(N²·lm) direct-Yₗₘ
//!   baselines used as correctness oracles and benchmark comparators;
//! * [`isotropic`] — the Slepian–Eisenstein (2015) isotropic Legendre
//!   baseline (§2.2/§2.3), implemented independently of the monomial
//!   machinery;
//! * [`paircount`] — 2PCF pair counting and the Landy–Szalay estimator
//!   (the 2PCF context of §2.3);
//! * [`edge`] — isotropic survey edge correction via the Legendre
//!   mixing matrix (Wigner 3-j based);
//! * [`survey`] — the end-to-end cut-sky estimator: engine run over
//!   data − randoms, window multipoles from the randoms, per-bin-pair
//!   edge-correction solve, behind the [`SurveyCompute`] entry point;
//! * [`flops`] — pure FLOP formulas reproducing the paper's §3.3.2/§5.1
//!   arithmetic (286 monomials, 572 FLOPs/pair, flop/byte 9.6);
//! * [`pipeline`] — the distributed run: partition, halo exchange,
//!   per-rank compute, global reduction over `galactos-cluster`.

#![forbid(unsafe_code)]

pub mod bins;
pub mod config;
pub mod edge;
pub mod engine;
pub mod estimator;
pub mod flops;
pub mod isotropic;
pub mod kernel;
pub mod naive;
pub mod paircount;
pub mod pipeline;
pub mod result;
pub mod schedule;
pub mod scratch;
pub mod survey;
pub mod traversal;

pub use bins::RadialBins;
pub use config::{EngineConfig, Scheduling, TreePrecision};
pub use engine::Engine;
pub use estimator::{
    recommended_estimator, EstimatorChoice, EstimatorKind, GRID_CROSSOVER_GALAXIES,
};
pub use galactos_grid::{GridConfig, MassAssignment};
pub use galactos_obs::{ObsSession, Registry, Tracer};
pub use kernel::{BackendChoice, BackendKind};
pub use pipeline::{
    compute_distributed, compute_distributed_sharded, compute_distributed_supervised,
    compute_distributed_supervised_observed, NoSleep, RankReport, RetryPolicy, Sleeper,
    SupervisedError, SupervisedRun,
};
pub use result::{AnisotropicZeta, IsotropicZeta};
pub use schedule::run_partitioned;
pub use scratch::ComputeScratch;
pub use survey::{SurveyCompute, SurveyConfig, SurveyZeta};
pub use traversal::{TraversalChoice, TraversalKind};
