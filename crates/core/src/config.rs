//! Engine configuration.

use crate::bins::RadialBins;
use crate::estimator::EstimatorChoice;
use crate::kernel::backend::BackendChoice;
use crate::traversal::TraversalChoice;
use galactos_math::LineOfSight;
use galactos_math::Vec3;

/// Floating-point precision of the k-d tree neighbor search.
///
/// The paper's mixed-precision mode runs the tree in `f32` ("due to its
/// insensitivity to the precision of galaxy locations") for a 9%
/// end-to-end win (§5.4); the multipole kernel always runs in `f64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreePrecision {
    /// Tree in `f32`, multipoles in `f64` — the paper's fast mode.
    Mixed,
    /// Everything in `f64`.
    Double,
}

/// How primaries are distributed over threads.
///
/// "We use OpenMP dynamic scheduling to allocate primaries to threads …
/// a dynamic schedule gives a significant performance boost over using a
/// static schedule" (§3.3). Both are provided so the ablation benchmark
/// can reproduce that comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduling {
    /// Work-stealing over small chunks of primaries (rayon default).
    Dynamic,
    /// One contiguous block of primaries per thread.
    Static,
}

/// Full configuration of the anisotropic 3PCF engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Maximum multipole order ℓmax (paper: 10, giving 286 monomials).
    pub lmax: usize,
    /// Radial bins in triangle side length.
    pub bins: RadialBins,
    /// Line-of-sight convention (fixed ẑ for periodic boxes — the
    /// rotation is then the identity; radial for surveys).
    pub line_of_sight: LineOfSight,
    /// Pair-bucket capacity per radial bin (paper: 128, giving a
    /// best-case flop/byte ratio of 9.6).
    pub bucket_size: usize,
    /// Neighbor-search precision.
    pub precision: TreePrecision,
    /// Thread scheduling of primaries.
    pub scheduling: Scheduling,
    /// Remove the degenerate `j = k` (self-pair) terms from diagonal
    /// `r₁ = r₂` bins so that ζ counts only genuine triangles.
    pub subtract_self_pairs: bool,
    /// Which a_ℓm accumulation kernel runs — the hottest code in the
    /// engine. [`BackendChoice::Auto`] (the default) runs the paper's
    /// SIMD kernel on vector targets and the scalar reference
    /// elsewhere ([`detect`](crate::kernel::detect));
    /// `BackendChoice::Fixed(kind)` pins one, which is how benchmarks
    /// and equivalence tests compare the SIMD kernel against the
    /// scalar reference. Resolved once at
    /// [`Engine::new`](crate::engine::Engine::new). Both backends
    /// produce results equal up to floating-point reassociation
    /// (≲ 1e-11 relative; enforced by tests and CI's bench-smoke job).
    pub kernel_backend: BackendChoice,
    /// How secondaries are found for each primary — one tree descent
    /// per primary, or the paper's §3.2 node-to-node walk gathering
    /// candidates once per primary *leaf* into a SoA block.
    /// [`TraversalChoice::Auto`] (the default) picks the
    /// measured-fastest mode ([`detect_traversal`](
    /// crate::traversal::detect_traversal));
    /// `TraversalChoice::Fixed(kind)` pins one, which is how the
    /// benchmark and equivalence tests compare them. Resolved once at
    /// [`Engine::new`](crate::engine::Engine::new). Both modes bin
    /// exactly the same pairs and agree to floating-point
    /// reassociation (≤ 1e-9 relative; enforced by the equivalence
    /// suite and CI's bench-smoke gate).
    pub traversal: TraversalChoice,
    /// Which *estimator* evaluates ζ — the exact tree traversal or the
    /// FFT grid (`galactos-grid`), whose cost scales with mesh size
    /// instead of pair count. [`EstimatorChoice::Auto`] (the default)
    /// honors the `GALACTOS_ESTIMATOR` environment variable (`tree`,
    /// `grid`, `grid:<mesh>`) and otherwise picks the tree;
    /// [`EstimatorChoice::Grid`] pins the mesh path with explicit
    /// [`GridConfig`](galactos_grid::GridConfig) parameters. Resolved
    /// once at [`Engine::new`](crate::engine::Engine::new). The grid
    /// path requires a periodic catalog and a fixed line of sight, and
    /// its answer converges to the tree's as the mesh is refined (the
    /// convergence gate — relative ζ difference decreasing across mesh
    /// resolutions, tightest ≤ 1e-2 — is enforced by the
    /// `grid_equivalence` tests and the `grid_estimator` bench).
    /// Distributed/subset entry points always run the tree.
    pub estimator: EstimatorChoice,
}

impl EngineConfig {
    /// A configuration mirroring the paper's production run, scaled to a
    /// given Rmax: ℓmax = 10, 10 linear bins up to `rmax`, fixed ẑ line
    /// of sight, bucket 128, mixed precision, dynamic scheduling.
    pub fn paper_default(rmax: f64) -> Self {
        EngineConfig {
            lmax: 10,
            bins: RadialBins::linear(0.0, rmax, 10),
            line_of_sight: LineOfSight::Fixed(Vec3::Z),
            bucket_size: 128,
            precision: TreePrecision::Mixed,
            scheduling: Scheduling::Dynamic,
            subtract_self_pairs: true,
            kernel_backend: BackendChoice::Auto,
            traversal: TraversalChoice::Auto,
            estimator: EstimatorChoice::Auto,
        }
    }

    /// A small configuration for tests: low ℓmax, few bins.
    pub fn test_default(rmax: f64, lmax: usize, nbins: usize) -> Self {
        EngineConfig {
            lmax,
            bins: RadialBins::linear(0.0, rmax, nbins),
            line_of_sight: LineOfSight::Fixed(Vec3::Z),
            bucket_size: 16,
            precision: TreePrecision::Double,
            scheduling: Scheduling::Dynamic,
            subtract_self_pairs: false,
            kernel_backend: BackendChoice::Auto,
            traversal: TraversalChoice::Auto,
            estimator: EstimatorChoice::Auto,
        }
    }

    /// Validate invariants; called by the engine constructor.
    pub fn validate(&self) {
        assert!(self.lmax <= 12, "lmax > 12 is untested and very slow");
        assert!(self.bucket_size >= 1, "bucket_size must be positive");
        assert!(self.bins.nbins() >= 1);
        if let EstimatorChoice::Grid(grid) = &self.estimator {
            grid.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_paper_numbers() {
        let c = EngineConfig::paper_default(200.0);
        assert_eq!(c.lmax, 10);
        assert_eq!(c.bucket_size, 128);
        assert_eq!(c.bins.nbins(), 10);
        assert_eq!(c.bins.rmax(), 200.0);
        assert_eq!(c.precision, TreePrecision::Mixed);
        assert_eq!(c.scheduling, Scheduling::Dynamic);
        assert_eq!(c.kernel_backend, BackendChoice::Auto);
        assert_eq!(c.traversal, TraversalChoice::Auto);
        assert_eq!(c.estimator, EstimatorChoice::Auto);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "lmax > 12")]
    fn validate_rejects_huge_lmax() {
        let mut c = EngineConfig::test_default(10.0, 3, 4);
        c.lmax = 40;
        c.validate();
    }
}
