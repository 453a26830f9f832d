//! The `GALACTOS_ESTIMATOR` resolution chain through a real engine.
//! Environment mutation is process-global, so this lives in its own
//! integration-test binary (its own process): the single test below is
//! the only code running when the variable changes, which keeps
//! `set_var` safe even at the libc level.

use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::estimator::{detect_estimator, EstimatorChoice, EstimatorKind, ESTIMATOR_ENV};
use galactos_core::GridConfig;

/// The full `Auto` chain: env override wins when valid (including the
/// `grid:<mesh>` form), garbage falls back to detection, pinned
/// choices never read the environment.
#[test]
fn auto_resolution_follows_env_then_detect() {
    let mut cfg = EngineConfig::test_default(6.0, 2, 3);
    cfg.estimator = EstimatorChoice::Auto;
    let engine_kind = |cfg: &EngineConfig| Engine::new(cfg.clone()).estimator_kind();

    std::env::set_var(ESTIMATOR_ENV, "tree");
    assert_eq!(engine_kind(&cfg), EstimatorKind::Tree);
    std::env::set_var(ESTIMATOR_ENV, "Grid");
    assert_eq!(engine_kind(&cfg), EstimatorKind::Grid);
    std::env::set_var(ESTIMATOR_ENV, "grid:32");
    assert_eq!(engine_kind(&cfg), EstimatorKind::Grid);

    // Unparsable values: fall back to detection (including a mesh that
    // is not a power of two).
    for bad in ["fourier", "grid:100", "grid:"] {
        std::env::set_var(ESTIMATOR_ENV, bad);
        assert_eq!(engine_kind(&cfg), detect_estimator(), "{bad}");
    }

    // A pinned choice beats the environment.
    std::env::set_var(ESTIMATOR_ENV, "grid");
    cfg.estimator = EstimatorChoice::Tree;
    assert_eq!(engine_kind(&cfg), EstimatorKind::Tree);
    std::env::set_var(ESTIMATOR_ENV, "tree");
    cfg.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(16));
    assert_eq!(engine_kind(&cfg), EstimatorKind::Grid);

    // Unset: detection again.
    std::env::remove_var(ESTIMATOR_ENV);
    cfg.estimator = EstimatorChoice::Auto;
    assert_eq!(engine_kind(&cfg), detect_estimator());
}
