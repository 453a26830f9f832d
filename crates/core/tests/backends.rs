//! Engine-level kernel-backend selection and equivalence tests: the
//! configured backend observed through a real [`Engine`], and
//! agreement of the SIMD kernel with the scalar reference over the full
//! ζ computation on a small catalog.

use galactos_catalog::uniform_box;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::kernel::{BackendChoice, BackendKind};

fn config(lmax: usize) -> EngineConfig {
    let mut c = EngineConfig::test_default(6.0, lmax, 4);
    // Ragged bucket size: full flushes and tails for both backends.
    c.bucket_size = 11;
    c
}

#[test]
fn all_backends_produce_identical_zeta() {
    let mut cat = uniform_box(150, 12.0, 77);
    cat.periodic = None;
    let mut cfg = config(4);
    // Self-pair subtraction on: the degenerate-triangle path must also
    // be backend-independent.
    cfg.subtract_self_pairs = true;

    cfg.kernel_backend = BackendChoice::Fixed(BackendKind::Scalar);
    let reference = Engine::new(cfg.clone()).compute(&cat);
    assert!(reference.binned_pairs > 0, "catalog too sparse to test");

    for kind in BackendKind::ALL {
        cfg.kernel_backend = BackendChoice::Fixed(kind);
        let engine = Engine::new(cfg.clone());
        assert_eq!(engine.backend_kind(), kind);
        assert_eq!(engine.new_scratch().backend_kind(), kind);
        let zeta = engine.compute(&cat);
        let scale = reference.max_abs().max(1.0);
        assert!(
            zeta.max_difference(&reference) < 1e-10 * scale,
            "{kind:?}: diff {} vs scale {scale}",
            zeta.max_difference(&reference)
        );
        assert_eq!(zeta.num_primaries, reference.num_primaries, "{kind:?}");
        assert_eq!(zeta.binned_pairs, reference.binned_pairs, "{kind:?}");
        assert_eq!(
            zeta.total_primary_weight, reference.total_primary_weight,
            "{kind:?}"
        );
    }
}

#[test]
fn backends_agree_with_radial_line_of_sight() {
    // Rotations on: separations are rotated per primary before they hit
    // the kernel, so this covers the backend boundary under the survey
    // (non-identity rotation) code path.
    let mut cat = uniform_box(100, 10.0, 5);
    cat.periodic = None;
    let mut cfg = config(3);
    cfg.line_of_sight = galactos_math::LineOfSight::Radial {
        observer: galactos_math::Vec3::new(-30.0, -30.0, -30.0),
    };

    cfg.kernel_backend = BackendChoice::Fixed(BackendKind::Scalar);
    let reference = Engine::new(cfg.clone()).compute(&cat);
    cfg.kernel_backend = BackendChoice::Fixed(BackendKind::Simd);
    let zeta = Engine::new(cfg).compute(&cat);
    let scale = reference.max_abs().max(1.0);
    assert!(
        zeta.max_difference(&reference) < 1e-10 * scale,
        "simd: diff {}",
        zeta.max_difference(&reference)
    );
    assert_eq!(zeta.binned_pairs, reference.binned_pairs);
}
