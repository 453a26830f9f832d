//! Equivalence suite: leaf-blocked traversal must bin exactly the same
//! pairs as per-primary traversal and agree on ζ to floating-point
//! reassociation (≤ 1e-9 relative), across boxes, precisions, lines of
//! sight, primary subsets, and kernel backends.

use galactos_catalog::{uniform_box, Catalog, Galaxy};
use galactos_core::config::{EngineConfig, TreePrecision};
use galactos_core::engine::Engine;
use galactos_core::kernel::{BackendChoice, BackendKind};
use galactos_core::result::AnisotropicZeta;
use galactos_core::traversal::{TraversalChoice, TraversalKind};
use galactos_math::{LineOfSight, Vec3};
use galactos_mocks::scaled::{
    generate_scaled_catalog, scaled_dataset, MockKind, OUTER_RIM_DENSITY,
};

const TOL: f64 = 1e-9;

/// Run `catalog` through both traversal modes of otherwise-identical
/// engines and assert pair-exact, reassociation-tolerant agreement.
fn assert_equivalent(mut config: EngineConfig, catalog: &Catalog, label: &str) -> AnisotropicZeta {
    config.traversal = TraversalChoice::Fixed(TraversalKind::PerPrimary);
    let reference = Engine::new(config.clone());
    assert_eq!(reference.traversal_kind(), TraversalKind::PerPrimary);
    let want = reference.compute(catalog);

    config.traversal = TraversalChoice::Fixed(TraversalKind::LeafBlocked);
    let blocked = Engine::new(config);
    assert_eq!(blocked.traversal_kind(), TraversalKind::LeafBlocked);
    let got = blocked.compute(catalog);

    assert_eq!(
        got.binned_pairs, want.binned_pairs,
        "{label}: traversals binned different pair sets"
    );
    assert_eq!(got.num_primaries, want.num_primaries, "{label}");
    assert!(
        (got.total_primary_weight - want.total_primary_weight).abs()
            <= 1e-12 * want.total_primary_weight.abs().max(1.0),
        "{label}: primary weight {} vs {}",
        got.total_primary_weight,
        want.total_primary_weight
    );
    let scale = want.max_abs().max(1.0);
    assert!(
        got.max_difference(&want) <= TOL * scale,
        "{label}: rel diff {}",
        got.max_difference(&want) / scale
    );
    want
}

#[test]
fn open_box_across_precisions_and_backends() {
    let mut cat = uniform_box(400, 12.0, 101);
    cat.periodic = None;
    for precision in [TreePrecision::Double, TreePrecision::Mixed] {
        for backend in BackendKind::ALL {
            let mut config = EngineConfig::test_default(5.0, 3, 4);
            config.precision = precision;
            config.kernel_backend = BackendChoice::Fixed(backend);
            // Small bucket: every backend sees full flushes and tails.
            config.bucket_size = 12;
            let z = assert_equivalent(config, &cat, &format!("open/{precision:?}/{backend:?}"));
            assert!(z.binned_pairs > 0);
        }
    }
}

#[test]
fn periodic_box_wraps_identically() {
    // rmax near box/2 stresses the multi-image range dedup: the
    // inflated leaf reach exceeds half the box, so the same slot can be
    // covered through several images and must be materialized once.
    let cat = uniform_box(350, 10.0, 103);
    assert!(cat.periodic.is_some(), "uniform_box must stay periodic");
    for precision in [TreePrecision::Double, TreePrecision::Mixed] {
        for rmax in [2.0, 4.9] {
            let mut config = EngineConfig::test_default(rmax, 3, 3);
            config.precision = precision;
            let z = assert_equivalent(config, &cat, &format!("periodic/{precision:?}/rmax{rmax}"));
            assert!(z.binned_pairs > 0);
        }
    }
}

#[test]
fn radial_line_of_sight_with_degenerate_primary() {
    let mut cat = uniform_box(250, 9.0, 107);
    cat.periodic = None;
    // One galaxy exactly at the observer: skipped by both traversals.
    cat.galaxies[17].pos = Vec3::ZERO;
    let mut config = EngineConfig::test_default(4.0, 2, 3);
    config.line_of_sight = LineOfSight::Radial {
        observer: Vec3::ZERO,
    };
    let z = assert_equivalent(config, &cat, "radial LOS");
    assert_eq!(z.num_primaries, 249);
}

#[test]
fn self_pair_subtraction_matches() {
    let mut cat = uniform_box(300, 10.0, 109);
    cat.periodic = None;
    let mut config = EngineConfig::test_default(4.5, 3, 3);
    config.subtract_self_pairs = true;
    assert_equivalent(config, &cat, "self-pair subtraction");
}

#[test]
fn compute_subset_ghosts_never_become_primaries() {
    // The distributed pipeline's per-rank call: only the first
    // n_primaries galaxies act as primaries, the rest are halo ghosts.
    // In blocked mode leaves freely mix owned and ghost galaxies, so
    // the id-based primary cut must hold per slot, not per leaf.
    let mut cat = uniform_box(320, 11.0, 113);
    cat.periodic = None;
    let n_primaries = 140;
    for precision in [TreePrecision::Double, TreePrecision::Mixed] {
        let mut config = EngineConfig::test_default(4.0, 2, 3);
        config.precision = precision;

        config.traversal = TraversalChoice::Fixed(TraversalKind::PerPrimary);
        let want = Engine::new(config.clone()).compute_subset(&cat.galaxies, n_primaries);
        config.traversal = TraversalChoice::Fixed(TraversalKind::LeafBlocked);
        let got = Engine::new(config).compute_subset(&cat.galaxies, n_primaries);

        assert_eq!(got.num_primaries, n_primaries as u64, "{precision:?}");
        assert_eq!(got.num_primaries, want.num_primaries);
        assert_eq!(got.binned_pairs, want.binned_pairs, "{precision:?}");
        let scale = want.max_abs().max(1.0);
        assert!(
            got.max_difference(&want) <= TOL * scale,
            "{precision:?}: rel diff {}",
            got.max_difference(&want) / scale
        );
    }
}

#[test]
fn clustered_catalog_with_ragged_leaves() {
    // Neyman–Scott clusters give strongly non-uniform leaf occupancy:
    // dense leaves with tiny bounding boxes next to sparse ones — the
    // shape that stresses per-leaf candidate reuse and the prefilter.
    let ds = scaled_dataset(1, 2500.0, OUTER_RIM_DENSITY);
    let mut cat = generate_scaled_catalog(&ds, 1.0, MockKind::Clustered, 127);
    cat.periodic = None;
    let rmax = 0.2 * cat.bounds.extent().x.min(cat.bounds.extent().y);
    for precision in [TreePrecision::Double, TreePrecision::Mixed] {
        let mut config = EngineConfig::test_default(rmax, 3, 4);
        config.precision = precision;
        config.bucket_size = 64;
        let z = assert_equivalent(config, &cat, &format!("clustered/{precision:?}"));
        assert!(z.binned_pairs > 0, "clustered catalog must produce pairs");
    }
}

#[test]
fn degenerate_catalogs_agree() {
    // Empty, single-galaxy, and coincident-point catalogs: the blocked
    // driver iterates leaves (possibly none) and must not bin phantom
    // pairs or drop the self/coincident skip rules.
    for galaxies in [
        vec![],
        vec![Galaxy::unit(Vec3::new(1.0, 2.0, 3.0))],
        vec![Galaxy::unit(Vec3::splat(2.0)); 20], // all coincident
    ] {
        let n = galaxies.len();
        let cat = Catalog::new(galaxies);
        let config = EngineConfig::test_default(3.0, 2, 2);
        let z = assert_equivalent(config, &cat, &format!("degenerate n={n}"));
        assert_eq!(z.binned_pairs, 0);
    }
}

#[test]
fn blocked_is_the_measured_default() {
    // Auto resolves to the measured-fastest mode (leaf-blocked; see
    // detect_traversal and the perf_baseline traversal section).
    assert_eq!(TraversalChoice::Auto.resolve(), TraversalKind::LeafBlocked);
    let engine = Engine::new(EngineConfig::test_default(3.0, 2, 2));
    assert_eq!(engine.traversal_kind(), TraversalKind::LeafBlocked);
}
