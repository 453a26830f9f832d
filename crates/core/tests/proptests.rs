//! Property-based tests of the 3PCF engine against its oracles with
//! randomized catalogs, weights and configurations.

use galactos_catalog::{Catalog, Galaxy};
use galactos_core::bins::RadialBins;
use galactos_core::config::{EngineConfig, Scheduling, TreePrecision};
use galactos_core::engine::Engine;
use galactos_core::kernel::{BackendChoice, BackendKind};
use galactos_core::naive::seminaive_anisotropic;
use galactos_core::result::AnisotropicZeta;
use galactos_core::traversal::{TraversalChoice, TraversalKind};
use galactos_math::{LineOfSight, Vec3};
use proptest::prelude::*;

/// The pre-reciprocal logarithmic lookup (binary search over the edge
/// array + edge-exact correction), kept as the reference the fast
/// `ln`-and-multiply path must match bit for bit.
fn bin_of_by_search(bins: &RadialBins, r: f64) -> Option<usize> {
    if r.is_nan() || r < bins.rmin() || r >= bins.rmax() {
        return None;
    }
    let edges = bins.edges();
    let guess = match edges.binary_search_by(|e| e.partial_cmp(&r).unwrap()) {
        Ok(i) => i.min(bins.nbins() - 1),
        Err(i) => i - 1,
    };
    let mut idx = guess;
    while idx > 0 && r < edges[idx] {
        idx -= 1;
    }
    while idx + 1 < bins.nbins() && r >= edges[idx + 1] {
        idx += 1;
    }
    Some(idx)
}

fn arb_galaxies(max_n: usize) -> impl Strategy<Value = Vec<Galaxy>> {
    prop::collection::vec(
        (0.0f64..20.0, 0.0f64..20.0, 0.0f64..20.0, 0.25f64..2.0)
            .prop_map(|(x, y, z, w)| Galaxy::new(Vec3::new(x, y, z), w)),
        2..max_n,
    )
}

fn base_config(lmax: usize, nbins: usize, rmax: f64) -> EngineConfig {
    let mut c = EngineConfig::test_default(rmax, lmax, nbins);
    c.precision = TreePrecision::Double;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_seminaive_on_random_inputs(
        galaxies in arb_galaxies(40),
        lmax in 0usize..5,
        nbins in 1usize..4,
        bucket in 1usize..40,
        backend_idx in 0usize..BackendKind::ALL.len(),
        traversal_idx in 0usize..2,
    ) {
        let backend = BackendKind::ALL[backend_idx];
        let traversal = TraversalKind::ALL[traversal_idx];
        let mut config = base_config(lmax, nbins, 8.0);
        config.bucket_size = bucket;
        config.kernel_backend = BackendChoice::Fixed(backend);
        config.traversal = TraversalChoice::Fixed(traversal);
        let engine = Engine::new(config.clone()).compute(&Catalog::new(galaxies.clone()));
        let oracle = seminaive_anisotropic(&galaxies, &config, None);
        let scale = oracle.max_abs().max(1.0);
        prop_assert!(
            engine.max_difference(&oracle) < 1e-8 * scale,
            "diff {} (lmax={lmax} nbins={nbins} bucket={bucket} backend={backend:?} \
             traversal={traversal:?})",
            engine.max_difference(&oracle)
        );
        prop_assert_eq!(engine.num_primaries, oracle.num_primaries);
        prop_assert_eq!(engine.binned_pairs, oracle.binned_pairs);
    }

    #[test]
    fn scheduling_never_changes_results(
        galaxies in arb_galaxies(60),
        lmax in 0usize..4,
    ) {
        let mut config = base_config(lmax, 3, 7.0);
        config.scheduling = Scheduling::Dynamic;
        let a = Engine::new(config.clone()).compute(&Catalog::new(galaxies.clone()));
        config.scheduling = Scheduling::Static;
        let b = Engine::new(config).compute(&Catalog::new(galaxies));
        let scale = a.max_abs().max(1.0);
        prop_assert!(a.max_difference(&b) < 1e-9 * scale);
    }

    #[test]
    fn radial_los_skips_only_degenerate_primaries(
        galaxies in arb_galaxies(30),
        ox in -5.0f64..25.0,
        oy in -5.0f64..25.0,
        oz in -5.0f64..25.0,
    ) {
        let observer = Vec3::new(ox, oy, oz);
        let mut config = base_config(2, 2, 6.0);
        config.line_of_sight = LineOfSight::Radial { observer };
        let degenerate = galaxies.iter().filter(|g| (g.pos - observer).norm() == 0.0).count();
        let z = Engine::new(config).compute(&Catalog::new(galaxies.clone()));
        prop_assert_eq!(z.num_primaries as usize, galaxies.len() - degenerate);
    }

    #[test]
    fn zeta_wire_roundtrip_random(
        lmax in 0usize..5,
        nbins in 1usize..5,
        seedvals in prop::collection::vec(-10.0f64..10.0, 8),
    ) {
        let mut z = AnisotropicZeta::zeros(lmax, nbins);
        // Scatter some values through the container.
        for (i, v) in seedvals.iter().enumerate() {
            let l = i % (lmax + 1);
            let b = i % nbins;
            z.add_to(l, l, 0, b, b, galactos_math::Complex64::new(*v, -v));
        }
        z.total_primary_weight = seedvals.iter().sum();
        z.num_primaries = seedvals.len() as u64;
        let back = AnisotropicZeta::from_f64_vec(lmax, nbins, &z.to_f64_vec());
        prop_assert_eq!(back.max_difference(&z), 0.0);
        prop_assert_eq!(back.num_primaries, z.num_primaries);
    }

    #[test]
    fn bins_partition_the_range(
        rmin in 0.0f64..5.0,
        width in 0.5f64..20.0,
        nbins in 1usize..20,
        samples in prop::collection::vec(0.0f64..1.0, 20),
    ) {
        let bins = RadialBins::linear(rmin, rmin + width, nbins);
        for t in samples {
            let r = rmin + t * width * 0.999_999;
            let b = bins.bin_of(r);
            prop_assert!(b.is_some(), "r={r} must land in a bin");
            let b = b.unwrap();
            prop_assert!(r >= bins.edges()[b] && r < bins.edges()[b + 1]);
        }
        prop_assert_eq!(bins.bin_of(rmin + width), None);
        prop_assert_eq!(bins.bin_of(rmin - 1e-9), None);
    }

    #[test]
    fn log_bin_lookup_is_bit_equal_to_binary_search(
        rmin in 1e-3f64..5.0,
        ratio in 1.01f64..500.0,
        nbins in 1usize..24,
        samples in prop::collection::vec(-0.1f64..1.1, 40),
    ) {
        // The reciprocal fast path (one ln + multiply, no division)
        // must reproduce the binary-search reference exactly —
        // including out-of-range radii, exact edge hits, and the
        // NaN→None behavior pinned since PR 3 — and linear spacing
        // must stay untouched.
        let log_bins = RadialBins::logarithmic(rmin, rmin * ratio, nbins);
        let lin_bins = RadialBins::linear(rmin, rmin * ratio, nbins);
        for bins in [&log_bins, &lin_bins] {
            for &t in &samples {
                let r = bins.rmin() + t * (bins.rmax() - bins.rmin());
                prop_assert_eq!(bins.bin_of(r), bin_of_by_search(bins, r), "r={}", r);
            }
            // Every stored edge must hit the bin it opens (or None for
            // the outermost edge) through both lookups.
            for (i, &e) in bins.edges().iter().enumerate() {
                prop_assert_eq!(bins.bin_of(e), bin_of_by_search(bins, e), "edge {}", i);
                if i < bins.nbins() {
                    prop_assert_eq!(bins.bin_of(e), Some(i));
                }
            }
            prop_assert_eq!(bins.bin_of(f64::NAN), None);
            prop_assert_eq!(bins.bin_of(f64::INFINITY), None);
            prop_assert_eq!(bins.bin_of(f64::NEG_INFINITY), None);
        }
    }

    #[test]
    fn isotropic_compression_is_real_and_l0_positive(
        galaxies in arb_galaxies(50),
    ) {
        let config = base_config(3, 2, 7.0);
        let z = Engine::new(config).compute(&Catalog::new(galaxies));
        let k = z.compress_isotropic();
        // K_0 diagonal = Σ w (Σ w_j)² / shells ≥ 0 always.
        for b in 0..2 {
            prop_assert!(k.get(0, b, b) >= -1e-9, "K0({b},{b}) = {}", k.get(0, b, b));
        }
    }
}
