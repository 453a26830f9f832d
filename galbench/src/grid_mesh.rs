//! `grid_mesh128` — the FFT grid estimator on a clustered periodic box:
//! ℓmax 4, 5 bins, self-pairs subtracted, a 128³ CIC mesh, timed
//! through `Engine::compute`. No tree runs in the timed operation.

use crate::catalogs::clustered_box;
use crate::provenance::Resolved;
use crate::run::{engine_new_s, resolved, Check, Metrics, Scale, Traced, Verdict, Workload};
use crate::trace;
use crate::util::{flip_zeta_bit, median, same_zeta_bits, timed, zeta_rel_err, Fnv};
use galactos_bench::datasets::scaled_rmax;
use galactos_catalog::Catalog;
use galactos_core::estimator::EstimatorChoice;
use galactos_core::{AnisotropicZeta, Engine, EngineConfig, GridConfig, ObsSession};
use galactos_math::fft::Direction;
use galactos_math::{Complex64, Mesh3};
use std::path::Path;

pub struct GridMesh {
    galaxies: usize,
    mesh: usize,
    /// Grid-vs-tree tolerance on the max relative ζ deviation. The
    /// grid error scales with cell size over Rmax, i.e. with 1/mesh at
    /// Rmax = box/4: 1e-2 is the repository's gate at the 128³ mesh
    /// (measured 7e-3); the smoke mesh has cells twice as coarse.
    tree_rel_tol: f64,
}

impl GridMesh {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => GridMesh {
                galaxies: 20_000,
                mesh: 128,
                tree_rel_tol: 1e-2,
            },
            Scale::Smoke => GridMesh {
                galaxies: 2_000,
                mesh: 64,
                tree_rel_tol: 2e-2,
            },
        }
    }

    /// The configuration with the estimator pinned; the grid and its
    /// tree reference differ only here.
    fn config(&self, catalog: &Catalog, estimator: EstimatorChoice) -> EngineConfig {
        let mut config = EngineConfig::test_default(scaled_rmax(catalog), 4, 5);
        config.subtract_self_pairs = true;
        config.estimator = estimator;
        config
    }
}

pub struct State {
    catalog: Catalog,
    engine: Engine,
}

impl Workload for GridMesh {
    type State = State;
    type Output = AnisotropicZeta;

    fn name(&self) -> &'static str {
        "grid_mesh128"
    }

    fn setup(&self, seed: u64, _work: &Path) -> State {
        let catalog = clustered_box(self.galaxies, seed);
        let grid = EstimatorChoice::Grid(GridConfig::with_mesh(self.mesh));
        let engine = Engine::new(self.config(&catalog, grid));
        State { catalog, engine }
    }

    fn input_digest(&self, state: &State) -> u64 {
        let mut h = Fnv::new();
        h.catalog(&state.catalog);
        h.finish()
    }

    fn resolved(&self, state: &State) -> Resolved {
        resolved(&state.engine)
    }

    fn op(&self, state: &State) -> AnisotropicZeta {
        state.engine.compute(&state.catalog)
    }

    fn same_bits(&self, a: &AnisotropicZeta, b: &AnisotropicZeta) -> bool {
        same_zeta_bits(a, b)
    }

    fn primaries(&self, _state: &State, out: &AnisotropicZeta) -> u64 {
        out.num_primaries
    }

    /// The grid ζ against the exact tree ζ of the same catalog.
    fn verify(&self, state: &State, out: &AnisotropicZeta) -> Verdict {
        let tree = Engine::new(self.config(&state.catalog, EstimatorChoice::Tree));
        let want = tree.compute(&state.catalog);
        let rel = zeta_rel_err(out, &want);
        Verdict {
            zeta_rel_err: rel,
            checks: vec![Check::new("grid_vs_tree_rel_err", rel, self.tree_rel_tol)],
        }
    }

    fn traced_op(&self, state: &State, obs: &ObsSession, root: &str) -> Traced<AnisotropicZeta> {
        let out = {
            let _root = obs.tracer.span(root);
            let _call = obs.tracer.span("core.engine::compute");
            state.engine.compute_observed(&state.catalog, obs)
        };
        let profile = trace::analyze(obs, root);
        let mut metrics = Metrics::default();
        for stage in ["paint", "fields", "contract", "selfpair"] {
            let layer = format!("grid.{stage}");
            metrics.set(&format!("{layer}_s"), profile.layer(&layer), "s");
        }
        let reconcile = vec![Check::new(
            "grid.primaries",
            obs.registry
                .counter_value("grid.primaries")
                .abs_diff(out.num_primaries) as f64,
            0.0,
        )];
        Traced {
            out,
            profile,
            metrics,
            reconcile,
        }
    }

    /// `Engine::new` for the grid configuration, and one forward 3-D
    /// FFT at the workload's mesh size called directly (median of 3).
    fn direct_layers(&self, state: &State, _zeta_s: f64, metrics: &mut Metrics) -> Vec<Check> {
        metrics.set(
            "core.engine_new_s",
            engine_new_s(state.engine.config().clone()),
            "s",
        );
        let n = self.mesh;
        let mut mesh = Mesh3::zeros(n);
        for (i, v) in mesh.data_mut().iter_mut().enumerate() {
            *v = Complex64::new((i as f64 * 0.618_034).fract() - 0.5, 0.0);
        }
        let times: Vec<f64> = (0..3)
            .map(|_| timed(|| std::hint::black_box(&mut mesh).fft3(Direction::Forward)).1)
            .collect();
        metrics.set("math.fft3_s", median(&times), "s");
        Vec::new()
    }

    fn corrupt(&self, _state: &State, out: &mut AnisotropicZeta) {
        flip_zeta_bit(out);
    }
}
