//! `paper_tree` — the paper's configuration on a clustered open box:
//! `EngineConfig::paper_default` (ℓmax 10, 10 bins, ẑ line of sight,
//! bucket 128, mixed precision, self-pair subtraction) with
//! Rmax = box/4, timed through `Engine::compute`.

use crate::catalogs::clustered_open_box;
use crate::provenance::Resolved;
use crate::run::{
    binned_pairs_reconcile, engine_new_s, engine_stage_metrics, resolved, Check, Metrics, Scale,
    Traced, Verdict, Workload,
};
use crate::trace;
use crate::util::{flip_zeta_bit, same_zeta_bits, timed, zeta_rel_err, Fnv};
use galactos_bench::datasets::scaled_rmax;
use galactos_catalog::Catalog;
use galactos_core::naive::seminaive_anisotropic;
use galactos_core::{AnisotropicZeta, Engine, EngineConfig, ObsSession};
use galactos_math::sphharm::ylm_all_cartesian;
use galactos_math::{lm_count, lm_index, Complex64};
use std::path::Path;

/// Oracle tolerance on the max relative ζ deviation. The engine's
/// mixed-precision (f32) tree may keep or drop a pair within f32
/// rounding of a bin edge that the all-f64 oracle decides the other
/// way; each such pair moves ζ by about one pair's share.
const ORACLE_REL_TOL: f64 = 1e-4;
/// Oracle tolerance on binned pairs that differ for the same reason,
/// as a share of all binned pairs.
const ORACLE_PAIR_TOL: f64 = 1e-4;

pub struct PaperTree {
    galaxies: usize,
    oracle_galaxies: usize,
}

impl PaperTree {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => PaperTree {
                galaxies: 3_000,
                oracle_galaxies: 1_000,
            },
            Scale::Smoke => PaperTree {
                galaxies: 800,
                oracle_galaxies: 300,
            },
        }
    }
}

pub struct State {
    catalog: Catalog,
    engine: Engine,
}

fn paper_config(catalog: &Catalog) -> EngineConfig {
    EngineConfig::paper_default(scaled_rmax(catalog))
}

/// `Σ_j w_i w_j² Y_ℓm(û_ij) Y*_ℓ'm(û_ij)` on the diagonal bins: the
/// `j = k` terms that the seminaive oracle keeps and the engine's
/// self-pair subtraction removes, summed directly.
fn self_pair_terms(catalog: &Catalog, config: &EngineConfig) -> AnisotropicZeta {
    let lmax = config.lmax;
    let mut zeta = AnisotropicZeta::zeros(lmax, config.bins.nbins());
    let mut ylm = vec![Complex64::ZERO; lm_count(lmax)];
    for (i, gi) in catalog.galaxies.iter().enumerate() {
        let Some(rotation) = config.line_of_sight.rotation_for(gi.pos) else {
            continue;
        };
        for (j, gj) in catalog.galaxies.iter().enumerate() {
            let delta = gj.pos - gi.pos;
            let r = delta.norm();
            if j == i || r == 0.0 {
                continue;
            }
            let Some(bin) = config.bins.bin_of(r) else {
                continue;
            };
            ylm_all_cartesian(lmax, rotation.mul_vec(delta), &mut ylm);
            let w = gi.weight * gj.weight * gj.weight;
            for l in 0..=lmax {
                for lp in 0..=lmax {
                    for m in 0..=l.min(lp) {
                        let v = ylm[lm_index(l, m)] * ylm[lm_index(lp, m)].conj() * w;
                        zeta.add_to(l, lp, m, bin, bin, v * -1.0);
                    }
                }
            }
        }
    }
    zeta
}

impl Workload for PaperTree {
    type State = State;
    type Output = AnisotropicZeta;

    fn name(&self) -> &'static str {
        "paper_tree"
    }

    fn setup(&self, seed: u64, _work: &Path) -> State {
        let catalog = clustered_open_box(self.galaxies, seed);
        let engine = Engine::new(paper_config(&catalog));
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

    /// The engine on the first `oracle_galaxies` galaxies against the
    /// seminaive direct-`Y_ℓm` oracle with the `j = k` terms removed.
    /// A full-size oracle costs several times the timed operation.
    fn verify(&self, state: &State, _out: &AnisotropicZeta) -> Verdict {
        let cut = state
            .catalog
            .subset(&(0..self.oracle_galaxies).collect::<Vec<_>>());
        let config = state.engine.config();
        let got = state.engine.compute(&cut);
        let mut want = seminaive_anisotropic(&cut.galaxies, config, None);
        want.merge(&self_pair_terms(&cut, config));
        let rel = zeta_rel_err(&got, &want);
        let pair_diff =
            got.binned_pairs.abs_diff(want.binned_pairs) as f64 / want.binned_pairs.max(1) as f64;
        Verdict {
            zeta_rel_err: rel,
            checks: vec![
                Check::new("oracle_rel_err", rel, ORACLE_REL_TOL),
                Check::new("oracle_pair_share", pair_diff, ORACLE_PAIR_TOL),
            ],
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
        engine_stage_metrics(&profile, obs, 10, out.num_primaries, &mut metrics);
        let reconcile = vec![binned_pairs_reconcile(obs, out.binned_pairs)];
        Traced {
            out,
            profile,
            metrics,
            reconcile,
        }
    }

    /// `Engine::new` at the paper point, and the parallel efficiency of
    /// the pool against a one-thread run of the same operation.
    fn direct_layers(&self, state: &State, zeta_s: f64, metrics: &mut Metrics) -> Vec<Check> {
        metrics.set(
            "core.engine_new_s",
            engine_new_s(paper_config(&state.catalog)),
            "s",
        );
        let width = rayon::current_num_threads();
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("one-thread pool");
        let (_, t1) = timed(|| one.install(|| self.op(state)));
        metrics.set("core.parallel_eff", t1 / (width as f64 * zeta_s), "1");
        Vec::new()
    }

    fn corrupt(&self, _state: &State, out: &mut AnisotropicZeta) {
        flip_zeta_bit(out);
    }
}
