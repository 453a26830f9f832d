//! `survey_radial` — the edge-corrected survey estimator on a BOSS-like
//! cut-sky shell with holes and a completeness ramp: sky-CSV ingest,
//! mask randoms at ×3, then `SurveyCompute::compute` (radial line of
//! sight, ℓmax 4, 5 bins, Rmax 60, Double precision, bucket 16).

use crate::provenance::Resolved;
use crate::run::{
    binned_pairs_reconcile, engine_new_s, engine_stage_metrics, resolved, Check, Metrics, Scale,
    Traced, Verdict, Workload,
};
use crate::trace;
use crate::util::{same_zeta_bits, zeta_rel_err, Fnv};
use galactos_catalog::sky::{read_sky_csv, write_sky_csv};
use galactos_catalog::{Cap, Catalog, SurveyGeometry};
use galactos_core::edge::edge_corrected;
use galactos_core::{IsotropicZeta, ObsSession, SurveyCompute, SurveyConfig, SurveyZeta};
use galactos_math::cosmology::FiducialCosmology;
use galactos_math::Vec3;
use std::path::{Path, PathBuf};

/// D−R multipoles of the survey entry point vs a plain engine run.
const EQUIVALENCE_TOL: f64 = 1e-9;
/// Sky-CSV round-trip position error, h⁻¹ Mpc.
const ROUNDTRIP_TOL: f64 = 1e-6;
/// Trivial-window correction vs the algebraic `N_ℓ/R₀` rescaling.
const IDENTITY_TOL: f64 = 1e-12;

const RANDFACT: usize = 3;
const RMAX: f64 = 60.0;
const LMAX: usize = 4;
const NBINS: usize = 5;

pub struct SurveyRadial {
    data_galaxies: usize,
}

impl SurveyRadial {
    pub fn new(scale: Scale) -> Self {
        SurveyRadial {
            data_galaxies: match scale {
                Scale::Full => 20_000,
                Scale::Smoke => 1_000,
            },
        }
    }
}

/// The footprint of the repository's survey workload: a comoving shell
/// (z ≈ 0.10–0.21 under the fiducial cosmology) with two angular holes
/// and a radial completeness ramp, observer at the origin.
fn geometry() -> SurveyGeometry {
    let mut geom = SurveyGeometry::full_shell(Vec3::ZERO, 300.0, 600.0);
    geom.holes.push(Cap::new(Vec3::Z, 0.5));
    geom.holes.push(Cap::new(Vec3::new(1.0, 1.0, 0.0), 0.3));
    geom.radial_completeness = vec![(300.0, 1.0), (600.0, 0.7)];
    geom
}

pub struct State {
    geometry: SurveyGeometry,
    cosmo: FiducialCosmology,
    /// The generated data catalog and the sky CSV it was written to.
    data: Catalog,
    csv: PathBuf,
    randoms_seed: u64,
    survey: SurveyCompute,
}

pub struct Output {
    ingested: Catalog,
    randoms: Catalog,
    zeta: SurveyZeta,
}

fn same_isotropic_bits(a: &IsotropicZeta, b: &IsotropicZeta) -> bool {
    a.lmax() == b.lmax()
        && a.nbins() == b.nbins()
        && (0..=a.lmax()).all(|l| {
            (0..a.nbins()).all(|b1| {
                (0..a.nbins()).all(|b2| a.get(l, b1, b2).to_bits() == b.get(l, b1, b2).to_bits())
            })
        })
}

/// Largest relative deviation of the trivial-window (`f_ℓ = 0`)
/// correction from `(2ℓ+1)/2 · N_ℓ / R₀`.
fn window_identity_err(nnn: &IsotropicZeta, rrr: &IsotropicZeta) -> f64 {
    let trivial = edge_corrected(nnn, rrr, 0);
    let mut err = 0.0f64;
    for l in 0..=nnn.lmax() {
        for b1 in 0..nnn.nbins() {
            for b2 in 0..nnn.nbins() {
                let r0 = 0.5 * rrr.get(0, b1, b2);
                if r0.abs() < 1e-300 {
                    continue;
                }
                let want = (2 * l + 1) as f64 / 2.0 * nnn.get(l, b1, b2) / r0;
                err = err.max((trivial.get(l, b1, b2) - want).abs() / want.abs().max(1.0));
            }
        }
    }
    err
}

impl Workload for SurveyRadial {
    type State = State;
    type Output = Output;

    fn name(&self) -> &'static str {
        "survey_radial"
    }

    fn setup(&self, seed: u64, work: &Path) -> State {
        let geometry = geometry();
        let cosmo = FiducialCosmology::boss_fiducial();
        let data = geometry.sample_randoms(self.data_galaxies, seed);
        let csv = work.join("sky.csv");
        write_sky_csv(&data, &csv, &cosmo).expect("write the mock sky CSV");
        let config = SurveyConfig::survey_default(geometry.observer, RMAX, LMAX, NBINS);
        State {
            geometry,
            cosmo,
            data,
            csv,
            randoms_seed: seed.wrapping_add(1),
            survey: SurveyCompute::new(config),
        }
    }

    fn input_digest(&self, state: &State) -> u64 {
        let mut h = Fnv::new();
        h.catalog(&state.data);
        h.bytes(&std::fs::read(&state.csv).unwrap_or_default());
        h.finish()
    }

    fn resolved(&self, state: &State) -> Resolved {
        resolved(state.survey.engine())
    }

    fn op(&self, state: &State) -> Output {
        let ingested = read_sky_csv(&state.csv, &state.cosmo).expect("read the sky CSV");
        let randoms = state
            .geometry
            .sample_randoms_for(&ingested, RANDFACT, state.randoms_seed);
        let zeta = state.survey.compute(&ingested, &randoms);
        Output {
            ingested,
            randoms,
            zeta,
        }
    }

    fn same_bits(&self, a: &Output, b: &Output) -> bool {
        same_zeta_bits(&a.zeta.nnn, &b.zeta.nnn)
            && same_zeta_bits(&a.zeta.rrr, &b.zeta.rrr)
            && same_isotropic_bits(&a.zeta.corrected, &b.zeta.corrected)
    }

    fn primaries(&self, _state: &State, out: &Output) -> u64 {
        out.zeta.nnn.num_primaries + out.zeta.rrr.num_primaries
    }

    /// The repository's survey gates: D−R equals a plain engine run,
    /// the sky round trip preserves positions, and the trivial window
    /// reduces the correction to its algebraic form.
    fn verify(&self, state: &State, out: &Output) -> Verdict {
        let roundtrip = if out.ingested.len() == state.data.len() {
            out.ingested
                .galaxies
                .iter()
                .zip(&state.data.galaxies)
                .map(|(a, b)| (a.pos - b.pos).norm())
                .fold(0.0f64, f64::max)
        } else {
            f64::INFINITY
        };
        let combined = Catalog::data_minus_randoms(&out.ingested, &out.randoms);
        let plain = state.survey.engine().compute(&combined);
        let rel = zeta_rel_err(&out.zeta.nnn, &plain);
        let identity = window_identity_err(
            &out.zeta.nnn.compress_isotropic(),
            &out.zeta.rrr.compress_isotropic(),
        );
        Verdict {
            zeta_rel_err: rel,
            checks: vec![
                Check::new("dr_vs_plain_engine", rel, EQUIVALENCE_TOL),
                Check::new("sky_roundtrip_mpc", roundtrip, ROUNDTRIP_TOL),
                Check::new("trivial_window_identity", identity, IDENTITY_TOL),
            ],
        }
    }

    /// `SurveyCompute::compute` staged through its public parts — the
    /// D−R run, the window run and the edge solve — so each has a span.
    fn traced_op(&self, state: &State, obs: &ObsSession, root: &str) -> Traced<Output> {
        let engine = state.survey.engine();
        let out = {
            let _root = obs.tracer.span(root);
            let ingested = {
                let _g = obs.tracer.span("catalog::read_sky_csv");
                read_sky_csv(&state.csv, &state.cosmo).expect("read the sky CSV")
            };
            let randoms = {
                let _g = obs.tracer.span("catalog::sample_randoms_for");
                state
                    .geometry
                    .sample_randoms_for(&ingested, RANDFACT, state.randoms_seed)
            };
            let combined = {
                let _g = obs.tracer.span("catalog::data_minus_randoms");
                Catalog::data_minus_randoms(&ingested, &randoms)
            };
            let nnn = {
                let _g = obs.tracer.span("survey.dr::compute");
                engine.compute_observed(&combined, obs)
            };
            let rrr = {
                let _g = obs.tracer.span("survey.window::compute");
                engine.compute_observed(&randoms, obs)
            };
            let corrected = {
                let _g = obs.tracer.span("survey.solve::edge_corrected");
                edge_corrected(&nnn.compress_isotropic(), &rrr.compress_isotropic(), LMAX)
            };
            let zeta = SurveyZeta {
                corrected,
                nnn,
                rrr,
                data_len: ingested.len(),
                randoms_len: randoms.len(),
                data_weight: ingested.total_weight(),
                randoms_weight: randoms.total_weight(),
            };
            Output {
                ingested,
                randoms,
                zeta,
            }
        };
        let profile = trace::analyze(obs, root);
        let mut metrics = Metrics::default();
        let primaries = self.primaries(state, &out);
        engine_stage_metrics(&profile, obs, LMAX, primaries, &mut metrics);
        let span = |name: &str| -> f64 {
            trace::durations(obs, root, name)
                .iter()
                .map(|(_, t)| t)
                .sum()
        };
        let read_s = span("catalog::read_sky_csv");
        metrics.set("catalog.sky_read_s", read_s, "s");
        metrics.set(
            "catalog.sky_rows_per_s",
            out.ingested.len() as f64 / read_s,
            "1/s",
        );
        metrics.set(
            "catalog.randoms_s",
            span("catalog::sample_randoms_for"),
            "s",
        );
        metrics.set("survey.dr_s", span("survey.dr::compute"), "s");
        metrics.set("survey.window_s", span("survey.window::compute"), "s");
        metrics.set("survey.solve_s", span("survey.solve::edge_corrected"), "s");
        let reconcile = vec![binned_pairs_reconcile(
            obs,
            out.zeta.nnn.binned_pairs + out.zeta.rrr.binned_pairs,
        )];
        Traced {
            out,
            profile,
            metrics,
            reconcile,
        }
    }

    fn direct_layers(&self, state: &State, _zeta_s: f64, metrics: &mut Metrics) -> Vec<Check> {
        metrics.set(
            "core.engine_new_s",
            engine_new_s(state.survey.engine().config().clone()),
            "s",
        );
        Vec::new()
    }

    fn corrupt(&self, _state: &State, out: &mut Output) {
        crate::util::flip_zeta_bit(&mut out.zeta.nnn);
    }
}
