//! The anisotropic 3PCF engine: Algorithm 1 with the §3.3 optimizations.
//!
//! The per-primary work is a pipeline of four named stages, matching
//! the independent gather → bin → a_ℓm → accumulate structure that
//! Slepian & Eisenstein (2017) formalize for the anisotropic redshift-
//! space 3PCF:
//!
//! 1. `gather` — collect secondaries within Rmax from
//!    the precision-erased k-d tree ([`crate::traversal`]);
//! 2. `bin_and_bucket` — rotate separations
//!    into the line-of-sight frame, bin them into radial shells, and
//!    bucket-accumulate the monomials through the engine's resolved
//!    kernel backend (§3.3.1/§3.3.2);
//! 3. `assemble_alm` — reduce the monomial sums
//!    and assemble the shell coefficients `a_ℓm`;
//! 4. `accumulate_zeta` — accumulate
//!    `ζ^m_{ℓℓ'}(r₁, r₂) += w_i · a_ℓm(r₁) · conj(a_ℓ'm(r₂))` (minus
//!    the degenerate self-pair terms when enabled).
//!
//! Primaries are distributed over threads by the shared
//! [`crate::schedule`] driver — dynamic (work stealing) or static
//! chunking — with each worker owning a private [`ComputeScratch`]
//! that is merged once at the end: "this approach ensures maximum
//! independent work for each thread".

use crate::config::EngineConfig;
use crate::estimator::{EstimatorKind, ResolvedEstimator};
use crate::kernel::BackendKind;
use crate::result::AnisotropicZeta;
use crate::schedule::{self, Merge};
use crate::scratch::ComputeScratch;
use crate::traversal::{LeafInfo, TraversalKind, Tree};
use galactos_catalog::{Catalog, Galaxy};
use galactos_math::monomial::MonomialBasis;
use galactos_math::ylm::{YlmPairProductTable, YlmTable};
use galactos_math::{lm_count, lm_index, Complex64, Mat3, Vec3};
// The engine's clock reads go through the registered obs gate: zero
// reads when instrumentation is off, and every real read is counted so
// tests can pin the zero-cost contract (no local lint:allow needed —
// obs::clock is on the W-CLOCK allowlist by registration).
use galactos_obs::clock::{nanos_since, now_if};
use galactos_obs::ObsSession;
use std::time::Instant;

/// The anisotropic 3PCF engine. Construct once (tables are built at
/// construction), then [`Engine::compute`] any number of catalogs.
pub struct Engine {
    config: EngineConfig,
    basis: MonomialBasis,
    ylm: YlmTable,
    /// The kernel backend every worker accumulates with — the
    /// configured [`BackendChoice`](crate::kernel::BackendChoice)
    /// resolved once, not per worker.
    backend: BackendKind,
    /// The traversal mode every run uses — the configured
    /// [`TraversalChoice`](crate::traversal::TraversalChoice) resolved
    /// once, like the backend.
    traversal: TraversalKind,
    /// The estimator [`Engine::compute`] dispatches to — the configured
    /// [`EstimatorChoice`](crate::estimator::EstimatorChoice) resolved
    /// once, like the backend and the traversal.
    estimator: ResolvedEstimator,
    /// Degree-2ℓmax machinery for the self-pair (degenerate triangle)
    /// correction; present only when enabled.
    self_basis: Option<MonomialBasis>,
    self_table: Option<YlmPairProductTable>,
}

/// Per-primary context produced by the gather stage and consumed by the
/// later stages.
struct PrimaryContext {
    index: usize,
    pos: Vec3,
    weight: f64,
    rotation: Mat3,
    /// Identity-rotation fast path for the plane-parallel ẑ case.
    rotate: bool,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Self {
        config.validate();
        let basis = MonomialBasis::new(config.lmax);
        let ylm = YlmTable::new(config.lmax, &basis);
        let backend = config.kernel_backend.resolve();
        let traversal = config.traversal.resolve();
        let estimator = config.estimator.resolve();
        let (self_basis, self_table) = if config.subtract_self_pairs {
            let b2 = MonomialBasis::new(2 * config.lmax);
            let t2 = YlmPairProductTable::new(config.lmax, &b2);
            (Some(b2), Some(t2))
        } else {
            (None, None)
        };
        Engine {
            config,
            basis,
            ylm,
            backend,
            traversal,
            estimator,
            self_basis,
            self_table,
        }
    }

    #[inline]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The kernel backend this engine resolved at construction.
    #[inline]
    pub fn backend_kind(&self) -> BackendKind {
        self.backend
    }

    /// The traversal mode this engine resolved at construction.
    #[inline]
    pub fn traversal_kind(&self) -> TraversalKind {
        self.traversal
    }

    /// The estimator this engine resolved at construction.
    #[inline]
    pub fn estimator_kind(&self) -> EstimatorKind {
        self.estimator.kind()
    }

    /// Compute the anisotropic 3PCF of a catalog (every galaxy acts as a
    /// primary; periodic boxes use minimum-image separations),
    /// dispatching to the resolved estimator — the tree traversal or
    /// the FFT grid. [`Engine::compute_observed`] with a disabled
    /// session: zero clock reads.
    pub fn compute(&self, catalog: &Catalog) -> AnisotropicZeta {
        self.compute_observed(catalog, &ObsSession::disabled())
    }

    /// [`Engine::compute`] recording spans and metrics into an
    /// [`ObsSession`]. Both estimator paths are covered:
    ///
    /// * the tree path emits an `engine` span with a `tree_build` child
    ///   plus per-chunk worker spans (one obs track per worker thread)
    ///   carrying the `search`/`bin`/`kernel`/`assembly` stage
    ///   breakdown as aggregate slices, and totals it in the
    ///   `engine.{search,bin,kernel,assembly}_nanos` counters next to
    ///   the `engine.{chunks,binned_pairs,candidate_pairs}` work
    ///   counts;
    /// * the grid path emits a `grid` span under which `galactos-grid`
    ///   records its `paint`/`fields`/`contract`/`selfpair` breakdown
    ///   and the matching `grid.*_nanos` counters.
    ///
    /// With a disabled session this is exactly [`Engine::compute`]:
    /// zero clock reads, bit-identical results (test-pinned).
    pub fn compute_observed(&self, catalog: &Catalog, obs: &ObsSession) -> AnisotropicZeta {
        self.check_periodic(catalog);
        if let ResolvedEstimator::Grid(grid) = &self.estimator {
            let _g = obs.tracer.span("grid");
            return self.compute_grid(catalog, grid, obs);
        }
        let _g = obs.tracer.span("engine");
        self.run(&catalog.galaxies, catalog.len(), catalog.periodic, obs)
    }

    fn check_periodic(&self, catalog: &Catalog) {
        if let Some(box_len) = catalog.periodic {
            assert!(
                self.config.line_of_sight.is_uniform(),
                "periodic catalogs require a fixed line of sight"
            );
            assert!(
                self.config.bins.rmax() <= box_len * 0.5,
                "rmax must be <= box/2 for periodic queries"
            );
        }
    }

    /// Compute with only the first `n_primaries` galaxies acting as
    /// primaries; the remainder participate as secondaries only. This is
    /// the per-rank entry point of the distributed pipeline ("ignoring
    /// secondary galaxies that are in the k-d tree because of halo
    /// exchange"). Always runs the tree path: rank-local subsets are
    /// open point sets, which the periodic-convolution grid estimator
    /// cannot represent.
    pub fn compute_subset(&self, galaxies: &[Galaxy], n_primaries: usize) -> AnisotropicZeta {
        assert!(n_primaries <= galaxies.len());
        self.run(galaxies, n_primaries, None, &ObsSession::disabled())
    }

    /// The gridded estimator path: paint → FFT shell convolutions → ζ
    /// contraction, all inside `galactos-grid`, with this engine's
    /// radial binning, line-of-sight rotation and self-pair setting.
    ///
    /// Panics unless the catalog is periodic and the line of sight
    /// uniform — the two geometric assumptions of the periodic
    /// convolution formulation. `binned_pairs` stays 0 on the result:
    /// the grid path never enumerates pairs.
    fn compute_grid(
        &self,
        catalog: &Catalog,
        grid: &galactos_grid::GridConfig,
        obs: &ObsSession,
    ) -> AnisotropicZeta {
        assert!(
            catalog.periodic.is_some(),
            "the grid estimator requires a periodic catalog \
             (EstimatorChoice::Grid / GALACTOS_ESTIMATOR=grid on survey data: use the tree)"
        );
        assert!(
            self.config.line_of_sight.is_uniform(),
            "the grid estimator requires a fixed (plane-parallel) line of sight"
        );
        let rotation = self
            .config
            .line_of_sight
            .rotation_for(Vec3::ZERO)
            .expect("a fixed line of sight always has a rotation");
        let rotation = (rotation != Mat3::IDENTITY).then_some(rotation);
        let bins = &self.config.bins;
        let mut zeta = AnisotropicZeta::zeros(self.config.lmax, bins.nbins());
        galactos_grid::accumulate_zeta_multipoles(
            catalog,
            grid,
            self.config.lmax,
            bins.nbins(),
            rotation,
            &|r| bins.bin_of(r),
            self.config.subtract_self_pairs,
            obs,
            &mut |l, lp, m, b1, b2, v| zeta.add_to(l, lp, m, b1, b2, v),
        );
        zeta.total_primary_weight = catalog.total_weight();
        zeta.num_primaries = catalog.len() as u64;
        zeta
    }

    fn run(
        &self,
        galaxies: &[Galaxy],
        n_primaries: usize,
        periodic: Option<f64>,
        obs: &ObsSession,
    ) -> AnisotropicZeta {
        let positions: Vec<Vec3> = galaxies.iter().map(|g| g.pos).collect();
        let tree = {
            let _g = obs.tracer.span("tree_build");
            Tree::build(&positions, self.config.precision)
        };

        // Only an enabled session turns on the scratch nano counters
        // the per-chunk stage aggregates are drained from.
        let instrument = obs.is_enabled();
        let make_state = || {
            let mut scratch = self.new_scratch();
            scratch.instrument = instrument;
            scratch
        };
        let merge = || Merge {
            zero: || AnisotropicZeta::zeros(self.config.lmax, self.config.bins.nbins()),
            merge: |mut a: AnisotropicZeta, b| {
                a.merge(&b);
                a
            },
        };

        match self.traversal {
            TraversalKind::PerPrimary => schedule::run_partitioned(
                self.config.scheduling,
                n_primaries,
                make_state,
                |scratch, range| {
                    let _g = obs.tracer.span("chunk");
                    let n_items = range.len() as u64;
                    for i in range {
                        self.process_primary(scratch, galaxies, &tree, i, periodic);
                    }
                    Self::emit_chunk_obs(obs, scratch, n_items);
                },
                Self::finish_scratch,
                merge(),
            ),
            // Leaf-blocked: the schedule partitions over *leaf blocks*,
            // not raw primary indices, so each worker chunk is a set of
            // whole leaves and scratch reuse follows the tree's memory
            // layout (one candidate block per leaf, shared by all of
            // its primaries).
            TraversalKind::LeafBlocked => {
                let leaves = tree.leaf_blocks();
                schedule::run_partitioned(
                    self.config.scheduling,
                    leaves.len(),
                    make_state,
                    |scratch, range| {
                        let _g = obs.tracer.span("chunk");
                        let n_items = range.len() as u64;
                        for li in range {
                            self.process_leaf(
                                scratch,
                                galaxies,
                                &tree,
                                &leaves[li],
                                n_primaries,
                                periodic,
                            );
                        }
                        Self::emit_chunk_obs(obs, scratch, n_items);
                    },
                    Self::finish_scratch,
                    merge(),
                )
            }
        }
    }

    /// Drain a finished chunk's scratch counters into the obs session:
    /// the four tree stages as aggregate slices under the open `chunk`
    /// span (so the Chrome track shows the per-worker breakdown) and as
    /// `engine.*_nanos` registry counters, plus the pair counters.
    /// Aggregates make zero clock reads; with a disabled session every
    /// call here is a no-op.
    fn emit_chunk_obs(o: &ObsSession, scratch: &ComputeScratch, n_items: u64) {
        for (stage, counter, nanos) in [
            ("search", "engine.search_nanos", scratch.t_search),
            ("bin", "engine.bin_nanos", scratch.t_bin),
            ("kernel", "engine.kernel_nanos", scratch.t_kernel),
            ("assembly", "engine.assembly_nanos", scratch.t_assembly),
        ] {
            o.tracer.add_aggregate(stage, n_items, nanos);
            o.registry.add(counter, nanos);
        }
        o.registry.add("engine.chunks", 1);
        o.registry.add("engine.binned_pairs", scratch.binned_pairs);
        o.registry
            .add("engine.candidate_pairs", scratch.candidate_pairs);
    }

    /// Allocate worker scratch sized for this engine's configuration,
    /// with accumulation state from the resolved kernel backend.
    pub fn new_scratch(&self) -> ComputeScratch {
        let nmono2 = self.self_basis.as_ref().map_or(0, |b| b.len());
        ComputeScratch::new(&self.config, &self.basis, nmono2, self.backend)
    }

    /// Return a finished worker's ζ partial.
    fn finish_scratch(mut scratch: ComputeScratch) -> AnisotropicZeta {
        // Sole owner of the ζ-side pair counter (besides
        // [`ComputeScratch::partial`] for manual stage drivers): the
        // stage methods only bump the scratch-side counter.
        scratch.zeta.binned_pairs = scratch.binned_pairs;
        scratch.zeta
    }

    /// Run all four stages for primary `i`.
    fn process_primary(
        &self,
        scratch: &mut ComputeScratch,
        galaxies: &[Galaxy],
        tree: &Tree,
        i: usize,
        periodic: Option<f64>,
    ) {
        let Some(ctx) = self.gather(scratch, galaxies, tree, i, periodic) else {
            return; // degenerate line of sight (primary at the observer)
        };
        self.bin_and_bucket(scratch, galaxies, &ctx, periodic);
        self.assemble_alm(scratch);
        self.accumulate_zeta(scratch, &ctx);
    }

    /// Resolve the per-primary context (position, weight, line-of-sight
    /// rotation). Returns `None` for a degenerate line of sight
    /// (primary at the observer), which skips the primary entirely.
    fn primary_context(&self, galaxies: &[Galaxy], i: usize) -> Option<PrimaryContext> {
        let primary = galaxies[i];
        let rotation = self.config.line_of_sight.rotation_for(primary.pos)?;
        Some(PrimaryContext {
            index: i,
            pos: primary.pos,
            weight: primary.weight,
            rotation,
            rotate: rotation != Mat3::IDENTITY,
        })
    }

    /// Stage 1 (per-primary traversal) — resolve the primary's context
    /// and gather candidate secondaries within Rmax into the scratch's
    /// neighbor buffer. Returns `None` for a degenerate line of sight.
    fn gather(
        &self,
        scratch: &mut ComputeScratch,
        galaxies: &[Galaxy],
        tree: &Tree,
        i: usize,
        periodic: Option<f64>,
    ) -> Option<PrimaryContext> {
        let ctx = self.primary_context(galaxies, i)?;
        let t0 = now_if(scratch.instrument);
        let gathered = tree.gather_neighbors(
            ctx.pos,
            self.config.bins.rmax(),
            periodic,
            &mut scratch.neighbors,
        );
        scratch.t_search += nanos_since(t0);
        scratch.candidate_pairs += gathered as u64;
        Some(ctx)
    }

    /// Leaf-blocked counterpart of [`Engine::process_primary`]: gather
    /// the candidate set of one whole leaf into the scratch's SoA
    /// block, then run the bin→a_ℓm→ζ stages for every primary the
    /// leaf owns. Ghost galaxies (`id ≥ n_primaries`) participate only
    /// as candidates, never as primaries.
    fn process_leaf(
        &self,
        scratch: &mut ComputeScratch,
        galaxies: &[Galaxy],
        tree: &Tree,
        leaf: &LeafInfo,
        n_primaries: usize,
        periodic: Option<f64>,
    ) {
        // Leaves made entirely of halo ghosts (subset runs on
        // boundary-heavy ranks) own no primaries — skip the walk and
        // the block materialization outright.
        if !(leaf.start..leaf.end).any(|slot| (tree.id_at(slot) as usize) < n_primaries) {
            return;
        }
        let t0 = now_if(scratch.instrument);
        let n_candidates =
            scratch
                .block
                .fill(tree, leaf, self.config.bins.rmax(), periodic, galaxies) as u64;
        scratch.t_search += nanos_since(t0);
        for slot in leaf.start..leaf.end {
            let i = tree.id_at(slot) as usize;
            if i >= n_primaries {
                continue; // ghosts never act as primaries
            }
            let Some(ctx) = self.primary_context(galaxies, i) else {
                continue; // degenerate line of sight
            };
            // The block is shared by the whole leaf; each primary scans
            // all of it, so it counts as that many candidate pairs.
            scratch.candidate_pairs += n_candidates;
            self.bin_and_bucket_blocked(scratch, &ctx, periodic);
            self.assemble_alm(scratch);
            self.accumulate_zeta(scratch, &ctx);
        }
    }

    /// Reset the accumulation state a primary's stage 2 writes into.
    fn begin_binning(&self, scratch: &mut ComputeScratch) {
        scratch.acc.reset();
        if let Some(b2) = &self.self_basis {
            let nbins = self.config.bins.nbins();
            scratch.self_sums[..nbins * b2.len()]
                .iter_mut()
                .for_each(|v| *v = 0.0);
        }
    }

    /// Sweep partially filled buckets and fold the primary's
    /// counters/timings into the scratch.
    fn end_binning(
        &self,
        scratch: &mut ComputeScratch,
        t_start: Option<Instant>,
        mut kernel_nanos: u64,
        binned: u64,
    ) {
        let tk = now_if(scratch.instrument);
        scratch
            .acc
            .flush_residual(self.basis.schedule(), &mut scratch.buckets);
        kernel_nanos += nanos_since(tk);
        scratch.binned_pairs += binned;
        scratch.t_kernel += kernel_nanos;
        scratch.t_bin += nanos_since(t_start).saturating_sub(kernel_nanos);
    }

    /// The per-pair tail every traversal mode shares: radial cut,
    /// binning, line-of-sight rotation, normalization, bucket push with
    /// kernel flush, and the degree-2ℓmax self-pair sums. `delta`,
    /// `r = |delta|` and `inv_r = 1/r` are computed by the caller (they
    /// differ only in where the secondary's coordinates are loaded from
    /// and whether the sqrt/divide ran in a vector lane — both ops are
    /// correctly rounded, so lanes and scalars produce the same float),
    /// so both traversals run bit-identical pair arithmetic. For
    /// coincident points `inv_r` may be `inf`; the `r == 0` cut returns
    /// before it is read.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn bin_pair(
        &self,
        scratch: &mut ComputeScratch,
        ctx: &PrimaryContext,
        delta: Vec3,
        r: f64,
        inv_r: f64,
        wj: f64,
        binned: &mut u64,
        kernel_nanos: &mut u64,
    ) {
        if r == 0.0 {
            return; // coincident points: direction undefined
        }
        let Some(bin) = self.config.bins.bin_of(r) else {
            return;
        };
        let d = if ctx.rotate {
            ctx.rotation.mul_vec(delta)
        } else {
            delta
        };
        let (ux, uy, uz) = (d.x * inv_r, d.y * inv_r, d.z * inv_r);
        *binned += 1;
        if scratch.buckets.push(bin, ux, uy, uz, wj) {
            let tk = now_if(scratch.instrument);
            let (dx, dy, dz, w) = scratch.buckets.slices(bin);
            scratch
                .acc
                .flush_bucket(self.basis.schedule(), bin, dx, dy, dz, w);
            scratch.buckets.clear_bin(bin);
            *kernel_nanos += nanos_since(tk);
        }
        if let Some(b2) = &self.self_basis {
            // Degenerate-triangle sums: weight w² at degree ≤ 2ℓmax.
            let n2 = b2.len();
            b2.accumulate_into(
                ux,
                uy,
                uz,
                wj * wj,
                &mut scratch.self_scratch,
                &mut scratch.self_sums[bin * n2..(bin + 1) * n2],
            );
        }
    }

    /// Stage 2 — rotate each gathered separation into the line-of-sight
    /// frame, bin it into a radial shell, push it through the pair
    /// buckets, and flush full buckets through the multipole kernel
    /// (plus the degree-2ℓmax self-pair sums when enabled).
    fn bin_and_bucket(
        &self,
        scratch: &mut ComputeScratch,
        galaxies: &[Galaxy],
        ctx: &PrimaryContext,
        periodic: Option<f64>,
    ) {
        let t1 = now_if(scratch.instrument);
        self.begin_binning(scratch);
        let mut kernel_nanos = 0u64;
        let mut binned = 0u64;
        for idx in 0..scratch.neighbors.len() {
            let j = scratch.neighbors[idx] as usize;
            if j == ctx.index {
                continue;
            }
            let delta = match periodic {
                Some(l) => galaxies[j].pos.periodic_delta(ctx.pos, l),
                None => galaxies[j].pos - ctx.pos,
            };
            let r = delta.norm_sq().sqrt();
            let wj = galaxies[j].weight;
            self.bin_pair(
                scratch,
                ctx,
                delta,
                r,
                1.0 / r,
                wj,
                &mut binned,
                &mut kernel_nanos,
            );
        }
        self.end_binning(scratch, t1, kernel_nanos, binned);
    }

    /// Stage 2, leaf-blocked — Phase A
    /// ([`CandidateBlock::select_pairs`]) runs the distance² prefilter,
    /// the exact gather-radius cut (in the tree's own precision, so the
    /// binned pair set matches per-primary traversal exactly) and the
    /// separation square root and reciprocal in [`galactos_simd`] lanes
    /// over the SoA block, compacting survivors into staging arrays;
    /// Phase B streams
    /// the survivors through the shared rotate → bin → bucket tail.
    /// Each lane replicates the scalar arithmetic bit-exactly, so the
    /// accumulated ζ is identical to the former scalar split loop.
    fn bin_and_bucket_blocked(
        &self,
        scratch: &mut ComputeScratch,
        ctx: &PrimaryContext,
        periodic: Option<f64>,
    ) {
        let t1 = now_if(scratch.instrument);
        self.begin_binning(scratch);
        let mut kernel_nanos = 0u64;
        let mut binned = 0u64;

        let n_sel = scratch.block.select_pairs(
            ctx.pos,
            ctx.index as u32,
            periodic,
            self.config.bins.rmax(),
        );
        for s in 0..n_sel {
            let delta = Vec3::new(
                scratch.block.sel_dx[s],
                scratch.block.sel_dy[s],
                scratch.block.sel_dz[s],
            );
            let r = scratch.block.sel_r[s];
            let inv_r = scratch.block.sel_inv_r[s];
            let wj = scratch.block.sel_w[s];
            self.bin_pair(
                scratch,
                ctx,
                delta,
                r,
                inv_r,
                wj,
                &mut binned,
                &mut kernel_nanos,
            );
        }
        self.end_binning(scratch, t1, kernel_nanos, binned);
    }

    /// Stage 3 — reduce the per-bin monomial sums out of the kernel
    /// accumulator and assemble the shell coefficients `a_ℓm`.
    fn assemble_alm(&self, scratch: &mut ComputeScratch) {
        let t2 = now_if(scratch.instrument);
        let nbins = self.config.bins.nbins();
        let nmono = self.basis.len();
        let nlm = lm_count(self.config.lmax);
        for bin in 0..nbins {
            scratch
                .acc
                .reduce_bin(bin, &mut scratch.sums[bin * nmono..(bin + 1) * nmono]);
            self.ylm.assemble_alm(
                &scratch.sums[bin * nmono..(bin + 1) * nmono],
                &mut scratch.alm[bin * nlm..(bin + 1) * nlm],
            );
        }
        scratch.t_assembly += nanos_since(t2);
    }

    /// Stage 4 — accumulate the primary's ζ contribution from the shell
    /// coefficients, subtract the degenerate self-pair terms from
    /// diagonal bins when enabled, and fold in the primary's weight.
    fn accumulate_zeta(&self, scratch: &mut ComputeScratch, ctx: &PrimaryContext) {
        let t3 = now_if(scratch.instrument);
        let nbins = self.config.bins.nbins();
        let nlm = lm_count(self.config.lmax);
        let wi = ctx.weight;
        let lmax = self.config.lmax;
        for l in 0..=lmax {
            for lp in 0..=lmax {
                for m in 0..=l.min(lp) {
                    let i1 = lm_index(l, m);
                    let i2 = lm_index(lp, m);
                    for b1 in 0..nbins {
                        let a1 = scratch.alm[b1 * nlm + i1];
                        if a1 == Complex64::ZERO {
                            continue;
                        }
                        for b2 in 0..nbins {
                            let a2 = scratch.alm[b2 * nlm + i2];
                            let v = a1 * a2.conj() * wi;
                            scratch.zeta.add_to(l, lp, m, b1, b2, v);
                        }
                    }
                }
            }
        }
        // Remove the degenerate j = k terms from diagonal bins.
        if let (Some(b2), Some(t2b)) = (&self.self_basis, &self.self_table) {
            let n2 = b2.len();
            for bin in 0..nbins {
                let sums = &scratch.self_sums[bin * n2..(bin + 1) * n2];
                for l in 0..=lmax {
                    for lp in 0..=lmax {
                        for m in 0..=l.min(lp) {
                            let v = t2b.assemble(l, lp, m, sums) * wi;
                            scratch.zeta.add_to(l, lp, m, bin, bin, -v);
                        }
                    }
                }
            }
        }
        scratch.zeta.total_primary_weight += wi;
        scratch.zeta.num_primaries += 1;
        scratch.t_assembly += nanos_since(t3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, Scheduling, TreePrecision};
    use galactos_catalog::uniform_box;
    use galactos_math::LineOfSight;

    fn small_catalog(n: usize, box_len: f64, seed: u64) -> Catalog {
        let mut c = uniform_box(n, box_len, seed);
        c.periodic = None; // treat as plain point set unless stated
        c
    }

    #[test]
    fn zeta_l0_counts_weighted_pairs() {
        // ζ^0_{00}(b, b') = Σ_i w_i · a_00(b) a_00(b') with a_00 = Σ w/√(4π),
        // so the (0,0,0) coefficient is pair-count arithmetic we can
        // verify directly.
        let cat = small_catalog(40, 10.0, 3);
        let config = EngineConfig::test_default(6.0, 2, 3);
        let engine = Engine::new(config);
        let zeta = engine.compute(&cat);

        // Direct computation.
        let bins = &engine.config().bins;
        let mut want = vec![vec![0.0f64; 3]; 40]; // per-primary per-bin counts
        for i in 0..40 {
            for j in 0..40 {
                if i == j {
                    continue;
                }
                let r = cat.galaxies[i].pos.distance(cat.galaxies[j].pos);
                if let Some(b) = bins.bin_of(r) {
                    want[i][b] += 1.0;
                }
            }
        }
        let inv4pi = 1.0 / (4.0 * std::f64::consts::PI);
        for b1 in 0..3 {
            for b2 in 0..3 {
                let direct: f64 = (0..40).map(|i| want[i][b1] * want[i][b2]).sum();
                let got = zeta.get(0, 0, 0, b1, b2);
                assert!(
                    (got.re - direct * inv4pi).abs() < 1e-9 * (1.0 + direct),
                    "b1={b1} b2={b2}: {} vs {}",
                    got.re,
                    direct * inv4pi
                );
                assert!(got.im.abs() < 1e-10);
            }
        }
        assert_eq!(zeta.num_primaries, 40);
    }

    #[test]
    fn all_kernel_backends_agree_on_zeta() {
        use crate::kernel::BackendChoice;
        let cat = small_catalog(120, 12.0, 7);
        let mut config = EngineConfig::test_default(6.0, 4, 4);
        // Small bucket so both backends see full flushes AND ragged
        // tails.
        config.bucket_size = 12;
        config.kernel_backend = BackendChoice::Fixed(BackendKind::Scalar);
        let scalar = Engine::new(config.clone()).compute(&cat);
        config.kernel_backend = BackendChoice::Fixed(BackendKind::Simd);
        let engine = Engine::new(config);
        assert_eq!(engine.backend_kind(), BackendKind::Simd);
        let got = engine.compute(&cat);
        let scale = scalar.max_abs().max(1.0);
        assert!(
            got.max_difference(&scalar) < 1e-9 * scale,
            "simd diff {}",
            got.max_difference(&scalar)
        );
        assert_eq!(got.binned_pairs, scalar.binned_pairs);
    }

    #[test]
    fn mixed_precision_close_to_double() {
        let cat = small_catalog(150, 15.0, 9);
        let mut config = EngineConfig::test_default(6.0, 3, 3);
        config.precision = TreePrecision::Double;
        let double = Engine::new(config.clone()).compute(&cat);
        config.precision = TreePrecision::Mixed;
        let mixed = Engine::new(config).compute(&cat);
        // The tree only gates *which* pairs are found; far from bin
        // edges results are identical. Allow a tiny relative difference
        // for boundary flips.
        let scale = double.max_abs().max(1.0);
        assert!(
            mixed.max_difference(&double) < 1e-3 * scale,
            "diff {}",
            mixed.max_difference(&double)
        );
    }

    #[test]
    fn static_and_dynamic_scheduling_agree() {
        let cat = small_catalog(100, 10.0, 11);
        let mut config = EngineConfig::test_default(5.0, 3, 3);
        config.scheduling = Scheduling::Dynamic;
        let dynamic = Engine::new(config.clone()).compute(&cat);
        config.scheduling = Scheduling::Static;
        let fixed = Engine::new(config).compute(&cat);
        let scale = dynamic.max_abs().max(1.0);
        assert!(dynamic.max_difference(&fixed) < 1e-9 * scale);
        assert_eq!(dynamic.num_primaries, fixed.num_primaries);
        assert_eq!(dynamic.binned_pairs, fixed.binned_pairs);
    }

    #[test]
    fn subset_restricts_primaries() {
        let cat = small_catalog(60, 10.0, 13);
        let config = EngineConfig::test_default(5.0, 2, 2);
        let engine = Engine::new(config);
        let z = engine.compute_subset(&cat.galaxies, 10);
        assert_eq!(z.num_primaries, 10);
        assert_eq!(z.total_primary_weight, 10.0);
    }

    #[test]
    fn periodic_wraps_neighbors() {
        // Two galaxies near opposite faces: only the periodic run pairs
        // them.
        let galaxies = vec![
            Galaxy::unit(Vec3::new(0.5, 5.0, 5.0)),
            Galaxy::unit(Vec3::new(9.5, 5.0, 5.0)),
        ];
        let config = EngineConfig::test_default(2.0, 1, 2);
        let engine = Engine::new(config);
        let open = Catalog::new(galaxies.clone());
        let z_open = engine.compute(&open);
        assert_eq!(z_open.binned_pairs, 0);
        let wrapped = Catalog::new_periodic(galaxies, 10.0);
        let z_wrap = engine.compute(&wrapped);
        assert_eq!(z_wrap.binned_pairs, 2);
    }

    #[test]
    fn radial_los_runs_and_skips_degenerate_primary() {
        let mut cat = small_catalog(30, 8.0, 17);
        // Place one galaxy exactly at the observer.
        cat.galaxies[0].pos = Vec3::ZERO;
        let mut config = EngineConfig::test_default(4.0, 2, 2);
        config.line_of_sight = LineOfSight::Radial {
            observer: Vec3::ZERO,
        };
        let engine = Engine::new(config);
        let z = engine.compute(&cat);
        // 29 usable primaries (the one at the observer is skipped).
        assert_eq!(z.num_primaries, 29);
    }

    #[test]
    fn instrumentation_reports_stages_and_flops() {
        let cat = small_catalog(200, 10.0, 19);
        let config = EngineConfig::test_default(4.0, 3, 3);
        let engine = Engine::new(config);
        let obs = ObsSession::enabled();
        let z = engine.compute_observed(&cat, &obs);
        let tree_build = obs
            .tracer
            .finished()
            .into_iter()
            .find(|s| s.path == "engine/tree_build")
            .expect("tree_build span recorded");
        assert!(tree_build.duration_nanos() > 0);
        assert!(obs.registry.counter_value("engine.kernel_nanos") > 0);
        let binned = obs.registry.counter_value("engine.binned_pairs");
        assert_eq!(binned, z.binned_pairs);
        assert!(binned * crate::flops::kernel_flops_per_pair(3) > 0);
    }

    #[test]
    fn bucket_size_does_not_change_results() {
        let cat = small_catalog(90, 9.0, 23);
        let mut config = EngineConfig::test_default(5.0, 3, 3);
        config.bucket_size = 4;
        let small = Engine::new(config.clone()).compute(&cat);
        config.bucket_size = 256;
        let large = Engine::new(config).compute(&cat);
        let scale = small.max_abs().max(1.0);
        assert!(small.max_difference(&large) < 1e-9 * scale);
    }

    #[test]
    fn stages_compose_to_full_primary_processing() {
        // Drive the four stage methods by hand for one primary and
        // check the scratch partial matches a one-primary subset run.
        // Pinned to per-primary traversal: the comparison is exact
        // (== 0.0), so the subset run must accumulate pairs in the
        // same order as the manually driven gather stage.
        let cat = small_catalog(50, 10.0, 31);
        let mut config = EngineConfig::test_default(5.0, 2, 3);
        config.traversal = crate::traversal::TraversalChoice::Fixed(TraversalKind::PerPrimary);
        let engine = Engine::new(config);
        let want = engine.compute_subset(&cat.galaxies, 1);

        let positions: Vec<Vec3> = cat.galaxies.iter().map(|g| g.pos).collect();
        let tree = Tree::build(&positions, engine.config().precision);
        let mut scratch = engine.new_scratch();
        let ctx = engine
            .gather(&mut scratch, &cat.galaxies, &tree, 0, None)
            .expect("fixed line of sight is never degenerate");
        engine.bin_and_bucket(&mut scratch, &cat.galaxies, &ctx, None);
        engine.assemble_alm(&mut scratch);
        engine.accumulate_zeta(&mut scratch, &ctx);
        assert_eq!(scratch.partial().max_difference(&want), 0.0);
        assert_eq!(scratch.partial().num_primaries, 1);
        assert_eq!(scratch.partial().binned_pairs, want.binned_pairs);

        // The scratch is reusable: reset and process the same primary
        // again; the partial must be identical, not doubled.
        scratch.reset();
        let ctx = engine
            .gather(&mut scratch, &cat.galaxies, &tree, 0, None)
            .unwrap();
        engine.bin_and_bucket(&mut scratch, &cat.galaxies, &ctx, None);
        engine.assemble_alm(&mut scratch);
        engine.accumulate_zeta(&mut scratch, &ctx);
        assert_eq!(scratch.partial().max_difference(&want), 0.0);
    }

    #[test]
    fn manual_stage_driving_reports_binned_pairs() {
        // Regression for the duplicated `zeta.binned_pairs` bookkeeping:
        // the counter is now copied onto the ζ partial only by
        // `finish_scratch` and `ComputeScratch::partial`, so driving
        // stages by hand (never reaching finish_scratch) must still
        // observe the correct count after every primary.
        let cat = small_catalog(40, 10.0, 37);
        let mut config = EngineConfig::test_default(5.0, 1, 2);
        config.traversal = crate::traversal::TraversalChoice::Fixed(TraversalKind::PerPrimary);
        let engine = Engine::new(config);

        let positions: Vec<Vec3> = cat.galaxies.iter().map(|g| g.pos).collect();
        let tree = Tree::build(&positions, engine.config().precision);
        let mut scratch = engine.new_scratch();
        let mut want = 0u64;
        for i in 0..3 {
            let ctx = engine
                .gather(&mut scratch, &cat.galaxies, &tree, i, None)
                .unwrap();
            engine.bin_and_bucket(&mut scratch, &cat.galaxies, &ctx, None);
            engine.assemble_alm(&mut scratch);
            engine.accumulate_zeta(&mut scratch, &ctx);
            // Cumulative count over primaries 0..=i equals a subset run
            // with i + 1 primaries.
            want = engine.compute_subset(&cat.galaxies, i + 1).binned_pairs;
            assert_eq!(scratch.partial().binned_pairs, want, "after primary {i}");
        }
        assert!(want > 0, "test catalog must produce pairs");
    }
}
