//! Per-worker compute scratch (formerly the engine-private
//! `ThreadState`).
//!
//! One [`ComputeScratch`] holds everything a worker needs to process
//! primaries without allocating: the neighbor id buffer, the pair
//! buckets, the SIMD/scalar kernel accumulator, reduced monomial sums,
//! shell coefficients, the self-pair correction buffers, and the
//! worker's private ζ partial plus instrumentation counters. Workers
//! own their scratch exclusively ("maximum independent work for each
//! thread"); partials are merged once at the end of a run.
//!
//! The scratch is reusable: [`ComputeScratch::reset`] returns it to the
//! freshly-constructed state so callers that manage their own workers
//! (or reuse scratch across engine calls) can avoid reallocation.

use crate::config::EngineConfig;
use crate::kernel::{BackendKind, KernelAccumulator, PairBuckets};
use crate::result::AnisotropicZeta;
use crate::traversal::CandidateBlock;
use galactos_math::monomial::MonomialBasis;
use galactos_math::{lm_count, Complex64};

/// Working state for one compute worker.
pub struct ComputeScratch {
    /// Neighbor ids gathered for the current primary (per-primary
    /// traversal).
    pub(crate) neighbors: Vec<u32>,
    /// Candidate SoA for the current primary leaf (leaf-blocked
    /// traversal).
    pub(crate) block: CandidateBlock,
    /// Per-bin pair buckets (pre-binning, §3.3.1).
    pub(crate) buckets: PairBuckets,
    /// Deferred-reduction multipole accumulator (§3.3.2).
    pub(crate) acc: KernelAccumulator,
    /// Reduced monomial sums, `nbins × nmono`.
    pub(crate) sums: Vec<f64>,
    /// Shell coefficients, `nbins × lm_count`.
    pub(crate) alm: Vec<Complex64>,
    /// Monomial evaluation scratch for the self-pair basis.
    pub(crate) self_scratch: Vec<f64>,
    /// Self-pair monomial sums (degree ≤ 2ℓmax), `nbins × nmono2`.
    pub(crate) self_sums: Vec<f64>,
    /// This worker's ζ partial.
    pub(crate) zeta: AnisotropicZeta,
    pub(crate) binned_pairs: u64,
    pub(crate) candidate_pairs: u64,
    /// Whether stage timings are being collected. When `false` (the
    /// default — any run without an enabled
    /// [`ObsSession`](galactos_obs::ObsSession)) the engine's stage
    /// methods skip every clock read, so uninstrumented runs pay zero
    /// timing overhead on the hot path; the `t_*` counters then stay 0.
    pub(crate) instrument: bool,
    pub(crate) t_search: u64,
    pub(crate) t_bin: u64,
    pub(crate) t_kernel: u64,
    pub(crate) t_assembly: u64,
}

impl ComputeScratch {
    /// Allocate scratch sized for `config`, with monomial counts taken
    /// from the engine's bases (`nmono2` = 0 when self-pair subtraction
    /// is off) and the kernel accumulation state of `backend` — the
    /// engine resolves its configured [`BackendChoice`](
    /// crate::kernel::BackendChoice) once at construction and passes
    /// the resolved kind here for every worker.
    pub(crate) fn new(
        config: &EngineConfig,
        basis: &MonomialBasis,
        nmono2: usize,
        backend: BackendKind,
    ) -> Self {
        let nbins = config.bins.nbins();
        let nmono = basis.len();
        let acc = KernelAccumulator::new(backend, nbins, nmono);
        ComputeScratch {
            neighbors: Vec::with_capacity(1024),
            block: CandidateBlock::new(),
            buckets: PairBuckets::new(nbins, config.bucket_size),
            acc,
            sums: vec![0.0; nbins * nmono],
            alm: vec![Complex64::ZERO; nbins * lm_count(config.lmax)],
            self_scratch: vec![0.0; nmono2],
            self_sums: vec![0.0; nbins * nmono2],
            zeta: AnisotropicZeta::zeros(config.lmax, nbins),
            binned_pairs: 0,
            candidate_pairs: 0,
            instrument: false,
            t_search: 0,
            t_bin: 0,
            t_kernel: 0,
            t_assembly: 0,
        }
    }

    /// Return the scratch to its freshly-constructed state (buffers
    /// keep their capacity) so it can be reused for another run.
    pub fn reset(&mut self) {
        self.neighbors.clear();
        self.block.clear();
        self.buckets.clear_all();
        self.acc.reset();
        self.sums.iter_mut().for_each(|v| *v = 0.0);
        self.alm.iter_mut().for_each(|v| *v = Complex64::ZERO);
        self.self_scratch.iter_mut().for_each(|v| *v = 0.0);
        self.self_sums.iter_mut().for_each(|v| *v = 0.0);
        self.zeta
            .data_mut()
            .iter_mut()
            .for_each(|v| *v = Complex64::ZERO);
        self.zeta.total_primary_weight = 0.0;
        self.zeta.num_primaries = 0;
        self.zeta.binned_pairs = 0;
        self.binned_pairs = 0;
        self.candidate_pairs = 0;
        self.t_search = 0;
        self.t_bin = 0;
        self.t_kernel = 0;
        self.t_assembly = 0;
    }

    /// The ζ partial accumulated so far (primarily for tests and
    /// callers driving stages manually).
    ///
    /// The pair counter lives on the scratch while stages run and is
    /// copied onto the ζ partial exactly once, here and in the
    /// engine's end-of-worker `finish_scratch` — the stage methods
    /// themselves never touch `zeta.binned_pairs`.
    pub fn partial(&mut self) -> &AnisotropicZeta {
        self.zeta.binned_pairs = self.binned_pairs;
        &self.zeta
    }

    /// Which kernel backend this scratch accumulates with.
    pub fn backend_kind(&self) -> BackendKind {
        self.acc.kind()
    }
}
