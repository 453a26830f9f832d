//! Unified accumulator over the kernel backends.
//!
//! [`KernelAccumulator`] is the per-worker accumulation state of one
//! [`BackendKind`]. It is an enum, not a trait object, so the
//! per-bucket hot path stays statically dispatched.

use crate::kernel::backend::BackendKind;
use crate::kernel::buckets::PairBuckets;
use crate::kernel::scalar::accumulate_bucket_scalar;
use crate::kernel::simd::accumulate_bucket_simd;
use galactos_math::monomial::UpdateStep;
use galactos_simd::{F64x8, ILP_BATCHES};

/// Per-(bin, monomial) accumulation state for one thread: 8-lane
/// vectors with a deferred reduction (the paper's layout) or plain
/// scalar sums (the reference path).
#[derive(Clone, Debug)]
pub enum KernelAccumulator {
    Simd {
        nbins: usize,
        nmono: usize,
        /// `lanes[bin * nmono + mono]`
        lanes: Vec<F64x8>,
        scratch: Vec<F64x8>,
    },
    Scalar {
        nbins: usize,
        nmono: usize,
        /// `sums[bin * nmono + mono]`
        sums: Vec<f64>,
        scratch: Vec<f64>,
    },
}

impl KernelAccumulator {
    /// Allocate `kind`'s accumulation state for `nbins` radial bins and
    /// `nmono` monomials.
    pub fn new(kind: BackendKind, nbins: usize, nmono: usize) -> Self {
        match kind {
            BackendKind::Simd => KernelAccumulator::Simd {
                nbins,
                nmono,
                lanes: vec![F64x8::ZERO; nbins * nmono],
                scratch: vec![F64x8::ZERO; ILP_BATCHES * nmono],
            },
            BackendKind::Scalar => KernelAccumulator::Scalar {
                nbins,
                nmono,
                sums: vec![0.0; nbins * nmono],
                scratch: vec![0.0; nmono],
            },
        }
    }

    /// Which backend this accumulator belongs to.
    #[inline]
    pub fn kind(&self) -> BackendKind {
        match self {
            KernelAccumulator::Simd { .. } => BackendKind::Simd,
            KernelAccumulator::Scalar { .. } => BackendKind::Scalar,
        }
    }

    #[inline]
    pub fn nmono(&self) -> usize {
        match self {
            KernelAccumulator::Simd { nmono, .. } => *nmono,
            KernelAccumulator::Scalar { nmono, .. } => *nmono,
        }
    }

    /// Zero all accumulators (start of a new primary).
    pub fn reset(&mut self) {
        match self {
            KernelAccumulator::Simd { lanes, .. } => {
                lanes.iter_mut().for_each(|v| *v = F64x8::ZERO);
            }
            KernelAccumulator::Scalar { sums, .. } => {
                sums.iter_mut().for_each(|v| *v = 0.0);
            }
        }
    }

    /// Flush one bucket of pairs into `bin`'s accumulators.
    pub fn flush_bucket(
        &mut self,
        schedule: &[UpdateStep],
        bin: usize,
        dx: &[f64],
        dy: &[f64],
        dz: &[f64],
        w: &[f64],
    ) {
        match self {
            KernelAccumulator::Simd {
                nmono,
                lanes,
                scratch,
                ..
            } => {
                let acc = &mut lanes[bin * *nmono..(bin + 1) * *nmono];
                accumulate_bucket_simd(schedule, dx, dy, dz, w, scratch, acc);
            }
            KernelAccumulator::Scalar {
                nmono,
                sums,
                scratch,
                ..
            } => {
                let acc = &mut sums[bin * *nmono..(bin + 1) * *nmono];
                accumulate_bucket_scalar(schedule, dx, dy, dz, w, scratch, acc);
            }
        }
    }

    /// Flush every non-empty (typically partially filled) bucket — the
    /// end-of-primary sweep: "the buckets are swept once more, as they
    /// likely are only partially filled". All buckets are cleared.
    pub fn flush_residual(&mut self, schedule: &[UpdateStep], buckets: &mut PairBuckets) {
        for bin in 0..buckets.nbins() {
            if buckets.is_empty(bin) {
                continue;
            }
            let (dx, dy, dz, w) = buckets.slices(bin);
            // Slices borrow `buckets` immutably while `self` is
            // disjoint state, so no copy is needed.
            self.flush_bucket(schedule, bin, dx, dy, dz, w);
            buckets.clear_bin(bin);
        }
    }

    /// Reduce a bin's accumulators into plain sums — the single deferred
    /// reduction per multipole of §3.3.2.
    pub fn reduce_bin(&self, bin: usize, out: &mut [f64]) {
        match self {
            KernelAccumulator::Simd { nmono, lanes, .. } => {
                debug_assert_eq!(out.len(), *nmono);
                let acc = &lanes[bin * *nmono..(bin + 1) * *nmono];
                for (o, v) in out.iter_mut().zip(acc.iter()) {
                    *o = v.horizontal_sum();
                }
            }
            KernelAccumulator::Scalar { nmono, sums, .. } => {
                out.copy_from_slice(&sums[bin * *nmono..(bin + 1) * *nmono]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::backend::BackendKind;
    use crate::kernel::testutil::{check_backend_stream_vs_scalar, check_backend_vs_scalar};
    use galactos_math::monomial::MonomialBasis;

    #[test]
    fn all_backends_agree_on_shared_buckets() {
        let basis = MonomialBasis::new(4);
        let nmono = basis.len();
        let dx = [0.6, -0.8, 0.0, 0.36];
        let dy = [0.0, 0.6, 0.6, -0.48];
        let dz = [0.8, 0.0, -0.8, 0.8];
        let w = [1.0, 0.5, 2.0, 1.5];

        let mut accs: Vec<KernelAccumulator> = BackendKind::ALL
            .iter()
            .map(|&k| KernelAccumulator::new(k, 2, nmono))
            .collect();
        for acc in &mut accs {
            acc.flush_bucket(basis.schedule(), 1, &dx, &dy, &dz, &w);
            acc.flush_bucket(basis.schedule(), 0, &dx[..2], &dy[..2], &dz[..2], &w[..2]);
        }
        let mut reference = vec![0.0; nmono];
        let mut got = vec![0.0; nmono];
        for bin in 0..2 {
            accs[0].reduce_bin(bin, &mut reference);
            for acc in &accs[1..] {
                acc.reduce_bin(bin, &mut got);
                for i in 0..nmono {
                    assert!(
                        (got[i] - reference[i]).abs() < 1e-12 * (1.0 + reference[i].abs()),
                        "{:?} bin {bin} mono {i}",
                        acc.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn every_backend_matches_scalar_on_one_bucket() {
        for kind in BackendKind::ALL {
            for n in [0usize, 1, 7, 8, 33, 128] {
                check_backend_vs_scalar(kind, 5, n, 17 + n as u64, 1e-11);
            }
        }
    }

    #[test]
    fn every_backend_matches_scalar_on_engine_style_streams() {
        for kind in BackendKind::ALL {
            // Capacity 16 (lane-aligned) and 10 (ragged full flushes).
            check_backend_stream_vs_scalar(kind, 4, 5, 16, 700, 3, 1e-11);
            check_backend_stream_vs_scalar(kind, 4, 5, 10, 700, 4, 1e-11);
        }
    }

    #[test]
    fn reset_zeroes_state_for_all_backends() {
        let basis = MonomialBasis::new(3);
        let nmono = basis.len();
        for kind in BackendKind::ALL {
            let mut acc = KernelAccumulator::new(kind, 1, nmono);
            acc.flush_bucket(basis.schedule(), 0, &[0.5], &[0.5], &[0.707], &[1.0]);
            acc.reset();
            let mut out = vec![1.0; nmono];
            acc.reduce_bin(0, &mut out);
            assert!(out.iter().all(|&v| v == 0.0), "{kind:?}");
        }
    }

    #[test]
    fn new_reports_its_kind_and_shape() {
        for kind in BackendKind::ALL {
            let acc = KernelAccumulator::new(kind, 2, 4);
            assert_eq!(acc.kind(), kind);
            assert_eq!(acc.nmono(), 4);
        }
    }

    #[test]
    fn flush_residual_sweeps_and_clears_all_bins() {
        let basis = MonomialBasis::new(2);
        let nmono = basis.len();
        for kind in BackendKind::ALL {
            let mut acc = KernelAccumulator::new(kind, 3, nmono);
            let mut buckets = PairBuckets::new(3, 8);
            buckets.push(0, 1.0, 0.0, 0.0, 1.0);
            buckets.push(2, 0.0, 0.0, 1.0, 2.0);
            acc.flush_residual(basis.schedule(), &mut buckets);
            assert_eq!(buckets.non_empty_bins().count(), 0, "{kind:?}");
            let mut out = vec![0.0; nmono];
            acc.reduce_bin(0, &mut out);
            assert!((out[0] - 1.0).abs() < 1e-15, "{kind:?} Σw bin 0");
            acc.reduce_bin(2, &mut out);
            assert!((out[0] - 2.0).abs() < 1e-15, "{kind:?} Σw bin 2");
            acc.reduce_bin(1, &mut out);
            assert_eq!(out[0], 0.0, "{kind:?} empty bin");
        }
    }
}
