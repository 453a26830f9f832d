//! Criterion microbenchmarks of the performance-critical kernels.
//!
//! * `multipole_kernel` — SIMD vs scalar bucket accumulation at the
//!   paper's parameters (ℓmax = 10, bucket 128): the vectorization win
//!   of §3.3.2.
//! * `residual_sweep` — the end-of-primary sweep of ragged bucket
//!   tails, per backend: simd pays one mostly-empty lane chunk per
//!   bin here, its worst case against scalar.
//! * `bucketing` — one 128-pair flush vs 128 single-pair flushes: the
//!   pre-binning win of §3.3.1.
//! * `alm_strategies` — monomial-schedule a_ℓm assembly vs direct
//!   transcendental Y_ℓm evaluation: the reason the kernel exists.
//! * `neighbor_search` — k-d tree vs brute force fixed-radius gather.
//! * `fft3` — the 3-D FFT behind the mock generator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use galactos_core::kernel::scalar::accumulate_bucket_scalar;
use galactos_core::kernel::simd::accumulate_bucket_simd;
use galactos_core::kernel::testutil::random_bucket;
use galactos_core::kernel::{BackendKind, KernelAccumulator, PairBuckets};
use galactos_kdtree::{BruteForce, KdTree, TreeConfig};
use galactos_math::monomial::MonomialBasis;
use galactos_math::sphharm::ylm_all_cartesian;
use galactos_math::ylm::YlmTable;
use galactos_math::{lm_count, Complex64, Vec3};
use galactos_simd::{F64x8, ILP_BATCHES};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_multipole_kernel(c: &mut Criterion) {
    let basis = MonomialBasis::new(10);
    let nmono = basis.len();
    let (dx, dy, dz, w) = random_bucket(128, 1);
    let mut group = c.benchmark_group("multipole_kernel");
    group.throughput(criterion::Throughput::Elements(128));

    group.bench_function("simd_lmax10_bucket128", |b| {
        let mut scratch = vec![F64x8::ZERO; ILP_BATCHES * nmono];
        let mut acc = vec![F64x8::ZERO; nmono];
        b.iter(|| {
            accumulate_bucket_simd(
                basis.schedule(),
                black_box(&dx),
                black_box(&dy),
                black_box(&dz),
                black_box(&w),
                &mut scratch,
                &mut acc,
            );
        });
        black_box(acc[0].horizontal_sum());
    });

    group.bench_function("scalar_lmax10_bucket128", |b| {
        let mut scratch = vec![0.0; nmono];
        let mut sums = vec![0.0; nmono];
        b.iter(|| {
            accumulate_bucket_scalar(
                basis.schedule(),
                black_box(&dx),
                black_box(&dy),
                black_box(&dz),
                black_box(&w),
                &mut scratch,
                &mut sums,
            );
        });
        black_box(sums[0]);
    });
    group.finish();
}

fn bench_residual_sweep(c: &mut Criterion) {
    // The end-of-primary shape: 10 bins, each holding a small ragged
    // tail (3 pairs), flushed through flush_residual: simd pays one
    // mostly-empty chunk per bin.
    let basis = MonomialBasis::new(10);
    let nbins = 10;
    let tail = 3;
    let (dx, dy, dz, w) = random_bucket(nbins * tail, 7);
    let mut group = c.benchmark_group("residual_sweep");
    group.throughput(criterion::Throughput::Elements((nbins * tail) as u64));

    for kind in BackendKind::ALL {
        group.bench_function(BenchmarkId::new("tails_3x10bins", kind.name()), |b| {
            let mut acc = KernelAccumulator::new(kind, nbins, basis.len());
            let mut buckets = PairBuckets::new(nbins, 128);
            b.iter(|| {
                acc.reset();
                for bin in 0..nbins {
                    for t in 0..tail {
                        let i = bin * tail + t;
                        buckets.push(bin, dx[i], dy[i], dz[i], w[i]);
                    }
                }
                acc.flush_residual(black_box(basis.schedule()), &mut buckets);
            });
        });
    }
    group.finish();
}

fn bench_bucketing(c: &mut Criterion) {
    let basis = MonomialBasis::new(10);
    let nmono = basis.len();
    let (dx, dy, dz, w) = random_bucket(128, 2);
    let mut group = c.benchmark_group("bucketing");
    group.throughput(criterion::Throughput::Elements(128));

    group.bench_function("one_flush_of_128", |b| {
        let mut scratch = vec![F64x8::ZERO; ILP_BATCHES * nmono];
        let mut acc = vec![F64x8::ZERO; nmono];
        b.iter(|| {
            accumulate_bucket_simd(
                basis.schedule(),
                black_box(&dx),
                black_box(&dy),
                black_box(&dz),
                black_box(&w),
                &mut scratch,
                &mut acc,
            )
        });
    });

    group.bench_function("128_flushes_of_1", |b| {
        let mut scratch = vec![F64x8::ZERO; ILP_BATCHES * nmono];
        let mut acc = vec![F64x8::ZERO; nmono];
        b.iter(|| {
            for i in 0..128 {
                accumulate_bucket_simd(
                    basis.schedule(),
                    black_box(&dx[i..=i]),
                    black_box(&dy[i..=i]),
                    black_box(&dz[i..=i]),
                    black_box(&w[i..=i]),
                    &mut scratch,
                    &mut acc,
                );
            }
        });
    });
    group.finish();
}

fn bench_alm_strategies(c: &mut Criterion) {
    let lmax = 10;
    let basis = MonomialBasis::new(lmax);
    let table = YlmTable::new(lmax, &basis);
    let nmono = basis.len();
    let (dx, dy, dz, w) = random_bucket(128, 3);
    let mut group = c.benchmark_group("alm_strategies");
    group.throughput(criterion::Throughput::Elements(128));

    group.bench_function("monomials_then_assemble", |b| {
        let mut scratch = vec![F64x8::ZERO; ILP_BATCHES * nmono];
        let mut alm = vec![Complex64::ZERO; lm_count(lmax)];
        b.iter(|| {
            let mut acc = vec![F64x8::ZERO; nmono];
            accumulate_bucket_simd(
                basis.schedule(),
                black_box(&dx),
                black_box(&dy),
                black_box(&dz),
                black_box(&w),
                &mut scratch,
                &mut acc,
            );
            let sums: Vec<f64> = acc.iter().map(|v| v.horizontal_sum()).collect();
            table.assemble_alm(&sums, &mut alm);
            black_box(alm[3]);
        });
    });

    group.bench_function("direct_ylm_per_pair", |b| {
        let mut ybuf = vec![Complex64::ZERO; lm_count(lmax)];
        let mut alm = vec![Complex64::ZERO; lm_count(lmax)];
        b.iter(|| {
            alm.iter_mut().for_each(|v| *v = Complex64::ZERO);
            for i in 0..128 {
                ylm_all_cartesian(lmax, Vec3::new(dx[i], dy[i], dz[i]), &mut ybuf);
                for (a, y) in alm.iter_mut().zip(ybuf.iter()) {
                    *a += *y * w[i];
                }
            }
            black_box(alm[3]);
        });
    });
    group.finish();
}

fn bench_neighbor_search(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let n = 10_000;
    let box_len = 52.0; // Outer Rim density for 10k galaxies
    let points: Vec<Vec3> = (0..n)
        .map(|_| {
            Vec3::new(
                rng.random_range(0.0..box_len),
                rng.random_range(0.0..box_len),
                rng.random_range(0.0..box_len),
            )
        })
        .collect();
    let radius = 10.0;
    let tree32 = KdTree::<f32>::build(&points, TreeConfig::default());
    let tree64 = KdTree::<f64>::build(&points, TreeConfig::default());
    let brute = BruteForce::new(&points);
    let queries: Vec<Vec3> = points.iter().step_by(100).copied().collect();

    let mut group = c.benchmark_group("neighbor_search");
    group.throughput(criterion::Throughput::Elements(queries.len() as u64));
    group.bench_function(BenchmarkId::new("kdtree", "f32"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &q in &queries {
                tree32.for_each_within(q, radius, &mut |_| total += 1);
            }
            black_box(total)
        })
    });
    group.bench_function(BenchmarkId::new("kdtree", "f64"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &q in &queries {
                tree64.for_each_within(q, radius, &mut |_| total += 1);
            }
            black_box(total)
        })
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &q in &queries {
                total += brute.within(q, radius).len();
            }
            black_box(total)
        })
    });
    group.finish();
}

fn bench_fft3(c: &mut Criterion) {
    use galactos_mocks::fft::{Direction, Mesh3};
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let n = 32;
    let values: Vec<f64> = (0..n * n * n)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    c.bench_function("fft3_32cubed", |b| {
        b.iter(|| {
            let mut mesh = Mesh3::from_real(n, black_box(&values));
            mesh.fft3(Direction::Forward);
            black_box(mesh.get(1, 2, 3));
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_multipole_kernel, bench_residual_sweep, bench_bucketing, bench_alm_strategies, bench_neighbor_search, bench_fft3
}
criterion_main!(benches);
