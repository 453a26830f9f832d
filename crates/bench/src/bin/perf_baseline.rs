//! `perf_baseline` — the kernel-backend performance baseline.
//!
//! Times every [`BackendKind`] three ways and writes the lot to a
//! machine-readable JSON file (default `BENCH_kernels.json`) so the hot
//! path's trajectory can be tracked PR over PR:
//!
//! 1. **grid** — single-threaded engine-style bucket streams across an
//!    ℓmax × bucket-size grid (always including the paper's production
//!    point, ℓmax = 10 / bucket 128);
//! 2. **threaded** — primaries distributed by
//!    [`schedule::run_partitioned`], each worker owning a backend
//!    accumulator, at the host thread count;
//! 3. **engine** — the full engine on a clustered catalog;
//! 4. **traversal** — the full engine at the paper point (ℓmax 10,
//!    10 radial bins) on a ≥50k-galaxy clustered catalog, per-primary
//!    vs leaf-blocked traversal, recording the speedup and the
//!    cross-mode equivalence.
//!
//! A `host` block records what the numbers were measured on: the
//! target architecture, the vector features the binary was compiled
//! with, the thread-pool width and the backend [`detect`] resolves to.
//!
//! Every backend is checked against the scalar reference while being
//! timed, and leaf-blocked traversal against per-primary (1e-9
//! relative — the modes bin identical pairs in different order); the
//! process exits nonzero if any disagreement exceeds its tolerance,
//! which is what CI's `bench-smoke` job relies on.
//!
//! Usage: `perf_baseline [--smoke] [--out PATH]`
//! (`--smoke` shrinks the grid, pair counts and catalogs to CI scale.)

use galactos_bench::datasets::{node_dataset, scaled_rmax};
use galactos_bench::json::Json;
use galactos_bench::tables::print_table;
use galactos_bench::BENCH_SEED;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::flops::kernel_flops_per_pair;
use galactos_core::kernel::testutil::{max_rel_diff, random_binned_stream};
use galactos_core::kernel::{detect, BackendChoice, BackendKind, KernelAccumulator, PairBuckets};
use galactos_core::schedule::{self, Merge};
use galactos_core::traversal::{TraversalChoice, TraversalKind};
use galactos_core::Scheduling;
use galactos_math::monomial::MonomialBasis;
use std::time::Instant;

/// Relative tolerance for every backend-vs-scalar equivalence check.
const EQUIV_TOL: f64 = 1e-10;

/// Relative tolerance for leaf-blocked vs per-primary traversal: the
/// modes bin identical pairs in a different accumulation order, so the
/// bound covers reassociation only.
const TRAVERSAL_EQUIV_TOL: f64 = 1e-9;

/// The paper's radial binning.
const NBINS: usize = 10;

type Stream = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<u32>);

struct Params {
    smoke: bool,
    out: String,
    /// (ℓmax, bucket capacity) cells of the single-thread grid.
    grid: Vec<(usize, usize)>,
    /// Pairs per simulated primary (engine-style reset cadence).
    pairs_per_primary: usize,
    /// Primaries per timing repetition of one grid cell.
    primaries: usize,
    reps: usize,
    /// Primaries of the multi-threaded scheduler run.
    threaded_primaries: usize,
    /// Galaxies of the engine-level equivalence catalog.
    engine_galaxies: usize,
    /// ℓmax of the engine-level run (the grid covers paper ℓmax).
    engine_lmax: usize,
    /// Galaxies of the traversal-mode comparison (paper point: ℓmax 10,
    /// 10 bins; the committed baseline uses a ≥50k clustered catalog).
    traversal_galaxies: usize,
}

impl Params {
    fn new(smoke: bool) -> Self {
        if smoke {
            Params {
                smoke,
                out: String::new(),
                grid: vec![(2, 16), (2, 128), (10, 16), (10, 128)],
                pairs_per_primary: 500,
                primaries: 24,
                reps: 3,
                threaded_primaries: 32,
                engine_galaxies: 400,
                engine_lmax: 4,
                traversal_galaxies: 1500,
            }
        } else {
            Params {
                smoke,
                out: String::new(),
                grid: vec![(2, 128), (6, 128), (10, 32), (10, 128), (10, 512)],
                pairs_per_primary: 2000,
                primaries: 100,
                reps: 3,
                threaded_primaries: 128,
                engine_galaxies: 2500,
                engine_lmax: 6,
                traversal_galaxies: 50_000,
            }
        }
    }
}

/// One timed (backend, ℓmax, bucket) grid cell.
struct CellResult {
    backend: BackendKind,
    lmax: usize,
    bucket: usize,
    pairs: u64,
    secs: f64,
    max_rel_diff: f64,
    speedup: f64,
}

/// One timed multi-threaded or engine-level run.
struct RunResult {
    backend: BackendKind,
    secs: f64,
    speedup: f64,
    max_rel_diff: f64,
}

/// Drive an engine-style bucket stream through one backend: per
/// primary, push every pair through [`PairBuckets`] (flushing full
/// buckets), sweep the residuals, and reduce every bin —
/// exactly the call sequence of the engine's bin-and-bucket stage plus
/// the a_ℓm stage's reduction. Returns the best (minimum) wall seconds
/// over `reps` repetitions — the standard noise-resistant estimate on a
/// shared host — and the per-bin monomial totals for cross-backend
/// checking.
fn drive_stream(
    kind: BackendKind,
    basis: &MonomialBasis,
    bucket: usize,
    stream: &Stream,
    pairs_per_primary: usize,
    primaries: usize,
    reps: usize,
) -> (f64, Vec<f64>) {
    let (dx, dy, dz, w, bins) = stream;
    let nmono = basis.len();
    let schedule = basis.schedule();
    let mut acc = KernelAccumulator::new(kind, NBINS, nmono);
    let mut buckets = PairBuckets::new(NBINS, bucket);
    let mut totals = vec![0.0; NBINS * nmono];
    let mut reduced = vec![0.0; nmono];

    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let t0 = Instant::now();
        for p in 0..primaries {
            acc.reset();
            let start = p * pairs_per_primary;
            for i in start..start + pairs_per_primary {
                let b = bins[i] as usize;
                if buckets.push(b, dx[i], dy[i], dz[i], w[i]) {
                    let (bx, by, bz, bw) = buckets.slices(b);
                    acc.flush_bucket(schedule, b, bx, by, bz, bw);
                    buckets.clear_bin(b);
                }
            }
            acc.flush_residual(schedule, &mut buckets);
            for b in 0..NBINS {
                acc.reduce_bin(b, &mut reduced);
                // Totals only on the first rep so the equivalence check
                // covers exactly one pass of the stream.
                if rep == 0 {
                    for (t, r) in totals[b * nmono..(b + 1) * nmono].iter_mut().zip(&reduced) {
                        *t += *r;
                    }
                }
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, totals)
}

/// Single-thread grid: every backend over every (ℓmax, bucket) cell.
fn run_grid(params: &Params) -> Vec<CellResult> {
    let mut results = Vec::new();
    for &(lmax, bucket) in &params.grid {
        let basis = MonomialBasis::new(lmax);
        let n_pairs = params.pairs_per_primary * params.primaries;
        let stream = random_binned_stream(n_pairs, NBINS, BENCH_SEED + lmax as u64);
        let mut scalar: Option<(f64, Vec<f64>)> = None;
        for kind in BackendKind::ALL {
            let (secs, totals) = drive_stream(
                kind,
                &basis,
                bucket,
                &stream,
                params.pairs_per_primary,
                params.primaries,
                params.reps,
            );
            let (speedup, diff) = match &scalar {
                None => (1.0, 0.0),
                Some((s_secs, s_totals)) => (s_secs / secs, max_rel_diff(&totals, s_totals)),
            };
            if kind == BackendKind::Scalar {
                scalar = Some((secs, totals));
            }
            results.push(CellResult {
                backend: kind,
                lmax,
                bucket,
                pairs: n_pairs as u64,
                secs,
                max_rel_diff: diff,
                speedup,
            });
        }
    }
    results
}

/// Multi-threaded run at the paper point (ℓmax 10, bucket 128):
/// primaries distributed by the shared partitioned scheduler, each
/// worker state carrying a backend accumulator — the engine's driver,
/// minus the tree.
fn run_threaded(params: &Params) -> (Vec<RunResult>, usize) {
    let basis = MonomialBasis::new(10);
    let nmono = basis.len();
    let bucket = 128;
    let primaries = params.threaded_primaries;
    let ppp = params.pairs_per_primary;
    let stream = random_binned_stream(primaries * ppp, NBINS, BENCH_SEED + 99);
    let (dx, dy, dz, w, bins) = &stream;

    let one_pass = |kind: BackendKind| -> Vec<f64> {
        schedule::run_partitioned(
            Scheduling::Dynamic,
            primaries,
            || {
                (
                    KernelAccumulator::new(kind, NBINS, nmono),
                    PairBuckets::new(NBINS, bucket),
                    vec![0.0; NBINS * nmono],
                    vec![0.0; nmono],
                )
            },
            |(acc, buckets, totals, reduced), range| {
                let schedule = basis.schedule();
                for p in range {
                    acc.reset();
                    for i in p * ppp..(p + 1) * ppp {
                        let b = bins[i] as usize;
                        if buckets.push(b, dx[i], dy[i], dz[i], w[i]) {
                            let (bx, by, bz, bw) = buckets.slices(b);
                            acc.flush_bucket(schedule, b, bx, by, bz, bw);
                            buckets.clear_bin(b);
                        }
                    }
                    acc.flush_residual(schedule, buckets);
                    for b in 0..NBINS {
                        acc.reduce_bin(b, reduced);
                        let slot = &mut totals[b * nmono..(b + 1) * nmono];
                        for (t, r) in slot.iter_mut().zip(reduced.iter()) {
                            *t += *r;
                        }
                    }
                }
            },
            |(_, _, totals, _)| totals,
            Merge {
                zero: || vec![0.0; NBINS * nmono],
                merge: |mut a: Vec<f64>, b: Vec<f64>| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += *y;
                    }
                    a
                },
            },
        )
    };

    // Untimed warm-up: the first parallel call in the process pays the
    // thread-pool spawn, which must not land inside scalar's (the
    // speedup denominator's) measurement.
    let _ = one_pass(BackendKind::Scalar);

    let mut results: Vec<RunResult> = Vec::new();
    let mut scalar: Option<(f64, Vec<f64>)> = None;
    for kind in BackendKind::ALL {
        let mut best = f64::INFINITY;
        let mut totals = Vec::new();
        for rep in 0..params.reps {
            let t0 = Instant::now();
            let t = one_pass(kind);
            best = best.min(t0.elapsed().as_secs_f64());
            if rep == 0 {
                totals = t;
            }
        }
        let (speedup, diff) = match &scalar {
            None => (1.0, 0.0),
            Some((s_secs, s_totals)) => (s_secs / best, max_rel_diff(&totals, s_totals)),
        };
        if kind == BackendKind::Scalar {
            scalar = Some((best, totals));
        }
        results.push(RunResult {
            backend: kind,
            secs: best,
            speedup,
            max_rel_diff: diff,
        });
    }
    let chunks = schedule::chunk_count(Scheduling::Dynamic, primaries);
    (results, chunks)
}

/// Full-engine equivalence and wall time on a clustered catalog.
fn run_engine(params: &Params) -> Vec<RunResult> {
    let catalog = node_dataset(params.engine_galaxies, true, BENCH_SEED);
    let rmax = scaled_rmax(&catalog);
    let mut config = EngineConfig::paper_default(rmax);
    config.lmax = params.engine_lmax;
    config.bucket_size = 100; // NOT a multiple of 8: full flushes leave tails

    let mut results: Vec<RunResult> = Vec::new();
    let mut scalar = None;
    for kind in BackendKind::ALL {
        config.kernel_backend = BackendChoice::Fixed(kind);
        let engine = Engine::new(config.clone());
        // Best of two: the thread pool is warm (run_threaded precedes
        // this), so two passes suffice to shed scheduler noise.
        let t0 = Instant::now();
        let zeta = engine.compute(&catalog);
        let first = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let _ = engine.compute(&catalog);
        let secs = first.min(t1.elapsed().as_secs_f64());
        let (speedup, diff) = match &scalar {
            None => (1.0, 0.0),
            Some((s_secs, s_zeta)) => {
                let z: &galactos_core::AnisotropicZeta = s_zeta;
                (s_secs / secs, zeta.max_difference(z) / z.max_abs().max(1.0))
            }
        };
        if kind == BackendKind::Scalar {
            scalar = Some((secs, zeta));
        }
        results.push(RunResult {
            backend: kind,
            secs,
            speedup,
            max_rel_diff: diff,
        });
    }
    results
}

/// One timed traversal-mode run at the paper point.
struct TraversalResult {
    mode: TraversalKind,
    secs: f64,
    speedup: f64,
    max_rel_diff: f64,
    binned_pairs: u64,
}

/// Traversal comparison: the full engine at the paper point (ℓmax 10,
/// 10 radial bins, bucket 128, mixed precision — `paper_default`) on a
/// clustered catalog, per-primary vs leaf-blocked. Self-pair
/// subtraction is off: its degree-2ℓmax per-pair work is identical in
/// both modes and would only dilute the traversal signal (and slow the
/// committed full run ~6×).
fn run_traversal(params: &Params) -> (Vec<TraversalResult>, usize, f64, usize) {
    let catalog = node_dataset(params.traversal_galaxies, true, BENCH_SEED + 7);
    let rmax = scaled_rmax(&catalog);
    let mut config = EngineConfig::paper_default(rmax);
    config.subtract_self_pairs = false;

    let mut results: Vec<TraversalResult> = Vec::new();
    let mut reference: Option<(f64, galactos_core::AnisotropicZeta)> = None;
    for mode in TraversalKind::ALL {
        config.traversal = TraversalChoice::Fixed(mode);
        let engine = Engine::new(config.clone());
        // Best of two passes (thread pool is warm from earlier
        // sections); the first pass's result feeds the equivalence
        // check.
        let t0 = Instant::now();
        let zeta = engine.compute(&catalog);
        let first = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let _ = engine.compute(&catalog);
        let secs = first.min(t1.elapsed().as_secs_f64());
        let (speedup, diff) = match &reference {
            None => (1.0, 0.0),
            Some((ref_secs, ref_zeta)) => {
                // Pair-count mismatch is reported through the same
                // equivalence gate as a ζ deviation (nonzero exit, not
                // a panic): on the committed seed the sets are
                // identical, but the per-primary search's box-distance
                // fast paths can in principle decide a pair within one
                // rounding ulp of the boundary differently from the
                // per-point gate the blocked loop replays.
                if zeta.binned_pairs != ref_zeta.binned_pairs {
                    eprintln!(
                        "traversal modes binned different pair sets: {} vs {}",
                        zeta.binned_pairs, ref_zeta.binned_pairs
                    );
                }
                let mut diff = zeta.max_difference(ref_zeta) / ref_zeta.max_abs().max(1.0);
                if zeta.binned_pairs != ref_zeta.binned_pairs {
                    diff = diff.max(1.0); // force the gate to fail
                }
                (ref_secs / secs, diff)
            }
        };
        results.push(TraversalResult {
            mode,
            secs,
            speedup,
            max_rel_diff: diff,
            binned_pairs: zeta.binned_pairs,
        });
        if mode == TraversalKind::PerPrimary {
            reference = Some((secs, zeta));
        }
    }
    (results, catalog.len(), rmax, config.lmax)
}

/// The build and pool the numbers were measured with. Target features
/// are the compiled-in ones (`-C target-cpu`/`-C target-feature`), not
/// what the CPU could run: they are what the kernels were built for.
fn host_json(threads: usize) -> Json {
    Json::obj([
        ("target_arch", Json::str(std::env::consts::ARCH)),
        ("avx2", Json::Bool(cfg!(target_feature = "avx2"))),
        ("fma", Json::Bool(cfg!(target_feature = "fma"))),
        ("avx512f", Json::Bool(cfg!(target_feature = "avx512f"))),
        ("pool_threads", Json::Int(threads as u64)),
        ("detected_backend", Json::str(detect().name())),
    ])
}

fn run_json(r: &RunResult) -> Json {
    Json::obj([
        ("backend", Json::str(r.backend.name())),
        ("secs", Json::Num(r.secs)),
        ("speedup_vs_scalar", Json::Num(r.speedup)),
        ("max_rel_diff_vs_scalar", Json::Num(r.max_rel_diff)),
    ])
}

fn main() {
    let mut smoke = false;
    let mut out = "BENCH_kernels.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument {other}; usage: perf_baseline [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let mut params = Params::new(smoke);
    params.out = out;

    println!("== kernel throughput: backend x (lmax, bucket) grid, 1 thread ==\n");
    let cells = run_grid(&params);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.backend.name().to_string(),
                format!("{}", c.lmax),
                format!("{}", c.bucket),
                format!("{:.2}", c.pairs as f64 / c.secs / 1e6),
                format!(
                    "{:.2}",
                    c.pairs as f64 * kernel_flops_per_pair(c.lmax) as f64 / c.secs / 1e9
                ),
                format!("{:.2}x", c.speedup),
                format!("{:.1e}", c.max_rel_diff),
            ]
        })
        .collect();
    print_table(
        &[
            "backend",
            "lmax",
            "bucket",
            "Mpairs/s",
            "GF/s",
            "vs scalar",
            "rel diff",
        ],
        &rows,
    );

    let threads = rayon::current_num_threads();
    println!("\n== run_partitioned at lmax 10 / bucket 128, {threads} threads ==\n");
    let (threaded, chunks) = run_threaded(&params);
    let rows: Vec<Vec<String>> = threaded
        .iter()
        .map(|r| {
            vec![
                r.backend.name().to_string(),
                format!("{:.3}", r.secs),
                format!("{:.2}x", r.speedup),
                format!("{:.1e}", r.max_rel_diff),
            ]
        })
        .collect();
    print_table(&["backend", "secs", "vs scalar", "rel diff"], &rows);

    println!(
        "\n== full engine, {} clustered galaxies, lmax {} ==\n",
        params.engine_galaxies, params.engine_lmax
    );
    let engine = run_engine(&params);
    let rows: Vec<Vec<String>> = engine
        .iter()
        .map(|r| {
            vec![
                r.backend.name().to_string(),
                format!("{:.3}", r.secs),
                format!("{:.2}x", r.speedup),
                format!("{:.1e}", r.max_rel_diff),
            ]
        })
        .collect();
    print_table(&["backend", "secs", "vs scalar", "rel diff"], &rows);

    let (traversal, trav_galaxies, trav_rmax, trav_lmax) = run_traversal(&params);
    println!(
        "\n== traversal modes, {trav_galaxies} clustered galaxies, lmax {trav_lmax}, \
         nbins {NBINS}, rmax {trav_rmax:.1} ==\n"
    );
    let rows: Vec<Vec<String>> = traversal
        .iter()
        .map(|r| {
            vec![
                r.mode.name().to_string(),
                format!("{:.3}", r.secs),
                format!("{:.2}x", r.speedup),
                format!("{:.1e}", r.max_rel_diff),
                format!("{}", r.binned_pairs),
            ]
        })
        .collect();
    print_table(
        &["traversal", "secs", "vs per-primary", "rel diff", "pairs"],
        &rows,
    );

    let equivalence_ok = cells.iter().all(|c| c.max_rel_diff <= EQUIV_TOL)
        && threaded.iter().all(|r| r.max_rel_diff <= EQUIV_TOL)
        && engine.iter().all(|r| r.max_rel_diff <= EQUIV_TOL)
        && traversal
            .iter()
            .all(|r| r.max_rel_diff <= TRAVERSAL_EQUIV_TOL);

    let json = Json::obj([
        ("schema", Json::str("galactos/bench-kernels/v1")),
        (
            "mode",
            Json::str(if params.smoke { "smoke" } else { "full" }),
        ),
        ("seed", Json::Int(BENCH_SEED)),
        ("host", host_json(threads)),
        ("threads", Json::Int(threads as u64)),
        ("nbins", Json::Int(NBINS as u64)),
        ("equivalence_tol", Json::Num(EQUIV_TOL)),
        ("equivalence_ok", Json::Bool(equivalence_ok)),
        (
            "kernel_grid",
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("backend", Json::str(c.backend.name())),
                            ("lmax", Json::Int(c.lmax as u64)),
                            ("bucket", Json::Int(c.bucket as u64)),
                            ("pairs", Json::Int(c.pairs)),
                            ("secs", Json::Num(c.secs)),
                            ("pairs_per_sec", Json::Num(c.pairs as f64 / c.secs)),
                            (
                                "gflops",
                                Json::Num(
                                    c.pairs as f64 * kernel_flops_per_pair(c.lmax) as f64
                                        / c.secs
                                        / 1e9,
                                ),
                            ),
                            ("speedup_vs_scalar", Json::Num(c.speedup)),
                            ("max_rel_diff_vs_scalar", Json::Num(c.max_rel_diff)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "threaded",
            Json::obj([
                ("lmax", Json::Int(10)),
                ("bucket", Json::Int(128)),
                ("threads", Json::Int(threads as u64)),
                ("chunks", Json::Int(chunks as u64)),
                ("runs", Json::Arr(threaded.iter().map(run_json).collect())),
            ]),
        ),
        (
            "engine",
            Json::obj([
                ("galaxies", Json::Int(params.engine_galaxies as u64)),
                ("lmax", Json::Int(params.engine_lmax as u64)),
                ("threads", Json::Int(threads as u64)),
                ("runs", Json::Arr(engine.iter().map(run_json).collect())),
            ]),
        ),
        (
            "traversal",
            Json::obj([
                ("galaxies", Json::Int(trav_galaxies as u64)),
                ("lmax", Json::Int(trav_lmax as u64)),
                ("nbins", Json::Int(NBINS as u64)),
                ("rmax", Json::Num(trav_rmax)),
                ("threads", Json::Int(threads as u64)),
                ("equivalence_tol", Json::Num(TRAVERSAL_EQUIV_TOL)),
                (
                    "runs",
                    Json::Arr(
                        traversal
                            .iter()
                            .map(|r| {
                                Json::obj([
                                    ("mode", Json::str(r.mode.name())),
                                    ("secs", Json::Num(r.secs)),
                                    ("speedup_vs_per_primary", Json::Num(r.speedup)),
                                    ("max_rel_diff_vs_per_primary", Json::Num(r.max_rel_diff)),
                                    ("binned_pairs", Json::Int(r.binned_pairs)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    std::fs::write(&params.out, json.to_pretty())
        .unwrap_or_else(|e| panic!("writing {}: {e}", params.out));
    println!("\nwrote {}", params.out);

    if !equivalence_ok {
        eprintln!("FAIL: a backend disagrees with scalar beyond {EQUIV_TOL:e} relative");
        std::process::exit(1);
    }
}
