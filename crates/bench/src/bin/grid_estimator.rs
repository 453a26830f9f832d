//! `grid_estimator` — the gridded-estimator convergence and crossover
//! baseline.
//!
//! Benchmarks the FFT grid estimator (`galactos-grid` behind
//! `EstimatorChoice::Grid`) against the tree engine on a fixed-ẑ
//! periodic-box mock and writes `BENCH_grid.json` so the second compute
//! backend's trajectory can be tracked PR over PR:
//!
//! 1. **convergence** — grid ζ vs tree ζ at three mesh resolutions on
//!    one catalog. The gate (also pinned, at debug-scale meshes, by
//!    `crates/core/tests/grid_equivalence.rs`): the relative difference
//!    decreases monotonically with mesh and the tightest mesh reaches
//!    ≤ 1e-2. The process exits nonzero when the gate fails, which is
//!    what CI's `bench-smoke` job relies on.
//! 2. **crossover** — tree vs grid wall time at a fixed mesh across
//!    growing catalog sizes: tree cost grows with the pair count, grid
//!    cost is dominated by the (N-independent) FFTs, so the table
//!    records the first N where the grid wins outright.
//! 3. **thread scaling** — one grid point run on a one-thread pool and
//!    on the host pool. On multi-core hosts the parallel run must not
//!    be slower than serial (speedup ≥ 0.9 passes; single-core hosts
//!    pass trivially) — a cheap regression tripwire for the parallel
//!    paint/FFT/contraction pipeline.
//!
//! The v2 schema records the pool width (`threads`) and, for every grid
//! run, the native per-stage breakdown (paint / FFT fields / ζ
//! contraction / self-pair correction seconds).
//!
//! Usage: `grid_estimator [--smoke] [--out PATH]`
//! (`--smoke` shrinks meshes and catalogs to CI scale.)

use galactos_bench::datasets::periodic_node_dataset;
use galactos_bench::json::Json;
use galactos_bench::tables::{fmt_secs, print_table};
use galactos_bench::BENCH_SEED;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::estimator::{EstimatorChoice, EstimatorKind};
use galactos_core::{AnisotropicZeta, GridConfig, ObsSession, RadialBins};
use std::time::Instant;

/// The convergence gate: tightest-mesh relative ζ difference.
const CONVERGENCE_TOL: f64 = 1e-2;

struct Params {
    smoke: bool,
    out: String,
    /// Galaxies of the convergence catalog.
    galaxies: usize,
    lmax: usize,
    nbins: usize,
    /// Convergence mesh ladder (ascending).
    meshes: Vec<usize>,
    /// Catalog sizes of the crossover table.
    crossover_n: Vec<usize>,
    /// Fixed mesh of the crossover timings.
    crossover_mesh: usize,
}

impl Params {
    fn new(smoke: bool) -> Self {
        if smoke {
            Params {
                smoke,
                out: String::new(),
                galaxies: 2000,
                lmax: 2,
                nbins: 3,
                meshes: vec![16, 32, 64],
                crossover_n: vec![1000, 4000],
                crossover_mesh: 32,
            }
        } else {
            Params {
                smoke,
                out: String::new(),
                galaxies: 20_000,
                lmax: 4,
                nbins: 5,
                meshes: vec![32, 64, 128],
                crossover_n: vec![4000, 8000, 16_000, 64_000],
                crossover_mesh: 64,
            }
        }
    }
}

fn parse_args() -> Params {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut params = Params::new(smoke);
    params.out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_grid.json".to_string());
    params
}

/// Base engine configuration of every run: fixed-ẑ line of sight,
/// linear bins to box/4, self-pair subtraction on (the grid correction
/// path is part of what converges).
fn base_config(catalog_box: f64, lmax: usize, nbins: usize) -> EngineConfig {
    let mut config = EngineConfig::paper_default(0.25 * catalog_box);
    config.lmax = lmax;
    config.bins = RadialBins::linear(0.0, 0.25 * catalog_box, nbins);
    config
}

fn rel_diff(got: &AnisotropicZeta, want: &AnisotropicZeta) -> f64 {
    got.max_difference(want) / want.max_abs().max(f64::MIN_POSITIVE)
}

/// A grid run's native stage breakdown, read from the `grid.*_nanos`
/// counters of its obs session.
#[derive(Clone, Copy)]
struct GridStages {
    paint_nanos: u64,
    field_nanos: u64,
    zeta_nanos: u64,
    selfpair_nanos: u64,
}

struct TimedRun {
    secs: f64,
    zeta: AnisotropicZeta,
    /// Native stage breakdown — present on grid runs only.
    stages: Option<GridStages>,
}

/// One timed compute. Grid runs go through an enabled obs session so
/// their stage counters can be read back; tree runs stay uninstrumented.
fn run_engine(config: &EngineConfig, catalog: &galactos_catalog::Catalog) -> TimedRun {
    let engine = Engine::new(config.clone());
    let grid = engine.estimator_kind() == EstimatorKind::Grid;
    let obs = if grid {
        ObsSession::enabled()
    } else {
        ObsSession::disabled()
    };
    let t = Instant::now();
    let zeta = engine.compute_observed(catalog, &obs);
    let secs = t.elapsed().as_secs_f64();
    let counter = |name| obs.registry.counter_value(name);
    TimedRun {
        secs,
        zeta,
        stages: grid.then(|| GridStages {
            paint_nanos: counter("grid.paint_nanos"),
            field_nanos: counter("grid.field_nanos"),
            zeta_nanos: counter("grid.zeta_nanos"),
            selfpair_nanos: counter("grid.selfpair_nanos"),
        }),
    }
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 * 1e-9
}

/// JSON object of a grid run's native stage breakdown.
fn stages_json(t: &GridStages) -> Json {
    Json::obj([
        ("paint_secs", Json::Num(secs(t.paint_nanos))),
        ("fft_secs", Json::Num(secs(t.field_nanos))),
        ("contract_secs", Json::Num(secs(t.zeta_nanos))),
        ("selfpair_secs", Json::Num(secs(t.selfpair_nanos))),
    ])
}

fn main() {
    let params = parse_args();
    println!(
        "grid_estimator: {} galaxies, lmax {}, {} bins{}",
        params.galaxies,
        params.lmax,
        params.nbins,
        if params.smoke { " (smoke)" } else { "" }
    );

    // ---- Convergence ladder -------------------------------------------
    let cat = periodic_node_dataset(params.galaxies, true, BENCH_SEED);
    let box_len = cat.periodic.expect("mock box is periodic");
    let mut config = base_config(box_len, params.lmax, params.nbins);
    config.estimator = EstimatorChoice::Tree;
    let tree = run_engine(&config, &cat);
    println!(
        "tree reference: {} ({} binned pairs)",
        fmt_secs(tree.secs),
        tree.zeta.binned_pairs
    );

    let mut convergence = Vec::new();
    for &mesh in &params.meshes {
        let mut c = config.clone();
        c.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(mesh));
        let run = run_engine(&c, &cat);
        let diff = rel_diff(&run.zeta, &tree.zeta);
        let stages = run.stages.expect("grid run reports stage timings");
        convergence.push((mesh, run.secs, diff, stages));
    }
    print_table(
        &[
            "mesh",
            "secs",
            "paint",
            "fft",
            "contract",
            "selfpair",
            "rel diff vs tree",
        ],
        &convergence
            .iter()
            .map(|&(mesh, total, diff, t)| {
                vec![
                    mesh.to_string(),
                    fmt_secs(total),
                    fmt_secs(secs(t.paint_nanos)),
                    fmt_secs(secs(t.field_nanos)),
                    fmt_secs(secs(t.zeta_nanos)),
                    fmt_secs(secs(t.selfpair_nanos)),
                    format!("{diff:.3e}"),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let monotone = convergence.windows(2).all(|w| w[1].2 < w[0].2);
    let tightest = convergence
        .last()
        .map(|&(_, _, d, _)| d)
        .unwrap_or(f64::NAN);
    let gate_pass = monotone && tightest <= CONVERGENCE_TOL;

    // ---- Crossover table ----------------------------------------------
    let mut crossover = Vec::new();
    for &n in &params.crossover_n {
        let cat = periodic_node_dataset(n, true, BENCH_SEED + n as u64);
        let box_len = cat.periodic.expect("mock box is periodic");
        let mut c = base_config(box_len, params.lmax, params.nbins);
        c.estimator = EstimatorChoice::Tree;
        let tree = run_engine(&c, &cat);
        c.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(params.crossover_mesh));
        let grid = run_engine(&c, &cat);
        crossover.push((n, tree.secs, grid.secs));
    }
    print_table(
        &["galaxies", "tree secs", "grid secs", "speedup", "winner"],
        &crossover
            .iter()
            .map(|&(n, t, g)| {
                vec![
                    n.to_string(),
                    fmt_secs(t),
                    fmt_secs(g),
                    format!("{:.2}x", t / g),
                    if g < t { "grid" } else { "tree" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let crossover_n = crossover
        .iter()
        .find(|&&(_, t, g)| g < t)
        .map(|&(n, _, _)| n);
    match crossover_n {
        Some(n) => println!(
            "grid path first wins at N = {n} (mesh {})",
            params.crossover_mesh
        ),
        None => println!(
            "tree wins at every measured N (mesh {}); grow N to find the crossover",
            params.crossover_mesh
        ),
    }

    // ---- Thread scaling sanity point ----------------------------------
    // One grid point, serial pool vs host pool. The parallel pipeline
    // must never *lose* to serial on a multi-core host (0.9 allows
    // scheduling noise); single-core hosts pass trivially.
    let host_threads = rayon::current_num_threads();
    let mut scaling_cfg = config.clone();
    scaling_cfg.estimator = EstimatorChoice::Grid(GridConfig::with_mesh(params.crossover_mesh));
    let serial_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool");
    let serial = serial_pool.install(|| run_engine(&scaling_cfg, &cat));
    let parallel = run_engine(&scaling_cfg, &cat);
    let scaling_speedup = serial.secs / parallel.secs;
    let scaling_pass = host_threads <= 1 || scaling_speedup >= 0.9;
    println!(
        "thread scaling (mesh {}, {} galaxies): serial {} vs {} threads {} — {:.2}x ({})",
        params.crossover_mesh,
        params.galaxies,
        fmt_secs(serial.secs),
        host_threads,
        fmt_secs(parallel.secs),
        scaling_speedup,
        if scaling_pass { "pass" } else { "FAIL" },
    );

    // ---- JSON ----------------------------------------------------------
    let grid_defaults = GridConfig::default();
    let json = Json::obj([
        ("schema", Json::str("galactos grid-estimator benchmark v2")),
        ("smoke", Json::Bool(params.smoke)),
        ("threads", Json::Int(host_threads as u64)),
        (
            "config",
            Json::obj([
                ("galaxies", Json::Int(params.galaxies as u64)),
                ("box_len", Json::Num(box_len)),
                ("lmax", Json::Int(params.lmax as u64)),
                ("nbins", Json::Int(params.nbins as u64)),
                ("rmax", Json::Num(0.25 * box_len)),
                ("assignment", Json::str(grid_defaults.assignment.name())),
                ("deconvolve", Json::Bool(grid_defaults.deconvolve)),
                ("interlace", Json::Bool(grid_defaults.interlace)),
                (
                    "subtract_self_pairs",
                    Json::Bool(config.subtract_self_pairs),
                ),
            ]),
        ),
        (
            "tree",
            Json::obj([
                ("secs", Json::Num(tree.secs)),
                ("binned_pairs", Json::Int(tree.zeta.binned_pairs)),
            ]),
        ),
        (
            "convergence",
            Json::Arr(
                convergence
                    .iter()
                    .map(|&(mesh, total, diff, t)| {
                        Json::obj([
                            ("mesh", Json::Int(mesh as u64)),
                            ("secs", Json::Num(total)),
                            ("stages", stages_json(&t)),
                            ("rel_diff_vs_tree", Json::Num(diff)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "convergence_gate",
            Json::obj([
                ("monotone", Json::Bool(monotone)),
                ("tightest_rel_diff", Json::Num(tightest)),
                ("threshold", Json::Num(CONVERGENCE_TOL)),
                ("pass", Json::Bool(gate_pass)),
            ]),
        ),
        (
            "crossover",
            Json::obj([
                ("mesh", Json::Int(params.crossover_mesh as u64)),
                (
                    "runs",
                    Json::Arr(
                        crossover
                            .iter()
                            .map(|&(n, t, g)| {
                                Json::obj([
                                    ("galaxies", Json::Int(n as u64)),
                                    ("tree_secs", Json::Num(t)),
                                    ("grid_secs", Json::Num(g)),
                                    ("speedup_vs_tree", Json::Num(t / g)),
                                    ("grid_wins", Json::Bool(g < t)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "crossover_n",
                    crossover_n.map_or(Json::Num(f64::NAN), |n| Json::Int(n as u64)),
                ),
            ]),
        ),
        (
            "thread_scaling",
            Json::obj([
                ("galaxies", Json::Int(params.galaxies as u64)),
                ("mesh", Json::Int(params.crossover_mesh as u64)),
                ("threads", Json::Int(host_threads as u64)),
                ("serial_secs", Json::Num(serial.secs)),
                ("parallel_secs", Json::Num(parallel.secs)),
                ("speedup", Json::Num(scaling_speedup)),
                ("pass", Json::Bool(scaling_pass)),
            ]),
        ),
    ]);
    std::fs::write(&params.out, json.to_pretty())
        .unwrap_or_else(|e| panic!("writing {}: {e}", params.out));
    println!("\nwrote {}", params.out);

    let mut failed = false;
    if !gate_pass {
        eprintln!(
            "FAIL: convergence gate (monotone decrease, tightest <= {CONVERGENCE_TOL:e}) \
             not met: monotone={monotone}, tightest={tightest:.3e}"
        );
        failed = true;
    }
    if !scaling_pass {
        eprintln!(
            "FAIL: thread-scaling gate ({host_threads} threads vs serial) regressed: \
             speedup {scaling_speedup:.2}x < 0.9x"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
