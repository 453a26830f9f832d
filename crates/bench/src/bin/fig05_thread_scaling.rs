//! **Figure 5** — thread scaling on one node, 10,000 galaxies.
//!
//! The paper sweeps 1→68 physical cores with 1/2/4 hyperthreads per
//! core (58× at 68 cores; 65× at 272 threads; hyperthreading adds only
//! ~35%). We sweep 1→host cores and emulate the hyperthread rows with
//! 2× and 4× thread oversubscription.

use galactos_bench::datasets::{node_dataset, scaled_rmax};
use galactos_bench::tables::{fmt_secs, print_table};
use galactos_bench::BENCH_SEED;
use galactos_core::config::{EngineConfig, Scheduling};
use galactos_core::engine::Engine;
use galactos_core::estimator::EstimatorChoice;
use std::time::Instant;

fn time_with_threads(engine: &Engine, catalog: &galactos_catalog::Catalog, threads: usize) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(|| {
        let t0 = Instant::now();
        let z = engine.compute(catalog);
        std::hint::black_box(z.binned_pairs);
        t0.elapsed().as_secs_f64()
    })
}

fn main() {
    let n: usize = galactos_bench::size_arg(10_000); // the paper's Figure 5 dataset size
    let catalog = node_dataset(n, true, BENCH_SEED);
    let rmax = scaled_rmax(&catalog);
    let mut config = EngineConfig::paper_default(rmax);
    config.subtract_self_pairs = false;
    // The tree engine, whatever GALACTOS_ESTIMATOR says, with dynamic
    // scheduling through the shared schedule driver — the paper's
    // configuration for this figure ("OpenMP dynamic scheduling to
    // allocate primaries to threads").
    config.estimator = EstimatorChoice::Tree;
    config.scheduling = Scheduling::Dynamic;
    let engine = Engine::new(config);
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4);
    println!(
        "dataset: {} galaxies, Rmax = {rmax:.1}, lmax = 10, host cores: {cores}\n",
        catalog.len()
    );

    // Core sweep ("1 HT/core" row of the paper).
    let mut core_counts = vec![1usize];
    while *core_counts.last().unwrap() * 2 <= cores {
        core_counts.push(core_counts.last().unwrap() * 2);
    }
    if *core_counts.last().unwrap() != cores {
        core_counts.push(cores);
    }

    let t1 = time_with_threads(&engine, &catalog, 1);
    let mut rows = Vec::new();
    let mut t_full_core = t1;
    for &c in &core_counts {
        let t = if c == 1 {
            t1
        } else {
            time_with_threads(&engine, &catalog, c)
        };
        if c == cores {
            t_full_core = t;
        }
        rows.push(vec![
            format!("{c}"),
            "1x".into(),
            fmt_secs(t),
            format!("{:.1}", t1 / t),
            format!("{:.0}%", 100.0 * t1 / t / c as f64),
        ]);
    }
    // Oversubscription rows at full cores (paper's 2 and 4 HT/core).
    for over in [2usize, 4] {
        let t = time_with_threads(&engine, &catalog, cores * over);
        rows.push(vec![
            format!("{cores}"),
            format!("{over}x"),
            fmt_secs(t),
            format!("{:.1}", t1 / t),
            format!("{:+.0}% vs 1x", 100.0 * (t_full_core / t - 1.0)),
        ]);
    }
    print_table(
        &["cores", "threads/core", "time", "speedup", "efficiency"],
        &rows,
    );
    println!("\npaper: 58x at 68 cores; +35% from 4 hyperthreads/core (65x total at 272 threads).");
}
