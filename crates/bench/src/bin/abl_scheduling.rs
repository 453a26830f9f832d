//! **Ablation** — dynamic vs static primary scheduling (§3.3).
//!
//! "Using a dynamic schedule gives a significant performance boost over
//! using a static schedule." Static chunking hurts exactly when the
//! per-primary work varies — i.e., on clustered catalogs, where some
//! primaries sit in dense knots with thousands of secondaries. We time
//! both schedules on a uniform and a clustered catalog.

use galactos_bench::datasets::{node_dataset, scaled_rmax};
use galactos_bench::tables::{fmt_secs, print_table};
use galactos_bench::BENCH_SEED;
use galactos_core::config::{EngineConfig, Scheduling};
use galactos_core::engine::Engine;
use galactos_core::estimator::EstimatorChoice;
use std::time::Instant;

/// Best of two runs of the tree engine (primary scheduling is a
/// traversal concept, so the estimator is pinned whatever
/// GALACTOS_ESTIMATOR says) under `scheduling`.
fn time_schedule(
    rmax: f64,
    catalog: &galactos_catalog::Catalog,
    scheduling: Scheduling,
) -> (f64, u64) {
    let mut config = EngineConfig::paper_default(rmax);
    config.subtract_self_pairs = false;
    config.estimator = EstimatorChoice::Tree;
    config.scheduling = scheduling;
    let engine = Engine::new(config);
    let mut best = f64::INFINITY;
    let mut pairs = 0;
    for _ in 0..2 {
        let t0 = Instant::now();
        let z = engine.compute(catalog);
        best = best.min(t0.elapsed().as_secs_f64());
        pairs = z.binned_pairs;
    }
    (best, pairs)
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(25_000);
    let mut rows = Vec::new();
    for (label, clustered) in [("uniform", false), ("clustered", true)] {
        let catalog = node_dataset(n, clustered, BENCH_SEED);
        let rmax = scaled_rmax(&catalog);
        let (t_dyn, pairs) = time_schedule(rmax, &catalog, Scheduling::Dynamic);
        let (t_static, _) = time_schedule(rmax, &catalog, Scheduling::Static);
        rows.push(vec![
            label.to_string(),
            format!("{}", catalog.len()),
            format!("{pairs}"),
            fmt_secs(t_dyn),
            fmt_secs(t_static),
            format!("{:+.1}%", 100.0 * (t_static / t_dyn - 1.0)),
        ]);
    }
    print_table(
        &[
            "catalog",
            "galaxies",
            "pairs",
            "dynamic",
            "static",
            "static penalty",
        ],
        &rows,
    );
    println!("\npaper (§3.3): dynamic scheduling over primaries gives \"a significant");
    println!("performance boost over using a static schedule\"; the penalty grows with");
    println!("clustering because per-primary work becomes strongly non-uniform.");
}
