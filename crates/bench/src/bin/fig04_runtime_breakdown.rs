//! **Figure 4** — single-node runtime breakdown.
//!
//! The paper's pie chart for the 225k-galaxy node dataset: ~55% of the
//! time in the multipole accumulation kernel, the rest split between
//! k-d tree construction (incl. partitioning/halo exchange), tree
//! search, and I/O. We run the observed engine on the scaled node
//! dataset and print the same decomposition. Exits nonzero when the
//! kernel stage reads zero time.

use galactos_bench::datasets::{node_dataset, scaled_rmax};
use galactos_bench::tables::{fmt_count, fmt_secs, print_table};
use galactos_bench::{tree_stage_nanos, BENCH_SEED};
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::estimator::EstimatorChoice;
use galactos_core::ObsSession;
use std::time::Instant;

fn main() {
    let n: usize = galactos_bench::size_arg(30_000);

    // "I/O": catalog creation + a round-trip through the binary format.
    let t0 = Instant::now();
    let catalog = node_dataset(n, true, BENCH_SEED);
    let tmp = std::env::temp_dir().join("galactos_fig04.gcat");
    galactos_catalog::io::write_binary(&catalog, &tmp).expect("write");
    let catalog = galactos_catalog::io::read_binary(&tmp).expect("read");
    std::fs::remove_file(&tmp).ok();
    let io_nanos = t0.elapsed().as_nanos() as u64;

    let rmax = scaled_rmax(&catalog);
    let mut config = EngineConfig::paper_default(rmax);
    config.subtract_self_pairs = false;
    // The breakdown is the tree engine's, whatever GALACTOS_ESTIMATOR says.
    config.estimator = EstimatorChoice::Tree;
    println!(
        "dataset: {} galaxies (clustered, Outer Rim density), Rmax = {rmax:.1} Mpc/h, lmax = {}\n",
        catalog.len(),
        config.lmax
    );

    let engine = Engine::new(config);
    let obs = ObsSession::enabled();
    let t1 = Instant::now();
    let zeta = engine.compute_observed(&catalog, &obs);
    let wall = t1.elapsed().as_secs_f64();

    println!("binned pairs: {}", fmt_count(zeta.binned_pairs));
    println!("wall time (all threads): {}\n", fmt_secs(wall));

    let mut stages = vec![("I/O", io_nanos)];
    stages.extend(tree_stage_nanos(&obs));
    let total: u64 = stages.iter().map(|&(_, nanos)| nanos).sum();
    let frac = |nanos: u64| nanos as f64 / total.max(1) as f64;
    let rows: Vec<Vec<String>> = stages
        .iter()
        .map(|&(stage, nanos)| {
            vec![
                stage.to_string(),
                fmt_secs(nanos as f64 / 1e9),
                format!("{:.1}%", frac(nanos) * 100.0),
            ]
        })
        .collect();
    print_table(&["stage", "cpu time", "fraction"], &rows);

    let kernel_nanos = obs.registry.counter_value("engine.kernel_nanos");
    println!(
        "\nmultipole accumulation fraction: {:.1}%  (paper, Fig. 4: ~55% on the 225k node dataset;",
        frac(kernel_nanos) * 100.0
    );
    println!("§5.4 cross-check put the same kernel at 58–61% on full-system nodes)");
    if kernel_nanos == 0 {
        eprintln!("FAIL: the multipole kernel stage recorded zero time");
        std::process::exit(1);
    }
}
