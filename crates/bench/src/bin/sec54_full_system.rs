//! **§5.4** — "full-system" run: mixed vs double precision, per-rank
//! pair statistics, kernel time fraction.
//!
//! The paper's 9636-node numbers: 982.4 s mixed vs 1070.6 s double
//! (9% improvement); 7.06–9.88×10¹¹ pairs per node; 58–61% of node
//! time in the multipole kernel; 8.17×10¹⁵ total pairs → 5.06 PF
//! sustained. Here: same comparisons on the scaled node dataset plus a
//! 16-rank decomposition of a larger box for the per-rank statistics.

use galactos_bench::datasets::{node_dataset, scaled_rmax};
use galactos_bench::tables::{fmt_count, fmt_secs, print_table};
use galactos_bench::{tree_stage_nanos, BENCH_SEED};
use galactos_core::config::{EngineConfig, Scheduling, TreePrecision};
use galactos_core::engine::Engine;
use galactos_core::estimator::EstimatorChoice;
use galactos_core::flops::total_flops_per_pair;
use galactos_core::ObsSession;
use galactos_domain::load::{pair_counts, LoadBalance};
use galactos_domain::partition::DomainPlan;
use std::time::Instant;

/// The paper's full-system configuration: the tree engine (whatever
/// GALACTOS_ESTIMATOR says) on the dynamic schedule, no self-pair
/// subtraction.
fn tree_config(rmax: f64) -> EngineConfig {
    let mut config = EngineConfig::paper_default(rmax);
    config.subtract_self_pairs = false;
    config.estimator = EstimatorChoice::Tree;
    config.scheduling = Scheduling::Dynamic;
    config
}

fn main() {
    let n: usize = galactos_bench::size_arg(40_000);
    let catalog = node_dataset(n, true, BENCH_SEED);
    let rmax = scaled_rmax(&catalog);
    println!(
        "dataset: {} galaxies, Rmax = {rmax:.1} Mpc/h, lmax = 10\n",
        catalog.len()
    );

    // --- mixed vs double precision (two runs each, take the best) ---
    let mut times = Vec::new();
    for (label, precision) in [
        ("mixed (f32 tree)", TreePrecision::Mixed),
        ("double", TreePrecision::Double),
    ] {
        let mut config = tree_config(rmax);
        config.precision = precision;
        let engine = Engine::new(config);
        let mut best = f64::INFINITY;
        let mut pairs = 0;
        for _ in 0..2 {
            let t0 = Instant::now();
            let z = engine.compute(&catalog);
            best = best.min(t0.elapsed().as_secs_f64());
            pairs = z.binned_pairs;
        }
        times.push((label, best, pairs));
    }
    let rows: Vec<Vec<String>> = times
        .iter()
        .map(|(label, t, pairs)| {
            let gf = *pairs as f64 * total_flops_per_pair(10) as f64 / t / 1e9;
            vec![
                label.to_string(),
                fmt_secs(*t),
                fmt_count(*pairs),
                format!("{gf:.1}"),
            ]
        })
        .collect();
    print_table(
        &["precision", "time", "pairs", "GF/s (609 FLOP/pair)"],
        &rows,
    );
    let improvement = 100.0 * (times[1].1 / times[0].1 - 1.0);
    println!(
        "\nmixed-precision improvement: {improvement:+.1}%  (paper: +9%: 1070.6 s -> 982.4 s)\n"
    );

    // --- kernel time fraction (paper: 58–61% on full-system nodes) ---
    let engine = Engine::new(tree_config(rmax));
    let obs = ObsSession::enabled();
    engine.compute_observed(&catalog, &obs);
    let total: u64 = tree_stage_nanos(&obs).iter().map(|&(_, nanos)| nanos).sum();
    let kernel = obs.registry.counter_value("engine.kernel_nanos");
    println!(
        "multipole kernel fraction of compute: {:.0}%  (paper: 58-61%)\n",
        100.0 * kernel as f64 / total.max(1) as f64
    );

    // --- per-rank pair statistics on a 16-rank decomposition ---
    let positions = catalog.positions();
    let plan = DomainPlan::build(&positions, catalog.bounds, 16);
    let pairs = pair_counts(&plan, &positions, rmax);
    let lb = LoadBalance::from_counts(pairs);
    let rows = vec![
        vec!["min pairs/rank".into(), fmt_count(lb.min)],
        vec!["max pairs/rank".into(), fmt_count(lb.max)],
        vec!["mean pairs/rank".into(), fmt_count(lb.mean as u64)],
        vec![
            "max/min ratio".into(),
            format!("{:.2}", lb.max as f64 / lb.min.max(1) as f64),
        ],
        vec![
            "imbalance (max-mean)/mean".into(),
            format!("{:.1}%", 100.0 * lb.imbalance()),
        ],
    ];
    print_table(&["per-rank pair statistics (16 ranks)", "value"], &rows);
    println!("\npaper: min 7.06e11, max 9.88e11 pairs per node (ratio 1.40) on 9636 nodes;");
    println!("sustained 5.06 PF mixed / 4.65 PF double from 8.17e15 pairs x 609 FLOPs.");
}
