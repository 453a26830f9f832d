//! **Figure 6** — weak scaling: fixed work per rank, growing cluster.
//!
//! The paper scales 128→8192 nodes with 225k galaxies each at constant
//! density and sees only +9% in time-to-solution. We reproduce the
//! construction exactly (density-matched boxes per Table 1's rule),
//! decompose with the real partitioner, count the real per-rank pairs
//! and halo volumes, and convert to time with the measured host
//! throughput (cost model of DESIGN.md §1). A real engine run at the
//! smallest rank count validates the model.

use galactos_bench::costmodel::{calibrate_throughput, simulate_run};
use galactos_bench::tables::{fmt_count, fmt_secs, print_table};
use galactos_bench::BENCH_SEED;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_mocks::scaled::{
    generate_scaled_catalog, scaled_dataset, MockKind, OUTER_RIM_DENSITY,
};
use std::time::Instant;

fn main() {
    let per_rank: f64 = galactos_bench::size_arg(4_000.0);
    let rank_counts = [4usize, 8, 16, 32, 64, 128];
    let rmax_frac = 0.2; // Rmax as a fraction of the smallest box

    // Calibrate throughput on the 4-rank dataset.
    let cal_ds = scaled_dataset(4, per_rank, OUTER_RIM_DENSITY);
    let mut cal_cat = generate_scaled_catalog(&cal_ds, 1.0, MockKind::Clustered, BENCH_SEED);
    cal_cat.periodic = None;
    let rmax = rmax_frac * cal_cat.bounds.extent().x;
    let mut config = EngineConfig::paper_default(rmax);
    config.subtract_self_pairs = false;
    config.bins = galactos_core::bins::RadialBins::linear(0.0, rmax, 10);
    let cal = calibrate_throughput(&cal_cat, &config);
    println!(
        "calibration: {} pairs in {} on 1 thread -> {:.2e} pairs/s\n",
        fmt_count(cal.pairs),
        fmt_secs(cal.seconds),
        cal.pairs_per_sec
    );

    // Validate the model against a real (threaded) engine run.
    let engine = Engine::new(config.clone());
    let t0 = Instant::now();
    let z = engine.compute(&cal_cat);
    let real_wall = t0.elapsed().as_secs_f64();
    let threads = rayon::current_num_threads();
    let sim4 = simulate_run(&cal_cat, rmax, 4, cal.pairs_per_sec);
    println!(
        "model check (4 ranks): simulated serial work {} vs real {}-thread wall {} ({} pairs)\n",
        fmt_secs(sim4.rank_seconds.iter().sum::<f64>()),
        threads,
        fmt_secs(real_wall),
        fmt_count(z.binned_pairs),
    );

    println!(
        "== weak scaling (model; {} galaxies per rank at fixed density) ==\n",
        per_rank
    );
    let mut rows = Vec::new();
    let mut base_time = None;
    for &ranks in &rank_counts {
        let ds = scaled_dataset(ranks, per_rank, OUTER_RIM_DENSITY);
        let mut cat =
            generate_scaled_catalog(&ds, 1.0, MockKind::Clustered, BENCH_SEED + ranks as u64);
        cat.periodic = None;
        let sim = simulate_run(&cat, rmax, ranks, cal.pairs_per_sec);
        let t = sim.time_to_solution;
        let base = *base_time.get_or_insert(t);
        rows.push(vec![
            format!("{ranks}"),
            format!("{}", cat.len()),
            fmt_secs(t),
            format!("{:+.1}%", 100.0 * (t / base - 1.0)),
            format!("{:.1}%", 100.0 * sim.pair_variation),
            fmt_count(sim.total_pairs),
        ]);
    }
    print_table(
        &[
            "ranks",
            "galaxies",
            "time-to-solution",
            "vs smallest",
            "pair variation",
            "total pairs",
        ],
        &rows,
    );
    println!("\npaper (Fig. 6): 128->8192 nodes, time +9%; <10% pair-count variation per rank.");
    println!("flat curve <=> halo work per rank is constant at fixed density (§3.2).");
}
