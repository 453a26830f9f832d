//! **§5.1 / §3.3.2** — single-node kernel analysis.
//!
//! Reproduces the paper's arithmetic: 286 monomials at ℓmax = 10,
//! 572–576 kernel FLOPs per pair, 609 total with the k-d tree's ~37,
//! flop/byte 9.6 at bucket 128; then *measures* the kernel's FLOP rate
//! on this host and quotes it against the measured achievable FMA peak
//! (the paper's kernel reached 1017 GF = 39% of a Xeon Phi node's
//! peak).

use galactos_bench::datasets::{node_dataset, scaled_rmax};
use galactos_bench::peak::measure_fma_peak_gflops;
use galactos_bench::tables::{fmt_count, print_table};
use galactos_bench::BENCH_SEED;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::estimator::EstimatorChoice;
use galactos_core::flops::{
    arithmetic_intensity, kernel_flops_per_pair, total_flops_per_pair, working_set_bytes,
    TREE_FLOPS_PER_PAIR,
};
use galactos_core::ObsSession;
use galactos_math::monomial::monomial_count;

fn main() {
    println!("== static kernel arithmetic (lmax = 10) ==\n");
    let rows = vec![
        vec![
            "monomials (paper: 286)".into(),
            format!("{}", monomial_count(10)),
        ],
        vec![
            "kernel FLOPs/pair (paper: 576)".into(),
            format!("{}", kernel_flops_per_pair(10)),
        ],
        vec![
            "tree FLOPs/pair (paper: 37)".into(),
            format!("{TREE_FLOPS_PER_PAIR}"),
        ],
        vec![
            "total FLOPs/pair (paper: 609)".into(),
            format!("{}", total_flops_per_pair(10)),
        ],
        vec![
            "working set @128 (paper: 21.4 kB)".into(),
            format!("{:.1} kB", working_set_bytes(128, 10) as f64 / 1e3),
        ],
    ];
    print_table(&["quantity", "value"], &rows);

    println!("\n== arithmetic intensity vs bucket size (paper: 9.6 @ 128) ==\n");
    let rows: Vec<Vec<String>> = [1usize, 8, 32, 128, 512, 4096]
        .iter()
        .map(|&k| {
            vec![
                format!("{k}"),
                format!("{:.2}", arithmetic_intensity(k, 10)),
            ]
        })
        .collect();
    print_table(&["bucket", "flop/byte"], &rows);

    println!("\n== measured kernel rate on this host ==\n");
    let peak_1t = measure_fma_peak_gflops(0.5);
    println!("achievable 1-thread FMA peak: {peak_1t:.1} GF/s");

    let catalog = node_dataset(20_000, true, BENCH_SEED);
    let rmax = scaled_rmax(&catalog);
    let mut config = EngineConfig::paper_default(rmax);
    config.subtract_self_pairs = false;
    config.estimator = EstimatorChoice::Tree;
    let engine = Engine::new(config);
    let obs = ObsSession::enabled();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let zeta = pool.install(|| engine.compute_observed(&catalog, &obs));
    let kernel_secs = obs.registry.counter_value("engine.kernel_nanos") as f64 / 1e9;
    let kernel_flops =
        obs.registry.counter_value("engine.binned_pairs") * kernel_flops_per_pair(10);
    let kernel_gf = kernel_flops as f64 / kernel_secs / 1e9;
    println!(
        "multipole kernel: {} pairs, {:.2} s -> {:.1} GF/s = {:.0}% of measured peak",
        fmt_count(zeta.binned_pairs),
        kernel_secs,
        kernel_gf,
        100.0 * kernel_gf / peak_1t
    );
    println!("\npaper: 1017 GF in double precision on one Xeon Phi node = 39% of peak;");
    println!("the ratio is the comparable number (absolute GF are architecture-bound).");
}
