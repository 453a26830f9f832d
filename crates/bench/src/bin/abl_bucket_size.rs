//! **Ablation** — pair-bucket size sweep (§3.3.1–3.3.2, §5.4).
//!
//! The bucket size trades arithmetic intensity (flop/byte rises toward
//! 23.8 as k → ∞) against cache footprint and flush latency; the paper
//! picks 128 (flop/byte 9.6, 21.4 kB working set) and explicitly argues
//! *against* huge buckets (§5.4: they would raise peak FLOPS but
//! increase memory footprint and lower throughput). We time the full
//! engine across bucket sizes.

use galactos_bench::datasets::{node_dataset, scaled_rmax};
use galactos_bench::tables::{fmt_secs, print_table};
use galactos_bench::BENCH_SEED;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::flops::{arithmetic_intensity, working_set_bytes};
use std::time::Instant;

fn main() {
    let n: usize = galactos_bench::size_arg(25_000);
    let catalog = node_dataset(n, true, BENCH_SEED);
    let rmax = scaled_rmax(&catalog);
    println!(
        "dataset: {} clustered galaxies, Rmax = {rmax:.1}, lmax = 10\n",
        catalog.len()
    );

    let mut rows = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    for bucket in [8usize, 16, 32, 64, 128, 256, 512, 1024] {
        let mut config = EngineConfig::paper_default(rmax);
        config.subtract_self_pairs = false;
        config.bucket_size = bucket;
        let engine = Engine::new(config);
        let mut t_best = f64::INFINITY;
        for _ in 0..2 {
            let t0 = Instant::now();
            let z = engine.compute(&catalog);
            std::hint::black_box(z.binned_pairs);
            t_best = t_best.min(t0.elapsed().as_secs_f64());
        }
        if best.is_none() || t_best < best.unwrap().1 {
            best = Some((bucket, t_best));
        }
        rows.push(vec![
            format!("{bucket}"),
            format!("{:.2}", arithmetic_intensity(bucket, 10)),
            format!("{:.1} kB", working_set_bytes(bucket, 10) as f64 / 1e3),
            fmt_secs(t_best),
        ]);
    }
    print_table(&["bucket", "flop/byte", "working set", "time"], &rows);
    let (bb, bt) = best.unwrap();
    println!("\nfastest bucket on this host: {bb} ({})", fmt_secs(bt));
    println!("paper: bucket 128 — flop/byte 9.6, 21.4 kB working set; larger buckets");
    println!("raise arithmetic intensity with diminishing (then negative) returns.");
}
