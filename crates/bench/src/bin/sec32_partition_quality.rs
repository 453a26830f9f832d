//! **§3.2** — non-power-of-two partition quality.
//!
//! The paper's partitioning contribution: rank groups split into
//! nearly-equal halves so *any* node count works (Cori's 9636 instead
//! of being stuck at 8192), with primaries balanced to ~0.1% and pair
//! imbalance ~25% in weak scaling. This binary sweeps rank counts —
//! powers of two, primes, and the paper's 9636 — and reports balance
//! and halo-exchange volume.

use galactos_bench::datasets::{node_dataset, scaled_rmax};
use galactos_bench::tables::{fmt_count, print_table};
use galactos_bench::BENCH_SEED;
use galactos_domain::load::{pair_counts, primary_balance, LoadBalance};
use galactos_domain::partition::DomainPlan;

fn main() {
    let n: usize = galactos_bench::size_arg(40_000);
    let catalog = node_dataset(n, true, BENCH_SEED);
    let rmax = scaled_rmax(&catalog) * 0.5;
    let positions = catalog.positions();
    println!(
        "dataset: {} clustered galaxies; Rmax = {rmax:.1}\n",
        catalog.len()
    );

    println!("== partition balance across rank counts ==\n");
    let mut rows = Vec::new();
    for ranks in [8usize, 13, 16, 17, 31, 32, 100, 963] {
        let plan = DomainPlan::build(&positions, catalog.bounds, ranks);
        let prim = primary_balance(&plan);
        let halos = plan.halo_indices(&positions, rmax);
        let ghost_total: usize = halos.iter().map(|h| h.len()).sum();
        rows.push(vec![
            format!("{ranks}"),
            format!("{}", plan.depth()),
            format!("{:.3}%", 100.0 * prim.imbalance()),
            format!("{:.2}", ghost_total as f64 / catalog.len() as f64),
            fmt_count(ghost_total as u64),
        ]);
    }
    print_table(
        &[
            "ranks",
            "tree depth",
            "primary imbalance",
            "ghosts/galaxy",
            "total ghosts",
        ],
        &rows,
    );
    println!("\n(9636-rank analogue: 963 ranks on the scaled box — non-power-of-two,");
    println!(" primaries balanced to well under the paper's 0.1%)\n");

    println!("== pair-count (work) balance, 16 ranks ==\n");
    let plan = DomainPlan::build(&positions, catalog.bounds, 16);
    let lb = LoadBalance::from_counts(pair_counts(&plan, &positions, rmax));
    let rows = vec![
        vec![
            "pairs min / max".into(),
            format!("{} / {}", fmt_count(lb.min), fmt_count(lb.max)),
        ],
        vec![
            "imbalance (max-mean)/mean".into(),
            format!("{:.1}%", 100.0 * lb.imbalance()),
        ],
        vec![
            "peak-to-peak variation".into(),
            format!("{:.1}%", 100.0 * lb.variation()),
        ],
        vec![
            "implied efficiency".into(),
            format!("{:.0}%", 100.0 * lb.efficiency()),
        ],
    ];
    print_table(&["work balance", "value"], &rows);
    println!(
        "\npaper: ~25% pair imbalance in weak scaling; up to 60% variation in strong scaling."
    );
}
