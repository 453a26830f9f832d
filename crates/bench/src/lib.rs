//! Shared infrastructure for the paper-reproduction benchmark binaries.
//!
//! Each table/figure of the paper's evaluation has a binary under
//! `src/bin/` (run with `cargo run --release -p galactos-bench --bin
//! <name>`); kernel microbenchmarks live in `benches/` (run with
//! `cargo bench`). This library provides what they share:
//!
//! * [`costmodel`] — the measured-throughput cost model that converts
//!   exact per-rank pair counts into simulated times for rank counts far
//!   beyond the host (the Cori substitution documented in DESIGN.md §1);
//! * [`datasets`] — catalog generation wrappers at paper-scaled sizes;
//! * [`tables`] — aligned console table printing;
//! * [`peak`] — an FMA micro-benchmark measuring the host's achievable
//!   peak FLOP rate, the denominator of the paper's "39% of peak";
//! * [`json`] — a minimal JSON builder for machine-readable outputs
//!   like `perf_baseline`'s `BENCH_kernels.json`;
//! * [`tree_stage_nanos`] — the tree engine's Figure 4 stage breakdown
//!   read back from an observed run.

#![forbid(unsafe_code)]

pub mod costmodel;
pub mod datasets;
pub mod json;
pub mod peak;
pub mod tables;

/// Standard random seed used by the benchmark binaries so runs are
/// reproducible.
pub const BENCH_SEED: u64 = 20170601;

/// The tree engine's stage breakdown from a session an
/// [`Engine::compute_observed`](galactos_core::Engine::compute_observed)
/// run recorded into, in report order: the `engine/tree_build` span,
/// then the `engine.{search,bin,kernel,assembly}_nanos` counters. Each
/// entry is `(label, nanos)`.
pub fn tree_stage_nanos(obs: &galactos_obs::ObsSession) -> [(&'static str, u64); 5] {
    let tree_build = obs
        .tracer
        .finished()
        .iter()
        .filter(|s| s.path == "engine/tree_build")
        .map(|s| s.duration_nanos())
        .sum();
    let counter = |name| obs.registry.counter_value(name);
    [
        ("k-d tree build", tree_build),
        ("k-d tree search", counter("engine.search_nanos")),
        ("rotation+binning", counter("engine.bin_nanos")),
        ("multipole accumulation", counter("engine.kernel_nanos")),
        ("a_lm & zeta assembly", counter("engine.assembly_nanos")),
    ]
}
