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
//!   read back from an observed run;
//! * [`size_arg`] — the optional catalog-size argument the figure and
//!   ablation binaries take, rejecting input that does not parse.

#![forbid(unsafe_code)]

pub mod costmodel;
pub mod datasets;
pub mod json;
pub mod peak;
pub mod tables;

/// Standard random seed used by the benchmark binaries so runs are
/// reproducible.
pub const BENCH_SEED: u64 = 20170601;

/// Parse an optional size argument: absent means `default`; present
/// must parse as a `T` (surrounding whitespace allowed), otherwise the
/// error names the rejected text.
fn parse_size<T: std::str::FromStr>(arg: Option<&str>, default: T) -> Result<T, String> {
    match arg {
        None => Ok(default),
        Some(s) => s
            .trim()
            .parse()
            .map_err(|_| format!("size argument {s:?} is not a number")),
    }
}

/// The binary's first command-line argument as its problem size, or
/// `default` when there is none. A size that does not parse (say `2k`)
/// prints a usage line and exits with status 2 rather than silently
/// running the (large, slow) default.
pub fn size_arg<T: std::str::FromStr + std::fmt::Display>(default: T) -> T {
    let mut args = std::env::args();
    let bin = args
        .next()
        .and_then(|p| {
            std::path::Path::new(&p)
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "bench".to_string());
    let usage = format!("usage: {bin} [SIZE]   (SIZE defaults to {default})");
    parse_size(args.next().as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{usage}");
        std::process::exit(2);
    })
}

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

#[cfg(test)]
mod tests {
    use super::parse_size;

    #[test]
    fn missing_size_falls_back_to_default() {
        assert_eq!(parse_size::<usize>(None, 30_000), Ok(30_000));
        assert_eq!(parse_size::<f64>(None, 4_000.0), Ok(4_000.0));
    }

    #[test]
    fn valid_size_parses() {
        assert_eq!(parse_size::<usize>(Some("2000"), 30_000), Ok(2000));
        assert_eq!(parse_size::<usize>(Some(" 2000 "), 30_000), Ok(2000));
        assert_eq!(parse_size::<f64>(Some("1e4"), 40_000.0), Ok(10_000.0));
    }

    #[test]
    fn garbage_size_is_an_error_naming_the_input() {
        for bad in ["2k", "", "-5", "lots"] {
            let err = parse_size::<usize>(Some(bad), 30_000).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
        assert!(parse_size::<f64>(Some("4k"), 4_000.0).is_err());
    }
}
