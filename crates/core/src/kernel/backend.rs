//! Kernel backend selection.
//!
//! Two implementations of the a_ℓm accumulation kernel exist: the
//! paper's 8-lane [`simd`](crate::kernel::simd) kernel and the one-lane
//! [`scalar`](crate::kernel::scalar) reference it is tested against.
//! The pieces:
//!
//! * [`BackendKind`] — the closed set of implementations; its
//!   per-worker state is built by [`KernelAccumulator::new`](
//!   crate::kernel::KernelAccumulator::new);
//! * [`BackendChoice`] — what sits in [`EngineConfig`](
//!   crate::config::EngineConfig): either a pinned kind (tests and
//!   benchmarks pin the scalar reference this way) or `Auto`, which is
//!   [`detect`].

use std::fmt;

/// The closed set of kernel implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// One pair at a time, plain `f64` — the reference arithmetic.
    Scalar,
    /// 8-lane vectors, 4 chains in flight, one bucket per call (§3.3.2).
    Simd,
}

impl BackendKind {
    /// Every backend, in scalar-first order (the order benchmark tables
    /// and equivalence sweeps use).
    pub const ALL: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Simd];

    /// Stable lowercase name (for reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The backend this build runs by default: [`BackendKind::Simd`] on
/// vector targets (x86-64, aarch64, wasm simd128), the scalar reference
/// elsewhere rather than paying 8-lane bookkeeping with no vector
/// registers to map it onto.
///
/// The lane types in `galactos-simd` are portable (plain arrays that
/// LLVM autovectorizes), so both backends are *correct* everywhere;
/// this only decides which is expected to be *fastest*.
/// `BENCH_kernels.json` records the measured ranking and the build's
/// target features.
pub fn detect() -> BackendKind {
    if cfg!(any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_feature = "simd128"
    )) {
        BackendKind::Simd
    } else {
        BackendKind::Scalar
    }
}

/// Backend selection as configured on [`EngineConfig`](
/// crate::config::EngineConfig). Resolved once, at [`Engine::new`](
/// crate::engine::Engine::new) — not per worker or per call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Whatever [`detect`] picks for this build.
    #[default]
    Auto,
    /// Always this backend.
    Fixed(BackendKind),
}

impl BackendChoice {
    /// The backend this choice runs.
    pub fn resolve(self) -> BackendKind {
        match self {
            BackendChoice::Fixed(kind) => kind,
            BackendChoice::Auto => detect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_choice_ignores_environment() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendChoice::Fixed(kind).resolve(), kind);
        }
    }

    #[test]
    fn detect_never_picks_scalar_on_vector_targets() {
        // The test suite runs on x86-64 or aarch64 hosts; both have
        // vector units, so detection must not demote to scalar there.
        if cfg!(any(target_arch = "x86_64", target_arch = "aarch64")) {
            assert_eq!(detect(), BackendKind::Simd);
        }
    }

    #[test]
    fn default_choice_is_auto() {
        assert_eq!(BackendChoice::default(), BackendChoice::Auto);
        assert_eq!(BackendChoice::Auto.resolve(), detect());
    }

    #[test]
    fn names_are_stable_and_displayed() {
        assert_eq!(BackendKind::Scalar.name(), "scalar");
        assert_eq!(BackendKind::Simd.name(), "simd");
        for kind in BackendKind::ALL {
            assert_eq!(format!("{kind}"), kind.name());
        }
    }
}
