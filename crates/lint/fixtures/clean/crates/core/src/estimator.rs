//! Must-not-fire: this path is the designated knob-resolution module.

pub const ESTIMATOR_ENV: &str = "GALACTOS_ESTIMATOR";

pub fn resolve() -> Option<String> {
    std::env::var(ESTIMATOR_ENV).ok()
}
