//! Small helpers shared by the workloads: statistics, process memory,
//! input digests, bit-level result comparison and compact JSON.

use galactos_bench::json::Json;
use galactos_catalog::Catalog;
use galactos_core::AnisotropicZeta;
use std::fmt::Write as _;
use std::time::Instant;

/// The `q` quantile of a non-empty sample, interpolated linearly
/// between the two nearest order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The benchmark's only clock read.
pub fn now() -> Instant {
    // lint:allow(W-CLOCK): the benchmark times public API calls from outside the program
    Instant::now()
}

/// Run `f` and return its result with the wall-clock seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Incremental 64-bit FNV-1a digest.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    /// Positions, weights and periodicity of every galaxy.
    pub fn catalog(&mut self, catalog: &Catalog) {
        self.bytes(&(catalog.len() as u64).to_le_bytes());
        for g in &catalog.galaxies {
            self.f64(g.pos.x);
            self.f64(g.pos.y);
            self.f64(g.pos.z);
            self.f64(g.weight);
        }
        self.f64(catalog.periodic.unwrap_or(-1.0));
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// True when two ζ results agree bit for bit, counts included.
pub fn same_zeta_bits(a: &AnisotropicZeta, b: &AnisotropicZeta) -> bool {
    a.lmax() == b.lmax()
        && a.nbins() == b.nbins()
        && a.binned_pairs == b.binned_pairs
        && a.num_primaries == b.num_primaries
        && a.total_primary_weight.to_bits() == b.total_primary_weight.to_bits()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// True when two float slices agree bit for bit.
pub fn same_f64_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Max absolute difference relative to the reference's largest entry.
pub fn zeta_rel_err(got: &AnisotropicZeta, want: &AnisotropicZeta) -> f64 {
    got.max_difference(want) / want.max_abs().max(f64::MIN_POSITIVE)
}

/// Flip the lowest mantissa bit of the first nonzero ζ coefficient:
/// the smallest corruption a bit-identity check must still catch.
pub fn flip_zeta_bit(zeta: &mut AnisotropicZeta) {
    let c = zeta
        .data_mut()
        .iter_mut()
        .find(|c| c.re != 0.0)
        .expect("a nonzero ζ coefficient");
    c.re = f64::from_bits(c.re.to_bits() ^ 1);
}

/// Serialize on one line (the benchmark's result line). Floats use
/// Rust's shortest round-trip form, so every measured digit survives.
pub fn compact(value: &Json) -> String {
    let mut out = String::new();
    write_compact(value, &mut out);
    out
}

fn write_compact(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::Num(x) if x.is_finite() => {
            let _ = write!(out, "{x:?}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(k, out);
                out.push_str(": ");
                write_compact(v, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn compact_json_is_one_line_with_full_digits() {
        let j = Json::obj([
            ("a", Json::Num(0.1 + 0.2)),
            ("b", Json::str("x\"y")),
            ("c", Json::Arr(vec![Json::Int(3), Json::Bool(true)])),
        ]);
        assert_eq!(
            compact(&j),
            r#"{"a": 0.30000000000000004, "b": "x\"y", "c": [3, true]}"#
        );
    }
}
