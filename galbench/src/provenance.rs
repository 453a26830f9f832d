//! The provenance header stamped on every result file and trace: the
//! host, the build, the resolved engine choices and the inputs.

use galactos_bench::json::Json;
use std::path::Path;

/// What a workload resolved at construction (`Engine::backend_kind`,
/// `traversal_kind`, `estimator_kind`), as `(name, value)` pairs.
pub type Resolved = Vec<(&'static str, String)>;

pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub input_fnv: u64,
    pub resolved: Resolved,
}

impl Provenance {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.as_str())),
            ("seed", Json::Int(self.seed)),
            ("input_fnv", Json::str(format!("{:016x}", self.input_fnv))),
            (
                "resolved",
                Json::Obj(
                    self.resolved
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::str(v.as_str())))
                        .collect(),
                ),
            ),
            ("cpu_model", Json::str(cpu_model())),
            ("runtime_features", features(&runtime_features())),
            ("compiled_target_features", features(&compiled_features())),
            ("pool_width", Json::Int(rayon::current_num_threads() as u64)),
            ("nproc", Json::Int(nproc() as u64)),
            ("git_commit", Json::str(git_commit())),
        ])
    }

    /// The same header as `# key: value` lines for text outputs.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if let Json::Obj(fields) = self.to_json() {
            for (k, v) in fields {
                out.push_str(&format!("# {k}: {}\n", crate::util::compact(&v)));
            }
        }
        out
    }
}

fn features(list: &[(&'static str, bool)]) -> Json {
    Json::Obj(
        list.iter()
            .map(|&(name, on)| (name.to_string(), Json::Bool(on)))
            .collect(),
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU features detected at run time.
fn runtime_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        vec![("avx2", false), ("avx512f", false), ("fma", false)]
    }
}

/// Target features the binary was compiled for.
fn compiled_features() -> Vec<(&'static str, bool)> {
    vec![
        ("sse2", cfg!(target_feature = "sse2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, name)| *name == reference)
                    .map(|(id, _)| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
