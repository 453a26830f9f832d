//! `sharded_ingest` — I/O trajectory of the GCAT v2 out-of-core path.
//!
//! Writes a mock catalog as a plan-aligned shard directory, then for
//! each rank count ingests it rank by rank through
//! [`galactos_domain::shard::distribute_from_shards`], recording what
//! the spatial pruning actually bought: per-rank bytes read, shard
//! records streamed, and resident galaxies (owned + ghosts), all
//! emitted to a machine-readable JSON file (default
//! `BENCH_sharded_ingest.json`) so per-rank bytes-read has a trajectory
//! PR over PR.
//!
//! As a correctness gate for CI, the full
//! [`galactos_core::pipeline::compute_distributed_sharded`] run is
//! compared against the single-process engine: the JSON's
//! `equivalence_ok` verdict is false and the process exits nonzero
//! beyond 1e-9 relative; it also exits nonzero if any rank's resident
//! galaxies reach the full catalog size for multi-rank runs.
//!
//! Usage: `sharded_ingest [--smoke] [--out PATH]`
//! (`--smoke` shrinks the catalog and rank set to CI scale.)

use galactos_bench::datasets::{node_dataset, scaled_rmax};
use galactos_bench::json::Json;
use galactos_bench::tables::print_table;
use galactos_bench::BENCH_SEED;
use galactos_catalog::shard::MANIFEST_FILE;
use galactos_core::config::EngineConfig;
use galactos_core::engine::Engine;
use galactos_core::pipeline::compute_distributed_sharded;
use galactos_domain::shard::{distribute_from_shards, write_sharded};
use std::time::Instant;

/// Relative tolerance of the sharded-vs-single equivalence gate.
const EQUIV_TOL: f64 = 1e-9;

struct Params {
    smoke: bool,
    out: String,
    galaxies: usize,
    num_shards: usize,
    rank_counts: Vec<usize>,
    lmax: usize,
    nbins: usize,
}

impl Params {
    fn new(smoke: bool) -> Self {
        if smoke {
            Params {
                smoke,
                out: String::new(),
                galaxies: 2_000,
                num_shards: 12,
                rank_counts: vec![1, 2, 4],
                lmax: 2,
                nbins: 3,
            }
        } else {
            Params {
                smoke,
                out: String::new(),
                galaxies: 20_000,
                num_shards: 32,
                rank_counts: vec![1, 2, 4, 8],
                lmax: 4,
                nbins: 5,
            }
        }
    }
}

fn main() {
    let mut smoke = false;
    let mut out = "BENCH_sharded_ingest.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument {other}; usage: sharded_ingest [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let mut params = Params::new(smoke);
    params.out = out;

    let cat = node_dataset(params.galaxies, true, BENCH_SEED);
    let rmax = scaled_rmax(&cat);
    let config = EngineConfig::test_default(rmax, params.lmax, params.nbins);

    let dir = std::env::temp_dir().join(format!("galactos_sharded_ingest_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let t0 = Instant::now();
    let manifest = write_sharded(&cat, params.num_shards, &dir).expect("write shards");
    let write_secs = t0.elapsed().as_secs_f64();
    let catalog_bytes: u64 = std::fs::read_dir(&dir)
        .expect("shard dir")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum();
    println!(
        "catalog: {} galaxies, rmax {rmax:.1}, {} shards, {} bytes on disk ({write_secs:.2}s write)\n",
        cat.len(),
        params.num_shards,
        catalog_bytes
    );

    let single = Engine::new(config.clone()).compute(&cat);
    let scale = single.max_abs().max(1.0);
    let manifest_path = dir.join(MANIFEST_FILE);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut runs = Vec::new();
    let mut failed = false;
    let mut equivalence_ok = true;
    for &ranks in &params.rank_counts {
        // Per-rank ingestion, timed one rank at a time so the numbers
        // are attributable.
        let mut per_rank = Vec::new();
        let mut max_bytes = 0u64;
        let mut max_resident = 0usize;
        let mut total_bytes = 0u64;
        for r in 0..ranks {
            let t = Instant::now();
            let rd = distribute_from_shards(&dir, &manifest, r, ranks, rmax).expect("ingest");
            let secs = t.elapsed().as_secs_f64();
            max_bytes = max_bytes.max(rd.bytes_read);
            max_resident = max_resident.max(rd.resident());
            total_bytes += rd.bytes_read;
            per_rank.push(Json::obj([
                ("rank", Json::Int(r as u64)),
                ("owned", Json::Int(rd.owned.len() as u64)),
                ("ghosts", Json::Int(rd.ghosts.len() as u64)),
                ("records_read", Json::Int(rd.records_read)),
                ("bytes_read", Json::Int(rd.bytes_read)),
                ("ingest_secs", Json::Num(secs)),
            ]));
            if ranks > 1 && rd.resident() >= cat.len() {
                eprintln!(
                    "FAIL: rank {r}/{ranks} resident {} = full catalog",
                    rd.resident()
                );
                failed = true;
            }
        }

        // Full pipeline run: correctness gate against the single engine.
        let t = Instant::now();
        let dist = compute_distributed_sharded(&manifest_path, &config, ranks).expect("pipeline");
        let pipeline_secs = t.elapsed().as_secs_f64();
        let diff = dist.zeta.max_difference(&single) / scale;
        if diff > EQUIV_TOL {
            eprintln!("FAIL: ranks {ranks} sharded vs single rel diff {diff:.3e}");
            equivalence_ok = false;
            failed = true;
        }

        rows.push(vec![
            format!("{ranks}"),
            format!("{}", max_resident),
            format!("{:.1}%", 100.0 * max_bytes as f64 / catalog_bytes as f64),
            format!("{:.1}x", total_bytes as f64 / catalog_bytes as f64),
            format!("{pipeline_secs:.2}"),
            format!("{diff:.1e}"),
        ]);
        runs.push(Json::obj([
            ("ranks", Json::Int(ranks as u64)),
            ("max_resident_galaxies", Json::Int(max_resident as u64)),
            ("max_rank_bytes_read", Json::Int(max_bytes)),
            ("total_bytes_read", Json::Int(total_bytes)),
            ("pipeline_secs", Json::Num(pipeline_secs)),
            ("rel_diff_vs_single", Json::Num(diff)),
            ("per_rank", Json::Arr(per_rank)),
        ]));
    }

    println!("== sharded ingestion: per-rank I/O vs rank count ==\n");
    print_table(
        &[
            "ranks",
            "max resident",
            "max rank read",
            "total read",
            "pipeline s",
            "rel diff",
        ],
        &rows,
    );

    let doc = Json::obj([
        ("schema", Json::str("galactos/bench-sharded-ingest/v1")),
        (
            "mode",
            Json::str(if params.smoke { "smoke" } else { "full" }),
        ),
        ("galaxies", Json::Int(cat.len() as u64)),
        ("num_shards", Json::Int(params.num_shards as u64)),
        ("rmax", Json::Num(rmax)),
        ("lmax", Json::Int(params.lmax as u64)),
        ("nbins", Json::Int(params.nbins as u64)),
        ("catalog_bytes", Json::Int(catalog_bytes)),
        ("shard_write_secs", Json::Num(write_secs)),
        ("equivalence_tol", Json::Num(EQUIV_TOL)),
        ("equivalence_ok", Json::Bool(equivalence_ok)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(&params.out, doc.to_pretty()).expect("write JSON output");
    println!("\nwrote {}", params.out);

    std::fs::remove_dir_all(&dir).ok();
    if failed {
        std::process::exit(1);
    }
}
