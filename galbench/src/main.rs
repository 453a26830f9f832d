//! `galbench` — the repository benchmark.
//!
//! ```text
//! galbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! galbench --self-test
//! ```
//!
//! Workloads: `paper_tree`, `grid_mesh128`, `survey_radial`,
//! `ensemble_resume` (see `galbench/README.md` for why each exists).
//! Every input is generated from `--seed`; the program under test only
//! ever sees the generated inputs. An untraced run (`--trace 0`, the
//! default) prints the end-to-end metrics; a traced run (`--trace 1`)
//! prints the per-layer metrics and writes a Chrome trace. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Result files, traces
//! and summaries go to `.bench_out/`, each headed by the run's
//! provenance.

mod catalogs;
mod ensemble_resume;
mod grid_mesh;
mod paper_tree;
mod provenance;
mod run;
mod survey_radial;
mod trace;
mod util;

use galactos_bench::json::Json;
use run::{run_traced, run_untraced, self_test, RunArgs, RunResult, Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "paper_tree",
    "grid_mesh128",
    "survey_radial",
    "ensemble_resume",
];
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn usage() -> String {
    format!(
        "usage: galbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]\n       galbench --self-test",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: galactos_bench::BENCH_SEED,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) && args.workload != "all" {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn run_one<W: Workload>(w: &W, args: &RunArgs, trace: bool) -> RunResult {
    if trace {
        run_traced(w, args)
    } else {
        run_untraced(w, args)
    }
}

fn run_named(name: &str, args: &RunArgs, trace: bool) -> RunResult {
    println!(
        "== {name} (seed {}, {} s{})",
        args.seed,
        args.seconds,
        if trace { ", traced" } else { "" }
    );
    let result = match name {
        "paper_tree" => run_one(&paper_tree::PaperTree::new(Scale::Full), args, trace),
        "grid_mesh128" => run_one(&grid_mesh::GridMesh::new(Scale::Full), args, trace),
        "survey_radial" => run_one(&survey_radial::SurveyRadial::new(Scale::Full), args, trace),
        "ensemble_resume" => run_one(
            &ensemble_resume::EnsembleResume::new(Scale::Full),
            args,
            trace,
        ),
        other => unreachable!("workload {other} was validated"),
    };
    result.metrics.print();
    result
}

fn run_self_test(out_dir: &Path) -> ExitCode {
    let mut problems = Vec::new();
    problems.extend(self_test(
        &paper_tree::PaperTree::new(Scale::Smoke),
        out_dir,
    ));
    problems.extend(self_test(&grid_mesh::GridMesh::new(Scale::Smoke), out_dir));
    problems.extend(self_test(
        &survey_radial::SurveyRadial::new(Scale::Smoke),
        out_dir,
    ));
    problems.extend(self_test(
        &ensemble_resume::EnsembleResume::new(Scale::Smoke),
        out_dir,
    ));
    for p in &problems {
        eprintln!("self-test FAIL: {p}");
    }
    if problems.is_empty() {
        println!("self-test: every workload's checks reject a corrupted result");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).expect("create the output directory");
    if args.self_test {
        return run_self_test(&out_dir);
    }
    let run_args = RunArgs {
        seed: args.seed,
        seconds: args.seconds,
        out_dir,
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let results: Vec<(&str, RunResult)> = names
        .iter()
        .map(|&name| (name, run_named(name, &run_args, args.trace)))
        .collect();
    let correct = results.iter().all(|(_, r)| r.correct());
    let line = if let [(_, only)] = results.as_slice() {
        only.to_json()
    } else {
        Json::Obj(
            results
                .iter()
                .map(|(name, r)| (name.to_string(), r.to_json()))
                .collect(),
        )
    };
    println!("{}", util::compact(&line));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
