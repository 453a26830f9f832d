//! The workload interface and the two run modes: the untraced run that
//! measures the end-to-end metrics, and the traced run that measures
//! the per-layer metrics.

use crate::provenance::{Provenance, Resolved};
use crate::trace::{OpProfile, BENCH_TRACK};
use crate::util::{median, now, peak_rss_mb, quantile, timed};
use galactos_bench::json::Json;
use galactos_core::{Engine, EngineConfig};
use galactos_obs::chrome::chrome_trace_json;
use galactos_obs::summary::render_summary;
use galactos_obs::ObsSession;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Set-ups per run: at least `SETUP_MIN_REPS`, then more while their
/// total stays under `SETUP_MIN_SECS`, up to `SETUP_MAX_REPS`, so that
/// millisecond set-ups get a steady median too. `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 200;
const SETUP_MIN_SECS: f64 = 1.0;

/// Least share of a traced operation that layer self time must cover.
const MIN_COVERAGE: f64 = 0.9;

/// `zeta_s` is this quantile of a run's operation times, not their
/// median. The host's speed changes in phases of tens of seconds to
/// minutes that a run cannot average out: in its slow phases every
/// operation takes about the same, longest time, while its fast phases
/// vary. The median of a run follows the share of fast phases it
/// happened to get; the 90th percentile reads the slow plateau, which
/// recurs in almost every run (see `galbench/README.md`).
const ZETA_QUANTILE: f64 = 0.9;

/// How big a workload's inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Seconds-scale inputs for the self-test.
    Smoke,
}

/// One correctness check of a workload's result against its reference:
/// passes when `value <= tol`.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub value: f64,
    pub tol: f64,
}

impl Check {
    pub fn new(name: &'static str, value: f64, tol: f64) -> Self {
        Check { name, value, tol }
    }

    /// A yes/no condition as a check (0 when it holds, 1 otherwise).
    pub fn holds(name: &'static str, ok: bool) -> Self {
        Check::new(name, if ok { 0.0 } else { 1.0 }, 0.0)
    }

    pub fn pass(&self) -> bool {
        self.value <= self.tol
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("value", Json::Num(self.value)),
            ("tol", Json::Num(self.tol)),
            ("pass", Json::Bool(self.pass())),
        ])
    }
}

/// The reference comparison of one result: the largest relative
/// deviation from the workload's reference (`zeta_rel_err`) and every
/// check the result must pass.
pub struct Verdict {
    pub zeta_rel_err: f64,
    pub checks: Vec<Check>,
}

impl Verdict {
    pub fn pass(&self) -> bool {
        self.checks.iter().all(Check::pass)
    }
}

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })
                .collect(),
        )
    }

    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<32} {value:>16.6e} {unit}");
        }
    }
}

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer that does not run on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kdtree.build_s", "s"),
    ("kdtree.search_s", "s"),
    ("kdtree.candidate_pairs", "count"),
    ("kdtree.pair_yield", "1"),
    ("core.bin_s", "s"),
    ("core.bin_ns_per_pair", "ns"),
    ("core.kernel_s", "s"),
    ("core.kernel_flops", "count"),
    ("core.kernel_gflops", "GF/s"),
    ("core.kernel_peak_frac", "1"),
    ("core.assembly_s", "s"),
    ("core.assembly_us_per_primary", "us"),
    ("core.parallel_eff", "1"),
    ("core.chunk_imbalance", "1"),
    ("core.engine_new_s", "s"),
    ("grid.paint_s", "s"),
    ("grid.fields_s", "s"),
    ("grid.contract_s", "s"),
    ("grid.selfpair_s", "s"),
    ("math.fft3_s", "s"),
    ("catalog.sky_read_s", "s"),
    ("catalog.sky_rows_per_s", "1/s"),
    ("catalog.randoms_s", "s"),
    ("catalog.shard_bytes_read", "B"),
    ("survey.dr_s", "s"),
    ("survey.window_s", "s"),
    ("survey.solve_s", "s"),
    ("pipeline.shard_task_s", "s"),
    ("pipeline.attempts", "count"),
    ("pipeline.failures", "count"),
    ("domain.ghost_ratio", "1"),
    ("mocks.lognormal_s", "s"),
    ("ensemble.realization_s", "s"),
    ("ensemble.checkpoint_write_s", "s"),
    ("ensemble.checkpoint_verify_s", "s"),
    ("ensemble.computed", "count"),
    ("ensemble.skipped", "count"),
    ("analysis.covariance_s", "s"),
    ("obs.overhead_frac", "1"),
    ("trace.coverage", "1"),
    ("trace.op_s", "s"),
    ("check.zeta_rel_err", "1"),
];

/// A benchmark workload: inputs made from a seed, one timed operation
/// through the public API, and the checks its result must pass.
pub trait Workload {
    type State;
    type Output;

    fn name(&self) -> &'static str;

    /// Generate the inputs from `seed` and construct the engine (or
    /// survey estimator, or ensemble runner). `work` is a private
    /// work directory for files the workload writes.
    fn setup(&self, seed: u64, work: &Path) -> Self::State;

    /// FNV-1a digest of the generated inputs.
    fn input_digest(&self, state: &Self::State) -> u64;

    /// Resolved backend, traversal and estimator.
    fn resolved(&self, state: &Self::State) -> Resolved;

    /// The timed operation.
    fn op(&self, state: &Self::State) -> Self::Output;

    /// Bit-level equality of two results.
    fn same_bits(&self, a: &Self::Output, b: &Self::Output) -> bool;

    /// ζ primaries one operation processes.
    fn primaries(&self, state: &Self::State, out: &Self::Output) -> u64;

    /// Compare a result with the workload's independent reference.
    fn verify(&self, state: &Self::State, out: &Self::Output) -> Verdict;

    /// The timed operation under a root span `root`, with every public
    /// call wrapped in a `<layer>::<call>` span and the program's own
    /// spans and counters recorded into `obs`.
    fn traced_op(&self, state: &Self::State, obs: &ObsSession, root: &str) -> Traced<Self::Output>;

    /// Per-layer metrics measured by calling a layer directly, outside
    /// the timed operation; `zeta_s` is the untraced operation's median.
    /// Returns the checks these calls make.
    fn direct_layers(&self, state: &Self::State, zeta_s: f64, metrics: &mut Metrics) -> Vec<Check>;

    /// Corrupt a result the smallest way the checks must still catch.
    fn corrupt(&self, state: &Self::State, out: &mut Self::Output);
}

/// One traced operation: its result, the attributed profile, the
/// workload's layer metrics and the counter reconciliations.
pub struct Traced<O> {
    pub out: O,
    pub profile: OpProfile,
    pub metrics: Metrics,
    pub reconcile: Vec<Check>,
}

/// Command-line options of one run.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub out_dir: PathBuf,
}

/// What a run reports on its last line.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// Set up repeatedly; returns the last state and the median set-up
/// seconds.
fn set_up<W: Workload>(w: &W, seed: u64, work: &Path) -> (W::State, f64) {
    let mut state = None;
    let mut secs: Vec<f64> = Vec::new();
    while secs.len() < SETUP_MIN_REPS
        || (secs.len() < SETUP_MAX_REPS && secs.iter().sum::<f64>() < SETUP_MIN_SECS)
    {
        drop(state.take());
        let (s, t) = timed(|| w.setup(seed, work));
        secs.push(t);
        state = Some(s);
    }
    (state.expect("at least one set-up"), median(&secs))
}

fn write_file(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

fn print_check(label: &str, c: &Check) {
    println!(
        "  {label} {:<34} {:>12.3e} <= {:<9.1e} {}",
        c.name,
        c.value,
        c.tol,
        if c.pass() { "pass" } else { "FAIL" }
    );
}

/// What both run modes do before timing: set up, stamp provenance, run
/// the untimed warm-up and check it against the reference.
struct Prepared<W: Workload> {
    work: PathBuf,
    state: W::State,
    setup_s: f64,
    prov: Provenance,
    warm: W::Output,
    verdict: Verdict,
}

impl<W: Workload> Prepared<W> {
    fn new(w: &W, args: &RunArgs) -> Self {
        let work = args
            .out_dir
            .join("work")
            .join(format!("{}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&work).expect("create the work directory");
        let (state, setup_s) = set_up(w, args.seed, &work);
        let prov = Provenance {
            workload: w.name().to_string(),
            seed: args.seed,
            input_fnv: w.input_digest(&state),
            resolved: w.resolved(&state),
        };
        print!("{}", prov.to_text());
        let (warm, warm_s) = timed(|| w.op(&state));
        let (verdict, verify_s) = timed(|| w.verify(&state, &warm));
        for c in &verdict.checks {
            print_check("check", c);
        }
        println!("  set-up {setup_s:.3} s, warm-up {warm_s:.3} s, reference check {verify_s:.3} s");
        Prepared {
            work,
            state,
            setup_s,
            prov,
            warm,
            verdict,
        }
    }

    /// An operation fails when the warm-up failed its reference check
    /// (every result is then wrong) or it does not reproduce the
    /// warm-up's bits.
    fn failed(&self, w: &W, out: &W::Output) -> bool {
        !self.verdict.pass() || !w.same_bits(out, &self.warm)
    }

    fn finish(self) {
        drop(self.state);
        std::fs::remove_dir_all(&self.work).ok();
    }
}

fn checks_json(checks: &[Check]) -> Json {
    Json::Arr(checks.iter().map(Check::to_json).collect())
}

/// The untraced run: set-up, an untimed warm-up that is also the
/// reference-checked result, then timed operations for `seconds`, each
/// required to reproduce the warm-up's bits.
pub fn run_untraced<W: Workload>(w: &W, args: &RunArgs) -> RunResult {
    let p = Prepared::new(w, args);
    let primaries = w.primaries(&p.state, &p.warm);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = now();
    let mut samples = Vec::new();
    let mut failed = 0u64;
    while samples.is_empty() || start.elapsed() < budget {
        let (out, t) = timed(|| w.op(&p.state));
        samples.push(t);
        failed += u64::from(p.failed(w, &out));
    }
    let attempted = samples.len() as u64;
    let error_rate = failed as f64 / attempted as f64;
    let zeta_s = quantile(&samples, ZETA_QUANTILE);
    let zeta_median_s = median(&samples);
    let mut metrics = Metrics::default();
    metrics.set("zeta_s", zeta_s, "s");
    metrics.set("primaries_per_s", primaries as f64 / zeta_s, "1/s");
    metrics.set("setup_s", p.setup_s, "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    let result = RunResult {
        attempted,
        failed,
        metrics,
    };
    println!(
        "  {attempted} timed operations; median {zeta_median_s:.4} s; zeta_rel_err {:.3e} (1); error_rate {error_rate} (1)",
        p.verdict.zeta_rel_err
    );
    let record = Json::obj([
        ("provenance", p.prov.to_json()),
        ("mode", Json::str("untraced")),
        ("seconds", Json::Num(args.seconds)),
        (
            "samples_s",
            Json::Arr(samples.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("zeta_median_s", Json::Num(zeta_median_s)),
        ("primaries_per_op", Json::Int(primaries)),
        ("zeta_rel_err", Json::Num(p.verdict.zeta_rel_err)),
        ("error_rate", Json::Num(error_rate)),
        ("checks", checks_json(&p.verdict.checks)),
        ("result", result.to_json()),
    ]);
    write_file(
        &args
            .out_dir
            .join(format!("{}_seed{}.json", w.name(), args.seed)),
        &record.to_pretty(),
    );
    p.finish();
    result
}

/// Engine-stage metrics shared by the tree workloads, from the
/// attributed profile and the op's obs counters.
pub fn engine_stage_metrics(
    profile: &OpProfile,
    obs: &ObsSession,
    lmax: usize,
    primaries: u64,
    metrics: &mut Metrics,
) {
    let binned = obs.registry.counter_value("engine.binned_pairs");
    let candidates = obs.registry.counter_value("engine.candidate_pairs");
    let cpu = &profile.stage_cpu;
    let kernel_flops = binned * galactos_core::flops::kernel_flops_per_pair(lmax);
    metrics.set("kdtree.build_s", profile.layer("kdtree.build"), "s");
    metrics.set("kdtree.search_s", profile.layer("kdtree.search"), "s");
    metrics.set("kdtree.candidate_pairs", candidates as f64, "count");
    metrics.set(
        "kdtree.pair_yield",
        binned as f64 / candidates.max(1) as f64,
        "1",
    );
    metrics.set("core.bin_s", profile.layer("core.bin"), "s");
    metrics.set(
        "core.bin_ns_per_pair",
        cpu.bin * 1e9 / binned.max(1) as f64,
        "ns",
    );
    metrics.set("core.kernel_s", profile.layer("core.kernel"), "s");
    metrics.set("core.kernel_flops", kernel_flops as f64, "count");
    if cpu.kernel > 0.0 {
        metrics.set(
            "core.kernel_gflops",
            kernel_flops as f64 / cpu.kernel / 1e9,
            "GF/s",
        );
    }
    metrics.set("core.assembly_s", profile.layer("core.assembly"), "s");
    metrics.set(
        "core.assembly_us_per_primary",
        cpu.assembly * 1e6 / primaries.max(1) as f64,
        "us",
    );
    metrics.set("core.chunk_imbalance", cpu.imbalance, "1");
}

/// The backend, traversal and estimator `engine` resolved at construction.
pub fn resolved(engine: &Engine) -> Resolved {
    vec![
        ("backend", engine.backend_kind().name().to_string()),
        ("traversal", engine.traversal_kind().name().to_string()),
        ("estimator", engine.estimator_kind().name().to_string()),
    ]
}

/// Median of three `Engine::new` calls.
pub fn engine_new_s(config: EngineConfig) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| timed(|| std::hint::black_box(Engine::new(config.clone()))).1)
        .collect();
    median(&times)
}

/// The obs counter `engine.binned_pairs` must sum to the result's
/// `binned_pairs`.
pub fn binned_pairs_reconcile(obs: &ObsSession, binned_pairs: u64) -> Check {
    let counted = obs.registry.counter_value("engine.binned_pairs");
    Check::new(
        "engine.binned_pairs",
        counted.abs_diff(binned_pairs) as f64,
        0.0,
    )
}

/// The traced run: set-up, warm-up and reference check as in the
/// untraced run, then alternating untraced and traced operations for
/// `seconds`. Layer metrics are medians over the traced operations;
/// `obs.overhead_frac` compares their wall-clock time with the
/// untraced ones. Writes a Chrome trace and a text summary of the last
/// traced operation and the layer table, each with the provenance
/// header.
pub fn run_traced<W: Workload>(w: &W, args: &RunArgs) -> RunResult {
    let p = Prepared::new(w, args);
    let root = format!("{}.op", w.name());
    let budget = Duration::from_secs_f64(args.seconds);
    let start = now();
    let mut untraced = Vec::new();
    let mut traced: Vec<(Metrics, OpProfile)> = Vec::new();
    let mut reconcile: Vec<Check> = Vec::new();
    let mut failed = 0u64;
    let mut last_obs = None;
    while traced.is_empty() || start.elapsed() < budget {
        let (out, t) = timed(|| w.op(&p.state));
        untraced.push(t);
        failed += u64::from(p.failed(w, &out));
        drop(out);

        let obs = ObsSession::enabled();
        obs.tracer.name_track(BENCH_TRACK);
        let t = w.traced_op(&p.state, &obs, &root);
        let ok = t.reconcile.iter().all(Check::pass) && !p.failed(w, &t.out);
        failed += u64::from(!ok);
        if reconcile.is_empty() || !ok {
            reconcile = t.reconcile;
        }
        traced.push((t.metrics, t.profile));
        last_obs = Some(obs);
    }
    let attempted = (untraced.len() + traced.len()) as u64;

    let mut metrics = Metrics::default();
    for &(name, unit) in PER_LAYER {
        let values: Vec<f64> = traced.iter().filter_map(|(m, _)| m.get(name)).collect();
        let value = if values.is_empty() {
            0.0
        } else {
            median(&values)
        };
        metrics.set(name, value, unit);
    }
    let op_s = median(&traced.iter().map(|(_, p)| p.op_s).collect::<Vec<_>>());
    let coverage = median(&traced.iter().map(|(_, p)| p.coverage).collect::<Vec<_>>());
    let zeta_s = median(&untraced);
    metrics.set("trace.op_s", op_s, "s");
    metrics.set("trace.coverage", coverage, "1");
    metrics.set("obs.overhead_frac", op_s / zeta_s - 1.0, "1");
    metrics.set("check.zeta_rel_err", p.verdict.zeta_rel_err, "1");
    let mut run_checks = vec![Check::new(
        "trace.uncovered_share",
        1.0 - coverage,
        1.0 - MIN_COVERAGE,
    )];
    run_checks.extend(w.direct_layers(&p.state, zeta_s, &mut metrics));
    failed += run_checks.iter().filter(|c| !c.pass()).count() as u64;
    reconcile.extend(run_checks);
    if let Some(gflops) = metrics.get("core.kernel_gflops").filter(|g| *g > 0.0) {
        let fma_peak = galactos_bench::peak::measure_fma_peak_gflops(0.2);
        metrics.set("core.kernel_peak_frac", gflops / fma_peak, "1");
    }
    for c in &reconcile {
        print_check("reconcile", c);
    }

    let obs = last_obs.expect("at least one traced operation");
    let stem = format!("{}_seed{}", w.name(), args.seed);
    let chrome = chrome_trace_json(&obs.tracer, &format!("galbench {}", w.name()));
    let chrome = match Json::parse(&chrome) {
        Ok(Json::Obj(mut fields)) => {
            fields.insert(0, ("metadata".to_string(), p.prov.to_json()));
            Json::Obj(fields).to_pretty()
        }
        _ => chrome,
    };
    write_file(&args.out_dir.join(format!("{stem}_trace.json")), &chrome);
    let profile = &traced.last().expect("traced op").1;
    let mut summary = format!(
        "\nlayer self time of one traced operation ({:.4} s, coverage {:.1}%):\n",
        profile.op_s,
        100.0 * profile.coverage
    );
    for (layer, t) in &profile.layers {
        summary.push_str(&format!(
            "  {layer:<24} {t:>10.4} s {:>6.1}%\n",
            100.0 * t / profile.op_s.max(f64::MIN_POSITIVE)
        ));
    }
    summary.push('\n');
    summary.push_str(&render_summary(&obs.tracer, w.name()));
    print!("{summary}");
    write_file(
        &args.out_dir.join(format!("{stem}_trace_summary.txt")),
        &format!("{}{summary}", p.prov.to_text()),
    );

    let result = RunResult {
        attempted,
        failed,
        metrics,
    };
    let record = Json::obj([
        ("provenance", p.prov.to_json()),
        ("mode", Json::str("traced")),
        ("seconds", Json::Num(args.seconds)),
        ("setup_s", Json::Num(p.setup_s)),
        ("traced_ops", Json::Int(traced.len() as u64)),
        ("reconcile", checks_json(&reconcile)),
        ("checks", checks_json(&p.verdict.checks)),
        ("result", result.to_json()),
    ]);
    write_file(
        &args.out_dir.join(format!("{stem}_layers.json")),
        &record.to_pretty(),
    );
    p.finish();
    result
}

/// The self-test of one workload at smoke scale: the warm-up passes its
/// checks, a repeat reproduces its bits, and a corrupted result is
/// counted as a failed operation. Returns the problems found (none
/// when the workload's checks behave).
pub fn self_test<W: Workload>(w: &W, out_dir: &Path) -> Vec<String> {
    println!("== {} (smoke)", w.name());
    let args = RunArgs {
        seed: galactos_bench::BENCH_SEED,
        seconds: 0.0,
        out_dir: out_dir.to_path_buf(),
    };
    let p = Prepared::new(w, &args);
    let mut problems = Vec::new();
    if !p.verdict.pass() {
        problems.push("clean result fails its checks");
    }
    let mut again = w.op(&p.state);
    if p.failed(w, &again) {
        problems.push("repeat is not bit-identical");
    }
    w.corrupt(&p.state, &mut again);
    if !p.failed(w, &again) {
        problems.push("corrupted result not counted in error_rate");
    }
    p.finish();
    problems
        .into_iter()
        .map(|problem| format!("{}: {problem}", w.name()))
        .collect()
}
