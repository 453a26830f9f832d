//! `ensemble_resume` — a checkpointed mock ensemble interrupted halfway
//! and resumed: `MockEnsemble::run_limited(K/2)`, then `run()` on a
//! fresh runner over the same directory. Many small computes, so
//! per-call costs dominate: mock FFTs, `Engine::new` per shard task,
//! shard writes and reads, checkpoint writes and verification, and the
//! covariance.

use crate::provenance::Resolved;
use crate::run::{engine_new_s, Check, Metrics, Scale, Traced, Verdict, Workload};
use crate::trace;
use crate::util::{median, same_f64_bits, timed, Fnv};
use galactos_analysis::{sample_covariance, zeta_to_vector, Covariance};
use galactos_catalog::shard::MANIFEST_FILE;
use galactos_cluster::fault::FaultPlan;
use galactos_core::pipeline::compute_distributed_supervised_observed;
use galactos_core::{Engine, EngineConfig, ObsSession};
use galactos_domain::shard::write_sharded;
use galactos_ensemble::{
    read_checkpoint, write_checkpoint, CheckpointIdentity, EnsembleConfig, EnsembleResult,
    MockEnsemble, RunStatus, SpectrumChoice,
};
use galactos_mocks::{lognormal, PowerLawSpectrum};
use std::path::{Path, PathBuf};

/// The timed operation's checkpoint directory, under the work directory.
const RESUME_DIR: &str = "resume";

/// Realizations the traced run pushes through the pipeline by hand to
/// time the mock, shard, checkpoint and covariance layers one by one.
const DIRECT_REALIZATIONS: usize = 4;

pub struct EnsembleResume {
    realizations: usize,
    n_target: usize,
    mesh_n: usize,
    box_len: f64,
}

impl EnsembleResume {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => EnsembleResume {
                realizations: 32,
                n_target: 3_000,
                mesh_n: 32,
                box_len: 91.0,
            },
            Scale::Smoke => EnsembleResume {
                realizations: 4,
                n_target: 300,
                mesh_n: 16,
                box_len: 42.0,
            },
        }
    }

    fn config(&self, seed: u64) -> EnsembleConfig {
        let mut config = EnsembleConfig::smoke(self.realizations, seed);
        config.mesh_n = self.mesh_n;
        config.box_len = self.box_len;
        config.n_target = self.n_target;
        config.engine = EngineConfig::test_default(self.box_len / 4.0, 4, 5);
        config.num_shards = 4;
        // One rank: each rank thread runs its engine at the host pool
        // width, so more ranks would oversubscribe the cores.
        config.num_ranks = 1;
        config
    }
}

pub struct State {
    config: EnsembleConfig,
    /// Per realization: the mock's galaxy count (every galaxy is a
    /// primary of exactly one shard).
    galaxies: Vec<u64>,
    digest: u64,
    work: PathBuf,
    /// A runner over the timed operation's checkpoint directory: the
    /// benchmark takes realization seeds, checkpoint paths and
    /// identities from it, so it regenerates the very mocks and reads
    /// the very checkpoints the ensemble produces.
    runner: MockEnsemble,
}

impl State {
    fn identity(&self, k: usize) -> CheckpointIdentity {
        CheckpointIdentity {
            realization: k as u64,
            seed: self.runner.realization_seed(k),
            config_digest: self.config.digest(),
        }
    }
}

/// A fresh, empty directory `name` under the work directory.
fn fresh_dir(state: &State, name: &str) -> PathBuf {
    let dir = state.work.join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

pub struct Output {
    first: RunStatus,
    result: EnsembleResult,
}

fn spectrum(config: &EnsembleConfig) -> PowerLawSpectrum {
    match config.spectrum {
        SpectrumChoice::PowerLaw { amplitude, index } => PowerLawSpectrum { amplitude, index },
        SpectrumChoice::Bao => unreachable!("the benchmark ensemble uses a power law"),
    }
}

fn generate_mock(state: &State, k: usize) -> galactos_catalog::Catalog {
    let c = &state.config;
    let mut catalog = lognormal::generate(
        &spectrum(c),
        c.mesh_n,
        c.box_len,
        c.n_target,
        state.runner.realization_seed(k),
        None,
    )
    .catalog;
    // The ensemble measures mocks as open point sets.
    catalog.periodic = None;
    catalog
}

fn same_covariance_bits(a: &Covariance, b: &Covariance) -> bool {
    let dim = a.mean.len();
    same_f64_bits(&a.mean, &b.mean)
        && a.n_samples == b.n_samples
        && (0..dim)
            .all(|i| (0..dim).all(|j| a.matrix[(i, j)].to_bits() == b.matrix[(i, j)].to_bits()))
}

fn max_rel_diff(a: &Covariance, b: &Covariance) -> f64 {
    let dim = a.mean.len();
    let mut scale = 0.0f64;
    let mut diff = 0.0f64;
    for i in 0..dim {
        diff = diff.max((a.mean[i] - b.mean[i]).abs());
        scale = scale.max(b.mean[i].abs());
        for j in 0..dim {
            diff = diff.max((a.matrix[(i, j)] - b.matrix[(i, j)]).abs());
            scale = scale.max(b.matrix[(i, j)].abs());
        }
    }
    diff / scale.max(f64::MIN_POSITIVE)
}

impl EnsembleResume {
    fn interrupt_and_resume(&self, state: &State, corrupt_checkpoint: bool) -> Output {
        let dir = fresh_dir(state, RESUME_DIR);
        let half = self.realizations / 2;
        let first = MockEnsemble::new(state.config.clone(), &dir)
            .run_limited(half)
            .expect("interrupted pass");
        if corrupt_checkpoint {
            let path = state.runner.checkpoint_path(0);
            let mut bytes = std::fs::read(&path).expect("read a checkpoint");
            let last = bytes.len() - 9;
            bytes[last] ^= 0x01;
            std::fs::write(&path, bytes).expect("rewrite the checkpoint");
        }
        let result = MockEnsemble::new(state.config.clone(), &dir)
            .run()
            .expect("resumed run");
        Output { first, result }
    }
}

impl Workload for EnsembleResume {
    type State = State;
    type Output = Output;

    fn name(&self) -> &'static str {
        "ensemble_resume"
    }

    /// Input generation is the K lognormal mocks (digested and counted
    /// here; the runner regenerates them inside the timed operation).
    fn setup(&self, seed: u64, work: &Path) -> State {
        let config = self.config(seed);
        let runner = MockEnsemble::new(config.clone(), work.join(RESUME_DIR));
        let mut state = State {
            config,
            galaxies: Vec::new(),
            digest: 0,
            work: work.to_path_buf(),
            runner,
        };
        let mut h = Fnv::new();
        for k in 0..self.realizations {
            let mock = generate_mock(&state, k);
            h.catalog(&mock);
            state.galaxies.push(mock.len() as u64);
        }
        state.digest = h.finish();
        state
    }

    fn input_digest(&self, state: &State) -> u64 {
        state.digest
    }

    fn resolved(&self, state: &State) -> Resolved {
        crate::run::resolved(&Engine::new(state.config.engine.clone()))
    }

    fn op(&self, state: &State) -> Output {
        self.interrupt_and_resume(state, false)
    }

    fn same_bits(&self, a: &Output, b: &Output) -> bool {
        a.first == b.first
            && a.result.status == b.result.status
            && same_covariance_bits(&a.result.covariance, &b.result.covariance)
    }

    fn primaries(&self, state: &State, _out: &Output) -> u64 {
        state.galaxies.iter().sum()
    }

    /// The resumed covariance against an uninterrupted run, and the
    /// resume accounting: K/2 computed before the interruption, K/2
    /// checkpoints skipped (not recomputed) after it.
    fn verify(&self, state: &State, out: &Output) -> Verdict {
        let dir = fresh_dir(state, "reference");
        let reference = MockEnsemble::new(state.config.clone(), &dir)
            .run()
            .expect("uninterrupted run");
        let half = self.realizations / 2;
        let rest = self.realizations - half;
        let rel = max_rel_diff(&out.result.covariance, &reference.covariance);
        let status = out.result.status;
        Verdict {
            zeta_rel_err: rel,
            checks: vec![
                Check::holds(
                    "covariance_bit_identical",
                    same_covariance_bits(&out.result.covariance, &reference.covariance),
                ),
                Check::holds(
                    "interrupted_at_half",
                    out.first.computed == half && out.first.remaining == rest,
                ),
                Check::holds(
                    "resume_skipped_half",
                    status.skipped == half && status.computed == rest && status.recomputed == 0,
                ),
            ],
        }
    }

    fn traced_op(&self, state: &State, obs: &ObsSession, root: &str) -> Traced<Output> {
        let dir = fresh_dir(state, RESUME_DIR);
        let half = self.realizations / 2;
        let counter = |name: &str| obs.registry.counter_value(name);
        let (out, resume_computed, resume_skipped) = {
            let _root = obs.tracer.span(root);
            let first = {
                let _g = obs.tracer.span("ensemble::run_limited");
                MockEnsemble::new(state.config.clone(), &dir)
                    .run_limited_observed(half, obs)
                    .expect("interrupted pass")
            };
            let (computed0, skipped0) = (counter("ensemble.computed"), counter("ensemble.skipped"));
            let runner = MockEnsemble::new(state.config.clone(), &dir);
            let status = {
                let _g = obs.tracer.span("ensemble::resume");
                runner
                    .run_limited_observed(usize::MAX, obs)
                    .expect("resumed pass")
            };
            let computed = counter("ensemble.computed") - computed0;
            let skipped = counter("ensemble.skipped") - skipped0;
            let result = {
                let _g = obs.tracer.span("ensemble::assemble");
                runner.assemble(status).expect("assemble")
            };
            (Output { first, result }, computed, skipped)
        };
        let profile = trace::analyze(obs, root);

        // Computed realizations run the supervised pipeline; skipped and
        // deferred ones only probe a checkpoint, so the K longest
        // `realization k` spans are the computed ones.
        let mut realizations: Vec<f64> = trace::durations(obs, root, "realization ")
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        realizations.sort_by(|a, b| b.total_cmp(a));
        realizations.truncate(self.realizations);
        let shard_tasks: Vec<f64> = trace::durations(obs, root, "shard_task")
            .into_iter()
            .map(|(_, t)| t)
            .collect();

        let k = self.realizations as u64;
        let attempts = counter("supervised.attempts");
        let mut metrics = Metrics::default();
        metrics.set("ensemble.computed", resume_computed as f64, "count");
        metrics.set("ensemble.skipped", resume_skipped as f64, "count");
        if !realizations.is_empty() {
            metrics.set("ensemble.realization_s", median(&realizations), "s");
        }
        if !shard_tasks.is_empty() {
            metrics.set("pipeline.shard_task_s", median(&shard_tasks), "s");
        }
        metrics.set("pipeline.attempts", attempts as f64, "count");
        metrics.set(
            "pipeline.failures",
            counter("supervised.failures") as f64,
            "count",
        );
        let computed_total = counter("ensemble.computed");
        let reconcile = vec![
            Check::new(
                "resume_computed_plus_skipped",
                (resume_computed + resume_skipped).abs_diff(k) as f64,
                0.0,
            ),
            Check::new(
                "supervised.attempts",
                attempts.abs_diff(state.config.num_ranks as u64 * computed_total) as f64,
                0.0,
            ),
        ];
        Traced {
            out,
            profile,
            metrics,
            reconcile,
        }
    }

    /// The ensemble's pipeline driven call by call for a few
    /// realizations — mock, shards, supervised compute, checkpoint write
    /// and verify — then the covariance over the resumed checkpoints.
    /// Each hand-made ζ vector must equal the runner's checkpoint.
    fn direct_layers(&self, state: &State, _zeta_s: f64, metrics: &mut Metrics) -> Vec<Check> {
        let c = &state.config;
        metrics.set("core.engine_new_s", engine_new_s(c.engine.clone()), "s");
        let direct = fresh_dir(state, "direct");
        std::fs::create_dir_all(&direct).expect("create the direct directory");
        let (mut mock_s, mut write_s, mut verify_s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut bytes_read, mut owned, mut ghosts) = (0u64, 0usize, 0usize);
        let mut matches = true;
        for k in 0..DIRECT_REALIZATIONS.min(self.realizations) {
            let (catalog, t) = timed(|| generate_mock(state, k));
            mock_s.push(t);
            let shards = direct.join(format!("work_{k:04}"));
            write_sharded(&catalog, c.num_shards, &shards).expect("write shards");
            let run = compute_distributed_supervised_observed(
                shards.join(MANIFEST_FILE),
                &c.engine,
                c.num_ranks,
                &c.retry,
                FaultPlan::none(),
                &ObsSession::disabled(),
            )
            .expect("supervised run");
            for rank in &run.ranks {
                bytes_read += rank.bytes_read;
                owned += rank.owned;
                ghosts += rank.ghosts;
            }
            let vector = zeta_to_vector(&run.zeta);
            let identity = state.identity(k);
            let path = direct.join(format!("realization_{k:04}.gck"));
            write_s.push(timed(|| write_checkpoint(&path, identity, &vector)).1);
            let (read, t) = timed(|| read_checkpoint(&path, identity));
            verify_s.push(t);
            let stored = read_checkpoint(&state.runner.checkpoint_path(k), identity);
            matches &= matches!((&read, &stored), (Ok(a), Ok(b)) if same_f64_bits(a, &vector) && same_f64_bits(b, &vector));
        }
        let n = DIRECT_REALIZATIONS.min(self.realizations) as f64;
        metrics.set("mocks.lognormal_s", median(&mock_s), "s");
        metrics.set("ensemble.checkpoint_write_s", median(&write_s), "s");
        metrics.set("ensemble.checkpoint_verify_s", median(&verify_s), "s");
        metrics.set("catalog.shard_bytes_read", bytes_read as f64 / n, "B");
        metrics.set(
            "domain.ghost_ratio",
            ghosts as f64 / owned.max(1) as f64,
            "1",
        );

        let vectors: Vec<Vec<f64>> = (0..self.realizations)
            .filter_map(|k| {
                read_checkpoint(&state.runner.checkpoint_path(k), state.identity(k)).ok()
            })
            .collect();
        let complete = vectors.len() == self.realizations;
        if complete {
            let (_, t) = timed(|| sample_covariance(&vectors));
            metrics.set("analysis.covariance_s", t, "s");
        }
        std::fs::remove_dir_all(&direct).ok();
        vec![
            Check::holds("direct_pipeline_matches_checkpoints", matches),
            Check::holds("resumed_checkpoints_complete", complete),
        ]
    }

    /// Flip one payload byte of a checkpoint between the two passes: the
    /// resume must recompute that realization instead of skipping it.
    fn corrupt(&self, state: &State, out: &mut Output) {
        *out = self.interrupt_and_resume(state, true);
    }
}
