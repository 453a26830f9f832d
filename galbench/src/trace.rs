//! Self-time attribution over one traced operation.
//!
//! The benchmark wraps every public call it makes in a span named
//! `<layer>::<call>` on its own track, under one root span per timed
//! operation. The program adds its own spans underneath (`engine`,
//! `tree_build`, `grid` with paint/fields/contract/selfpair slices,
//! `realization k`) and, on worker threads, `chunk` spans carrying
//! search/bin/kernel/assembly slices.
//!
//! Worker `chunk` spans are recorded as track roots, not as children
//! of the `engine` span that caused them, so they are attributed by
//! time: the chunks that start inside an `engine` span form its
//! parallel window, and the window's wall-clock time is split over the
//! stages in proportion to the worker CPU time each stage took (idle
//! worker time and chunk time outside the stage slices go to
//! `core.schedule`). What is left of the `engine` span's self time is
//! `core.engine`. A layer's time is thus wall-clock seconds, and the
//! layers of one operation sum to the part of the operation that some
//! span covers.

use galactos_obs::{ObsSession, SpanRecord};
use std::collections::BTreeMap;

/// Label of the benchmark's own track.
pub const BENCH_TRACK: &str = "benchmark";

/// Worker CPU seconds by engine stage, over the chunks of one `engine`
/// span.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCpu {
    pub search: f64,
    pub bin: f64,
    pub kernel: f64,
    pub assembly: f64,
    /// Chunk time outside the four stage slices plus idle worker time
    /// inside the parallel window.
    pub schedule: f64,
    /// Worker threads seen in the window.
    pub workers: usize,
    /// Max over mean of per-worker busy (chunk) time.
    pub imbalance: f64,
}

impl StageCpu {
    fn add(&mut self, other: &StageCpu) {
        self.search += other.search;
        self.bin += other.bin;
        self.kernel += other.kernel;
        self.assembly += other.assembly;
        self.schedule += other.schedule;
        self.workers = self.workers.max(other.workers);
        self.imbalance = self.imbalance.max(other.imbalance);
    }
}

/// One traced operation, attributed.
#[derive(Debug, Default)]
pub struct OpProfile {
    /// Wall-clock seconds of the root span.
    pub op_s: f64,
    /// Wall-clock self seconds per layer (`kdtree.search`, `core.bin`,
    /// `catalog`, ...).
    pub layers: BTreeMap<String, f64>,
    /// Share of the root span covered by layer self time.
    pub coverage: f64,
    /// Worker CPU seconds by stage, summed over the `engine` spans.
    pub stage_cpu: StageCpu,
}

impl OpProfile {
    pub fn layer(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 * 1e-9
}

fn contains(outer: &SpanRecord, inner: &SpanRecord) -> bool {
    inner.start_nanos >= outer.start_nanos && inner.start_nanos <= outer.end_nanos
}

/// Direct children of `parent` on its own track.
fn children<'a>(spans: &'a [SpanRecord], parent: &SpanRecord) -> Vec<&'a SpanRecord> {
    spans
        .iter()
        .filter(|s| s.track == parent.track && s.depth == parent.depth + 1 && contains(parent, s))
        .collect()
}

fn self_nanos(spans: &[SpanRecord], span: &SpanRecord) -> u64 {
    let covered: u64 = children(spans, span)
        .iter()
        .map(|c| c.duration_nanos())
        .sum();
    span.duration_nanos().saturating_sub(covered)
}

/// The layer a span's self time belongs to.
fn layer_of(name: &str) -> String {
    if let Some((layer, _call)) = name.split_once("::") {
        return layer.to_string();
    }
    match name {
        "tree_build" => "kdtree.build",
        "search" => "kdtree.search",
        "bin" => "core.bin",
        "kernel" => "core.kernel",
        "assembly" => "core.assembly",
        "chunk" => "core.schedule",
        "grid" => "grid.other",
        "paint" => "grid.paint",
        "fields" => "grid.fields",
        "contract" => "grid.contract",
        "selfpair" => "grid.selfpair",
        n if n.starts_with("realization ") => "ensemble.realization",
        other => return format!("other.{other}"),
    }
    .to_string()
}

/// Worker chunks that ran inside `engine`, folded into stage CPU time.
/// Returns the stage split and the parallel window in nanoseconds.
fn worker_window(spans: &[SpanRecord], engine: &SpanRecord) -> (StageCpu, u64) {
    let chunks: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.track != engine.track && s.name == "chunk" && contains(engine, s))
        .collect();
    if chunks.is_empty() {
        return (StageCpu::default(), 0);
    }
    let lo = chunks.iter().map(|c| c.start_nanos).min().unwrap_or(0);
    let hi = chunks
        .iter()
        .map(|c| c.end_nanos)
        .max()
        .unwrap_or(0)
        .min(engine.end_nanos);
    let window = hi.saturating_sub(lo);
    let mut cpu = StageCpu::default();
    let mut busy: BTreeMap<u32, f64> = BTreeMap::new();
    for chunk in &chunks {
        let mut staged = 0.0;
        for slice in children(spans, chunk) {
            let t = secs(slice.duration_nanos());
            staged += t;
            match slice.name.as_str() {
                "search" => cpu.search += t,
                "bin" => cpu.bin += t,
                "kernel" => cpu.kernel += t,
                "assembly" => cpu.assembly += t,
                _ => cpu.schedule += t,
            }
        }
        let dur = secs(chunk.duration_nanos());
        cpu.schedule += (dur - staged).max(0.0);
        *busy.entry(chunk.track).or_default() += dur;
    }
    cpu.workers = busy.len();
    let total_busy: f64 = busy.values().sum();
    let capacity = secs(window) * cpu.workers as f64;
    cpu.schedule += (capacity - total_busy).max(0.0);
    let mean = total_busy / cpu.workers as f64;
    let max = busy.values().copied().fold(0.0, f64::max);
    cpu.imbalance = if mean > 0.0 { max / mean } else { 1.0 };
    (cpu, window)
}

/// Attribute the most recent root span called `root` on the benchmark's
/// track.
pub fn analyze(obs: &ObsSession, root: &str) -> OpProfile {
    let spans = obs.tracer.finished();
    let tracks = obs.tracer.tracks();
    let bench_track = tracks
        .iter()
        .position(|t| t == BENCH_TRACK)
        .expect("the benchmark track is named before tracing") as u32;
    let Some(root_span) = spans
        .iter()
        .filter(|s| s.track == bench_track && s.name == root)
        .max_by_key(|s| s.start_nanos)
    else {
        return OpProfile::default();
    };
    let mut profile = OpProfile {
        op_s: secs(root_span.duration_nanos()),
        ..OpProfile::default()
    };
    let mut covered = 0.0;
    let inner = spans
        .iter()
        .filter(|s| s.track == bench_track && s.depth > root_span.depth && contains(root_span, s));
    for span in inner {
        let own = secs(self_nanos(&spans, span));
        if span.name == "engine" && !span.aggregate {
            let (cpu, window) = worker_window(&spans, span);
            let window = secs(window).min(own);
            let total = cpu.search + cpu.bin + cpu.kernel + cpu.assembly + cpu.schedule;
            if total > 0.0 {
                for (layer, t) in [
                    ("kdtree.search", cpu.search),
                    ("core.bin", cpu.bin),
                    ("core.kernel", cpu.kernel),
                    ("core.assembly", cpu.assembly),
                    ("core.schedule", cpu.schedule),
                ] {
                    // The window's wall time, split by worker CPU share.
                    *profile.layers.entry(layer.to_string()).or_default() += window * t / total;
                }
            }
            *profile.layers.entry("core.engine".to_string()).or_default() += own - window;
            profile.stage_cpu.add(&cpu);
        } else {
            *profile.layers.entry(layer_of(&span.name)).or_default() += own;
        }
        covered += own;
    }
    profile.coverage = if profile.op_s > 0.0 {
        (covered / profile.op_s).min(1.0)
    } else {
        0.0
    };
    profile
}

/// Durations in seconds of every span on any track whose name starts
/// with `prefix` and that started inside the latest root span `root`.
pub fn durations(obs: &ObsSession, root: &str, prefix: &str) -> Vec<(String, f64)> {
    let spans = obs.tracer.finished();
    let Some(root_span) = spans
        .iter()
        .filter(|s| s.name == root)
        .max_by_key(|s| s.start_nanos)
    else {
        return Vec::new();
    };
    spans
        .iter()
        .filter(|s| s.name.starts_with(prefix) && contains(root_span, s))
        .map(|s| (s.name.clone(), secs(s.duration_nanos())))
        .collect()
}
