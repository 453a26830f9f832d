//! Work scheduling: one chunk/map/reduce driver shared by every
//! parallel region in the crate.
//!
//! The paper distributes primaries over threads with OpenMP dynamic
//! scheduling, each thread owning private accumulators that are merged
//! once at the end (§3.3). Before this module existed, that pattern was
//! hand-rolled three times — once per `Scheduling` arm in the engine
//! and once more in the distributed pipeline's rank reduction — with
//! the chunking policy and the `reduce(zero, merge)` boilerplate
//! copy-pasted. [`run_partitioned`] is the single implementation:
//! callers supply per-worker state construction, a range processor, a
//! state finalizer, and a [`Merge`] spec.
//!
//! Worker state is whatever the caller builds — for the engine it is a
//! [`ComputeScratch`](crate::scratch::ComputeScratch) whose kernel
//! accumulator is built for the engine's resolved
//! [`BackendKind`](crate::kernel::BackendKind) (resolution happens
//! once, before the parallel region). The `perf_baseline` benchmark
//! drives bare backend accumulators through the same driver to
//! measure multi-thread kernel throughput without the rest of the
//! engine.

use crate::config::Scheduling;
use rayon::prelude::*;
use std::ops::Range;

/// Chunk size (in items) used by dynamic scheduling. Small enough that
/// work stealing can balance clustered catalogs, large enough that one
/// chunk amortizes a worker-state merge.
pub const DYNAMIC_CHUNK: usize = 16;

/// Reduction spec for [`run_partitioned`]: the identity element and
/// the combining operation.
pub struct Merge<Z, M> {
    pub zero: Z,
    pub merge: M,
}

/// Size (in items) of the contiguous chunks `scheduling` assigns to
/// workers for a run over `n_items`.
pub fn chunk_size(scheduling: Scheduling, n_items: usize) -> usize {
    match scheduling {
        Scheduling::Dynamic => DYNAMIC_CHUNK,
        // One contiguous block per thread.
        Scheduling::Static => n_items.div_ceil(rayon::current_num_threads().max(1)).max(1),
    }
}

/// Number of worker states [`run_partitioned`] will construct (and
/// finished results it will merge) for a run over `n_items` — one per
/// chunk. Benchmark reports use this to relate throughput to the
/// scheduling overhead actually paid.
pub fn chunk_count(scheduling: Scheduling, n_items: usize) -> usize {
    n_items.div_ceil(chunk_size(scheduling, n_items))
}

/// Partition `0..n_items` into chunks per `scheduling`, run every chunk
/// on a worker (`make_state` → `process` over the chunk's index range →
/// `finish`), and reduce the finished results with `merge`.
///
/// Chunks are processed with work stealing under [`Scheduling::
/// Dynamic`] and as one contiguous block per thread under
/// [`Scheduling::Static`]; either way, every index in `0..n_items` is
/// processed exactly once and the reduction includes one finished
/// result per chunk. `n_items` = 0 yields `merge.zero()`.
pub fn run_partitioned<S, R, FS, FP, FF, FZ, FM>(
    scheduling: Scheduling,
    n_items: usize,
    make_state: FS,
    process: FP,
    finish: FF,
    merge: Merge<FZ, FM>,
) -> R
where
    R: Send,
    FS: Fn() -> S + Sync,
    FP: Fn(&mut S, Range<usize>) + Sync,
    FF: Fn(S) -> R + Sync,
    FZ: Fn() -> R + Sync,
    FM: Fn(R, R) -> R + Sync,
{
    let chunk = chunk_size(scheduling, n_items);
    let n_chunks = chunk_count(scheduling, n_items);
    let Merge { zero, merge } = merge;
    (0..n_chunks)
        .into_par_iter()
        .map(|c| {
            let range = c * chunk..((c + 1) * chunk).min(n_items);
            let mut state = make_state();
            process(&mut state, range);
            finish(state)
        })
        .reduce(zero, merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum of i² over 0..n via the driver, with worker state counting
    /// how many chunks contributed.
    fn sum_squares(scheduling: Scheduling, n: usize) -> (u64, u64) {
        run_partitioned(
            scheduling,
            n,
            || (0u64, 0u64),
            |state, range| {
                for i in range {
                    state.0 += (i * i) as u64;
                }
                state.1 += 1;
            },
            |state| state,
            Merge {
                zero: || (0, 0),
                merge: |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1),
            },
        )
    }

    fn expected(n: usize) -> u64 {
        (0..n).map(|i| (i * i) as u64).sum()
    }

    #[test]
    fn static_and_dynamic_are_equivalent() {
        for n in [0, 1, 5, DYNAMIC_CHUNK, DYNAMIC_CHUNK + 1, 1000] {
            let (dynamic, _) = sum_squares(Scheduling::Dynamic, n);
            let (fixed, _) = sum_squares(Scheduling::Static, n);
            assert_eq!(dynamic, expected(n), "dynamic n={n}");
            assert_eq!(fixed, expected(n), "static n={n}");
        }
    }

    #[test]
    fn single_chunk_edge_case() {
        // Fewer items than one dynamic chunk: exactly one worker state.
        let (sum, chunks) = sum_squares(Scheduling::Dynamic, DYNAMIC_CHUNK - 1);
        assert_eq!(sum, expected(DYNAMIC_CHUNK - 1));
        assert_eq!(chunks, 1);

        // Static scheduling on one thread: also a single chunk.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let (sum, chunks) = pool.install(|| sum_squares(Scheduling::Static, 100));
        assert_eq!(sum, expected(100));
        assert_eq!(chunks, 1);
    }

    #[test]
    fn chunk_count_matches_states_constructed() {
        for n in [0, 1, DYNAMIC_CHUNK, DYNAMIC_CHUNK + 1, 333] {
            let (_, chunks) = sum_squares(Scheduling::Dynamic, n);
            assert_eq!(
                chunks as usize,
                chunk_count(Scheduling::Dynamic, n),
                "n={n}"
            );
        }
    }

    #[test]
    fn empty_input_yields_zero() {
        let (sum, chunks) = sum_squares(Scheduling::Dynamic, 0);
        assert_eq!((sum, chunks), (0, 0));
    }

    #[test]
    fn dynamic_chunking_is_thread_count_independent() {
        // The dynamic chunk size is a constant, so the reduction
        // structure (and hence float roundoff, for float reductions)
        // does not depend on the worker count.
        assert_eq!(chunk_size(Scheduling::Dynamic, 10_000), DYNAMIC_CHUNK);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let a = pool.install(|| sum_squares(Scheduling::Dynamic, 500));
        let b = sum_squares(Scheduling::Dynamic, 500);
        assert_eq!(a, b);
    }
}
