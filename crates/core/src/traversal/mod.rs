//! Tree traversal: the precision-erased k-d tree, per-primary neighbor
//! gathering, and the leaf-blocked candidate path (stage 1 of the
//! pipeline).
//!
//! The paper's mixed-precision mode (§5.4) runs the neighbor search in
//! `f32` "due to its insensitivity to the precision of galaxy
//! locations" while keeping all multipole arithmetic in `f64`. [`Tree`]
//! erases that choice behind one type so every caller downstream of
//! [`crate::config::TreePrecision`] is precision-agnostic.
//!
//! # Traversal modes
//!
//! Two ways of finding each primary's secondaries coexist behind
//! [`TraversalKind`]:
//!
//! * **Per-primary** ([`Tree::gather_neighbors`]): one full root
//!   descent per primary, reporting individual point ids. Simple, and
//!   the reference semantics every other mode must reproduce.
//! * **Leaf-blocked** ([`Tree::leaf_blocks`] + [`CandidateBlock`]):
//!   the paper's node-to-node formulation (§3.2), where the k-d tree
//!   walk searches "for all galaxies within R_max" of a whole node
//!   at once. The cost of a pruned root descent is paid once per
//!   *leaf* of primaries and amortized over all of them: the walk
//!   prunes on the box-to-box minimum distance between the query
//!   leaf's bounding box inflated by Rmax and each tree node, and
//!   appends whole contiguous slot ranges rather than single ids. The
//!   ranges are materialized once into a reusable struct-of-arrays
//!   [`CandidateBlock`] (x/y/z/weight contiguous) that the engine's
//!   split loop then streams per primary, after a per-candidate
//!   `r² ≤ (Rmax + leaf_radius)²` prefilter from the leaf center has
//!   dropped points that cannot matter to *any* primary in the leaf.
//!
//! Both modes bin the same pairs — the engine's split loop re-applies
//! the gather criterion per pair in the tree's own precision,
//! including the periodic image-center rounding order — and differ
//! only in accumulation order, so results agree to floating-point
//! reassociation (≤ 1e-9 relative, enforced by the equivalence suite
//! and CI's bench-smoke gate). The one caveat: the per-primary
//! search's whole-subtree acceptance tests a *box* distance instead of
//! the per-point distance, so a pair within one rounding ulp of the
//! search boundary *and* of a bbox corner can in principle be decided
//! differently; no such coincidence exists in the committed test or
//! benchmark catalogs, and a flip would shift ζ well below the
//! equivalence tolerance. Selection mirrors the
//! kernel-backend pattern: [`TraversalChoice`] on the config, resolved
//! to a measured [`detect_traversal`] default unless pinned.

mod block;

pub use block::CandidateBlock;
pub use galactos_kdtree::LeafInfo;

use crate::config::TreePrecision;
use galactos_kdtree::{KdTree, TreeConfig};
use galactos_math::Vec3;
use std::fmt;

/// The closed set of traversal implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraversalKind {
    /// One root descent per primary — the reference semantics.
    PerPrimary,
    /// Node-to-node walk gathering candidates once per primary *leaf*
    /// into a SoA block (§3.2).
    LeafBlocked,
}

impl TraversalKind {
    /// Every mode, reference first (the order benchmark tables use).
    pub const ALL: [TraversalKind; 2] = [TraversalKind::PerPrimary, TraversalKind::LeafBlocked];

    /// Stable lowercase name (for reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            TraversalKind::PerPrimary => "per-primary",
            TraversalKind::LeafBlocked => "leaf-blocked",
        }
    }
}

impl fmt::Display for TraversalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Pick the traversal expected to be fastest.
///
/// Leaf blocking amortizes one pruned tree walk over a whole leaf of
/// primaries and streams candidates from a contiguous SoA block
/// instead of per-pair `galaxies[j]` gathers; `perf_baseline`'s
/// traversal section measures it ahead of per-primary traversal on the
/// committed baseline host at the paper point (ℓmax 10, 10 bins, 50k
/// clustered galaxies), and `BENCH_kernels.json` tracks that ranking
/// PR over PR. There is currently no measured configuration where
/// per-primary wins, so detection is unconditional;
/// [`TraversalChoice::Fixed`] pins per-primary as the reference for
/// equivalence tests and A/B timing.
pub fn detect_traversal() -> TraversalKind {
    TraversalKind::LeafBlocked
}

/// Traversal selection as configured on [`EngineConfig`](
/// crate::config::EngineConfig), mirroring the kernel-backend pattern.
/// Resolved once, at [`Engine::new`](crate::engine::Engine::new) — not
/// per worker or per call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraversalChoice {
    /// Whatever [`detect_traversal`] picks.
    #[default]
    Auto,
    /// Always this mode.
    Fixed(TraversalKind),
}

impl TraversalChoice {
    /// The traversal mode this choice runs.
    pub fn resolve(self) -> TraversalKind {
        match self {
            TraversalChoice::Fixed(kind) => kind,
            TraversalChoice::Auto => detect_traversal(),
        }
    }
}

/// Precision-erased k-d tree.
pub enum Tree {
    F32(KdTree<f32>),
    F64(KdTree<f64>),
}

impl Tree {
    /// Build a tree over `positions` at the requested search precision.
    pub fn build(positions: &[Vec3], precision: TreePrecision) -> Self {
        match precision {
            TreePrecision::Mixed => Tree::F32(KdTree::build(positions, TreeConfig::default())),
            TreePrecision::Double => Tree::F64(KdTree::build(positions, TreeConfig::default())),
        }
    }

    /// Visit every point within `r` of `c` (open boundaries).
    pub fn for_each_within<F: FnMut(u32)>(&self, c: Vec3, r: f64, f: &mut F) {
        match self {
            Tree::F32(t) => t.for_each_within(c, r, f),
            Tree::F64(t) => t.for_each_within(c, r, f),
        }
    }

    /// Visit every point within `r` of `c` under minimum-image wrapping
    /// in a periodic box of side `box_len`.
    pub fn for_each_within_periodic<F: FnMut(u32)>(
        &self,
        c: Vec3,
        r: f64,
        box_len: f64,
        f: &mut F,
    ) {
        match self {
            Tree::F32(t) => t.for_each_within_periodic(c, r, box_len, f),
            Tree::F64(t) => t.for_each_within_periodic(c, r, box_len, f),
        }
    }

    /// Gather the ids of all points within `rmax` of `center` into
    /// `out` (cleared first), honoring periodicity when given. Returns
    /// the number of candidates gathered.
    pub fn gather_neighbors(
        &self,
        center: Vec3,
        rmax: f64,
        periodic: Option<f64>,
        out: &mut Vec<u32>,
    ) -> usize {
        out.clear();
        match periodic {
            Some(box_len) => {
                self.for_each_within_periodic(center, rmax, box_len, &mut |id| out.push(id))
            }
            None => self.for_each_within(center, rmax, &mut |id| out.push(id)),
        }
        out.len()
    }

    /// Every leaf of the tree in ascending slot order; together they
    /// partition the point set, so a driver that processes each leaf's
    /// primaries exactly once covers every primary exactly once.
    pub fn leaf_blocks(&self) -> Vec<LeafInfo> {
        match self {
            Tree::F32(t) => t.collect_leaves(),
            Tree::F64(t) => t.collect_leaves(),
        }
    }

    /// Node-to-node pruned walk: visit contiguous slot ranges covering
    /// every point within `rmax` of the box `[lo, hi]` (see
    /// [`KdTree::for_each_within_of_aabb`]). Periodic walks may emit
    /// overlapping ranges across box images; [`CandidateBlock::fill`]
    /// coalesces them.
    pub fn for_each_within_of_aabb<F: FnMut(u32, u32)>(
        &self,
        lo: Vec3,
        hi: Vec3,
        rmax: f64,
        periodic: Option<f64>,
        f: &mut F,
    ) {
        match (self, periodic) {
            (Tree::F32(t), None) => t.for_each_within_of_aabb(lo, hi, rmax, f),
            (Tree::F64(t), None) => t.for_each_within_of_aabb(lo, hi, rmax, f),
            (Tree::F32(t), Some(l)) => t.for_each_within_of_aabb_periodic(lo, hi, rmax, l, f),
            (Tree::F64(t), Some(l)) => t.for_each_within_of_aabb_periodic(lo, hi, rmax, l, f),
        }
    }

    /// Original point index stored in reordered slot `slot`.
    #[inline]
    pub fn id_at(&self, slot: u32) -> u32 {
        match self {
            Tree::F32(t) => t.id_at(slot as usize),
            Tree::F64(t) => t.id_at(slot as usize),
        }
    }

    /// Whether the neighbor search runs in `f32` (the paper's mixed
    /// precision mode).
    #[inline]
    pub fn is_mixed(&self) -> bool {
        matches!(self, Tree::F32(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_clears_and_counts() {
        let positions = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(5.0, 0.0, 0.0),
        ];
        let tree = Tree::build(&positions, TreePrecision::Double);
        let mut out = vec![99; 4]; // stale content must be discarded
        let n = tree.gather_neighbors(Vec3::ZERO, 2.0, None, &mut out);
        assert_eq!(n, 2);
        let mut ids = out.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn mixed_and_double_agree_away_from_boundaries() {
        let positions: Vec<Vec3> = (0..50)
            .map(|i| Vec3::new((i % 7) as f64, (i % 5) as f64, (i % 3) as f64))
            .collect();
        let t32 = Tree::build(&positions, TreePrecision::Mixed);
        let t64 = Tree::build(&positions, TreePrecision::Double);
        let mut a = Vec::new();
        let mut b = Vec::new();
        t32.gather_neighbors(Vec3::new(3.1, 2.1, 1.1), 2.5, None, &mut a);
        t64.gather_neighbors(Vec3::new(3.1, 2.1, 1.1), 2.5, None, &mut b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn traversal_names_are_stable_and_displayed() {
        assert_eq!(TraversalKind::PerPrimary.name(), "per-primary");
        assert_eq!(TraversalKind::LeafBlocked.name(), "leaf-blocked");
        for kind in TraversalKind::ALL {
            assert_eq!(format!("{kind}"), kind.name());
        }
    }

    #[test]
    fn traversal_resolution_is_fixed_else_detect() {
        assert_eq!(TraversalChoice::default(), TraversalChoice::Auto);
        assert_eq!(TraversalChoice::Auto.resolve(), detect_traversal());
        for kind in TraversalKind::ALL {
            assert_eq!(TraversalChoice::Fixed(kind).resolve(), kind);
        }
    }

    #[test]
    fn leaf_blocks_cover_every_point_once() {
        let positions: Vec<Vec3> = (0..200)
            .map(|i| {
                Vec3::new(
                    (i % 13) as f64 * 0.7,
                    (i % 11) as f64 * 1.1,
                    (i % 7) as f64 * 1.3,
                )
            })
            .collect();
        for precision in [TreePrecision::Double, TreePrecision::Mixed] {
            let tree = Tree::build(&positions, precision);
            let mut seen = vec![false; positions.len()];
            for leaf in tree.leaf_blocks() {
                for slot in leaf.start..leaf.end {
                    let id = tree.id_at(slot) as usize;
                    assert!(!seen[id]);
                    seen[id] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }
}
