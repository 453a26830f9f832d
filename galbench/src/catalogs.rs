//! Clustered catalogs with an exact galaxy count.
//!
//! `galactos_bench::datasets::node_dataset` draws a Neyman–Scott
//! process whose galaxy count is itself random (Poisson parents, each
//! with a Poisson number of children), so its pair count — and every
//! timing — moves by tens of percent from seed to seed. The benchmark
//! draws the same process at a higher child count and thins it to
//! exactly `n` galaxies: thinning Poisson(λ/p) children with keep
//! probability p gives Poisson(λ) children, so the result is the
//! `node_dataset` process (same box, density, parent density, mean
//! children and scatter) conditioned on its size.

use galactos_catalog::Catalog;
use galactos_mocks::cluster_process::NeymanScott;
use galactos_mocks::scaled::{scaled_dataset, OUTER_RIM_DENSITY};

/// `node_dataset`'s children per parent and their Gaussian scatter.
const MEAN_CHILDREN: f64 = 15.0;
const SIGMA: f64 = 3.0;
/// Oversampling before thinning; the draw falls short of `n` with
/// negligible probability, and is redrawn when it does.
const OVERSAMPLE: f64 = 1.3;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A clustered periodic box of exactly `n` galaxies at the Outer Rim
/// density, as `periodic_node_dataset(n, true, _)` would draw it.
pub fn clustered_box(n: usize, seed: u64) -> Catalog {
    let ds = scaled_dataset(1, n as f64, OUTER_RIM_DENSITY);
    let density = ds.galaxies / ds.box_len.powi(3);
    let process = NeymanScott {
        parent_density: density / MEAN_CHILDREN,
        mean_children: MEAN_CHILDREN * OVERSAMPLE,
        sigma: SIGMA,
    };
    let mut draw_seed = seed;
    let drawn = loop {
        let c = process.generate(ds.box_len, draw_seed);
        if c.len() >= n {
            break c;
        }
        draw_seed = draw_seed.wrapping_add(0x5851_f42d_4c95_7f2d);
    };
    // Partial Fisher–Yates: a uniform n-subset, kept in draw order.
    let mut rng = seed ^ 0xc2b2_ae3d_27d4_eb4f;
    let mut order: Vec<usize> = (0..drawn.len()).collect();
    for i in 0..n {
        let j = i + (splitmix64(&mut rng) % (order.len() - i) as u64) as usize;
        order.swap(i, j);
    }
    let mut keep = order[..n].to_vec();
    keep.sort_unstable();
    let galaxies = keep.iter().map(|&i| drawn.galaxies[i]).collect();
    Catalog::new_periodic(galaxies, ds.box_len)
}

/// The open-box variant, as `node_dataset(n, true, _)` would draw it.
pub fn clustered_open_box(n: usize, seed: u64) -> Catalog {
    let mut catalog = clustered_box(n, seed);
    catalog.periodic = None;
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_count_and_deterministic() {
        let a = clustered_open_box(1000, 7);
        let b = clustered_open_box(1000, 7);
        assert_eq!(a.len(), 1000);
        assert!(a.periodic.is_none());
        assert!(a
            .galaxies
            .iter()
            .zip(&b.galaxies)
            .all(|(x, y)| x.pos == y.pos));
        assert_eq!(clustered_box(1000, 8).len(), 1000);
    }
}
