//! Recursive bisection to `k` parts with per-part target weights.
//!
//! The mapping pipeline needs target weights because "the target part
//! weights are the number of available processors on each node"
//! (Section III-A) — which may be non-uniform. Targets are split between
//! the two recursion branches proportionally, and each branch works on
//! the induced subgraph.

use std::ops::Range;

use umpa_graph::Graph;

use crate::balance::BalanceScratch;
use crate::bisect::{multilevel_bisect_into, BisectConfig, BisectScratch};

/// Multilevel configuration for recursive bisection.
#[derive(Clone, Copy, Debug)]
pub struct MlConfig {
    /// Allowed relative overload per part.
    pub epsilon: f64,
    /// Greedy-graph-growing restarts at the coarsest level.
    pub init_trials: u32,
    /// FM passes per uncoarsening level.
    pub fm_passes: u32,
    /// Coarsest-graph size.
    pub coarsen_to: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MlConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.05,
            init_trials: 4,
            fm_passes: 4,
            coarsen_to: 96,
            seed: 1,
        }
    }
}

impl MlConfig {
    fn bisect_cfg(&self, depth_seed: u64) -> BisectConfig {
        BisectConfig {
            epsilon: self.epsilon,
            init_trials: self.init_trials,
            fm_passes: self.fm_passes,
            coarsen_to: self.coarsen_to,
            seed: self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(depth_seed),
        }
    }
}

/// Reusable buffers of a recursive bisection (and of the balance pass
/// that follows it in phase 1): the vertex buffer the recursion
/// stable-partitions in place, the induced subgraph of the current
/// split, the bisection scratch and the balance scratch. One warm
/// scratch partitions with zero heap allocations.
#[derive(Default)]
pub struct PartitionScratch {
    /// All vertices, ascending at the start; every recursion node owns
    /// a contiguous range of it, kept ascending.
    vertices: Vec<u32>,
    /// Right-side spill of the in-place stable partition.
    spill: Vec<u32>,
    /// Global→local ids for [`Graph::induced_subgraph_into`].
    local: Vec<u32>,
    sub: Graph,
    side: Vec<u8>,
    bisect: BisectScratch,
    /// Buffers of [`fix_balance_with`](crate::balance::fix_balance_with).
    pub balance: BalanceScratch,
    /// Target weights for callers that derive them per call (phase 1
    /// reads them off the allocation's processor counts); the
    /// partitioner itself never reads this buffer.
    pub targets: Vec<f64>,
}

// tidy-cold-region: convenience entry point that owns its scratch and
// result; the allocation-free form is `recursive_bisection_into`
/// Partitions `g` into `targets.len()` parts; `part[v]` indexes
/// `targets`. Parts correspond to contiguous target ranges, so part `i`
/// aims at weight `targets[i]`.
pub fn recursive_bisection(g: &Graph, targets: &[f64], cfg: &MlConfig) -> Vec<u32> {
    let mut part = Vec::new();
    recursive_bisection_into(g, targets, cfg, &mut PartitionScratch::default(), &mut part);
    part
}
// tidy-end-cold-region

/// [`recursive_bisection`] into `part`, reusing `scratch`.
/// Allocation-free once both are warm.
pub fn recursive_bisection_into(
    g: &Graph,
    targets: &[f64],
    cfg: &MlConfig,
    scratch: &mut PartitionScratch,
    part: &mut Vec<u32>,
) {
    let k = targets.len();
    assert!(k >= 1, "need at least one part");
    let n = g.num_vertices();
    part.clear();
    part.resize(n, 0);
    if k == 1 {
        return;
    }
    scratch.vertices.clear();
    scratch.vertices.extend(0..n as u32);
    split(g, 0..n, targets, 0, cfg, 1, scratch, part);
}

/// Recursively splits `scratch.vertices[range]` (a subset of `g`,
/// ascending) across `targets[first_part..first_part + targets.len()]`.
#[allow(clippy::too_many_arguments)]
fn split(
    g: &Graph,
    range: Range<usize>,
    targets: &[f64],
    first_part: u32,
    cfg: &MlConfig,
    node_id: u64,
    scratch: &mut PartitionScratch,
    part: &mut [u32],
) {
    let k = targets.len();
    let Range { start, end } = range;
    let vertices = &mut scratch.vertices[start..end];
    if k == 1 {
        for &v in vertices.iter() {
            part[v as usize] = first_part;
        }
        return;
    }
    // Degenerate branch: no more vertices than parts (deep recursion on
    // heavily imbalanced graphs). Hand each vertex its own part.
    if vertices.len() <= k {
        for (i, &v) in vertices.iter().enumerate() {
            part[v as usize] = first_part + (i.min(k - 1)) as u32;
        }
        return;
    }
    let k_left = k / 2;
    let target_left: f64 = targets[..k_left].iter().sum();
    g.induced_subgraph_into(vertices, &mut scratch.local, &mut scratch.sub);
    // Scale the left target to this subgraph's actual weight: upstream
    // imbalance must not compound downstream.
    let frac = target_left / targets.iter().sum::<f64>();
    let local_target_left = scratch.sub.total_vertex_weight() * frac;
    multilevel_bisect_into(
        &scratch.sub,
        local_target_left,
        &cfg.bisect_cfg(node_id),
        &mut scratch.bisect,
        &mut scratch.side,
    );
    // Stable partition in place: side-0 vertices compact to the front,
    // side-1 vertices spill and follow them, both in ascending order.
    let spill = &mut scratch.spill;
    spill.clear();
    let mut n_left = 0usize;
    for i in 0..vertices.len() {
        let v = vertices[i];
        if scratch.side[i] == 0 {
            vertices[n_left] = v;
            n_left += 1;
        } else {
            spill.push(v);
        }
    }
    vertices[n_left..].copy_from_slice(spill);
    // A degenerate empty side (tiny subgraphs) would lose parts; steal
    // one vertex to keep every part nonempty: the last right vertex
    // rotates to the front as the whole left side, or the last left
    // vertex becomes the whole right side. Both lists stay ascending.
    if n_left == 0 {
        vertices.rotate_right(1);
        n_left = 1;
    } else if n_left == vertices.len() {
        n_left -= 1;
    }
    let mid = start + n_left;
    split(
        g,
        start..mid,
        &targets[..k_left],
        first_part,
        cfg,
        node_id * 2,
        scratch,
        part,
    );
    split(
        g,
        mid..end,
        &targets[k_left..],
        first_part + k_left as u32,
        cfg,
        node_id * 2 + 1,
        scratch,
        part,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, imbalance, part_weights, uniform_targets};
    use umpa_graph::GraphBuilder;

    fn grid(nx: usize, ny: usize) -> Graph {
        let mut b = GraphBuilder::new(nx * ny);
        let idx = |x: usize, y: usize| (y * nx + x) as u32;
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    b.add_edge(idx(x, y), idx(x + 1, y), 1.0);
                }
                if y + 1 < ny {
                    b.add_edge(idx(x, y), idx(x, y + 1), 1.0);
                }
            }
        }
        b.build_symmetric()
    }

    #[test]
    fn four_way_grid_partition_is_balanced() {
        let g = grid(16, 16);
        let targets = uniform_targets(&g, 4);
        let part = recursive_bisection(&g, &targets, &MlConfig::default());
        assert_eq!(*part.iter().max().unwrap(), 3);
        let imb = imbalance(&g, &part, &targets);
        assert!(imb <= 0.12, "imbalance {imb}");
        let cut = edge_cut(&g, &part);
        assert!(cut <= 2.5 * 32.0, "cut {cut} too far from optimal ~32");
    }

    #[test]
    fn respects_nonuniform_targets() {
        let g = grid(12, 12); // weight 144
        let targets = vec![72.0, 36.0, 36.0];
        let part = recursive_bisection(&g, &targets, &MlConfig::default());
        let w = part_weights(&g, &part, 3);
        assert!((w[0] - 72.0).abs() <= 10.0, "w0={}", w[0]);
        assert!((w[1] - 36.0).abs() <= 8.0, "w1={}", w[1]);
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = grid(4, 4);
        let part = recursive_bisection(&g, &[16.0], &MlConfig::default());
        assert!(part.iter().all(|&p| p == 0));
    }

    #[test]
    fn many_parts_all_nonempty() {
        let g = grid(16, 16);
        let targets = uniform_targets(&g, 16);
        let part = recursive_bisection(&g, &targets, &MlConfig::default());
        let w = part_weights(&g, &part, 16);
        assert!(w.iter().all(|&x| x > 0.0), "empty part: {w:?}");
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        let mut b = GraphBuilder::new(8);
        for i in 0..7u32 {
            b.add_edge(i, i + 1, 1.0);
        }
        // One heavy vertex.
        b.vertex_weights(vec![7.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let g = b.build_symmetric();
        let targets = vec![7.0, 7.0];
        let part = recursive_bisection(&g, &targets, &MlConfig::default());
        let w = part_weights(&g, &part, 2);
        assert!(
            (w[0] - 7.0).abs() <= 1.5 && (w[1] - 7.0).abs() <= 1.5,
            "{w:?}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid(10, 10);
        let t = uniform_targets(&g, 8);
        let cfg = MlConfig {
            seed: 42,
            ..MlConfig::default()
        };
        assert_eq!(
            recursive_bisection(&g, &t, &cfg),
            recursive_bisection(&g, &t, &cfg)
        );
    }

    #[test]
    fn warm_scratch_partitions_like_a_fresh_one() {
        let mut scratch = PartitionScratch::default();
        let mut part = Vec::new();
        for (n, k, seed) in [(16, 8, 1), (5, 3, 2), (12, 5, 3), (16, 16, 4)] {
            let g = grid(n, n);
            let targets: Vec<f64> = (0..k).map(|p| 1.0 + (p % 3) as f64).collect();
            let cfg = MlConfig {
                seed,
                ..MlConfig::default()
            };
            recursive_bisection_into(&g, &targets, &cfg, &mut scratch, &mut part);
            assert_eq!(part, recursive_bisection(&g, &targets, &cfg), "{n}x{n}/{k}");
        }
    }
}
