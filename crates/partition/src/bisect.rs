//! Graph bisection: greedy graph growing + Fiduccia–Mattheyses
//! refinement, wrapped in a multilevel V-cycle.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use umpa_ds::IndexedMaxHeap;
use umpa_graph::Graph;

use crate::coarsen::{coarsen_until_into, CoarseLevel, CoarsenScratch};

/// Parameters of a (multilevel) bisection.
#[derive(Clone, Copy, Debug)]
pub struct BisectConfig {
    /// Allowed relative overload of either side, e.g. `0.05`.
    pub epsilon: f64,
    /// Greedy-graph-growing restarts at the coarsest level.
    pub init_trials: u32,
    /// Maximum FM passes per level.
    pub fm_passes: u32,
    /// Coarsen until this many vertices remain.
    pub coarsen_to: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BisectConfig {
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

/// Reusable buffers of one multilevel bisection: the coarsening
/// hierarchy, the side double buffer, the growing heap and degree
/// table, and FM's gains, locks, move log and two heaps. Every buffer
/// grows to the high-water mark of the graphs seen and is then reused,
/// so a warm scratch bisects with zero heap allocations.
#[derive(Default)]
pub struct BisectScratch {
    coarsen: CoarsenScratch,
    levels: Vec<CoarseLevel>,
    /// Projection target while uncoarsening.
    fine_side: Vec<u8>,
    /// The current growth of [`initial_bisection_into`].
    trial: Vec<u8>,
    /// Weighted degree per vertex, filled once per initial bisection.
    degree: Vec<f64>,
    conn: IndexedMaxHeap,
    fm: FmScratch,
}

/// FM's per-pass buffers (see [`fm_refine`]).
#[derive(Default)]
struct FmScratch {
    gain: Vec<f64>,
    locked: Vec<bool>,
    moves: Vec<u32>,
    /// Vertex ids of side 0 and side 1, the heaps' bulk-load lists.
    ids: [Vec<u32>; 2],
    heaps: [IndexedMaxHeap; 2],
}

/// Side weights of a bisection.
fn side_weights(g: &Graph, side: &[u8]) -> (f64, f64) {
    let mut wl = 0.0;
    let mut wr = 0.0;
    for (v, &s) in side.iter().enumerate() {
        if s == 0 {
            wl += g.vertex_weight(v as u32);
        } else {
            wr += g.vertex_weight(v as u32);
        }
    }
    (wl, wr)
}

/// Cut weight of a bisection (undirected edges counted once).
pub fn bisection_cut(g: &Graph, side: &[u8]) -> f64 {
    let mut cut = 0.0;
    for u in 0..g.num_vertices() as u32 {
        let su = side[u as usize];
        for (&v, &w) in g.neighbors(u).iter().zip(g.edge_weights(u)) {
            if side[v as usize] != su {
                cut += w;
            }
        }
    }
    cut / 2.0
}

/// Greedy graph growing into `side`: grows side 0 from a seed vertex by
/// maximum connectivity until it reaches `target_left` weight. When the
/// reached component is exhausted it jumps to the unreached vertex of
/// highest weighted degree (ties toward the smaller id); `degree`
/// holds those degrees, precomputed by the caller.
fn grow_from(
    g: &Graph,
    seed_vertex: u32,
    target_left: f64,
    degree: &[f64],
    conn: &mut IndexedMaxHeap,
    side: &mut Vec<u8>,
) {
    let n = g.num_vertices();
    side.clear();
    side.resize(n, 1);
    conn.reset(n);
    let mut weight = 0.0;
    let mut grown = 0usize;
    let mut cursor = seed_vertex;
    loop {
        // Bring `cursor` into side 0.
        side[cursor as usize] = 0;
        weight += g.vertex_weight(cursor);
        grown += 1;
        conn.remove(cursor);
        if weight >= target_left || grown == n {
            break;
        }
        for (u, w) in g.edges(cursor) {
            if side[u as usize] == 1 {
                conn.add_to_key(u, w);
            }
        }
        cursor = match conn.pop() {
            Some((u, _)) => u,
            None => {
                // Disconnected: jump to the heaviest-degree unreached vertex.
                match (0..n as u32)
                    .filter(|&u| side[u as usize] == 1)
                    .max_by(|&a, &b| {
                        degree[a as usize]
                            .partial_cmp(&degree[b as usize])
                            .unwrap()
                            .then(b.cmp(&a))
                    }) {
                    Some(u) => u,
                    None => break,
                }
            }
        };
    }
}

// tidy-cold-region: convenience entry points that own their scratch and
// result; the allocation-free forms are the `_into`/`_with` functions
// with a warm `BisectScratch`
/// Initial bisection: best-of-`trials` greedy growths from random seeds.
pub fn initial_bisection(g: &Graph, target_left: f64, trials: u32, seed: u64) -> Vec<u8> {
    let mut side = Vec::new();
    initial_bisection_into(
        g,
        target_left,
        trials,
        seed,
        &mut BisectScratch::default(),
        &mut side,
    );
    side
}

/// One FM refinement run (up to `max_passes` passes) on a bisection.
///
/// Moves are accepted while either side stays within `(1+epsilon)` of
/// its target; each pass moves greedily (allowing negative gains),
/// records the best feasible prefix and rolls back the rest — the
/// classic hill-climbing that lets FM escape local minima. Returns the
/// final cut.
pub fn fm_refine(
    g: &Graph,
    side: &mut [u8],
    target_left: f64,
    target_right: f64,
    epsilon: f64,
    max_passes: u32,
) -> f64 {
    fm_refine_with(
        g,
        side,
        target_left,
        target_right,
        epsilon,
        max_passes,
        &mut BisectScratch::default(),
    )
}

/// Multilevel bisection: coarsen, grow, refine while uncoarsening.
///
/// `target_left` is the desired total vertex weight of side 0.
pub fn multilevel_bisect(g: &Graph, target_left: f64, cfg: &BisectConfig) -> Vec<u8> {
    let mut side = Vec::new();
    multilevel_bisect_into(
        g,
        target_left,
        cfg,
        &mut BisectScratch::default(),
        &mut side,
    );
    side
}
// tidy-end-cold-region

/// [`initial_bisection`] into `side`, reusing `scratch`.
/// Allocation-free once both are warm.
pub fn initial_bisection_into(
    g: &Graph,
    target_left: f64,
    trials: u32,
    seed: u64,
    scratch: &mut BisectScratch,
    side: &mut Vec<u8>,
) {
    let n = g.num_vertices();
    assert!(n >= 2, "cannot bisect fewer than two vertices");
    let BisectScratch {
        trial,
        degree,
        conn,
        ..
    } = scratch;
    degree.clear();
    degree.extend((0..n as u32).map(|v| g.weighted_degree(v)));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut best_cut = f64::INFINITY;
    for t in 0..trials.max(1) {
        let s = rng.gen_range(0..n as u32);
        grow_from(g, s, target_left, degree, conn, trial);
        let cut = bisection_cut(g, trial);
        // The first trial always wins, even at an infinite or NaN cut.
        if t == 0 || cut < best_cut {
            best_cut = cut;
            std::mem::swap(side, trial);
        }
    }
}

/// [`fm_refine`] reusing `scratch`. Allocation-free once warm.
///
/// Each pass bulk-loads the two heaps with
/// [`IndexedMaxHeap::rebuild_sparse`]; their pop order depends only on
/// the (key, id) set, so the moves are the ones sequential pushes give.
pub fn fm_refine_with(
    g: &Graph,
    side: &mut [u8],
    target_left: f64,
    target_right: f64,
    epsilon: f64,
    max_passes: u32,
    scratch: &mut BisectScratch,
) -> f64 {
    let n = g.num_vertices();
    let FmScratch {
        gain,
        locked,
        moves,
        ids,
        heaps,
    } = &mut scratch.fm;
    let limit_l = target_left * (1.0 + epsilon);
    let limit_r = target_right * (1.0 + epsilon);
    // States are ranked by (overload, cut), lexicographically: a balanced
    // partition always beats an unbalanced one, so FM can start from an
    // infeasible projection and walk it feasible even at a cut cost.
    let overload = |wl: f64, wr: f64| (wl - limit_l).max(0.0) + (wr - limit_r).max(0.0);
    let mut cut = bisection_cut(g, side);
    for _ in 0..max_passes {
        let (mut wl, mut wr) = side_weights(g, side);
        // Gains: external − internal edge weight.
        gain.clear();
        gain.extend((0..n as u32).map(|u| {
            let su = side[u as usize];
            let mut gu = 0.0;
            for (&v, &w) in g.neighbors(u).iter().zip(g.edge_weights(u)) {
                if side[v as usize] != su {
                    gu += w;
                } else {
                    gu -= w;
                }
            }
            gu
        }));
        ids[0].clear();
        ids[1].clear();
        for v in 0..n as u32 {
            ids[side[v as usize] as usize].push(v);
        }
        for s in 0..2 {
            heaps[s].rebuild_sparse(n, &ids[s], |v| gain[v as usize]);
        }
        locked.clear();
        locked.resize(n, false);
        moves.clear();
        let mut best_prefix = 0usize;
        let mut running = cut;
        let mut best = (overload(wl, wr), cut);
        loop {
            // Candidate from each side. A receiving side may exceed its
            // limit only while the sending side is itself overloaded
            // (rebalancing an infeasible projection).
            let pick = |h: &IndexedMaxHeap, from: u8, wl: f64, wr: f64| -> Option<(u32, f64)> {
                let (v, gkey) = h.peek()?;
                let vw = g.vertex_weight(v);
                let ok = if from == 0 {
                    wr + vw <= limit_r || wl > limit_l
                } else {
                    wl + vw <= limit_l || wr > limit_r
                };
                ok.then_some((v, gkey))
            };
            let c0 = pick(&heaps[0], 0, wl, wr);
            let c1 = pick(&heaps[1], 1, wl, wr);
            let (v, from) = match (c0, c1) {
                (None, None) => break,
                (Some((v, _)), None) => (v, 0u8),
                (None, Some((v, _))) => (v, 1u8),
                (Some((v0, g0)), Some((v1, g1))) => {
                    // Higher gain; ties → relieve the more loaded side.
                    if g0 > g1 || (g0 == g1 && wl / target_left >= wr / target_right) {
                        (v0, 0)
                    } else {
                        (v1, 1)
                    }
                }
            };
            let to = 1 - from;
            heaps[from as usize].remove(v);
            locked[v as usize] = true;
            running -= gain[v as usize];
            let vw = g.vertex_weight(v);
            if from == 0 {
                wl -= vw;
                wr += vw;
            } else {
                wr -= vw;
                wl += vw;
            }
            side[v as usize] = to;
            moves.push(v);
            // Update neighbor gains.
            for (u, w) in g.edges(v) {
                if locked[u as usize] {
                    continue;
                }
                let delta = if side[u as usize] == to {
                    -2.0 * w
                } else {
                    2.0 * w
                };
                gain[u as usize] += delta;
                let h = &mut heaps[side[u as usize] as usize];
                if h.contains(u) {
                    h.change_key(u, gain[u as usize]);
                }
            }
            let state = (overload(wl, wr), running);
            if state.0 < best.0 - 1e-12 || (state.0 <= best.0 + 1e-12 && state.1 < best.1 - 1e-12) {
                best = state;
                best_prefix = moves.len();
            }
        }
        // Roll back moves after the best prefix.
        for &v in moves.iter().skip(best_prefix) {
            side[v as usize] = 1 - side[v as usize];
        }
        if best_prefix == 0 {
            break;
        }
        cut = best.1;
    }
    cut
}

/// [`multilevel_bisect`] into `side`, reusing `scratch` for the whole
/// V-cycle. Allocation-free once both are warm.
pub fn multilevel_bisect_into(
    g: &Graph,
    target_left: f64,
    cfg: &BisectConfig,
    scratch: &mut BisectScratch,
    side: &mut Vec<u8>,
) {
    let total = g.total_vertex_weight();
    let target_right = total - target_left;
    let mut levels = std::mem::take(&mut scratch.levels);
    let depth = coarsen_until_into(
        g,
        cfg.coarsen_to,
        cfg.seed,
        &mut scratch.coarsen,
        &mut levels,
    );
    let coarsest = levels[..depth].last().map_or(g, |l| &l.graph);
    initial_bisection_into(
        coarsest,
        target_left,
        cfg.init_trials,
        cfg.seed,
        scratch,
        side,
    );
    fm_refine_with(
        coarsest,
        side,
        target_left,
        target_right,
        cfg.epsilon,
        cfg.fm_passes,
        scratch,
    );
    // Project back through the levels, refining at each.
    for i in (0..depth).rev() {
        let finer = if i == 0 { g } else { &levels[i - 1].graph };
        let map = &levels[i].map;
        let fine_side = &mut scratch.fine_side;
        fine_side.clear();
        fine_side.extend(map.iter().map(|&c| side[c as usize]));
        std::mem::swap(side, fine_side);
        fm_refine_with(
            finer,
            side,
            target_left,
            target_right,
            cfg.epsilon,
            cfg.fm_passes,
            scratch,
        );
    }
    scratch.levels = levels;
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn grow_reaches_target_weight() {
        let g = grid(8, 8);
        let degree: Vec<f64> = (0..64).map(|v| g.weighted_degree(v)).collect();
        let mut side = Vec::new();
        grow_from(
            &g,
            0,
            32.0,
            &degree,
            &mut IndexedMaxHeap::default(),
            &mut side,
        );
        let (wl, wr) = side_weights(&g, &side);
        assert_eq!(wl, 32.0);
        assert_eq!(wr, 32.0);
    }

    #[test]
    fn fm_improves_a_bad_bisection() {
        let g = grid(8, 8);
        // Interleaved columns: terrible cut.
        let mut side: Vec<u8> = (0..64).map(|i| ((i % 8) % 2) as u8).collect();
        let before = bisection_cut(&g, &side);
        let after = fm_refine(&g, &mut side, 32.0, 32.0, 0.05, 8);
        assert!(after < before, "FM failed: {before} -> {after}");
        assert!((bisection_cut(&g, &side) - after).abs() < 1e-9);
        let (wl, wr) = side_weights(&g, &side);
        assert!(wl <= 32.0 * 1.05 && wr <= 32.0 * 1.05);
    }

    #[test]
    fn fm_never_worsens() {
        let g = grid(6, 6);
        for seed in 0..5u64 {
            let mut side = initial_bisection(&g, 18.0, 1, seed);
            let before = bisection_cut(&g, &side);
            let after = fm_refine(&g, &mut side, 18.0, 18.0, 0.05, 4);
            assert!(after <= before + 1e-9);
        }
    }

    #[test]
    fn multilevel_finds_near_optimal_grid_cut() {
        // An 16x8 grid split in half has an optimal cut of 8.
        let g = grid(16, 8);
        let cfg = BisectConfig {
            seed: 3,
            ..BisectConfig::default()
        };
        let side = multilevel_bisect(&g, 64.0, &cfg);
        let cut = bisection_cut(&g, &side);
        let (wl, wr) = side_weights(&g, &side);
        assert!(wl <= 64.0 * 1.05 && wr <= 64.0 * 1.05, "wl={wl} wr={wr}");
        assert!(cut <= 12.0, "cut too high: {cut}");
    }

    #[test]
    fn asymmetric_targets_respected() {
        let g = grid(10, 10);
        let cfg = BisectConfig::default();
        let side = multilevel_bisect(&g, 25.0, &cfg);
        let (wl, _) = side_weights(&g, &side);
        assert!(
            (20.0..=31.0).contains(&wl),
            "side-0 weight {wl} far from target 25"
        );
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two 4x4 grids, no edges between them.
        let a = grid(4, 4);
        let mut b = GraphBuilder::new(32);
        for (u, v, w) in a.all_edges() {
            b.add_edge(u, v, w);
            b.add_edge(u + 16, v + 16, w);
        }
        let g = b.build_directed();
        let side = multilevel_bisect(&g, 16.0, &BisectConfig::default());
        let (wl, wr) = side_weights(&g, &side);
        assert!((wl - 16.0).abs() <= 2.0, "wl={wl} wr={wr}");
    }

    #[test]
    fn warm_scratch_bisects_like_a_fresh_one() {
        // One scratch across graphs of different sizes, coarsening and
        // not, gives the sides a fresh scratch gives.
        let mut scratch = BisectScratch::default();
        let mut side = Vec::new();
        for (nx, ny, seed) in [(16, 16, 1), (6, 5, 2), (20, 12, 3), (16, 16, 4)] {
            let g = grid(nx, ny);
            let cfg = BisectConfig {
                seed,
                coarsen_to: 24,
                ..BisectConfig::default()
            };
            let target = g.total_vertex_weight() * 0.4;
            multilevel_bisect_into(&g, target, &cfg, &mut scratch, &mut side);
            assert_eq!(side, multilevel_bisect(&g, target, &cfg), "{nx}x{ny}");
        }
    }
}
