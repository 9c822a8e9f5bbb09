//! Multilevel coarsening via heavy-edge matching.
//!
//! The classic METIS-style scheme: visit vertices in random order, match
//! each unmatched vertex with its unmatched neighbor of maximum edge
//! weight (heavy-edge rule), collapse matched pairs into coarse
//! vertices, sum vertex weights and merge parallel edges. Repeated until
//! the graph is small enough for the initial bisection or coarsening
//! stalls.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use umpa_graph::{Graph, GraphBuilder};

/// One coarsening step: the coarse graph and the fine→coarse map.
#[derive(Clone, Debug, Default)]
pub struct CoarseLevel {
    /// The coarse graph.
    pub graph: Graph,
    /// `map[fine_vertex]` = coarse vertex id.
    pub map: Vec<u32>,
}

// tidy-cold-region: convenience wrappers that own their scratch and
// levels; the allocation-free forms are `coarsen_step_into` and
// `coarsen_until_into` with warm buffers
/// Matches vertices by the heavy-edge rule and builds the coarse graph.
///
/// Returns `None` if matching cannot shrink the graph by at least 10 %
/// (isolated vertices and star graphs eventually stall).
pub fn coarsen_step(g: &Graph, seed: u64) -> Option<CoarseLevel> {
    let mut level = CoarseLevel::default();
    coarsen_step_into(g, seed, &mut CoarsenScratch::default(), &mut level).then_some(level)
}

/// Coarsens until `target_size` vertices or a stall; returns the levels
/// from finest to coarsest (empty if `g` is already small enough).
pub fn coarsen_until(g: &Graph, target_size: usize, seed: u64) -> Vec<CoarseLevel> {
    let mut levels = Vec::new();
    let n = coarsen_until_into(
        g,
        target_size,
        seed,
        &mut CoarsenScratch::default(),
        &mut levels,
    );
    levels.truncate(n);
    levels
}
// tidy-end-cold-region

/// Heavy-edge matching over `g` into caller-owned buffers: visit
/// vertices in a seeded-shuffle order; match each unmatched vertex
/// with its heaviest unmatched neighbor **admitted by `admit(v, u)`**
/// (ties toward lighter vertex weight — keeps coarse weights even —
/// then smaller id); assign coarse ids in fine-id order. Returns the
/// coarse vertex count; `map[v]` is `v`'s coarse id.
///
/// This is the one matching kernel in the workspace: the partitioner's
/// [`coarsen_step`] admits every pair, while `umpa_core::multilevel`
/// passes its capacity cap as the predicate and reuses the buffers
/// across levels (allocation-free once warm).
pub fn heavy_edge_matching(
    g: &Graph,
    seed: u64,
    admit: impl Fn(u32, u32) -> bool,
    order: &mut Vec<u32>,
    mate: &mut Vec<u32>,
    map: &mut Vec<u32>,
) -> usize {
    const UNMATCHED: u32 = u32::MAX;
    let n = g.num_vertices();
    order.clear();
    order.extend(0..n as u32);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    mate.clear();
    mate.resize(n, UNMATCHED);
    for &v in order.iter() {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u32, f64)> = None;
        for (u, w) in g.edges(v) {
            if u == v || mate[u as usize] != UNMATCHED || !admit(v, u) {
                continue;
            }
            let better = match best {
                None => true,
                Some((bu, bw)) => {
                    w > bw || (w == bw && (g.vertex_weight(u), u) < (g.vertex_weight(bu), bu))
                }
            };
            if better {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
            None => mate[v as usize] = v, // matched with itself
        }
    }
    // Assign coarse ids in fine-id order (deterministic regardless of
    // the visit order above).
    map.clear();
    map.resize(n, u32::MAX);
    let mut next = 0u32;
    for v in 0..n as u32 {
        if map[v as usize] != u32::MAX {
            continue;
        }
        let m = mate[v as usize];
        map[v as usize] = next;
        if m != v && m != UNMATCHED {
            map[m as usize] = next;
        }
        next += 1;
    }
    next as usize
}

/// Reusable workspace for a coarsening loop: the CSR builder, the
/// matching buffers and the coarse vertex weights, amortized across
/// levels (the same buffer-reuse discipline as `umpa_core::multilevel`'s
/// hierarchy). The per-level fine→coarse `map` is *not* here — each
/// [`CoarseLevel`] owns its map.
#[derive(Default)]
pub struct CoarsenScratch {
    builder: GraphBuilder,
    order: Vec<u32>,
    mate: Vec<u32>,
    vwgt: Vec<f64>,
}

/// [`coarsen_step`] into a caller-owned level, reusing `scratch` and
/// the level's buffers. Returns `false` (leaving `level` unspecified)
/// when matching cannot shrink the graph by at least 10 %.
/// Allocation-free once `scratch` and `level` are warm.
pub fn coarsen_step_into(
    g: &Graph,
    seed: u64,
    scratch: &mut CoarsenScratch,
    level: &mut CoarseLevel,
) -> bool {
    let n = g.num_vertices();
    let CoarsenScratch {
        builder,
        order,
        mate,
        vwgt,
    } = scratch;
    let map = &mut level.map;
    let coarse_n = heavy_edge_matching(g, seed, |_, _| true, order, mate, map);
    if coarse_n as f64 > 0.9 * n as f64 {
        return false;
    }
    // Coarse vertex weights and edges.
    vwgt.clear();
    vwgt.resize(coarse_n, 0.0);
    for v in 0..n {
        vwgt[map[v] as usize] += g.vertex_weight(v as u32);
    }
    builder.reset(coarse_n);
    for u in 0..n as u32 {
        let cu = map[u as usize];
        for (&v, &w) in g.neighbors(u).iter().zip(g.edge_weights(u)) {
            let cv = map[v as usize];
            if cu != cv {
                builder.add_edge(cu, cv, w);
            }
        }
    }
    builder.set_vertex_weights_from(vwgt.iter().copied());
    // The fine graph is symmetric; merging duplicates directionally
    // keeps it symmetric, so a directed build suffices.
    builder.build_directed_into(&mut level.graph);
    true
}

/// Coarsens until `target_size` vertices or a stall into `levels`,
/// finest to coarsest, and returns how many levels were built (0 if
/// `g` is already small enough). Entries of `levels` past that count
/// are spare buffers kept for the next call: the vector only grows, so
/// a warm `levels` and `scratch` make the whole loop allocation-free.
pub fn coarsen_until_into(
    g: &Graph,
    target_size: usize,
    seed: u64,
    scratch: &mut CoarsenScratch,
    levels: &mut Vec<CoarseLevel>,
) -> usize {
    let mut built = 0usize;
    loop {
        if levels.len() == built {
            levels.push(CoarseLevel::default());
        }
        let (done, rest) = levels.split_at_mut(built);
        let current = done.last().map_or(g, |l| &l.graph);
        if current.num_vertices() <= target_size
            || !coarsen_step_into(
                current,
                seed.wrapping_add(built as u64),
                scratch,
                &mut rest[0],
            )
        {
            return built;
        }
        built += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umpa_graph::GraphBuilder;

    fn grid(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n * n);
        let idx = |x: usize, y: usize| (y * n + x) as u32;
        for y in 0..n {
            for x in 0..n {
                if x + 1 < n {
                    b.add_edge(idx(x, y), idx(x + 1, y), 1.0);
                }
                if y + 1 < n {
                    b.add_edge(idx(x, y), idx(x, y + 1), 1.0);
                }
            }
        }
        b.build_symmetric()
    }

    #[test]
    fn step_preserves_total_vertex_weight() {
        let g = grid(8);
        let lvl = coarsen_step(&g, 1).unwrap();
        assert!(lvl.graph.num_vertices() < g.num_vertices());
        assert!((lvl.graph.total_vertex_weight() - g.total_vertex_weight()).abs() < 1e-9);
    }

    #[test]
    fn step_drops_internal_edges_only() {
        let g = grid(6);
        let lvl = coarsen_step(&g, 2).unwrap();
        // Every coarse edge weight is a sum of fine cut edges; totals
        // can only shrink by collapsed (matched) edges.
        assert!(lvl.graph.total_edge_weight() < g.total_edge_weight());
        // Map covers all fine vertices with valid coarse ids.
        let cn = lvl.graph.num_vertices() as u32;
        assert!(lvl.map.iter().all(|&c| c < cn));
    }

    #[test]
    fn heavy_edges_are_preferred() {
        // K3 with 0-1 (w=1), 0-2 (w=10), 1-2 (w=5). Edge 0-1 is the
        // locally lightest choice for *both* endpoints, so whatever the
        // visit order, the heavy-edge rule must never match it.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0)
            .add_edge(0, 2, 10.0)
            .add_edge(1, 2, 5.0);
        let g = b.build_symmetric();
        for seed in 0..16u64 {
            let lvl = coarsen_step(&g, seed).unwrap();
            assert_ne!(
                lvl.map[0], lvl.map[1],
                "seed {seed} matched the lightest edge"
            );
        }
    }

    #[test]
    fn coarsen_until_reaches_target() {
        let g = grid(12); // 144 vertices
        let levels = coarsen_until(&g, 20, 7);
        assert!(!levels.is_empty());
        let last = &levels.last().unwrap().graph;
        assert!(
            last.num_vertices() <= 40,
            "stalled at {}",
            last.num_vertices()
        );
        // Weight conserved through all levels.
        assert!((last.total_vertex_weight() - 144.0).abs() < 1e-9);
    }

    #[test]
    fn edgeless_graph_stalls_gracefully() {
        let g = Graph::empty(10);
        // Self-matching shrinks nothing; must return None, not loop.
        assert!(coarsen_step(&g, 3).is_none());
        assert!(coarsen_until(&g, 2, 3).is_empty());
    }

    #[test]
    fn warm_levels_coarsen_like_fresh_ones() {
        let mut scratch = CoarsenScratch::default();
        let mut levels = Vec::new();
        for (n, target, seed) in [(12, 20, 7), (8, 10, 1), (16, 30, 2)] {
            let g = grid(n);
            let built = coarsen_until_into(&g, target, seed, &mut scratch, &mut levels);
            let fresh = coarsen_until(&g, target, seed);
            assert_eq!(built, fresh.len());
            for (warm, fresh) in levels.iter().zip(&fresh) {
                assert_eq!(warm.graph, fresh.graph);
                assert_eq!(warm.map, fresh.map);
            }
        }
    }
}
