//! Post-partitioning balance fixing.
//!
//! The paper: "Since graph partitioning algorithms do not always obtain
//! a perfect balance, as a post processing, we fix the balance with a
//! small sacrifice on the edge-cut metric via a single
//! Fiduccia–Mattheyses (FM) iteration" (Section III-A). This module is
//! that iteration: vertices leave overloaded parts for the best
//! underloaded part, chosen to minimize edge-cut damage.

use umpa_ds::IndexedMaxHeap;
use umpa_graph::Graph;

use crate::metrics::part_weights_into;

/// Reusable buffers of [`fix_balance_with`]: part weights and limits,
/// the candidate heap and the per-part connectivity accumulator.
#[derive(Default)]
pub struct BalanceScratch {
    weights: Vec<f64>,
    limit: Vec<f64>,
    heap: IndexedMaxHeap,
    conn: Vec<f64>,
    touched: Vec<u32>,
}

// tidy-cold-region: convenience entry point that owns its scratch; the
// allocation-free form is `fix_balance_with`
/// Moves vertices out of parts exceeding `targets[p] * (1 + epsilon)`
/// until every part fits (or no helpful move remains). A single
/// FM-style iteration: each vertex moves at most once, best-gain first.
///
/// Returns the number of vertices moved.
pub fn fix_balance(g: &Graph, part: &mut [u32], targets: &[f64], epsilon: f64) -> usize {
    fix_balance_with(g, part, targets, epsilon, &mut BalanceScratch::default())
}
// tidy-end-cold-region

/// [`fix_balance`] reusing `scratch`. Allocation-free once warm.
pub fn fix_balance_with(
    g: &Graph,
    part: &mut [u32],
    targets: &[f64],
    epsilon: f64,
    scratch: &mut BalanceScratch,
) -> usize {
    let n = g.num_vertices();
    let k = targets.len();
    let BalanceScratch {
        weights,
        limit,
        heap,
        conn,
        touched,
    } = scratch;
    part_weights_into(g, part, k, weights);
    limit.clear();
    limit.extend(targets.iter().map(|t| t * (1.0 + epsilon)));
    let limit = &limit[..];
    let overloaded = |weights: &[f64], p: usize| weights[p] > limit[p] + 1e-12;
    if !(0..k).any(|p| overloaded(weights, p)) {
        return 0;
    }
    // Priority: vertices in overloaded parts, keyed by the edge-cut gain
    // of their best alternative part (computed lazily at pop time; the
    // heap key is an upper bound refreshed on pop — a standard lazy
    // re-evaluation scheme that keeps one pass near-linear).
    heap.reset(n);
    for v in 0..n as u32 {
        if overloaded(weights, part[v as usize] as usize) {
            // Initial optimistic key: total incident weight (max possible gain).
            heap.push(v, g.weighted_degree(v));
        }
    }
    let mut moved = 0usize;
    conn.clear();
    conn.resize(k, 0.0);
    touched.clear();
    while let Some((v, key)) = heap.pop() {
        let from = part[v as usize] as usize;
        if !overloaded(weights, from) {
            continue; // its part got fixed meanwhile
        }
        // Connectivity of v to each part.
        touched.clear();
        for (u, w) in g.edges(v) {
            let p = part[u as usize];
            if conn[p as usize] == 0.0 {
                touched.push(p);
            }
            conn[p as usize] += w;
        }
        let vw = g.vertex_weight(v);
        // Best receiving part: must have room; maximize gain = conn(to) −
        // conn(from). Consider connected parts first, then any part
        // with room.
        let mut best: Option<(f64, usize)> = None;
        let consider = |best: &mut Option<(f64, usize)>,
                        to: usize,
                        conn_to: f64,
                        conn_from: f64,
                        weights: &[f64]| {
            if to == from || weights[to] + vw > limit[to] {
                return;
            }
            let gain = conn_to - conn_from;
            if best.is_none() || gain > best.unwrap().0 {
                *best = Some((gain, to));
            }
        };
        let conn_from = conn[from];
        for &p in touched.iter() {
            consider(&mut best, p as usize, conn[p as usize], conn_from, weights);
        }
        if best.is_none() {
            for to in 0..k {
                consider(&mut best, to, 0.0, conn_from, weights);
            }
        }
        // Lazy key refresh: if the true gain is lower than the heap key
        // and other candidates remain, push back with the true key.
        if let Some((gain, to)) = best {
            if gain < key - 1e-12 {
                if let Some(&(_, next_key)) = heap.peek().as_ref() {
                    if gain < next_key {
                        heap.push(v, gain);
                        for &p in touched.iter() {
                            conn[p as usize] = 0.0;
                        }
                        continue;
                    }
                }
            }
            part[v as usize] = to as u32;
            weights[from] -= vw;
            weights[to] += vw;
            moved += 1;
            // Keys are upper bounds on gain; a neighbor's true gain can
            // rise by up to 2·w(u,v) now that v left its part, so bump
            // to keep the bound valid.
            for (u, w) in g.edges(v) {
                if let Some(cur) = heap.key_of(u) {
                    heap.change_key(u, cur + 2.0 * w);
                }
            }
        }
        for &p in touched.iter() {
            conn[p as usize] = 0.0;
        }
        if !(0..k).any(|p| overloaded(weights, p)) {
            break;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, imbalance};
    use umpa_graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1, 1.0);
        }
        b.build_symmetric()
    }

    #[test]
    fn fixes_an_overloaded_part() {
        let g = path(8);
        // All in part 0; targets 4/4.
        let mut part = vec![0u32; 8];
        let targets = vec![4.0, 4.0];
        let moved = fix_balance(&g, &mut part, &targets, 0.05);
        assert!(moved >= 4);
        assert!(imbalance(&g, &part, &targets) <= 0.05 + 1e-9);
    }

    #[test]
    fn balanced_input_is_untouched() {
        let g = path(8);
        let mut part: Vec<u32> = (0..8).map(|i| u32::from(i >= 4)).collect();
        let before = part.clone();
        assert_eq!(fix_balance(&g, &mut part, &[4.0, 4.0], 0.05), 0);
        assert_eq!(part, before);
    }

    #[test]
    fn prefers_cut_friendly_moves() {
        // Path 0-..-7, part0 = {0..5} (6 vertices), part1 = {6,7}.
        let g = path(8);
        let mut part = vec![0, 0, 0, 0, 0, 0, 1, 1];
        let targets = vec![4.0, 4.0];
        fix_balance(&g, &mut part, &targets, 0.01);
        // Boundary vertices (5, then 4) should migrate, keeping cut = 1.
        assert_eq!(edge_cut(&g, &part), 1.0, "part = {part:?}");
        assert!(imbalance(&g, &part, &targets) <= 0.02);
    }

    #[test]
    fn respects_capacity_of_receivers() {
        let g = path(6);
        // targets: part0 tiny, part1 roomy.
        let mut part = vec![0, 0, 0, 0, 1, 1];
        let targets = vec![2.0, 4.0];
        fix_balance(&g, &mut part, &targets, 0.0);
        let w = crate::metrics::part_weights(&g, &part, 2);
        assert!(w[0] <= 2.0 + 1e-9);
        assert!(w[1] <= 4.0 + 1e-9);
    }

    #[test]
    fn multiway_overload_resolves() {
        let g = path(12);
        let mut part = vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1];
        let targets = vec![3.0, 3.0, 3.0, 3.0];
        fix_balance(&g, &mut part, &targets, 0.1);
        let imb = imbalance(&g, &part, &targets);
        assert!(imb <= 0.1 + 1e-9, "imbalance {imb}");
    }
}
