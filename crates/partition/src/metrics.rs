//! Partition quality metrics on graphs.

use umpa_graph::Graph;

/// Edge cut: total weight of edges whose endpoints lie in different
/// parts. For symmetric graphs every undirected edge is stored twice, so
/// the sum is halved.
pub fn edge_cut(g: &Graph, part: &[u32]) -> f64 {
    debug_assert_eq!(g.num_vertices(), part.len());
    let mut cut = 0.0;
    for (u, v, w) in g.all_edges() {
        if part[u as usize] != part[v as usize] {
            cut += w;
        }
    }
    cut / 2.0
}

/// Per-part vertex-weight sums.
pub fn part_weights(g: &Graph, part: &[u32], k: usize) -> Vec<f64> {
    let mut w = Vec::new();
    part_weights_into(g, part, k, &mut w);
    w
}

/// [`part_weights`] into a reused buffer.
pub fn part_weights_into(g: &Graph, part: &[u32], k: usize, w: &mut Vec<f64>) {
    w.clear();
    w.resize(k, 0.0);
    for v in 0..g.num_vertices() {
        w[part[v] as usize] += g.vertex_weight(v as u32);
    }
}

/// Maximum relative overload against per-part targets:
/// `max_p (weight_p / target_p) − 1`. Zero means perfectly balanced;
/// `0.03` means the heaviest part exceeds its target by 3 %.
pub fn imbalance(g: &Graph, part: &[u32], targets: &[f64]) -> f64 {
    let w = part_weights(g, part, targets.len());
    w.iter()
        .zip(targets)
        .map(|(&got, &want)| {
            if want > 0.0 {
                got / want
            } else {
                f64::from(u8::from(got > 0.0))
            }
        })
        .fold(0.0f64, f64::max)
        - 1.0
}

/// Uniform targets summing to the graph's total vertex weight.
pub fn uniform_targets(g: &Graph, k: usize) -> Vec<f64> {
    vec![g.total_vertex_weight() / k as f64; k]
}

#[cfg(test)]
mod tests {
    use super::*;
    use umpa_graph::GraphBuilder;

    fn path() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0)
            .add_edge(1, 2, 5.0)
            .add_edge(2, 3, 1.0);
        b.build_symmetric()
    }

    #[test]
    fn edge_cut_counts_cross_edges_once() {
        let g = path();
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 5.0);
        assert_eq!(edge_cut(&g, &[0, 1, 0, 1]), 7.0);
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn imbalance_relative_to_targets() {
        let g = path(); // unit weights, total 4
        let part = [0, 0, 0, 1];
        // targets 2/2: part0 has 3 -> 1.5x -> imbalance 0.5
        assert!((imbalance(&g, &part, &[2.0, 2.0]) - 0.5).abs() < 1e-12);
        // targets 3/1: exact fit
        assert!(imbalance(&g, &part, &[3.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn part_weights_sum_to_total() {
        let g = path();
        let w = part_weights(&g, &[0, 1, 1, 2], 3);
        assert_eq!(w, vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn uniform_targets_split_total() {
        let g = path();
        assert_eq!(uniform_targets(&g, 4), vec![1.0; 4]);
    }
}
