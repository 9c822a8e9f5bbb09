//! The traced run: a direct map rebuilt from the library's public calls,
//! with a span around each call.
//!
//! `map_tasks_with` is phase 1 (`group_tasks`), the quotient graph
//! (`TaskGraph::group_quotient`), greedy placement (`greedy_map_into`),
//! one refinement (`wh_refine_scratch` or `congestion_refine_scratch`)
//! and a compose gather. [`traced_map`] makes the same calls in the same
//! order, timing each from outside, so nothing inside the program is
//! instrumented. Callers compare its output with `map_tasks_with`'s,
//! bit for bit: the spans are only trusted while the decomposition is
//! the pipeline.

use std::time::Instant;

use umpa_core::pipeline::group_tasks;
use umpa_core::{
    congestion_refine_scratch, greedy_map_into, wh_refine_scratch, MapperKind, MapperScratch,
    PipelineConfig,
};
use umpa_graph::TaskGraph;
use umpa_topology::{Allocation, Machine};

use crate::report::Report;

/// Span sums (nanoseconds) and engine counters over the traced maps.
#[derive(Default)]
pub struct LayerTimes {
    maps: u64,
    group: f64,
    quotient: f64,
    greedy: f64,
    wh: f64,
    wh_maps: u64,
    cong: f64,
    cong_maps: u64,
    /// Traced wall time of the maps that ran congestion refinement.
    cong_map_total: f64,
    compose: f64,
    /// Traced wall time, first span start to last span end.
    total: f64,
    /// Wall time of the same maps through `map_tasks_with`.
    untraced: f64,
    greedy_probes: u64,
    greedy_row_hits: u64,
    cong_probes: u64,
    cong_moves: u64,
    route_queries: u64,
    route_hits: u64,
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

impl LayerTimes {
    /// Adds the untraced time of a map the trace is compared against.
    pub fn add_untraced(&mut self, ns: f64) {
        self.untraced += ns;
    }

    /// Writes the per-layer metrics: mean milliseconds per map of each
    /// span (refinements per map that ran them), the engine counters per
    /// run, phase 1's share of traced time, and how much of the traced
    /// time the spans cover.
    pub fn emit(&self, rep: &mut Report) {
        if self.maps == 0 {
            return;
        }
        let per = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 / 1e6 };
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let spans = self.group + self.quotient + self.greedy + self.wh + self.cong + self.compose;
        rep.set("partition.group_ms", per(self.group, self.maps));
        rep.set("partition.group_share", ratio(self.group, self.total));
        rep.set("graph.quotient_ms", per(self.quotient, self.maps));
        rep.set("greedy.ms", per(self.greedy, self.maps));
        rep.set(
            "greedy.probes",
            ratio(self.greedy_probes as f64, self.maps as f64),
        );
        rep.set(
            "greedy.row_hits",
            ratio(self.greedy_row_hits as f64, self.maps as f64),
        );
        rep.set("wh.ms", per(self.wh, self.wh_maps));
        rep.set("cong.ms", per(self.cong, self.cong_maps));
        rep.set("cong.share", ratio(self.cong, self.cong_map_total));
        rep.set(
            "cong.probes",
            ratio(self.cong_probes as f64, self.cong_maps as f64),
        );
        rep.set(
            "cong.moves_per_probe",
            ratio(self.cong_moves as f64, self.cong_probes as f64),
        );
        rep.set(
            "cong.route_hit_rate",
            ratio(self.route_hits as f64, self.route_queries as f64),
        );
        rep.set("compose.ms", per(self.compose, self.maps));
        rep.set("trace.coverage", ratio(spans, self.total));
        rep.set("trace.overhead", ratio(self.total, self.untraced));
    }
}

/// One direct map of `fine` with `kind` (a greedy-family mapper), made
/// from the public calls `map_tasks_with` makes, each one timed.
/// `coarse` is the caller's buffer for the coarse placement.
#[allow(clippy::too_many_arguments)]
pub fn traced_map(
    fine: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    kind: MapperKind,
    cfg: &PipelineConfig,
    scratch: &mut MapperScratch,
    coarse: &mut Vec<u32>,
    lt: &mut LayerTimes,
) -> Vec<u32> {
    let start = Instant::now();
    let t = Instant::now();
    let group_of = group_tasks(fine, alloc, &cfg.ml);
    lt.group += ns(t);

    let t = Instant::now();
    let n_groups = alloc.num_nodes();
    let coarse_vol = fine.group_quotient(&group_of, n_groups, false);
    let coarse_cnt =
        (kind == MapperKind::GreedyMmc).then(|| fine.group_quotient(&group_of, n_groups, true));
    lt.quotient += ns(t);

    let t = Instant::now();
    greedy_map_into(
        &coarse_vol,
        machine,
        alloc,
        &cfg.greedy,
        &mut scratch.greedy,
        coarse,
    );
    lt.greedy += ns(t);
    let g = scratch.greedy.stats();
    lt.greedy_probes += g.probes;
    lt.greedy_row_hits += g.row_hits;

    let t = Instant::now();
    match kind {
        MapperKind::Greedy => {}
        MapperKind::GreedyWh => {
            wh_refine_scratch(
                &coarse_vol,
                machine,
                alloc,
                coarse,
                &cfg.wh,
                &mut scratch.wh,
            );
            lt.wh += ns(t);
            lt.wh_maps += 1;
        }
        MapperKind::GreedyMc | MapperKind::GreedyMmc => {
            let (graph, cong_cfg) = match &coarse_cnt {
                Some(cnt) => (cnt, &cfg.cong_messages),
                None => (&coarse_vol, &cfg.cong_volume),
            };
            congestion_refine_scratch(graph, machine, alloc, coarse, cong_cfg, &mut scratch.cong);
            lt.cong += ns(t);
            lt.cong_maps += 1;
            let c = scratch.cong.stats();
            lt.cong_probes += c.probes;
            lt.cong_moves += c.moves;
            lt.route_queries += c.route_queries;
            lt.route_hits += c.route_cache_hits;
        }
        other => unreachable!("{} is not a greedy-family mapper", other.name()),
    }

    let t = Instant::now();
    let fine_mapping: Vec<u32> = group_of.iter().map(|&g| coarse[g as usize]).collect();
    lt.compose += ns(t);

    let total = ns(start);
    lt.total += total;
    if matches!(kind, MapperKind::GreedyMc | MapperKind::GreedyMmc) {
        lt.cong_map_total += total;
    }
    lt.maps += 1;
    fine_mapping
}
