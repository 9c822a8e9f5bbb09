//! The metric catalogue and the one-line JSON result.
//!
//! Every workload prints every metric of the catalogue it is asked for:
//! the end-to-end set untraced (`--trace 0`), the per-layer set traced
//! (`--trace 1`). The names and units here are the ones
//! `BENCHMARK.json` declares; the self-test checks that the two agree.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload measures every
/// one, and none is ever 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("wh_vs_def", "ratio"),
    ("mc_vs_def", "ratio"),
    ("comm_time_vs_def", "ratio"),
    ("deadline_met_frac", "frac"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer the
/// workload never calls did no work and reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.oracle_build_ms", "ms"),
    ("partition.group_ms", "ms"),
    ("partition.group_share", "frac"),
    ("graph.quotient_ms", "ms"),
    ("greedy.ms", "ms"),
    ("greedy.probes", "count"),
    ("greedy.row_hits", "count"),
    ("wh.ms", "ms"),
    ("cong.ms", "ms"),
    ("cong.share", "frac"),
    ("cong.probes", "count"),
    ("cong.moves_per_probe", "ratio"),
    ("cong.route_hit_rate", "frac"),
    ("compose.ms", "ms"),
    ("trace.coverage", "frac"),
    ("trace.overhead", "ratio"),
    ("multilevel.uwh_ms", "ms"),
    ("multilevel.umc_ms", "ms"),
    ("multilevel.levels", "count"),
    ("multilevel.coarsest_tasks", "count"),
    ("service.queue_ms", "ms"),
    ("service.busy_ms", "ms"),
    ("service.reply_p50_ms", "ms"),
    ("service.deadline_met_frac", "frac"),
    ("service.max_queue_depth", "count"),
    ("service.low_tail_ms", "ms"),
    ("service.high_tail_ms", "ms"),
    ("service.full_rung_frac", "frac"),
    ("service.rung.full", "count"),
    ("service.rung.refined", "count"),
    ("service.rung.greedy", "count"),
    ("service.rung.projection", "count"),
    ("service.shed", "count"),
    ("service.deadline_misses", "count"),
    ("remap.repair_tail_us", "us"),
    ("remap.displaced_mean", "count"),
    ("remap.unplaced", "count"),
    ("supervisor.drift_checks", "count"),
    ("supervisor.polishes", "count"),
    ("supervisor.adoptions", "count"),
    ("supervisor.live_wh_vs_fresh", "ratio"),
    ("journal.append_us", "us"),
    ("journal.appends", "count"),
    ("journal.bytes", "count"),
    ("journal.snapshots", "count"),
    ("gen.late_ms", "ms"),
];

/// What one run measured and whether its outputs were correct.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (maps, requests, repairs, checks).
    pub attempted: u64,
    /// Operations that failed: invalid or non-identical output, a
    /// rejection, a panic or a typed error.
    pub failed: u64,
    errors: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Counts one attempted operation and whether it succeeded; a
    /// failure keeps its description for the error summary.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure that is not an operation of its own (a check
    /// over the whole run).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// A measured value, if set.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The first failures, for the error summary.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// The catalogue a run prints: per-layer when traced.
    pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Checks the printed catalogue: every end-to-end metric must have
    /// been measured, finite and nonzero; per-layer metrics default to 0
    /// but must be finite. Violations count as failures.
    pub fn finish(&mut self, trace: bool) {
        for &(name, _) in Self::catalogue(trace) {
            let v = self.values.get(name).copied();
            let ok = match v {
                Some(x) if trace => x.is_finite(),
                Some(x) => x.is_finite() && x != 0.0,
                None => trace,
            };
            if !ok {
                self.fail(format!("metric {name} not measured (value {v:?})"));
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of the catalogue with its unit.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::catalogue(trace)
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
