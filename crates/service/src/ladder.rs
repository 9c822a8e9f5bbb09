//! The deadline degradation ladder.
//!
//! Each request carries a time budget (deadline minus time already
//! spent queued). The ladder picks the best mapper the budget can
//! afford, stepping down `cong_refine → wh_refine → greedy-only →
//! projection` (i.e. `GreedyMc → GreedyWh → Greedy → Def` through
//! [`MapperKind::degrade`]) when the budget is tight or the queue is
//! deep — so overload degrades *quality*, never latency. Rung costs
//! are learned online: an EWMA of observed service times per rung,
//! seeded with conservative priors so the first requests under a tight
//! deadline degrade rather than gamble.

use std::sync::atomic::{AtomicU64, Ordering};

use umpa_core::MapperKind;

use crate::config::ServiceConfig;

/// Which rung of the degradation ladder served a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LadderRung {
    /// Greedy + WH refinement + congestion refinement (top quality).
    Full,
    /// Greedy + WH refinement.
    Refined,
    /// Greedy placement only.
    GreedyOnly,
    /// Rank projection (`DEF`) — the always-affordable floor.
    Projection,
}

impl LadderRung {
    /// Number of rungs.
    pub const COUNT: usize = 4;

    /// Dense index for per-rung counters (`Full` = 0 … `Projection` = 3).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The rung a mapper kind belongs to: the number of
    /// [`MapperKind::degrade`] steps from `kind` down to the `DEF` floor
    /// (3 → `Full`, 2 → `Refined`, 1 → `GreedyOnly`, 0 → `Projection`).
    pub fn of(kind: MapperKind) -> Self {
        let steps = std::iter::successors(kind.degrade(), |k| k.degrade()).count();
        Self::all()[Self::COUNT - 1 - steps.min(Self::COUNT - 1)]
    }

    /// Stable snake_case label (bench metric suffixes).
    pub fn label(self) -> &'static str {
        match self {
            LadderRung::Full => "full",
            LadderRung::Refined => "refined",
            LadderRung::GreedyOnly => "greedy",
            LadderRung::Projection => "projection",
        }
    }

    /// All rungs, top to bottom.
    pub fn all() -> [LadderRung; Self::COUNT] {
        [
            LadderRung::Full,
            LadderRung::Refined,
            LadderRung::GreedyOnly,
            LadderRung::Projection,
        ]
    }
}

/// Online per-rung cost model: EWMA of observed service nanoseconds,
/// lock-free (a lost update under a store race just delays the
/// estimate by one observation).
#[derive(Debug)]
pub(crate) struct CostModel {
    est_ns: [AtomicU64; LadderRung::COUNT],
}

/// Conservative priors (ns) before any observation: roughly the
/// default-preset cost of each rung, erring high so cold-start
/// requests under tight deadlines step down instead of missing.
const SEED_NS: [u64; LadderRung::COUNT] = [4_000_000, 1_500_000, 600_000, 60_000];

impl CostModel {
    pub(crate) fn seeded() -> Self {
        Self {
            est_ns: SEED_NS.map(AtomicU64::new),
        }
    }

    /// Folds an observed service time into the rung's estimate
    /// (`new = 3/4·old + 1/4·obs`).
    pub(crate) fn observe(&self, rung: LadderRung, ns: u64) {
        let cell = &self.est_ns[rung.index()];
        let old = cell.load(Ordering::Relaxed);
        cell.store(old - old / 4 + ns / 4, Ordering::Relaxed);
    }

    /// Current estimate for a rung, nanoseconds.
    pub(crate) fn estimate_ns(&self, rung: LadderRung) -> u64 {
        self.est_ns[rung.index()].load(Ordering::Relaxed)
    }
}

/// Picks the mapper that serves a request: start from the requested
/// kind, shed one rung under queue pressure, then keep degrading while
/// the (safety-padded) cost estimate exceeds the remaining budget.
/// `Def` always serves — the ladder never rejects.
pub(crate) fn select_kind(
    requested: MapperKind,
    budget_ns: u64,
    queue_depth: usize,
    cfg: &ServiceConfig,
    costs: &CostModel,
) -> MapperKind {
    let mut kind = requested;
    if queue_depth >= cfg.pressure_depth.max(1) {
        if let Some(down) = kind.degrade() {
            kind = down;
        }
    }
    loop {
        let padded = (costs.estimate_ns(LadderRung::of(kind)) as f64 * cfg.safety_factor) as u64;
        if padded <= budget_ns {
            return kind;
        }
        match kind.degrade() {
            Some(down) => kind = down,
            None => return kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServiceConfig {
        ServiceConfig {
            pressure_depth: 8,
            safety_factor: 2.0,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn generous_budget_keeps_the_requested_kind() {
        let costs = CostModel::seeded();
        let k = select_kind(MapperKind::GreedyMc, u64::MAX, 0, &cfg(), &costs);
        assert_eq!(k, MapperKind::GreedyMc);
    }

    #[test]
    fn tight_budget_walks_down_to_projection() {
        let costs = CostModel::seeded();
        let k = select_kind(MapperKind::GreedyMc, 1_000, 0, &cfg(), &costs);
        assert_eq!(k, MapperKind::Def);
        // A budget affording greedy (600 µs seed × 2 safety) but not WH.
        let k = select_kind(MapperKind::GreedyMc, 1_400_000, 0, &cfg(), &costs);
        assert_eq!(k, MapperKind::Greedy);
    }

    #[test]
    fn queue_pressure_sheds_one_extra_rung() {
        let costs = CostModel::seeded();
        let k = select_kind(MapperKind::GreedyMc, u64::MAX, 8, &cfg(), &costs);
        assert_eq!(k, MapperKind::GreedyWh);
        // Projection cannot degrade further.
        let k = select_kind(MapperKind::Def, u64::MAX, 8, &cfg(), &costs);
        assert_eq!(k, MapperKind::Def);
    }

    #[test]
    fn ewma_learns_observed_costs() {
        let costs = CostModel::seeded();
        let before = costs.estimate_ns(LadderRung::Full);
        for _ in 0..64 {
            costs.observe(LadderRung::Full, 100_000);
        }
        let after = costs.estimate_ns(LadderRung::Full);
        assert!(after < before / 4, "estimate should converge down: {after}");
        // A cheap observed Full rung now fits a budget it did not fit
        // cold.
        let k = select_kind(MapperKind::GreedyMc, 1_000_000, 0, &cfg(), &costs);
        assert_eq!(k, MapperKind::GreedyMc);
    }

    #[test]
    fn cold_estimates_are_the_seed_priors_and_one_observation_folds_in() {
        let costs = CostModel::seeded();
        for (rung, seed) in LadderRung::all().into_iter().zip(SEED_NS) {
            assert_eq!(costs.estimate_ns(rung), seed, "{}", rung.label());
        }
        // First observation folds at the EWMA weight, not a hard reset:
        // new = seed - seed/4 + obs/4.
        costs.observe(LadderRung::Full, 100_000);
        assert_eq!(
            costs.estimate_ns(LadderRung::Full),
            4_000_000 - 4_000_000 / 4 + 100_000 / 4
        );
    }

    #[test]
    fn pathological_service_times_never_wrap_the_estimate() {
        // Repeated worst-case observations drive the EWMA toward
        // u64::MAX; `old - old/4 + ns/4` must stay in range at the
        // fixed point (debug builds panic on wrap, so this test proves
        // it). The ladder keeps serving off the saturated estimate.
        let costs = CostModel::seeded();
        let mut prev = costs.estimate_ns(LadderRung::Projection);
        for _ in 0..256 {
            costs.observe(LadderRung::Projection, u64::MAX);
            let est = costs.estimate_ns(LadderRung::Projection);
            assert!(est >= prev, "saturating estimate regressed: {est} < {prev}");
            prev = est;
        }
        assert!(
            prev > u64::MAX / 2,
            "estimate should approach the observations"
        );
        let k = select_kind(MapperKind::Def, 1_000, 0, &cfg(), &costs);
        assert_eq!(k, MapperKind::Def);
    }

    #[test]
    fn ladder_serves_the_floor_when_every_rung_exceeds_the_budget() {
        // Learn expensive costs into every rung, then ask with a budget
        // none of them fits: the walk must bottom out at Def — the
        // ladder never rejects — instead of looping or panicking.
        let costs = CostModel::seeded();
        for rung in LadderRung::all() {
            for _ in 0..64 {
                costs.observe(rung, 10_000_000_000);
            }
        }
        for budget in [0, 1, 1_000_000] {
            let k = select_kind(MapperKind::GreedyMc, budget, 0, &cfg(), &costs);
            assert_eq!(k, MapperKind::Def, "budget {budget}");
        }
    }

    #[test]
    fn rung_indices_are_dense_and_labels_stable() {
        let mut seen = [false; LadderRung::COUNT];
        for r in LadderRung::all() {
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(LadderRung::of(MapperKind::GreedyMmc), LadderRung::Full);
        assert_eq!(LadderRung::Projection.label(), "projection");
    }
}
