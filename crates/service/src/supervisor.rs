//! The churn-drift supervisor.
//!
//! Frontier-local repair is fast but only locally optimal: each repair
//! leaves a little WH on the table, and under *sustained* churn the
//! live mapping drifts away from what a from-scratch map of the
//! current (post-churn) machine would achieve — the PR-6 caveat. The
//! supervisor closes it: every `check_every` repairs (or on demand) it
//! compares the live mapping's WH against a cached from-scratch
//! baseline — refreshed only when the fault state or allocation
//! actually changed, detected via
//! [`FaultSnapshot`](umpa_topology::FaultSnapshot) equality — and when
//! drift exceeds `max_drift` it polishes the live mapping in place
//! (full WH refinement, then a volume-congestion polish). If polish
//! alone cannot close the gap it adopts the baseline mapping outright,
//! restoring the bound by construction.

use umpa_core::greedy::weighted_hops;
use umpa_core::{greedy_map_into, MapperKind, MapperScratch, PipelineConfig};
use umpa_graph::TaskGraph;
use umpa_topology::{Allocation, FaultSnapshot, Machine};

use crate::config::SupervisorPolicy;

/// Cached from-scratch reference mapping for the current machine
/// state.
#[derive(Debug)]
struct Baseline {
    /// Fault state the baseline was computed under.
    snapshot: FaultSnapshot,
    /// Allocation membership the baseline was computed under.
    alloc_nodes: Vec<u32>,
    /// Baseline weighted hops.
    wh: f64,
    /// Baseline mapping (adopted when polish cannot close the gap).
    mapping: Vec<u32>,
}

/// What one supervisor pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PolishOutcome {
    /// The drift check ran (baseline available, mapping fully placed).
    pub checked: bool,
    /// The live mapping was polished in place.
    pub polished: bool,
    /// The baseline mapping was adopted wholesale.
    pub adopted: bool,
}

/// Drift-supervisor state for one resident job.
#[derive(Debug, Default)]
pub(crate) struct Supervisor {
    repairs_since_check: u32,
    baseline: Option<Baseline>,
}

impl Supervisor {
    /// Repairs since the last drift check — the only supervisor state
    /// that must survive a crash. The baseline cache is deliberately
    /// *not* persisted: it is a deterministic function of the fault
    /// state and allocation it is keyed on, so recovery recomputes it
    /// on demand and lands on bit-identical check outcomes.
    pub(crate) fn repairs_since_check(&self) -> u32 {
        self.repairs_since_check
    }

    /// Rebuilds supervisor state from a recovery snapshot (empty
    /// baseline cache, see [`Supervisor::repairs_since_check`]).
    pub(crate) fn restored(repairs_since_check: u32) -> Self {
        Supervisor {
            repairs_since_check,
            baseline: None,
        }
    }

    /// Called after each successful repair (and by `polish_now` with
    /// `force`). Rations the drift check to every
    /// `policy.check_every` repairs; a partial (infeasible) mapping is
    /// never checked — there is no full placement to compare.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn after_repair(
        &mut self,
        policy: &SupervisorPolicy,
        pipeline: &PipelineConfig,
        tasks: &TaskGraph,
        machine: &Machine,
        alloc: &Allocation,
        mapping: &mut [u32],
        scratch: &mut MapperScratch,
        force: bool,
    ) -> PolishOutcome {
        self.repairs_since_check += 1;
        if !force && self.repairs_since_check < policy.check_every.max(1) {
            return PolishOutcome::default();
        }
        if mapping.contains(&u32::MAX) {
            return PolishOutcome::default();
        }
        self.repairs_since_check = 0;
        // The pipeline's refiner for `kind`, on the volume graph.
        let refine = |kind: MapperKind, mapping: &mut [u32], scratch: &mut MapperScratch| {
            kind.refine(
                tasks,
                tasks,
                machine,
                alloc,
                mapping,
                &pipeline.wh,
                &pipeline.cong_volume,
                &pipeline.cong_messages,
                &mut scratch.wh,
                &mut scratch.cong,
            );
        };

        // Refresh the baseline only when the machine/allocation it was
        // computed under has changed — a from-scratch map is the
        // expensive part of the check.
        let snapshot = machine.fault_snapshot();
        let fresh = matches!(
            &self.baseline,
            Some(b) if b.snapshot == snapshot && b.alloc_nodes == alloc.nodes()
        );
        if !fresh {
            let mut base_map = match self.baseline.take() {
                Some(b) => b.mapping,
                None => Vec::new(),
            };
            greedy_map_into(
                tasks,
                machine,
                alloc,
                &pipeline.greedy,
                &mut scratch.greedy,
                &mut base_map,
            );
            refine(MapperKind::GreedyWh, &mut base_map, scratch);
            self.baseline = Some(Baseline {
                snapshot,
                alloc_nodes: alloc.nodes().to_vec(),
                wh: weighted_hops(tasks, machine, &base_map),
                mapping: base_map,
            });
        }
        let Some(base) = &self.baseline else {
            return PolishOutcome::default();
        };

        let bound = base.wh * (1.0 + policy.max_drift);
        if weighted_hops(tasks, machine, mapping) <= bound {
            return PolishOutcome {
                checked: true,
                ..PolishOutcome::default()
            };
        }

        // Over the bound: polish the live mapping in place with UWH's
        // refiner, then UMC's.
        refine(MapperKind::GreedyWh, mapping, scratch);
        refine(MapperKind::GreedyMc, mapping, scratch);
        if weighted_hops(tasks, machine, mapping) <= bound {
            return PolishOutcome {
                checked: true,
                polished: true,
                adopted: false,
            };
        }

        // Polish could not close the gap: adopt the baseline, which
        // satisfies the bound by construction (its WH *is* the
        // reference).
        mapping.copy_from_slice(&base.mapping);
        PolishOutcome {
            checked: true,
            polished: true,
            adopted: true,
        }
    }
}
