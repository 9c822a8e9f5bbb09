//! The two-phase mapping pipeline of Section III-A.
//!
//! Phase 1 (common preprocessing): the fine MPI task graph is
//! partitioned into `|Va|` node groups — METIS's role in the paper —
//! with target weights equal to each node's processor count, and the
//! balance is fixed exactly with a single FM iteration so every group
//! fits its node. Phase 2 (the mapper under test): the coarse group
//! graph is mapped onto the allocated nodes by one of `DEF`, `TMAP`,
//! `SMAP`, `UG`, `UWH`, `UMC`, `UMMC`. The composed fine mapping is what
//! the metrics and simulators consume.
//!
//! Timing: `elapsed` covers phase 2 only — the paper's Figure 3 measures
//! mapping-algorithm time, with the partitioning phase shared by all
//! methods (and the refinement variants' time including the `UG` run
//! they start from).
//!
//! Engine dispatch: each greedy-family mapper is Algorithm 1 followed by
//! at most one refiner, and [`MapperKind::refine`] is the one place that
//! picks the refiner, its graph view and its config. The direct
//! pipeline here, the multilevel engine and the service supervisor each
//! make one `greedy_map_into` call followed by `refine` calls.
//!
//! Serving shape: [`map_tasks_with`] threads a warm [`MapperScratch`]
//! through both phases — phase 1 through [`group_tasks_with`], the
//! quotient graphs, then phase 2 — so a warm map allocates only the
//! two vectors it returns, and [`map_many`]
//! batches requests — sequentially through one scratch, or (with the
//! `parallel` feature, which parallelizes nothing else) across a
//! per-worker scratch pool with outputs in request order, bit-identical
//! to the sequential path.

use std::time::{Duration, Instant};

use umpa_graph::TaskGraph;
use umpa_partition::{fix_balance_with, recursive_bisection_into, MlConfig, PartitionScratch};
use umpa_topology::{Allocation, Machine};

use crate::baselines::{def_groups, def_mapping, smap_mapping, tmap_mapping};
use crate::cong_refine::{congestion_refine_scratch, CongRefineConfig, CongScratch};
use crate::greedy::{greedy_map_into, GreedyConfig};
use crate::metrics::evaluate;
use crate::multilevel::{multilevel_map_into, MultilevelConfig};
use crate::scratch::MapperScratch;
use crate::wh_refine::{wh_refine_scratch, WhRefineConfig, WhScratch};

/// The seven mapping algorithms of Figure 2, in the paper's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MapperKind {
    /// Hopper's default SMP-style placement.
    Def,
    /// LibTopoMap (best variant) with the DEF fallback rule.
    Tmap,
    /// Scotch-style dual recursive bipartitioning.
    Smap,
    /// Algorithm 1 (greedy, `UG`).
    Greedy,
    /// Algorithm 1 + Algorithm 2 (`UWH`).
    GreedyWh,
    /// Algorithm 1 + Algorithm 3 on volume congestion (`UMC`).
    GreedyMc,
    /// Algorithm 1 + Algorithm 3 on message congestion (`UMMC`).
    GreedyMmc,
}

impl MapperKind {
    /// All mappers in Figure 2's display order (D, T, S, G, WH, MC, MMC).
    pub fn all() -> [MapperKind; 7] {
        [
            MapperKind::Def,
            MapperKind::Tmap,
            MapperKind::Smap,
            MapperKind::Greedy,
            MapperKind::GreedyWh,
            MapperKind::GreedyMc,
            MapperKind::GreedyMmc,
        ]
    }

    /// One step down the quality/cost ladder, or `None` from the floor.
    ///
    /// The ladder a deadline-bound serving layer (e.g. `umpa-service`)
    /// walks when a request's time budget is tight or its queue is
    /// deep: congestion refinement (`UMC`/`UMMC`) → WH refinement
    /// (`UWH`) → greedy only (`UG`) → the instant `DEF` projection.
    /// Each step strictly cheapens phase 2; `DEF` additionally skips
    /// the phase-1 partitioning, so the floor costs microseconds. The
    /// `TMAP`/`SMAP` baselines have no cheap intermediate form and
    /// degrade straight to `DEF`.
    pub fn degrade(self) -> Option<MapperKind> {
        match self {
            MapperKind::GreedyMc | MapperKind::GreedyMmc => Some(MapperKind::GreedyWh),
            MapperKind::GreedyWh => Some(MapperKind::Greedy),
            MapperKind::Greedy | MapperKind::Tmap | MapperKind::Smap => Some(MapperKind::Def),
            MapperKind::Def => None,
        }
    }

    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            MapperKind::Def => "DEF",
            MapperKind::Tmap => "TMAP",
            MapperKind::Smap => "SMAP",
            MapperKind::Greedy => "UG",
            MapperKind::GreedyWh => "UWH",
            MapperKind::GreedyMc => "UMC",
            MapperKind::GreedyMmc => "UMMC",
        }
    }

    /// Whether this kind's refiner reads the message-count view of the
    /// task graph (every fine message weighs 1) rather than volumes.
    pub(crate) fn counts_messages(self) -> bool {
        self == MapperKind::GreedyMmc
    }

    /// Runs this kind's refiner on a mapping Algorithm 1 produced: the
    /// one place that decides which refiner a kind runs, on which graph
    /// view and with which config. `UWH` runs Algorithm 2 on `vol`;
    /// `UMC` runs Algorithm 3 on `vol`; `UMMC` runs Algorithm 3 on
    /// `cnt`, the message-count view (every fine message weighs 1),
    /// which no other kind reads. A no-op for `UG` and the baselines.
    /// Allocation-free once the scratches are warm.
    #[allow(clippy::too_many_arguments)]
    pub fn refine(
        self,
        vol: &TaskGraph,
        cnt: &TaskGraph,
        machine: &Machine,
        alloc: &Allocation,
        mapping: &mut [u32],
        wh_cfg: &WhRefineConfig,
        cong_vol_cfg: &CongRefineConfig,
        cong_msg_cfg: &CongRefineConfig,
        wh: &mut WhScratch,
        cong: &mut CongScratch,
    ) {
        match self {
            MapperKind::GreedyWh => {
                wh_refine_scratch(vol, machine, alloc, mapping, wh_cfg, wh);
            }
            MapperKind::GreedyMc => {
                congestion_refine_scratch(vol, machine, alloc, mapping, cong_vol_cfg, cong);
            }
            MapperKind::GreedyMmc => {
                congestion_refine_scratch(cnt, machine, alloc, mapping, cong_msg_cfg, cong);
            }
            MapperKind::Def | MapperKind::Tmap | MapperKind::Smap | MapperKind::Greedy => {}
        }
    }
}

/// Pipeline configuration (paper defaults).
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Node-grouping partitioner settings (the "METIS" phase).
    pub ml: MlConfig,
    /// Algorithm 1 settings.
    pub greedy: GreedyConfig,
    /// Algorithm 2 settings.
    pub wh: WhRefineConfig,
    /// Algorithm 3 settings for the volume variant.
    pub cong_volume: CongRefineConfig,
    /// Algorithm 3 settings for the message variant.
    pub cong_messages: CongRefineConfig,
    /// Multilevel coarsen–map–refine settings (the [`map_multilevel`]
    /// strategy for graphs far larger than the machine).
    pub multilevel: MultilevelConfig,
    /// Run Algorithm 2 on the *fine* task graph after composing (the
    /// §III-B alternative the paper declines by default: fine-level
    /// swaps can lower WH further but may increase the total internode
    /// volume, and cost more time). Applies to `GreedyWh` only.
    pub fine_wh_refine: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            ml: MlConfig::default(),
            greedy: GreedyConfig::default(),
            wh: WhRefineConfig::default(),
            cong_volume: CongRefineConfig::volume(),
            cong_messages: CongRefineConfig::messages(),
            multilevel: MultilevelConfig::default(),
            fine_wh_refine: false,
            seed: 1,
        }
    }
}

/// How a request turns its task graph into a mapping: the paper's
/// two-phase pipeline, or the multilevel engine for graphs far larger
/// than the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MapStrategy {
    /// Phase-1 grouping (recursive bisection) + phase-2 mapping — the
    /// paper's flow, right for machine-sized graphs.
    #[default]
    Direct,
    /// Coarsen–map–refine over a heavy-edge-matching hierarchy
    /// ([`crate::multilevel`]) — right when `|Vt| ≫ |Va|`.
    Multilevel,
}

/// Result of the full pipeline.
#[derive(Clone, Debug)]
pub struct MappingOutcome {
    /// Node id per fine task (`Γ` composed through the grouping).
    pub fine_mapping: Vec<u32>,
    /// Node-group id per fine task (phase-1 output; for `DEF`, the
    /// consecutive-rank grouping).
    pub group_of: Vec<u32>,
    /// Wall time of phase 2 (the mapping algorithm itself).
    pub elapsed: Duration,
    /// Whether TMAP fell back to the DEF mapping (always `false` for
    /// other mappers).
    pub tmap_fell_back: bool,
}

/// Phase 1: groups the fine tasks into `|Va|` node groups with exact
/// balance (recursive bisection + one FM balance iteration).
pub fn group_tasks(fine: &TaskGraph, alloc: &Allocation, ml: &MlConfig) -> Vec<u32> {
    let mut group = Vec::new();
    group_tasks_with(
        fine,
        alloc,
        ml,
        &mut PartitionScratch::default(),
        &mut group,
    );
    group
}

/// [`group_tasks`] into `group`, reusing `scratch`: allocation-free
/// once both are warm, and bit-identical to [`group_tasks`].
pub fn group_tasks_with(
    fine: &TaskGraph,
    alloc: &Allocation,
    ml: &MlConfig,
    scratch: &mut PartitionScratch,
    group: &mut Vec<u32>,
) {
    let mut targets = std::mem::take(&mut scratch.targets);
    targets.clear();
    targets.extend((0..alloc.num_nodes()).map(|s| f64::from(alloc.procs(s))));
    let g = fine.symmetric();
    recursive_bisection_into(g, &targets, ml, scratch, group);
    fix_balance_with(g, group, &targets, 0.0, &mut scratch.balance);
    scratch.targets = targets;
}

/// Runs the full two-phase pipeline for one mapper.
///
/// # Examples
///
/// ```
/// use umpa_core::prelude::*;
/// use umpa_graph::TaskGraph;
/// use umpa_topology::{AllocSpec, Allocation, MachineConfig};
///
/// let machine = MachineConfig::small(&[4, 4], 1, 2).build();
/// let alloc = Allocation::generate(&machine, &AllocSpec::sparse(4, 7));
/// let tasks = TaskGraph::from_messages(
///     8,
///     (0..8u32).map(|i| (i, (i + 1) % 8, 1.0)),
///     None,
/// );
/// let out = map_tasks(
///     &tasks,
///     &machine,
///     &alloc,
///     MapperKind::GreedyWh,
///     &PipelineConfig::default(),
/// );
/// assert_eq!(out.fine_mapping.len(), 8);
/// let metrics = evaluate(&tasks, &machine, &out.fine_mapping);
/// assert!(metrics.wh >= 0.0);
/// ```
pub fn map_tasks(
    fine: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    kind: MapperKind,
    cfg: &PipelineConfig,
) -> MappingOutcome {
    map_tasks_with(fine, machine, alloc, kind, cfg, &mut MapperScratch::new())
}

/// [`map_tasks`] with a caller-owned [`MapperScratch`]: phase 1, the
/// quotient graphs and phase 2 (the timed mapping algorithm) reuse the
/// scratch's buffers, so once the scratch is warm a greedy-family map
/// allocates only the two vectors of its outcome — the steady-state
/// serving path. Results are bit-identical to [`map_tasks`].
pub fn map_tasks_with(
    fine: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    kind: MapperKind,
    cfg: &PipelineConfig,
    scratch: &mut MapperScratch,
) -> MappingOutcome {
    if kind == MapperKind::Def {
        let start = Instant::now(); // tidy-allow: determinism (wall-clock feeds MappingOutcome::elapsed reporting only, never a placement decision)
        let fine_mapping = def_mapping(fine, alloc);
        let elapsed = start.elapsed();
        return MappingOutcome {
            group_of: def_groups(fine, alloc),
            fine_mapping,
            elapsed,
            tmap_fell_back: false,
        };
    }
    // Phase 1 — common preprocessing (untimed, shared by all mappers).
    let mut group_of = Vec::new();
    group_tasks_with(fine, alloc, &cfg.ml, &mut scratch.partition, &mut group_of);
    let n_groups = alloc.num_nodes();
    fine.group_quotient_into(
        &group_of,
        n_groups,
        false,
        &mut scratch.coarse_vol,
        &mut scratch.quotient,
    );
    if kind.counts_messages() {
        fine.group_quotient_into(
            &group_of,
            n_groups,
            true,
            &mut scratch.coarse_cnt,
            &mut scratch.quotient,
        );
    }
    // `coarse_cnt` is current only for UMMC, the one kind `refine` reads it for.
    let (coarse_vol, coarse_cnt) = (&scratch.coarse_vol, &scratch.coarse_cnt);
    // Phase 2 — the mapper under test. The greedy family runs through
    // the scratch (allocation-free once warm); the TMAP/SMAP baselines
    // allocate internally, as the systems they model do.
    let start = Instant::now(); // tidy-allow: determinism (wall-clock feeds MappingOutcome::elapsed reporting only, never a placement decision)
    let mut tmap_fell_back = false;
    match kind {
        MapperKind::Def => unreachable!(),
        MapperKind::Tmap => {
            let candidate = tmap_mapping(coarse_vol, machine, alloc, cfg.seed);
            // The paper's rule: compare MC against DEF; fall back if not
            // strictly better.
            let fine_candidate = compose(&group_of, &candidate);
            let def = def_mapping(fine, alloc);
            let cand_mc = evaluate(fine, machine, &fine_candidate).mc;
            let def_mc = evaluate(fine, machine, &def).mc;
            if cand_mc < def_mc {
                scratch.coarse.clear();
                scratch.coarse.extend_from_slice(&candidate);
            } else {
                tmap_fell_back = true;
                let elapsed = start.elapsed();
                return MappingOutcome {
                    group_of: def_groups(fine, alloc),
                    fine_mapping: def,
                    elapsed,
                    tmap_fell_back,
                };
            }
        }
        MapperKind::Smap => {
            let m = smap_mapping(coarse_vol, machine, alloc, cfg.seed);
            scratch.coarse.clear();
            scratch.coarse.extend_from_slice(&m);
        }
        MapperKind::Greedy
        | MapperKind::GreedyWh
        | MapperKind::GreedyMc
        | MapperKind::GreedyMmc => {
            greedy_map_into(
                coarse_vol,
                machine,
                alloc,
                &cfg.greedy,
                &mut scratch.greedy,
                &mut scratch.coarse,
            );
            kind.refine(
                coarse_vol,
                coarse_cnt,
                machine,
                alloc,
                &mut scratch.coarse,
                &cfg.wh,
                &cfg.cong_volume,
                &cfg.cong_messages,
                &mut scratch.wh,
                &mut scratch.cong,
            );
        }
    };
    let mut fine_mapping = compose(&group_of, &scratch.coarse);
    if cfg.fine_wh_refine && kind == MapperKind::GreedyWh {
        // §III-B fine-level refinement: swap individual tasks between
        // nodes. WH can only improve; internode volume may grow (the
        // reason the paper keeps this off by default).
        kind.refine(
            fine,
            fine,
            machine,
            alloc,
            &mut fine_mapping,
            &cfg.wh,
            &cfg.cong_volume,
            &cfg.cong_messages,
            &mut scratch.wh,
            &mut scratch.cong,
        );
    }
    let elapsed = start.elapsed();
    MappingOutcome {
        fine_mapping,
        group_of,
        elapsed,
        tmap_fell_back,
    }
}

/// Runs the multilevel coarsen–map–refine engine for one mapper (see
/// [`crate::multilevel`]): coarsen by capacity-aware heavy-edge
/// matching, map the coarsest graph with the engine, then uncoarsen
/// with bounded per-level refinement. The strategy of choice when the
/// task graph dwarfs the machine; on machine-sized graphs it degrades
/// gracefully to a direct engine run.
///
/// The `DEF`/`TMAP`/`SMAP` baselines do not decompose over a hierarchy
/// and are routed through the direct [`map_tasks`] pipeline unchanged.
///
/// `elapsed` covers the whole multilevel run — coarsening here plays
/// phase 1's role, so unlike [`map_tasks`] there is no untimed
/// preprocessing. `group_of` is the composed fine-task → coarsest-vertex
/// assignment.
pub fn map_multilevel(
    fine: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    kind: MapperKind,
    cfg: &PipelineConfig,
) -> MappingOutcome {
    map_multilevel_with(fine, machine, alloc, kind, cfg, &mut MapperScratch::new())
}

/// [`map_multilevel`] with a caller-owned [`MapperScratch`]: the
/// hierarchy and every engine buffer are reused, so a warm scratch
/// makes the whole run allocation-free apart from materializing the
/// outcome (use [`crate::multilevel::multilevel_map_into`] directly for
/// the fully allocation-free serving path). Results are bit-identical
/// to [`map_multilevel`].
pub fn map_multilevel_with(
    fine: &TaskGraph,
    machine: &Machine,
    alloc: &Allocation,
    kind: MapperKind,
    cfg: &PipelineConfig,
    scratch: &mut MapperScratch,
) -> MappingOutcome {
    if matches!(kind, MapperKind::Def | MapperKind::Tmap | MapperKind::Smap) {
        return map_tasks_with(fine, machine, alloc, kind, cfg, scratch);
    }
    let start = Instant::now(); // tidy-allow: determinism (wall-clock feeds MappingOutcome::elapsed reporting only, never a placement decision)
    let mut fine_mapping = Vec::new();
    multilevel_map_into(fine, machine, alloc, kind, cfg, scratch, &mut fine_mapping);
    let elapsed = start.elapsed();
    MappingOutcome {
        fine_mapping,
        group_of: scratch.multilevel.group_of.clone(),
        elapsed,
        tmap_fell_back: false,
    }
}

/// One mapping request for the batched [`map_many`] API. Borrows its
/// inputs so a serving layer can share one machine/topology across a
/// whole batch.
#[derive(Clone, Copy)]
pub struct MapRequest<'a> {
    /// The fine task graph to map.
    pub tasks: &'a TaskGraph,
    /// Target machine.
    pub machine: &'a Machine,
    /// Allocated nodes.
    pub alloc: &'a Allocation,
    /// Mapping algorithm to run.
    pub kind: MapperKind,
    /// Direct pipeline or multilevel engine.
    pub strategy: MapStrategy,
    /// Pipeline configuration.
    pub cfg: &'a PipelineConfig,
}

/// Dispatches one request onto the strategy's entry point.
fn run_request(r: &MapRequest<'_>, scratch: &mut MapperScratch) -> MappingOutcome {
    match r.strategy {
        MapStrategy::Direct => map_tasks_with(r.tasks, r.machine, r.alloc, r.kind, r.cfg, scratch),
        MapStrategy::Multilevel => {
            map_multilevel_with(r.tasks, r.machine, r.alloc, r.kind, r.cfg, scratch)
        }
    }
}

/// Maps a batch of independent requests, amortizing scratch buffers
/// across the batch. Outputs are in request order.
///
/// Without the `parallel` feature (or for a single request) the batch
/// runs sequentially through one warm [`MapperScratch`]. With it, the
/// batch is split into one contiguous chunk per worker, each worker
/// owning one scratch — requests are independent and every scratch is
/// fully reset per request, so the mappings are **bit-identical** to
/// the sequential path; only wall-clock changes.
pub fn map_many(requests: &[MapRequest<'_>]) -> Vec<MappingOutcome> {
    #[cfg(feature = "parallel")]
    if requests.len() > 1 {
        use rayon::prelude::*;
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let chunk = requests.len().div_ceil(workers);
        let nested: Vec<Vec<MappingOutcome>> = requests
            .par_chunks(chunk)
            .map(|part| {
                let mut scratch = MapperScratch::new();
                part.iter().map(|r| run_request(r, &mut scratch)).collect()
            })
            .collect();
        return nested.into_iter().flatten().collect();
    }
    let mut scratch = MapperScratch::new();
    requests
        .iter()
        .map(|r| run_request(r, &mut scratch))
        .collect()
}

/// Composes the fine mapping out of grouping and coarse placement.
fn compose(group_of: &[u32], coarse_mapping: &[u32]) -> Vec<u32> {
    group_of
        .iter()
        .map(|&g| coarse_mapping[g as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::weighted_hops;
    use crate::mapping::validate_mapping;
    use umpa_topology::{AllocSpec, MachineConfig};

    /// A ring of 32 fine tasks on 8 nodes × 4 procs.
    fn setup() -> (Machine, Allocation, TaskGraph) {
        let m = MachineConfig::small(&[4, 4], 1, 4).build();
        let alloc = Allocation::generate(&m, &AllocSpec::sparse(8, 2));
        let tg = TaskGraph::from_messages(
            32,
            (0..32u32).flat_map(|i| [(i, (i + 1) % 32, 4.0), (i, (i + 5) % 32, 1.0)]),
            None,
        );
        (m, alloc, tg)
    }

    #[test]
    fn all_mappers_produce_feasible_fine_mappings() {
        let (m, alloc, tg) = setup();
        let cfg = PipelineConfig::default();
        for kind in MapperKind::all() {
            let out = map_tasks(&tg, &m, &alloc, kind, &cfg);
            validate_mapping(&tg, &alloc, &out.fine_mapping)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_eq!(out.group_of.len(), tg.num_tasks());
        }
    }

    #[test]
    fn grouping_is_exactly_balanced() {
        let (_, alloc, tg) = setup();
        let group = group_tasks(&tg, &alloc, &MlConfig::default());
        let mut load = vec![0.0; alloc.num_nodes()];
        for (t, &g) in group.iter().enumerate() {
            load[g as usize] += tg.task_weight(t as u32);
        }
        for (s, &l) in load.iter().enumerate() {
            assert!(
                l <= f64::from(alloc.procs(s)) + 1e-9,
                "group {s} overloaded: {l}"
            );
        }
    }

    #[test]
    fn uwh_never_trails_ug_on_wh() {
        let (m, alloc, tg) = setup();
        let cfg = PipelineConfig::default();
        let ug = map_tasks(&tg, &m, &alloc, MapperKind::Greedy, &cfg);
        let uwh = map_tasks(&tg, &m, &alloc, MapperKind::GreedyWh, &cfg);
        let wh_ug = weighted_hops(&tg, &m, &ug.fine_mapping);
        let wh_uwh = weighted_hops(&tg, &m, &uwh.fine_mapping);
        assert!(
            wh_uwh <= wh_ug + 1e-9,
            "UWH WH {wh_uwh} worse than UG WH {wh_ug}"
        );
    }

    #[test]
    fn umc_never_trails_ug_on_mc() {
        let (m, alloc, tg) = setup();
        let cfg = PipelineConfig::default();
        let ug = map_tasks(&tg, &m, &alloc, MapperKind::Greedy, &cfg);
        let umc = map_tasks(&tg, &m, &alloc, MapperKind::GreedyMc, &cfg);
        let mc_ug = evaluate(&tg, &m, &ug.fine_mapping).mc;
        let mc_umc = evaluate(&tg, &m, &umc.fine_mapping).mc;
        assert!(mc_umc <= mc_ug + 1e-9, "UMC MC {mc_umc} vs UG MC {mc_ug}");
    }

    #[test]
    fn tmap_fallback_rule_holds() {
        let (m, alloc, tg) = setup();
        let cfg = PipelineConfig::default();
        let tmap = map_tasks(&tg, &m, &alloc, MapperKind::Tmap, &cfg);
        let def = map_tasks(&tg, &m, &alloc, MapperKind::Def, &cfg);
        let tmap_mc = evaluate(&tg, &m, &tmap.fine_mapping).mc;
        let def_mc = evaluate(&tg, &m, &def.fine_mapping).mc;
        // Either it improved MC or it *is* the DEF mapping.
        if tmap.tmap_fell_back {
            assert_eq!(tmap.fine_mapping, def.fine_mapping);
        } else {
            assert!(tmap_mc < def_mc);
        }
    }

    #[test]
    fn def_is_instant_and_consecutive() {
        let (m, alloc, tg) = setup();
        let out = map_tasks(&tg, &m, &alloc, MapperKind::Def, &PipelineConfig::default());
        // Ranks 0..3 share the first allocated node.
        for t in 0..4 {
            assert_eq!(out.fine_mapping[t], alloc.node(0));
        }
        let _ = m;
    }

    #[test]
    fn fine_level_refinement_never_raises_wh() {
        let (m, alloc, tg) = setup();
        let coarse_cfg = PipelineConfig::default();
        let fine_cfg = PipelineConfig {
            fine_wh_refine: true,
            ..PipelineConfig::default()
        };
        let coarse = map_tasks(&tg, &m, &alloc, MapperKind::GreedyWh, &coarse_cfg);
        let fine = map_tasks(&tg, &m, &alloc, MapperKind::GreedyWh, &fine_cfg);
        let wh_coarse = weighted_hops(&tg, &m, &coarse.fine_mapping);
        let wh_fine = weighted_hops(&tg, &m, &fine.fine_mapping);
        assert!(
            wh_fine <= wh_coarse + 1e-9,
            "fine refinement raised WH: {wh_coarse} -> {wh_fine}"
        );
        validate_mapping(&tg, &alloc, &fine.fine_mapping).unwrap();
    }

    #[test]
    fn degradation_ladder_reaches_def_from_every_kind() {
        for kind in MapperKind::all() {
            let mut k = kind;
            let mut steps = 0;
            while let Some(next) = k.degrade() {
                k = next;
                steps += 1;
                assert!(steps <= 4, "ladder from {} does not terminate", kind.name());
            }
            assert_eq!(k, MapperKind::Def, "ladder floor from {}", kind.name());
        }
        assert_eq!(MapperKind::Def.degrade(), None);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let (m, alloc, tg) = setup();
        let cfg = PipelineConfig::default();
        let a = map_tasks(&tg, &m, &alloc, MapperKind::GreedyWh, &cfg);
        let b = map_tasks(&tg, &m, &alloc, MapperKind::GreedyWh, &cfg);
        assert_eq!(a.fine_mapping, b.fine_mapping);
    }
}
