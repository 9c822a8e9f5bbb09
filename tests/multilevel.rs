//! Differential test harness for the multilevel coarsen–map–refine
//! engine: across the topology backend × preset matrix (torus including
//! extent-1 and extent-2 dimensions, mesh, fat-tree, dragonfly),
//! multilevel mappings must be feasible, deterministic, bit-identical
//! across the `parallel` feature and the distance-oracle modes, and —
//! on graphs small enough to run both — within a bounded weighted-hops
//! ratio of the direct pipeline.

use umpa::core::multilevel::{multilevel_map_into, MultilevelConfig};
use umpa::core::pipeline::{
    map_many, map_multilevel, map_multilevel_with, map_tasks, MapRequest, MapStrategy, MapperKind,
    PipelineConfig,
};
use umpa::core::scratch::MapperScratch;
use umpa::core::{evaluate, validate_mapping};
use umpa::graph::TaskGraph;
use umpa::topology::{
    AllocSpec, Allocation, DragonflyConfig, FatTreeConfig, Machine, MachineConfig,
};

/// The backend × preset matrix: every topology family plus the torus
/// corner geometries (extent-1 and extent-2 dimensions tripped link-id
/// bugs before PR 2 — keep them in every sweep).
fn machines() -> Vec<(&'static str, Machine)> {
    vec![
        ("torus", MachineConfig::small(&[4, 4], 1, 4).build()),
        ("torus-extent1", MachineConfig::small(&[1, 8], 2, 4).build()),
        ("torus-extent2", MachineConfig::small(&[2, 4], 2, 4).build()),
        ("mesh", MachineConfig::small_mesh(&[3, 4], 1, 4).build()),
        ("fattree", FatTreeConfig::small(4, 2, 4).build()),
        (
            "dragonfly",
            DragonflyConfig {
                procs_per_node: 4,
                ..DragonflyConfig::small(3, 3, 2)
            }
            .build(),
        ),
    ]
}

/// Greedy-family mappers (the multilevel engine's domain).
const KINDS: [MapperKind; 4] = [
    MapperKind::Greedy,
    MapperKind::GreedyWh,
    MapperKind::GreedyMc,
    MapperKind::GreedyMmc,
];

/// A ring-with-chords graph `size × |Va|` larger than the allocation,
/// light enough (fill ≈ 0.5) for the capacity-aware matching to
/// coarsen deeply.
fn big_graph(tasks: u32, fill_weight: f64) -> TaskGraph {
    TaskGraph::from_messages(
        tasks as usize,
        (0..tasks).flat_map(|i| {
            [
                (i, (i + 1) % tasks, 4.0),
                (i, (i + 7) % tasks, 1.0),
                (i, (i + 13) % tasks, 0.5),
            ]
        }),
        Some(vec![fill_weight; tasks as usize]),
    )
}

/// Pipeline config with multilevel coarsening enabled at test sizes.
fn ml_cfg() -> PipelineConfig {
    PipelineConfig {
        multilevel: MultilevelConfig {
            coarsen_min: 8,
            coarsen_factor: 1.5,
            ..MultilevelConfig::default()
        },
        ..PipelineConfig::default()
    }
}

#[test]
fn multilevel_is_feasible_and_deterministic_across_the_matrix() {
    let cfg = ml_cfg();
    let mut warm = MapperScratch::new();
    for (name, m) in machines() {
        let alloc = Allocation::generate(&m, &AllocSpec::sparse(8, 3));
        // 16 × |Va| tasks at fill 0.5: 128 tasks of weight 0.125 on
        // 8 × 4 procs.
        let tg = big_graph(128, 0.125);
        for kind in KINDS {
            let a = map_multilevel(&tg, &m, &alloc, kind, &cfg);
            validate_mapping(&tg, &alloc, &a.fine_mapping)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", kind.name()));
            assert_eq!(a.group_of.len(), tg.num_tasks(), "{name}/{}", kind.name());
            // Deterministic for a fixed seed.
            let b = map_multilevel(&tg, &m, &alloc, kind, &cfg);
            assert_eq!(
                a.fine_mapping,
                b.fine_mapping,
                "{name}/{}: nondeterministic",
                kind.name()
            );
            // Warm-scratch runs are bit-identical to fresh ones.
            let w = map_multilevel_with(&tg, &m, &alloc, kind, &cfg, &mut warm);
            assert_eq!(
                a.fine_mapping,
                w.fine_mapping,
                "{name}/{}: warm scratch diverged",
                kind.name()
            );
        }
    }
}

#[test]
fn multilevel_map_many_matches_the_sequential_loop() {
    // `map_many` with the Multilevel strategy must equal both a loop of
    // `map_multilevel_with` through one shared scratch and a plain loop
    // of `map_multilevel` — under the `parallel` feature and without it
    // (CI runs this test in both configurations; the sequential loop
    // is feature-independent, so equality here pins bit-identity
    // across the feature too).
    let cfg = ml_cfg();
    let machs = machines();
    let allocs: Vec<Allocation> = machs
        .iter()
        .map(|(_, m)| Allocation::generate(m, &AllocSpec::sparse(8, 5)))
        .collect();
    let tg = big_graph(112, 0.125);
    let mut requests = Vec::new();
    let mut plan = Vec::new();
    for (i, (_, m)) in machs.iter().enumerate() {
        for kind in KINDS {
            requests.push(MapRequest {
                tasks: &tg,
                machine: m,
                alloc: &allocs[i],
                kind,
                strategy: MapStrategy::Multilevel,
                cfg: &cfg,
            });
            plan.push((i, kind));
        }
    }
    let batched = map_many(&requests);
    let mut scratch = MapperScratch::new();
    let sequential: Vec<_> = plan
        .iter()
        .map(|&(i, kind)| {
            map_multilevel_with(&tg, &machs[i].1, &allocs[i], kind, &cfg, &mut scratch)
        })
        .collect();
    assert_eq!(batched.len(), plan.len());
    for (r, &(i, kind)) in plan.iter().enumerate() {
        let single = map_multilevel(&tg, &machs[i].1, &allocs[i], kind, &cfg);
        assert_eq!(
            batched[r].fine_mapping,
            single.fine_mapping,
            "request {r} ({}/{}): batched diverged",
            machs[i].0,
            kind.name()
        );
        assert_eq!(
            sequential[r].fine_mapping, single.fine_mapping,
            "request {r}: sequential diverged"
        );
        assert_eq!(batched[r].group_of, single.group_of, "request {r}");
    }
}

#[test]
fn multilevel_is_bit_identical_with_oracle_on_and_off() {
    let cfg = ml_cfg();
    for (name, m) in machines() {
        let mut analytic = m.clone();
        analytic.set_oracle_threshold(0);
        assert!(m.oracle().is_some() && analytic.oracle().is_none());
        let alloc = Allocation::generate(&m, &AllocSpec::sparse(8, 7));
        let tg = big_graph(96, 0.125);
        for kind in KINDS {
            let with_oracle = map_multilevel(&tg, &m, &alloc, kind, &cfg);
            let without = map_multilevel(&tg, &analytic, &alloc, kind, &cfg);
            assert_eq!(
                with_oracle.fine_mapping,
                without.fine_mapping,
                "{name}/{}: oracle changed the mapping",
                kind.name()
            );
        }
    }
}

#[test]
fn multilevel_wh_is_within_ten_percent_of_direct() {
    // The acceptance bound: on graphs no more than 10 × the machine
    // (|Vt| ≤ 10 |Va|), the multilevel UWH mapping's weighted hops
    // stay within 10 % of the direct pipeline's — with the DEFAULT
    // multilevel configuration, as a user would run it.
    let cfg = PipelineConfig::default();
    for (name, m) in machines() {
        let alloc = Allocation::generate(&m, &AllocSpec::sparse(8, 11));
        // 10 × |Va| = 80 tasks, fill 0.5.
        let tg = big_graph(80, 0.2);
        let direct = map_tasks(&tg, &m, &alloc, MapperKind::GreedyWh, &cfg);
        let ml = map_multilevel(&tg, &m, &alloc, MapperKind::GreedyWh, &cfg);
        validate_mapping(&tg, &alloc, &ml.fine_mapping).unwrap();
        let wh_direct = evaluate(&tg, &m, &direct.fine_mapping).wh;
        let wh_ml = evaluate(&tg, &m, &ml.fine_mapping).wh;
        assert!(
            wh_ml <= 1.10 * wh_direct + 1e-9,
            "{name}: multilevel WH {wh_ml} vs direct WH {wh_direct} (ratio {:.3})",
            wh_ml / wh_direct
        );
    }
}

#[test]
fn hierarchy_actually_forms_on_large_graphs() {
    let cfg = ml_cfg();
    let m = MachineConfig::small(&[4, 4], 1, 4).build();
    let alloc = Allocation::generate(&m, &AllocSpec::sparse(8, 3));
    let tg = big_graph(256, 0.0625);
    let mut scratch = MapperScratch::new();
    let mut out = Vec::new();
    let stats = multilevel_map_into(
        &tg,
        &m,
        &alloc,
        MapperKind::GreedyWh,
        &cfg,
        &mut scratch,
        &mut out,
    );
    assert!(
        stats.levels >= 3,
        "256 tasks at fill 0.5 should coarsen several levels: {stats:?}"
    );
    assert!(
        stats.coarsest_tasks <= 64,
        "coarsest graph too large: {stats:?}"
    );
    validate_mapping(&tg, &alloc, &out).unwrap();
}

#[test]
fn baselines_route_through_the_direct_pipeline() {
    let cfg = ml_cfg();
    let m = MachineConfig::small(&[4, 4], 1, 4).build();
    let alloc = Allocation::generate(&m, &AllocSpec::sparse(8, 2));
    let tg = big_graph(64, 0.25);
    for kind in [MapperKind::Def, MapperKind::Tmap, MapperKind::Smap] {
        let ml = map_multilevel(&tg, &m, &alloc, kind, &cfg);
        let direct = map_tasks(&tg, &m, &alloc, kind, &cfg);
        assert_eq!(
            ml.fine_mapping,
            direct.fine_mapping,
            "{}: baseline must delegate to the direct pipeline",
            kind.name()
        );
    }
}
