//! Golden digests of the engine's mappings.
//!
//! Pins a CRC-32 of every fine mapping the three engine entry points
//! produce on the torus, fat-tree and dragonfly backends:
//!
//! * the direct pipeline ([`map_tasks_with`]) for all seven mapper
//!   kinds, plus `UWH` with fine-level WH refinement;
//! * the multilevel engine ([`multilevel_map_into`]) for the greedy
//!   family, on a graph that coarsens into a hierarchy and on a
//!   machine-sized graph that is mapped directly;
//! * the service's drift supervisor: a forced `polish_now()` that
//!   polishes the live mapping in place, and one that adopts the
//!   from-scratch baseline;
//! * phase 1 on its own: `group_tasks` on a graph large enough to
//!   coarsen, recursive bisection plus `fix_balance` with non-uniform
//!   targets, a disconnected graph, a split into more parts than
//!   vertices, and every Figure-1 partitioner preset.
//!
//! The digests are constants: a refactor of the engine that changes
//! any mapping by one task fails here, naming the case. Regenerate only
//! for an intended change of mapping decisions (`--nocapture` prints
//! the table).

use std::sync::Arc;

use umpa::core::multilevel::{multilevel_map_into, MultilevelConfig};
use umpa::core::pipeline::{group_tasks, map_tasks_with, MapperKind, PipelineConfig};
use umpa::core::scratch::MapperScratch;
use umpa::graph::{Graph, GraphBuilder, TaskGraph};
use umpa::matgen::gen::{stencil2d, Stencil2D};
use umpa::matgen::spmv::spmv_task_graph;
use umpa::partition::{fix_balance, recursive_bisection, MlConfig, PartitionerKind};
use umpa::service::journal::crc32;
use umpa::service::{MappingService, ServiceConfig, SupervisorPolicy};
use umpa::topology::{
    AllocSpec, Allocation, ChurnEvent, DragonflyConfig, FatTreeConfig, Machine, MachineConfig,
};

/// The three topology backends, 4 procs per node.
fn machines() -> [(&'static str, Machine); 3] {
    [
        ("torus", MachineConfig::small(&[4, 4, 2], 1, 4).build()),
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

/// Ring plus two chord families with skewed volumes and weights.
fn task_graph(n: u32, weight: f64) -> TaskGraph {
    TaskGraph::from_messages(
        n as usize,
        (0..n).flat_map(|i| {
            let w = 1.0 + f64::from(i % 5);
            [
                (i, (i + 1) % n, 3.0 * w),
                (i, (i + 7) % n, w),
                (i, (i + n / 3) % n, 0.5),
            ]
        }),
        Some(vec![weight; n as usize]),
    )
}

fn digest(mapping: &[u32]) -> u32 {
    let bytes: Vec<u8> = mapping.iter().flat_map(|v| v.to_le_bytes()).collect();
    crc32(&bytes)
}

/// Every case's `(name, digest)`, in a fixed order.
fn digests() -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let greedy_family = [
        MapperKind::Greedy,
        MapperKind::GreedyWh,
        MapperKind::GreedyMc,
        MapperKind::GreedyMmc,
    ];
    for (name, machine) in machines() {
        // Direct pipeline: 28 unit tasks on 8 sparse nodes × 4 procs,
        // one warm scratch across all kinds.
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 3));
        let tg = task_graph(28, 1.0);
        let cfg = PipelineConfig::default();
        let mut scratch = MapperScratch::new();
        for kind in MapperKind::all() {
            let o = map_tasks_with(&tg, &machine, &alloc, kind, &cfg, &mut scratch);
            out.push((
                format!("direct/{name}/{}", kind.name()),
                digest(&o.fine_mapping),
            ));
        }
        let fine_cfg = PipelineConfig {
            fine_wh_refine: true,
            ..PipelineConfig::default()
        };
        let o = map_tasks_with(
            &tg,
            &machine,
            &alloc,
            MapperKind::GreedyWh,
            &fine_cfg,
            &mut scratch,
        );
        out.push((format!("direct/{name}/UWH+fine"), digest(&o.fine_mapping)));

        // Multilevel: a 96-task graph at fill 0.375 coarsens into a
        // hierarchy; 24 unit tasks cannot merge under the slack cap, so
        // that graph is mapped without coarsening.
        let ml_cfg = PipelineConfig {
            multilevel: MultilevelConfig {
                coarsen_min: 8,
                coarsen_factor: 1.5,
                ..MultilevelConfig::default()
            },
            ..PipelineConfig::default()
        };
        for (shape, tg) in [
            ("hier", task_graph(96, 0.125)),
            ("flat", task_graph(24, 1.0)),
        ] {
            for kind in greedy_family {
                let mut mapping = Vec::new();
                let stats = multilevel_map_into(
                    &tg,
                    &machine,
                    &alloc,
                    kind,
                    &ml_cfg,
                    &mut scratch,
                    &mut mapping,
                );
                assert_eq!(stats.levels > 0, shape == "hier", "{name}/{shape}");
                out.push((
                    format!("multilevel/{name}/{shape}/{}", kind.name()),
                    digest(&mapping),
                ));
            }
        }
    }

    // Supervisor: the resident job is installed greedy-only, a node
    // fails, and a forced check runs. A 10 % drift bound lets the
    // polish (WH then congestion refinement) close the gap in place; a
    // negative one is unreachable, so the baseline is adopted.
    for (case, max_drift, expect_adopted) in [("polish", 0.1, false), ("adopt", -0.5, true)] {
        let machine = MachineConfig::small(&[4, 4, 2], 1, 4).build();
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(12, 5));
        let victim = alloc.node(2);
        let service = MappingService::new(
            machine,
            alloc,
            ServiceConfig {
                workers: 0,
                mapper: MapperKind::Greedy,
                supervisor: SupervisorPolicy {
                    max_drift,
                    ..SupervisorPolicy::default()
                },
                ..ServiceConfig::default()
            },
        );
        service.install_job(Arc::new(task_graph(24, 1.0)));
        let repair = service.apply_churn(&[ChurnEvent::NodeFailed { node: victim }]);
        assert!(repair.fully_placed, "{case}: repair must place every task");
        let report = service.polish_now();
        assert!(report.polished, "{case}: the forced check must polish");
        assert_eq!(report.adopted_baseline, expect_adopted, "{case}");
        let live = service.live_mapping().expect("resident job");
        out.push((format!("supervisor/{case}"), digest(&live)));
        service.shutdown();
    }
    out
}

/// The digests of the engine at the time this test was written.
const GOLDEN: &[(&str, u32)] = &[
    ("direct/torus/DEF", 0x1c6b8642),
    ("direct/torus/TMAP", 0x186870ac),
    ("direct/torus/SMAP", 0x70ee5eee),
    ("direct/torus/UG", 0xc8d24396),
    ("direct/torus/UWH", 0x8d233e25),
    ("direct/torus/UMC", 0xe51f00f7),
    ("direct/torus/UMMC", 0x7224c65a),
    ("direct/torus/UWH+fine", 0xc3e50944),
    ("multilevel/torus/hier/UG", 0x110034e8),
    ("multilevel/torus/hier/UWH", 0xd6cc48cf),
    ("multilevel/torus/hier/UMC", 0xfc7355e4),
    ("multilevel/torus/hier/UMMC", 0x36a72a6a),
    ("multilevel/torus/flat/UG", 0xc1b9dd39),
    ("multilevel/torus/flat/UWH", 0x05b577d8),
    ("multilevel/torus/flat/UMC", 0xc1b9dd39),
    ("multilevel/torus/flat/UMMC", 0x4569b32e),
    ("direct/fattree/DEF", 0xda0d8cd5),
    ("direct/fattree/TMAP", 0xfa30013c),
    ("direct/fattree/SMAP", 0xfa30013c),
    ("direct/fattree/UG", 0xd41bcc50),
    ("direct/fattree/UWH", 0x65ba2152),
    ("direct/fattree/UMC", 0xf3ffd6df),
    ("direct/fattree/UMMC", 0xac839fff),
    ("direct/fattree/UWH+fine", 0x2b3e5924),
    ("multilevel/fattree/hier/UG", 0x27429314),
    ("multilevel/fattree/hier/UWH", 0x517b1fa5),
    ("multilevel/fattree/hier/UMC", 0x359fe8e1),
    ("multilevel/fattree/hier/UMMC", 0x1d7d5f76),
    ("multilevel/fattree/flat/UG", 0xdda81f7b),
    ("multilevel/fattree/flat/UWH", 0xdda81f7b),
    ("multilevel/fattree/flat/UMC", 0xdda81f7b),
    ("multilevel/fattree/flat/UMMC", 0x4de9060e),
    ("direct/dragonfly/DEF", 0x6a0d9b38),
    ("direct/dragonfly/TMAP", 0x83b8a3cf),
    ("direct/dragonfly/SMAP", 0x83b8a3cf),
    ("direct/dragonfly/UG", 0xf6471c7b),
    ("direct/dragonfly/UWH", 0xa412bc41),
    ("direct/dragonfly/UMC", 0x14825db3),
    ("direct/dragonfly/UMMC", 0x304a314e),
    ("direct/dragonfly/UWH+fine", 0x1ee47419),
    ("multilevel/dragonfly/hier/UG", 0x27429314),
    ("multilevel/dragonfly/hier/UWH", 0x517b1fa5),
    ("multilevel/dragonfly/hier/UMC", 0xdfcb99c1),
    ("multilevel/dragonfly/hier/UMMC", 0xd027b860),
    ("multilevel/dragonfly/flat/UG", 0x2393cefd),
    ("multilevel/dragonfly/flat/UWH", 0x2ffed964),
    ("multilevel/dragonfly/flat/UMC", 0xec140a34),
    ("multilevel/dragonfly/flat/UMMC", 0x50f2f125),
    ("supervisor/polish", 0x03be4706),
    ("supervisor/adopt", 0xf33d0fda),
];

#[test]
fn engine_mappings_match_the_golden_digests() {
    let got = digests();
    for (name, d) in &got {
        println!("    (\"{name}\", 0x{d:08x}),");
    }
    assert_eq!(got.len(), GOLDEN.len(), "case count changed");
    for ((name, d), (gname, gd)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "case order changed");
        assert_eq!(d, gd, "{name}: mapping digest changed");
    }
}

/// An `nx × ny` grid; vertex `v` weighs `weight(v)`.
fn grid(nx: usize, ny: usize, weight: impl Fn(usize) -> f64) -> Graph {
    let mut b = GraphBuilder::new(nx * ny);
    let idx = |x: usize, y: usize| (y * nx + x) as u32;
    for y in 0..ny {
        for x in 0..nx {
            if x + 1 < nx {
                b.add_edge(idx(x, y), idx(x + 1, y), 1.0 + ((x + y) % 3) as f64);
            }
            if y + 1 < ny {
                b.add_edge(idx(x, y), idx(x, y + 1), 1.0);
            }
        }
    }
    b.vertex_weights((0..nx * ny).map(weight).collect());
    b.build_symmetric()
}

/// Recursive bisection followed by the exact-balance FM pass, the way
/// phase 1 runs them.
fn bisect_and_balance(g: &Graph, targets: &[f64], epsilon: f64, seed: u64) -> Vec<u32> {
    let cfg = MlConfig {
        seed,
        ..MlConfig::default()
    };
    let mut part = recursive_bisection(g, targets, &cfg);
    fix_balance(g, &mut part, targets, epsilon);
    part
}

/// Every phase-1 case's `(name, digest)`, in a fixed order.
fn phase1_digests() -> Vec<(String, u32)> {
    let mut out = Vec::new();
    // The `direct` workload's shape: a 64×64 five-point SpMV graph in
    // 256 parts, grouped onto 16 nodes × 16 procs. 256 tasks is far
    // above `MlConfig::coarsen_to`, so every top-level bisection
    // coarsens. Phase 1 reads only the allocation's processor counts,
    // so the grouping is backend-independent by construction; the
    // mapping that follows is not.
    let a = stencil2d(64, 64, Stencil2D::FivePoint);
    let tg = spmv_task_graph(
        &a,
        &PartitionerKind::Patoh.partition_matrix(&a, 256, 5),
        256,
    );
    let machines = [
        ("torus", MachineConfig::small(&[4, 4, 2], 1, 16).build()),
        ("fattree", FatTreeConfig::small(4, 2, 16).build()),
        (
            "dragonfly",
            DragonflyConfig {
                procs_per_node: 16,
                ..DragonflyConfig::small(3, 3, 2)
            }
            .build(),
        ),
    ];
    let cfg = PipelineConfig::default();
    let mut scratch = MapperScratch::new();
    for (name, machine) in &machines {
        let alloc = Allocation::generate(machine, &AllocSpec::sparse(16, 11));
        out.push((
            format!("group256/{name}"),
            digest(&group_tasks(&tg, &alloc, &cfg.ml)),
        ));
        let o = map_tasks_with(
            &tg,
            machine,
            &alloc,
            MapperKind::GreedyMc,
            &cfg,
            &mut scratch,
        );
        out.push((format!("direct256/{name}/UMC"), digest(&o.fine_mapping)));
    }

    // Non-uniform targets, one case small enough to skip coarsening and
    // one that coarsens, with non-uniform vertex weights.
    let g = grid(12, 12, |_| 1.0);
    out.push((
        "rb/72-36-36".to_string(),
        digest(&bisect_and_balance(&g, &[72.0, 36.0, 36.0], 0.0, 1)),
    ));
    let g = grid(24, 16, |v| 1.0 + (v % 3) as f64);
    let scale = g.total_vertex_weight() / 39.0;
    let targets: Vec<f64> = [5.0, 9.0, 2.0, 16.0, 7.0]
        .iter()
        .map(|t| t * scale)
        .collect();
    out.push((
        "rb/5-9-2-16-7".to_string(),
        digest(&bisect_and_balance(&g, &targets, 0.03, 2)),
    ));

    // Five disjoint 6×6 grids plus four isolated vertices: greedy
    // growing exhausts a component before reaching its target and must
    // jump to the heaviest unreached vertex.
    let comp = grid(6, 6, |_| 1.0);
    let n = 5 * 36 + 4;
    let mut b = GraphBuilder::new(n);
    for c in 0..5u32 {
        for (u, v, w) in comp.all_edges() {
            b.add_edge(u + 36 * c, v + 36 * c, w * f64::from(c + 1));
        }
    }
    let g = b.build_directed();
    let targets = vec![g.total_vertex_weight() / 3.0; 3];
    out.push((
        "rb/disconnected".to_string(),
        digest(&bisect_and_balance(&g, &targets, 0.05, 3)),
    ));

    // More parts than vertices: the degenerate one-vertex-per-part
    // split, then balance over parts that stay empty.
    let g = grid(3, 2, |v| 1.0 + v as f64);
    let targets: Vec<f64> = (0..9).map(|p| 1.0 + f64::from(p % 4)).collect();
    out.push((
        "rb/k-ge-n".to_string(),
        digest(&bisect_and_balance(&g, &targets, 0.0, 4)),
    ));

    // The Figure-1 partitioner presets on a 32×32 stencil.
    let a = stencil2d(32, 32, Stencil2D::FivePoint);
    for kind in PartitionerKind::all() {
        out.push((
            format!("preset/{}", kind.name()),
            digest(&kind.partition_matrix(&a, 16, 7)),
        ));
    }
    out
}

/// The phase-1 digests at the time this test was written.
const PHASE1_GOLDEN: &[(&str, u32)] = &[
    ("group256/torus", 0x7974d627),
    ("direct256/torus/UMC", 0x5471eab7),
    ("group256/fattree", 0x7974d627),
    ("direct256/fattree/UMC", 0x257a150b),
    ("group256/dragonfly", 0x7974d627),
    ("direct256/dragonfly/UMC", 0x22ca6e6c),
    ("rb/72-36-36", 0x4d23d79e),
    ("rb/5-9-2-16-7", 0x668e44e7),
    ("rb/disconnected", 0x8e73719e),
    ("rb/k-ge-n", 0x850cf83d),
    ("preset/KAFFPA", 0x1fb7d582),
    ("preset/METIS", 0x069d884d),
    ("preset/PATOH", 0xcf24b8f3),
    ("preset/SCOTCH", 0x68323667),
    ("preset/UMPA_MM", 0x8907ba55),
    ("preset/UMPA_MV", 0x27ec4bd2),
    ("preset/UMPA_TM", 0xcc7bc64d),
];

#[test]
fn phase1_partitions_match_the_golden_digests() {
    let got = phase1_digests();
    for (name, d) in &got {
        println!("    (\"{name}\", 0x{d:08x}),");
    }
    assert_eq!(got.len(), PHASE1_GOLDEN.len(), "case count changed");
    for ((name, d), (gname, gd)) in got.iter().zip(PHASE1_GOLDEN) {
        assert_eq!(name, gname, "case order changed");
        assert_eq!(d, gd, "{name}: partition digest changed");
    }
}
