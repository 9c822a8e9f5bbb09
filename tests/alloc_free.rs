//! Steady-state allocation test for the mapping engine.
//!
//! The perf contract of the scratch architecture (DESIGN.md §8): once a
//! [`MapperScratch`]'s buffers are warm, the phase-2 mapping engine —
//! greedy growth, WH refinement, congestion refinement — performs
//! **zero heap allocations**. Verified with a counting global
//! allocator that counts only on the measuring thread: libtest's other
//! threads (its result reporting, concurrently running tests) allocate
//! without touching the count, so every count here is exact.
//!
//! Phase 1 (the METIS-role partitioner, shared by all mappers and
//! excluded from the paper's timings) runs on the same scratch: a warm
//! `group_tasks_with` allocates nothing, and a warm `map_tasks_with`
//! allocates exactly the two vectors its outcome returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use umpa::core::cong_refine::{congestion_refine_scratch, CongRefineConfig};
use umpa::core::greedy::{greedy_map_into, GreedyConfig};
use umpa::core::multilevel::{multilevel_map_into, MultilevelConfig};
use umpa::core::pipeline::{
    group_tasks, group_tasks_with, map_tasks, map_tasks_with, MapperKind, PipelineConfig,
};
use umpa::core::scratch::MapperScratch;
use umpa::core::wh_refine::{wh_refine_scratch, WhRefineConfig};
use umpa::graph::TaskGraph;
use umpa::partition::PartitionScratch;
use umpa::topology::{AllocSpec, Allocation, Machine, MachineConfig};

struct CountingAlloc;

thread_local! {
    /// Whether this thread is inside a [`count_allocs`] window.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made while armed.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if the calling thread is armed. `try_with`
/// keeps the allocator usable while thread-locals are torn down.
fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of heap
/// allocations it made on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, COUNT.with(Cell::get))
}

/// Allocations made by 5 steady-state runs of `f`.
fn measure_steady_state(mut f: impl FnMut()) -> u64 {
    count_allocs(|| {
        for _ in 0..5 {
            f();
        }
    })
    .1
}

#[test]
fn warm_scratch_mapping_engine_is_allocation_free() {
    // A 32-task graph on 8 nodes × 4 procs — the coarse problem the
    // phase-2 engine sees after grouping — on every topology backend:
    // the §8 perf contract is backend-generic. One scratch serves all
    // three machines in sequence (buffers grow to the union high-water
    // mark and are then reused verbatim).
    // Each backend runs three times: once with the distance-oracle
    // table and route cache (both built during warmup — the OnceLock
    // builds are one-time costs, not steady state), once with the
    // oracle disabled, and once with the §13 route cache disabled, so
    // the oracle path, the analytic-distance fallback and the
    // analytic-routing fallback of the rewritten congestion engine all
    // honor the contract.
    let machines: Vec<Machine> = [
        MachineConfig::small(&[4, 4], 1, 4).build(),
        umpa::topology::FatTreeConfig::small(4, 1, 4).build(),
        umpa::topology::DragonflyConfig {
            procs_per_node: 4,
            ..umpa::topology::DragonflyConfig::small(3, 3, 1)
        }
        .build(),
    ]
    .into_iter()
    .flat_map(|m| {
        let mut no_oracle = m.clone();
        no_oracle.set_oracle_threshold(0);
        let mut no_routes = m.clone();
        no_routes.set_route_cache_threshold(0);
        [m, no_oracle, no_routes]
    })
    .collect();
    let tg = TaskGraph::from_messages(
        32,
        (0..32u32).flat_map(|i| [(i, (i + 1) % 32, 4.0), (i, (i + 5) % 32, 1.0)]),
        None,
    );
    let greedy_cfg = GreedyConfig::default();
    let wh_cfg = WhRefineConfig::default();
    let mc_cfg = CongRefineConfig::volume();
    let mut scratch = MapperScratch::new();
    let mut mapping: Vec<u32> = Vec::new();

    for machine in &machines {
        let alloc = Allocation::generate(machine, &AllocSpec::sparse(8, 2));
        let run = |scratch: &mut MapperScratch, mapping: &mut Vec<u32>| {
            greedy_map_into(
                &tg,
                machine,
                &alloc,
                &greedy_cfg,
                &mut scratch.greedy,
                mapping,
            );
            wh_refine_scratch(&tg, machine, &alloc, mapping, &wh_cfg, &mut scratch.wh);
            congestion_refine_scratch(&tg, machine, &alloc, mapping, &mc_cfg, &mut scratch.cong);
        };

        // Warmup: size every buffer to this problem's high-water mark.
        run(&mut scratch, &mut mapping);
        run(&mut scratch, &mut mapping);
        let reference = mapping.clone();

        let counted = measure_steady_state(|| run(&mut scratch, &mut mapping));
        assert_eq!(
            counted,
            0,
            "steady-state mapping engine allocated {} times over 5 warm runs on {} (oracle {}, route cache {})",
            counted,
            machine.topology().summary(),
            if machine.oracle().is_some() {
                "on"
            } else {
                "off"
            },
            if machine.route_cache().is_some() {
                "on"
            } else {
                "off"
            }
        );
        // And the warm runs still compute the real thing.
        assert_eq!(mapping, reference);
    }
}

#[test]
fn warm_multilevel_run_is_allocation_free() {
    // The DESIGN.md §12 contract: once the hierarchy and scratch are
    // warm, a full multilevel run — matching, per-level quotient graph
    // rebuilds, coarsest greedy map, per-level refinement, projection —
    // performs zero heap allocations, on every topology backend with
    // the distance oracle on AND off, for every greedy-family kind
    // (UMMC exercises the parallel message-count hierarchy).
    let machines: Vec<Machine> = [
        MachineConfig::small(&[4, 4], 1, 4).build(),
        umpa::topology::FatTreeConfig::small(4, 1, 4).build(),
        umpa::topology::DragonflyConfig {
            procs_per_node: 4,
            ..umpa::topology::DragonflyConfig::small(3, 3, 1)
        }
        .build(),
    ]
    .into_iter()
    .flat_map(|m| {
        let mut fallback = m.clone();
        fallback.set_oracle_threshold(0);
        [m, fallback]
    })
    .collect();
    // 96 tasks at fill 0.375 of the 8-node allocation: several
    // hierarchy levels under the eager coarsening config below.
    let tg = TaskGraph::from_messages(
        96,
        (0..96u32).flat_map(|i| [(i, (i + 1) % 96, 4.0), (i, (i + 7) % 96, 1.0)]),
        Some(vec![0.125; 96]),
    );
    let cfg = PipelineConfig {
        multilevel: MultilevelConfig {
            coarsen_min: 8,
            coarsen_factor: 1.5,
            ..MultilevelConfig::default()
        },
        ..PipelineConfig::default()
    };
    let kinds = [
        MapperKind::Greedy,
        MapperKind::GreedyWh,
        MapperKind::GreedyMc,
        MapperKind::GreedyMmc,
    ];
    let mut scratch = MapperScratch::new();
    let mut mapping: Vec<u32> = Vec::new();
    for machine in &machines {
        let alloc = Allocation::generate(machine, &AllocSpec::sparse(8, 2));
        for kind in kinds {
            let run = |scratch: &mut MapperScratch, mapping: &mut Vec<u32>| {
                multilevel_map_into(&tg, machine, &alloc, kind, &cfg, scratch, mapping);
            };
            // Warmup: size the hierarchy and every engine buffer (and
            // build the oracle table where enabled).
            run(&mut scratch, &mut mapping);
            run(&mut scratch, &mut mapping);
            let reference = mapping.clone();
            let counted = measure_steady_state(|| run(&mut scratch, &mut mapping));
            assert_eq!(
                counted,
                0,
                "warm multilevel run allocated {} times over 5 runs on {} ({}, oracle {})",
                counted,
                machine.topology().summary(),
                kind.name(),
                if machine.oracle().is_some() {
                    "on"
                } else {
                    "off"
                }
            );
            assert_eq!(mapping, reference, "warm multilevel run diverged");
        }
    }
}

#[test]
fn heavy_first_pre_pass_is_also_allocation_free() {
    // Non-uniform node capacities with a low heavy threshold drive
    // every task through the Section III-A heavy-first pre-pass (and
    // its sort), the one greedy path the uniform test never reaches.
    let machine = MachineConfig::small(&[4, 4], 1, 8).build();
    let mut alloc = Allocation::generate(&machine, &AllocSpec::contiguous(8));
    alloc.set_procs(vec![5, 4, 4, 4, 4, 4, 4, 3]);
    let tg = TaskGraph::from_messages(
        32,
        (0..32u32).flat_map(|i| [(i, (i + 1) % 32, 4.0), (i, (i + 5) % 32, 1.0)]),
        None,
    );
    let greedy_cfg = GreedyConfig {
        nbfs_candidates: vec![0, 1],
        // Every unit-weight task exceeds 0.01 × max_cap → all "heavy".
        heavy_first_fraction: 0.01,
    };
    let mut scratch = MapperScratch::new();
    let mut mapping: Vec<u32> = Vec::new();
    greedy_map_into(
        &tg,
        &machine,
        &alloc,
        &greedy_cfg,
        &mut scratch.greedy,
        &mut mapping,
    );
    let counted = measure_steady_state(|| {
        greedy_map_into(
            &tg,
            &machine,
            &alloc,
            &greedy_cfg,
            &mut scratch.greedy,
            &mut mapping,
        );
    });
    assert_eq!(
        counted, 0,
        "heavy-first greedy path allocated {counted} times over 5 warm runs"
    );
}

#[test]
fn warm_incremental_remap_is_allocation_free() {
    // The DESIGN.md §14 contract: once the scratch is warm, repairing
    // node churn and *soft* link degradation allocates nothing — on
    // every topology backend. Hard link failures are excluded by
    // design: they rebuild the distance oracle and route cache, which
    // inherently allocates. The soft-degradation cycle alternates
    // between two factors (never back to exactly 1.0) so the failure
    // mask persists and the patch stays in place; a full restore drops
    // the mask and the next degradation would re-create it.
    use umpa::core::remap::{remap_incremental, ChurnEvent, RemapConfig};
    let machines: Vec<Machine> = vec![
        MachineConfig::small(&[4, 4], 1, 4).build(),
        umpa::topology::FatTreeConfig::small(4, 1, 4).build(),
        umpa::topology::DragonflyConfig {
            procs_per_node: 4,
            ..umpa::topology::DragonflyConfig::small(3, 3, 1)
        }
        .build(),
    ];
    let tg = TaskGraph::from_messages(
        24,
        (0..24u32).flat_map(|i| [(i, (i + 1) % 24, 4.0), (i, (i + 5) % 24, 1.0)]),
        None,
    );
    let cfg = RemapConfig::default();
    let mut scratch = MapperScratch::new();
    for machine in machines {
        let mut machine = machine;
        // 8 nodes × 4 procs for 24 unit tasks: headroom for a failure.
        let mut alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 2));
        let mut mapping = Vec::new();
        greedy_map_into(
            &tg,
            &machine,
            &alloc,
            &GreedyConfig::default(),
            &mut scratch.greedy,
            &mut mapping,
        );
        let victim = alloc.node(3);
        // Events pre-constructed: the `NodesAdded` payload vector is
        // part of the churn input, not of the repair.
        let cycle = [
            ChurnEvent::NodeFailed { node: victim },
            ChurnEvent::NodesAdded {
                nodes: vec![victim],
            },
            ChurnEvent::LinkDegraded {
                link: 0,
                factor: 0.5,
            },
            ChurnEvent::LinkDegraded {
                link: 0,
                factor: 0.75,
            },
        ];
        let mut run = |scratch: &mut MapperScratch, mapping: &mut Vec<u32>| {
            for ev in &cycle {
                let out = remap_incremental(
                    &tg,
                    &mut machine,
                    &mut alloc,
                    mapping,
                    std::slice::from_ref(ev),
                    &cfg,
                    scratch,
                );
                assert!(out.is_repaired());
            }
        };
        // Warmup: size every repair buffer, build the oracle/route
        // cache and the fault mask's factor vector.
        run(&mut scratch, &mut mapping);
        run(&mut scratch, &mut mapping);
        let counted = measure_steady_state(|| run(&mut scratch, &mut mapping));
        assert_eq!(
            counted, 0,
            "warm incremental remap allocated {counted} times over 5 warm cycles"
        );
    }
}

#[test]
fn warm_pipeline_allocates_strictly_less_than_cold() {
    let machine = MachineConfig::small(&[4, 4], 1, 4).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 2));
    let tg = TaskGraph::from_messages(
        32,
        (0..32u32).flat_map(|i| [(i, (i + 1) % 32, 4.0), (i, (i + 5) % 32, 1.0)]),
        None,
    );
    let cfg = PipelineConfig::default();
    let mut scratch = MapperScratch::new();
    // Warm the scratch.
    let warm_out = map_tasks_with(
        &tg,
        &machine,
        &alloc,
        MapperKind::GreedyWh,
        &cfg,
        &mut scratch,
    );

    let (cold_out, cold) =
        count_allocs(|| map_tasks(&tg, &machine, &alloc, MapperKind::GreedyWh, &cfg));
    let (rewarm_out, warm) = count_allocs(|| {
        map_tasks_with(
            &tg,
            &machine,
            &alloc,
            MapperKind::GreedyWh,
            &cfg,
            &mut scratch,
        )
    });

    assert_eq!(warm_out.fine_mapping, cold_out.fine_mapping);
    assert_eq!(rewarm_out.fine_mapping, cold_out.fine_mapping);
    assert!(
        warm < cold,
        "warm pipeline should allocate strictly less: warm={warm} cold={cold}"
    );
}

/// Machines for the direct-pipeline counts: 16 procs per node on every
/// backend, so 16 nodes hold a 256-task graph.
fn direct_machines() -> Vec<Machine> {
    vec![
        MachineConfig::small(&[4, 4, 2], 1, 16).build(),
        umpa::topology::FatTreeConfig::small(4, 2, 16).build(),
        umpa::topology::DragonflyConfig {
            procs_per_node: 16,
            ..umpa::topology::DragonflyConfig::small(3, 3, 2)
        }
        .build(),
    ]
}

/// A 16×16 five-point stencil of 256 tasks with uneven volumes: far
/// above `MlConfig::coarsen_to`, so phase 1 coarsens.
fn stencil_256() -> TaskGraph {
    let idx = |x: u32, y: u32| y * 16 + x;
    TaskGraph::from_messages(
        256,
        (0..16u32).flat_map(|y| {
            (0..16u32).flat_map(move |x| {
                let w = 1.0 + f64::from((x * 3 + y) % 5);
                [
                    (idx(x, y), idx((x + 1) % 16, y), w),
                    (idx(x, y), idx(x, (y + 1) % 16), 2.0 * w),
                ]
            })
        }),
        None,
    )
}

#[test]
fn warm_phase1_grouping_is_allocation_free() {
    let tg = stencil_256();
    let cfg = PipelineConfig::default();
    let mut scratch = PartitionScratch::default();
    let mut group = Vec::new();
    for machine in direct_machines() {
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(16, 2));
        group_tasks_with(&tg, &alloc, &cfg.ml, &mut scratch, &mut group);
        group_tasks_with(&tg, &alloc, &cfg.ml, &mut scratch, &mut group);
        let counted = measure_steady_state(|| {
            group_tasks_with(&tg, &alloc, &cfg.ml, &mut scratch, &mut group);
        });
        assert_eq!(
            counted,
            0,
            "warm group_tasks_with allocated {counted} times over 5 runs on {}",
            machine.topology().summary()
        );
        assert_eq!(group, group_tasks(&tg, &alloc, &cfg.ml));
    }
}

#[test]
fn warm_direct_map_allocates_only_its_outcome() {
    // A warm `map_tasks_with` allocates exactly twice per map: the
    // `group_of` and `fine_mapping` vectors of the returned outcome.
    let tg = stencil_256();
    let cfg = PipelineConfig::default();
    let kinds = [
        MapperKind::Greedy,
        MapperKind::GreedyWh,
        MapperKind::GreedyMc,
        MapperKind::GreedyMmc,
    ];
    let mut scratch = MapperScratch::new();
    for machine in direct_machines() {
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(16, 2));
        for kind in kinds {
            let cold = map_tasks(&tg, &machine, &alloc, kind, &cfg);
            map_tasks_with(&tg, &machine, &alloc, kind, &cfg, &mut scratch);
            map_tasks_with(&tg, &machine, &alloc, kind, &cfg, &mut scratch);
            let mut warm = None;
            let counted = measure_steady_state(|| {
                warm = Some(map_tasks_with(
                    &tg,
                    &machine,
                    &alloc,
                    kind,
                    &cfg,
                    &mut scratch,
                ));
            });
            assert_eq!(
                counted,
                2 * 5,
                "warm map_tasks_with ({}) allocated {counted} times over 5 maps on {}",
                kind.name(),
                machine.topology().summary()
            );
            let warm = warm.expect("measured at least one map");
            assert_eq!(warm.group_of, cold.group_of, "{}", kind.name());
            assert_eq!(warm.fine_mapping, cold.fine_mapping, "{}", kind.name());
        }
    }
}
