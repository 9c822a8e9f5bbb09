//! Machines, allocations and task graphs of the workloads, and the
//! set-up timer.
//!
//! Inputs come from the run's seed only; the program receives the
//! generated graphs and allocations. Set-up time (`setup_s`) covers what
//! a user of the library pays before the first map: building the
//! machine, its distance oracle and route memo, and the allocation.
//! Generating and partitioning the input matrix is the benchmark's own
//! input preparation and is not timed.

use std::time::Instant;

use umpa_graph::TaskGraph;
use umpa_matgen::gen::{stencil2d, Stencil2D};
use umpa_matgen::spmv::spmv_task_graph;
use umpa_matgen::taskgen::{stencil3d_tasks, total_weight_for};
use umpa_partition::PartitionerKind;
use umpa_topology::{
    AllocSpec, Allocation, DragonflyConfig, FatTreeConfig, Machine, MachineConfig,
};

use crate::stats::median;

/// Set-up is repeated this many times per run and its median reported,
/// so one slow repetition (page faults, a busy neighbour) does not move
/// `setup_s`.
pub const SETUP_REPS: usize = 25;

/// Seed of the closed loops' allocations. The allocation is the
/// machine a job is given, fixed across runs: a sparse allocation's
/// spread changes congestion refinement's work several-fold, so a
/// per-seed allocation would make run time a draw of the seed. The run
/// seed varies the jobs instead.
pub const ALLOC_SEED: u64 = 11;

/// The three topology backends, in reporting order.
pub const BACKENDS: [&str; 3] = ["torus", "fattree", "dragonfly"];

/// Full size (the workloads of `BENCHMARK.json`) or tiny (the
/// self-test: same code, small machines and graphs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Machine-scale inputs.
    Full,
    /// Small inputs for the self-test.
    Tiny,
}

/// SplitMix64: derives independent sub-seeds from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds one backend's machine: Hopper's 17×8×24 torus, an 8-ary
/// fat-tree cluster (128 nodes) or a 9-group dragonfly (576 nodes).
pub fn machine(backend: &str, size: Size) -> Machine {
    match (backend, size) {
        ("torus", Size::Full) => MachineConfig::hopper().build(),
        ("fattree", Size::Full) => FatTreeConfig::cluster().build(),
        ("dragonfly", Size::Full) => DragonflyConfig::supercomputer().build(),
        ("torus", Size::Tiny) => MachineConfig::small(&[4, 4], 1, 4).build(),
        ("fattree", Size::Tiny) => FatTreeConfig::small(4, 2, 4).build(),
        ("dragonfly", Size::Tiny) => DragonflyConfig {
            procs_per_node: 4,
            ..DragonflyConfig::small(3, 3, 2)
        }
        .build(),
        _ => unreachable!("unknown backend {backend}"),
    }
}

/// A built machine with its oracle and route memo instantiated, and the
/// nanoseconds the oracle build took.
pub fn warm_machine(backend: &str, size: Size) -> (Machine, f64) {
    let m = machine(backend, size);
    let t = Instant::now();
    std::hint::black_box(m.oracle());
    let oracle_ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(m.route_cache());
    (m, oracle_ns)
}

/// Runs `build` [`SETUP_REPS`] times and keeps the last result. Returns
/// it with the median wall seconds and the median oracle-build
/// milliseconds (`build` reports its oracle nanoseconds).
pub fn timed_setup<T>(mut build: impl FnMut() -> (T, f64)) -> (T, f64, f64) {
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let mut oracles = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let (value, oracle_ns) = build();
        walls.push(t.elapsed().as_secs_f64());
        oracles.push(oracle_ns / 1e6);
        last = Some(value);
    }
    let value = last.expect("SETUP_REPS is positive");
    (value, median(&walls), median(&oracles))
}

/// `direct`: a 64×64 five-point SpMV matrix partitioned into 256 parts
/// (tiny: 16×16 into 32), shared by every backend.
pub fn spmv_graph(size: Size, seed: u64) -> TaskGraph {
    let (grid, parts) = match size {
        Size::Full => (64, 256),
        Size::Tiny => (16, 32),
    };
    let a = stencil2d(grid, grid, Stencil2D::FivePoint);
    let part = PartitionerKind::Patoh.partition_matrix(&a, parts, mix(seed, 1));
    spmv_task_graph(&a, &part, parts)
}

/// Nodes the `direct` workload and the multilevel probe allocate per
/// backend.
pub fn job_nodes(size: Size) -> usize {
    match size {
        Size::Full => 16,
        Size::Tiny => 8,
    }
}

/// `hybrid`: one rank per node, each rank as heavy as a node has
/// processors. A 3-D stencil of 128 ranks (8×4×4); 64 ranks (4×4×4) on
/// the fat-tree, which has only 128 nodes. Tiny: 8 ranks (2×2×2).
pub fn hybrid_dims(backend: &str, size: Size) -> (usize, usize, usize) {
    match (size, backend) {
        (Size::Full, "fattree") => (4, 4, 4),
        (Size::Full, _) => (8, 4, 4),
        (Size::Tiny, _) => (2, 2, 2),
    }
}

/// The `hybrid` rank graph for `ranks` nodes of `procs` processors.
pub fn hybrid_graph(dims: (usize, usize, usize), procs: u32) -> TaskGraph {
    let n = dims.0 * dims.1 * dims.2;
    stencil3d_tasks(
        dims.0,
        dims.1,
        dims.2,
        8.0,
        2.0,
        n as f64 * f64::from(procs),
    )
}

/// The multilevel probe: a 16×16×8 3-D stencil (2,048 tasks) filling
/// half of the allocation (tiny: 8×8×4), with an in-plane diagonal
/// volume of `1 + 3·at` (`at` in `[0, 1)`) beside the face volume of 8.
pub fn multilevel_graph(alloc: &Allocation, size: Size, at: f64) -> TaskGraph {
    let (nx, ny, nz) = match size {
        Size::Full => (16, 16, 8),
        Size::Tiny => (8, 8, 4),
    };
    stencil3d_tasks(
        nx,
        ny,
        nz,
        8.0,
        1.0 + 3.0 * at,
        total_weight_for(alloc, 0.5),
    )
}

/// A uniform draw in `[0, 1)` from `seed`.
pub fn unit(seed: u64) -> f64 {
    (mix(seed, 0) >> 11) as f64 / (1u64 << 53) as f64
}

/// A sparse allocation of `nodes` nodes.
pub fn sparse_alloc(machine: &Machine, nodes: usize, seed: u64) -> Allocation {
    Allocation::generate(machine, &AllocSpec::sparse(nodes, seed))
}

/// `tg` with every message volume scaled by its own seeded factor in
/// `[0.75, 1.25)`; task weights unchanged.
pub fn jitter(tg: &TaskGraph, seed: u64) -> TaskGraph {
    let weights = (0..tg.num_tasks() as u32)
        .map(|t| tg.task_weight(t))
        .collect();
    let messages: Vec<(u32, u32, f64)> = tg
        .messages()
        .enumerate()
        .map(|(i, (s, t, v))| (s, t, v * (0.75 + 0.5 * unit(mix(seed, i as u64)))))
        .collect();
    TaskGraph::from_messages(tg.num_tasks(), messages, Some(weights))
}
