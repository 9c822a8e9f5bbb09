//! [`MapperScratch`] — the reusable workspace of the mapping engine.
//!
//! Every hot-path algorithm (phase-1 recursive bisection and balance,
//! the quotient graphs, Algorithm 1 greedy growth, Algorithm 2 WH
//! refinement, Algorithm 3 congestion refinement) owns per-run buffers:
//! coarse levels, BFS queues and visit marks, indexed heaps, capacity
//! vectors, slot residency registries, routing and delta accumulators.
//! Allocating them per call dominates small-problem runtimes and
//! defeats the paper's headline speed claim. A [`MapperScratch`] owns
//! all of them; threading one warm scratch through
//! [`map_tasks_with`](crate::pipeline::map_tasks_with) (or the batched
//! [`map_many`](crate::pipeline::map_many)) makes a steady-state map
//! allocate only the two vectors it returns — buffers grow to the
//! high-water mark of the problems seen and are then reused verbatim.
//!
//! Buffers are sized lazily: a scratch built for one machine/task-graph
//! shape serves any other shape (everything `reset`s on entry), so one
//! long-lived scratch per worker thread is the intended usage.
//!
//! The fields are public so callers can lend one engine's buffers at a
//! time: [`MapperKind::refine`](crate::pipeline::MapperKind::refine)
//! takes only the `wh` and `cong` scratches, because the multilevel
//! engine runs it on level graphs borrowed from `multilevel` in the
//! same scratch.

use umpa_graph::{TaskGraph, TaskGraphScratch};
use umpa_partition::PartitionScratch;

use crate::cong_refine::CongScratch;
use crate::greedy::GreedyScratch;
use crate::multilevel::MultilevelScratch;
use crate::remap::RemapScratch;
use crate::wh_refine::WhScratch;

/// Owns every per-run buffer of the mapping engine. See the module
/// docs; create one per worker thread and reuse it across requests.
#[derive(Default)]
pub struct MapperScratch {
    /// Phase-1 recursive bisection and balance buffers.
    pub partition: PartitionScratch,
    /// Algorithm 1 buffers.
    pub greedy: GreedyScratch,
    /// Algorithm 2 buffers.
    pub wh: WhScratch,
    /// Algorithm 3 buffers.
    pub cong: CongScratch,
    /// Multilevel coarsen–map–refine hierarchy and matching buffers.
    pub multilevel: MultilevelScratch,
    /// Incremental-remap repair buffers.
    pub remap: RemapScratch,
    /// Coarse-mapping buffer shared by the pipeline's phase 2.
    pub(crate) coarse: Vec<u32>,
    /// The pipeline's volume quotient graph.
    pub(crate) coarse_vol: TaskGraph,
    /// The pipeline's message-count quotient graph (`UMMC` only).
    pub(crate) coarse_cnt: TaskGraph,
    /// Builder buffers of both quotient graphs.
    pub(crate) quotient: TaskGraphScratch,
}

impl MapperScratch {
    /// Creates an empty scratch; every buffer is sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
