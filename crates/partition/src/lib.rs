//! `umpa-partition` — a from-scratch multilevel graph partitioner and
//! the seven partitioner presets of the paper's evaluation.
//!
//! The paper's pipeline assumes a partitioning phase: matrices are cut
//! into K parts by SCOTCH / KAFFPA / METIS / PATOH / UMPA variants
//! (Figure 1), and the resulting task graph is later partitioned again
//! into `|Va|` node-groups by METIS before mapping (Section III-A).
//! None of those tools exist here, so this crate implements the whole
//! stack:
//!
//! * [`coarsen`] — heavy-edge matching and coarse-graph construction;
//! * [`bisect`] — greedy-graph-growing initial bisection plus
//!   Fiduccia–Mattheyses boundary refinement with rollback;
//! * [`recursive`] — recursive bisection to arbitrary `k` with
//!   per-part target weights (needed because node processor counts may
//!   be non-uniform);
//! * [`balance`] — the paper's post-processing: "we fix the balance
//!   with a small sacrifice on the edge-cut metric via a single
//!   Fiduccia–Mattheyses iteration";
//! * [`comm_refine`] — objective-aware refinement over the *matrix*
//!   communication structure (TV / MSV / MSM / TM), which is what
//!   differentiates the volume-minimizing and multi-objective presets;
//! * [`presets`] — the seven named partitioners of Figure 1;
//! * [`metrics`] — edge cut and imbalance.
//!
//! Every step of the recursive bisection and the balance pass has a
//! scratch form that reuses caller-owned buffers
//! ([`recursive_bisection_into`] and [`fix_balance_with`] over one
//! [`PartitionScratch`]): a warm scratch partitions with zero heap
//! allocations, bit-identically to the allocating entry points, which
//! are thin wrappers over a fresh scratch. The mapping pipeline's
//! phase 1 runs on this path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod bisect;
pub mod coarsen;
pub mod comm_refine;
pub mod metrics;
pub mod presets;
pub mod recursive;

pub use balance::{fix_balance, fix_balance_with, BalanceScratch};
pub use metrics::{edge_cut, imbalance};
pub use presets::PartitionerKind;
pub use recursive::{recursive_bisection, recursive_bisection_into, MlConfig, PartitionScratch};

/// Commonly used items.
pub mod prelude {
    pub use crate::balance::fix_balance;
    pub use crate::metrics::{edge_cut, imbalance};
    pub use crate::presets::PartitionerKind;
    pub use crate::recursive::{recursive_bisection, MlConfig};
}
