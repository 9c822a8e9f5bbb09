//! Service configuration: admission, deadlines, retry, supervision and
//! durability policies.

use std::path::PathBuf;

use umpa_core::{MapperKind, PipelineConfig, RemapConfig};

use crate::journal::CrashSwitch;

/// Crash-safety settings (DESIGN.md §18): where the write-ahead churn
/// journal and checksummed snapshots live, and how often state is
/// snapshotted. Durability is opt-in
/// (`ServiceConfig::durability: Option<_>`) and entirely off the
/// map-request hot path — only churn/commit mutations append frames.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding `journal.bin`, `snapshot.bin` and
    /// `snapshot.old.bin`. Created if absent.
    pub dir: PathBuf,
    /// Appended frames between snapshots (`0` = journal only, never
    /// snapshot). Snapshots bound recovery *replay* time; the journal
    /// itself is append-only and grows with churn volume.
    pub snapshot_every: u64,
    /// `fsync` the journal after every frame (durability against OS
    /// crashes, not just process death). Off by default: the frame is
    /// flushed to the OS either way.
    pub fsync: bool,
    /// Deterministic crash injection for the chaos harness
    /// (`tests/recovery.rs`); `None` in production.
    #[doc(hidden)]
    pub crash: Option<CrashSwitch>,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default snapshot ration.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 64,
            fsync: false,
            crash: None,
        }
    }
}

/// Bounded-backoff policy for transient `Infeasible` repairs: how
/// often (and how long) the service keeps retrying displaced work
/// before surfacing a typed [`ServiceError::RepairExhausted`]
/// (see [`crate::ServiceError`]).
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Give up (typed error, never a panic) after this many attempts.
    /// Capacity-restoring events (`NodesAdded`) still re-arm the
    /// repair afterwards.
    pub max_attempts: u32,
    /// Backoff before the first timed retry, nanoseconds.
    pub base_backoff_ns: u64,
    /// Backoff cap; attempts double the delay up to here.
    pub max_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff_ns: 1_000_000,  // 1 ms
            max_backoff_ns: 100_000_000, // 100 ms
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt` (1-based), doubling from the
    /// base and saturating at the cap.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        self.base_backoff_ns
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_ns)
    }
}

/// Churn-drift supervisor policy: when to compare the live (repaired)
/// mapping against a from-scratch baseline, and how hard to push it
/// back under the drift bound.
#[derive(Clone, Debug)]
pub struct SupervisorPolicy {
    /// Repairs between drift checks (`K`). The check itself may cost a
    /// from-scratch baseline re-map, so it is rationed.
    pub check_every: u32,
    /// Tolerated live-vs-baseline WH drift (`0.15` = 15 %); above it
    /// the supervisor polishes, and adopts the baseline outright if
    /// polish alone cannot close the gap.
    pub max_drift: f64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            check_every: 16,
            max_drift: 0.15,
        }
    }
}

/// Full service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads consuming the admission queue. `0` is legal (no
    /// consumers — submissions queue up to capacity, then shed), which
    /// the backpressure tests rely on.
    pub workers: usize,
    /// Admission-queue bound: submissions beyond this depth are shed
    /// with [`Submit::Rejected`](crate::Submit::Rejected) instead of
    /// growing the queue.
    pub queue_capacity: usize,
    /// Deadline for requests that do not carry their own, nanoseconds
    /// (admission to response).
    pub default_deadline_ns: u64,
    /// Top rung of the degradation ladder — the mapper a request gets
    /// when its budget allows (requests may override per-job).
    pub mapper: MapperKind,
    /// Queue depth at which the ladder sheds one extra rung even when
    /// the time budget would allow more (overload degrades quality,
    /// not latency).
    pub pressure_depth: usize,
    /// Multiplier on the rung cost estimate when checking it against
    /// the remaining budget (headroom for estimate error).
    pub safety_factor: f64,
    /// Two-phase pipeline settings used by every rung.
    pub pipeline: PipelineConfig,
    /// Incremental-repair settings for churn events.
    pub remap: RemapConfig,
    /// Infeasible-repair retry policy.
    pub retry: RetryPolicy,
    /// Drift-supervisor policy.
    pub supervisor: SupervisorPolicy,
    /// Crash-safe durability (write-ahead journal + snapshots);
    /// `None` (the default) keeps all state in memory.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            default_deadline_ns: 50_000_000, // 50 ms
            mapper: MapperKind::GreedyMc,
            pressure_depth: 32,
            safety_factor: 2.0,
            pipeline: PipelineConfig::default(),
            remap: RemapConfig::default(),
            retry: RetryPolicy::default(),
            supervisor: SupervisorPolicy::default(),
            durability: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_ns: 1_000,
            max_backoff_ns: 6_000,
        };
        assert_eq!(p.backoff_ns(1), 1_000);
        assert_eq!(p.backoff_ns(2), 2_000);
        assert_eq!(p.backoff_ns(3), 4_000);
        assert_eq!(p.backoff_ns(4), 6_000); // capped
        assert_eq!(p.backoff_ns(64), 6_000); // shift clamped, no overflow
    }
}
