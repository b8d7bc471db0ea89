//! Per-tenant serving statistics: counters, latency percentiles and the
//! replayable logs a correctness harness needs to reproduce a served run
//! serially.

use pinatubo_runtime::scheduler::BatchRequest;
use std::sync::Arc;

/// Latency percentiles over one tenant's per-batch samples (admission to
/// the covering sync), in nanoseconds of host wall-clock. Latencies feed
/// reporting only — never scheduling decisions — so they do not perturb
/// the served run's determinism.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Completed batches sampled.
    pub count: u64,
    /// Median latency.
    pub p50_ns: u64,
    /// 99th-percentile latency (nearest-rank on the sorted samples).
    pub p99_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
}

impl LatencyStats {
    /// Summarizes a sample set; all-zero when it is empty.
    #[must_use]
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |p: u64| -> u64 {
            // Nearest-rank percentile over n sorted samples:
            // idx = ceil(p/100 * n) - 1.
            let idx = (p * sorted.len() as u64).div_ceil(100).max(1) - 1;
            sorted[idx as usize]
        };
        LatencyStats {
            count: sorted.len() as u64,
            p50_ns: rank(50),
            p99_ns: rank(99),
            max_ns: *sorted.last().expect("non-empty"),
        }
    }
}

/// One tenant's ledger after (or during) a served run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name, as registered.
    pub name: String,
    /// Fair-share weight.
    pub weight: u64,
    /// Row-allocation quota.
    pub row_quota: u64,
    /// Rows currently charged against the quota.
    pub rows_used: u64,
    /// Batches admitted.
    pub batches_submitted: u64,
    /// Batches whose covering sync has completed.
    pub batches_completed: u64,
    /// Requests admitted.
    pub ops_submitted: u64,
    /// Requests completed.
    pub ops_completed: u64,
    /// Submissions rejected because a channel queue was full
    /// (backpressure pushed back on the tenant).
    pub admission_rejections: u64,
    /// Allocations rejected because they would exceed the row quota.
    pub quota_rejections: u64,
    /// High-water mark of the tenant's own in-flight requests
    /// (admitted, not yet completed).
    pub queue_depth_high_water: usize,
    /// Longest number of scheduler rounds any batch waited between
    /// admission and dispatch — the starvation metric (a starved tenant
    /// would grow this without bound).
    pub max_wait_rounds: u64,
    /// Per-batch latency percentiles.
    pub latency: LatencyStats,
}

/// A served run's outcome: global queue bookkeeping plus one
/// [`TenantReport`] per registered tenant, in registration order.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// The per-channel admission bound in force.
    pub queue_capacity: usize,
    /// High-water mark of admitted-but-uncompleted requests per channel;
    /// every entry is `<= queue_capacity` by construction.
    pub channel_queue_high_water: Vec<usize>,
    /// Per-tenant ledgers.
    pub tenants: Vec<TenantReport>,
}

impl ServeReport {
    /// Tenants that submitted work but saw none of it complete — the
    /// serving layer's starvation check (empty after any drained run).
    #[must_use]
    pub fn starved_tenants(&self) -> Vec<&str> {
        self.tenants
            .iter()
            .filter(|t| t.batches_submitted > 0 && t.batches_completed < t.batches_submitted)
            .map(|t| t.name.as_str())
            .collect()
    }
}

/// One dispatched batch, in dispatch order: the serial-replay unit. The
/// slab is the exact request list the session executed, shared by
/// reference.
#[derive(Debug, Clone)]
pub struct DispatchRecord {
    /// Registration index of the submitting tenant.
    pub tenant: usize,
    /// The dispatched requests.
    pub requests: Arc<Vec<BatchRequest>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let stats = LatencyStats::from_samples(&samples);
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p50_ns, 50);
        assert_eq!(stats.p99_ns, 99);
        assert_eq!(stats.max_ns, 100);
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
        let one = LatencyStats::from_samples(&[7]);
        assert_eq!((one.p50_ns, one.p99_ns, one.max_ns), (7, 7, 7));
        // An even count takes the lower of the two middle samples.
        let two = LatencyStats::from_samples(&[9, 3]);
        assert_eq!((two.p50_ns, two.p99_ns, two.max_ns), (3, 9, 9));
    }
}
