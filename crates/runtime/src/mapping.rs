//! Bit-vector → row mapping policies.
//!
//! The paper's OS support "provides the PIM-aware memory management that
//! maximizes the opportunity for calling intra-subarray operations" (§5).
//! The policies below span that design space; the Vector workload's
//! `s`/`r` suffixes (Table 1) are exactly `SubarrayFirst` vs `Random`.

use std::fmt;

/// How the allocator places consecutive bit-vector rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingPolicy {
    /// PIM-aware: fill one subarray's rows before moving to the next, so
    /// vectors allocated together land in one subarray and their ops are
    /// intra-subarray.
    SubarrayFirst,
    /// Conventional performance-oriented interleaving: consecutive rows
    /// rotate across banks (good for CPU parallelism, bad for PIM — most
    /// ops become inter-bank).
    BankInterleave,
    /// PIM-oblivious random placement (the `r` workloads): ops degrade to
    /// whatever locality chance provides, mostly host fallbacks.
    Random {
        /// RNG seed, so experiments are reproducible.
        seed: u64,
    },
    /// PIM- and parallelism-aware: each allocation group fills one
    /// subarray (so its ops stay intra-subarray, like `SubarrayFirst`),
    /// but successive groups rotate round-robin across channels so
    /// independent batch requests land on different channels and the
    /// sharded executor can run them concurrently. A group never
    /// straddles channels while some channel can hold it whole.
    ChannelRotate,
}

impl MappingPolicy {
    /// A random policy with a fixed default seed.
    #[must_use]
    pub fn random() -> Self {
        MappingPolicy::Random { seed: 0x9E3779B9 }
    }
}

impl fmt::Display for MappingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingPolicy::SubarrayFirst => write!(f, "subarray-first"),
            MappingPolicy::BankInterleave => write!(f, "bank-interleave"),
            MappingPolicy::Random { seed } => write!(f, "random(seed={seed:#x})"),
            MappingPolicy::ChannelRotate => write!(f, "channel-rotate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(MappingPolicy::SubarrayFirst.to_string(), "subarray-first");
        assert_eq!(MappingPolicy::BankInterleave.to_string(), "bank-interleave");
        assert!(MappingPolicy::random().to_string().starts_with("random("));
        assert_eq!(MappingPolicy::ChannelRotate.to_string(), "channel-rotate");
    }
}
