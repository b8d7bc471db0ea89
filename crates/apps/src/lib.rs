//! The paper's evaluation workloads (Table 1).
//!
//! Three application families, each producing an [`AppRun`]: an abstract
//! bulk-operation trace (priced by every executor for Fig. 10/11) plus a
//! scalar-work account (priced once on the CPU model, common to all
//! executors, which is what limits the overall speedups of Fig. 12).
//!
//! * [`vector`] — pure bit-vector OR micro-benchmarks, named
//!   `19-16-1s`-style: 2^19-bit vectors, 2^16 of them, 2^1-row OR ops,
//!   sequential (`s`) or random (`r`) placement.
//! * [`graph`] + [`bfs`] — bitmap-based breadth-first search. Synthetic
//!   graphs with the connectivity character of the paper's dblp-2010 /
//!   eswiki-2013 / amazon-2008 datasets stand in for the originals (see
//!   `DESIGN.md` §4 for why the substitution preserves the result shape).
//! * [`database`] — a FastBit-style equality-encoded bitmap index over a
//!   synthetic STAR-like event table, answering multi-attribute range
//!   queries with multi-row ORs and ANDs.
//!
//! [`workloads`] registers all eleven Table 1 benchmarks for the figure
//! harnesses.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod database;
pub mod genomics;
pub mod graph;
pub mod image;
pub mod intvec;
pub mod vector;
pub mod workloads;

pub use bfs::{BfsResult, FrontierBfsResult};
pub use database::{BitmapIndex, Query};
pub use graph::{Graph, GraphProfile};
pub use vector::VectorWorkload;
pub use workloads::{Benchmark, BenchmarkKind};

use pinatubo_core::trace::OpTrace;

/// What one application run produced: the bitwise work (as a trace, priced
/// per executor) and the scalar work (common to all executors).
#[derive(Debug, Clone, Default)]
pub struct AppRun {
    /// Workload name as it appears in the figures.
    pub name: String,
    /// The bulk bitwise operations the application issued.
    pub trace: OpTrace,
    /// Scalar instructions executed outside the bitwise kernels.
    pub scalar_instructions: u64,
    /// Bytes the scalar part touched.
    pub scalar_bytes: u64,
    /// Total data footprint, for the CPU cache model.
    pub footprint_bytes: u64,
}

impl AppRun {
    /// Total operand bits across the bitwise trace.
    #[must_use]
    pub fn bitwise_operand_bits(&self) -> u64 {
        pinatubo_core::trace::trace_operand_bits(&self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinatubo_core::{BitwiseOp, BulkOp};

    #[test]
    fn app_run_totals() {
        let run = AppRun {
            name: "test".into(),
            trace: vec![BulkOp::intra(BitwiseOp::Or, 4, 100)],
            scalar_instructions: 10,
            scalar_bytes: 20,
            footprint_bytes: 30,
        };
        assert_eq!(run.bitwise_operand_bits(), 400);
    }
}
