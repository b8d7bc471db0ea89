//! The Pinatubo software stack (paper §5, Fig. 4).
//!
//! The paper's programming model exposes two functions — `pim_malloc` and
//! `pim_op` — backed by a PIM-aware C runtime, OS memory management and a
//! driver library. This crate is that stack for the simulator:
//!
//! * [`alloc::PimAllocator`] — `pim_malloc`: places each bit-vector on
//!   whole memory rows under a [`mapping::MappingPolicy`]. The PIM-aware
//!   policy packs co-operated vectors into one subarray (maximizing
//!   intra-subarray operations); the interleaved and random policies model
//!   conventional, PIM-oblivious placement.
//! * [`bitvec::PimBitVec`] — the user-level handle to an allocated vector.
//! * [`system::PimSystem`] — `pim_op`: validates a request, splits it into
//!   per-row-segment bulk operations, issues them to the
//!   [`pinatubo_core::PinatuboEngine`], and records an abstract
//!   [`pinatubo_core::BulkOp`] trace for cross-executor comparison.
//!
//! # Example
//!
//! ```
//! use pinatubo_core::BitwiseOp;
//! use pinatubo_runtime::{MappingPolicy, PimSystem};
//!
//! # fn main() -> Result<(), pinatubo_runtime::RuntimeError> {
//! let mut sys = PimSystem::pcm_default(MappingPolicy::SubarrayFirst);
//! let a = sys.alloc(1024)?;
//! let b = sys.alloc(1024)?;
//! let dst = sys.alloc(1024)?;
//! sys.store(&a, &vec![true; 1024])?;
//! sys.store(&b, &vec![false; 1024])?;
//! sys.bitwise(BitwiseOp::And, &[&a, &b], &dst)?;
//! assert_eq!(sys.count_ones(&dst), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod bitvec;
pub mod isa;
pub mod mapping;
pub mod microcode;
pub mod pool;
pub mod scheduler;
pub mod system;

pub use alloc::PimAllocator;
pub use bitvec::PimBitVec;
pub use isa::PimInstruction;
pub use mapping::MappingPolicy;
pub use microcode::{CompileOptions, CompiledBatch, MicroOut, MicroProgram, TransposedVec};
pub use pool::ExecSession;
pub use scheduler::{BatchRequest, ScheduleReport};
pub use system::{OpSummary, PimSystem};

use pinatubo_core::PimError;
use pinatubo_mem::MemError;
use std::error::Error;
use std::fmt;

/// Errors produced by the runtime layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The allocator ran out of rows.
    OutOfMemory {
        /// Rows requested by the failing allocation.
        requested_rows: u64,
        /// Rows still free.
        free_rows: u64,
    },
    /// An operation mixed bit-vectors of different lengths.
    LengthMismatch {
        /// Length of the first operand.
        expected_bits: u64,
        /// The mismatched length.
        got_bits: u64,
    },
    /// More data was stored into a vector than it holds.
    StoreTooLong {
        /// The vector's capacity.
        capacity_bits: u64,
        /// Bits offered.
        got_bits: u64,
    },
    /// A zero-length allocation was requested.
    EmptyAllocation,
    /// A request panicked while a persistent [`pool::ExecSession`]
    /// executed it, on a worker thread or on the caller's thread at a
    /// sync point. The panicking channel's un-synced work is lost (the
    /// parent keeps its last synced state); other channels' committed
    /// state survives.
    WorkerPanicked {
        /// The channel whose shard panicked.
        channel: u32,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A request was queued behind a failing request on the same
    /// channel: the shard halted before reaching it, so it was never
    /// executed. Earlier positions carry the root-cause error; retry
    /// after the session re-syncs.
    ChannelHalted {
        /// The halted channel.
        channel: u32,
    },
    /// [`microcode::compile`] rejected the batch's shape before
    /// allocating anything.
    MicroBatch(microcode::MicroBatchError),
    /// The engine rejected the operation.
    Pim(PimError),
    /// The memory rejected an access.
    Mem(MemError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::OutOfMemory {
                requested_rows,
                free_rows,
            } => write!(
                f,
                "out of memory: {requested_rows} rows requested, {free_rows} free"
            ),
            RuntimeError::LengthMismatch {
                expected_bits,
                got_bits,
            } => write!(
                f,
                "bit-vector length mismatch: expected {expected_bits} bits, got {got_bits}"
            ),
            RuntimeError::StoreTooLong {
                capacity_bits,
                got_bits,
            } => write!(
                f,
                "cannot store {got_bits} bits into a {capacity_bits}-bit vector"
            ),
            RuntimeError::EmptyAllocation => write!(f, "cannot allocate a zero-length bit-vector"),
            RuntimeError::WorkerPanicked { channel, message } => {
                write!(f, "a request on channel {channel} panicked: {message}")
            }
            RuntimeError::ChannelHalted { channel } => write!(
                f,
                "request skipped: channel {channel} halted on an earlier request's error"
            ),
            RuntimeError::MicroBatch(e) => write!(f, "invalid µ-program batch: {e}"),
            RuntimeError::Pim(e) => write!(f, "engine error: {e}"),
            RuntimeError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Pim(e) => Some(e),
            RuntimeError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PimError> for RuntimeError {
    fn from(e: PimError) -> Self {
        RuntimeError::Pim(e)
    }
}

impl From<MemError> for RuntimeError {
    fn from(e: MemError) -> Self {
        RuntimeError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_sources_chain() {
        let e = RuntimeError::from(PimError::EmptyOperands);
        assert!(Error::source(&e).is_some());
        let e = RuntimeError::from(MemError::EmptyOperation);
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
    }
}
