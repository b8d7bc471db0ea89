//! Transaction-level NVM main-memory architecture simulator.
//!
//! This crate models the memory organization of paper Fig. 3 — channels,
//! ranks, lock-step chips, banks, subarrays and mats — together with a
//! DDR-style command interface whose timing and energy are charged from the
//! [`pinatubo_nvm`] parameter tables.
//!
//! Functional state is exact: every materialized row holds its real bits
//! (sparse storage, so an 8 GB address space costs only what is touched).
//! Time and energy are accounted per command into [`stats::MemStats`].
//!
//! The crate deliberately stops at the *chip capability* level: it knows
//! how to multi-activate rows of one subarray and sense them under an
//! OR/AND reference, how to move a row over the global data lines to the
//! global row buffer, and how to burst data over the DDR bus. Deciding
//! *which* of those primitives implements a user's n-row bitwise operation
//! is the job of the `pinatubo-core` engine on top.
//!
//! # Example
//!
//! ```
//! use pinatubo_mem::{MainMemory, MemConfig, RowAddr};
//! use pinatubo_nvm::sense_amp::SenseMode;
//!
//! # fn main() -> Result<(), pinatubo_mem::MemError> {
//! let mut mem = MainMemory::new(MemConfig::pcm_default());
//! let a = RowAddr::new(0, 0, 0, 0, 10);
//! let b = RowAddr::new(0, 0, 0, 0, 11);
//! mem.write_row_over_bus(a, pinatubo_mem::RowData::from_bits(&[true, false, true]))?;
//! mem.write_row_over_bus(b, pinatubo_mem::RowData::from_bits(&[false, false, true]))?;
//! let or = mem.multi_activate_sense(&[a, b], SenseMode::or(2)?, 3)?;
//! assert_eq!(or.bits(3), vec![true, false, true]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// The crate's one `unsafe` block is the popcount dispatch in `array`,
// allowed there and documented with a `// SAFETY:` comment (clippy checks).
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]

pub mod address;
pub mod array;
pub mod commands;
pub mod controller;
pub mod geometry;
pub mod interleave;
mod page;
pub mod secded;
pub mod stats;

pub use address::RowAddr;
pub use array::RowData;
pub use commands::PimConfig;
pub use controller::{
    ChannelDelta, MainMemory, MemConfig, ProtectionMode, ReliabilityConfig, ReliableFanIn,
};
pub use geometry::MemGeometry;
pub use interleave::{ChannelTimeline, CmdKind, CmdStep, Placement, RequestStream};
pub use page::ROWS_PER_PAGE;
pub use stats::{EnergyBreakdown, MemStats, ReliabilityStats, TimeBreakdown};

use pinatubo_nvm::NvmError;
use std::error::Error;
use std::fmt;

/// Errors produced by the memory-architecture layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MemError {
    /// A row address lies outside the configured geometry.
    AddressOutOfRange {
        /// The offending address.
        addr: RowAddr,
    },
    /// A multi-row activation mixed rows from different subarrays, which a
    /// single LWL latch bank cannot hold open together.
    SubarrayMismatch {
        /// First operand (defines the subarray).
        first: RowAddr,
        /// The operand in a different subarray.
        other: RowAddr,
    },
    /// The operation named more columns than one row holds.
    ColsExceedRow {
        /// Columns requested.
        cols: u64,
        /// Bits in one logical row.
        row_bits: u64,
    },
    /// A column count of zero was requested.
    EmptyOperation,
    /// Program-and-verify exhausted its retry budget: some cells refuse to
    /// hold the data (stuck-at defects or worn-out cells).
    UncorrectableWrite {
        /// The row that failed to program.
        addr: RowAddr,
        /// Bits still wrong after the final verify.
        bad_bits: u64,
    },
    /// A protected read kept decoding as an uncorrectable double-bit error
    /// against the SEC-DED check bytes of the row's intended data after
    /// exhausting its retry budget.
    UncorrectableRead {
        /// The row whose protection check never accepted a sense.
        addr: RowAddr,
    },
    /// Duplicate sensing of a multi-row activation kept disagreeing after
    /// re-calibration retries — the caller should fall back to the
    /// read-modify-write path.
    SenseUnstable {
        /// First operand row of the unstable activation.
        addr: RowAddr,
        /// Re-sense attempts that still disagreed.
        retries: u32,
    },
    /// A circuit-level limit was hit (fan-in, latch capacity, …).
    Nvm(NvmError),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::AddressOutOfRange { addr } => {
                write!(f, "row address {addr} is outside the configured geometry")
            }
            MemError::SubarrayMismatch { first, other } => write!(
                f,
                "rows {first} and {other} are in different subarrays and cannot be co-activated"
            ),
            MemError::ColsExceedRow { cols, row_bits } => write!(
                f,
                "operation spans {cols} columns but a row holds only {row_bits} bits"
            ),
            MemError::EmptyOperation => write!(f, "operation covers zero columns"),
            MemError::UncorrectableWrite { addr, bad_bits } => write!(
                f,
                "write to row {addr} left {bad_bits} bits wrong after exhausting verify retries"
            ),
            MemError::UncorrectableRead { addr } => write!(
                f,
                "read of row {addr} failed its protection check after exhausting retries"
            ),
            MemError::SenseUnstable { addr, retries } => write!(
                f,
                "multi-row sense at {addr} stayed unstable after {retries} re-calibration retries"
            ),
            MemError::Nvm(e) => write!(f, "circuit limit: {e}"),
        }
    }
}

impl Error for MemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MemError::Nvm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NvmError> for MemError {
    fn from(e: NvmError) -> Self {
        MemError::Nvm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_wraps_nvm_source() {
        let err = MemError::from(NvmError::DegenerateFanIn);
        assert!(Error::source(&err).is_some());
        assert!(err.to_string().starts_with("circuit limit"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemError>();
    }
}
