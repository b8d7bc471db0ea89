//! The Pinatubo processing-in-NVM engine — the paper's primary
//! contribution.
//!
//! The engine sits where the paper's extended memory controller sits: it
//! receives bulk bitwise operations over *rows* of an NVM main memory and
//! executes each one on the cheapest path its operand placement allows
//! (paper §4.1):
//!
//! * **intra-subarray** — all rows share a subarray: multi-row activation
//!   plus one reference-shifted sense; result written back in place
//!   through the local write drivers;
//! * **inter-subarray** — rows share a bank: the global row buffer's added
//!   logic combines rows streamed over the global data lines;
//! * **inter-bank** — rows share the lock-step chip group: the I/O
//!   buffer's added logic combines them;
//! * **host fallback** — rows live in different ranks/channels: operands
//!   must cross the DDR bus, exactly the conventional path Pinatubo is
//!   designed to avoid (the paper's software stack avoids this placement;
//!   the engine still executes it correctly and charges the full cost).
//!
//! # Example
//!
//! ```
//! use pinatubo_core::{BitwiseOp, OpClass, PinatuboConfig, PinatuboEngine};
//! use pinatubo_mem::{MemConfig, RowAddr, RowData};
//!
//! # fn main() -> Result<(), pinatubo_core::PimError> {
//! let mut engine = PinatuboEngine::new(MemConfig::pcm_default(), PinatuboConfig::default());
//! let rows: Vec<RowAddr> = (0..4).map(|r| RowAddr::new(0, 0, 0, 0, r)).collect();
//! let dst = RowAddr::new(0, 0, 0, 0, 100);
//! engine.memory_mut().poke_row(rows[0], &RowData::from_bits(&[true, false]))?;
//! engine.memory_mut().poke_row(rows[2], &RowData::from_bits(&[false, true]))?;
//!
//! // One 4-row OR, computed in a single multi-row activation.
//! let outcome = engine.bulk_op(BitwiseOp::Or, &rows, dst, 2)?;
//! assert_eq!(outcome.class, OpClass::IntraSubarray);
//! assert_eq!(
//!     engine.memory().peek_row(dst).expect("written").bits(2),
//!     vec![true, true],
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classify;
pub mod config;
pub mod engine;
pub mod op;
pub mod trace;

/// The workspace-wide seedable PRNG (re-exported from the device layer so
/// every crate above `pinatubo-core` reaches it without an extra
/// dependency edge).
pub use pinatubo_nvm::rng;

pub use classify::OpClass;
pub use config::PinatuboConfig;
pub use engine::{EngineStats, OpOutcome, PinatuboEngine};
pub use op::{ArithOp, BitwiseOp};
pub use trace::{BulkOp, OpTrace};

use pinatubo_mem::MemError;
use std::error::Error;
use std::fmt;

/// Errors produced by the PIM engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PimError {
    /// The operation was given no operand rows.
    EmptyOperands,
    /// NOT takes exactly one operand row.
    NotTakesOneOperand {
        /// How many rows were supplied.
        got: usize,
    },
    /// AND/OR/XOR need at least two operand rows.
    NeedTwoOperands {
        /// How many rows were supplied.
        got: usize,
    },
    /// The configured fan-in cap is below 2, which cannot express any
    /// bitwise operation.
    FanInCapTooSmall {
        /// The configured cap.
        cap: usize,
    },
    /// The operation decomposes into a chain that uses `dst` as an
    /// accumulator, but `dst` is also an operand — its original value
    /// would be overwritten before being read.
    DstAliasesOperands,
    /// An architecture-level failure (address, geometry or circuit limit).
    Mem(MemError),
}

impl fmt::Display for PimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimError::EmptyOperands => write!(f, "bulk operation has no operand rows"),
            PimError::NotTakesOneOperand { got } => {
                write!(f, "NOT takes exactly one operand row, got {got}")
            }
            PimError::NeedTwoOperands { got } => {
                write!(
                    f,
                    "bitwise operation needs at least two operand rows, got {got}"
                )
            }
            PimError::FanInCapTooSmall { cap } => {
                write!(f, "configured fan-in cap {cap} is below the minimum of 2")
            }
            PimError::DstAliasesOperands => write!(
                f,
                "destination row is also an operand of a chained operation"
            ),
            PimError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl Error for PimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PimError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for PimError {
    fn from(e: MemError) -> Self {
        PimError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = PimError::from(MemError::EmptyOperation);
        assert!(Error::source(&e).is_some());
        assert!(PimError::EmptyOperands.to_string().contains("no operand"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PimError>();
    }
}
