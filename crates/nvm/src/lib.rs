//! Device- and circuit-level models for resistive non-volatile memories.
//!
//! This crate is the bottom layer of the Pinatubo reproduction. It models the
//! pieces of an NVM chip that the paper modifies to obtain in-memory bitwise
//! computation:
//!
//! * [`technology`] — technology presets for PCM, STT-MRAM and ReRAM
//!   (resistance levels, ON/OFF ratio, process variation, write behaviour),
//!   plus a DRAM preset used by the S-DRAM baseline.
//! * [`resistance`] — resistance arithmetic: parallel combination of open
//!   cells on a bit line and worst-case interval bounds under variation.
//! * [`cell`] — a single 1T1R resistive cell storing one bit.
//! * [`sense_amp`] — the current sense amplifier (CSA) with switchable
//!   reference circuits. This is the heart of Pinatubo: shifting the
//!   reference turns a read into an OR or an AND over all open rows
//!   (paper Fig. 5 and Fig. 6).
//! * [`lwl_driver`] — the modified local word-line driver that latches
//!   several decoded addresses so multiple rows stay open at once
//!   (paper Fig. 7).
//! * [`write_driver`] — the write driver with the added in-place-update
//!   path from the SA output (paper Fig. 8a).
//! * [`fault`] — deterministic, seedable fault injection (stuck-at cells,
//!   drift, process variation, transient sense flips) so the layers above
//!   can exercise detection and recovery.
//! * [`timing`], [`energy`], [`area`] — calibrated parameter tables playing
//!   the role NVSim / CACTI-3DD play in the paper's methodology.
//!
//! # Example
//!
//! Sense a 4-row OR the way the modified SA does — by comparing the parallel
//! bit-line resistance against the OR reference:
//!
//! ```
//! use pinatubo_nvm::technology::Technology;
//! use pinatubo_nvm::sense_amp::{CurrentSenseAmp, SenseMode};
//!
//! # fn main() -> Result<(), pinatubo_nvm::NvmError> {
//! let tech = Technology::pcm();
//! let sa = CurrentSenseAmp::new(&tech);
//! // Cells storing 0, 0, 1, 0 — their nominal resistances in parallel.
//! let bits = [false, false, true, false];
//! let bl = pinatubo_nvm::resistance::parallel(
//!     bits.iter().map(|&b| tech.cell_resistance(b)),
//! );
//! let out = sa.sense(bl, SenseMode::or(4)?)?;
//! assert!(out); // OR of the open rows is 1
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod area;
pub mod cell;
pub mod energy;
pub mod fault;
pub mod lwl_driver;
pub mod resistance;
pub mod rng;
pub mod sense_amp;
pub mod technology;
pub mod timing;
pub mod write_driver;
pub mod yield_analysis;

pub use area::{AreaBreakdown, AreaModel};
pub use cell::Cell;
pub use energy::EnergyParams;
pub use fault::{CellHealth, CellId, EventKey, FaultModel, FaultState};
pub use resistance::{parallel, Ohms};
pub use rng::SimRng;
pub use sense_amp::{CurrentSenseAmp, SenseMargin, SenseMode};
pub use technology::{Technology, TechnologyKind};
pub use timing::TimingParams;

use std::error::Error;
use std::fmt;

/// Errors produced by the device/circuit layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NvmError {
    /// The requested operation needs more simultaneously open rows than the
    /// sense margin of this technology supports.
    FanInExceeded {
        /// Rows the caller asked to combine.
        requested: usize,
        /// Maximum supported by the technology for this operation.
        supported: usize,
    },
    /// Multi-row AND beyond two rows cannot be sensed reliably on any
    /// resistive technology (paper §4.2 footnote 3).
    UnsupportedAndFanIn {
        /// Rows the caller asked to AND.
        requested: usize,
    },
    /// A fan-in of zero or one is not a bitwise operation.
    DegenerateFanIn,
    /// The sensed bit-line resistance falls inside the forbidden gap between
    /// logic regions — the circuit would be metastable. Raised only by the
    /// strict sensing entry points used in validation tests.
    AmbiguousSense {
        /// The offending bit-line resistance in ohms.
        bitline_ohms: f64,
    },
    /// The LWL driver was asked to latch more rows than its latch bank holds.
    TooManyOpenRows {
        /// Rows already latched plus the new request.
        requested: usize,
        /// Capacity of the latch bank.
        capacity: usize,
    },
}

impl fmt::Display for NvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvmError::FanInExceeded {
                requested,
                supported,
            } => write!(
                f,
                "fan-in of {requested} rows exceeds the {supported}-row sense margin"
            ),
            NvmError::UnsupportedAndFanIn { requested } => write!(
                f,
                "multi-row AND of {requested} rows is not sensible on resistive cells"
            ),
            NvmError::DegenerateFanIn => {
                write!(f, "bitwise operations need at least two operand rows")
            }
            NvmError::AmbiguousSense { bitline_ohms } => write!(
                f,
                "bit-line resistance {bitline_ohms:.1} ohm falls between logic regions"
            ),
            NvmError::TooManyOpenRows {
                requested,
                capacity,
            } => write!(
                f,
                "cannot hold {requested} rows open: latch bank capacity is {capacity}"
            ),
        }
    }
}

impl Error for NvmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_and_unpunctuated() {
        let messages = [
            NvmError::FanInExceeded {
                requested: 9,
                supported: 2,
            }
            .to_string(),
            NvmError::UnsupportedAndFanIn { requested: 3 }.to_string(),
            NvmError::DegenerateFanIn.to_string(),
            NvmError::AmbiguousSense { bitline_ohms: 1.0 }.to_string(),
            NvmError::TooManyOpenRows {
                requested: 3,
                capacity: 2,
            }
            .to_string(),
        ];
        for m in messages {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'), "{m:?} should not end with a period");
            assert!(
                m.chars().next().expect("non-empty").is_lowercase(),
                "{m:?} should start lowercase"
            );
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NvmError>();
    }
}
