//! The PIM mode register.
//!
//! The paper's hardware-control path (§5, Fig. 4) reuses the DDR interface:
//! extended instructions are translated into ordinary-looking commands plus
//! mode-register writes (MR4) that configure the SA reference. The
//! controller charges each command as it executes it; the modeled
//! command timeline comes from [`crate::interleave::ChannelTimeline`].

use pinatubo_nvm::sense_amp::SenseMode;
use std::fmt;

/// PIM configuration held in the mode register (MR4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PimConfig {
    /// Ordinary memory: SA uses the READ reference.
    #[default]
    Off,
    /// SAs compute an OR over every open row.
    Or,
    /// SAs compute a 2-row AND.
    And,
    /// SAs run the two-micro-step XOR.
    Xor,
    /// SAs output the inverted latch value.
    Inv,
}

impl PimConfig {
    /// The sense mode a given `fan_in` implies under this configuration,
    /// if the configuration maps onto a single analog sense.
    ///
    /// XOR and INV return `None` — they are micro-step sequences on top of
    /// READ senses, not a reference switch.
    #[must_use]
    pub fn sense_mode(self, fan_in: usize) -> Option<SenseMode> {
        match self {
            PimConfig::Off => Some(SenseMode::Read),
            PimConfig::Or => SenseMode::or(fan_in).ok(),
            PimConfig::And => SenseMode::and(fan_in).ok(),
            PimConfig::Xor | PimConfig::Inv => None,
        }
    }
}

impl fmt::Display for PimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PimConfig::Off => "OFF",
            PimConfig::Or => "OR",
            PimConfig::And => "AND",
            PimConfig::Xor => "XOR",
            PimConfig::Inv => "INV",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pim_config_maps_to_sense_modes() {
        assert_eq!(PimConfig::Off.sense_mode(1), Some(SenseMode::Read));
        assert_eq!(
            PimConfig::Or.sense_mode(16),
            Some(SenseMode::Or { fan_in: 16 })
        );
        assert_eq!(PimConfig::And.sense_mode(2), Some(SenseMode::And));
        assert_eq!(PimConfig::And.sense_mode(3), None);
        assert_eq!(PimConfig::Xor.sense_mode(2), None);
        assert_eq!(PimConfig::Inv.sense_mode(1), None);
    }

    #[test]
    fn default_config_is_off() {
        assert_eq!(PimConfig::default(), PimConfig::Off);
    }
}
