//! The serial-parity check every executor is held to.
//!
//! The bench binaries and the parity suites compare a run against its
//! serial reference with these two assertions, so "matches serial" means
//! the same thing everywhere.

use pinatubo_mem::MemStats;

/// Asserts `a` and `b` agree to 1e-6 relative (1e-6 absolute below 1.0):
/// the slack float summation order needs, and no more.
///
/// # Panics
///
/// Panics, naming `label`, when the two diverge.
pub fn assert_close(label: &str, a: f64, b: f64) {
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= 1e-6 * scale,
        "{label} diverged: {a} vs {b}"
    );
}

/// Statistics parity up to float summation order: a shard merge adds
/// per-channel subtotals, so the integer event counters and the
/// reliability ledger must match exactly, and `time_ns`, the shared and
/// stall time and the total energy to [`assert_close`]'s tolerance.
///
/// # Panics
///
/// Panics, naming `label`, on the first field that diverges.
pub fn assert_stats_match(label: &str, serial: &MemStats, other: &MemStats) {
    assert_eq!(
        serial.events, other.events,
        "{label}: event counters must match"
    );
    assert_eq!(
        serial.reliability, other.reliability,
        "{label}: fault/recovery ledgers must match"
    );
    for (field, a, b) in [
        ("time_ns", serial.time_ns, other.time_ns),
        ("shared_ns", serial.time.shared_ns(), other.time.shared_ns()),
        ("stall_ns", serial.time.stall_ns, other.time.stall_ns),
        (
            "energy_pj",
            serial.energy.total_pj(),
            other.energy.total_pj(),
        ),
    ] {
        assert_close(&format!("{label}: {field}"), a, b);
    }
}
