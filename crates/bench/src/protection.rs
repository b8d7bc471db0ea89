//! Shared ladder-vs-ECC protection-mode comparison workload.
//!
//! One fixed-seed scenario driven twice — [`ProtectionMode::None`] and
//! [`ProtectionMode::SecDed`] — so the fault binaries can report what the
//! read-path rung costs and what it lets through. The workload stores
//! charged rows with write verification off (stuck-at corruption must
//! *land* for the read path to have anything to do) and then reads every
//! row back:
//!
//! * `None` accepts everything — every corrupted row is a silent escape.
//! * `SecDed` corrects single-bit words in place — the read returns the
//!   *intended* data with no ladder involvement — and explicitly fails
//!   double-bit words after the ladder exhausts its retries.
//!
//! Time and energy deltas between the modes measure the protection
//! overhead itself: check-bit array traffic (12.5 % for the (72,64)
//! code), syndrome/encode logic passes, and ladder recalibrations.

use pinatubo_mem::{
    MainMemory, MemConfig, ProtectionMode, ReliabilityConfig, ReliabilityStats, RowAddr, RowData,
};
use pinatubo_nvm::fault::FaultModel;
use pinatubo_nvm::rng::SimRng;

/// Outcome of driving the comparison workload under one protection mode.
#[derive(Debug, Clone)]
pub struct ProtectionRun {
    /// The read-path rung this run measured.
    pub mode: ProtectionMode,
    /// Rows stored and read back.
    pub rows: u32,
    /// Bits per row.
    pub row_bits: u64,
    /// Simulated time for the whole store + read sequence.
    pub time_ns: f64,
    /// Share of `time_ns` spent in the ECC XOR tree.
    pub ecc_ns: f64,
    /// Simulated energy for the whole sequence.
    pub energy_pj: f64,
    /// Share of `energy_pj` spent on check-bit traffic + ECC logic.
    pub ecc_pj: f64,
    /// Reads the mode rejected explicitly ([`MemError::UncorrectableRead`]
    /// after the ladder ran dry).
    ///
    /// [`MemError::UncorrectableRead`]: pinatubo_mem::MemError::UncorrectableRead
    pub explicit_read_failures: u64,
    /// Reads accepted whose returned data differs from the intended row —
    /// the escapes a stronger code exists to close.
    pub wrong_accepted_rows: u64,
    /// The run's reliability ledger (consistency is asserted before
    /// returning).
    pub reliability: ReliabilityStats,
}

impl ProtectionRun {
    /// Human label for tables and JSON keys.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self.mode {
            ProtectionMode::None => "none",
            ProtectionMode::SecDed => "secded",
        }
    }
}

/// Drive the comparison workload under `mode`: `rows` charged stores of
/// `row_bits` pseudo-random bits against a stuck-at fault model, then one
/// `activate_read` per row. Same `seed` across modes means the *identical*
/// corruption pattern lands in both memories — the runs differ only
/// in what the read path does about it.
///
/// # Panics
///
/// Panics if a charged store fails (write verification is forced off, so
/// stores always land) or if the resulting reliability ledger is
/// inconsistent.
#[must_use]
pub fn protection_run(
    mode: ProtectionMode,
    rows: u32,
    row_bits: u64,
    seed: u64,
    p_stuck: f64,
) -> ProtectionRun {
    let mut config = MemConfig::pcm_default();
    config.fault_model = FaultModel::with_seed(seed).with_stuck_at(p_stuck, p_stuck);
    let mut reliability = match mode {
        ProtectionMode::None => ReliabilityConfig::off(),
        ProtectionMode::SecDed => ReliabilityConfig::protected_secded(),
    };
    reliability.verify_writes = false;
    config.reliability = reliability;
    let mut mem = MainMemory::new(config);

    let mut rng = SimRng::seed_from_u64(seed ^ 0xDA7A);
    let intended: Vec<RowData> = (0..rows)
        .map(|_| (0..row_bits).map(|_| rng.gen_bool(0.5)).collect())
        .collect();
    for (r, data) in intended.iter().enumerate() {
        mem.write_row_over_bus(RowAddr::new(0, 0, 0, 0, r as u32), data.clone())
            .expect("unverified charged store always lands");
    }

    let mut explicit_read_failures = 0u64;
    let mut wrong_accepted_rows = 0u64;
    for (r, want) in intended.iter().enumerate() {
        match mem.activate_read(RowAddr::new(0, 0, 0, 0, r as u32), row_bits) {
            Ok(got) => {
                if got != *want {
                    wrong_accepted_rows += 1;
                }
            }
            Err(_) => explicit_read_failures += 1,
        }
    }

    let stats = mem.stats();
    let run = ProtectionRun {
        mode,
        rows,
        row_bits,
        time_ns: stats.time_ns,
        ecc_ns: stats.time.ecc_ns,
        energy_pj: stats.energy.total_pj(),
        ecc_pj: stats.energy.ecc_pj,
        explicit_read_failures,
        wrong_accepted_rows,
        reliability: stats.reliability,
    };
    assert!(
        run.reliability.is_consistent(),
        "{} ledger must close: {:?}",
        run.label(),
        run.reliability
    );
    run
}

/// Run the workload under both modes and return them in `[None, SecDed]`
/// order.
#[must_use]
pub fn protection_comparison(
    rows: u32,
    row_bits: u64,
    seed: u64,
    p_stuck: f64,
) -> [ProtectionRun; 2] {
    [
        protection_run(ProtectionMode::None, rows, row_bits, seed, p_stuck),
        protection_run(ProtectionMode::SecDed, rows, row_bits, seed, p_stuck),
    ]
}

/// Print the ladder-vs-ECC comparison as an aligned table.
pub fn print_comparison(runs: &[ProtectionRun; 2]) {
    println!(
        "# Protection modes — {} rows x {} bits, identical stuck-at corruption",
        runs[0].rows, runs[0].row_bits
    );
    println!(
        "{:<8}{:>12}{:>12}{:>10}{:>10}{:>10}{:>10}{:>12}{:>12}",
        "mode",
        "time us",
        "energy nJ",
        "explicit",
        "silent",
        "corr'd",
        "double",
        "retries",
        "wrong rows"
    );
    for run in runs {
        println!(
            "{:<8}{:>12.2}{:>12.2}{:>10}{:>10}{:>10}{:>10}{:>12}{:>12}",
            run.label(),
            run.time_ns / 1e3,
            run.energy_pj / 1e3,
            run.explicit_read_failures,
            run.reliability.silent_wrong_bits,
            run.reliability.ecc_corrected_bits,
            run.reliability.ecc_detected_double,
            run.reliability.sense_retries,
            run.wrong_accepted_rows,
        );
    }
    let [none, secded] = runs;
    println!(
        "secded overhead vs none: time {:+.1}%, energy {:+.1}%",
        (secded.time_ns / none.time_ns - 1.0) * 100.0,
        (secded.energy_pj / none.energy_pj - 1.0) * 100.0,
    );
}
