//! Word-packed vs per-cell-reference fault-path benchmark.
//!
//! Runs the identical fault-injected command sequence — setup pokes, a
//! burst of full-width multi-row OR senses, a burst of full-width writes —
//! on two memories that differ only in `MemConfig::reference_fault_path`,
//! with every fault mechanism enabled (stuck-at, drift, Gaussian
//! variation, endurance, transients, write flips). Because the fault
//! draws are counter-keyed pure functions of position, the two paths must
//! produce bit-identical outputs, identical stored rows and identical
//! reliability ledgers; this binary asserts all three and reports the
//! wall-clock ratio. The full profile writes `BENCH_fault.json`.
//!
//! ```console
//! $ cargo run --release -p pinatubo-bench --bin bench_fault
//! $ cargo run --release -p pinatubo-bench --bin bench_fault -- --smoke
//! ```
//!
//! `--smoke` shrinks the width, asserts only the equivalence properties —
//! no wall-clock thresholds, so it is safe for shared CI runners — and
//! writes nothing. The full profile additionally asserts the packed path
//! is at least 20x faster on the 2^19-bit fan-in-4 OR sense burst.
//!
//! Both profiles also run the ladder-vs-ECC protection comparison
//! ([`pinatubo_bench::protection`]): the same stuck-at corruption read
//! back under no protection and under (72,64) SEC-DED. Both assert the
//! contrast — SEC-DED ends the run with zero silent wrong bits on a seed
//! where unprotected reads let corruption through — and the JSON records
//! SEC-DED's measured latency/energy overhead.

use pinatubo_bench::protection::{print_comparison, protection_comparison, ProtectionRun};
use pinatubo_bench::report::{self, Json, Profile};
use pinatubo_mem::{MainMemory, MemConfig, ReliabilityConfig, RowAddr, RowData};
use pinatubo_nvm::fault::FaultModel;
use pinatubo_nvm::sense_amp::SenseMode;
use pinatubo_nvm::yield_analysis::VariationModel;
use std::time::Instant;

const SEED: u64 = 0x5EED;
const FAN_IN: usize = 4;

/// Every fault mechanism on at once, rates low enough that the realized
/// sites stay sparse (the regime the packed path is built for).
fn model() -> FaultModel {
    FaultModel::with_seed(SEED)
        .with_stuck_at(1e-4, 1e-4)
        .with_drift(0.05)
        .with_variation(VariationModel::Gaussian)
        .with_endurance(10_000, 0.2)
        .with_transients(1e-5, 1e-5, 1e-5)
        .with_write_flips(1e-5)
}

fn memory(reference_fault_path: bool) -> MainMemory {
    let mut config = MemConfig::pcm_default();
    config.fault_model = model();
    config.reliability = ReliabilityConfig::off();
    config.reference_fault_path = reference_fault_path;
    MainMemory::new(config)
}

fn pattern(bits: u64, salt: u64) -> RowData {
    (0..bits)
        .map(|i| {
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt * 0x5851_F42D_4C95_7F2D)
                & 8
                != 0
        })
        .collect()
}

/// One path's run: the full command sequence plus its sense / write burst
/// wall clocks and everything needed to check equivalence.
struct Run {
    sense_ms: f64,
    write_ms: f64,
    sense_outputs: Vec<RowData>,
    stored_rows: Vec<RowData>,
    reliability: pinatubo_mem::ReliabilityStats,
}

fn run(reference_fault_path: bool, cols: u64, senses: u64, writes: u64) -> Run {
    let mut mem = memory(reference_fault_path);
    let operands: Vec<RowAddr> = (0..FAN_IN)
        .map(|r| RowAddr::new(0, 0, 0, 0, r as u32))
        .collect();
    let write_row = RowAddr::new(0, 0, 0, 0, FAN_IN as u32);
    for (i, &row) in operands.iter().enumerate() {
        mem.poke_row(row, &pattern(cols, i as u64 + 1))
            .expect("poke");
    }

    let mode = SenseMode::or(FAN_IN).expect("fan-in within margin");
    let t0 = Instant::now();
    let sense_outputs: Vec<RowData> = (0..senses)
        .map(|_| {
            mem.multi_activate_sense(&operands, mode, cols)
                .expect("OR sense")
        })
        .collect();
    let sense_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    for w in 0..writes {
        mem.write_row_local(write_row, pattern(cols, 100 + w))
            .expect("write");
    }
    let write_ms = t0.elapsed().as_secs_f64() * 1e3;

    let stored_rows = operands
        .iter()
        .chain(std::iter::once(&write_row))
        .map(|&r| mem.peek_row(r).expect("stored").clone())
        .collect();
    Run {
        sense_ms,
        write_ms,
        sense_outputs,
        stored_rows,
        reliability: mem.stats().reliability,
    }
}

fn main() {
    let profile = Profile::from_args();
    let (cols, senses, writes) = profile.pick((1u64 << 12, 2, 2), (1u64 << 19, 4, 2));

    let packed = run(false, cols, senses, writes);
    let reference = run(true, cols, senses, writes);

    let outputs_identical = packed.sense_outputs == reference.sense_outputs
        && packed.stored_rows == reference.stored_rows;
    let ledgers_identical = packed.reliability == reference.reliability;
    let sense_speedup = reference.sense_ms / packed.sense_ms;
    let write_speedup = reference.write_ms / packed.write_ms;

    println!(
        "# Packed vs reference fault paths — 2^{} bits, fan-in {}, {} senses, {} writes",
        cols.trailing_zeros(),
        FAN_IN,
        senses,
        writes
    );
    println!(
        "sense burst : packed {:.3} ms, reference {:.3} ms ({:.1}x)",
        packed.sense_ms, reference.sense_ms, sense_speedup
    );
    println!(
        "write burst : packed {:.3} ms, reference {:.3} ms ({:.1}x)",
        packed.write_ms, reference.write_ms, write_speedup
    );
    println!(
        "equivalence : outputs identical = {outputs_identical}, ledgers identical = {ledgers_identical}"
    );
    println!(
        "injected    : {} sense events, {} write events, {} bit errors, {} write faults",
        packed.reliability.physical_senses,
        packed.reliability.physical_writes,
        packed.reliability.injected_bit_errors,
        packed.reliability.injected_write_faults
    );

    assert!(
        outputs_identical,
        "packed and reference paths must be bit-identical"
    );
    assert!(
        ledgers_identical,
        "packed {:?} != reference {:?}",
        packed.reliability, reference.reliability
    );
    assert!(
        packed.reliability.injected_bit_errors > 0 || packed.reliability.injected_write_faults > 0,
        "the scenario must actually inject faults to be a meaningful check"
    );
    if profile == Profile::Full {
        assert!(
            sense_speedup >= 20.0,
            "packed sense path must be at least 20x faster (measured {sense_speedup:.1}x)"
        );
    }

    // Ladder-vs-ECC: identical stuck-at corruption under both protection
    // modes. Scale and stuck rate are chosen so the pinned seed exhibits
    // both fault classes SEC-DED is specified over — single-flip words it
    // corrects in place and double-flip words it must refuse — while
    // staying below the 3-flips-per-word regime that exceeds any
    // distance-4 code.
    let (prot_rows, prot_bits, p_stuck) = profile.pick((512, 512, 1e-3), (1024, 2048, 5e-4));
    let protection = protection_comparison(prot_rows, prot_bits, SEED, p_stuck);
    println!();
    print_comparison(&protection);
    let [p_none, p_secded] = &protection;
    assert_eq!(
        p_secded.reliability.silent_wrong_bits, 0,
        "SEC-DED must let no corruption through: {:?}",
        p_secded.reliability
    );
    assert_eq!(
        p_secded.wrong_accepted_rows, 0,
        "every accepted SEC-DED read must match the intended data"
    );
    assert!(
        p_none.reliability.silent_wrong_bits > 0,
        "unprotected reads must let corruption through for the contrast to mean anything: {:?}",
        p_none.reliability
    );
    assert!(
        p_secded.reliability.ecc_corrected_bits > 0,
        "the scenario must exercise in-place correction"
    );

    let mode = |run: &ProtectionRun| {
        let r = &run.reliability;
        Json::obj([
            ("time_ns", run.time_ns.into()),
            ("energy_pj", run.energy_pj.into()),
            ("ecc_ns", run.ecc_ns.into()),
            ("ecc_pj", run.ecc_pj.into()),
            ("explicit_read_failures", run.explicit_read_failures.into()),
            ("silent_wrong_bits", r.silent_wrong_bits.into()),
            ("wrong_accepted_rows", run.wrong_accepted_rows.into()),
            ("ecc_corrected_bits", r.ecc_corrected_bits.into()),
            ("ecc_detected_double", r.ecc_detected_double.into()),
            ("sense_retries", r.sense_retries.into()),
        ])
    };
    let protection = Json::obj([
        ("rows", prot_rows.into()),
        ("row_bits", prot_bits.into()),
        ("none", mode(p_none)),
        ("secded", mode(p_secded)),
        (
            "secded_time_overhead_vs_none",
            (p_secded.time_ns / p_none.time_ns - 1.0).into(),
        ),
        (
            "secded_energy_overhead_vs_none",
            (p_secded.energy_pj / p_none.energy_pj - 1.0).into(),
        ),
    ]);
    let burst = |name: &str, packed_ms: f64, reference_ms: f64| {
        Json::obj([
            ("burst", name.into()),
            ("packed_ms", packed_ms.into()),
            ("reference_ms", reference_ms.into()),
            ("speedup", (reference_ms / packed_ms).into()),
        ])
    };
    println!();
    report::finish(
        profile,
        "fault",
        "Each row is one burst of an identical fault-injected command \
         sequence (fan_in-row OR senses, then full-width writes; every fault \
         mechanism on) run on the word-packed and the per-cell reference \
         fault paths: packed_ms and reference_ms are host wall clock, \
         speedup is their ratio. outputs_identical and ledgers_identical \
         compare the two paths' outputs, stored rows and reliability \
         ledgers. protection reads identical stuck-at corruption back with \
         no protection and under (72,64) SEC-DED: modeled time and energy, \
         read outcomes and ledger per mode.",
        vec![
            ("bits_per_row", cols.into()),
            ("fan_in", FAN_IN.into()),
            ("senses", senses.into()),
            ("writes", writes.into()),
            ("outputs_identical", outputs_identical.into()),
            ("ledgers_identical", ledgers_identical.into()),
            ("protection", protection),
        ],
        vec![
            burst("sense", packed.sense_ms, reference.sense_ms),
            burst("write", packed.write_ms, reference.write_ms),
        ],
    );
}
