//! Fault sweep: sense-error rate vs OR fan-in, functional simulator vs
//! analytic yield model (the Fig. 5 reliability view, measured twice).
//!
//! The functional side drives a real [`MainMemory`] with Gaussian process
//! variation injected into every bit-line sense and counts wrong bits
//! against the ground truth (`injected_bit_errors`, detection disabled so
//! the raw physical rate is visible). The analytic side is the
//! Monte-Carlo [`or_error_rate`] the controller's fan-in splitting policy
//! is calibrated from. The two sample the same resistance distribution
//! through entirely different code paths, so agreement here validates the
//! fault-injection plumbing end to end.
//!
//! Both profiles first run a fixed-seed scenario that exercises the
//! whole detect/retry/split/fallback recovery ladder and assert the
//! resulting [`pinatubo_mem::ReliabilityStats`] against a pinned
//! snapshot; `--smoke` then runs a reduced sweep for CI.
//!
//! ```console
//! $ cargo run --release -p pinatubo-bench --bin fault_sweep
//! $ cargo run --release -p pinatubo-bench --bin fault_sweep -- --smoke
//! ```

use pinatubo_bench::report::Profile;
use pinatubo_mem::{MainMemory, MemConfig, ReliabilityConfig, ReliableFanIn, RowAddr, RowData};
use pinatubo_nvm::fault::FaultModel;
use pinatubo_nvm::rng::SimRng;
use pinatubo_nvm::sense_amp::SenseMode;
use pinatubo_nvm::technology::Technology;
use pinatubo_nvm::yield_analysis::{or_error_rate, VariationModel};
use pinatubo_runtime::{MappingPolicy, PimSystem};

const SEED: u64 = 0x5EED;

/// Functional error rate: `senses` multi-activations of `fan_in` rows,
/// `cols` columns each. Every column is a trial, but columns of one sense
/// share that event's systematic variation draw (only the per-cell
/// residuals are independent), so the marginal rate matches the analytic
/// sampler while the counting statistics are governed by the number of
/// sense events. Patterns cycle through the same mix as the analytic
/// sampler: all-zeros, one-hot (the worst case for a wide OR), and random
/// fills.
fn functional_error_rate(fan_in: usize, cols: u64, senses: u64) -> (u64, u64) {
    let mut config = MemConfig::pcm_default();
    config.fault_model = FaultModel::with_seed(SEED).with_variation(VariationModel::Gaussian);
    config.reliability = ReliabilityConfig::off();
    let mut mem = MainMemory::new(config);
    let mut pattern_rng = SimRng::seed_from_u64(SEED ^ 0xC01);
    let rows: Vec<RowAddr> = (0..fan_in)
        .map(|r| RowAddr::new(0, 0, 0, 0, r as u32))
        .collect();
    let mode = SenseMode::or(fan_in).expect("fan-in >= 2");
    let mut errors = 0u64;
    for round in 0..senses {
        // Column c of round k is global trial k*cols + c; build each row's
        // image so the per-column bit patterns follow the trial mix.
        let mut images = vec![RowData::zeros(cols); fan_in];
        for c in 0..cols {
            let trial = round * cols + c;
            match trial % 4 {
                0 => {}
                1 => images[(trial as usize / 4) % fan_in].set(c, true),
                _ => {
                    for img in images.iter_mut() {
                        if pattern_rng.gen_bool(0.5) {
                            img.set(c, true);
                        }
                    }
                }
            }
        }
        for (row, img) in rows.iter().zip(&images) {
            mem.poke_row(*row, img).expect("setup poke");
        }
        let before = mem.stats().reliability.injected_bit_errors;
        mem.multi_activate_sense(&rows, mode, cols)
            .expect("fan-in within margin");
        errors += mem.stats().reliability.injected_bit_errors - before;
    }
    (errors, cols * senses)
}

fn sweep(cols: u64, senses: u64, analytic_trials: u64) {
    let tech = Technology::pcm();
    println!(
        "{:<8}{:>10}{:>12}{:>14}{:>12}{:>14}",
        "fan-in", "trials", "func errs", "func rate", "ana errs", "ana rate"
    );
    for fan_in in [2usize, 4, 8, 16, 32, 64, 128] {
        // Errors live in the Gaussian tails near the fan-in cap; spend
        // extra trials there so the comparison has counting statistics.
        let boost = if fan_in >= 64 { 16 } else { 1 };
        let (func_errors, func_trials) = functional_error_rate(fan_in, cols, senses * boost);
        let mut rng = SimRng::seed_from_u64(SEED);
        let ana = or_error_rate(
            &tech,
            fan_in,
            VariationModel::Gaussian,
            analytic_trials * boost,
            &mut rng,
        )
        .expect("valid fan-in");
        println!(
            "{:<8}{:>10}{:>12}{:>14.3e}{:>12}{:>14.3e}",
            fan_in,
            func_trials,
            func_errors,
            func_errors as f64 / func_trials as f64,
            ana.errors,
            ana.error_rate()
        );
    }
}

/// The pinned ladder scenario: write flips + violent OR transients against
/// the full protection stack, driven through the runtime so the engine's
/// RMW fallback really runs. Asserts every rung of the recovery ladder
/// fired and that the final counters match the pinned fixed-seed snapshot.
fn recovery_ladder() {
    let mut mem = MemConfig::pcm_default();
    mem.fault_model = FaultModel::with_seed(SEED)
        .with_write_flips(5e-4)
        .with_transients(0.0, 0.5, 0.0);
    let mut reliability = ReliabilityConfig::protected_secded();
    reliability.reliable_fan_in = ReliableFanIn::Fixed(4);
    mem.reliability = reliability;
    let mut sys = PimSystem::new(
        mem,
        pinatubo_core::PinatuboConfig::default(),
        MappingPolicy::SubarrayFirst,
    );

    let len = 512usize;
    let vecs = sys.alloc_group(9, len as u64).expect("alloc");
    let mut rng = SimRng::seed_from_u64(SEED);
    let mut expect = vec![false; len];
    for v in &vecs[..8] {
        let bits: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.3)).collect();
        for (e, b) in expect.iter_mut().zip(&bits) {
            *e |= *b;
        }
        sys.store(v, &bits).expect("store");
    }
    let operands: Vec<_> = vecs[..8].iter().collect();
    let summary = sys
        .or_many(&operands, &vecs[8])
        .expect("protected OR completes via the ladder");
    assert_eq!(sys.load(&vecs[8]), expect, "the result must be correct");

    let r = summary.reliability;
    println!("recovery ladder stats: {r:#?}");
    assert!(r.is_consistent(), "ledger must close: {r:?}");
    assert!(r.fan_in_splits >= 1, "the OR-8 must split at Fixed(4)");
    assert!(r.sense_retries >= 1, "duplicate senses must have retried");
    assert!(r.rmw_fallbacks >= 1, "the engine fallback must have fired");
    assert_eq!(r.silent_wrong_bits, 0, "nothing may corrupt silently");

    // The setup stores run program-and-verify too (outside the op
    // summary); the system-wide ledger must show verify catching flips.
    let total = sys.stats().reliability;
    assert!(total.is_consistent(), "ledger must close: {total:?}");
    assert!(
        total.injected_write_faults >= 1 && total.write_retries >= 1,
        "verify must have caught write flips: {total:?}"
    );
    assert_eq!(total.silent_wrong_bits, 0);

    // Pinned fixed-seed snapshot: any change to the fault stream, the
    // recovery ladder or the stats plumbing shows up here.
    assert_eq!(r.fan_in_splits, 1, "pinned: {r:?}");
    assert_eq!(r.rmw_fallbacks, 1, "pinned: {r:?}");
    assert_eq!(r.sense_retries, 3, "pinned: {r:?}");
    println!("recovery ladder OK");
}

fn main() {
    let profile = Profile::from_args();
    recovery_ladder();
    // Narrow rows, many senses: the systematic variation component is one
    // draw per sense *event*, shared by every column of that sense, so at
    // wide fan-ins (where the per-cell residuals average out across the
    // parallel combine) errors arrive as bursts on rare tail draws. The
    // number of events — not columns — sets how well the functional side
    // samples the tails the analytic model integrates over per trial.
    let (senses, analytic_trials) = profile.pick((512, 2_000), (8_192, 32_768));
    sweep(4, senses, analytic_trials);
}
