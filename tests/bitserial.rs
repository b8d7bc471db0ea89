//! Cross-crate properties of the bit-serial µ-program framework: every
//! µ-op bit-identical to the scalar reference across widths (including
//! non-word-aligned tails) under fused and unfused compilation, the
//! fusion/CSE activation win on a pinned shared-subexpression batch,
//! scratch round-tripping through the allocator, and serial/session
//! parity (bits, statistics and fault ledgers) across pool sizes.

use pinatubo_baselines::simd::arith_reference;
use pinatubo_bench::parity::assert_stats_match;
use pinatubo_core::rng::SimRng;
use pinatubo_core::{ArithOp, PinatuboConfig};
use pinatubo_mem::{MemConfig, ReliabilityConfig};
use pinatubo_nvm::fault::FaultModel;
use pinatubo_nvm::yield_analysis::VariationModel;
use pinatubo_runtime::microcode::{self, CompileOptions, MicroOut, MicroProgram, TransposedVec};
use pinatubo_runtime::{MappingPolicy, PimBitVec, PimSystem};

fn sys() -> PimSystem {
    PimSystem::pcm_default(MappingPolicy::SubarrayFirst)
}

fn faulty_mem() -> MemConfig {
    let mut mem = MemConfig::pcm_default();
    mem.fault_model = FaultModel::with_seed(0xB17)
        .with_drift(0.04)
        .with_variation(VariationModel::Gaussian)
        .with_transients(1e-5, 1e-5, 1e-5)
        .with_write_flips(1e-5);
    mem.reliability = ReliabilityConfig::protected_secded();
    mem
}

/// Random lanes with the wrap/borrow corners pinned into the first slots.
fn lane_values(rng: &mut SimRng, count: usize, width: u32) -> Vec<u64> {
    let max = ArithOp::lane_mask(width);
    let mut v: Vec<u64> = (0..count).map(|_| rng.gen_range_u64(0, max) + 1).collect();
    let pins = [0, max, max - 1, 1, max / 2];
    for (slot, pin) in v.iter_mut().zip(pins) {
        *slot = pin;
    }
    v
}

struct OpFixture {
    program: MicroProgram,
    op: ArithOp,
    konst: u64,
}

/// One program per µ-op, all over the same two inputs — compiled as a
/// single batch so the matrix also exercises cross-program CSE.
fn all_op_programs(
    a: &TransposedVec,
    b: &TransposedVec,
    konst: u64,
    s: &mut PimSystem,
) -> Vec<OpFixture> {
    let lanes = a.lanes();
    let width = a.width_bits();
    // Shift amounts must stay inside the lane width; derive one from the
    // shared constant so it still varies with the sweep parameters.
    let shift = u32::try_from(konst % u64::from(width)).expect("shift fits");
    ArithOp::ALL
        .iter()
        .map(|&op| {
            let mut used_konst = konst;
            let program = if op.result_is_mask() {
                let mask = s.alloc(lanes).expect("mask");
                match op {
                    ArithOp::CmpGe => MicroProgram::cmp_ge(a, b, &mask),
                    ArithOp::CmpLt => MicroProgram::cmp_lt(a, b, &mask),
                    ArithOp::ThresholdConst => MicroProgram::threshold_const(a, konst, &mask),
                    _ => unreachable!("mask-valued ops"),
                }
            } else {
                let dst = s.alloc_transposed(lanes, width).expect("dst");
                match op {
                    ArithOp::Add => MicroProgram::add(a, b, &dst),
                    ArithOp::Sub => MicroProgram::sub(a, b, &dst),
                    ArithOp::Max => MicroProgram::max(a, b, &dst),
                    ArithOp::Min => MicroProgram::min(a, b, &dst),
                    ArithOp::ShlConst => {
                        used_konst = u64::from(shift);
                        MicroProgram::shl_const(a, shift, &dst)
                    }
                    ArithOp::ShrConst => {
                        used_konst = u64::from(shift);
                        MicroProgram::shr_const(a, shift, &dst)
                    }
                    _ => unreachable!("vector-valued ops"),
                }
            };
            OpFixture {
                program,
                op,
                konst: used_konst,
            }
        })
        .collect()
}

/// Reads a program's output back as one `u64` per lane.
fn output_lanes(program: &MicroProgram, s: &PimSystem) -> Vec<u64> {
    match program.out() {
        MicroOut::Vector(v) => s.load_lanes(v),
        MicroOut::Mask(m) => s.load(m).into_iter().map(u64::from).collect(),
    }
}

/// Every µ-op × widths 8/16/32 × word-aligned and ragged lane counts,
/// fused and unfused: bit-identical to the scalar reference, with all
/// comparator scratch returned to the allocator.
#[test]
fn microps_match_reference_across_widths_and_tails() {
    for width in [8u32, 16, 32] {
        for lanes in [70usize, 4097] {
            let mut rng = SimRng::seed_from_u64(0xB17 ^ u64::from(width) ^ lanes as u64);
            let a_values = lane_values(&mut rng, lanes, width);
            let b_values = lane_values(&mut rng, lanes, width);
            let konst = ArithOp::lane_mask(width) / 3;
            for opts in [CompileOptions::optimized(), CompileOptions::unoptimized()] {
                let mut s = sys();
                let a = s.alloc_transposed(lanes as u64, width).expect("a");
                let b = s.alloc_transposed(lanes as u64, width).expect("b");
                s.store_lanes(&a, &a_values).expect("store a");
                s.store_lanes(&b, &b_values).expect("store b");
                let fixtures = all_op_programs(&a, &b, konst, &mut s);
                let free_before = s.allocator().free_rows();
                let programs: Vec<MicroProgram> =
                    fixtures.iter().map(|f| f.program.clone()).collect();
                microcode::run(&programs, opts, &mut s).expect("run");
                assert_eq!(
                    s.allocator().free_rows(),
                    free_before,
                    "scratch must round-trip (width={width}, lanes={lanes}, {opts:?})"
                );
                for f in &fixtures {
                    let b_ref = if f.op.takes_constant() {
                        None
                    } else {
                        Some(&b_values[..])
                    };
                    let want = arith_reference(f.op, &a_values, b_ref, f.konst, width);
                    assert_eq!(
                        output_lanes(&f.program, &s),
                        want,
                        "{} diverged (width={width}, lanes={lanes}, {opts:?})",
                        f.op
                    );
                }
            }
        }
    }
}

/// The pinned shared-subexpression batch: `Sub`, `CmpGe`, `CmpLt` and
/// `Min` over the same operands all need the one borrow chain. Fusion +
/// CSE must keep the bits identical while cutting total activations by
/// at least 15% — the regression floor the smoke benchmark also pins.
#[test]
fn fusion_and_cse_cut_activations_on_shared_chains() {
    let width = 16u32;
    let lanes = 512usize;
    let mut rng = SimRng::seed_from_u64(0xF05E);
    let a_values = lane_values(&mut rng, lanes, width);
    let b_values = lane_values(&mut rng, lanes, width);

    let mut activations = Vec::new();
    let mut bits = Vec::new();
    for opts in [CompileOptions::optimized(), CompileOptions::unoptimized()] {
        let mut s = sys();
        let a = s.alloc_transposed(lanes as u64, width).expect("a");
        let b = s.alloc_transposed(lanes as u64, width).expect("b");
        s.store_lanes(&a, &a_values).expect("store a");
        s.store_lanes(&b, &b_values).expect("store b");
        let diff = s.alloc_transposed(lanes as u64, width).expect("diff");
        let low = s.alloc_transposed(lanes as u64, width).expect("low");
        let ge = s.alloc(lanes as u64).expect("ge");
        let lt = s.alloc(lanes as u64).expect("lt");
        let programs = [
            MicroProgram::sub(&a, &b, &diff),
            MicroProgram::cmp_ge(&a, &b, &ge),
            MicroProgram::cmp_lt(&a, &b, &lt),
            MicroProgram::min(&a, &b, &low),
        ];
        let report = microcode::run(&programs, opts, &mut s).expect("run");
        activations.push(
            report
                .per_op
                .iter()
                .map(|(_, op)| op.activations)
                .sum::<u64>(),
        );
        bits.push((
            s.load_lanes(&diff),
            s.load_lanes(&low),
            s.load(&ge),
            s.load(&lt),
        ));
    }
    assert_eq!(bits[0], bits[1], "fused and unfused bits must agree");
    let (fused, unfused) = (activations[0], activations[1]);
    assert!(
        fused * 100 <= unfused * 85,
        "shared-chain batch must cut activations by >= 15%: fused {fused} vs unfused {unfused}"
    );
}

/// Constant shifts are pure plane-index remaps: the compiled batch holds
/// zero logic gates — only the output copy/zeroing requests remain — and
/// the bits match the scalar reference, including shift 0 (a copy) and
/// shifts at or beyond the lane width (all-zero).
#[test]
fn const_shifts_remap_planes_with_zero_gates() {
    let width = 12u32;
    let lanes = 300usize;
    let mut rng = SimRng::seed_from_u64(0x5817);
    let a_values = lane_values(&mut rng, lanes, width);
    for shift in [0u32, 1, 5, 11, 12, 40] {
        let mut s = sys();
        let a = s.alloc_transposed(lanes as u64, width).expect("a");
        s.store_lanes(&a, &a_values).expect("store a");
        let shl = s.alloc_transposed(lanes as u64, width).expect("shl");
        let shr = s.alloc_transposed(lanes as u64, width).expect("shr");
        let programs = [
            MicroProgram::shl_const(&a, shift, &shl),
            MicroProgram::shr_const(&a, shift, &shr),
        ];
        let batch =
            microcode::compile(&programs, CompileOptions::optimized(), &mut s).expect("compile");
        assert_eq!(batch.live_gates(), 0, "shift by {shift} must be gate-free");
        batch.execute(&mut s).expect("execute");
        for (vec, op) in [(&shl, ArithOp::ShlConst), (&shr, ArithOp::ShrConst)] {
            let want = arith_reference(op, &a_values, None, u64::from(shift), width);
            assert_eq!(s.load_lanes(vec), want, "{op} by {shift} diverged");
        }
        batch.release(&mut s);
    }
}

type Outputs = (TransposedVec, TransposedVec, PimBitVec);

/// Allocates inputs + outputs deterministically and compiles the mixed
/// batch on the given system.
fn build_compiled(s: &mut PimSystem, opts: CompileOptions) -> (microcode::CompiledBatch, Outputs) {
    let width = 16u32;
    let lanes = 3000usize;
    let mut rng = SimRng::seed_from_u64(0x5E55);
    let a_values = lane_values(&mut rng, lanes, width);
    let b_values = lane_values(&mut rng, lanes, width);
    let a = s.alloc_transposed(lanes as u64, width).expect("a");
    let b = s.alloc_transposed(lanes as u64, width).expect("b");
    s.store_lanes(&a, &a_values).expect("store a");
    s.store_lanes(&b, &b_values).expect("store b");
    let sum = s.alloc_transposed(lanes as u64, width).expect("sum");
    let peak = s.alloc_transposed(lanes as u64, width).expect("peak");
    let ge = s.alloc(lanes as u64).expect("ge");
    let programs = [
        MicroProgram::add(&a, &b, &sum),
        MicroProgram::max(&a, &b, &peak),
        MicroProgram::cmp_ge(&a, &b, &ge),
    ];
    let batch = microcode::compile(&programs, opts, s).expect("compile");
    (batch, (sum, peak, ge))
}

fn read_outputs(s: &PimSystem, outs: &Outputs) -> (Vec<u64>, Vec<u64>, Vec<bool>) {
    (
        s.load_lanes(&outs.0),
        s.load_lanes(&outs.1),
        s.load(&outs.2),
    )
}

/// A compiled µ-program batch streamed through a persistent session is
/// pinned to serial execution — bits, merged statistics and the fault
/// ledger — for 1, 2 and 4 workers. The scratch-slot WAR/WAW recycling
/// must survive the sharded dependence analysis unchanged.
#[test]
fn session_matches_serial_across_pool_sizes() {
    let mk = |mem: MemConfig| {
        PimSystem::new(mem, PinatuboConfig::default(), MappingPolicy::ChannelRotate)
    };
    let mut serial = mk(faulty_mem());
    let (batch, outs) = build_compiled(&mut serial, CompileOptions::optimized());
    batch.execute_serial(&mut serial).expect("serial");
    let serial_bits = read_outputs(&serial, &outs);

    for workers in [1usize, 2, 4] {
        let mut s = mk(faulty_mem());
        let (batch, outs) = build_compiled(&mut s, CompileOptions::optimized());
        let mut session = s.open_session_with_workers(workers);
        batch.submit(&mut session).expect("submit");
        session.close().expect("close");
        assert_eq!(
            serial_bits,
            read_outputs(&s, &outs),
            "session must be bit-identical (workers={workers})"
        );
        assert_stats_match(&format!("workers={workers}"), serial.stats(), s.stats());
        assert_eq!(
            serial.trace(),
            s.trace(),
            "the abstract op trace must replay identically"
        );
    }
    assert!(
        serial.stats().reliability.detected_errors > 0,
        "the fault model must actually fire for this test to mean anything"
    );
}

/// Constant-folded extremes: a threshold at the lane maximum and a
/// `>= 0` comparison compile to pure constant planes — zero live gates,
/// no scratch — and still match the reference.
#[test]
fn constant_extremes_fold_to_zero_gates() {
    let width = 8u32;
    let lanes = 300usize;
    let max = ArithOp::lane_mask(width);
    let mut rng = SimRng::seed_from_u64(0xC0);
    let values = lane_values(&mut rng, lanes, width);
    let mut s = sys();
    let a = s.alloc_transposed(lanes as u64, width).expect("a");
    s.store_lanes(&a, &values).expect("store");
    let never = s.alloc(lanes as u64).expect("never");
    let always = s.alloc(lanes as u64).expect("always");
    let programs = [
        MicroProgram::threshold_const(&a, max, &never),
        MicroProgram::cmp_ge_const(&a, 0, &always),
    ];
    let batch =
        microcode::compile(&programs, CompileOptions::optimized(), &mut s).expect("compile");
    assert_eq!(batch.live_gates(), 0, "extremes must fold away every gate");
    batch.execute(&mut s).expect("execute");
    assert!(s.load(&never).iter().all(|&b| !b), "v > max is never true");
    assert!(s.load(&always).iter().all(|&b| b), "v >= 0 is always true");
}
