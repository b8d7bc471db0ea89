//! Cross-crate reliability properties: fault-free bit-identity against
//! pinned pre-fault-engine baselines, determinism of the injected fault
//! stream, and the no-silent-corruption guarantee under the full
//! detect/retry/split/fallback recovery ladder.

use pinatubo_apps::bfs::{bfs_levels_reference, bitmap_bfs};
use pinatubo_apps::{BitmapIndex, Graph, Query};
use pinatubo_core::{BitwiseOp, PinatuboConfig};
use pinatubo_mem::{
    MainMemory, MemConfig, ProtectionMode, ReliabilityConfig, ReliabilityStats, RowAddr, RowData,
};
use pinatubo_nvm::fault::FaultModel;
use pinatubo_nvm::rng::{splitmix64, SimRng};
use pinatubo_nvm::sense_amp::SenseMode;
use pinatubo_nvm::yield_analysis::VariationModel;
use pinatubo_runtime::{MappingPolicy, PimSystem};

fn digest(bits: &[bool]) -> u64 {
    let mut h = 0x5EED_0000_0000_0001u64;
    for chunk in bits.chunks(64) {
        let mut word = 0u64;
        for (i, &b) in chunk.iter().enumerate() {
            word |= u64::from(b) << i;
        }
        h ^= word;
        h = splitmix64(&mut h);
    }
    h
}

fn sys_with(fault: FaultModel, reliability: ReliabilityConfig) -> PimSystem {
    let mut mem = MemConfig::pcm_default();
    mem.fault_model = fault;
    mem.reliability = reliability;
    PimSystem::new(mem, PinatuboConfig::default(), MappingPolicy::SubarrayFirst)
}

/// Scenario A of the pinned baseline: four random 5000-bit vectors
/// through OR-4 / AND / XOR / NOT. Returns the combined result digest.
fn run_scenario_a(sys: &mut PimSystem) -> u64 {
    let mut rng = SimRng::seed_from_u64(0xF00D);
    let len = 5000u64;
    let vs: Vec<_> = (0..4).map(|_| sys.alloc(len).expect("alloc")).collect();
    let pats: Vec<Vec<bool>> = (0..4)
        .map(|_| (0..len).map(|_| rng.gen_bit()).collect())
        .collect();
    for (v, p) in vs.iter().zip(&pats) {
        sys.store(v, p).expect("store");
    }
    let d1 = sys.alloc(len).expect("alloc");
    let d2 = sys.alloc(len).expect("alloc");
    let d3 = sys.alloc(len).expect("alloc");
    let d4 = sys.alloc(len).expect("alloc");
    sys.or_many(&[&vs[0], &vs[1], &vs[2], &vs[3]], &d1)
        .expect("or4");
    sys.bitwise(BitwiseOp::And, &[&vs[0], &vs[1]], &d2)
        .expect("and");
    sys.bitwise(BitwiseOp::Xor, &[&vs[2], &vs[3]], &d3)
        .expect("xor");
    sys.not(&vs[0], &d4).expect("not");
    digest(&sys.load(&d1))
        ^ digest(&sys.load(&d2))
        ^ digest(&sys.load(&d3))
        ^ digest(&sys.load(&d4))
}

fn small_graph() -> Graph {
    Graph::from_edges(
        64,
        &(0..63).map(|i| (i, (i * 7 + 3) % 64)).collect::<Vec<_>>(),
    )
}

/// With `FaultModel::none()` the whole stack must be bit-identical to the
/// pre-fault-engine behavior — pinned digests, exact-float times and
/// energies captured on the seed tree before this subsystem existed.
#[test]
fn fault_free_stack_matches_pinned_baselines() {
    // Scenario A: raw runtime ops.
    let mut sys = PimSystem::pcm_default(MappingPolicy::SubarrayFirst);
    let dig = run_scenario_a(&mut sys);
    assert_eq!(dig, 0xc24c25b6407cd20e);
    assert_eq!(sys.stats().time_ns, 844.4000000000001);
    assert_eq!(sys.stats().energy.total_pj(), 81543.11999999998);
    assert_eq!(sys.stats().events.activates, 3);
    assert_eq!(sys.stats().events.multi_activates, 2);
    assert!(sys.stats().reliability.is_zero());

    // Scenario B: bitmap BFS.
    let mut sys = PimSystem::pcm_default(MappingPolicy::SubarrayFirst);
    let r = bitmap_bfs(&small_graph(), &mut sys).expect("bfs runs");
    let mut h = 0xB0F5u64;
    for l in &r.levels {
        h ^= u64::from(*l).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = splitmix64(&mut h);
    }
    assert_eq!(h, 0x7570762cf84ab618);
    assert_eq!(sys.stats().time_ns, 29357.799999999927);

    // Scenario C: bitmap-index queries.
    let mut sys = PimSystem::pcm_default(MappingPolicy::SubarrayFirst);
    let spec = pinatubo_apps::database::TableSpec::star_like();
    let idx = BitmapIndex::build(spec, &mut sys).expect("build");
    let mut qrng = SimRng::seed_from_u64(0xDB);
    let counts: Vec<u64> = (0..3)
        .map(|_| {
            let q = Query::random(idx.spec(), &mut qrng);
            idx.run_query(&q, &mut sys).expect("query").count
        })
        .collect();
    assert_eq!(counts, vec![7185, 1056, 804]);
    assert_eq!(sys.stats().time_ns, 20031.499999999978);
}

/// `FaultModel::none()` is an identity even with every recovery-ladder
/// knob switched on: the fault hooks must not fire at all, so results,
/// timing, energy and command counts are exactly those of the default
/// config. SEC-DED is not free without faults — its encoder and checker
/// are part of the datapath — so with it on, everything except the
/// dedicated ECC time/energy buckets must still match exactly.
#[test]
fn none_model_with_full_protection_is_identity() {
    let mut default_sys = PimSystem::pcm_default(MappingPolicy::SubarrayFirst);
    let default_dig = run_scenario_a(&mut default_sys);

    let ladder = ReliabilityConfig {
        protection: ProtectionMode::None,
        ..ReliabilityConfig::protected_secded()
    };
    let mut protected_sys = sys_with(FaultModel::none(), ladder);
    let protected_dig = run_scenario_a(&mut protected_sys);

    assert_eq!(default_dig, protected_dig);
    assert_eq!(default_sys.stats(), protected_sys.stats());
    assert!(protected_sys.stats().reliability.is_zero());

    let mut secded_sys = sys_with(FaultModel::none(), ReliabilityConfig::protected_secded());
    let secded_dig = run_scenario_a(&mut secded_sys);
    let (plain, secded) = (default_sys.stats(), secded_sys.stats());
    assert_eq!(default_dig, secded_dig);
    assert_eq!(plain.events, secded.events);
    assert_eq!(plain.row_pages_copied, secded.row_pages_copied);
    assert!(secded.reliability.is_zero());
    assert!(secded.time.ecc_ns > 0.0, "{:?}", secded.time);
    assert!(secded.energy.ecc_pj > 0.0, "{:?}", secded.energy);
    let mut time = secded.time;
    time.ecc_ns = 0.0;
    assert_eq!(time, plain.time);
    let mut energy = secded.energy;
    energy.ecc_pj = 0.0;
    assert_eq!(energy, plain.energy);
}

/// The injected fault stream is a pure function of the model seed: two
/// runs of the same workload produce identical results *and* identical
/// reliability ledgers, bit for bit.
#[test]
fn same_seed_gives_identical_fault_streams() {
    // Rates sized to the 5000-bit rows: a few flips over the whole run,
    // well within what one retry round recovers.
    let model = FaultModel::with_seed(0xD1CE)
        .with_variation(VariationModel::Gaussian)
        .with_transients(1e-5, 1e-5, 1e-5)
        .with_write_flips(1e-5);
    let run = || {
        let mut sys = sys_with(model, ReliabilityConfig::protected_secded());
        let dig = run_scenario_a(&mut sys);
        (dig, *sys.stats())
    };
    let (dig_a, stats_a) = run();
    let (dig_b, stats_b) = run();
    assert_eq!(dig_a, dig_b);
    assert_eq!(stats_a, stats_b);
    assert_eq!(stats_a.reliability, stats_b.reliability);
    assert!(stats_a.reliability.is_consistent());
}

/// Under stuck-at faults with the full recovery ladder enabled, every
/// workload either completes with *correct* results or reports an
/// explicit uncorrectable error — never a silent wrong bit. Verified
/// writes refuse to leave corrupt data in the array, so whatever later
/// senses read is exact.
#[test]
fn stuck_faults_never_corrupt_silently() {
    let graph = small_graph();
    let reference = bfs_levels_reference(&graph);
    let mut injections = 0u64;
    let mut explicit_failures = 0u64;
    for seed in 0..6u64 {
        let model = FaultModel::with_seed(seed).with_stuck_at(2e-4, 2e-4);
        let mut sys = sys_with(model, ReliabilityConfig::protected_secded());
        match bitmap_bfs(&graph, &mut sys) {
            Ok(r) => assert_eq!(r.levels, reference, "seed {seed}: accepted ⇒ correct"),
            Err(e) => {
                // Only the explicit reliability verdicts are acceptable.
                let msg = e.to_string();
                assert!(
                    msg.contains("verify retries"),
                    "seed {seed}: unexpected error {msg}"
                );
                explicit_failures += 1;
            }
        }
        let r = sys.stats().reliability;
        assert_eq!(r.silent_wrong_bits, 0, "seed {seed}: {r:?}");
        assert!(r.is_consistent(), "seed {seed}: {r:?}");
        injections += r.injected_write_faults + r.injected_bit_errors;
    }
    assert!(
        injections > 0,
        "the sweep must actually inject faults somewhere"
    );
    // Not asserted per-seed (whether a stuck cell lands under live data is
    // seed luck), but across six seeds at this density some must fail.
    assert!(explicit_failures > 0, "some seeds must hit stuck cells");
}

/// Transient faults under full protection: the ladder (duplicate sense +
/// retry, SEC-DED read check, RMW fallback) corrects everything it detects,
/// and the workload's results stay exactly right.
#[test]
fn protection_recovers_transient_faults() {
    let graph = small_graph();
    let reference = bfs_levels_reference(&graph);
    let mut detected = 0u64;
    for seed in [0x11u64, 0x22, 0x33] {
        let model = FaultModel::with_seed(seed).with_transients(1e-3, 1e-3, 1e-3);
        let mut sys = sys_with(model, ReliabilityConfig::protected_secded());
        let r = bitmap_bfs(&graph, &mut sys).expect("protected bfs completes");
        assert_eq!(r.levels, reference, "seed {seed}");
        let stats = sys.stats().reliability;
        assert_eq!(stats.silent_wrong_bits, 0, "seed {seed}: {stats:?}");
        assert!(stats.is_consistent(), "seed {seed}: {stats:?}");
        detected += stats.detected_errors;
    }
    assert!(detected > 0, "the transient rate must trip the detectors");
}

/// The reliability ledger sums stay internally consistent through the
/// runtime aggregation (per-op summaries vs the memory's own totals).
#[test]
fn runtime_summaries_aggregate_reliability() {
    let model = FaultModel::with_seed(0xAB).with_transients(1e-4, 1e-4, 1e-4);
    let mut sys = sys_with(model, ReliabilityConfig::protected_secded());
    let len = 2048u64;
    let vecs = sys.alloc_group(5, len).expect("alloc");
    let mut rng = SimRng::seed_from_u64(0xAB);
    for v in &vecs[..4] {
        let bits: Vec<bool> = (0..len).map(|_| rng.gen_bit()).collect();
        sys.store(v, &bits).expect("store");
    }
    let operands: Vec<_> = vecs[..4].iter().collect();
    let mut from_ops = ReliabilityStats::default();
    from_ops += sys.or_many(&operands, &vecs[4]).expect("or").reliability;
    from_ops += sys
        .bitwise(BitwiseOp::Xor, &[&vecs[0], &vecs[1]], &vecs[4])
        .expect("xor")
        .reliability;
    let total = sys.stats().reliability;
    // Op summaries cover exactly the op windows; the memory total adds the
    // setup stores on top, so every op-window counter is bounded by it.
    assert!(total.detected_errors >= from_ops.detected_errors);
    assert!(total.injected_bit_errors >= from_ops.injected_bit_errors);
    assert!(total.sense_retries >= from_ops.sense_retries);
    assert!(from_ops.is_consistent(), "{from_ops:?}");
    assert!(total.is_consistent(), "{total:?}");
}

// ---------------------------------------------------------------------------
// Word-packed vs per-cell-reference fault paths.
//
// The controller ships two implementations of the physical sense/write
// path: the O(words + fault sites) packed default and the O(cols × fan_in)
// per-cell reference it was derived from. Because every stochastic draw is
// a counter-keyed pure function of (seed, channel, event, column), the two
// must agree bit for bit and ledger entry for ledger entry on any command
// sequence. These tests pin that equivalence across seeds, row widths
// (including non-multiple-of-64 tails), fan-ins, both variation models,
// both reliability configurations, and every fault class at once.
// ---------------------------------------------------------------------------

/// Every fault mechanism enabled together, at rates high enough to fire on
/// ~1000-bit rows. The endurance budget is low so a moderately rewritten
/// row crosses it mid-scenario, exercising the wear-driven invalidation of
/// the cached per-row fault sites.
fn all_classes(seed: u64, variation: VariationModel) -> FaultModel {
    FaultModel::with_seed(seed)
        .with_stuck_at(1e-3, 1e-3)
        .with_drift(0.05)
        .with_variation(variation)
        .with_endurance(16, 0.5)
        .with_transients(1e-3, 1e-3, 1e-3)
        .with_write_flips(1e-3)
}

fn physical_mem(model: FaultModel, reliability: ReliabilityConfig, reference: bool) -> MainMemory {
    let mut config = MemConfig::pcm_default();
    config.fault_model = model;
    config.reliability = reliability;
    config.reference_fault_path = reference;
    MainMemory::new(config)
}

/// Drives one memory through a mixed command transcript — pokes, repeated
/// verified writes that wear a row past its endurance budget, then reads
/// and multi-row senses at several fan-ins — and returns everything
/// observable: each command's outcome (the stored/sensed row, or `None`
/// for an explicit error) and the final reliability ledger.
fn drive_physical(
    mem: &mut MainMemory,
    seed: u64,
    cols: u64,
) -> (Vec<Option<RowData>>, ReliabilityStats) {
    let mut rng = SimRng::seed_from_u64(seed);
    let random_row = |rng: &mut SimRng| -> RowData { (0..cols).map(|_| rng.gen_bit()).collect() };
    let rows: Vec<RowAddr> = (0..8).map(|r| RowAddr::new(0, 0, 0, 0, r)).collect();
    let hot = RowAddr::new(0, 0, 0, 0, 8);
    let mut transcript = Vec::new();

    for &row in &rows {
        let data = random_row(&mut rng);
        let ok = mem.poke_row(row, &data).is_ok();
        transcript.push(ok.then(|| mem.peek_row(row).expect("poked").clone()));
    }
    // 24 writes against a mean-16 endurance budget: the hot row crosses
    // into wear-out partway through, growing its fault-site set write by
    // write.
    for _ in 0..24 {
        let data = random_row(&mut rng);
        let ok = mem.write_row_local(hot, data).is_ok();
        transcript.push(ok.then(|| mem.peek_row(hot).expect("written").clone()));
    }
    transcript.push(mem.activate_read(rows[0], cols).ok());
    transcript.push(mem.activate_read(hot, cols).ok());
    for (ops, mode) in [
        (&rows[..2], SenseMode::and(2).expect("AND-2")),
        (&rows[..4], SenseMode::or(4).expect("OR-4")),
        (&rows[..8], SenseMode::or(8).expect("OR-8")),
    ] {
        transcript.push(mem.multi_activate_sense(ops, mode, cols).ok());
        // An unstable protected sense hands recovery to the caller; close
        // the ladder the way the engine's read-modify-write fallback does
        // so the `detected == corrected + uncorrectable` invariant holds.
        match mem.multi_activate_sense_protected(ops, mode, cols) {
            Ok(out) => transcript.push(Some(out)),
            Err(_) => {
                mem.note_rmw_fallback();
                mem.note_recovery_resolved();
                transcript.push(None);
            }
        }
    }
    (transcript, mem.stats().reliability)
}

/// The packed path is bit- and ledger-identical to the per-cell reference
/// over the full matrix: seeds × widths (with non-×64 tails) × variation
/// models × protection on/off, with all fault classes active at once.
#[test]
fn packed_fault_path_matches_reference_exactly() {
    let mut injected = 0u64;
    for seed in [1u64, 2] {
        for cols in [37u64, 130, 1000] {
            for variation in [VariationModel::BoundedUniform, VariationModel::Gaussian] {
                for protected in [false, true] {
                    let reliability = if protected {
                        ReliabilityConfig::protected_secded()
                    } else {
                        ReliabilityConfig::off()
                    };
                    let model = all_classes(seed, variation);
                    let mut packed = physical_mem(model, reliability, false);
                    let mut reference = physical_mem(model, reliability, true);
                    let (packed_out, packed_rel) = drive_physical(&mut packed, seed, cols);
                    let (ref_out, ref_rel) = drive_physical(&mut reference, seed, cols);
                    let ctx =
                        format!("seed {seed}, cols {cols}, {variation:?}, protected {protected}");
                    assert_eq!(packed_out, ref_out, "{ctx}: transcripts diverge");
                    assert_eq!(packed_rel, ref_rel, "{ctx}: ledgers diverge");
                    assert_eq!(
                        packed.stats().events,
                        reference.stats().events,
                        "{ctx}: command streams diverge"
                    );
                    assert_eq!(
                        packed.stats().time_ns,
                        reference.stats().time_ns,
                        "{ctx}: timing diverges"
                    );
                    assert!(packed_rel.is_consistent(), "{ctx}: {packed_rel:?}");
                    injected += packed_rel.injected_bit_errors + packed_rel.injected_write_faults;
                }
            }
        }
    }
    assert!(injected > 0, "the matrix must actually inject faults");
}

/// At the fan-in-128 margin cap with Gaussian variation, senses actually
/// misread (the regime the fault sweep measures). The packed path resolves
/// these through its ambiguous-column band, which must agree with the
/// reference evaluator bit for bit — including which columns flip.
#[test]
fn packed_path_matches_reference_at_the_margin_cap() {
    let fan_in = 128usize;
    let cols = 256u64;
    let mut outputs = Vec::new();
    let mut ledgers = Vec::new();
    for reference in [false, true] {
        let model = FaultModel::with_seed(0x5EED).with_variation(VariationModel::Gaussian);
        let mut mem = physical_mem(model, ReliabilityConfig::off(), reference);
        let mut rng = SimRng::seed_from_u64(0x5EED);
        let rows: Vec<RowAddr> = (0..fan_in)
            .map(|r| RowAddr::new(0, 0, 0, 0, r as u32))
            .collect();
        for &row in &rows {
            // Mostly-zero columns keep the OR near the 0/1 boundary where
            // the Gaussian tails matter.
            let data: RowData = (0..cols).map(|_| rng.gen_bool(0.01)).collect();
            mem.poke_row(row, &data).expect("poke");
        }
        let mode = SenseMode::or(fan_in).expect("margin cap");
        let sensed: Vec<RowData> = (0..20)
            .map(|_| mem.multi_activate_sense(&rows, mode, cols).expect("sense"))
            .collect();
        outputs.push(sensed);
        ledgers.push(mem.stats().reliability);
    }
    assert_eq!(outputs[0], outputs[1], "fan-in-128 senses diverge");
    assert_eq!(ledgers[0], ledgers[1], "fan-in-128 ledgers diverge");
}

/// serve_faulty's shape of fault model: Gaussian variation, transients and
/// write flips, with no stuck-at cells and no endurance limit, so no row
/// ever has a fault site. The rates fire on ~1000-bit rows.
fn site_free(seed: u64) -> FaultModel {
    FaultModel::with_seed(seed)
        .with_variation(VariationModel::Gaussian)
        .with_transients(1e-3, 1e-3, 1e-3)
        .with_write_flips(1e-3)
}

/// Senses operand rows stored at widths other than the sensed `cols` —
/// narrower (100 bits), wider with a non-×64 tail (1000 bits) and never
/// written — alone, in pairs and four at a time, and returns each
/// command's outcome. Under `all_classes` the wide row is rewritten past
/// the endurance floor, so it carries fault sites at every width, while
/// the once-written rows mostly carry none below the narrower widths.
fn drive_stored_widths(mem: &mut MainMemory, seed: u64) -> Vec<Option<RowData>> {
    let mut rng = SimRng::seed_from_u64(seed);
    let row = |r| RowAddr::new(0, 0, 0, 0, r);
    let (narrow, wide, wide2, blank) = (row(0), row(1), row(2), row(3));
    let mut transcript = Vec::new();
    for (addr, bits, writes) in [(narrow, 100u64, 1), (wide, 1000, 12), (wide2, 1000, 1)] {
        for _ in 0..writes {
            let data: RowData = (0..bits).map(|_| rng.gen_bit()).collect();
            let ok = mem.write_row_local(addr, data).is_ok();
            transcript.push(ok.then(|| mem.peek_row(addr).expect("written").clone()));
        }
    }
    let sets: [&[RowAddr]; 7] = [
        &[narrow],
        &[wide],
        &[blank],
        &[narrow, wide],
        &[wide, wide2],
        &[wide2, blank],
        &[narrow, wide, wide2, blank],
    ];
    for cols in [37u64, 130, 700] {
        for ops in sets {
            let modes = match ops.len() {
                1 => vec![SenseMode::Read],
                2 => vec![
                    SenseMode::and(2).expect("AND-2"),
                    SenseMode::or(2).expect("OR-2"),
                ],
                n => vec![SenseMode::or(n).expect("OR-4")],
            };
            for mode in modes {
                transcript.push(mem.multi_activate_sense(ops, mode, cols).ok());
                match mem.multi_activate_sense_protected(ops, mode, cols) {
                    Ok(out) => transcript.push(Some(out)),
                    Err(_) => {
                        mem.note_rmw_fallback();
                        mem.note_recovery_resolved();
                        transcript.push(None);
                    }
                }
            }
            if let [addr] = ops {
                transcript.push(mem.activate_read(*addr, cols).ok());
            }
        }
    }
    transcript
}

/// The packed path reads operands in place whatever width they were
/// stored at: a narrower row reads as zero-extended, a wider one as cut
/// at `cols` with its tail masked, a never-written one as zeros. At
/// fan-ins 1, 2 and 4, protected or not, under every fault class and
/// under a model that cannot create a fault site, it matches the per-cell
/// reference bit for bit.
#[test]
fn packed_path_reads_rows_of_any_stored_width_in_place() {
    let mut injected = [0u64; 2];
    for seed in [3u64, 4] {
        let models = [
            ("all classes", all_classes(seed, VariationModel::Gaussian)),
            ("site-free", site_free(seed)),
        ];
        for (m, (name, model)) in models.into_iter().enumerate() {
            for protected in [false, true] {
                let reliability = if protected {
                    ReliabilityConfig::protected_secded()
                } else {
                    ReliabilityConfig::off()
                };
                let mut packed = physical_mem(model, reliability, false);
                let mut reference = physical_mem(model, reliability, true);
                let packed_out = drive_stored_widths(&mut packed, seed);
                let ref_out = drive_stored_widths(&mut reference, seed);
                let ctx = format!("seed {seed}, {name}, protected {protected}");
                assert_eq!(packed_out, ref_out, "{ctx}: transcripts diverge");
                let (packed_rel, ref_rel) =
                    (packed.stats().reliability, reference.stats().reliability);
                assert_eq!(packed_rel, ref_rel, "{ctx}: ledgers diverge");
                assert_eq!(
                    packed.stats().events,
                    reference.stats().events,
                    "{ctx}: command streams diverge"
                );
                assert_eq!(
                    packed.stats().time_ns,
                    reference.stats().time_ns,
                    "{ctx}: timing diverges"
                );
                assert!(packed_rel.is_consistent(), "{ctx}: {packed_rel:?}");
                injected[m] += packed_rel.injected_bit_errors + packed_rel.injected_write_faults;
            }
        }
    }
    assert!(
        injected.iter().all(|&n| n > 0),
        "both models must actually inject faults: {injected:?}"
    );
}

/// The SEC-DED read path rides the same packed physical fault machinery,
/// so the PR-4 equivalence matrix must hold under
/// [`ReliabilityConfig::protected_secded`] too: bit-identical transcripts,
/// ledgers (including the new ECC counters), command streams and timing
/// between the packed and per-cell-reference fault paths, with every
/// fault class active at once.
#[test]
fn secded_packed_fault_path_matches_reference_exactly() {
    let mut ecc_activity = 0u64;
    for seed in [1u64, 2] {
        for cols in [37u64, 130, 1000] {
            for variation in [VariationModel::BoundedUniform, VariationModel::Gaussian] {
                let model = all_classes(seed, variation);
                let reliability = ReliabilityConfig::protected_secded();
                let mut packed = physical_mem(model, reliability, false);
                let mut reference = physical_mem(model, reliability, true);
                let (packed_out, packed_rel) = drive_physical(&mut packed, seed, cols);
                let (ref_out, ref_rel) = drive_physical(&mut reference, seed, cols);
                let ctx = format!("secded: seed {seed}, cols {cols}, {variation:?}");
                assert_eq!(packed_out, ref_out, "{ctx}: transcripts diverge");
                assert_eq!(packed_rel, ref_rel, "{ctx}: ledgers diverge");
                assert_eq!(
                    packed.stats().events,
                    reference.stats().events,
                    "{ctx}: command streams diverge"
                );
                assert_eq!(
                    packed.stats().time_ns,
                    reference.stats().time_ns,
                    "{ctx}: timing diverges"
                );
                assert!(packed_rel.is_consistent(), "{ctx}: {packed_rel:?}");
                ecc_activity += packed_rel.ecc_corrected_bits + packed_rel.ecc_detected_double;
            }
        }
    }
    assert!(
        ecc_activity > 0,
        "the matrix must actually exercise the SEC-DED read path"
    );
}

/// Every 2-flip pattern across the whole 72-bit codeword — data+data,
/// data+check, check+check, and pairs involving the overall parity bit —
/// decodes as an explicit double-bit detection. These are exactly the
/// even-weight per-word patterns that alias per-word parity, so none of
/// them may be accepted or miscorrected.
#[test]
fn secded_detects_every_even_parity_aliasing_pair() {
    use pinatubo_mem::secded::{decode, encode, Decode};
    let mut state = 0x0DD5EEDu64;
    for _ in 0..3 {
        let word = splitmix64(&mut state);
        let check = encode(word);
        for i in 0..72u8 {
            for j in (i + 1)..72 {
                let mut w = word;
                let mut c = check;
                for bit in [i, j] {
                    if bit < 64 {
                        w ^= 1u64 << bit;
                    } else {
                        c ^= 1u8 << (bit - 64);
                    }
                }
                assert_eq!(
                    decode(w, c),
                    Decode::Double,
                    "word {word:#x}: flips at codeword bits {i},{j} must be detected"
                );
            }
        }
    }
}

/// Memory-level mirror of the codec property: on rows where stuck cells
/// flip exactly two bits of one word — the even-weight pattern per-word
/// parity would alias on — SEC-DED refuses the row explicitly; rows with a
/// single flipped bit come back corrected to the intended data without a
/// single retry-ladder invocation.
#[test]
fn secded_closes_the_parity_aliasing_blind_spot() {
    use pinatubo_mem::MemError;
    const ROWS: u32 = 256;
    const BITS: u64 = 64;
    let memory = |mode: ProtectionMode| {
        let mut config = MemConfig::pcm_default();
        config.fault_model = FaultModel::with_seed(0x0DD).with_stuck_at(5e-3, 5e-3);
        let mut reliability = match mode {
            ProtectionMode::None => ReliabilityConfig::off(),
            ProtectionMode::SecDed => ReliabilityConfig::protected_secded(),
        };
        reliability.verify_writes = false; // corruption must land
        config.reliability = reliability;
        MainMemory::new(config)
    };
    let addr = |r: u32| RowAddr::new(0, 0, 0, 0, r);
    let image = |r: u32| -> RowData {
        let mut rng = SimRng::seed_from_u64(0x0DD ^ u64::from(r));
        (0..BITS).map(|_| rng.gen_bit()).collect()
    };

    // Classify the deterministic stuck-cell corruption with an unprotected
    // scout; the classification transfers exactly to the measured runs.
    let mut scout = memory(ProtectionMode::None);
    let (mut singles, mut doubles) = (Vec::new(), Vec::new());
    for r in 0..ROWS {
        let want = image(r);
        scout.poke_row(addr(r), &want).expect("scout poke");
        match scout.peek_row(addr(r)).expect("stored").count_diff(&want) {
            1 => singles.push(r),
            2 => doubles.push(r),
            _ => {}
        }
    }
    assert!(
        !singles.is_empty() && !doubles.is_empty(),
        "seed must yield both classes: {} singles, {} doubles",
        singles.len(),
        doubles.len()
    );

    let mut secded = memory(ProtectionMode::SecDed);
    for &r in singles.iter().chain(&doubles) {
        secded.poke_row(addr(r), &image(r)).expect("poke");
    }
    for &r in &singles {
        let retries_before = secded.stats().reliability.sense_retries;
        let got = secded.activate_read(addr(r), BITS).expect("corrected");
        assert_eq!(got, image(r), "row {r}: corrected to the intended data");
        assert_eq!(
            secded.stats().reliability.sense_retries,
            retries_before,
            "row {r}: in-place correction must not touch the ladder"
        );
    }
    for &r in &doubles {
        assert!(
            matches!(
                secded.activate_read(addr(r), BITS),
                Err(MemError::UncorrectableRead { .. })
            ),
            "row {r}: a double flip must fail explicitly under SEC-DED"
        );
    }
    let sr = secded.stats().reliability;
    assert!(sr.is_consistent(), "{sr:?}");
    assert_eq!(sr.silent_wrong_bits, 0, "{sr:?}");
    assert_eq!(sr.ecc_corrected_bits, singles.len() as u64);
    assert_eq!(sr.ecc_detected_double, doubles.len() as u64);
    assert_eq!(sr.uncorrectable_errors, doubles.len() as u64, "{sr:?}");
    // Pinned fixed-seed class sizes: a change to the stuck-at draw keying
    // shows up here before it reaches the tables.
    assert_eq!(
        (singles.len(), doubles.len()),
        (67, 12),
        "pinned class sizes"
    );
}

/// The event counters themselves are part of the pinned ledger: every
/// physical sense and every physical write consumes exactly one event on
/// both paths, so retries and verify re-reads advance the fault stream
/// identically.
#[test]
fn both_paths_consume_one_event_per_physical_operation() {
    for reference in [false, true] {
        let model = all_classes(9, VariationModel::Gaussian);
        let mut mem = physical_mem(model, ReliabilityConfig::off(), reference);
        let rows: Vec<RowAddr> = (0..4).map(|r| RowAddr::new(0, 0, 0, 0, r)).collect();
        for &row in &rows {
            let data: RowData = (0..256).map(|i| i % 3 == 0).collect();
            mem.poke_row(row, &data).expect("poke");
        }
        let before = mem.stats().reliability;
        mem.multi_activate_sense(&rows, SenseMode::or(4).expect("OR-4"), 256)
            .expect("sense");
        let after = mem.stats().reliability;
        assert_eq!(
            after.physical_senses - before.physical_senses,
            1,
            "reference={reference}: one sense, one event"
        );
        assert_eq!(
            after.physical_writes, 4,
            "reference={reference}: four pokes, four events"
        );
    }
}
