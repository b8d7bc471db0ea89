use super::*;
use crate::stats::ReliabilityStats;
use pinatubo_nvm::NvmError;

fn mem() -> MainMemory {
    MainMemory::new(MemConfig::pcm_default())
}

fn addr(subarray: u32, row: u32) -> RowAddr {
    RowAddr::new(0, 0, 0, subarray, row)
}

#[test]
fn or_of_two_rows_is_functional() {
    let mut m = mem();
    m.poke_row(addr(0, 0), &RowData::from_bits(&[true, false, true, false]))
        .expect("poke a");
    m.poke_row(addr(0, 1), &RowData::from_bits(&[false, false, true, true]))
        .expect("poke b");
    let out = m
        .multi_activate_sense(&[addr(0, 0), addr(0, 1)], SenseMode::or(2).expect("or2"), 4)
        .expect("2-row OR");
    assert_eq!(out.bits(4), vec![true, false, true, true]);
}

#[test]
fn and_of_two_rows_is_functional() {
    let mut m = mem();
    m.poke_row(addr(0, 0), &RowData::from_bits(&[true, true, false, false]))
        .expect("poke a");
    m.poke_row(addr(0, 1), &RowData::from_bits(&[true, false, true, false]))
        .expect("poke b");
    let out = m
        .multi_activate_sense(
            &[addr(0, 0), addr(0, 1)],
            SenseMode::and(2).expect("and2"),
            4,
        )
        .expect("2-row AND");
    assert_eq!(out.bits(4), vec![true, false, false, false]);
}

#[test]
fn absent_rows_read_as_zeros() {
    let mut m = mem();
    let out = m.activate_read(addr(3, 77), 8).expect("read empty row");
    assert_eq!(out.count_ones(), 0);
}

#[test]
fn multi_row_or_accumulates_128_rows() {
    let mut m = mem();
    let rows: Vec<RowAddr> = (0..128).map(|r| addr(0, r)).collect();
    // One hot bit somewhere in the middle.
    m.poke_row(addr(0, 64), &RowData::from_bits(&[false, true]))
        .expect("poke");
    let out = m
        .multi_activate_sense(&rows, SenseMode::or(128).expect("or128"), 2)
        .expect("128-row OR");
    assert_eq!(out.bits(2), vec![false, true]);
    assert_eq!(m.stats().events.rows_activated, 128);
    assert_eq!(m.stats().events.multi_activates, 1);
}

/// The blocked functional combine equals a per-bit fold over the operand
/// rows read back with `peek_row` (zero-extended, cut at `cols`): Read,
/// OR at fan-ins 2–17 and 128 with a repeated operand, and AND, at widths
/// on both sides of a word and of a combine block, over rows stored
/// narrower than `cols`, as wide, wider, or never written.
#[test]
fn combine_matches_a_per_bit_reference() {
    let row_bits = MemGeometry::pcm_default().logical_row_bits();
    let block_bits = 64 * COMBINE_BLOCK_WORDS as u64;
    let mut rng = pinatubo_nvm::rng::SimRng::seed_from_u64(0xB10C);
    for cols in [1, 63, 64, 65, block_bits - 64, block_bits + 64, row_bits] {
        // Row r is stored narrower than `cols` (r % 4 == 0), as wide (1),
        // wider (2, where a row can be) or never written (3), one bit in
        // four set so that wide ORs keep zeros.
        let mut m = mem();
        for r in 0..132u32 {
            let len = match r % 4 {
                0 => rng.gen_range_u64(0, cols),
                1 => cols,
                2 if cols < row_bits => rng.gen_range_u64(cols + 1, row_bits + 1),
                2 => cols,
                _ => continue,
            };
            let words = (0..len.div_ceil(64))
                .map(|_| rng.next_u64() & rng.next_u64())
                .collect();
            m.poke_row(addr(0, r), &RowData::from_words(words, len))
                .expect("poke");
        }
        let bits: Vec<Vec<bool>> = (0..132)
            .map(|r| {
                let row = m.peek_row(addr(0, r));
                (0..cols)
                    .map(|i| row.is_some_and(|row| i < row.len_bits() && row.get(i)))
                    .collect()
            })
            .collect();
        let mut check = |rows: &[u32], mode: SenseMode, want: &[bool]| {
            let operands: Vec<RowAddr> = rows.iter().map(|&r| addr(0, r)).collect();
            let got = m
                .multi_activate_sense(&operands, mode, cols)
                .expect("fault-free sense");
            assert!(
                got == RowData::from_bits(want),
                "{mode} of rows {rows:?} at {cols} bits"
            );
        };
        // The first operand takes each storage class in turn.
        for first in 0..4u32 {
            // OR-k senses `rows[..k]`, whose fourth entry repeats the first.
            let mut rows: Vec<u32> = (first..first + 128).collect();
            rows[3] = first;
            let mut want = bits[first as usize].clone();
            check(&rows[..1], SenseMode::Read, &want);
            for k in 2..=128 {
                let next = &bits[rows[k - 1] as usize];
                for (i, bit) in want.iter_mut().enumerate() {
                    *bit |= next[i];
                }
                if k <= 17 || k == 128 {
                    check(&rows[..k], SenseMode::or(k).expect("or"), &want);
                }
            }
            // AND with a row of each class, and with itself.
            for second in [first, 4, 5, 6, 7] {
                let want: Vec<bool> = bits[first as usize]
                    .iter()
                    .zip(&bits[second as usize])
                    .map(|(&a, &b)| a && b)
                    .collect();
                check(&[first, second], SenseMode::And, &want);
            }
        }
    }
}

#[test]
fn cross_subarray_activation_is_rejected() {
    let mut m = mem();
    let err = m
        .multi_activate_sense(&[addr(0, 0), addr(1, 0)], SenseMode::or(2).expect("or2"), 4)
        .expect_err("different subarrays cannot co-activate");
    assert!(matches!(err, MemError::SubarrayMismatch { .. }));
}

#[test]
fn fan_in_beyond_margin_is_rejected() {
    let mut m = mem();
    let rows: Vec<RowAddr> = (0..129).map(|r| addr(0, r)).collect();
    let err = m
        .multi_activate_sense(&rows, SenseMode::Or { fan_in: 129 }, 4)
        .expect_err("129-row OR exceeds PCM margin");
    assert_eq!(
        err,
        MemError::Nvm(NvmError::FanInExceeded {
            requested: 129,
            supported: 128
        })
    );
}

#[test]
fn operand_count_must_match_mode() {
    let mut m = mem();
    let err = m
        .multi_activate_sense(&[addr(0, 0)], SenseMode::or(2).expect("or2"), 4)
        .expect_err("one operand under an OR-2 reference");
    assert_eq!(err, MemError::Nvm(NvmError::DegenerateFanIn));
}

#[test]
fn dram_memory_cannot_multi_sense() {
    let mut m = MainMemory::new(MemConfig::dram_default());
    assert_eq!(m.max_or_fan_in(), 1);
    let err = m
        .multi_activate_sense(&[addr(0, 0), addr(0, 1)], SenseMode::or(2).expect("or2"), 4)
        .expect_err("DRAM has no current SA");
    assert!(matches!(err, MemError::Nvm(NvmError::FanInExceeded { .. })));
}

#[test]
fn timing_adds_up_for_multi_activate() {
    let mut m = mem();
    let rows: Vec<RowAddr> = (0..4).map(|r| addr(0, r)).collect();
    let cols = m.geometry().bits_per_sense_pass(); // exactly one pass
    m.multi_activate_sense(&rows, SenseMode::or(4).expect("or4"), cols)
        .expect("4-row OR");
    let t = TimingParams::pcm_ddr3_1600();
    let expect = t.multi_activate_ns(4) + t.t_cl_ns + t.t_rp_ns;
    assert!(
        (m.stats().time_ns - expect).abs() < 1e-9,
        "{}",
        m.stats().time_ns
    );
    assert_eq!(m.stats().events.sense_passes, 1);
}

#[test]
fn sense_passes_scale_with_cols() {
    let mut m = mem();
    let per_pass = m.geometry().bits_per_sense_pass();
    m.activate_read(addr(0, 0), per_pass * 3 + 1).expect("read");
    assert_eq!(m.stats().events.sense_passes, 4);
}

#[test]
fn local_write_back_skips_gdl_and_bus() {
    let mut m = mem();
    let data = RowData::from_bits(&[true; 64]);
    m.write_row_local(addr(0, 9), data.clone())
        .expect("local write");
    assert_eq!(m.stats().energy.gdl_pj, 0.0);
    assert_eq!(m.stats().energy.bus_pj, 0.0);
    assert!(m.stats().energy.write_pj > 0.0);
    assert_eq!(
        m.peek_row(addr(0, 9)).expect("stored").bits(2),
        vec![true, true]
    );
}

#[test]
fn bus_write_charges_every_stage() {
    let mut m = mem();
    let data = RowData::from_bits(&[true; 64]);
    m.write_row_over_bus(addr(0, 9), data.clone())
        .expect("bus write");
    assert!(m.stats().energy.bus_pj > 0.0);
    assert!(m.stats().energy.gdl_pj > 0.0);
    assert!(m.stats().energy.write_pj > 0.0);
    assert_eq!(m.stats().events.bus_bits, 64);
}

#[test]
fn bus_read_costs_more_time_than_buffer_read() {
    let mut a = mem();
    let mut b = mem();
    let cols = 1 << 16;
    a.read_row_over_bus(addr(0, 0), cols).expect("bus read");
    b.read_row_to_buffer(addr(0, 0), cols).expect("buffer read");
    assert!(a.stats().time_ns > b.stats().time_ns);
}

#[test]
fn buffer_logic_combines_and_charges() {
    let mut m = mem();
    let mut acc = RowData::from_bits(&[true, false, true]);
    let op = RowData::from_bits(&[false, true, true]);
    m.buffer_logic(PimConfig::Xor, &mut acc, &op, 3)
        .expect("xor in buffer");
    assert_eq!(acc.bits(3), vec![true, true, false]);
    assert!(m.stats().energy.logic_pj > 0.0);
    assert_eq!(m.stats().events.logic_passes, 1);

    let err = m
        .buffer_logic(PimConfig::Off, &mut acc, &op, 3)
        .expect_err("OFF is not a combining mode");
    assert!(matches!(err, MemError::Nvm(_)));
}

#[test]
fn mode_register_set_is_cached() {
    let mut m = mem();
    m.set_pim_config(PimConfig::Or);
    m.set_pim_config(PimConfig::Or);
    assert_eq!(m.stats().events.mode_sets, 1);
    m.set_pim_config(PimConfig::And);
    assert_eq!(m.stats().events.mode_sets, 2);
}

#[test]
fn take_stats_resets() {
    let mut m = mem();
    m.activate_read(addr(0, 0), 8).expect("read");
    let taken = m.take_stats();
    assert!(taken.time_ns > 0.0);
    assert_eq!(m.stats().time_ns, 0.0);
}

#[test]
fn invert_in_sense_amp_is_differential() {
    let m = mem();
    let data = RowData::from_bits(&[true, false, true]);
    let inv = m.invert_in_sense_amp(data.clone());
    assert_eq!(inv.bits(3), vec![false, true, false]);
}

#[test]
fn closed_page_policy_never_hits() {
    let mut m = mem();
    m.activate_read(addr(0, 5), 64).expect("first");
    m.activate_read(addr(0, 5), 64).expect("second");
    assert_eq!(m.stats().events.row_buffer_hits, 0);
    assert_eq!(m.stats().events.precharges, 2);
}

#[test]
fn wear_tracks_charged_writes_only() {
    let mut m = mem();
    let data = RowData::from_bits(&[true; 8]);
    // Pokes are setup: no wear.
    m.poke_row(addr(0, 1), &data).expect("poke");
    assert_eq!(m.wear_report().total_row_writes, 0);

    m.write_row_local(addr(0, 1), data.clone())
        .expect("write 1");
    m.write_row_local(addr(0, 1), data.clone())
        .expect("write 2");
    m.write_row_local(addr(0, 2), data.clone())
        .expect("write 3");
    let report = m.wear_report();
    assert_eq!(report.total_row_writes, 3);
    assert_eq!(report.rows_written, 2);
    assert_eq!(report.max_row_writes, 2);
    assert!((report.imbalance() - 2.0 / 1.5).abs() < 1e-12);
    assert_eq!(m.row_wear(addr(0, 1)), 2);
    assert_eq!(m.row_wear(addr(0, 9)), 0);
}

#[test]
fn time_breakdown_sums_to_time_ns() {
    let mut m = mem();
    m.set_pim_config(PimConfig::Or);
    let rows: Vec<RowAddr> = (0..4).map(|r| addr(0, r)).collect();
    m.multi_activate_sense(&rows, SenseMode::or(4).expect("or4"), 64)
        .expect("or");
    let data = RowData::from_bits(&[true; 64]);
    m.write_row_over_bus(addr(0, 9), data.clone())
        .expect("bus write");
    m.write_row_local(addr(0, 10), data.clone())
        .expect("local write");
    m.read_row_to_buffer(addr(0, 9), 64).expect("buffer read");

    let s = m.stats();
    assert!(
        (s.time.total_ns() - s.time_ns).abs() < 1e-9,
        "breakdown {} vs scalar {}",
        s.time.total_ns(),
        s.time_ns
    );
    assert!(s.time.mrs_ns > 0.0);
    assert!(s.time.activate_ns > 0.0);
    assert!(s.time.sense_ns > 0.0);
    assert!(s.time.write_ns > 0.0);
    assert!(s.time.gdl_ns > 0.0);
    assert!(s.time.bus_ns > 0.0);
    assert!(s.time.precharge_ns > 0.0);
    assert_eq!(s.time.stall_ns, 0.0, "default timings never stall");
    assert!((s.time.shared_ns() - (s.time.bus_ns + s.time.mrs_ns)).abs() < 1e-12);
}

#[test]
fn default_parameters_never_stall_activations() {
    let mut m = mem();
    // Back-to-back activations on different banks of one rank — the
    // densest ACT pattern a serial stream can produce.
    for bank in 0..8 {
        m.activate_read(RowAddr::new(0, 0, bank, 0, 0), 64)
            .expect("read");
    }
    assert_eq!(m.stats().time.stall_ns, 0.0);
}

#[test]
fn tight_trrd_stalls_back_to_back_activations() {
    let mut cfg = MemConfig::pcm_default();
    cfg.timing.t_rrd_ns = 1000.0;
    let mut m = MainMemory::new(cfg);
    m.activate_read(RowAddr::new(0, 0, 0, 0, 0), 64).expect("a");
    let after_first = m.stats().time_ns; // 18.3 + 8.9 + 7.8 = 35.0
    m.activate_read(RowAddr::new(0, 0, 1, 0, 0), 64).expect("b");
    // The second ACT (to another bank, same rank) waited until
    // 0 + tRRD = 1000, i.e. a stall of 1000 - 35.
    let expect_stall = 1000.0 - after_first;
    assert!(
        (m.stats().time.stall_ns - expect_stall).abs() < 1e-9,
        "stall {} vs {}",
        m.stats().time.stall_ns,
        expect_stall
    );
    assert!((m.stats().time.total_ns() - m.stats().time_ns).abs() < 1e-9);

    // A different rank has its own window: no extra stall.
    let stalled = m.stats().time.stall_ns;
    m.activate_read(RowAddr::new(0, 1, 0, 0, 0), 64).expect("c");
    assert!((m.stats().time.stall_ns - stalled).abs() < 1e-9);
}

#[test]
fn tight_tfaw_gates_the_fifth_activation() {
    let mut cfg = MemConfig::pcm_default();
    cfg.timing.t_faw_ns = 10_000.0;
    let mut m = MainMemory::new(cfg);
    for bank in 0..4 {
        m.activate_read(RowAddr::new(0, 0, bank, 0, 0), 64)
            .expect("read");
    }
    assert_eq!(m.stats().time.stall_ns, 0.0, "first four are free");
    m.activate_read(RowAddr::new(0, 0, 4, 0, 0), 64).expect("e");
    // The fifth ACT waits for the window opened by the first (issued
    // at time 0): stall = tFAW - 4 serial commands of 35 ns.
    let expect_stall = 10_000.0 - 4.0 * 35.0;
    assert!(
        (m.stats().time.stall_ns - expect_stall).abs() < 1e-9,
        "stall {}",
        m.stats().time.stall_ns
    );
}

#[test]
fn take_stats_clears_the_activation_history() {
    let mut cfg = MemConfig::pcm_default();
    cfg.timing.t_rrd_ns = 1000.0;
    let mut m = MainMemory::new(cfg);
    m.activate_read(RowAddr::new(0, 0, 0, 0, 0), 64).expect("a");
    m.take_stats();
    // On a fresh clock the old issue times must not gate anything.
    m.activate_read(RowAddr::new(0, 0, 1, 0, 0), 64).expect("b");
    assert_eq!(m.stats().time.stall_ns, 0.0);
}

/// Splitting a channel off into a shard (`clone_channel`) carries its
/// activation window as relative offsets.
#[test]
fn split_carries_relative_activation_history() {
    let mut cfg = MemConfig::pcm_default();
    cfg.timing.t_rrd_ns = 1000.0;
    let mut parent = MainMemory::new(cfg);
    parent
        .activate_read(RowAddr::new(0, 0, 0, 0, 0), 64)
        .expect("parent act");
    let parent_now = parent.stats().time_ns; // 35.0
    let mut shard = parent.clone_channel(0);
    assert!(
        parent.act_history.is_empty(),
        "the history moved with the shard"
    );
    // The shard's clock starts at zero, but the parent's activation
    // was only 35 ns ago — the shard's first ACT must still honour
    // the 1000 ns window: stall = (0 - 35 + 1000) - 0 = 965.
    shard
        .activate_read(RowAddr::new(0, 0, 1, 0, 0), 64)
        .expect("shard act");
    let expect_stall = 1000.0 - parent_now;
    assert!(
        (shard.stats().time.stall_ns - expect_stall).abs() < 1e-9,
        "shard stall {} vs {}",
        shard.stats().time.stall_ns,
        expect_stall
    );
}

/// Folding a shard back in (stats merged, then its delta applied, as
/// the session sync does) re-anchors the shard's window on the
/// parent's advanced clock.
#[test]
fn absorb_rebases_the_shard_history_onto_the_parent_clock() {
    let mut cfg = MemConfig::pcm_default();
    cfg.timing.t_rrd_ns = 1000.0;
    let mut parent = MainMemory::new(cfg);
    parent
        .activate_read(RowAddr::new(0, 0, 0, 0, 0), 64)
        .expect("act 1");
    let mut shard = parent.clone_channel(0);
    shard
        .activate_read(RowAddr::new(0, 0, 1, 0, 0), 64)
        .expect("act 2"); // issues at shard-time 965
    let deltas = shard.take_dirty_state();
    parent.merge_stats(shard.take_stats());
    for delta in deltas {
        parent.apply_delta(delta);
    }
    // Serial would run the three activations at 0, 1000 and 2000:
    // the synced history must gate the third exactly the same way.
    parent
        .activate_read(RowAddr::new(0, 0, 2, 0, 0), 64)
        .expect("act 3");
    let expect_total_stall = 2.0 * (1000.0 - 35.0);
    assert!(
        (parent.stats().time.stall_ns - expect_total_stall).abs() < 1e-9,
        "total stall {} vs {}",
        parent.stats().time.stall_ns,
        expect_total_stall
    );
}

#[test]
fn dirty_delta_carries_relative_activation_history() {
    let mut cfg = MemConfig::pcm_default();
    cfg.timing.t_rrd_ns = 1000.0;
    let mut parent = MainMemory::new(cfg);
    let mut shard = parent.clone_channel(0);
    shard
        .activate_read(RowAddr::new(0, 0, 0, 0, 0), 64)
        .expect("shard act");
    let deltas = shard.take_dirty_state();
    let with_acts: Vec<_> = deltas
        .iter()
        .filter(|d| !d.act_history.is_empty())
        .collect();
    assert_eq!(with_acts.len(), 1, "the gated channel ships its window");
    assert!(
        with_acts[0].act_history[0].1.iter().all(|&r| r <= 0.0),
        "offsets are relative to the sender's clock, hence non-positive"
    );
    for delta in deltas {
        parent.apply_delta(delta);
    }
    // The parent's clock never advanced (it executed nothing), so the
    // re-anchored entry sits 35 ns in its past and gates exactly as
    // the shard's own next activation would have.
    parent
        .activate_read(RowAddr::new(0, 0, 1, 0, 0), 64)
        .expect("parent act");
    let expect_stall = 1000.0 - 35.0;
    assert!(
        (parent.stats().time.stall_ns - expect_stall).abs() < 1e-9,
        "parent stall {} vs {}",
        parent.stats().time.stall_ns,
        expect_stall
    );
}

#[test]
fn worn_rows_respect_the_threshold_and_sort() {
    let mut m = mem();
    let data = RowData::from_bits(&[true; 8]);
    let hot = RowAddr::new(1, 0, 2, 3, 7);
    let warm = RowAddr::new(0, 1, 0, 0, 1);
    let cold = RowAddr::new(0, 0, 0, 0, 0);
    for _ in 0..5 {
        m.write_row_local(hot, data.clone()).expect("hot");
    }
    for _ in 0..3 {
        m.write_row_local(warm, data.clone()).expect("warm");
    }
    m.write_row_local(cold, data.clone()).expect("cold");

    assert_eq!(m.row_wear(hot), 5);
    assert_eq!(m.row_wear(warm), 3);
    assert_eq!(m.row_wear(cold), 1);
    // Threshold is inclusive (`>= limit`) and the result is sorted.
    assert_eq!(m.worn_rows(3), vec![warm, hot]);
    assert_eq!(m.worn_rows(5), vec![hot]);
    assert_eq!(m.worn_rows(6), Vec::<RowAddr>::new());
    // Every charged write path wears the row; pokes never do.
    m.write_row_over_bus(cold, data.clone()).expect("bus");
    m.write_row_from_buffer(cold, data.clone()).expect("buffer");
    assert_eq!(m.row_wear(cold), 3);
    m.poke_row(cold, &data).expect("poke");
    assert_eq!(m.row_wear(cold), 3);
}

#[test]
fn invalid_addresses_are_rejected_everywhere() {
    let mut m = mem();
    let bad = RowAddr::new(99, 0, 0, 0, 0);
    let data = RowData::from_bits(&[true]);
    assert!(matches!(
        m.poke_row(bad, &data),
        Err(MemError::AddressOutOfRange { .. })
    ));
    assert!(matches!(
        m.write_row_local(bad, data.clone()),
        Err(MemError::AddressOutOfRange { .. })
    ));
    assert!(matches!(
        m.activate_read(bad, 1),
        Err(MemError::AddressOutOfRange { .. })
    ));
}

#[test]
fn zero_cols_is_rejected() {
    let mut m = mem();
    assert_eq!(
        m.activate_read(addr(0, 0), 0).expect_err("zero columns"),
        MemError::EmptyOperation
    );
}

#[test]
fn cols_beyond_row_is_rejected() {
    let mut m = mem();
    let row_bits = m.geometry().logical_row_bits();
    assert!(matches!(
        m.activate_read(addr(0, 0), row_bits + 1),
        Err(MemError::ColsExceedRow { .. })
    ));
}

// ---- fault injection & recovery ----

/// A PCM memory with the given fault model and reliability policy.
fn faulty_mem(model: FaultModel, reliability: ReliabilityConfig) -> MainMemory {
    let mut config = MemConfig::pcm_default();
    config.fault_model = model;
    config.reliability = reliability;
    MainMemory::new(config)
}

/// A fault model that is *active* (so the physical sense path runs)
/// but injects nothing: every probability is zero except a transient
/// rate far below anything a finite random stream can hit.
fn benign_model() -> FaultModel {
    FaultModel::with_seed(7).with_transients(1e-300, 1e-300, 1e-300)
}

#[test]
fn none_model_disables_injection_even_with_protection_on() {
    let mut m = faulty_mem(FaultModel::none(), ReliabilityConfig::protected_secded());
    assert!(!m.fault_injection_active());
    let mut plain = mem();
    let pattern = RowData::from_bits(&[true, false, true, true]);
    for target in [&mut m, &mut plain] {
        target.poke_row(addr(0, 0), &pattern).expect("poke");
        target.poke_row(addr(0, 1), &pattern).expect("poke");
        let out = target
            .multi_activate_sense_protected(
                &[addr(0, 0), addr(0, 1)],
                SenseMode::or(2).expect("or2"),
                4,
            )
            .expect("protected OR");
        assert_eq!(out.bits(4), vec![true, false, true, true]);
    }
    assert_eq!(m.stats(), plain.stats(), "none model must be bit-identical");
    assert!(m.stats().reliability.is_zero());
}

#[test]
fn physical_sense_path_is_exact_when_faults_never_fire() {
    let mut m = faulty_mem(benign_model(), ReliabilityConfig::off());
    assert!(m.fault_injection_active());
    m.poke_row(addr(0, 0), &RowData::from_bits(&[true, false, true, false]))
        .expect("poke a");
    m.poke_row(addr(0, 1), &RowData::from_bits(&[false, false, true, true]))
        .expect("poke b");
    let out = m
        .multi_activate_sense(&[addr(0, 0), addr(0, 1)], SenseMode::or(2).expect("or2"), 4)
        .expect("2-row OR");
    assert_eq!(out.bits(4), vec![true, false, true, true]);
    assert_eq!(m.stats().reliability.injected_bit_errors, 0);
    assert_eq!(m.stats().reliability.silent_wrong_bits, 0);
}

#[test]
fn verified_write_retries_through_transient_flips() {
    let mut cfg = ReliabilityConfig::protected_secded();
    cfg.max_write_retries = 40;
    // Seed chosen so the first write event flips bits and a later
    // attempt within the retry budget draws a clean event.
    let mut m = faulty_mem(FaultModel::with_seed(0x1D).with_write_flips(0.02), cfg);
    let data = RowData::from_bits(&[true; 32]);
    m.write_row_local(addr(0, 0), data.clone())
        .expect("write lands");
    assert_eq!(m.peek_row(addr(0, 0)).expect("stored"), &data);
    let r = m.stats().reliability;
    assert!(r.injected_write_faults > 0, "flips must have fired");
    assert!(r.write_retries > 0, "verify must have caught them");
    assert!(r.is_consistent(), "{r:?}");
    assert_eq!(r.silent_wrong_bits, 0);
}

#[test]
fn stuck_cells_defeat_verified_writes_explicitly() {
    let mut m = faulty_mem(
        FaultModel::with_seed(0xBAD).with_stuck_at(0.3, 0.0),
        ReliabilityConfig::protected_secded(),
    );
    let err = m
        .write_row_local(addr(0, 0), RowData::from_bits(&[true; 128]))
        .expect_err("stuck-at-0 cells cannot hold ones");
    assert!(matches!(err, MemError::UncorrectableWrite { .. }));
    let r = m.stats().reliability;
    assert!(r.uncorrectable_errors >= 1);
    assert!(r.is_consistent(), "{r:?}");
}

#[test]
fn secded_flags_unverified_bad_writes_on_read() {
    // Writes are not verified, so stuck cells corrupt the array
    // silently; the per-row SEC-DED check must catch it at read time.
    // Single flips per word are corrected in place; a double flip is
    // deterministic, so retries cannot fix it — the read must fail
    // *explicitly*. SEC-DED's blind spot (three or more flips inside
    // one 64-bit word) must land in the silent-wrong-bits ledger,
    // never go completely unaccounted.
    let mut cfg = ReliabilityConfig::protected_secded();
    cfg.verify_writes = false;
    let mut m = faulty_mem(FaultModel::with_seed(0xBAD).with_stuck_at(0.01, 0.0), cfg);
    let data = RowData::from_bits(&[true; 128]);
    let mut explicit_failures = 0u64;
    let mut escaped_bits = 0u64;
    for row in 0..16 {
        m.poke_row(addr(0, row), &data).expect("unverified poke");
        match m.activate_read(addr(0, row), 128) {
            Ok(got) => {
                let mut diff = got;
                diff.xor_assign(&data);
                escaped_bits += diff.count_ones();
            }
            Err(MemError::UncorrectableRead { .. }) => explicit_failures += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let r = m.stats().reliability;
    assert!(explicit_failures >= 1, "some rows must fail SEC-DED");
    assert!(r.detected_errors >= explicit_failures);
    assert!(r.sense_retries > 0, "the ladder must have retried");
    assert_eq!(
        r.silent_wrong_bits, escaped_bits,
        "every wrong bit in accepted data must be in the ledger"
    );
    assert!(r.is_consistent(), "{r:?}");
}

/// Cells stuck at 0 or at 1 (5 % each) and nothing else injected: a write
/// leaves wrong bits exactly where its image disagrees with a stuck cell,
/// and a sense returns the stored cells.
fn stuck_model() -> FaultModel {
    FaultModel::with_seed(0x57AC).with_stuck_at(0.05, 0.05)
}

/// [`ReliabilityConfig::protected_secded`] with writes left unverified, so
/// a write's wrong bits stay in the array.
fn unverified_secded() -> ReliabilityConfig {
    let mut cfg = ReliabilityConfig::protected_secded();
    cfg.verify_writes = false;
    cfg
}

/// A random `bits`-wide image for `at` that agrees with every stuck cell
/// of the row, so writing it leaves no wrong bit, and those stuck sites.
fn clean_image(
    m: &MainMemory,
    at: RowAddr,
    bits: u64,
    rng: &mut pinatubo_nvm::rng::SimRng,
) -> (RowData, Vec<(u64, bool)>) {
    let key = at.to_linear(m.geometry());
    let sites = m.config().fault_model.row_fault_sites(key, 1, bits);
    let mut image: RowData = (0..bits).map(|_| rng.gen_bit()).collect();
    for &(bit, held) in &sites {
        image.set(bit, held);
    }
    (image, sites)
}

#[test]
fn only_writes_that_leave_wrong_bits_keep_their_intended_image() {
    let mut parent = faulty_mem(stuck_model(), unverified_secded());
    let mut rng = pinatubo_nvm::rng::SimRng::seed_from_u64(0xC4EC);
    let row = ch_addr(1, 0, 0);

    // A clean write keeps no entry.
    let (clean, _) = clean_image(&parent, ch_addr(1, 0, 1), 1000, &mut rng);
    parent
        .write_row_local(ch_addr(1, 0, 1), clean.clone())
        .expect("write lands");
    assert_eq!(parent.peek_row(ch_addr(1, 0, 1)), Some(&clean));
    assert!(parent.protect.is_empty(), "a clean write keeps no image");

    // In a channel shard, a write that leaves wrong bits keeps the
    // intended image at its own length (2^12 + 69 bits, a partial last
    // word), and the sync ships it.
    let mut shard = parent.clone_channel(1);
    let long: RowData = (0..(1u64 << 12) + 69).map(|_| rng.gen_bit()).collect();
    shard
        .write_row_local(row, long.clone())
        .expect("unverified write lands");
    let stored = shard.peek_row(row).expect("stored");
    assert!(stored.count_diff(&long) > 0, "stuck cells must bite");
    assert_eq!(stored.len_bits(), long.len_bits());
    assert_eq!(shard.protect.get(&row), Some(&long));
    assert_eq!(shard.protect.len(), 1);
    sync_back(&mut parent, &mut shard);
    assert_eq!(parent.protect.get(&row), Some(&long));
    assert_eq!(parent.channel_digest(1), shard.channel_digest(1));

    // A shorter clean rewrite drops the image, and the drop ships as a
    // removal: the entry is gone on both sides and they digest equal.
    let (short, _) = clean_image(&shard, row, 64 * 10 + 5, &mut rng);
    shard
        .write_row_local(row, short.clone())
        .expect("write lands");
    assert_eq!(shard.peek_row(row), Some(&short));
    assert!(shard.protect.is_empty(), "a clean rewrite drops the image");
    sync_back(&mut parent, &mut shard);
    assert!(parent.protect.is_empty(), "the removal ships to the parent");
    assert_eq!(parent.peek_row(row), Some(&short));
    assert_eq!(parent.channel_digest(1), shard.channel_digest(1));
}

/// The full-row oracle of one SEC-DED check: decodes *every* checkable
/// word of `sensed` with the per-bit reference codec against the check
/// bytes of `intended`, correcting single-bit words in place. `None` on a
/// double-bit word, else the corrected row, the data bits flipped back and
/// the corrected word indices.
fn reference_scan(intended: &RowData, mut sensed: RowData) -> Option<(RowData, u64, Vec<usize>)> {
    use crate::secded::{decode_reference, encode_reference, Decode};
    let cols = sensed.len_bits();
    let stored = intended.len_bits();
    let checkable = if cols >= stored {
        stored.div_ceil(64)
    } else {
        cols / 64
    };
    let mut bits = 0;
    let mut words = Vec::new();
    for w in 0..checkable as usize {
        let word = &mut sensed.as_words_mut()[w];
        match decode_reference(*word, encode_reference(intended.as_words()[w])) {
            Decode::Clean => {}
            Decode::Double => return None,
            Decode::Single(bit) => {
                if let Some(bit) = bit {
                    if w as u64 * 64 + u64::from(bit) < cols {
                        *word ^= 1 << bit;
                        bits += 1;
                    }
                }
                words.push(w);
            }
        }
    }
    Some((sensed, bits, words))
}

/// The accepted row (`None` for an uncorrectable read) and the reliability
/// ledger of one SEC-DED read of `sensed`, by [`reference_scan`]: a
/// corrected read counts one detected and corrected error, a double-bit
/// read re-senses up to `retries` times (each re-sense returns
/// `resensed`), and the wrong bits of the accepted row outside its
/// corrected words are silent.
fn reference_read(
    intended: &RowData,
    truth: &RowData,
    sensed: RowData,
    resensed: &RowData,
    retries: u32,
) -> (Option<RowData>, ReliabilityStats) {
    let mut r = ReliabilityStats::default();
    let accept = |r: &mut ReliabilityStats, (out, bits, words): (RowData, u64, Vec<usize>)| {
        let mut wrong = out.clone();
        wrong.xor_assign(truth);
        let repaired: u64 = words
            .iter()
            .map(|&w| u64::from(wrong.as_words()[w].count_ones()))
            .sum();
        r.ecc_corrected_bits += bits;
        r.silent_wrong_bits += wrong.count_ones() - repaired;
        Some(out)
    };
    if let Some(scan) = reference_scan(intended, sensed) {
        if !scan.2.is_empty() {
            r.detected_errors += 1;
            r.corrected_errors += 1;
        }
        let out = accept(&mut r, scan);
        return (out, r);
    }
    r.detected_errors += 1;
    r.ecc_detected_double += 1;
    for _ in 0..retries {
        r.sense_retries += 1;
        r.physical_senses += 1;
        r.injected_bit_errors += resensed.count_diff(truth);
        if let Some(scan) = reference_scan(intended, resensed.clone()) {
            r.corrected_errors += 1;
            let out = accept(&mut r, scan);
            return (out, r);
        }
    }
    r.uncorrectable_errors += 1;
    (None, r)
}

#[test]
fn secded_scan_matches_a_full_row_reference_scan() {
    let mut m = faulty_mem(stuck_model(), unverified_secded());
    let mut rng = pinatubo_nvm::rng::SimRng::seed_from_u64(0xD1FF);
    // Ten words, the last one partial.
    let width = 64 * 9 + 37;
    let retries = m.config().reliability.max_sense_retries;
    let rows: Vec<RowAddr> = (0..4).map(|r| addr(0, r)).collect();
    let mut clean = Vec::new();
    let mut intended = Vec::new();
    for (k, &at) in rows.iter().enumerate() {
        let (image, sites) = clean_image(&m, at, width, &mut rng);
        // Row k leaves k wrong bits in one word: its image disagrees
        // with k stuck cells of the word holding the most of them.
        let mut want = image.clone();
        let word = (0..10)
            .max_by_key(|&w| sites.iter().filter(|&&(b, _)| b / 64 == w).count())
            .expect("ten words");
        let in_word: Vec<u64> = sites
            .iter()
            .filter(|&&(b, _)| b / 64 == word)
            .map(|&(b, _)| b)
            .collect();
        assert!(in_word.len() >= 3, "row {k}: {} stuck cells", in_word.len());
        for &bit in &in_word[..k] {
            want.set(bit, !want.get(bit));
        }
        m.write_row_local(at, want.clone())
            .expect("unverified write lands");
        let stored = m.peek_row(at).expect("stored");
        assert_eq!(stored.count_diff(&want), k as u64);
        assert_eq!(m.protect.contains_key(&at), k > 0);
        clean.push(image);
        intended.push(want);
    }

    // Flip patterns: none, one bit in word 0, two in word 1, three in
    // word 2, a single flip in the stored tail's last word and one past the
    // stored width (only sensed by the wider read).
    let patterns: [&[u64]; 6] = [
        &[],
        &[5],
        &[64 + 3, 64 + 40],
        &[128, 128 + 17, 128 + 63],
        &[9 * 64 + 2],
        &[width + 11],
    ];
    let mut verdicts = [0u32; 3];
    for pass in ["as written", "rewritten clean"] {
        for (k, &at) in rows.iter().enumerate() {
            for cols in [width - 70, width, width + 100] {
                for flips in patterns {
                    let truth = m.load(at, cols);
                    // A re-sense reads every stuck cell below `cols`,
                    // past the stored width too.
                    let key = at.to_linear(m.geometry());
                    let mut resensed = truth.clone();
                    for (bit, held) in stuck_model().row_fault_sites(key, 1, cols) {
                        resensed.set(bit, held);
                    }
                    let mut sensed = truth.clone();
                    for &bit in flips.iter().filter(|&&b| b < cols) {
                        sensed.set(bit, !sensed.get(bit));
                    }
                    let before = m.stats().reliability;
                    let got = m.secded_read(at, cols, sensed.clone(), &truth).ok();
                    let ledger = m.stats().reliability - before;
                    let (want, want_ledger) =
                        reference_read(&intended[k], &truth, sensed, &resensed, retries);
                    let case = format!("{pass}, row {k}, cols {cols}, flips {flips:?}");
                    assert_eq!(got, want, "{case}");
                    assert_eq!(ledger, want_ledger, "{case}");
                    let verdict = if want_ledger.ecc_detected_double > 0 {
                        2
                    } else {
                        usize::from(want_ledger.detected_errors > 0)
                    };
                    verdicts[verdict] += 1;
                }
            }
        }
        // Rewrite every row clean: each kept image is dropped, and the
        // stored row is the intended data again.
        for (k, &at) in rows.iter().enumerate() {
            m.write_row_local(at, clean[k].clone())
                .expect("clean write lands");
            intended[k] = clean[k].clone();
        }
        assert!(m.protect.is_empty());
    }
    assert!(
        verdicts.iter().all(|&n| n > 0),
        "clean, corrected and double reads all covered: {verdicts:?}"
    );
}

#[test]
fn wide_or_splits_at_the_reliable_fan_in() {
    let mut cfg = ReliabilityConfig::protected_secded();
    cfg.reliable_fan_in = ReliableFanIn::Fixed(4);
    let mut m = faulty_mem(benign_model(), cfg);
    assert_eq!(m.reliable_or_fan_in(), 4);
    let rows: Vec<RowAddr> = (0..8).map(|r| addr(0, r)).collect();
    m.poke_row(addr(0, 6), &RowData::from_bits(&[false, true]))
        .expect("poke");
    let out = m
        .multi_activate_sense_protected(&rows, SenseMode::or(8).expect("or8"), 2)
        .expect("split OR");
    assert_eq!(out.bits(2), vec![false, true]);
    let r = m.stats().reliability;
    assert_eq!(r.fan_in_splits, 1);
    assert_eq!(
        m.stats().events.multi_activates,
        2,
        "8 rows at limit 4 means two OR-4 chunks"
    );
    assert!(r.is_consistent(), "{r:?}");
}

#[test]
fn unstable_sense_surfaces_after_bounded_retries() {
    // A transient rate of 0.5 per cell makes duplicate senses disagree
    // essentially always: the ladder must exhaust its retries and hand
    // the decision up instead of looping or returning garbage.
    let mut m = faulty_mem(
        FaultModel::with_seed(0xF1).with_transients(0.0, 0.5, 0.0),
        ReliabilityConfig::protected_secded(),
    );
    let rows = [addr(0, 0), addr(0, 1)];
    let err = m
        .multi_activate_sense_protected(&rows, SenseMode::or(2).expect("or2"), 64)
        .expect_err("duplicate senses cannot agree at 50% flip rate");
    assert!(matches!(err, MemError::SenseUnstable { .. }));
    let r = m.stats().reliability;
    assert!(r.detected_errors >= 1);
    assert_eq!(
        r.sense_retries, 3,
        "protected_secded() allows three retries"
    );
    // The caller now resolves it; mimic the engine's RMW fallback so
    // the ledger closes.
    m.note_rmw_fallback();
    m.note_recovery_resolved();
    let r = m.stats().reliability;
    assert_eq!(r.rmw_fallbacks, 1);
    assert!(r.is_consistent(), "{r:?}");
}

#[test]
fn recovery_charges_real_time_and_energy() {
    // The ladder is not free: a run with retries must cost strictly
    // more than the same run fault-free.
    let mut clean = mem();
    let mut noisy = faulty_mem(
        FaultModel::with_seed(0xF1).with_transients(0.0, 0.5, 0.0),
        ReliabilityConfig::protected_secded(),
    );
    for m in [&mut clean, &mut noisy] {
        let _ = m.multi_activate_sense_protected(
            &[addr(0, 0), addr(0, 1)],
            SenseMode::or(2).expect("or2"),
            64,
        );
    }
    assert!(noisy.stats().time_ns > clean.stats().time_ns);
    assert!(noisy.stats().total_energy_pj() > clean.stats().total_energy_pj());
    assert!(noisy.stats().events.mode_sets > clean.stats().events.mode_sets);
}

// ---- channel sharding ----

fn ch_addr(channel: u32, subarray: u32, row: u32) -> RowAddr {
    RowAddr::new(channel, 0, 0, subarray, row)
}

/// Ships a shard's dirty state and statistics back into `parent` the
/// way the session sync does: stats first, then the deltas.
fn sync_back(parent: &mut MainMemory, shard: &mut MainMemory) {
    let deltas = shard.take_dirty_state();
    parent.merge_stats(shard.take_stats());
    for delta in deltas {
        parent.apply_delta(delta);
    }
}

#[test]
fn clone_and_delta_round_trip_state_and_stats() {
    let mut m = mem();
    let a = RowData::from_bits(&[true, false, true, false]);
    let b = RowData::from_bits(&[false, true, true, false]);
    let c = RowData::from_bits(&[true, true, false, true]);
    m.poke_row(ch_addr(0, 0, 0), &a).expect("poke ch0");
    m.poke_row(ch_addr(1, 0, 0), &b).expect("poke ch1");

    let mut shard = m.clone_channel(1);
    assert_eq!(shard.peek_row(ch_addr(1, 0, 0)), Some(&b));
    assert_eq!(shard.peek_row(ch_addr(0, 0, 0)), None);
    assert_eq!(shard.max_or_fan_in(), m.max_or_fan_in());
    assert_eq!(shard.reliable_or_fan_in(), m.reliable_or_fan_in());
    assert!(shard.stats().time_ns == 0.0, "shard ledgers start at zero");

    // Work on both halves independently; the shard also writes.
    let parent_out = m.activate_read(ch_addr(0, 0, 0), 4).expect("read ch0");
    let shard_out = shard.activate_read(ch_addr(1, 0, 0), 4).expect("read ch1");
    assert_eq!(parent_out, a);
    assert_eq!(shard_out, b);
    shard
        .write_row_local(ch_addr(1, 0, 1), c.clone())
        .expect("shard write");
    assert_eq!(m.peek_row(ch_addr(1, 0, 1)), None, "the mirror is stale");
    let parent_stats = *m.stats();
    let shard_stats = *shard.stats();

    sync_back(&mut m, &mut shard);
    assert_eq!(m.peek_row(ch_addr(1, 0, 0)), Some(&b));
    assert_eq!(m.peek_row(ch_addr(1, 0, 1)), Some(&c));
    assert_eq!(m.channel_digest(1), shard.channel_digest(1));
    assert_eq!(*m.stats(), parent_stats + shard_stats);
    assert_eq!(
        m.wear_report().total_row_writes,
        1,
        "the shard's write wear ships back; pokes charge none"
    );
}

#[test]
fn sharded_fault_streams_match_serial_execution() {
    // With per-channel streams, the draws a channel consumes do not
    // depend on whether the other channels executed in between — so a
    // serial run and a clone/execute/sync run are bit-identical.
    let model = FaultModel::with_seed(0xD15C)
        .with_transients(1e-2, 1e-2, 1e-2)
        .with_write_flips(1e-2);
    let reliability = ReliabilityConfig::protected_secded();
    let pattern = RowData::from_bits(&[true, false, true, true]);

    let run_serial = |order_ch1_first: bool| -> (Vec<RowData>, MemStats) {
        let mut m = faulty_mem(model, reliability);
        for ch in 0..2 {
            m.poke_row(ch_addr(ch, 0, 0), &pattern).expect("poke");
            m.poke_row(ch_addr(ch, 0, 1), &pattern).expect("poke");
        }
        let channels: &[u32] = if order_ch1_first { &[1, 0] } else { &[0, 1] };
        let mut outs = vec![RowData::zeros(4); 2];
        for &ch in channels {
            outs[ch as usize] = m
                .multi_activate_sense_protected(
                    &[ch_addr(ch, 0, 0), ch_addr(ch, 0, 1)],
                    SenseMode::or(2).expect("or2"),
                    4,
                )
                .expect("protected OR");
        }
        (outs, *m.stats())
    };

    let (serial_outs, serial_stats) = run_serial(false);
    let (reordered_outs, reordered_stats) = run_serial(true);
    assert_eq!(serial_outs, reordered_outs, "streams are order-independent");
    assert_eq!(serial_stats, reordered_stats);

    // Clone channel 1 into a shard, execute both halves, sync back.
    let mut m = faulty_mem(model, reliability);
    for ch in 0..2 {
        m.poke_row(ch_addr(ch, 0, 0), &pattern).expect("poke");
        m.poke_row(ch_addr(ch, 0, 1), &pattern).expect("poke");
    }
    let before = *m.stats();
    let mut shard = m.clone_channel(1);
    let out1 = shard
        .multi_activate_sense_protected(
            &[ch_addr(1, 0, 0), ch_addr(1, 0, 1)],
            SenseMode::or(2).expect("or2"),
            4,
        )
        .expect("shard OR");
    let out0 = m
        .multi_activate_sense_protected(
            &[ch_addr(0, 0, 0), ch_addr(0, 0, 1)],
            SenseMode::or(2).expect("or2"),
            4,
        )
        .expect("parent OR");
    sync_back(&mut m, &mut shard);
    assert_eq!(m.channel_digest(1), shard.channel_digest(1));
    assert_eq!(vec![out0, out1], serial_outs);
    assert_eq!(*m.stats() - before, serial_stats - before);
    assert!(m.stats().reliability.is_consistent());
}

#[test]
fn preload_pim_config_is_free() {
    let mut m = mem();
    m.preload_pim_config(PimConfig::Or);
    assert_eq!(m.pim_config(), PimConfig::Or);
    assert_eq!(m.stats().events.mode_sets, 0);
    assert_eq!(m.stats().time_ns, 0.0);
    // A charged set to the preloaded mode is now a cache hit.
    m.set_pim_config(PimConfig::Or);
    assert_eq!(m.stats().events.mode_sets, 0);
}

#[test]
#[should_panic(expected = "outside")]
fn clone_of_an_invalid_channel_panics() {
    let mut m = mem();
    let _ = m.clone_channel(99);
}

#[test]
fn clone_channel_copies_zero_row_pages_until_first_write() {
    let mut m = mem();
    let n = crate::page::ROWS_PER_PAGE * 4;
    let original = RowData::from_bits(&[true, true, false, true]);
    for row in 0..n {
        m.poke_row(ch_addr(0, 0, row), &original).expect("poke");
    }
    let _ = m.take_dirty_state();
    assert_eq!(m.stats().row_pages_copied, 0, "populating copies nothing");

    let mut shard = m.clone_channel(0);
    assert_eq!(
        m.stats().row_pages_copied + shard.stats().row_pages_copied,
        0,
        "cloning a channel of {n} populated rows must copy zero row pages"
    );

    // First shard write to a shared page copies exactly that page.
    let update = RowData::from_bits(&[false, false, true, false]);
    shard.poke_row(ch_addr(0, 0, 0), &update).expect("poke");
    assert_eq!(shard.stats().row_pages_copied, 1);
    // A second write inside the now-exclusive page copies nothing.
    shard.poke_row(ch_addr(0, 0, 1), &update).expect("poke");
    assert_eq!(shard.stats().row_pages_copied, 1);
    // A write landing in a different shared page copies that one too.
    shard
        .poke_row(ch_addr(0, 0, crate::page::ROWS_PER_PAGE), &update)
        .expect("poke");
    assert_eq!(shard.stats().row_pages_copied, 2);
    // The stale mirror never observed any of it.
    assert_eq!(m.peek_row(ch_addr(0, 0, 0)), Some(&original));
    assert_eq!(m.stats().row_pages_copied, 0);
}

#[test]
fn clone_channel_retains_undrained_dirty_state_in_the_parent() {
    let mut m = mem();
    let data = RowData::from_bits(&[true, false]);
    m.poke_row(ch_addr(0, 0, 3), &data).expect("poke ch0");
    m.poke_row(ch_addr(1, 0, 7), &data).expect("poke ch1");

    // Clone while the parent still holds undrained dirty state for
    // both channels: nothing is discarded — the entries stay in the
    // parent's log (it holds that state current; the clone shares
    // it), so the parent's next drain still ships them …
    let mut shard = m.clone_channel(1);
    let parent_deltas = m.take_dirty_state();
    assert_eq!(parent_deltas.len(), 2, "parent still ships both channels");
    assert_eq!(parent_deltas[0].channel, 0);
    assert_eq!(parent_deltas[1].channel, 1);
    assert!(
        parent_deltas[1]
            .pages
            .iter()
            .any(|(id, _)| id.channel() == 1),
        "retained dirty state covers the poked page"
    );

    // … while the shard starts in sync with the parent, so its own
    // deltas carry only writes made after the clone.
    assert!(
        shard.take_dirty_state().is_empty(),
        "a fresh clone has nothing of its own to ship"
    );
    let addr = ch_addr(1, 0, 9);
    shard.poke_row(addr, &data).expect("poke shard");
    let shard_deltas = shard.take_dirty_state();
    assert_eq!(shard_deltas.len(), 1);
    assert_eq!(shard_deltas[0].channel, 1);
    let (expected_page, _) = PageId::of(addr);
    assert_eq!(
        shard_deltas[0]
            .pages
            .iter()
            .map(|&(id, _)| id)
            .collect::<Vec<_>>(),
        vec![expected_page],
        "only the shard's own write is shipped"
    );
}
