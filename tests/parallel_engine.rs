//! Cross-crate properties of the sharded parallel batch executor:
//! bit- and stats-parity with serial execution (including fault-injection
//! ledgers), determinism across worker counts, the merged-ledger
//! `detected == corrected + uncorrectable` invariant, and the degenerate
//! empty-batch / single-channel cases.

use pinatubo_bench::parity::{assert_close, assert_stats_match};
use pinatubo_core::{BitwiseOp, PinatuboConfig};
use pinatubo_mem::{MemConfig, MemStats, ReliabilityConfig};
use pinatubo_nvm::fault::FaultModel;
use pinatubo_nvm::rng::SimRng;
use pinatubo_nvm::yield_analysis::VariationModel;
use pinatubo_runtime::{BatchRequest, MappingPolicy, PimBitVec, PimSystem, RuntimeError};

fn faulty_mem() -> MemConfig {
    let mut mem = MemConfig::pcm_default();
    mem.fault_model = FaultModel::with_seed(0xD15C)
        .with_drift(0.04)
        .with_variation(VariationModel::Gaussian)
        .with_transients(1e-5, 1e-5, 1e-5)
        .with_write_flips(1e-5);
    mem.reliability = ReliabilityConfig::protected_secded();
    mem
}

fn sys(mem: MemConfig) -> PimSystem {
    PimSystem::new(mem, PinatuboConfig::default(), MappingPolicy::ChannelRotate)
}

/// A mixed batch: twelve single-channel requests rotated across the four
/// channels (all four ops, fan-ins 2–4), one dependent request reading
/// two earlier results, and optionally one channel-straddling request
/// (operands and destination on different channels) to exercise the
/// unified-memory barrier between sharded phases.
fn build_batch(s: &mut PimSystem, with_cross: bool) -> (Vec<BatchRequest>, Vec<PimBitVec>) {
    let mut rng = SimRng::seed_from_u64(0xBA7C4);
    let len = 6000u64;
    let ops = [
        BitwiseOp::Or,
        BitwiseOp::And,
        BitwiseOp::Xor,
        BitwiseOp::Not,
    ];
    let mut requests = Vec::new();
    let mut dsts = Vec::new();
    for g in 0..12usize {
        let op = ops[g % 4];
        let k = if op == BitwiseOp::Not { 1 } else { 2 + g % 3 };
        let group = s.alloc_group(k + 1, len).expect("group");
        for v in &group[..k] {
            let bits: Vec<bool> = (0..len).map(|_| rng.gen_bit()).collect();
            s.store(v, &bits).expect("store");
        }
        dsts.push(group[k].clone());
        requests.push(BatchRequest {
            op,
            operands: group[..k].to_vec(),
            dst: group[k].clone(),
        });
    }
    // A dependent request: reads the results of requests 0 and 1, so the
    // scheduler must keep it after both.
    let dep_dst = s.alloc_group(1, len).expect("dep dst").remove(0);
    requests.push(BatchRequest {
        op: BitwiseOp::Or,
        operands: vec![dsts[0].clone(), dsts[1].clone()],
        dst: dep_dst.clone(),
    });
    dsts.push(dep_dst);
    if with_cross {
        // Operands land on one channel, the destination on the next:
        // no home channel, so the executor must run it on the unified
        // memory between sharded phases.
        let a = s.alloc_group(2, len).expect("cross operands");
        let d = s.alloc_group(1, len).expect("cross dst").remove(0);
        assert_ne!(
            a[0].rows()[0].channel,
            d.rows()[0].channel,
            "rotation must put the group and its successor on different channels"
        );
        let bits: Vec<bool> = (0..len).map(|_| rng.gen_bit()).collect();
        s.store(&a[0], &bits).expect("store cross");
        requests.push(BatchRequest {
            op: BitwiseOp::Or,
            operands: a.to_vec(),
            dst: d.clone(),
        });
        dsts.push(d);
    }
    (requests, dsts)
}

#[test]
fn parallel_batch_matches_serial_bits_stats_and_faults() {
    for with_cross in [false, true] {
        let mut serial = sys(faulty_mem());
        let (batch, outs) = build_batch(&mut serial, with_cross);
        serial.execute_batch_serial(&batch).expect("serial batch");
        let serial_bits: Vec<Vec<bool>> = outs.iter().map(|v| serial.load(v)).collect();

        let mut parallel = sys(faulty_mem());
        let (batch, outs) = build_batch(&mut parallel, with_cross);
        parallel.execute_batch(&batch).expect("parallel batch");
        let parallel_bits: Vec<Vec<bool>> = outs.iter().map(|v| parallel.load(v)).collect();

        assert_eq!(
            serial_bits, parallel_bits,
            "parallel execution must be bit-identical (with_cross={with_cross})"
        );
        assert_stats_match(
            &format!("with_cross={with_cross}"),
            serial.stats(),
            parallel.stats(),
        );
        assert_eq!(
            serial.trace(),
            parallel.trace(),
            "the abstract op trace must replay identically"
        );
        assert!(
            parallel.stats().reliability.detected_errors > 0,
            "the fault model must actually fire for this test to mean anything"
        );
    }
}

#[test]
fn fault_free_parallel_batch_matches_serial_exactly() {
    let mut serial = sys(MemConfig::pcm_default());
    let (batch, outs) = build_batch(&mut serial, true);
    let serial_report = serial.execute_batch_serial(&batch).expect("serial batch");
    let serial_bits: Vec<Vec<bool>> = outs.iter().map(|v| serial.load(v)).collect();

    let mut parallel = sys(MemConfig::pcm_default());
    let (batch, outs) = build_batch(&mut parallel, true);
    let parallel_report = parallel.execute_batch(&batch).expect("parallel batch");
    let parallel_bits: Vec<Vec<bool>> = outs.iter().map(|v| parallel.load(v)).collect();

    assert_eq!(serial_bits, parallel_bits);
    assert_stats_match("fault-free batch", serial.stats(), parallel.stats());
    assert_eq!(serial_report.per_op.len(), parallel_report.per_op.len());
    for ((si, ss), (pi, ps)) in serial_report.per_op.iter().zip(&parallel_report.per_op) {
        assert_eq!(si, pi, "scheduled order must be identical");
        assert_eq!(ss.activations, ps.activations);
        assert_eq!(ss.segments, ps.segments);
        assert_eq!(ss.class, ps.class);
        assert_close("per-op time", ss.time_ns, ps.time_ns);
        // The per-mechanism breakdown the scheduler expands into command
        // streams must survive the parallel path unchanged and stay
        // internally consistent.
        assert_close("per-op activate", ss.time.activate_ns, ps.time.activate_ns);
        assert_close("per-op sense", ss.time.sense_ns, ps.time.sense_ns);
        assert_close("per-op write", ss.time.write_ns, ps.time.write_ns);
        assert_close("per-op gdl", ss.time.gdl_ns, ps.time.gdl_ns);
        assert_close("per-op bus", ss.time.bus_ns, ps.time.bus_ns);
        assert_close("per-op mrs", ss.time.mrs_ns, ps.time.mrs_ns);
        assert_close("breakdown total", ps.time.total_ns(), ps.time_ns);
    }
    assert_close(
        "makespan",
        serial_report.makespan_ns,
        parallel_report.makespan_ns,
    );
}

#[test]
fn worker_count_does_not_change_results() {
    let mut reference: Option<(Vec<Vec<bool>>, MemStats)> = None;
    for workers in [1usize, 2, 4] {
        let mut s = sys(faulty_mem());
        let (batch, outs) = build_batch(&mut s, true);
        s.execute_batch_with_workers(&batch, workers)
            .expect("batch runs");
        let bits: Vec<Vec<bool>> = outs.iter().map(|v| s.load(v)).collect();
        let stats = *s.stats();
        match &reference {
            None => reference = Some((bits, stats)),
            Some((ref_bits, ref_stats)) => {
                assert_eq!(
                    ref_bits, &bits,
                    "{workers} workers must produce identical bits"
                );
                assert_eq!(
                    ref_stats.events, stats.events,
                    "{workers} workers must produce identical event counts"
                );
                assert_eq!(
                    ref_stats.reliability, stats.reliability,
                    "{workers} workers must consume identical fault streams"
                );
                assert_close("time_ns", ref_stats.time_ns, stats.time_ns);
            }
        }
    }
}

#[test]
fn merged_reliability_ledger_upholds_the_detection_invariant() {
    let mut s = sys(faulty_mem());
    let (batch, _) = build_batch(&mut s, true);
    s.execute_batch(&batch).expect("batch runs");
    let r = s.stats().reliability;
    assert!(r.detected_errors > 0, "faults must fire");
    assert_eq!(
        r.detected_errors,
        r.corrected_errors + r.uncorrectable_errors,
        "every detection must resolve after the shard merge: {r:?}"
    );
    assert!(r.is_consistent());
}

#[test]
fn empty_batch_is_a_no_op_on_the_parallel_path() {
    let mut s = sys(faulty_mem());
    for workers in [1usize, 4] {
        let report = s
            .execute_batch_with_workers(&[], workers)
            .expect("empty batch");
        assert_eq!(report.serial_time_ns, 0.0);
        assert_eq!(report.per_op.len(), 0);
    }
    assert_eq!(s.stats().time_ns, 0.0);
}

/// The persistent-pool session, fed the same planned batch, is pinned to
/// `execute_batch_serial`: bits, merged statistics (including the fault
/// ledger), the abstract op trace and the per-request summaries must all
/// match — for every pool size.
#[test]
fn session_matches_serial_across_pool_sizes() {
    for with_cross in [false, true] {
        let mut serial = sys(faulty_mem());
        let (batch, outs) = build_batch(&mut serial, with_cross);
        let serial_report = serial.execute_batch_serial(&batch).expect("serial batch");
        let serial_bits: Vec<Vec<bool>> = outs.iter().map(|v| serial.load(v)).collect();

        for workers in [1usize, 2, 4] {
            let mut s = sys(faulty_mem());
            let (batch, outs) = build_batch(&mut s, with_cross);
            let mut session = s.open_session_with_workers(workers);
            session.submit_batch(&batch).expect("submit batch");
            let summaries = session.close().expect("close");
            let bits: Vec<Vec<bool>> = outs.iter().map(|v| s.load(v)).collect();
            assert_eq!(
                serial_bits, bits,
                "session must be bit-identical (workers={workers}, with_cross={with_cross})"
            );
            assert_stats_match(&format!("workers={workers}"), serial.stats(), s.stats());
            assert_eq!(
                serial.trace(),
                s.trace(),
                "the abstract op trace must replay identically"
            );
            assert_eq!(summaries.len(), serial_report.per_op.len());
            for (k, ((_, ss), ps)) in serial_report.per_op.iter().zip(&summaries).enumerate() {
                assert_eq!(ss.activations, ps.activations, "op {k} activations");
                assert_eq!(ss.segments, ps.segments, "op {k} segments");
                assert_eq!(ss.class, ps.class, "op {k} class");
                assert_eq!(ss.reliability, ps.reliability, "op {k} fault ledger");
                assert_close("per-op time", ss.time_ns, ps.time_ns);
                assert_close("per-op bus", ss.time.bus_ns, ps.time.bus_ns);
                assert_close("per-op write", ss.time.write_ns, ps.time.write_ns);
                assert_close("breakdown total", ps.time.total_ns(), ps.time_ns);
            }
        }
    }
}

/// An interleaved stream — submits, explicit syncs, a mid-stream load, a
/// mid-stream store, dependent requests whose operands straddle channels
/// — matches one-at-a-time serial execution of the same stream, for
/// every pool size.
#[test]
fn interleaved_submit_sync_matches_serial_reference() {
    for workers in [1usize, 2, 4] {
        let mut serial = sys(faulty_mem());
        let mut pooled = sys(faulty_mem());

        // Identical allocations and setup on both systems.
        let setup = |s: &mut PimSystem| {
            let mut rng = SimRng::seed_from_u64(0x17EA);
            let len = 5000u64;
            let mut groups = Vec::new();
            for _ in 0..4 {
                let g = s.alloc_group(3, len).expect("group");
                for v in &g[..2] {
                    let bits: Vec<bool> = (0..len).map(|_| rng.gen_bit()).collect();
                    s.store(v, &bits).expect("store");
                }
                groups.push(g);
            }
            let cross_ops = s.alloc_group(2, len).expect("cross operands");
            let cross_dst = s.alloc_group(1, len).expect("cross dst").remove(0);
            assert_ne!(
                cross_ops[0].rows()[0].channel,
                cross_dst.rows()[0].channel,
                "rotation must split the straddling request across channels"
            );
            let bits: Vec<bool> = (0..len).map(|_| rng.gen_bit()).collect();
            s.store(&cross_ops[0], &bits).expect("store cross");
            (groups, cross_ops, cross_dst)
        };
        let (sg, s_cross_ops, s_cross_dst) = setup(&mut serial);
        let (pg, p_cross_ops, p_cross_dst) = setup(&mut pooled);
        let fresh: Vec<bool> = (0..5000).map(|i| i % 7 == 0).collect();

        // Serial reference: the stream, one request at a time.
        let mut serial_sums = Vec::new();
        serial_sums.push(
            serial
                .bitwise(BitwiseOp::Or, &[&sg[0][0], &sg[0][1]], &sg[0][2])
                .expect("or"),
        );
        serial_sums.push(
            serial
                .bitwise(BitwiseOp::And, &[&sg[1][0], &sg[1][1]], &sg[1][2])
                .expect("and"),
        );
        let serial_mid = serial.load(&sg[0][2]);
        serial_sums.push(
            serial
                .bitwise(BitwiseOp::Xor, &[&sg[0][2], &sg[1][2]], &sg[2][2])
                .expect("xor"),
        );
        serial.store(&sg[3][0], &fresh).expect("mid store");
        serial_sums.push(
            serial
                .bitwise(BitwiseOp::Not, &[&sg[3][0]], &sg[3][2])
                .expect("not"),
        );
        serial_sums.push(
            serial
                .bitwise(
                    BitwiseOp::Or,
                    &[&s_cross_ops[0], &s_cross_ops[1]],
                    &s_cross_dst,
                )
                .expect("cross or"),
        );

        // The same stream through a persistent session, with sync
        // points sprinkled through it.
        let mut session = pooled.open_session_with_workers(workers);
        session
            .submit(BitwiseOp::Or, &[&pg[0][0], &pg[0][1]], &pg[0][2])
            .expect("or");
        session
            .submit(BitwiseOp::And, &[&pg[1][0], &pg[1][1]], &pg[1][2])
            .expect("and");
        session.sync().expect("mid sync");
        let pooled_mid = session.load(&pg[0][2]).expect("mid load");
        session
            .submit(BitwiseOp::Xor, &[&pg[0][2], &pg[1][2]], &pg[2][2])
            .expect("xor");
        session.store(&pg[3][0], &fresh).expect("mid store");
        session
            .submit(BitwiseOp::Not, &[&pg[3][0]], &pg[3][2])
            .expect("not");
        session
            .submit(
                BitwiseOp::Or,
                &[&p_cross_ops[0], &p_cross_ops[1]],
                &p_cross_dst,
            )
            .expect("cross or");
        let pooled_sums = session.close().expect("close");

        assert_eq!(
            serial_mid, pooled_mid,
            "mid-stream load (workers={workers})"
        );
        let serial_final: Vec<Vec<bool>> = sg
            .iter()
            .map(|g| serial.load(&g[2]))
            .chain(std::iter::once(serial.load(&s_cross_dst)))
            .collect();
        let pooled_final: Vec<Vec<bool>> = pg
            .iter()
            .map(|g| pooled.load(&g[2]))
            .chain(std::iter::once(pooled.load(&p_cross_dst)))
            .collect();
        assert_eq!(serial_final, pooled_final, "workers={workers}");
        assert_stats_match("interleaved submit/sync", serial.stats(), pooled.stats());
        assert_eq!(serial.trace(), pooled.trace());
        assert_eq!(serial_sums.len(), pooled_sums.len());
        for (ss, ps) in serial_sums.iter().zip(&pooled_sums) {
            assert_eq!(ss.activations, ps.activations);
            assert_eq!(ss.segments, ps.segments);
            assert_eq!(ss.reliability, ps.reliability);
            assert_close("summary time", ss.time_ns, ps.time_ns);
        }
    }
}

/// A panicking shard worker must not lose other channels' committed
/// state: the session reports `WorkerPanicked` for the poisoned channel
/// and everything synced from healthy channels survives in the parent.
#[test]
fn worker_panic_is_contained_and_reported() {
    for workers in [1usize, 4] {
        let mut s = sys(MemConfig::pcm_default());
        let row_bits = s.engine().memory().geometry().logical_row_bits();
        let len = row_bits + 8; // two row segments
        let good = s.alloc_group(3, 4000).expect("good group");
        let bad_dst = s.alloc(len).expect("bad dst");
        assert!(bad_dst.rows().len() >= 2, "dst must span two rows");
        assert_eq!(
            bad_dst.rows()[0].channel,
            bad_dst.rows()[1].channel,
            "dst must stay on one channel"
        );
        assert_ne!(
            good[0].rows()[0].channel,
            bad_dst.rows()[0].channel,
            "the panic must hit a different channel than the good work"
        );
        // A deliberately malformed handle: claims the destination's
        // length but owns a single row, so the worker indexes past its
        // row list on the second segment and panics mid-request.
        let bad_operand = PimBitVec::from_raw_parts(u64::MAX, len, vec![bad_dst.rows()[0]]);

        let bits: Vec<bool> = (0..4000).map(|i| i % 3 == 0).collect();
        s.store(&good[0], &bits).expect("store");
        let mut session = s.open_session_with_workers(workers);
        session
            .submit(BitwiseOp::Or, &[&good[0], &good[1]], &good[2])
            .expect("good submit");
        session
            .submit(BitwiseOp::Not, &[&bad_operand], &bad_dst)
            .expect("the malformed submit still dispatches");
        let err = session.sync().expect_err("the panic must surface at sync");
        match &err {
            RuntimeError::WorkerPanicked { channel, .. } => {
                assert_eq!(*channel, bad_dst.rows()[0].channel);
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert!(
            matches!(session.close(), Err(RuntimeError::WorkerPanicked { .. })),
            "close must report the same failure"
        );
        // The healthy channel's committed work survives in the parent:
        // good[1] was never stored, so OR(good[0], zeros) == good[0].
        assert_eq!(s.load(&good[2]), bits, "workers={workers}");
        assert!(s.stats().reliability.is_consistent());
    }
}

/// Requests queued behind a failed request on a halted channel must
/// surface as per-position `ChannelHalted` errors at sync — not vanish
/// from the results picture — while the root cause stays the session's
/// reported error and other channels keep executing.
#[test]
fn requests_behind_a_failure_surface_as_per_position_errors() {
    for workers in [1usize, 4] {
        let mut s = sys(MemConfig::pcm_default());
        let len = 2000u64;
        let a = s.alloc_group(5, len).expect("group a");
        let b = s.alloc_group(3, len).expect("group b");
        let ch = a[0].rows()[0].channel;
        assert_ne!(
            ch,
            b[0].rows()[0].channel,
            "rotation must put the healthy work on another channel"
        );
        // A syntactically well-formed handle pointing one row past the
        // subarray: the shard rejects it with `AddressOutOfRange` — an
        // error, not a panic — and halts its channel.
        let bad_row = s.engine().memory().geometry().rows_per_subarray;
        let bad = PimBitVec::from_raw_parts(
            u64::MAX,
            len,
            vec![pinatubo_mem::RowAddr::new(ch, 0, 0, 0, bad_row)],
        );

        let bits: Vec<bool> = (0..len).map(|i| i % 2 == 0).collect();
        s.store(&a[0], &bits).expect("store a0");
        s.store(&b[0], &bits).expect("store b0");

        let mut session = s.open_session_with_workers(workers);
        let p0 = session
            .submit(BitwiseOp::Or, &[&a[0], &a[1]], &a[2])
            .expect("p0 dispatches");
        let p1 = session
            .submit(BitwiseOp::Not, &[&bad], &a[3])
            .expect("p1 dispatches (errors surface at sync)");
        let p2 = session
            .submit(BitwiseOp::Or, &[&a[0], &a[1]], &a[4])
            .expect("p2 dispatches");
        let p3 = session
            .submit(BitwiseOp::Or, &[&b[0], &b[1]], &b[2])
            .expect("p3 dispatches");
        assert_eq!((p0, p1, p2, p3), (0, 1, 2, 3));

        let err = session.sync().expect_err("the failure surfaces at sync");
        assert!(
            matches!(err, RuntimeError::Pim(_)),
            "the session-level error is the earliest root cause, got {err:?}"
        );
        let errors = session.position_errors();
        assert!(
            matches!(errors.get(&1), Some(RuntimeError::Pim(_))),
            "the failing position carries its root cause: {:?}",
            errors.get(&1)
        );
        assert!(
            matches!(
                errors.get(&2),
                Some(RuntimeError::ChannelHalted { channel }) if *channel == ch
            ),
            "the request queued behind the failure must surface as a \
             per-position error, not a silent gap: {:?}",
            errors.get(&2)
        );
        assert!(
            !errors.contains_key(&0) && !errors.contains_key(&3),
            "completed positions carry no error: {errors:?}"
        );
        drop(session);
        // Committed work on both channels survives in the parent
        // (the second operands were never stored, so OR(x, 0) == x).
        assert_eq!(s.load(&a[2]), bits, "workers={workers}");
        assert_eq!(s.load(&b[2]), bits, "workers={workers}");
        assert!(s.stats().reliability.is_consistent());
    }
}

/// Sessions are safe in the degenerate cases: an empty session closes
/// cleanly, and dropping a session without closing it still reconciles
/// committed work into the parent.
#[test]
fn empty_session_and_implicit_drop_are_safe() {
    let mut s = sys(MemConfig::pcm_default());
    let session = s.open_session();
    let sums = session.close().expect("empty close");
    assert!(sums.is_empty());

    let g = s.alloc_group(3, 2000).expect("group");
    s.store(&g[0], &vec![true; 2000]).expect("store");
    {
        let mut session = s.open_session_with_workers(2);
        session
            .submit(BitwiseOp::Or, &[&g[0], &g[1]], &g[2])
            .expect("submit");
    } // dropped without close
    assert_eq!(s.count_ones(&g[2]), 2000);
    assert!(s.stats().reliability.is_consistent());
}

/// [`faulty_mem`] with a read transient rate high enough that SEC-DED's
/// in-place corrections actually fire during the batch's loads.
fn faulty_mem_secded() -> MemConfig {
    let mut mem = faulty_mem();
    mem.fault_model = FaultModel::with_seed(0xD15C)
        .with_drift(0.04)
        .with_variation(VariationModel::Gaussian)
        .with_transients(1e-4, 1e-5, 1e-5)
        .with_write_flips(1e-5);
    mem.reliability = ReliabilityConfig::protected_secded();
    mem
}

/// Session-vs-serial parity holds with SEC-DED enabled: the ECC check
/// bytes ship through `ChannelDelta` like every other protection
/// metadata, so shard-side reads correct the same bits the serial run
/// corrects and the merged ledgers (including `ecc_corrected_bits`)
/// match exactly.
#[test]
fn secded_session_matches_serial() {
    for with_cross in [false, true] {
        let mut serial = sys(faulty_mem_secded());
        let (batch, outs) = build_batch(&mut serial, with_cross);
        serial.execute_batch_serial(&batch).expect("serial batch");
        let serial_bits: Vec<Vec<bool>> = outs.iter().map(|v| serial.load(v)).collect();

        for workers in [1usize, 4] {
            let mut s = sys(faulty_mem_secded());
            let (batch, outs) = build_batch(&mut s, with_cross);
            let mut session = s.open_session_with_workers(workers);
            session.submit_batch(&batch).expect("submit batch");
            session.close().expect("close");
            let bits: Vec<Vec<bool>> = outs.iter().map(|v| s.load(v)).collect();
            assert_eq!(
                serial_bits, bits,
                "secded session must be bit-identical (workers={workers}, with_cross={with_cross})"
            );
            assert_stats_match(&format!("workers={workers}"), serial.stats(), s.stats());
        }
        let r = serial.stats().reliability;
        assert!(
            r.ecc_corrected_bits > 0,
            "the transient rate must exercise in-place correction: {r:?}"
        );
        assert!(r.is_consistent(), "{r:?}");
    }
}

/// SEC-DED metadata created inside a shard survives the dirty-state
/// sync: rows stored in a cloned channel shard (with stuck-at corruption
/// landing, write verification off) correct in the shard, and after
/// `take_dirty_state`/`apply_delta` the *parent* corrects a row it never
/// wrote — possible only if the check bytes shipped with the delta.
#[test]
fn secded_shard_correction_survives_apply_delta() {
    use pinatubo_mem::{MainMemory, ProtectionMode, RowAddr, RowData};
    let mut config = MemConfig::pcm_default();
    config.fault_model = FaultModel::with_seed(0x5EC0).with_stuck_at(5e-3, 5e-3);
    let mut reliability = ReliabilityConfig::protected_secded();
    reliability.verify_writes = false; // corruption must land
    config.reliability = reliability;
    assert_eq!(config.reliability.protection, ProtectionMode::SecDed);
    let mut parent = MainMemory::new(config);

    let addr = |r: u32| RowAddr::new(0, 0, 0, 0, r);
    let image = |r: u32| -> RowData {
        let mut rng = SimRng::seed_from_u64(0x5EC0 ^ u64::from(r));
        (0..64u64).map(|_| rng.gen_bit()).collect()
    };

    let mut shard = parent.clone_channel(0);
    let mut singles = Vec::new();
    for r in 0..192u32 {
        let want = image(r);
        shard.poke_row(addr(r), &want).expect("shard poke");
        if shard.peek_row(addr(r)).expect("stored").count_diff(&want) == 1 {
            singles.push(r);
        }
    }
    assert!(
        singles.len() >= 2,
        "seed must corrupt at least two rows by one bit, got {}",
        singles.len()
    );

    // First single-flip row: corrected inside the shard.
    let in_shard = singles[0];
    let got = shard.activate_read(addr(in_shard), 64).expect("shard read");
    assert_eq!(got, image(in_shard), "shard read corrects in place");
    assert!(shard.stats().reliability.ecc_corrected_bits >= 1);

    // Sync the shard's dirty state back and absorb its ledger.
    for delta in shard.take_dirty_state() {
        parent.apply_delta(delta);
    }
    assert_eq!(
        parent.channel_digest(0),
        shard.channel_digest(0),
        "parent and shard must agree bit-for-bit after the sync"
    );
    parent.merge_stats(shard.take_stats());

    // Second single-flip row, read for the first time in the parent: the
    // stored bits are corrupt and the parent never wrote the row, so the
    // correction below can only come from the shipped check bytes.
    let in_parent = singles[1];
    let corrected_before = parent.stats().reliability.ecc_corrected_bits;
    let got = parent
        .activate_read(addr(in_parent), 64)
        .expect("parent read");
    assert_eq!(
        got,
        image(in_parent),
        "parent corrects via shipped metadata"
    );
    assert_eq!(
        parent.stats().reliability.ecc_corrected_bits,
        corrected_before + 1
    );
    assert!(parent.stats().reliability.is_consistent());
}

#[test]
fn single_channel_geometry_degenerates_to_serial() {
    let mut mem = faulty_mem();
    mem.geometry.channels = 1;
    let build = |s: &mut PimSystem| -> (Vec<BatchRequest>, Vec<PimBitVec>) {
        let mut rng = SimRng::seed_from_u64(0x51);
        let len = 3000u64;
        let mut requests = Vec::new();
        let mut dsts = Vec::new();
        for g in 0..6usize {
            let group = s.alloc_group(3, len).expect("group");
            for v in &group[..2] {
                let bits: Vec<bool> = (0..len).map(|_| rng.gen_bit()).collect();
                s.store(v, &bits).expect("store");
            }
            let op = if g % 2 == 0 {
                BitwiseOp::Or
            } else {
                BitwiseOp::Xor
            };
            dsts.push(group[2].clone());
            requests.push(BatchRequest {
                op,
                operands: group[..2].to_vec(),
                dst: group[2].clone(),
            });
        }
        (requests, dsts)
    };

    let mut serial = sys(mem.clone());
    let (batch, outs) = build(&mut serial);
    serial.execute_batch_serial(&batch).expect("serial");
    let serial_bits: Vec<Vec<bool>> = outs.iter().map(|v| serial.load(v)).collect();

    let mut parallel = sys(mem);
    let (batch, outs) = build(&mut parallel);
    parallel
        .execute_batch_with_workers(&batch, 4)
        .expect("parallel");
    let parallel_bits: Vec<Vec<bool>> = outs.iter().map(|v| parallel.load(v)).collect();

    assert_eq!(serial_bits, parallel_bits);
    assert_stats_match("single channel", serial.stats(), parallel.stats());
}
