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

/// Session-vs-serial parity holds for every timing table, not only the
/// shipped presets: at a tRRD and tFAW far above one whole command, the
/// batch (with and without its straddling request) produces the serial
/// executor's bits and statistics at every worker count. Only the
/// interleaved channel model gates activations, so no shard sees a
/// window the serial stream does not.
#[test]
fn tight_activation_windows_keep_session_parity() {
    let mut mem = MemConfig::pcm_default();
    mem.timing.t_rrd_ns = 1000.0;
    mem.timing.t_faw_ns = 10_000.0;
    for with_cross in [false, true] {
        let mut serial = sys(mem.clone());
        let (batch, outs) = build_batch(&mut serial, with_cross);
        serial.execute_batch_serial(&batch).expect("serial batch");
        let serial_bits: Vec<Vec<bool>> = outs.iter().map(|v| serial.load(v)).collect();

        for workers in [1usize, 2, 4] {
            let label = format!("workers={workers}, with_cross={with_cross}");
            let mut s = sys(mem.clone());
            let (batch, outs) = build_batch(&mut s, with_cross);
            s.execute_batch_with_workers(&batch, workers)
                .expect("batch runs");
            let bits: Vec<Vec<bool>> = outs.iter().map(|v| s.load(v)).collect();
            assert_eq!(serial_bits, bits, "{label}: bits must match serial");
            assert_stats_match(&label, serial.stats(), s.stats());
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
        let mut pooled_sums = session.sync().expect("mid sync");
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
        pooled_sums.extend(session.close().expect("close"));

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

/// Requests per round in [`sync_hands_back_each_round_once`]; one group
/// per request, so request `j` of every round lands on channel `j`.
const PER_ROUND: usize = 4;

/// What interrupts a round of [`sync_hands_back_each_round_once`] after
/// its first request: each is a sync point that hands nothing back.
#[derive(Clone, Copy)]
enum Interrupt {
    None,
    Straddle,
    Load,
    Store,
}

/// Request `j` of round `r`: rotating ops, and from round 1 on the first
/// operand is the previous round's result on the same channel.
fn round_request(
    groups: &[Vec<PimBitVec>],
    r: usize,
    j: usize,
) -> (BitwiseOp, Vec<&PimBitVec>, &PimBitVec) {
    let ops = [
        BitwiseOp::Or,
        BitwiseOp::And,
        BitwiseOp::Xor,
        BitwiseOp::Not,
    ];
    let op = ops[(r + j) % ops.len()];
    let g = &groups[r * PER_ROUND + j];
    let first = if r == 0 {
        &g[0]
    } else {
        &groups[(r - 1) * PER_ROUND + j][2]
    };
    let operands = if op == BitwiseOp::Not {
        vec![first]
    } else {
        vec![first, &g[1]]
    };
    (op, operands, &g[2])
}

/// Each request's summary is handed back once, by the `sync()` that
/// completes it: over rounds of single-channel requests, interrupted by
/// a straddling request, a mid-stream load and a mid-stream store (sync
/// points that hand nothing back), every `sync()` returns exactly its
/// round's summaries in submission order, equal to the serial
/// executor's; `close()` after the last sync returns nothing, and the
/// trace and statistics still match the serial run.
#[test]
fn sync_hands_back_each_round_once() {
    let interrupts = [
        Interrupt::None,
        Interrupt::Straddle,
        Interrupt::Load,
        Interrupt::Store,
    ];
    let rounds = interrupts.len();
    let len = 3000u64;
    let setup = |s: &mut PimSystem| {
        let mut rng = SimRng::seed_from_u64(0x4A2D);
        let mut random_store = |s: &mut PimSystem, v: &PimBitVec| {
            let bits: Vec<bool> = (0..len).map(|_| rng.gen_bit()).collect();
            s.store(v, &bits).expect("store");
        };
        let groups: Vec<Vec<PimBitVec>> = (0..rounds * PER_ROUND)
            .map(|_| {
                let g = s.alloc_group(3, len).expect("group");
                random_store(s, &g[0]);
                random_store(s, &g[1]);
                g
            })
            .collect();
        let channel = |i: usize| groups[i][0].rows()[0].channel;
        for i in 0..groups.len() {
            let home = channel(i % PER_ROUND);
            assert_eq!(channel(i), home, "request j of every round is on channel j");
            assert!(i >= PER_ROUND || (0..i).all(|k| channel(k) != home));
        }
        let cross_ops = s.alloc_group(2, len).expect("cross operands");
        let cross_dst = s.alloc_group(1, len).expect("cross dst").remove(0);
        assert_ne!(cross_ops[0].rows()[0].channel, cross_dst.rows()[0].channel);
        random_store(s, &cross_ops[0]);
        (groups, cross_ops, cross_dst)
    };
    let fresh: Vec<bool> = (0..len).map(|i| i % 5 == 0).collect();

    // Serial reference: the same stream, one request at a time.
    let mut serial = sys(faulty_mem());
    let (sg, s_cross_ops, s_cross_dst) = setup(&mut serial);
    let mut serial_rounds = Vec::new();
    let mut serial_mid = Vec::new();
    for (r, &interrupt) in interrupts.iter().enumerate() {
        let mut round = Vec::new();
        for j in 0..PER_ROUND {
            let (op, operands, dst) = round_request(&sg, r, j);
            round.push(serial.bitwise(op, &operands, dst).expect("serial op"));
            if j > 0 {
                continue;
            }
            match interrupt {
                Interrupt::None => {}
                Interrupt::Straddle => round.push(
                    serial
                        .bitwise(
                            BitwiseOp::Or,
                            &[&s_cross_ops[0], &s_cross_ops[1]],
                            &s_cross_dst,
                        )
                        .expect("serial straddle"),
                ),
                Interrupt::Load => serial_mid = serial.load(dst),
                Interrupt::Store => serial
                    .store(&sg[r * PER_ROUND + 1][1], &fresh)
                    .expect("serial store"),
            }
        }
        serial_rounds.push(round);
    }

    for workers in [1usize, 2, 4] {
        let mut pooled = sys(faulty_mem());
        let (pg, p_cross_ops, p_cross_dst) = setup(&mut pooled);
        let mut pooled_mid = Vec::new();
        let mut session = pooled.open_session_with_workers(workers);
        let mut next_pos = 0usize;
        for (r, &interrupt) in interrupts.iter().enumerate() {
            for j in 0..PER_ROUND {
                let (op, operands, dst) = round_request(&pg, r, j);
                let pos = session.submit(op, &operands, dst).expect("submit");
                assert_eq!(pos, next_pos, "positions count the whole session");
                next_pos += 1;
                if j > 0 {
                    continue;
                }
                match interrupt {
                    Interrupt::None => {}
                    Interrupt::Straddle => {
                        let pos = session
                            .submit(
                                BitwiseOp::Or,
                                &[&p_cross_ops[0], &p_cross_ops[1]],
                                &p_cross_dst,
                            )
                            .expect("straddle");
                        assert_eq!(pos, next_pos);
                        next_pos += 1;
                    }
                    Interrupt::Load => pooled_mid = session.load(dst).expect("mid load"),
                    Interrupt::Store => session
                        .store(&pg[r * PER_ROUND + 1][1], &fresh)
                        .expect("mid store"),
                }
            }
            let handed = session.sync().expect("round sync");
            let expected = &serial_rounds[r];
            assert_eq!(
                handed.len(),
                expected.len(),
                "round {r} hands back exactly its own requests (workers={workers})"
            );
            for (k, (ss, ps)) in expected.iter().zip(&handed).enumerate() {
                let at = format!("round {r} request {k} (workers={workers})");
                assert_eq!(ss.activations, ps.activations, "{at} activations");
                assert_eq!(ss.segments, ps.segments, "{at} segments");
                assert_eq!(ss.class, ps.class, "{at} class");
                assert_eq!(ss.reliability, ps.reliability, "{at} fault ledger");
                assert_close(&at, ss.time_ns, ps.time_ns);
            }
        }
        assert!(
            session.close().expect("close").is_empty(),
            "close after the last sync has nothing left to hand back"
        );

        assert_eq!(
            serial_mid, pooled_mid,
            "mid-stream load (workers={workers})"
        );
        for (s, p) in sg.iter().zip(&pg) {
            assert_eq!(serial.load(&s[2]), pooled.load(&p[2]), "workers={workers}");
        }
        assert_eq!(serial.load(&s_cross_dst), pooled.load(&p_cross_dst));
        assert_stats_match(
            &format!("workers={workers}"),
            serial.stats(),
            pooled.stats(),
        );
        assert_eq!(serial.trace(), pooled.trace(), "workers={workers}");
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

/// Vectors per channel in [`layout_setup`].
const LAYOUT_VECS: usize = 6;

/// The vectors of [`executor_layouts_match_serial`]: one group of
/// [`LAYOUT_VECS`] random vectors on each of the four channels, plus the
/// operands and destination of a channel-straddling request.
fn layout_setup(s: &mut PimSystem) -> (Vec<Vec<PimBitVec>>, BatchRequest) {
    let len = 3000u64;
    let mut rng = SimRng::seed_from_u64(0x1A40);
    let mut random_store = |s: &mut PimSystem, v: &PimBitVec| {
        let bits: Vec<bool> = (0..len).map(|_| rng.gen_bit()).collect();
        s.store(v, &bits).expect("store");
    };
    let groups: Vec<Vec<PimBitVec>> = (0..4u32)
        .map(|channel| {
            let g = s.alloc_group(LAYOUT_VECS, len).expect("group");
            assert_eq!(g[0].rows()[0].channel, channel, "group {channel}");
            for v in &g {
                random_store(s, v);
            }
            g
        })
        .collect();
    let cross_ops = s.alloc_group(2, len).expect("cross operands");
    let cross_dst = s.alloc_group(1, len).expect("cross dst").remove(0);
    assert_ne!(cross_ops[0].rows()[0].channel, cross_dst.rows()[0].channel);
    random_store(s, &cross_ops[0]);
    let cross = BatchRequest {
        op: BitwiseOp::Xor,
        operands: cross_ops,
        dst: cross_dst,
    };
    (groups, cross)
}

/// `count` seeded single-channel requests spread over the four channels:
/// random ops and fan-ins, each reading and writing vectors of one
/// channel's group, so later requests read earlier results.
fn layout_batch(groups: &[Vec<PimBitVec>], rng: &mut SimRng, count: usize) -> Vec<BatchRequest> {
    let ops = [
        BitwiseOp::Or,
        BitwiseOp::And,
        BitwiseOp::Xor,
        BitwiseOp::Not,
    ];
    (0..count)
        .map(|_| {
            let g = &groups[rng.gen_index(groups.len())];
            let op = ops[rng.gen_index(ops.len())];
            let k = if op == BitwiseOp::Not {
                1
            } else {
                2 + rng.gen_index(2)
            };
            let d = rng.gen_index(LAYOUT_VECS);
            BatchRequest {
                op,
                operands: (1..=k).map(|o| g[(d + o) % LAYOUT_VECS].clone()).collect(),
                dst: g[d].clone(),
            }
        })
        .collect()
}

/// One step of the layout stream.
enum Step {
    Batch(Vec<BatchRequest>),
    Store(PimBitVec, Vec<bool>),
    Load(PimBitVec),
    Sync,
}

/// The layout stream: syncs after fewer and after more jobs than the
/// session publishes at once (32 on a multi-core host), a straddling
/// request inside a batch, and a mid-stream store and load.
fn layout_stream(groups: &[Vec<PimBitVec>], cross: &BatchRequest) -> Vec<Step> {
    let mut rng = SimRng::seed_from_u64(0x1A41);
    let mut straddled = layout_batch(groups, &mut rng, 40);
    straddled.insert(17, cross.clone());
    let fresh: Vec<bool> = (0..3000).map(|i| i % 7 == 0).collect();
    vec![
        Step::Batch(layout_batch(groups, &mut rng, 20)),
        Step::Sync,
        Step::Batch(straddled),
        Step::Sync,
        Step::Store(groups[1][0].clone(), fresh),
        Step::Batch(layout_batch(groups, &mut rng, 12)),
        Step::Load(groups[2][3].clone()),
        Step::Batch(layout_batch(groups, &mut rng, 48)),
        Step::Sync,
    ]
}

/// Which executor runs which channel changes nothing: one seeded stream
/// of single-channel requests over four channels, interleaved with a
/// straddling request, a store, a load and syncs, matches
/// `execute_batch_serial` on bits, statistics, fault ledgers, the op
/// trace, per-position errors and every handed-back summary, at every
/// worker count (8 spawns as many threads as 3). The release run repeats
/// the stream so that claims race.
#[test]
fn executor_layouts_match_serial() {
    let mut serial = sys(faulty_mem());
    let (sg, s_cross) = layout_setup(&mut serial);
    let mut serial_rounds = vec![Vec::new()];
    let mut serial_loads = Vec::new();
    for step in layout_stream(&sg, &s_cross) {
        match step {
            Step::Batch(batch) => {
                let report = serial.execute_batch_serial(&batch).expect("serial batch");
                let round = serial_rounds.last_mut().expect("open round");
                round.extend(report.per_op.into_iter().map(|(_, summary)| summary));
            }
            Step::Store(v, bits) => serial.store(&v, &bits).expect("serial store"),
            Step::Load(v) => serial_loads.push(serial.load(&v)),
            Step::Sync => serial_rounds.push(Vec::new()),
        }
    }
    assert!(serial_rounds.pop().expect("last round").is_empty());
    assert!(
        serial.stats().reliability.detected_errors > 0,
        "the fault model must fire for the ledger comparison to mean anything"
    );
    let serial_bits: Vec<Vec<bool>> = sg
        .iter()
        .flatten()
        .chain([&s_cross.dst])
        .map(|v| serial.load(v))
        .collect();

    let repeats = if cfg!(debug_assertions) { 1 } else { 25 };
    for workers in [1usize, 2, 3, 8] {
        for repeat in 0..repeats {
            let at = format!("workers={workers} repeat={repeat}");
            let mut pooled = sys(faulty_mem());
            let (pg, p_cross) = layout_setup(&mut pooled);
            let mut rounds = Vec::new();
            let mut loads = Vec::new();
            let mut session = pooled.open_session_with_workers(workers);
            for step in layout_stream(&pg, &p_cross) {
                match step {
                    Step::Batch(batch) => drop(session.submit_batch(&batch).expect("submit")),
                    Step::Store(v, bits) => session.store(&v, &bits).expect("store"),
                    Step::Load(v) => loads.push(session.load(&v).expect("load")),
                    Step::Sync => rounds.push(session.sync().expect("sync")),
                }
            }
            assert!(session.position_errors().is_empty(), "{at}");
            assert!(session.close().expect("close").is_empty(), "{at}");

            assert_eq!(serial_loads, loads, "{at}: mid-stream load");
            let bits: Vec<Vec<bool>> = pg
                .iter()
                .flatten()
                .chain([&p_cross.dst])
                .map(|v| pooled.load(v))
                .collect();
            assert_eq!(serial_bits, bits, "{at}");
            assert_stats_match(&at, serial.stats(), pooled.stats());
            assert_eq!(serial.trace(), pooled.trace(), "{at}: op trace");
            assert_eq!(serial_rounds.len(), rounds.len(), "{at}");
            for (r, (expected, handed)) in serial_rounds.iter().zip(&rounds).enumerate() {
                assert_eq!(expected.len(), handed.len(), "{at}: round {r}");
                for (k, (ss, ps)) in expected.iter().zip(handed).enumerate() {
                    let at = format!("{at} round {r} request {k}");
                    assert_eq!(ss.activations, ps.activations, "{at} activations");
                    assert_eq!(ss.segments, ps.segments, "{at} segments");
                    assert_eq!(ss.class, ps.class, "{at} class");
                    assert_eq!(ss.reliability, ps.reliability, "{at} fault ledger");
                    assert_close(&at, ss.time_ns, ps.time_ns);
                }
            }
        }
    }
}

/// A request that panics while the caller runs it at a sync point is
/// contained like one on a worker thread. A sync with fewer new jobs than
/// the session publishes at once wakes no worker, so the caller runs the
/// whole round: a panicking request on each channel in turn surfaces as
/// `WorkerPanicked` for that channel, the other channels' round commits,
/// and the panicking channel keeps its last synced state.
#[test]
fn caller_panic_is_contained_and_reported() {
    let len = 2000u64;
    let bits: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
    let inverted: Vec<bool> = bits.iter().map(|b| !b).collect();
    for bad_channel in 0..4u32 {
        let mut s = sys(MemConfig::pcm_default());
        let row_bits = s.engine().memory().geometry().logical_row_bits();
        // Per channel: g[0] random, g[1] zero, g[2] and g[3] results.
        let groups: Vec<Vec<PimBitVec>> = (0..4u32)
            .map(|channel| {
                let g = s.alloc_group(4, len).expect("group");
                assert_eq!(g[0].rows()[0].channel, channel);
                s.store(&g[0], &bits).expect("store");
                g
            })
            .collect();
        let bad_dst = loop {
            let v = s.alloc(row_bits + 8).expect("two-row dst");
            if v.rows()[0].channel == bad_channel {
                break v;
            }
        };
        assert!(bad_dst.rows().len() >= 2, "dst must span two rows");
        assert!(bad_dst.rows().iter().all(|r| r.channel == bad_channel));
        // The malformed handle of `worker_panic_is_contained_and_reported`:
        // one row for a two-row length, so the second segment panics.
        let bad_operand =
            PimBitVec::from_raw_parts(u64::MAX, bad_dst.len_bits(), vec![bad_dst.rows()[0]]);

        let mut session = s.open_session_with_workers(1);
        for g in &groups {
            session
                .submit(BitwiseOp::Or, &[&g[0], &g[1]], &g[2])
                .expect("round 1");
        }
        assert_eq!(session.sync().expect("round 1 sync").len(), groups.len());
        for g in &groups {
            session
                .submit(BitwiseOp::Not, &[&g[0]], &g[3])
                .expect("round 2");
        }
        session
            .submit(BitwiseOp::Not, &[&bad_operand], &bad_dst)
            .expect("the malformed submit still dispatches");
        match session.sync() {
            Err(RuntimeError::WorkerPanicked { channel, .. }) => {
                assert_eq!(channel, bad_channel);
            }
            other => panic!("expected WorkerPanicked on {bad_channel}, got {other:?}"),
        }
        assert!(matches!(
            session.close(),
            Err(RuntimeError::WorkerPanicked { .. })
        ));
        for (channel, g) in (0..4u32).zip(&groups) {
            let at = format!("bad channel {bad_channel}, channel {channel}");
            assert_eq!(s.load(&g[2]), bits, "{at}: round 1 committed");
            let round_2 = if channel == bad_channel {
                vec![false; bits.len()]
            } else {
                inverted.clone()
            };
            assert_eq!(s.load(&g[3]), round_2, "{at}: round 2");
        }
        assert!(s.stats().reliability.is_consistent());
    }
}

/// A session over one channel spawns no worker thread, so the caller
/// runs everything; dropped without `close()`, it must still fold its
/// work into the parent.
#[test]
fn dropping_a_threadless_session_folds_its_work() {
    let mut mem = faulty_mem();
    mem.geometry.channels = 1;
    let build = |s: &mut PimSystem| {
        let mut rng = SimRng::seed_from_u64(0xD12);
        let mut random_store = |s: &mut PimSystem, v: &PimBitVec| {
            let bits: Vec<bool> = (0..3000).map(|_| rng.gen_bit()).collect();
            s.store(v, &bits).expect("store");
        };
        let g = s.alloc_group(LAYOUT_VECS, 3000).expect("group");
        for v in &g {
            random_store(s, v);
        }
        let batch = layout_batch(std::slice::from_ref(&g), &mut rng, 40);
        (g, batch)
    };
    let mut serial = sys(mem.clone());
    let (sg, batch) = build(&mut serial);
    serial.execute_batch_serial(&batch).expect("serial");

    let mut pooled = sys(mem);
    let (pg, batch) = build(&mut pooled);
    {
        let mut session = pooled.open_session_with_workers(4);
        session.submit_batch(&batch).expect("submit");
    } // dropped without close
    for (s, p) in sg.iter().zip(&pg) {
        assert_eq!(serial.load(s), pooled.load(p));
    }
    assert_stats_match(
        "dropped one-channel session",
        serial.stats(),
        pooled.stats(),
    );
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

/// Session-vs-serial parity holds with SEC-DED enabled: the kept intended
/// image of every row a write left with wrong bits ships through
/// `ChannelDelta` like every other protection metadata, so shard-side
/// reads correct the same bits the serial run corrects and the merged
/// ledgers (including `ecc_corrected_bits`) match exactly.
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
/// wrote — possible only if the row's kept intended image shipped with
/// the delta.
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
    // correction below can only come from the shipped intended image.
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
