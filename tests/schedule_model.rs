//! Model-level properties of the command-interleaved batch scheduler:
//! the makespan is sandwiched between hard lower bounds (the longest
//! request, each channel's bus time, each rank's GDL port time and tRRD
//! spacing) and the serial stream, the bounded-lookahead plan is never
//! worse than the greedy incumbent and always a permutation, planning is
//! deterministic, and pooled-session execution of the same scheduled
//! shapes stays bit-, stats- and ledger-identical to serial.

use pinatubo_bench::parity::assert_stats_match;
use pinatubo_core::{BitwiseOp, PinatuboConfig};
use pinatubo_mem::{MemConfig, ReliabilityConfig, RequestStream};
use pinatubo_nvm::fault::FaultModel;
use pinatubo_nvm::rng::SimRng;
use pinatubo_runtime::{BatchRequest, MappingPolicy, PimBitVec, PimSystem};
use std::collections::BTreeMap;

fn sys() -> PimSystem {
    PimSystem::new(
        MemConfig::pcm_default(),
        PinatuboConfig::default(),
        MappingPolicy::ChannelRotate,
    )
}

fn faulty_sys() -> PimSystem {
    let mut mem = MemConfig::pcm_default();
    mem.fault_model = FaultModel::with_seed(0x5EED)
        .with_transients(1e-5, 1e-5, 1e-5)
        .with_write_flips(1e-5);
    mem.reliability = ReliabilityConfig::protected_secded();
    PimSystem::new(mem, PinatuboConfig::default(), MappingPolicy::ChannelRotate)
}

fn store_random(s: &mut PimSystem, v: &PimBitVec, bits: u64, rng: &mut SimRng) {
    let pattern: Vec<bool> = (0..bits).map(|_| rng.gen_bit()).collect();
    s.store(v, &pattern).expect("store");
}

/// Channel-rotated mixed-op batch: fan-ins 2–5 over all four ops,
/// including single-operand NOT requests.
fn build_rotated(s: &mut PimSystem, count: usize, bits: u64, seed: u64) -> Vec<BatchRequest> {
    let mut rng = SimRng::seed_from_u64(seed);
    let ops = [
        BitwiseOp::Or,
        BitwiseOp::And,
        BitwiseOp::Xor,
        BitwiseOp::Not,
    ];
    let mut requests = Vec::with_capacity(count);
    for g in 0..count {
        let op = ops[g % ops.len()];
        let k = if op == BitwiseOp::Not { 1 } else { 2 + g % 4 };
        let group = s.alloc_group(k + 1, bits).expect("group");
        for v in &group[..k] {
            store_random(s, v, bits, &mut rng);
        }
        requests.push(BatchRequest {
            op,
            operands: group[..k].to_vec(),
            dst: group[k].clone(),
        });
    }
    requests
}

/// Lane-stacked batch: several same-subarray request chains share one
/// bank lane per channel, so the in-order issue cursor and lane
/// reservations, not the bus, bound the schedule.
fn build_stacked(s: &mut PimSystem, bits: u64, seed: u64) -> Vec<BatchRequest> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut requests = Vec::new();
    for _ in 0..4 {
        // One 16-vector group per channel; four stacked 3-operand
        // requests inside it.
        let group = s.alloc_group(16, bits).expect("group");
        for chunk in group.chunks(4) {
            for v in &chunk[..3] {
                store_random(s, v, bits, &mut rng);
            }
            requests.push(BatchRequest {
                op: BitwiseOp::Xor,
                operands: chunk[..3].to_vec(),
                dst: chunk[3].clone(),
            });
        }
    }
    requests
}

/// A batch with host-fallback requests: operands spread over several
/// channels force bus round-trips, and the destinations share a channel
/// with long intra-subarray chains (the bench's adversarial mechanism,
/// smaller).
fn build_fallback_mix(s: &mut PimSystem, bits: u64, seed: u64) -> Vec<BatchRequest> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut requests = Vec::new();
    let home = s.alloc_group(3, bits).expect("home");
    let r1 = s.alloc_group(2, bits).expect("remote 1");
    let r2 = s.alloc_group(2, bits).expect("remote 2");
    let chain = s.alloc_group(7, bits).expect("chain");
    let mut operands = home[..2].to_vec();
    operands.extend_from_slice(&r1);
    operands.extend_from_slice(&r2);
    for v in &operands {
        store_random(s, v, bits, &mut rng);
    }
    requests.push(BatchRequest {
        op: BitwiseOp::Or,
        operands,
        dst: home[2].clone(),
    });
    for v in &chain[..6] {
        store_random(s, v, bits, &mut rng);
    }
    requests.push(BatchRequest {
        op: BitwiseOp::Xor,
        operands: chain[..6].to_vec(),
        dst: chain[6].clone(),
    });
    requests
}

type Builder = fn(&mut PimSystem) -> Vec<BatchRequest>;

fn shapes() -> Vec<(&'static str, Builder)> {
    vec![
        (
            "rotated",
            (|s| build_rotated(s, 16, 6000, 0xA11)) as Builder,
        ),
        ("stacked", (|s| build_stacked(s, 4096, 0xB22)) as Builder),
        (
            "fallback_mix",
            (|s| build_fallback_mix(s, 4096, 0xC33)) as Builder,
        ),
    ]
}

/// `makespan_ns` is sandwiched: at least every hard lower bound (longest
/// single request, per-channel serialized bus time, per-rank GDL port
/// time and tRRD spacing), at most the serial stream.
#[test]
fn interleaved_makespan_is_sandwiched() {
    for (name, build) in shapes() {
        let mut s = sys();
        let batch = build(&mut s);
        let report = s.execute_batch(&batch).expect("batch");
        let mk = &report.makespan;

        assert!(
            mk.makespan_ns <= report.serial_time_ns + 1e-6,
            "{name}: overlap can never lose to the serial stream"
        );

        // Lower bound 1: no request completes faster than its own
        // charged stream (minus the order-dependent MRS prefix).
        let longest = report
            .per_op
            .iter()
            .map(|(_, op)| op.time_ns - op.time.mrs_ns)
            .fold(0.0f64, f64::max);
        assert!(
            mk.makespan_ns >= longest - 1e-6,
            "{name}: makespan {} below the longest request {}",
            mk.makespan_ns,
            longest
        );

        // Lower bound 2: shared (bus + MRS) time serializes per channel.
        let channels = MemConfig::pcm_default().geometry.channels as usize;
        let mut shared_per_channel = vec![0.0f64; channels];
        for (i, op) in &report.per_op {
            let ch = batch[*i].dst.rows()[0].channel as usize;
            shared_per_channel[ch] += op.shared_ns;
        }
        let bus_bound = shared_per_channel.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(
            mk.makespan_ns >= bus_bound - 1e-6,
            "{name}: makespan {} below the per-channel bus bound {}",
            mk.makespan_ns,
            bus_bound
        );

        // Lower bounds 3 and 4: each rank has one GDL port, and its
        // activations sit at least tRRD apart.
        let t_rrd_ns = MemConfig::pcm_default().timing.t_rrd_ns;
        let mut ranks: BTreeMap<(u32, u32), (f64, u64)> = BTreeMap::new();
        for (i, op) in &report.per_op {
            let home = batch[*i].dst.rows()[0];
            let rank = ranks.entry((home.channel, home.rank)).or_default();
            rank.0 += op.time.gdl_ns;
            rank.1 += RequestStream::from_breakdown(&op.time, op.activations).activation_steps();
        }
        for ((channel, rank), (gdl_ns, acts)) in ranks {
            assert!(
                mk.makespan_ns >= gdl_ns - 1e-6,
                "{name}: makespan {} below the GDL port time {gdl_ns} of \
                 channel {channel} rank {rank}",
                mk.makespan_ns
            );
            let spacing = acts.saturating_sub(1) as f64 * t_rrd_ns;
            assert!(
                mk.makespan_ns >= spacing - 1e-6,
                "{name}: makespan {} below the tRRD spacing {spacing} of \
                 {acts} activations on channel {channel} rank {rank}",
                mk.makespan_ns
            );
        }
        assert!(
            mk.rrd_faw_stall_ns >= 0.0 && mk.bus_conflict_stall_ns >= 0.0,
            "{name}: stall accounts must be non-negative"
        );
    }
}

/// The bounded-lookahead plan is a permutation, is deterministic, and
/// never scores worse than the greedy incumbent under the shared
/// `planned_makespan_ns` metric.
#[test]
fn lookahead_plan_is_a_permutation_and_never_worse_than_greedy() {
    for (name, build) in shapes() {
        let mut s = sys();
        let batch = build(&mut s);
        let greedy = s.plan_batch_greedy(&batch);
        let planned = s.plan_batch(&batch);

        let mut sorted = planned.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..batch.len()).collect::<Vec<_>>(),
            "{name}: the plan must be a permutation of the batch"
        );
        assert_eq!(
            planned,
            s.plan_batch(&batch),
            "{name}: planning must be deterministic"
        );
        let greedy_ns = s.planned_makespan_ns(&batch, &greedy);
        let planned_ns = s.planned_makespan_ns(&batch, &planned);
        assert!(
            planned_ns <= greedy_ns + 1e-9,
            "{name}: lookahead ({planned_ns}) must never lose to greedy ({greedy_ns})"
        );
    }
}

/// The scheduler's shapes, replayed through the persistent worker-pool
/// session at 1/2/4 workers, are pinned to serial execution: result
/// bits, merged statistics and the fault ledger must all match.
#[test]
fn session_execution_of_scheduled_shapes_matches_serial() {
    for (name, build) in shapes() {
        let mut serial = faulty_sys();
        let batch = build(&mut serial);
        serial.execute_batch_serial(&batch).expect("serial");
        let serial_bits: Vec<Vec<bool>> = batch.iter().map(|r| serial.load(&r.dst)).collect();

        for workers in [1usize, 2, 4] {
            let mut pooled = faulty_sys();
            let batch = build(&mut pooled);
            let mut session = pooled.open_session_with_workers(workers);
            session.submit_batch(&batch).expect("submit");
            session.close().expect("close");
            let bits: Vec<Vec<bool>> = batch.iter().map(|r| pooled.load(&r.dst)).collect();
            assert_eq!(
                serial_bits, bits,
                "{name}: session must be bit-identical (workers={workers})"
            );
            assert_stats_match(name, serial.stats(), pooled.stats());
        }
    }
}
