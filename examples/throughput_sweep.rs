//! A compact version of the Fig. 9 experiment: equivalent OR bandwidth
//! versus vector length and fan-in, straight from the public executor API —
//! followed by sustained multi-batch throughput through a persistent
//! session, with the same stream also driven through the multi-tenant
//! serving layer (admission control + deficit round-robin on top of a
//! session).
//!
//! Run with `cargo run --release --example throughput_sweep`.

use pinatubo_baselines::{BitwiseExecutor, PinatuboExecutor, SimdCpu};
use pinatubo_core::{BitwiseOp, BulkOp, PinatuboConfig};
use pinatubo_mem::MemConfig;
use pinatubo_runtime::{BatchRequest, MappingPolicy, PimSystem};
use pinatubo_serve::{PimServer, ServeConfig, ServeError, TenantConfig};
use std::sync::Arc;
use std::time::Instant;

/// One round's worth of independent single-channel requests, rotated over
/// the channels (the same shape `bench_parallel` uses).
fn build_batch(s: &mut PimSystem, count: usize, bits: u64) -> Vec<BatchRequest> {
    let ops = [BitwiseOp::Or, BitwiseOp::And, BitwiseOp::Xor];
    (0..count)
        .map(|g| {
            let group = s.alloc_group(3, bits).expect("allocation fits");
            let pattern: Vec<bool> = (0..bits).map(|i| (i * 7 + g as u64) % 3 == 0).collect();
            s.store(&group[0], &pattern).expect("store");
            BatchRequest {
                op: ops[g % ops.len()],
                operands: group[..2].to_vec(),
                dst: group[2].clone(),
            }
        })
        .collect()
}

fn streaming_system() -> PimSystem {
    PimSystem::new(
        MemConfig::pcm_default(),
        PinatuboConfig::default(),
        MappingPolicy::ChannelRotate,
    )
}

/// Sustained multi-batch throughput: a `rounds x count` request stream
/// through one persistent session (workers spawned once, one dirty-delta
/// sync at close). Reports batches per second.
fn sustained_session(count: usize, bits: u64, rounds: usize) -> f64 {
    let mut pooled = streaming_system();
    let batch = build_batch(&mut pooled, count, bits);
    let t0 = Instant::now();
    let mut session = pooled.open_session();
    for _ in 0..rounds {
        session.submit_batch(&batch).expect("pooled batch");
    }
    session.close().expect("session close");
    rounds as f64 / t0.elapsed().as_secs_f64()
}

/// The same sustained stream through the serving layer: one registered
/// tenant, the round's requests as one shared slab, bounded admission
/// queues and the deficit scheduler between the stream and the session.
/// What this column shows is the serving layer's overhead (or lack of
/// it) on top of the raw pooled session. Its groups all share the one
/// tenant's home channel, where the session column's rotate over every
/// channel: the server spreads tenants, not one tenant's groups.
fn sustained_serve(count: usize, bits: u64, rounds: usize) -> f64 {
    let mut server = PimServer::new(
        streaming_system(),
        ServeConfig {
            workers: 1,
            channel_queue_capacity: count.max(1),
            quantum: count as u64,
            sync_every_rounds: 4,
        },
    );
    let tenant = server.register(TenantConfig {
        name: "sweep".into(),
        weight: 1,
        row_quota: 4 * count as u64 * bits.div_ceil(1 << 19).max(1),
    });
    let ops = [BitwiseOp::Or, BitwiseOp::And, BitwiseOp::Xor];
    let requests: Vec<BatchRequest> = (0..count)
        .map(|g| {
            let group = server
                .alloc_group(tenant, 3, bits)
                .expect("allocation fits");
            let pattern: Vec<bool> = (0..bits).map(|i| (i * 7 + g as u64) % 3 == 0).collect();
            server.store(&group[0], &pattern).expect("store");
            BatchRequest {
                op: ops[g % ops.len()],
                operands: group[..2].to_vec(),
                dst: group[2].clone(),
            }
        })
        .collect();
    let slab = Arc::new(requests);
    let t0 = Instant::now();
    let mut session = server.open();
    for _ in 0..rounds {
        loop {
            match session.submit(tenant, Arc::clone(&slab)) {
                Ok(()) => break,
                Err(ServeError::QueueFull { .. }) => {
                    session.advance().expect("advance");
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
    let report = session.finish().expect("finish");
    assert_eq!(report.tenants[0].batches_completed, rounds as u64);
    assert!(report.starved_tenants().is_empty());
    rounds as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let mut pim = PinatuboExecutor::multi_row();
    let mut cpu = SimdCpu::with_pcm();
    cpu.set_workload_footprint(Some(4 << 30)); // streaming workload

    println!(
        "{:<12}{:>16}{:>16}{:>16}{:>12}",
        "length", "2-row (GB/s)", "128-row (GB/s)", "SIMD (GB/s)", "128 vs SIMD"
    );
    for len_log2 in [12u32, 14, 16, 19] {
        let bits = 1u64 << len_log2;
        let two = BulkOp::intra(BitwiseOp::Or, 2, bits);
        let wide = BulkOp::intra(BitwiseOp::Or, 128, bits);
        let r2 = pim.execute(&two);
        let r128 = pim.execute(&wide);
        let rcpu = cpu.execute(&wide);
        println!(
            "{:<12}{:>16.1}{:>16.1}{:>16.1}{:>11.0}x",
            format!("2^{len_log2} bits"),
            r2.throughput_gbps(two.operand_bits()),
            r128.throughput_gbps(wide.operand_bits()),
            rcpu.throughput_gbps(wide.operand_bits()),
            rcpu.time_ns / r128.time_ns
        );
    }

    println!();
    println!("Sustained batch streams: persistent session vs serving layer");
    println!(
        "{:<22}{:>20}{:>18}{:>10}",
        "stream", "session (batch/s)", "serve (batch/s)", "ratio"
    );
    for (count, bits_log2, rounds) in [(16usize, 12u32, 16usize), (24, 14, 8), (48, 16, 4)] {
        let session_bps = sustained_session(count, 1 << bits_log2, rounds);
        let serve_bps = sustained_serve(count, 1 << bits_log2, rounds);
        println!(
            "{:<22}{:>20.0}{:>18.0}{:>9.2}x",
            format!("{count} req x 2^{bits_log2} bits"),
            session_bps,
            serve_bps,
            serve_bps / session_bps
        );
    }
}
