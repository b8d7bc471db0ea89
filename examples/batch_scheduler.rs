//! Driver-scheduler example: submit a batch of operation requests and let
//! the §5 driver library reorder them — batching mode-register switches,
//! spreading same-rank launches past the tRRD/tFAW gates, and actually
//! executing per-channel queues on worker threads over memory shards.
//!
//! Run with `cargo run --release --example batch_scheduler`.

use pinatubo_core::BitwiseOp;
use pinatubo_runtime::{BatchRequest, MappingPolicy, PimSystem};
use std::time::Instant;

/// 24 independent requests with deliberately thrashing op kinds; the
/// channel-rotate policy keeps each request on one channel and spreads
/// consecutive requests over all four, so the batch shards cleanly.
fn build_batch(
    sys: &mut PimSystem,
    bits: u64,
) -> Result<Vec<BatchRequest>, pinatubo_runtime::RuntimeError> {
    let ops = [BitwiseOp::Or, BitwiseOp::And, BitwiseOp::Xor];
    (0..24)
        .map(|i| {
            let mut group = sys.alloc_group(5, bits)?;
            let dst = group.pop().expect("five vectors");
            Ok(BatchRequest {
                op: ops[i % ops.len()],
                operands: group,
                dst,
            })
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bits = 1u64 << 19;

    // Reference: the same scheduled order on the unified memory.
    let mut serial = PimSystem::pcm_default(MappingPolicy::ChannelRotate);
    let batch = build_batch(&mut serial, bits)?;
    let t0 = Instant::now();
    serial.execute_batch_serial(&batch)?;
    let serial_wall = t0.elapsed();

    // The real thing: per-channel shards on a one-shot session's workers.
    let mut sys = PimSystem::pcm_default(MappingPolicy::ChannelRotate);
    let batch = build_batch(&mut sys, bits)?;
    let t0 = Instant::now();
    let report = sys.execute_batch(&batch)?;
    let parallel_wall = t0.elapsed();

    println!("scheduled a 24-request batch (4-operand, 2^19-bit vectors):");
    println!(
        "  mode-register switches : {} naive -> {} scheduled",
        report.mode_switches_naive, report.mode_switches_scheduled
    );
    println!(
        "  serial command stream  : {:.2} us",
        report.serial_time_ns / 1000.0
    );
    println!(
        "  bank-parallel makespan : {:.2} us ({:.2}x overlap)",
        report.makespan_ns / 1000.0,
        report.channel_parallel_speedup()
    );
    for (channel, t) in report.channel_times_ns.iter().enumerate() {
        println!("    channel {channel}: {:.2} us busy", t / 1000.0);
    }
    let m = &report.makespan;
    println!("  critical-path breakdown:");
    println!(
        "    bus-serialized (DDR + MRS): {:.2} us, bank-lane work: {:.2} us",
        m.bus_serialized_ns / 1000.0,
        m.lane_ns / 1000.0
    );
    println!(
        "    {} bank lanes, {:.0}% of submitted work overlapped away, \
         {:.0} ns tRRD/tFAW launch stall, {:.0} ns waiting on busy bus/GDL slots",
        m.lanes_used,
        m.overlapped_fraction() * 100.0,
        m.rrd_faw_stall_ns,
        m.bus_conflict_stall_ns
    );
    println!(
        "  simulator wall-clock   : serial {:.2} ms, 4 sharded workers {:.2} ms ({:.2}x)",
        serial_wall.as_secs_f64() * 1e3,
        parallel_wall.as_secs_f64() * 1e3,
        serial_wall.as_secs_f64() / parallel_wall.as_secs_f64()
    );
    println!(
        "    (per-channel worker threads; wall-clock gain tracks the host's \
         spare cores, up to the 4 channel shards)"
    );
    Ok(())
}
