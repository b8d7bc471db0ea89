//! Serial vs persistent-session execution benchmark.
//!
//! Two executors run the same multi-round request stream:
//!
//! * **serial** — `execute_batch_serial`, one request at a time on the
//!   unified memory (the correctness reference);
//! * **pooled** — one persistent `ExecSession`: workers spawned once,
//!   shards owned for the whole stream, batches submitted back-to-back
//!   with no inter-batch barrier, one dirty-delta sync at close.
//!
//! The headline `wall_speedup` is **serial / pooled**. It is bounded by
//! the host's core count: on a single-core host it cannot exceed 1 for
//! compute-bound batches, since thread parallelism has no cores to run on
//! (see `host_cores` in the output). The modeled makespan column is the
//! scheduler's channel- and bank-parallel account of the same batch.
//!
//! The sweep covers three batch sizes x worker counts 1/2/4 and writes
//! machine-readable rows to `BENCH_parallel.json`.
//!
//! ```console
//! $ cargo run --release -p pinatubo-bench --bin bench_parallel
//! $ cargo run --release -p pinatubo-bench --bin bench_parallel -- --smoke
//! ```
//!
//! `--smoke` runs a small configuration through both paths and
//! asserts only the correctness properties (identical result bits,
//! consistent merged ledgers, modeled makespan no worse than serial,
//! and `open_session` + syncs on a pre-populated memory copying
//! O(channels + touched pages) row pages — the copy-on-write guard) —
//! no wall-clock thresholds and **no JSON output**, so CI runners can
//! never overwrite the committed measurement with noise.

use pinatubo_core::{BitwiseOp, PinatuboConfig};
use pinatubo_mem::{MemConfig, ROWS_PER_PAGE};
use pinatubo_runtime::{BatchRequest, MappingPolicy, PimBitVec, PimSystem, ScheduleReport};
use std::time::Instant;

fn sys() -> PimSystem {
    let mut s = PimSystem::new(
        MemConfig::pcm_default(),
        PinatuboConfig::default(),
        MappingPolicy::ChannelRotate,
    );
    // Page-align allocation groups so a request's destination never
    // shares a copy-on-write page with a neighbouring group's operands:
    // a session shard's first write then copies only the group's own
    // pages instead of dragging cold foreign rows through the copy.
    s.set_page_aligned_groups(true);
    s
}

/// Builds `count` independent `k`-operand OR/AND/XOR requests over
/// `bits`-bit vectors. Channel-rotate placement keeps every request on one
/// channel and spreads consecutive requests round-robin over all four, so
/// the batch is maximally shardable.
fn build_batch(
    s: &mut PimSystem,
    count: usize,
    k: usize,
    bits: u64,
) -> (Vec<BatchRequest>, Vec<PimBitVec>) {
    let ops = [BitwiseOp::Or, BitwiseOp::And, BitwiseOp::Xor];
    let mut requests = Vec::with_capacity(count);
    let mut dsts = Vec::with_capacity(count);
    for g in 0..count {
        let group = s.alloc_group(k + 1, bits).expect("allocation fits");
        for (v, salt) in group[..k].iter().zip(1u64..) {
            let pattern: Vec<bool> = (0..bits)
                .map(|i| (i.wrapping_mul(2654435761).wrapping_add(salt * g as u64)) & 4 != 0)
                .collect();
            s.store(v, &pattern).expect("store");
        }
        dsts.push(group[k].clone());
        requests.push(BatchRequest {
            op: ops[g % ops.len()],
            operands: group[..k].to_vec(),
            dst: group[k].clone(),
        });
    }
    (requests, dsts)
}

#[derive(Clone, Copy)]
struct Scenario {
    name: &'static str,
    count: usize,
    k: usize,
    bits: u64,
    /// How many times the batch is resubmitted: the persistent pool's
    /// whole point is amortizing setup over a stream of batches.
    rounds: usize,
}

struct Measurement {
    scenario: Scenario,
    workers: usize,
    channels: u32,
    serial_wall_ms: f64,
    pooled_wall_ms: f64,
    report: ScheduleReport,
    bits_identical: bool,
    ledger_consistent: bool,
    /// Copy-on-write row pages the pooled run copied (session open +
    /// shard first-writes + syncs), from `MemStats::row_pages_copied`.
    pooled_pages_copied: u64,
}

impl Measurement {
    /// Persistent pool vs one-request-at-a-time serial execution.
    fn wall_speedup(&self) -> f64 {
        self.serial_wall_ms / self.pooled_wall_ms
    }

    fn modeled_speedup(&self) -> f64 {
        self.report.serial_time_ns / self.report.makespan_ns
    }

    fn to_json(&self) -> String {
        format!(
            "    {{\n      \"scenario\": \"{}\",\n      \"requests\": {},\n      \
             \"operands_per_request\": {},\n      \"bits_per_vector\": {},\n      \
             \"rounds\": {},\n      \"channels\": {},\n      \"workers\": {},\n      \
             \"serial_wall_ms\": {:.3},\n      \
             \"pooled_wall_ms\": {:.3},\n      \"wall_speedup\": {:.3},\n      \
             \"modeled_serial_us\": {:.3},\n      \
             \"modeled_makespan_us\": {:.3},\n      \"modeled_speedup\": {:.3},\n      \
             \"pooled_pages_copied\": {},\n      \
             \"bits_identical\": {},\n      \"ledger_consistent\": {}\n    }}",
            self.scenario.name,
            self.scenario.count,
            self.scenario.k,
            self.scenario.bits,
            self.scenario.rounds,
            self.channels,
            self.workers,
            self.serial_wall_ms,
            self.pooled_wall_ms,
            self.wall_speedup(),
            self.report.serial_time_ns / 1000.0,
            self.report.makespan_ns / 1000.0,
            self.modeled_speedup(),
            self.pooled_pages_copied,
            self.bits_identical,
            self.ledger_consistent,
        )
    }
}

fn run_serial(scenario: Scenario) -> (f64, ScheduleReport, Vec<Vec<bool>>) {
    let mut serial = sys();
    let (batch, outs) = build_batch(&mut serial, scenario.count, scenario.k, scenario.bits);
    let t0 = Instant::now();
    let mut report = None;
    for _ in 0..scenario.rounds {
        report = Some(serial.execute_batch_serial(&batch).expect("serial batch"));
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (
        wall_ms,
        report.expect("at least one round"),
        outs.iter().map(|v| serial.load(v)).collect(),
    )
}

fn run_pooled(scenario: Scenario, workers: usize) -> (f64, Vec<Vec<bool>>, bool, u64) {
    let mut pooled = sys();
    let (batch, outs) = build_batch(&mut pooled, scenario.count, scenario.k, scenario.bits);
    let batch = std::sync::Arc::new(batch);
    let t0 = Instant::now();
    let mut session = pooled.open_session_with_workers(workers);
    for _ in 0..scenario.rounds {
        session.submit_batch_shared(&batch).expect("pooled batch");
    }
    session.close().expect("session close");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (
        wall_ms,
        outs.iter().map(|v| pooled.load(v)).collect(),
        pooled.stats().reliability.is_consistent(),
        pooled.stats().row_pages_copied,
    )
}

/// One full two-executor measurement. `reversed` flips the executor
/// order (pooled → serial): alternating it across iterations
/// counterbalances drift that systematically favours whichever executor
/// runs first (allocator state, frequency scaling, co-tenant load ramps).
fn measure(scenario: Scenario, workers: usize, reversed: bool) -> Measurement {
    let serial;
    let pooled;
    if reversed {
        pooled = run_pooled(scenario, workers);
        serial = run_serial(scenario);
    } else {
        serial = run_serial(scenario);
        pooled = run_pooled(scenario, workers);
    }
    let (serial_wall_ms, report, serial_bits) = serial;
    let (pooled_wall_ms, pooled_bits, ledger_consistent, pooled_pages_copied) = pooled;

    Measurement {
        scenario,
        workers,
        channels: MemConfig::pcm_default().geometry.channels,
        serial_wall_ms,
        pooled_wall_ms,
        bits_identical: serial_bits == pooled_bits,
        ledger_consistent,
        pooled_pages_copied,
        report,
    }
}

fn check(m: &Measurement) {
    // Sanity assertions — correctness properties only, never wall-clock
    // thresholds (CI runners share cores and vary wildly).
    assert!(
        m.bits_identical,
        "parallel result bits diverged from serial ({} x{} workers)",
        m.scenario.name, m.workers
    );
    assert!(
        m.ledger_consistent,
        "merged reliability ledger inconsistent ({} x{} workers)",
        m.scenario.name, m.workers
    );
    assert!(
        m.report.makespan_ns <= m.report.serial_time_ns * (1.0 + 1e-9),
        "modeled makespan exceeds the serial command stream"
    );
    assert!(
        m.serial_wall_ms > 0.0 && m.pooled_wall_ms > 0.0,
        "wall-clock timers must advance"
    );
    // The copy-on-write regression guard: opening a session on a
    // pre-populated memory plus the whole stream's syncs must copy row
    // pages proportional to channels + touched pages — never to the
    // populated-row count or to capacity. Each request's first write
    // can copy every page its destination touches (+1 if the
    // destination starts mid-page).
    let page = u64::from(ROWS_PER_PAGE);
    let row_bits = MemConfig::pcm_default().geometry.logical_row_bits();
    let rows_per_vector = m.scenario.bits.div_ceil(row_bits);
    let touched_pages = m.scenario.count as u64 * (rows_per_vector.div_ceil(page) + 1);
    let bound = u64::from(m.channels) + touched_pages;
    // Zero is legitimate (and ideal): an aligned destination whose page
    // was never materialized in the parent is created fresh, not copied.
    assert!(
        m.pooled_pages_copied <= bound,
        "session row-page copies must stay O(channels + touched pages): \
         copied {} against bound {} ({} x{} workers)",
        m.pooled_pages_copied,
        bound,
        m.scenario.name,
        m.workers
    );
}

fn print_row(m: &Measurement) {
    println!(
        "{:<7} {:>3} req x{:<2} 2^{:<2} bits r{} w{} | serial {:>8.2} ms | pooled {:>8.2} ms | {:>5.2}x vs serial | modeled {:>5.2}x",
        m.scenario.name,
        m.scenario.count,
        m.scenario.k,
        m.scenario.bits.trailing_zeros(),
        m.scenario.rounds,
        m.workers,
        m.serial_wall_ms,
        m.pooled_wall_ms,
        m.wall_speedup(),
        m.modeled_speedup(),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    if smoke {
        // Correctness only, through both paths, on two pool sizes. No
        // JSON: the committed BENCH_parallel.json holds the full-profile
        // measurement and CI must never clobber it with shared-runner
        // noise.
        let scenario = Scenario {
            name: "smoke",
            count: 24,
            k: 4,
            bits: 1 << 14,
            rounds: 2,
        };
        for workers in [1usize, 2] {
            let m = measure(scenario, workers, false);
            check(&m);
            print_row(&m);
        }
        println!("smoke OK (correctness only; no BENCH_parallel.json written)");
        return;
    }

    let scenarios = [
        Scenario {
            name: "small",
            count: 24,
            k: 4,
            bits: 1 << 14,
            rounds: 8,
        },
        Scenario {
            name: "medium",
            count: 48,
            k: 6,
            bits: 1 << 16,
            rounds: 4,
        },
        Scenario {
            name: "large",
            count: 96,
            k: 8,
            bits: 1 << 18,
            rounds: 2,
        },
    ];

    // Warm the allocator/page-cache paths so the first measurement does
    // not absorb one-time costs the later ones skip.
    let _ = measure(
        Scenario {
            name: "warmup",
            count: 8,
            k: 2,
            bits: 1 << 12,
            rounds: 1,
        },
        2,
        false,
    );

    println!("# Persistent pool vs serial ({host_cores} host cores)");
    let mut rows = Vec::new();
    for scenario in scenarios {
        for workers in [1usize, 2, 4] {
            // Per-executor best-of-9, executor order alternating between
            // iterations: shared runners preempt whole quanta, which
            // shows up as multi-x outliers. Each executor's wall time is
            // measured independently, so the minimum per executor is the
            // least-preempted estimate of its true cost; taking a whole
            // iteration instead would let one executor's unlucky quantum
            // distort the ratio, and a fixed order would let slow drift
            // systematically favour one side.
            let mut iters: Vec<Measurement> = (0..9)
                .map(|i| measure(scenario, workers, i % 2 == 1))
                .collect();
            for m in &iters {
                check(m);
            }
            let min_of = |f: fn(&Measurement) -> f64| iters.iter().map(f).fold(f64::MAX, f64::min);
            let serial = min_of(|m| m.serial_wall_ms);
            let pooled = min_of(|m| m.pooled_wall_ms);
            let mut m = iters.pop().expect("nine iterations");
            m.serial_wall_ms = serial;
            m.pooled_wall_ms = pooled;
            print_row(&m);
            rows.push(m);
        }
    }

    let best = rows
        .iter()
        .map(Measurement::wall_speedup)
        .fold(f64::MIN, f64::max);
    println!("\nbest pooled-vs-serial wall speedup: {best:.2}x");

    let json = format!(
        "{{\n  \"host_cores\": {},\n  \"wall_speedup_definition\": \
         \"serial_wall_ms / pooled_wall_ms: the persistent session at the \
         given worker count vs execute_batch_serial on the same stream. \
         Bounded by host_cores: with one core the worker threads have no \
         spare core to run on. modeled_speedup is the scheduler's modeled \
         serial stream over the channel- and bank-parallel makespan.\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        host_cores,
        rows.iter()
            .map(Measurement::to_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");
}
