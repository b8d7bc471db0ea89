//! Serial vs persistent-session execution benchmark.
//!
//! Two executors run the same multi-round request stream:
//!
//! * **serial** — `execute_batch_serial`, one request at a time on the
//!   unified memory (the correctness reference);
//! * **pooled** — one persistent `ExecSession`: workers spawned once,
//!   shards cloned once and claimed channel by channel by the workers
//!   and, at close, by the caller; batches submitted back-to-back with
//!   no inter-batch barrier, one dirty-delta sync at close.
//!
//! The headline `wall_speedup` is **serial / pooled**. It is bounded by
//! the host's core count: on a single-core host it cannot exceed 1 for
//! compute-bound batches, since thread parallelism has no cores to run on
//! (see `host.cores` in the output). The modeled makespan column is the
//! scheduler's channel- and bank-parallel account of the same batch.
//!
//! The full profile sweeps three batch sizes x worker counts 1/2/4, best
//! of nine per executor, and writes `BENCH_parallel.json`.
//!
//! ```console
//! $ cargo run --release -p pinatubo-bench --bin bench_parallel
//! $ cargo run --release -p pinatubo-bench --bin bench_parallel -- --smoke
//! ```
//!
//! `--smoke` runs one small configuration once on two pool sizes. Both
//! profiles assert only correctness on every iteration (identical result
//! bits, consistent merged ledgers, modeled makespan no worse than
//! serial, and `open_session` + syncs on a pre-populated memory copying
//! O(channels + touched pages) row pages — the copy-on-write guard),
//! never a wall-clock threshold.

use pinatubo_bench::report::{self, Json, Profile};
use pinatubo_bench::{rotated_sys, uniform_batch};
use pinatubo_mem::{MemConfig, ROWS_PER_PAGE};
use pinatubo_runtime::ScheduleReport;
use std::time::Instant;

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

    fn row(&self) -> Json {
        Json::obj([
            ("scenario", self.scenario.name.into()),
            ("requests", self.scenario.count.into()),
            ("operands_per_request", self.scenario.k.into()),
            ("bits_per_vector", self.scenario.bits.into()),
            ("rounds", self.scenario.rounds.into()),
            ("channels", self.channels.into()),
            ("workers", self.workers.into()),
            ("serial_wall_ms", self.serial_wall_ms.into()),
            ("pooled_wall_ms", self.pooled_wall_ms.into()),
            ("wall_speedup", self.wall_speedup().into()),
            (
                "modeled_serial_us",
                (self.report.serial_time_ns / 1000.0).into(),
            ),
            (
                "modeled_makespan_us",
                (self.report.makespan_ns / 1000.0).into(),
            ),
            ("modeled_speedup", self.modeled_speedup().into()),
            ("pooled_pages_copied", self.pooled_pages_copied.into()),
            ("bits_identical", self.bits_identical.into()),
            ("ledger_consistent", self.ledger_consistent.into()),
        ])
    }
}

fn run_serial(scenario: Scenario) -> (f64, ScheduleReport, Vec<Vec<bool>>) {
    let mut serial = rotated_sys();
    let batch = uniform_batch(&mut serial, scenario.count, scenario.k, scenario.bits);
    let t0 = Instant::now();
    let mut report = None;
    for _ in 0..scenario.rounds {
        report = Some(serial.execute_batch_serial(&batch).expect("serial batch"));
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (
        wall_ms,
        report.expect("at least one round"),
        batch.iter().map(|r| serial.load(&r.dst)).collect(),
    )
}

fn run_pooled(scenario: Scenario, workers: usize) -> (f64, Vec<Vec<bool>>, bool, u64) {
    let mut pooled = rotated_sys();
    let batch = uniform_batch(&mut pooled, scenario.count, scenario.k, scenario.bits);
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
        batch.iter().map(|r| pooled.load(&r.dst)).collect(),
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
    let profile = Profile::from_args();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let make = |name, count, k, bits, rounds| Scenario {
        name,
        count,
        k,
        bits,
        rounds,
    };
    let scenarios = profile.pick(
        vec![make("smoke", 24, 4, 1 << 14, 2)],
        vec![
            make("small", 24, 4, 1 << 14, 8),
            make("medium", 48, 6, 1 << 16, 4),
            make("large", 96, 8, 1 << 18, 2),
        ],
    );
    let worker_counts = profile.pick(&[1usize, 2][..], &[1, 2, 4]);
    let reps = profile.pick(1, 9);

    // Warm the allocator/page-cache paths so the first measurement does
    // not absorb one-time costs the later ones skip.
    let _ = measure(make("warmup", 8, 2, 1 << 12, 1), 2, false);

    println!("# Persistent pool vs serial ({host_cores} host cores)");
    let mut rows = Vec::new();
    for scenario in scenarios {
        for &workers in worker_counts {
            // Per-executor best-of-reps, executor order alternating between
            // iterations: shared runners preempt whole quanta, which
            // shows up as multi-x outliers. Each executor's wall time is
            // measured independently, so the minimum per executor is the
            // least-preempted estimate of its true cost; taking a whole
            // iteration instead would let one executor's unlucky quantum
            // distort the ratio, and a fixed order would let slow drift
            // systematically favour one side.
            let mut iters: Vec<Measurement> = (0..reps)
                .map(|i| measure(scenario, workers, i % 2 == 1))
                .collect();
            for m in &iters {
                check(m);
            }
            let min_of = |f: fn(&Measurement) -> f64| iters.iter().map(f).fold(f64::MAX, f64::min);
            let serial = min_of(|m| m.serial_wall_ms);
            let pooled = min_of(|m| m.pooled_wall_ms);
            let mut m = iters.pop().expect("at least one iteration");
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

    report::finish(
        profile,
        "parallel",
        "wall_speedup is serial_wall_ms / pooled_wall_ms: the persistent \
         session at the given worker count vs execute_batch_serial on the \
         same stream, each the best of nine. Bounded by host.cores: the \
         session runs on its worker threads and, at close, the caller, and \
         with one core the caller runs every job itself. \
         modeled_speedup is the scheduler's modeled serial stream over the \
         channel- and bank-parallel makespan.",
        Vec::new(),
        rows.iter().map(Measurement::row).collect(),
    );
}
