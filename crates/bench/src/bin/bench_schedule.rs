//! Request-granularity vs command-interleaved makespan, and greedy vs
//! bounded-lookahead planning.
//!
//! Every batch is scored under both channel-controller models the
//! scheduler maintains:
//!
//! * **request granularity** — each request is one opaque block: one
//!   lane reservation, one tRRD/tFAW launch gate, and a bus cursor that
//!   serializes whole requests (`request_granularity_ns`);
//! * **command interleaving** — each request expands into its timed
//!   command stream (ACT units, sense/write lane blocks, GDL hops, bus
//!   bursts) and commands from different requests interleave on the
//!   channel's discrete resources (`makespan_ns`).
//!
//! The per-channel minimum of the two makes `makespan_ns ≤
//! request_granularity_ns` hold by construction; the bench measures how
//! much the interleaving actually recovers. It also compares the greedy
//! list schedule (`plan_batch_greedy`) against the full bounded-lookahead
//! plan (`plan_batch`) under `planned_makespan_ns`.
//!
//! Three uniform shapes (small/medium/large, channel-rotated
//! intra-subarray batches) establish the baseline — lane-dominated
//! streams leave little for interleaving to recover — and three pinned
//! adversarial shapes isolate the effects the coarse model and one-step
//! greedy provably miss:
//!
//! * **`bus_hog`** — a high-fan-in host-fallback request whose DDR
//!   bursts hold the channel bus, followed by long lane-only XOR chains
//!   on another rank. The fused model launches the chains behind the
//!   full bus hold, while the interleaved model starts their lane work
//!   immediately (pinned tightening);
//! * **`fanin_trap`** — three short requests stacked on one bank lane
//!   plus one long request on another bank. Greedy dispatches the short
//!   requests first (they finish earliest), which advances the channel's
//!   in-order issue cursor past their stacked lane starts and pushes the
//!   long request's launch late; the lookahead plan dispatches the long
//!   request early and hides the stack behind it (pinned planner win);
//! * **`mixed_fan_in`** — both at once, fan-ins 3/6/8 mixed: the hog
//!   and chains on channel 0, the trap on channel 1. Both pinned wins
//!   must survive in one batch.
//!
//! ```console
//! $ cargo run --release -p pinatubo-bench --bin bench_schedule
//! $ cargo run --release -p pinatubo-bench --bin bench_schedule -- --smoke
//! ```
//!
//! `--smoke` drops the medium and large uniform shapes and writes nothing.
//! Both profiles assert the correctness properties on every shape (result
//! bits identical to serial execution, interleaved ≤ request-granularity,
//! lookahead ≤ greedy) and the pinned adversarial wins.

use pinatubo_bench::report::{self, Json, Profile};
use pinatubo_bench::{rotated_sys, store_pattern, uniform_batch};
use pinatubo_core::BitwiseOp;
use pinatubo_mem::MemConfig;
use pinatubo_runtime::{BatchRequest, PimBitVec, PimSystem, ScheduleReport};

/// Minimum fraction of the request-granularity makespan the interleaved
/// placement must recover on the `mixed_fan_in` shape. The shape is
/// deterministic, so this is a regression pin, not a noisy threshold.
/// (Measured: 18.8%.)
const MIXED_MIN_TIGHTENING: f64 = 0.10;
/// Minimum fractional improvement of the lookahead plan over the greedy
/// plan on the `mixed_fan_in` shape (same pinning rationale; measured
/// 22.1%).
const MIXED_MIN_LOOKAHEAD_WIN: f64 = 0.02;
/// Tightening pin for the `bus_hog` shape (measured 19.3%).
const BUS_HOG_MIN_TIGHTENING: f64 = 0.15;
/// Lookahead-win pin for the `fanin_trap` shape (measured 33.2%).
const TRAP_MIN_LOOKAHEAD_WIN: f64 = 0.25;

/// Bits per adversarial vector: one sense pass and a 40 ns DDR burst, so
/// every request's shape is set by its fan-in and class, not its width.
const ADV_BITS: u64 = 4096;
/// Rows to skip so the next allocation on the current channel lands in
/// the next bank (subarrays_per_bank × rows_per_subarray for the PCM
/// geometry): destinations get distinct lanes when the shape needs them.
fn bank_stride_rows() -> u64 {
    let g = MemConfig::pcm_default().geometry;
    u64::from(g.subarrays_per_bank) * u64::from(g.rows_per_subarray)
}

/// A plain (non-group) allocation of one bank's worth of rows: advances
/// the current rotation channel's cursor into the next bank without
/// advancing the rotation itself.
fn skip_bank(s: &mut PimSystem) {
    let row_bits = MemConfig::pcm_default().geometry.logical_row_bits();
    s.alloc(bank_stride_rows() * row_bits).expect("bank filler");
}

/// Burns one rotation slot so the next group lands on the next channel.
fn skip_rotation(s: &mut PimSystem) {
    s.alloc_group(1, ADV_BITS).expect("rotation placeholder");
}

/// One 8-operand host-fallback **bus hog** (destination on channel 0
/// rank 0, operands spread over channels 2 and 3) plus two long
/// 8-operand intra-subarray XOR chains on two channel-0 **rank-1**
/// banks. Greedy dispatches the hog first (it finishes earliest), and
/// then the fused model launches each chain behind the hog's full DDR
/// bus hold, while the command-interleaved model starts the chains'
/// lane work immediately — the bus hold only blocks bus slots, and the
/// chains have none. The rank split keeps the chains off the hog's
/// tRRD/tFAW ledger, so every dispatch order scores the same under the
/// interleaved model and the greedy hog-first order is retained.
fn build_bus_hog(s: &mut PimSystem) -> Vec<BatchRequest> {
    let home = s.alloc_group(3, ADV_BITS).expect("hog home");
    skip_rotation(s);
    let r2 = s.alloc_group(3, ADV_BITS).expect("hog ops ch2");
    let r3 = s.alloc_group(3, ADV_BITS).expect("hog ops ch3");
    let mut chains = Vec::new();
    for banks_to_skip in [8, 1] {
        for _ in 0..banks_to_skip {
            skip_bank(s);
        }
        chains.push(s.alloc_group(9, ADV_BITS).expect("lane chain"));
        skip_rotation(s);
        skip_rotation(s);
        skip_rotation(s);
    }
    hog_requests(s, &home, &[r2, r3].concat(), &chains)
}

/// The **issue-cursor trap**: three short 3-operand XOR requests stacked
/// on one bank lane plus one long 6-operand XOR on another bank of the
/// same channel. Greedy dispatches the short requests first (they finish
/// earliest); each stacked dispatch advances the channel's in-order
/// issue cursor, so the long request launches late and sticks out. The
/// lookahead plan dispatches the long request early and hides the stack
/// behind it.
fn build_fanin_trap(s: &mut PimSystem) -> Vec<BatchRequest> {
    let gta = s.alloc_group(12, ADV_BITS).expect("trap stack");
    skip_rotation(s);
    skip_rotation(s);
    skip_rotation(s);
    skip_bank(s);
    let gtb = s.alloc_group(7, ADV_BITS).expect("trap long");
    trap_requests(s, &gta, &gtb)
}

/// The pinned adversarial batch: the channel-0 bus hog and rank-1 lane
/// chains of [`build_bus_hog`] together with the channel-1 issue-cursor
/// trap of [`build_fanin_trap`]. Fan-ins 3/6/8 mixed — hence the name.
/// The interleaving win and the lookahead win must both survive in one
/// batch.
fn build_mixed_fan_in(s: &mut PimSystem) -> Vec<BatchRequest> {
    // Rotation cycle 1: hog home (ch0), trap stack (ch1), hog remote
    // operands (ch2, ch3).
    let gh0 = s.alloc_group(3, ADV_BITS).expect("hog home");
    let gta = s.alloc_group(12, ADV_BITS).expect("trap stack");
    let go2 = s.alloc_group(3, ADV_BITS).expect("hog ops ch2");
    let go3 = s.alloc_group(3, ADV_BITS).expect("hog ops ch3");

    // Cycle 2: first lane chain on ch0 rank 1 (off the hog's tRRD/tFAW
    // ledger); next ch1 bank for the trap's long request.
    for _ in 0..8 {
        skip_bank(s);
    }
    let chain_a = s.alloc_group(9, ADV_BITS).expect("lane chain a");
    skip_bank(s);
    let gtb = s.alloc_group(7, ADV_BITS).expect("trap long");
    skip_rotation(s);
    skip_rotation(s);

    // Cycle 3: second lane chain on the next ch0 rank-1 bank.
    skip_bank(s);
    let chain_b = s.alloc_group(9, ADV_BITS).expect("lane chain b");

    let mut requests = trap_requests(s, &gta, &gtb);
    let remote = [go2, go3].concat();
    requests.extend(hog_requests(s, &gh0, &remote, &[chain_a, chain_b]));
    requests
}

/// The hog's requests: one 8-operand XOR of `home[..2]` and `remote` into
/// `home[2]`, then one XOR chain per group of `chains`.
fn hog_requests(
    s: &mut PimSystem,
    home: &[PimBitVec],
    remote: &[PimBitVec],
    chains: &[Vec<PimBitVec>],
) -> Vec<BatchRequest> {
    let operands = [&home[..2], remote].concat();
    let mut requests = vec![xor_into(s, &operands, &home[2], 300)];
    for (c, chain) in chains.iter().enumerate() {
        requests.push(xor_group(s, chain, 400 + c as u64 * 13));
    }
    requests
}

/// The trap's requests: three short XORs over the 4-vector chunks of
/// `stack`, then the long XOR over `long`.
fn trap_requests(s: &mut PimSystem, stack: &[PimBitVec], long: &[PimBitVec]) -> Vec<BatchRequest> {
    let mut requests: Vec<BatchRequest> = stack
        .chunks(4)
        .enumerate()
        .map(|(a, trap)| xor_group(s, trap, 100 + a as u64 * 7))
        .collect();
    requests.push(xor_group(s, long, 200));
    requests
}

/// XORs every vector of `group` but the last into the last.
fn xor_group(s: &mut PimSystem, group: &[PimBitVec], salt: u64) -> BatchRequest {
    let (dst, operands) = group.split_last().expect("non-empty group");
    xor_into(s, operands, dst, salt)
}

/// Stores operand `j` with salt `salt + j` and XORs the operands into `dst`.
fn xor_into(s: &mut PimSystem, operands: &[PimBitVec], dst: &PimBitVec, salt: u64) -> BatchRequest {
    for (j, v) in operands.iter().enumerate() {
        store_pattern(s, v, ADV_BITS, salt + j as u64);
    }
    BatchRequest {
        op: BitwiseOp::Xor,
        operands: operands.to_vec(),
        dst: dst.clone(),
    }
}

struct Measurement {
    shape: &'static str,
    requests: usize,
    report: ScheduleReport,
    greedy_planned_ns: f64,
    lookahead_planned_ns: f64,
    bits_identical: bool,
}

impl Measurement {
    /// Fraction of the request-granularity makespan recovered by
    /// command interleaving.
    fn tightening(&self) -> f64 {
        let rg = self.report.makespan.request_granularity_ns;
        if rg == 0.0 {
            0.0
        } else {
            self.report.makespan.interleave_recovered_ns / rg
        }
    }

    /// Fractional improvement of the lookahead plan over greedy.
    fn lookahead_win(&self) -> f64 {
        if self.greedy_planned_ns == 0.0 {
            0.0
        } else {
            1.0 - self.lookahead_planned_ns / self.greedy_planned_ns
        }
    }

    fn row(&self) -> Json {
        let m = &self.report.makespan;
        Json::obj([
            ("shape", self.shape.into()),
            ("requests", self.requests.into()),
            ("serial_ns", self.report.serial_time_ns.into()),
            ("request_granularity_ns", m.request_granularity_ns.into()),
            ("makespan_ns", m.makespan_ns.into()),
            ("interleave_recovered_ns", m.interleave_recovered_ns.into()),
            ("tightening", self.tightening().into()),
            ("rrd_faw_stall_ns", m.rrd_faw_stall_ns.into()),
            ("bus_conflict_stall_ns", m.bus_conflict_stall_ns.into()),
            ("lanes_used", m.lanes_used.into()),
            ("greedy_planned_ns", self.greedy_planned_ns.into()),
            ("lookahead_planned_ns", self.lookahead_planned_ns.into()),
            ("lookahead_win", self.lookahead_win().into()),
            ("bits_identical", self.bits_identical.into()),
        ])
    }
}

fn measure(
    shape: &'static str,
    build: impl Fn(&mut PimSystem) -> Vec<BatchRequest>,
) -> Measurement {
    // Serial reference for result bits.
    let mut serial = rotated_sys();
    let batch_s = build(&mut serial);
    serial.execute_batch_serial(&batch_s).expect("serial");
    let serial_bits: Vec<Vec<bool>> = batch_s.iter().map(|r| serial.load(&r.dst)).collect();

    // Scheduled execution and the planner comparison.
    let mut parallel = rotated_sys();
    let batch = build(&mut parallel);
    let greedy = parallel.plan_batch_greedy(&batch);
    let planned = parallel.plan_batch(&batch);
    let greedy_planned_ns = parallel.planned_makespan_ns(&batch, &greedy);
    let lookahead_planned_ns = parallel.planned_makespan_ns(&batch, &planned);
    let report = parallel.execute_batch(&batch).expect("batch");
    let batch_bits: Vec<Vec<bool>> = batch.iter().map(|r| parallel.load(&r.dst)).collect();

    Measurement {
        shape,
        requests: batch.len(),
        report,
        greedy_planned_ns,
        lookahead_planned_ns,
        bits_identical: serial_bits == batch_bits,
    }
}

fn check(m: &Measurement) {
    let mk = &m.report.makespan;
    assert!(
        m.bits_identical,
        "{}: scheduled result bits diverged from serial",
        m.shape
    );
    assert!(
        mk.makespan_ns <= mk.request_granularity_ns + 1e-6,
        "{}: interleaved makespan {} exceeds request-granularity {}",
        m.shape,
        mk.makespan_ns,
        mk.request_granularity_ns
    );
    assert!(
        (mk.interleave_recovered_ns - (mk.request_granularity_ns - mk.makespan_ns).max(0.0)).abs()
            < 1e-6,
        "{}: recovered time must equal the model gap",
        m.shape
    );
    assert!(
        mk.makespan_ns <= m.report.serial_time_ns + 1e-6,
        "{}: makespan exceeds the serial command stream",
        m.shape
    );
    assert!(
        m.lookahead_planned_ns <= m.greedy_planned_ns + 1e-6,
        "{}: lookahead plan ({}) worse than greedy ({})",
        m.shape,
        m.lookahead_planned_ns,
        m.greedy_planned_ns
    );
    assert!(
        mk.rrd_faw_stall_ns >= 0.0 && mk.bus_conflict_stall_ns >= 0.0,
        "{}: stall accounts must be non-negative",
        m.shape
    );
    let (min_tightening, min_lookahead_win) = match m.shape {
        "mixed_fan_in" => (MIXED_MIN_TIGHTENING, MIXED_MIN_LOOKAHEAD_WIN),
        "bus_hog" => (BUS_HOG_MIN_TIGHTENING, 0.0),
        "fanin_trap" => (0.0, TRAP_MIN_LOOKAHEAD_WIN),
        _ => (0.0, 0.0),
    };
    assert!(
        m.tightening() >= min_tightening,
        "{}: interleaving recovered only {:.1}% of the \
         request-granularity makespan (pinned ≥ {:.0}%)",
        m.shape,
        m.tightening() * 100.0,
        min_tightening * 100.0
    );
    assert!(
        m.lookahead_win() >= min_lookahead_win,
        "{}: lookahead improved on greedy by only {:.1}% (pinned ≥ {:.0}%)",
        m.shape,
        m.lookahead_win() * 100.0,
        min_lookahead_win * 100.0
    );
}

fn print_row(m: &Measurement) {
    let mk = &m.report.makespan;
    println!(
        "{:<12} {:>3} req | serial {:>9.1} ns | coarse {:>9.1} ns | interleaved {:>9.1} ns ({:>5.1}% tighter) | plan: greedy {:>9.1} ns, lookahead {:>9.1} ns ({:>4.1}% better)",
        m.shape,
        m.requests,
        m.report.serial_time_ns,
        mk.request_granularity_ns,
        mk.makespan_ns,
        m.tightening() * 100.0,
        m.greedy_planned_ns,
        m.lookahead_planned_ns,
        m.lookahead_win() * 100.0,
    );
}

fn main() {
    type Build = fn(&mut PimSystem) -> Vec<BatchRequest>;
    let profile = Profile::from_args();
    let small: (&str, Build) = ("small", |s| uniform_batch(s, 24, 4, 1 << 14));
    let uniform = profile.pick(
        vec![small],
        vec![
            small,
            ("medium", |s| uniform_batch(s, 48, 6, 1 << 16)),
            ("large", |s| uniform_batch(s, 96, 8, 1 << 18)),
        ],
    );
    let adversarial: [(&str, Build); 3] = [
        ("bus_hog", build_bus_hog),
        ("fanin_trap", build_fanin_trap),
        ("mixed_fan_in", build_mixed_fan_in),
    ];

    println!("# Request-granularity vs command-interleaved makespan");
    let rows: Vec<Measurement> = uniform
        .into_iter()
        .chain(adversarial)
        .map(|(shape, build)| measure(shape, build))
        .collect();
    for m in &rows {
        check(m);
        print_row(m);
    }

    report::finish(
        profile,
        "schedule",
        "tightening is interleave_recovered_ns / request_granularity_ns: the \
         fraction of the request-granularity (fused) makespan the \
         command-interleaved placement recovers. lookahead_win is 1 - \
         lookahead_planned_ns / greedy_planned_ns under planned_makespan_ns. \
         All quantities are deterministic model time, not wall clock.",
        Vec::new(),
        rows.iter().map(Measurement::row).collect(),
    );
}
