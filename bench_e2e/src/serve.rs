//! The two `pinatubo-serve` workloads.
//!
//! * `serve_open`: many independent tenants, so an open loop. Seeded
//!   Poisson arrivals at a fixed rate, slotted into 2 ms ticks: at tick
//!   `k` the bench submits every arrival due in that tick, in due order,
//!   then calls `advance()` once. The call sequence, and so the dispatch
//!   sequence and every modeled number, does not depend on host speed.
//!   Latency runs from an arrival's due time to the end of the first
//!   `advance()` after which the backlog is empty.
//! * `serve_faulty`: callers that wait for replies, so a closed loop.
//!   Every tenant keeps one slab outstanding on SEC-DED memory with fault
//!   injection; latency runs from submit to the end of the `advance()`
//!   that completed it.
//!
//! Correctness: a serial replay of the recorded stores and dispatch log
//! on a fresh system of the same configuration must match every written
//! vector bit for bit, the event counters and reliability ledger exactly,
//! and time and energy within 1e-6.

use crate::metrics::{ms, percentile, proc_status_mb, stats_match, Completions, Metrics};
use crate::speed::{Reading, SpeedProbe};
use crate::trace::Tracer;
use crate::{Plan, Run};
use pinatubo_core::rng::SimRng;
use pinatubo_core::PinatuboConfig;
use pinatubo_mem::{MemConfig, MemStats, ReliabilityConfig};
use pinatubo_nvm::fault::FaultModel;
use pinatubo_nvm::yield_analysis::VariationModel;
use pinatubo_runtime::{MappingPolicy, PimBitVec, PimSystem};
use pinatubo_serve::workload::{self, TenantSpec, TenantStream};
use pinatubo_serve::{PimServer, ServeConfig, ServeError, ServeReport, ServeSession, TenantKind};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SETUP_REPEATS: usize = 7;

/// The shape of one serve workload.
struct Shape {
    tenants: usize,
    vec_bits: u64,
    /// Slabs pre-built per tenant; tenants cycle through them.
    batches: usize,
    faulty: bool,
}

fn mem_config(faulty: bool, seed: u64) -> MemConfig {
    let mut mem = MemConfig::pcm_default();
    if faulty {
        // No drift (tenant columns are written once and read all run, so
        // drift would exceed SEC-DED's one-bit budget). Write flips above
        // 1e-7 abort runs with an uncorrectable write.
        mem.fault_model = FaultModel::with_seed(seed ^ 0x5E17)
            .with_variation(VariationModel::Gaussian)
            .with_transients(1e-5, 1e-5, 1e-5)
            .with_write_flips(1e-7);
        mem.reliability = ReliabilityConfig::protected_secded();
    }
    mem
}

fn system(faulty: bool, seed: u64) -> PimSystem {
    PimSystem::new(
        mem_config(faulty, seed),
        PinatuboConfig::default(),
        MappingPolicy::ChannelRotate,
    )
}

/// The rotating filter / BFS-frontier / bit-serial integer blend.
fn specs(shape: &Shape) -> Vec<TenantSpec> {
    (0..shape.tenants)
        .map(|i| {
            let kind = match i % 3 {
                0 => TenantKind::Filter,
                1 => TenantKind::BfsFrontier,
                _ => TenantKind::IntKernel,
            };
            TenantSpec {
                name: format!("{}-{i}", kind.label()),
                kind,
                weight: 1 + (i % 4) as u64,
                row_quota: 96,
                vec_bits: shape.vec_bits,
                batches: shape.batches,
            }
        })
        .collect()
}

/// One worker, quantum 64 (every tenant can dispatch everything it has
/// each round) and a sync every round, so each `advance()` completes all
/// that was submitted before it. The queue bound is far above any tick's
/// arrivals, so no submission is refused.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        channel_queue_capacity: 1024,
        quantum: 64,
        sync_every_rounds: 1,
    }
}

struct Setup {
    server: PimServer,
    streams: Vec<TenantStream>,
    setup_s: Vec<f64>,
    setup_raw_s: Vec<f64>,
    build_s: Vec<f64>,
    rss_after_setup_mb: f64,
    stats_before: MemStats,
    trace_before: usize,
    free_before: u64,
}

fn setup(shape: &Shape, seed: u64, probe: &mut SpeedProbe) -> Result<Setup, String> {
    let (mut setup_s, mut setup_raw_s, mut build_s) = (vec![], vec![], vec![]);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let (out, raw_s, ref_s) = probe.timed(|| {
            let mut server = PimServer::new(system(shape.faulty, seed), serve_config());
            let b = Instant::now();
            let streams = workload::build_streams(&mut server, &specs(shape), seed);
            (server, streams, b.elapsed().as_secs_f64())
        });
        let (server, streams, b) = out;
        let streams = streams.map_err(|e| format!("build_streams failed: {e}"))?;
        setup_s.push(ref_s);
        setup_raw_s.push(raw_s);
        build_s.push(b * ref_s / raw_s);
        built = Some((server, streams));
    }
    let (server, streams) = built.expect("at least one setup");
    Ok(Setup {
        stats_before: *server.system().stats(),
        trace_before: server.system().trace().len(),
        free_before: server.system().allocator().free_rows(),
        server,
        streams,
        setup_s,
        setup_raw_s,
        build_s,
        rss_after_setup_mb: proc_status_mb("VmRSS"),
    })
}

/// What the measured phase of either loop hands to [`finish_run`].
struct Measured {
    completions: Completions,
    readings: Vec<Reading>,
    attempted: u64,
    refused: u64,
    wall_s: f64,
    idle_s: f64,
    peak_rss_mb: f64,
    rss_after_measure_mb: f64,
    report: ServeReport,
    layers: Metrics,
    host: Vec<(&'static str, String)>,
}

/// A submit whose refusal (or error) counts as a failed request.
fn submit(
    tracer: &mut Tracer,
    session: &mut ServeSession<'_>,
    stream: &TenantStream,
    slab: usize,
    request: u64,
) -> bool {
    let batch = stream.batches[slab % stream.batches.len()].clone();
    match tracer.span("serve.server.submit", request, || {
        session.submit(stream.tenant, batch)
    }) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("serve: request {request} refused: {e}");
            false
        }
    }
}

fn advance(tracer: &mut Tracer, session: &mut ServeSession<'_>) -> Result<(), String> {
    tracer
        .span("serve.server.advance", 0, || session.advance())
        .map(drop)
        .map_err(|e| format!("advance failed: {e}"))
}

fn finish(tracer: &mut Tracer, session: ServeSession<'_>) -> Result<ServeReport, String> {
    tracer
        .span("serve.server.finish", 0, || session.finish())
        .map_err(|e: ServeError| format!("finish failed: {e}"))
}

// ---------------------------------------------------------------- open loop

/// Offered load of `serve_open`, in slabs per second: 2.8 slabs per
/// tick. Most of an `advance()` is the walk over all 4096 tenants, so the
/// tick length sets the load: with 2 ms ticks the seed is a quarter busy
/// on a 2-core host, and keeps up when the host runs at half speed. With
/// 1 ms ticks at 2,800 slabs/s it was a third busy, and a run on a slowed
/// host fell seconds behind.
const OPEN_RATE: f64 = 1400.0;
const TICK: Duration = Duration::from_millis(2);
/// Ticks between two host-speed probe readings, and the slack a reading
/// needs before the next tick is due.
const OPEN_PROBE_EVERY_TICKS: u64 = 10;
const PROBE_SLACK: Duration = Duration::from_micros(500);

/// Seeded Poisson arrivals over `seconds`, as (due time in ns, tenant),
/// in due order. The count is fixed at `rate * seconds` and the times are
/// sorted uniform draws: a Poisson process conditioned on its count, so
/// every seed offers the same load.
fn arrivals(seed: u64, seconds: f64, rate: f64, tenants: usize) -> Vec<(u64, usize)> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xA441_7A15);
    let count = (rate * seconds).round() as usize;
    let mut out: Vec<(u64, usize)> = (0..count)
        .map(|_| {
            (
                (rng.next_f64() * seconds * 1e9) as u64,
                rng.gen_index(tenants),
            )
        })
        .collect();
    out.sort_unstable();
    out
}

fn run_open(plan: &Plan, tracer: &mut Tracer) -> Result<(Setup, Measured), String> {
    let shape = Shape {
        tenants: if plan.smoke { 48 } else { 4096 },
        vec_bits: 1 << 12,
        batches: 2,
        faulty: false,
    };
    let seconds = if plan.smoke { 0.05 } else { plan.seconds };
    let mut probe = SpeedProbe::new();
    let mut s = setup(&shape, plan.seed, &mut probe)?;
    let arrivals = arrivals(plan.seed, seconds, OPEN_RATE, shape.tenants);
    let ticks = (seconds / TICK.as_secs_f64()).ceil() as u64;

    let mut next_slab = vec![0usize; shape.tenants];
    let mut completions = Completions::default();
    let mut gen_lag_ms = Vec::with_capacity(ticks as usize);
    let mut refused = 0u64;
    let mut idle = Duration::ZERO;
    let mut rounds_with_backlog = 0u64;
    let mut next = 0usize; // next arrival to submit
                           // Admitted, uncompleted arrivals: (due, end of the tick submitting it).
    let mut waiting: Vec<(u64, u64)> = Vec::new();
    let mut probe_due = true;
    let mut session = s.server.open();
    let start = Instant::now();
    probe.start(start);
    tracer.begin("bench", 0);
    for tick in 0..ticks {
        let tick_end = TICK * (tick as u32 + 1);
        let now = start.elapsed();
        if now < tick_end {
            tracer.span("bench.idle", 0, || std::thread::sleep(tick_end - now));
            idle += start.elapsed() - now;
        }
        gen_lag_ms.push(ms(start.elapsed().saturating_sub(tick_end)));
        let tick_end_ns = tick_end.as_nanos() as u64;
        while next < arrivals.len() && arrivals[next].0 < tick_end_ns {
            let (due, tenant) = arrivals[next];
            let stream = &s.streams[tenant];
            if submit(tracer, &mut session, stream, next_slab[tenant], next as u64) {
                next_slab[tenant] += 1;
                waiting.push((due, tick_end_ns));
            } else {
                refused += 1;
            }
            next += 1;
        }
        advance(tracer, &mut session)?;
        if session.backlog_requests() == 0 {
            complete_due(&mut completions, &mut waiting, start.elapsed());
        } else {
            rounds_with_backlog += 1;
        }
        // Read the host speed in the slack before the next tick, when
        // there is room for it.
        probe_due |= tick % OPEN_PROBE_EVERY_TICKS == 0;
        if probe_due && start.elapsed() + PROBE_SLACK < tick_end + TICK {
            tracer.span("bench.probe", 0, || probe.sample());
            probe_due = false;
        }
    }
    let report = finish(tracer, session)?;
    complete_due(&mut completions, &mut waiting, start.elapsed());
    tracer.end();
    let wall_s = start.elapsed().as_secs_f64();

    gen_lag_ms.sort_by(f64::total_cmp);
    let mut layers = Metrics::default();
    layers.push("bench.gen_lag_p50_ms", percentile(&gen_lag_ms, 50.0), "ms");
    layers.push("bench.gen_lag_p99_ms", percentile(&gen_lag_ms, 99.0), "ms");
    layers.push(
        "bench.rounds_with_backlog",
        rounds_with_backlog as f64,
        "count",
    );
    let measured = Measured {
        completions,
        readings: probe.readings().to_vec(),
        attempted: arrivals.len() as u64,
        refused,
        wall_s,
        idle_s: idle.as_secs_f64(),
        peak_rss_mb: proc_status_mb("VmHWM"),
        rss_after_measure_mb: proc_status_mb("VmRSS"),
        report,
        layers,
        host: vec![
            (
                "loop",
                "\"open, Poisson arrivals, uniform tenant choice\"".into(),
            ),
            ("offered_rate_per_s", format!("{OPEN_RATE}")),
            ("schedule_s", format!("{seconds}")),
            ("tick_ms", format!("{}", TICK.as_secs_f64() * 1e3)),
            ("tenants", shape.tenants.to_string()),
            ("vec_bits", shape.vec_bits.to_string()),
            ("setup_repeats", SETUP_REPEATS.to_string()),
        ],
    };
    Ok((s, measured))
}

/// Completes every admitted arrival at `done` (since the measured phase
/// began). Latency counts from each one's due time; the wait for its
/// tick to end is time, not host work.
fn complete_due(completions: &mut Completions, waiting: &mut Vec<(u64, u64)>, done: Duration) {
    let done_ns = done.as_nanos() as u64;
    for (due, tick_end) in waiting.drain(..) {
        completions.push_with_fixed(
            (done_ns - due) as f64 / 1e6,
            (tick_end - due) as f64 / 1e6,
            done.as_secs_f64(),
        );
    }
}

// -------------------------------------------------------------- closed loop

/// Slabs each tenant sends per second of `--seconds` in `serve_faulty`,
/// sized like [`OPEN_RATE`]: a fixed amount of work that takes about
/// that long on a 2-core host at the first measurement.
const FAULTY_SLABS_PER_TENANT_PER_SECOND: f64 = 67.0;

fn run_faulty(plan: &Plan, tracer: &mut Tracer) -> Result<(Setup, Measured), String> {
    let (tenants, vec_bits, slabs) = if plan.smoke {
        (6, 1 << 12, 4)
    } else {
        (
            64,
            1 << 15,
            (plan.seconds * FAULTY_SLABS_PER_TENANT_PER_SECOND).ceil() as usize,
        )
    };
    let shape = Shape {
        tenants,
        vec_bits,
        batches: slabs,
        faulty: true,
    };
    let mut probe = SpeedProbe::new();
    let mut s = setup(&shape, plan.seed, &mut probe)?;

    let mut completions = Completions::default();
    let mut refused = 0u64;
    let mut rounds_with_backlog = 0u64;
    let mut session = s.server.open();
    let start = Instant::now();
    probe.start(start);
    tracer.begin("bench", 0);
    let mut submitted_at = Vec::with_capacity(tenants);
    for slab in 0..slabs {
        tracer.span("bench.probe", 0, || probe.sample());
        // Every tenant's previous slab completed in the last round, so
        // each sends its next one now.
        submitted_at.clear();
        for (t, stream) in s.streams.iter().enumerate() {
            let request = (slab * tenants + t) as u64;
            let at = Instant::now();
            if submit(tracer, &mut session, stream, slab, request) {
                submitted_at.push(at);
            } else {
                refused += 1;
            }
        }
        advance(tracer, &mut session)?;
        while session.backlog_requests() > 0 {
            rounds_with_backlog += 1;
            advance(tracer, &mut session)?;
        }
        let done = Instant::now();
        for &at in &submitted_at {
            completions.push(ms(done - at), (done - start).as_secs_f64());
        }
    }
    let report = finish(tracer, session)?;
    tracer.end();
    let wall_s = start.elapsed().as_secs_f64();

    let mut layers = Metrics::default();
    layers.push(
        "bench.rounds_with_backlog",
        rounds_with_backlog as f64,
        "count",
    );
    let measured = Measured {
        completions,
        readings: probe.readings().to_vec(),
        attempted: (tenants * slabs) as u64,
        refused,
        wall_s,
        idle_s: 0.0,
        peak_rss_mb: proc_status_mb("VmHWM"),
        rss_after_measure_mb: proc_status_mb("VmRSS"),
        report,
        layers,
        host: vec![
            ("loop", "\"closed, one outstanding slab per tenant\"".into()),
            ("clients", tenants.to_string()),
            ("slabs_per_tenant", slabs.to_string()),
            ("vec_bits", vec_bits.to_string()),
            ("setup_repeats", SETUP_REPEATS.to_string()),
        ],
    };
    Ok((s, measured))
}

// ------------------------------------------------------------- both loops

/// Every vector any dispatched batch wrote.
fn written(server: &PimServer) -> BTreeMap<u64, PimBitVec> {
    server
        .dispatch_log()
        .iter()
        .flat_map(|d| d.requests.iter().map(|r| r.dst.clone()))
        .map(|v| (v.id(), v))
        .collect()
}

/// Serial-replay parity plus the serving invariants: the number of
/// mismatches found (0 when correct).
fn verify(server: &PimServer, report: &ServeReport, faulty: bool, seed: u64) -> u64 {
    let mut wrong = 0u64;
    let mut reference = system(faulty, seed);
    if let Err(e) =
        workload::replay_serial(&mut reference, server.store_log(), server.dispatch_log())
    {
        eprintln!("serve: serial replay failed: {e}");
        return 1;
    }
    if let Err(e) = stats_match(reference.stats(), server.system().stats()) {
        eprintln!("serve: statistics diverged from serial replay: {e}");
        wrong += 1;
    }
    for (id, vec) in written(server) {
        if server.system().load(&vec) != reference.load(&vec) {
            eprintln!("serve: vector {id} diverged from serial replay");
            wrong += 1;
        }
    }
    let starved = report.starved_tenants();
    if !starved.is_empty() {
        eprintln!("serve: starved tenants: {starved:?}");
        wrong += starved.len() as u64;
    }
    if report
        .channel_queue_high_water
        .iter()
        .any(|&hw| hw > report.queue_capacity)
    {
        eprintln!("serve: a channel queue exceeded its bound");
        wrong += 1;
    }
    wrong
}

fn finish_run(plan: &Plan, s: Setup, m: Measured, faulty: bool) -> Run {
    let sys = s.server.system();
    let modeled = *sys.stats() - s.stats_before;
    let t = Instant::now();
    let wrong = verify(&s.server, &m.report, faulty, plan.seed);
    let verify_s = t.elapsed().as_secs_f64();

    let mut layers = m.layers;
    let r = &m.report;
    let ops: u64 = r.tenants.iter().map(|t| t.ops_completed).sum();
    let busy_s = m.wall_s - m.idle_s;
    layers.push("serve.server.report.rounds", r.rounds as f64, "count");
    layers.push(
        "serve.server.report.admission_rejections",
        r.tenants
            .iter()
            .map(|t| t.admission_rejections)
            .sum::<u64>() as f64,
        "count",
    );
    layers.push(
        "serve.server.report.max_wait_rounds",
        r.tenants
            .iter()
            .map(|t| t.max_wait_rounds)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    layers.push(
        "serve.server.report.queue_high_water",
        r.channel_queue_high_water
            .iter()
            .copied()
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    layers.push("serve.server.ops_per_s", ops as f64 / m.wall_s, "1/s");
    layers.push("serve.server.busy_frac", busy_s / m.wall_s, "frac");
    layers.push(
        "runtime.system.trace_len",
        (sys.trace().len() - s.trace_before) as f64,
        "count",
    );
    layers.push(
        "runtime.allocator.free_rows_delta",
        sys.allocator().free_rows() as f64 - s.free_before as f64,
        "count",
    );
    Run {
        setup_s: s.setup_s,
        setup_raw_s: s.setup_raw_s,
        build_s: s.build_s,
        rss_after_setup_mb: s.rss_after_setup_mb,
        completions: m.completions,
        readings: m.readings,
        open_loop: !faulty,
        attempted: m.attempted,
        failed: m.refused + wrong,
        wall_s: m.wall_s,
        idle_s: m.idle_s,
        peak_rss_mb: m.peak_rss_mb,
        rss_after_measure_mb: m.rss_after_measure_mb,
        modeled,
        verify_s,
        layers,
        host: m.host,
    }
}

pub fn run_open_loop(plan: &Plan, tracer: &mut Tracer) -> Result<Run, String> {
    let (s, m) = run_open(plan, tracer)?;
    Ok(finish_run(plan, s, m, false))
}

pub fn run_faulty_loop(plan: &Plan, tracer: &mut Tracer) -> Result<Run, String> {
    let (s, m) = run_faulty(plan, tracer)?;
    Ok(finish_run(plan, s, m, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64) -> Plan {
        Plan {
            seed,
            seconds: 1.0,
            smoke: true,
        }
    }

    #[test]
    fn arrivals_are_seeded_poisson() {
        let a = arrivals(5, 2.0, 1000.0, 16);
        assert_eq!(a, arrivals(5, 2.0, 1000.0, 16));
        assert_ne!(a, arrivals(6, 2.0, 1000.0, 16));
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.iter().all(|&(due, t)| due < 2_000_000_000 && t < 16));
        // Gaps of a Poisson process: mean 1/rate, and as many below the
        // mean as an exponential puts there (1 - 1/e).
        let below = a.windows(2).filter(|w| w[1].0 - w[0].0 < 1_000_000).count();
        assert!((1150..1380).contains(&below), "{below} short gaps");
    }

    #[test]
    fn open_loop_smoke_passes_its_correctness_gate() {
        let run = run_open_loop(&smoke(7), &mut Tracer::new(true)).expect("smoke run");
        assert_eq!(run.failed, 0);
        assert_eq!(run.completions.len() as u64, run.attempted);
        assert!(run.modeled.time_ns > 0.0);
    }

    #[test]
    fn faulty_closed_loop_smoke_passes_its_correctness_gate() {
        let run = run_faulty_loop(&smoke(7), &mut Tracer::new(false)).expect("smoke run");
        assert_eq!(run.failed, 0);
        assert_eq!(run.completions.len(), 24);
        assert!(run.modeled.reliability.physical_senses > 0);
    }
}
