//! Multi-tenant serving throughput and latency: tenant mixes through the
//! admission-controlled DRR serving layer versus a serial replay of the
//! exact same dispatched op stream.
//!
//! Each mix registers N tenants (a rotating blend of database filters,
//! BFS frontier steps and compiled bit-serial integer kernels), places
//! each tenant's data on its wear-aware home channel under per-tenant
//! row quotas, and drives every stream head-of-line through one
//! [`pinatubo_serve::ServeSession`] (bounded per-channel admission
//! queues, deficit weighted round-robin).
//! The serving phase is wall-clock timed from session open to drain; the
//! comparison column times [`workload::replay_serial`], which replays the
//! store log and then the identical dispatch log batch by batch through
//! [`PimSystem::execute_batch_serial`] on a fresh system — the same replay
//! the parity checks compare against. A third column times
//! [`PimSystem::plan_batch`] alone over the same dispatch log: the host
//! cost of planning one dispatched batch.
//!
//! ```console
//! $ cargo run --release -p pinatubo-bench --bin bench_serve
//! $ cargo run --release -p pinatubo-bench --bin bench_serve -- --smoke
//! ```
//!
//! The full profile runs five mixes, best of two per side, and writes
//! `BENCH_serve.json`; `--smoke` runs one small mix once and writes
//! nothing. Every repetition is checked: bit, event-ledger and
//! fault-ledger parity against a serial replay of the served run, zero
//! starved tenants, and per-channel queue depths within the configured
//! bound. Neither profile gates wall-clock throughput; `bench_e2e` owns
//! performance regressions.

use pinatubo_bench::parity::assert_stats_match;
use pinatubo_bench::report::{self, Json, Profile};
use pinatubo_core::PinatuboConfig;
use pinatubo_mem::MemConfig;
use pinatubo_runtime::{MappingPolicy, PimSystem};
use pinatubo_serve::workload::{self, TenantSpec};
use pinatubo_serve::{LatencyStats, PimServer, ServeConfig, ServeError, ServeReport, TenantKind};
use std::collections::BTreeMap;
use std::time::Instant;

fn sys() -> PimSystem {
    PimSystem::new(
        MemConfig::pcm_default(),
        PinatuboConfig::default(),
        MappingPolicy::ChannelRotate,
    )
}

/// The rotating tenant blend every mix uses: filter, BFS, integer
/// kernel, with weights cycling 1..=4.
fn tenant_specs(count: usize, batches: usize) -> Vec<TenantSpec> {
    (0..count)
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
                // 2^16-bit vectors: enough model work per request that
                // the round sync amortizes and pooling beats per-batch
                // thread spawns (tiny vectors are pure overhead races).
                vec_bits: 1 << 16,
                batches,
            }
        })
        .collect()
}

/// One mix's measured run: the serving-phase report plus both wall-clock
/// throughput numbers over the identical dispatched stream, and the
/// serial-replay reference system the parity checks compare against.
struct MixRun {
    name: &'static str,
    tenants: usize,
    workers: usize,
    report: ServeReport,
    dispatched_batches: usize,
    pooled_bps: f64,
    serial_bps: f64,
    plan_us_per_batch: f64,
    server: PimServer,
    reference: PimSystem,
}

impl MixRun {
    fn rejections(&self) -> u64 {
        self.report
            .tenants
            .iter()
            .map(|t| t.admission_rejections)
            .sum()
    }
}

fn run_mix(
    name: &'static str,
    tenants: usize,
    batches: usize,
    workers: usize,
    queue_capacity: usize,
) -> MixRun {
    // Quantum 8: every tenant can afford its largest batch (an
    // 8-request compiled-kernel chunk) each round, so queues drain
    // instead of clogging. Sync every 4 rounds: dispatched work streams
    // through the pool between completion barriers.
    let mut server = PimServer::new(
        sys(),
        ServeConfig {
            workers,
            channel_queue_capacity: queue_capacity,
            quantum: 8,
            sync_every_rounds: 4,
        },
    );
    let specs = tenant_specs(tenants, batches);
    let mut streams = workload::build_streams(&mut server, &specs, 0x5EED).expect("build streams");

    // Serving phase: greedy head-of-line submission — every pass each
    // tenant pushes batches until its channel queue fills — then one
    // scheduler round. Timed from open to drained.
    let t0 = Instant::now();
    let mut session = server.open();
    let mut next = vec![0usize; streams.len()];
    loop {
        let mut all_done = true;
        for (i, stream) in streams.iter_mut().enumerate() {
            while next[i] < stream.batches.len() {
                all_done = false;
                match session.submit(stream.tenant, stream.batches[next[i]].clone()) {
                    Ok(()) => next[i] += 1,
                    Err(ServeError::QueueFull { .. }) => break,
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }
        if all_done {
            break;
        }
        session.advance().expect("advance");
    }
    let report = session.finish().expect("finish");
    let pooled_elapsed = t0.elapsed().as_secs_f64();
    let dispatched_batches = server.dispatch_log().len();

    // Comparison column: the serial replay of the store and dispatch
    // logs on a fresh identically-configured system, which `check` then
    // holds the served run to.
    let mut reference = sys();
    let t0 = Instant::now();
    workload::replay_serial(&mut reference, server.store_log(), server.dispatch_log())
        .expect("serial replay");
    let serial_elapsed = t0.elapsed().as_secs_f64();

    // Planner cost: every dispatched batch planned again, on its own.
    let t0 = Instant::now();
    for record in server.dispatch_log() {
        std::hint::black_box(reference.plan_batch(&record.requests));
    }
    let plan_elapsed = t0.elapsed().as_secs_f64();

    MixRun {
        name,
        tenants,
        workers,
        report,
        dispatched_batches,
        pooled_bps: dispatched_batches as f64 / pooled_elapsed,
        serial_bps: dispatched_batches as f64 / serial_elapsed,
        plan_us_per_batch: plan_elapsed * 1e6 / dispatched_batches as f64,
        server,
        reference,
    }
}

/// Parity, starvation and queue-bound checks over one finished mix.
fn check(run: &MixRun) {
    let reference = &run.reference;
    assert_stats_match(run.name, reference.stats(), run.server.system().stats());
    let written: BTreeMap<u64, _> = run
        .server
        .dispatch_log()
        .iter()
        .flat_map(|d| d.requests.iter().map(|r| r.dst.clone()))
        .map(|v| (v.id(), v))
        .collect();
    for (id, vec) in written {
        assert_eq!(
            run.server.system().load(&vec),
            reference.load(&vec),
            "bits diverged from serial replay for vec {id}"
        );
    }
    assert!(
        run.report.starved_tenants().is_empty(),
        "starved tenants: {:?}",
        run.report.starved_tenants()
    );
    for (c, &hw) in run.report.channel_queue_high_water.iter().enumerate() {
        assert!(
            hw <= run.report.queue_capacity,
            "channel {c} queue exceeded its bound: {hw} > {}",
            run.report.queue_capacity
        );
    }
}

/// Per-kind latency summary: tenants of one stream shape pooled.
struct KindSummary {
    kind: &'static str,
    tenants: usize,
    batches: u64,
    p50_ns_median: u64,
    p99_ns_max: u64,
    max_ns: u64,
}

fn summarize_kinds(report: &ServeReport) -> Vec<KindSummary> {
    ["filter", "bfs", "intvec"]
        .into_iter()
        .filter_map(|kind| {
            let of_kind: Vec<_> = report
                .tenants
                .iter()
                .filter(|t| t.name.starts_with(kind))
                .collect();
            if of_kind.is_empty() {
                return None;
            }
            let p50s: Vec<u64> = of_kind.iter().map(|t| t.latency.p50_ns).collect();
            Some(KindSummary {
                kind,
                tenants: of_kind.len(),
                batches: of_kind.iter().map(|t| t.latency.count).sum(),
                p50_ns_median: LatencyStats::from_samples(&p50s).p50_ns,
                p99_ns_max: of_kind.iter().map(|t| t.latency.p99_ns).max().unwrap_or(0),
                max_ns: of_kind.iter().map(|t| t.latency.max_ns).max().unwrap_or(0),
            })
        })
        .collect()
}

fn print_row(run: &MixRun) {
    println!(
        "{:<24} | {:>4} batches | pooled {:>8.0} b/s | serial replay {:>8.0} b/s | {:>5.2}x | plan {:>6.1} µs/batch | {:>3} rounds | {:>4} rejections",
        format!("{} (w={})", run.name, run.workers),
        run.dispatched_batches,
        run.pooled_bps,
        run.serial_bps,
        run.pooled_bps / run.serial_bps,
        run.plan_us_per_batch,
        run.report.rounds,
        run.rejections(),
    );
    for k in summarize_kinds(&run.report) {
        println!(
            "    {:<8} {:>2} tenants, {:>4} batches | p50 {:>9} ns | p99 {:>9} ns | max {:>9} ns",
            k.kind, k.tenants, k.batches, k.p50_ns_median, k.p99_ns_max, k.max_ns
        );
    }
}

fn row(run: &MixRun) -> Json {
    let kinds = summarize_kinds(&run.report)
        .iter()
        .map(|k| {
            Json::obj([
                ("kind", k.kind.into()),
                ("tenants", k.tenants.into()),
                ("batches", k.batches.into()),
                ("p50_ns_median", k.p50_ns_median.into()),
                ("p99_ns_max", k.p99_ns_max.into()),
                ("max_ns", k.max_ns.into()),
            ])
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("mix", run.name.into()),
        ("tenants", run.tenants.into()),
        ("workers", run.workers.into()),
        ("dispatched_batches", run.dispatched_batches.into()),
        ("scheduler_rounds", run.report.rounds.into()),
        ("queue_capacity", run.report.queue_capacity.into()),
        ("admission_rejections", run.rejections().into()),
        ("pooled_batches_per_s", run.pooled_bps.into()),
        ("serial_replay_batches_per_s", run.serial_bps.into()),
        ("ratio", (run.pooled_bps / run.serial_bps).into()),
        ("plan_us_per_batch", run.plan_us_per_batch.into()),
        ("latency_by_kind", Json::Arr(kinds)),
    ])
}

fn main() {
    let profile = Profile::from_args();
    // (name, tenants, batches per tenant, workers, queue capacity). One
    // worker is the sweet spot at these request sizes (the model work per
    // request is too small for per-channel fan-out to pay for the round
    // syncs); the per-channel-workers row is kept as the sweep point
    // showing exactly that.
    let mixes = profile.pick(
        vec![("smoke 12-tenant mix", 12, 2, 0, 8)],
        vec![
            ("8 tenants", 8, 4, 1, 32),
            ("16 tenants", 16, 4, 1, 32),
            ("64 tenants", 64, 3, 1, 32),
            ("64 tenants 2 workers", 64, 3, 2, 32),
            ("64 tenants per-channel workers", 64, 3, 0, 32),
        ],
    );
    // Best-of-N wall clock per side guards the throughput comparison
    // against host scheduling noise; the dispatch schedule is
    // deterministic, so everything but the timings repeats exactly.
    let reps = profile.pick(1, 2);

    println!("# Multi-tenant serving: pooled session vs serial replay, same dispatch stream");
    let mut rows = Vec::new();
    for (name, tenants, batches, workers, queue_capacity) in mixes {
        let best = (0..reps)
            .map(|_| {
                let run = run_mix(name, tenants, batches, workers, queue_capacity);
                check(&run);
                run
            })
            .reduce(|mut best, run| {
                best.pooled_bps = best.pooled_bps.max(run.pooled_bps);
                best.serial_bps = best.serial_bps.max(run.serial_bps);
                best.plan_us_per_batch = best.plan_us_per_batch.min(run.plan_us_per_batch);
                best
            })
            .expect("at least one repetition");
        print_row(&best);
        rows.push(best);
    }

    // Aggregate over every dispatched batch: reported, not gated.
    let total_batches: usize = rows.iter().map(|r| r.dispatched_batches).sum();
    let pooled_s: f64 = rows
        .iter()
        .map(|r| r.dispatched_batches as f64 / r.pooled_bps)
        .sum();
    let serial_s: f64 = rows
        .iter()
        .map(|r| r.dispatched_batches as f64 / r.serial_bps)
        .sum();
    let aggregate_ratio = serial_s / pooled_s;
    println!(
        "aggregate: {total_batches} batches, pooled {:.0} b/s vs serial replay {:.0} b/s ({aggregate_ratio:.2}x)",
        total_batches as f64 / pooled_s,
        total_batches as f64 / serial_s,
    );

    report::finish(
        profile,
        "serve",
        "Each mix registers N tenants (rotating filter / BFS-frontier / \
         compiled integer-kernel streams, weights cycling 1-4), places each \
         tenant's data on its wear-aware home channel under per-tenant row \
         quotas, and drives every stream head-of-line through one serve \
         session: bounded per-channel admission queues (QueueFull pushes \
         back on the tenant), deterministic deficit weighted round-robin, \
         one sync every 4 rounds. pooled_batches_per_s is dispatched batches over the \
         wall-clock serving phase (open to drain); \
         serial_replay_batches_per_s is dispatched batches over the \
         wall-clock serial replay (store log, then the identical dispatch \
         log through execute_batch_serial) on a fresh system; \
         plan_us_per_batch is the wall-clock time of plan_batch over the \
         same dispatch log, divided by dispatched batches; each is the \
         best of two runs, and every run is asserted bit- and \
         ledger-identical to a serial replay of its dispatch log. Latency \
         percentiles are nearest-rank over per-batch admission-to-sync \
         wall-clock samples, summarized per stream shape (nearest-rank \
         median of tenant p50s, max of tenant p99s). Throughput is host \
         wall clock and varies run to run; parity and scheduling are \
         deterministic.",
        vec![(
            "aggregate_pooled_over_serial_replay",
            aggregate_ratio.into(),
        )],
        rows.iter().map(row).collect(),
    );
}
