//! Many-sessions-scale properties of the serving layer: ≥64 concurrent
//! tenants over a multi-channel memory with bit/stats/ledger parity
//! against serial execution of the exact same streams, determinism
//! across 1/2/4 workers, quota-exceeded and queue-full rejection paths,
//! and wear-aware placement steering allocations off hot channels.

use pinatubo_bench::parity::assert_stats_match;
use pinatubo_core::{BitwiseOp, PinatuboConfig};
use pinatubo_mem::{MemConfig, ReliabilityConfig};
use pinatubo_nvm::fault::FaultModel;
use pinatubo_nvm::yield_analysis::VariationModel;
use pinatubo_runtime::microcode::{CompileOptions, MicroBatchError, MicroProgram};
use pinatubo_runtime::scheduler::BatchRequest;
use pinatubo_runtime::RuntimeError;
use pinatubo_runtime::{MappingPolicy, PimBitVec, PimSystem};
use pinatubo_serve::workload::{self, TenantSpec};
use pinatubo_serve::{PimServer, ServeConfig, ServeError, ServeReport, TenantConfig, TenantKind};
use std::collections::BTreeMap;

fn faulty_mem() -> MemConfig {
    let mut mem = MemConfig::pcm_default();
    // No drift: tenant columns are written once and then read for the
    // whole served run, so accumulated drift would exceed SEC-DED's
    // single-bit budget. Transients and write flips still exercise the
    // fault/recovery ledger parity this suite pins.
    mem.fault_model = FaultModel::with_seed(0x5E17)
        .with_variation(VariationModel::Gaussian)
        .with_transients(1e-5, 1e-5, 1e-5)
        .with_write_flips(1e-5);
    // SEC-DED corrects single flips in place: a served run issues orders
    // of magnitude more row reads than the single-app suites, and
    // bounded retries alone would eventually lose that lottery.
    mem.reliability = ReliabilityConfig::protected_secded();
    mem
}

fn sys(mem: MemConfig) -> PimSystem {
    PimSystem::new(mem, PinatuboConfig::default(), MappingPolicy::ChannelRotate)
}

/// 64 tenants: a rotating mix of the three stream shapes.
fn tenant_specs(count: usize) -> Vec<TenantSpec> {
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
                vec_bits: 4096,
                batches: 3,
            }
        })
        .collect()
}

/// Runs the full mixed-tenant workload through the serving layer with
/// `workers` pool threads and returns everything parity needs.
fn serve_run(
    workers: usize,
) -> (
    PimServer,
    ServeReport,
    Vec<usize>, // dispatch order, as tenant indices
    Vec<u64>,   // per-tenant stream length (intvec streams are chunked)
) {
    let specs = tenant_specs(64);
    let mut server = PimServer::new(
        sys(faulty_mem()),
        ServeConfig {
            workers,
            channel_queue_capacity: 8,
            quantum: 2,
            sync_every_rounds: 1,
        },
    );
    let mut streams = workload::build_streams(&mut server, &specs, 0xD15C).expect("build streams");
    let expected: Vec<u64> = streams.iter().map(|s| s.batches.len() as u64).collect();
    let mut session = server.open();
    let mut next = vec![0usize; streams.len()];
    loop {
        let mut all_done = true;
        for (i, stream) in streams.iter_mut().enumerate() {
            if next[i] >= stream.batches.len() {
                continue;
            }
            all_done = false;
            // Head-of-line submission with retry: a QueueFull rejection
            // leaves the batch at the head for the next round.
            match session.submit(stream.tenant, stream.batches[next[i]].clone()) {
                Ok(()) => next[i] += 1,
                Err(ServeError::QueueFull { .. }) => {}
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        if all_done {
            break;
        }
        session.advance().expect("advance");
    }
    let report = session.finish().expect("finish");
    let order: Vec<usize> = server.dispatch_log().iter().map(|d| d.tenant).collect();
    (server, report, order, expected)
}

/// Every destination vector any dispatched batch wrote, deduplicated.
fn written_vecs(server: &PimServer) -> BTreeMap<u64, PimBitVec> {
    server
        .dispatch_log()
        .iter()
        .flat_map(|d| d.requests.iter().map(|r| r.dst.clone()))
        .map(|v| (v.id(), v))
        .collect()
}

#[test]
fn sixty_four_tenants_match_serial_and_are_deterministic_across_workers() {
    let (server1, report1, order1, expected) = serve_run(1);

    // Serial reference: fresh system, same config; replay the recorded
    // stores and the dispatch log one batch at a time.
    let mut reference = sys(faulty_mem());
    workload::replay_serial(&mut reference, server1.store_log(), server1.dispatch_log())
        .expect("serial replay");
    let served_stats = *server1.system().stats();
    // assert_stats_match compares events, reliability ledger, time (total,
    // shared, stall) and energy; row_pages_copied is a host-side session
    // metric and is expected to differ from serial execution (which never
    // shares pages).
    assert_stats_match("serial replay", reference.stats(), &served_stats);
    for (id, vec) in written_vecs(&server1) {
        assert_eq!(
            server1.system().load(&vec),
            reference.load(&vec),
            "bits diverged for vec {id}"
        );
    }

    // Starvation, queue bounds and backpressure on the same run.
    assert!(
        report1.starved_tenants().is_empty(),
        "no tenant may starve: {:?}",
        report1.starved_tenants()
    );
    for (c, &hw) in report1.channel_queue_high_water.iter().enumerate() {
        assert!(hw > 0, "channel {c} never saw work");
        assert!(
            hw <= report1.queue_capacity,
            "channel {c} queue exceeded its bound: {hw} > {}",
            report1.queue_capacity
        );
    }
    let rejections: u64 = report1.tenants.iter().map(|t| t.admission_rejections).sum();
    assert!(
        rejections > 0,
        "the tight queue capacity must exercise backpressure"
    );
    for (t, &want) in report1.tenants.iter().zip(&expected) {
        assert_eq!(t.batches_submitted, want, "{} lost batches", t.name);
        assert_eq!(t.batches_completed, want, "{} incomplete", t.name);
        assert!(t.ops_completed == t.ops_submitted, "{} ops leaked", t.name);
    }

    // Determinism: 2- and 4-worker runs dispatch identically, tally the
    // same ledgers and end with the same bits.
    for workers in [2usize, 4] {
        let (server_w, report_w, order_w, _) = serve_run(workers);
        assert_eq!(
            order1, order_w,
            "dispatch order changed at {workers} workers"
        );
        assert_stats_match(
            &format!("workers={workers}"),
            &served_stats,
            server_w.system().stats(),
        );
        for (id, vec) in written_vecs(&server_w) {
            assert_eq!(
                server1.system().load(&vec),
                server_w.system().load(&vec),
                "bits diverged for vec {id} at {workers} workers"
            );
        }
        for (a, b) in report1.tenants.iter().zip(report_w.tenants.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.batches_completed, b.batches_completed, "{}", a.name);
            assert_eq!(a.ops_completed, b.ops_completed, "{}", a.name);
            assert_eq!(
                a.admission_rejections, b.admission_rejections,
                "{} rejections must not depend on workers",
                a.name
            );
            assert_eq!(a.max_wait_rounds, b.max_wait_rounds, "{}", a.name);
            assert_eq!(
                a.queue_depth_high_water, b.queue_depth_high_water,
                "{}",
                a.name
            );
        }
        assert_eq!(report1.rounds, report_w.rounds);
        assert_eq!(
            report1.channel_queue_high_water,
            report_w.channel_queue_high_water
        );
    }
}

#[test]
fn quota_exceeded_rejects_and_releasing_rows_recovers() {
    let mut server = PimServer::new(sys(MemConfig::pcm_default()), ServeConfig::default());
    let row_bits = MemConfig::pcm_default().geometry.logical_row_bits();
    let t = server.register(TenantConfig {
        name: "small".into(),
        weight: 1,
        row_quota: 4,
    });
    let held = server.alloc_group(t, 4, row_bits).expect("within quota");
    let err = server.alloc_group(t, 1, row_bits).expect_err("over quota");
    match err {
        ServeError::QuotaExceeded {
            requested_rows,
            used_rows,
            quota_rows,
            ..
        } => {
            assert_eq!(requested_rows, 1);
            assert_eq!(used_rows, 4);
            assert_eq!(quota_rows, 4);
        }
        other => panic!("wrong error: {other}"),
    }
    assert_eq!(server.report().tenants[0].quota_rejections, 1);
    server.release(t, &held).expect("release");
    assert_eq!(server.report().tenants[0].rows_used, 0);
    server
        .alloc_group(t, 2, row_bits)
        .expect("freed quota is reusable");
}

#[test]
fn rejected_compiles_and_allocations_charge_nothing() {
    let mut server = PimServer::new(sys(MemConfig::pcm_default()), ServeConfig::default());
    let t = server.register(TenantConfig {
        name: "shapes".into(),
        weight: 1,
        row_quota: 64,
    });
    let a = server.alloc_transposed(t, 4096, 8).expect("a");
    let dst = server.alloc_transposed(t, 4096, 8).expect("dst");
    let before = server.report().tenants[0].clone();
    let free_before = server.system().allocator().free_rows();
    // Two programs writing one destination: rejected before any
    // scratch row is allocated.
    let programs = [
        MicroProgram::add(&a, &a, &dst),
        MicroProgram::sub(&a, &a, &dst),
    ];
    let err = server
        .compile(t, &programs, CompileOptions::optimized())
        .expect_err("duplicate destination");
    assert!(matches!(
        err,
        ServeError::Runtime(RuntimeError::MicroBatch(
            MicroBatchError::DuplicateDestination { program: 1, .. }
        ))
    ));
    // An allocator failure after the quota check passed.
    let err = server.alloc_group(t, 2, 0).expect_err("empty allocation");
    assert_eq!(err, ServeError::Runtime(RuntimeError::EmptyAllocation));
    let after = &server.report().tenants[0];
    assert_eq!(after.rows_used, before.rows_used);
    assert_eq!(after.quota_rejections, before.quota_rejections);
    assert_eq!(server.system().allocator().free_rows(), free_before);
}

#[test]
fn queue_full_pushes_back_until_the_queue_drains() {
    let mut server = PimServer::new(
        sys(MemConfig::pcm_default()),
        ServeConfig {
            workers: 1,
            channel_queue_capacity: 2,
            quantum: 8,
            sync_every_rounds: 1,
        },
    );
    let t = server.register(TenantConfig {
        name: "bursty".into(),
        weight: 1,
        row_quota: 16,
    });
    // One co-located group: every request charges the same channel.
    let g = server.alloc_group(t, 4, 4096).expect("group");
    server.store(&g[0], &vec![true; 4096]).expect("store");
    let req = |dst: &PimBitVec| BatchRequest {
        op: BitwiseOp::Or,
        operands: vec![g[0].clone(), g[1].clone()],
        dst: dst.clone(),
    };
    let mut session = server.open();
    // A batch bigger than the whole queue can never be admitted.
    let err = session
        .submit(t, vec![req(&g[2]), req(&g[3]), req(&g[2])])
        .expect_err("over capacity");
    assert!(matches!(err, ServeError::QueueFull { depth: 0, .. }));
    // Fill the queue, then hit the bound.
    session
        .submit(t, vec![req(&g[2]), req(&g[3])])
        .expect("fits");
    let err = session.submit(t, vec![req(&g[2])]).expect_err("full");
    assert!(matches!(
        err,
        ServeError::QueueFull {
            depth: 2,
            capacity: 2,
            ..
        }
    ));
    // One round drains the queue; the retry is admitted.
    session.advance().expect("advance");
    session.submit(t, vec![req(&g[2])]).expect("drained");
    let report = session.finish().expect("finish");
    assert_eq!(report.tenants[0].admission_rejections, 2);
    assert_eq!(report.tenants[0].batches_completed, 2);
    assert_eq!(report.channel_queue_high_water.iter().max(), Some(&2));
}

#[test]
fn wear_aware_placement_avoids_the_hot_channel() {
    let mut system = sys(MemConfig::pcm_default());
    // Burn wear into channel 0: ChannelRotate places the first group
    // there, and every OR writes its destination row.
    let hot = system.alloc_group(3, 4096).expect("hot group");
    let hot_channel = hot[0].rows()[0].channel;
    assert_eq!(hot_channel, 0, "first ChannelRotate group starts on 0");
    system.store(&hot[0], &vec![true; 4096]).expect("store");
    for _ in 0..8 {
        system
            .bitwise(BitwiseOp::Or, &[&hot[0], &hot[1]], &hot[2])
            .expect("or");
    }
    assert!(system.channel_wear()[0] > 0);

    let mut server = PimServer::new(system, ServeConfig::default());
    let t = server.register(TenantConfig {
        name: "fresh".into(),
        weight: 1,
        row_quota: 64,
    });
    let placed = server.alloc_group(t, 4, 4096).expect("placed");
    for v in &placed {
        for r in v.rows() {
            assert_ne!(
                r.channel, hot_channel,
                "wear-aware placement must avoid the worn channel"
            );
        }
    }
    // Subsequent allocations balance across the remaining cold channels
    // instead of piling onto one.
    let more: Vec<u32> = (0..3)
        .map(|_| server.alloc_group(t, 1, 4096).expect("more")[0].rows()[0].channel)
        .collect();
    assert!(
        more.iter().all(|&c| c != hot_channel),
        "cold channels must absorb new tenants: {more:?}"
    );
    assert!(
        more.windows(2).any(|w| w[0] != w[1]) || more.len() < 2,
        "allocation pressure must spread over cold channels: {more:?}"
    );
}
