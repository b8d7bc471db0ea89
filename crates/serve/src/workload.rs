//! Tenant workload builders — the op-stream shapes the serving layer is
//! benched and tested with — plus the serial replay harness that
//! re-executes a served run one batch at a time for parity checks.
//!
//! Every builder allocates through the server (quota-checked, on the
//! tenant's home channel) and stores through the server (recorded in the replay
//! log), so a fresh system replaying the logs reproduces the served
//! run's bits, statistics and fault-ledger exactly.

use crate::server::{PimServer, ServeError, TenantConfig, TenantId};
use crate::stats::{DispatchRecord, StoreRecord};
use pinatubo_core::rng::SimRng;
use pinatubo_core::{ArithOp, BitwiseOp};
use pinatubo_runtime::microcode::{CompileOptions, MicroProgram};
use pinatubo_runtime::scheduler::BatchRequest;
use pinatubo_runtime::PimSystem;
use std::sync::Arc;

/// The op-stream shapes tenants submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantKind {
    /// Database bitmap filter: AND two predicate columns, OR in a third
    /// (2 requests per batch over a co-located column group).
    Filter,
    /// BFS frontier step: mask out visited vertices from a union of
    /// neighbour masks and fold the frontier into the visited set
    /// (4 requests per batch, ping-ponging two visited vectors).
    BfsFrontier,
    /// Bit-serial integer kernel: a compiled µ-program batch
    /// (`sum = a + b`, `mask = a >= b`), chunked into admission-sized
    /// sub-batches and resubmitted every round.
    IntKernel,
}

/// Largest sub-batch the builders emit, in requests. A compiled
/// µ-program batch concentrates dozens of scratch writes on one channel;
/// submitting it whole would never clear a bounded admission queue, so
/// the builder splits it (order-preserving — the session's channel FIFOs
/// and straddle barriers keep cross-chunk dependencies intact).
pub const MAX_BATCH_REQUESTS: usize = 8;

impl TenantKind {
    /// Display label used in reports and bench tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TenantKind::Filter => "filter",
            TenantKind::BfsFrontier => "bfs",
            TenantKind::IntKernel => "intvec",
        }
    }
}

/// One tenant's workload parameters.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name.
    pub name: String,
    /// Stream shape.
    pub kind: TenantKind,
    /// Fair-share weight.
    pub weight: u64,
    /// Row-allocation quota.
    pub row_quota: u64,
    /// Bit-vector length (lanes for `IntKernel`).
    pub vec_bits: u64,
    /// Batches in the tenant's stream.
    pub batches: usize,
}

/// A registered tenant plus its pre-built submission stream.
#[derive(Debug)]
pub struct TenantStream {
    /// The tenant's handle.
    pub tenant: TenantId,
    /// The workload shape.
    pub kind: TenantKind,
    /// Batches to submit, in order, as shared slabs — resubmitting one
    /// after a [`crate::ServeError::QueueFull`] rejection is an `Arc`
    /// clone, not a deep copy.
    pub batches: Vec<Arc<Vec<BatchRequest>>>,
}

fn random_bits(rng: &mut SimRng, len: u64) -> Vec<bool> {
    (0..len).map(|_| rng.gen_range_u64(0, 2) == 1).collect()
}

/// Registers every spec'd tenant on `server`, allocates and stores its
/// data (quota-checked, on its home channel, replay-logged), and builds its
/// submission stream. Deterministic in `seed` and the spec order.
///
/// # Errors
///
/// Any quota or allocator error while placing tenant data.
pub fn build_streams(
    server: &mut PimServer,
    specs: &[TenantSpec],
    seed: u64,
) -> Result<Vec<TenantStream>, ServeError> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut rng =
                SimRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
            let tenant = server.register(TenantConfig {
                name: spec.name.clone(),
                weight: spec.weight,
                row_quota: spec.row_quota,
            });
            let batches = match spec.kind {
                TenantKind::Filter => build_filter(server, tenant, spec, &mut rng)?,
                TenantKind::BfsFrontier => build_bfs(server, tenant, spec, &mut rng)?,
                TenantKind::IntKernel => build_intvec(server, tenant, spec, &mut rng)?,
            };
            Ok(TenantStream {
                tenant,
                kind: spec.kind,
                batches,
            })
        })
        .collect()
}

/// Columns c0..c2 plus scratch `t` and output `o`, one co-located group.
/// Batch `i`: `t = c_i & c_{i+1}; o = t | c_{i+2}` (indices mod 3).
fn build_filter(
    server: &mut PimServer,
    tenant: TenantId,
    spec: &TenantSpec,
    rng: &mut SimRng,
) -> Result<Vec<Arc<Vec<BatchRequest>>>, ServeError> {
    let group = server.alloc_group(tenant, 5, spec.vec_bits)?;
    for col in &group[..3] {
        let bits = random_bits(rng, spec.vec_bits);
        server.store(col, &bits)?;
    }
    let (t, o) = (group[3].clone(), group[4].clone());
    Ok((0..spec.batches)
        .map(|i| {
            let c = |k: usize| group[(i + k) % 3].clone();
            Arc::new(vec![
                BatchRequest {
                    op: BitwiseOp::And,
                    operands: vec![c(0), c(1)],
                    dst: t.clone(),
                },
                BatchRequest {
                    op: BitwiseOp::Or,
                    operands: vec![t.clone(), c(2)],
                    dst: o.clone(),
                },
            ])
        })
        .collect())
}

/// Neighbour masks m0..m2, visited vectors v0/v1 (ping-pong), scratch
/// `n`/`t` and frontier `f`. Batch `i` (reading `v`, writing `v'`):
/// `n = !v; t = m_i | m_{i+1}; f = t & n; v' = v | f`.
fn build_bfs(
    server: &mut PimServer,
    tenant: TenantId,
    spec: &TenantSpec,
    rng: &mut SimRng,
) -> Result<Vec<Arc<Vec<BatchRequest>>>, ServeError> {
    let group = server.alloc_group(tenant, 8, spec.vec_bits)?;
    for vec in &group[..4] {
        // m0..m2 and the initial visited set.
        let bits = random_bits(rng, spec.vec_bits);
        server.store(vec, &bits)?;
    }
    let (v0, v1) = (group[3].clone(), group[4].clone());
    let (n, t, f) = (group[5].clone(), group[6].clone(), group[7].clone());
    Ok((0..spec.batches)
        .map(|i| {
            let m = |k: usize| group[(i + k) % 3].clone();
            let (v, v_next) = if i % 2 == 0 {
                (v0.clone(), v1.clone())
            } else {
                (v1.clone(), v0.clone())
            };
            Arc::new(vec![
                BatchRequest {
                    op: BitwiseOp::Not,
                    operands: vec![v.clone()],
                    dst: n.clone(),
                },
                BatchRequest {
                    op: BitwiseOp::Or,
                    operands: vec![m(0), m(1)],
                    dst: t.clone(),
                },
                BatchRequest {
                    op: BitwiseOp::And,
                    operands: vec![t.clone(), n.clone()],
                    dst: f.clone(),
                },
                BatchRequest {
                    op: BitwiseOp::Or,
                    operands: vec![v, f.clone()],
                    dst: v_next,
                },
            ])
        })
        .collect())
}

/// Transposed operands `a`/`b` plus a sum vector and a compare mask; the
/// compiled batch (`sum = a + b`, `mask = a >= b`) is split into
/// [`MAX_BATCH_REQUESTS`]-sized sub-batches — a compiled program piles
/// its scratch writes onto one channel, and an unsplit batch would never
/// fit a bounded admission queue — and the whole chunk train is
/// resubmitted for every round of the stream.
fn build_intvec(
    server: &mut PimServer,
    tenant: TenantId,
    spec: &TenantSpec,
    rng: &mut SimRng,
) -> Result<Vec<Arc<Vec<BatchRequest>>>, ServeError> {
    const WIDTH: u32 = 8;
    let lanes = spec.vec_bits;
    let a = server.alloc_transposed(tenant, lanes, WIDTH)?;
    let b = server.alloc_transposed(tenant, lanes, WIDTH)?;
    let sum = server.alloc_transposed(tenant, lanes, WIDTH)?;
    let mask = server
        .alloc_group(tenant, 1, lanes)?
        .pop()
        .expect("one mask");
    let max = ArithOp::lane_mask(WIDTH);
    let values = |rng: &mut SimRng| -> Vec<u64> {
        (0..lanes).map(|_| rng.gen_range_u64(0, max + 1)).collect()
    };
    server.store_lanes(&a, &values(rng))?;
    server.store_lanes(&b, &values(rng))?;
    let programs = [
        MicroProgram::add(&a, &b, &sum),
        MicroProgram::cmp_ge(&a, &b, &mask),
    ];
    let requests = server.compile(tenant, &programs, CompileOptions::optimized())?;
    let chunks: Vec<Arc<Vec<BatchRequest>>> = requests
        .chunks(MAX_BATCH_REQUESTS)
        .map(|c| Arc::new(c.to_vec()))
        .collect();
    Ok((0..spec.batches)
        .flat_map(|_| chunks.iter().map(Arc::clone))
        .collect())
}

/// Serially re-executes a served run on `reference`: each recorded
/// store, packed, at its place among the dispatched batches (before the
/// first dispatch that followed it), and each dispatched batch in
/// dispatch order through [`PimSystem::execute_batch_serial`]. With the
/// same memory config the reference ends bit- and ledger-identical to
/// the served system, which is exactly what the parity checks assert.
///
/// # Errors
///
/// Any store or execution error on the reference system.
pub fn replay_serial(
    reference: &mut PimSystem,
    stores: &[StoreRecord],
    dispatches: &[DispatchRecord],
) -> Result<(), ServeError> {
    let mut stores = stores.iter().peekable();
    for i in 0..=dispatches.len() {
        while let Some(store) = stores.next_if(|s| s.dispatched_before <= i) {
            reference.store_packed(&store.vec, &store.bits)?;
        }
        if let Some(record) = dispatches.get(i) {
            reference.execute_batch_serial(&record.requests)?;
        }
    }
    Ok(())
}
