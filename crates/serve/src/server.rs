//! The serving layer proper: tenant registry, quota-checked wear-aware
//! allocation, bounded per-channel admission queues, and the
//! deficit-weighted round-robin scheduler that multiplexes admitted
//! batches onto one [`ExecSession`] worker pool.
//!
//! Data is placed and stored on the [`PimServer`] before
//! [`PimServer::open`]; the [`ServeSession`] it hands out only admits,
//! dispatches and completes batches. Both allocation methods take one
//! placement path: quota check, the tenant's home channel, then a charge
//! of the rows actually placed. A tenant's first placement picks its home
//! (least-worn channel); every later one, and the compiler's scratch for
//! its µ-programs, lands there too, so every op a tenant submits runs
//! inside one channel instead of crossing the DDR bus (paper §4.1, §5).

use crate::stats::{DispatchRecord, LatencyStats, ServeReport, StoreRecord, TenantReport};
use pinatubo_mem::RowData;
use pinatubo_runtime::microcode::{self, CompileOptions, MicroProgram};
use pinatubo_runtime::scheduler::BatchRequest;
use pinatubo_runtime::{ExecSession, PimBitVec, PimSystem, RuntimeError, TransposedVec};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Handle to a registered tenant (its registration index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub usize);

/// A tenant's service contract.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Display name (also the key in reports).
    pub name: String,
    /// Fair-share weight: a weight-2 tenant earns twice the dispatch
    /// credit per round of a weight-1 tenant. Must be at least 1.
    pub weight: u64,
    /// Maximum rows the tenant may hold allocated at once.
    pub row_quota: u64,
}

/// Serving-layer knobs. Every field feeds deterministic decisions only —
/// two runs with the same config, tenants and submission order dispatch
/// identically regardless of worker count or host speed.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Session worker count (see
    /// [`PimSystem::open_session_with_workers`]); `0` means the channel
    /// count. The caller also runs shards at every sync point, so the
    /// session executes on up to `workers + 1` threads; it never spawns
    /// more than one worker fewer than the channel count, and spawns
    /// them only when it first publishes jobs ahead of a sync point.
    pub workers: usize,
    /// Admission bound: maximum admitted-but-uncompleted requests per
    /// channel. A submission that would push any channel past this is
    /// rejected with [`ServeError::QueueFull`] instead of buffering.
    pub channel_queue_capacity: usize,
    /// Deficit round-robin quantum: dispatch credit (in requests) one
    /// weight unit earns per scheduler round.
    pub quantum: u64,
    /// Rounds between completion syncs: `1` completes (and times) every
    /// dispatched batch at its own round's sync; `K > 1` lets dispatched
    /// work stream through the pool for `K` rounds before the barrier,
    /// trading per-batch latency for throughput. Queue depths only drain
    /// at a sync, so admission backpressure coarsens with `K`. The
    /// cadence is part of the deterministic schedule.
    pub sync_every_rounds: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            channel_queue_capacity: 32,
            quantum: 4,
            sync_every_rounds: 1,
        }
    }
}

/// Serving-layer failures. Admission and quota rejections are normal
/// backpressure — the tenant retries after the queues drain or frees
/// rows — while `Runtime` wraps the underlying executor's errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The tenant handle does not name a registered tenant.
    UnknownTenant(usize),
    /// The allocation would exceed the tenant's row quota.
    QuotaExceeded {
        /// Offending tenant's name.
        tenant: String,
        /// Rows the allocation needed.
        requested_rows: u64,
        /// Rows already held.
        used_rows: u64,
        /// The contract's limit.
        quota_rows: u64,
    },
    /// A release named a vector the tenant does not hold: another
    /// tenant's, or one it already released.
    NotOwned {
        /// The releasing tenant's name.
        tenant: String,
        /// Allocation id of the first vector it does not hold.
        vec_id: u64,
    },
    /// Admitting the batch would overflow a channel's submission queue.
    QueueFull {
        /// The saturated channel.
        channel: u32,
        /// Its current depth in requests.
        depth: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// An executor or memory error surfaced by the runtime.
    Runtime(RuntimeError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(id) => write!(f, "unknown tenant handle {id}"),
            ServeError::QuotaExceeded {
                tenant,
                requested_rows,
                used_rows,
                quota_rows,
            } => write!(
                f,
                "tenant {tenant} over row quota: holds {used_rows}, wants {requested_rows} more, quota {quota_rows}"
            ),
            ServeError::NotOwned { tenant, vec_id } => {
                write!(f, "tenant {tenant} does not hold vector {vec_id}")
            }
            ServeError::QueueFull {
                channel,
                depth,
                capacity,
            } => write!(
                f,
                "channel {channel} submission queue full ({depth}/{capacity} requests)"
            ),
            ServeError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RuntimeError> for ServeError {
    fn from(e: RuntimeError) -> Self {
        ServeError::Runtime(e)
    }
}

/// A batch admitted into a tenant's FIFO, waiting for dispatch credit.
#[derive(Debug)]
struct PendingBatch {
    slab: Arc<Vec<BatchRequest>>,
    /// Requests charged to each channel's admission queue.
    per_channel: Vec<(u32, usize)>,
    /// Dispatch cost in requests (the DRR currency).
    cost: u64,
    admitted_at: Instant,
    admitted_round: u64,
}

/// A dispatched batch whose covering sync has not run yet.
#[derive(Debug)]
struct Dispatched {
    tenant: usize,
    per_channel: Vec<(u32, usize)>,
    requests: u64,
    admitted_at: Instant,
}

#[derive(Debug, Default)]
struct Tenant {
    name: String,
    weight: u64,
    row_quota: u64,
    rows_used: u64,
    /// Ids of the vectors placed for this tenant and not yet released:
    /// the only vectors [`PimServer::release`] frees for it.
    held: HashSet<u64>,
    /// The channel every placement is steered to: where the first one
    /// landed.
    home: Option<u32>,
    /// Placements with a row off `home`.
    spilled_allocations: u64,
    deficit: u64,
    pending: VecDeque<PendingBatch>,
    /// Admitted-but-uncompleted requests (pending + dispatched).
    inflight_requests: usize,
    batches_submitted: u64,
    batches_completed: u64,
    ops_submitted: u64,
    ops_completed: u64,
    admission_rejections: u64,
    quota_rejections: u64,
    queue_depth_high_water: usize,
    max_wait_rounds: u64,
    latencies_ns: Vec<u64>,
}

impl Tenant {
    /// The one quota check: counts a rejection and reports
    /// [`ServeError::QuotaExceeded`] if `rows` more would exceed the
    /// quota. Charging is left to the caller, once it knows the rows
    /// really placed.
    fn check_quota(&mut self, rows: u64) -> Result<(), ServeError> {
        if self.rows_used + rows > self.row_quota {
            self.quota_rejections += 1;
            return Err(ServeError::QuotaExceeded {
                tenant: self.name.clone(),
                requested_rows: rows,
                used_rows: self.rows_used,
                quota_rows: self.row_quota,
            });
        }
        Ok(())
    }
}

/// Everything but the [`PimSystem`] — split out so a [`ServeSession`]
/// can borrow it mutably alongside the session that borrows the system.
#[derive(Debug)]
struct ServeState {
    cfg: ServeConfig,
    tenants: Vec<Tenant>,
    channels: u32,
    row_bits: u64,
    /// Rows this server has placed on each channel (allocation-pressure
    /// tiebreak for the wear-aware home-channel choice).
    rows_on_channel: Vec<u64>,
    /// Admitted-but-uncompleted requests per channel.
    channel_depth: Vec<usize>,
    channel_high_water: Vec<usize>,
    rounds: u64,
    dispatch_log: Vec<DispatchRecord>,
    store_log: Vec<StoreRecord>,
}

impl ServeState {
    fn tenant_mut(&mut self, t: TenantId) -> Result<&mut Tenant, ServeError> {
        self.tenants
            .get_mut(t.0)
            .ok_or(ServeError::UnknownTenant(t.0))
    }

    fn snapshot(&self) -> ServeReport {
        ServeReport {
            rounds: self.rounds,
            queue_capacity: self.cfg.channel_queue_capacity,
            channel_queue_high_water: self.channel_high_water.clone(),
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantReport {
                    name: t.name.clone(),
                    weight: t.weight,
                    row_quota: t.row_quota,
                    rows_used: t.rows_used,
                    home_channel: t.home,
                    spilled_allocations: t.spilled_allocations,
                    batches_submitted: t.batches_submitted,
                    batches_completed: t.batches_completed,
                    ops_submitted: t.ops_submitted,
                    ops_completed: t.ops_completed,
                    admission_rejections: t.admission_rejections,
                    quota_rejections: t.quota_rejections,
                    queue_depth_high_water: t.queue_depth_high_water,
                    max_wait_rounds: t.max_wait_rounds,
                    latency: LatencyStats::from_samples(&t.latencies_ns),
                })
                .collect(),
        }
    }
}

/// The channel a request is charged to for admission accounting: the
/// destination's first channel. Home-channel placement confines every
/// request of a tenant to one channel, so this is the channel the
/// session queues it on. A request over rows placed elsewhere (a spilled
/// allocation, or vectors not placed through the server) may straddle
/// channels; it runs as a parent-side barrier either way, so charging
/// its destination channel keeps the bound conservative.
fn charge_channel(request: &BatchRequest) -> u32 {
    request.dst.rows()[0].channel
}

/// Per-channel request counts of a batch, ascending by channel.
fn batch_channel_profile(requests: &[BatchRequest], channels: u32) -> Vec<(u32, usize)> {
    let mut counts = vec![0usize; channels as usize];
    for r in requests {
        counts[charge_channel(r) as usize] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .map(|(c, n)| (c as u32, n))
        .collect()
}

/// The wear-aware home-channel choice for a tenant's first placement:
/// least total wear first, then least server-placed rows, then lowest
/// index — all deterministic inputs.
fn pick_channel(wear: &[u64], rows_on_channel: &[u64]) -> u32 {
    (0..wear.len())
        .min_by_key(|&c| (wear[c], rows_on_channel[c], c))
        .expect("at least one channel") as u32
}

/// A multi-tenant serving front-end over one [`PimSystem`].
///
/// Setup phase: [`PimServer::register`] tenants, then allocate and store
/// their data through the quota-checked allocation methods, which keep
/// each tenant on its wear-aware home channel.
/// Serving phase: [`PimServer::open`] a [`ServeSession`], submit batches
/// and advance the scheduler; [`ServeSession::finish`] returns the
/// [`ServeReport`]. The dispatch and store logs accumulated along the
/// way let a harness replay the exact same run serially for parity
/// checks (see [`crate::workload::replay_serial`]).
#[derive(Debug)]
pub struct PimServer {
    system: PimSystem,
    state: ServeState,
}

impl PimServer {
    /// Wraps `system` in a serving layer. Home-channel placement steers
    /// `ChannelRotate` allocation; other mapping policies still get
    /// quotas and scheduling but place rows wherever the policy says.
    #[must_use]
    pub fn new(system: PimSystem, cfg: ServeConfig) -> Self {
        assert!(
            cfg.channel_queue_capacity >= 1,
            "queue capacity must be >= 1"
        );
        assert!(cfg.quantum >= 1, "quantum must be >= 1");
        assert!(cfg.sync_every_rounds >= 1, "sync cadence must be >= 1");
        let geometry = system.engine().memory().geometry();
        let channels = geometry.channels;
        let row_bits = geometry.logical_row_bits();
        PimServer {
            system,
            state: ServeState {
                cfg,
                tenants: Vec::new(),
                channels,
                row_bits,
                rows_on_channel: vec![0; channels as usize],
                channel_depth: vec![0; channels as usize],
                channel_high_water: vec![0; channels as usize],
                rounds: 0,
                dispatch_log: Vec::new(),
                store_log: Vec::new(),
            },
        }
    }

    /// Registers a tenant; the returned handle indexes reports too.
    ///
    /// # Panics
    ///
    /// Panics on a zero weight (it would never earn dispatch credit).
    pub fn register(&mut self, cfg: TenantConfig) -> TenantId {
        assert!(cfg.weight >= 1, "tenant weight must be >= 1");
        self.state.tenants.push(Tenant {
            name: cfg.name,
            weight: cfg.weight,
            row_quota: cfg.row_quota,
            ..Tenant::default()
        });
        TenantId(self.state.tenants.len() - 1)
    }

    /// Quota-checked group allocation on the tenant's home channel. The
    /// tenant's first placement picks the home: the channel with the
    /// least total wear (ties: least server-placed rows, then lowest
    /// index). A group the home cannot hold lands whole on the next
    /// channel with room and counts in
    /// [`TenantReport::spilled_allocations`].
    ///
    /// # Errors
    ///
    /// [`ServeError::QuotaExceeded`] (counted against the tenant) if the
    /// group would push the tenant past its row quota; otherwise any
    /// allocator error.
    pub fn alloc_group(
        &mut self,
        t: TenantId,
        count: usize,
        len_bits: u64,
    ) -> Result<Vec<PimBitVec>, ServeError> {
        let rows_needed = count as u64 * len_bits.div_ceil(self.state.row_bits);
        self.place(
            t,
            rows_needed,
            |sys, channel| sys.alloc_group_on_channel(channel, count, len_bits),
            Vec::as_slice,
        )
    }

    /// Quota-checked transposed allocation for µ-program operands (the
    /// planes place as one group on the tenant's home channel; see
    /// [`PimSystem::alloc_transposed`]).
    ///
    /// # Errors
    ///
    /// As [`PimServer::alloc_group`].
    pub fn alloc_transposed(
        &mut self,
        t: TenantId,
        lanes: u64,
        width_bits: u32,
    ) -> Result<TransposedVec, ServeError> {
        let rows_needed = u64::from(width_bits) * lanes.div_ceil(self.state.row_bits);
        self.place(
            t,
            rows_needed,
            |sys, channel| sys.alloc_transposed_on_channel(channel, lanes, width_bits),
            TransposedVec::planes,
        )
    }

    /// Compiles µ-programs for a tenant, charging the compiler's scratch
    /// planes against the tenant's quota, and returns the request list
    /// ready for [`ServeSession::submit`] (re-submittable every round).
    /// The compiler places scratch on the channel of the first program's
    /// first operand, which for server-placed operands is the home.
    ///
    /// # Errors
    ///
    /// [`ServeError::QuotaExceeded`] if the scratch would exceed the
    /// quota (the scratch is released again); otherwise compile errors
    /// as [`ServeError::Runtime`] (a malformed batch charges nothing).
    pub fn compile(
        &mut self,
        t: TenantId,
        programs: &[MicroProgram],
        opts: CompileOptions,
    ) -> Result<Vec<BatchRequest>, ServeError> {
        self.state.tenant_mut(t)?;
        let free_before = self.system.allocator().free_rows();
        let batch = microcode::compile(programs, opts, &mut self.system)?;
        let scratch_rows = free_before - self.system.allocator().free_rows();
        let tenant = &mut self.state.tenants[t.0];
        if let Err(e) = tenant.check_quota(scratch_rows) {
            batch.release(&mut self.system);
            return Err(e);
        }
        tenant.rows_used += scratch_rows;
        Ok(batch.requests().to_vec())
    }

    /// Releases a tenant's vectors back to the pool and refunds the
    /// quota by the rows freed. A tenant may release only vectors placed
    /// for it and not yet released; the next placement reuses their rows
    /// (see [`pinatubo_runtime::PimAllocator::release_rows`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] on a stale handle;
    /// [`ServeError::NotOwned`] if any vector is not held by `t` (another
    /// tenant's, or named twice) — then nothing is freed.
    pub fn release(&mut self, t: TenantId, vecs: &[PimBitVec]) -> Result<u64, ServeError> {
        let tenant = self.state.tenant_mut(t)?;
        let mut named = HashSet::with_capacity(vecs.len());
        for v in vecs {
            if !tenant.held.contains(&v.id()) || !named.insert(v.id()) {
                return Err(ServeError::NotOwned {
                    tenant: tenant.name.clone(),
                    vec_id: v.id(),
                });
            }
        }
        for id in &named {
            tenant.held.remove(id);
        }
        // A held vector's rows are live and placed by this server, so
        // every one of them is freed.
        for r in vecs.iter().flat_map(PimBitVec::rows) {
            self.state.rows_on_channel[r.channel as usize] -= 1;
        }
        let freed = self.system.release_vecs(vecs) as u64;
        self.state.tenants[t.0].rows_used -= freed;
        Ok(freed)
    }

    /// Stores bits into a vector (uncharged setup traffic) and records
    /// the write, packed, in the replay log.
    ///
    /// # Errors
    ///
    /// See [`PimSystem::store`].
    pub fn store(&mut self, vec: &PimBitVec, bits: &[bool]) -> Result<(), ServeError> {
        self.store_and_log(vec, RowData::from_bits(bits))
    }

    /// Stores integer lanes into a transposed vector, recording each
    /// plane write in the replay log.
    ///
    /// # Errors
    ///
    /// See [`PimSystem::store_lanes`].
    pub fn store_lanes(&mut self, vec: &TransposedVec, values: &[u64]) -> Result<(), ServeError> {
        for (k, plane) in vec.planes().iter().enumerate() {
            self.store_and_log(plane, microcode::pack_plane(values, k as u32))?;
        }
        Ok(())
    }

    fn store_and_log(&mut self, vec: &PimBitVec, bits: RowData) -> Result<(), ServeError> {
        self.system.store_packed(vec, &bits)?;
        self.state.store_log.push(StoreRecord {
            vec: vec.clone(),
            bits,
            dispatched_before: self.state.dispatch_log.len(),
        });
        Ok(())
    }

    /// Read-only view of the underlying system (loads, stats, wear).
    #[must_use]
    pub fn system(&self) -> &PimSystem {
        &self.system
    }

    /// Every store so far, in store order, each with its packed bits and
    /// its position among the dispatches (serial-replay input).
    #[must_use]
    pub fn store_log(&self) -> &[StoreRecord] {
        &self.state.store_log
    }

    /// Every dispatched batch so far, in dispatch order (serial-replay
    /// input).
    #[must_use]
    pub fn dispatch_log(&self) -> &[DispatchRecord] {
        &self.state.dispatch_log
    }

    /// Snapshot of the per-tenant ledgers and queue bookkeeping.
    #[must_use]
    pub fn report(&self) -> ServeReport {
        self.state.snapshot()
    }

    /// Opens the serving session: spawns the worker pool and hands out
    /// the submission/scheduling interface. One session at a time.
    pub fn open(&mut self) -> ServeSession<'_> {
        let PimServer { system, state } = self;
        let workers = if state.cfg.workers == 0 {
            state.channels as usize
        } else {
            state.cfg.workers
        };
        ServeSession {
            session: system.open_session_with_workers(workers),
            state,
            dispatched: Vec::new(),
        }
    }

    /// The one placement path behind [`PimServer::alloc_group`] and
    /// [`PimServer::alloc_transposed`]: rejects before touching the
    /// allocator if the `rows_needed` estimate would exceed the quota,
    /// allocates on the tenant's home channel ([`pick_channel`]'s choice
    /// for its first placement, which then becomes the home wherever it
    /// landed), counts a spill if any row landed off the home, and
    /// charges the rows actually placed (page alignment and
    /// subarray-straddle skips can exceed the estimate).
    fn place<T>(
        &mut self,
        t: TenantId,
        rows_needed: u64,
        alloc: impl FnOnce(&mut PimSystem, u32) -> Result<T, RuntimeError>,
        planes: impl Fn(&T) -> &[PimBitVec],
    ) -> Result<T, ServeError> {
        let tenant = self.state.tenant_mut(t)?;
        tenant.check_quota(rows_needed)?;
        let home = tenant.home;
        let channel = home.unwrap_or_else(|| {
            pick_channel(&self.system.channel_wear(), &self.state.rows_on_channel)
        });
        let placed = alloc(&mut self.system, channel)?;
        let rows = planes(&placed).iter().flat_map(PimBitVec::rows);
        let home = home.or_else(|| rows.clone().next().map(|r| r.channel));
        let (mut actual, mut spilled) = (0u64, false);
        for r in rows {
            self.state.rows_on_channel[r.channel as usize] += 1;
            actual += 1;
            spilled |= Some(r.channel) != home;
        }
        let tenant = &mut self.state.tenants[t.0];
        tenant.rows_used += actual;
        tenant.home = home;
        tenant.spilled_allocations += u64::from(spilled);
        tenant
            .held
            .extend(planes(&placed).iter().map(PimBitVec::id));
        Ok(placed)
    }
}

/// The serving phase: submissions flow through admission control into
/// per-tenant FIFOs, and [`ServeSession::advance`] runs one deficit
/// round-robin round (credit, dispatch in tenant order, and on the
/// configured cadence a completion sync that retires everything
/// dispatched). All decisions are deterministic in the submission
/// sequence; worker count changes wall-clock only.
pub struct ServeSession<'a> {
    session: ExecSession<'a>,
    state: &'a mut ServeState,
    dispatched: Vec<Dispatched>,
}

impl ServeSession<'_> {
    /// Submits a batch for a tenant. The whole batch is admitted
    /// atomically or rejected: if any channel's queue would overflow,
    /// nothing is enqueued and the tenant sees [`ServeError::QueueFull`]
    /// backpressure (counted as an admission rejection).
    ///
    /// Accepts a plain `Vec` or a pre-built `Arc` slab; retrying a
    /// rejected `Arc` submission is a pointer clone, not a deep copy,
    /// which matters at benchmark rates.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] or [`ServeError::UnknownTenant`].
    pub fn submit(
        &mut self,
        t: TenantId,
        requests: impl Into<Arc<Vec<BatchRequest>>>,
    ) -> Result<(), ServeError> {
        let requests: Arc<Vec<BatchRequest>> = requests.into();
        self.state.tenant_mut(t)?;
        if requests.is_empty() {
            return Ok(());
        }
        let per_channel = batch_channel_profile(&requests, self.state.channels);
        let capacity = self.state.cfg.channel_queue_capacity;
        for &(c, n) in &per_channel {
            let depth = self.state.channel_depth[c as usize];
            if depth + n > capacity {
                self.state.tenants[t.0].admission_rejections += 1;
                return Err(ServeError::QueueFull {
                    channel: c,
                    depth,
                    capacity,
                });
            }
        }
        for &(c, n) in &per_channel {
            let depth = &mut self.state.channel_depth[c as usize];
            *depth += n;
            let hw = &mut self.state.channel_high_water[c as usize];
            *hw = (*hw).max(*depth);
        }
        let cost = requests.len() as u64;
        let tenant = &mut self.state.tenants[t.0];
        tenant.batches_submitted += 1;
        tenant.ops_submitted += cost;
        tenant.inflight_requests += requests.len();
        tenant.queue_depth_high_water = tenant.queue_depth_high_water.max(tenant.inflight_requests);
        tenant.pending.push_back(PendingBatch {
            slab: requests,
            per_channel,
            cost,
            admitted_at: Instant::now(),
            admitted_round: self.state.rounds,
        });
        Ok(())
    }

    /// Runs one scheduler round: every backlogged tenant earns
    /// `weight × quantum` requests of dispatch credit, batches dispatch
    /// in tenant order while credit lasts, and — on every
    /// [`ServeConfig::sync_every_rounds`]-th round — one sync drains the
    /// worker pool and completes (and times) everything dispatched.
    ///
    /// Returns the number of batches completed this round.
    ///
    /// # Errors
    ///
    /// Any executor error surfaced by dispatch or the sync.
    pub fn advance(&mut self) -> Result<usize, ServeError> {
        self.state.rounds += 1;
        let round = self.state.rounds;
        let quantum = self.state.cfg.quantum;
        for tenant in &mut self.state.tenants {
            if tenant.pending.is_empty() {
                // Classic DRR: an idle queue keeps no credit, so a
                // bursty tenant cannot save up and starve the others.
                tenant.deficit = 0;
            } else {
                tenant.deficit += tenant.weight * quantum;
            }
        }
        // Keep passing over the tenants until a full pass dispatches
        // nothing; per-pass order is registration order, so the whole
        // schedule is a pure function of the submission sequence.
        loop {
            let mut dispatched_any = false;
            for idx in 0..self.state.tenants.len() {
                loop {
                    let tenant = &mut self.state.tenants[idx];
                    let Some(front) = tenant.pending.front() else {
                        tenant.deficit = 0;
                        break;
                    };
                    if front.cost > tenant.deficit {
                        break;
                    }
                    let batch = tenant.pending.pop_front().expect("front exists");
                    tenant.deficit -= batch.cost;
                    let wait = round.saturating_sub(batch.admitted_round + 1);
                    tenant.max_wait_rounds = tenant.max_wait_rounds.max(wait);
                    self.session.submit_batch_shared(&batch.slab)?;
                    self.state.dispatch_log.push(DispatchRecord {
                        tenant: idx,
                        requests: Arc::clone(&batch.slab),
                    });
                    self.dispatched.push(Dispatched {
                        tenant: idx,
                        per_channel: batch.per_channel,
                        requests: batch.cost,
                        admitted_at: batch.admitted_at,
                    });
                    dispatched_any = true;
                }
            }
            if !dispatched_any {
                break;
            }
        }
        if round % self.state.cfg.sync_every_rounds == 0 {
            self.complete_sync()
        } else {
            Ok(0)
        }
    }

    /// One completion barrier: drains the worker pool and retires (and
    /// times) every batch dispatched since the last sync. The per-request
    /// cost summaries the session hands back are dropped unread, so the
    /// session holds at most one sync cadence of results.
    fn complete_sync(&mut self) -> Result<usize, ServeError> {
        drop(self.session.sync()?);
        let completed = self.dispatched.len();
        for done in self.dispatched.drain(..) {
            for (c, n) in done.per_channel {
                self.state.channel_depth[c as usize] -= n;
            }
            let latency = u64::try_from(done.admitted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let tenant = &mut self.state.tenants[done.tenant];
            tenant.batches_completed += 1;
            tenant.ops_completed += done.requests;
            tenant.inflight_requests -= done.requests as usize;
            tenant.latencies_ns.push(latency);
        }
        Ok(completed)
    }

    /// Requests still admitted but not yet completed, across all tenants.
    #[must_use]
    pub fn backlog_requests(&self) -> usize {
        self.state.channel_depth.iter().sum()
    }

    /// Drains every tenant FIFO (repeated [`ServeSession::advance`]
    /// rounds), closes the worker pool, and returns the run's report.
    ///
    /// # Errors
    ///
    /// The first executor error hit while draining or closing.
    pub fn finish(mut self) -> Result<ServeReport, ServeError> {
        while self.state.tenants.iter().any(|t| !t.pending.is_empty()) {
            self.advance()?;
        }
        // Retire whatever an off-cadence final round left in flight.
        self.complete_sync()?;
        self.session.close()?;
        Ok(self.state.snapshot())
    }
}
