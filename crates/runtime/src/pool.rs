//! Sharded execution sessions — the runtime's one channel-parallel
//! executor.
//!
//! An [`ExecSession`] streams requests into a worker pool;
//! [`PimSystem::execute_batch`] is a one-shot session over one batch, and
//! a long-lived session amortizes the pool's setup over a whole stream.
//! Opening a session spawns the pool; each worker *owns* its channels'
//! engine shards (cloned with `clone_channel`) for the session's lifetime.
//! Submitted requests are dispatched to their home channel's queue
//! immediately — there is no inter-batch barrier — and the parent system
//! keeps only a stale mirror of each channel, reconciled on demand from
//! the shards' dirty-state deltas (O(touched state), not O(memory)).
//!
//! Synchronization points are explicit and rare:
//!
//! * a channel-straddling request (its rows span channels) must see the
//!   unified memory, so it drains every queue, runs on the parent, and
//!   pushes the rows it touched back out to the owning shards;
//! * [`ExecSession::sync`] / [`ExecSession::close`] and the read-side
//!   helpers ([`ExecSession::load`], [`ExecSession::stats`], …) drain
//!   the queues and fold the deltas into the parent.
//!
//! Results are bit-, stats- and fault-ledger-identical to
//! [`PimSystem::execute_batch_serial`] on the same request stream,
//! independent of the pool size: per-channel FIFO order preserves every
//! data dependence a single-channel stream can have (all its rows live
//! on that channel), cross-channel dependences only arise through
//! straddling requests, which are full barriers, and each request is
//! primed with exactly the sense-amp mode register the serial stream
//! would have held (see `scheduler::mode_for`).
//!
//! A worker panic is contained: the panicking channel is poisoned and
//! its un-synced work discarded (the parent keeps that channel's last
//! synced state), every other channel's committed state survives, and
//! the session reports [`RuntimeError::WorkerPanicked`] at the next
//! sync point.

use crate::bitvec::PimBitVec;
use crate::scheduler::{mode_for, BatchRequest};
use crate::system::{bitwise_on_engine, OpSummary, PimSystem};
use crate::RuntimeError;
use pinatubo_core::{BitwiseOp, BulkOp, EngineStats, PinatuboEngine};
use pinatubo_mem::{ChannelDelta, MemCommand, MemStats, PimConfig, RowAddr};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The request payload a [`Job`] carries across the thread boundary.
enum JobWork {
    /// A request submitted on its own: owns clones of its handles
    /// (`PimBitVec` handles are plain row lists — cloning one does not
    /// clone the simulated storage).
    Owned {
        op: BitwiseOp,
        operands: Vec<PimBitVec>,
        dst: PimBitVec,
    },
    /// One request of a batch submitted through
    /// [`ExecSession::submit_batch`]: the whole batch crosses as a
    /// single shared slab, so dispatch clones no handles at all — each
    /// job is an index plus an `Arc` bump.
    Batch {
        slab: Arc<Vec<BatchRequest>>,
        index: usize,
    },
}

/// One dispatched request, self-contained so it can cross the thread
/// boundary.
struct Job {
    pos: usize,
    channel: u32,
    prime: PimConfig,
    work: JobWork,
    row_bits: u64,
}

/// A request's submission position paired with its outcome.
type JobResult = (usize, Result<(OpSummary, BulkOp), RuntimeError>);

enum WorkerMsg {
    /// A slab of jobs in submission order. Batched so a stream of small
    /// requests costs one channel send (and one receiver wake-up) per
    /// slab instead of per request — per-channel FIFO order is
    /// preserved because slabs are built and flushed in submission
    /// order (see [`ExecSession::flush_thread`]).
    Run(Vec<Job>),
    /// State written by the parent (straddling requests, stores) pushed
    /// back into the owning shard. Carries no statistics: the parent
    /// already accounted them.
    Apply(Box<ChannelDelta>),
    Sync(mpsc::Sender<SyncReply>),
    Shutdown,
}

/// Everything one channel hands back at a sync point.
struct ChannelSync {
    channel: u32,
    deltas: Vec<ChannelDelta>,
    mem_stats: MemStats,
    engine_stats: EngineStats,
    trace: Vec<MemCommand>,
    results: Vec<JobResult>,
    /// Set when the shard worker panicked: `(position, panic message)`.
    panicked: Option<(usize, String)>,
    /// Post-delta digest of the shard's channel state, computed only in
    /// debug builds so the parent can assert the dirty-delta sync left
    /// both sides identical (i.e. the delta missed no touched state).
    digest: Option<u64>,
}

struct SyncReply {
    channels: Vec<ChannelSync>,
    /// Results for `Run` jobs no shard on this worker could own
    /// ([`RuntimeError::NoShardForChannel`]): shipped separately so the
    /// position still resolves even though no channel claims it.
    orphans: Vec<JobResult>,
}

/// One channel's engine shard, owned by a worker thread for the whole
/// session.
struct Shard {
    channel: u32,
    engine: PinatuboEngine,
    results: Vec<JobResult>,
    /// Set after the first failed request: the channel stops (committed
    /// work stays).
    halted: bool,
    poisoned: Option<(usize, String)>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_main(mut shards: Vec<Shard>, rx: &mpsc::Receiver<WorkerMsg>) {
    let mut orphans: Vec<JobResult> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Run(jobs) => {
                for job in jobs {
                    run_one(&mut shards, &mut orphans, job);
                }
            }
            WorkerMsg::Apply(delta) => {
                let delta = *delta;
                if let Some(shard) = shards
                    .iter_mut()
                    .find(|s| s.channel == delta.channel() && s.poisoned.is_none())
                {
                    shard.engine.memory_mut().apply_delta(delta);
                }
            }
            WorkerMsg::Sync(reply_tx) => {
                let channels = shards.iter_mut().map(sync_one_shard).collect();
                // A dropped receiver just means the session went away
                // mid-sync; nothing useful to do with the state then.
                let _ = reply_tx.send(SyncReply {
                    channels,
                    orphans: std::mem::take(&mut orphans),
                });
            }
            WorkerMsg::Shutdown => break,
        }
    }
}

fn run_one(shards: &mut [Shard], orphans: &mut Vec<JobResult>, job: Job) {
    let Some(shard) = shards.iter_mut().find(|s| s.channel == job.channel) else {
        // Routing bug: the session queued a job on a worker that owns
        // no shard for its channel. Dropping it would leave the job's
        // position unresolved forever, so it must come back as a hard
        // error.
        debug_assert!(
            false,
            "Run job for channel {} reached a worker owning no shard for it",
            job.channel
        );
        orphans.push((
            job.pos,
            Err(RuntimeError::NoShardForChannel {
                channel: job.channel,
            }),
        ));
        return;
    };
    if shard.poisoned.is_some() {
        // The panic is reported at sync; queued work behind it is part
        // of the poisoned channel's lost state.
        return;
    }
    if shard.halted {
        // A request queued behind a failed one: never executed, but its
        // position must still resolve — as an error, not a silent gap
        // in the results.
        shard.results.push((
            job.pos,
            Err(RuntimeError::ChannelHalted {
                channel: shard.channel,
            }),
        ));
        return;
    }
    let engine = &mut shard.engine;
    let (op, operands, dst): (BitwiseOp, Vec<&PimBitVec>, &PimBitVec) = match &job.work {
        JobWork::Owned { op, operands, dst } => (*op, operands.iter().collect(), dst),
        JobWork::Batch { slab, index } => {
            let request = &slab[*index];
            (request.op, request.operands.iter().collect(), &request.dst)
        }
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        engine.memory_mut().preload_pim_config(job.prime);
        bitwise_on_engine(engine, job.row_bits, op, &operands, dst)
    }));
    match outcome {
        Ok(Ok(v)) => shard.results.push((job.pos, Ok(v))),
        Ok(Err(e)) => {
            shard.results.push((job.pos, Err(e)));
            shard.halted = true;
        }
        Err(payload) => {
            shard.poisoned = Some((job.pos, panic_message(payload)));
        }
    }
}

fn sync_one_shard(shard: &mut Shard) -> ChannelSync {
    if let Some((pos, msg)) = &shard.poisoned {
        // Fail fast: a poisoned shard ships nothing — not even results
        // completed before the panic, since the state they produced
        // cannot be trusted or extracted. The parent keeps the
        // channel's last synced state.
        return ChannelSync {
            channel: shard.channel,
            deltas: Vec::new(),
            mem_stats: MemStats::default(),
            engine_stats: EngineStats::default(),
            trace: Vec::new(),
            results: Vec::new(),
            panicked: Some((*pos, msg.clone())),
            digest: None,
        };
    }
    let deltas = shard.engine.memory_mut().take_dirty_state();
    let mem_stats = shard.engine.memory_mut().take_stats();
    let engine_stats = shard.engine.take_engine_stats();
    let trace = shard.engine.memory_mut().take_trace();
    let digest =
        cfg!(debug_assertions).then(|| shard.engine.memory().channel_digest(shard.channel));
    ChannelSync {
        channel: shard.channel,
        deltas,
        mem_stats,
        engine_stats,
        trace,
        results: std::mem::take(&mut shard.results),
        panicked: None,
        digest,
    }
}

struct WorkerHandle {
    tx: mpsc::Sender<WorkerMsg>,
    join: Option<JoinHandle<()>>,
}

/// Jobs buffered per worker before a flush forces a channel send. Big
/// enough to amortize the send/wake-up cost over a stream of small
/// requests, small enough that workers start executing long before a
/// large batch finishes submitting.
const FLUSH_JOBS: usize = 32;

/// The per-worker flush threshold for this host. With more than one
/// core, workers overlap execution with submission, so slabs are cut at
/// [`FLUSH_JOBS`]. On a single core that overlap buys nothing — the
/// submitter and workers just trade context switches — so jobs buffer
/// until a sync point and each worker then runs its whole queue in one
/// uninterrupted stretch.
fn flush_threshold() -> usize {
    match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => FLUSH_JOBS,
        _ => usize::MAX,
    }
}

/// A streaming execution session over a persistent worker pool. Create
/// one with [`PimSystem::open_session`]; see the module docs for the
/// execution model.
pub struct ExecSession<'a> {
    system: &'a mut PimSystem,
    threads: Vec<WorkerHandle>,
    thread_of: HashMap<u32, usize>,
    /// Per-worker submission-ordered job buffers, flushed as one
    /// [`WorkerMsg::Run`] slab at [`flush_threshold`] jobs and at every
    /// sync point (results are only observable at sync points, so
    /// buffering never changes what a caller can see).
    pending: Vec<Vec<Job>>,
    /// Cached [`flush_threshold`] for this session.
    flush_jobs: usize,
    /// Per-submission result slots, submission order.
    slots: Vec<Option<(OpSummary, BulkOp)>>,
    first_err: Option<(usize, RuntimeError)>,
    /// Every error observed so far, keyed by submission position — the
    /// root-cause failure *and* the [`RuntimeError::ChannelHalted`]
    /// markers of requests queued behind it, so no position silently
    /// disappears from the result picture.
    errors: std::collections::BTreeMap<usize, RuntimeError>,
    last_op: Option<BitwiseOp>,
    entry_mode: PimConfig,
    row_bits: u64,
}

impl PimSystem {
    /// Opens a persistent execution session with one worker per channel.
    #[must_use]
    pub fn open_session(&mut self) -> ExecSession<'_> {
        let channels = self.engine().memory().geometry().channels as usize;
        self.open_session_with_workers(channels)
    }

    /// Opens a persistent execution session with an explicit worker
    /// count. Channels are distributed over the workers; results and
    /// statistics are identical for every worker count — only wall-clock
    /// time differs.
    #[must_use]
    pub fn open_session_with_workers(&mut self, workers: usize) -> ExecSession<'_> {
        let channels: Vec<u32> = (0..self.engine().memory().geometry().channels).collect();
        let workers = workers.clamp(1, channels.len().max(1));
        let entry_mode = self.engine().memory().pim_config();
        let row_bits = self.row_bits();
        let per_worker = channels.len().div_ceil(workers);
        let mut threads = Vec::new();
        let mut thread_of = HashMap::new();
        for chunk in channels.chunks(per_worker) {
            let shards: Vec<Shard> = chunk
                .iter()
                .map(|&channel| Shard {
                    channel,
                    engine: self.engine_mut().clone_channel(channel),
                    results: Vec::new(),
                    halted: false,
                    poisoned: None,
                })
                .collect();
            for &channel in chunk {
                thread_of.insert(channel, threads.len());
            }
            let (tx, rx) = mpsc::channel();
            let join = std::thread::spawn(move || worker_main(shards, &rx));
            threads.push(WorkerHandle {
                tx,
                join: Some(join),
            });
        }
        let pending = (0..threads.len()).map(|_| Vec::new()).collect();
        ExecSession {
            system: self,
            threads,
            thread_of,
            pending,
            flush_jobs: flush_threshold(),
            slots: Vec::new(),
            first_err: None,
            errors: std::collections::BTreeMap::new(),
            last_op: None,
            entry_mode,
            row_bits,
        }
    }
}

impl ExecSession<'_> {
    /// Submits `dst = op(operands…)` to the pool and returns its
    /// submission position. Single-channel requests are queued on their
    /// home channel and execute asynchronously; channel-straddling
    /// requests synchronize the whole pool and run on the unified
    /// memory before returning.
    ///
    /// # Errors
    ///
    /// Operand/destination length mismatches are rejected immediately.
    /// Execution errors surface at the next sync point; once the
    /// session has failed, further submissions return the first error.
    pub fn submit(
        &mut self,
        op: BitwiseOp,
        operands: &[&PimBitVec],
        dst: &PimBitVec,
    ) -> Result<usize, RuntimeError> {
        self.submit_work(op, operands, dst, |op, operands, dst| JobWork::Owned {
            op,
            operands: operands.iter().map(|v| (*v).clone()).collect(),
            dst: dst.clone(),
        })
    }

    /// Routes one request: queue it on its home channel (payload built
    /// by `make_work`, so the batch path can avoid cloning handles), or
    /// sync and run it on the unified memory if it straddles channels.
    fn submit_work(
        &mut self,
        op: BitwiseOp,
        operands: &[&PimBitVec],
        dst: &PimBitVec,
        make_work: impl FnOnce(BitwiseOp, &[&PimBitVec], &PimBitVec) -> JobWork,
    ) -> Result<usize, RuntimeError> {
        if let Some((_, e)) = &self.first_err {
            return Err(e.clone());
        }
        let pos = self.slots.len();
        if let Err(e) = validate_lengths(operands, dst) {
            self.note_err(pos, e.clone());
            self.slots.push(None);
            return Err(e);
        }
        let prime = self.last_op.map_or(self.entry_mode, mode_for);
        match home_of(operands, dst) {
            Some(channel) => {
                let job = Job {
                    pos,
                    channel,
                    prime,
                    work: make_work(op, operands, dst),
                    row_bits: self.row_bits,
                };
                let thread = self.thread_of[&channel];
                self.pending[thread].push(job);
                if self.pending[thread].len() >= self.flush_jobs {
                    self.flush_thread(thread);
                }
                self.slots.push(None);
            }
            None => {
                // Straddling request: explicit sync point. Drain every
                // queue, run on the unified (reconciled) memory, push
                // the touched state back out to the owning shards.
                self.sync_internal();
                if let Some((_, e)) = &self.first_err {
                    self.slots.push(None);
                    return Err(e.clone());
                }
                self.system
                    .engine_mut()
                    .memory_mut()
                    .preload_pim_config(prime);
                match bitwise_on_engine(self.system.engine_mut(), self.row_bits, op, operands, dst)
                {
                    Ok(v) => self.slots.push(Some(v)),
                    Err(e) => {
                        self.note_err(pos, e.clone());
                        self.slots.push(None);
                        self.last_op = Some(op);
                        return Err(e);
                    }
                }
                self.push_back_parent_writes();
            }
        }
        self.last_op = Some(op);
        Ok(pos)
    }

    /// Submits a whole batch in the scheduler's planned order (the same
    /// order [`PimSystem::execute_batch_serial`] uses), returning each
    /// request's submission position, indexed like `requests`.
    ///
    /// # Errors
    ///
    /// See [`ExecSession::submit`].
    pub fn submit_batch(&mut self, requests: &[BatchRequest]) -> Result<Vec<usize>, RuntimeError> {
        self.submit_batch_shared(&Arc::new(requests.to_vec()))
    }

    /// [`ExecSession::submit_batch`] for a batch the caller already
    /// holds behind an `Arc`: the slab is shared with the workers as-is,
    /// so dispatch clones no row handles — each queued job is an index
    /// into the slab plus an `Arc` bump. This is the cheapest way to
    /// replay the same batch across rounds.
    ///
    /// # Errors
    ///
    /// See [`ExecSession::submit`].
    pub fn submit_batch_shared(
        &mut self,
        requests: &Arc<Vec<BatchRequest>>,
    ) -> Result<Vec<usize>, RuntimeError> {
        let order = self.system.plan_batch(requests);
        let mut positions = vec![0usize; requests.len()];
        for &i in &order {
            let request = &requests[i];
            let operands: Vec<&PimBitVec> = request.operands.iter().collect();
            positions[i] = self.submit_work(request.op, &operands, &request.dst, |_, _, _| {
                JobWork::Batch {
                    slab: Arc::clone(requests),
                    index: i,
                }
            })?;
        }
        Ok(positions)
    }

    /// Drains every channel queue and folds the shards' dirty-state
    /// deltas, statistics and traces into the parent system.
    ///
    /// # Errors
    ///
    /// The earliest-submitted failed request's error, if any request has
    /// failed so far (including worker panics, reported as
    /// [`RuntimeError::WorkerPanicked`]).
    pub fn sync(&mut self) -> Result<(), RuntimeError> {
        self.sync_internal();
        match &self.first_err {
            Some((_, e)) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Stores bits into a vector through the parent system (a sync
    /// point: the write must be visible to subsequently submitted
    /// requests, so it lands on the parent and is pushed back out to
    /// the owning shards).
    ///
    /// # Errors
    ///
    /// See [`ExecSession::sync`] and [`PimSystem::store`].
    pub fn store(&mut self, vec: &PimBitVec, bits: &[bool]) -> Result<(), RuntimeError> {
        self.sync()?;
        self.system.store(vec, bits)?;
        self.push_back_parent_writes();
        Ok(())
    }

    /// Reads a vector's bits back (a sync point).
    ///
    /// # Errors
    ///
    /// See [`ExecSession::sync`].
    pub fn load(&mut self, vec: &PimBitVec) -> Result<Vec<bool>, RuntimeError> {
        self.sync()?;
        Ok(self.system.load(vec))
    }

    /// Population count of a vector (a sync point).
    ///
    /// # Errors
    ///
    /// See [`ExecSession::sync`].
    pub fn count_ones(&mut self, vec: &PimBitVec) -> Result<u64, RuntimeError> {
        self.sync()?;
        Ok(self.system.count_ones(vec))
    }

    /// Accumulated memory statistics over everything submitted so far
    /// (a sync point).
    ///
    /// # Errors
    ///
    /// See [`ExecSession::sync`].
    pub fn stats(&mut self) -> Result<MemStats, RuntimeError> {
        self.sync()?;
        Ok(*self.system.stats())
    }

    /// Read-only view of the parent system. Between sync points the
    /// parent's channel mirrors and statistics lag the shards — call
    /// [`ExecSession::sync`] first for a reconciled view.
    #[must_use]
    pub fn system(&self) -> &PimSystem {
        self.system
    }

    /// Allocates a vector mid-session (see [`PimSystem::alloc`]).
    /// Allocation is allocator bookkeeping only — it touches no
    /// simulated memory — so unlike [`ExecSession::store`] it is *not* a
    /// sync point and costs in-flight work nothing.
    ///
    /// # Errors
    ///
    /// See [`PimSystem::alloc`].
    pub fn alloc(&mut self, len_bits: u64) -> Result<PimBitVec, RuntimeError> {
        self.system.alloc(len_bits)
    }

    /// Allocates a co-operated group mid-session (see
    /// [`PimSystem::alloc_group`]); not a sync point.
    ///
    /// # Errors
    ///
    /// See [`PimSystem::alloc_group`].
    pub fn alloc_group(
        &mut self,
        count: usize,
        len_bits: u64,
    ) -> Result<Vec<PimBitVec>, RuntimeError> {
        self.system.alloc_group(count, len_bits)
    }

    /// Channel-steered group allocation mid-session (see
    /// [`PimSystem::alloc_group_on_channel`]); not a sync point. The
    /// serving layer pairs this with the parent's wear ledger to place
    /// new tenant data on the least-worn channel.
    ///
    /// # Errors
    ///
    /// See [`PimSystem::alloc_group_on_channel`].
    pub fn alloc_group_on_channel(
        &mut self,
        channel: u32,
        count: usize,
        len_bits: u64,
    ) -> Result<Vec<PimBitVec>, RuntimeError> {
        self.system.alloc_group_on_channel(channel, count, len_bits)
    }

    /// Releases vectors' rows back to the allocation pool (see
    /// [`PimSystem::release_vecs`]); not a sync point. The caller must
    /// not release vectors still referenced by unsynced submissions.
    pub fn release_vecs<'a, I>(&mut self, vecs: I) -> usize
    where
        I: IntoIterator<Item = &'a PimBitVec>,
    {
        self.system.release_vecs(vecs)
    }

    /// How many requests have been submitted to this session.
    #[must_use]
    pub fn submitted(&self) -> usize {
        self.slots.len()
    }

    /// Ends the session: final sync, worker shutdown, and the abstract
    /// trace of every completed request pushed to the parent in
    /// submission order. Returns the per-request cost summaries, in
    /// submission order.
    ///
    /// # Errors
    ///
    /// The earliest-submitted failed request's error. Committed work —
    /// everything synced from healthy channels — stays in the parent
    /// system either way.
    pub fn close(mut self) -> Result<Vec<OpSummary>, RuntimeError> {
        self.sync_internal();
        self.shutdown();
        if self.first_err.is_none() {
            // Leave the unified mode register where the serial stream
            // would: at the last request's configuration.
            if let Some(op) = self.last_op {
                self.system
                    .engine_mut()
                    .memory_mut()
                    .preload_pim_config(mode_for(op));
            }
        }
        let slots = std::mem::take(&mut self.slots);
        let mut summaries = Vec::with_capacity(slots.len());
        for (summary, record) in slots.into_iter().flatten() {
            self.system.push_trace(record);
            summaries.push(summary);
        }
        match self.first_err.take() {
            Some((_, e)) => Err(e),
            None => Ok(summaries),
        }
    }

    /// Every error recorded so far, keyed by submission position. A
    /// failed request's position carries its root cause; positions
    /// queued behind it on the same channel carry
    /// [`RuntimeError::ChannelHalted`]. Complete only after a sync
    /// point ([`ExecSession::sync`] or any read-side helper).
    #[must_use]
    pub fn position_errors(&self) -> &std::collections::BTreeMap<usize, RuntimeError> {
        &self.errors
    }

    fn note_err(&mut self, pos: usize, e: RuntimeError) {
        self.errors.entry(pos).or_insert_with(|| e.clone());
        match &self.first_err {
            Some((first, _)) if *first <= pos => {}
            _ => self.first_err = Some((pos, e)),
        }
    }

    /// Sends a worker's buffered jobs as one slab. A send can only fail
    /// if the worker died; the panic is then reported at the next sync.
    fn flush_thread(&mut self, thread: usize) {
        if self.pending[thread].is_empty() {
            return;
        }
        let jobs = std::mem::take(&mut self.pending[thread]);
        let _ = self.threads[thread].tx.send(WorkerMsg::Run(jobs));
    }

    /// Drains all queues and reconciles the parent with every shard.
    fn sync_internal(&mut self) {
        for thread in 0..self.threads.len() {
            self.flush_thread(thread);
        }
        let (tx, rx) = mpsc::channel();
        let mut expected = 0usize;
        for handle in &self.threads {
            if handle.tx.send(WorkerMsg::Sync(tx.clone())).is_ok() {
                expected += 1;
            }
        }
        drop(tx);
        let mut channels: Vec<ChannelSync> = Vec::new();
        let mut orphans: Vec<JobResult> = Vec::new();
        for _ in 0..expected {
            let Ok(reply) = rx.recv() else { break };
            channels.extend(reply.channels);
            orphans.extend(reply.orphans);
        }
        for (pos, result) in orphans {
            if let Err(e) = result {
                self.note_err(pos, e);
            }
        }
        // Fixed merge order — ascending channel — so the folded
        // statistics are identical for every worker count.
        channels.sort_by_key(|c| c.channel);
        for sync in channels {
            if let Some((pos, message)) = sync.panicked {
                self.note_err(
                    pos,
                    RuntimeError::WorkerPanicked {
                        channel: sync.channel,
                        message,
                    },
                );
                continue;
            }
            for (pos, result) in sync.results {
                match result {
                    Ok(v) => self.slots[pos] = Some(v),
                    Err(e) => self.note_err(pos, e),
                }
            }
            // Stats first: the deltas re-anchor the shard's relative
            // tRRD/tFAW history on the parent clock, which must already
            // include the shard's elapsed time.
            let mem = self.system.engine_mut().memory_mut();
            mem.merge_stats(sync.mem_stats);
            for delta in sync.deltas {
                mem.apply_delta(delta);
            }
            mem.append_trace(sync.trace);
            self.system
                .engine_mut()
                .merge_engine_stats(sync.engine_stats);
            if let Some(shard_digest) = sync.digest {
                debug_assert_eq!(
                    self.system.engine().memory().channel_digest(sync.channel),
                    shard_digest,
                    "dirty-delta sync must leave channel {} identical in parent and shard",
                    sync.channel
                );
            }
        }
        // One ledger check per sync point: detected must equal
        // corrected + uncorrectable once every shard's counters are in.
        self.system.engine().memory().assert_ledger_consistent();
    }

    /// Ships the parent's dirty writes (straddling requests, stores)
    /// back to the owning shards as state-only deltas.
    fn push_back_parent_writes(&mut self) {
        let deltas = self.system.engine_mut().memory_mut().take_dirty_state();
        for delta in deltas {
            if let Some(&thread) = self.thread_of.get(&delta.channel()) {
                let _ = self.threads[thread]
                    .tx
                    .send(WorkerMsg::Apply(Box::new(delta)));
            }
        }
    }

    fn shutdown(&mut self) {
        for handle in &mut self.threads {
            let _ = handle.tx.send(WorkerMsg::Shutdown);
        }
        for handle in &mut self.threads {
            if let Some(join) = handle.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl Drop for ExecSession<'_> {
    fn drop(&mut self) {
        // Best-effort sync on implicit drop — but never on an
        // unwinding path, where a secondary panic would abort.
        if !std::thread::panicking() && self.threads.iter().any(|h| h.join.is_some()) {
            self.sync_internal();
        }
        self.shutdown();
    }
}

/// The single channel a request is confined to, if any: a request whose
/// operand and destination rows all live on one channel runs on that
/// channel's shard; anything else needs the unified memory.
fn home_of(operands: &[&PimBitVec], dst: &PimBitVec) -> Option<u32> {
    let c = dst.rows()[0].channel;
    all_rows(operands, dst).all(|r| r.channel == c).then_some(c)
}

fn all_rows<'a>(
    operands: &'a [&PimBitVec],
    dst: &'a PimBitVec,
) -> impl Iterator<Item = RowAddr> + 'a {
    dst.rows()
        .iter()
        .copied()
        .chain(operands.iter().flat_map(|v| v.rows().iter().copied()))
}

/// The same eager checks [`bitwise_on_engine`] performs, so malformed
/// submissions fail at submit time instead of deep in a worker.
fn validate_lengths(operands: &[&PimBitVec], dst: &PimBitVec) -> Result<(), RuntimeError> {
    let Some(first) = operands.first() else {
        return Err(RuntimeError::Pim(pinatubo_core::PimError::EmptyOperands));
    };
    let len = first.len_bits();
    for v in operands.iter().skip(1) {
        if v.len_bits() != len {
            return Err(RuntimeError::LengthMismatch {
                expected_bits: len,
                got_bits: v.len_bits(),
            });
        }
    }
    if dst.len_bits() != len {
        return Err(RuntimeError::LengthMismatch {
            expected_bits: len,
            got_bits: dst.len_bits(),
        });
    }
    Ok(())
}
