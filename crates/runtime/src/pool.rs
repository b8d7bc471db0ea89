//! Sharded execution sessions — the runtime's one channel-parallel
//! executor.
//!
//! An [`ExecSession`] streams requests into a pool of executors;
//! [`PimSystem::execute_batch`] is a one-shot session over one batch, and
//! a long-lived session amortizes the pool's setup over a whole stream.
//! Opening a session clones every channel's engine shard (with
//! `clone_channel`) into the pool, each shard behind its own lock. No
//! shard belongs to a thread: submitted requests are published to one
//! claim board, a FIFO of jobs per channel, and an *executor* claims a
//! whole channel, runs every job queued there in submission order under
//! that channel's shard lock, and releases it. Every worker thread is an
//! executor, and so is the caller at every sync point, so a session
//! executes on up to `workers + 1` threads. The worker threads start at
//! the first publish ahead of a sync point, so a session whose jobs all
//! wait for a sync point runs them all on the caller and starts none.
//! There is no inter-batch barrier, and the parent system keeps only a
//! stale mirror of each channel, reconciled on demand from the shards'
//! dirty-state deltas (O(touched state), not O(memory)).
//!
//! Synchronization points are explicit and rare:
//!
//! * a channel-straddling request (its rows span channels) must see the
//!   unified memory, so it drains every queue, runs on the parent, and
//!   pushes the rows it touched back into the owning shards;
//! * [`ExecSession::sync`], [`ExecSession::close`] and
//!   [`ExecSession::load`] drain the queues and fold the deltas into the
//!   parent; [`ExecSession::store`] also writes through the parent and
//!   pushes the write back into the shards.
//!
//! To drain, the caller publishes what it has buffered, runs every
//! channel no worker holds, and waits for the workers to release the
//! rest; it then folds every shard into the parent in ascending channel
//! order, on its own thread and under that shard's lock, so no message or
//! reply crosses threads.
//!
//! Each request's cost summary is handed back once, by the sync point
//! that completes it: [`ExecSession::sync`] returns the summaries of
//! every request completed since the previous hand-back (and pushes their
//! abstract trace records to the parent), and [`ExecSession::close`]
//! returns the rest. Straddling requests, `load` and `store` settle state
//! but hand nothing back; their results wait for the caller's next `sync`
//! or `close`. A long-lived session therefore holds per-request state for
//! the current round only, however many requests it has run.
//!
//! Every request takes one path: [`ExecSession::submit_batch`] shares the
//! batch with the executors as one slab, and [`ExecSession::submit`] is a
//! one-request slab (planning one request is the identity). The operand
//! lengths are checked at submit time, so a malformed request fails
//! there rather than deep in an executor.
//!
//! Results are bit-, stats- and fault-ledger-identical to
//! [`PimSystem::execute_batch_serial`] on the same request stream,
//! independent of the pool size and of which executor runs which
//! channel: per-channel FIFO order preserves every data dependence a
//! single-channel stream can have (all its rows live on that channel),
//! cross-channel dependences only arise through straddling requests,
//! which are full barriers, and each request is primed with exactly the
//! sense-amp mode register the serial stream would have held: every
//! engine path sets the register to its op's [`BitwiseOp::pim_config`]
//! before it touches data, so the register after any request is that
//! configuration of the request's op.
//!
//! A panic in a request is contained on whichever executor ran it, a
//! worker thread or the caller: the panicking channel is poisoned and its
//! un-synced work discarded (the parent keeps that channel's last synced
//! state), every other channel's committed state survives, and the
//! session reports [`RuntimeError::WorkerPanicked`] at the next sync
//! point.

use crate::bitvec::PimBitVec;
use crate::scheduler::BatchRequest;
use crate::system::{bitwise_on_engine, check_lengths, OpSummary, PimSystem};
use crate::RuntimeError;
use pinatubo_core::{BitwiseOp, BulkOp, PinatuboEngine};
use pinatubo_mem::{PimConfig, RowAddr};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One dispatched request, self-contained so any executor can run it:
/// the request travels as an index into a shared slab, so dispatch
/// clones no row handles — each job is an index plus an `Arc` bump.
struct Job {
    pos: usize,
    channel: u32,
    prime: PimConfig,
    slab: Arc<Vec<BatchRequest>>,
    index: usize,
}

/// A request's submission position paired with its outcome.
type JobResult = (usize, Result<(OpSummary, BulkOp), RuntimeError>);

/// One channel's engine shard, kept for the whole session and run by
/// whichever executor claims the channel.
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

fn run_one(shard: &mut Shard, job: Job, row_bits: u64) {
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
    let request = &job.slab[job.index];
    let operands: Vec<&PimBitVec> = request.operands.iter().collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        engine.memory_mut().preload_pim_config(job.prime);
        bitwise_on_engine(engine, row_bits, request.op, &operands, &request.dst)
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

/// The claim board: the jobs published for each channel, in submission
/// order, and whether an executor holds the channel. Jobs published for
/// a channel while it runs wait for its release, so every channel runs
/// its jobs in submission order whichever executors claim them.
struct Board {
    queues: Vec<Vec<Job>>,
    running: Vec<bool>,
    shutdown: bool,
}

impl Board {
    /// Claims the first channel with queued jobs and no executor, taking
    /// every job queued there.
    fn claim(&mut self) -> Option<(usize, Vec<Job>)> {
        let channel =
            (0..self.queues.len()).find(|&c| !self.running[c] && !self.queues[c].is_empty())?;
        self.running[channel] = true;
        Some((channel, std::mem::take(&mut self.queues[channel])))
    }
}

/// What a session shares with its worker threads.
struct Pool {
    /// One engine shard per channel, indexed by channel.
    shards: Vec<Mutex<Shard>>,
    board: Mutex<Board>,
    /// Idle workers park here; signalled when jobs are published before
    /// a sync point, and at shutdown.
    work: Condvar,
    /// Signalled whenever an executor releases a channel; the caller
    /// waits here at a sync point for the channels workers still hold.
    released: Condvar,
    /// Bits per row of the session's system.
    row_bits: u64,
}

/// Locks `mutex`, recovering it from poison. Every update of the board
/// leaves it valid at each step, and a request's panic is caught inside
/// [`run_one`] while its shard stays locked; only a bug in the fold can
/// poison a shard, and that panic reaches the caller, whose session can
/// then still shut down.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// Moves `jobs` onto the board in submission order and returns the
    /// board still locked.
    fn publish(&self, jobs: &mut Vec<Job>) -> MutexGuard<'_, Board> {
        let mut board = lock(&self.board);
        for job in jobs.drain(..) {
            board.queues[job.channel as usize].push(job);
        }
        board
    }

    /// Starting from the locked `board`, claims channels and runs their
    /// jobs until nothing is claimable and `done` holds, waiting on
    /// `idle` while neither is the case (after [`SPIN_YIELDS`] yields
    /// if it has just run a channel). The board lock is never held
    /// while a shard runs, and a shard's lock is released before the
    /// board lock is taken again.
    fn execute<'p>(
        &'p self,
        mut board: MutexGuard<'p, Board>,
        idle: &Condvar,
        done: impl Fn(&Board) -> bool,
    ) {
        let mut yields = SPIN_YIELDS;
        loop {
            if let Some((channel, jobs)) = board.claim() {
                drop(board);
                let mut shard = lock(&self.shards[channel]);
                for job in jobs {
                    run_one(&mut shard, job, self.row_bits);
                }
                drop(shard);
                board = lock(&self.board);
                board.running[channel] = false;
                self.released.notify_one();
                yields = 0;
            } else if done(&board) {
                return;
            } else if yields < SPIN_YIELDS {
                yields += 1;
                drop(board);
                std::thread::yield_now();
                board = lock(&self.board);
            } else {
                board = idle.wait(board).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Times an executor that has just released a channel yields and looks at
/// the board again before it parks. While the caller is submitting it
/// publishes again within a few tens of µs, so a worker that stays
/// runnable that long takes the next channel without a wake-up. Workers
/// that parked at once were woken several times a round, and on a 2-core
/// host about one serve_faulty run in six then ran at the one-thread
/// rate, as if worker and caller shared one core; with these yields
/// about one run in twenty did.
const SPIN_YIELDS: u32 = 100;

/// Jobs buffered before they are published to the board and the workers
/// woken. Big enough to amortize the lock and wake-up cost over a stream
/// of small requests, small enough that workers start executing long
/// before a large batch finishes submitting.
const FLUSH_JOBS: usize = 32;

/// The publish threshold for this host. With more than one core,
/// workers overlap execution with submission, so jobs are published
/// every [`FLUSH_JOBS`]. On a single core that overlap buys nothing —
/// the submitter and workers just trade context switches — so jobs
/// buffer until a sync point, where the caller runs them all itself.
fn flush_threshold() -> usize {
    match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => FLUSH_JOBS,
        _ => usize::MAX,
    }
}

/// A streaming execution session over a persistent pool of executors.
/// Create one with [`PimSystem::open_session`]; see the module docs for
/// the execution model.
pub struct ExecSession<'a> {
    system: &'a mut PimSystem,
    pool: Arc<Pool>,
    /// Worker threads to start at the first publish.
    workers: usize,
    threads: Vec<JoinHandle<()>>,
    /// Submission-ordered jobs not yet on the board, published at
    /// [`flush_threshold`] jobs and at every sync point (a caller sees
    /// memory only at sync points and summaries only at `sync`/`close`,
    /// so buffering never changes what it can see).
    pending: Vec<Job>,
    /// Cached [`flush_threshold`] for this session.
    flush_jobs: usize,
    /// Result slots of the requests not yet handed back, submission
    /// order: slot `i` belongs to position `handed_back + i`.
    slots: Vec<Option<(OpSummary, BulkOp)>>,
    /// Positions already handed back, so `slots` starts there.
    handed_back: usize,
    /// Every error observed so far, keyed by submission position — the
    /// root-cause failure *and* the [`RuntimeError::ChannelHalted`]
    /// markers of requests queued behind it, so no position silently
    /// disappears from the result picture.
    errors: std::collections::BTreeMap<usize, RuntimeError>,
    last_op: Option<BitwiseOp>,
    entry_mode: PimConfig,
}

impl PimSystem {
    /// Opens a persistent execution session at the default worker
    /// count, the channel count (see
    /// [`PimSystem::open_session_with_workers`], which also says when
    /// the worker threads start).
    #[must_use]
    pub fn open_session(&mut self) -> ExecSession<'_> {
        let channels = self.engine().memory().geometry().channels as usize;
        self.open_session_with_workers(channels)
    }

    /// Opens a persistent execution session with an explicit worker
    /// count. The caller runs shards at every sync point, so the session
    /// executes on up to `workers + 1` threads: it runs `workers` worker
    /// threads (at least one), but never more than one fewer than the
    /// channel count, since further threads would only idle. The threads
    /// start when the session first publishes jobs before a sync point,
    /// so a session that never does — fewer than 32 jobs between syncs,
    /// or a one-core host — runs every job on the caller and starts none.
    /// Results and statistics are identical for every worker count — only
    /// wall-clock time differs.
    #[must_use]
    pub fn open_session_with_workers(&mut self, workers: usize) -> ExecSession<'_> {
        let channels = self.engine().memory().geometry().channels;
        let entry_mode = self.engine().memory().pim_config();
        let row_bits = self.row_bits();
        let shards = (0..channels)
            .map(|channel| {
                Mutex::new(Shard {
                    channel,
                    engine: self.engine_mut().clone_channel(channel),
                    results: Vec::new(),
                    halted: false,
                    poisoned: None,
                })
            })
            .collect();
        let pool = Arc::new(Pool {
            shards,
            board: Mutex::new(Board {
                queues: (0..channels).map(|_| Vec::new()).collect(),
                running: vec![false; channels as usize],
                shutdown: false,
            }),
            work: Condvar::new(),
            released: Condvar::new(),
            row_bits,
        });
        ExecSession {
            system: self,
            pool,
            // The caller is the extra executor: more threads would only idle.
            workers: workers.max(1).min((channels as usize).saturating_sub(1)),
            threads: Vec::new(),
            pending: Vec::new(),
            flush_jobs: flush_threshold(),
            slots: Vec::new(),
            handed_back: 0,
            errors: std::collections::BTreeMap::new(),
            last_op: None,
            entry_mode,
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
        // `PimBitVec` handles are plain row lists: cloning one into the
        // slab does not clone the simulated storage.
        let slab = Arc::new(vec![BatchRequest {
            op,
            operands: operands.iter().map(|v| (*v).clone()).collect(),
            dst: dst.clone(),
        }]);
        self.submit_work(&slab, 0)
    }

    /// Routes request `index` of `slab`: queue it on its home channel,
    /// or sync and run it on the unified memory if it straddles
    /// channels.
    fn submit_work(
        &mut self,
        slab: &Arc<Vec<BatchRequest>>,
        index: usize,
    ) -> Result<usize, RuntimeError> {
        if let Some(e) = self.first_err() {
            return Err(e.clone());
        }
        let pos = self.handed_back + self.slots.len();
        let request = &slab[index];
        let (op, dst) = (request.op, &request.dst);
        let operands: Vec<&PimBitVec> = request.operands.iter().collect();
        if let Err(e) = check_lengths(&operands, dst) {
            self.note_err(pos, e.clone());
            self.slots.push(None);
            return Err(e);
        }
        let prime = self.last_op.map_or(self.entry_mode, BitwiseOp::pim_config);
        match home_of(&operands, dst) {
            Some(channel) => {
                let job = Job {
                    pos,
                    channel,
                    prime,
                    slab: Arc::clone(slab),
                    index,
                };
                self.pending.push(job);
                if self.pending.len() >= self.flush_jobs {
                    self.spawn_workers();
                    drop(self.pool.publish(&mut self.pending));
                    self.pool.work.notify_all();
                }
                self.slots.push(None);
            }
            None => {
                // Straddling request: explicit sync point. Drain every
                // queue, run on the unified (reconciled) memory, push
                // the touched state back out to the owning shards.
                if let Err(e) = self.settle() {
                    self.slots.push(None);
                    return Err(e);
                }
                self.system
                    .engine_mut()
                    .memory_mut()
                    .preload_pim_config(prime);
                match bitwise_on_engine(
                    self.system.engine_mut(),
                    self.pool.row_bits,
                    op,
                    &operands,
                    dst,
                ) {
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
    /// holds behind an `Arc`: the slab is shared with the executors as-is,
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
            positions[i] = self.submit_work(requests, i)?;
        }
        Ok(positions)
    }

    /// Drains every channel queue, folds the shards' dirty-state deltas
    /// and statistics into the parent system, and hands back every
    /// request completed since the previous hand-back: their abstract
    /// trace records are pushed to the parent and their cost summaries
    /// returned, both in submission order. Each summary is handed back
    /// exactly once; the session keeps nothing of a request after it.
    ///
    /// # Errors
    ///
    /// The earliest-submitted failed request's error, if any request has
    /// failed so far (including panics, reported as
    /// [`RuntimeError::WorkerPanicked`]). Nothing is handed back then:
    /// the completed requests' results stay for [`ExecSession::close`],
    /// and a failed session accepts no further submissions.
    pub fn sync(&mut self) -> Result<Vec<OpSummary>, RuntimeError> {
        self.settle()?;
        Ok(self.hand_back())
    }

    /// Stores bits into a vector through the parent system (a sync
    /// point: the write must be visible to subsequently submitted
    /// requests, so it lands on the parent and is pushed back out to
    /// the owning shards). Hands nothing back: the summaries of the
    /// requests it completes arrive at the next [`ExecSession::sync`] or
    /// [`ExecSession::close`].
    ///
    /// # Errors
    ///
    /// See [`ExecSession::sync`] and [`PimSystem::store`].
    pub fn store(&mut self, vec: &PimBitVec, bits: &[bool]) -> Result<(), RuntimeError> {
        self.settle()?;
        self.system.store(vec, bits)?;
        self.push_back_parent_writes();
        Ok(())
    }

    /// Reads a vector's bits back (a sync point). Like
    /// [`ExecSession::store`], it hands nothing back.
    ///
    /// # Errors
    ///
    /// See [`ExecSession::sync`].
    pub fn load(&mut self, vec: &PimBitVec) -> Result<Vec<bool>, RuntimeError> {
        self.settle()?;
        Ok(self.system.load(vec))
    }

    /// Ends the session: final sync, worker shutdown, and the hand-back
    /// of every request no [`ExecSession::sync`] has returned — their
    /// abstract trace records pushed to the parent and their cost
    /// summaries returned, both in submission order. A session that is
    /// never synced returns every summary here.
    ///
    /// # Errors
    ///
    /// The earliest-submitted failed request's error. Committed work —
    /// everything synced from healthy channels — stays in the parent
    /// system either way, and the completed requests' trace records are
    /// pushed either way.
    pub fn close(mut self) -> Result<Vec<OpSummary>, RuntimeError> {
        self.sync_internal();
        self.shutdown();
        if let Some(e) = self.first_err() {
            let e = e.clone();
            self.hand_back();
            return Err(e);
        }
        // Leave the unified mode register where the serial stream would:
        // at the last request's configuration.
        if let Some(op) = self.last_op {
            self.system
                .engine_mut()
                .memory_mut()
                .preload_pim_config(op.pim_config());
        }
        Ok(self.hand_back())
    }

    /// Every error recorded so far, keyed by submission position (the
    /// value [`ExecSession::submit`] returned, counted over the session's
    /// whole life). A failed request's position carries its root cause;
    /// positions queued behind it on the same channel carry
    /// [`RuntimeError::ChannelHalted`]. Complete only after a sync point
    /// ([`ExecSession::sync`], [`ExecSession::load`] or
    /// [`ExecSession::store`]).
    #[must_use]
    pub fn position_errors(&self) -> &std::collections::BTreeMap<usize, RuntimeError> {
        &self.errors
    }

    /// Drains every queue and folds the shards into the parent, handing
    /// nothing back; reports the earliest failure, if any.
    fn settle(&mut self) -> Result<(), RuntimeError> {
        self.sync_internal();
        match self.first_err() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Hands back every retained result: pushes the completed requests'
    /// trace records to the parent and returns their summaries, both in
    /// submission order (failed positions have neither). Call only after
    /// a sync point, when every retained position has resolved.
    fn hand_back(&mut self) -> Vec<OpSummary> {
        self.handed_back += self.slots.len();
        let mut summaries = Vec::with_capacity(self.slots.len());
        for (summary, record) in self.slots.drain(..).flatten() {
            self.system.push_trace(record);
            summaries.push(summary);
        }
        summaries
    }

    fn note_err(&mut self, pos: usize, e: RuntimeError) {
        self.errors.entry(pos).or_insert(e);
    }

    /// The earliest-submitted failed request's error, if any.
    fn first_err(&self) -> Option<&RuntimeError> {
        self.errors.values().next()
    }

    /// Starts the worker threads if they have not started yet; runs
    /// before each publish ahead of a sync point.
    fn spawn_workers(&mut self) {
        if !self.threads.is_empty() {
            return;
        }
        self.threads = (0..self.workers)
            .map(|_| {
                let pool = Arc::clone(&self.pool);
                std::thread::spawn(move || {
                    pool.execute(lock(&pool.board), &pool.work, |board| board.shutdown);
                })
            })
            .collect();
    }

    /// Drains all queues and reconciles the parent with every shard. The
    /// caller publishes the rest of its buffer without waking anyone,
    /// runs every channel no worker holds, waits for the workers to
    /// release the others, and then folds every shard on its own thread,
    /// under that shard's lock.
    fn sync_internal(&mut self) {
        let board = self.pool.publish(&mut self.pending);
        self.pool.execute(board, &self.pool.released, |board| {
            !board.running.contains(&true)
        });
        // Fixed merge order — ascending channel — so the folded
        // statistics are identical for every worker count.
        let pool = Arc::clone(&self.pool);
        for shard in &pool.shards {
            let mut shard = lock(shard);
            let channel = shard.channel;
            if let Some((pos, message)) = &shard.poisoned {
                // Fail fast: a poisoned shard ships nothing — not even
                // results completed before the panic, since the state
                // they produced cannot be trusted or extracted. The
                // parent keeps the channel's last synced state.
                let message = message.clone();
                self.note_err(*pos, RuntimeError::WorkerPanicked { channel, message });
                continue;
            }
            for (pos, result) in shard.results.drain(..) {
                match result {
                    Ok(v) => self.slots[pos - self.handed_back] = Some(v),
                    Err(e) => self.note_err(pos, e),
                }
            }
            // The delta before the stats: taking the stats clears the
            // activation history the delta ships relative to the shard's
            // clock. Then merge the stats first: the delta re-anchors
            // that history on the parent clock, which must already
            // include the shard's elapsed time.
            let deltas = shard.engine.memory_mut().take_dirty_state();
            let stats = shard.engine.memory_mut().take_stats();
            let mem = self.system.engine_mut().memory_mut();
            mem.merge_stats(stats);
            for delta in deltas {
                mem.apply_delta(delta);
            }
            let engine_stats = shard.engine.take_engine_stats();
            self.system.engine_mut().merge_engine_stats(engine_stats);
            debug_assert_eq!(
                self.system.engine().memory().channel_digest(channel),
                shard.engine.memory().channel_digest(channel),
                "dirty-delta sync must leave channel {channel} identical in parent and shard"
            );
        }
        // One ledger check per sync point: detected must equal
        // corrected + uncorrectable once every shard's counters are in.
        self.system.engine().memory().assert_ledger_consistent();
    }

    /// Applies the parent's dirty writes (straddling requests, stores)
    /// to the owning shards as state-only deltas. Runs after a sync
    /// point, when no executor holds a shard.
    fn push_back_parent_writes(&mut self) {
        let deltas = self.system.engine_mut().memory_mut().take_dirty_state();
        for delta in deltas {
            if let Some(shard) = self.pool.shards.get(delta.channel() as usize) {
                let mut shard = lock(shard);
                if shard.poisoned.is_none() {
                    shard.engine.memory_mut().apply_delta(delta);
                }
            }
        }
    }

    fn shutdown(&mut self) {
        lock(&self.pool.board).shutdown = true;
        self.pool.work.notify_all();
        for join in self.threads.drain(..) {
            let _ = join.join();
        }
    }
}

impl Drop for ExecSession<'_> {
    fn drop(&mut self) {
        // Best-effort sync on implicit drop of an open session — but
        // never on an unwinding path, where a secondary panic would
        // abort.
        if !std::thread::panicking() && !lock(&self.pool.board).shutdown {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingPolicy;
    use pinatubo_core::PimError;

    fn sys() -> PimSystem {
        PimSystem::pcm_default(MappingPolicy::ChannelRotate)
    }

    /// Submits one malformed request — operands and destination of the
    /// given lengths — through a fresh session and checks that the error
    /// comes back at submit time, is recorded at the request's position,
    /// and is what `close` reports.
    fn assert_rejected_eagerly(
        operand_bits: &[u64],
        dst_bits: u64,
        as_batch: bool,
        expected: &RuntimeError,
    ) {
        let mut s = sys();
        let ok = s.alloc_group(3, 64).expect("ok group");
        let request = BatchRequest {
            op: BitwiseOp::And,
            operands: operand_bits
                .iter()
                .map(|&bits| s.alloc(bits).expect("operand"))
                .collect(),
            dst: s.alloc(dst_bits).expect("dst"),
        };
        let mut session = s.open_session();
        // A good request first, so the bad one sits at position 1.
        session
            .submit(BitwiseOp::Or, &[&ok[0], &ok[1]], &ok[2])
            .expect("good request");
        let err = if as_batch {
            session.submit_batch(std::slice::from_ref(&request))
        } else {
            let operands: Vec<&PimBitVec> = request.operands.iter().collect();
            session
                .submit(request.op, &operands, &request.dst)
                .map(|pos| vec![pos])
        }
        .expect_err("malformed request");
        assert_eq!(&err, expected);
        assert_eq!(
            session.position_errors().iter().collect::<Vec<_>>(),
            vec![(&1, expected)]
        );
        // A failed session refuses further work with the first error.
        assert_eq!(
            session.submit(BitwiseOp::Or, &[&ok[0], &ok[1]], &ok[2]),
            Err(expected.clone())
        );
        assert_eq!(session.close().expect_err("close reports it"), *expected);
    }

    #[test]
    fn malformed_submissions_fail_at_submit_time() {
        let mismatch = |got_bits| RuntimeError::LengthMismatch {
            expected_bits: 100,
            got_bits,
        };
        for as_batch in [false, true] {
            let empty = RuntimeError::Pim(PimError::EmptyOperands);
            assert_rejected_eagerly(&[], 100, as_batch, &empty);
            assert_rejected_eagerly(&[100, 200], 100, as_batch, &mismatch(200));
            assert_rejected_eagerly(&[100, 100], 50, as_batch, &mismatch(50));
        }
    }

    /// The memory bound itself: after every `sync()` the session retains
    /// no per-request result, while `load` and `store` retain theirs for
    /// the next hand-back.
    #[test]
    fn sync_leaves_no_result_slot_behind() {
        let mut s = sys();
        let groups: Vec<Vec<PimBitVec>> = (0..4)
            .map(|_| s.alloc_group(3, 4096).expect("group"))
            .collect();
        let bits: Vec<bool> = (0..4096).map(|i| i % 3 == 0).collect();
        let mut session = s.open_session_with_workers(2);
        let mut submitted = 0;
        for round in 0..5 {
            for g in &groups {
                session
                    .submit(BitwiseOp::Or, &[&g[0], &g[1]], &g[2])
                    .expect("submit");
                submitted += 1;
            }
            match round {
                1 => drop(session.load(&groups[0][2]).expect("load")),
                2 => session.store(&groups[1][0], &bits).expect("store"),
                _ => {}
            }
            assert_eq!(session.slots.len(), groups.len(), "round {round} retained");
            assert_eq!(session.sync().expect("sync").len(), groups.len());
            assert!(session.slots.is_empty(), "round {round} left slots behind");
            assert_eq!(session.handed_back, submitted);
        }
        assert!(session.close().expect("close").is_empty());
        assert_eq!(s.trace().len(), submitted);
    }

    /// Jobs published for a channel while an executor holds it wait for
    /// its release and then come back in submission order; the other
    /// channel stays claimable meanwhile.
    #[test]
    fn a_running_channel_keeps_its_later_jobs_in_order() {
        let slab = Arc::new(Vec::new());
        let job = |pos, channel| Job {
            pos,
            channel,
            prime: PimConfig::Or,
            slab: Arc::clone(&slab),
            index: 0,
        };
        let mut board = Board {
            queues: vec![vec![job(0, 0)], Vec::new()],
            running: vec![false; 2],
            shutdown: false,
        };
        let positions = |jobs: Vec<Job>| jobs.iter().map(|j| j.pos).collect::<Vec<_>>();
        let (channel, jobs) = board.claim().expect("channel 0 is claimable");
        assert_eq!((channel, positions(jobs)), (0, vec![0]));
        for (pos, channel) in [(1, 0), (2, 1), (3, 0)] {
            board.queues[channel as usize].push(job(pos, channel));
        }
        let (channel, jobs) = board.claim().expect("channel 1 is claimable");
        assert_eq!((channel, positions(jobs)), (1, vec![2]));
        assert!(board.claim().is_none(), "channel 0 is still running");
        board.running[0] = false;
        let (channel, jobs) = board.claim().expect("channel 0 was released");
        assert_eq!((channel, positions(jobs)), (0, vec![1, 3]));
    }

    /// A session starts its worker threads only when it first publishes
    /// jobs ahead of a sync point: jobs that all wait for a sync run on
    /// the caller.
    #[test]
    fn workers_start_at_the_first_publish() {
        let mut s = sys();
        let g = s.alloc_group(3, 64).expect("group");
        let mut session = s.open_session();
        let submit = |session: &mut ExecSession<'_>, n: usize| {
            for _ in 0..n {
                session
                    .submit(BitwiseOp::Or, &[&g[0], &g[1]], &g[2])
                    .expect("submit");
            }
        };
        submit(&mut session, FLUSH_JOBS - 1);
        session.sync().expect("sync");
        assert!(session.threads.is_empty(), "no publish ahead of a sync");
        submit(&mut session, FLUSH_JOBS);
        let expected = if flush_threshold() == usize::MAX {
            0
        } else {
            3
        };
        assert_eq!(session.threads.len(), expected);
        session.close().expect("close");
    }

    #[test]
    fn one_request_submit_matches_a_one_request_batch() {
        // A channel-confined request (queued on its shard) and a
        // channel-straddling one (run on the parent after a full sync).
        let build = |s: &mut PimSystem, straddle: bool| {
            let g = s.alloc_group(3, 4096).expect("group");
            let other = s.alloc_group(1, 4096).expect("next channel");
            assert_ne!(g[0].rows()[0].channel, other[0].rows()[0].channel);
            let bits: Vec<bool> = (0..4096).map(|i| i % 3 == 0).collect();
            s.store(&g[0], &bits).expect("store");
            s.store(&other[0], &bits).expect("store");
            let second = if straddle { &other[0] } else { &g[1] };
            BatchRequest {
                op: BitwiseOp::Xor,
                operands: vec![g[0].clone(), second.clone()],
                dst: g[2].clone(),
            }
        };
        for straddle in [false, true] {
            let mut single = sys();
            let request = build(&mut single, straddle);
            let operands: Vec<&PimBitVec> = request.operands.iter().collect();
            let mut session = single.open_session();
            session
                .submit(request.op, &operands, &request.dst)
                .expect("submit");
            let single_summaries = session.close().expect("close");

            let mut batched = sys();
            let request = build(&mut batched, straddle);
            let mut session = batched.open_session();
            session
                .submit_batch(std::slice::from_ref(&request))
                .expect("submit_batch");
            let batched_summaries = session.close().expect("close");

            assert_eq!(single_summaries, batched_summaries, "straddle={straddle}");
            assert_eq!(single.load(&request.dst), batched.load(&request.dst));
            assert_eq!(single.trace(), batched.trace());
            assert_eq!(single.stats(), batched.stats());
        }
    }
}
