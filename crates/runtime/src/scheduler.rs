//! The driver-library scheduler (§5: the dynamic linked driver "first
//! optimizes and reschedules the operation requests, and then issues
//! extended instruction for PIM").
//!
//! Two optimizations are modelled:
//!
//! * **Mode-register batching** — the SA reference configuration is a
//!   mode-register write; executing all ORs, then all ANDs, … (where data
//!   dependences allow) avoids reconfiguration thrash.
//! * **Channel and bank parallelism** — channels have independent
//!   command/data buses, and banks within a channel have independent
//!   sense-amplifier stripes, so the ACT/sense/write phases of requests on
//!   different banks may overlap. What *cannot* overlap within a channel
//!   is the shared bus (DDR bursts, mode-register sets), and overlapping
//!   activations on one rank must respect the tRRD/tFAW inter-activation
//!   constraints. The engine's accounting is a single serial command
//!   stream; the scheduler expands each request's charged cost back into
//!   a timed command stream ([`pinatubo_mem::RequestStream`]) and places
//!   it on per-channel discrete-resource timelines
//!   ([`pinatubo_mem::ChannelTimeline`]) at *command* granularity:
//!   commands from different requests interleave on one channel subject
//!   to tRRD/tFAW (a new ACT may slot between earlier requests'
//!   activations) and bus/GDL-slot conflicts. That one placement is the
//!   reported makespan, in a [`MakespanReport`] alongside the serial sum.
//!
//! Reordering is dependence-aware: a request never moves ahead of an
//! earlier request it conflicts with on a row (read-after-write,
//! write-after-anything). [`PimSystem::plan_batch`] is the one planner
//! every executor uses: a greedy list schedule dispatches, at every
//! step, the dependence-ready request with the earliest completion
//! under the same command-stream model the report uses (ties go to the
//! current mode, batching mode-register writes), and a
//! bounded-lookahead beam search (see [`PimSystem::plan_batch`]) refines
//! the greedy order where one-step lookahead is provably suboptimal,
//! with the greedy order kept as the fallback incumbent — the planned
//! schedule is never worse than greedy. The planner places the same
//! [`pinatubo_mem::TimeBreakdown`] expansion the report places, but of an
//! *estimated* breakdown per request, not the charged one, so a planned
//! makespan and the charged makespan of the same order can differ.
//!
//! Planning runs on the host for every dispatched batch, so it is kept
//! cheap without changing a single plan: each request's command stream
//! and the dependence lists are built once per plan, candidates are
//! peeked with [`pinatubo_mem::ChannelTimeline::peek_end`] instead of a
//! cloned timeline, and the beam is skipped when greedy already meets a
//! per-lane lower bound that no order can beat — the case for the
//! single-lane slabs the serving layer dispatches.
//!
//! Execution is *actually* parallel, not just modeled:
//! [`PimSystem::execute_batch`] is a one-shot [`crate::ExecSession`],
//! which runs each channel's scheduled queue on that channel's shard,
//! on whichever of its threads claims the channel, and folds the
//! shards' dirty-state deltas and statistics back deterministically. Per-channel fault-injection streams and explicit
//! mode-register priming keep the results bit- and stats-identical to
//! serial execution of the same order (on the shipped presets, whose
//! command streams never stall), independent of the worker count.

use crate::bitvec::PimBitVec;
use crate::system::{OpSummary, PimSystem};
use crate::RuntimeError;
use pinatubo_core::{BitwiseOp, OpClass};
use pinatubo_mem::{ChannelTimeline, ReliabilityStats, RequestStream, RowAddr, TimeBreakdown};
use std::collections::BTreeMap;

/// One queued operation request.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The bulk operation.
    pub op: BitwiseOp,
    /// Operand vectors.
    pub operands: Vec<PimBitVec>,
    /// Destination vector.
    pub dst: PimBitVec,
}

impl BatchRequest {
    /// Rows this request reads.
    fn reads(&self) -> impl Iterator<Item = &RowAddr> {
        self.operands.iter().flat_map(|v| v.rows())
    }

    /// The lane the planner places this request on: its destination's
    /// first row.
    fn home(&self) -> RowAddr {
        self.dst.rows()[0]
    }
}

/// What a scheduled batch cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// Sum of per-op times — the single-command-stream account.
    pub serial_time_ns: f64,
    /// Completion time under the bank-level critical-path model.
    pub makespan_ns: f64,
    /// Per-channel busy times (sum of each channel's request times).
    pub channel_times_ns: Vec<f64>,
    /// Mode-register switches the submitted order would have issued.
    pub mode_switches_naive: u64,
    /// Mode-register switches after reordering.
    pub mode_switches_scheduled: u64,
    /// The critical-path breakdown behind `makespan_ns`.
    pub makespan: MakespanReport,
    /// Per-request summaries, in *scheduled* execution order, paired with
    /// the request's index in the submitted batch.
    pub per_op: Vec<(usize, OpSummary)>,
}

impl ScheduleReport {
    /// Speedup of overlapped completion over the serial stream.
    #[must_use]
    pub fn channel_parallel_speedup(&self) -> f64 {
        if self.makespan_ns == 0.0 {
            1.0
        } else {
            self.serial_time_ns / self.makespan_ns
        }
    }
}

/// The command-granularity critical-path account of one batch: where the
/// time went and how much of it overlapped away.
///
/// Each request's charged [`pinatubo_mem::TimeBreakdown`] is expanded
/// back into its command stream (ACT units, sense/write lane blocks, GDL
/// hops, bus bursts — see [`pinatubo_mem::RequestStream`]) and placed on
/// per-channel discrete-resource timelines. Commands from *different
/// requests* interleave on one channel: lane blocks of different banks
/// run concurrently, bus and GDL slots serialize, and every ACT slots
/// into the rank's tRRD/tFAW ledger (possibly between earlier requests'
/// activations). Every figure here comes from that one placement, so
/// `makespan_ns` is a schedule the channel can issue.
#[derive(Debug, Clone, PartialEq)]
pub struct MakespanReport {
    /// Completion time of the critical path over all bank lanes.
    pub makespan_ns: f64,
    /// Channel-serialized (bus + MRS) time, summed over requests.
    pub bus_serialized_ns: f64,
    /// Bank-local, overlappable time, summed over requests.
    pub lane_ns: f64,
    /// Delay inserted by the tRRD/tFAW activation ledger, summed over
    /// the interleaved placement's ACT commands.
    pub rrd_faw_stall_ns: f64,
    /// Wait for a busy shared bus or GDL slot, summed over the
    /// interleaved placement's bus/GDL commands.
    pub bus_conflict_stall_ns: f64,
    /// Distinct (channel, rank, bank) lanes the batch touched.
    pub lanes_used: usize,
    /// Completion time of each channel: when its last busy resource
    /// frees.
    pub channel_completion_ns: Vec<f64>,
    /// Fault-injection and recovery counters summed over the batch.
    pub reliability: ReliabilityStats,
}

impl MakespanReport {
    /// An empty account over `channels` channels.
    #[must_use]
    pub fn empty(channels: usize) -> Self {
        MakespanReport {
            makespan_ns: 0.0,
            bus_serialized_ns: 0.0,
            lane_ns: 0.0,
            rrd_faw_stall_ns: 0.0,
            bus_conflict_stall_ns: 0.0,
            lanes_used: 0,
            channel_completion_ns: vec![0.0; channels],
            reliability: ReliabilityStats::default(),
        }
    }

    /// Fraction of the total submitted work that overlapped away:
    /// `1 − makespan / (shared + lane)`. Zero for an empty batch.
    #[must_use]
    pub fn overlapped_fraction(&self) -> f64 {
        let total = self.bus_serialized_ns + self.lane_ns;
        if total == 0.0 {
            0.0
        } else {
            1.0 - self.makespan_ns / total
        }
    }
}

/// Counts adjacent operation-kind transitions (≈ mode-register switches).
fn mode_switches(ops: impl Iterator<Item = BitwiseOp>) -> u64 {
    let mut switches = 0;
    let mut last = None;
    for op in ops {
        if last.is_some_and(|l| l != op) {
            switches += 1;
        }
        last = Some(op);
    }
    switches
}

/// Beam width of the bounded-lookahead refinement in
/// [`PimSystem::plan_batch`]: partial schedules kept per step.
const BEAM_WIDTH: usize = 4;
/// Branching factor per kept state: the three earliest-finishing ready
/// candidates plus a longest-remaining (LPT) injection, which covers the
/// classic greedy failure of starting a long critical-path request late.
const BEAM_BRANCH: usize = 4;
/// Batches larger than this skip the beam refinement and ship the greedy
/// order: lookahead is O(width · branch · n²) placements and its wins
/// concentrate in small, adversarially shaped batches.
const BEAM_LIMIT: usize = 64;
/// Half of the beam's 1e-9 acceptance margin: the gap to the lane bound
/// that greedy may leave and still skip the beam, and the float rounding
/// the bound may carry (see [`PimSystem::plan_batch`]).
const LB_SLACK: f64 = 0.5e-9;

/// The largest sum of stream totals over the requests homed on one
/// (channel, rank, bank) lane — a makespan no order can beat — and a
/// bound on the float rounding between that sum and any placement's
/// chain over the same steps: each of the lane's `m` steps rounds once in
/// either sum, so the two differ by at most `m · ε · lb`.
fn lane_bound(requests: &[BatchRequest], streams: &[RequestStream]) -> (f64, f64) {
    let mut lanes: BTreeMap<(u32, u32, u32), (f64, usize)> = BTreeMap::new();
    for (request, stream) in requests.iter().zip(streams) {
        let home = request.home();
        let lane = lanes
            .entry((home.channel, home.rank, home.bank))
            .or_default();
        lane.0 += stream.total_ns();
        lane.1 += stream.steps().len();
    }
    lanes
        .into_values()
        .map(|(total, steps)| (total, steps as f64 * f64::EPSILON * total))
        .fold(
            (0.0, 0.0),
            |best, lane| if lane.0 > best.0 { lane } else { best },
        )
}

/// Whether a greedy order scoring `g` provably leaves the beam nothing to
/// win (the skip rule of [`PimSystem::plan_batch`]).
fn meets_lane_bound(g: f64, requests: &[BatchRequest], streams: &[RequestStream]) -> bool {
    let (lb, rounding) = lane_bound(requests, streams);
    rounding <= LB_SLACK && g <= lb + LB_SLACK
}

impl PimSystem {
    /// Analytic estimate of one request's charged cost, as the same
    /// per-mechanism [`TimeBreakdown`] the controller accounts: chained
    /// two-row primitives, one sense-pass block per segment, GDL hops for
    /// inter-subarray/bank moves, and bus bursts for host fallbacks.
    /// Feeding this through [`RequestStream::from_breakdown`] gives the
    /// planner the *same* command-stream placement
    /// [`PimSystem::execute_batch`]'s report replays with charged
    /// breakdowns. The prices are not the engine's: no mode-register set,
    /// and chained two-row steps where the engine may issue one multi-row
    /// activation or two single-row reads, so planned makespans run
    /// 15–25 % above the charged ones on the uniform `bench_schedule`
    /// shapes.
    fn estimate_request(&self, request: &BatchRequest) -> (TimeBreakdown, u64) {
        let mem = self.engine().memory();
        let g = mem.geometry();
        let t = &mem.config().timing;
        let row_bits = g.logical_row_bits();
        let k = request.operands.len().max(1);
        let mut time = TimeBreakdown::default();
        let mut activations = 0u64;
        for (i, dst_row, seg_bits) in request.dst.segments(row_bits) {
            let mut rows: Vec<RowAddr> = request
                .operands
                .iter()
                .filter_map(|v| v.rows().get(i).copied())
                .collect();
            rows.push(dst_row);
            let class = OpClass::classify(&rows);
            let passes = g.sense_passes(seg_bits) as f64;
            let steps = match request.op {
                BitwiseOp::Not => 1,
                _ => k.saturating_sub(1).max(1),
            };
            let kf = k as f64;
            match class {
                OpClass::IntraSubarray => {
                    let s = steps as f64;
                    time.activate_ns += s * t.multi_activate_ns(2);
                    time.sense_ns += s * passes * t.t_cl_ns;
                    time.write_ns += s * t.t_wr_ns;
                    time.precharge_ns += s * 2.0 * t.t_rp_ns;
                    activations += steps as u64;
                }
                OpClass::InterSubarray | OpClass::InterBank => {
                    time.activate_ns += kf * t.multi_activate_ns(2);
                    time.sense_ns += kf * passes * t.t_cl_ns;
                    time.gdl_ns += (kf + 1.0) * g.gdl_cycles(seg_bits) as f64 * t.t_gdl_cycle_ns;
                    time.write_ns += t.t_wr_ns;
                    time.precharge_ns += (kf + 1.0) * t.t_rp_ns;
                    activations += k as u64;
                }
                OpClass::HostFallback => {
                    time.activate_ns += kf * t.multi_activate_ns(2);
                    time.sense_ns += kf * passes * t.t_cl_ns;
                    time.write_ns += t.t_wr_ns;
                    time.precharge_ns += (kf + 1.0) * t.t_rp_ns;
                    time.bus_ns += (kf + 1.0) * t.bus_transfer_ns(seg_bits);
                    activations += k as u64;
                }
            }
        }
        (time, activations)
    }

    /// Every request's estimated command stream (see
    /// [`PimSystem::estimate_request`]), in request order.
    fn request_streams(&self, requests: &[BatchRequest]) -> Vec<RequestStream> {
        requests
            .iter()
            .map(|r| {
                let (time, activations) = self.estimate_request(r);
                RequestStream::from_breakdown(&time, activations)
            })
            .collect()
    }

    /// RAW/WAW/WAR predecessors of each request (indices `< i`). Each
    /// request's written rows are collected and sorted once, so every
    /// pair is a handful of binary searches.
    fn dependences(requests: &[BatchRequest]) -> Vec<Vec<usize>> {
        let writes: Vec<Vec<RowAddr>> = requests
            .iter()
            .map(|r| {
                let mut rows = r.dst.rows().to_vec();
                rows.sort_unstable();
                rows
            })
            .collect();
        let writes_row = |i: usize, row: &RowAddr| writes[i].binary_search(row).is_ok();
        (0..requests.len())
            .map(|i| {
                (0..i)
                    .filter(|&j| {
                        // RAW: i reads a row j wrote. WAW: i writes a row j
                        // wrote. WAR: i writes a row j read.
                        requests[i].reads().any(|r| writes_row(j, r))
                            || writes[i].iter().any(|w| writes_row(j, w))
                            || requests[j].reads().any(|r| writes_row(i, r))
                    })
                    .collect()
            })
            .collect()
    }

    /// Fresh per-channel command timelines for planning.
    fn fresh_timelines(&self) -> Vec<ChannelTimeline> {
        let timing = self.engine().memory().config().timing.clone();
        let channels = self.engine().memory().geometry().channels as usize;
        (0..channels)
            .map(|_| ChannelTimeline::new(timing.clone()))
            .collect()
    }

    /// Computes the makespan-minimizing execution order. A greedy list
    /// schedule over the dependence-ready set runs first, dispatching at
    /// every step the candidate whose command stream would *finish*
    /// earliest on the per-channel timelines (the same command-granularity
    /// model [`MakespanReport`] accounts). For batches of 3 to
    /// `BEAM_LIMIT` (64) requests, a bounded-lookahead beam search
    /// (`BEAM_WIDTH` = 4 partial schedules, `BEAM_BRANCH` = 4-way branching
    /// over the earliest-finishing ready candidates plus a
    /// longest-remaining injection) then tries to beat the greedy order;
    /// the greedy order is the incumbent and is returned unless the beam's
    /// best order is *strictly* better — by more than 1e-9 ns — under
    /// [`PimSystem::planned_makespan_ns`], so the plan is never worse than
    /// greedy. Batches of one or two requests never run the beam.
    ///
    /// The beam is skipped when it provably cannot win. Let `lb` be the
    /// largest sum of stream `total_ns` over the requests homed on any one
    /// (channel, rank, bank) lane. [`ChannelTimeline::place`] starts a
    /// request no earlier than its lane's previous end and chains its
    /// steps for at least its `total_ns`, so in exact arithmetic every
    /// order scores at least `lb`. In floats, rounding is monotone, so a
    /// lane's end is at least the float sum of its steps in placement
    /// order, while `lb` sums the same steps in request order; two float
    /// sums of the same `m` positive steps differ by at most
    /// `m · ε · lb`. When that rounding bound and greedy's gap
    /// above `lb` are both at most 0.5e-9 ns, every order scores at least
    /// greedy's score minus 1e-9, which the strict compare rejects — so
    /// skipping the beam returns exactly the order running it would. The
    /// serving layer's slabs keep a tenant's requests on one lane, where
    /// greedy meets `lb`; multi-lane batches with a real scheduling choice
    /// still run the beam.
    ///
    /// Each request's command stream and the dependence lists are
    /// computed once per plan and shared by the greedy pass, the beam and
    /// the scoring.
    ///
    /// Tie-breaking is explicit and pinned: equal-cost candidates resolve
    /// first toward the op kind of the previously dispatched request
    /// (mode-register batching), then to the **lowest request index** —
    /// so equal-cost batches keep submission order, and the plan is a
    /// pure function of `(requests, config)`.
    #[must_use]
    pub fn plan_batch(&self, requests: &[BatchRequest]) -> Vec<usize> {
        let streams = self.request_streams(requests);
        let deps = Self::dependences(requests);
        let greedy = self.greedy(requests, &streams, &deps);
        if requests.len() < 3 || requests.len() > BEAM_LIMIT {
            return greedy;
        }
        let g = self.score(requests, &streams, &greedy);
        if meets_lane_bound(g, requests, &streams) {
            return greedy;
        }
        self.refine(requests, &streams, &deps, greedy, g)
    }

    /// Runs the beam and keeps the greedy incumbent (scoring `g`) unless
    /// the beam's order is strictly better by more than 1e-9.
    fn refine(
        &self,
        requests: &[BatchRequest],
        streams: &[RequestStream],
        deps: &[Vec<usize>],
        greedy: Vec<usize>,
        g: f64,
    ) -> Vec<usize> {
        let beam = self.beam(requests, streams, deps);
        if self.score(requests, streams, &beam) + 1e-9 < g {
            beam
        } else {
            greedy
        }
    }

    /// The greedy list schedule alone (no beam refinement): at every
    /// step, the dependence-ready request with the earliest completion
    /// on the command-granularity timelines. Exposed so benchmarks can
    /// compare greedy against the full lookahead plan.
    #[must_use]
    pub fn plan_batch_greedy(&self, requests: &[BatchRequest]) -> Vec<usize> {
        let streams = self.request_streams(requests);
        self.greedy(requests, &streams, &Self::dependences(requests))
    }

    /// [`PimSystem::plan_batch_greedy`] over precomputed streams and
    /// dependences.
    fn greedy(
        &self,
        requests: &[BatchRequest],
        streams: &[RequestStream],
        deps: &[Vec<usize>],
    ) -> Vec<usize> {
        let n = requests.len();
        let mut timelines = self.fresh_timelines();

        let mut done = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut last_op: Option<BitwiseOp> = None;
        // Peek cache: a candidate's completion depends only on its home
        // channel's timeline, so entries survive dispatches on *other*
        // channels — the inner loop re-peeks only same-channel peers.
        let mut peek: Vec<Option<f64>> = vec![None; n];

        for _ in 0..n {
            let mut best: Option<(usize, f64)> = None;
            for i in 0..n {
                if done[i] || deps[i].iter().any(|&j| !done[j]) {
                    continue;
                }
                let end = *peek[i].get_or_insert_with(|| {
                    let home = requests[i].home();
                    timelines[home.channel as usize].peek_end(home.rank, home.bank, &streams[i])
                });
                // Ascending scan + strict improvement = lowest index wins
                // full ties (the pinned rule).
                let better = match best {
                    None => true,
                    Some((bi, bend)) => {
                        end + 1e-9 < bend
                            || ((end - bend).abs() <= 1e-9
                                && last_op == Some(requests[i].op)
                                && last_op != Some(requests[bi].op))
                    }
                };
                if better {
                    best = Some((i, end));
                }
            }
            let (i, _) = best.expect("a dependence-ready request always exists");
            let home = requests[i].home();
            timelines[home.channel as usize].place(home.rank, home.bank, &streams[i]);
            done[i] = true;
            last_op = Some(requests[i].op);
            order.push(i);
            for (j, entry) in peek.iter_mut().enumerate() {
                if requests[j].home().channel == home.channel {
                    *entry = None;
                }
            }
        }
        order
    }

    /// Bounded-lookahead beam search over dispatch orders (see
    /// [`PimSystem::plan_batch`] for the bound and branching rule).
    fn beam(
        &self,
        requests: &[BatchRequest],
        streams: &[RequestStream],
        deps: &[Vec<usize>],
    ) -> Vec<usize> {
        #[derive(Clone)]
        struct State {
            order: Vec<usize>,
            done: Vec<bool>,
            timelines: Vec<ChannelTimeline>,
            /// Latest placed completion so far.
            span: f64,
            /// Admissible lower bound on the state's final makespan:
            /// `span` joined with every still-ready candidate's peeked
            /// completion. Peeks only grow as a timeline fills (resources
            /// free later, the issue cursor moves forward), so a parent's
            /// peek bounds the candidate's end in every descendant —
            /// ranking by this keeps long-first branches alive that a
            /// plain `span` sort would prune as soon as the long request
            /// lands.
            bound: f64,
        }
        let n = requests.len();
        let mut beam = vec![State {
            order: Vec::with_capacity(n),
            done: vec![false; n],
            timelines: self.fresh_timelines(),
            span: 0.0,
            bound: 0.0,
        }];
        for _ in 0..n {
            let mut next: Vec<State> = Vec::new();
            for state in &beam {
                // Ready candidates with peeked completions, ascending
                // index (stable sorts below keep ties deterministic).
                let mut cands: Vec<(usize, f64)> = Vec::new();
                for i in 0..n {
                    if state.done[i] || deps[i].iter().any(|&j| !state.done[j]) {
                        continue;
                    }
                    let home = requests[i].home();
                    let end = state.timelines[home.channel as usize].peek_end(
                        home.rank,
                        home.bank,
                        &streams[i],
                    );
                    cands.push((i, end));
                }
                cands.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                let mut picks: Vec<usize> = cands
                    .iter()
                    .take(BEAM_BRANCH - 1)
                    .map(|&(i, _)| i)
                    .collect();
                // LPT injection: the ready candidate with the most
                // remaining work, in case it anchors the critical path.
                let mut longest: Option<(usize, f64)> = None;
                for &(i, _) in &cands {
                    let total = streams[i].total_ns();
                    if longest.map_or(true, |(_, t)| total > t + 1e-9) {
                        longest = Some((i, total));
                    }
                }
                if let Some((i, _)) = longest {
                    if !picks.contains(&i) {
                        picks.push(i);
                    }
                }
                for &i in &picks {
                    let mut s = state.clone();
                    let home = requests[i].home();
                    let p =
                        s.timelines[home.channel as usize].place(home.rank, home.bank, &streams[i]);
                    s.done[i] = true;
                    s.order.push(i);
                    s.span = s.span.max(p.end_ns);
                    // The other ready candidates' parent-timeline peeks
                    // lower-bound their ends in this child too.
                    s.bound = s.span;
                    for &(j, end) in &cands {
                        if j != i {
                            s.bound = s.bound.max(end);
                        }
                    }
                    next.push(s);
                }
            }
            // Stable sort by the admissible bound: earlier-created
            // (greedier) states win ties, keeping the search
            // deterministic.
            next.sort_by(|a, b| {
                a.bound
                    .partial_cmp(&b.bound)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            next.truncate(BEAM_WIDTH);
            beam = next;
        }
        beam.into_iter().next().map(|s| s.order).unwrap_or_default()
    }

    /// The makespan an execution order would score under the planner's
    /// estimated command streams, placed exactly as [`MakespanReport`]
    /// places charged ones. It is not the charged makespan of the order:
    /// the planner estimates each request's breakdown, and the estimate
    /// prices requests differently from the engine. Benchmarks use this to
    /// compare planned orders without executing them.
    #[must_use]
    pub fn planned_makespan_ns(&self, requests: &[BatchRequest], order: &[usize]) -> f64 {
        self.score(requests, &self.request_streams(requests), order)
    }

    /// [`PimSystem::planned_makespan_ns`] over precomputed streams.
    fn score(&self, requests: &[BatchRequest], streams: &[RequestStream], order: &[usize]) -> f64 {
        let mut timelines = self.fresh_timelines();
        for &i in order {
            let home = requests[i].home();
            timelines[home.channel as usize].place(home.rank, home.bank, &streams[i]);
        }
        timelines
            .iter()
            .map(ChannelTimeline::completion_ns)
            .fold(0.0, f64::max)
    }

    /// Executes a batch of requests through the driver scheduler as a
    /// one-shot execution session ([`PimSystem::open_session`] →
    /// [`crate::ExecSession::submit_batch`] → close): single-channel
    /// requests run on the session's channel shards, claimed by its
    /// worker threads and, at close, by the calling thread;
    /// channel-straddling ones run on the unified memory. The default
    /// worker count is the channel count, which spawns one worker thread
    /// fewer than there are channels (see
    /// [`PimSystem::open_session_with_workers`]).
    ///
    /// Results are identical to executing the batch in submission order
    /// (reordering respects data dependences), and — on the shipped
    /// timing presets, whose serial command streams never stall — the
    /// merged statistics are identical to serial execution of the same
    /// scheduled order. The report additionally accounts the mode-switch
    /// savings and the channel-parallel makespan.
    ///
    /// # Errors
    ///
    /// Returns the earliest-scheduled failing request's error. Each
    /// channel queue stops at its first failure; already-completed work
    /// (including on other channels) stays committed, like the serial
    /// path's partial progress.
    pub fn execute_batch(
        &mut self,
        requests: &[BatchRequest],
    ) -> Result<ScheduleReport, RuntimeError> {
        let workers = self.engine().memory().geometry().channels as usize;
        self.execute_batch_with_workers(requests, workers)
    }

    /// [`PimSystem::execute_batch`] on the unified memory, one request at
    /// a time — the reference the parallel path is tested against.
    ///
    /// # Errors
    ///
    /// Stops at the first failing request and returns its error.
    pub fn execute_batch_serial(
        &mut self,
        requests: &[BatchRequest],
    ) -> Result<ScheduleReport, RuntimeError> {
        let order = self.plan_batch(requests);
        let mut per_op = Vec::with_capacity(order.len());
        for &i in &order {
            let request = &requests[i];
            let operands: Vec<&PimBitVec> = request.operands.iter().collect();
            let summary = self.bitwise(request.op, &operands, &request.dst)?;
            per_op.push((i, summary));
        }
        Ok(self.build_report(requests, per_op))
    }

    /// [`PimSystem::execute_batch`] with an explicit worker count; the
    /// batch executes on up to `workers + 1` threads, the caller
    /// included. Channel queues are fixed by the schedule, so results
    /// and merged statistics do not depend on `workers` — only
    /// wall-clock time does.
    ///
    /// # Errors
    ///
    /// See [`PimSystem::execute_batch`].
    pub fn execute_batch_with_workers(
        &mut self,
        requests: &[BatchRequest],
        workers: usize,
    ) -> Result<ScheduleReport, RuntimeError> {
        let mut session = self.open_session_with_workers(workers);
        let submitted = session.submit_batch(requests);
        // Close even after a failed submit: it commits completed work and
        // reports the earliest failure, which subsumes the submit error.
        let summaries = session.close()?;
        let positions = submitted?;
        // Summaries come back in submission (= planned) order; invert the
        // request → position map to pair each with its request index.
        let mut order = vec![0usize; positions.len()];
        for (i, &pos) in positions.iter().enumerate() {
            order[pos] = i;
        }
        let per_op = order.into_iter().zip(summaries).collect();
        Ok(self.build_report(requests, per_op))
    }

    /// Replays per-request summaries (in scheduled order) through the
    /// command-granularity model and assembles the report. Each summary's
    /// charged [`TimeBreakdown`] is expanded back into its command stream
    /// and placed once, interleaved at command granularity
    /// ([`ChannelTimeline::place`]); the makespan is the latest channel
    /// completion of that placement. Used identically by the serial and
    /// parallel paths, so their reports agree whenever their summaries
    /// do.
    fn build_report(
        &self,
        requests: &[BatchRequest],
        per_op: Vec<(usize, OpSummary)>,
    ) -> ScheduleReport {
        let mode_switches_naive = mode_switches(requests.iter().map(|r| r.op));
        let mode_switches_scheduled = mode_switches(per_op.iter().map(|&(i, _)| requests[i].op));
        let channels = self.engine().memory().geometry().channels as usize;
        let mut channel_times_ns = vec![0.0f64; channels];
        let mut serial_time_ns = 0.0;

        let mut makespan = MakespanReport::empty(channels);
        let mut timelines = self.fresh_timelines();

        for &(i, summary) in &per_op {
            let request = &requests[i];
            serial_time_ns += summary.time_ns;
            let home = request.home();
            let channel = home.channel as usize;
            channel_times_ns[channel] += summary.time_ns;

            let stream = RequestStream::from_breakdown(&summary.time, summary.activations);
            let placed = timelines[channel].place(home.rank, home.bank, &stream);

            makespan.bus_serialized_ns += summary.shared_ns;
            makespan.lane_ns += summary.lane_ns();
            makespan.rrd_faw_stall_ns += placed.act_stall_ns;
            makespan.bus_conflict_stall_ns += placed.bus_wait_ns;
            makespan.reliability += summary.reliability;
        }

        makespan.lanes_used = timelines.iter().map(ChannelTimeline::lanes_used).sum();
        makespan.channel_completion_ns = timelines
            .iter()
            .map(ChannelTimeline::completion_ns)
            .collect();
        makespan.makespan_ns = makespan
            .channel_completion_ns
            .iter()
            .copied()
            .fold(0.0, f64::max);
        ScheduleReport {
            serial_time_ns,
            makespan_ns: makespan.makespan_ns,
            channel_times_ns,
            mode_switches_naive,
            mode_switches_scheduled,
            makespan,
            per_op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingPolicy;
    use crate::microcode::{self, CompileOptions, MicroProgram};
    use pinatubo_core::rng::SimRng;

    fn sys() -> PimSystem {
        PimSystem::pcm_default(MappingPolicy::SubarrayFirst)
    }

    /// The planning rule without the lane-bound skip: greedy, then — for
    /// 3 to `BEAM_LIMIT` requests — the beam and the strict 1e-9 compare.
    fn plan_batch_reference(s: &PimSystem, requests: &[BatchRequest]) -> Vec<usize> {
        let streams = s.request_streams(requests);
        let deps = PimSystem::dependences(requests);
        let greedy = s.greedy(requests, &streams, &deps);
        if requests.len() < 3 || requests.len() > BEAM_LIMIT {
            return greedy;
        }
        let g = s.score(requests, &streams, &greedy);
        s.refine(requests, &streams, &deps, greedy, g)
    }

    /// A seeded random batch: 1–12 requests over a pool of vectors on
    /// 1–4 channels, 1–2 ranks, up to 4 banks and 3 subarrays, some two
    /// rows long. Requests draw operands and destinations from the shared
    /// pool, so RAW, WAW and WAR chains form and some operands sit on
    /// another channel than their destination (host fallback). Fan-in is
    /// 1 for NOT and 2–5 otherwise.
    fn random_batch(rng: &mut SimRng, row_bits: u64) -> Vec<BatchRequest> {
        let channels = 1 + rng.gen_index(4);
        let ranks = 1 + rng.gen_index(2);
        let banks = 1 + rng.gen_index(4);
        let subarrays = 1 + rng.gen_index(3);
        let n = 1 + rng.gen_index(12);
        let mut pool = Vec::new();
        for id in 0..n as u64 + 4 {
            let rows: Vec<RowAddr> = (0..1 + u32::from(rng.gen_index(4) == 0))
                .map(|r| {
                    RowAddr::new(
                        rng.gen_index(channels) as u32,
                        rng.gen_index(ranks) as u32,
                        rng.gen_index(banks) as u32,
                        rng.gen_index(subarrays) as u32,
                        2 * r + rng.gen_index(2) as u32,
                    )
                })
                .collect();
            let len = (rows.len() as u64 - 1) * row_bits + 4096 * (1 + rng.gen_index(16) as u64);
            pool.push(PimBitVec::new(9000 + id, len, rows));
        }
        let ops = [
            BitwiseOp::Or,
            BitwiseOp::And,
            BitwiseOp::Xor,
            BitwiseOp::Not,
        ];
        (0..n)
            .map(|_| {
                let op = ops[rng.gen_index(4)];
                let fan_in = if op == BitwiseOp::Not {
                    1
                } else {
                    2 + rng.gen_index(4)
                };
                BatchRequest {
                    op,
                    operands: (0..fan_in)
                        .map(|_| pool[rng.gen_index(pool.len())].clone())
                        .collect(),
                    dst: pool[rng.gen_index(pool.len())].clone(),
                }
            })
            .collect()
    }

    #[test]
    fn pruned_plan_equals_the_unpruned_reference() {
        let mut tight = pinatubo_mem::MemConfig::pcm_default();
        tight.timing.t_rrd_ns = 150.0;
        tight.timing.t_faw_ns = 600.0;
        let systems = [
            sys(),
            PimSystem::new(
                tight,
                pinatubo_core::PinatuboConfig::default(),
                MappingPolicy::SubarrayFirst,
            ),
        ];
        let row_bits = systems[0].engine().memory().geometry().logical_row_bits();
        let (mut skipped, mut searched) = (0, 0);
        for seed in 0..2400u64 {
            let s = &systems[(seed % 2) as usize];
            let mut rng = SimRng::seed_from_u64(seed);
            let batch = random_batch(&mut rng, row_bits);
            assert_eq!(
                s.plan_batch(&batch),
                plan_batch_reference(s, &batch),
                "seed {seed}: the pruned plan differs from the reference"
            );

            // The lane bound holds for any order, dependence-legal or not.
            let streams = s.request_streams(&batch);
            let (lb, rounding) = lane_bound(&batch, &streams);
            let mut perm: Vec<usize> = (0..batch.len()).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.gen_index(i + 1));
            }
            let scored = s.planned_makespan_ns(&batch, &perm);
            assert!(
                lb - rounding <= scored,
                "seed {seed}: lane bound {lb} (rounding {rounding}) above the score {scored} of {perm:?}"
            );

            if (3..=BEAM_LIMIT).contains(&batch.len()) {
                let g = s.planned_makespan_ns(&batch, &s.plan_batch_greedy(&batch));
                if meets_lane_bound(g, &batch, &streams) {
                    skipped += 1;
                } else {
                    searched += 1;
                }
            }
        }
        assert!(
            skipped > 100 && searched > 100,
            "both paths must be exercised ({skipped} skipped, {searched} searched)"
        );
    }

    #[test]
    fn serve_slab_shapes_meet_the_lane_bound() {
        // The three slab shapes the serving layer dispatches, built the
        // way its workload builders build them: every tenant's group on
        // one home channel. Greedy must meet the lane bound on each, so
        // served traffic never pays for the beam.
        let mut s = PimSystem::pcm_default(MappingPolicy::ChannelRotate);
        let meets = |s: &PimSystem, batch: &[BatchRequest]| {
            let streams = s.request_streams(batch);
            meets_lane_bound(
                s.score(batch, &streams, &s.plan_batch_greedy(batch)),
                batch,
                &streams,
            )
        };
        for (channel, bits) in [(0u32, 1u64 << 12), (1, 1 << 15), (3, 1 << 16)] {
            let g = s
                .alloc_group_on_channel(channel, 5, bits)
                .expect("filter group");
            let filter = [
                BatchRequest {
                    op: BitwiseOp::And,
                    operands: vec![g[0].clone(), g[1].clone()],
                    dst: g[3].clone(),
                },
                BatchRequest {
                    op: BitwiseOp::Or,
                    operands: vec![g[3].clone(), g[2].clone()],
                    dst: g[4].clone(),
                },
            ];
            assert!(meets(&s, &filter), "filter, {bits} bits");

            let g = s
                .alloc_group_on_channel(channel, 8, bits)
                .expect("bfs group");
            let (n, t, f) = (&g[5], &g[6], &g[7]);
            let bfs = [
                BatchRequest {
                    op: BitwiseOp::Not,
                    operands: vec![g[3].clone()],
                    dst: n.clone(),
                },
                BatchRequest {
                    op: BitwiseOp::Or,
                    operands: vec![g[0].clone(), g[1].clone()],
                    dst: t.clone(),
                },
                BatchRequest {
                    op: BitwiseOp::And,
                    operands: vec![t.clone(), n.clone()],
                    dst: f.clone(),
                },
                BatchRequest {
                    op: BitwiseOp::Or,
                    operands: vec![g[3].clone(), f.clone()],
                    dst: g[4].clone(),
                },
            ];
            assert!(meets(&s, &bfs), "bfs, {bits} bits");

            let a = s.alloc_transposed_on_channel(channel, bits, 8).expect("a");
            let b = s.alloc_transposed_on_channel(channel, bits, 8).expect("b");
            let sum = s
                .alloc_transposed_on_channel(channel, bits, 8)
                .expect("sum");
            let mask = s.alloc_group_on_channel(channel, 1, bits).expect("mask");
            let programs = [
                MicroProgram::add(&a, &b, &sum),
                MicroProgram::cmp_ge(&a, &b, &mask[0]),
            ];
            let compiled = microcode::compile(&programs, CompileOptions::optimized(), &mut s)
                .expect("compile");
            for (k, chunk) in compiled.requests().chunks(8).enumerate() {
                assert!(meets(&s, chunk), "intvec chunk {k}, {bits} bits");
            }
        }
    }

    /// Builds `n` independent 2-operand requests of alternating op kinds.
    fn alternating_batch(sys: &mut PimSystem, n: usize) -> Vec<BatchRequest> {
        (0..n)
            .map(|i| {
                let group = sys.alloc_group(3, 256).expect("alloc");
                BatchRequest {
                    op: if i % 2 == 0 {
                        BitwiseOp::Or
                    } else {
                        BitwiseOp::And
                    },
                    operands: group[..2].to_vec(),
                    dst: group[2].clone(),
                }
            })
            .collect()
    }

    #[test]
    fn scheduling_batches_mode_switches() {
        let mut s = sys();
        let batch = alternating_batch(&mut s, 8);
        let report = s.execute_batch(&batch).expect("batch runs");
        assert_eq!(report.mode_switches_naive, 7);
        assert_eq!(
            report.mode_switches_scheduled, 1,
            "independent ops should group into one OR run and one AND run"
        );
        assert_eq!(report.per_op.len(), 8);
    }

    #[test]
    fn dependences_are_never_reordered() {
        let mut s = sys();
        let a = s.alloc(128).expect("a");
        let b = s.alloc(128).expect("b");
        let mid = s.alloc(128).expect("mid");
        let out = s.alloc(128).expect("out");
        s.store(&a, &[true; 128]).expect("store");

        // AND first, then an OR that reads the AND's result: grouping by
        // mode would want OR first, but the dependence forbids it.
        let batch = vec![
            BatchRequest {
                op: BitwiseOp::And,
                operands: vec![a.clone(), a.clone()],
                dst: mid.clone(),
            },
            BatchRequest {
                op: BitwiseOp::Or,
                operands: vec![mid.clone(), b.clone()],
                dst: out.clone(),
            },
        ];
        let order = s.plan_batch(&batch);
        assert_eq!(order, vec![0, 1], "RAW dependence must hold the order");
        s.execute_batch(&batch).expect("batch runs");
        assert_eq!(s.count_ones(&out), 128, "mid's value flowed into out");
    }

    #[test]
    fn war_and_waw_conflicts_are_respected() {
        let mut s = sys();
        let a = s.alloc(64).expect("a");
        let b = s.alloc(64).expect("b");
        let dst = s.alloc(64).expect("dst");
        let batch = vec![
            // Reads a, writes dst.
            BatchRequest {
                op: BitwiseOp::Or,
                operands: vec![a.clone(), b.clone()],
                dst: dst.clone(),
            },
            // WAR: writes a (which the first reads).
            BatchRequest {
                op: BitwiseOp::Not,
                operands: vec![b.clone()],
                dst: a.clone(),
            },
            // WAW: writes dst again.
            BatchRequest {
                op: BitwiseOp::And,
                operands: vec![a.clone(), b.clone()],
                dst: dst.clone(),
            },
        ];
        let order = s.plan_batch(&batch);
        let pos = |i: usize| order.iter().position(|&x| x == i).expect("present");
        assert!(pos(0) < pos(1), "WAR order");
        assert!(pos(1) < pos(2), "the AND reads the NOT's output");
    }

    #[test]
    fn batch_results_match_sequential_execution() {
        let build = |s: &mut PimSystem| -> (Vec<BatchRequest>, PimBitVec) {
            let group = s.alloc_group(4, 512).expect("alloc");
            let mut bits = vec![false; 512];
            bits[7] = true;
            s.store(&group[0], &bits).expect("store");
            let batch = vec![
                BatchRequest {
                    op: BitwiseOp::Or,
                    operands: vec![group[0].clone(), group[1].clone()],
                    dst: group[2].clone(),
                },
                BatchRequest {
                    op: BitwiseOp::Not,
                    operands: vec![group[2].clone()],
                    dst: group[3].clone(),
                },
            ];
            (batch, group[3].clone())
        };

        let mut scheduled = sys();
        let (batch, out) = build(&mut scheduled);
        scheduled.execute_batch(&batch).expect("scheduled");
        let scheduled_bits = scheduled.load(&out);

        let mut sequential = sys();
        let (batch, out) = build(&mut sequential);
        for r in &batch {
            let operands: Vec<&PimBitVec> = r.operands.iter().collect();
            sequential
                .bitwise(r.op, &operands, &r.dst)
                .expect("sequential");
        }
        assert_eq!(scheduled_bits, sequential.load(&out));
    }

    #[test]
    fn channel_parallelism_reduces_makespan() {
        // Random placement spreads destinations across channels.
        let mut s = PimSystem::pcm_default(MappingPolicy::random());
        let batch: Vec<BatchRequest> = (0..16)
            .map(|_| {
                let a = s.alloc(4096).expect("a");
                let b = s.alloc(4096).expect("b");
                let dst = s.alloc(4096).expect("dst");
                BatchRequest {
                    op: BitwiseOp::Or,
                    operands: vec![a, b],
                    dst,
                }
            })
            .collect();
        let report = s.execute_batch(&batch).expect("batch runs");
        assert!(
            report.channel_parallel_speedup() > 1.5,
            "16 ops over 4 channels should overlap (got {:.2}x)",
            report.channel_parallel_speedup()
        );
        assert!(report.makespan_ns <= report.serial_time_ns);
        assert_eq!(report.channel_times_ns.len(), 4);
    }

    #[test]
    fn empty_batch_is_trivial() {
        let mut s = sys();
        let report = s.execute_batch(&[]).expect("empty batch");
        assert_eq!(report.serial_time_ns, 0.0);
        assert_eq!(report.channel_parallel_speedup(), 1.0);
        assert_eq!(report.makespan.lanes_used, 0);
        assert_eq!(report.makespan.overlapped_fraction(), 0.0);
        assert_eq!(report.makespan.channel_completion_ns, vec![0.0; 4]);
    }

    /// One two-operand request per bank of channel 0 / rank 0, placed by
    /// hand so the lane assignment is fully controlled.
    fn one_request_per_bank(banks: u32, len: u64) -> Vec<BatchRequest> {
        (0..banks)
            .map(|b| {
                let row = |r: u32| vec![RowAddr::new(0, 0, b, 0, r)];
                BatchRequest {
                    op: BitwiseOp::Or,
                    operands: vec![
                        PimBitVec::new(1000 + u64::from(b) * 3, len, row(0)),
                        PimBitVec::new(1001 + u64::from(b) * 3, len, row(1)),
                    ],
                    dst: PimBitVec::new(1002 + u64::from(b) * 3, len, row(2)),
                }
            })
            .collect()
    }

    #[test]
    fn bank_lanes_overlap_within_a_channel() {
        let mut s = sys();
        let batch = one_request_per_bank(8, 4096);
        let report = s.execute_batch(&batch).expect("batch runs");

        // Everything sits on channel 0: the old channel-level model would
        // have reported makespan == serial sum. Bank lanes must beat it.
        assert!((report.channel_times_ns[0] - report.serial_time_ns).abs() < 1e-9);
        assert!(
            report.channel_parallel_speedup() > 2.0,
            "8 bank lanes should overlap substantially (got {:.2}x)",
            report.channel_parallel_speedup()
        );
        assert!(report.makespan_ns <= report.serial_time_ns);
        assert_eq!(report.makespan.lanes_used, 8);
        assert!(report.makespan.overlapped_fraction() > 0.5);

        // The makespan respects every lower bound: the longest single
        // request, the tRRD spacing of the eight launches, and one full
        // tFAW window (more than four activations on the rank).
        let t = s.engine().memory().config().timing.clone();
        let longest = report
            .per_op
            .iter()
            .map(|(_, op)| op.time_ns)
            .fold(0.0, f64::max);
        assert!(report.makespan_ns >= longest - 1e-9);
        assert!(report.makespan_ns >= 7.0 * t.t_rrd_ns);
        assert!(report.makespan_ns >= t.t_faw_ns);

        // The breakdown is consistent: shared + lane covers the serial
        // account exactly.
        let total = report.makespan.bus_serialized_ns + report.makespan.lane_ns;
        assert!((total - report.serial_time_ns).abs() < 1e-9);
    }

    #[test]
    fn trrd_and_tfaw_gate_overlapped_launches() {
        // tRRD/tFAW large enough to bind overlapped launches, but smaller
        // than a full serial command so the *controller's* serial stream
        // still never stalls — the gate must live in the scheduler model.
        let mut mem = pinatubo_mem::MemConfig::pcm_default();
        mem.timing.t_rrd_ns = 150.0;
        mem.timing.t_faw_ns = 600.0;
        let mut s = PimSystem::new(
            mem,
            pinatubo_core::PinatuboConfig::default(),
            MappingPolicy::SubarrayFirst,
        );
        let batch = one_request_per_bank(8, 4096);
        let report = s.execute_batch(&batch).expect("batch runs");

        assert_eq!(
            s.stats().time.stall_ns,
            0.0,
            "the serial command stream must not stall at these parameters"
        );
        assert!(
            report.makespan.rrd_faw_stall_ns > 0.0,
            "overlapped launches on one rank must wait out tRRD"
        );
        // Eight gated launches: at least 7·tRRD of spacing on the rank.
        assert!(report.makespan_ns >= 7.0 * 150.0);
        assert!(report.makespan_ns <= report.serial_time_ns + 1e-9);
    }

    #[test]
    fn activation_window_survives_the_batch_sync() {
        // A follow-up activation on the batch's rank must wait out the
        // batch's last ACT exactly as it would after serial execution:
        // the shard's relative tRRD history has to land on the parent
        // clock *after* the shard's elapsed time is merged in.
        let mut mem = pinatubo_mem::MemConfig::pcm_default();
        mem.timing.t_rrd_ns = 1000.0;
        let stall_after = |sharded: bool| -> f64 {
            let mut s = PimSystem::new(
                mem.clone(),
                pinatubo_core::PinatuboConfig::default(),
                MappingPolicy::SubarrayFirst,
            );
            let mut requests = one_request_per_bank(2, 4096);
            let follow = requests.pop().expect("bank 1 request");
            if sharded {
                s.execute_batch(&requests).expect("sharded batch");
            } else {
                s.execute_batch_serial(&requests).expect("serial batch");
            }
            let operands: Vec<&PimBitVec> = follow.operands.iter().collect();
            s.bitwise(follow.op, &operands, &follow.dst)
                .expect("follow-up op");
            s.stats().time.stall_ns
        };
        let serial = stall_after(false);
        assert!(serial > 0.0, "the follow-up must be tRRD-gated");
        assert!(
            (stall_after(true) - serial).abs() < 1e-9,
            "sharded {} vs serial {serial}",
            stall_after(true)
        );
    }

    #[test]
    fn list_scheduling_beats_static_order_on_rank_conflicts() {
        // Two ranks × eight banks on channel 0, submitted rank-clumped,
        // with tRRD/tFAW tight enough that back-to-back same-rank
        // launches gate each other. Submission order keeps the clumps,
        // so rank 1's launches trail rank 0's entire gated train; the
        // list scheduler alternates ranks and halves the launch tail.
        let mut mem = pinatubo_mem::MemConfig::pcm_default();
        mem.timing.t_rrd_ns = 150.0;
        mem.timing.t_faw_ns = 600.0;
        let make_sys = || {
            PimSystem::new(
                mem.clone(),
                pinatubo_core::PinatuboConfig::default(),
                MappingPolicy::SubarrayFirst,
            )
        };
        let batch: Vec<BatchRequest> = (0..2u32)
            .flat_map(|rank| {
                (0..8u32).map(move |b| {
                    let id = u64::from(rank * 8 + b) * 3;
                    let row = |r: u32| vec![RowAddr::new(0, rank, b, 0, r)];
                    BatchRequest {
                        op: BitwiseOp::Or,
                        operands: vec![
                            PimBitVec::new(2000 + id, 4096, row(0)),
                            PimBitVec::new(2001 + id, 4096, row(1)),
                        ],
                        dst: PimBitVec::new(2002 + id, 4096, row(2)),
                    }
                })
            })
            .collect();

        let static_order: Vec<usize> = (0..16).collect();
        let mut static_sys = make_sys();
        let mut per_op = Vec::new();
        for &i in &static_order {
            let operands: Vec<&PimBitVec> = batch[i].operands.iter().collect();
            let summary = static_sys
                .bitwise(batch[i].op, &operands, &batch[i].dst)
                .expect("static op");
            per_op.push((i, summary));
        }
        let static_report = static_sys.build_report(&batch, per_op);

        let mut planned_sys = make_sys();
        let planned_report = planned_sys.execute_batch(&batch).expect("planned batch");

        assert!(
            planned_report.makespan_ns < 0.8 * static_report.makespan_ns,
            "list scheduling must cut the gated launch tail \
             (planned {:.0}ns vs static {:.0}ns)",
            planned_report.makespan_ns,
            static_report.makespan_ns
        );
        assert!(
            planned_report.serial_time_ns <= static_report.serial_time_ns + 1e-9,
            "reordering must not make the serial account worse"
        );
    }

    #[test]
    fn plan_ties_break_to_the_lowest_request_index() {
        // Four identical requests on four different channels: every
        // candidate completion is equal at every step, so the pinned
        // tie-break (same op kind, then lowest index) must keep the
        // submission order exactly — and the plan must be reproducible.
        let s = sys();
        let batch: Vec<BatchRequest> = (0..4u32)
            .map(|ch| {
                let row = |r: u32| vec![RowAddr::new(ch, 0, 0, 0, r)];
                let id = u64::from(ch) * 3;
                BatchRequest {
                    op: BitwiseOp::Or,
                    operands: vec![
                        PimBitVec::new(3000 + id, 4096, row(0)),
                        PimBitVec::new(3001 + id, 4096, row(1)),
                    ],
                    dst: PimBitVec::new(3002 + id, 4096, row(2)),
                }
            })
            .collect();
        let order = s.plan_batch(&batch);
        assert_eq!(order, vec![0, 1, 2, 3], "full ties keep submission order");
        assert_eq!(order, s.plan_batch(&batch), "planning is deterministic");
        assert_eq!(order, s.plan_batch_greedy(&batch));
    }

    #[test]
    fn lookahead_plan_is_never_worse_than_greedy() {
        let mut mem = pinatubo_mem::MemConfig::pcm_default();
        mem.timing.t_rrd_ns = 150.0;
        mem.timing.t_faw_ns = 600.0;
        let s = PimSystem::new(
            mem,
            pinatubo_core::PinatuboConfig::default(),
            MappingPolicy::SubarrayFirst,
        );
        // A rank-clumped batch (where greedy already wins big) and a
        // trivial one: in both, the full plan must score at most greedy.
        for banks in [3u32, 8] {
            let batch: Vec<BatchRequest> = (0..2u32)
                .flat_map(|rank| {
                    (0..banks).map(move |b| {
                        let id = u64::from(rank * banks + b) * 3;
                        let row = |r: u32| vec![RowAddr::new(0, rank, b, 0, r)];
                        BatchRequest {
                            op: BitwiseOp::Or,
                            operands: vec![
                                PimBitVec::new(4000 + id, 4096, row(0)),
                                PimBitVec::new(4001 + id, 4096, row(1)),
                            ],
                            dst: PimBitVec::new(4002 + id, 4096, row(2)),
                        }
                    })
                })
                .collect();
            let greedy = s.plan_batch_greedy(&batch);
            let planned = s.plan_batch(&batch);
            let g = s.planned_makespan_ns(&batch, &greedy);
            let p = s.planned_makespan_ns(&batch, &planned);
            assert!(
                p <= g + 1e-9,
                "lookahead must never lose to its own incumbent (planned \
                 {p:.1}ns vs greedy {g:.1}ns, {banks} banks)"
            );
        }
    }

    /// A seeded batch that executes: 1–12 requests over same-length
    /// single-row vectors, each on a row of its own, spread over 1–2
    /// channels, 1–2 ranks, 1–4 banks and 1–3 subarrays. All four ops,
    /// fan-in 1 for NOT and 2–5 otherwise; the destination is never among
    /// the operands.
    fn executable_batch(rng: &mut SimRng) -> Vec<BatchRequest> {
        let channels = 1 + rng.gen_index(2);
        let ranks = 1 + rng.gen_index(2);
        let banks = 1 + rng.gen_index(4);
        let subarrays = 1 + rng.gen_index(3);
        let n = 1 + rng.gen_index(12);
        let len = 4096 * (1 + rng.gen_index(16) as u64);
        let pool: Vec<PimBitVec> = (0..n as u32 + 6)
            .map(|row| {
                let at = RowAddr::new(
                    rng.gen_index(channels) as u32,
                    rng.gen_index(ranks) as u32,
                    rng.gen_index(banks) as u32,
                    rng.gen_index(subarrays) as u32,
                    row,
                );
                PimBitVec::new(9000 + u64::from(row), len, vec![at])
            })
            .collect();
        let ops = [
            BitwiseOp::Or,
            BitwiseOp::And,
            BitwiseOp::Xor,
            BitwiseOp::Not,
        ];
        (0..n)
            .map(|_| {
                let op = ops[rng.gen_index(4)];
                let fan_in = if op == BitwiseOp::Not {
                    1
                } else {
                    2 + rng.gen_index(4)
                };
                let dst = rng.gen_index(pool.len());
                let operands = (0..fan_in)
                    .map(|_| {
                        let j = rng.gen_index(pool.len() - 1);
                        pool[if j < dst { j } else { j + 1 }].clone()
                    })
                    .collect();
                BatchRequest {
                    op,
                    operands,
                    dst: pool[dst].clone(),
                }
            })
            .collect()
    }

    #[test]
    fn makespan_respects_every_rank_resource() {
        // A rank has one GDL port, and its activations sit at least tRRD
        // apart, so no schedule finishes before either is done with the
        // charged work homed on that rank.
        let mut tight = pinatubo_mem::MemConfig::pcm_default();
        tight.timing.t_rrd_ns = 150.0;
        tight.timing.t_faw_ns = 600.0;
        let configs = [pinatubo_mem::MemConfig::pcm_default(), tight];
        for seed in 0..2000u64 {
            let mem = &configs[(seed % 2) as usize];
            let mut s = PimSystem::new(
                mem.clone(),
                pinatubo_core::PinatuboConfig::default(),
                MappingPolicy::SubarrayFirst,
            );
            let mut rng = SimRng::seed_from_u64(seed);
            let batch = executable_batch(&mut rng);
            let report = s
                .execute_batch_serial(&batch)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let mut ranks: BTreeMap<(u32, u32), (f64, u64)> = BTreeMap::new();
            for (i, op) in &report.per_op {
                let home = batch[*i].home();
                let rank = ranks.entry((home.channel, home.rank)).or_default();
                rank.0 += op.time.gdl_ns;
                rank.1 +=
                    RequestStream::from_breakdown(&op.time, op.activations).activation_steps();
            }
            for ((channel, rank), (gdl_ns, acts)) in ranks {
                assert!(
                    report.makespan_ns >= gdl_ns - 1e-6,
                    "seed {seed}: makespan {} below the GDL port time {gdl_ns} \
                     of channel {channel} rank {rank}",
                    report.makespan_ns
                );
                let spacing = acts.saturating_sub(1) as f64 * mem.timing.t_rrd_ns;
                assert!(
                    report.makespan_ns >= spacing - 1e-6,
                    "seed {seed}: makespan {} below the tRRD spacing {spacing} \
                     of {acts} activations on channel {channel} rank {rank}",
                    report.makespan_ns
                );
            }
        }
    }

    #[test]
    fn bank_parallel_execution_matches_serial_contents() {
        // The overlap account must never change semantics: row contents
        // after a scheduled (bank-parallel) batch are bit-identical to
        // submission-order serial execution.
        let build = |s: &mut PimSystem| -> (Vec<BatchRequest>, Vec<PimBitVec>) {
            let batch = one_request_per_bank(8, 512);
            for (b, request) in batch.iter().enumerate() {
                let bits: Vec<bool> = (0..512).map(|i| (i + b) % 3 == 0).collect();
                s.store(&request.operands[0], &bits).expect("store a");
                let bits: Vec<bool> = (0..512).map(|i| (i * 7 + b) % 5 == 0).collect();
                s.store(&request.operands[1], &bits).expect("store b");
            }
            let outs = batch.iter().map(|r| r.dst.clone()).collect();
            (batch, outs)
        };

        let mut parallel = sys();
        let (batch, outs) = build(&mut parallel);
        parallel.execute_batch(&batch).expect("scheduled batch");
        let parallel_bits: Vec<Vec<bool>> = outs.iter().map(|v| parallel.load(v)).collect();

        let mut serial = sys();
        let (batch, outs) = build(&mut serial);
        for r in &batch {
            let operands: Vec<&PimBitVec> = r.operands.iter().collect();
            serial.bitwise(r.op, &operands, &r.dst).expect("serial op");
        }
        let serial_bits: Vec<Vec<bool>> = outs.iter().map(|v| serial.load(v)).collect();

        assert_eq!(parallel_bits, serial_bits);
    }
}
