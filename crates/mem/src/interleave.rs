//! Command-granularity channel timelines.
//!
//! A request is not one opaque block on its channel. This module expands
//! a request's charged [`TimeBreakdown`] back into the *timed command
//! stream* the controller actually issued — segment ACTs (including the
//! extra latched activations of a multi-row op), sense passes, SA writes,
//! precharges, GDL hops and DDR-bus bursts — and places those commands on
//! a [`ChannelTimeline`] that models the channel's discrete resources:
//!
//! * one **lane** per (rank, bank) — the bank's SA stripe and write
//!   drivers; a request's commands chain sequentially on their lane;
//! * one **GDL** port per rank — chip-internal global-data-line moves;
//! * one shared **bus** per channel — DDR bursts and mode-register sets;
//! * a per-rank **activation ledger** enforcing tRRD/tFAW at *command*
//!   granularity: an ACT may slot between two other requests' ACTs as
//!   long as every neighbouring gap respects tRRD and every four-ACT
//!   window spans tFAW.
//!
//! Commands from different requests interleave freely subject to those
//! resources plus one global discipline: requests *issue* in schedule
//! order on the channel (a later request's first command never precedes
//! an earlier request's first command), as an in-order command queue
//! issues them.
//!
//! Everything here is *relative time*: a timeline starts at zero and has
//! no notion of the controller's absolute clock. The activation ledger is
//! the simulator's one tRRD/tFAW gate: the serial controller
//! ([`crate::MainMemory`]) charges commands back to back and never waits
//! on an activation window.

use crate::stats::TimeBreakdown;
use pinatubo_nvm::timing::TimingParams;
use std::collections::HashMap;

/// Which resource a command step occupies (besides its request's lane
/// chain, which every step advances).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// A row activation: occupies the lane and must clear the rank's
    /// tRRD/tFAW activation ledger.
    Act,
    /// Bank-local work (sense passes, SA writes, precharge, ECC): occupies
    /// only the lane.
    Lane,
    /// A global-data-line move: occupies the rank's GDL port.
    Gdl,
    /// Shared-bus work (DDR bursts, mode-register sets): occupies the
    /// channel bus.
    Shared,
}

/// One timed command step of a request's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmdStep {
    /// The resource class this step occupies.
    pub kind: CmdKind,
    /// The step's duration, nanoseconds.
    pub ns: f64,
}

/// Cap on the number of activation units a stream is expanded into. A
/// 496-activation fused OR would otherwise produce thousands of steps and
/// make schedule lookahead quadratic in them; beyond the cap, each unit
/// carries several activations' worth of time (and one ledger entry),
/// which only *under*-counts tFAW pressure.
const MAX_ACT_UNITS: u64 = 32;

/// A request's charged cost, expanded back into a timed command stream.
///
/// Built with [`RequestStream::from_breakdown`]; the step durations sum
/// to the breakdown's `total_ns()` exactly (up to float rounding), so a
/// timeline placed from *charged* breakdowns reconciles with the
/// controller's ledger. A stream built from an estimated breakdown is
/// only as close as the estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestStream {
    steps: Vec<CmdStep>,
    total_ns: f64,
    shared_ns: f64,
    acts: u64,
}

impl RequestStream {
    /// Expands a charged (or estimated) [`TimeBreakdown`] into the command
    /// stream that produced it: one leading mode-register step, then
    /// `activations` repeating units of ACT → sense → GDL → bus → write +
    /// precharge, each carrying an equal share of the mechanism totals.
    /// The controller charges per-mechanism sums, not per-command logs, so
    /// the even split is the canonical reconstruction; zero-duration steps
    /// are elided.
    #[must_use]
    pub fn from_breakdown(time: &TimeBreakdown, activations: u64) -> RequestStream {
        let mut stream = RequestStream {
            steps: Vec::new(),
            total_ns: 0.0,
            shared_ns: 0.0,
            acts: 0,
        };
        stream.push(CmdKind::Shared, time.mrs_ns);
        if activations == 0 {
            // No activation to anchor the units on (e.g. a pure bus
            // transfer): one block in command order. Any residual
            // activate time rides the lane — with no ledger entries
            // claimed it cannot be tRRD/tFAW-gated.
            stream.push(
                CmdKind::Lane,
                time.activate_ns + time.sense_ns + time.ecc_ns + time.stall_ns,
            );
            stream.push(CmdKind::Gdl, time.gdl_ns);
            stream.push(CmdKind::Shared, time.bus_ns);
            stream.push(CmdKind::Lane, time.write_ns + time.precharge_ns);
            return stream;
        }
        let units = activations.min(MAX_ACT_UNITS);
        let per = units as f64;
        for _ in 0..units {
            stream.push(CmdKind::Act, time.activate_ns / per);
            stream.push(
                CmdKind::Lane,
                (time.sense_ns + time.ecc_ns + time.stall_ns) / per,
            );
            stream.push(CmdKind::Gdl, time.gdl_ns / per);
            stream.push(CmdKind::Shared, time.bus_ns / per);
            stream.push(CmdKind::Lane, (time.write_ns + time.precharge_ns) / per);
        }
        stream
    }

    fn push(&mut self, kind: CmdKind, ns: f64) {
        if ns <= 0.0 {
            return;
        }
        self.steps.push(CmdStep { kind, ns });
        self.total_ns += ns;
        if kind == CmdKind::Shared {
            self.shared_ns += ns;
        }
        if kind == CmdKind::Act {
            self.acts += 1;
        }
    }

    /// The expanded command steps, in issue order.
    #[must_use]
    pub fn steps(&self) -> &[CmdStep] {
        &self.steps
    }

    /// Sum of all step durations (== the breakdown's `total_ns()`).
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.total_ns
    }

    /// Sum of the shared-bus steps (== the breakdown's `shared_ns()`).
    #[must_use]
    pub fn shared_ns(&self) -> f64 {
        self.shared_ns
    }

    /// Number of activation steps in the stream.
    #[must_use]
    pub fn activation_steps(&self) -> u64 {
        self.acts
    }
}

/// Where a request landed on a [`ChannelTimeline`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Placement {
    /// Issue time of the request's first command.
    pub start_ns: f64,
    /// Completion time of its last command.
    pub end_ns: f64,
    /// Wait inserted by the tRRD/tFAW activation ledger.
    pub act_stall_ns: f64,
    /// Wait spent on busy shared resources (channel bus, rank GDL port)
    /// beyond the request's own chaining.
    pub bus_wait_ns: f64,
}

/// Discrete-resource occupancy of one channel, at command granularity.
#[derive(Debug, Clone)]
pub struct ChannelTimeline {
    timing: TimingParams,
    /// Issue-order cursor: start time of the most recently placed request.
    issue_ns: f64,
    /// When the channel's shared bus frees.
    bus_free_ns: f64,
    /// When each (rank, bank) lane frees.
    lane_free: HashMap<(u32, u32), f64>,
    /// When each rank's GDL port frees.
    gdl_free: HashMap<u32, f64>,
    /// Per-rank activation issue times, ascending: the full ledger new
    /// ACTs slot into.
    rank_acts: HashMap<u32, Vec<f64>>,
}

/// How many occupied slots an activation search walks before giving up
/// and issuing after the rank's last activation. Bounds worst-case
/// placement cost on adversarially dense ledgers.
const MAX_SLOT_WALK: usize = 16;

/// What one placement walk leaves behind: the placement, the channel
/// bus's next free time, and the rank's GDL port free time (`None` if the
/// port was never used).
struct Walk {
    placement: Placement,
    bus_free_ns: f64,
    gdl_free_ns: Option<f64>,
}

impl ChannelTimeline {
    /// An empty timeline (relative time zero) under `timing`.
    #[must_use]
    pub fn new(timing: TimingParams) -> ChannelTimeline {
        ChannelTimeline {
            timing,
            issue_ns: 0.0,
            bus_free_ns: 0.0,
            lane_free: HashMap::new(),
            gdl_free: HashMap::new(),
            rank_acts: HashMap::new(),
        }
    }

    /// Places a request's command stream on lane (`rank`, `bank`),
    /// interleaving its commands with previously placed requests':
    /// each step starts at the later of the request's own chain and its
    /// resource's availability; ACT steps additionally slot into the
    /// rank's tRRD/tFAW ledger (possibly *between* earlier requests'
    /// activations). The request's first command never precedes the
    /// previously placed request's first command (in-order issue).
    pub fn place(&mut self, rank: u32, bank: u32, stream: &RequestStream) -> Placement {
        if stream.steps.is_empty() {
            // Nothing issued, nothing reserved.
            return Placement::default();
        }
        let mut acts = self.rank_acts.remove(&rank).unwrap_or_default();
        let walk = self.walk(rank, bank, stream, &mut acts);
        if !acts.is_empty() {
            self.rank_acts.insert(rank, acts);
        }
        self.bus_free_ns = walk.bus_free_ns;
        if let Some(free) = walk.gdl_free_ns {
            self.gdl_free.insert(rank, free);
        }
        self.lane_free.insert((rank, bank), walk.placement.end_ns);
        self.issue_ns = walk.placement.start_ns;
        walk.placement
    }

    /// The `end_ns` that [`ChannelTimeline::place`] would return for this
    /// stream on lane (`rank`, `bank`), without placing it: the same walk
    /// over the timeline, run against a copy of that rank's activation
    /// ledger only. An empty stream peeks to 0. Planners use this to rank
    /// candidates without cloning a timeline per peek.
    #[must_use]
    pub fn peek_end(&self, rank: u32, bank: u32, stream: &RequestStream) -> f64 {
        if stream.steps.is_empty() {
            return 0.0;
        }
        let mut acts = self.rank_acts.get(&rank).cloned().unwrap_or_default();
        self.walk(rank, bank, stream, &mut acts).placement.end_ns
    }

    /// The one command-interleaving walk behind [`ChannelTimeline::place`]
    /// and [`ChannelTimeline::peek_end`]: reads the timeline, inserts the
    /// stream's ACTs into `acts` (the rank's ledger, or a copy of it) and
    /// returns the placement with the bus and GDL frees it leaves.
    /// `stream` must be non-empty.
    fn walk(&self, rank: u32, bank: u32, stream: &RequestStream, acts: &mut Vec<f64>) -> Walk {
        let lane = self.lane_free.get(&(rank, bank)).copied().unwrap_or(0.0);
        let mut chain = self.issue_ns.max(lane);
        let mut bus_free_ns = self.bus_free_ns;
        let mut gdl_free_ns = self.gdl_free.get(&rank).copied();
        let mut placement = Placement::default();
        for (k, step) in stream.steps.iter().enumerate() {
            let mut at = chain;
            match step.kind {
                CmdKind::Act => {
                    let slot = earliest_act_slot(acts, at, &self.timing);
                    placement.act_stall_ns += slot - at;
                    at = slot;
                    let pos = acts.partition_point(|&t| t <= at);
                    acts.insert(pos, at);
                }
                CmdKind::Shared => {
                    if bus_free_ns > at {
                        placement.bus_wait_ns += bus_free_ns - at;
                        at = bus_free_ns;
                    }
                    bus_free_ns = at + step.ns;
                }
                CmdKind::Gdl => {
                    let free = gdl_free_ns.unwrap_or(0.0);
                    if free > at {
                        placement.bus_wait_ns += free - at;
                        at = free;
                    }
                    gdl_free_ns = Some(at + step.ns);
                }
                CmdKind::Lane => {}
            }
            if k == 0 {
                placement.start_ns = at;
            }
            chain = at + step.ns;
        }
        placement.end_ns = chain;
        Walk {
            placement,
            bus_free_ns,
            gdl_free_ns,
        }
    }

    /// Completion time of the channel: when its last busy resource frees.
    #[must_use]
    pub fn completion_ns(&self) -> f64 {
        self.lane_free
            .values()
            .chain(self.gdl_free.values())
            .copied()
            .fold(self.bus_free_ns, f64::max)
    }

    /// Distinct (rank, bank) lanes placed on so far.
    #[must_use]
    pub fn lanes_used(&self) -> usize {
        self.lane_free.len()
    }
}

/// Earliest time ≥ `ready` at which a new activation fits the rank's
/// ledger: at least tRRD from *every* existing activation (the new ACT
/// may slot between two old ones) and no four-activation window tighter
/// than tFAW. The search walks forward past at most [`MAX_SLOT_WALK`]
/// conflicts, then issues after the ledger's last entry.
fn earliest_act_slot(acts: &[f64], ready: f64, timing: &TimingParams) -> f64 {
    let mut t = ready;
    for _ in 0..MAX_SLOT_WALK {
        match slot_conflict(acts, t, timing) {
            None => return t,
            Some(next) => t = next,
        }
    }
    // Adversarially dense ledger: give up on slotting between entries
    // and issue after the last one (tRRD) and the fourth-most-recent
    // (tFAW) — the same constraints a rolling window would apply.
    let last = acts.last().copied().unwrap_or(f64::NEG_INFINITY);
    let mut t = t.max(last + timing.t_rrd_ns);
    if acts.len() >= 4 {
        t = t.max(acts[acts.len() - 4] + timing.t_faw_ns);
    }
    t
}

/// Whether an activation at `t` violates tRRD against a neighbour or
/// tFAW over any five consecutive activations containing it (tFAW bounds
/// an ACT against its fourth-most-recent predecessor: any five ACTs on
/// the rank must span at least tFAW); returns the earliest later
/// candidate time to retry if so.
fn slot_conflict(acts: &[f64], t: f64, timing: &TimingParams) -> Option<f64> {
    let i = acts.partition_point(|&a| a <= t);
    // tRRD against the nearest neighbours (the ledger is sorted, so only
    // they can be within the exclusion zone).
    if i > 0 && t - acts[i - 1] < timing.t_rrd_ns - 1e-12 {
        return Some(acts[i - 1] + timing.t_rrd_ns);
    }
    if i < acts.len() && acts[i] - t < timing.t_rrd_ns - 1e-12 {
        return Some(acts[i] + timing.t_rrd_ns);
    }
    // Merge `t` with its four predecessors and four successors (at most
    // nine entries, so on the stack), then check every five-entry window
    // containing it.
    let lo = i.saturating_sub(4);
    let hi = (i + 4).min(acts.len());
    let t_pos = i - lo;
    let len = hi - lo + 1;
    let mut merged = [0.0f64; 9];
    merged[..t_pos].copy_from_slice(&acts[lo..i]);
    merged[t_pos] = t;
    merged[t_pos + 1..len].copy_from_slice(&acts[i..hi]);
    let merged = &merged[..len];
    for w in 0..len.saturating_sub(4) {
        if w <= t_pos && t_pos <= w + 4 {
            let span = merged[w + 4] - merged[w];
            if span < timing.t_faw_ns - 1e-12 {
                return Some(merged[w] + timing.t_faw_ns);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::pcm_ddr3_1600()
    }

    fn breakdown() -> TimeBreakdown {
        TimeBreakdown {
            activate_ns: 40.0,
            sense_ns: 20.0,
            write_ns: 300.0,
            gdl_ns: 10.0,
            precharge_ns: 16.0,
            stall_ns: 0.0,
            ecc_ns: 4.0,
            bus_ns: 50.0,
            mrs_ns: 11.25,
        }
    }

    #[test]
    fn stream_totals_reconcile_with_the_breakdown() {
        for acts in [0, 1, 2, 7] {
            let b = breakdown();
            let s = RequestStream::from_breakdown(&b, acts);
            assert!(
                (s.total_ns() - b.total_ns()).abs() < 1e-9,
                "acts={acts}: stream total {} vs breakdown {}",
                s.total_ns(),
                b.total_ns()
            );
            assert!((s.shared_ns() - b.shared_ns()).abs() < 1e-9);
            assert_eq!(s.activation_steps(), acts.min(MAX_ACT_UNITS));
        }
    }

    #[test]
    fn act_units_are_capped() {
        let s = RequestStream::from_breakdown(&breakdown(), 500);
        assert_eq!(s.activation_steps(), MAX_ACT_UNITS);
        assert!((s.total_ns() - breakdown().total_ns()).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_steps_are_elided() {
        let b = TimeBreakdown {
            activate_ns: 18.3,
            sense_ns: 8.9,
            precharge_ns: 7.8,
            ..TimeBreakdown::default()
        };
        let s = RequestStream::from_breakdown(&b, 1);
        assert!(s.steps().iter().all(|c| c.ns > 0.0));
        assert_eq!(s.steps().len(), 3, "act, sense, precharge");
    }

    #[test]
    fn chained_steps_reserve_the_lane() {
        let b = breakdown();
        let s = RequestStream::from_breakdown(&b, 1);
        let mut tl = ChannelTimeline::new(t());
        let p1 = tl.place(0, 0, &s);
        assert!((p1.start_ns - 0.0).abs() < 1e-12);
        assert!((p1.end_ns - s.total_ns()).abs() < 1e-9);
        // Same lane: chains after the first request.
        let p2 = tl.place(0, 0, &s);
        assert!(p2.start_ns >= p1.end_ns - 1e-9);
        // Different bank: issues in order (not before p2's first command)
        // but overlaps p2's lane work instead of waiting for the lane.
        let p3 = tl.place(0, 1, &s);
        assert!(p3.start_ns >= p2.start_ns - 1e-12, "in-order issue");
        assert!(p3.start_ns < p2.end_ns - 1e-9, "banks overlap");
        assert_eq!(tl.lanes_used(), 2);
    }

    #[test]
    fn shared_steps_serialize_on_the_bus() {
        let b = TimeBreakdown {
            bus_ns: 100.0,
            ..TimeBreakdown::default()
        };
        let s = RequestStream::from_breakdown(&b, 0);
        let mut tl = ChannelTimeline::new(t());
        let p1 = tl.place(0, 0, &s);
        let p2 = tl.place(0, 1, &s);
        let p3 = tl.place(1, 0, &s);
        assert!((p1.end_ns - 100.0).abs() < 1e-9);
        assert!(p2.start_ns >= p1.end_ns - 1e-9, "bus is channel-wide");
        assert!(p3.start_ns >= p2.end_ns - 1e-9, "even across ranks");
        assert!(p2.bus_wait_ns > 0.0 && p3.bus_wait_ns > 0.0);
        assert!((tl.completion_ns() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn lane_work_overlaps_a_busy_bus() {
        // A bus hog must not keep a pure-lane request from starting.
        let hog = RequestStream::from_breakdown(
            &TimeBreakdown {
                bus_ns: 1000.0,
                ..TimeBreakdown::default()
            },
            0,
        );
        let lane_only = RequestStream::from_breakdown(
            &TimeBreakdown {
                activate_ns: 18.3,
                sense_ns: 8.9,
                write_ns: 151.1,
                precharge_ns: 7.8,
                ..TimeBreakdown::default()
            },
            1,
        );
        let mut tl = ChannelTimeline::new(t());
        tl.place(0, 0, &hog);
        let p = tl.place(0, 1, &lane_only);
        assert!(p.start_ns < 1.0, "lane work starts under the bus transfer");
        assert!(
            tl.completion_ns() < hog.total_ns() + lane_only.total_ns(),
            "the two requests overlap"
        );
    }

    #[test]
    fn acts_slot_between_earlier_activations() {
        // One request lays down widely spaced ACTs; a second request's
        // ACT fits in the first gap rather than after the whole train.
        let mut timing = t();
        timing.t_rrd_ns = 10.0;
        timing.t_faw_ns = 40.0;
        let long = RequestStream::from_breakdown(
            &TimeBreakdown {
                activate_ns: 20.0,
                write_ns: 980.0,
                ..TimeBreakdown::default()
            },
            2,
        );
        let quick = RequestStream::from_breakdown(
            &TimeBreakdown {
                activate_ns: 10.0,
                write_ns: 30.0,
                ..TimeBreakdown::default()
            },
            1,
        );
        let mut tl = ChannelTimeline::new(timing.clone());
        let pl = tl.place(0, 0, &long);
        // The long request's two ACT units sit ~500 ns apart.
        assert!(pl.end_ns > 900.0);
        let pq = tl.place(0, 1, &quick);
        assert!(
            pq.start_ns >= 10.0 - 1e-9 && pq.start_ns < 100.0,
            "the quick ACT slots after the first ACT (tRRD), not after \
             the long request's last ACT (got {})",
            pq.start_ns
        );
        assert!(pq.act_stall_ns > 0.0);
    }

    #[test]
    fn tfaw_binds_a_window_of_four() {
        let mut timing = t();
        timing.t_rrd_ns = 10.0;
        timing.t_faw_ns = 400.0;
        let one_act = RequestStream::from_breakdown(
            &TimeBreakdown {
                activate_ns: 18.3,
                write_ns: 20.0,
                ..TimeBreakdown::default()
            },
            1,
        );
        let mut tl = ChannelTimeline::new(timing);
        let mut starts = Vec::new();
        for bank in 0..5 {
            starts.push(tl.place(0, bank, &one_act).start_ns);
        }
        // First four spaced by tRRD; the fifth waits out the window.
        assert!((starts[3] - 30.0).abs() < 1e-9);
        assert!(
            (starts[4] - 400.0).abs() < 1e-9,
            "fifth ACT must wait for tFAW (got {})",
            starts[4]
        );
    }

    #[test]
    fn issue_order_is_monotone() {
        let b = breakdown();
        let s = RequestStream::from_breakdown(&b, 1);
        let mut tl = ChannelTimeline::new(t());
        let mut last = 0.0;
        for bank in 0..6 {
            let p = tl.place(bank % 2, bank, &s);
            assert!(p.start_ns >= last - 1e-12, "in-order issue");
            last = p.start_ns;
        }
    }

    /// A random charged breakdown with each mechanism present about
    /// two times in three, so streams mix Act, Lane, Gdl and Shared steps.
    fn random_stream(rng: &mut pinatubo_nvm::SimRng) -> RequestStream {
        let mut ns = |hi: f64| {
            if rng.gen_range_u64(0, 3) == 0 {
                0.0
            } else {
                rng.gen_range_f64(1.0, hi)
            }
        };
        let time = TimeBreakdown {
            activate_ns: ns(400.0),
            sense_ns: ns(200.0),
            write_ns: ns(600.0),
            gdl_ns: ns(100.0),
            precharge_ns: ns(60.0),
            stall_ns: 0.0,
            ecc_ns: ns(20.0),
            bus_ns: ns(300.0),
            mrs_ns: ns(12.0),
        };
        RequestStream::from_breakdown(&time, rng.gen_range_u64(0, 41))
    }

    #[test]
    fn peek_end_is_place_without_side_effects() {
        // tRRD/tFAW tight enough that ACTs gate and slot between earlier
        // requests' activations; up to 40 activations crosses the 32-unit
        // cap.
        let mut timing = t();
        timing.t_rrd_ns = 150.0;
        timing.t_faw_ns = 600.0;
        for seed in 0..300u64 {
            let mut rng = pinatubo_nvm::SimRng::seed_from_u64(seed);
            let mut tl = ChannelTimeline::new(timing.clone());
            for step in 0..16 {
                let stream = random_stream(&mut rng);
                let rank = rng.gen_range_u64(0, 2) as u32;
                let bank = rng.gen_range_u64(0, 4) as u32;
                let mut unpeeked = tl.clone();
                let peeked = tl.peek_end(rank, bank, &stream);
                let placed = tl.place(rank, bank, &stream);
                assert_eq!(
                    peeked.to_bits(),
                    placed.end_ns.to_bits(),
                    "seed {seed} step {step}: peek {peeked} vs place {}",
                    placed.end_ns
                );
                assert_eq!(
                    unpeeked.place(rank, bank, &stream),
                    placed,
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    unpeeked.completion_ns().to_bits(),
                    tl.completion_ns().to_bits(),
                    "seed {seed} step {step}"
                );
                assert_eq!(unpeeked.lanes_used(), tl.lanes_used(), "seed {seed}");
            }
        }
    }

    #[test]
    fn empty_stream_places_nothing() {
        let s = RequestStream::from_breakdown(&TimeBreakdown::default(), 0);
        let mut tl = ChannelTimeline::new(t());
        assert_eq!(tl.peek_end(0, 0, &s), 0.0);
        assert_eq!(tl.place(0, 0, &s), Placement::default());
        assert_eq!(tl.lanes_used(), 0);
        assert!((tl.completion_ns() - 0.0).abs() < 1e-12);
    }
}
