//! Deterministic fault injection for the NVM array and its sense path.
//!
//! The margin analysis in [`crate::sense_amp`] and the Monte-Carlo sweep in
//! [`crate::yield_analysis`] both stay *analytic*: the functional simulator
//! above them never actually mis-senses a bit. This module closes that gap
//! with a seedable [`FaultModel`] that perturbs the physical quantities the
//! rest of the crate already models:
//!
//! * **stuck-at cells** — a per-cell manufactured defect probability, plus
//!   endurance wear-out after a per-cell write budget (PCM cells fail
//!   stuck-SET or stuck-RESET once their heater degrades);
//! * **resistance drift** — a deterministic per-cell multiplicative shift
//!   that widens each stored level *toward* the sense reference (the
//!   pessimistic direction for sensing);
//! * **process variation** — the same systematic + residual log-space
//!   split the yield analysis uses, re-drawn on every sense so Gaussian
//!   tails produce data-dependent errors exactly where Fig. 5 predicts;
//! * **transient sense flips** — a per-[`SenseMode`] probability that the
//!   latch resolves the wrong way regardless of the bit-line current;
//! * **write-path flips** — a per-attempt probability that the write
//!   driver fails to program a healthy cell (so program-and-verify retries
//!   genuinely help).
//!
//! **Every draw is a pure function of position.** Per-cell quantities
//! (endurance budgets, wear-out values, drift magnitudes) are hashed from
//! `(seed, cell)`. Per-event quantities (variation factors, transient and
//! write flips) are *counter-keyed*: each physical sense or write on a
//! channel consumes one [`EventKey`] — `(seed, channel, counter)` — and
//! every draw inside the event hashes `(event, column)` through
//! [`unit_hash`]. Nothing is sequential, so a word-packed fast path can
//! *skip-sample* exactly: sparse realizations (which columns flip, which
//! cells are stuck) are generated directly as geometric gap chains
//! ([`FlipColumns`], [`FaultModel::stuck_sites`]) in O(sites) instead of
//! O(columns), and a per-cell reference path walking the same chains in
//! column order reproduces the identical bits. Same seed ⇒ same fault
//! pattern ⇒ same statistics, on every platform, for any execution order.
//!
//! [`FaultModel::none`] disables every mechanism; callers are expected to
//! skip the fault path entirely in that case (see
//! [`FaultModel::is_none`]), keeping the fault-free simulator bit-identical
//! to a build without this module.

use crate::resistance::{parallel, Ohms};
use crate::rng::{hash_u64s, splitmix64, unit_from_u64};
use crate::sense_amp::{CurrentSenseAmp, SenseMargin, SenseMode};
use crate::technology::Technology;
use crate::yield_analysis::{variation_split, VariationModel};

/// Domain-separation salts, so the stuck map, the endurance budgets, the
/// drift magnitudes and each per-event draw family are independent
/// functions of the same seed.
const SALT_STUCK: u64 = 0x5EED_57AC_0000_0001;
const SALT_ENDURANCE: u64 = 0x5EED_E27D_0000_0002;
const SALT_WEAR_VALUE: u64 = 0x5EED_3EA2_0000_0003;
const SALT_DRIFT: u64 = 0x5EED_D21F_0000_0004;
const SALT_STUCK_VALUE: u64 = 0x5EED_57A1_0000_0005;
const SALT_TRANSIENT: u64 = 0x5EED_F11B_0000_0006;
const SALT_WRITE_FLIP: u64 = 0x5EED_3F1B_0000_0007;
const SALT_VAR_GLOBAL_A: u64 = 0x5EED_6A0B_0000_0008;
const SALT_VAR_GLOBAL_B: u64 = 0x5EED_6A0B_0000_0009;
const SALT_VAR_RES_A: u64 = 0x5EED_2E51_0000_000A;
const SALT_VAR_RES_B: u64 = 0x5EED_2E51_0000_000B;

/// The uniform `[0, 1)` draw for `column` inside one counter-keyed event:
/// a pure function of `(seed, channel, counter, column, salt)`. This is
/// the primitive every per-event stochastic quantity reduces to — because
/// no draw depends on any other draw, a fast path may evaluate any subset
/// of columns, in any order, and still agree bit-for-bit with a reference
/// that evaluates all of them.
#[must_use]
pub fn unit_hash(seed: u64, channel: u32, counter: u64, column: u64, salt: u64) -> f64 {
    unit_from_u64(hash_u64s(
        seed ^ salt,
        &[u64::from(channel), counter, column],
    ))
}

/// The largest |g| producible by `gaussian_from_units`: `u1` is at least
/// 2⁻⁵³, so `|g| ≤ √(−2 ln 2⁻⁵³) = √(106 ln 2) ≈ 8.57`. Class-interval
/// bounds in the packed sense path rely on this being a hard bound.
#[must_use]
pub fn max_abs_gaussian() -> f64 {
    (106.0 * std::f64::consts::LN_2).sqrt()
}

/// Box–Muller from two uniform units: `unit1 ∈ [0, 1)` is reflected to
/// `u1 = 1 − unit1 ∈ (0, 1]` so the log never sees zero, bounding the
/// output by [`max_abs_gaussian`].
fn gaussian_from_units(unit1: f64, u2: f64) -> f64 {
    let u1 = 1.0 - unit1;
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Identifies one physical cell: a linear row index and a bit position.
///
/// The memory controller derives `row_key` from the full
/// channel/rank/bank/subarray/row coordinate, so the same logical data
/// stored on different rows sees a different (but still deterministic)
/// fault pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellId {
    /// Linear row index within the device.
    pub row_key: u64,
    /// Bit position within the row.
    pub bit: u64,
}

impl CellId {
    /// Builds a cell identity.
    #[must_use]
    pub fn new(row_key: u64, bit: u64) -> Self {
        CellId { row_key, bit }
    }
}

/// Whether a cell can still be programmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellHealth {
    /// Programs and senses normally (up to stochastic effects).
    Healthy,
    /// Holds this value regardless of what is written.
    StuckAt(bool),
}

/// Endurance wear-out: cells die after a budget of charged writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceModel {
    /// Mean per-cell write budget.
    pub mean_writes: u64,
    /// Relative half-width of the uniform budget spread, in `[0, 1)`:
    /// budgets are drawn per cell from
    /// `mean · [1 − spread, 1 + spread]`.
    pub spread: f64,
}

/// A deterministic, seedable fault model for the cell array.
///
/// All probabilities are per cell (stuck-at, endurance) or per sense /
/// write attempt (variation, transients, write flips). The default is
/// [`FaultModel::none`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Root seed for the per-cell hashes and the counter-keyed events.
    pub seed: u64,
    /// Manufactured stuck-at-0 probability per cell.
    pub stuck_at_zero: f64,
    /// Manufactured stuck-at-1 probability per cell.
    pub stuck_at_one: f64,
    /// Maximum deterministic per-cell resistance shift toward the sense
    /// reference, as a relative factor (0.05 = up to 5%). Each cell's
    /// actual shift is hashed uniformly from `[0, drift_spread]`.
    pub drift_spread: f64,
    /// Stochastic process variation re-drawn on every sense, using the
    /// yield analysis' systematic + residual split. `None` disables it.
    pub variation: Option<VariationModel>,
    /// Endurance wear-out; `None` means cells never wear out.
    pub endurance: Option<EnduranceModel>,
    /// Transient sense-flip probability in READ mode.
    pub transient_read_flip: f64,
    /// Transient sense-flip probability for a 2-row OR; wider ORs scale it
    /// linearly with fan-in (weaker margin ⇒ a noisier latch decision),
    /// clamped to 0.5.
    pub transient_or_flip: f64,
    /// Transient sense-flip probability in AND mode.
    pub transient_and_flip: f64,
    /// Probability that one write attempt fails to program a healthy cell.
    pub write_flip: f64,
}

impl FaultModel {
    /// The fault-free model: every mechanism disabled.
    #[must_use]
    pub fn none() -> Self {
        FaultModel {
            seed: 0,
            stuck_at_zero: 0.0,
            stuck_at_one: 0.0,
            drift_spread: 0.0,
            variation: None,
            endurance: None,
            transient_read_flip: 0.0,
            transient_or_flip: 0.0,
            transient_and_flip: 0.0,
            write_flip: 0.0,
        }
    }

    /// A fault-free model carrying a seed, as a builder starting point.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        FaultModel {
            seed,
            ..FaultModel::none()
        }
    }

    /// Adds manufactured stuck-at defects.
    #[must_use]
    pub fn with_stuck_at(mut self, p_stuck_zero: f64, p_stuck_one: f64) -> Self {
        self.stuck_at_zero = p_stuck_zero;
        self.stuck_at_one = p_stuck_one;
        self
    }

    /// Adds deterministic per-cell drift toward the reference.
    #[must_use]
    pub fn with_drift(mut self, spread: f64) -> Self {
        self.drift_spread = spread;
        self
    }

    /// Adds per-sense stochastic process variation.
    #[must_use]
    pub fn with_variation(mut self, model: VariationModel) -> Self {
        self.variation = Some(model);
        self
    }

    /// Adds endurance wear-out.
    #[must_use]
    pub fn with_endurance(mut self, mean_writes: u64, spread: f64) -> Self {
        self.endurance = Some(EnduranceModel {
            mean_writes,
            spread,
        });
        self
    }

    /// Adds transient sense flips (READ / 2-row OR / AND probabilities).
    #[must_use]
    pub fn with_transients(mut self, read: f64, or2: f64, and2: f64) -> Self {
        self.transient_read_flip = read;
        self.transient_or_flip = or2;
        self.transient_and_flip = and2;
        self
    }

    /// Adds write-attempt failures on healthy cells.
    #[must_use]
    pub fn with_write_flips(mut self, p: f64) -> Self {
        self.write_flip = p;
        self
    }

    /// `true` when every mechanism is disabled — callers then skip the
    /// fault path entirely, guaranteeing bit-identical behavior to a
    /// simulator without fault injection.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.stuck_at_zero <= 0.0
            && self.stuck_at_one <= 0.0
            && self.drift_spread <= 0.0
            && self.variation.is_none()
            && self.endurance.is_none()
            && self.transient_read_flip <= 0.0
            && self.transient_or_flip <= 0.0
            && self.transient_and_flip <= 0.0
            && self.write_flip <= 0.0
    }

    /// The transient latch-flip probability for one sense under `mode`.
    #[must_use]
    pub fn transient_flip_probability(&self, mode: SenseMode) -> f64 {
        match mode {
            SenseMode::Read => self.transient_read_flip,
            SenseMode::Or { fan_in } => (self.transient_or_flip * fan_in as f64 / 2.0).min(0.5),
            SenseMode::And => self.transient_and_flip,
        }
    }

    /// A uniform `[0, 1)` hash of `(seed, cell, salt)` — stable for the
    /// whole run, independent across salts.
    fn cell_unit(&self, cell: CellId, salt: u64) -> f64 {
        let mut s = self.seed ^ salt;
        let a = splitmix64(&mut s);
        s ^= cell.row_key.wrapping_add(a);
        let b = splitmix64(&mut s);
        s ^= cell.bit.wrapping_add(b);
        (splitmix64(&mut s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The manufactured stuck cells of one row, as a generative geometric
    /// chain: bit positions ascend by gaps drawn geometric with parameter
    /// `p0 + p1`, each site's stuck value drawn by its share — exactly a
    /// per-cell Bernoulli realization, materialized in O(sites) instead of
    /// O(columns). The iterator is unbounded; callers clip with
    /// `take_while` on the bit position.
    #[must_use]
    pub fn stuck_sites(&self, row_key: u64) -> StuckSites {
        let p0 = self.stuck_at_zero.max(0.0);
        let p1 = self.stuck_at_one.max(0.0);
        let p = (p0 + p1).min(1.0);
        StuckSites {
            seed: self.seed,
            row_key,
            zero_share: if p > 0.0 { p0 / (p0 + p1) } else { 0.0 },
            log_q: (-p).ln_1p(),
            next_pos: 0,
            step: 0,
            exhausted: p <= 0.0,
        }
    }

    /// The manufactured stuck-at value of `cell`, if any — a point query
    /// into the same chain [`FaultModel::stuck_sites`] generates, walked
    /// until it reaches or passes the cell.
    #[must_use]
    pub fn manufactured_stuck(&self, cell: CellId) -> Option<bool> {
        for (bit, value) in self.stuck_sites(cell.row_key) {
            if bit >= cell.bit {
                return (bit == cell.bit).then_some(value);
            }
        }
        None
    }

    /// The per-cell write budget before endurance failure, if endurance is
    /// modeled.
    #[must_use]
    pub fn endurance_budget(&self, cell: CellId) -> Option<u64> {
        self.endurance.map(|e| {
            let u = self.cell_unit(cell, SALT_ENDURANCE);
            let lo = e.mean_writes as f64 * (1.0 - e.spread);
            let hi = e.mean_writes as f64 * (1.0 + e.spread);
            (lo + u * (hi - lo)).max(1.0) as u64
        })
    }

    /// A floor under every cell's endurance budget: while a row's charged
    /// writes stay at or below this, no cell can have worn out and the
    /// endurance scan is skipped entirely. `u64::MAX` when endurance is
    /// off.
    #[must_use]
    pub fn min_endurance_budget(&self) -> u64 {
        match self.endurance {
            Some(e) => (e.mean_writes as f64 * (1.0 - e.spread)).max(1.0) as u64,
            None => u64::MAX,
        }
    }

    /// The health of `cell` after `writes` charged writes: manufactured
    /// defects first, then endurance wear-out (worn cells latch a
    /// hash-chosen stuck value — a degraded PCM heater can fail either
    /// stuck-SET or stuck-RESET).
    #[must_use]
    pub fn cell_health(&self, cell: CellId, writes: u64) -> CellHealth {
        if let Some(v) = self.manufactured_stuck(cell) {
            return CellHealth::StuckAt(v);
        }
        if let Some(budget) = self.endurance_budget(cell) {
            if writes > budget {
                return CellHealth::StuckAt(self.cell_unit(cell, SALT_WEAR_VALUE) < 0.5);
            }
        }
        CellHealth::Healthy
    }

    /// Every fault site of one row after `writes` charged writes: the
    /// manufactured stuck chain merged with the endurance-dead cells, as
    /// ascending `(bit, held value)` pairs over the first `cols` columns.
    /// Agrees with [`FaultModel::cell_health`] at every cell (manufactured
    /// defects take precedence over wear-out, exactly as there). The
    /// endurance scan is O(cols) hashes but only runs once `writes`
    /// exceeds [`FaultModel::min_endurance_budget`]; callers cache the
    /// result per `(row, writes)`.
    #[must_use]
    pub fn row_fault_sites(&self, row_key: u64, writes: u64, cols: u64) -> Vec<(u64, bool)> {
        let stuck: Vec<(u64, bool)> = self
            .stuck_sites(row_key)
            .take_while(|&(bit, _)| bit < cols)
            .collect();
        if writes <= self.min_endurance_budget() {
            return stuck;
        }
        let mut sites = Vec::with_capacity(stuck.len());
        let mut manufactured = stuck.into_iter().peekable();
        for bit in 0..cols {
            if let Some(site) = manufactured.next_if(|&(b, _)| b == bit) {
                sites.push(site);
                continue;
            }
            let cell = CellId::new(row_key, bit);
            let budget = self
                .endurance_budget(cell)
                .expect("the scan only runs with endurance modeled");
            if writes > budget {
                sites.push((bit, self.cell_unit(cell, SALT_WEAR_VALUE) < 0.5));
            }
        }
        sites
    }

    /// The deterministic drift factor applied to `cell`'s resistance when
    /// it stores `stored`: stored '1' (low resistance) drifts *up*, stored
    /// '0' (high resistance) drifts *down* — both toward the reference,
    /// the pessimistic direction for sensing.
    #[must_use]
    pub fn drift_factor(&self, cell: CellId, stored: bool) -> f64 {
        if self.drift_spread <= 0.0 {
            return 1.0;
        }
        let magnitude = self.cell_unit(cell, SALT_DRIFT) * self.drift_spread;
        if stored {
            1.0 + magnitude
        } else {
            1.0 / (1.0 + magnitude)
        }
    }

    /// The event-wide systematic variation factor (1.0 when variation is
    /// off) — one draw per sense, keyed on the event alone.
    #[must_use]
    pub fn event_global(&self, tech: &Technology, event: &EventKey) -> f64 {
        let Some(model) = self.variation else {
            return 1.0;
        };
        let (v_sys, _) = variation_split(tech);
        match model {
            VariationModel::BoundedUniform => {
                let (lo, hi) = (1.0 - v_sys, 1.0 + v_sys);
                lo + event.unit(0, SALT_VAR_GLOBAL_A) * (hi - lo)
            }
            VariationModel::Gaussian => {
                let sigma = (1.0 + v_sys).ln() / 3.0;
                (sigma
                    * gaussian_from_units(
                        event.unit(0, SALT_VAR_GLOBAL_A),
                        event.unit(0, SALT_VAR_GLOBAL_B),
                    ))
                .exp()
            }
        }
    }

    /// The per-cell residual variation factor for `(row, column)` inside
    /// one event (1.0 when variation is off).
    #[must_use]
    pub fn residual_factor(
        &self,
        tech: &Technology,
        event: &EventKey,
        row_key: u64,
        column: u64,
    ) -> f64 {
        let Some(model) = self.variation else {
            return 1.0;
        };
        let (_, v_res) = variation_split(tech);
        match model {
            VariationModel::BoundedUniform => {
                let (lo, hi) = (1.0 - v_res, 1.0 + v_res);
                lo + event.cell_unit(row_key, column, SALT_VAR_RES_A) * (hi - lo)
            }
            VariationModel::Gaussian => {
                let sigma = (1.0 + v_res).ln() / 3.0;
                (sigma
                    * gaussian_from_units(
                        event.cell_unit(row_key, column, SALT_VAR_RES_A),
                        event.cell_unit(row_key, column, SALT_VAR_RES_B),
                    ))
                .exp()
            }
        }
    }

    /// Hard bounds on [`FaultModel::residual_factor`]: `(min, max)` over
    /// every possible draw. Uniform residuals are bounded by construction;
    /// Gaussian residuals inherit the [`max_abs_gaussian`] bound of the
    /// unit-reflected Box–Muller. Used by the packed sense path to decide
    /// which ones-count classes could possibly straddle the reference.
    #[must_use]
    pub fn residual_bounds(&self, tech: &Technology) -> (f64, f64) {
        let Some(model) = self.variation else {
            return (1.0, 1.0);
        };
        let (_, v_res) = variation_split(tech);
        match model {
            VariationModel::BoundedUniform => (1.0 - v_res, 1.0 + v_res),
            VariationModel::Gaussian => {
                let m = (1.0 + v_res).ln() / 3.0 * max_abs_gaussian();
                ((-m).exp(), m.exp())
            }
        }
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

/// The manufactured stuck-cell chain of one row — see
/// [`FaultModel::stuck_sites`]. Yields ascending `(bit, stuck value)`
/// pairs.
#[derive(Debug, Clone)]
pub struct StuckSites {
    seed: u64,
    row_key: u64,
    zero_share: f64,
    log_q: f64,
    next_pos: u64,
    step: u64,
    exhausted: bool,
}

impl Iterator for StuckSites {
    type Item = (u64, bool);

    fn next(&mut self) -> Option<(u64, bool)> {
        if self.exhausted {
            return None;
        }
        let gap_unit = unit_from_u64(hash_u64s(
            self.seed ^ SALT_STUCK,
            &[self.row_key, self.step],
        ));
        let value_unit = unit_from_u64(hash_u64s(
            self.seed ^ SALT_STUCK_VALUE,
            &[self.row_key, self.step],
        ));
        self.step += 1;
        let gap = ((-gap_unit).ln_1p() / self.log_q).floor();
        let pos = self.next_pos.saturating_add(gap as u64);
        if pos == u64::MAX {
            self.exhausted = true;
            return None;
        }
        self.next_pos = pos + 1;
        Some((pos, value_unit >= self.zero_share))
    }
}

/// One counter-keyed fault event: a physical sense or write on one
/// channel. All stochastic draws inside the event are pure functions of
/// this key plus a position — see [`unit_hash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKey {
    seed: u64,
    channel: u32,
    counter: u64,
}

impl EventKey {
    /// The uniform `[0, 1)` draw for `column` under `salt`.
    #[must_use]
    pub fn unit(&self, column: u64, salt: u64) -> f64 {
        unit_hash(self.seed, self.channel, self.counter, column, salt)
    }

    /// A per-cell draw: like [`EventKey::unit`] but additionally keyed on
    /// the row, for quantities that must differ between cells of the same
    /// column (the residual variation factors).
    fn cell_unit(&self, row_key: u64, column: u64, salt: u64) -> f64 {
        unit_from_u64(hash_u64s(
            self.seed ^ salt,
            &[u64::from(self.channel), self.counter, row_key, column],
        ))
    }

    /// The transient latch flips of this sense event: an exact
    /// Bernoulli(`p`)-per-column realization, enumerated sparsely.
    #[must_use]
    pub fn transient_flips(&self, p: f64, cols: u64) -> FlipColumns {
        FlipColumns::new(*self, SALT_TRANSIENT, p, cols)
    }

    /// The programming failures of this write event on healthy cells.
    #[must_use]
    pub fn write_flips(&self, p: f64, cols: u64) -> FlipColumns {
        FlipColumns::new(*self, SALT_WRITE_FLIP, p, cols)
    }
}

/// An exact per-column Bernoulli(`p`) realization over `[0, cols)`,
/// enumerated as ascending flip positions via geometric gap chains: gap
/// `⌊ln(1−u) / ln(1−p)⌋` with each `u` hashed from `(event, step, salt)`.
/// Expected cost O(p · cols) — the fast path iterates only the flips, and
/// the per-cell reference path walks the same positions in column
/// lockstep, so both see the identical flip set.
#[derive(Debug, Clone)]
pub struct FlipColumns {
    event: EventKey,
    salt: u64,
    log_q: f64,
    cols: u64,
    next_pos: u64,
    step: u64,
    exhausted: bool,
}

impl FlipColumns {
    fn new(event: EventKey, salt: u64, p: f64, cols: u64) -> Self {
        let p = p.min(1.0);
        FlipColumns {
            event,
            salt,
            log_q: (-p).ln_1p(),
            cols,
            next_pos: 0,
            step: 0,
            exhausted: p <= 0.0 || cols == 0,
        }
    }
}

impl Iterator for FlipColumns {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.exhausted {
            return None;
        }
        let u = self.event.unit(self.step, self.salt);
        self.step += 1;
        let gap = ((-u).ln_1p() / self.log_q).floor();
        let pos = self.next_pos.saturating_add(gap as u64);
        if pos >= self.cols {
            self.exhausted = true;
            return None;
        }
        self.next_pos = pos + 1;
        Some(pos)
    }
}

/// Per-channel fault-injection state: the model plus the event counter.
///
/// One counter ticks per physical sense *and* per physical write on the
/// channel, so the draws an event sees are a pure function of `(seed,
/// channel, how many events preceded it on this channel)` — independent
/// of worker threads, shard interleaving, or which path (packed or
/// reference) evaluates the event.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    model: FaultModel,
    channel: u32,
    counter: u64,
}

impl FaultState {
    /// Initializes the state for channel 0.
    #[must_use]
    pub fn new(model: FaultModel) -> Self {
        FaultState::for_channel(model, 0)
    }

    /// Initializes the state for one channel. Every channel's events are
    /// keyed `(seed, channel, counter)`, so shards prime their streams
    /// with nothing but the channel index — no derived seeds, no special
    /// cases.
    #[must_use]
    pub fn for_channel(model: FaultModel, channel: u32) -> Self {
        FaultState {
            model,
            channel,
            counter: 0,
        }
    }

    /// The model being injected.
    #[must_use]
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// The channel this state draws for.
    #[must_use]
    pub fn channel(&self) -> u32 {
        self.channel
    }

    /// How many events this channel has consumed.
    #[must_use]
    pub fn events_drawn(&self) -> u64 {
        self.counter
    }

    /// Claims the next event on this channel (one per physical sense or
    /// write).
    pub fn next_event(&mut self) -> EventKey {
        let key = EventKey {
            seed: self.model.seed,
            channel: self.channel,
            counter: self.counter,
        };
        self.counter += 1;
        key
    }
}

impl CurrentSenseAmp {
    /// Physically senses one column: each cell's nominal resistance is
    /// scaled by its deterministic drift, the event's systematic variation
    /// factor and its per-cell residual, then the parallel combination is
    /// compared against the margin reference. `cells` carries `(row_key,
    /// effective bit)` pairs in operand order — stuck and endurance
    /// overrides are resolved by the caller — and `global` must be
    /// `model.event_global(...)` for this event.
    ///
    /// Transient latch flips are *not* applied here; both the packed and
    /// the reference path XOR the event's [`EventKey::transient_flips`]
    /// chain on top. This function is the single evaluation both paths
    /// share, which is what makes them bit-identical: `parallel` sums
    /// reciprocals in iteration order, so even the floating-point rounding
    /// agrees.
    #[must_use]
    pub fn sense_column_physical(
        &self,
        margin: &SenseMargin,
        model: &FaultModel,
        event: &EventKey,
        global: f64,
        cells: &[(u64, bool)],
        column: u64,
    ) -> bool {
        let tech = self.technology();
        let bitline = parallel(cells.iter().map(|&(row_key, effective)| {
            let r = tech.cell_resistance(effective).get()
                * model.drift_factor(CellId::new(row_key, column), effective)
                * global
                * model.residual_factor(tech, event, row_key, column);
            Ohms::new(r)
        }));
        bitline < margin.reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(row: u64, bit: u64) -> CellId {
        CellId::new(row, bit)
    }

    #[test]
    fn none_is_none_and_default() {
        assert!(FaultModel::none().is_none());
        assert!(FaultModel::default().is_none());
        assert!(!FaultModel::with_seed(1).with_stuck_at(1e-3, 0.0).is_none());
        assert!(!FaultModel::with_seed(1)
            .with_variation(VariationModel::Gaussian)
            .is_none());
    }

    #[test]
    fn stuck_map_is_deterministic_and_tracks_probability() {
        let model = FaultModel::with_seed(0xC0FFEE).with_stuck_at(0.05, 0.05);
        let n = 20_000u64;
        let mut stuck0 = 0u64;
        let mut stuck1 = 0u64;
        for i in 0..n {
            match model.manufactured_stuck(cell(i / 64, i % 64)) {
                Some(false) => stuck0 += 1,
                Some(true) => stuck1 += 1,
                None => {}
            }
            // Stable across repeated queries.
            assert_eq!(
                model.manufactured_stuck(cell(i / 64, i % 64)),
                model.manufactured_stuck(cell(i / 64, i % 64))
            );
        }
        let rate0 = stuck0 as f64 / n as f64;
        let rate1 = stuck1 as f64 / n as f64;
        assert!((rate0 - 0.05).abs() < 0.01, "stuck-at-0 rate {rate0}");
        assert!((rate1 - 0.05).abs() < 0.01, "stuck-at-1 rate {rate1}");
    }

    #[test]
    fn stuck_chain_matches_point_queries() {
        let model = FaultModel::with_seed(0xFACE).with_stuck_at(0.03, 0.01);
        let cols = 4096u64;
        let from_chain: Vec<(u64, bool)> = model
            .stuck_sites(9)
            .take_while(|&(bit, _)| bit < cols)
            .collect();
        let from_queries: Vec<(u64, bool)> = (0..cols)
            .filter_map(|b| model.manufactured_stuck(cell(9, b)).map(|v| (b, v)))
            .collect();
        assert!(!from_chain.is_empty(), "p = 0.04 over 4096 cells");
        assert_eq!(from_chain, from_queries);
    }

    #[test]
    fn endurance_kills_cells_past_budget() {
        let model = FaultModel::with_seed(7).with_endurance(100, 0.2);
        let c = cell(3, 17);
        let budget = model.endurance_budget(c).expect("endurance modeled");
        assert!((80..=120).contains(&budget), "budget {budget}");
        assert_eq!(model.cell_health(c, budget), CellHealth::Healthy);
        assert!(matches!(
            model.cell_health(c, budget + 1),
            CellHealth::StuckAt(_)
        ));
        assert!(model.min_endurance_budget() <= budget);
        assert_eq!(FaultModel::none().min_endurance_budget(), u64::MAX);
    }

    #[test]
    fn row_fault_sites_agree_with_cell_health() {
        let model = FaultModel::with_seed(0xD00D)
            .with_stuck_at(0.02, 0.02)
            .with_endurance(10, 0.5);
        let cols = 512u64;
        for writes in [0u64, 4, 20] {
            let sites = model.row_fault_sites(77, writes, cols);
            let mut cursor = sites.iter().copied().peekable();
            for bit in 0..cols {
                let listed = cursor.next_if(|&(b, _)| b == bit).map(|(_, v)| v);
                let health = model.cell_health(cell(77, bit), writes);
                match health {
                    CellHealth::StuckAt(v) => {
                        assert_eq!(listed, Some(v), "writes {writes} bit {bit}")
                    }
                    CellHealth::Healthy => assert_eq!(listed, None, "writes {writes} bit {bit}"),
                }
            }
            assert!(cursor.peek().is_none(), "no sites past cols");
        }
    }

    #[test]
    fn drift_moves_both_levels_toward_the_reference() {
        let model = FaultModel::with_seed(9).with_drift(0.10);
        let c = cell(0, 0);
        let up = model.drift_factor(c, true);
        let down = model.drift_factor(c, false);
        assert!((1.0..=1.10).contains(&up), "low-R drift {up}");
        assert!((1.0 / 1.10..=1.0).contains(&down), "high-R drift {down}");
        // Deterministic.
        assert_eq!(up, model.drift_factor(c, true));
    }

    #[test]
    fn or_transients_scale_with_fan_in() {
        let model = FaultModel::with_seed(1).with_transients(1e-4, 1e-3, 2e-4);
        assert_eq!(model.transient_flip_probability(SenseMode::Read), 1e-4);
        assert_eq!(
            model.transient_flip_probability(SenseMode::or(2).unwrap()),
            1e-3
        );
        assert_eq!(
            model.transient_flip_probability(SenseMode::or(8).unwrap()),
            4e-3
        );
        assert_eq!(model.transient_flip_probability(SenseMode::And), 2e-4);
    }

    #[test]
    fn flip_chain_is_an_exact_bernoulli_realization() {
        let mut state = FaultState::for_channel(FaultModel::with_seed(0xF1), 2);
        let event = state.next_event();
        let cols = 40_000u64;
        let flips: Vec<u64> = event.transient_flips(0.3, cols).collect();
        // Ascending, in range, deterministic.
        assert!(flips.windows(2).all(|w| w[0] < w[1]));
        assert!(flips.iter().all(|&f| f < cols));
        assert_eq!(flips, event.transient_flips(0.3, cols).collect::<Vec<_>>());
        let rate = flips.len() as f64 / cols as f64;
        assert!((rate - 0.3).abs() < 0.02, "flip rate {rate}");
        // Degenerate probabilities.
        assert_eq!(event.transient_flips(0.0, cols).count(), 0);
        assert_eq!(event.write_flips(1.0, 100).count(), 100);
        // Independent families: write flips differ from transient flips.
        assert_ne!(
            event.write_flips(0.3, cols).collect::<Vec<_>>(),
            event.transient_flips(0.3, cols).collect::<Vec<_>>()
        );
    }

    #[test]
    fn events_are_pure_functions_of_seed_channel_and_counter() {
        let model = FaultModel::with_seed(0x5EED).with_write_flips(0.25);
        let draw = |channel: u32, skip: u64| -> Vec<u64> {
            let mut state = FaultState::for_channel(model, channel);
            for _ in 0..skip {
                let _ = state.next_event();
            }
            state.next_event().write_flips(0.25, 4096).collect()
        };
        // The third event's draws do not depend on whether earlier events
        // were consumed one state or another — only on the counter.
        assert_eq!(draw(0, 2), draw(0, 2));
        assert_ne!(draw(0, 2), draw(0, 3), "counter must matter");
        assert_ne!(draw(0, 2), draw(1, 2), "channel must matter");
        // Channel 0 is nothing special anymore: new == for_channel(0).
        let mut a = FaultState::new(model);
        let mut b = FaultState::for_channel(model, 0);
        assert_eq!(a.next_event(), b.next_event());
        assert_eq!(a.events_drawn(), 1);
    }

    #[test]
    fn faultless_sense_matches_logical_or() {
        let tech = Technology::pcm();
        let sa = CurrentSenseAmp::new(&tech);
        let mode = SenseMode::or(4).unwrap();
        let margin = sa.margin(mode);
        let model = FaultModel::none();
        let mut state = FaultState::new(model);
        let event = state.next_event();
        let global = model.event_global(&tech, &event);
        for pattern in 0u32..16 {
            let cells: Vec<(u64, bool)> = (0..4).map(|i| (i, pattern >> i & 1 == 1)).collect();
            let sensed = sa.sense_column_physical(&margin, &model, &event, global, &cells, 0);
            assert_eq!(sensed, pattern != 0, "pattern {pattern:04b}");
        }
    }

    #[test]
    fn stuck_at_one_forces_or_result_high() {
        let tech = Technology::pcm();
        let sa = CurrentSenseAmp::new(&tech);
        let mode = SenseMode::or(2).unwrap();
        let margin = sa.margin(mode);
        // Find a cell the model says is stuck at 1.
        let model = FaultModel::with_seed(0xABCD).with_stuck_at(0.0, 0.2);
        let stuck = (0..4096)
            .map(|b| cell(11, b))
            .find(|&c| model.manufactured_stuck(c) == Some(true))
            .expect("a stuck-at-1 cell exists at p = 0.2");
        let mut state = FaultState::new(model);
        let event = state.next_event();
        let global = model.event_global(&tech, &event);
        // Both rows store 0, but the stuck cell's *effective* value is 1:
        // the caller resolves health and hands the evaluator effective bits.
        let effective = match model.cell_health(stuck, 0) {
            CellHealth::StuckAt(v) => v,
            CellHealth::Healthy => false,
        };
        let cells = [(stuck.row_key, effective), (12u64, false)];
        assert!(
            sa.sense_column_physical(&margin, &model, &event, global, &cells, stuck.bit),
            "stuck-at-1 cell must pull the OR high"
        );
    }

    #[test]
    fn residual_factors_respect_their_bounds() {
        let tech = Technology::pcm();
        for variation in [VariationModel::BoundedUniform, VariationModel::Gaussian] {
            let model = FaultModel::with_seed(0xBEEF).with_variation(variation);
            let (lo, hi) = model.residual_bounds(&tech);
            assert!(lo > 0.0 && lo < 1.0 && hi > 1.0, "bounds ({lo}, {hi})");
            let mut state = FaultState::new(model);
            for _ in 0..64 {
                let event = state.next_event();
                for col in 0..32 {
                    let f = model.residual_factor(&tech, &event, 3, col);
                    assert!((lo..=hi).contains(&f), "{variation:?}: {f} ∉ [{lo}, {hi}]");
                }
                let g = model.event_global(&tech, &event);
                assert!(g > 0.0, "global factor must stay positive");
            }
        }
        // Variation off: both factors are exactly 1.
        let off = FaultModel::with_seed(1);
        let mut state = FaultState::new(off);
        let event = state.next_event();
        assert_eq!(off.event_global(&tech, &event), 1.0);
        assert_eq!(off.residual_factor(&tech, &event, 0, 0), 1.0);
        assert_eq!(off.residual_bounds(&tech), (1.0, 1.0));
    }

    #[test]
    fn gaussian_from_units_is_bounded() {
        let bound = max_abs_gaussian();
        assert!((8.5..8.7).contains(&bound), "bound {bound}");
        // The extreme unit (largest representable below 1) stays within
        // the bound up to rounding the classify pad absorbs.
        let extreme = gaussian_from_units(1.0 - (0.5f64).powi(53), 0.5);
        assert!(extreme.abs() <= bound * (1.0 + 1e-12), "extreme {extreme}");
        assert_eq!(gaussian_from_units(0.0, 0.25).abs(), 0.0, "u1 = 1 ⇒ g = 0");
    }
}
