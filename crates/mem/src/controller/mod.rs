//! The memory controller: functional state plus per-command accounting.
//!
//! [`MainMemory`] owns the (sparse) array contents and executes the
//! extended-DDR commands — activations, senses, GDL and bus transfers,
//! writes and [`crate::commands::PimConfig`] mode-register sets — charging
//! time and energy from the [`pinatubo_nvm`] parameter tables into
//! [`crate::stats::MemStats`].
//!
//! The controller is *serial*: commands execute one after another and time
//! adds up. That matches how the paper drives PIM operations (one extended
//! instruction stream through one DDR command bus); channel-level
//! parallelism for conventional CPU traffic is modelled by the baselines
//! where it matters.
//!
//! This module holds the configuration, the command entry points, the
//! recovery ladder and the command charging. Three private child modules
//! hold the machinery behind them: `delta` (dirty-state tracking and the
//! channel clone/delta/merge protocol), `fault_path` (the packed and
//! per-cell reference physical sense/write paths and their fault-site
//! cache) and `protection` (the kept intended images, the SEC-DED read
//! check, escape accounting and ECC charging).

mod delta;
mod fault_path;
mod protection;

pub use delta::ChannelDelta;

use crate::address::RowAddr;
use crate::array::RowData;
use crate::commands::PimConfig;
use crate::geometry::MemGeometry;
use crate::page::{PageId, PageTable};
use crate::stats::MemStats;
use crate::MemError;
use delta::DirtyLog;
use fault_path::CachedRowSites;
use pinatubo_nvm::energy::EnergyParams;
use pinatubo_nvm::fault::{FaultModel, FaultState};
use pinatubo_nvm::lwl_driver::LwlDriverBank;
use pinatubo_nvm::sense_amp::{CurrentSenseAmp, SenseMode};
use pinatubo_nvm::technology::Technology;
use pinatubo_nvm::timing::TimingParams;
use pinatubo_nvm::write_driver::WriteSource;
use std::borrow::Cow;
use std::collections::HashMap;

/// Words per block of the functional combine (1 KB): the block and each
/// operand's slice of it stay in L1 while every operand folds in.
const COMBINE_BLOCK_WORDS: usize = 128;

/// Which analysis bounds the widest OR the protected sense path will issue
/// in a single multi-row activation. Wider requests are split into chunks
/// of at most this many rows and merged digitally in the row buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReliableFanIn {
    /// The worst-case interval margin analysis (the static
    /// [`CurrentSenseAmp::max_or_fan_in`] cap). No splitting below the cap.
    Margin,
    /// A Monte-Carlo yield sweep at construction time
    /// ([`CurrentSenseAmp::reliable_or_fan_in`]): the widest fan-in whose
    /// Gaussian-model error rate stays below `target_ber`.
    Yield {
        /// Acceptable sense-error rate per bit.
        target_ber: f64,
        /// Monte-Carlo trials per fan-in point.
        trials: u64,
        /// Seed for the sweep's sampling stream.
        seed: u64,
    },
    /// A fixed limit (conservative provisioning, or tests that need to
    /// exercise splitting deterministically). Clamped to the margin cap.
    Fixed(usize),
}

/// How stored rows are protected against corruption on the read path.
///
/// SEC-DED checks every single-row read against the check bytes of the
/// data each row was last written with (its *intended* data). That data
/// is the stored row itself unless the write left wrong bits, in which
/// case the controller keeps the intended image beside the row; the kept
/// images are modeled reliable, as a real design would protect its check
/// bits with stronger coding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtectionMode {
    /// No stored metadata, nothing checked: corruption is silent.
    None,
    /// A (72,64) Hamming SEC-DED check byte per 64-bit word
    /// ([`crate::secded`]; 12.5 % storage overhead, charged on every write
    /// and read). Single-bit errors are corrected in place without
    /// touching the retry ladder; double-bit detections still fall through
    /// to it.
    SecDed,
}

/// Detection and recovery policy for the fault-injected memory.
///
/// With the default ([`ReliabilityConfig::off`]) nothing is checked: faults
/// (if any are modeled) corrupt results silently, which is exactly what the
/// error-rate sweeps want to measure.
/// [`ReliabilityConfig::protected_secded`] enables the full detect/retry
/// ladder the controller implements: program-and-verify on writes, in-place
/// SEC-DED correction on reads, duplicate sensing with reference
/// re-calibration on PIM activations, and proactive fan-in splitting at the
/// yield-analysis limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityConfig {
    /// Verify every charged write (and setup poke) against the intended
    /// data, retrying failed programming pulses up to
    /// `max_write_retries` times before reporting
    /// [`MemError::UncorrectableWrite`].
    pub verify_writes: bool,
    /// Per-row protection metadata kept alongside writes and checked on
    /// every single-row read (see [`ProtectionMode`]); uncorrectable
    /// mismatches trigger re-calibrated re-reads and eventually
    /// [`MemError::UncorrectableRead`].
    pub protection: ProtectionMode,
    /// Sense every PIM activation twice and require agreement; disagreement
    /// triggers re-calibrated retries and eventually
    /// [`MemError::SenseUnstable`] (the caller's cue to fall back to
    /// read-modify-write).
    pub duplicate_sense: bool,
    /// Extra programming pulses after the first failed verify.
    pub max_write_retries: u32,
    /// Re-calibrated re-senses after a detected read/sense error.
    pub max_sense_retries: u32,
    /// The fan-in limit the protected sense path enforces by splitting.
    pub reliable_fan_in: ReliableFanIn,
}

impl ReliabilityConfig {
    /// No detection, no recovery (the default).
    #[must_use]
    pub fn off() -> Self {
        ReliabilityConfig {
            verify_writes: false,
            protection: ProtectionMode::None,
            duplicate_sense: false,
            max_write_retries: 0,
            max_sense_retries: 0,
            reliable_fan_in: ReliableFanIn::Margin,
        }
    }

    /// The full recovery ladder with SEC-DED on the read path and the
    /// paper-calibrated yield limit.
    #[must_use]
    pub fn protected_secded() -> Self {
        ReliabilityConfig {
            verify_writes: true,
            protection: ProtectionMode::SecDed,
            duplicate_sense: true,
            max_write_retries: 3,
            max_sense_retries: 3,
            reliable_fan_in: ReliableFanIn::Yield {
                target_ber: 1e-3,
                trials: 2000,
                seed: 0x5EED,
            },
        }
    }
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig::off()
    }
}

/// Everything needed to instantiate a memory system.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// Shape of the memory.
    pub geometry: MemGeometry,
    /// Cell technology.
    pub technology: Technology,
    /// Command timing table.
    pub timing: TimingParams,
    /// Command energy table.
    pub energy: EnergyParams,
    /// Deterministic fault injection into the resistive sense/write paths.
    /// [`FaultModel::none`] (the default) keeps the simulator bit-identical
    /// to a fault-free build; DRAM ignores the model (it has no current
    /// SA to inject into).
    pub fault_model: FaultModel,
    /// Detection/recovery policy (only meaningful with faults enabled).
    pub reliability: ReliabilityConfig,
    /// Route fault-injected senses and writes through the per-cell
    /// reference path instead of the word-packed fast path. The two are
    /// bit-identical for the same seed (pinned by cross-crate property
    /// tests); the reference path exists as the oracle and for debugging,
    /// at O(cols × fan-in) per event instead of O(words + fault sites).
    pub reference_fault_path: bool,
}

impl MemConfig {
    /// The paper's configuration: PCM cells, PCM/DDR3 timing, default
    /// geometry.
    #[must_use]
    pub fn pcm_default() -> Self {
        MemConfig {
            geometry: MemGeometry::pcm_default(),
            technology: Technology::pcm(),
            timing: TimingParams::pcm_ddr3_1600(),
            energy: EnergyParams::pcm(),
            fault_model: FaultModel::none(),
            reliability: ReliabilityConfig::off(),
            reference_fault_path: false,
        }
    }

    /// A DDR3-1600 DRAM system with the same geometry (for baselines that
    /// need functional DRAM storage).
    #[must_use]
    pub fn dram_default() -> Self {
        MemConfig {
            geometry: MemGeometry::pcm_default(),
            technology: Technology::dram(),
            timing: TimingParams::ddr3_1600(),
            energy: EnergyParams::dram(),
            fault_model: FaultModel::none(),
            reliability: ReliabilityConfig::off(),
            reference_fault_path: false,
        }
    }
}

/// The simulated main memory.
///
/// See the crate-level example for typical use. All mutating entry points
/// return [`MemError`] on geometry or circuit violations; the functional
/// state is only modified when the whole command succeeds.
#[derive(Debug)]
pub struct MainMemory {
    config: MemConfig,
    /// SA model; `None` for the charge-based DRAM pseudo-technology.
    sense_amp: Option<CurrentSenseAmp>,
    /// Cached result of the (static) sense-margin fan-in analysis.
    max_or_fan_in: usize,
    /// Sparse row storage as `Arc`-shared copy-on-write pages (see
    /// [`crate::page`]): channel shards, the session parent's mirror and
    /// snapshots share untouched pages for free; a shared page is
    /// deep-copied only on its first write, counted in
    /// [`MemStats::row_pages_copied`].
    rows: PageTable,
    /// Charged writes per row, for endurance analysis.
    wear: HashMap<RowAddr, u64>,
    /// Recent activation issue times per (channel, rank), oldest first
    /// (at most four kept), for the tRRD/tFAW inter-activation gate.
    act_history: HashMap<(u32, u32), Vec<f64>>,
    /// Fault-injection state, one sequential draw stream per channel
    /// (keyed by channel index) so channel shards consume deterministic,
    /// independent streams no matter how execution interleaves. Empty when
    /// the model is [`FaultModel::none`] (or the technology has no current
    /// SA), in which case every fault/recovery branch is skipped entirely.
    fault: HashMap<u32, FaultState>,
    /// Per-row fault-site cache for the packed fault paths. Sites are a
    /// pure function of `(fault_model, row_key, writes, cols)`, so entries
    /// need no invalidation beyond a wear or width mismatch, and shards
    /// may start with an empty cache without changing any result.
    fault_sites: HashMap<u64, CachedRowSites>,
    /// The fan-in limit enforced by the protected sense path (resolved
    /// once at construction from `config.reliability.reliable_fan_in`).
    reliable_or_fan_in: usize,
    /// The intended image of each row whose cells differ from it after
    /// its last write (an unverified store or poke that left wrong bits,
    /// or a write that ran out of retries), under
    /// [`ProtectionMode::SecDed`]. Every other written row's intended data
    /// is the stored row itself. Empty under [`ProtectionMode::None`] and
    /// without fault injection, where every write stores what it was
    /// given.
    protect: HashMap<RowAddr, RowData>,
    mode: PimConfig,
    stats: MemStats,
    /// Addresses touched since the last [`MainMemory::take_dirty_state`]
    /// (or shard-lifecycle reset), so a session sync can move only what
    /// changed instead of every row a channel owns.
    dirty: DirtyLog,
}

impl MainMemory {
    /// Builds a memory from a configuration.
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        let sense_amp = config
            .technology
            .kind()
            .is_resistive()
            .then(|| CurrentSenseAmp::new(&config.technology));
        let max_or_fan_in = sense_amp.as_ref().map_or(1, CurrentSenseAmp::max_or_fan_in);
        let mut fault = HashMap::new();
        if !config.fault_model.is_none() && sense_amp.is_some() {
            for channel in 0..config.geometry.channels {
                fault.insert(
                    channel,
                    FaultState::for_channel(config.fault_model, channel),
                );
            }
        }
        let reliable_or_fan_in = match config.reliability.reliable_fan_in {
            ReliableFanIn::Margin => max_or_fan_in,
            ReliableFanIn::Yield {
                target_ber,
                trials,
                seed,
            } => sense_amp
                .as_ref()
                .and_then(|sa| sa.reliable_or_fan_in(target_ber, trials, seed).ok())
                .unwrap_or(max_or_fan_in),
            ReliableFanIn::Fixed(limit) => limit.min(max_or_fan_in),
        }
        .max(1);
        MainMemory {
            config,
            sense_amp,
            max_or_fan_in,
            rows: PageTable::default(),
            wear: HashMap::new(),
            act_history: HashMap::new(),
            fault,
            fault_sites: HashMap::new(),
            reliable_or_fan_in,
            protect: HashMap::new(),
            mode: PimConfig::Off,
            stats: MemStats::new(),
            dirty: DirtyLog::default(),
        }
    }

    /// The configuration this memory was built with.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// The geometry (shorthand for `config().geometry`).
    #[must_use]
    pub fn geometry(&self) -> &MemGeometry {
        &self.config.geometry
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets the statistics (not the contents) and returns the old tally.
    /// The activation history is cleared too — its issue times are on the
    /// clock that just restarted at zero.
    pub fn take_stats(&mut self) -> MemStats {
        self.act_history.clear();
        std::mem::take(&mut self.stats)
    }

    /// The current PIM mode-register value.
    #[must_use]
    pub fn pim_config(&self) -> PimConfig {
        self.mode
    }

    /// Largest OR fan-in this memory's SAs support (1 for DRAM). The
    /// margin analysis is static per technology, so the value is computed
    /// once at construction.
    #[must_use]
    pub fn max_or_fan_in(&self) -> usize {
        self.max_or_fan_in
    }

    /// Largest OR fan-in the *protected* sense path will issue in one
    /// activation (see [`ReliableFanIn`]); wider requests are split.
    /// Always `<=` [`MainMemory::max_or_fan_in`].
    #[must_use]
    pub fn reliable_or_fan_in(&self) -> usize {
        self.reliable_or_fan_in
    }

    /// Whether fault injection is active (a non-none model on a resistive
    /// technology).
    #[must_use]
    pub fn fault_injection_active(&self) -> bool {
        !self.fault.is_empty()
    }

    /// Sets the PIM mode register, charging a mode-register-set command.
    /// Setting the already-current mode is free (the driver library caches
    /// the MR value, §5).
    pub fn set_pim_config(&mut self, cfg: PimConfig) {
        if cfg == self.mode {
            return;
        }
        self.mode = cfg;
        self.stats.time_ns += self.config.timing.t_mrs_ns;
        self.stats.time.mrs_ns += self.config.timing.t_mrs_ns;
        self.stats.events.mode_sets += 1;
    }

    /// Forces the PIM mode register without charging anything. Used by
    /// execution sessions to prime a channel shard (or the unified memory,
    /// for a channel-straddling request) to the mode the serial command
    /// stream would have left behind, so the executing side's own
    /// [`MainMemory::set_pim_config`] charges exactly the MRS commands the
    /// serial execution would have.
    pub fn preload_pim_config(&mut self, cfg: PimConfig) {
        self.mode = cfg;
    }

    /// Direct (zero-cost) view of a row's contents — for assertions and
    /// result extraction, not for modelling traffic.
    #[must_use]
    pub fn peek_row(&self, addr: RowAddr) -> Option<&RowData> {
        self.rows.get(addr)
    }

    /// Direct (zero-cost) store into a row — for test setup / workload
    /// initialization where the loading traffic is not part of the
    /// measured experiment.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] for invalid addresses and
    /// [`MemError::ColsExceedRow`] if `data` is wider than a row. With
    /// fault injection and `verify_writes` enabled, pokes that cannot land
    /// on the defective cells report [`MemError::UncorrectableWrite`] —
    /// setup data must really be in the array for later senses to mean
    /// anything.
    pub fn poke_row(&mut self, addr: RowAddr, data: &RowData) -> Result<(), MemError> {
        self.poke(addr, Cow::Borrowed(data))
    }

    /// [`MainMemory::poke_row`] taking the image by value: a caller that
    /// built the row only to store it hands it over instead of having it
    /// cloned.
    ///
    /// # Errors
    ///
    /// As [`MainMemory::poke_row`].
    pub fn poke_row_owned(&mut self, addr: RowAddr, data: RowData) -> Result<(), MemError> {
        self.poke(addr, Cow::Owned(data))
    }

    fn poke(&mut self, addr: RowAddr, data: Cow<'_, RowData>) -> Result<(), MemError> {
        self.validate_addr(addr)?;
        self.validate_cols(data.len_bits())?;
        // Without fault injection every cell holds what was written, so
        // the stored row is its own intended image and keeps none.
        if self.fault.is_empty() {
            self.store(addr, data.into_owned());
            return Ok(());
        }
        let data = data.as_ref();
        // Setup DMA still goes through the physical write path (the image
        // must land on the real, possibly defective cells) but charges no
        // time/energy/wear; the retry loop models the DMA engine's own
        // program-and-verify.
        let verify = self.config.reliability.verify_writes;
        let mut attempt: u32 = 0;
        loop {
            let bad = self.store_physical(addr, data, WriteSource::Bus);
            self.stats.reliability.injected_write_faults += bad;
            if bad == 0 || !verify {
                self.record_protection(addr, data, bad);
                self.note_unverified_store(addr, data, bad);
                if verify && attempt > 0 {
                    self.stats.reliability.corrected_errors += 1;
                }
                return Ok(());
            }
            if attempt == 0 {
                self.stats.reliability.detected_errors += 1;
            }
            if attempt >= self.config.reliability.max_write_retries {
                self.record_protection(addr, data, bad);
                self.stats.reliability.uncorrectable_errors += 1;
                return Err(MemError::UncorrectableWrite {
                    addr,
                    bad_bits: bad,
                });
            }
            attempt += 1;
            self.stats.reliability.write_retries += 1;
        }
    }

    /// Multi-row activation followed by sensing under `mode`, producing
    /// the first `cols` bits of the combined row (paper §4.1,
    /// intra-subarray operations).
    ///
    /// All rows must belong to one subarray. The command charges one
    /// multi-activate (tRCD + command-rate extra activations), the
    /// necessary sense passes through the SA mux, and a precharge.
    ///
    /// # Errors
    ///
    /// * [`MemError::AddressOutOfRange`] / [`MemError::SubarrayMismatch`] /
    ///   [`MemError::ColsExceedRow`] / [`MemError::EmptyOperation`] on
    ///   geometry violations;
    /// * [`MemError::Nvm`] when the fan-in exceeds the SA margin or the
    ///   LWL latch capacity, or when this memory is DRAM (no current SA).
    pub fn multi_activate_sense(
        &mut self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
    ) -> Result<RowData, MemError> {
        self.multi_activate_sense_full(operands, mode, cols)
            .map(|(out, _)| out)
    }

    /// [`MainMemory::multi_activate_sense`], additionally returning the
    /// word-wise functional truth of the combine when faults are injected
    /// (`None` otherwise — the output *is* the truth), so the recovery
    /// ladder can tally silent corruption without recombining the operand
    /// rows.
    fn multi_activate_sense_full(
        &mut self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
    ) -> Result<(RowData, Option<RowData>), MemError> {
        self.open_rows(operands, mode, cols)?;
        // Functional combine, word-wise over the open rows. With fault
        // injection enabled the returned value is instead re-derived by
        // physical sensing; the word-wise result serves as the ground
        // truth for the injected-error tally and rides back to the caller.
        let truth = self.functional_combine(operands, mode, cols);
        let (out, truth) = if self.fault.is_empty() {
            (truth, None)
        } else {
            (
                self.sense_physical(operands, mode, cols, &truth),
                Some(truth),
            )
        };
        self.charge_activation(operands, cols);
        Ok((out, truth))
    }

    /// A re-calibrated retry of a faulty sense: the same validation, latch
    /// protocol, physical sense and charges as
    /// [`MainMemory::multi_activate_sense_full`], against the functional
    /// `truth` the recovery ladder already holds (the operand rows have not
    /// changed since it was combined, so recombining them would rebuild it
    /// bit for bit).
    fn reactivate_sense(
        &mut self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
        truth: &RowData,
    ) -> Result<RowData, MemError> {
        self.open_rows(operands, mode, cols)?;
        let out = self.sense_physical(operands, mode, cols, truth);
        self.charge_activation(operands, cols);
        Ok(out)
    }

    /// Validates one multi-row activation and exercises the LWL latch
    /// protocol for its rows.
    fn open_rows(&self, operands: &[RowAddr], mode: SenseMode, cols: u64) -> Result<(), MemError> {
        self.validate_cols_nonzero(cols)?;
        self.require_sense_amp()?;
        // Fan-in check against the cached margin-analysis result (the
        // analysis itself is static per technology).
        if let SenseMode::Or { fan_in } = mode {
            if fan_in > self.max_or_fan_in {
                return Err(MemError::Nvm(pinatubo_nvm::NvmError::FanInExceeded {
                    requested: fan_in,
                    supported: self.max_or_fan_in,
                }));
            }
        }
        if operands.len() != mode.fan_in() {
            // A mismatch between open rows and reference configuration is a
            // driver bug; surface it as a degenerate fan-in.
            return Err(MemError::Nvm(pinatubo_nvm::NvmError::DegenerateFanIn));
        }
        let (&first, rest) = operands
            .split_first()
            .ok_or(MemError::Nvm(pinatubo_nvm::NvmError::DegenerateFanIn))?;
        self.validate_addr(first)?;
        for &other in rest {
            self.validate_addr(other)?;
            if !first.same_subarray(&other) {
                return Err(MemError::SubarrayMismatch { first, other });
            }
        }

        // Exercise the LWL latch protocol (Fig. 7): RESET, then accumulate.
        let mut lwl = LwlDriverBank::new(self.max_or_fan_in().max(2));
        lwl.reset();
        for op in operands {
            lwl.latch(op.row as usize)?;
        }
        Ok(())
    }

    /// Charges one multi-row activation of `operands`, `cols` bits wide:
    /// the tRRD/tFAW gate, activate, sense passes and precharge.
    fn charge_activation(&mut self, operands: &[RowAddr], cols: u64) {
        let first = operands[0];
        let g = &self.config.geometry;
        let passes = g.sense_passes(cols);
        let row_bits = g.logical_row_bits();
        let t = &self.config.timing;
        let e = &self.config.energy;
        // tRRD/tFAW gate. The serial stream already spaces activations
        // by a full command (≥ tRCD ≥ tRRD at both presets), so this
        // only stalls under deliberately tight parameters; the batch
        // scheduler applies the same gate where bank lanes overlap.
        let history = self
            .act_history
            .entry((first.channel, first.rank))
            .or_default();
        let issue = t.earliest_activation_ns(history, self.stats.time_ns);
        let stall = issue - self.stats.time_ns;
        history.push(issue);
        if history.len() > 4 {
            history.remove(0);
        }
        self.dirty.acts.insert(first.channel);
        if stall > 0.0 {
            self.stats.time_ns += stall;
            self.stats.time.stall_ns += stall;
        }
        let act_ns = t.multi_activate_ns(operands.len());
        let sense_ns = passes as f64 * t.t_cl_ns;
        self.stats.time_ns += act_ns + sense_ns;
        self.stats.time.activate_ns += act_ns;
        self.stats.time.sense_ns += sense_ns;
        self.stats.energy.activate_pj += e.activate_pj(operands.len(), row_bits);
        self.stats.energy.sense_pj += e.sense_pj(cols);
        if operands.len() == 1 {
            self.stats.events.activates += 1;
        } else {
            self.stats.events.multi_activates += 1;
        }
        self.stats.events.rows_activated += operands.len() as u64;
        self.stats.events.sense_passes += passes;
        // Closed-page policy: every activation precharges, so the next
        // reference configuration starts clean.
        self.stats.time_ns += t.t_rp_ns;
        self.stats.time.precharge_ns += t.t_rp_ns;
        self.stats.energy.precharge_pj += e.precharge_pj(row_bits);
        self.stats.events.precharges += 1;
    }

    /// Reads the first `cols` bits of one row into the subarray's SA latch
    /// (a plain activate + sense, no data movement beyond the mats).
    ///
    /// With fault injection and [`ProtectionMode::SecDed`], single-bit
    /// errors are corrected in place from the syndrome — no retry is
    /// issued — and only double-bit detections pay the retry ladder: up to
    /// `max_sense_retries` re-calibrated re-reads (each charged one MRS
    /// plus a full re-activation) before giving up.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MainMemory::multi_activate_sense`], plus
    /// [`MemError::UncorrectableRead`] when the protection check never
    /// accepts a sense.
    pub fn activate_read(&mut self, addr: RowAddr, cols: u64) -> Result<RowData, MemError> {
        let (data, truth) = self.multi_activate_sense_full(&[addr], SenseMode::Read, cols)?;
        if self.config.reliability.protection == ProtectionMode::SecDed {
            // The checker runs on every read, faults present or not — the
            // syndrome pass is part of the datapath, not of recovery.
            self.charge_ecc_check(cols);
        }
        let Some(truth) = truth else {
            return Ok(data);
        };
        if self.config.reliability.protection == ProtectionMode::SecDed {
            return self.secded_read(addr, cols, data, &truth);
        }
        self.note_accepted(&truth, &data);
        Ok(data)
    }

    /// [`MainMemory::multi_activate_sense`] wrapped in the recovery ladder
    /// (paper-faithful costs at every step):
    ///
    /// 1. **fan-in splitting** — ORs wider than
    ///    [`MainMemory::reliable_or_fan_in`] are proactively split into
    ///    chunks and merged digitally in the row buffer;
    /// 2. **duplicate sensing** — each activation is sensed twice
    ///    (`duplicate_sense`); disagreement means a transient fault was
    ///    caught in the act;
    /// 3. **bounded retry with re-calibration** — up to
    ///    `max_sense_retries` MRS-charged re-activations;
    /// 4. **explicit failure** — [`MemError::SenseUnstable`], the caller's
    ///    cue to fall back to the read-modify-write path.
    ///
    /// Without fault injection this is exactly
    /// [`MainMemory::multi_activate_sense`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`MainMemory::multi_activate_sense`], plus
    /// [`MemError::SenseUnstable`] as described.
    pub fn multi_activate_sense_protected(
        &mut self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
    ) -> Result<RowData, MemError> {
        if self.fault.is_empty() {
            return self.multi_activate_sense(operands, mode, cols);
        }
        if let SenseMode::Or { fan_in } = mode {
            if operands.len() == fan_in && fan_in > self.reliable_or_fan_in {
                return self.split_or(operands, cols);
            }
        }
        self.sense_stable(operands, mode, cols)
    }

    /// Records that the caller is re-running an unstable PIM sense through
    /// its read-modify-write fallback path.
    pub fn note_rmw_fallback(&mut self) {
        self.stats.reliability.rmw_fallbacks += 1;
    }

    /// Records that a detected error was resolved outside the controller
    /// (e.g. the engine's RMW fallback recomputed the result).
    pub fn note_recovery_resolved(&mut self) {
        self.stats.reliability.corrected_errors += 1;
    }

    /// Records that a detected error survived even the caller's fallback.
    pub fn note_recovery_failed(&mut self) {
        self.stats.reliability.uncorrectable_errors += 1;
    }

    /// Reads a row and moves it over the global data lines into the bank's
    /// global row buffer (first half of an inter-subarray operation).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MainMemory::activate_read`].
    pub fn read_row_to_buffer(&mut self, addr: RowAddr, cols: u64) -> Result<RowData, MemError> {
        let data = self.activate_read(addr, cols)?;
        self.charge_gdl(cols);
        Ok(data)
    }

    /// Reads a row into the chip I/O buffer: one GDL hop to the bank's
    /// global row buffer plus a second hop to the I/O buffer (the
    /// inter-bank operand path of Fig. 3a).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MainMemory::activate_read`].
    pub fn read_row_to_io_buffer(&mut self, addr: RowAddr, cols: u64) -> Result<RowData, MemError> {
        let data = self.read_row_to_buffer(addr, cols)?;
        self.charge_gdl(cols);
        Ok(data)
    }

    /// Writes a row from the chip I/O buffer (two GDL hops + array write).
    ///
    /// # Errors
    ///
    /// Returns address/width errors as in [`MainMemory::poke_row`].
    pub fn write_row_from_io_buffer(
        &mut self,
        addr: RowAddr,
        data: RowData,
    ) -> Result<(), MemError> {
        self.validate_addr(addr)?;
        self.validate_cols_nonzero(data.len_bits())?;
        self.charge_gdl(data.len_bits());
        self.write_row_from_buffer(addr, data)
    }

    /// Reads a row all the way over the DDR bus (conventional read used by
    /// processor-centric execution).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MainMemory::activate_read`].
    pub fn read_row_over_bus(&mut self, addr: RowAddr, cols: u64) -> Result<RowData, MemError> {
        let data = self.read_row_to_buffer(addr, cols)?;
        self.charge_bus(cols);
        Ok(data)
    }

    /// Charges the export of an operation result from the sense amplifiers
    /// to the host (GDL + DDR bus), without touching functional state —
    /// the cost a design *without* the Fig. 8a write-driver modification
    /// pays before it can write a result back conventionally.
    pub fn charge_result_export(&mut self, cols: u64) {
        self.charge_gdl(cols);
        self.charge_bus(cols);
    }

    /// Writes a row through the local write drivers, fed directly from the
    /// SA output (the in-place update path of Fig. 8a). No GDL or bus
    /// traffic.
    ///
    /// # Errors
    ///
    /// Returns address/width errors as in [`MainMemory::poke_row`].
    pub fn write_row_local(&mut self, addr: RowAddr, data: RowData) -> Result<(), MemError> {
        self.validate_addr(addr)?;
        self.validate_cols_nonzero(data.len_bits())?;
        self.program_row(addr, data, true)
    }

    /// Writes a row from the bank's global row buffer (GDL transfer + array
    /// write) — the tail of an inter-subarray/inter-bank operation.
    ///
    /// # Errors
    ///
    /// Returns address/width errors as in [`MainMemory::poke_row`].
    pub fn write_row_from_buffer(&mut self, addr: RowAddr, data: RowData) -> Result<(), MemError> {
        self.validate_addr(addr)?;
        self.validate_cols_nonzero(data.len_bits())?;
        self.charge_gdl(data.len_bits());
        self.program_row(addr, data, false)
    }

    /// Writes a row arriving over the DDR bus (conventional write).
    ///
    /// # Errors
    ///
    /// Returns address/width errors as in [`MainMemory::poke_row`].
    pub fn write_row_over_bus(&mut self, addr: RowAddr, data: RowData) -> Result<(), MemError> {
        self.validate_addr(addr)?;
        self.validate_cols_nonzero(data.len_bits())?;
        self.charge_bus(data.len_bits());
        self.write_row_from_buffer(addr, data)
    }

    /// A digital bitwise pass in a global row / IO buffer (paper Fig. 8b):
    /// combines `operand` into `acc` under `config`. Charges logic energy;
    /// the data movement feeding the logic is charged by the surrounding
    /// reads/writes, and the gates add no visible latency at GDL streaming
    /// rates.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::EmptyOperation`] for zero-length operands, and
    /// [`MemError::Nvm`] if `config` names a non-combining mode
    /// ([`PimConfig::Off`] / [`PimConfig::Inv`]).
    pub fn buffer_logic(
        &mut self,
        config: PimConfig,
        acc: &mut RowData,
        operand: &RowData,
        cols: u64,
    ) -> Result<(), MemError> {
        self.validate_cols_nonzero(cols)?;
        match config {
            PimConfig::Or => acc.or_assign(operand),
            PimConfig::And => acc.and_assign(operand),
            PimConfig::Xor => acc.xor_assign(operand),
            PimConfig::Off | PimConfig::Inv => {
                return Err(MemError::Nvm(pinatubo_nvm::NvmError::DegenerateFanIn))
            }
        }
        self.stats.energy.logic_pj += self.config.energy.logic_pj(cols);
        self.stats.events.logic_passes += 1;
        Ok(())
    }

    /// Write-wear summary over every charged row write (pokes are setup
    /// and do not count).
    #[must_use]
    pub fn wear_report(&self) -> crate::stats::WearReport {
        crate::stats::WearReport {
            total_row_writes: self.wear.values().sum(),
            rows_written: self.wear.len() as u64,
            max_row_writes: self.wear.values().copied().max().unwrap_or(0),
        }
    }

    /// Writes charged against one row so far.
    #[must_use]
    pub fn row_wear(&self, addr: RowAddr) -> u64 {
        self.wear.get(&addr).copied().unwrap_or(0)
    }

    /// Rows whose charged write count has reached `write_limit` — the
    /// candidates an endurance manager retires from the allocation pool.
    #[must_use]
    pub fn worn_rows(&self, write_limit: u64) -> Vec<RowAddr> {
        let mut rows: Vec<RowAddr> = self
            .wear
            .iter()
            .filter(|&(_, &writes)| writes >= write_limit)
            .map(|(&addr, _)| addr)
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Charged row writes summed per channel, indexed by channel number.
    /// The input a wear-aware placement policy needs: a channel whose
    /// total is far above its peers is being burned by hot data and
    /// should stop receiving new allocations until the others catch up.
    #[must_use]
    pub fn channel_wear_totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.config.geometry.channels as usize];
        for (addr, &writes) in &self.wear {
            totals[addr.channel as usize] += writes;
        }
        totals
    }

    /// Inverts `data` through the SA's differential output while writing it
    /// back (INV support, §4.2). Charges one logic-free sense-side pass —
    /// the inversion is literally the other latch output, so only the
    /// write is extra and the caller performs it separately. Consumes the
    /// sensed buffer (the latch flips in place; no copy exists in silicon
    /// and none is made here).
    #[must_use]
    pub fn invert_in_sense_amp(&self, mut data: RowData) -> RowData {
        data.invert();
        data
    }

    // ---- internal helpers ----

    fn require_sense_amp(&self) -> Result<&CurrentSenseAmp, MemError> {
        self.sense_amp
            .as_ref()
            .ok_or(MemError::Nvm(pinatubo_nvm::NvmError::FanInExceeded {
                requested: 2,
                supported: 1,
            }))
    }

    fn validate_addr(&self, addr: RowAddr) -> Result<(), MemError> {
        if addr.is_valid(&self.config.geometry) {
            Ok(())
        } else {
            Err(MemError::AddressOutOfRange { addr })
        }
    }

    fn validate_cols(&self, cols: u64) -> Result<(), MemError> {
        let row_bits = self.config.geometry.logical_row_bits();
        if cols > row_bits {
            Err(MemError::ColsExceedRow { cols, row_bits })
        } else {
            Ok(())
        }
    }

    fn validate_cols_nonzero(&self, cols: u64) -> Result<(), MemError> {
        if cols == 0 {
            return Err(MemError::EmptyOperation);
        }
        self.validate_cols(cols)
    }

    /// Loads the first `cols` bits of a row (absent rows read as zeros —
    /// the simulator's initial array state).
    fn load(&self, addr: RowAddr, cols: u64) -> RowData {
        match self.peek_row(addr) {
            Some(row) => {
                let mut out = row.clone();
                out.resize(cols);
                out
            }
            None => RowData::zeros(cols),
        }
    }

    fn store(&mut self, addr: RowAddr, data: RowData) {
        // Rows are stored at their written length, not padded to the full
        // 2^19-bit row: reads zero-extend (`load`), which keeps the host
        // memory footprint proportional to the bits actually used. Takes
        // the buffer by value — the physical write path moves the image it
        // just built instead of cloning it. Writing into a page currently
        // shared with a mirror or snapshot deep-copies the page first
        // (copy-on-write); `row_pages_copied` counts those so tooling can
        // pin that session setup and sync stay O(touched state).
        let (page, _) = PageId::of(addr);
        self.dirty.pages.insert(page);
        if self.rows.insert(addr, data) {
            self.stats.row_pages_copied += 1;
        }
    }

    /// Word-wise combine over the operand rows — the functional ground
    /// truth of a multi-row sense, built in one blocked pass. Each
    /// operand's stored words are looked up once; the output grows a
    /// block of [`COMBINE_BLOCK_WORDS`] at a time: the first operand's
    /// words (zero-extended past a shorter row, cut at `cols` for a wider
    /// one), then every further operand ORed or ANDed in while the block
    /// sits in L1 (an AND also zeroes what an absent or shorter row does
    /// not cover), and the tail is masked once at the end. Each operand
    /// row is read once and the output written once, and stored tails are
    /// always masked, so the bits equal a fold over the zero-extended rows.
    fn functional_combine(&self, operands: &[RowAddr], mode: SenseMode, cols: u64) -> RowData {
        let rows: Vec<&[u64]> = operands
            .iter()
            .map(|&addr| self.peek_row(addr).map_or(&[][..], RowData::as_words))
            .collect();
        let (first, rest) = rows.split_first().expect("operands are non-empty");
        /// The words of `row` inside `start..end`, empty past its end.
        fn clip(row: &[u64], start: usize, end: usize) -> &[u64] {
            &row[start.min(row.len())..end.min(row.len())]
        }
        let len = cols.div_ceil(64) as usize;
        let mut out = Vec::with_capacity(len);
        for start in (0..len).step_by(COMBINE_BLOCK_WORDS) {
            let end = (start + COMBINE_BLOCK_WORDS).min(len);
            out.extend_from_slice(clip(first, start, end));
            out.resize(end, 0);
            let block = &mut out[start..end];
            for row in rest {
                let words = clip(row, start, end);
                match mode {
                    SenseMode::Read => {}
                    SenseMode::Or { .. } => block.iter_mut().zip(words).for_each(|(a, b)| *a |= b),
                    SenseMode::And => {
                        block.iter_mut().zip(words).for_each(|(a, b)| *a &= b);
                        // An absent or shorter row reads as zeros there.
                        block[words.len()..].fill(0);
                    }
                }
            }
        }
        RowData::from_words(out, cols)
    }

    /// One charged write, with program-and-verify when faults and
    /// `verify_writes` are enabled: every attempt pays the full write
    /// (time, energy, wear) plus one read-back sense pass for the verify.
    /// Takes the buffer by value: the fault-free path stores the caller's
    /// image directly instead of cloning it (and, like a fault-free poke,
    /// keeps no intended image: the stored row is the intended data).
    fn program_row(&mut self, addr: RowAddr, data: RowData, local: bool) -> Result<(), MemError> {
        let bits = data.len_bits();
        if self.fault.is_empty() {
            self.charge_write(addr, bits);
            self.store(addr, data);
            return Ok(());
        }
        let verify = self.config.reliability.verify_writes;
        let source = if local {
            WriteSource::SenseAmp
        } else {
            WriteSource::Bus
        };
        let mut attempt: u32 = 0;
        loop {
            let bad = self.store_physical(addr, &data, source);
            self.charge_write(addr, bits);
            self.stats.reliability.injected_write_faults += bad;
            if !verify {
                // Unverified: the SEC-DED check bytes (of the intended
                // data) still repair or flag the corruption at read time;
                // with protection off, or when the corruption aliases the
                // code, the wrong bits are silent.
                self.record_protection(addr, &data, bad);
                self.note_unverified_store(addr, &data, bad);
                return Ok(());
            }
            self.charge_verify_pass(bits);
            if bad == 0 {
                self.record_protection(addr, &data, 0);
                if attempt > 0 {
                    self.stats.reliability.corrected_errors += 1;
                }
                return Ok(());
            }
            if attempt == 0 {
                self.stats.reliability.detected_errors += 1;
            }
            if attempt >= self.config.reliability.max_write_retries {
                self.record_protection(addr, &data, bad);
                self.stats.reliability.uncorrectable_errors += 1;
                return Err(MemError::UncorrectableWrite {
                    addr,
                    bad_bits: bad,
                });
            }
            attempt += 1;
            self.stats.reliability.write_retries += 1;
        }
    }

    /// Duplicate-sense ladder for one activation: sense, confirm with a
    /// second (sense-only) pass, retry with re-calibration on
    /// disagreement, surface [`MemError::SenseUnstable`] when the budget
    /// runs out.
    fn sense_stable(
        &mut self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
    ) -> Result<RowData, MemError> {
        let (first, truth) = self.multi_activate_sense_full(operands, mode, cols)?;
        let truth = truth.expect("the protected path only reaches here with faults injected");
        if !self.config.reliability.duplicate_sense {
            self.note_accepted(&truth, &first);
            return Ok(first);
        }
        if self.resense(operands, mode, cols, &truth) == first {
            self.note_accepted(&truth, &first);
            return Ok(first);
        }
        self.stats.reliability.detected_errors += 1;
        let retries = self.config.reliability.max_sense_retries;
        for _ in 0..retries {
            self.stats.reliability.sense_retries += 1;
            self.charge_recalibration();
            let again = self.reactivate_sense(operands, mode, cols, &truth)?;
            if self.resense(operands, mode, cols, &truth) == again {
                self.stats.reliability.corrected_errors += 1;
                self.note_accepted(&truth, &again);
                return Ok(again);
            }
        }
        Err(MemError::SenseUnstable {
            addr: operands[0],
            retries,
        })
    }

    /// Splits an over-wide OR into reliable-width chunks, each run through
    /// the duplicate-sense ladder, merged digitally in the row buffer.
    fn split_or(&mut self, operands: &[RowAddr], cols: u64) -> Result<RowData, MemError> {
        self.stats.reliability.fan_in_splits += 1;
        let limit = self.reliable_or_fan_in.max(1);
        let mut acc: Option<RowData> = None;
        for chunk in operands.chunks(limit) {
            let mode = if chunk.len() >= 2 {
                SenseMode::or(chunk.len()).map_err(MemError::from)?
            } else {
                SenseMode::Read
            };
            let part = self.sense_stable(chunk, mode, cols)?;
            match &mut acc {
                None => acc = Some(part),
                Some(acc) => self.buffer_logic(PimConfig::Or, acc, &part, cols)?,
            }
        }
        Ok(acc.expect("operands are non-empty"))
    }

    /// A duplicate sense re-fires the SA strip while the rows stay open:
    /// the column passes and sense energy are paid again, the activation
    /// is not.
    fn resense(
        &mut self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
        truth: &RowData,
    ) -> RowData {
        self.charge_verify_pass(cols);
        self.sense_physical(operands, mode, cols, truth)
    }

    /// Tallies wrong bits in a result the recovery machinery accepted as
    /// correct — the silent-corruption metric. `truth` is the word-wise
    /// functional combine the sense already computed; nothing is re-read.
    fn note_accepted(&mut self, truth: &RowData, out: &RowData) {
        self.stats.reliability.silent_wrong_bits += out.count_diff(truth);
    }

    /// One read-back / duplicate sense: the column passes through the SA
    /// mux plus sense energy, no activation or precharge.
    fn charge_verify_pass(&mut self, bits: u64) {
        let passes = self.config.geometry.sense_passes(bits);
        let t = passes as f64 * self.config.timing.t_cl_ns;
        self.stats.time_ns += t;
        self.stats.time.sense_ns += t;
        self.stats.energy.sense_pj += self.config.energy.sense_pj(bits);
        self.stats.events.sense_passes += passes;
    }

    /// Re-calibrating the sense reference re-programs the mode register:
    /// one MRS-class command.
    fn charge_recalibration(&mut self) {
        self.stats.time_ns += self.config.timing.t_mrs_ns;
        self.stats.time.mrs_ns += self.config.timing.t_mrs_ns;
        self.stats.events.mode_sets += 1;
    }

    fn charge_write(&mut self, addr: RowAddr, bits: u64) {
        self.stats.time_ns += self.config.timing.t_wr_ns;
        self.stats.time.write_ns += self.config.timing.t_wr_ns;
        self.stats.energy.write_pj += self.config.energy.write_pj(bits);
        if self.config.reliability.protection == ProtectionMode::SecDed {
            self.charge_ecc_encode(bits);
        }
        self.stats.events.row_writes += 1;
        self.dirty.wear.insert(addr);
        *self.wear.entry(addr).or_insert(0) += 1;
    }

    fn charge_gdl(&mut self, bits: u64) {
        let cycles = self.config.geometry.gdl_cycles(bits);
        self.stats.time_ns += cycles as f64 * self.config.timing.t_gdl_cycle_ns;
        self.stats.time.gdl_ns += cycles as f64 * self.config.timing.t_gdl_cycle_ns;
        self.stats.energy.gdl_pj += self.config.energy.gdl_pj(bits);
        self.stats.events.gdl_transfers += 1;
    }

    fn charge_bus(&mut self, bits: u64) {
        self.stats.time_ns += self.config.timing.bus_transfer_ns(bits);
        self.stats.time.bus_ns += self.config.timing.bus_transfer_ns(bits);
        self.stats.energy.bus_pj += self.config.energy.bus_pj(bits);
        self.stats.events.bus_bursts += bits.div_ceil(self.config.timing.burst_bits());
        self.stats.events.bus_bits += bits;
    }
}

#[cfg(test)]
mod tests;
