//! The memory controller: functional state plus per-command accounting.
//!
//! [`MainMemory`] owns the (sparse) array contents and executes the
//! extended-DDR command vocabulary of [`crate::commands`], charging time
//! and energy from the [`pinatubo_nvm`] parameter tables into
//! [`crate::stats::MemStats`].
//!
//! The controller is *serial*: commands execute one after another and time
//! adds up. That matches how the paper drives PIM operations (one extended
//! instruction stream through one DDR command bus); channel-level
//! parallelism for conventional CPU traffic is modelled by the baselines
//! where it matters.

use crate::address::RowAddr;
use crate::array::RowData;
use crate::commands::{MemCommand, PimConfig};
use crate::geometry::MemGeometry;
use crate::page::{PageId, PageTable, RowPage};
use crate::stats::MemStats;
use crate::MemError;
use pinatubo_nvm::energy::EnergyParams;
use pinatubo_nvm::fault::{CellHealth, CellId, EventKey, FaultModel, FaultState};
use pinatubo_nvm::lwl_driver::LwlDriverBank;
use pinatubo_nvm::resistance::Ohms;
use pinatubo_nvm::sense_amp::{CurrentSenseAmp, SenseMode};
use pinatubo_nvm::technology::Technology;
use pinatubo_nvm::timing::TimingParams;
use pinatubo_nvm::write_driver::{WriteDriver, WriteSource};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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
/// Both non-trivial modes keep per-row metadata computed from the
/// *intended* data at write time (the metadata store itself is modeled
/// reliable, as a real design would protect it with stronger coding) and
/// check it on every single-row read. They differ in what a mismatch can
/// do about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtectionMode {
    /// No stored metadata, nothing checked: corruption is silent.
    None,
    /// One parity bit per 64-bit word. Detection only: any mismatch pays
    /// the re-calibrated retry ladder, and an even number of flips per
    /// word aliases the parity and escapes silently.
    Parity,
    /// A (72,64) Hamming SEC-DED check byte per 64-bit word
    /// ([`crate::secded`]; 12.5 % storage overhead, charged). Single-bit
    /// errors are corrected in place without touching the retry ladder;
    /// double-bit detections still fall through to it.
    SecDed,
}

/// Detection and recovery policy for the fault-injected memory.
///
/// With the default ([`ReliabilityConfig::off`]) nothing is checked: faults
/// (if any are modeled) corrupt results silently, which is exactly what the
/// error-rate sweeps want to measure. [`ReliabilityConfig::protected`]
/// enables the full detect/retry ladder the controller implements:
/// program-and-verify on writes, per-row parity on reads, duplicate sensing
/// with reference re-calibration on PIM activations, and proactive fan-in
/// splitting at the yield-analysis limit.
/// [`ReliabilityConfig::protected_secded`] upgrades the read-path rung to
/// in-place SEC-DED correction.
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

    /// The full recovery ladder with the paper-calibrated yield limit.
    #[must_use]
    pub fn protected() -> Self {
        ReliabilityConfig {
            verify_writes: true,
            protection: ProtectionMode::Parity,
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

    /// [`ReliabilityConfig::protected`] with the read-path rung upgraded
    /// from parity detection to SEC-DED correction.
    #[must_use]
    pub fn protected_secded() -> Self {
        ReliabilityConfig {
            protection: ProtectionMode::SecDed,
            ..ReliabilityConfig::protected()
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
    /// Record every command into an inspectable trace (tests, debugging).
    pub record_trace: bool,
    /// Open-page row-buffer policy: single-row reads that hit the
    /// currently open row of a subarray skip activation and precharge.
    /// Off by default (closed-page), matching the calibrated figures;
    /// multi-row PIM activations always close the page.
    pub open_page: bool,
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
            record_trace: false,
            open_page: false,
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
            record_trace: false,
            open_page: false,
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
    /// Open-page state: the row currently latched in each subarray's row
    /// buffer (open-page policy only).
    open_rows: HashMap<crate::address::SubarrayId, u32>,
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
    /// Per-row protection metadata, keyed by row, computed from the
    /// *intended* data on every write: packed parity words (one bit per
    /// 64-bit data word) under [`ProtectionMode::Parity`], packed SEC-DED
    /// check bytes (one per data word) under [`ProtectionMode::SecDed`].
    /// Stored as `(intended_len_bits, metadata_words)`; empty under
    /// [`ProtectionMode::None`].
    protect: HashMap<RowAddr, (u64, Vec<u64>)>,
    mode: PimConfig,
    stats: MemStats,
    trace: Vec<MemCommand>,
    /// Addresses touched since the last [`MainMemory::take_dirty_state`]
    /// (or shard-lifecycle reset), so a session sync can move only what
    /// changed instead of every row a channel owns.
    dirty: DirtyLog,
}

/// One cached [`FaultModel::row_fault_sites`] result: the ascending
/// `(bit, held value)` fault sites of a row at a given wear level, over
/// the first `cols` columns.
#[derive(Debug, Clone)]
struct CachedRowSites {
    writes: u64,
    cols: u64,
    sites: Vec<(u64, bool)>,
}

/// Whole-row verdict of one SEC-DED syndrome pass
/// ([`MainMemory::secded_scan`]).
#[derive(Debug, PartialEq, Eq)]
enum SecdedScan {
    /// Every checkable word decoded clean.
    Clean,
    /// Some words carried single-bit errors, all corrected in place.
    Corrected {
        /// Data bits flipped back.
        bits: u64,
        /// Ascending indices of the corrected words (their divergence
        /// from the functional truth is repair, not silent corruption).
        words: Vec<usize>,
    },
    /// At least one word decoded as an uncorrectable double-bit error.
    Double,
}

/// Keys of the functional state mutated since the last drain. Maintained
/// by the store/wear/protection-metadata/open-page/fault mutation paths
/// themselves, so the log is exact regardless of which command touched
/// the state. Row writes are logged at page granularity: a delta ships
/// the whole (Arc'd) page, so finer tracking would buy nothing.
#[derive(Debug, Default)]
struct DirtyLog {
    pages: HashSet<PageId>,
    wear: HashSet<RowAddr>,
    protect: HashSet<RowAddr>,
    open: HashSet<crate::address::SubarrayId>,
    fault: HashSet<u32>,
    /// Channels whose tRRD/tFAW activation history advanced. Shipped as
    /// *relative* offsets (entry − local now) so receivers on a different
    /// clock can re-anchor them — the scheduler's command-granularity
    /// interleaving needs the window to survive a sync.
    acts: HashSet<u32>,
}

/// The state one channel's owner must ship to bring a stale mirror up to
/// date: exactly the row pages, wear counters, protection metadata
/// (parity words or SEC-DED check bytes), open-page entries and
/// fault-stream position touched since the last drain.
/// Produced by [`MainMemory::take_dirty_state`], consumed by
/// [`MainMemory::apply_delta`]. Dirty pages travel as `Arc` references —
/// O(1) each, no row data cloned — and the receiver installs them
/// wholesale, re-sharing the page between both sides. Carries no
/// statistics or trace — those are moved separately so a delta can also
/// flow *away* from the ledger owner (e.g. a channel-straddling request
/// on the unified memory pushing its writes back to shards).
#[derive(Debug)]
pub struct ChannelDelta {
    channel: u32,
    pages: Vec<(PageId, Arc<RowPage>)>,
    wear: Vec<(RowAddr, u64)>,
    protect: Vec<(RowAddr, (u64, Vec<u64>))>,
    open: Vec<(crate::address::SubarrayId, Option<u32>)>,
    fault: Option<FaultState>,
    /// Per-rank activation issue times as *relative* offsets from the
    /// sender's clock at drain time (entry − sender now, hence ≤ 0): the
    /// receiver re-anchors them at its own clock, so tRRD/tFAW state
    /// survives a sync without ever shipping an absolute timestamp
    /// (ascending rank order for determinism).
    act_history: Vec<(u32, Vec<f64>)>,
}

impl ChannelDelta {
    fn empty(channel: u32) -> Self {
        ChannelDelta {
            channel,
            pages: Vec::new(),
            wear: Vec::new(),
            protect: Vec::new(),
            open: Vec::new(),
            fault: None,
            act_history: Vec::new(),
        }
    }

    /// The channel whose state this delta carries.
    #[must_use]
    pub fn channel(&self) -> u32 {
        self.channel
    }

    /// Whether the delta carries no state at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
            && self.wear.is_empty()
            && self.protect.is_empty()
            && self.open.is_empty()
            && self.fault.is_none()
            && self.act_history.is_empty()
    }
}

/// Moves the entries of `map` whose key matches `pred` into a new map.
fn drain_matching<K, V>(map: &mut HashMap<K, V>, pred: impl Fn(&K) -> bool) -> HashMap<K, V>
where
    K: Eq + std::hash::Hash + Copy,
{
    let keys: Vec<K> = map.keys().filter(|k| pred(k)).copied().collect();
    keys.into_iter()
        .filter_map(|k| map.remove(&k).map(|v| (k, v)))
        .collect()
}

/// Copies the entries of `map` whose key matches `pred` into a new map.
fn clone_matching<K, V>(map: &HashMap<K, V>, pred: impl Fn(&K) -> bool) -> HashMap<K, V>
where
    K: Eq + std::hash::Hash + Copy,
    V: Clone,
{
    map.iter()
        .filter(|(k, _)| pred(k))
        .map(|(&k, v)| (k, v.clone()))
        .collect()
}

/// Ascending-key snapshot of the entries of `map` whose key matches
/// `pred` — the one way `HashMap` state is ever iterated for
/// deterministic output (digests, delta drains), so the sort lives here
/// instead of at every call site.
fn sorted_matching<K, V>(map: &HashMap<K, V>, pred: impl Fn(&K) -> bool) -> Vec<(K, &V)>
where
    K: Eq + std::hash::Hash + Copy + Ord,
{
    let mut entries: Vec<(K, &V)> = map
        .iter()
        .filter(|(k, _)| pred(k))
        .map(|(&k, v)| (k, v))
        .collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    entries
}

/// Consumes a dirty-key set into an ascending, deterministic drain order.
fn sorted_keys<K: Ord>(set: HashSet<K>) -> Vec<K> {
    let mut keys: Vec<K> = set.into_iter().collect();
    keys.sort_unstable();
    keys
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
            open_rows: HashMap::new(),
            act_history: HashMap::new(),
            fault,
            fault_sites: HashMap::new(),
            reliable_or_fan_in,
            protect: HashMap::new(),
            mode: PimConfig::Off,
            stats: MemStats::new(),
            trace: Vec::new(),
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

    /// The recorded command trace (empty unless `record_trace` is set).
    #[must_use]
    pub fn trace(&self) -> &[MemCommand] {
        &self.trace
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
        self.record(MemCommand::ModeRegisterSet(cfg));
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

    /// Shares everything `channel` owns into an independent worker shard,
    /// *keeping* this memory's copy in place as a stale mirror. The
    /// shard gets the channel's rows, wear, protection metadata,
    /// open-page state and fault-injection stream; configuration and the
    /// cached fan-in analyses are copied (never re-derived — the yield
    /// sweep is a Monte-Carlo run). Row pages are shared by reference
    /// (one `Arc` bump per page, zero row copies — see [`crate::page`]);
    /// either side deep-copies a page only on its first write to it. The
    /// shard owner brings the mirror back up to date by shipping
    /// [`ChannelDelta`]s (see [`MainMemory::take_dirty_state`]) plus its
    /// taken statistics ([`MainMemory::merge_stats`]), which makes both
    /// the clone and a sync cost O(touched state).
    ///
    /// Channels draw from independent fault streams (see
    /// [`FaultState::for_channel`]), so executing on shards consumes
    /// exactly the draws serial execution would, regardless of worker
    /// interleaving.
    ///
    /// Undrained dirty state the parent still holds for the channel is
    /// *retained in the parent's log*, not discarded: it describes state
    /// the parent holds current (the clone shares it by reference), so
    /// the parent's next [`MainMemory::take_dirty_state`] still ships it
    /// to whoever consumes the parent's deltas. The shard starts with an
    /// empty log — at the instant of cloning it is in sync with the
    /// parent, so its deltas need to carry only its own writes.
    ///
    /// The channel's tRRD/tFAW activation history moves to the shard as
    /// *relative* offsets (entry − parent now, hence ≤ 0) and is dropped
    /// on this side — the shard is the channel's writer now, and its sync
    /// deltas carry the advanced history back. The shard's clock starts
    /// at zero, so relative offsets make it see the same "how long ago"
    /// the serial stream would: absolute times would manufacture stalls,
    /// and dropping the history would let the shard's first activation
    /// dodge a window the serial stream still honours under tight
    /// parameters. The shard starts with zeroed statistics and the
    /// parent's current PIM mode. The parent's fault stream for the
    /// channel is *retained* so channel-straddling requests on the
    /// unified memory can keep drawing; the sync protocol replaces it with
    /// the shard's advanced stream before any such draw.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is outside the geometry.
    #[must_use]
    pub fn clone_channel(&mut self, channel: u32) -> MainMemory {
        self.assert_channel_in_geometry(channel);
        let mut shard = self.shard_skeleton();
        shard.rows = self.rows.share_channel(channel);
        shard.wear = clone_matching(&self.wear, |a| a.channel == channel);
        shard.protect = clone_matching(&self.protect, |a| a.channel == channel);
        shard.open_rows = clone_matching(&self.open_rows, |id| id.channel == channel);
        let now = self.stats.time_ns;
        for (key, hist) in drain_matching(&mut self.act_history, |&(ch, _)| ch == channel) {
            shard
                .act_history
                .insert(key, hist.iter().map(|&t| t - now).collect());
        }
        if let Some(state) = self.fault.get(&channel) {
            shard.fault.insert(channel, state.clone());
        }
        shard
    }

    fn assert_channel_in_geometry(&self, channel: u32) {
        assert!(
            channel < self.config.geometry.channels,
            "channel {channel} outside the {}-channel geometry",
            self.config.geometry.channels
        );
    }

    /// An empty shard sharing this memory's configuration, cached fan-in
    /// analyses and current PIM mode, with zeroed statistics.
    fn shard_skeleton(&self) -> MainMemory {
        MainMemory {
            config: self.config.clone(),
            sense_amp: self.sense_amp.clone(),
            max_or_fan_in: self.max_or_fan_in,
            rows: PageTable::default(),
            wear: HashMap::new(),
            open_rows: HashMap::new(),
            act_history: HashMap::new(),
            fault: HashMap::new(),
            fault_sites: HashMap::new(),
            reliable_or_fan_in: self.reliable_or_fan_in,
            protect: HashMap::new(),
            mode: self.mode,
            stats: MemStats::new(),
            trace: Vec::new(),
            dirty: DirtyLog::default(),
        }
    }

    /// Drains the dirty log into per-channel deltas carrying only the
    /// state touched since the last drain (ascending channel order, every
    /// touched channel present even if its delta is functionally empty).
    /// Statistics and the trace are *not* included — move them with
    /// [`MainMemory::take_stats`] / [`MainMemory::take_trace`] when the
    /// delta flows toward the ledger owner.
    pub fn take_dirty_state(&mut self) -> Vec<ChannelDelta> {
        let dirty = std::mem::take(&mut self.dirty);
        let mut by_channel: std::collections::BTreeMap<u32, ChannelDelta> =
            std::collections::BTreeMap::new();
        for id in sorted_keys(dirty.pages) {
            // One Arc bump per dirty page, never a row copy: the receiver
            // installs the page wholesale and both sides share it again.
            if let Some(page) = self.rows.page(id) {
                by_channel
                    .entry(id.channel())
                    .or_insert_with(|| ChannelDelta::empty(id.channel()))
                    .pages
                    .push((id, page));
            }
        }
        for addr in sorted_keys(dirty.wear) {
            if let Some(&writes) = self.wear.get(&addr) {
                by_channel
                    .entry(addr.channel)
                    .or_insert_with(|| ChannelDelta::empty(addr.channel))
                    .wear
                    .push((addr, writes));
            }
        }
        for addr in sorted_keys(dirty.protect) {
            if let Some(p) = self.protect.get(&addr) {
                by_channel
                    .entry(addr.channel)
                    .or_insert_with(|| ChannelDelta::empty(addr.channel))
                    .protect
                    .push((addr, p.clone()));
            }
        }
        for id in sorted_keys(dirty.open) {
            by_channel
                .entry(id.channel)
                .or_insert_with(|| ChannelDelta::empty(id.channel))
                .open
                .push((id, self.open_rows.get(&id).copied()));
        }
        for channel in dirty.fault {
            by_channel
                .entry(channel)
                .or_insert_with(|| ChannelDelta::empty(channel))
                .fault = self.fault.get(&channel).cloned();
        }
        let now = self.stats.time_ns;
        for channel in sorted_keys(dirty.acts) {
            let hist: Vec<(u32, Vec<f64>)> =
                sorted_matching(&self.act_history, |&(ch, _)| ch == channel)
                    .into_iter()
                    .map(|((_, rank), times)| (rank, times.iter().map(|&t| t - now).collect()))
                    .collect();
            if !hist.is_empty() {
                by_channel
                    .entry(channel)
                    .or_insert_with(|| ChannelDelta::empty(channel))
                    .act_history = hist;
            }
        }
        by_channel.into_values().collect()
    }

    /// Applies a delta produced by the owner of a channel's state: row
    /// pages install wholesale (re-sharing them between both sides), wear
    /// and protection-metadata entries overwrite, open-page entries set or
    /// clear, and the fault stream (when carried) replaces this side's
    /// position.
    /// Application is not logged as dirty — both sides agree on the
    /// shipped state afterwards, so re-shipping it would be pure waste.
    ///
    /// Installing whole pages is lossless because the delta protocol
    /// gives each channel a single writer between sync points: the shard
    /// owns it during execution, and the parent only writes at sync
    /// points — after folding the shard's deltas in — then immediately
    /// pushes its own writes back, so neither side can hold a newer row
    /// inside a page the other ships.
    pub fn apply_delta(&mut self, delta: ChannelDelta) {
        for (id, page) in delta.pages {
            self.rows.insert_page(id, page);
        }
        for (addr, writes) in delta.wear {
            self.wear.insert(addr, writes);
        }
        for (addr, meta) in delta.protect {
            self.protect.insert(addr, meta);
        }
        for (id, open) in delta.open {
            match open {
                Some(row) => {
                    self.open_rows.insert(id, row);
                }
                None => {
                    self.open_rows.remove(&id);
                }
            }
        }
        if let Some(state) = delta.fault {
            self.fault.insert(state.channel(), state);
        }
        let now = self.stats.time_ns;
        for (rank, rel) in delta.act_history {
            self.act_history.insert(
                (delta.channel, rank),
                rel.iter().map(|&r| now + r).collect(),
            );
        }
    }

    /// Asserts the `detected == corrected + uncorrectable` reliability
    /// ledger invariant. The session sync checks once per synchronization
    /// point instead of per merged shard — a merge must never manufacture
    /// or lose recovery events, but the invariant only needs to hold once
    /// all parts are in.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is inconsistent.
    pub fn assert_ledger_consistent(&self) {
        assert!(
            self.stats.reliability.is_consistent(),
            "reliability ledger inconsistent: {:?}",
            self.stats.reliability
        );
    }

    /// Adds a shard's taken statistics into this memory's ledgers,
    /// advancing this memory's clock by the shard's elapsed time. Merge
    /// before applying the same shard's [`ChannelDelta`]s, so its relative
    /// activation history lands on the advanced clock.
    pub fn merge_stats(&mut self, delta: MemStats) {
        self.stats += delta;
    }

    /// Takes the recorded command trace, leaving it empty (always empty
    /// unless `record_trace` is set).
    pub fn take_trace(&mut self) -> Vec<MemCommand> {
        std::mem::take(&mut self.trace)
    }

    /// Appends commands a shard recorded to this memory's trace.
    pub fn append_trace(&mut self, mut commands: Vec<MemCommand>) {
        self.trace.append(&mut commands);
    }

    /// Order-independent digest of every piece of functional state
    /// `channel` owns (rows, wear, protection metadata, open pages,
    /// fault-stream
    /// position; activation history is clock-scoped and deliberately
    /// excluded). Two memories that digest equal respond identically to
    /// any command on the channel. Used by the session sync's debug
    /// assertion that a dirty-state delta left parent and shard identical.
    #[must_use]
    pub fn channel_digest(&self, channel: u32) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        // Hash logical rows, not pages: two memories whose page tables
        // share differently (or page identical data differently after a
        // split vs a delta sync) must still digest equal.
        let mut rows = self.rows.channel_rows(channel);
        rows.sort_unstable_by_key(|&(key, _)| key);
        for ((id, row), data) in rows {
            (id, row).hash(&mut hasher);
            data.hash(&mut hasher);
        }
        sorted_matching(&self.wear, |a| a.channel == channel).hash(&mut hasher);
        sorted_matching(&self.protect, |a| a.channel == channel).hash(&mut hasher);
        sorted_matching(&self.open_rows, |id| id.channel == channel).hash(&mut hasher);
        self.fault
            .get(&channel)
            .map(FaultState::events_drawn)
            .hash(&mut hasher);
        hasher.finish()
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
        self.validate_addr(addr)?;
        self.validate_cols(data.len_bits())?;
        if self.fault.is_empty() {
            self.store(addr, data.clone());
            self.record_protection(addr, data);
            return Ok(());
        }
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
                self.record_protection(addr, data);
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
                self.record_protection(addr, data);
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

        // Accounting.
        let g = &self.config.geometry;
        let passes = g.sense_passes(cols);
        let row_bits = g.logical_row_bits();
        let t = &self.config.timing;
        let e = &self.config.energy;
        let subarray = first.subarray_id();
        let single = operands.len() == 1;
        let page_hit =
            self.config.open_page && single && self.open_rows.get(&subarray) == Some(&first.row);
        if page_hit {
            // Row-buffer hit: the row is already on the sense amplifiers;
            // only the column accesses are paid.
            self.stats.time_ns += passes as f64 * t.t_cl_ns;
            self.stats.time.sense_ns += passes as f64 * t.t_cl_ns;
            self.stats.energy.sense_pj += e.sense_pj(cols);
            self.stats.events.row_buffer_hits += 1;
            self.stats.events.sense_passes += passes;
        } else {
            if self.config.open_page && self.open_rows.remove(&subarray).is_some() {
                self.dirty.open.insert(subarray);
                // Close the previously open row first.
                self.stats.time_ns += t.t_rp_ns;
                self.stats.time.precharge_ns += t.t_rp_ns;
                self.stats.energy.precharge_pj += e.precharge_pj(row_bits);
                self.stats.events.precharges += 1;
            }
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
            if single {
                self.stats.events.activates += 1;
            } else {
                self.stats.events.multi_activates += 1;
            }
            self.stats.events.rows_activated += operands.len() as u64;
            self.stats.events.sense_passes += passes;
            if self.config.open_page && single {
                // Leave the page open for a possible hit.
                self.dirty.open.insert(subarray);
                self.open_rows.insert(subarray, first.row);
            } else {
                // Closed-page policy, and multi-row PIM activations always
                // precharge so the next reference configuration starts
                // clean.
                self.stats.time_ns += t.t_rp_ns;
                self.stats.time.precharge_ns += t.t_rp_ns;
                self.stats.energy.precharge_pj += e.precharge_pj(row_bits);
                self.stats.events.precharges += 1;
            }
        }
        if self.config.record_trace {
            self.record(MemCommand::MultiActivate(operands.to_vec()));
            self.record(MemCommand::SensePass { mode, bits: cols });
            self.record(MemCommand::Precharge(first));
        }
        Ok((out, truth))
    }

    /// Reads the first `cols` bits of one row into the subarray's SA latch
    /// (a plain activate + sense, no data movement beyond the mats).
    ///
    /// With fault injection and [`ProtectionMode::Parity`], the sensed
    /// data is checked against the row's stored parity; mismatches trigger
    /// up to `max_sense_retries` re-calibrated re-reads (each charged one
    /// MRS plus a full re-activation) before giving up. Under
    /// [`ProtectionMode::SecDed`] single-bit errors are instead corrected
    /// in place from the syndrome — no retry is issued — and only
    /// double-bit detections pay the retry ladder.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MainMemory::multi_activate_sense`], plus
    /// [`MemError::UncorrectableRead`] when the protection check never
    /// accepts a sense.
    pub fn activate_read(&mut self, addr: RowAddr, cols: u64) -> Result<RowData, MemError> {
        let operands = [addr];
        let (data, truth) = self.multi_activate_sense_full(&operands, SenseMode::Read, cols)?;
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
        if self.config.reliability.protection != ProtectionMode::Parity
            || self.parity_matches(addr, &data)
        {
            self.note_accepted(&truth, &data);
            return Ok(data);
        }
        self.stats.reliability.detected_errors += 1;
        for _ in 0..self.config.reliability.max_sense_retries {
            self.stats.reliability.sense_retries += 1;
            self.charge_recalibration();
            let again = self.multi_activate_sense(&operands, SenseMode::Read, cols)?;
            if self.parity_matches(addr, &again) {
                self.stats.reliability.corrected_errors += 1;
                self.note_accepted(&truth, &again);
                return Ok(again);
            }
        }
        self.stats.reliability.uncorrectable_errors += 1;
        Err(MemError::UncorrectableRead { addr })
    }

    /// The SEC-DED read path: syndrome-check (and correct) the sensed
    /// data against the row's stored check bytes. Single-bit-per-word
    /// errors are fixed in place without any retry-ladder involvement; a
    /// double-bit word sends the whole read through the re-calibrated
    /// retry loop (a *transient* double may sense clean next time), and
    /// only a persistently uncorrectable row surfaces as an error.
    fn secded_read(
        &mut self,
        addr: RowAddr,
        cols: u64,
        mut data: RowData,
        truth: &RowData,
    ) -> Result<RowData, MemError> {
        match self.secded_scan(addr, &mut data) {
            SecdedScan::Clean => {
                self.note_accepted(truth, &data);
                Ok(data)
            }
            SecdedScan::Corrected { bits, words } => {
                self.stats.reliability.detected_errors += 1;
                self.stats.reliability.corrected_errors += 1;
                self.stats.reliability.ecc_corrected_bits += bits;
                self.note_accepted_outside(truth, &data, &words);
                Ok(data)
            }
            SecdedScan::Double => {
                self.stats.reliability.detected_errors += 1;
                self.stats.reliability.ecc_detected_double += 1;
                for _ in 0..self.config.reliability.max_sense_retries {
                    self.stats.reliability.sense_retries += 1;
                    self.charge_recalibration();
                    let operands = [addr];
                    let mut again = self.multi_activate_sense(&operands, SenseMode::Read, cols)?;
                    self.charge_ecc_check(cols);
                    match self.secded_scan(addr, &mut again) {
                        SecdedScan::Clean => {
                            self.stats.reliability.corrected_errors += 1;
                            self.note_accepted(truth, &again);
                            return Ok(again);
                        }
                        SecdedScan::Corrected { bits, words } => {
                            self.stats.reliability.corrected_errors += 1;
                            self.stats.reliability.ecc_corrected_bits += bits;
                            self.note_accepted_outside(truth, &again, &words);
                            return Ok(again);
                        }
                        SecdedScan::Double => {}
                    }
                }
                self.stats.reliability.uncorrectable_errors += 1;
                Err(MemError::UncorrectableRead { addr })
            }
        }
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
        if self.config.record_trace {
            self.record(MemCommand::BufferLogic { bits: cols });
        }
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
    /// truth of a multi-row sense. Only the accumulator is materialized;
    /// the remaining operands combine straight from their stored rows
    /// (whose tails are always masked, so rows wider than `cols` cannot
    /// leak bits past the accumulator's own tail mask and rows narrower
    /// than `cols` behave exactly like their zero-extension).
    fn functional_combine(&self, operands: &[RowAddr], mode: SenseMode, cols: u64) -> RowData {
        let (&first, rest) = operands.split_first().expect("operands are non-empty");
        let mut out = self.load(first, cols);
        for &other in rest {
            match (self.peek_row(other), mode) {
                (_, SenseMode::Read) => {}
                (Some(row), SenseMode::Or { .. }) => out.or_assign(row),
                (Some(row), SenseMode::And) => out.and_assign(row),
                (None, SenseMode::Or { .. }) => {}
                // An absent row reads as zeros, which annihilates an AND.
                (None, SenseMode::And) => out = RowData::zeros(cols),
            }
        }
        out
    }

    /// The ascending fault sites (stuck + endurance-dead cells) of one row
    /// over its first `cols` columns, cached per row. A cached entry is
    /// reused when its wear level matches and it covers at least `cols`
    /// columns; otherwise it is regenerated from the model.
    fn row_sites(
        &mut self,
        model: &FaultModel,
        row_key: u64,
        writes: u64,
        cols: u64,
    ) -> Vec<(u64, bool)> {
        match self.fault_sites.get(&row_key) {
            Some(c) if c.writes == writes && c.cols >= cols => {}
            _ => {
                let sites = model.row_fault_sites(row_key, writes, cols);
                self.fault_sites.insert(
                    row_key,
                    CachedRowSites {
                        writes,
                        cols,
                        sites,
                    },
                );
            }
        }
        self.fault_sites[&row_key]
            .sites
            .iter()
            .copied()
            .take_while(|&(bit, _)| bit < cols)
            .collect()
    }

    /// Physical sensing with faults injected, as one counter-keyed event:
    /// claims the channel's next [`EventKey`] and dispatches to the
    /// word-packed fast path (the default) or the per-cell reference path
    /// (`MemConfig::reference_fault_path`). The two are bit-identical for
    /// the same event. Bits differing from the word-wise `truth` are
    /// tallied as injected.
    fn sense_physical(
        &mut self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
        truth: &RowData,
    ) -> RowData {
        // All operands share a subarray (validated by the caller), so the
        // first one names the owning channel's draw stream.
        let channel = operands[0].channel;
        self.dirty.fault.insert(channel);
        let state = self
            .fault
            .get_mut(&channel)
            .expect("fault injection enabled");
        let model = *state.model();
        let event = state.next_event();
        let out = if self.config.reference_fault_path {
            self.sense_physical_reference(operands, mode, cols, &model, &event)
        } else {
            self.sense_physical_packed(operands, mode, cols, &model, &event)
        };
        self.stats.reliability.physical_senses += 1;
        self.stats.reliability.injected_bit_errors += out.count_diff(truth);
        out
    }

    /// The O(words + fault sites) sense path. The stored operand words are
    /// patched at their sparse fault sites so they hold the per-cell
    /// *effective* bits, then whole ones-count classes are classified as
    /// certainly-0 / certainly-1 through conservative bit-line resistance
    /// intervals (every residual / drift draw is bounded); only columns in
    /// a class straddling the reference are evaluated through the exact
    /// per-column model — the same evaluator the reference path uses, so
    /// even their floating-point rounding agrees. The transient-flip chain
    /// lands word-wise on top.
    fn sense_physical_packed(
        &mut self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
        model: &FaultModel,
        event: &EventKey,
    ) -> RowData {
        let mut patched: Vec<(u64, RowData)> = Vec::with_capacity(operands.len());
        for &a in operands {
            let key = a.to_linear(&self.config.geometry);
            let mut row = self.load(a, cols);
            for (bit, value) in self.row_sites(model, key, self.row_wear(a), cols) {
                row.set(bit, value);
            }
            patched.push((key, row));
        }
        let sa = self.sense_amp.as_ref().expect("resistive technology");
        let tech = &self.config.technology;
        let margin = sa.margin(mode);
        let global = model.event_global(tech, event);

        // Conservative per-class intervals: a cell storing `b` contributes
        // a resistance inside `[r_min(b), r_max(b)]` for *every* possible
        // residual and drift draw, so the bit line of a column with `k`
        // effective ones lies inside an interval depending only on `k`.
        let fan_in = patched.len();
        let (res_lo, res_hi) = model.residual_bounds(tech);
        let drift = 1.0 + model.drift_spread.max(0.0);
        let r_on = tech.cell_resistance(true).get() * global;
        let r_off = tech.cell_resistance(false).get() * global;
        let (r1_min, r1_max) = (r_on * res_lo, r_on * res_hi * drift);
        let (r0_min, r0_max) = (r_off * res_lo / drift, r_off * res_hi);
        let verdict = |ones: usize| -> Option<bool> {
            let zeros = (fan_in - ones) as f64;
            let ones = ones as f64;
            let g_min = ones / r1_max + zeros / r0_max;
            let g_max = ones / r1_min + zeros / r0_min;
            margin.classify_interval(Ohms::new(1.0 / g_max), Ohms::new(1.0 / g_min))
        };
        // `k1`: counts >= k1 certainly sense 1; counts < k0_excl certainly
        // sense 0; counts between are ambiguous. Derived from contiguous
        // runs at the extremes so no monotonicity assumption is needed.
        let mut k1 = fan_in + 1;
        for k in (0..=fan_in).rev() {
            if verdict(k) == Some(true) {
                k1 = k;
            } else {
                break;
            }
        }
        let mut k0_excl = 0;
        for k in 0..k1 {
            if verdict(k) == Some(false) {
                k0_excl = k + 1;
            } else {
                break;
            }
        }

        // Bit-sliced ones counting: ge[j] marks the columns whose patched
        // ones count is at least j, built word-wise over the operand rows.
        let nw = cols.div_ceil(64) as usize;
        let mut all = vec![u64::MAX; nw];
        if cols % 64 != 0 {
            all[nw - 1] = (1u64 << (cols % 64)) - 1;
        }
        let jcap = k1.min(fan_in);
        let mut ge: Vec<Vec<u64>> = Vec::with_capacity(jcap + 1);
        ge.push(all);
        ge.extend(std::iter::repeat_with(|| vec![0u64; nw]).take(jcap));
        for (i, (_, row)) in patched.iter().enumerate() {
            let rw = row.as_words();
            for j in (1..=jcap.min(i + 1)).rev() {
                let (lo, hi) = ge.split_at_mut(j);
                for ((cur, &prev), &word) in hi[0].iter_mut().zip(&lo[j - 1]).zip(rw) {
                    *cur |= prev & word;
                }
            }
        }
        let mut out = if k1 <= fan_in {
            ge[k1].clone()
        } else {
            vec![0u64; nw]
        };
        let ambiguous: Vec<u64> = if k0_excl < k1 && k0_excl <= fan_in {
            ge[k0_excl]
                .iter()
                .zip(&out)
                .map(|(&a, &b)| a & !b)
                .collect()
        } else {
            vec![0u64; nw]
        };

        // Exact evaluation of the (rare) ambiguous columns.
        let mut cells: Vec<(u64, bool)> = patched.iter().map(|&(key, _)| (key, false)).collect();
        for (w, &mask) in ambiguous.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let col = w as u64 * 64 + u64::from(m.trailing_zeros());
                m &= m - 1;
                for (slot, (_, row)) in cells.iter_mut().zip(&patched) {
                    slot.1 = row.get(col);
                }
                if sa.sense_column_physical(&margin, model, event, global, &cells, col) {
                    out[w] |= 1 << (col % 64);
                }
            }
        }

        // Transient latch flips, straight from the event's geometric chain.
        let p = model.transient_flip_probability(mode);
        for col in event.transient_flips(p, cols) {
            out[(col / 64) as usize] ^= 1 << (col % 64);
        }
        RowData::from_words(out, cols)
    }

    /// The per-cell reference sense path, the oracle the packed path is
    /// pinned against: every column resolves each operand cell's health by
    /// point query, runs the shared column evaluator, and walks the
    /// transient-flip chain in column lockstep. O(cols × fan-in).
    fn sense_physical_reference(
        &self,
        operands: &[RowAddr],
        mode: SenseMode,
        cols: u64,
        model: &FaultModel,
        event: &EventKey,
    ) -> RowData {
        let geometry = &self.config.geometry;
        let rows: Vec<(u64, RowData, u64)> = operands
            .iter()
            .map(|&a| (a.to_linear(geometry), self.load(a, cols), self.row_wear(a)))
            .collect();
        let sa = self.sense_amp.as_ref().expect("resistive technology");
        let tech = &self.config.technology;
        let margin = sa.margin(mode);
        let global = model.event_global(tech, event);
        let p = model.transient_flip_probability(mode);
        let mut flips = event.transient_flips(p, cols).peekable();
        let mut cells = Vec::with_capacity(rows.len());
        (0..cols)
            .map(|bit| {
                cells.clear();
                for (key, row, wear) in &rows {
                    let effective = match model.cell_health(CellId::new(*key, bit), *wear) {
                        CellHealth::StuckAt(v) => v,
                        CellHealth::Healthy => row.get(bit),
                    };
                    cells.push((*key, effective));
                }
                let sensed = sa.sense_column_physical(&margin, model, event, global, &cells, bit);
                sensed != flips.next_if(|&f| f == bit).is_some()
            })
            .collect()
    }

    /// Fires the write drivers against the real (possibly defective)
    /// cells as one counter-keyed write event, stores what the cells
    /// actually hold, and returns how many bits landed wrong. Dispatches
    /// to the packed or reference commit like [`MainMemory::sense_physical`].
    fn store_physical(&mut self, addr: RowAddr, data: &RowData, source: WriteSource) -> u64 {
        self.dirty.fault.insert(addr.channel);
        let state = self
            .fault
            .get_mut(&addr.channel)
            .expect("fault injection enabled");
        let model = *state.model();
        let event = state.next_event();
        let key = addr.to_linear(&self.config.geometry);
        // The pulse in flight stresses the cells on top of the wear
        // charged so far (row-level wear stands in for per-cell counts).
        let writes = self.row_wear(addr) + 1;
        let stored = if self.config.reference_fault_path {
            self.store_physical_reference(key, data, source, &model, &event, writes)
        } else {
            self.store_physical_packed(key, data, &model, &event, writes)
        };
        self.stats.reliability.physical_writes += 1;
        let bad = stored.count_diff(data);
        self.store(addr, stored);
        bad
    }

    /// Packed write commit: the whole row is `data XOR write-flip chain`,
    /// then the sparse fault sites override their columns (stuck cells
    /// ignore the pulse entirely). O(words + flips + fault sites).
    fn store_physical_packed(
        &mut self,
        key: u64,
        data: &RowData,
        model: &FaultModel,
        event: &EventKey,
        writes: u64,
    ) -> RowData {
        let bits = data.len_bits();
        let mut stored = data.clone();
        let words = stored.as_words_mut();
        for col in event.write_flips(model.write_flip, bits) {
            words[(col / 64) as usize] ^= 1 << (col % 64);
        }
        for (bit, value) in self.row_sites(model, key, writes, bits) {
            stored.set(bit, value);
        }
        stored
    }

    /// Per-cell reference write commit: each column drives its bit,
    /// resolves the cell's health by point query, and commits through
    /// [`pinatubo_nvm::write_driver::DrivenBit::committed`] with the same
    /// flip chain walked in column lockstep.
    fn store_physical_reference(
        &self,
        key: u64,
        data: &RowData,
        source: WriteSource,
        model: &FaultModel,
        event: &EventKey,
        writes: u64,
    ) -> RowData {
        let driver = WriteDriver::new(&self.config.technology);
        let bits = data.len_bits();
        let mut flips = event.write_flips(model.write_flip, bits).peekable();
        (0..bits)
            .map(|bit| {
                let flipped = flips.next_if(|&f| f == bit).is_some();
                let driven = driver.drive(source, data.get(bit));
                match model.cell_health(CellId::new(key, bit), writes) {
                    CellHealth::StuckAt(v) => v,
                    CellHealth::Healthy => driven.committed(flipped),
                }
            })
            .collect()
    }

    /// One charged write, with program-and-verify when faults and
    /// `verify_writes` are enabled: every attempt pays the full write
    /// (time, energy, wear) plus one read-back sense pass for the verify.
    /// Takes the buffer by value: the fault-free path stores the caller's
    /// image directly instead of cloning it.
    fn program_row(&mut self, addr: RowAddr, data: RowData, local: bool) -> Result<(), MemError> {
        let bits = data.len_bits();
        if self.fault.is_empty() {
            self.record_protection(addr, &data);
            self.charge_write(addr, bits, local);
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
            self.charge_write(addr, bits, local);
            self.stats.reliability.injected_write_faults += bad;
            if !verify {
                // Unverified: the protection metadata (of the intended
                // data) still flags — or, under SEC-DED, repairs — the
                // corruption at read time; with protection off, or when
                // the corruption aliases the code, the wrong bits are
                // silent.
                self.record_protection(addr, &data);
                self.note_unverified_store(addr, &data, bad);
                return Ok(());
            }
            self.charge_verify_pass(bits);
            if bad == 0 {
                self.record_protection(addr, &data);
                if attempt > 0 {
                    self.stats.reliability.corrected_errors += 1;
                }
                return Ok(());
            }
            if attempt == 0 {
                self.stats.reliability.detected_errors += 1;
            }
            if attempt >= self.config.reliability.max_write_retries {
                self.record_protection(addr, &data);
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
            let again = self.multi_activate_sense(operands, mode, cols)?;
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

    /// [`MainMemory::note_accepted`] restricted to the words *outside*
    /// `skip_words` (ascending indices). After a SEC-DED correction the
    /// corrected words match the intended data by construction — any
    /// divergence from the functional `truth` there is repaired storage
    /// corruption, not a silent escape — so only words the syndrome
    /// called clean can hide aliased wrong bits.
    fn note_accepted_outside(&mut self, truth: &RowData, out: &RowData, skip_words: &[usize]) {
        let diff: u64 = out
            .as_words()
            .iter()
            .zip(truth.as_words())
            .enumerate()
            .filter(|(w, _)| skip_words.binary_search(w).is_err())
            .map(|(_, (a, b))| u64::from((a ^ b).count_ones()))
            .sum();
        self.stats.reliability.silent_wrong_bits += diff;
    }

    /// One packed parity bit per 64-bit data word.
    fn parity_words(data: &RowData) -> Vec<u64> {
        let words = data.as_words();
        let mut out = vec![0u64; words.len().div_ceil(64)];
        for (i, w) in words.iter().enumerate() {
            if w.count_ones() & 1 == 1 {
                out[i / 64] |= 1 << (i % 64);
            }
        }
        out
    }

    /// One packed SEC-DED check byte per 64-bit data word: word `i`'s
    /// byte sits at byte `i % 8` of metadata word `i / 8`.
    fn secded_check_bytes(data: &RowData) -> Vec<u64> {
        let words = data.as_words();
        let mut out = vec![0u64; words.len().div_ceil(8)];
        for (i, &w) in words.iter().enumerate() {
            out[i / 8] |= u64::from(crate::secded::encode(w)) << ((i % 8) * 8);
        }
        out
    }

    /// Accounts the wrong bits an unverified (or verify-accepted-anyway)
    /// store left behind, by modeling what a later noise-free read would
    /// accept. With no protection every bad bit is silent. With parity,
    /// only corruption that *aliases* the per-word parity (an even number
    /// of flips inside each 64-bit word) can ever be accepted — exactly
    /// those bits are charged; anything else deterministically fails the
    /// read check and surfaces as an explicit error. With SEC-DED,
    /// single-bit words are corrected back to the intended data (nothing
    /// silent), a double-bit word makes the whole row fail explicitly at
    /// read time (nothing silent), and only ≥3-flip words that alias or
    /// miscorrect the code charge their residual wrong bits.
    fn note_unverified_store(&mut self, addr: RowAddr, intended: &RowData, bad: u64) {
        if bad == 0 {
            return;
        }
        let silent = match self.config.reliability.protection {
            ProtectionMode::None => Some(bad),
            ProtectionMode::Parity => self
                .peek_row(addr)
                .is_some_and(|actual| Self::parity_words(actual) == Self::parity_words(intended))
                .then_some(bad),
            ProtectionMode::SecDed => self
                .peek_row(addr)
                .and_then(|actual| Self::secded_escape_bits(intended, actual)),
        };
        if let Some(bits) = silent {
            self.stats.reliability.silent_wrong_bits += bits;
        }
    }

    /// The wrong bits a noise-free SEC-DED read of `actual` (decoded
    /// against the check bytes of `intended`) would silently accept, or
    /// `None` when some word decodes as a double-bit error — then the
    /// read deterministically fails explicit instead, and nothing is
    /// silent.
    fn secded_escape_bits(intended: &RowData, actual: &RowData) -> Option<u64> {
        let mut wrong = 0u64;
        for (&want, &have) in intended.as_words().iter().zip(actual.as_words()) {
            if want == have {
                continue;
            }
            let mut accepted = have;
            match crate::secded::decode(have, crate::secded::encode(want)) {
                crate::secded::Decode::Double => return None,
                verdict => {
                    let _ = crate::secded::correct(&mut accepted, verdict);
                }
            }
            wrong += u64::from((accepted ^ want).count_ones());
        }
        Some(wrong)
    }

    /// Stores the protection metadata of the *intended* data alongside a
    /// write (parity words or SEC-DED check bytes, see
    /// [`ProtectionMode`]), so a later read of cells that silently failed
    /// to program sees a syndrome. The metadata array itself is modeled
    /// as reliable (a real design would protect it with stronger coding).
    fn record_protection(&mut self, addr: RowAddr, data: &RowData) {
        let meta = match self.config.reliability.protection {
            ProtectionMode::None => return,
            ProtectionMode::Parity => Self::parity_words(data),
            ProtectionMode::SecDed => Self::secded_check_bytes(data),
        };
        self.dirty.protect.insert(addr);
        self.protect.insert(addr, (data.len_bits(), meta));
    }

    /// How many leading words of a sensed row are fully determined on
    /// both sides of a protection check: all stored words when the read
    /// covers the whole row (sensing zero-extends, matching the
    /// zero-padded stored tail), otherwise only the complete words read.
    fn checkable_words(stored_bits: u64, cols: u64) -> u64 {
        if cols >= stored_bits {
            stored_bits.div_ceil(64)
        } else {
            cols / 64
        }
    }

    /// Checks sensed data against the stored parity. Rows never written
    /// have no metadata and pass vacuously.
    fn parity_matches(&self, addr: RowAddr, data: &RowData) -> bool {
        let Some((stored_bits, stored_parity)) = self.protect.get(&addr) else {
            return true;
        };
        let sensed = Self::parity_words(data);
        let checkable = Self::checkable_words(*stored_bits, data.len_bits());
        let bit = |v: &[u64], w: u64| v.get((w / 64) as usize).map_or(0, |x| x >> (w % 64) & 1);
        (0..checkable).all(|w| bit(&sensed, w) == bit(stored_parity, w))
    }

    /// Syndrome-checks (and corrects) sensed data in place against the
    /// row's stored SEC-DED check bytes. Any word decoding as a
    /// double-bit error fails the whole row — corrections applied to
    /// earlier words are irrelevant then, the caller discards the buffer
    /// and re-senses. Rows never written have no metadata and pass
    /// vacuously. A corrected bit beyond the sensed width (only reachable
    /// through a ≥3-flip miscorrection naming a zero-padded tail column)
    /// is a no-op on the nonexistent column, exactly as the hardware's
    /// column mux would treat it.
    fn secded_scan(&self, addr: RowAddr, data: &mut RowData) -> SecdedScan {
        let Some((stored_bits, check_bytes)) = self.protect.get(&addr) else {
            return SecdedScan::Clean;
        };
        let cols = data.len_bits();
        let checkable = Self::checkable_words(*stored_bits, cols) as usize;
        let mut bits = 0u64;
        let mut corrected = Vec::new();
        let words = data.as_words_mut();
        for (w, word) in words.iter_mut().enumerate().take(checkable) {
            let check = (check_bytes.get(w / 8).copied().unwrap_or(0) >> ((w % 8) * 8)) as u8;
            match crate::secded::decode(*word, check) {
                crate::secded::Decode::Clean => {}
                crate::secded::Decode::Double => return SecdedScan::Double,
                crate::secded::Decode::Single(bit) => {
                    if let Some(bit) = bit {
                        if (w as u64) * 64 + u64::from(bit) < cols {
                            *word ^= 1u64 << bit;
                            bits += 1;
                        }
                    }
                    corrected.push(w);
                }
            }
        }
        if corrected.is_empty() {
            SecdedScan::Clean
        } else {
            SecdedScan::Corrected {
                bits,
                words: corrected,
            }
        }
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
        self.record(MemCommand::ModeRegisterSet(self.mode));
    }

    /// One SEC-DED syndrome pass over a sensed row: the stored check
    /// bytes are sensed through the column path (12.5 % more bits —
    /// `CHECK_BITS_PER_WORD` per 64 data bits, the code's real storage
    /// overhead) and the syndrome XOR tree evaluates. Charged into the
    /// dedicated ECC time/energy buckets so the ladder-vs-ECC comparison
    /// can read the overhead directly.
    fn charge_ecc_check(&mut self, bits: u64) {
        let t = self.config.timing.t_ecc_ns;
        self.stats.time_ns += t;
        self.stats.time.ecc_ns += t;
        let check_bits = bits.div_ceil(64) * crate::secded::CHECK_BITS_PER_WORD;
        self.stats.energy.ecc_pj +=
            self.config.energy.sense_pj(check_bits) + self.config.energy.ecc_pj(bits);
    }

    fn charge_write(&mut self, addr: RowAddr, bits: u64, local: bool) {
        self.stats.time_ns += self.config.timing.t_wr_ns;
        self.stats.time.write_ns += self.config.timing.t_wr_ns;
        self.stats.energy.write_pj += self.config.energy.write_pj(bits);
        if self.config.reliability.protection == ProtectionMode::SecDed {
            // Encoding rides the write: the XOR tree computes the check
            // bytes and the write drivers program the extra 12.5 % of
            // cells holding them.
            let t = self.config.timing.t_ecc_ns;
            self.stats.time_ns += t;
            self.stats.time.ecc_ns += t;
            let check_bits = bits.div_ceil(64) * crate::secded::CHECK_BITS_PER_WORD;
            self.stats.energy.ecc_pj +=
                self.config.energy.write_pj(check_bits) + self.config.energy.ecc_pj(bits);
        }
        self.stats.events.row_writes += 1;
        self.dirty.wear.insert(addr);
        *self.wear.entry(addr).or_insert(0) += 1;
        if self.config.record_trace {
            self.record(MemCommand::WriteRow { addr, bits, local });
        }
    }

    fn charge_gdl(&mut self, bits: u64) {
        let cycles = self.config.geometry.gdl_cycles(bits);
        self.stats.time_ns += cycles as f64 * self.config.timing.t_gdl_cycle_ns;
        self.stats.time.gdl_ns += cycles as f64 * self.config.timing.t_gdl_cycle_ns;
        self.stats.energy.gdl_pj += self.config.energy.gdl_pj(bits);
        self.stats.events.gdl_transfers += 1;
        if self.config.record_trace {
            self.record(MemCommand::GdlTransfer { bits });
        }
    }

    fn charge_bus(&mut self, bits: u64) {
        self.stats.time_ns += self.config.timing.bus_transfer_ns(bits);
        self.stats.time.bus_ns += self.config.timing.bus_transfer_ns(bits);
        self.stats.energy.bus_pj += self.config.energy.bus_pj(bits);
        self.stats.events.bus_bursts += bits.div_ceil(self.config.timing.burst_bits());
        self.stats.events.bus_bits += bits;
        if self.config.record_trace {
            self.record(MemCommand::BusBurst { bits });
        }
    }

    fn record(&mut self, cmd: MemCommand) {
        if self.config.record_trace {
            self.trace.push(cmd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinatubo_nvm::NvmError;

    fn mem() -> MainMemory {
        MainMemory::new(MemConfig::pcm_default())
    }

    fn addr(subarray: u32, row: u32) -> RowAddr {
        RowAddr::new(0, 0, 0, subarray, row)
    }

    #[test]
    fn or_of_two_rows_is_functional() {
        let mut m = mem();
        m.poke_row(addr(0, 0), &RowData::from_bits(&[true, false, true, false]))
            .expect("poke a");
        m.poke_row(addr(0, 1), &RowData::from_bits(&[false, false, true, true]))
            .expect("poke b");
        let out = m
            .multi_activate_sense(&[addr(0, 0), addr(0, 1)], SenseMode::or(2).expect("or2"), 4)
            .expect("2-row OR");
        assert_eq!(out.bits(4), vec![true, false, true, true]);
    }

    #[test]
    fn and_of_two_rows_is_functional() {
        let mut m = mem();
        m.poke_row(addr(0, 0), &RowData::from_bits(&[true, true, false, false]))
            .expect("poke a");
        m.poke_row(addr(0, 1), &RowData::from_bits(&[true, false, true, false]))
            .expect("poke b");
        let out = m
            .multi_activate_sense(
                &[addr(0, 0), addr(0, 1)],
                SenseMode::and(2).expect("and2"),
                4,
            )
            .expect("2-row AND");
        assert_eq!(out.bits(4), vec![true, false, false, false]);
    }

    #[test]
    fn absent_rows_read_as_zeros() {
        let mut m = mem();
        let out = m.activate_read(addr(3, 77), 8).expect("read empty row");
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    fn multi_row_or_accumulates_128_rows() {
        let mut m = mem();
        let rows: Vec<RowAddr> = (0..128).map(|r| addr(0, r)).collect();
        // One hot bit somewhere in the middle.
        m.poke_row(addr(0, 64), &RowData::from_bits(&[false, true]))
            .expect("poke");
        let out = m
            .multi_activate_sense(&rows, SenseMode::or(128).expect("or128"), 2)
            .expect("128-row OR");
        assert_eq!(out.bits(2), vec![false, true]);
        assert_eq!(m.stats().events.rows_activated, 128);
        assert_eq!(m.stats().events.multi_activates, 1);
    }

    #[test]
    fn cross_subarray_activation_is_rejected() {
        let mut m = mem();
        let err = m
            .multi_activate_sense(&[addr(0, 0), addr(1, 0)], SenseMode::or(2).expect("or2"), 4)
            .expect_err("different subarrays cannot co-activate");
        assert!(matches!(err, MemError::SubarrayMismatch { .. }));
    }

    #[test]
    fn fan_in_beyond_margin_is_rejected() {
        let mut m = mem();
        let rows: Vec<RowAddr> = (0..129).map(|r| addr(0, r)).collect();
        let err = m
            .multi_activate_sense(&rows, SenseMode::Or { fan_in: 129 }, 4)
            .expect_err("129-row OR exceeds PCM margin");
        assert_eq!(
            err,
            MemError::Nvm(NvmError::FanInExceeded {
                requested: 129,
                supported: 128
            })
        );
    }

    #[test]
    fn operand_count_must_match_mode() {
        let mut m = mem();
        let err = m
            .multi_activate_sense(&[addr(0, 0)], SenseMode::or(2).expect("or2"), 4)
            .expect_err("one operand under an OR-2 reference");
        assert_eq!(err, MemError::Nvm(NvmError::DegenerateFanIn));
    }

    #[test]
    fn dram_memory_cannot_multi_sense() {
        let mut m = MainMemory::new(MemConfig::dram_default());
        assert_eq!(m.max_or_fan_in(), 1);
        let err = m
            .multi_activate_sense(&[addr(0, 0), addr(0, 1)], SenseMode::or(2).expect("or2"), 4)
            .expect_err("DRAM has no current SA");
        assert!(matches!(err, MemError::Nvm(NvmError::FanInExceeded { .. })));
    }

    #[test]
    fn timing_adds_up_for_multi_activate() {
        let mut m = mem();
        let rows: Vec<RowAddr> = (0..4).map(|r| addr(0, r)).collect();
        let cols = m.geometry().bits_per_sense_pass(); // exactly one pass
        m.multi_activate_sense(&rows, SenseMode::or(4).expect("or4"), cols)
            .expect("4-row OR");
        let t = TimingParams::pcm_ddr3_1600();
        let expect = t.multi_activate_ns(4) + t.t_cl_ns + t.t_rp_ns;
        assert!(
            (m.stats().time_ns - expect).abs() < 1e-9,
            "{}",
            m.stats().time_ns
        );
        assert_eq!(m.stats().events.sense_passes, 1);
    }

    #[test]
    fn sense_passes_scale_with_cols() {
        let mut m = mem();
        let per_pass = m.geometry().bits_per_sense_pass();
        m.activate_read(addr(0, 0), per_pass * 3 + 1).expect("read");
        assert_eq!(m.stats().events.sense_passes, 4);
    }

    #[test]
    fn local_write_back_skips_gdl_and_bus() {
        let mut m = mem();
        let data = RowData::from_bits(&[true; 64]);
        m.write_row_local(addr(0, 9), data.clone())
            .expect("local write");
        assert_eq!(m.stats().energy.gdl_pj, 0.0);
        assert_eq!(m.stats().energy.bus_pj, 0.0);
        assert!(m.stats().energy.write_pj > 0.0);
        assert_eq!(
            m.peek_row(addr(0, 9)).expect("stored").bits(2),
            vec![true, true]
        );
    }

    #[test]
    fn bus_write_charges_every_stage() {
        let mut m = mem();
        let data = RowData::from_bits(&[true; 64]);
        m.write_row_over_bus(addr(0, 9), data.clone())
            .expect("bus write");
        assert!(m.stats().energy.bus_pj > 0.0);
        assert!(m.stats().energy.gdl_pj > 0.0);
        assert!(m.stats().energy.write_pj > 0.0);
        assert_eq!(m.stats().events.bus_bits, 64);
    }

    #[test]
    fn bus_read_costs_more_time_than_buffer_read() {
        let mut a = mem();
        let mut b = mem();
        let cols = 1 << 16;
        a.read_row_over_bus(addr(0, 0), cols).expect("bus read");
        b.read_row_to_buffer(addr(0, 0), cols).expect("buffer read");
        assert!(a.stats().time_ns > b.stats().time_ns);
    }

    #[test]
    fn buffer_logic_combines_and_charges() {
        let mut m = mem();
        let mut acc = RowData::from_bits(&[true, false, true]);
        let op = RowData::from_bits(&[false, true, true]);
        m.buffer_logic(PimConfig::Xor, &mut acc, &op, 3)
            .expect("xor in buffer");
        assert_eq!(acc.bits(3), vec![true, true, false]);
        assert!(m.stats().energy.logic_pj > 0.0);
        assert_eq!(m.stats().events.logic_passes, 1);

        let err = m
            .buffer_logic(PimConfig::Off, &mut acc, &op, 3)
            .expect_err("OFF is not a combining mode");
        assert!(matches!(err, MemError::Nvm(_)));
    }

    #[test]
    fn mode_register_set_is_cached() {
        let mut m = mem();
        m.set_pim_config(PimConfig::Or);
        m.set_pim_config(PimConfig::Or);
        assert_eq!(m.stats().events.mode_sets, 1);
        m.set_pim_config(PimConfig::And);
        assert_eq!(m.stats().events.mode_sets, 2);
    }

    #[test]
    fn trace_records_commands_when_enabled() {
        let mut cfg = MemConfig::pcm_default();
        cfg.record_trace = true;
        let mut m = MainMemory::new(cfg);
        m.set_pim_config(PimConfig::Or);
        m.multi_activate_sense(&[addr(0, 0), addr(0, 1)], SenseMode::or(2).expect("or2"), 4)
            .expect("2-row OR");
        let kinds: Vec<String> = m.trace().iter().map(ToString::to_string).collect();
        assert_eq!(kinds[0], "MRS OR");
        assert!(kinds[1].starts_with("MACT x2"));
        assert!(kinds[2].starts_with("SENSE OR-2"));
        assert!(kinds[3].starts_with("PRE"));
    }

    #[test]
    fn take_stats_resets() {
        let mut m = mem();
        m.activate_read(addr(0, 0), 8).expect("read");
        let taken = m.take_stats();
        assert!(taken.time_ns > 0.0);
        assert_eq!(m.stats().time_ns, 0.0);
    }

    #[test]
    fn invert_in_sense_amp_is_differential() {
        let m = mem();
        let data = RowData::from_bits(&[true, false, true]);
        let inv = m.invert_in_sense_amp(data.clone());
        assert_eq!(inv.bits(3), vec![false, true, false]);
    }

    #[test]
    fn open_page_hits_skip_activation() {
        let mut cfg = MemConfig::pcm_default();
        cfg.open_page = true;
        let mut m = MainMemory::new(cfg);

        m.activate_read(addr(0, 5), 64)
            .expect("first read opens the page");
        let after_open = m.stats().time_ns;
        m.activate_read(addr(0, 5), 64).expect("second read hits");
        let hit_cost = m.stats().time_ns - after_open;
        assert!(
            (hit_cost - TimingParams::pcm_ddr3_1600().t_cl_ns).abs() < 1e-9,
            "a hit pays one column access, got {hit_cost}"
        );
        assert_eq!(m.stats().events.row_buffer_hits, 1);
        assert_eq!(m.stats().events.activates, 1, "no second activation");

        // A different row in the same subarray closes and reopens.
        m.activate_read(addr(0, 6), 64).expect("conflict read");
        assert_eq!(m.stats().events.precharges, 1);
        assert_eq!(m.stats().events.activates, 2);

        // Multi-row PIM activation closes the page.
        m.multi_activate_sense(&[addr(0, 1), addr(0, 2)], SenseMode::or(2).expect("or2"), 4)
            .expect("pim op");
        m.activate_read(addr(0, 6), 64).expect("read after pim op");
        assert_eq!(
            m.stats().events.row_buffer_hits,
            1,
            "the PIM op closed the page, so no further hit yet"
        );
    }

    #[test]
    fn closed_page_policy_never_hits() {
        let mut m = mem();
        m.activate_read(addr(0, 5), 64).expect("first");
        m.activate_read(addr(0, 5), 64).expect("second");
        assert_eq!(m.stats().events.row_buffer_hits, 0);
        assert_eq!(m.stats().events.precharges, 2);
    }

    #[test]
    fn wear_tracks_charged_writes_only() {
        let mut m = mem();
        let data = RowData::from_bits(&[true; 8]);
        // Pokes are setup: no wear.
        m.poke_row(addr(0, 1), &data).expect("poke");
        assert_eq!(m.wear_report().total_row_writes, 0);

        m.write_row_local(addr(0, 1), data.clone())
            .expect("write 1");
        m.write_row_local(addr(0, 1), data.clone())
            .expect("write 2");
        m.write_row_local(addr(0, 2), data.clone())
            .expect("write 3");
        let report = m.wear_report();
        assert_eq!(report.total_row_writes, 3);
        assert_eq!(report.rows_written, 2);
        assert_eq!(report.max_row_writes, 2);
        assert!((report.imbalance() - 2.0 / 1.5).abs() < 1e-12);
        assert_eq!(m.row_wear(addr(0, 1)), 2);
        assert_eq!(m.row_wear(addr(0, 9)), 0);
    }

    #[test]
    fn time_breakdown_sums_to_time_ns() {
        let mut m = mem();
        m.set_pim_config(PimConfig::Or);
        let rows: Vec<RowAddr> = (0..4).map(|r| addr(0, r)).collect();
        m.multi_activate_sense(&rows, SenseMode::or(4).expect("or4"), 64)
            .expect("or");
        let data = RowData::from_bits(&[true; 64]);
        m.write_row_over_bus(addr(0, 9), data.clone())
            .expect("bus write");
        m.write_row_local(addr(0, 10), data.clone())
            .expect("local write");
        m.read_row_to_buffer(addr(0, 9), 64).expect("buffer read");

        let s = m.stats();
        assert!(
            (s.time.total_ns() - s.time_ns).abs() < 1e-9,
            "breakdown {} vs scalar {}",
            s.time.total_ns(),
            s.time_ns
        );
        assert!(s.time.mrs_ns > 0.0);
        assert!(s.time.activate_ns > 0.0);
        assert!(s.time.sense_ns > 0.0);
        assert!(s.time.write_ns > 0.0);
        assert!(s.time.gdl_ns > 0.0);
        assert!(s.time.bus_ns > 0.0);
        assert!(s.time.precharge_ns > 0.0);
        assert_eq!(s.time.stall_ns, 0.0, "default timings never stall");
        assert!((s.time.shared_ns() - (s.time.bus_ns + s.time.mrs_ns)).abs() < 1e-12);
    }

    #[test]
    fn default_parameters_never_stall_activations() {
        let mut m = mem();
        // Back-to-back activations on different banks of one rank — the
        // densest ACT pattern a serial stream can produce.
        for bank in 0..8 {
            m.activate_read(RowAddr::new(0, 0, bank, 0, 0), 64)
                .expect("read");
        }
        assert_eq!(m.stats().time.stall_ns, 0.0);
    }

    #[test]
    fn tight_trrd_stalls_back_to_back_activations() {
        let mut cfg = MemConfig::pcm_default();
        cfg.timing.t_rrd_ns = 1000.0;
        let mut m = MainMemory::new(cfg);
        m.activate_read(RowAddr::new(0, 0, 0, 0, 0), 64).expect("a");
        let after_first = m.stats().time_ns; // 18.3 + 8.9 + 7.8 = 35.0
        m.activate_read(RowAddr::new(0, 0, 1, 0, 0), 64).expect("b");
        // The second ACT (to another bank, same rank) waited until
        // 0 + tRRD = 1000, i.e. a stall of 1000 - 35.
        let expect_stall = 1000.0 - after_first;
        assert!(
            (m.stats().time.stall_ns - expect_stall).abs() < 1e-9,
            "stall {} vs {}",
            m.stats().time.stall_ns,
            expect_stall
        );
        assert!((m.stats().time.total_ns() - m.stats().time_ns).abs() < 1e-9);

        // A different rank has its own window: no extra stall.
        let stalled = m.stats().time.stall_ns;
        m.activate_read(RowAddr::new(0, 1, 0, 0, 0), 64).expect("c");
        assert!((m.stats().time.stall_ns - stalled).abs() < 1e-9);
    }

    #[test]
    fn tight_tfaw_gates_the_fifth_activation() {
        let mut cfg = MemConfig::pcm_default();
        cfg.timing.t_faw_ns = 10_000.0;
        let mut m = MainMemory::new(cfg);
        for bank in 0..4 {
            m.activate_read(RowAddr::new(0, 0, bank, 0, 0), 64)
                .expect("read");
        }
        assert_eq!(m.stats().time.stall_ns, 0.0, "first four are free");
        m.activate_read(RowAddr::new(0, 0, 4, 0, 0), 64).expect("e");
        // The fifth ACT waits for the window opened by the first (issued
        // at time 0): stall = tFAW - 4 serial commands of 35 ns.
        let expect_stall = 10_000.0 - 4.0 * 35.0;
        assert!(
            (m.stats().time.stall_ns - expect_stall).abs() < 1e-9,
            "stall {}",
            m.stats().time.stall_ns
        );
    }

    #[test]
    fn take_stats_clears_the_activation_history() {
        let mut cfg = MemConfig::pcm_default();
        cfg.timing.t_rrd_ns = 1000.0;
        let mut m = MainMemory::new(cfg);
        m.activate_read(RowAddr::new(0, 0, 0, 0, 0), 64).expect("a");
        m.take_stats();
        // On a fresh clock the old issue times must not gate anything.
        m.activate_read(RowAddr::new(0, 0, 1, 0, 0), 64).expect("b");
        assert_eq!(m.stats().time.stall_ns, 0.0);
    }

    /// Splitting a channel off into a shard (`clone_channel`) carries its
    /// activation window as relative offsets.
    #[test]
    fn split_carries_relative_activation_history() {
        let mut cfg = MemConfig::pcm_default();
        cfg.timing.t_rrd_ns = 1000.0;
        let mut parent = MainMemory::new(cfg);
        parent
            .activate_read(RowAddr::new(0, 0, 0, 0, 0), 64)
            .expect("parent act");
        let parent_now = parent.stats().time_ns; // 35.0
        let mut shard = parent.clone_channel(0);
        assert!(
            parent.act_history.is_empty(),
            "the history moved with the shard"
        );
        // The shard's clock starts at zero, but the parent's activation
        // was only 35 ns ago — the shard's first ACT must still honour
        // the 1000 ns window: stall = (0 - 35 + 1000) - 0 = 965.
        shard
            .activate_read(RowAddr::new(0, 0, 1, 0, 0), 64)
            .expect("shard act");
        let expect_stall = 1000.0 - parent_now;
        assert!(
            (shard.stats().time.stall_ns - expect_stall).abs() < 1e-9,
            "shard stall {} vs {}",
            shard.stats().time.stall_ns,
            expect_stall
        );
    }

    /// Folding a shard back in (stats merged, then its delta applied, as
    /// the session sync does) re-anchors the shard's window on the
    /// parent's advanced clock.
    #[test]
    fn absorb_rebases_the_shard_history_onto_the_parent_clock() {
        let mut cfg = MemConfig::pcm_default();
        cfg.timing.t_rrd_ns = 1000.0;
        let mut parent = MainMemory::new(cfg);
        parent
            .activate_read(RowAddr::new(0, 0, 0, 0, 0), 64)
            .expect("act 1");
        let mut shard = parent.clone_channel(0);
        shard
            .activate_read(RowAddr::new(0, 0, 1, 0, 0), 64)
            .expect("act 2"); // issues at shard-time 965
        let deltas = shard.take_dirty_state();
        parent.merge_stats(shard.take_stats());
        for delta in deltas {
            parent.apply_delta(delta);
        }
        // Serial would run the three activations at 0, 1000 and 2000:
        // the synced history must gate the third exactly the same way.
        parent
            .activate_read(RowAddr::new(0, 0, 2, 0, 0), 64)
            .expect("act 3");
        let expect_total_stall = 2.0 * (1000.0 - 35.0);
        assert!(
            (parent.stats().time.stall_ns - expect_total_stall).abs() < 1e-9,
            "total stall {} vs {}",
            parent.stats().time.stall_ns,
            expect_total_stall
        );
    }

    #[test]
    fn dirty_delta_carries_relative_activation_history() {
        let mut cfg = MemConfig::pcm_default();
        cfg.timing.t_rrd_ns = 1000.0;
        let mut parent = MainMemory::new(cfg);
        let mut shard = parent.clone_channel(0);
        shard
            .activate_read(RowAddr::new(0, 0, 0, 0, 0), 64)
            .expect("shard act");
        let deltas = shard.take_dirty_state();
        let with_acts: Vec<_> = deltas
            .iter()
            .filter(|d| !d.act_history.is_empty())
            .collect();
        assert_eq!(with_acts.len(), 1, "the gated channel ships its window");
        assert!(
            with_acts[0].act_history[0].1.iter().all(|&r| r <= 0.0),
            "offsets are relative to the sender's clock, hence non-positive"
        );
        for delta in deltas {
            parent.apply_delta(delta);
        }
        // The parent's clock never advanced (it executed nothing), so the
        // re-anchored entry sits 35 ns in its past and gates exactly as
        // the shard's own next activation would have.
        parent
            .activate_read(RowAddr::new(0, 0, 1, 0, 0), 64)
            .expect("parent act");
        let expect_stall = 1000.0 - 35.0;
        assert!(
            (parent.stats().time.stall_ns - expect_stall).abs() < 1e-9,
            "parent stall {} vs {}",
            parent.stats().time.stall_ns,
            expect_stall
        );
    }

    #[test]
    fn worn_rows_respect_the_threshold_and_sort() {
        let mut m = mem();
        let data = RowData::from_bits(&[true; 8]);
        let hot = RowAddr::new(1, 0, 2, 3, 7);
        let warm = RowAddr::new(0, 1, 0, 0, 1);
        let cold = RowAddr::new(0, 0, 0, 0, 0);
        for _ in 0..5 {
            m.write_row_local(hot, data.clone()).expect("hot");
        }
        for _ in 0..3 {
            m.write_row_local(warm, data.clone()).expect("warm");
        }
        m.write_row_local(cold, data.clone()).expect("cold");

        assert_eq!(m.row_wear(hot), 5);
        assert_eq!(m.row_wear(warm), 3);
        assert_eq!(m.row_wear(cold), 1);
        // Threshold is inclusive (`>= limit`) and the result is sorted.
        assert_eq!(m.worn_rows(3), vec![warm, hot]);
        assert_eq!(m.worn_rows(5), vec![hot]);
        assert_eq!(m.worn_rows(6), Vec::<RowAddr>::new());
        // Every charged write path wears the row; pokes never do.
        m.write_row_over_bus(cold, data.clone()).expect("bus");
        m.write_row_from_buffer(cold, data.clone()).expect("buffer");
        assert_eq!(m.row_wear(cold), 3);
        m.poke_row(cold, &data).expect("poke");
        assert_eq!(m.row_wear(cold), 3);
    }

    #[test]
    fn invalid_addresses_are_rejected_everywhere() {
        let mut m = mem();
        let bad = RowAddr::new(99, 0, 0, 0, 0);
        let data = RowData::from_bits(&[true]);
        assert!(matches!(
            m.poke_row(bad, &data),
            Err(MemError::AddressOutOfRange { .. })
        ));
        assert!(matches!(
            m.write_row_local(bad, data.clone()),
            Err(MemError::AddressOutOfRange { .. })
        ));
        assert!(matches!(
            m.activate_read(bad, 1),
            Err(MemError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_cols_is_rejected() {
        let mut m = mem();
        assert_eq!(
            m.activate_read(addr(0, 0), 0).expect_err("zero columns"),
            MemError::EmptyOperation
        );
    }

    #[test]
    fn cols_beyond_row_is_rejected() {
        let mut m = mem();
        let row_bits = m.geometry().logical_row_bits();
        assert!(matches!(
            m.activate_read(addr(0, 0), row_bits + 1),
            Err(MemError::ColsExceedRow { .. })
        ));
    }

    // ---- fault injection & recovery ----

    /// A PCM memory with the given fault model and reliability policy.
    fn faulty_mem(model: FaultModel, reliability: ReliabilityConfig) -> MainMemory {
        let mut config = MemConfig::pcm_default();
        config.fault_model = model;
        config.reliability = reliability;
        MainMemory::new(config)
    }

    /// A fault model that is *active* (so the physical sense path runs)
    /// but injects nothing: every probability is zero except a transient
    /// rate far below anything a finite random stream can hit.
    fn benign_model() -> FaultModel {
        FaultModel::with_seed(7).with_transients(1e-300, 1e-300, 1e-300)
    }

    #[test]
    fn none_model_disables_injection_even_with_protection_on() {
        let mut m = faulty_mem(FaultModel::none(), ReliabilityConfig::protected());
        assert!(!m.fault_injection_active());
        let mut plain = mem();
        let pattern = RowData::from_bits(&[true, false, true, true]);
        for target in [&mut m, &mut plain] {
            target.poke_row(addr(0, 0), &pattern).expect("poke");
            target.poke_row(addr(0, 1), &pattern).expect("poke");
            let out = target
                .multi_activate_sense_protected(
                    &[addr(0, 0), addr(0, 1)],
                    SenseMode::or(2).expect("or2"),
                    4,
                )
                .expect("protected OR");
            assert_eq!(out.bits(4), vec![true, false, true, true]);
        }
        assert_eq!(m.stats(), plain.stats(), "none model must be bit-identical");
        assert!(m.stats().reliability.is_zero());
    }

    #[test]
    fn physical_sense_path_is_exact_when_faults_never_fire() {
        let mut m = faulty_mem(benign_model(), ReliabilityConfig::off());
        assert!(m.fault_injection_active());
        m.poke_row(addr(0, 0), &RowData::from_bits(&[true, false, true, false]))
            .expect("poke a");
        m.poke_row(addr(0, 1), &RowData::from_bits(&[false, false, true, true]))
            .expect("poke b");
        let out = m
            .multi_activate_sense(&[addr(0, 0), addr(0, 1)], SenseMode::or(2).expect("or2"), 4)
            .expect("2-row OR");
        assert_eq!(out.bits(4), vec![true, false, true, true]);
        assert_eq!(m.stats().reliability.injected_bit_errors, 0);
        assert_eq!(m.stats().reliability.silent_wrong_bits, 0);
    }

    #[test]
    fn verified_write_retries_through_transient_flips() {
        let mut cfg = ReliabilityConfig::protected();
        cfg.max_write_retries = 40;
        // Seed chosen so the first write event flips bits and a later
        // attempt within the retry budget draws a clean event.
        let mut m = faulty_mem(FaultModel::with_seed(0x1D).with_write_flips(0.02), cfg);
        let data = RowData::from_bits(&[true; 32]);
        m.write_row_local(addr(0, 0), data.clone())
            .expect("write lands");
        assert_eq!(m.peek_row(addr(0, 0)).expect("stored"), &data);
        let r = m.stats().reliability;
        assert!(r.injected_write_faults > 0, "flips must have fired");
        assert!(r.write_retries > 0, "verify must have caught them");
        assert!(r.is_consistent(), "{r:?}");
        assert_eq!(r.silent_wrong_bits, 0);
    }

    #[test]
    fn stuck_cells_defeat_verified_writes_explicitly() {
        let mut m = faulty_mem(
            FaultModel::with_seed(0xBAD).with_stuck_at(0.3, 0.0),
            ReliabilityConfig::protected(),
        );
        let err = m
            .write_row_local(addr(0, 0), RowData::from_bits(&[true; 128]))
            .expect_err("stuck-at-0 cells cannot hold ones");
        assert!(matches!(err, MemError::UncorrectableWrite { .. }));
        let r = m.stats().reliability;
        assert!(r.uncorrectable_errors >= 1);
        assert!(r.is_consistent(), "{r:?}");
    }

    #[test]
    fn parity_flags_unverified_bad_writes_on_read() {
        // Writes are not verified, so stuck cells corrupt the array
        // silently; the per-row parity must catch it at read time, and
        // since the corruption is deterministic, retries cannot fix it —
        // the read must fail *explicitly*. Parity's blind spot (an even
        // number of flips inside one 64-bit word) must land in the
        // silent-wrong-bits ledger, never go completely unaccounted.
        let mut cfg = ReliabilityConfig::protected();
        cfg.verify_writes = false;
        let mut m = faulty_mem(FaultModel::with_seed(0xBAD).with_stuck_at(0.01, 0.0), cfg);
        let data = RowData::from_bits(&[true; 128]);
        let mut explicit_failures = 0u64;
        let mut escaped_bits = 0u64;
        for row in 0..16 {
            m.poke_row(addr(0, row), &data).expect("unverified poke");
            match m.activate_read(addr(0, row), 128) {
                Ok(got) => {
                    let mut diff = got;
                    diff.xor_assign(&data);
                    escaped_bits += diff.count_ones();
                }
                Err(MemError::UncorrectableRead { .. }) => explicit_failures += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let r = m.stats().reliability;
        assert!(explicit_failures >= 1, "some rows must fail parity");
        assert!(r.detected_errors >= explicit_failures);
        assert!(r.sense_retries > 0, "the ladder must have retried");
        assert_eq!(
            r.silent_wrong_bits, escaped_bits,
            "every wrong bit in accepted data must be in the ledger"
        );
        assert!(r.is_consistent(), "{r:?}");
    }

    #[test]
    fn wide_or_splits_at_the_reliable_fan_in() {
        let mut cfg = ReliabilityConfig::protected();
        cfg.reliable_fan_in = ReliableFanIn::Fixed(4);
        let mut m = faulty_mem(benign_model(), cfg);
        assert_eq!(m.reliable_or_fan_in(), 4);
        let rows: Vec<RowAddr> = (0..8).map(|r| addr(0, r)).collect();
        m.poke_row(addr(0, 6), &RowData::from_bits(&[false, true]))
            .expect("poke");
        let out = m
            .multi_activate_sense_protected(&rows, SenseMode::or(8).expect("or8"), 2)
            .expect("split OR");
        assert_eq!(out.bits(2), vec![false, true]);
        let r = m.stats().reliability;
        assert_eq!(r.fan_in_splits, 1);
        assert_eq!(
            m.stats().events.multi_activates,
            2,
            "8 rows at limit 4 means two OR-4 chunks"
        );
        assert!(r.is_consistent(), "{r:?}");
    }

    #[test]
    fn unstable_sense_surfaces_after_bounded_retries() {
        // A transient rate of 0.5 per cell makes duplicate senses disagree
        // essentially always: the ladder must exhaust its retries and hand
        // the decision up instead of looping or returning garbage.
        let mut m = faulty_mem(
            FaultModel::with_seed(0xF1).with_transients(0.0, 0.5, 0.0),
            ReliabilityConfig::protected(),
        );
        let rows = [addr(0, 0), addr(0, 1)];
        let err = m
            .multi_activate_sense_protected(&rows, SenseMode::or(2).expect("or2"), 64)
            .expect_err("duplicate senses cannot agree at 50% flip rate");
        assert!(matches!(err, MemError::SenseUnstable { .. }));
        let r = m.stats().reliability;
        assert!(r.detected_errors >= 1);
        assert_eq!(r.sense_retries, 3, "protected() allows three retries");
        // The caller now resolves it; mimic the engine's RMW fallback so
        // the ledger closes.
        m.note_rmw_fallback();
        m.note_recovery_resolved();
        let r = m.stats().reliability;
        assert_eq!(r.rmw_fallbacks, 1);
        assert!(r.is_consistent(), "{r:?}");
    }

    #[test]
    fn recovery_charges_real_time_and_energy() {
        // The ladder is not free: a run with retries must cost strictly
        // more than the same run fault-free.
        let mut clean = mem();
        let mut noisy = faulty_mem(
            FaultModel::with_seed(0xF1).with_transients(0.0, 0.5, 0.0),
            ReliabilityConfig::protected(),
        );
        for m in [&mut clean, &mut noisy] {
            let _ = m.multi_activate_sense_protected(
                &[addr(0, 0), addr(0, 1)],
                SenseMode::or(2).expect("or2"),
                64,
            );
        }
        assert!(noisy.stats().time_ns > clean.stats().time_ns);
        assert!(noisy.stats().total_energy_pj() > clean.stats().total_energy_pj());
        assert!(noisy.stats().events.mode_sets > clean.stats().events.mode_sets);
    }

    // ---- channel sharding ----

    fn ch_addr(channel: u32, subarray: u32, row: u32) -> RowAddr {
        RowAddr::new(channel, 0, 0, subarray, row)
    }

    /// Ships a shard's dirty state and statistics back into `parent` the
    /// way the session sync does: stats first, then the deltas.
    fn sync_back(parent: &mut MainMemory, shard: &mut MainMemory) {
        let deltas = shard.take_dirty_state();
        parent.merge_stats(shard.take_stats());
        for delta in deltas {
            parent.apply_delta(delta);
        }
    }

    #[test]
    fn clone_and_delta_round_trip_state_and_stats() {
        let mut m = mem();
        let a = RowData::from_bits(&[true, false, true, false]);
        let b = RowData::from_bits(&[false, true, true, false]);
        let c = RowData::from_bits(&[true, true, false, true]);
        m.poke_row(ch_addr(0, 0, 0), &a).expect("poke ch0");
        m.poke_row(ch_addr(1, 0, 0), &b).expect("poke ch1");

        let mut shard = m.clone_channel(1);
        assert_eq!(shard.peek_row(ch_addr(1, 0, 0)), Some(&b));
        assert_eq!(shard.peek_row(ch_addr(0, 0, 0)), None);
        assert_eq!(shard.max_or_fan_in(), m.max_or_fan_in());
        assert_eq!(shard.reliable_or_fan_in(), m.reliable_or_fan_in());
        assert!(shard.stats().time_ns == 0.0, "shard ledgers start at zero");

        // Work on both halves independently; the shard also writes.
        let parent_out = m.activate_read(ch_addr(0, 0, 0), 4).expect("read ch0");
        let shard_out = shard.activate_read(ch_addr(1, 0, 0), 4).expect("read ch1");
        assert_eq!(parent_out, a);
        assert_eq!(shard_out, b);
        shard
            .write_row_local(ch_addr(1, 0, 1), c.clone())
            .expect("shard write");
        assert_eq!(m.peek_row(ch_addr(1, 0, 1)), None, "the mirror is stale");
        let parent_stats = *m.stats();
        let shard_stats = *shard.stats();

        sync_back(&mut m, &mut shard);
        assert_eq!(m.peek_row(ch_addr(1, 0, 0)), Some(&b));
        assert_eq!(m.peek_row(ch_addr(1, 0, 1)), Some(&c));
        assert_eq!(m.channel_digest(1), shard.channel_digest(1));
        assert_eq!(*m.stats(), parent_stats + shard_stats);
        assert_eq!(
            m.wear_report().total_row_writes,
            1,
            "the shard's write wear ships back; pokes charge none"
        );
    }

    #[test]
    fn sharded_fault_streams_match_serial_execution() {
        // With per-channel streams, the draws a channel consumes do not
        // depend on whether the other channels executed in between — so a
        // serial run and a clone/execute/sync run are bit-identical.
        let model = FaultModel::with_seed(0xD15C)
            .with_transients(1e-2, 1e-2, 1e-2)
            .with_write_flips(1e-2);
        let reliability = ReliabilityConfig::protected();
        let pattern = RowData::from_bits(&[true, false, true, true]);

        let run_serial = |order_ch1_first: bool| -> (Vec<RowData>, MemStats) {
            let mut m = faulty_mem(model, reliability);
            for ch in 0..2 {
                m.poke_row(ch_addr(ch, 0, 0), &pattern).expect("poke");
                m.poke_row(ch_addr(ch, 0, 1), &pattern).expect("poke");
            }
            let channels: &[u32] = if order_ch1_first { &[1, 0] } else { &[0, 1] };
            let mut outs = vec![RowData::zeros(4); 2];
            for &ch in channels {
                outs[ch as usize] = m
                    .multi_activate_sense_protected(
                        &[ch_addr(ch, 0, 0), ch_addr(ch, 0, 1)],
                        SenseMode::or(2).expect("or2"),
                        4,
                    )
                    .expect("protected OR");
            }
            (outs, *m.stats())
        };

        let (serial_outs, serial_stats) = run_serial(false);
        let (reordered_outs, reordered_stats) = run_serial(true);
        assert_eq!(serial_outs, reordered_outs, "streams are order-independent");
        assert_eq!(serial_stats, reordered_stats);

        // Clone channel 1 into a shard, execute both halves, sync back.
        let mut m = faulty_mem(model, reliability);
        for ch in 0..2 {
            m.poke_row(ch_addr(ch, 0, 0), &pattern).expect("poke");
            m.poke_row(ch_addr(ch, 0, 1), &pattern).expect("poke");
        }
        let before = *m.stats();
        let mut shard = m.clone_channel(1);
        let out1 = shard
            .multi_activate_sense_protected(
                &[ch_addr(1, 0, 0), ch_addr(1, 0, 1)],
                SenseMode::or(2).expect("or2"),
                4,
            )
            .expect("shard OR");
        let out0 = m
            .multi_activate_sense_protected(
                &[ch_addr(0, 0, 0), ch_addr(0, 0, 1)],
                SenseMode::or(2).expect("or2"),
                4,
            )
            .expect("parent OR");
        sync_back(&mut m, &mut shard);
        assert_eq!(m.channel_digest(1), shard.channel_digest(1));
        assert_eq!(vec![out0, out1], serial_outs);
        assert_eq!(*m.stats() - before, serial_stats - before);
        assert!(m.stats().reliability.is_consistent());
    }

    #[test]
    fn preload_pim_config_is_free() {
        let mut m = mem();
        m.preload_pim_config(PimConfig::Or);
        assert_eq!(m.pim_config(), PimConfig::Or);
        assert_eq!(m.stats().events.mode_sets, 0);
        assert_eq!(m.stats().time_ns, 0.0);
        // A charged set to the preloaded mode is now a cache hit.
        m.set_pim_config(PimConfig::Or);
        assert_eq!(m.stats().events.mode_sets, 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn clone_of_an_invalid_channel_panics() {
        let mut m = mem();
        let _ = m.clone_channel(99);
    }

    #[test]
    fn clone_channel_copies_zero_row_pages_until_first_write() {
        let mut m = mem();
        let n = crate::page::ROWS_PER_PAGE * 4;
        let original = RowData::from_bits(&[true, true, false, true]);
        for row in 0..n {
            m.poke_row(ch_addr(0, 0, row), &original).expect("poke");
        }
        let _ = m.take_dirty_state();
        assert_eq!(m.stats().row_pages_copied, 0, "populating copies nothing");

        let mut shard = m.clone_channel(0);
        assert_eq!(
            m.stats().row_pages_copied + shard.stats().row_pages_copied,
            0,
            "cloning a channel of {n} populated rows must copy zero row pages"
        );

        // First shard write to a shared page copies exactly that page.
        let update = RowData::from_bits(&[false, false, true, false]);
        shard.poke_row(ch_addr(0, 0, 0), &update).expect("poke");
        assert_eq!(shard.stats().row_pages_copied, 1);
        // A second write inside the now-exclusive page copies nothing.
        shard.poke_row(ch_addr(0, 0, 1), &update).expect("poke");
        assert_eq!(shard.stats().row_pages_copied, 1);
        // A write landing in a different shared page copies that one too.
        shard
            .poke_row(ch_addr(0, 0, crate::page::ROWS_PER_PAGE), &update)
            .expect("poke");
        assert_eq!(shard.stats().row_pages_copied, 2);
        // The stale mirror never observed any of it.
        assert_eq!(m.peek_row(ch_addr(0, 0, 0)), Some(&original));
        assert_eq!(m.stats().row_pages_copied, 0);
    }

    #[test]
    fn clone_channel_retains_undrained_dirty_state_in_the_parent() {
        let mut m = mem();
        let data = RowData::from_bits(&[true, false]);
        m.poke_row(ch_addr(0, 0, 3), &data).expect("poke ch0");
        m.poke_row(ch_addr(1, 0, 7), &data).expect("poke ch1");

        // Clone while the parent still holds undrained dirty state for
        // both channels: nothing is discarded — the entries stay in the
        // parent's log (it holds that state current; the clone shares
        // it), so the parent's next drain still ships them …
        let mut shard = m.clone_channel(1);
        let parent_deltas = m.take_dirty_state();
        assert_eq!(parent_deltas.len(), 2, "parent still ships both channels");
        assert_eq!(parent_deltas[0].channel, 0);
        assert_eq!(parent_deltas[1].channel, 1);
        assert!(
            parent_deltas[1]
                .pages
                .iter()
                .any(|(id, _)| id.channel() == 1),
            "retained dirty state covers the poked page"
        );

        // … while the shard starts in sync with the parent, so its own
        // deltas carry only writes made after the clone.
        assert!(
            shard.take_dirty_state().is_empty(),
            "a fresh clone has nothing of its own to ship"
        );
        let addr = ch_addr(1, 0, 9);
        shard.poke_row(addr, &data).expect("poke shard");
        let shard_deltas = shard.take_dirty_state();
        assert_eq!(shard_deltas.len(), 1);
        assert_eq!(shard_deltas[0].channel, 1);
        let (expected_page, _) = PageId::of(addr);
        assert_eq!(
            shard_deltas[0]
                .pages
                .iter()
                .map(|&(id, _)| id)
                .collect::<Vec<_>>(),
            vec![expected_page],
            "only the shard's own write is shipped"
        );
    }
}
