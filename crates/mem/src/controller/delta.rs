//! Shard state: the dirty log and the channel clone/delta/merge protocol.
//!
//! A channel leaves a memory through [`MainMemory::clone_channel`] and
//! re-enters it through [`MainMemory::take_dirty_state`] →
//! [`MainMemory::apply_delta`] plus [`MainMemory::merge_stats`]; the
//! [`DirtyLog`] the mutation paths maintain keeps both O(touched state).

use super::MainMemory;
use crate::address::RowAddr;
use crate::array::RowData;
use crate::stats::MemStats;
use pinatubo_nvm::fault::FaultState;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Keys of the functional state mutated since the last drain, kept by the
/// store and fault-stream paths themselves so the log is exact regardless
/// of which command touched the state. A row's wear and kept intended
/// image change only beside a store of that row (`charge_write` and
/// `record_protection` always run next to `store`), so one dirty set per
/// row covers all three.
#[derive(Debug, Default)]
pub(super) struct DirtyLog {
    pub(super) rows: HashSet<RowAddr>,
    pub(super) fault: HashSet<u32>,
}

/// The state one channel's owner must ship to bring a stale mirror up to
/// date: for each row written since the last drain its image, wear and
/// kept intended image, plus the fault-stream position when it moved.
/// Produced by [`MainMemory::take_dirty_state`], consumed by
/// [`MainMemory::apply_delta`]. Row images travel as `Arc` references —
/// O(1) each, no row data cloned — and the receiver installs them, so
/// both sides share the row again. Carries no statistics — those are
/// moved separately so a delta can also flow *away* from the ledger
/// owner (e.g. a channel-straddling request on the unified memory pushing
/// its writes back to shards).
#[derive(Debug)]
pub struct ChannelDelta {
    pub(super) channel: u32,
    pub(super) rows: Vec<DirtyRow>,
    fault: Option<FaultState>,
}

/// Everything the sender holds for one dirty row; `None` means it holds
/// no entry, and the receiver drops its own.
#[derive(Debug)]
pub(super) struct DirtyRow {
    pub(super) addr: RowAddr,
    image: Option<Arc<RowData>>,
    wear: Option<u64>,
    kept: Option<RowData>,
}

impl ChannelDelta {
    fn empty(channel: u32) -> Self {
        ChannelDelta {
            channel,
            rows: Vec::new(),
            fault: None,
        }
    }

    /// The channel whose state this delta carries.
    #[must_use]
    pub fn channel(&self) -> u32 {
        self.channel
    }
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
/// deterministic output (the channel digest), so the sort lives here
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

/// Sets `map[key]` to `value`, or removes the entry when `value` is `None`.
fn install<V>(map: &mut HashMap<RowAddr, V>, key: RowAddr, value: Option<V>) {
    match value {
        Some(value) => map.insert(key, value),
        None => map.remove(&key),
    };
}

/// Consumes a dirty-key set into an ascending, deterministic drain order.
fn sorted_keys<K: Ord>(set: HashSet<K>) -> Vec<K> {
    let mut keys: Vec<K> = set.into_iter().collect();
    keys.sort_unstable();
    keys
}

impl MainMemory {
    /// Shares everything `channel` owns into an independent worker shard,
    /// *keeping* this memory's copy in place as a stale mirror. The
    /// shard gets the channel's rows, wear, kept intended images and
    /// fault-injection stream; configuration and the
    /// cached fan-in analyses are copied (never re-derived — the yield
    /// sweep is a Monte-Carlo run). Rows are shared by reference (one
    /// `Arc` bump per row, zero row copies); a write on either side
    /// replaces only that side's reference. The
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
    /// The shard starts with zeroed statistics and the parent's current
    /// PIM mode. Nothing it charges depends on its clock, so its taken
    /// statistics add into the parent's as they are. The parent's fault
    /// stream for the channel is *retained* so channel-straddling
    /// requests on the unified memory can keep drawing; the sync protocol
    /// replaces it with the shard's advanced stream before any such draw.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is outside the geometry.
    #[must_use]
    pub fn clone_channel(&self, channel: u32) -> MainMemory {
        self.assert_channel_in_geometry(channel);
        let mut shard = self.shard_skeleton();
        shard.rows = clone_matching(&self.rows, |a| a.channel == channel);
        shard.wear = clone_matching(&self.wear, |a| a.channel == channel);
        shard.protect = clone_matching(&self.protect, |a| a.channel == channel);
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
            rows: HashMap::new(),
            wear: HashMap::new(),
            fault: HashMap::new(),
            fault_sites: HashMap::new(),
            reliable_or_fan_in: self.reliable_or_fan_in,
            protect: HashMap::new(),
            mode: self.mode,
            stats: MemStats::new(),
            dirty: DirtyLog::default(),
        }
    }

    /// Drains the dirty log into per-channel deltas carrying only the
    /// state touched since the last drain (ascending channel order, every
    /// touched channel present even if its delta is functionally empty).
    /// Statistics are *not* included — move them with
    /// [`MainMemory::take_stats`] when the delta flows toward the ledger
    /// owner.
    pub fn take_dirty_state(&mut self) -> Vec<ChannelDelta> {
        let dirty = std::mem::take(&mut self.dirty);
        let mut by_channel: std::collections::BTreeMap<u32, ChannelDelta> =
            std::collections::BTreeMap::new();
        for addr in sorted_keys(dirty.rows) {
            // One Arc bump per dirty row, never a row copy: the receiver
            // installs the image and both sides share it again.
            by_channel
                .entry(addr.channel)
                .or_insert_with(|| ChannelDelta::empty(addr.channel))
                .rows
                .push(DirtyRow {
                    addr,
                    image: self.rows.get(&addr).cloned(),
                    wear: self.wear.get(&addr).copied(),
                    kept: self.protect.get(&addr).cloned(),
                });
        }
        for channel in dirty.fault {
            by_channel
                .entry(channel)
                .or_insert_with(|| ChannelDelta::empty(channel))
                .fault = self.fault.get(&channel).cloned();
        }
        by_channel.into_values().collect()
    }

    /// Applies a delta produced by the owner of a channel's state: each
    /// shipped row's image, wear and kept intended image replace this
    /// side's (or remove them where the sender holds none), and the fault
    /// stream (when carried) replaces this side's position.
    /// Application is not logged as dirty — both sides agree on the
    /// shipped state afterwards, so re-shipping it would be pure waste.
    pub fn apply_delta(&mut self, delta: ChannelDelta) {
        for row in delta.rows {
            install(&mut self.rows, row.addr, row.image);
            install(&mut self.wear, row.addr, row.wear);
            install(&mut self.protect, row.addr, row.kept);
        }
        if let Some(state) = delta.fault {
            self.fault.insert(state.channel(), state);
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
    /// advancing this memory's clock by the shard's elapsed time.
    pub fn merge_stats(&mut self, delta: MemStats) {
        self.stats += delta;
    }

    /// Order-independent digest of every piece of functional state
    /// `channel` owns (rows, wear, kept intended images, fault-stream
    /// position). Two memories that digest equal respond identically to
    /// any command on the channel. Used by the session sync's debug
    /// assertion that a dirty-state delta left parent and shard identical.
    #[must_use]
    pub fn channel_digest(&self, channel: u32) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        sorted_matching(&self.rows, |a| a.channel == channel).hash(&mut hasher);
        sorted_matching(&self.wear, |a| a.channel == channel).hash(&mut hasher);
        sorted_matching(&self.protect, |a| a.channel == channel).hash(&mut hasher);
        self.fault
            .get(&channel)
            .map(FaultState::events_drawn)
            .hash(&mut hasher);
        hasher.finish()
    }
}
