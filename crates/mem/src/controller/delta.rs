//! Shard state: the dirty log and the channel clone/delta/merge protocol.
//!
//! A channel leaves a memory through [`MainMemory::clone_channel`] and
//! re-enters it through [`MainMemory::take_dirty_state`] →
//! [`MainMemory::apply_delta`] plus [`MainMemory::merge_stats`]; the
//! [`DirtyLog`] the mutation paths maintain keeps both O(touched state).

use super::MainMemory;
use crate::address::RowAddr;
use crate::array::RowData;
use crate::page::{PageId, PageTable, RowPage};
use crate::stats::MemStats;
use pinatubo_nvm::fault::FaultState;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Keys of the functional state mutated since the last drain. Maintained
/// by the store/wear/protection-metadata/fault mutation paths
/// themselves, so the log is exact regardless of which command touched
/// the state. Row writes are logged at page granularity: a delta ships
/// the whole (Arc'd) page, so finer tracking would buy nothing.
#[derive(Debug, Default)]
pub(super) struct DirtyLog {
    pub(super) pages: HashSet<PageId>,
    pub(super) wear: HashSet<RowAddr>,
    pub(super) protect: HashSet<RowAddr>,
    pub(super) fault: HashSet<u32>,
}

/// The state one channel's owner must ship to bring a stale mirror up to
/// date: exactly the row pages, wear counters, protection metadata (the
/// intended images of rows a write left with wrong bits, and the removal
/// of each image a clean write dropped) and fault-stream position touched
/// since the last drain.
/// Produced by [`MainMemory::take_dirty_state`], consumed by
/// [`MainMemory::apply_delta`]. Dirty pages travel as `Arc` references —
/// O(1) each, no row data cloned — and the receiver installs them
/// wholesale, re-sharing the page between both sides. Carries no
/// statistics — those are moved separately so a delta can also
/// flow *away* from the ledger owner (e.g. a channel-straddling request
/// on the unified memory pushing its writes back to shards).
#[derive(Debug)]
pub struct ChannelDelta {
    pub(super) channel: u32,
    pub(super) pages: Vec<(PageId, Arc<RowPage>)>,
    wear: Vec<(RowAddr, u64)>,
    /// `Some(image)` keeps a row's intended image, `None` drops it.
    protect: Vec<(RowAddr, Option<RowData>)>,
    fault: Option<FaultState>,
}

impl ChannelDelta {
    fn empty(channel: u32) -> Self {
        ChannelDelta {
            channel,
            pages: Vec::new(),
            wear: Vec::new(),
            protect: Vec::new(),
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
    /// sweep is a Monte-Carlo run). Row pages are shared by reference
    /// (one `Arc` bump per page, zero row copies — see `crate::page`);
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
        shard.rows = self.rows.share_channel(channel);
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
            rows: PageTable::default(),
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
            by_channel
                .entry(addr.channel)
                .or_insert_with(|| ChannelDelta::empty(addr.channel))
                .protect
                .push((addr, self.protect.get(&addr).cloned()));
        }
        for channel in dirty.fault {
            by_channel
                .entry(channel)
                .or_insert_with(|| ChannelDelta::empty(channel))
                .fault = self.fault.get(&channel).cloned();
        }
        by_channel.into_values().collect()
    }

    /// Applies a delta produced by the owner of a channel's state: row
    /// pages install wholesale (re-sharing them between both sides), wear
    /// entries and kept intended images overwrite, a dropped image is
    /// removed here too, and the fault stream (when carried) replaces this
    /// side's position.
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
        for (addr, image) in delta.protect {
            match image {
                Some(image) => self.protect.insert(addr, image),
                None => self.protect.remove(&addr),
            };
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
        self.fault
            .get(&channel)
            .map(FaultState::events_drawn)
            .hash(&mut hasher);
        hasher.finish()
    }
}
