//! Arc-backed copy-on-write row pages.
//!
//! Row storage groups [`ROWS_PER_PAGE`] consecutive rows of one subarray
//! into an immutable, reference-counted [`RowPage`]. Sharing a channel's
//! state — a worker shard cloned by `MainMemory::clone_channel`, the
//! session parent's stale mirror, a point-in-time snapshot — is then a
//! reference-count bump per page instead of a deep copy per row, and a
//! dirty page travels inside a [`ChannelDelta`](crate::ChannelDelta) as
//! one more reference instead of a cloned row image. A page is deep-copied
//! exactly once: on the first write while it is shared (`Arc::make_mut`),
//! which is what keeps `open_session` and sync cost proportional to
//! *touched* state rather than to memory capacity.

use crate::address::{RowAddr, SubarrayId};
use crate::array::RowData;
use std::collections::HashMap;
use std::sync::Arc;

/// Rows per copy-on-write page. Small enough that the one-time deep copy
/// of a shared page on first write stays cheap (at most this many row
/// images), large enough that page-table overhead stays negligible next
/// to per-row storage. Allocators can align co-written groups to this
/// boundary so a hot destination row does not drag cold neighbours
/// through the copy.
pub const ROWS_PER_PAGE: u32 = 4;

/// Identity of one page: a subarray and a page index within it. Rows
/// `index * ROWS_PER_PAGE .. (index + 1) * ROWS_PER_PAGE` of the subarray
/// live in this page, so a page never spans subarrays (and therefore
/// never spans channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct PageId {
    pub(crate) subarray: SubarrayId,
    pub(crate) index: u32,
}

impl PageId {
    /// The page holding `addr`, and the row's slot within it.
    pub(crate) fn of(addr: RowAddr) -> (PageId, usize) {
        (
            PageId {
                subarray: addr.subarray_id(),
                index: addr.row / ROWS_PER_PAGE,
            },
            (addr.row % ROWS_PER_PAGE) as usize,
        )
    }

    /// The channel owning this page.
    pub(crate) fn channel(&self) -> u32 {
        self.subarray.channel
    }

    /// The subarray-relative row index of `slot`.
    pub(crate) fn row_of_slot(&self, slot: usize) -> u32 {
        self.index * ROWS_PER_PAGE + slot as u32
    }
}

/// One page of row images. Slots are `None` until their row is first
/// materialized (absent rows read as zeros at the controller level).
#[derive(Debug, Clone, Default)]
pub(crate) struct RowPage {
    slots: [Option<RowData>; ROWS_PER_PAGE as usize],
}

impl RowPage {
    /// The populated slots, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &RowData)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, data)| data.as_ref().map(|d| (slot, d)))
    }
}

/// The sparse page table: every materialized page of the memory, shared
/// by reference until written.
#[derive(Debug, Default)]
pub(crate) struct PageTable {
    pages: HashMap<PageId, Arc<RowPage>>,
}

impl PageTable {
    /// The stored image of `addr`, if the row was ever materialized.
    pub(crate) fn get(&self, addr: RowAddr) -> Option<&RowData> {
        let (id, slot) = PageId::of(addr);
        self.pages.get(&id)?.slots[slot].as_ref()
    }

    /// Stores `data` at `addr`, copying the owning page first if it is
    /// currently shared. Returns whether such a copy-on-write happened
    /// (the caller's cue to count it).
    pub(crate) fn insert(&mut self, addr: RowAddr, data: RowData) -> bool {
        let (id, slot) = PageId::of(addr);
        let page = self.pages.entry(id).or_default();
        let copied = Arc::strong_count(page) > 1;
        Arc::make_mut(page).slots[slot] = Some(data);
        copied
    }

    /// Shares every page of `channel` into a new table — one reference
    /// bump per page, zero row copies. Writes on either side copy the
    /// affected page first (see [`PageTable::insert`]).
    pub(crate) fn share_channel(&self, channel: u32) -> PageTable {
        PageTable {
            pages: self
                .pages
                .iter()
                .filter(|(id, _)| id.channel() == channel)
                .map(|(&id, page)| (id, Arc::clone(page)))
                .collect(),
        }
    }

    /// One more reference to the page `id`, for shipping it in a delta.
    pub(crate) fn page(&self, id: PageId) -> Option<Arc<RowPage>> {
        self.pages.get(&id).map(Arc::clone)
    }

    /// Installs a shipped page wholesale, replacing any local version.
    /// The page becomes shared between shipper and receiver; the next
    /// local write copies it.
    pub(crate) fn insert_page(&mut self, id: PageId, page: Arc<RowPage>) {
        self.pages.insert(id, page);
    }

    /// Every materialized row of `channel` as `((subarray, row), data)`,
    /// unsorted — the digest path sorts by key itself.
    pub(crate) fn channel_rows(&self, channel: u32) -> Vec<((SubarrayId, u32), &RowData)> {
        self.pages
            .iter()
            .filter(|(id, _)| id.channel() == channel)
            .flat_map(|(id, page)| {
                page.iter()
                    .map(move |(slot, data)| ((id.subarray, id.row_of_slot(slot)), data))
            })
            .collect()
    }

    /// Materialized pages (tests / capacity introspection).
    #[cfg(test)]
    pub(crate) fn page_count(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(channel: u32, row: u32) -> RowAddr {
        RowAddr::new(channel, 0, 0, 0, row)
    }

    #[test]
    fn page_id_groups_consecutive_rows() {
        let (p0, s0) = PageId::of(addr(0, 0));
        let (p7, s7) = PageId::of(addr(0, ROWS_PER_PAGE - 1));
        let (p8, s8) = PageId::of(addr(0, ROWS_PER_PAGE));
        assert_eq!(p0, p7);
        assert_ne!(p0, p8);
        assert_eq!((s0, s7, s8), (0, ROWS_PER_PAGE as usize - 1, 0));
        assert_eq!(p8.row_of_slot(s8), ROWS_PER_PAGE);
    }

    #[test]
    fn shared_pages_copy_only_on_first_write() {
        let mut parent = PageTable::default();
        for row in 0..ROWS_PER_PAGE * 2 {
            assert!(
                !parent.insert(addr(0, row), RowData::from_bits(&[true])),
                "unshared inserts never copy"
            );
        }
        let mut shard = parent.share_channel(0);
        assert_eq!(shard.page_count(), 2);
        // First write to a shared page copies it; the second write to the
        // same (now exclusive) page does not.
        assert!(shard.insert(addr(0, 0), RowData::from_bits(&[false])));
        assert!(!shard.insert(addr(0, 1), RowData::from_bits(&[false])));
        // The other shared page was never written and still copies.
        assert!(shard.insert(addr(0, ROWS_PER_PAGE), RowData::from_bits(&[false])));
        // The parent kept its original images throughout.
        assert_eq!(
            parent.get(addr(0, 0)),
            Some(&RowData::from_bits(&[true])),
            "copy-on-write must not leak into the sharing side"
        );
    }

    #[test]
    fn share_keeps_the_source() {
        let mut table = PageTable::default();
        table.insert(addr(0, 0), RowData::from_bits(&[true]));
        table.insert(addr(1, 0), RowData::from_bits(&[false]));
        let shared = table.share_channel(1);
        assert!(table.get(addr(1, 0)).is_some(), "share keeps the source");
        assert_eq!(shared.get(addr(1, 0)), table.get(addr(1, 0)));
        assert!(
            shared.get(addr(0, 0)).is_none(),
            "only the channel is shared"
        );
        assert!(table.get(addr(0, 0)).is_some());
    }

    #[test]
    fn channel_rows_lists_only_materialized_rows() {
        let mut table = PageTable::default();
        table.insert(addr(0, 3), RowData::from_bits(&[true]));
        table.insert(addr(0, 11), RowData::from_bits(&[true, false]));
        table.insert(addr(2, 5), RowData::from_bits(&[false]));
        let mut rows = table.channel_rows(0);
        rows.sort_unstable_by_key(|&(key, _)| key);
        let keys: Vec<u32> = rows.iter().map(|&((_, row), _)| row).collect();
        assert_eq!(keys, vec![3, 11]);
        assert_eq!(table.channel_rows(1).len(), 0);
        assert_eq!(table.channel_rows(2).len(), 1);
    }
}
