//! A per-host write-back cache model for pool-mapped memory.
//!
//! Today's CXL pool devices are not cache-coherent across hosts (§3):
//! host A's cached copy of a pool line is never invalidated when host B
//! writes the line, and host A's dirty lines are invisible to host B
//! until written back. This module makes both hazards *observable* in
//! simulation so the software-coherence discipline in `shmem` and the
//! datapath is actually load-bearing: skip a flush and tests see stale
//! bytes, exactly like the hardware.
//!
//! The model tracks only pool-mapped lines (local DRAM is always
//! coherent within a host) with FIFO eviction; evicting a dirty line
//! writes it back to the pool, which is why "it happened to work" is a
//! real failure mode of missing-flush bugs.
//!
//! Ordering invariants:
//!
//! - Eviction takes the oldest *live* residency: a line's FIFO position
//!   is set when it becomes resident (fill, or a store that misses) and
//!   never refreshed, and an entry whose stamp no longer matches its
//!   line is a ghost that eviction skips.
//! - A bitmap over 1024-line pages holds exactly one bit per resident
//!   line, set when a line becomes resident and cleared when it leaves
//!   (flush, invalidate, eviction); a page with no bit set is dropped.
//!   The range walks (`invalidate_range`, `flush_range`,
//!   `load_dirty_in`) visit the resident lines of a range in ascending
//!   address order, the order of a per-line loop. They skip only absent
//!   lines, on which every per-line operation is a no-op, so stats, the
//!   dirty count, ghost compaction and eviction order are those of the
//!   per-line loop.

use std::collections::VecDeque;

use simkit::hash::DetHashMap;

use crate::params::CACHELINE;

/// Lines per residency-bitmap page (64 KiB of pool).
const PAGE_LINES: u64 = 1024;
/// `u64` words per bitmap page.
const PAGE_WORDS: usize = (PAGE_LINES / 64) as usize;

/// The line-aligned span `[first, end)` of the lines overlapping
/// `[hpa, hpa + len)`. A zero `len` at an unaligned `hpa` still covers
/// `hpa`'s line.
pub(crate) fn span(hpa: u64, len: u64) -> (u64, u64) {
    (
        HostCache::line_addr(hpa),
        HostCache::line_addr(hpa + len - 1) + CACHELINE,
    )
}

/// One cached 64 B line.
#[derive(Clone, Debug)]
struct Line {
    data: [u8; CACHELINE as usize],
    dirty: bool,
    /// Insertion stamp pairing the line with its FIFO entry; a FIFO
    /// entry whose stamp no longer matches is a ghost of an earlier
    /// residency and is skipped (lazy deletion).
    stamp: u64,
}

/// Statistics for one host's pool-line cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads served from the local (possibly stale) copy.
    pub hits: u64,
    /// Loads that fetched from the pool.
    pub misses: u64,
    /// Dirty lines pushed to the pool by flush or eviction.
    pub writebacks: u64,
    /// Lines dropped by invalidation.
    pub invalidations: u64,
}

/// A host-private write-back cache over pool addresses.
///
/// Eviction order is FIFO over a lazily-deleted queue: flushes and
/// invalidates remove only the map entry (O(1)), leaving a stale
/// `(addr, stamp)` ghost in the queue that eviction and compaction
/// skip. The eager alternative — `retain` over the queue — cost
/// O(capacity) per invalidated line and dominated ring-poll datapaths,
/// which invalidate a line on every poll.
pub struct HostCache {
    lines: DetHashMap<u64, Line>,
    /// Residency bitmap: page number -> one bit per line of the page,
    /// set exactly for the keys of `lines`. Empty pages are removed.
    pages: DetHashMap<u64, [u64; PAGE_WORDS]>,
    /// `(line, stamp)` in insertion order; entries whose stamp is no
    /// longer current for the line are ghosts.
    fifo: VecDeque<(u64, u64)>,
    next_stamp: u64,
    capacity: usize,
    /// Resident lines that are dirty, kept so the fabric can skip a
    /// DMA's per-line dirty-overlay walk when there are none.
    dirty: usize,
    stats: CacheStats,
}

/// The result of a cache lookup for a load.
pub enum LoadOutcome {
    /// Line found locally; data may be stale relative to the pool.
    Hit([u8; CACHELINE as usize]),
    /// Line not cached; caller must fetch from the pool and may then
    /// insert it via [`HostCache::fill`].
    Miss,
}

/// A line evicted to make room for an incoming one. Dirty victims
/// carry their data (`writeback` is `Some`) and the caller must push
/// it to the pool; clean victims are simply forgotten, but the caller
/// (the audit layer) still needs to know the host no longer has them.
#[derive(Clone, Copy, Debug)]
pub struct Eviction {
    /// Line address of the victim.
    pub addr: u64,
    /// The victim's data when it was dirty (must be written back).
    pub writeback: Option<[u8; CACHELINE as usize]>,
}

impl HostCache {
    /// Creates a cache holding at most `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> HostCache {
        assert!(capacity > 0, "cache needs at least one line");
        HostCache {
            lines: DetHashMap::default(),
            pages: DetHashMap::default(),
            fifo: VecDeque::new(),
            next_stamp: 0,
            capacity,
            dirty: 0,
            stats: CacheStats::default(),
        }
    }

    /// Registers a fresh residency for `la`: a new stamp and a new
    /// FIFO position at the back of the queue.
    fn stamp_in(&mut self, la: u64) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.fifo.push_back((la, stamp));
        stamp
    }

    /// Drops ghost FIFO entries once they outnumber live lines: each
    /// compaction halves the queue at least, so the cost is amortized
    /// O(1) per removal and the queue stays within 2× of resident.
    fn maybe_compact(&mut self) {
        if self.fifo.len() >= 64 && self.fifo.len() >= 2 * self.lines.len() {
            let lines = &self.lines;
            self.fifo
                .retain(|&(a, s)| lines.get(&a).is_some_and(|l| l.stamp == s));
        }
    }

    fn line_addr(addr: u64) -> u64 {
        addr & !(CACHELINE - 1)
    }

    /// `la`'s bitmap page, word within the page, and bit within the
    /// word.
    fn bit_of(la: u64) -> (u64, usize, u64) {
        let idx = la / CACHELINE;
        let i = idx % PAGE_LINES;
        (idx / PAGE_LINES, (i / 64) as usize, 1 << (i % 64))
    }

    /// Makes line `la` resident with `line`, setting its bitmap bit.
    fn insert(&mut self, la: u64, line: Line) {
        let (page, word, bit) = Self::bit_of(la);
        self.pages.entry(page).or_insert([0; PAGE_WORDS])[word] |= bit;
        self.lines.insert(la, line);
    }

    /// Removes line `la` if resident, clearing its bitmap bit and
    /// dropping the page once it is empty.
    fn take(&mut self, la: u64) -> Option<Line> {
        let line = self.lines.remove(&la)?;
        let (page, word, bit) = Self::bit_of(la);
        if let Some(words) = self.pages.get_mut(&page) {
            words[word] &= !bit;
            if words.iter().all(|&w| w == 0) {
                self.pages.remove(&page);
            }
        }
        Some(line)
    }

    /// The lowest resident line address in the line-aligned span
    /// `[from, end)`. One map lookup per bitmap page the span touches,
    /// however few of its lines are resident.
    fn next_resident(&self, from: u64, end: u64) -> Option<u64> {
        if self.pages.is_empty() {
            return None;
        }
        let mut idx = from / CACHELINE;
        let end_idx = end / CACHELINE;
        while idx < end_idx {
            let page = idx / PAGE_LINES;
            let page_base = page * PAGE_LINES;
            let stop = (page_base + PAGE_LINES).min(end_idx) - page_base;
            if let Some(words) = self.pages.get(&page) {
                let mut i = idx - page_base;
                while i < stop {
                    let w = (i / 64) as usize;
                    let bits = words[w] & (!0u64 << (i % 64));
                    if bits != 0 {
                        let hit = w as u64 * 64 + u64::from(bits.trailing_zeros());
                        return (hit < stop).then_some((page_base + hit) * CACHELINE);
                    }
                    i = (w as u64 + 1) * 64;
                }
            }
            idx = page_base + stop;
        }
        None
    }

    /// Resident line addresses overlapping `[hpa, hpa + len)`, in
    /// ascending order: the lines of the range for which
    /// [`HostCache::contains`] holds. The walk the range methods take,
    /// as an iterator for tests.
    #[cfg(test)]
    pub(crate) fn resident_in(&self, hpa: u64, len: u64) -> impl Iterator<Item = u64> + '_ {
        let (first, end) = span(hpa, len);
        let mut next = self.next_resident(first, end);
        std::iter::from_fn(move || {
            let la = next?;
            next = self.next_resident(la + CACHELINE, end);
            Some(la)
        })
    }

    /// [`HostCache::invalidate`] on every line overlapping
    /// `[hpa, hpa + len)`, visiting only the resident ones, in
    /// ascending order.
    pub(crate) fn invalidate_range(&mut self, hpa: u64, len: u64) {
        let (mut from, end) = span(hpa, len);
        while let Some(la) = self.next_resident(from, end) {
            self.invalidate(la);
            from = la + CACHELINE;
        }
    }

    /// Drops every resident line overlapping `[hpa, hpa + len)`, dirty
    /// ones included, visiting only the resident ones. Nothing is
    /// written back and no [`CacheStats`] counter moves: the range's
    /// segment was freed, so no access can reach the lines again.
    pub(crate) fn forget_range(&mut self, hpa: u64, len: u64) {
        let (mut from, end) = span(hpa, len);
        while let Some(la) = self.next_resident(from, end) {
            if let Some(line) = self.take(la) {
                self.dirty -= usize::from(line.dirty);
            }
            from = la + CACHELINE;
        }
        self.maybe_compact();
    }

    /// [`HostCache::load`] of every dirty line overlapping `[hpa, hpa +
    /// len)`, visiting only the resident ones, in ascending order;
    /// passes each line's address and data to `f`.
    pub(crate) fn load_dirty_in(
        &mut self,
        hpa: u64,
        len: u64,
        mut f: impl FnMut(u64, &[u8; CACHELINE as usize]),
    ) {
        let (mut from, end) = span(hpa, len);
        while let Some(la) = self.next_resident(from, end) {
            if self.is_dirty(la) {
                if let LoadOutcome::Hit(data) = self.load(la) {
                    f(la, &data);
                }
            }
            from = la + CACHELINE;
        }
    }

    /// [`HostCache::flush`] on every line overlapping `[hpa, hpa +
    /// len)`, visiting only the resident ones, in ascending order.
    /// Appends each dirty line's address and data to `dirty`.
    pub(crate) fn flush_range(
        &mut self,
        hpa: u64,
        len: u64,
        dirty: &mut Vec<(u64, [u8; CACHELINE as usize])>,
    ) {
        let (mut from, end) = span(hpa, len);
        while let Some(la) = self.next_resident(from, end) {
            if let Some(data) = self.flush(la) {
                dirty.push((la, data));
            }
            from = la + CACHELINE;
        }
    }

    /// Looks up the line containing `addr` for a load.
    pub fn load(&mut self, addr: u64) -> LoadOutcome {
        let la = Self::line_addr(addr);
        match self.lines.get(&la) {
            Some(line) => {
                self.stats.hits += 1;
                LoadOutcome::Hit(line.data)
            }
            None => {
                self.stats.misses += 1;
                LoadOutcome::Miss
            }
        }
    }

    /// Inserts a clean line fetched from the pool. Returns any line
    /// evicted to make room; a dirty victim's data must be written
    /// back to the pool.
    ///
    /// Filling over a line that is already resident is a no-op: the
    /// resident copy (and in particular its dirty data) wins, so a
    /// redundant fetch can never silently discard unpublished stores.
    pub fn fill(&mut self, addr: u64, data: [u8; CACHELINE as usize]) -> Option<Eviction> {
        let la = Self::line_addr(addr);
        if self.lines.contains_key(&la) {
            return None;
        }
        let evicted = self.make_room(la);
        let stamp = self.stamp_in(la);
        self.insert(
            la,
            Line {
                data,
                dirty: false,
                stamp,
            },
        );
        evicted
    }

    /// Applies a cached (write-back) store to the line containing
    /// `addr`. `offset` is `addr`'s offset within the line. The caller
    /// must have filled the line first if partial-line data matters;
    /// absent a fill, the rest of the line is treated as zero (caller
    /// normally fetches on write-miss). Returns any eviction.
    pub fn store(&mut self, addr: u64, data: &[u8]) -> Option<Eviction> {
        let la = Self::line_addr(addr);
        let offset = (addr - la) as usize;
        assert!(
            offset + data.len() <= CACHELINE as usize,
            "store must not straddle a cache line"
        );
        let evicted = if self.lines.contains_key(&la) {
            None
        } else {
            let ev = self.make_room(la);
            let stamp = self.stamp_in(la);
            self.insert(
                la,
                Line {
                    data: [0; CACHELINE as usize],
                    dirty: false,
                    stamp,
                },
            );
            ev
        };
        let line = self.lines.get_mut(&la).expect("just inserted");
        line.data[offset..offset + data.len()].copy_from_slice(data);
        if !line.dirty {
            line.dirty = true;
            self.dirty += 1;
        }
        evicted
    }

    /// Flushes the line containing `addr`: if present and dirty, returns
    /// its data for write-back; the line is dropped either way (clflush
    /// semantics).
    pub fn flush(&mut self, addr: u64) -> Option<[u8; CACHELINE as usize]> {
        let la = Self::line_addr(addr);
        match self.take(la) {
            Some(line) => {
                // The FIFO entry becomes a ghost; compaction and
                // make_room skip it by stamp.
                self.maybe_compact();
                if line.dirty {
                    self.dirty -= 1;
                    self.stats.writebacks += 1;
                    Some(line.data)
                } else {
                    None
                }
            }
            None => None,
        }
    }

    /// Drops the line containing `addr` *without* write-back (used to
    /// force the next load to refetch; discards local dirty data like a
    /// real invalidate would).
    pub fn invalidate(&mut self, addr: u64) {
        let la = Self::line_addr(addr);
        if let Some(line) = self.take(la) {
            self.dirty -= usize::from(line.dirty);
            self.maybe_compact();
            self.stats.invalidations += 1;
        }
    }

    /// True if the line containing `addr` is cached and dirty.
    pub fn is_dirty(&self, addr: u64) -> bool {
        self.lines
            .get(&Self::line_addr(addr))
            .map(|l| l.dirty)
            .unwrap_or(false)
    }

    /// True if the line containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        self.lines.contains_key(&Self::line_addr(addr))
    }

    /// Number of resident lines. Debug builds recount the bitmap.
    pub fn resident(&self) -> usize {
        self.debug_check_bitmap();
        self.lines.len()
    }

    /// Number of resident dirty lines. Debug builds recount them and
    /// the bitmap.
    pub fn dirty_lines(&self) -> usize {
        self.debug_check_bitmap();
        debug_assert_eq!(
            self.dirty,
            self.lines.values().filter(|l| l.dirty).count(),
            "kept dirty count drifted"
        );
        self.dirty
    }

    /// Snapshot of hit/miss/write-back counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Debug builds: the bitmap holds one bit per resident line and no
    /// empty page.
    fn debug_check_bitmap(&self) {
        if cfg!(debug_assertions) {
            let bits: u32 = self
                .pages
                .values()
                .map(|words| {
                    debug_assert!(words.iter().any(|&w| w != 0), "empty bitmap page kept");
                    words.iter().map(|w| w.count_ones()).sum::<u32>()
                })
                .sum();
            debug_assert_eq!(bits as usize, self.lines.len(), "residency bitmap drifted");
            debug_assert!(
                self.lines.keys().all(|&la| {
                    let (page, word, bit) = Self::bit_of(la);
                    self.pages.get(&page).is_some_and(|w| w[word] & bit != 0)
                }),
                "resident line missing from the bitmap"
            );
        }
    }

    fn make_room(&mut self, incoming: u64) -> Option<Eviction> {
        if self.lines.len() < self.capacity || self.lines.contains_key(&incoming) {
            return None;
        }
        // FIFO eviction of the oldest *live* line: ghost entries
        // (stamp mismatch after a flush/invalidate + refetch) are
        // skipped.
        while let Some((victim, stamp)) = self.fifo.pop_front() {
            if self.lines.get(&victim).is_some_and(|l| l.stamp == stamp) {
                let line = self.take(victim).expect("stamp-checked above");
                if line.dirty {
                    self.dirty -= 1;
                    self.stats.writebacks += 1;
                    return Some(Eviction {
                        addr: victim,
                        writeback: Some(line.data),
                    });
                }
                return Some(Eviction {
                    addr: victim,
                    writeback: None,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: usize = CACHELINE as usize;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = HostCache::new(4);
        assert!(matches!(c.load(0x100), LoadOutcome::Miss));
        c.fill(0x100, [9u8; L]);
        match c.load(0x120) {
            // 0x120 is in the same 64 B line as 0x100.
            LoadOutcome::Hit(data) => assert_eq!(data, [9u8; L]),
            LoadOutcome::Miss => panic!("expected hit"),
        }
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn store_marks_dirty_and_flush_returns_data() {
        let mut c = HostCache::new(4);
        c.store(0x40, &[1, 2, 3]);
        assert!(c.is_dirty(0x40));
        let flushed = c.flush(0x40).expect("dirty line flushes");
        assert_eq!(&flushed[..3], &[1, 2, 3]);
        assert!(!c.contains(0x40));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn dirty_count_follows_every_transition() {
        let mut c = HostCache::new(2);
        assert_eq!(c.dirty_lines(), 0);
        c.store(0x0, &[1u8; 4]);
        c.store(0x8, &[2u8; 4]); // same line, already dirty
        assert_eq!(c.dirty_lines(), 1);
        c.fill(0x0, [0u8; L]); // fill over a dirty line is a no-op
        assert_eq!(c.dirty_lines(), 1);
        c.fill(0x40, [0u8; L]);
        c.store(0x40, &[3u8; 4]);
        assert_eq!(c.dirty_lines(), 2);
        assert!(c.flush(0x40).is_some());
        assert_eq!(c.dirty_lines(), 1);
        c.store(0x40, &[4u8; 4]);
        c.invalidate(0x40);
        assert_eq!(c.dirty_lines(), 1);
        c.fill(0x80, [0u8; L]);
        // A third line evicts dirty 0x0.
        let ev = c.fill(0xC0, [0u8; L]).expect("eviction");
        assert_eq!((ev.addr, ev.writeback.is_some()), (0x0, true));
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn flush_clean_line_returns_none() {
        let mut c = HostCache::new(4);
        c.fill(0x0, [5u8; L]);
        assert!(c.flush(0x0).is_none());
        assert!(!c.contains(0x0));
    }

    #[test]
    fn invalidate_discards_dirty_data() {
        let mut c = HostCache::new(4);
        c.store(0x80, &[1u8; 8]);
        c.invalidate(0x80);
        assert!(!c.contains(0x80));
        assert!(matches!(c.load(0x80), LoadOutcome::Miss));
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn forgotten_lines_leave_uncounted_and_are_never_evicted() {
        let mut c = HostCache::new(3);
        c.store(0x0, &[1u8; 8]);
        c.fill(0x40, [2u8; L]);
        c.store(0x1000, &[3u8; 8]);
        let stats = c.stats();
        c.forget_range(0x0, 0x80);
        assert!(!c.contains(0x0) && !c.contains(0x40));
        assert_eq!(c.dirty_lines(), 1);
        assert_eq!(c.stats(), stats, "forgetting counts nothing");
        // Two fills take the freed room; only the third evicts, and
        // its victim is the surviving line, not a forgotten one.
        assert!(c.fill(0x2000, [0u8; L]).is_none());
        assert!(c.fill(0x3000, [0u8; L]).is_none());
        let ev = c.fill(0x4000, [0u8; L]).expect("cache full");
        assert_eq!(ev.addr, 0x1000);
        assert!(ev.writeback.is_some());
    }

    #[test]
    fn capacity_eviction_is_fifo_and_writes_back_dirty() {
        let mut c = HostCache::new(2);
        c.store(0x0, &[1u8; 4]); // oldest, dirty
        c.fill(0x40, [2u8; L]); // clean
                                // Third line evicts 0x0 (dirty) -> write-back surfaces.
        let ev = c.store(0x80, &[3u8; 4]);
        let ev = ev.expect("dirty eviction");
        assert_eq!(ev.addr, 0x0);
        let data = ev.writeback.expect("dirty victim carries data");
        assert_eq!(&data[..4], &[1u8; 4]);
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn clean_eviction_reports_victim_without_writeback() {
        let mut c = HostCache::new(1);
        c.fill(0x0, [1u8; L]);
        let ev = c.fill(0x40, [2u8; L]).expect("clean eviction surfaces");
        assert_eq!(ev.addr, 0x0);
        assert!(ev.writeback.is_none(), "clean victim has no write-back");
        assert!(c.contains(0x40));
        assert!(!c.contains(0x0));
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn partial_store_preserves_rest_of_filled_line() {
        let mut c = HostCache::new(4);
        c.fill(0x0, [7u8; L]);
        c.store(0x8, &[1, 1]);
        match c.load(0x0) {
            LoadOutcome::Hit(d) => {
                assert_eq!(d[7], 7);
                assert_eq!(d[8], 1);
                assert_eq!(d[9], 1);
                assert_eq!(d[10], 7);
            }
            LoadOutcome::Miss => panic!("expected hit"),
        }
    }

    #[test]
    #[should_panic(expected = "straddle")]
    fn straddling_store_panics() {
        let mut c = HostCache::new(4);
        c.store(60, &[0u8; 8]);
    }

    #[test]
    fn fifo_dirty_eviction_counts_one_writeback() {
        let mut c = HostCache::new(2);
        c.store(0x0, &[1u8; 4]); // oldest, dirty
        c.store(0x40, &[2u8; 4]); // dirty
        assert_eq!(c.stats().writebacks, 0, "no eviction yet");
        // One incoming line evicts exactly one victim (0x0).
        let ev = c.fill(0x80, [3u8; L]).expect("dirty eviction");
        assert_eq!(ev.addr, 0x0);
        assert!(ev.writeback.is_some());
        assert_eq!(c.stats().writebacks, 1);
        // The victim is gone, so re-flushing it cannot double-count.
        assert!(c.flush(0x0).is_none());
        assert_eq!(c.stats().writebacks, 1);
        // The second dirty line still writes back normally.
        assert!(c.flush(0x40).is_some());
        assert_eq!(c.stats().writebacks, 2);
    }

    #[test]
    fn fill_over_dirty_line_preserves_dirty_data() {
        let mut c = HostCache::new(4);
        c.store(0x0, &[0xAAu8; 8]);
        assert!(c.is_dirty(0x0));
        // A redundant fetch (e.g. a racing prefetch) must not clobber
        // the unpublished store.
        assert!(c.fill(0x0, [0u8; L]).is_none());
        assert!(c.is_dirty(0x0), "fill must not clean a dirty line");
        match c.load(0x0) {
            LoadOutcome::Hit(d) => assert_eq!(&d[..8], &[0xAAu8; 8]),
            LoadOutcome::Miss => panic!("expected hit"),
        }
        // The preserved data still reaches the pool on flush.
        let flushed = c.flush(0x0).expect("still dirty");
        assert_eq!(&flushed[..8], &[0xAAu8; 8]);
    }

    #[test]
    fn reinserted_line_takes_a_fresh_fifo_position() {
        let mut c = HostCache::new(2);
        c.fill(0x0, [1u8; L]);
        c.fill(0x40, [2u8; L]);
        // Drop and refetch 0x0: its residency restarts at the back of
        // the queue, leaving a ghost entry at the front.
        c.invalidate(0x0);
        c.fill(0x0, [3u8; L]);
        // The next eviction must take 0x40 (the oldest *live* line),
        // not act on the ghost of 0x0's first residency.
        let ev = c.fill(0x80, [4u8; L]).expect("eviction");
        assert_eq!(ev.addr, 0x40);
        assert!(c.contains(0x0) && c.contains(0x80));
        assert!(!c.contains(0x40));
    }

    #[test]
    fn invalidate_refill_churn_keeps_the_ghost_queue_bounded() {
        let mut c = HostCache::new(4);
        for i in 0..10_000u64 {
            let la = (i % 4) * 64;
            c.invalidate(la);
            c.fill(la, [i as u8; L]);
        }
        assert_eq!(c.resident(), 4);
        assert!(
            c.fifo.len() <= 64,
            "ghosts must be compacted away: {} queued",
            c.fifo.len()
        );
    }

    #[test]
    fn fill_over_clean_line_keeps_resident_copy_and_fifo_position() {
        let mut c = HostCache::new(2);
        c.fill(0x0, [1u8; L]);
        c.fill(0x40, [2u8; L]);
        // Redundant fill of the oldest line must not refresh its FIFO
        // slot or duplicate it in the queue.
        assert!(c.fill(0x0, [9u8; L]).is_none());
        match c.load(0x0) {
            LoadOutcome::Hit(d) => assert_eq!(d, [1u8; L], "resident copy wins"),
            LoadOutcome::Miss => panic!("expected hit"),
        }
        // 0x0 is still the FIFO victim.
        c.fill(0x80, [3u8; L]);
        assert!(!c.contains(0x0));
        assert!(c.contains(0x40));
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn range_walks_cross_bitmap_pages_and_keep_partial_lines() {
        let page = PAGE_LINES * CACHELINE;
        let mut c = HostCache::new(16);
        // The last line of page 0, the first two of page 1, one line of
        // page 3.
        for la in [page - 64, page, page + 64, 3 * page + 128] {
            c.fill(la, [1u8; L]);
        }
        let got: Vec<u64> = c.resident_in(page - 1, 2 * page + 200).collect();
        assert_eq!(got, [page - 64, page, page + 64, 3 * page + 128]);
        // A zero-length range at an unaligned address still covers its
        // line, as the fabric's per-line walk does.
        assert_eq!(c.resident_in(page + 5, 0).collect::<Vec<_>>(), [page]);
        assert_eq!(c.resident_in(page, 0).count(), 0);
        c.invalidate_range(page - 1, 2);
        assert_eq!(c.resident_in(0, 4 * page).count(), 2);
        assert_eq!(c.stats().invalidations, 2);
        // Emptying a page drops it from the bitmap.
        c.invalidate_range(page + 64, 64);
        c.invalidate_range(3 * page, page);
        assert_eq!(c.resident(), 0);
        assert!(c.pages.is_empty());
    }

    /// Line addresses overlapping `[hpa, hpa + len)`, one by one: the
    /// walk the range methods replace.
    fn every_line(hpa: u64, len: u64) -> impl Iterator<Item = u64> {
        let (first, end) = span(hpa, len);
        (first..end).step_by(L)
    }

    fn victim(ev: Option<Eviction>) -> Option<(u64, Option<[u8; L]>)> {
        ev.map(|e| (e.addr, e.writeback))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A cache driven by the range walks behaves exactly like a
        /// twin driven by per-line loops over every line of each range:
        /// same eviction victims, stats, dirty count and resident set,
        /// and `resident_in` equals a per-line `contains` walk.
        #[test]
        fn range_walks_match_per_line_loops(
            capacity in 1usize..10,
            steps in proptest::collection::vec(
                (
                    0u8..6,
                    // Lines clustered on both sides of bitmap page
                    // boundaries (1024 lines per page).
                    proptest::prop_oneof![0u64..24, 1000u64..1048, 2030u64..2060],
                    0u64..64,
                    proptest::prop_oneof![0u64..200, 0u64..4096, 0u64..140_000],
                    0u8..255,
                ),
                1..300,
            )
        ) {
            // Keep addresses away from 0 (a zero-length range at 0 has
            // no last byte).
            let base = 1u64 << 20;
            let mut walked = HostCache::new(capacity);
            let mut looped = HostCache::new(capacity);
            for step in steps {
                let (kind, line, off, len, byte) = step;
                let hpa = base + line * CACHELINE + off;
                match kind {
                    0 => {
                        let la = base + line * CACHELINE;
                        proptest::prop_assert_eq!(
                            victim(walked.fill(la, [byte; L])),
                            victim(looped.fill(la, [byte; L])),
                            "fill {:?}", step
                        );
                    }
                    1 => {
                        let n = (L as u64 - off).min(8) as usize;
                        let data = [byte; 8];
                        proptest::prop_assert_eq!(
                            victim(walked.store(hpa, &data[..n])),
                            victim(looped.store(hpa, &data[..n])),
                            "store {:?}", step
                        );
                    }
                    2 => {
                        let mut got = Vec::new();
                        walked.flush_range(hpa, len, &mut got);
                        let want: Vec<(u64, [u8; L])> = every_line(hpa, len)
                            .filter_map(|la| looped.flush(la).map(|d| (la, d)))
                            .collect();
                        proptest::prop_assert_eq!(got, want, "flush {:?}", step);
                    }
                    3 => {
                        walked.invalidate_range(hpa, len);
                        for la in every_line(hpa, len) {
                            looped.invalidate(la);
                        }
                    }
                    4 => {
                        let mut got = Vec::new();
                        walked.load_dirty_in(hpa, len, |la, d| got.push((la, *d)));
                        let mut want = Vec::new();
                        for la in every_line(hpa, len) {
                            if looped.is_dirty(la) {
                                if let LoadOutcome::Hit(d) = looped.load(la) {
                                    want.push((la, d));
                                }
                            }
                        }
                        proptest::prop_assert_eq!(got, want, "dirty overlay {:?}", step);
                    }
                    _ => {
                        let got: Vec<u64> = walked.resident_in(hpa, len).collect();
                        let want: Vec<u64> = every_line(hpa, len)
                            .filter(|&la| walked.contains(la))
                            .collect();
                        proptest::prop_assert_eq!(got, want, "resident_in {:?}", step);
                    }
                }
                proptest::prop_assert_eq!(walked.stats(), looped.stats(), "stats after {:?}", step);
                proptest::prop_assert_eq!(walked.dirty_lines(), looped.dirty_lines());
                proptest::prop_assert_eq!(walked.resident(), looped.resident());
            }
            let everything = 3000 * CACHELINE;
            proptest::prop_assert_eq!(
                walked.resident_in(base, everything).collect::<Vec<_>>(),
                looped.resident_in(base, everything).collect::<Vec<_>>()
            );
            proptest::prop_assert_eq!(walked.fifo, looped.fifo);
        }
    }
}
