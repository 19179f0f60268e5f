//! Pool capacity allocation: carving segments out of the pod's MHDs.
//!
//! The pool is managed Pond-style: capacity is assigned to hosts in
//! *segments*, each backed by one or more MHDs with hardware
//! interleaving at 256 B granularity. A segment is either private to one
//! host or shared by an explicit host group (the shared segments are
//! what the PCIe-pooling datapath lives in).
//!
//! Ordering invariant: segment ids and base addresses are both handed
//! out in increasing order and never reused (a freed range stays a
//! hole), so the live segments, kept in allocation order, are sorted
//! by id *and* by base at once. Address resolution and id lookup are
//! each one binary search over that one list, and
//! [`PoolAllocator::segments`] walks it in id order.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::error::FabricError;
use crate::params::INTERLEAVE_GRANULE;
use crate::topology::{DomainId, HostId, MhdId, Topology};

/// Identifies an allocated segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct SegmentId(pub u64);

/// How a segment relates to the pod's failure domains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum DomainPlacement {
    /// No domain constraint: interleave across whatever MHDs the
    /// owners reach (the pre-multi-domain behavior).
    Any,
    /// Every interleave way must come from this one failure domain —
    /// the segment dies with the domain, but a remote domain outage
    /// cannot touch it.
    Pinned(DomainId),
    /// The interleave set must span at least `min_domains` distinct
    /// failure domains, so losing one domain leaves surviving stripes
    /// for the striping/replication layer to rebuild from.
    Striped {
        /// Minimum number of distinct domains in the interleave set.
        min_domains: usize,
    },
}

/// A contiguous pool-address range backed by an interleave set of MHDs.
#[derive(Clone, Debug, Serialize)]
pub struct Segment {
    id: SegmentId,
    base: u64,
    len: u64,
    ways: Vec<MhdId>,
    owners: Vec<HostId>,
}

impl Segment {
    /// The segment's id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// First pool address of the segment.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the segment is empty (never produced by the allocator).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One-past-the-end pool address.
    pub fn end(&self) -> u64 {
        self.base + self.len
    }

    /// The MHD interleave set backing this segment.
    pub fn ways(&self) -> &[MhdId] {
        &self.ways
    }

    /// Hosts entitled to access the segment.
    pub fn owners(&self) -> &[HostId] {
        &self.owners
    }

    /// True if `host` may access this segment.
    pub fn grants(&self, host: HostId) -> bool {
        self.owners.contains(&host)
    }

    /// The MHD backing the interleave granule that contains pool address
    /// `hpa`.
    ///
    /// # Panics
    ///
    /// Panics if `hpa` is outside the segment.
    pub fn mhd_for(&self, hpa: u64) -> MhdId {
        assert!(
            hpa >= self.base && hpa < self.end(),
            "hpa {hpa:#x} outside segment [{:#x}, {:#x})",
            self.base,
            self.end()
        );
        let granule = (hpa - self.base) / INTERLEAVE_GRANULE;
        self.ways[(granule % self.ways.len() as u64) as usize]
    }

    /// Splits the byte range `[hpa, hpa + len)` into per-MHD byte
    /// counts, following the interleave pattern. Used for bandwidth
    /// accounting of bulk transfers. Ordered by MHD id so callers that
    /// charge stateful link timelines stay deterministic across runs
    /// (a `HashMap` here leaked iteration order into simulated time).
    pub fn spread(&self, hpa: u64, len: u64) -> BTreeMap<MhdId, u64> {
        let mut out = Vec::new();
        self.spread_into(hpa, len, &mut out);
        out.into_iter().collect()
    }

    /// Allocation-free [`Segment::spread`]: clears `out` and fills it
    /// with the per-MHD byte counts, sorted by MHD id. Datapath-timing
    /// callers reuse one scratch vector across calls, so the per-miss
    /// `BTreeMap` build disappears from the hot path. The interleave
    /// set is a handful of ways, so accumulation is a linear probe.
    pub fn spread_into(&self, hpa: u64, len: u64, out: &mut Vec<(MhdId, u64)>) {
        out.clear();
        let mut cur = hpa;
        let end = hpa + len;
        while cur < end {
            let granule_end = (cur / INTERLEAVE_GRANULE + 1) * INTERLEAVE_GRANULE;
            let n = granule_end.min(end) - cur;
            let m = self.mhd_for(cur);
            match out.iter_mut().find(|(mm, _)| *mm == m) {
                Some((_, b)) => *b += n,
                None => out.push((m, n)),
            }
            cur += n;
        }
        out.sort_unstable_by_key(|&(m, _)| m);
    }
}

/// Carves segments from per-MHD capacity and resolves addresses back to
/// segments.
pub struct PoolAllocator {
    next_id: u64,
    next_hpa: u64,
    /// Free bytes per MHD, indexed by MhdId.
    free: Vec<u64>,
    capacity_per_mhd: u64,
    /// Live segments in allocation order, which is ascending id and
    /// ascending base (see the module docs).
    segments: Vec<Segment>,
}

impl PoolAllocator {
    /// Creates an allocator over `mhds` devices of `capacity_per_mhd`
    /// bytes each.
    pub fn new(mhds: u16, capacity_per_mhd: u64) -> PoolAllocator {
        PoolAllocator {
            next_id: 0,
            // Start pool addresses away from zero so a "null" HPA of 0
            // is always unmapped.
            next_hpa: 1 << 20,
            free: vec![capacity_per_mhd; mhds as usize],
            capacity_per_mhd,
            segments: Vec::new(),
        }
    }

    /// Allocates `len` bytes visible to `owners`, interleaved across up
    /// to `max_ways` MHDs that every owner can currently reach.
    ///
    /// MHDs are chosen by most-free-capacity first, so allocations
    /// spread across the pod. Equivalent to [`PoolAllocator::alloc_placed`]
    /// with [`DomainPlacement::Any`].
    pub fn alloc(
        &mut self,
        topology: &Topology,
        owners: &[HostId],
        len: u64,
        max_ways: usize,
    ) -> Result<Segment, FabricError> {
        self.alloc_placed(topology, owners, len, max_ways, DomainPlacement::Any)
    }

    /// Allocates `len` bytes visible to `owners` under an explicit
    /// failure-domain placement.
    ///
    /// - [`DomainPlacement::Any`] behaves like [`PoolAllocator::alloc`].
    /// - [`DomainPlacement::Pinned`] restricts the interleave set to
    ///   one domain ([`FabricError::DomainDown`] if the owners reach
    ///   no up MHD there).
    /// - [`DomainPlacement::Striped`] guarantees the interleave set
    ///   spans at least `min_domains` distinct domains, widening the
    ///   set past `max_ways` if that is what it takes
    ///   ([`FabricError::InsufficientDomains`] if the owners cannot
    ///   reach that many domains together).
    pub fn alloc_placed(
        &mut self,
        topology: &Topology,
        owners: &[HostId],
        len: u64,
        max_ways: usize,
        placement: DomainPlacement,
    ) -> Result<Segment, FabricError> {
        assert!(!owners.is_empty(), "a segment needs at least one owner");
        assert!(len > 0, "cannot allocate an empty segment");
        assert!(max_ways > 0, "need at least one interleave way");

        // Intersect reachability across all owners.
        let mut common: Vec<MhdId> = topology.reachable_mhds(owners[0]);
        for &h in &owners[1..] {
            let r = topology.reachable_mhds(h);
            common.retain(|m| r.contains(m));
        }
        if let DomainPlacement::Pinned(d) = placement {
            common.retain(|&m| topology.domain_of(m) == d);
            if common.is_empty() {
                return Err(FabricError::DomainDown(d));
            }
        }
        if common.is_empty() {
            return Err(FabricError::NoCommonMhd {
                hosts: owners.to_vec(),
            });
        }

        // Prefer the devices with the most free capacity.
        common.sort_by_key(|m| std::cmp::Reverse(self.free[m.0 as usize]));
        let ways: Vec<MhdId> = match placement {
            DomainPlacement::Striped { min_domains } => {
                let mut distinct: Vec<DomainId> =
                    common.iter().map(|&m| topology.domain_of(m)).collect();
                distinct.sort_unstable();
                distinct.dedup();
                if distinct.len() < min_domains {
                    return Err(FabricError::InsufficientDomains {
                        wanted: min_domains,
                        available: distinct.len(),
                    });
                }
                // First pass: the most-free MHD from each not-yet-covered
                // domain until min_domains are represented; second pass:
                // fill up to max_ways with whatever has the most free.
                let mut chosen: Vec<MhdId> = Vec::new();
                let mut covered: Vec<DomainId> = Vec::new();
                for &m in &common {
                    let d = topology.domain_of(m);
                    if covered.len() < min_domains && !covered.contains(&d) {
                        covered.push(d);
                        chosen.push(m);
                    }
                }
                for &m in &common {
                    if chosen.len() >= max_ways.max(min_domains) {
                        break;
                    }
                    if !chosen.contains(&m) {
                        chosen.push(m);
                    }
                }
                // Keep the interleave pattern deterministic by id.
                chosen.sort_unstable();
                chosen
            }
            _ => common.into_iter().take(max_ways).collect(),
        };

        let per_way = len.div_ceil(ways.len() as u64);
        if let Some(&tight) = ways.iter().min_by_key(|m| self.free[m.0 as usize]) {
            let free = self.free[tight.0 as usize];
            if free < per_way {
                return Err(FabricError::OutOfCapacity {
                    requested: per_way,
                    free,
                });
            }
        }
        for m in &ways {
            self.free[m.0 as usize] -= per_way;
        }

        let id = SegmentId(self.next_id);
        self.next_id += 1;
        // Keep segments granule-aligned so interleave math is exact.
        let base = self.next_hpa.next_multiple_of(INTERLEAVE_GRANULE);
        self.next_hpa = base + len;
        let seg = Segment {
            id,
            base,
            len,
            ways,
            owners: owners.to_vec(),
        };
        debug_assert!(
            self.segments
                .last()
                .is_none_or(|last| last.id < id && last.end() <= base),
            "segments must stay sorted by id and base"
        );
        self.segments.push(seg.clone());
        Ok(seg)
    }

    /// Releases a segment, returning its capacity to its MHDs.
    pub fn free(&mut self, id: SegmentId) -> Result<(), FabricError> {
        let i = self
            .index_of(id)
            .ok_or_else(|| FabricError::UnknownEntity(format!("segment {id:?}")))?;
        let seg = self.segments.remove(i);
        let per_way = seg.len.div_ceil(seg.ways.len() as u64);
        for m in &seg.ways {
            self.free[m.0 as usize] =
                (self.free[m.0 as usize] + per_way).min(self.capacity_per_mhd);
        }
        Ok(())
    }

    /// Position of live segment `id` in `segments`.
    fn index_of(&self, id: SegmentId) -> Option<usize> {
        self.segments.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// Resolves a pool address to its segment.
    pub fn segment_at(&self, hpa: u64) -> Result<&Segment, FabricError> {
        // The last segment whose base is at or below `hpa`.
        let above = self.segments.partition_point(|s| s.base <= hpa);
        match above.checked_sub(1).map(|i| &self.segments[i]) {
            Some(seg) if hpa < seg.end() => Ok(seg),
            _ => Err(FabricError::Unmapped { hpa }),
        }
    }

    /// Looks up a segment by id.
    pub fn segment(&self, id: SegmentId) -> Option<&Segment> {
        self.index_of(id).map(|i| &self.segments[i])
    }

    /// Total free bytes across the pool.
    pub fn total_free(&self) -> u64 {
        self.free.iter().sum()
    }

    /// Free bytes on one MHD.
    pub fn free_on(&self, mhd: MhdId) -> u64 {
        self.free.get(mhd.0 as usize).copied().unwrap_or(0)
    }

    /// Capacity contributed by each MHD, in bytes.
    pub fn capacity_per_mhd(&self) -> u64 {
        self.capacity_per_mhd
    }

    /// Iterates over live segments in id order.
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::dense(4, 4, 2)
    }

    fn alloc4() -> PoolAllocator {
        PoolAllocator::new(4, 1 << 20)
    }

    #[test]
    fn alloc_resolve_roundtrip() {
        let t = topo();
        let mut a = alloc4();
        let seg = a.alloc(&t, &[HostId(0)], 4096, 1).expect("alloc");
        assert_eq!(seg.len(), 4096);
        let found = a.segment_at(seg.base() + 100).expect("resolve");
        assert_eq!(found.id(), seg.id());
        assert!(seg.grants(HostId(0)));
        assert!(!seg.grants(HostId(1)));
    }

    #[test]
    fn unmapped_addresses_error() {
        let t = topo();
        let mut a = alloc4();
        let seg = a.alloc(&t, &[HostId(0)], 256, 1).expect("alloc");
        assert!(matches!(a.segment_at(0), Err(FabricError::Unmapped { .. })));
        assert!(matches!(
            a.segment_at(seg.end()),
            Err(FabricError::Unmapped { .. })
        ));
    }

    #[test]
    fn shared_segment_intersects_reachability() {
        // Hosts 0 and 1 in a lambda=2/4-MHD pod reach different pairs;
        // the allocator must pick only commonly reachable devices.
        let t = topo();
        let mut a = alloc4();
        let seg = a
            .alloc(&t, &[HostId(0), HostId(1)], 8192, 4)
            .expect("alloc");
        let r0 = t.reachable_mhds(HostId(0));
        let r1 = t.reachable_mhds(HostId(1));
        for w in seg.ways() {
            assert!(r0.contains(w) && r1.contains(w), "way {w:?} not common");
        }
    }

    #[test]
    fn no_common_mhd_is_reported() {
        let mut t = topo();
        // Kill all of host 1's links.
        let victims: Vec<_> = t.host_links(HostId(1)).map(|l| l.id).collect();
        for v in victims {
            t.fail_link(v);
        }
        let mut a = alloc4();
        let err = a.alloc(&t, &[HostId(0), HostId(1)], 4096, 2).unwrap_err();
        assert!(matches!(err, FabricError::NoCommonMhd { .. }));
    }

    #[test]
    fn capacity_is_enforced_and_freed() {
        let t = topo();
        let mut a = PoolAllocator::new(4, 4096);
        let seg = a.alloc(&t, &[HostId(0)], 4096, 1).expect("fits");
        // One MHD is now full; 3 remain.
        assert_eq!(a.total_free(), 3 * 4096);
        // Allocating 2 MiB fails.
        let err = a.alloc(&t, &[HostId(0)], 1 << 21, 2).unwrap_err();
        assert!(matches!(err, FabricError::OutOfCapacity { .. }));
        a.free(seg.id()).expect("free");
        assert_eq!(a.total_free(), 4 * 4096);
    }

    #[test]
    fn double_free_errors() {
        let t = topo();
        let mut a = alloc4();
        let seg = a.alloc(&t, &[HostId(0)], 256, 1).expect("alloc");
        a.free(seg.id()).expect("first free");
        assert!(a.free(seg.id()).is_err());
    }

    #[test]
    fn interleave_round_robins_granules() {
        let t = Topology::dense(1, 4, 4);
        let mut a = alloc4();
        let seg = a
            .alloc(&t, &[HostId(0)], 4 * INTERLEAVE_GRANULE, 4)
            .expect("alloc");
        assert_eq!(seg.ways().len(), 4);
        let m0 = seg.mhd_for(seg.base());
        let m1 = seg.mhd_for(seg.base() + INTERLEAVE_GRANULE);
        assert_ne!(m0, m1);
        // Pattern repeats with period ways.len().
        assert_eq!(
            seg.mhd_for(seg.base()),
            seg.mhd_for(seg.base() + 4 * INTERLEAVE_GRANULE - INTERLEAVE_GRANULE * 4)
        );
    }

    #[test]
    fn spread_accounts_every_byte() {
        let t = Topology::dense(1, 4, 4);
        let mut a = alloc4();
        let seg = a.alloc(&t, &[HostId(0)], 10_000, 4).expect("alloc");
        let spread = seg.spread(seg.base() + 100, 5_000);
        let total: u64 = spread.values().sum();
        assert_eq!(total, 5_000);
        // With 256 B granules over 4 ways, counts are near-equal.
        for &v in spread.values() {
            assert!(v >= 1_000, "spread too skewed: {spread:?}");
        }
    }

    #[test]
    fn pinned_placement_stays_in_domain() {
        let t = Topology::multi_domain(4, 2, 2, 4);
        let mut a = alloc4();
        let seg = a
            .alloc_placed(
                &t,
                &[HostId(0)],
                8192,
                4,
                DomainPlacement::Pinned(DomainId(1)),
            )
            .expect("alloc");
        for w in seg.ways() {
            assert_eq!(t.domain_of(*w), DomainId(1), "way {w:?} escaped the pin");
        }
    }

    #[test]
    fn pinned_placement_fails_when_domain_is_down() {
        let mut t = Topology::multi_domain(4, 2, 2, 4);
        t.fail_domain(DomainId(0));
        let mut a = alloc4();
        let err = a
            .alloc_placed(
                &t,
                &[HostId(0)],
                4096,
                2,
                DomainPlacement::Pinned(DomainId(0)),
            )
            .unwrap_err();
        assert_eq!(err, FabricError::DomainDown(DomainId(0)));
    }

    #[test]
    fn striped_placement_spans_domains() {
        let t = Topology::multi_domain(4, 2, 2, 4);
        let mut a = alloc4();
        let seg = a
            .alloc_placed(
                &t,
                &[HostId(0)],
                8192,
                2,
                DomainPlacement::Striped { min_domains: 2 },
            )
            .expect("alloc");
        let mut doms: Vec<_> = seg.ways().iter().map(|&w| t.domain_of(w)).collect();
        doms.sort_unstable();
        doms.dedup();
        assert!(doms.len() >= 2, "stripes collapsed into one domain");
    }

    #[test]
    fn striped_placement_reports_insufficient_domains() {
        let mut t = Topology::multi_domain(4, 2, 2, 4);
        t.fail_domain(DomainId(1));
        let mut a = alloc4();
        let err = a
            .alloc_placed(
                &t,
                &[HostId(0)],
                4096,
                4,
                DomainPlacement::Striped { min_domains: 2 },
            )
            .unwrap_err();
        assert_eq!(
            err,
            FabricError::InsufficientDomains {
                wanted: 2,
                available: 1
            }
        );
    }

    #[test]
    fn segments_are_granule_aligned() {
        let t = topo();
        let mut a = alloc4();
        for len in [1u64, 255, 256, 257, 5000] {
            let seg = a.alloc(&t, &[HostId(0)], len, 2).expect("alloc");
            assert_eq!(seg.base() % INTERLEAVE_GRANULE, 0);
        }
    }

    #[test]
    fn segment_at_resolves_first_and_last_byte() {
        let t = topo();
        let mut a = alloc4();
        let before = a.alloc(&t, &[HostId(0)], 300, 1).expect("alloc");
        let seg = a.alloc(&t, &[HostId(0)], 1000, 2).expect("alloc");
        let after = a.alloc(&t, &[HostId(0)], 300, 1).expect("alloc");
        for hpa in [seg.base(), seg.end() - 1] {
            assert_eq!(a.segment_at(hpa).expect("mapped").id(), seg.id());
        }
        assert_eq!(
            a.segment_at(before.end() - 1).expect("mapped").id(),
            before.id()
        );
        assert_eq!(a.segment_at(after.base()).expect("mapped").id(), after.id());
    }

    #[test]
    fn freed_gap_and_outer_addresses_are_unmapped() {
        let t = topo();
        let mut a = alloc4();
        let first = a.alloc(&t, &[HostId(0)], 512, 1).expect("alloc");
        let mid = a.alloc(&t, &[HostId(0)], 512, 1).expect("alloc");
        let last = a.alloc(&t, &[HostId(0)], 512, 1).expect("alloc");
        a.free(mid.id()).expect("free");
        for hpa in [first.base() - 1, mid.base(), mid.end() - 1, last.end()] {
            assert!(
                matches!(a.segment_at(hpa), Err(FabricError::Unmapped { hpa: h }) if h == hpa),
                "{hpa:#x} should be unmapped"
            );
        }
        assert!(a.segment(mid.id()).is_none());
        assert_eq!(a.segment(last.id()).map(Segment::base), Some(last.base()));
    }

    #[test]
    fn segments_iterate_in_id_order_after_frees_and_reallocs() {
        let t = topo();
        let mut a = alloc4();
        let ids: Vec<SegmentId> = (0..5)
            .map(|_| a.alloc(&t, &[HostId(0)], 256, 1).expect("alloc").id())
            .collect();
        a.free(ids[3]).expect("free");
        a.free(ids[0]).expect("free");
        let again = a.alloc(&t, &[HostId(0)], 256, 1).expect("alloc").id();
        a.free(ids[2]).expect("free");
        let listed: Vec<SegmentId> = a.segments().map(Segment::id).collect();
        assert_eq!(listed, [ids[1], ids[4], again]);
        assert!(listed.windows(2).all(|w| w[0] < w[1]));
    }
}
