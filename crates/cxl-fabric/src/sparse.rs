//! Sparse byte storage backing the pool's (potentially huge) address
//! space.

use simkit::hash::DetHashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// A sparse, page-granular byte store.
///
/// Unwritten bytes read as zero, so terabyte-scale pools cost memory
/// only for the pages actually touched.
///
/// # Examples
///
/// ```
/// use cxl_fabric::sparse::SparseMem;
/// let mut m = SparseMem::new();
/// m.write(10_000_000, &[1, 2, 3]);
/// let mut buf = [0u8; 4];
/// m.read(9_999_999, &mut buf);
/// assert_eq!(buf, [0, 1, 2, 3]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SparseMem {
    /// Page-number → page bytes; [`DetHashMap`] because every pool
    /// load/store resolves at least one page here (point lookups only,
    /// never iterated).
    pages: DetHashMap<u64, Box<[u8]>>,
}

impl SparseMem {
    /// Creates an empty store.
    pub fn new() -> SparseMem {
        SparseMem::default()
    }

    /// Copies `buf.len()` bytes starting at `addr` into `buf`; holes
    /// read as zero.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let cur = addr + off as u64;
            let page = cur >> PAGE_SHIFT;
            let in_page = (cur & (PAGE_SIZE - 1)) as usize;
            let n = ((PAGE_SIZE as usize - in_page).min(buf.len() - off)).max(1);
            match self.pages.get(&page) {
                Some(p) => buf[off..off + n].copy_from_slice(&p[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    /// Writes `data` starting at `addr`, allocating pages as needed.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut off = 0usize;
        while off < data.len() {
            let cur = addr + off as u64;
            let page = cur >> PAGE_SHIFT;
            let in_page = (cur & (PAGE_SIZE - 1)) as usize;
            let n = ((PAGE_SIZE as usize - in_page).min(data.len() - off)).max(1);
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            p[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            off += n;
        }
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Drops all contents.
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// Returns `[addr, addr + len)` to the unwritten state: pages wholly
    /// inside the range are released, and the range's bytes on the
    /// partial pages at either edge are zeroed (an edge page may hold a
    /// neighbour's bytes).
    pub fn clear_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = addr + len;
        let first_full = addr.div_ceil(PAGE_SIZE);
        let end_full = end >> PAGE_SHIFT;
        if first_full < end_full {
            if end_full - first_full > self.pages.len() as u64 {
                self.pages.retain(|&p, _| p < first_full || p >= end_full);
            } else {
                for p in first_full..end_full {
                    self.pages.remove(&p);
                }
            }
        }
        // Edge pages: the bytes of the range outside any full page.
        let head_end = end.min(first_full << PAGE_SHIFT);
        self.zero(addr, head_end);
        let tail_start = addr.max(end_full << PAGE_SHIFT);
        if tail_start >= head_end {
            self.zero(tail_start, end);
        }
    }

    /// Zeroes `[from, to)`, which lies within one page, if resident; a
    /// page left all zero reads like a hole, so it is released too.
    fn zero(&mut self, from: u64, to: u64) {
        if from >= to {
            return;
        }
        let page = from >> PAGE_SHIFT;
        if let Some(p) = self.pages.get_mut(&page) {
            let lo = (from & (PAGE_SIZE - 1)) as usize;
            p[lo..lo + (to - from) as usize].fill(0);
            if p.iter().all(|&b| b == 0) {
                self.pages.remove(&page);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let m = SparseMem::new();
        let mut buf = [0xFFu8; 16];
        m.read(12345, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = SparseMem::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write(1000, &data);
        let mut buf = vec![0u8; 256];
        m.read(1000, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn crossing_page_boundary() {
        let mut m = SparseMem::new();
        let data = [7u8; 100];
        // Straddle the 4096 boundary.
        m.write(PAGE_SIZE - 50, &data);
        let mut buf = [0u8; 100];
        m.read(PAGE_SIZE - 50, &mut buf);
        assert_eq!(buf, data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn overwrite_is_last_writer_wins() {
        let mut m = SparseMem::new();
        m.write(0, &[1u8; 64]);
        m.write(32, &[2u8; 64]);
        let mut buf = [0u8; 96];
        m.read(0, &mut buf);
        assert_eq!(&buf[..32], &[1u8; 32]);
        assert_eq!(&buf[32..], &[2u8; 64]);
    }

    #[test]
    fn clear_range_releases_inner_pages_and_zeroes_edges() {
        let mut m = SparseMem::new();
        m.write(0, &vec![5u8; (4 * PAGE_SIZE) as usize]);
        assert_eq!(m.resident_pages(), 4);
        // From mid page 0 to mid page 3: pages 1 and 2 go, the edges
        // keep their bytes outside the range.
        m.clear_range(PAGE_SIZE / 2, 3 * PAGE_SIZE);
        assert_eq!(m.resident_pages(), 2);
        let mut buf = vec![0u8; (4 * PAGE_SIZE) as usize];
        m.read(0, &mut buf);
        let half = (PAGE_SIZE / 2) as usize;
        assert!(buf[..half].iter().all(|&b| b == 5));
        assert!(buf[half..7 * half].iter().all(|&b| b == 0));
        assert!(buf[7 * half..].iter().all(|&b| b == 5));
        // A range inside one page only zeroes bytes...
        m.clear_range(10, 10);
        m.read(0, &mut buf[..30]);
        assert_eq!(&buf[..30], &[[5u8; 10], [0u8; 10], [5u8; 10]].concat()[..]);
        assert_eq!(m.resident_pages(), 2);
        // ...until the page holds nothing but zeroes.
        m.clear_range(0, PAGE_SIZE / 2);
        assert_eq!(m.resident_pages(), 1);
        // Page-aligned ranges release whole pages, many at a time.
        m.clear_range(0, 1 << 40);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn empty_buffer_is_noop() {
        let mut m = SparseMem::new();
        m.write(0, &[]);
        let mut buf = [];
        m.read(0, &mut buf);
        assert_eq!(m.resident_pages(), 0);
    }
}
