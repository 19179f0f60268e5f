// simlint-fixture: path=crates/pcie-sim/src/fixture_dp_good.rs
//! Known-good R7 corpus: cold-path asserts are free, hot paths
//! propagate with `?`, the `try_into().expect` fixed-width idiom is
//! auto-exempt, literal-bounded ranges cannot drift, and a provably
//! clamped computed range carries a reasoned suppression. The file
//! mentions `Fabric`, so it also holds R3's empty-argument `peek()`.

struct Fabric;

impl Fabric {
    fn load(&mut self, _addr: u64, _buf: &mut [u8]) -> Result<(), ()> {
        Ok(())
    }
}

/// No fabric op in the body → not a hot path: config validation may
/// assert and index freely.
fn cold_setup(n: usize) -> Vec<u8> {
    assert!(n >= 4, "config needs at least a header");
    let mut v = vec![0u8; n];
    v[0..4].copy_from_slice(&1u32.to_le_bytes());
    v
}

/// The hot-path shape the rule steers toward: `?` all the way up.
fn hot_propagates(fabric: &mut Fabric, addr: u64) -> Result<u64, ()> {
    let mut buf = [0u8; 8];
    fabric.load(addr, &mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// `try_into().expect(…)` on a literal-bounded slice is infallible by
/// construction (fixed width → fixed-size array): auto-exempt.
fn hot_fixed_width(fabric: &mut Fabric, addr: u64) -> Result<u64, ()> {
    let mut buf = [0u8; 16];
    fabric.load(addr, &mut buf)?;
    Ok(u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes")))
}

/// A computed range that is provably in-bounds gets a reasoned
/// suppression, mirroring the real `RingReceiver::poll` site.
fn hot_clamped(fabric: &mut Fabric, addr: u64, len: usize) -> Result<Vec<u8>, ()> {
    let mut buf = [0u8; 64];
    fabric.load(addr, &mut buf)?;
    // simlint: allow(unwrap-in-datapath) -- len is min-clamped to the buffer size
    Ok(buf[0..len.min(64)].to_vec())
}

/// A pending-write heap's `peek()` takes no arguments, so R3 cannot
/// mistake it for `Fabric::peek(hpa, buf)` even in a Fabric file.
fn next_visible(pending: &std::collections::BinaryHeap<u64>) -> Option<u64> {
    pending.peek().copied()
}
