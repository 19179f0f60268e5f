//! The yardstick: a fixed piece of host work, independent of the
//! simulator, that the end-to-end run times between the parts of its
//! passes to learn how fast the shared host is running at the moment.
//!
//! The reference host's vCPUs share caches and memory bandwidth with
//! other tenants, and for tens of seconds at a time it runs the
//! simulator up to twice as slow. Such a spell also slows the yardstick,
//! so the end-to-end host times are rescaled by
//! `UNIT_REF_S / (mean yardstick unit)`: host seconds on the reference
//! host at its typical speed. The yardstick is the benchmark's own code,
//! so no change to the simulator can move it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of a typical [`unit`] on the reference host (2-vCPU
/// Xeon VM); units there range from 0.043 to 0.069 s.
pub const UNIT_REF_S: f64 = 0.060;

/// Host time spent on the yardstick, as a share of the work's.
const SHARE: f64 = 0.1;

/// One unit of the yardstick: what a discrete-event simulator does to
/// the host, with a fixed seed: an event heap and an ordered index that
/// churn allocations, plus random updates of a hash table of a few MiB.
/// Returns its host seconds.
pub fn unit() -> f64 {
    let t = Instant::now();
    let mut x = 0x5EED_u64;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 11
    };

    let mut heap = BinaryHeap::new();
    let mut index = BTreeMap::new();
    for i in 0..100_000u64 {
        let r = next();
        heap.push(Reverse((i + (r >> 43), i)));
        index.insert(r >> 20, i);
        if heap.len() > 8_192 {
            if let Some(Reverse((_, j))) = heap.pop() {
                index.remove(&(j.wrapping_mul(31) >> 2));
            }
        }
    }
    black_box((&heap, &index));

    const KEYS: u64 = 100_000;
    let key = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut table: HashMap<u64, [u64; 2]> = HashMap::with_capacity(KEYS as usize);
    for k in 0..KEYS {
        table.insert(key(k), [k, k]);
    }
    for _ in 0..400_000 {
        let r = next();
        if let Some(v) = table.get_mut(&key(r % KEYS)) {
            v[1] = v[1].wrapping_add(r);
        }
    }
    black_box(&table);
    t.elapsed().as_secs_f64()
}

/// Yardstick units timed over a run, interleaved with its work.
#[derive(Default)]
pub struct Yardstick {
    units: Vec<f64>,
    owed_s: f64,
}

impl Yardstick {
    /// Books a tenth of a finished part's `part_s` host seconds to the
    /// yardstick and runs units until that is paid. Parts are short
    /// (one engine run, search or UDP point), so the units sample the
    /// host's speed all through the run.
    pub fn after_part(&mut self, part_s: f64) {
        self.owed_s += part_s * SHARE;
        while self.owed_s > 0.0 {
            let u = unit();
            self.units.push(u);
            self.owed_s -= u;
        }
    }

    /// Mean host seconds of one unit over the run.
    pub fn unit_s(&self) -> f64 {
        crate::ledger::mean(&self.units)
    }

    /// The factor that turns this run's host seconds into reference-host
    /// seconds; 1 when no unit ran.
    pub fn scale(&self) -> f64 {
        match self.unit_s() {
            u if u > 0.0 => UNIT_REF_S / u,
            _ => 1.0,
        }
    }
}
