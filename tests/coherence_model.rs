//! Model-checking the fabric's software-coherence semantics.
//!
//! A reference oracle models exactly what non-coherent CXL promises:
//! per-host caches that are never invalidated remotely, non-temporal
//! stores that bypass them, and invalidate/flush as the only coherence
//! operations. Random operation sequences must make the fabric and the
//! oracle agree byte-for-byte on every load result.
//!
//! The oracle ignores *time* (all writes settle instantly), so the
//! driver settles the fabric after every visible write — the property
//! under test is the cache/visibility *logic*, not the latency model.
//!
//! The coherence auditor runs alongside and is cross-checked against
//! the oracle: whenever the oracle can *prove* a hazard from bytes
//! alone (a clean cached line that diverged from the pool, a dirty
//! line discarded, two hosts dirty at once, a publish from a stale
//! base), the auditor must have flagged it. The auditor may flag more
//! (it tracks write *events*, so byte-identical overwrites still
//! count), never less.
//!
//! Every case runs under both audit analyses. Under the vector-clock
//! analysis an oracle-provable stale read whose missed write is *not*
//! happens-before-ordered with the reader is then (correctly) reported
//! as a `ConcurrentConflict` instead of a `StaleRead`, so the
//! cross-check accepts either counter advancing in that mode.

// peek_settled is the whole point of the settle-after-every-op driver
// (clippy.toml forbids it outside test code).
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;

use cxl_fabric::{AuditConfig, AuditMode, Fabric, HostId, PodConfig};
use proptest::prelude::*;
use simkit::Nanos;

const LINE: u64 = 64;
const LINES: u64 = 8;

/// What non-coherent CXL promises, reduced to its essentials.
struct Oracle {
    pool: Vec<u8>,
    /// Per host: line index → cached copy and dirty flag.
    caches: Vec<HashMap<u64, (Vec<u8>, bool)>>,
}

impl Oracle {
    fn new(hosts: usize) -> Oracle {
        Oracle {
            pool: vec![0u8; (LINES * LINE) as usize],
            caches: (0..hosts).map(|_| HashMap::new()).collect(),
        }
    }

    fn load(&mut self, host: usize, line: u64) -> Vec<u8> {
        if let Some((data, _)) = self.caches[host].get(&line) {
            return data.clone();
        }
        let off = (line * LINE) as usize;
        let data = self.pool[off..off + LINE as usize].to_vec();
        self.caches[host].insert(line, (data.clone(), false));
        data
    }

    fn store(&mut self, host: usize, line: u64, byte: u8) {
        // Write-back store: fetch-for-ownership then dirty the line.
        let entry = self.caches[host].entry(line).or_insert_with(|| {
            let off = (line * LINE) as usize;
            (self.pool[off..off + LINE as usize].to_vec(), false)
        });
        entry.0.fill(byte);
        entry.1 = true;
    }

    fn nt_store(&mut self, host: usize, line: u64, byte: u8) {
        let off = (line * LINE) as usize;
        self.pool[off..off + LINE as usize].fill(byte);
        self.caches[host].remove(&line);
    }

    fn flush(&mut self, host: usize, line: u64) {
        if let Some((data, dirty)) = self.caches[host].remove(&line) {
            if dirty {
                let off = (line * LINE) as usize;
                self.pool[off..off + LINE as usize].copy_from_slice(&data);
            }
        }
    }

    fn invalidate(&mut self, host: usize, line: u64) {
        self.caches[host].remove(&line);
    }

    fn dma_write(&mut self, attach: usize, line: u64, byte: u8) {
        let off = (line * LINE) as usize;
        self.pool[off..off + LINE as usize].fill(byte);
        // DMA snoops (invalidates) the attach host's cache only.
        self.caches[attach].remove(&line);
    }
}

/// One step of the random program.
#[derive(Clone, Debug)]
enum Op {
    Load { host: u8, line: u8 },
    Store { host: u8, line: u8, byte: u8 },
    NtStore { host: u8, line: u8, byte: u8 },
    Flush { host: u8, line: u8 },
    Invalidate { host: u8, line: u8 },
    DmaWrite { attach: u8, line: u8, byte: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let host = 0u8..2;
    let line = 0u8..LINES as u8;
    prop_oneof![
        (host.clone(), line.clone()).prop_map(|(host, line)| Op::Load { host, line }),
        (host.clone(), line.clone(), any::<u8>()).prop_map(|(host, line, byte)| Op::Store {
            host,
            line,
            byte
        }),
        (host.clone(), line.clone(), any::<u8>()).prop_map(|(host, line, byte)| Op::NtStore {
            host,
            line,
            byte
        }),
        (host.clone(), line.clone()).prop_map(|(host, line)| Op::Flush { host, line }),
        (host.clone(), line.clone()).prop_map(|(host, line)| Op::Invalidate { host, line }),
        (host, line, any::<u8>()).prop_map(|(attach, line, byte)| Op::DmaWrite {
            attach,
            line,
            byte
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fabric_matches_the_coherence_oracle(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        for mode in AuditMode::ALL {
            let mut fabric = Fabric::new(PodConfig::new(2, 2, 2));
            let vc_mode = mode == AuditMode::VectorClock;
            fabric.enable_audit(AuditConfig {
                mode,
                ..AuditConfig::default()
            });
            let seg = fabric
                .alloc_shared(&[HostId(0), HostId(1)], LINES * LINE)
                .expect("alloc");
            let base = seg.base();
            let mut oracle = Oracle::new(2);
            let mut t = Nanos(0);
            // Byte-oracle hazard bookkeeping for the auditor cross-check:
            // a per-line count of visible writes, who wrote last, and the
            // write count each host's dirty merge is based on.
            let mut epoch = [0u64; LINES as usize];
            let mut last_writer = [usize::MAX; LINES as usize];
            let mut dirty_base: HashMap<(usize, u64), (u64, usize)> = HashMap::new();

            for op in &ops {
                let counts_before = fabric.audit_report().expect("audit on").counts;
                match *op {
                    Op::Load { host, line } => {
                        // Byte-provable staleness: the host will be served a
                        // *clean* cached copy that differs from the pool.
                        let off = (line as u64 * LINE) as usize;
                        let provably_stale = oracle.caches[host as usize]
                            .get(&(line as u64))
                            .is_some_and(|(data, dirty)| {
                                !dirty && data[..] != oracle.pool[off..off + LINE as usize]
                            });
                        let mut buf = [0u8; LINE as usize];
                        t = fabric
                            .load(t, HostId(host as u16), base + line as u64 * LINE, &mut buf)
                            .expect("load");
                        let expect = oracle.load(host as usize, line as u64);
                        prop_assert_eq!(&buf[..], &expect[..], "{:?} load host {} line {}", mode, host, line);
                        if provably_stale {
                            let counts = fabric.audit_report().expect("audit on").counts;
                            let flagged = if vc_mode {
                                // The missed write may be unordered with the
                                // reader: then it is a race, not staleness.
                                counts.stale_reads + counts.concurrent_conflicts
                                    > counts_before.stale_reads + counts_before.concurrent_conflicts
                            } else {
                                counts.stale_reads > counts_before.stale_reads
                            };
                            prop_assert!(
                                flagged,
                                "{mode:?}: oracle-provable stale read not flagged (host {host} line {line})"
                            );
                        }
                    }
                    Op::Store { host, line, byte } => {
                        // Both hosts dirty on one line is a provable race.
                        let other = 1 - host as usize;
                        let provable_ww = oracle.caches[other]
                            .get(&(line as u64))
                            .is_some_and(|&(_, dirty)| dirty);
                        let was_dirty = oracle.caches[host as usize]
                            .get(&(line as u64))
                            .is_some_and(|&(_, dirty)| dirty);
                        t = fabric
                            .store(t, HostId(host as u16), base + line as u64 * LINE, &[byte; LINE as usize])
                            .expect("store");
                        oracle.store(host as usize, line as u64, byte);
                        if !was_dirty {
                            dirty_base.insert(
                                (host as usize, line as u64),
                                (epoch[line as usize], last_writer[line as usize]),
                            );
                        }
                        if provable_ww {
                            let counts = fabric.audit_report().expect("audit on").counts;
                            prop_assert!(
                                counts.ww_conflicts > counts_before.ww_conflicts,
                                "{mode:?}: oracle-provable write-write conflict not flagged (line {line})"
                            );
                        }
                    }
                    Op::NtStore { host, line, byte } => {
                        t = fabric
                            .nt_store(t, HostId(host as u16), base + line as u64 * LINE, &[byte; LINE as usize])
                            .expect("nt_store");
                        oracle.nt_store(host as usize, line as u64, byte);
                        dirty_base.remove(&(host as usize, line as u64));
                        epoch[line as usize] += 1;
                        last_writer[line as usize] = host as usize;
                    }
                    Op::Flush { host, line } => {
                        // Publishing a merge whose base predates another
                        // host's visible write clobbers that write.
                        let provable_clobber = oracle.caches[host as usize]
                            .get(&(line as u64))
                            .is_some_and(|&(_, dirty)| dirty)
                            && dirty_base
                                .get(&(host as usize, line as u64))
                                .is_some_and(|&(base_epoch, _)| {
                                    epoch[line as usize] > base_epoch
                                        && last_writer[line as usize] != host as usize
                                });
                        let was_dirty = oracle.caches[host as usize]
                            .get(&(line as u64))
                            .is_some_and(|&(_, dirty)| dirty);
                        t = fabric
                            .flush(t, HostId(host as u16), base + line as u64 * LINE, LINE)
                            .expect("flush");
                        oracle.flush(host as usize, line as u64);
                        dirty_base.remove(&(host as usize, line as u64));
                        if was_dirty {
                            epoch[line as usize] += 1;
                            last_writer[line as usize] = host as usize;
                        }
                        if provable_clobber {
                            // Settle so the clobbering write applies.
                            let mut sink = [0u8; 1];
                            fabric.peek_settled(base, &mut sink);
                            let counts = fabric.audit_report().expect("audit on").counts;
                            prop_assert!(
                                counts.lost_writes > counts_before.lost_writes,
                                "{mode:?}: oracle-provable stale-base publish not flagged (line {line})"
                            );
                        }
                    }
                    Op::Invalidate { host, line } => {
                        // Dropping a dirty line discards the write.
                        let provable_loss = oracle.caches[host as usize]
                            .get(&(line as u64))
                            .is_some_and(|&(_, dirty)| dirty);
                        t = fabric.invalidate(t, HostId(host as u16), base + line as u64 * LINE, LINE);
                        oracle.invalidate(host as usize, line as u64);
                        dirty_base.remove(&(host as usize, line as u64));
                        if provable_loss {
                            let counts = fabric.audit_report().expect("audit on").counts;
                            prop_assert!(
                                counts.lost_writes > counts_before.lost_writes,
                                "{mode:?}: oracle-provable discarded write not flagged (line {line})"
                            );
                        }
                    }
                    Op::DmaWrite { attach, line, byte } => {
                        t = fabric
                            .dma_write(t, HostId(attach as u16), base + line as u64 * LINE, &[byte; LINE as usize])
                            .expect("dma");
                        oracle.dma_write(attach as usize, line as u64, byte);
                        dirty_base.remove(&(attach as usize, line as u64));
                        epoch[line as usize] += 1;
                        last_writer[line as usize] = attach as usize;
                    }
                }
                // Settle so visibility timing never differs from the
                // (timeless) oracle.
                let mut sink = [0u8; 1];
                fabric.peek_settled(base, &mut sink);
                t += Nanos(1_000);
            }
        }
    }
}
