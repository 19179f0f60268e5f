//! Open-loop Poisson load generation and the client-side model.
//!
//! The client is a dedicated load-generator machine (as in the paper's
//! setup): we model its NIC serialization and a fixed per-request
//! software overhead, but not its internals — it is never the
//! bottleneck at the offered loads swept.

use simkit::rng::Rng;
use simkit::server::BandwidthPipe;
use simkit::Nanos;

/// Ethernet + IP + UDP header bytes added to every payload.
pub const HEADERS: u32 = 42;

/// Client-side model: NIC line + fixed software costs.
pub struct Client {
    line: BandwidthPipe,
    /// Software cost to build and post one request.
    pub tx_overhead: Nanos,
    /// Software cost to receive and timestamp one response.
    pub rx_overhead: Nanos,
}

impl Client {
    /// A 100 Gbps client NIC with kernel-bypass-class overheads.
    pub fn new(line_gbps: f64) -> Client {
        Client {
            line: BandwidthPipe::new(line_gbps / 8.0),
            tx_overhead: Nanos(400),
            rx_overhead: Nanos(400),
        }
    }

    /// Serializes a request frame of `bytes` starting at `now`; returns
    /// when its last bit is on the wire.
    pub fn send(&mut self, now: Nanos, bytes: u64) -> Nanos {
        self.line.transfer(now + self.tx_overhead, bytes)
    }
}

/// Draws the next inter-arrival gap for an open-loop Poisson process of
/// `rate_pps` requests per second.
pub fn next_gap(rng: &mut Rng, rate_pps: f64) -> Nanos {
    assert!(rate_pps > 0.0, "rate must be positive");
    let mean_ns = 1e9 / rate_pps;
    Nanos(rng.exp(mean_ns).max(1.0) as u64)
}

/// Two periods of the byte ramp 0, 1, …, 255. Request `id`'s payload
/// repeats the 256-byte window that starts at `id as u8`, so filling
/// and checking it are plain copies and compares.
static RAMP: [u8; 512] = {
    let mut ramp = [0u8; 512];
    let mut i = 0;
    while i < ramp.len() {
        ramp[i] = i as u8;
        i += 1;
    }
    ramp
};

/// The 256-byte period of request `id`'s payload pattern.
fn period(id: u64) -> &'static [u8] {
    &RAMP[id as u8 as usize..][..256]
}

/// Writes request `id`'s deterministic payload into `payload`: byte
/// `i` is `id + i` (wrapping), so the client can verify echoes
/// byte-for-byte with [`pattern_matches`].
pub fn fill_pattern(id: u64, payload: &mut [u8]) {
    let period = period(id);
    for chunk in payload.chunks_mut(period.len()) {
        chunk.copy_from_slice(&period[..chunk.len()]);
    }
}

/// True if `payload` is exactly what [`fill_pattern`] writes for
/// request `id`.
pub fn pattern_matches(id: u64, payload: &[u8]) -> bool {
    let period = period(id);
    payload
        .chunks(period.len())
        .all(|chunk| chunk == &period[..chunk.len()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_gaps_have_right_mean() {
        let mut rng = Rng::new(1);
        let n = 100_000;
        let total: u64 = (0..n)
            .map(|_| next_gap(&mut rng, 1_000_000.0).as_nanos())
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1_000.0).abs() < 20.0, "mean gap {mean} ns");
    }

    fn pattern(id: u64, len: usize) -> Vec<u8> {
        let mut payload = vec![0u8; len];
        fill_pattern(id, &mut payload);
        payload
    }

    #[test]
    fn pattern_is_deterministic_and_id_dependent() {
        assert_eq!(pattern(3, 4), vec![3, 4, 5, 6]);
        assert_ne!(pattern(1, 8), pattern(2, 8));
        assert_eq!(pattern(7, 8), pattern(7, 8));
        // A fill overwrites whatever the buffer held.
        let mut reused = vec![0xFFu8; 4];
        fill_pattern(3, &mut reused);
        assert_eq!(reused, vec![3, 4, 5, 6]);
        // Byte `i` is `id + i` (wrapping) for every seed byte and for
        // lengths on and off the 256-byte period.
        for id in [0, 1, 200, 255, 256, 0x1234_5678_9ABC] {
            for len in [0, 1, 255, 256, 257, 1500, 4096] {
                let want: Vec<u8> = (0..len).map(|i| (id as u8).wrapping_add(i as u8)).collect();
                assert_eq!(pattern(id, len), want, "id {id}, {len} B");
                assert!(pattern_matches(id, &want), "id {id}, {len} B");
            }
        }
    }

    #[test]
    fn pattern_check_accepts_the_pattern_and_rejects_any_flipped_byte() {
        for len in [64, 4096] {
            let id = 0x1234_5678_9ABC;
            let good = pattern(id, len);
            assert!(pattern_matches(id, &good));
            assert!(!pattern_matches(id + 1, &good), "{len} B: wrong id");
            for at in [0, len / 2, len - 1] {
                for bit in [0x01, 0x80] {
                    let mut bad = good.clone();
                    bad[at] ^= bit;
                    assert!(!pattern_matches(id, &bad), "{len} B: byte {at} ^ {bit:#x}");
                }
            }
        }
    }

    #[test]
    fn client_send_includes_overhead_and_serialization() {
        let mut c = Client::new(100.0);
        // 1250 B at 12.5 GB/s = 100 ns, plus 400 ns overhead.
        assert_eq!(c.send(Nanos(0), 1250), Nanos(500));
    }
}
