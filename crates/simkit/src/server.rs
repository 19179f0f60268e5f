//! Queueing primitives for modelling bandwidth- and occupancy-limited
//! resources without explicit token-by-token event traffic.

use crate::time::{transfer_time, Nanos};

/// A work-conserving FIFO single-server resource modelled as a busy
/// timeline.
///
/// `serve(now, work)` answers "if a job needing `work` time arrives at
/// `now`, when does it finish?" — the job starts at `max(now,
/// next_free)` and occupies the server for `work`. This models a PCIe
/// link, a DRAM channel, a NIC serializer, or a CPU core with exact FIFO
/// queueing semantics at a fraction of the event cost.
///
/// # Out-of-order bookings
///
/// FIFO timelines assume callers book work in nondecreasing time
/// order. Actor-timeline simulations violate that: stage N of packet
/// *i* may book at a *later* time than stage 1 of packet *i+1*, and a
/// strict FIFO would then stall packet *i+1* behind a reservation made
/// in its future — a pure artifact. When `serve` sees time go
/// backwards relative to the previous booking, it completes the job at
/// `now + work` without touching the FIFO tail, as if a parallel tag
/// or past idle gap absorbed it (DRAM banks and PCIe links really do
/// have that parallelism). The cost of the approximation: a resource
/// that is *both* driven out of order *and* saturated can over-serve.
/// Model saturating bottlenecks (CPU cores, line rates) with in-order
/// bookings — then FIFO semantics are exact; utilization accounting is
/// exact in all cases.
///
/// # Examples
///
/// ```
/// use simkit::{Nanos, server::TimelineServer};
/// let mut link = TimelineServer::new();
/// assert_eq!(link.serve(Nanos(0), Nanos(10)), Nanos(10));
/// // Arrives while busy: queues behind the first job.
/// assert_eq!(link.serve(Nanos(5), Nanos(10)), Nanos(20));
/// // Arrives after idle gap: starts immediately.
/// assert_eq!(link.serve(Nanos(100), Nanos(10)), Nanos(110));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TimelineServer {
    next_free: Nanos,
    last_arrival: Nanos,
    busy: Nanos,
    jobs: u64,
    out_of_order: u64,
    out_of_order_lag: Nanos,
}

/// How many bookings a timeline served out of order (see
/// [`TimelineServer`]'s type docs), and how far behind the latest
/// arrival they came in total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderStats {
    /// Bookings served.
    pub bookings: u64,
    /// Bookings that arrived before the previous booking's arrival and
    /// so were served with no queueing.
    pub out_of_order: u64,
    /// Sum over those bookings of `last_arrival - now`.
    pub lag: Nanos,
}

impl std::ops::AddAssign for OrderStats {
    fn add_assign(&mut self, rhs: OrderStats) {
        self.bookings += rhs.bookings;
        self.out_of_order += rhs.out_of_order;
        self.lag += rhs.lag;
    }
}

impl TimelineServer {
    /// Creates an idle server.
    pub fn new() -> TimelineServer {
        TimelineServer::default()
    }

    /// Enqueues a job arriving at `now` that needs `work` service time;
    /// returns its completion time.
    pub fn serve(&mut self, now: Nanos, work: Nanos) -> Nanos {
        self.busy += work;
        self.jobs += 1;
        if now < self.last_arrival {
            // Out-of-order booking (see type docs): absorbed by
            // parallel-tag/idle capacity, FIFO tail untouched.
            self.out_of_order += 1;
            self.out_of_order_lag += self.last_arrival.saturating_sub(now);
            return now + work;
        }
        self.last_arrival = now;
        let start = self.next_free.max(now);
        let done = start + work;
        self.next_free = done;
        done
    }

    /// Returns the queueing delay a job arriving at `now` would see
    /// before starting service, without enqueueing it.
    pub fn backlog(&self, now: Nanos) -> Nanos {
        self.next_free.saturating_sub(now)
    }

    /// Total service time dispensed so far.
    pub fn busy_time(&self) -> Nanos {
        self.busy
    }

    /// Number of jobs served.
    pub fn jobs_served(&self) -> u64 {
        self.jobs
    }

    /// In-order versus out-of-order booking counts so far.
    pub fn order_stats(&self) -> OrderStats {
        OrderStats {
            bookings: self.jobs,
            out_of_order: self.out_of_order,
            lag: self.out_of_order_lag,
        }
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            return 0.0;
        }
        self.busy.as_nanos() as f64 / horizon.as_nanos() as f64
    }

    /// Resets to idle, clearing statistics.
    pub fn reset(&mut self) {
        *self = TimelineServer::default();
    }
}

/// A byte-granular bandwidth pipe: a [`TimelineServer`] whose service
/// time is derived from a transfer size and a fixed bandwidth.
///
/// Models a serialized link (PCIe/CXL lane group, Ethernet port): each
/// transfer occupies the pipe for `bytes / bandwidth`, FIFO-ordered.
#[derive(Clone, Debug)]
pub struct BandwidthPipe {
    server: TimelineServer,
    gbytes_per_sec: f64,
}

impl BandwidthPipe {
    /// Creates a pipe with the given bandwidth in GB/s.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not strictly positive.
    pub fn new(gbytes_per_sec: f64) -> BandwidthPipe {
        assert!(
            gbytes_per_sec > 0.0,
            "bandwidth must be positive, got {gbytes_per_sec}"
        );
        BandwidthPipe {
            server: TimelineServer::new(),
            gbytes_per_sec,
        }
    }

    /// Transfers `bytes` starting no earlier than `now`; returns the
    /// completion time.
    pub fn transfer(&mut self, now: Nanos, bytes: u64) -> Nanos {
        self.server.serve(now, self.service_time(bytes))
    }

    /// How long `bytes` occupy the pipe: what [`BandwidthPipe::transfer`]
    /// adds on an idle pipe. Books nothing.
    pub fn service_time(&self, bytes: u64) -> Nanos {
        transfer_time(bytes, self.gbytes_per_sec)
    }

    /// Configured bandwidth in GB/s.
    pub fn bandwidth(&self) -> f64 {
        self.gbytes_per_sec
    }

    /// Queueing delay a transfer arriving at `now` would see.
    pub fn backlog(&self, now: Nanos) -> Nanos {
        self.server.backlog(now)
    }

    /// Total bytes-worth of busy time dispensed, as utilization of
    /// `[0, horizon]`.
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        self.server.utilization(horizon)
    }

    /// In-order versus out-of-order transfer counts so far.
    pub fn order_stats(&self) -> OrderStats {
        self.server.order_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = TimelineServer::new();
        assert_eq!(s.serve(Nanos(50), Nanos(10)), Nanos(60));
        assert_eq!(s.backlog(Nanos(60)), Nanos::ZERO);
        assert_eq!(s.backlog(Nanos(59)), Nanos(1));
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = TimelineServer::new();
        let a = s.serve(Nanos(0), Nanos(100));
        let b = s.serve(Nanos(10), Nanos(100));
        let c = s.serve(Nanos(20), Nanos(100));
        assert_eq!((a, b, c), (Nanos(100), Nanos(200), Nanos(300)));
        assert_eq!(s.backlog(Nanos(20)), Nanos(280));
    }

    #[test]
    fn utilization_accumulates() {
        let mut s = TimelineServer::new();
        s.serve(Nanos(0), Nanos(25));
        s.serve(Nanos(50), Nanos(25));
        assert_eq!(s.busy_time(), Nanos(50));
        assert!((s.utilization(Nanos(100)) - 0.5).abs() < 1e-9);
        assert_eq!(s.jobs_served(), 2);
    }

    #[test]
    fn pipe_transfer_time_matches_bandwidth() {
        // 100 Gbps == 12.5 GB/s; a 1500 B frame takes 120 ns.
        let mut p = BandwidthPipe::new(12.5);
        assert_eq!(p.transfer(Nanos(0), 1500), Nanos(120));
        // Second back-to-back frame completes at 240.
        assert_eq!(p.transfer(Nanos(0), 1500), Nanos(240));
    }

    #[test]
    fn pipe_saturation_throughput_is_line_rate() {
        // Offer far more than line rate for 1 ms and check goodput.
        let mut p = BandwidthPipe::new(12.5);
        let mut done = Nanos::ZERO;
        let mut bytes = 0u64;
        while done < Nanos::from_micros(1000) {
            done = p.transfer(Nanos::ZERO, 4096);
            bytes += 4096;
        }
        let gbps = bytes as f64 * 8.0 / done.as_nanos() as f64;
        assert!((gbps - 100.0).abs() < 1.0, "goodput {gbps} Gbps");
    }

    #[test]
    fn reset_clears_state() {
        let mut s = TimelineServer::new();
        s.serve(Nanos(0), Nanos(100));
        s.reset();
        assert_eq!(s.backlog(Nanos(0)), Nanos::ZERO);
        assert_eq!(s.jobs_served(), 0);
    }

    #[test]
    fn out_of_order_booking_does_not_block_earlier_arrivals() {
        let mut s = TimelineServer::new();
        // A stage books far in the future…
        assert_eq!(s.serve(Nanos(10_000), Nanos(10)), Nanos(10_010));
        // …an earlier-time arrival is absorbed instead of queueing
        // behind the future reservation.
        assert_eq!(s.serve(Nanos(100), Nanos(10)), Nanos(110));
        // Work is still accounted.
        assert_eq!(s.busy_time(), Nanos(20));
        // In-order arrivals continue to queue normally.
        assert_eq!(s.serve(Nanos(10_005), Nanos(10)), Nanos(10_020));
    }

    #[test]
    fn out_of_order_bookings_are_counted_with_their_lag() {
        let mut s = TimelineServer::new();
        s.serve(Nanos(1_000), Nanos(10));
        // 900 ns and 400 ns behind the latest arrival: counted, and the
        // completion time is still `now + work`.
        assert_eq!(s.serve(Nanos(100), Nanos(10)), Nanos(110));
        assert_eq!(s.serve(Nanos(600), Nanos(10)), Nanos(610));
        // An equal-time arrival is in order.
        s.serve(Nanos(1_000), Nanos(10));
        assert_eq!(
            s.order_stats(),
            OrderStats {
                bookings: 4,
                out_of_order: 2,
                lag: Nanos(1_300),
            }
        );
        let mut p = BandwidthPipe::new(12.5);
        p.transfer(Nanos(500), 1500);
        p.transfer(Nanos(0), 1500);
        assert_eq!(p.order_stats().out_of_order, 1);
        assert_eq!(p.service_time(1500), Nanos(120));
    }

    #[test]
    fn in_order_saturation_is_exact() {
        let mut s = TimelineServer::new();
        // In-order bookings: strict FIFO, capacity exact.
        let mut t = Nanos(0);
        for _ in 0..100 {
            t = s.serve(t, Nanos(100));
        }
        assert_eq!(t, Nanos(10_000));
        // An equal-time arrival queues at the tail (not out of order).
        assert_eq!(s.serve(Nanos(10_000), Nanos(100)), Nanos(10_100));
    }
}
