//! The ring endpoint and poll loop every agent and the orchestrator
//! runs.
//!
//! An actor's [`Endpoint`] holds its links (a pair of rings to each
//! peer), its clock and its poll-loop state; `PollActor` adds only
//! what differs between the two actors: what a message does, and any
//! work of its own to flush or to finish a pass with.
//!
//! Both actors are single-threaded and poll-mode (§4.2): a *pass* polls
//! each of the actor's `n` receive rings once, round robin, and the
//! actor's clock advances by what each poll costs. An empty poll on idle
//! pipes costs a fixed `p_i` (CPU + invalidate + one 64 B CXL load, see
//! [`shmem::IdlePoll`]), so starting from the pass boundary `c` where
//! the actor stands, link *i* is polled at
//!
//! ```text
//! c + r·P + off_i      off_i = p_0 + … + p_{i-1},   P = p_0 + … + p_{n-1}
//! ```
//!
//! in round `r`, for as long as nothing arrives. Executing every one of
//! those polls is the *exact* poller. Most of them provably find
//! nothing: a ring sender posts the visibility time `v` of every slot it
//! writes (the fabric's wake table), and a poll starting at `t` sees the
//! message iff it is in pool memory when the poll's load starts, i.e.
//! iff `v <= t + applies_i`. (Every access settles in-flight writes up
//! to its own start, so a message another actor's access has already
//! settled is loadable at once; the wake table then reads `v = 0`, see
//! [`Fabric::wake_at`].)
//!
//! The *wake* poller therefore executes a poll for real exactly when its
//! link's wake is due (or when the actor has queued messages or notices
//! to flush, which every pass retries), and skips every other poll
//! by adding `p_i` to the clock without loading anything. When nothing
//! is due before `until`, the clock lands on the first pass boundary at
//! or after `until` — where the exact loop's `while clock < until {
//! pass }` leaves it — and the fabric settles up to the last skipped
//! load, as the skipped polls would have.
//!
//! The one model difference: skipped polls book no link or MHD
//! bandwidth, so they neither queue behind other traffic nor delay it.
//! [`Endpoint::exact`] keeps the exact poller as the test oracle.
//!
//! Deciding to skip costs constant host time. The endpoint caches each
//! link's idle poll, the period `P` and the earliest due offset
//! `E = min_i(v_i - off_i - applies_i)` over the links with a posted
//! wake, so a pass from `c` with nothing due before `until` lands on
//! `c + P·min(⌈(until - c)/P⌉, ⌈max(0, E - c)/P⌉)`: the per-link
//! minimum, since `x ↦ ⌈max(0, x)/P⌉` is monotone. A link's idle poll
//! depends on its ring and not on which slot the poll reads: every
//! control ring sits on a single MHD ([`shmem::channel::Channel`]), so
//! all of its slots share one path. The idle polls are therefore
//! recomputed only when a link is attached or replaced
//! (`Endpoint::set_link`) or the fabric layout changes
//! ([`Fabric::layout_generation`]); consuming a message changes none of
//! them. `E` is recomputed when the plan is, or when the wake table
//! changes ([`Fabric::wake_generation`]), which consuming a message
//! does, since it clears the message's wake. The cache is a host-time
//! shortcut: it changes no simulated number, and debug builds check
//! every cached answer against one computed from each link's current
//! slot.

use cxl_fabric::Fabric;
use shmem::channel::{ChannelSend, ChannelSender, ChannelStats};
use shmem::ring::{PollOutcome, RingReceiver};
use shmem::IdlePoll;
use simkit::Nanos;

use crate::agent::Peer;
use crate::proto::Msg;
use crate::vdev::PoolError;

/// One bidirectional link (a pair of rings) to a peer.
pub struct Link {
    /// Sender toward the peer.
    pub tx: ChannelSender,
    /// Receiver from the peer.
    pub rx: RingReceiver,
}

impl Link {
    /// Both directions' counters: the send side's sends and stalls,
    /// the receive side's empty and hit polls.
    pub fn stats(&self) -> ChannelStats {
        let (polls_empty, polls_hit) = self.rx.poll_counts();
        ChannelStats {
            polls_empty,
            polls_hit,
            ..self.tx.stats()
        }
    }
}

/// What a sending CPU spends issuing a message's NT store (see
/// [`Endpoint::post`]).
const POST_CPU: Nanos = Nanos(30);

/// One actor's ring endpoint: its links, keyed by peer and polled in
/// attach order, its clock, and its poll-loop state.
#[derive(Default)]
pub struct Endpoint {
    links: Vec<(Peer, Link)>,
    clock: Nanos,
    /// Execute every notional poll for real (the exact oracle). Off by
    /// default; [`crate::pod::PodSim::new`] sets it from
    /// [`crate::pod::PodParams::exact_polling`].
    pub exact: bool,
    /// Messages waiting in the links' senders, kept in step with every
    /// send, flush and attach.
    queued: usize,
    /// The idle-poll plan, cached across passes (see the module docs).
    plan: Plan,
}

/// An endpoint's cached idle-poll plan, keyed on the attached links
/// and the fabric layout alone: a link's idle poll is the same for
/// every slot of its single-MHD ring (see the module docs).
#[derive(Default)]
struct Plan {
    /// Per link, in link order: the idle poll of its ring (`None`: the
    /// poll would fail, so it costs nothing).
    polls: Vec<Option<IdlePoll>>,
    /// The fabric layout generation `polls` were computed under;
    /// `None` after a link was attached or replaced.
    layout: Option<u64>,
    /// `P`: the summed cost of one pass of idle polls.
    period: Nanos,
    /// The last link's idle poll that would not fail.
    last: Option<IdlePoll>,
    /// `E` (`None`: no link has a posted wake), and the fabric wake
    /// generation it was computed under; `None` after a plan change.
    due: Option<(u64, Option<Nanos>)>,
}

impl Endpoint {
    /// Attaches the link to `peer`, replacing any old one (pool-failure
    /// recovery: the old rings died with their MHD). Any in-flight
    /// protocol state on the old rings, messages queued in its sender
    /// included, is abandoned; outstanding operations time out and get
    /// retried by their callers. Links are polled in attach order.
    pub(crate) fn set_link(&mut self, peer: Peer, link: Link) {
        self.queued += link.tx.queued();
        if let Some(slot) = self.links.iter_mut().find(|(p, _)| *p == peer) {
            self.queued -= slot.1.tx.queued();
            slot.1 = link;
        } else {
            self.links.push((peer, link));
        }
        self.plan.layout = None;
    }

    /// The base address of the ring each link receives on, in attach
    /// order.
    pub fn receive_rings(&self) -> impl Iterator<Item = u64> + '_ {
        self.links.iter().map(|(_, l)| l.rx.base())
    }

    /// The actor's poll-loop clock.
    pub fn clock(&self) -> Nanos {
        self.clock
    }

    /// Moves the clock forward (e.g. after the host was busy elsewhere).
    pub fn advance_clock(&mut self, to: Nanos) {
        if to > self.clock {
            self.clock = to;
        }
    }

    /// Messages waiting in the links' senders for ring credits.
    pub fn queued(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.links.iter().map(|(_, l)| l.tx.queued()).sum::<usize>()
        );
        self.queued
    }

    /// Ring statistics summed over every link: sends, backpressure
    /// events and stall nanoseconds on the send side, empty and hit
    /// polls on the receive side.
    pub fn channel_stats(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for (_, link) in &self.links {
            total += link.stats();
        }
        total
    }

    /// Sends `msg` to `peer` at the clock and charges the sending CPU.
    /// An NT store is posted: the CPU moves on after issuing it, long
    /// before the line lands in pool DRAM. A full ring holds the CPU
    /// until the failed credit check completes and leaves the message
    /// queued in the sender for [`Endpoint::flush`].
    pub(crate) fn post(
        &mut self,
        fabric: &mut Fabric,
        peer: Peer,
        msg: &Msg,
    ) -> Result<(), PoolError> {
        let (_, link) = self
            .links
            .iter_mut()
            .find(|(p, _)| *p == peer)
            .ok_or(PoolError::NoLink(peer))?;
        let before = link.tx.queued();
        let sent = link.tx.send(fabric, self.clock, msg.encode());
        self.queued = self.queued + link.tx.queued() - before;
        self.clock = match sent? {
            ChannelSend::Sent(_) => self.clock + POST_CPU,
            ChannelSend::Queued(at) => self.clock.max(at),
        };
        Ok(())
    }

    /// Replies on link `i` at the current clock. Posted like a CQE
    /// write: the clock does not move, and a full ring queues the
    /// reply. A fabric error loses it, and the peer times out.
    pub(crate) fn reply(&mut self, fabric: &mut Fabric, i: usize, msg: &Msg) {
        let tx = &mut self.links[i].1.tx;
        let before = tx.queued();
        let _ = tx.send(fabric, self.clock, msg.encode());
        self.queued = self.queued + tx.queued() - before;
    }

    /// Writes out what full rings left queued, each link's sends
    /// charged as in [`Endpoint::post`]. A link with nothing queued is
    /// skipped; a fabric error drops its queue.
    fn flush(&mut self, fabric: &mut Fabric) {
        self.queued = 0;
        for (_, link) in &mut self.links {
            if link.tx.queued() > 0 {
                self.clock = match link.tx.flush(fabric, self.clock) {
                    Ok(ChannelSend::Sent(_)) => self.clock + POST_CPU,
                    Ok(ChannelSend::Queued(at)) => self.clock.max(at),
                    Err(_) => self.clock,
                };
            }
            self.queued += link.tx.queued();
        }
    }

    /// Plans a pass of idle polls from the clock, a pass boundary `c`,
    /// and returns the boundary of the first pass in which some link's
    /// poll is due; or, when none is due in a pass starting before
    /// `until`, the first boundary at or after `until`. Reads the
    /// cached plan and earliest due offset, refreshing what changed.
    fn next_due_pass(&mut self, fabric: &Fabric, until: Nanos) -> Nanos {
        self.refresh_plan(fabric);
        let c = self.clock;
        let period = self.plan.period.as_nanos();
        let next = if period == 0 {
            // Every poll would fail: the exact pass consumes no time and
            // burns the span.
            until
        } else {
            let mut rounds = until.saturating_sub(c).as_nanos().div_ceil(period);
            if let Some(due) = self.earliest_due(fabric) {
                rounds = rounds.min(due.saturating_sub(c).as_nanos().div_ceil(period));
            }
            c + Nanos(period) * rounds
        };
        #[cfg(debug_assertions)]
        self.check_plan(fabric, until, next);
        next
    }

    /// Rebuilds the cached idle polls and period after a link was
    /// attached or replaced, or the fabric layout changed.
    fn refresh_plan(&mut self, fabric: &Fabric) {
        let layout = fabric.layout_generation();
        let plan = &mut self.plan;
        if plan.layout == Some(layout) {
            return;
        }
        plan.polls.clear();
        plan.polls
            .extend(self.links.iter().map(|(_, l)| l.rx.idle_poll(fabric)));
        plan.layout = Some(layout);
        plan.period = plan.polls.iter().flatten().map(|p| p.cost).sum();
        plan.last = plan.polls.iter().flatten().next_back().copied();
        plan.due = None;
    }

    /// `E`, the earliest `v_i - off_i - applies_i` over the links with
    /// a posted wake (floored at 0, which changes no pass it picks),
    /// recomputed when the wake table or the plan changed.
    fn earliest_due(&mut self, fabric: &Fabric) -> Option<Nanos> {
        let wakes = fabric.wake_generation();
        if let Some((generation, due)) = self.plan.due {
            if generation == wakes {
                return due;
            }
        }
        let mut due: Option<Nanos> = None;
        let mut offset = Nanos::ZERO;
        for (&idle, (_, link)) in self.plan.polls.iter().zip(&self.links) {
            let Some(idle) = idle else { continue };
            if let Some(v) = link.rx.next_wake(fabric) {
                // Round r polls link i at c + r·P + off_i; due once
                // v <= c + r·P + off_i + applies.
                let e = v.saturating_sub(offset + idle.applies);
                due = Some(due.map_or(e, |d| d.min(e)));
            }
            offset += idle.cost;
        }
        self.plan.due = Some((wakes, due));
        due
    }

    /// Debug builds' oracle for the cache: the plan and the pass
    /// [`Endpoint::next_due_pass`] picked must equal what an uncached
    /// plan of every link's current slot gives.
    #[cfg(debug_assertions)]
    fn check_plan(&self, fabric: &Fabric, until: Nanos, next: Nanos) {
        let plan: Vec<Option<IdlePoll>> = self
            .links
            .iter()
            .map(|(_, l)| l.rx.idle_poll(fabric))
            .collect();
        debug_assert_eq!(self.plan.polls, plan, "stale idle-poll plan");
        let c = self.clock;
        let period: u64 = plan.iter().flatten().map(|p| p.cost.as_nanos()).sum();
        let uncached = if period == 0 {
            until
        } else {
            let mut rounds = until.saturating_sub(c).as_nanos().div_ceil(period);
            let mut offset = c;
            for (idle, (_, link)) in plan.iter().zip(&self.links) {
                let Some(idle) = *idle else { continue };
                if let Some(v) = link.rx.next_wake(fabric) {
                    let first = v.saturating_sub(offset + idle.applies).as_nanos();
                    rounds = rounds.min(first.div_ceil(period));
                }
                offset += idle.cost;
            }
            c + Nanos(period) * rounds
        };
        debug_assert_eq!(next, uncached, "cached due pass differs");
    }
}

/// A poll-mode actor as the shared loop drives it: its endpoint, plus
/// what differs between the agent and the orchestrator.
pub(crate) trait PollActor {
    /// The actor's ring endpoint.
    fn endpoint(&mut self) -> &mut Endpoint;
    /// A message arrived on link `i`; the clock stands at its receipt
    /// time.
    fn on_message(&mut self, fabric: &mut Fabric, i: usize, data: Vec<u8>);
    /// True when [`PollActor::flush`] has work of the actor's own to
    /// retry (notices waiting in an outbox), which makes the next pass
    /// real, as queued ring messages do.
    fn pending(&self) -> bool {
        false
    }
    /// Sends the actor's own pending work; runs at the start of a pass,
    /// after the endpoint's queued messages, while anything is pending.
    fn flush(&mut self, _fabric: &mut Fabric) {}
    /// Work at the end of every pass.
    fn end_pass(&mut self, _fabric: &mut Fabric) {}
}

/// Runs `actor`'s poll loop until its clock reaches `until` (see the
/// module docs for the schedule and the wake rule).
pub(crate) fn pump<A: PollActor>(actor: &mut A, fabric: &mut Fabric, until: Nanos) {
    // Load instant of the latest skipped poll, settled on the way out.
    let mut skipped_load: Option<Nanos> = None;
    while actor.endpoint().clock < until {
        let pending = actor.endpoint().queued() > 0 || actor.pending();
        let ep = actor.endpoint();
        let real = ep.exact || pending;
        if !real {
            let c = ep.clock;
            let next = ep.next_due_pass(fabric, until);
            if next > c {
                if let Some(last) = ep.plan.last {
                    skipped_load = Some(next - last.cost + last.applies);
                }
            }
            ep.clock = next;
            if next >= until {
                break;
            }
        }
        let before = ep.clock;
        if pending {
            ep.flush(fabric);
            actor.flush(fabric);
        }
        for i in 0..actor.endpoint().links.len() {
            let ep = actor.endpoint();
            let t = ep.clock;
            let rx = &mut ep.links[i].1.rx;
            if !real {
                // Skipped polls cost their idle time (nothing, when the
                // poll would fail) and touch nothing.
                let Some(Some(idle)) = ep.plan.polls.get(i).copied() else {
                    continue;
                };
                if !is_due(rx.next_wake(fabric), t, idle) {
                    skipped_load = Some(t + idle.applies);
                    ep.clock = t + idle.cost;
                    continue;
                }
            }
            match rx.poll(fabric, t) {
                Ok(PollOutcome::Empty(done)) => ep.clock = done,
                Ok(PollOutcome::Msg { data, at }) => {
                    ep.clock = at;
                    actor.on_message(fabric, i, data);
                }
                // Fabric trouble on this link (e.g. MHD failure): skip
                // it this pass; time advances via the other links.
                Err(_) => {}
            }
        }
        let ep = actor.endpoint();
        if ep.clock == before {
            // No link consumed any time this pass: every ring sits on
            // failed pool memory. The actor busy-polls through the
            // outage; burn the span instead of spinning forever.
            ep.clock = until;
        }
        actor.end_pass(fabric);
    }
    if let Some(at) = skipped_load {
        fabric.settle(at);
    }
}

/// True when a poll starting at `t` would load the message loadable
/// from `wake`.
fn is_due(wake: Option<Nanos>, t: Nanos, idle: IdlePoll) -> bool {
    wake.is_some_and(|v| v <= t + idle.applies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_fabric::{HostId, PodConfig};
    use shmem::channel::Channel;

    /// An actor that only polls.
    #[derive(Default)]
    struct Idle(Endpoint);

    impl PollActor for Idle {
        fn endpoint(&mut self) -> &mut Endpoint {
            &mut self.0
        }
        fn on_message(&mut self, _: &mut Fabric, _: usize, _: Vec<u8>) {}
    }

    /// Host 0's end of a fresh channel to host `peer`.
    fn link(f: &mut Fabric, peer: u16) -> Link {
        let ch = Channel::allocate(f, HostId(0), HostId(peer), 8).expect("channel");
        Link {
            tx: ch.ab.0,
            rx: ch.ba.1,
        }
    }

    /// How far one idle pass moves the actor's clock: pumping 1 ns
    /// ahead lands it on its next pass boundary.
    fn pass(actor: &mut Idle, f: &mut Fabric) -> Nanos {
        let start = actor.0.clock();
        pump(actor, f, start + Nanos(1));
        actor.0.clock() - start
    }

    #[test]
    fn an_attached_link_joins_the_cached_plan() {
        let mut f = Fabric::new(PodConfig::new(3, 2, 2));
        let mut actor = Idle::default();
        actor.0.set_link(Peer::Host(HostId(1)), link(&mut f, 1));
        let one = pass(&mut actor, &mut f);
        assert!(one > Nanos::ZERO);
        assert_eq!(pass(&mut actor, &mut f), one, "cached pass");
        actor.0.set_link(Peer::Host(HostId(2)), link(&mut f, 2));
        let idle: Nanos = actor
            .0
            .links
            .iter()
            .map(|(_, l)| l.rx.idle_poll(&f).expect("live ring").cost)
            .sum();
        assert!(idle > one);
        assert_eq!(pass(&mut actor, &mut f), idle, "both links polled");
    }

    #[test]
    fn a_message_settled_early_is_due_at_once() {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let ch = Channel::allocate(&mut f, HostId(1), HostId(0), 8).expect("channel");
        let (mut tx, rx) = ch.ab;
        let mut actor = Idle::default();
        actor
            .0
            .set_link(Peer::Host(HostId(1)), Link { tx: ch.ba.0, rx });
        let Ok(ChannelSend::Sent(vis)) = tx.send(&mut f, Nanos(10_000), vec![1]) else {
            panic!("an empty ring takes the message");
        };
        // The actor caches its due pass: the message's visibility.
        pump(&mut actor, &mut f, Nanos(1_000));
        assert_eq!(actor.0.channel_stats().polls_hit, 0);
        // Another actor's access settles the message into pool memory,
        // so the lagging actor's next poll of the ring loads it.
        f.settle(vis);
        let c = actor.0.clock();
        pump(&mut actor, &mut f, c + Nanos(1));
        assert_eq!(actor.0.channel_stats().polls_hit, 1);
        assert!(actor.0.clock() < vis);
    }
}
