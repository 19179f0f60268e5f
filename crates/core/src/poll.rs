//! The poll loop every agent and the orchestrator runs.
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
//! [`PollLoop::exact`] keeps the exact poller as the test oracle.

use cxl_fabric::Fabric;
use shmem::channel::ChannelReceiver;
use shmem::ring::PollOutcome;
use shmem::IdlePoll;
use simkit::Nanos;

/// Per-actor state of the shared poll loop.
#[derive(Debug, Default)]
pub(crate) struct PollLoop {
    /// Execute every notional poll for real (the exact oracle). Off by
    /// default; set from [`crate::pod::PodParams::exact_polling`].
    pub(crate) exact: bool,
    /// Each link's idle poll timing for the current pass (`None`: the
    /// poll would fail, so it costs nothing). Reused across passes.
    plan: Vec<Option<IdlePoll>>,
}

/// A poll-mode actor as the shared loop drives it.
pub(crate) trait PollActor {
    /// The loop state.
    fn poll_loop(&mut self) -> &mut PollLoop;
    /// The actor's clock.
    fn clock_mut(&mut self) -> &mut Nanos;
    /// Number of links polled per pass.
    fn link_count(&self) -> usize;
    /// The receive side of link `i`.
    fn receiver(&self, i: usize) -> &ChannelReceiver;
    /// Mutable receive side of link `i`.
    fn receiver_mut(&mut self, i: usize) -> &mut ChannelReceiver;
    /// A complete message arrived on link `i`; the clock stands at its
    /// receipt time.
    fn on_message(&mut self, fabric: &mut Fabric, i: usize, data: Vec<u8>);
    /// True when [`PollActor::flush`] has work to retry (messages a
    /// full ring left queued, notices waiting in an outbox), which
    /// makes the next pass real.
    fn pending(&self) -> bool;
    /// Sends what is pending; runs at the start of a pass while
    /// [`PollActor::pending`] holds.
    fn flush(&mut self, fabric: &mut Fabric);
    /// Work at the end of every pass.
    fn end_pass(&mut self, _fabric: &mut Fabric) {}
}

/// Runs `actor`'s poll loop until its clock reaches `until` (see the
/// module docs for the schedule and the wake rule).
pub(crate) fn pump<A: PollActor>(actor: &mut A, fabric: &mut Fabric, until: Nanos) {
    let mut plan = std::mem::take(&mut actor.poll_loop().plan);
    // Load instant of the latest skipped poll, settled on the way out.
    let mut skipped_load: Option<Nanos> = None;
    while *actor.clock_mut() < until {
        let pending = actor.pending();
        let real = actor.poll_loop().exact || pending;
        if !real {
            plan.clear();
            plan.extend((0..actor.link_count()).map(|i| actor.receiver(i).idle_poll(fabric)));
            let c = *actor.clock_mut();
            let next = next_due_pass(actor, fabric, &plan, c, until);
            if next > c {
                if let Some(last) = plan.iter().flatten().last() {
                    skipped_load = Some(next - last.cost + last.applies);
                }
            }
            *actor.clock_mut() = next;
            if next >= until {
                break;
            }
        }
        let before = *actor.clock_mut();
        if pending {
            actor.flush(fabric);
        }
        for i in 0..actor.link_count() {
            let t = *actor.clock_mut();
            if !real {
                // Skipped polls cost their idle time (nothing, when the
                // poll would fail) and touch nothing.
                let Some(idle) = plan.get(i).copied().flatten() else {
                    continue;
                };
                if !is_due(actor.receiver(i).next_wake(fabric), t, idle) {
                    skipped_load = Some(t + idle.applies);
                    *actor.clock_mut() = t + idle.cost;
                    continue;
                }
            }
            match actor.receiver_mut(i).poll(fabric, t) {
                Ok(PollOutcome::Empty(done)) => *actor.clock_mut() = done,
                Ok(PollOutcome::Msg { data, at }) => {
                    *actor.clock_mut() = at;
                    actor.on_message(fabric, i, data);
                }
                // Fabric trouble on this link (e.g. MHD failure): skip
                // it this pass; time advances via the other links.
                Err(_) => {}
            }
        }
        if *actor.clock_mut() == before {
            // No link consumed any time this pass: every ring sits on
            // failed pool memory. The actor busy-polls through the
            // outage; burn the span instead of spinning forever.
            *actor.clock_mut() = until;
        }
        actor.end_pass(fabric);
    }
    if let Some(at) = skipped_load {
        fabric.settle(at);
    }
    actor.poll_loop().plan = plan;
}

/// True when a poll starting at `t` would load the message loadable
/// from `wake`.
fn is_due(wake: Option<Nanos>, t: Nanos, idle: IdlePoll) -> bool {
    wake.is_some_and(|v| v <= t + idle.applies)
}

/// The boundary of the first pass, starting from boundary `c`, in which
/// some link's poll is due; or, when none is due in a pass starting
/// before `until`, the first boundary at or after `until`.
fn next_due_pass<A: PollActor>(
    actor: &A,
    fabric: &Fabric,
    plan: &[Option<IdlePoll>],
    c: Nanos,
    until: Nanos,
) -> Nanos {
    let period: u64 = plan.iter().flatten().map(|p| p.cost.as_nanos()).sum();
    if period == 0 {
        // Every poll would fail: the exact pass consumes no time and
        // burns the span.
        return until;
    }
    let mut rounds = until.saturating_sub(c).as_nanos().div_ceil(period);
    let mut offset = c;
    for (i, idle) in plan.iter().enumerate() {
        let Some(idle) = *idle else { continue };
        if let Some(v) = actor.receiver(i).next_wake(fabric) {
            // Round r polls link i at offset + r·P; due once
            // v <= offset + r·P + applies.
            let first = v.saturating_sub(offset + idle.applies).as_nanos();
            rounds = rounds.min(first.div_ceil(period));
        }
        offset += idle.cost;
    }
    c + Nanos(period) * rounds
}
