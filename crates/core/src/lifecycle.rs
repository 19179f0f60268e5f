//! Tenant lifecycle: provisioning, live migration, departure (§4.2).
//!
//! The paper's orchestrator migrates workloads on failure or overload.
//! What makes that cheap in a CXL pod is the same property that makes
//! connection migration cheap in [`crate::migration`]: everything a
//! vdev needs — rings, I/O buffers, tenant state — already lives in
//! pool memory visible to every host. Live-migrating a *tenant* is
//! therefore a control-plane operation: quiesce, checkpoint the state
//! block, flip segment ownership through the allocator, rebind every
//! affected host via one orchestrator `Assign` each, resume.
//!
//! This module generalizes [`crate::migration::Connection::migrate`]'s
//! quiesce/rebind/resume flow from one NIC connection to a whole
//! tenant across NIC/SSD/accel vdevs, and owns blackout accounting for
//! both: every migration window lands in [`LifecycleStats`] (which the
//! `lifecycle/blackout_ns` metric samples) and on the flight recorder
//! as a `lifecycle/migrate` span.
//!
//! Departure matters as much as arrival: [`TenantState::release`]
//! returns every tenant-owned segment (state block and replica set)
//! through `Fabric::free_segment`, which clears the coherence
//! auditor's per-line shadow state across all domains — so a later
//! tenant reusing those addresses can never alias the departed
//! tenant's history.

use cxl_fabric::{HostId, SegmentId};
use pcie_sim::DeviceId;
use simkit::stats::{Histogram, Summary};
use simkit::Nanos;

use crate::pod::PodSim;
use crate::striping::ReplicaSet;
use crate::vdev::{DeviceKind, PoolError};

/// Copy granularity for re-homing a tenant's state segment.
const COPY_CHUNK: usize = 4096;

/// How long to drain the control plane before taking the quiesce
/// point, so no forwarded completion for the tenant is in flight.
const QUIESCE_DRAIN: Nanos = Nanos(2_000);

/// Pod-level lifecycle counters and distributions, snapshotted into
/// [`crate::telemetry::PodReport`].
#[derive(Debug, Default)]
pub struct LifecycleStats {
    /// Whole-tenant migrations completed.
    pub tenant_migrations: u64,
    /// Migration windows currently open (sampled as the
    /// `lifecycle/in_flight_migrations` gauge).
    pub in_flight: u64,
    /// Blackout distribution (ns) across every migration window —
    /// whole-tenant migrations and single-connection migrations alike,
    /// since both flow through `PodSim::record_migration_window`.
    pub blackout: Histogram,
}

impl LifecycleStats {
    /// Reduced blackout distribution, None before the first migration.
    pub fn blackout_summary(&self) -> Option<Summary> {
        (self.blackout.count() > 0).then(|| self.blackout.summary())
    }
}

/// The outcome of one whole-tenant migration.
#[derive(Clone, Debug)]
pub struct TenantMigrationReport {
    /// The migrated tenant's tag.
    pub tenant: u16,
    /// Device class that was rebound.
    pub kind: DeviceKind,
    /// Device every tenant host now uses.
    pub to: DeviceId,
    /// `(host, previous device)` for each rebound host.
    pub moved: Vec<(HostId, DeviceId)>,
    /// When the tenant's state checkpoint became pod-visible.
    pub quiesced_at: Nanos,
    /// When the last rebind landed and the state copy settled.
    pub resumed_at: Nanos,
    /// The blackout window.
    pub blackout: Nanos,
}

/// A tenant's pool-resident footprint: a state block any host can take
/// over, plus an optional domain-replicated data region.
#[derive(Debug)]
pub struct TenantState {
    /// Tag carried in the state block (report/debug identity).
    pub tenant: u16,
    /// Hosts the tenant issues from.
    pub hosts: Vec<HostId>,
    /// Domain-replicated tenant data, if provisioned with copies.
    pub replicas: Option<ReplicaSet>,
    seg: SegmentId,
    base: u64,
    len: u64,
    epoch: u32,
}

/// Provisions a tenant: allocates its shared state segment (owned by
/// `hosts`), optionally places `copies` replicas of the same length
/// under the orchestrator's domain-spreading policy, and publishes the
/// initial state block.
pub fn provision(
    pod: &mut PodSim,
    tenant: u16,
    hosts: &[HostId],
    state_len: u64,
    copies: usize,
) -> Result<TenantState, PoolError> {
    assert!(!hosts.is_empty(), "a tenant needs at least one host");
    let len = state_len.max(64);
    let seg = pod.fabric.alloc_shared(hosts, len)?;
    let (seg_id, base) = (seg.id(), seg.base());
    let replicas = if copies > 0 {
        match pod
            .orch
            .place_replicas(&mut pod.fabric, hosts[0], len, copies)
        {
            Ok(rs) => Some(rs),
            Err(e) => {
                let _ = pod.fabric.free_segment(seg_id);
                return Err(e);
            }
        }
    } else {
        None
    };
    let mut state = TenantState {
        tenant,
        hosts: hosts.to_vec(),
        replicas,
        seg: seg_id,
        base,
        len,
        epoch: 0,
    };
    state.checkpoint(pod)?;
    Ok(state)
}

/// Rebinds `host`'s `kind` binding to device `to` and waits for the
/// orchestrator's `Assign` to land on the host's agent. This is the
/// rebind primitive both [`crate::migration::Connection::migrate`] and
/// [`migrate_tenant`] delegate to; `quiesced_at` is the caller's
/// quiesce point (the orchestrator clock is advanced to it so the
/// `Assign` is ordered after the checkpoint).
pub fn rebind(
    pod: &mut PodSim,
    host: HostId,
    kind: DeviceKind,
    to: DeviceId,
    quiesced_at: Nanos,
) -> Result<(), PoolError> {
    pod.orch.endpoint.advance_clock(quiesced_at);
    pod.orch
        .allocate_specific(&mut pod.fabric, host, kind, to)?;
    // Let the Assign land.
    let mut waited = Nanos::ZERO;
    while pod.binding(host, kind) != Some(to) {
        pod.run_control(Nanos::from_micros(5));
        waited += Nanos::from_micros(5);
        if waited > Nanos::from_millis(10) {
            return Err(PoolError::Timeout { op: 0 });
        }
    }
    Ok(())
}

/// Live-migrates every `kind` binding of `state`'s hosts to device
/// `to`: drain, checkpoint (the quiesce point), re-home the state
/// segment through the free/realloc path, rebind each host, resume.
/// Returns `Ok(None)` when every host already uses `to` (no blackout
/// is charged). The window is recorded pod-wide — stats histogram
/// (sampled by the `lifecycle/blackout_ns` metric), `lifecycle/migrate`
/// trace span.
pub fn migrate_tenant(
    pod: &mut PodSim,
    state: &mut TenantState,
    kind: DeviceKind,
    to: DeviceId,
) -> Result<Option<TenantMigrationReport>, PoolError> {
    let moved: Vec<(HostId, DeviceId)> = state
        .hosts
        .iter()
        .filter_map(|&h| match pod.binding(h, kind) {
            Some(d) if d != to => Some((h, d)),
            _ => None,
        })
        .collect();
    if moved.is_empty() {
        return Ok(None);
    }
    pod.lifecycle.in_flight += 1;
    let r = migrate_inner(pod, state, kind, to, &moved);
    pod.lifecycle.in_flight -= 1;
    r.map(Some)
}

fn migrate_inner(
    pod: &mut PodSim,
    state: &mut TenantState,
    kind: DeviceKind,
    to: DeviceId,
    moved: &[(HostId, DeviceId)],
) -> Result<TenantMigrationReport, PoolError> {
    let op = pod.take_op_id();
    // Quiesce: the datapath calls are synchronous, so draining the
    // control plane leaves no forwarded completion in flight; the
    // checkpoint's pod-wide visibility time is the quiesce point.
    pod.run_control(QUIESCE_DRAIN);
    let quiesced_at = state.checkpoint(pod)?;
    // Ownership flip: the state segment is re-homed through
    // free_segment/realloc so the auditor's shadow state follows the
    // allocator — the old lines are cleared, never aliased.
    let rehomed_at = state.rehome(pod, quiesced_at)?;
    for &(h, _) in moved {
        rebind(pod, h, kind, to, quiesced_at)?;
    }
    let mut resumed_at = rehomed_at;
    for &(h, _) in moved {
        resumed_at = resumed_at.max(pod.agents[h.0 as usize].clock());
    }
    pod.record_migration_window(op, quiesced_at, resumed_at);
    pod.lifecycle.tenant_migrations += 1;
    Ok(TenantMigrationReport {
        tenant: state.tenant,
        kind,
        to,
        moved: moved.to_vec(),
        quiesced_at,
        resumed_at,
        blackout: resumed_at.saturating_sub(quiesced_at),
    })
}

impl TenantState {
    /// Pool address of the tenant's state block (pod-visible).
    pub fn state_addr(&self) -> u64 {
        self.base
    }

    /// Backing segment of the state block.
    pub fn state_seg(&self) -> SegmentId {
        self.seg
    }

    /// Writes the tenant's state block (tag, tenant id, epoch) to pool
    /// memory with non-temporal stores, so any host could take over.
    /// Returns the pod-wide visibility time.
    pub fn checkpoint(&mut self, pod: &mut PodSim) -> Result<Nanos, PoolError> {
        self.epoch += 1;
        let mut block = [0u8; 64];
        block[0..4].copy_from_slice(b"TNNT");
        block[4..6].copy_from_slice(&self.tenant.to_le_bytes());
        block[8..12].copy_from_slice(&self.epoch.to_le_bytes());
        let h = self.hosts[0];
        let now = pod.agents[h.0 as usize].clock();
        let t = pod.fabric.nt_store(now, h, self.base, &block)?;
        pod.agents[h.0 as usize].advance_clock(t);
        Ok(t)
    }

    /// Re-homes the state segment: fresh allocation, coherent copy,
    /// free of the old segment (which clears its audit shadow state).
    fn rehome(&mut self, pod: &mut PodSim, now: Nanos) -> Result<Nanos, PoolError> {
        let fresh = pod.fabric.alloc_shared(&self.hosts, self.len)?;
        let (new_seg, new_base) = (fresh.id(), fresh.base());
        let h = self.hosts[0];
        let mut t = now;
        let mut off = 0u64;
        let mut buf = vec![0u8; COPY_CHUNK];
        while off < self.len {
            let n = ((self.len - off) as usize).min(COPY_CHUNK);
            // simlint: allow(unwrap-in-datapath) -- n is min-clamped to COPY_CHUNK == buf.len()
            t = pod.fabric.load(t, h, self.base + off, &mut buf[..n])?;
            // simlint: allow(unwrap-in-datapath) -- n is min-clamped to COPY_CHUNK == buf.len()
            t = pod.fabric.nt_store(t, h, new_base + off, &buf[..n])?;
            off += n as u64;
        }
        pod.agents[h.0 as usize].advance_clock(t);
        let _ = pod.fabric.free_segment(self.seg);
        self.seg = new_seg;
        self.base = new_base;
        Ok(t)
    }

    /// Departure: returns every tenant-owned segment to the pool. Both
    /// the state block and each replica copy go through
    /// `Fabric::free_segment`, so the auditor forgets their per-line
    /// history across all domains before any address reuse.
    pub fn release(self, pod: &mut PodSim) {
        let _ = pod.fabric.free_segment(self.seg);
        if let Some(rs) = self.replicas {
            rs.free(&mut pod.fabric);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::PodParams;
    use crate::telemetry;

    fn pod() -> PodSim {
        let mut params = PodParams::new(4, 2);
        params.ssd_hosts = vec![0, 1];
        params.accel_hosts = vec![0, 1];
        PodSim::new(params)
    }

    fn other_dev(pod: &PodSim, host: HostId, kind: DeviceKind) -> DeviceId {
        let from = pod.binding(host, kind).expect("bound");
        pod.orch
            .devices_of(kind)
            .into_iter()
            .find(|&d| d != from)
            .expect("second device")
    }

    #[test]
    fn migrate_tenant_rebinds_all_hosts_and_records_blackout() {
        let mut pod = pod();
        let hosts = [HostId(2), HostId(3)];
        let mut st = provision(&mut pod, 7, &hosts, 4096, 0).expect("provision");
        let to = other_dev(&pod, HostId(2), DeviceKind::Nic);
        let rep = migrate_tenant(&mut pod, &mut st, DeviceKind::Nic, to)
            .expect("migrate")
            .expect("some host moved");
        assert_eq!(rep.tenant, 7);
        assert!(!rep.moved.is_empty());
        for &h in &hosts {
            assert_eq!(pod.binding(h, DeviceKind::Nic), Some(to));
        }
        assert!(
            rep.blackout < Nanos::from_millis(1),
            "blackout {}",
            rep.blackout
        );
        assert_eq!(pod.lifecycle.tenant_migrations, 1);
        assert_eq!(pod.lifecycle.in_flight, 0);
        let s = pod.lifecycle.blackout_summary().expect("recorded");
        assert_eq!(s.count, 1);
        // A second call is a no-op: everyone already uses `to`.
        assert!(migrate_tenant(&mut pod, &mut st, DeviceKind::Nic, to)
            .expect("ok")
            .is_none());
        assert_eq!(pod.lifecycle.tenant_migrations, 1);
        st.release(&mut pod);
    }

    #[test]
    fn migrate_tenant_covers_ssd_and_accel_kinds() {
        let mut pod = pod();
        let mut st = provision(&mut pod, 1, &[HostId(3)], 256, 0).expect("provision");
        for kind in [DeviceKind::Ssd, DeviceKind::Accel] {
            let to = other_dev(&pod, HostId(3), kind);
            let rep = migrate_tenant(&mut pod, &mut st, kind, to)
                .expect("migrate")
                .expect("moved");
            assert_eq!(pod.binding(HostId(3), kind), Some(to));
            assert_eq!(rep.kind, kind);
        }
        assert_eq!(pod.lifecycle.tenant_migrations, 2);
        st.release(&mut pod);
    }

    #[test]
    fn migration_rehomes_state_segment_and_departure_reclaims_capacity() {
        let mut pod = pod();
        let free0 = pod.fabric.free_capacity();
        let mut st = provision(&mut pod, 3, &[HostId(2)], 4096, 2).expect("provision");
        assert!(st.replicas.is_some());
        assert!(pod.fabric.free_capacity() < free0);
        let seg_before = st.state_seg();
        let to = other_dev(&pod, HostId(2), DeviceKind::Nic);
        migrate_tenant(&mut pod, &mut st, DeviceKind::Nic, to)
            .expect("migrate")
            .expect("moved");
        assert_ne!(st.state_seg(), seg_before, "state segment was re-homed");
        st.release(&mut pod);
        assert_eq!(
            pod.fabric.free_capacity(),
            free0,
            "departure returns every tenant segment"
        );
    }

    #[test]
    fn state_block_is_visible_pod_wide_after_migration() {
        let mut pod = pod();
        let mut st = provision(&mut pod, 42, &[HostId(0), HostId(2)], 1024, 0).expect("provision");
        let to = other_dev(&pod, HostId(0), DeviceKind::Nic);
        let rep = migrate_tenant(&mut pod, &mut st, DeviceKind::Nic, to)
            .expect("migrate")
            .expect("moved");
        // Another owner reads the migrated state block coherently from
        // the re-homed segment.
        let (block, _) = pod
            .read_rx_payload(HostId(2), st.state_addr(), 16, rep.resumed_at)
            .expect("read");
        assert_eq!(&block[0..4], b"TNNT");
        assert_eq!(u16::from_le_bytes(block[4..6].try_into().unwrap()), 42);
        st.release(&mut pod);
    }

    #[test]
    fn blackout_lands_in_pod_report() {
        let mut pod = pod();
        let mut st = provision(&mut pod, 9, &[HostId(3)], 256, 0).expect("provision");
        let to = other_dev(&pod, HostId(3), DeviceKind::Nic);
        migrate_tenant(&mut pod, &mut st, DeviceKind::Nic, to)
            .expect("migrate")
            .expect("moved");
        st.release(&mut pod);
        let r = telemetry::snapshot(&pod);
        assert_eq!(r.tenant_migrations, 1);
        let b = r.blackout.expect("blackout summary present");
        assert_eq!(b.count, 1);
        assert!(r.to_string().contains("lifecycle:"));
    }
}
