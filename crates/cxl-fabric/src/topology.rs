//! Pod topology: hosts, multi-headed devices (MHDs), and the CXL links
//! between them.
//!
//! The paper's pods are *switchless*: each host has one or more
//! dedicated CXL links to each of λ distinct MHDs ("dense topologies"
//! with λ redundant paths, per the Octopus design it cites). This module
//! models that graph, validates it, and answers path queries in the
//! presence of injected link and MHD failures.

use serde::Serialize;

/// Identifies a host (CPU socket domain) in the pod.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct HostId(pub u16);

/// Identifies a multi-headed CXL memory device in the pod.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct MhdId(pub u16);

/// Identifies a single host↔MHD CXL link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct LinkId(pub u32);

/// Identifies a failure domain: the unit that dies together when an
/// MHD chassis (controller, firmware image, power feed) fails.
///
/// In the paper's single-MHD pod there is exactly one domain. Scaled
/// pods group MHDs into domains so placement can stripe or replicate a
/// segment across domains and survive losing a whole one — the Octopus
/// multi-MHD direction. A single-MHD pod built with
/// [`Topology::dense`] assigns each MHD its own domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct DomainId(pub u16);

/// One CXL link between a host port and an MHD port.
#[derive(Clone, Debug, Serialize)]
pub struct Link {
    /// This link's id (index into the topology's link table).
    pub id: LinkId,
    /// Host endpoint.
    pub host: HostId,
    /// Device endpoint.
    pub mhd: MhdId,
    /// Whether the link is currently up.
    pub up: bool,
}

/// The static pod graph plus dynamic up/down state.
#[derive(Clone, Debug, Serialize)]
pub struct Topology {
    hosts: u16,
    mhds: u16,
    links: Vec<Link>,
    mhd_up: Vec<bool>,
    /// links_by_host[h] lists link indices attached to host h.
    links_by_host: Vec<Vec<u32>>,
    /// domain_of[m] is the failure domain of MHD m.
    domain_of: Vec<u16>,
    /// Number of distinct failure domains.
    domains: u16,
}

impl Topology {
    /// Builds a λ-redundant dense topology: each of `hosts` hosts gets
    /// one link to each of `lambda` distinct MHDs, chosen round-robin
    /// over `mhds` devices so load spreads evenly.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `lambda > mhds` (λ distinct
    /// devices are required for λ *independent* paths).
    pub fn dense(hosts: u16, mhds: u16, lambda: u16) -> Topology {
        assert!(
            hosts > 0 && mhds > 0 && lambda > 0,
            "counts must be nonzero"
        );
        assert!(
            lambda <= mhds,
            "lambda ({lambda}) redundant paths need lambda distinct MHDs ({mhds} available)"
        );
        let mut links = Vec::new();
        let mut links_by_host = vec![Vec::new(); hosts as usize];
        for h in 0..hosts {
            for k in 0..lambda {
                // Consecutive round-robin: host h reaches MHDs h..h+λ
                // (mod mhds), so neighbouring hosts overlap and shared
                // segments between them have a common device.
                let mhd = (h + k) % mhds;
                let id = LinkId(links.len() as u32);
                links_by_host[h as usize].push(id.0);
                links.push(Link {
                    id,
                    host: HostId(h),
                    mhd: MhdId(mhd),
                    up: true,
                });
            }
        }
        Topology {
            hosts,
            mhds,
            links,
            mhd_up: vec![true; mhds as usize],
            links_by_host,
            // Each MHD is its own failure domain in the classic dense
            // pod: one chassis, one blast radius.
            domain_of: (0..mhds).collect(),
            domains: mhds,
        }
    }

    /// Builds a multi-domain pod: `domains * mhds_per_domain` MHDs
    /// wired densely (as in [`Topology::dense`]) and grouped into
    /// `domains` failure domains.
    ///
    /// Domains are assigned round-robin (`MHD m → domain m % domains`)
    /// rather than in contiguous blocks, so a host's λ *consecutive*
    /// dense links land in λ distinct domains whenever
    /// `lambda <= domains` — every host keeps pool access after a
    /// whole-domain outage, mirroring how λ-redundancy protects
    /// against single-MHD loss.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `lambda` exceeds the MHD count.
    pub fn multi_domain(hosts: u16, domains: u16, mhds_per_domain: u16, lambda: u16) -> Topology {
        assert!(domains > 0 && mhds_per_domain > 0, "counts must be nonzero");
        let mhds = domains
            .checked_mul(mhds_per_domain)
            .expect("mhd count overflows u16");
        let mut t = Topology::dense(hosts, mhds, lambda);
        t.domain_of = (0..mhds).map(|m| m % domains).collect();
        t.domains = domains;
        t
    }

    /// The failure domain of `mhd`.
    pub fn domain_of(&self, mhd: MhdId) -> DomainId {
        DomainId(self.domain_of[mhd.0 as usize])
    }

    /// Number of failure domains in the pod.
    pub fn domains(&self) -> u16 {
        self.domains
    }

    /// The MHDs in failure domain `d`, in id order.
    pub fn mhds_in_domain(&self, d: DomainId) -> Vec<MhdId> {
        (0..self.mhds)
            .filter(|&m| self.domain_of[m as usize] == d.0)
            .map(MhdId)
            .collect()
    }

    /// True if at least one MHD in domain `d` is up.
    pub fn domain_is_up(&self, d: DomainId) -> bool {
        (0..self.mhds).any(|m| self.domain_of[m as usize] == d.0 && self.mhd_up[m as usize])
    }

    /// Fails every MHD in domain `d` (chassis power loss, shared
    /// firmware fault). Restore with [`Topology::restore_domain`].
    pub fn fail_domain(&mut self, d: DomainId) {
        for m in self.mhds_in_domain(d) {
            self.fail_mhd(m);
        }
    }

    /// Restores every MHD in domain `d`.
    pub fn restore_domain(&mut self, d: DomainId) {
        for m in self.mhds_in_domain(d) {
            self.restore_mhd(m);
        }
    }

    /// The distinct failure domains `host` can currently reach, in id
    /// order.
    pub fn reachable_domains(&self, host: HostId) -> Vec<DomainId> {
        let mut out: Vec<DomainId> = self
            .reachable_mhds(host)
            .into_iter()
            .map(|m| self.domain_of(m))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The host's "home" failure domain: the one behind its first up
    /// link (dense wiring gives every host a primary MHD on its first
    /// port). `None` when every link or every linked MHD is down.
    pub fn home_domain(&self, host: HostId) -> Option<DomainId> {
        self.host_links(host)
            .find(|l| l.up && self.mhd_up[l.mhd.0 as usize])
            .map(|l| self.domain_of(l.mhd))
    }

    /// Number of hosts in the pod.
    pub fn hosts(&self) -> u16 {
        self.hosts
    }

    /// Number of MHDs in the pod.
    pub fn mhds(&self) -> u16 {
        self.mhds
    }

    /// All links (up and down).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Links attached to `host`.
    pub fn host_links(&self, host: HostId) -> impl Iterator<Item = &Link> {
        self.links_by_host
            .get(host.0 as usize)
            .into_iter()
            .flatten()
            .map(|&i| &self.links[i as usize])
    }

    /// The distinct MHDs reachable from `host` over up links (and with
    /// the MHD itself up).
    pub fn reachable_mhds(&self, host: HostId) -> Vec<MhdId> {
        let mut out: Vec<MhdId> = self
            .host_links(host)
            .filter(|l| l.up && self.mhd_up[l.mhd.0 as usize])
            .map(|l| l.mhd)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Up links from `host` to `mhd`, if the MHD itself is alive.
    pub fn paths(&self, host: HostId, mhd: MhdId) -> Vec<LinkId> {
        if !self.mhd_up.get(mhd.0 as usize).copied().unwrap_or(false) {
            return Vec::new();
        }
        self.host_links(host)
            .filter(|l| l.up && l.mhd == mhd)
            .map(|l| l.id)
            .collect()
    }

    /// True if `mhd` is currently up.
    pub fn mhd_is_up(&self, mhd: MhdId) -> bool {
        self.mhd_up.get(mhd.0 as usize).copied().unwrap_or(false)
    }

    /// Marks a link down (cable pull, port failure).
    pub fn fail_link(&mut self, link: LinkId) {
        if let Some(l) = self.links.get_mut(link.0 as usize) {
            l.up = false;
        }
    }

    /// Marks an entire MHD down (controller failure / firmware reboot).
    pub fn fail_mhd(&mut self, mhd: MhdId) {
        if let Some(m) = self.mhd_up.get_mut(mhd.0 as usize) {
            *m = false;
        }
    }

    /// Restores a failed MHD.
    pub fn restore_mhd(&mut self, mhd: MhdId) {
        if let Some(m) = self.mhd_up.get_mut(mhd.0 as usize) {
            *m = true;
        }
    }

    /// The redundancy level λ of `host`: number of distinct currently-up
    /// MHDs it can reach.
    pub fn effective_lambda(&self, host: HostId) -> usize {
        self.reachable_mhds(host).len()
    }

    /// True if every host can reach at least one up MHD.
    pub fn fully_connected(&self) -> bool {
        (0..self.hosts).all(|h| self.effective_lambda(HostId(h)) > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_gives_lambda_links_per_host() {
        let t = Topology::dense(8, 4, 2);
        for h in 0..8 {
            let links: Vec<_> = t.host_links(HostId(h)).collect();
            assert_eq!(links.len(), 2);
            assert_eq!(t.effective_lambda(HostId(h)), 2);
        }
        assert_eq!(t.links().len(), 16);
    }

    #[test]
    fn lambda_paths_hit_distinct_mhds() {
        let t = Topology::dense(16, 8, 4);
        for h in 0..16 {
            let mhds = t.reachable_mhds(HostId(h));
            assert_eq!(mhds.len(), 4, "host {h} should reach 4 distinct MHDs");
        }
    }

    #[test]
    fn link_failure_reduces_paths_not_reachability() {
        let mut t = Topology::dense(4, 2, 2);
        let victim = t.host_links(HostId(0)).next().expect("has links").id;
        let mhd = t.links()[victim.0 as usize].mhd;
        assert_eq!(t.paths(HostId(0), mhd).len(), 1);
        t.fail_link(victim);
        assert!(t.paths(HostId(0), mhd).is_empty());
        // The other MHD is still reachable: λ redundancy at work.
        assert_eq!(t.effective_lambda(HostId(0)), 1);
        assert!(t.fully_connected());
    }

    #[test]
    fn mhd_failure_blocks_all_its_paths() {
        let mut t = Topology::dense(4, 2, 2);
        t.fail_mhd(MhdId(0));
        assert!(!t.mhd_is_up(MhdId(0)));
        for h in 0..4 {
            assert!(t.paths(HostId(h), MhdId(0)).is_empty());
            assert_eq!(t.effective_lambda(HostId(h)), 1);
        }
        t.restore_mhd(MhdId(0));
        assert!(t.fully_connected());
    }

    #[test]
    fn lambda_one_pod_partitions_on_mhd_failure() {
        let mut t = Topology::dense(4, 1, 1);
        assert!(t.fully_connected());
        t.fail_mhd(MhdId(0));
        assert!(!t.fully_connected());
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn lambda_cannot_exceed_mhds() {
        let _ = Topology::dense(4, 2, 3);
    }

    #[test]
    fn dense_puts_each_mhd_in_its_own_domain() {
        let t = Topology::dense(4, 3, 2);
        assert_eq!(t.domains(), 3);
        for m in 0..3 {
            assert_eq!(t.domain_of(MhdId(m)), DomainId(m));
            assert_eq!(t.mhds_in_domain(DomainId(m)), vec![MhdId(m)]);
        }
    }

    #[test]
    fn multi_domain_round_robin_spans_every_host() {
        // 2 domains × 2 MHDs, λ=2: each host's two consecutive MHDs
        // must land in two *different* domains.
        let t = Topology::multi_domain(6, 2, 2, 2);
        assert_eq!(t.mhds(), 4);
        assert_eq!(t.domains(), 2);
        assert_eq!(t.mhds_in_domain(DomainId(0)), vec![MhdId(0), MhdId(2)]);
        assert_eq!(t.mhds_in_domain(DomainId(1)), vec![MhdId(1), MhdId(3)]);
        for h in 0..6 {
            assert_eq!(
                t.reachable_domains(HostId(h)),
                vec![DomainId(0), DomainId(1)],
                "host {h} must reach both domains"
            );
        }
    }

    #[test]
    fn domain_failure_downs_members_but_pod_survives() {
        let mut t = Topology::multi_domain(6, 2, 2, 2);
        t.fail_domain(DomainId(1));
        assert!(!t.domain_is_up(DomainId(1)));
        assert!(!t.mhd_is_up(MhdId(1)));
        assert!(!t.mhd_is_up(MhdId(3)));
        assert!(t.domain_is_up(DomainId(0)));
        // Round-robin domain assignment keeps every host connected.
        assert!(t.fully_connected());
        for h in 0..6 {
            assert_eq!(t.reachable_domains(HostId(h)), vec![DomainId(0)]);
        }
        t.restore_domain(DomainId(1));
        assert!(t.domain_is_up(DomainId(1)));
        for h in 0..6 {
            assert_eq!(t.effective_lambda(HostId(h)), 2);
        }
    }

    #[test]
    fn spread_is_balanced() {
        let t = Topology::dense(8, 4, 2);
        let mut per_mhd = [0u32; 4];
        for l in t.links() {
            per_mhd[l.mhd.0 as usize] += 1;
        }
        for &c in &per_mhd {
            assert_eq!(c, 4, "links should spread evenly: {per_mhd:?}");
        }
    }
}
