//! Routed topology over the flat host world.
//!
//! The paper's prototype ran phone and node on one clean subnet; real
//! mobile traffic crosses subnets, routers, firewalls, NATs, and flaky
//! DNS, and phones change networks mid-session. This module grows the
//! simulated internet into that shape while keeping it deterministic:
//!
//! * **Subnets** — every host is assigned to a [`SubnetId`] (subnet 0 is
//!   the legacy flat network every host starts in). Rendered addresses
//!   derive from the assignment: `10.<subnet>.<hi>.<lo>`.
//! * **Routers** — a [`Router`] attaches to a set of subnets, can be
//!   down (administratively or inside an outage window), and holds
//!   firewall rules (denied destination ports). Cross-subnet segments
//!   take the deterministic shortest router path or fail closed.
//! * **NAT** — a `NatGateway` on a subnet rewrites the source address
//!   of outbound segments through a connection-tracking table. Bindings
//!   are allocated at connect; flushing the table makes every further
//!   translation fail closed unless the host is marked for transparent
//!   rebinding (what a mobility handoff does).
//! * **DNS** — TTL'd positive caching over the world's name table plus
//!   injectable outage windows: a cached live record resolves through an
//!   outage, anything else fails with `DnsOutage`.
//!
//! The `Topology` itself is pure bookkeeping: it computes verdicts and
//! the [`crate::world::NetWorld`] applies the effects (clock charges,
//! stats, trace events), which keeps every path deterministic and
//! byte-identical across reruns.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use tinman_sim::{LinkProfile, SimDuration, SimTime};

use crate::addr::{Addr, HostId};

/// Identity of one subnet (the `10.<subnet>.0.0/16` analogue). Subnet 0
/// is the legacy flat network every host starts in.
pub type SubnetId = u8;

/// Identity of a router added with `NetWorld::add_router`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterId(pub usize);

/// One router: forwards between its attached subnets while up, drops
/// segments to denied destination ports (its firewall table).
#[derive(Clone, Debug)]
pub struct Router {
    /// Human-readable name (diagnostics).
    pub name: String,
    /// Administratively up. A down router forwards nothing.
    pub up: bool,
    /// Subnets this router connects.
    pub attached: Vec<SubnetId>,
    /// Destination ports this router's firewall refuses to forward.
    pub deny_ports: Vec<u16>,
    /// Chaos outage windows `[from, until)` during which the router is
    /// down regardless of `up`.
    pub(crate) outages: Vec<(SimTime, SimTime)>,
}

impl Router {
    fn forwards_at(&self, now: SimTime) -> bool {
        self.up && !self.outages.iter().any(|&(from, until)| now >= from && now < until)
    }
}

/// Tunables for the routed layer.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Forwarding latency charged per router hop, per segment.
    pub hop_latency: SimDuration,
    /// Positive-cache lifetime of a resolved DNS record.
    pub dns_ttl: SimDuration,
    /// Resolver round trip charged on a DNS cache miss.
    pub dns_cost: SimDuration,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            hop_latency: SimDuration::from_micros(200),
            dns_ttl: SimDuration::from_secs(60),
            dns_cost: SimDuration::from_millis(8),
        }
    }
}

/// Counters of routed-layer activity (all zero when no topology is
/// installed). These feed the `net.topology.*` / `net.handoff.*` metrics
/// and the fleet's availability columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopologyStats {
    /// Mid-session link handoffs applied.
    pub handoffs: u64,
    /// NAT conntrack bindings allocated at connect time.
    pub nat_bindings: u64,
    /// Segments whose source address was rewritten through the NAT.
    pub nat_rewrites: u64,
    /// Transparent re-allocations after a handoff flushed the binding.
    pub nat_rebinds: u64,
    /// Segments dropped fail-closed because their binding was flushed.
    pub nat_drops: u64,
    /// Conntrack table flushes applied (scheduled or chaos-injected).
    pub nat_flushes: u64,
    /// DNS resolutions that went to the resolver (cache misses).
    pub dns_lookups: u64,
    /// DNS resolutions served from the TTL cache.
    pub dns_cache_hits: u64,
    /// DNS resolutions refused by an outage window.
    pub dns_failures: u64,
    /// Router hops traversed by routed segments.
    pub router_hops: u64,
    /// Segments dropped because no up-router path existed.
    pub route_drops: u64,
    /// Segments dropped by a router firewall rule.
    pub firewall_drops: u64,
}

/// One scheduled mobility handoff for a host: at `at` the radio switches
/// to `link`, the air goes dark for `blackout`, and (optionally) the host
/// moves subnets and its NAT bindings are flushed-with-rebind.
#[derive(Clone, Debug)]
pub struct Handoff {
    /// When the switch happens.
    pub at: SimTime,
    /// The link profile after the switch (e.g. Wi-Fi -> 3G).
    pub link: LinkProfile,
    /// Radio blackout: transfers in flight stall until `at + blackout`.
    pub blackout: SimDuration,
    /// Flush the host's NAT bindings and allow transparent re-allocation
    /// on the next translated segment (the address-change half of a
    /// handoff). Without this the old bindings survive unchanged.
    pub rebind_nat: bool,
    /// Move the host to this subnet (None = stay).
    pub to_subnet: Option<SubnetId>,
}

/// Why a route computation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RouteFailure {
    /// No path of up routers connects the two subnets.
    NoRoute,
    /// A firewall rule on every candidate path denies the port.
    Firewall,
}

/// Verdict of a NAT translation attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NatVerdict {
    /// No gateway applies; the segment passes untouched.
    Untouched,
    /// Rewrite the source to this public address.
    Rewritten(Addr),
    /// Same, via a fresh post-handoff binding.
    Rebound(Addr),
    /// The binding was flushed and the host may not rebind: fail closed.
    Expired,
}

/// Outcome of a DNS resolution attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DnsOutcome {
    /// Served from the TTL cache (no resolver traffic).
    Cached(HostId),
    /// Freshly resolved; charge the resolver round trip.
    Resolved(HostId),
    /// Inside an outage window with no live cached record.
    Outage,
    /// The name has no record at all.
    Unknown,
}

struct NatGateway {
    subnet: SubnetId,
    public_host: HostId,
    next_port: u16,
    /// private source endpoint -> allocated public port.
    conntrack: HashMap<Addr, u16>,
    /// Hosts allowed to transparently re-allocate after a flush.
    rebind: HashSet<HostId>,
}

/// The routed layer's bookkeeping. Pure: every method computes a verdict
/// and leaves clock charges, stats, and tracing to the world.
pub(crate) struct Topology {
    pub(crate) cfg: TopologyConfig,
    subnet_of: HashMap<HostId, SubnetId>,
    routers: Vec<Router>,
    nats: Vec<NatGateway>,
    dns_cache: HashMap<String, (HostId, SimTime)>,
    dns_outages: Vec<(SimTime, SimTime)>,
}

impl Topology {
    pub(crate) fn new(cfg: TopologyConfig) -> Self {
        Topology {
            cfg,
            subnet_of: HashMap::new(),
            routers: Vec::new(),
            nats: Vec::new(),
            dns_cache: HashMap::new(),
            dns_outages: Vec::new(),
        }
    }

    /// The subnet a host lives in (0 by default).
    pub(crate) fn subnet(&self, host: HostId) -> SubnetId {
        self.subnet_of.get(&host).copied().unwrap_or(0)
    }

    pub(crate) fn assign(&mut self, host: HostId, subnet: SubnetId) {
        self.subnet_of.insert(host, subnet);
    }

    pub(crate) fn add_router(
        &mut self,
        name: &str,
        attached: &[SubnetId],
        deny_ports: &[u16],
    ) -> RouterId {
        self.routers.push(Router {
            name: name.to_owned(),
            up: true,
            attached: attached.to_vec(),
            deny_ports: deny_ports.to_vec(),
            outages: Vec::new(),
        });
        RouterId(self.routers.len() - 1)
    }

    pub(crate) fn router_mut(&mut self, id: RouterId) -> Option<&mut Router> {
        self.routers.get_mut(id.0)
    }

    pub(crate) fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Deterministic shortest router path between two subnets. Returns
    /// the hop count, or why no segment to `dst_port` can cross.
    pub(crate) fn route(
        &self,
        from: SubnetId,
        to: SubnetId,
        now: SimTime,
        dst_port: Option<u16>,
    ) -> Result<u64, RouteFailure> {
        if from == to {
            return Ok(0);
        }
        if self.routers.is_empty() {
            // No routers installed: the world is still flat.
            return Ok(0);
        }
        let usable =
            |r: &Router| r.forwards_at(now) && dst_port.is_none_or(|p| !r.deny_ports.contains(&p));
        match self.bfs_hops(from, to, &usable) {
            Some(hops) => Ok(hops),
            None => {
                // Distinguish "down" from "firewalled": if ignoring the
                // firewall finds a path, the firewall is what refused it.
                let up_only = |r: &Router| r.forwards_at(now);
                if self.bfs_hops(from, to, &up_only).is_some() {
                    Err(RouteFailure::Firewall)
                } else {
                    Err(RouteFailure::NoRoute)
                }
            }
        }
    }

    /// BFS over the subnet/router bipartite graph; routers are visited in
    /// index order and subnets in attachment order, so the chosen path is
    /// deterministic. Returns the number of routers traversed.
    fn bfs_hops(
        &self,
        from: SubnetId,
        to: SubnetId,
        usable: &dyn Fn(&Router) -> bool,
    ) -> Option<u64> {
        let mut dist: HashMap<SubnetId, u64> = HashMap::new();
        dist.insert(from, 0);
        let mut frontier = vec![from];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &s in &frontier {
                let d = dist[&s];
                for r in self.routers.iter().filter(|r| usable(r)) {
                    if !r.attached.contains(&s) {
                        continue;
                    }
                    for &n in &r.attached {
                        if n == to {
                            return Some(d + 1);
                        }
                        if let Entry::Vacant(e) = dist.entry(n) {
                            e.insert(d + 1);
                            next.push(n);
                        }
                    }
                }
            }
            frontier = next;
        }
        None
    }

    /// Installs a NAT gateway on `subnet` whose rewritten segments carry
    /// `public_host` as their source.
    pub(crate) fn install_nat(&mut self, subnet: SubnetId, public_host: HostId) {
        self.nats.push(NatGateway {
            subnet,
            public_host,
            next_port: 30000,
            conntrack: HashMap::new(),
            rebind: HashSet::new(),
        });
    }

    /// True if `subnet` has a NAT gateway.
    pub(crate) fn has_nat(&self, subnet: SubnetId) -> bool {
        self.nats.iter().any(|g| g.subnet == subnet)
    }

    /// Allocates (or refreshes) a conntrack binding for `src` talking to
    /// a host in `dst_subnet`. Returns the public address when a gateway
    /// applies (a fresh allocation bumps `nat_bindings` at the caller).
    pub(crate) fn nat_bind(&mut self, src: Addr, dst_subnet: SubnetId) -> Option<(Addr, bool)> {
        let s = self.subnet(src.host);
        if s == dst_subnet {
            return None;
        }
        let gw = self.nats.iter_mut().find(|g| g.subnet == s)?;
        let fresh = !gw.conntrack.contains_key(&src);
        let port = *gw.conntrack.entry(src).or_insert_with(|| {
            let p = gw.next_port;
            gw.next_port = gw.next_port.wrapping_add(1).max(30000);
            p
        });
        Some((Addr::new(gw.public_host, port), fresh))
    }

    /// Side-effect-free preview of [`Topology::nat_translate`]: what
    /// would happen to a segment from `src`, without allocating a rebind
    /// port. Lets `send` fail atomically before TCP consumes sequence
    /// numbers.
    pub(crate) fn nat_peek(&self, src: Addr, dst_subnet: SubnetId) -> NatVerdict {
        let s = self.subnet(src.host);
        if s == dst_subnet {
            return NatVerdict::Untouched;
        }
        let Some(gw) = self.nats.iter().find(|g| g.subnet == s) else {
            return NatVerdict::Untouched;
        };
        if let Some(&port) = gw.conntrack.get(&src) {
            return NatVerdict::Rewritten(Addr::new(gw.public_host, port));
        }
        if gw.rebind.contains(&src.host) {
            return NatVerdict::Rebound(Addr::new(gw.public_host, gw.next_port));
        }
        NatVerdict::Expired
    }

    /// Translates one outbound segment source through the conntrack
    /// table. Pure verdict; the caller applies the rewrite and counts.
    pub(crate) fn nat_translate(&mut self, src: Addr, dst_subnet: SubnetId) -> NatVerdict {
        let s = self.subnet(src.host);
        if s == dst_subnet {
            return NatVerdict::Untouched;
        }
        let Some(gw) = self.nats.iter_mut().find(|g| g.subnet == s) else {
            return NatVerdict::Untouched;
        };
        if let Some(&port) = gw.conntrack.get(&src) {
            return NatVerdict::Rewritten(Addr::new(gw.public_host, port));
        }
        if gw.rebind.contains(&src.host) {
            let p = gw.next_port;
            gw.next_port = gw.next_port.wrapping_add(1).max(30000);
            gw.conntrack.insert(src, p);
            return NatVerdict::Rebound(Addr::new(gw.public_host, p));
        }
        NatVerdict::Expired
    }

    /// Flushes every gateway's conntrack table (the `NatTableFlush`
    /// chaos family). Established translations fail closed afterwards.
    pub(crate) fn flush_nat(&mut self) {
        for gw in &mut self.nats {
            gw.conntrack.clear();
        }
    }

    /// Drops `host`'s bindings everywhere and marks it for transparent
    /// rebinding — the NAT half of a mobility handoff.
    pub(crate) fn rebind_host(&mut self, host: HostId) {
        for gw in &mut self.nats {
            gw.conntrack.retain(|a, _| a.host != host);
            gw.rebind.insert(host);
        }
    }

    pub(crate) fn set_dns_outages(&mut self, windows: Vec<(SimTime, SimTime)>) {
        self.dns_outages = windows;
    }

    fn dns_down(&self, now: SimTime) -> bool {
        self.dns_outages.iter().any(|&(from, until)| now >= from && now < until)
    }

    /// Resolves `domain` through the TTL cache and outage windows.
    /// `record` is the authoritative name-table entry (the world's map).
    pub(crate) fn dns_resolve(
        &mut self,
        domain: &str,
        now: SimTime,
        record: Option<HostId>,
    ) -> DnsOutcome {
        if let Some(&(host, expires)) = self.dns_cache.get(domain) {
            if now < expires {
                return DnsOutcome::Cached(host);
            }
        }
        if self.dns_down(now) {
            return DnsOutcome::Outage;
        }
        match record {
            Some(host) => {
                self.dns_cache.insert(domain.to_owned(), (host, now + self.cfg.dns_ttl));
                DnsOutcome::Resolved(host)
            }
            None => DnsOutcome::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(TopologyConfig::default())
    }

    #[test]
    fn same_subnet_is_zero_hops() {
        let t = topo();
        assert_eq!(t.route(0, 0, SimTime::ZERO, None), Ok(0));
    }

    #[test]
    fn routerless_world_stays_flat() {
        let t = topo();
        // No routers installed: cross-subnet still routes (legacy worlds).
        assert_eq!(t.route(1, 2, SimTime::ZERO, None), Ok(0));
    }

    #[test]
    fn bfs_finds_shortest_router_path() {
        let mut t = topo();
        t.add_router("a", &[1, 0], &[]);
        t.add_router("b", &[0, 2], &[]);
        t.add_router("direct", &[1, 2], &[]);
        assert_eq!(t.route(1, 2, SimTime::ZERO, None), Ok(1), "direct beats two hops");
        assert_eq!(t.route(1, 0, SimTime::ZERO, None), Ok(1));
    }

    #[test]
    fn down_router_fails_closed_and_outage_windows_recover() {
        let mut t = topo();
        let r = t.add_router("a", &[1, 0], &[]);
        let from = SimTime::ZERO + SimDuration::from_secs(1);
        let until = SimTime::ZERO + SimDuration::from_secs(2);
        t.router_mut(r).unwrap().outages = vec![(from, until)];
        assert_eq!(t.route(1, 0, SimTime::ZERO, None), Ok(1), "before the window");
        assert_eq!(t.route(1, 0, from, None), Err(RouteFailure::NoRoute), "inside");
        assert_eq!(t.route(1, 0, until, None), Ok(1), "after it ends");
    }

    #[test]
    fn firewall_denies_port_distinctly_from_no_route() {
        let mut t = topo();
        t.add_router("fw", &[1, 0], &[443]);
        assert_eq!(t.route(1, 0, SimTime::ZERO, Some(80)), Ok(1));
        assert_eq!(t.route(1, 0, SimTime::ZERO, Some(443)), Err(RouteFailure::Firewall));
        assert_eq!(t.route(1, 0, SimTime::ZERO, None), Ok(1));
    }

    #[test]
    fn nat_binding_allocates_deterministic_ports() {
        let mut t = topo();
        t.assign(HostId(1), 1);
        t.install_nat(1, HostId(9));
        let a = Addr::new(HostId(1), 40000);
        let (pub_a, fresh) = t.nat_bind(a, 0).unwrap();
        assert!(fresh);
        assert_eq!(pub_a, Addr::new(HostId(9), 30000));
        // Re-binding the same endpoint reuses the entry.
        let (again, fresh2) = t.nat_bind(a, 0).unwrap();
        assert_eq!(again, pub_a);
        assert!(!fresh2);
        // A second endpoint gets the next port.
        let b = Addr::new(HostId(1), 40001);
        assert_eq!(t.nat_bind(b, 0).unwrap().0.port, 30001);
    }

    #[test]
    fn flush_fails_closed_but_handoff_rebinds() {
        let mut t = topo();
        t.assign(HostId(1), 1);
        t.install_nat(1, HostId(9));
        let a = Addr::new(HostId(1), 40000);
        t.nat_bind(a, 0).unwrap();
        assert!(matches!(t.nat_translate(a, 0), NatVerdict::Rewritten(_)));
        t.flush_nat();
        assert_eq!(t.nat_translate(a, 0), NatVerdict::Expired, "flush fails closed");
        t.rebind_host(HostId(1));
        let v = t.nat_translate(a, 0);
        assert!(matches!(v, NatVerdict::Rebound(p) if p.port == 30001), "fresh public port");
        assert!(matches!(t.nat_translate(a, 0), NatVerdict::Rewritten(_)), "then stable");
    }

    #[test]
    fn intra_subnet_traffic_is_not_natted() {
        let mut t = topo();
        t.assign(HostId(1), 1);
        t.install_nat(1, HostId(9));
        assert_eq!(t.nat_translate(Addr::new(HostId(1), 40000), 1), NatVerdict::Untouched);
    }

    #[test]
    fn dns_ttl_cache_and_outage_windows() {
        let mut t = topo();
        let now = SimTime::ZERO;
        let h = HostId(5);
        assert_eq!(t.dns_resolve("x.com", now, Some(h)), DnsOutcome::Resolved(h));
        assert_eq!(t.dns_resolve("x.com", now, Some(h)), DnsOutcome::Cached(h));
        // Past the TTL the record must be re-resolved.
        let later = now + t.cfg.dns_ttl + SimDuration::from_secs(1);
        assert_eq!(t.dns_resolve("x.com", later, Some(h)), DnsOutcome::Resolved(h));
        // During an outage a live cached entry still serves; a cold name
        // fails closed.
        let from = later;
        let until = later + SimDuration::from_secs(30);
        t.set_dns_outages(vec![(from, until)]);
        assert_eq!(
            t.dns_resolve("x.com", later + SimDuration::from_secs(1), Some(h)),
            DnsOutcome::Cached(h)
        );
        assert_eq!(
            t.dns_resolve("y.com", later + SimDuration::from_secs(1), Some(h)),
            DnsOutcome::Outage
        );
        assert_eq!(t.dns_resolve("y.com", until, None), DnsOutcome::Unknown, "after the window");
    }
}
