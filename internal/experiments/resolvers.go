package experiments

import (
	"net/netip"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/resolver"
	"eum/internal/world"
)

// newFleet builds the simulated resolver population every resolver-driven
// figure runs through: one caching resolver per LDNS in ls, keyed by LDNS
// ID, all resolving against up. ecs says whether a site forwards ECS. Its
// source prefixes come from the site's provider policy (a truncating
// public provider stamps /20 (/56) on its sites), then pfx4/pfx6 when
// non-zero, with the /24 and /56 conventions as the final default.
func newFleet(ls []*world.LDNS, up resolver.Upstream, ecs func(*world.LDNS) bool, pfx4, pfx6 uint8) (map[uint64]*resolver.Resolver, error) {
	fleet := make(map[uint64]*resolver.Resolver, len(ls))
	for _, l := range ls {
		cfg := resolver.Config{Addr: l.Addr, ECSEnabled: ecs(l), SourcePrefix: 24}
		if l.ECSPrefixV4 > 0 {
			cfg.SourcePrefix = l.ECSPrefixV4
		}
		if l.ECSPrefixV6 > 0 {
			cfg.SourcePrefix6 = l.ECSPrefixV6
		}
		if pfx4 > 0 {
			cfg.SourcePrefix = pfx4
		}
		if pfx6 > 0 {
			cfg.SourcePrefix6 = pfx6
		}
		r, err := resolver.New(cfg, up)
		if err != nil {
			return nil, err
		}
		fleet[l.ID] = r
	}
	return fleet, nil
}

// systemUpstream answers a fleet's cache misses from the real mapping code
// path, pinned to one published map epoch, so answers are a pure function
// of (epoch, request) however the figure's shards interleave.
type systemUpstream struct {
	sys  *mapping.System
	snap *mapping.Snapshot
}

// Resolve implements resolver.Upstream.
func (u *systemUpstream) Resolve(domain string, ldns netip.Addr, clientSubnet netip.Prefix) (resolver.Answer, error) {
	resp, err := u.sys.MapAt(u.snap, mapping.Request{
		Domain:       domain,
		LDNS:         ldns,
		ClientSubnet: clientSubnet,
	})
	if err != nil {
		return resolver.Answer{}, err
	}
	a := resolver.Answer{TTL: resp.TTL, ScopePrefix: resp.ScopePrefix}
	for _, s := range resp.Servers {
		a.Servers = append(a.Servers, s.Addr)
	}
	return a, nil
}

// deploymentsByAddr maps every server address of the platform to its
// deployment, to interpret the fleet's answers.
func deploymentsByAddr(p *cdn.Platform) map[netip.Addr]*cdn.Deployment {
	deps := map[netip.Addr]*cdn.Deployment{}
	for _, d := range p.Deployments {
		for _, s := range d.Servers {
			deps[s.Addr] = d
		}
	}
	return deps
}

// hostInBlock returns a representative client address inside the block.
func hostInBlock(b *world.ClientBlock) netip.Addr {
	if b.Prefix.Addr().Is4() {
		a := b.Prefix.Addr().As4()
		a[3] = 77
		return netip.AddrFrom4(a)
	}
	a := b.Prefix.Addr().As16()
	a[15] = 77
	return netip.AddrFrom16(a)
}
