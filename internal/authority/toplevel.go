package authority

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"eum/internal/cdn"
	"eum/internal/dnsmsg"
	"eum/internal/mapping"
)

// NSSite is one low-level name-server deployment the top level can
// delegate to. In the paper's architecture, low-level name servers sit
// inside CDN clusters close to LDNSes; the delegation choice implements
// the global load balancer's cluster selection (§2.2).
type NSSite struct {
	// Host is the NS host name, e.g. "n1-ord.ns.cdn.example.net".
	Host dnsmsg.Name
	// Addr is the glue address of the low-level server.
	Addr netip.Addr
	// Deployment is the platform deployment the site sits in: the one the
	// map's rank rows name.
	Deployment *cdn.Deployment
}

// TopLevel implements the CDN's top-level authoritative name servers
// (Figure 3): it hosts customer CNAME records onto CDN domains and answers
// queries for the delegated content subzone with an NS referral to the
// low-level name-server site nearest the querying LDNS. Different LDNSes
// receive different delegations — that is the global load balancer acting
// at the DNS layer. Nearest is read off the installed map: the first live
// site in the resolver's rank row, so a replica serves the top level as a
// standalone does.
type TopLevel struct {
	zone     dnsmsg.Name // e.g. "cdn.example.net"
	subzone  dnsmsg.Name // delegated content zone, e.g. "b.cdn.example.net"
	system   *mapping.System
	delegTTL uint32

	mu sync.RWMutex
	// byDep is the site hosted in each deployment of the map's roster,
	// indexed like a row; nil where there is none.
	byDep     []*site
	customers map[dnsmsg.Name]dnsmsg.Name // alias -> CDN domain
}

// site is a registered NSSite with its referral records, built once.
type site struct {
	deployment *cdn.Deployment
	ns, glue   dnsmsg.RR
}

// NewTopLevel creates a top-level authority for zone, delegating
// "b.<zone>" to registered low-level sites.
func NewTopLevel(zone dnsmsg.Name, system *mapping.System) (*TopLevel, error) {
	if zone.Canonical() == "" {
		return nil, fmt.Errorf("authority: empty zone")
	}
	if system == nil {
		return nil, fmt.Errorf("authority: nil mapping system")
	}
	z := zone.Canonical()
	return &TopLevel{
		zone:      z,
		subzone:   dnsmsg.Name("b." + string(z)),
		system:    system,
		delegTTL:  1800, // delegations are stable; content answers are not
		customers: map[dnsmsg.Name]dnsmsg.Name{},
	}, nil
}

// Zone returns the top-level zone.
func (t *TopLevel) Zone() dnsmsg.Name { return t.zone }

// AddSite registers a low-level name-server site. Its deployment must be
// one of the mapping system's, and host no other site.
func (t *TopLevel) AddSite(s NSSite) error {
	if !s.Host.IsSubdomainOf(t.zone) {
		return fmt.Errorf("authority: NS host %q outside zone %q", s.Host, t.zone)
	}
	if s.Deployment == nil {
		return fmt.Errorf("authority: NS site %q has no deployment", s.Host)
	}
	roster := t.system.Current().Deployments()
	i := slices.Index(roster, s.Deployment)
	if i < 0 {
		return fmt.Errorf("authority: NS site %q is in deployment %q, which the mapping system does not map to", s.Host, s.Deployment.Name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byDep == nil {
		t.byDep = make([]*site, len(roster))
	}
	if prev := t.byDep[i]; prev != nil {
		return fmt.Errorf("authority: NS site %q is in deployment %q, which already hosts %q", s.Host, s.Deployment.Name, prev.glue.Name)
	}
	t.byDep[i] = &site{
		deployment: s.Deployment,
		ns: dnsmsg.RR{Name: t.subzone, Class: dnsmsg.ClassINET, TTL: t.delegTTL,
			Data: &dnsmsg.NS{Host: s.Host}},
		glue: dnsmsg.RR{Name: s.Host, Class: dnsmsg.ClassINET, TTL: t.delegTTL,
			Data: &dnsmsg.A{Addr: s.Addr}},
	}
	return nil
}

// RegisterCustomer CNAMEs a customer domain (any name, typically outside
// the CDN zone — "a content provider hosted on Akamai can CNAME their
// domain to an Akamai domain") onto a content domain under the subzone.
func (t *TopLevel) RegisterCustomer(alias, target dnsmsg.Name) error {
	if !target.Canonical().IsSubdomainOf(t.subzone) {
		return fmt.Errorf("authority: CNAME target %q outside content zone %q", target, t.subzone)
	}
	t.mu.Lock()
	t.customers[alias.Canonical()] = target.Canonical()
	t.mu.Unlock()
	return nil
}

// ServeDNS implements dnsserver.Handler.
func (t *TopLevel) ServeDNS(remote netip.AddrPort, query *dnsmsg.Message) *dnsmsg.Message {
	resp := query.Reply()
	if query.OpCode != dnsmsg.OpCodeQuery || len(query.Questions) != 1 {
		resp.RCode = dnsmsg.RCodeNotImplemented
		return resp
	}
	q := query.Questions[0]
	name := query.Canonical(q.Name)

	// Customer CNAME hosting.
	t.mu.RLock()
	target, isCustomer := t.customers[name]
	t.mu.RUnlock()
	if isCustomer {
		resp.Authoritative = true
		resp.Answers = append(resp.Answers, dnsmsg.RR{
			Name: name, Class: dnsmsg.ClassINET, TTL: 300,
			Data: &dnsmsg.CNAME{Target: target},
		})
		return resp
	}

	if !name.IsSubdomainOf(t.zone) {
		resp.RCode = dnsmsg.RCodeRefused
		return resp
	}

	// Names under the content subzone: refer to the low-level site the
	// global load balancer picks for this LDNS.
	if name.IsSubdomainOf(t.subzone) {
		s := t.pickSite(remote.Addr().Unmap())
		if s == nil {
			resp.RCode = dnsmsg.RCodeServerFailure
			return resp
		}
		// A referral: not authoritative, NS in the authority section,
		// glue A in the additional section.
		resp.Authoritative = false
		resp.Authorities = append(resp.Authorities, s.ns)
		resp.Additionals = append(resp.Additionals, s.glue)
		return resp
	}

	// Apex and other in-zone names: we exist but have nothing to say.
	resp.Authoritative = true
	resp.Authorities = append(resp.Authorities, dnsmsg.RR{
		Name: t.zone, Class: dnsmsg.ClassINET, TTL: 60,
		Data: &dnsmsg.SOA{
			MName: dnsmsg.Name("ns0." + string(t.zone)), RName: "hostmaster." + t.zone,
			Serial: 2014032801, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 30,
		},
	})
	return resp
}

// pickSite returns the site the installed map ranks first for the
// querying LDNS: walking the resolver's row, head then tail, the first
// live deployment that hosts a registered site.
func (t *TopLevel) pickSite(ldns netip.Addr) *site {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.byDep == nil {
		return nil
	}
	row, _ := t.system.Current().ResolverRow(ldns)
	for _, list := range [2][]uint16{row.Head, row.Tail} {
		for _, d := range list {
			if s := t.byDep[d]; s != nil && s.deployment.Alive() {
				return s
			}
		}
	}
	return nil
}
