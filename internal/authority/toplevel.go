package authority

import (
	"fmt"
	"net/netip"
	"sort"
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
	// Deployment locates the site for scoring.
	Deployment *cdn.Deployment
}

// TopLevel implements the CDN's top-level authoritative name servers
// (Figure 3): it hosts customer CNAME records onto CDN domains and answers
// queries for the delegated content subzone with an NS referral to the
// low-level name-server site nearest the querying LDNS. Different LDNSes
// receive different delegations — that is the global load balancer acting
// at the DNS layer.
type TopLevel struct {
	zone     dnsmsg.Name // e.g. "cdn.example.net"
	subzone  dnsmsg.Name // delegated content zone, e.g. "b.cdn.example.net"
	system   *mapping.System
	delegTTL uint32

	mu        sync.RWMutex
	sites     []NSSite
	customers map[dnsmsg.Name]dnsmsg.Name // alias -> CDN domain
}

// NewTopLevel creates a top-level authority for zone, delegating
// "b.<zone>" to registered low-level sites. It ranks sites with the
// system's scorer, so it refuses a replica (mapping.NewReplica), which has
// none.
func NewTopLevel(zone dnsmsg.Name, system *mapping.System) (*TopLevel, error) {
	if zone.Canonical() == "" {
		return nil, fmt.Errorf("authority: empty zone")
	}
	if system == nil {
		return nil, fmt.Errorf("authority: nil mapping system")
	}
	if system.Scorer() == nil {
		return nil, fmt.Errorf("authority: the top level ranks sites with a scorer, and a replica's mapping system has none")
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

// Subzone returns the delegated content zone.
func (t *TopLevel) Subzone() dnsmsg.Name { return t.subzone }

// AddSite registers a low-level name-server site.
func (t *TopLevel) AddSite(s NSSite) error {
	if !s.Host.IsSubdomainOf(t.zone) {
		return fmt.Errorf("authority: NS host %q outside zone %q", s.Host, t.zone)
	}
	if s.Deployment == nil {
		return fmt.Errorf("authority: NS site %q has no deployment", s.Host)
	}
	t.mu.Lock()
	t.sites = append(t.sites, s)
	t.mu.Unlock()
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
	name := q.Name.Canonical()

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
		site, ok := t.pickSite(remote.Addr().Unmap())
		if !ok {
			resp.RCode = dnsmsg.RCodeServerFailure
			return resp
		}
		// A referral: not authoritative, NS in the authority section,
		// glue A in the additional section.
		resp.Authoritative = false
		resp.Authorities = append(resp.Authorities, dnsmsg.RR{
			Name: t.subzone, Class: dnsmsg.ClassINET, TTL: t.delegTTL,
			Data: &dnsmsg.NS{Host: site.Host},
		})
		resp.Additionals = append(resp.Additionals, dnsmsg.RR{
			Name: site.Host, Class: dnsmsg.ClassINET, TTL: t.delegTTL,
			Data: &dnsmsg.A{Addr: site.Addr},
		})
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

// pickSite chooses the registered low-level site whose deployment scores
// best for the querying LDNS.
func (t *TopLevel) pickSite(ldns netip.Addr) (NSSite, bool) {
	t.mu.RLock()
	sites := append([]NSSite{}, t.sites...)
	t.mu.RUnlock()
	if len(sites) == 0 {
		return NSSite{}, false
	}
	ep := t.system.LDNSEndpoint(ldns)
	scorer := t.system.Scorer()
	sort.Slice(sites, func(i, j int) bool {
		return scorer.Score(sites[i].Deployment, ep) < scorer.Score(sites[j].Deployment, ep)
	})
	for _, s := range sites {
		if s.Deployment.Alive() {
			return s, true
		}
	}
	return NSSite{}, false
}
