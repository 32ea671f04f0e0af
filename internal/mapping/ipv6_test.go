package mapping

import (
	"net/netip"
	"slices"
	"testing"

	"eum/internal/cdn"
	"eum/internal/geo"
	"eum/internal/world"
)

var (
	v6World    = world.MustGenerate(world.Config{Seed: 17, NumBlocks: 2500, IPv6Fraction: 0.3})
	v6Platform = cdn.MustGenerateUniverse(v6World, cdn.Config{Seed: 17, NumDeployments: 200})
)

func v6Block(t *testing.T) *world.ClientBlock {
	t.Helper()
	for _, b := range v6World.Blocks {
		if b.Prefix.Addr().Is6() && b.LDNS.IsPublic() && b.ClientLDNSDistance() > 1500 {
			return b
		}
	}
	for _, b := range v6World.Blocks {
		if b.Prefix.Addr().Is6() {
			return b
		}
	}
	t.Fatal("no v6 blocks")
	return nil
}

func TestMapEndUserIPv6(t *testing.T) {
	sys := NewSystem(v6World, v6Platform, testNet, Config{Policy: EndUser, PingTargets: 500})
	b := v6Block(t)
	resp, err := sys.Map(Request{
		Domain:       "v6.cdn.example.net",
		LDNS:         b.LDNS.Addr,
		ClientSubnet: b.Prefix, // a /48
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.UsedClientSubnet {
		t.Error("v6 client subnet not used")
	}
	if resp.ScopePrefix != 48 {
		t.Errorf("v6 scope = %d, want 48", resp.ScopePrefix)
	}
	// Deployment near the client.
	dClient := geo.Distance(resp.Deployment.Loc, b.Loc)
	dLDNS := geo.Distance(resp.Deployment.Loc, b.LDNS.Loc)
	if b.ClientLDNSDistance() > 1500 && dClient > dLDNS {
		t.Errorf("v6 EU mapping chose LDNS-side deployment (%.0f vs %.0f mi)", dLDNS, dClient)
	}
}

func TestMapIPv6ScopeRespectsSource(t *testing.T) {
	sys := NewSystem(v6World, v6Platform, testNet, Config{Policy: EndUser, PingTargets: 200})
	b := v6Block(t)
	// Resolver reveals only /40: scope must not exceed it.
	p40, err := b.Prefix.Addr().Prefix(40)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sys.Map(Request{Domain: "v6.net", LDNS: b.LDNS.Addr, ClientSubnet: p40})
	if err != nil {
		t.Fatal(err)
	}
	if int(resp.ScopePrefix) > 40 {
		t.Errorf("scope /%d exceeds source /40", resp.ScopePrefix)
	}
}

func TestLookupBlockIPv6(t *testing.T) {
	sys := NewSystem(v6World, v6Platform, testNet, Config{PingTargets: 100})
	b := v6Block(t)
	host := b.Prefix.Addr().Next() // an address inside the /48
	sn := sys.Current()
	got, ok := sn.ClientRow(netip.PrefixFrom(host, 128))
	if want := blockRow(sn, b); !ok || !slices.Equal(got.Head, want.Head) || !slices.Equal(got.Tail, want.Tail) {
		t.Errorf("ClientRow(%v) is not the row of block %v (found %v)", host, b.Prefix, ok)
	}
}
