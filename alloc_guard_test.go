package bench

import (
	"net/netip"
	"testing"

	"eum/internal/authority"
	"eum/internal/cdn"
	"eum/internal/dnsmsg"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/telemetry"
	"eum/internal/world"
)

// serveDNSAllocBudget is what one ECS mapping answer costs on the serving
// path: 8 allocations for the reply message, its records and the echoed
// ECS option, and 2 inside MapAt (the Response and its server slice).
const serveDNSAllocBudget = 10

// TestServeDNSAllocGuard pins the authority hot path to its per-query
// allocation budget: a change that adds even one allocation per query
// fails here instead of silently eroding the serving cost. The authority
// runs with telemetry fully registered — the observability plane must ride
// along for free.
func TestServeDNSAllocGuard(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 5, NumBlocks: 2000})
	platform := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 5, NumDeployments: 120})
	sys := mapping.NewSystem(w, platform, netmodel.NewDefault(), mapping.Config{
		Policy: mapping.EndUser, PingTargets: 200,
	})
	auth, err := authority.New("cdn.example.net", sys)
	if err != nil {
		t.Fatal(err)
	}
	auth.RegisterMetrics(telemetry.NewRegistry())

	blk := w.Blocks[0]
	q := dnsmsg.NewQuery(7, "img.cdn.example.net", dnsmsg.TypeA)
	_ = q.SetClientSubnet(blk.Prefix.Addr(), 24)
	remote := netip.AddrPortFrom(blk.LDNS.Addr, 53)

	allocs := testing.AllocsPerRun(200, func() {
		if resp := auth.ServeDNS(remote, q); resp == nil || resp.RCode != dnsmsg.RCodeSuccess {
			t.Fatal("bad response")
		}
	})
	if allocs > serveDNSAllocBudget {
		t.Errorf("ServeDNS with telemetry = %.1f allocs/op, budget %d", allocs, serveDNSAllocBudget)
	}
}
