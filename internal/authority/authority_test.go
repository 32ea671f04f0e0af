package authority

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"eum/internal/cdn"
	"eum/internal/dnsclient"
	"eum/internal/dnsmsg"
	"eum/internal/dnsserver"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/world"
)

var (
	testW = world.MustGenerate(world.Config{Seed: 21, NumBlocks: 2000})
	testP = cdn.MustGenerateUniverse(testW, cdn.Config{Seed: 21, NumDeployments: 120, ServersPerDeployment: 4})
)

func newAuthority(t *testing.T, pol mapping.Policy) *Authority {
	t.Helper()
	sys := mapping.NewSystem(testW, testP, netmodel.NewDefault(),
		mapping.Config{Policy: pol, PingTargets: 300})
	a, err := New("cdn.example.net", sys)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// installPolicy installs a map built under pol at the epoch after the
// current one: a switch of policy as a replica sees it, one installed map
// to the next.
func installPolicy(sys *mapping.System, pol mapping.Policy) {
	sys.Install(sys.Builder().Build(sys.Current().Epoch()+1, pol))
}

func query(name string, typ dnsmsg.Type) *dnsmsg.Message {
	return dnsmsg.NewQuery(42, dnsmsg.Name(name), typ)
}

var resolverAddr = netip.MustParseAddrPort("198.51.100.7:5353")

func TestNew(t *testing.T) {
	if _, err := New("", nil); err == nil {
		t.Error("empty zone accepted")
	}
	sys := mapping.NewSystem(testW, testP, netmodel.NewDefault(), mapping.Config{})
	if _, err := New("zone.net", nil); err == nil {
		t.Error("nil system accepted")
	}
	a, err := New("Zone.NET.", sys)
	if err != nil {
		t.Fatal(err)
	}
	if a.Zone() != "zone.net" {
		t.Errorf("zone = %q", a.Zone())
	}
}

func TestAQueryAnswered(t *testing.T) {
	a := newAuthority(t, mapping.NSBased)
	resp := a.ServeDNS(resolverAddr, query("e123.cdn.example.net", dnsmsg.TypeA))
	if resp.RCode != dnsmsg.RCodeSuccess || !resp.Authoritative {
		t.Fatalf("resp: rcode=%v aa=%v", resp.RCode, resp.Authoritative)
	}
	if len(resp.Answers) < 2 {
		t.Fatalf("answers = %d, want >= 2 (precaution against transient failures)", len(resp.Answers))
	}
	for _, rr := range resp.Answers {
		if _, ok := rr.Data.(*dnsmsg.A); !ok {
			t.Errorf("non-A answer %v", rr)
		}
		if rr.TTL != 20 {
			t.Errorf("TTL = %d, want 20", rr.TTL)
		}
	}
}

func TestECSQueryGetsScopedAnswer(t *testing.T) {
	a := newAuthority(t, mapping.EndUser)
	b := testW.Blocks[100]
	q := query("img.cdn.example.net", dnsmsg.TypeA)
	if err := q.SetClientSubnet(b.Prefix.Addr(), 24); err != nil {
		t.Fatal(err)
	}
	resp := a.ServeDNS(netip.AddrPortFrom(b.LDNS.Addr, 53), q)
	if len(resp.Answers) == 0 {
		t.Fatal("no answers")
	}
	ecs := resp.ClientSubnet()
	if ecs == nil {
		t.Fatal("response missing ECS option (RFC 7871 §7.2.2)")
	}
	if ecs.SourcePrefix != 24 {
		t.Errorf("echoed source = %d", ecs.SourcePrefix)
	}
	if ecs.ScopePrefix == 0 || ecs.ScopePrefix > 24 {
		t.Errorf("scope = %d, want (0, 24]", ecs.ScopePrefix)
	}
	if a.ECSQueries.Load() != 1 {
		t.Error("ECS query not counted")
	}
}

// TestECSNonConformantFormErr checks RFC 7871 §7.1.2 enforcement: a query
// whose ECS option carries a non-zero SCOPE PREFIX-LENGTH, or address bits
// beyond SOURCE PREFIX-LENGTH (NonZeroPad, set by the unpacker), is
// answered with FORMERR rather than silently accepted — and is metered
// separately from legitimate ECS traffic.
func TestECSNonConformantFormErr(t *testing.T) {
	a := newAuthority(t, mapping.EndUser)

	// Non-zero scope in a query.
	q := query("img.cdn.example.net", dnsmsg.TypeA)
	if err := q.SetClientSubnet(netip.MustParseAddr("203.0.113.7"), 24); err != nil {
		t.Fatal(err)
	}
	q.ClientSubnet().ScopePrefix = 24
	resp := a.ServeDNS(resolverAddr, q)
	if resp == nil || resp.RCode != dnsmsg.RCodeFormatError {
		t.Fatalf("non-zero scope answered with %v, want FORMERR", resp)
	}
	if len(resp.Answers) != 0 {
		t.Errorf("FORMERR carried %d answers", len(resp.Answers))
	}

	// Pad-bit violation, as the unpacker flags it off the wire.
	q = query("img.cdn.example.net", dnsmsg.TypeA)
	if err := q.SetClientSubnet(netip.MustParseAddr("203.0.113.7"), 24); err != nil {
		t.Fatal(err)
	}
	q.ClientSubnet().NonZeroPad = true
	resp = a.ServeDNS(resolverAddr, q)
	if resp == nil || resp.RCode != dnsmsg.RCodeFormatError {
		t.Fatalf("pad violation answered with %v, want FORMERR", resp)
	}

	if got := a.ECSFormErrs.Load(); got != 2 {
		t.Errorf("ECSFormErrs = %d, want 2", got)
	}
	if got := a.ECSQueries.Load(); got != 0 {
		t.Errorf("ECSQueries = %d, want 0 (rejected queries are not ECS-served)", got)
	}

	// A conformant ECS query on the same authority still gets answers.
	q = query("img.cdn.example.net", dnsmsg.TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("203.0.113.7"), 24)
	resp = a.ServeDNS(resolverAddr, q)
	if resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("conformant ECS query broken: rcode=%v answers=%d", resp.RCode, len(resp.Answers))
	}
}

func TestNSPolicyScopeZero(t *testing.T) {
	// Under NS-based mapping the answer does not depend on the client
	// subnet, so the echoed scope must be 0.
	a := newAuthority(t, mapping.NSBased)
	b := testW.Blocks[5]
	q := query("x.cdn.example.net", dnsmsg.TypeA)
	_ = q.SetClientSubnet(b.Prefix.Addr(), 24)
	resp := a.ServeDNS(netip.AddrPortFrom(b.LDNS.Addr, 53), q)
	ecs := resp.ClientSubnet()
	if ecs == nil {
		t.Fatal("ECS not echoed")
	}
	if ecs.ScopePrefix != 0 {
		t.Errorf("NS-based scope = %d, want 0", ecs.ScopePrefix)
	}
}

func TestWhoami(t *testing.T) {
	a := newAuthority(t, mapping.NSBased)
	resp := a.ServeDNS(resolverAddr, query("whoami.cdn.example.net", dnsmsg.TypeTXT))
	if len(resp.Answers) != 1 {
		t.Fatalf("whoami answers = %d", len(resp.Answers))
	}
	txt := resp.Answers[0].Data.(*dnsmsg.TXT)
	if len(txt.Strings) != 2 || txt.Strings[1] != "198.51.100.7" {
		t.Errorf("whoami TXT = %v", txt.Strings)
	}
	// A form as well.
	resp = a.ServeDNS(resolverAddr, query("whoami.cdn.example.net", dnsmsg.TypeA))
	if len(resp.Answers) != 1 {
		t.Fatalf("whoami A answers = %d", len(resp.Answers))
	}
	if got := resp.Answers[0].Data.(*dnsmsg.A).Addr; got != netip.MustParseAddr("198.51.100.7") {
		t.Errorf("whoami A = %v", got)
	}
}

func TestOutOfZoneRefused(t *testing.T) {
	a := newAuthority(t, mapping.NSBased)
	resp := a.ServeDNS(resolverAddr, query("www.elsewhere.org", dnsmsg.TypeA))
	if resp.RCode != dnsmsg.RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", resp.RCode)
	}
	if a.TotalQueries.Load() != 0 {
		t.Error("out-of-zone query counted as in-zone")
	}
}

func TestNoDataForAAAA(t *testing.T) {
	a := newAuthority(t, mapping.NSBased)
	resp := a.ServeDNS(resolverAddr, query("v6.cdn.example.net", dnsmsg.TypeAAAA))
	if resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) != 0 {
		t.Errorf("AAAA: rcode=%v answers=%d", resp.RCode, len(resp.Answers))
	}
	if len(resp.Authorities) != 1 {
		t.Fatal("NODATA response missing SOA")
	}
	if _, ok := resp.Authorities[0].Data.(*dnsmsg.SOA); !ok {
		t.Error("authority record is not SOA")
	}
}

func TestMultiQuestionNotImplemented(t *testing.T) {
	a := newAuthority(t, mapping.NSBased)
	q := query("a.cdn.example.net", dnsmsg.TypeA)
	q.Questions = append(q.Questions, q.Questions[0])
	resp := a.ServeDNS(resolverAddr, q)
	if resp.RCode != dnsmsg.RCodeNotImplemented {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestNonINClassRefused(t *testing.T) {
	a := newAuthority(t, mapping.NSBased)
	q := query("a.cdn.example.net", dnsmsg.TypeA)
	q.Questions[0].Class = dnsmsg.Class(3) // CHAOS
	resp := a.ServeDNS(resolverAddr, q)
	if resp.RCode != dnsmsg.RCodeRefused {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestZeroSourceECSNotUsed(t *testing.T) {
	// RFC 7871: SOURCE PREFIX-LENGTH 0 means "do not use my address".
	a := newAuthority(t, mapping.EndUser)
	b := testW.Blocks[8]
	q := query("y.cdn.example.net", dnsmsg.TypeA)
	_ = q.SetClientSubnet(b.Prefix.Addr(), 0)
	resp := a.ServeDNS(netip.AddrPortFrom(b.LDNS.Addr, 53), q)
	ecs := resp.ClientSubnet()
	if ecs == nil {
		t.Fatal("ECS not echoed")
	}
	if ecs.ScopePrefix != 0 {
		t.Errorf("scope = %d for source /0, want 0", ecs.ScopePrefix)
	}
}

// TestEndToEndOverUDP runs the full stack: authority behind a dnsserver on
// a real socket, queried by the dnsclient with ECS — Figure 4 as an
// integration test.
func TestEndToEndOverUDP(t *testing.T) {
	a := newAuthority(t, mapping.EndUser)
	srv, err := dnsserver.Listen("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	b := testW.Blocks[50]
	c := &dnsclient.Client{Timeout: 2 * time.Second}
	resp, err := c.Lookup(context.Background(), srv.Addr().String(),
		"foo.cdn.example.net", dnsmsg.TypeA, b.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) < 2 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	ecs := resp.ClientSubnet()
	if ecs == nil || ecs.ScopePrefix == 0 {
		t.Fatalf("end-to-end ECS scope missing: %+v", ecs)
	}
	// The answered servers must exist on the platform.
	addrs := map[netip.Addr]bool{}
	for _, d := range testP.Deployments {
		for _, s := range d.Servers {
			addrs[s.Addr] = true
		}
	}
	for _, rr := range resp.Answers {
		if !addrs[rr.Data.(*dnsmsg.A).Addr] {
			t.Errorf("answer %v is not a platform server", rr.Data)
		}
	}
}

// TestECSIPv6EndToEnd exercises the v6 client-subnet path through the full
// stack: a /48 v6 block resolved over real UDP with a v6 ECS option.
func TestECSIPv6EndToEnd(t *testing.T) {
	w6 := world.MustGenerate(world.Config{Seed: 23, NumBlocks: 1500, IPv6Fraction: 0.3})
	p6 := cdn.MustGenerateUniverse(w6, cdn.Config{Seed: 23, NumDeployments: 100})
	sys := mapping.NewSystem(w6, p6, netmodel.NewDefault(), mapping.Config{Policy: mapping.EndUser, PingTargets: 200})
	a, err := New("cdn.example.net", sys)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dnsserver.Listen("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() { _ = srv.Serve() }()

	var blk *world.ClientBlock
	for _, b := range w6.Blocks {
		if b.Prefix.Addr().Is6() {
			blk = b
			break
		}
	}
	if blk == nil {
		t.Fatal("no v6 block")
	}
	c := &dnsclient.Client{Timeout: 2 * time.Second}
	resp, err := c.Lookup(context.Background(), srv.Addr().String(),
		"v6.cdn.example.net", dnsmsg.TypeA, blk.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	ecs := resp.ClientSubnet()
	if ecs == nil {
		t.Fatal("no ECS in response")
	}
	if ecs.Family != dnsmsg.ECSFamilyIPv6 || ecs.SourcePrefix != 48 {
		t.Errorf("ecs = %+v", ecs)
	}
	if ecs.ScopePrefix != 48 {
		t.Errorf("v6 scope = %d, want 48", ecs.ScopePrefix)
	}
	if len(resp.Answers) < 2 {
		t.Errorf("answers = %d", len(resp.Answers))
	}
}

// deploymentOf finds the deployment that owns a server address.
func deploymentOf(t *testing.T, addr netip.Addr) *cdn.Deployment {
	t.Helper()
	for _, d := range testP.Deployments {
		for _, s := range d.Servers {
			if s.Addr == addr {
				return d
			}
		}
	}
	t.Fatalf("no deployment owns %v", addr)
	return nil
}

// TestDeadDeploymentAvoidedAtOnce: liveness is read at answer time, not at
// publish time — when every server of the deployment an answer points at
// dies, the very next identical query avoids it, before any new map is
// published and well inside the first answer's TTL.
func TestDeadDeploymentAvoidedAtOnce(t *testing.T) {
	a := newAuthority(t, mapping.EndUser)
	blk := testW.Blocks[100]
	ask := func() []netip.Addr {
		return answerAddrs(a.ServeDNS(resolverAddr, ecsQuery(t, "img.cdn.example.net", blk.Prefix.Addr(), 24)))
	}
	epoch := a.system.Current().Epoch()
	dead := deploymentOf(t, ask()[0])
	for _, s := range dead.Servers {
		s.SetAlive(false)
	}
	defer func() {
		for _, s := range dead.Servers {
			s.SetAlive(true)
		}
	}()

	after := ask()
	if len(after) == 0 {
		t.Fatal("no answer once the nearest deployment died")
	}
	for _, addr := range after {
		if deploymentOf(t, addr) == dead {
			t.Errorf("answer still points at %v in dead deployment %s", addr, dead.Name)
		}
	}
	if got := a.system.Current().Epoch(); got != epoch {
		t.Fatalf("map republished during the test (epoch %d -> %d)", epoch, got)
	}
}

// TestDemandRecordedPerAnswer: with demand accounting on, every answer
// records its demand unit on the deployment it handed out — N identical
// queries inside one TTL are N units, which is what the load gauges must
// see (and what lets the global load balancer spill the N+1st off a
// deployment the first N filled).
func TestDemandRecordedPerAnswer(t *testing.T) {
	a := newAuthority(t, mapping.EndUser)
	a.SetAnswerDemand(1)
	blk := testW.Blocks[100]
	q := ecsQuery(t, "img.cdn.example.net", blk.Prefix.Addr(), 24)
	defer func() {
		for _, d := range testP.Deployments {
			d.ResetLoad()
		}
	}()

	const n = 10
	want := map[*cdn.Deployment]float64{}
	for i := 0; i < n; i++ {
		want[deploymentOf(t, answerAddrs(a.ServeDNS(resolverAddr, q))[0])]++
	}
	var total float64
	for _, d := range testP.Deployments {
		if got := d.Load(); got != want[d] {
			t.Errorf("%s holds %g demand units, handed out in %g answers", d.Name, got, want[d])
		}
		total += d.Load()
	}
	if total != n {
		t.Errorf("%d identical answers recorded %g demand units, want %d", n, total, n)
	}
}
