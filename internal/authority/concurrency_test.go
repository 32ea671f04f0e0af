package authority

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"eum/internal/dnsmsg"
	"eum/internal/mapping"
)

// TestAuthorityConcurrentQueries hammers one Authority from many
// goroutines with a mix of ECS and non-ECS queries and checks that every
// response is well-formed and the metrics add up exactly. Run with -race
// this doubles as the data-race check for the whole serving stack
// (authority counters, mapping system, load balancer, server load
// atomics).
func TestAuthorityConcurrentQueries(t *testing.T) {
	a := newAuthority(t, mapping.EndUser)

	const (
		goroutines = 12
		perG       = 400
	)
	domains := []string{"img.cdn.example.net", "js.cdn.example.net", "video.cdn.example.net"}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Per-goroutine resolver address, so NS-keyed decisions differ
			// between goroutines.
			ldns := netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 51, 100, byte(g + 1)}), 5353)
			for i := 0; i < perG; i++ {
				q := query(domains[(g+i)%len(domains)], dnsmsg.TypeA)
				withECS := (g+i)%2 == 0
				if withECS {
					blk := testW.Blocks[(g*perG+i*7)%len(testW.Blocks)]
					if err := q.SetClientSubnet(blk.Prefix.Addr(), uint8(blk.Prefix.Bits())); err != nil {
						errs <- err
						return
					}
				}
				resp := a.ServeDNS(ldns, q)
				if resp.RCode != dnsmsg.RCodeSuccess {
					errs <- fmt.Errorf("goroutine %d query %d: rcode %v", g, i, resp.RCode)
					return
				}
				if len(resp.Answers) == 0 {
					errs <- fmt.Errorf("goroutine %d query %d: empty answer", g, i)
					return
				}
				for _, rr := range resp.Answers {
					if _, ok := rr.Data.(*dnsmsg.A); !ok {
						errs <- fmt.Errorf("goroutine %d query %d: non-A answer %T", g, i, rr.Data)
						return
					}
				}
				if withECS && resp.ClientSubnet() == nil {
					errs <- fmt.Errorf("goroutine %d query %d: ECS not echoed", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := uint64(goroutines * perG)
	if got := a.TotalQueries.Load(); got != total {
		t.Errorf("TotalQueries = %d, want %d", got, total)
	}
	if got := a.ECSQueries.Load(); got != total/2 {
		t.Errorf("ECSQueries = %d, want %d", got, total/2)
	}
}

// TestAuthorityConcurrentInvalidation interleaves queries with policy
// flips and snapshot republications from other goroutines. Responses may
// reflect either policy mid-flip; the test asserts they stay well-formed
// and, under -race, that publishing does not race the serving path.
func TestAuthorityConcurrentInvalidation(t *testing.T) {
	a := newAuthority(t, mapping.EndUser)

	const (
		goroutines = 8
		perG       = 200
		flips      = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+2)

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := query("img.cdn.example.net", dnsmsg.TypeA)
				if (g+i)%2 == 0 {
					blk := testW.Blocks[(g*perG+i)%len(testW.Blocks)]
					if err := q.SetClientSubnet(blk.Prefix.Addr(), uint8(blk.Prefix.Bits())); err != nil {
						errs <- err
						return
					}
				}
				resp := a.ServeDNS(resolverAddr, q)
				if resp.RCode != dnsmsg.RCodeSuccess || len(resp.Answers) == 0 {
					errs <- fmt.Errorf("goroutine %d query %d: bad response rcode=%v answers=%d",
						g, i, resp.RCode, len(resp.Answers))
					return
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		pols := [...]mapping.Policy{mapping.NSBased, mapping.EndUser, mapping.ClientAwareNS, mapping.EndUser}
		for i := 0; i < flips; i++ {
			a.system.SetPolicy(pols[i%len(pols)])
		}
		a.system.SetPolicy(mapping.EndUser)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			a.system.Rebuild()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := uint64(goroutines * perG)
	if got := a.TotalQueries.Load(); got != total {
		t.Errorf("TotalQueries = %d, want %d", got, total)
	}
}

// TestAuthorityEpochHammer swaps snapshots as fast as the control plane
// can build them while 12 goroutines resolve mapping requests, and asserts
// no stale-epoch answer is ever served: every decision's epoch lies
// between the epoch published before the call and the one published after
// it. decide() loads the snapshot exactly once and takes the rung, the
// decision and its epoch from it — this test is the regression guard for
// that invariant under continuous publication.
func TestAuthorityEpochHammer(t *testing.T) {
	a := newAuthority(t, mapping.EndUser)

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.system.Rebuild()
			}
		}
	}()

	const (
		goroutines = 12
		perG       = 300
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := mapping.Request{
					Domain: "img.cdn.example.net",
					LDNS:   netip.AddrFrom4([4]byte{198, 51, 100, byte(g + 1)}),
				}
				if (g+i)%2 == 0 {
					req.ClientSubnet = testW.Blocks[(g*perG+i*3)%len(testW.Blocks)].Prefix
				}
				before := a.system.Current().Epoch()
				decision, _, err := a.decide(req, nil)
				after := a.system.Current().Epoch()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				if decision.Epoch < before || decision.Epoch > after {
					errs <- fmt.Errorf("goroutine %d query %d: stale epoch %d served outside window [%d, %d]",
						g, i, decision.Epoch, before, after)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
