package mapping

import (
	"net/netip"
	"testing"

	"eum/internal/cdn"
	"eum/internal/world"
)

// truncHarness is a world with the truncated-ECS bug shape carved into
// it: a /20 whose base /24 holds no known block while sibling /24s do.
// Generated worlds allocate each AS's /24s contiguously from /20-aligned
// bases, so the shape never occurs naturally — real registries are not so
// tidy (returned allocations, punched-out holes), so the index must not
// rely on it either. We excise the base /24 block from a populated /20
// after generating the platform.
type truncHarness struct {
	w     *world.World
	p     *cdn.Platform
	query netip.Prefix       // the /20 with the empty base /24
	want  *world.ClientBlock // highest-demand surviving block inside it
}

var truncH = makeTruncHarness()

func makeTruncHarness() truncHarness {
	w := world.MustGenerate(world.Config{Seed: 11, NumBlocks: 800})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 11, NumDeployments: 80})

	// Pick the first /20 holding at least three /24 blocks and delete its
	// base /24 block from the world's block list.
	per20 := map[uint32]int{}
	for _, b := range w.Blocks {
		if a := b.Prefix.Addr().Unmap(); a.Is4() {
			per20[(addr32(a)>>8)&^0xF]++
		}
	}
	var hole uint32
	found := false
	for _, b := range w.Blocks {
		a := b.Prefix.Addr().Unmap()
		if !a.Is4() {
			continue
		}
		base := (addr32(a) >> 8) &^ 0xF
		if per20[base] >= 3 {
			hole = base
			found = true
			break
		}
	}
	if !found {
		panic("no /20 with >= 3 blocks in the trunc harness world")
	}
	kept := w.Blocks[:0]
	var want *world.ClientBlock
	var wantKey uint32
	for _, b := range w.Blocks {
		a := b.Prefix.Addr().Unmap()
		if a.Is4() {
			key := addr32(a) >> 8
			if key == hole {
				continue // the excised base /24
			}
			if key&^0xF == hole {
				// Survivor inside the /20: track the expected representative
				// (highest demand, ties to the lowest key — the index's rank order).
				if want == nil || b.Demand > want.Demand || (b.Demand == want.Demand && key < wantKey) {
					want, wantKey = b, key
				}
			}
		}
		kept = append(kept, b)
	}
	w.Blocks = kept
	query := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(hole >> 16), byte(hole >> 8), byte(hole), 0}), 20)
	return truncHarness{w: w, p: p, query: query, want: want}
}

// TestCoarseRepRangeScan pins the index-level contract: a prefix coarser
// than the leaf granularity resolves to the highest-demand block inside
// it via a range scan, even when the prefix's base leaf is empty — the
// case probing only the base leaf cannot see.
func TestCoarseRepRangeScan(t *testing.T) {
	ix := blockIndex(truncH.w)

	got, ok := blockIn(ix, truncH.w, truncH.query)
	if !ok {
		t.Fatalf("blockIn(%v) found nothing; want block %v", truncH.query, truncH.want.Prefix)
	}
	if got != truncH.want {
		t.Errorf("blockIn(%v) = %v (demand %.2f), want %v (demand %.2f)",
			truncH.query, got.Prefix, got.Demand, truncH.want.Prefix, truncH.want.Demand)
	}

	// Leaf-width and narrower queries delegate to the exact leaf lookup.
	b := truncH.w.Blocks[0]
	if got, ok := blockIn(ix, truncH.w, b.Prefix); !ok || got != b {
		t.Errorf("blockIn(%v) = %v, %v; want the leaf block itself", b.Prefix, got, ok)
	}

	// A genuinely empty /20 still reports unknown.
	empty := netip.MustParsePrefix("198.18.0.0/20")
	if _, ok := blockIn(ix, truncH.w, empty); ok {
		t.Errorf("blockIn(%v) found a block in an unpopulated range", empty)
	}
}

// TestCoarseRepIPv6 covers the v6 half of the range scan: a /44 (coarser
// than the /48 leaf) resolves to the highest-demand contained block.
func TestCoarseRepIPv6(t *testing.T) {
	ix := blockIndex(v6World)
	var query netip.Prefix
	var want *world.ClientBlock
	for _, b := range v6World.Blocks {
		a := b.Prefix.Addr()
		if !a.Is6() || a.Is4In6() {
			continue
		}
		p44, err := a.Prefix(44)
		if err != nil {
			t.Fatal(err)
		}
		if query.IsValid() && query != p44 {
			continue
		}
		query = p44
		if want == nil || b.Demand > want.Demand {
			want = b
		}
	}
	if want == nil {
		t.Fatal("no v6 blocks")
	}
	got, ok := blockIn(ix, v6World, query)
	if !ok || got != want {
		t.Errorf("blockIn(%v) = %v, %v; want %v", query, got, ok, want.Prefix)
	}
	// Exact /48 delegates to the leaf lookup.
	if got, ok := blockIn(ix, v6World, want.Prefix); !ok || got != want {
		t.Errorf("blockIn(%v) = %v, %v; want the leaf block", want.Prefix, got, ok)
	}
}

// TestTruncatedECSSiblingBlock is the end-to-end regression test for the
// truncated-ECS fallback bug: a /20 ECS query whose base /24 is unknown
// but whose /20 contains known sibling blocks used to fall through to
// the generic fallback with scope 0 — an answer the resolver files in
// its subnet-blind cache, shadowing every other client it serves. The
// mapping system must recognise the coarse prefix, answer from the
// highest-demand contained block, and scope the answer at /20.
func TestTruncatedECSSiblingBlock(t *testing.T) {
	s := NewSystem(truncH.w, truncH.p, testNet, Config{Policy: EndUser, PingTargets: 500})

	resp, err := s.Map(Request{
		Domain:       "trunc.cdn.example.net",
		LDNS:         truncH.want.LDNS.Addr,
		ClientSubnet: truncH.query,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.UsedClientSubnet {
		t.Error("truncated query with known siblings fell through to the generic fallback")
	}
	if resp.ScopePrefix != 20 {
		t.Errorf("scope = %d, want 20 (the truncated source, not 0 and not the /24 unit)", resp.ScopePrefix)
	}
}

// TestCoarseRepTiesToLowestKey: blocks of equal demand inside one coarse
// prefix resolve to the one with the lowest leaf key, whatever their order
// in the world — the tie-break the index's demand ranks encode.
func TestCoarseRepTiesToLowestKey(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 9, NumBlocks: 3000})
	lowest := map[netip.Prefix]*world.ClientBlock{}
	by20 := map[netip.Prefix][]*world.ClientBlock{}
	for _, b := range w.Blocks {
		if a := b.Prefix.Addr(); a.Is4() {
			p, _ := a.Prefix(20)
			by20[p] = append(by20[p], b)
		}
	}
	for p, bs := range by20 {
		if len(bs) < 2 {
			continue
		}
		for _, b := range bs {
			b.Demand = 1
			if low := lowest[p]; low == nil || b.Prefix.Addr().Less(low.Prefix.Addr()) {
				lowest[p] = b
			}
		}
	}
	if len(lowest) == 0 {
		t.Fatal("no /20 holds two blocks")
	}
	ix := blockIndex(w)
	for p, want := range lowest {
		if got, ok := blockIn(ix, w, p); !ok || got != want {
			t.Fatalf("blockIn(%v) among %d blocks of equal demand is not the lowest, %v (found %v)", p, len(by20[p]), want.Prefix, ok)
		}
	}
}
