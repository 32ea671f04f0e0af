package mapwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// The fixture world is deliberately small: wire-format correctness does
// not depend on scale (scale_guard_test.go and the bench guard cover
// that), and the fuzz target rebuilds snapshots from this fixture on
// every corpus entry.
var (
	fixOnce sync.Once
	fixW    *world.World
	fixP    *cdn.Platform
	fixCfg  = mapping.Config{Policy: mapping.EndUser, PingTargets: 150, PartitionMiles: 75}
)

func fixture() (*world.World, *cdn.Platform) {
	fixOnce.Do(func() {
		fixW = world.MustGenerate(world.Config{Seed: 11, NumBlocks: 1200, IPv6Fraction: 0.2})
		fixP = cdn.MustGenerateUniverse(fixW, cdn.Config{Seed: 11, NumDeployments: 80, ServersPerDeployment: 4})
	})
	return fixW, fixP
}

// shiftNet perturbs pings for chosen endpoints, standing in for the
// measurement sweeps that dirty single targets between epochs.
type shiftNet struct {
	base  mapping.Prober
	shift map[uint64]float64
}

func (p *shiftNet) PingMs(a, b netmodel.Endpoint) float64 {
	return p.base.PingMs(a, b) + p.shift[a.ID] + p.shift[b.ID]
}

// sameAnswers fails unless got — a decoded snapshot — ranks every block's
// prefix and every LDNS's address identically (deployment index and
// bitwise score) to want, the snapshot built from the world, and unknown
// prefixes and resolvers alike.
func sameAnswers(t *testing.T, got, want *mapping.Snapshot, w *world.World) {
	t.Helper()
	check := func(g, wnt mapping.Row, what string) {
		t.Helper()
		if !slices.Equal(g.Head, wnt.Head) {
			t.Fatalf("%s: heads differ:\n got %v\nwant %v", what, g.Head, wnt.Head)
		}
		if !slices.Equal(g.Tail, wnt.Tail) {
			t.Fatalf("%s: tails differ", what)
		}
	}
	for _, blk := range w.Blocks {
		g, ok := got.ClientRow(blk.Prefix)
		if !ok {
			t.Fatalf("block %v is not in the decoded index", blk.Prefix)
		}
		wnt, _ := want.ClientRow(blk.Prefix)
		check(g, wnt, "block "+blk.Prefix.String())
	}
	for _, l := range w.LDNSes {
		g, ok := got.ResolverRow(l.Addr)
		if !ok {
			t.Fatalf("LDNS %v is not in the decoded index", l.Addr)
		}
		wnt, _ := want.ResolverRow(l.Addr)
		check(g, wnt, "ldns "+l.Addr.String())
	}
	unknownBlock, unknownLDNS := netip.MustParsePrefix("198.18.0.0/24"), netip.MustParseAddr("198.51.100.9")
	g, gotOK := got.ClientRow(unknownBlock)
	wnt, wantOK := want.ClientRow(unknownBlock)
	if gotOK || wantOK {
		t.Fatalf("unknown block %v found: decoded %v, built %v", unknownBlock, gotOK, wantOK)
	}
	check(g, wnt, "unknown block")
	g, gotOK = got.ResolverRow(unknownLDNS)
	wnt, wantOK = want.ResolverRow(unknownLDNS)
	if gotOK || wantOK {
		t.Fatalf("unknown ldns %v found: decoded %v, built %v", unknownLDNS, gotOK, wantOK)
	}
	check(g, wnt, "unknown ldns")
}

func TestFullRoundTrip(t *testing.T) {
	w, p := fixture()
	for _, pol := range []mapping.Policy{mapping.NSBased, mapping.EndUser} {
		t.Run(pol.String(), func(t *testing.T) {
			sn := mapping.NewSnapshotBuilder(w, p, netmodel.NewDefault(), fixCfg).Build(7, pol)
			c := NewCodec(p)
			data, err := c.EncodeFull(sn)
			if err != nil {
				t.Fatal(err)
			}
			h, err := ParseHeader(data)
			if err != nil {
				t.Fatal(err)
			}
			if h.Kind != KindFull || h.Epoch != 7 || h.Policy != pol {
				t.Fatalf("header %+v: want full/epoch 7/%s", h, pol)
			}
			dec, err := c.Decode(data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Epoch() != sn.Epoch() || dec.Policy() != sn.Policy() ||
				dec.TTL() != sn.TTL() || dec.Tables() != sn.Tables() {
				t.Fatalf("decoded epoch=%d policy=%s ttl=%v tables=%d, want %d/%s/%v/%d",
					dec.Epoch(), dec.Policy(), dec.TTL(), dec.Tables(),
					sn.Epoch(), sn.Policy(), sn.TTL(), sn.Tables())
			}
			if dec.LayoutFingerprint() != sn.LayoutFingerprint() {
				t.Fatal("decoded layout fingerprint differs")
			}
			sameAnswers(t, dec, sn, w)
			again, err := c.EncodeFull(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("re-encode differs: %d vs %d bytes", len(again), len(data))
			}
		})
	}
}

// TestLayoutIsWhatTravels: a layout holds nothing a full image does not
// carry. Decoding a built snapshot's full image gives back its layout in
// every field but the fingerprint cache — so no field may be unexported
// besides that cache, for nothing writes one — under threshold and
// identity partitions, on a world with both address families.
func TestLayoutIsWhatTravels(t *testing.T) {
	w, p := fixture()
	cache := map[string]bool{"fpOnce": true, "fp": true}
	for _, cfg := range []mapping.Config{fixCfg, {Policy: mapping.NSBased, PingTargets: 150}} {
		built := mapping.NewSnapshotBuilder(w, p, netmodel.NewDefault(), cfg).Build(3, cfg.Policy)
		image, err := NewCodec(p).EncodeFull(built)
		if err != nil {
			t.Fatal(err)
		}
		_, decoded, err := DecodeBoot(bytes.NewReader(image), int64(len(image)))
		if err != nil {
			t.Fatal(err)
		}
		want, got := reflect.ValueOf(built.Layout()).Elem(), reflect.ValueOf(decoded.Layout()).Elem()
		for i := 0; i < want.NumField(); i++ {
			f := want.Type().Field(i)
			switch {
			case cache[f.Name]:
			case !f.IsExported():
				t.Errorf("%g miles: Layout.%s does not travel", cfg.PartitionMiles, f.Name)
			case !reflect.DeepEqual(want.Field(i).Interface(), got.Field(i).Interface()):
				t.Errorf("%g miles: decoded Layout.%s differs from the built one", cfg.PartitionMiles, f.Name)
			}
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	w, p := fixture()
	prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	b := mapping.NewSnapshotBuilder(w, p, prober, fixCfg)
	sn1 := b.Build(1, mapping.EndUser)

	// Two dirty targets: LDNS 3's, and LDNS 0's — the first segment of the
	// layout, whose endpoint therefore ranks its region's tail, so the delta
	// carries a re-ranked tail as well as heads.
	for _, l := range []int{0, 3} {
		target, ok := b.Scorer().TargetFor(w.LDNSes[l].Endpoint())
		if !ok {
			t.Fatalf("no ping target for LDNS %d", l)
		}
		prober.shift[target.ID] += 40
		b.MarkMeasurementsDirty(target.ID)
	}
	sn2 := b.Build(2, mapping.EndUser)
	if changed := sn2.ChangedSince(1); len(changed) == 0 || int(changed[len(changed)-1]) < sn2.Tables() {
		t.Fatalf("rows %v re-ranked: no tail among them", changed)
	}

	c := NewCodec(p)
	full1, err := c.EncodeFull(sn1)
	if err != nil {
		t.Fatal(err)
	}
	full2, err := c.EncodeFull(sn2)
	if err != nil {
		t.Fatal(err)
	}
	delta, ok, err := c.EncodeDelta(sn1, sn2)
	if err != nil || !ok {
		t.Fatalf("EncodeDelta: ok=%v err=%v", ok, err)
	}
	if h, err := ParseHeader(delta); err != nil || h.Kind != KindDelta || h.BaseEpoch != 1 {
		t.Fatalf("delta header %+v err=%v", h, err)
	}
	// The one-target dirty set must ship a small fraction of the full
	// image even at this toy scale; at Huge-lab scale the bench guard
	// holds the same ratio under 10%.
	if 10*len(delta) >= len(full2) {
		t.Fatalf("delta %d bytes is not <10%% of full %d bytes", len(delta), len(full2))
	}

	// Replica path: install the decoded full epoch 1, then apply the delta.
	dec1, err := c.Decode(full1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec2, err := c.Decode(delta, dec1)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Epoch() != 2 {
		t.Fatalf("delta-applied epoch %d, want 2", dec2.Epoch())
	}
	sameAnswers(t, dec2, sn2, w)
	// The delta-applied snapshot must re-encode to the same full image
	// the publisher would ship for epoch 2.
	again, err := c.EncodeFull(dec2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, full2) {
		t.Fatal("delta-applied snapshot re-encodes differently from the publisher's full image")
	}
}

// TestDeltaAcrossCompactions: a build that compacts the arena chain moves
// every row to fresh memory but re-ranks only the dirty ones, and its
// delta must say so: one head, plus the region's tail when the dirty
// target is the one that ranks it. (Dirtiness used to be read off
// backing-array addresses, so every maxArenaChain-th publish shipped a full
// image.) The replica compacts on its own schedule and must keep every
// tail through it.
func TestDeltaAcrossCompactions(t *testing.T) {
	w, p := fixture()
	prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	b := mapping.NewSnapshotBuilder(w, p, prober, fixCfg)
	c := NewCodec(p)
	var targets []uint64
	for i := 0; i < len(w.LDNSes) && len(targets) < 5; i += 7 {
		if ep, ok := b.Scorer().TargetFor(w.LDNSes[i].Endpoint()); ok && !slices.Contains(targets, ep.ID) {
			targets = append(targets, ep.ID)
		}
	}

	prev := b.Build(1, mapping.EndUser)
	full, err := c.EncodeFull(prev)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := c.Decode(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	oneHead := headerSize + 4 + (4 + prev.Layout().TableLen*(orderSize+scoreSize)) + trailerSize
	headAndTail := oneHead + 4 + len(p.Deployments)*orderSize
	compactions, tails := 0, 0
	for i := 0; i < 200; i++ {
		id := targets[i%len(targets)]
		prober.shift[id] += 3
		b.MarkMeasurementsDirty(id)
		next := b.Build(prev.Epoch()+1, mapping.EndUser)
		if next.ArenaChainLen() == 1 {
			compactions++
		}
		delta, ok, err := c.EncodeDelta(prev, next)
		if err != nil || !ok {
			t.Fatalf("build %d (chain %d): EncodeDelta ok=%v err=%v", i, next.ArenaChainLen(), ok, err)
		}
		if len(delta) == headAndTail {
			tails++
		} else if len(delta) != oneHead {
			t.Fatalf("build %d (chain %d): delta is %d bytes, one re-ranked head is %d, with its tail %d",
				i, next.ArenaChainLen(), len(delta), oneHead, headAndTail)
		}
		if replica, err = c.Decode(delta, replica); err != nil {
			t.Fatalf("build %d: applying the delta: %v", i, err)
		}
		prev = next
	}
	if compactions < 3 || tails == 0 {
		t.Fatalf("%d compactions and %d tail-carrying deltas in 200 builds, want at least 3 and 1", compactions, tails)
	}
	want, err := c.EncodeFull(prev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.EncodeFull(replica)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("replica patched 200 times re-encodes differently from the publisher's map")
	}
}

func TestEncodeDeltaRefusals(t *testing.T) {
	w, p := fixture()
	b := mapping.NewSnapshotBuilder(w, p, netmodel.NewDefault(), fixCfg)
	sn1 := b.Build(1, mapping.EndUser)
	sn2 := b.Build(2, mapping.EndUser)
	c := NewCodec(p)

	if _, ok, err := c.EncodeDelta(nil, sn2); ok || err != nil {
		t.Fatalf("nil base: ok=%v err=%v", ok, err)
	}
	if _, ok, err := c.EncodeDelta(sn2, sn1); ok || err != nil {
		t.Fatalf("epoch regression: ok=%v err=%v", ok, err)
	}
	other := mapping.NewSnapshotBuilder(w, p, netmodel.NewDefault(), fixCfg).Build(1, mapping.EndUser)
	if other.LayoutFingerprint() != sn1.LayoutFingerprint() || other.Lineage() == sn1.Lineage() {
		t.Fatal("a second builder should share the layout and draw another lineage")
	}
	if _, ok, err := c.EncodeDelta(other, sn2); ok || err != nil {
		t.Fatalf("base of another lineage: ok=%v err=%v", ok, err)
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	w, p := fixture()
	sn := mapping.NewSnapshotBuilder(w, p, netmodel.NewDefault(), fixCfg).Build(1, mapping.EndUser)
	c := NewCodec(p)
	data, err := c.EncodeFull(sn)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.Decode(nil, nil); !errors.Is(err, ErrFormat) {
		t.Fatalf("nil input: %v", err)
	}
	if _, err := c.Decode(data[:headerSize-1], nil); !errors.Is(err, ErrFormat) {
		t.Fatalf("short input: %v", err)
	}
	for _, pos := range []int{0, 4, 9, headerSize + 3, len(data) / 2, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		if _, err := c.Decode(mut, nil); err == nil {
			t.Fatalf("flip at %d decoded successfully", pos)
		}
	}
	if _, err := c.Decode(append(append([]byte(nil), data...), 0), nil); err == nil {
		t.Fatal("trailing byte decoded successfully")
	}

	// A codec for a different platform must refuse the image outright.
	otherP := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 99, NumDeployments: 80, ServersPerDeployment: 4})
	if _, err := NewCodec(otherP).Decode(data, nil); !errors.Is(err, ErrPlatformMismatch) {
		t.Fatalf("foreign platform: %v", err)
	}
}

// TestDecodeRejectsHostileImages: images that carry a valid checksum and a
// wrong structure — what a buggy or malicious publisher would send — are
// refused by category, never installed. Each case patches one field of a
// good image and seals it again.
func TestDecodeRejectsHostileImages(t *testing.T) {
	w, p := fixture()
	prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	b := mapping.NewSnapshotBuilder(w, p, prober, fixCfg)
	sn1 := b.Build(1, mapping.EndUser)
	target, _ := b.Scorer().TargetFor(w.LDNSes[0].Endpoint())
	prober.shift[target.ID] += 25
	b.MarkMeasurementsDirty(target.ID)
	sn2 := b.Build(2, mapping.EndUser)
	c := NewCodec(p)
	full, err := c.EncodeFull(sn1)
	if err != nil {
		t.Fatal(err)
	}
	delta, ok, err := c.EncodeDelta(sn1, sn2)
	if err != nil || !ok {
		t.Fatalf("EncodeDelta: ok=%v err=%v", ok, err)
	}

	// Field offsets in the full image, from the platform and the layout it
	// encodes.
	lay, ix := sn1.Layout(), sn1.Layout().Index
	tables, nDeps := lay.Tables(), len(p.Deployments)
	if len(ix.V4.Runs) < 3 || ix.V6.Len() < 2 || len(ix.Resolvers4) < 2 {
		t.Fatal("the fixture needs three runs of IPv4 leaves, two IPv6 leaves and two resolvers")
	}
	roster := headerSize
	d0 := p.Deployments[0]
	d0Servers := roster + 4 + 8 + 8 + 8 + 4 + 4 + len(d0.Name) + 4 + len(d0.Country)
	at := locate(roster+rosterSize(p), ix, 2)
	v4, v6, fallbacks := at.v4, at.v6, at.fallbacks
	segTail := fallbacks + 8
	tailCount := segTail + 4*tables
	firstHead := tailCount + 8
	firstTail := firstHead + tables*lay.TableLen*orderSize
	scoreColumn := firstHead + lay.ArenaLen()*orderSize
	// In the delta: the row list, then the order of a head and of the tail
	// it dirtied, then the head's scores.
	deltaRows := headerSize + 4
	deltaTail := deltaRows + 2*4 + lay.TableLen*orderSize

	// sealed re-encodes sn1 on a copy of the platform that edit changes, so
	// the image's roster carries its own fingerprint and only the roster's
	// own checks can refuse it; a codec on p refuses it as foreign.
	sealed := func(edit func(ds []*cdn.Deployment)) []byte {
		q := &cdn.Platform{}
		for _, d := range p.Deployments {
			nd := &cdn.Deployment{ID: d.ID, Name: d.Name, Loc: d.Loc, ASN: d.ASN, Country: d.Country}
			for _, s := range d.Servers {
				nd.AddServer(s.ID, s.Addr, s.Capacity())
			}
			q.Deployments = append(q.Deployments, nd)
		}
		edit(q.Deployments)
		img, err := NewCodec(q).EncodeFull(sn1)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	// cut keeps the first n bytes of an image and seals them; put, put16,
	// put64 and patch overwrite a field of a copy and seal it.
	cut := func(img []byte, n int) []byte {
		out := slices.Clone(img[:n])
		return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	}
	put := func(img []byte, off int, v uint32) []byte {
		out := slices.Clone(img)
		binary.LittleEndian.PutUint32(out[off:], v)
		return cut(out, len(out)-trailerSize)
	}
	put16 := func(img []byte, off int, v uint16) []byte {
		out := slices.Clone(img)
		binary.LittleEndian.PutUint16(out[off:], v)
		return cut(out, len(out)-trailerSize)
	}
	put64 := func(img []byte, off int, v uint64) []byte {
		out := slices.Clone(img)
		binary.LittleEndian.PutUint64(out[off:], v)
		return cut(out, len(out)-trailerSize)
	}
	patch := func(img []byte, off int, b []byte) []byte {
		out := slices.Clone(img)
		copy(out[off:], b)
		return cut(out, len(out)-trailerSize)
	}
	// The IPv4 leaves the span cases patch: one that a better leaf outranks
	// at its span plus one, and the one that spans the whole family.
	outranked, winner := -1, -1
	for i := range ix.V4.Spans {
		switch ix.V4.Span(i) {
		case 24:
			winner = i
		case 0:
		default:
			outranked = i
		}
	}
	if outranked < 0 || winner < 0 {
		t.Fatal("the fixture needs IPv4 leaves of spans 0 < s < 24 and one of 24")
	}
	// The runs the run cases patch: the first two IPv4 ones, and the last of
	// each family with the key that would make each last run end one past its
	// family's networks.
	key0, run1, run2 := ix.V4.Runs[0], v4.keys+4, v4.firsts+8
	_, lo0, hi0 := ix.V4.Run(0)
	last4, lastLo4, lastHi4 := ix.V4.Run(len(ix.V4.Runs) - 1)
	_, lastLo6, lastHi6 := ix.V6.Run(len(ix.V6.Runs) - 1)
	over4, over6 := uint32(1<<24-(lastHi4-lastLo4)+1), uint64(1<<48-(lastHi6-lastLo6)+1)
	if last4 == over4 {
		t.Fatal("the last IPv4 run already ends at the family's last network")
	}
	// A hand-made image with two IPv6 resolvers, for the cases the fixture,
	// whose resolvers are all IPv4, cannot show.
	hp, hsn := handMade(3)
	hc := NewCodec(hp)
	hfull, err := hc.EncodeFull(hsn)
	if err != nil {
		t.Fatal(err)
	}
	hat := locate(headerSize+rosterSize(hp), hsn.Layout().Index, 2)
	for _, tc := range []struct {
		name string
		img  []byte
		prev *mapping.Snapshot
		want error
	}{
		{"empty roster", put(full, roster, 0), nil, ErrFormat},
		{"a roster of more deployments than a row indexes", put(full, roster, mapping.MaxDeployments+1), nil, ErrFormat},
		{"a server ID used twice", sealed(func(ds []*cdn.Deployment) {
			ds[1].Servers[0].ID = ds[0].Servers[0].ID
		}), nil, ErrFormat},
		{"a server ID used twice inside one deployment", sealed(func(ds []*cdn.Deployment) {
			ds[2].Servers[1].ID = ds[2].Servers[0].ID
		}), nil, ErrFormat},
		{"a deployment ID used twice", sealed(func(ds []*cdn.Deployment) {
			ds[len(ds)-1].ID = ds[0].ID
		}), nil, ErrFormat},
		{"a deployment of more servers than an answer scans", sealed(func(ds []*cdn.Deployment) {
			for len(ds[0].Servers) <= cdn.MaxServers {
				ds[0].AddServer(1<<50+uint64(len(ds[0].Servers)), netip.AddrFrom4([4]byte{10, 0, 0, 1}), 1)
			}
		}), nil, ErrFormat},
		{"a deployment with no servers", put(full, d0Servers, 0), nil, ErrFormat},
		{"roster fingerprint differs from the header's", put(full, roster+4+24, d0.ASN^1), nil, ErrFormat},
		{"a deployment renamed", put(full, roster+4+32, binary.LittleEndian.Uint32(full[roster+4+32:])^1), nil, ErrFormat},
		{"a server readdressed", put(full, d0Servers+4+8+12, binary.LittleEndian.Uint32(full[d0Servers+4+8+12:])^1), nil, ErrFormat},
		{"a server's capacity changed", put(full, d0Servers+4+24+4, binary.LittleEndian.Uint32(full[d0Servers+4+24+4:])^1), nil, ErrFormat},
		{"narrow table numbers in an image of 65 536 tables", put(full, 60, mapping.MaxNarrowTables+1), nil, ErrFormat},
		{"IPv4 runs overlap", put(full, run1, key0), nil, ErrFormat},
		{"IPv4 runs touch", put(full, run1, key0+uint32(hi0-lo0)), nil, ErrFormat},
		{"IPv4 runs descend", put(full, run1, key0-1), nil, ErrFormat},
		{"the first IPv4 run starts past the first leaf", put(full, v4.firsts, 1), nil, ErrFormat},
		{"IPv4 run starts not cumulative", put(full, run2, ix.V4.RunLeaf[1]), nil, ErrFormat},
		{"an IPv4 run starts past the leaf count", put(full, v4.firsts+4*(len(ix.V4.Runs)-1), uint32(ix.V4.Len())), nil, ErrFormat},
		{"an IPv4 run overflows 24 bits", put(full, v4.keys+4*(len(ix.V4.Runs)-1), over4), nil, ErrFormat},
		{"an IPv6 run overflows 48 bits", put64(full, v6.keys+8*(len(ix.V6.Runs)-1), over6), nil, ErrFormat},
		{"an IPv6 run outside 48 bits", put64(full, v6.keys, ix.V6.Runs[0]|1<<56), nil, ErrFormat},
		{"leaf table past the tables", put16(full, v4.tables, uint16(tables)), nil, ErrFormat},
		{"IPv6 leaf table past the tables", put16(full, v6.tables, 0xffff), nil, ErrFormat},
		{"leaf span wider than its family", patch(full, v4.spans, []byte{25}), nil, ErrFormat},
		{"two leaves span one group", patch(full, v4.spans+outranked, []byte{ix.V4.Spans[outranked] + 1}), nil, ErrFormat},
		{"no leaf spans the family", patch(full, v4.spans+winner, []byte{0}), nil, ErrFormat},
		{"resolvers unsorted", put(full, at.res4+8, ix.Resolvers4[0]), nil, ErrFormat},
		{"resolver table past the tables", put16(full, at.resTables, uint16(tables)), nil, ErrFormat},
		{"endpoints miscounted", put(full, 68, uint32(ix.Len()+1)), nil, ErrFormat},
		{"IPv6 resolvers unsorted", patch(hfull, hat.res6+4+16, hfull[hat.res6+4:hat.res6+4+16]), nil, ErrFormat},
		{"an IPv6 resolver IPv4-mapped", patch(hfull, hat.res6+4, netip.MustParseAddr("::ffff:10.0.0.54").AsSlice()), nil, ErrFormat},
		{"resolver fallback unassigned", put(full, fallbacks, ^uint32(0)), nil, ErrFormat},
		{"client fallback unassigned", put(full, fallbacks+4, ^uint32(0)), nil, ErrFormat},
		{"client fallback past the tables", put(full, fallbacks+4, uint32(tables)), nil, ErrFormat},
		{"tail index out of range", put(full, segTail, uint32(lay.Tails)), nil, ErrFormat},
		{"tail index negative", put(full, segTail+4, ^uint32(0)), nil, ErrFormat},
		{"tails shorter than the platform", put(full, tailCount+4, uint32(nDeps-1)), nil, ErrFormat},
		{"tail is not a permutation: it names one deployment twice", put16(full, firstTail+orderSize,
			binary.LittleEndian.Uint16(full[firstTail:])), nil, ErrFormat},
		{"tail names a deployment the platform lacks", put16(full, firstTail, uint16(nDeps)), nil, ErrFormat},
		{"head names a deployment the platform lacks", put16(full, firstHead, uint16(nDeps)), nil, ErrFormat},
		{"score column truncated", cut(full, scoreColumn+tables*lay.TableLen*scoreSize/2), nil, ErrFormat},
		{"head longer than this build keeps", put(full, 64, uint32(lay.TableLen+1)), nil, ErrFormat},
		{"policy 2, which no map serves", put(full, 4, Version|uint32(full[6])<<16|2<<24), nil, ErrFormat},
		{"format version 11, which carried each leaf's key and an i32 table", put(full, 4, 11|uint32(full[6])<<16|uint32(full[7])<<24), nil, ErrVersion},
		{"format version 10, which carried client-aware NS candidate lists", put(full, 4, 10|uint32(full[6])<<16|uint32(full[7])<<24), nil, ErrVersion},
		{"format version 9, which carried a rank per leaf", put(full, 4, 9|uint32(full[6])<<16|uint32(full[7])<<24), nil, ErrVersion},
		{"format version 8, which carried float64 head scores", put(full, 4, 8|uint32(full[6])<<16|uint32(full[7])<<24), nil, ErrVersion},
		{"format version 7, which carried the partition→table map", put(full, 4, 7|uint32(full[6])<<16|uint32(full[7])<<24), nil, ErrVersion},
		{"format version 6", put(full, 4, 6|uint32(full[6])<<16|uint32(full[7])<<24), nil, ErrVersion},
		{"format version 5", put(full, 4, 5|uint32(full[6])<<16|uint32(full[7])<<24), nil, ErrVersion},
		{"format version 4", put(full, 4, 4|uint32(full[6])<<16|uint32(full[7])<<24), nil, ErrVersion},
		{"format version 3", put(full, 4, 3|uint32(full[6])<<16|uint32(full[7])<<24), nil, ErrVersion},
		{"format version 2", put(full, 4, 2|uint32(full[6])<<16|uint32(full[7])<<24), nil, ErrVersion},
		{"delta of another lineage", put(delta, 16, binary.LittleEndian.Uint32(delta[16:])^1), sn1, ErrDeltaBase},
		{"delta row out of range", put(delta, deltaRows+4, uint32(lay.Rows())), sn1, ErrFormat},
		{"delta rows descending", put(delta, deltaRows+4, 0), sn1, ErrFormat},
		{"delta tail names one deployment twice", put16(delta, deltaTail+orderSize,
			binary.LittleEndian.Uint16(delta[deltaTail:])), sn1, ErrFormat},
		{"delta head names a deployment the platform lacks", put16(delta, deltaRows+2*4, uint16(nDeps)), sn1, ErrFormat},
		{"delta score column truncated", cut(delta, len(delta)-trailerSize-scoreSize), sn1, ErrFormat},
	} {
		// An image sealed on another roster is foreign to c, which refuses
		// it on the header's fingerprint before reading the roster; the
		// hand-made images are decoded by their own codec.
		want, dc := tc.want, c
		if h, err := ParseHeader(tc.img); err == nil && h.PlatformFP == hc.fp {
			dc = hc
		} else if err == nil && h.PlatformFP != c.fp {
			want = ErrPlatformMismatch
		}
		if sn, err := dc.Decode(tc.img, tc.prev); !errors.Is(err, want) {
			t.Errorf("%s: decoded to %v, error %v; want %v", tc.name, sn, err, want)
		}
		// A replica booting from a full image reads the roster itself
		// rather than holding it to a codec's, and must refuse it as well.
		if tc.img[6] == KindFull {
			if _, sn, err := DecodeBoot(bytes.NewReader(tc.img), int64(len(tc.img))); !errors.Is(err, tc.want) {
				t.Errorf("%s: booted to %v, error %v; want %v", tc.name, sn, err, tc.want)
			}
		}
	}
	// A roster too large for a row's indexes is refused for its size, before
	// its length is held to the bytes left.
	if _, _, err := DecodeBoot(bytes.NewReader(put(full, roster, mapping.MaxDeployments+1)), int64(len(full))); err == nil ||
		!strings.Contains(err.Error(), "a row indexes at most 65535") {
		t.Errorf("a roster of %d deployments: %v", mapping.MaxDeployments+1, err)
	}
	// A lone leaf past the family's 48 bits spans its groups whole, so only
	// its range refuses it.
	if err := checkLeaves(mapping.Leaves[uint64]{Runs: []uint64{1 << 56}, RunLeaf: []uint32{0}, Spans: []uint8{48}}, 48); err == nil ||
		!strings.Contains(err.Error(), "overflows") {
		t.Errorf("a leaf keyed past 48 bits: %v", err)
	}
	if err := checkLeaves(mapping.Leaves[uint32]{Spans: []uint8{24}, Table: mapping.TableColumn{Narrow: []uint16{0}}}, 24); err == nil ||
		!strings.Contains(err.Error(), "0 runs of 1 leaves") {
		t.Errorf("a leaf in no run: %v", err)
	}
	// The untouched images are good, so every refusal above is the patch's.
	if _, err := c.Decode(put(full, fallbacks, uint32(lay.FallbackLDNS)), nil); err != nil {
		t.Fatalf("resealed clean image: %v", err)
	}
	if _, err := hc.Decode(hfull, nil); err != nil {
		t.Fatalf("clean hand-made image: %v", err)
	}
	if _, err := c.Decode(delta, sn1); err != nil {
		t.Fatalf("clean delta: %v", err)
	}
}

// leafColumns locates one family's leaves in a full image: its run count,
// the runs' first keys and first leaves, its leaf count, spans and tables.
type leafColumns struct{ count, keys, firsts, leaves, spans, tables, end int }

func locateLeaves[K uint32 | uint64](off int, l *mapping.Leaves[K], width int) leafColumns {
	var k K
	c := leafColumns{count: off, keys: off + 4}
	c.firsts = c.keys + len(l.Runs)*int(unsafe.Sizeof(k))
	c.leaves = c.firsts + 4*len(l.Runs)
	c.spans = c.leaves + 4
	c.tables = c.spans + l.Len()
	c.end = c.tables + width*l.Len()
	return c
}

// indexColumns locates a full image's index, which starts at off.
type indexColumns struct {
	v4, v6                           leafColumns
	res4, res6, resTables, fallbacks int
}

func locate(off int, ix *mapping.Index, width int) indexColumns {
	var at indexColumns
	at.v4 = locateLeaves(off, &ix.V4, width)
	at.v6 = locateLeaves(at.v4.end, &ix.V6, width)
	at.res4 = at.v6.end
	at.res6 = at.res4 + 4 + 4*len(ix.Resolvers4)
	at.resTables = at.res6 + 4 + 16*len(ix.Resolvers6)
	at.fallbacks = at.resTables + width*(len(ix.Resolvers4)+len(ix.Resolvers6))
	return at
}

// handMade makes a snapshot of the given table count without a world or a
// builder: two deployments, a head per table ranking both and one tail,
// IPv4 leaves in two runs, one IPv6 leaf, and an IPv4 and two IPv6
// resolvers, the last table read by the first leaf of each family, the
// IPv4 resolver and the client fallback. It is the cheapest layout of
// more tables than a u16 numbers.
func handMade(tables int) (*cdn.Platform, *mapping.Snapshot) {
	p := &cdn.Platform{}
	for i := range 2 {
		d := &cdn.Deployment{ID: uint64(i + 1), Name: fmt.Sprint("d", i), Country: "US"}
		d.AddServer(uint64(i+1), netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}), 1)
		p.Deployments = append(p.Deployments, d)
	}
	col := func(ts ...int32) mapping.TableColumn {
		if tables > mapping.MaxNarrowTables {
			c := mapping.TableColumn{Wide: make([]uint32, len(ts))}
			for i, t := range ts {
				c.Wide[i] = uint32(t)
			}
			return c
		}
		c := mapping.TableColumn{Narrow: make([]uint16, len(ts))}
		for i, t := range ts {
			c.Narrow[i] = uint16(t)
		}
		return c
	}
	last := int32(tables - 1)
	ix := &mapping.Index{
		// 10.0.0.0/24 spans the family, 10.0.1.0/24 nothing but itself,
		// 10.1.0.0/24 the /16 it alone is in.
		V4:            mapping.Leaves[uint32]{Runs: []uint32{0x0a0000, 0x0a0100}, RunLeaf: []uint32{0, 2}, Spans: []uint8{24, 0, 8}, Table: col(last, 0, 1)},
		V6:            mapping.Leaves[uint64]{Runs: []uint64{0x20010db80000}, RunLeaf: []uint32{0}, Spans: []uint8{48}, Table: col(last)},
		Resolvers4:    []uint32{0x0a000035},
		Resolvers6:    [][2]uint64{{0x20010db800000000, 0x53}, {0x20010db800000000, 0x54}},
		ResolverTable: col(last, 0, 1),
	}
	lay := &mapping.Layout{NParts: tables, Index: ix, TableLen: 2, TailLen: 2, Tails: 1,
		SegTail: make([]int32, tables), FallbackClient: last}
	// Head t ranks deployment t%2 first, the tail deployment 0.
	order := make([]uint16, 2*(tables+1))
	for i := range order {
		order[i] = uint16(i%2) ^ uint16(i/2%2)
	}
	order[2*tables], order[2*tables+1] = 0, 1
	return p, mapping.NewSnapshot(1, 1, mapping.EndUser, time.Minute, lay, p, order, make([]float32, 2*tables))
}

// TestTableWidthsRoundTrip: a layout of 65 535 tables keeps its table
// numbers as u16s and one of 65 536 as u32s, in memory and on the wire;
// either image decodes to a snapshot every client and resolver of which
// reads the row it read before, the last table's included, and re-encodes
// byte for byte.
func TestTableWidthsRoundTrip(t *testing.T) {
	for _, tables := range []int{mapping.MaxNarrowTables, mapping.MaxNarrowTables + 1} {
		p, sn := handMade(tables)
		c := NewCodec(p)
		image, err := c.EncodeFull(sn)
		if err != nil {
			t.Fatal(err)
		}
		width := mapping.TableWidth(tables)
		at := locate(headerSize+rosterSize(p), sn.Layout().Index, width)
		if got := int32(binary.LittleEndian.Uint32(image[at.fallbacks+4:])); got != int32(tables-1) {
			t.Fatalf("%d tables: read at %d-byte table numbers, the client fallback is %d, want %d", tables, width, got, tables-1)
		}
		dec, err := c.Decode(image, nil)
		if err != nil {
			t.Fatalf("%d tables: %v", tables, err)
		}
		if ix := dec.Layout().Index; (ix.V4.Table.Wide != nil) != (width == 4) || (ix.ResolverTable.Narrow != nil) != (width == 2) {
			t.Fatalf("%d tables: decoded the table columns at the other width", tables)
		}
		for _, q := range []string{"10.0.0.0/24", "10.0.1.0/24", "10.1.0.0/24", "10.0.0.0/8", "2001:db8::/48", "2001::/16"} {
			g, gok := dec.ClientRow(netip.MustParsePrefix(q))
			w, wok := sn.ClientRow(netip.MustParsePrefix(q))
			if gok != wok || !wok || !slices.Equal(g.Head, w.Head) || !slices.Equal(g.Tail, w.Tail) {
				t.Fatalf("%d tables: client %s reads %v (found %v), built %v", tables, q, g, gok, w)
			}
		}
		for _, a := range []string{"10.0.0.53", "::ffff:10.0.0.53", "2001:db8::53", "2001:db8::54"} {
			g, gok := dec.ResolverRow(netip.MustParseAddr(a))
			w, wok := sn.ResolverRow(netip.MustParseAddr(a))
			if gok != wok || !wok || !slices.Equal(g.Head, w.Head) {
				t.Fatalf("%d tables: resolver %s reads %v (found %v), built %v", tables, a, g, gok, w)
			}
		}
		if again, err := c.EncodeFull(dec); err != nil || !bytes.Equal(again, image) {
			t.Fatalf("%d tables: the re-encoded image differs (err %v)", tables, err)
		}
	}
}

// TestColumnsRoundTripSwapped runs the big-endian path on this host: with
// wireOrder's swap forced, an image carries every word of every column —
// the index's run keys, run starts, tables and IPv4 resolvers, the order
// entries and the scores — with its bytes reversed, and nothing else
// moves; decoded with the swap still forced, it gives back the index and
// both row columns.
func TestColumnsRoundTripSwapped(t *testing.T) {
	w, p := fixture()
	sn := mapping.NewSnapshotBuilder(w, p, netmodel.NewDefault(), fixCfg).Build(1, mapping.EndUser)
	lay, c := sn.Layout(), NewCodec(p)
	plain, err := c.EncodeFull(sn)
	if err != nil {
		t.Fatal(err)
	}
	defer func(host bool) { hostBigEndian = host }(hostBigEndian)
	hostBigEndian = !hostBigEndian
	swapped, err := c.EncodeFull(sn)
	if err != nil {
		t.Fatal(err)
	}

	// The row columns end the body, the scores last.
	scores := len(plain) - trailerSize - lay.Tables()*lay.TableLen*scoreSize
	order := scores - lay.ArenaLen()*orderSize
	want := slices.Clone(plain[:len(plain)-trailerSize])
	reverse := func(from, to, width int) {
		for i := from; i < to; i += width {
			slices.Reverse(want[i : i+width])
		}
	}
	ix := lay.Index
	at := locate(headerSize+rosterSize(p), ix, 2)
	for _, f := range []struct {
		at  leafColumns
		key int
	}{{at.v4, 4}, {at.v6, 8}} {
		reverse(f.at.keys, f.at.firsts, f.key)
		reverse(f.at.firsts, f.at.leaves, 4)
		reverse(f.at.tables, f.at.end, 2)
	}
	reverse(at.res4+4, at.res6, 4)
	reverse(at.resTables, at.fallbacks, 2)
	reverse(order, scores, orderSize)
	reverse(scores, len(want), scoreSize)
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(want, castagnoli))
	if !bytes.Equal(swapped, want) {
		t.Fatal("the swapped image is not the plain one with every column word reversed")
	}

	dec, err := c.Decode(swapped, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Layout().Index, ix) {
		t.Fatal("the index decoded from the swapped image differs from the encoded one")
	}
	for i := 0; i < lay.Rows(); i++ {
		if !slices.Equal(dec.RowOrder(i), sn.RowOrder(i)) {
			t.Fatalf("row %d: order %v, encoded %v", i, dec.RowOrder(i), sn.RowOrder(i))
		}
		if i < lay.Tables() && !slices.Equal(dec.HeadScores(i), sn.HeadScores(i)) {
			t.Fatalf("head %d: scores %v, encoded %v", i, dec.HeadScores(i), sn.HeadScores(i))
		}
	}
}

// TestRosterRoundTrip: a replica's platform is the roster of its first
// image. It must fingerprint like the publisher's, carry every deployment
// field and every server's address and capacity, and serve the image's
// map bitwise-identically; a later image for another platform is refused.
func TestRosterRoundTrip(t *testing.T) {
	w, p := fixture()
	sn := mapping.NewSnapshotBuilder(w, p, netmodel.NewDefault(), fixCfg).Build(1, mapping.NSBased)
	data, err := NewCodec(p).EncodeFull(sn)
	if err != nil {
		t.Fatal(err)
	}
	c, dec, err := DecodeBoot(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	got := c.Platform()
	if PlatformFingerprint(got) != PlatformFingerprint(p) || len(got.Deployments) != len(p.Deployments) {
		t.Fatal("the decoded roster fingerprints differently from the publisher's platform")
	}
	for i, d := range p.Deployments {
		g := got.Deployments[i]
		if g.ID != d.ID || g.Name != d.Name || g.Loc != d.Loc || g.ASN != d.ASN || g.Country != d.Country ||
			len(g.Servers) != len(d.Servers) {
			t.Fatalf("deployment %d decoded as %+v, want %+v", i, g, d)
		}
		for j, s := range d.Servers {
			if gs := g.Servers[j]; gs.ID != s.ID || gs.Addr != s.Addr ||
				math.Float64bits(gs.Capacity()) != math.Float64bits(s.Capacity()) || gs.Deployment != g || !gs.Alive() {
				t.Fatalf("server %d of deployment %d decoded as %v %v cap %v", j, i, gs.ID, gs.Addr, gs.Capacity())
			}
		}
	}
	sameAnswers(t, dec, sn, w)
	if again, err := c.EncodeFull(dec); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encoding against the decoded roster differs (err %v)", err)
	}
	if _, _, err := DecodeBoot(bytes.NewReader(data[:len(data)-1]), int64(len(data)-1)); err == nil {
		t.Fatal("a truncated image booted")
	}
	otherP := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 99, NumDeployments: 80, ServersPerDeployment: 4})
	foreign, err := NewCodec(otherP).EncodeFull(mapping.NewSnapshotBuilder(w, otherP, netmodel.NewDefault(), fixCfg).Build(2, mapping.EndUser))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(foreign, nil); !errors.Is(err, ErrPlatformMismatch) {
		t.Fatalf("an image for another roster: %v", err)
	}
}

func TestDecodeDeltaBaseMismatch(t *testing.T) {
	w, p := fixture()
	prober := &shiftNet{base: netmodel.NewDefault(), shift: map[uint64]float64{}}
	b := mapping.NewSnapshotBuilder(w, p, prober, fixCfg)
	sn1 := b.Build(1, mapping.EndUser)
	target, ok := b.Scorer().TargetFor(w.LDNSes[0].Endpoint())
	if !ok {
		t.Fatal("no ping target")
	}
	prober.shift[target.ID] += 25
	b.MarkMeasurementsDirty(target.ID)
	sn2 := b.Build(2, mapping.EndUser)

	c := NewCodec(p)
	delta, ok, err := c.EncodeDelta(sn1, sn2)
	if err != nil || !ok {
		t.Fatalf("EncodeDelta: ok=%v err=%v", ok, err)
	}
	if _, err := c.Decode(delta, nil); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("no base: %v", err)
	}
	if _, err := c.Decode(delta, sn2); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("wrong-epoch base: %v", err)
	}
	// Epoch 1 of another builder: same epoch, same layout, other rows.
	other := mapping.NewSnapshotBuilder(w, p, netmodel.NewDefault(), fixCfg).Build(1, mapping.EndUser)
	if _, err := c.Decode(delta, other); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("base of another lineage: %v", err)
	}
}

// FuzzSnapshotWire drives the decoder with mutated wire images: the
// fixture's, and one of a world with 30 % IPv6 blocks (seed 17), so IPv6
// runs are exercised too. The invariants: a clean image round-trips
// byte-identically through decode → re-encode, and any single-byte
// corruption is rejected with an error — never a panic, never a
// silently-wrong snapshot (the checksum trailer covers every preceding
// byte).
func FuzzSnapshotWire(f *testing.F) {
	w, p := fixture()
	w6 := world.MustGenerate(world.Config{Seed: 17, NumBlocks: 2500, IPv6Fraction: 0.3})
	p6 := cdn.MustGenerateUniverse(w6, cdn.Config{Seed: 17, NumDeployments: 200})
	type image struct {
		c     *Codec
		clean []byte
	}
	var images []image
	for _, wp := range []struct {
		w *world.World
		p *cdn.Platform
	}{{w, p}, {w6, p6}} {
		c := NewCodec(wp.p)
		clean, err := c.EncodeFull(mapping.NewSnapshotBuilder(wp.w, wp.p, netmodel.NewDefault(), fixCfg).Build(1, mapping.EndUser))
		if err != nil {
			f.Fatal(err)
		}
		images = append(images, image{c, clean})
	}

	for which := range images {
		f.Add(uint8(which), uint32(0), byte(0))
		f.Add(uint8(which), uint32(5), byte(1))
		f.Add(uint8(which), uint32(headerSize), byte(0xff))
		f.Add(uint8(which), uint32(len(images[which].clean)-1), byte(0x80))
	}
	f.Fuzz(func(t *testing.T, which uint8, pos uint32, xor byte) {
		img := images[int(which)%len(images)]
		data := append([]byte(nil), img.clean...)
		i := int(pos) % len(data)
		data[i] ^= xor
		dec, err := img.c.Decode(data, nil)
		if xor != 0 {
			if err == nil {
				t.Fatalf("corrupt image (flip %#x at %d) decoded successfully", xor, i)
			}
			return
		}
		if err != nil {
			t.Fatalf("clean image failed to decode: %v", err)
		}
		again, err := img.c.EncodeFull(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, img.clean) {
			t.Fatal("re-encode differs from the original image")
		}
	})
}
