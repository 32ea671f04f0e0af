package bench

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"sync"
	"testing"

	"eum/internal/cdn"
	"eum/internal/geo"
	"eum/internal/mapping"
	"eum/internal/mapwire"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// The guards here count work instead of timing it: this VM's clock moves
// 10–28 % between runs of the same code, and a count repeats exactly.

// countingProber answers from the network model and keeps how often each
// (deployment, measured endpoint) pair was asked for. It has no row form,
// so a scorer over it asks pair by pair and every measurement is seen.
type countingProber struct {
	net   *netmodel.Model
	mu    sync.Mutex
	pairs map[[2]uint64]int
}

func (c *countingProber) PingMs(a, b netmodel.Endpoint) float64 {
	c.mu.Lock()
	c.pairs[[2]uint64{a.ID, b.ID}]++
	c.mu.Unlock()
	return c.net.PingMs(a, b)
}

// take returns how many pairs were measured since the last take, failing
// the test if any was measured more than once.
func (c *countingProber) take(t *testing.T, when string) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.pairs)
	for pair, times := range c.pairs {
		if times != 1 {
			t.Fatalf("%s: deployment %d was measured against endpoint %d %d times", when, pair[0], pair[1], times)
		}
	}
	clear(c.pairs)
	return n
}

// TestBuildMeasuresEachPairOnce pins what a build costs in measurements:
// a full build asks for every (table, deployment) pair exactly once — the
// shared tails add nothing, a tail being ranked from the scores of the
// table that owns it — a one-target refresh asks for that target's tables
// and nothing else, a replica built from the map's image for nothing, and a
// rewind to replica state for the two fallback tables.
func TestBuildMeasuresEachPairOnce(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 17, NumBlocks: 4000, IPv6Fraction: 0.1})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 17, NumDeployments: 150, ServersPerDeployment: 4})
	cfg := mapping.Config{Policy: mapping.EndUser, PingTargets: 400, PartitionMiles: 50}
	deployments := len(p.Deployments)
	prober := &countingProber{net: netmodel.NewDefault(), pairs: map[[2]uint64]int{}}

	sys := mapping.NewSystem(w, p, prober, cfg)
	first := sys.Builder().BuildStats()
	if first.RerankedTails == 0 {
		t.Fatal("the layout has no shared tail, so the build cannot show that tails cost no measurement")
	}
	if got, want := prober.take(t, "first build"), sys.Current().Tables()*deployments; got != want {
		t.Fatalf("the first build measured %d pairs; %d tables x %d deployments is %d",
			got, sys.Current().Tables(), deployments, want)
	}

	target, ok := sys.Scorer().TargetFor(w.Blocks[0].Endpoint())
	if !ok {
		t.Fatal("no ping target for block 0")
	}
	prober.take(t, "target lookup") // looked up by distance: nothing measured, nothing to keep
	sys.Builder().MarkMeasurementsDirty(target.ID)
	sys.Rebuild()
	after := sys.Builder().BuildStats()
	tables := int(after.RerankedTables - first.RerankedTables)
	if after.Incremental != first.Incremental+1 || tables == 0 {
		t.Fatalf("a one-target refresh was not an incremental build: %+v, then %+v", first, after)
	}
	if got, want := prober.take(t, "one-target build"), tables*deployments; got != want {
		t.Fatalf("a one-target build re-ranked %d tables and measured %d pairs, want %d", tables, got, want)
	}

	// A replica built from the map's image measures nothing.
	image, err := mapwire.NewCodec(p).EncodeFull(sys.Current())
	if err != nil {
		t.Fatal(err)
	}
	c, sn, err := mapwire.DecodeBoot(bytes.NewReader(image), int64(len(image)))
	if err != nil {
		t.Fatal(err)
	}
	mapping.NewReplica(c.Platform(), sn, cfg)
	if got := prober.take(t, "replica boot"); got != 0 {
		t.Fatalf("a replica's boot measured %d pairs", got)
	}

	// Rewinding the system to replica state ranks the epoch-0 map: the two
	// fallback endpoints sit at one location; under clustering they share a
	// ping target and so one table.
	sys.BootstrapReplica()
	if got, tables := prober.take(t, "rewind"), sys.Current().Tables(); got != tables*deployments || tables > 2 {
		t.Fatalf("a rewind measured %d pairs for %d tables; want the fallback tables x %d deployments and nothing else",
			got, tables, deployments)
	}
}

// countingRows is the network model, row form included, keeping how many
// pairs it measured against each measured endpoint. Unlike countingProber
// it lets a scorer measure a head from only the deployments that could
// enter it, which is what it counts.
type countingRows struct {
	*netmodel.Model
	mu    sync.Mutex
	pairs map[uint64]int // measured endpoint ID → pairs measured
}

func (c *countingRows) count(to uint64, n int) {
	c.mu.Lock()
	c.pairs[to] += n
	c.mu.Unlock()
}

func (c *countingRows) PingMs(a, b netmodel.Endpoint) float64 {
	c.count(b.ID, 1)
	return c.Model.PingMs(a, b)
}

func (c *countingRows) PingRow(dst []float64, from []netmodel.Site, to netmodel.Endpoint) {
	c.count(to.ID, len(from))
	c.Model.PingRow(dst, from, to)
}

func (c *countingRows) PingAt(s *netmodel.Site, to *netmodel.Endpoint, at geo.Prepared) float64 {
	c.count(to.ID, 1)
	return c.Model.PingAt(s, to, at)
}

// take returns the pairs measured since the last take and the endpoints
// they were measured against.
func (c *countingRows) take() (pairs int, endpoints map[uint64]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.pairs {
		pairs += n
	}
	endpoints, c.pairs = c.pairs, map[uint64]int{}
	return pairs, endpoints
}

// TestFullBuildMeasuresFewPairs pins what a build costs in measurements
// when the prober has a row form, at the cold_wide benchmark's shape: a
// head that ranks no tail is measured only for the deployments that could
// enter it, so a full build measures under 30 % of tables × deployments
// (16.4 % when this was written), and a one-target refresh measures that
// target and nothing else.
func TestFullBuildMeasuresFewPairs(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 1, NumBlocks: 50000})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 1, NumDeployments: 600})
	cfg := mapping.Config{Policy: mapping.EndUser, PingTargets: 5000, PartitionMiles: 50}
	deployments := len(p.Deployments)
	prober := &countingRows{Model: netmodel.NewDefault(), pairs: map[uint64]int{}}

	sys := mapping.NewSystem(w, p, prober, cfg)
	tables := sys.Current().Tables()
	got, _ := prober.take()
	t.Logf("a full build measured %d of %d tables x %d deployments = %d pairs (%.1f %%)",
		got, tables, deployments, tables*deployments, 100*float64(got)/float64(tables*deployments))
	if got > tables*deployments*3/10 {
		t.Fatalf("a full build measured %d pairs, over 30 %% of %d tables x %d deployments", got, tables, deployments)
	}

	target, ok := sys.Scorer().TargetFor(w.Blocks[0].Endpoint())
	if !ok {
		t.Fatal("no ping target for block 0")
	}
	prober.take() // looked up by distance: nothing measured
	before := sys.Builder().BuildStats()
	sys.Builder().MarkMeasurementsDirty(target.ID)
	sys.Rebuild()
	after := sys.Builder().BuildStats()
	reranked := int(after.RerankedTables - before.RerankedTables)
	if after.Incremental != before.Incremental+1 || reranked == 0 {
		t.Fatalf("a one-target refresh was not an incremental build: %+v, then %+v", before, after)
	}
	got, endpoints := prober.take()
	if len(endpoints) != 1 || endpoints[target.ID] != got || got == 0 || got > reranked*deployments {
		t.Fatalf("a one-target build re-ranked %d tables and measured %d pairs against %d endpoints; want only target %d, at most %d pairs",
			reranked, got, len(endpoints), target.ID, reranked*deployments)
	}
}

// coldWideImageCRC and coldWideImageSize pin the full wire image of the
// cold_wide benchmark's universe at its first epoch. The lineage in its
// header is random, so the CRC-32C is taken over the image with those
// eight bytes zeroed. Scores are compared and sorted as float64 and
// shipped as the raw bits of their nearest float32, so a score that moves
// in its last place can reorder a tie or move a stored score and changes
// the checksum; a change that means to move it says so and re-pins it, as
// wire format v10 did when each leaf's span replaced its rank, v11 when
// the empty client-aware NS section and its 4-byte count went, and v12
// when leaf keys became runs, table numbers u16s and IPv4 resolvers four
// bytes, and both fingerprints in the header a word-wide hash.
// coldWideOrderCRC is the CRC-32C of the order column alone — every row's
// deployment indexes as u16 little-endian, in row order — which is the
// value wire format v8 gave, when heads kept float64 scores: no rank moved
// when the scores became float32. coldWideScoreCRC is the CRC-32C of the
// score column — every head's scores as the u32 little-endian bits of
// their float32, in head order — which is the value v8's float64 scores
// give rounded to float32: no score moved but by that rounding. Neither
// moves with the format around the rows.
// coldWideIndexCRC is the CRC-32C of the table every client and resolver
// reads — the table of every IPv4 leaf in key order, then of every IPv6
// leaf, then of every resolver, then the fallback-LDNS and the
// fallback-client tables, each as u32 little-endian — which is the value
// wire format v7 gave when the index named partitions and the layout
// mapped each to its table: no client reads another row since the index
// names tables itself.
// coldWideKeyCRC is the CRC-32C of what every client and resolver is
// looked up by — each IPv4 leaf's /24 network as u32 little-endian
// followed by its span byte, in key order, then each IPv6 leaf's /48
// network as u64 little-endian and its span byte, then each resolver's
// 16-byte address, network order (an IPv4 one as IPv4-mapped), in slot
// order — which is the value wire format v11 gave, when each span rode in
// its key's low byte: no key moves with the way the index stores them.
const (
	coldWideImageCRC  = 0xd63062b9
	coldWideImageSize = 1727839
	coldWideOrderCRC  = 0x2d21021b
	coldWideScoreCRC  = 0xadd71ca4
	coldWideIndexCRC  = 0xf9cc0443
	coldWideKeyCRC    = 0xb141a2ae
)

func TestWireImagePinned(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 1, NumBlocks: 50000})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 1, NumDeployments: 600})
	cfg := mapping.Config{Policy: mapping.EndUser, PingTargets: 5000, PartitionMiles: 50}
	sn := mapping.NewSystem(w, p, netmodel.NewDefault(), cfg).Current()
	image, err := mapwire.NewCodec(p).EncodeFull(sn)
	if err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	if got := binary.LittleEndian.Uint32(image[len(image)-4:]); got != crc32.Checksum(image[:len(image)-4], castagnoli) {
		t.Fatalf("the image's own trailer %#08x is not the CRC-32C of its body", got)
	}
	clear(image[16:24]) // the lineage (see the mapwire header layout)
	if got := crc32.Checksum(image[:len(image)-4], castagnoli); got != coldWideImageCRC || len(image) != coldWideImageSize {
		t.Errorf("the cold_wide full image is %d bytes with CRC-32C %#08x, pinned %d bytes and %#08x",
			len(image), got, coldWideImageSize, coldWideImageCRC)
	}
	var orderCRC, scoreCRC uint32
	var word []byte
	for i := 0; i < sn.Layout().Rows(); i++ {
		for _, d := range sn.RowOrder(i) {
			orderCRC = crc32.Update(orderCRC, castagnoli, binary.LittleEndian.AppendUint16(word[:0], d))
		}
	}
	for i := 0; i < sn.Layout().Tables(); i++ {
		for _, s := range sn.HeadScores(i) {
			scoreCRC = crc32.Update(scoreCRC, castagnoli, binary.LittleEndian.AppendUint32(word[:0], math.Float32bits(s)))
		}
	}
	if orderCRC != coldWideOrderCRC {
		t.Errorf("the cold_wide order column has CRC-32C %#08x, pinned %#08x: a rank moved", orderCRC, coldWideOrderCRC)
	}
	if scoreCRC != coldWideScoreCRC {
		t.Errorf("the cold_wide score column has CRC-32C %#08x, pinned %#08x", scoreCRC, coldWideScoreCRC)
	}
	lay := sn.Layout()
	ix := lay.Index
	var tables uint32
	addTables := func(col mapping.TableColumn, n int) {
		for i := range n {
			tables = crc32.Update(tables, castagnoli, binary.LittleEndian.AppendUint32(word[:0], uint32(col.At(i))))
		}
	}
	addTables(ix.V4.Table, ix.V4.Len())
	addTables(ix.V6.Table, ix.V6.Len())
	addTables(ix.ResolverTable, len(ix.Resolvers4)+len(ix.Resolvers6))
	for _, tb := range []int32{lay.FallbackLDNS, lay.FallbackClient} {
		tables = crc32.Update(tables, castagnoli, binary.LittleEndian.AppendUint32(word[:0], uint32(tb)))
	}
	if tables != coldWideIndexCRC {
		t.Errorf("the cold_wide index's tables have CRC-32C %#08x, pinned %#08x", tables, coldWideIndexCRC)
	}
	var keys uint32
	for i := range ix.V4.Len() {
		keys = crc32.Update(keys, castagnoli, append(binary.LittleEndian.AppendUint32(word[:0], ix.V4.Key(i)), byte(ix.V4.Span(i))))
	}
	for i := range ix.V6.Len() {
		keys = crc32.Update(keys, castagnoli, append(binary.LittleEndian.AppendUint64(word[:0], ix.V6.Key(i)), byte(ix.V6.Span(i))))
	}
	mapped := [12]byte{10: 0xff, 11: 0xff} // an IPv4 address's 16-byte form, less the address
	for _, a := range ix.Resolvers4 {
		keys = crc32.Update(keys, castagnoli, binary.BigEndian.AppendUint32(mapped[:], a))
	}
	for _, a := range ix.Resolvers6 {
		keys = crc32.Update(keys, castagnoli, binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(word[:0], a[0]), a[1]))
	}
	if keys != coldWideKeyCRC {
		t.Errorf("the cold_wide index's keys have CRC-32C %#08x, pinned %#08x", keys, coldWideKeyCRC)
	}
}
