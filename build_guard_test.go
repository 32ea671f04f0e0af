package bench

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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

// TestRingAllocsBounded keeps ring construction — paid by every process,
// publisher and replica, at every boot — to a constant number of
// allocations per platform: the arena's three arrays, the scratch of one
// ring and the deployment index, whose map takes a table per thousand
// deployments — not a ring or a key string per deployment or virtual node.
func TestRingAllocsBounded(t *testing.T) {
	w := world.MustGenerate(world.Config{Seed: 17, NumBlocks: 500})
	// Measured 10 and 17.
	for n, most := range map[int]float64{40: 12, 2642: 20} {
		p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: 17, NumDeployments: n, ServersPerDeployment: 6})
		allocs := testing.AllocsPerRun(5, func() { mapping.NewLoadBalancer().Prepare(p) })
		t.Logf("%d deployments: %.0f allocations", n, allocs)
		if allocs > most {
			t.Fatalf("%.0f allocations to prepare the rings of %d deployments", allocs, n)
		}
	}
}

// coldWideImageCRC and coldWideImageSize pin the full wire image of the
// cold_wide benchmark's universe at its first epoch. The lineage in its
// header is random, so the CRC-32C is taken over the image with those
// eight bytes zeroed. Scores are compared, sorted and shipped as raw
// float64 bits, so a score that moves in its last place can reorder a tie
// and changes the checksum; a change that means to move it says so and
// re-pins it. coldWideRowsCRC is the CRC-32C of the rank
// rows alone (every RowTable's TableBytes, in row order), which a change to
// the format around the rows leaves where it is.
const (
	coldWideImageCRC  = 0x3493ca6d
	coldWideImageSize = 4180676
	coldWideRowsCRC   = 0x9096ab1c
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
		t.Fatalf("the cold_wide full image is %d bytes with CRC-32C %#08x, pinned %d bytes and %#08x",
			len(image), got, coldWideImageSize, coldWideImageCRC)
	}
	var rows uint32
	for i := 0; i < sn.Layout().Rows(); i++ {
		rows = crc32.Update(rows, castagnoli, mapping.TableBytes(sn.RowTable(i)))
	}
	if rows != coldWideRowsCRC {
		t.Fatalf("the cold_wide rank rows have CRC-32C %#08x, pinned %#08x", rows, coldWideRowsCRC)
	}
}
