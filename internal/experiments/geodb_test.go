package experiments

import (
	"math"
	"net/netip"
	"testing"

	"eum/internal/geo"
	"eum/internal/stats"
	"eum/internal/world"
)

var geoW = world.MustGenerate(world.Config{Seed: 95, NumBlocks: 1500, IPv6Fraction: 0.2})

func TestGeoDBBuildPerfect(t *testing.T) {
	db := buildGeoDB(geoW, 1, 0, 0)
	if len(db) == 0 {
		t.Fatal("empty database")
	}
	// Every block geolocates exactly.
	for _, b := range geoW.Blocks {
		loc, ok := db.locate(b.Prefix.Addr().Next())
		if !ok {
			t.Fatalf("block %v unknown", b.Prefix)
		}
		if loc != b.Loc {
			t.Fatalf("block %v located at %+v, want %+v", b.Prefix, loc, b.Loc)
		}
	}
	// LDNS addresses geolocate too.
	for _, l := range geoW.LDNSes[:20] {
		loc, ok := db.locate(l.Addr)
		if !ok || loc != l.Loc {
			t.Fatalf("LDNS %v located at %+v, %v", l.Addr, loc, ok)
		}
	}
}

func TestGeoDBLocateUnknown(t *testing.T) {
	db := buildGeoDB(geoW, 1, 0, 0)
	if _, ok := db.locate(netip.MustParseAddr("203.0.113.7")); ok {
		t.Error("unknown address located")
	}
}

func TestGeoDBErrorInjectionRate(t *testing.T) {
	db := buildGeoDB(geoW, 2, 0.2, 500)
	mislocated := 0
	for _, b := range geoW.Blocks {
		if db[b.Prefix] != b.Loc {
			mislocated++
		}
	}
	if rate := float64(mislocated) / float64(len(geoW.Blocks)); rate < 0.14 || rate > 0.26 {
		t.Errorf("mislocate rate = %.3f, want ~0.2", rate)
	}
}

func TestGeoDBErrorDisplacementMagnitude(t *testing.T) {
	db := buildGeoDB(geoW, 3, 1, 500)
	for _, b := range geoW.Blocks[:100] {
		loc, ok := db.locate(b.Prefix.Addr())
		if !ok {
			t.Fatal("block missing")
		}
		d := geo.Distance(loc, b.Loc)
		if math.Abs(d-500) > 2 {
			t.Fatalf("displacement = %.1f, want 500", d)
		}
	}
}

func TestGeoDBBuildDeterministic(t *testing.T) {
	db1 := buildGeoDB(geoW, 4, 0.3, 200)
	db2 := buildGeoDB(geoW, 4, 0.3, 200)
	for _, b := range geoW.Blocks[:100] {
		l1, _ := db1.locate(b.Prefix.Addr())
		l2, _ := db2.locate(b.Prefix.Addr())
		if l1 != l2 {
			t.Fatal("same seed produced different errors")
		}
	}
}

// TestAnalysisRobustToGeoError reruns the §3 distance analysis through
// error-injected databases: the demand-weighted median distance should
// degrade gracefully, not collapse, under realistic geolocation error.
func TestAnalysisRobustToGeoError(t *testing.T) {
	medians := map[float64]float64{}
	for _, errFrac := range []float64{0, 0.1, 0.3} {
		db := buildGeoDB(geoW, 6, errFrac, 100)
		var d stats.Dataset
		for _, b := range geoW.Blocks {
			client, ok1 := db.locate(b.Prefix.Addr())
			ldns, ok2 := db.locate(b.LDNS.Addr)
			if ok1 && ok2 {
				d.Add(geo.Distance(client, ldns), b.Demand)
			}
		}
		medians[errFrac] = d.Median()
	}
	truth := medians[0]
	if truth <= 0 {
		t.Fatal("degenerate truth median")
	}
	// 10% of prefixes off by 100 miles moves the median far less than
	// the error magnitude itself.
	if math.Abs(medians[0.1]-truth) > 60 {
		t.Errorf("median moved %.1f mi under 10%% error", math.Abs(medians[0.1]-truth))
	}
	// Even 30% error keeps the analysis in the right regime.
	if medians[0.3] > truth+120 || medians[0.3] < truth/3 {
		t.Errorf("median %.1f under 30%% error, truth %.1f", medians[0.3], truth)
	}
}

func TestGeoDBIPv6Locate(t *testing.T) {
	db := buildGeoDB(geoW, 7, 0, 0)
	for _, b := range geoW.Blocks {
		if !b.Prefix.Addr().Is6() {
			continue
		}
		host := b.Prefix.Addr().Next()
		loc, ok := db.locate(host)
		if !ok || loc != b.Loc {
			t.Fatalf("v6 block %v: %+v, %v", b.Prefix, loc, ok)
		}
		break
	}
}
