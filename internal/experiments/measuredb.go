package experiments

import (
	"sync"
	"time"

	"eum/internal/cdn"
	"eum/internal/netmodel"
)

// measureDB is the network-measurement component of the mapping system
// (§2.2 component 1) as the freshness figure models it: a sweep pings every
// (deployment, target) pair once and keeps the latest observation of each,
// and a scorer built over the database ranks from those observations — of
// bounded staleness — rather than from the network model directly. It is
// safe for concurrent use.
type measureDB struct {
	net *netmodel.Model

	mu sync.RWMutex
	// obs holds the ping of each (deployment ID, target ID) pair.
	obs map[[2]uint64]float64
}

func newMeasureDB(net *netmodel.Model) *measureDB {
	return &measureDB{net: net, obs: map[[2]uint64]float64{}}
}

// epochOf quantises a time into the network model's congestion epochs
// (daily, matching the RTT model's day-granularity congestion).
func epochOf(now time.Time) uint64 {
	return uint64(now.Unix() / 86400)
}

// sweep probes every (deployment, target) pair once at simulated time now,
// replacing previous observations. Probes observe the congestion of now's
// epoch, so observations age as the network's state moves on. It returns
// the number of probes sent.
func (db *measureDB) sweep(now time.Time, p *cdn.Platform, targets []netmodel.Endpoint) int {
	epoch := epochOf(now)
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, d := range p.Deployments {
		de := d.Endpoint()
		for _, t := range targets {
			db.obs[[2]uint64{d.ID, t.ID}] = db.net.PingMsAt(de, t, epoch)
		}
	}
	return len(p.Deployments) * len(targets)
}

// PingMs returns the measured ping between a deployment endpoint and a
// target, satisfying mapping.Prober. Unmeasured pairs fall back to a live
// probe, which is not stored: the sweep owns the database's contents.
func (db *measureDB) PingMs(a, b netmodel.Endpoint) float64 {
	db.mu.RLock()
	ms, ok := db.obs[[2]uint64{a.ID, b.ID}]
	db.mu.RUnlock()
	if ok {
		return ms
	}
	return db.net.PingMs(a, b)
}
