package experiments

import (
	"sort"

	"eum/internal/cdn"
	"eum/internal/netmodel"
)

// overlayPath is a chosen server-to-origin route.
type overlayPath struct {
	// Via is the relay deployment, or nil for the direct path.
	Via *cdn.Deployment
	// LatencyMs is the end-to-end round-trip latency of the path.
	LatencyMs float64
	// DirectMs is the direct path's latency, for comparison.
	DirectMs float64
}

// improvement returns the fractional latency reduction versus direct.
func (p overlayPath) improvement() float64 {
	if p.DirectMs <= 0 {
		return 0
	}
	return 1 - p.LatencyMs/p.DirectMs
}

// overlayNet is the overlay figure's transport: the platform speeds up server-origin
// communication for dynamic content (§4.1, citing "Overlay networks: An
// Akamai perspective"). Instead of fetching from the origin over the direct
// Internet path, an edge server may relay the fetch through an intermediate
// CDN cluster when the two-hop path is faster — which happens whenever the
// direct path is congested, lossy, or poorly routed.
//
// The roll-out does not change this component (the paper notes overlay
// transport "is not impacted by the end-user mapping roll-out"), but TTFB
// depends on it: the origin-fetch component of page construction rides the
// overlay, which is why end-user mapping only improves TTFB by ~30% while
// halving RTT.
type overlayNet struct {
	net *netmodel.Model
	// relays are the candidate intermediate clusters.
	relays []*cdn.Deployment
	// maxRelays bounds the per-path search to the relays nearest the
	// midpoint corridor (all relays when 0).
	maxRelays int
}

// newOverlay creates an overlay over the platform's deployments. maxRelays
// bounds the per-path candidate set (0 = consider every deployment).
func newOverlay(p *cdn.Platform, net *netmodel.Model, maxRelays int) *overlayNet {
	return &overlayNet{net: net, relays: p.Deployments, maxRelays: maxRelays}
}

// relayOverheadMs is the per-hop processing cost of relay forwarding.
const relayOverheadMs = 1.0

// bestPath returns the fastest path from server to origin at the given
// epoch: the direct path, or a one-hop relay path when a live relay makes
// the trip faster.
func (o *overlayNet) bestPath(server, origin netmodel.Endpoint, epoch uint64) overlayPath {
	direct := o.net.RTTMs(server, origin, epoch)
	best := overlayPath{Via: nil, LatencyMs: direct, DirectMs: direct}

	candidates := o.relays
	if o.maxRelays > 0 && len(candidates) > o.maxRelays {
		candidates = o.nearCorridor(server, origin, o.maxRelays)
	}
	for _, r := range candidates {
		if !r.Alive() {
			continue
		}
		re := r.Endpoint()
		if re.ID == server.ID || re.ID == origin.ID {
			continue
		}
		via := o.net.RTTMs(server, re, epoch) + o.net.RTTMs(re, origin, epoch) + relayOverheadMs
		if via < best.LatencyMs {
			best.Via = r
			best.LatencyMs = via
		}
	}
	return best
}

// nearCorridor returns the n relays with the smallest detour
// (distance(server, relay) + distance(relay, origin)), the standard
// pruning for one-hop overlay route search.
func (o *overlayNet) nearCorridor(server, origin netmodel.Endpoint, n int) []*cdn.Deployment {
	type scored struct {
		d      *cdn.Deployment
		detour float64
	}
	all := make([]scored, 0, len(o.relays))
	for _, r := range o.relays {
		re := r.Endpoint()
		all = append(all, scored{r, o.net.BaseRTTMs(server, re) + o.net.BaseRTTMs(re, origin)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].detour < all[j].detour })
	if n > len(all) {
		n = len(all)
	}
	out := make([]*cdn.Deployment, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].d
	}
	return out
}

// overlayStats summarises overlay benefit over a set of (server, origin)
// pairs.
type overlayStats struct {
	// RelayedFraction is the fraction of pairs where a relay path won.
	RelayedFraction float64
	// MeanImprovement is the mean fractional latency reduction across
	// all pairs (zero for pairs served direct).
	MeanImprovement float64
	// MeanImprovementWhenRelayed restricts the mean to relayed pairs.
	MeanImprovementWhenRelayed float64
}

// evaluate computes overlay statistics over the given endpoint pairs.
func (o *overlayNet) evaluate(pairs [][2]netmodel.Endpoint, epoch uint64) overlayStats {
	if len(pairs) == 0 {
		return overlayStats{}
	}
	var relayed int
	var sumAll, sumRelayed float64
	for _, pr := range pairs {
		p := o.bestPath(pr[0], pr[1], epoch)
		imp := p.improvement()
		sumAll += imp
		if p.Via != nil {
			relayed++
			sumRelayed += imp
		}
	}
	s := overlayStats{
		RelayedFraction: float64(relayed) / float64(len(pairs)),
		MeanImprovement: sumAll / float64(len(pairs)),
	}
	if relayed > 0 {
		s.MeanImprovementWhenRelayed = sumRelayed / float64(relayed)
	}
	return s
}
