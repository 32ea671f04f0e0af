package experiments

import (
	"fmt"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// mechanism is one of the request-routing mechanisms the §7 figure
// compares with ECS: NS-only mapping and the pre-ECS end-user mapping
// mechanisms the paper discusses as baselines, metafile redirection (used
// by a video CDN at Akamai circa 2000) and HTTP redirection. Both learn
// the client's IP at the application layer — after NS-based DNS has already picked a
// possibly-distant first server — and buy client-accurate server selection
// at the price of extra round trips through that first server:
//
//   - Metafile: the media player fetches a metafile from the NS-chosen
//     server; the mapping system embeds the IP of the client-proximal
//     server in the metafile; the player then connects there. Hard to
//     extend beyond traffic that uses metafiles.
//   - HTTP redirection: the NS-chosen first server answers the content
//     request with a redirect to a better second server. The redirection
//     penalty is "acceptable only for larger downloads".
//   - ECS (end-user mapping proper) gets the client-accurate decision
//     during DNS resolution, with no application-layer penalty.
//
// mechanismTimes quantifies exactly that trade-off on the shared substrate.
type mechanism int

// The compared mechanisms.
const (
	// nsOnly is the baseline: DNS by LDNS, no client knowledge at all.
	nsOnly mechanism = iota
	// viaECS is end-user mapping via the EDNS0 client-subnet option.
	viaECS
	// metafile is metafile redirection.
	metafile
	// httpRedirect is application-layer redirection.
	httpRedirect
)

// String names the mechanism.
func (m mechanism) String() string {
	switch m {
	case nsOnly:
		return "ns-only"
	case viaECS:
		return "ecs"
	case metafile:
		return "metafile"
	case httpRedirect:
		return "http-redirect"
	}
	return fmt.Sprintf("mechanism(%d)", int(m))
}

// mechanismResult is one mechanism's outcome for one download.
type mechanismResult struct {
	Mechanism mechanism
	// ServingDeployment is where the content ultimately comes from.
	ServingDeployment *cdn.Deployment
	// StartupMs is the time until the first content byte: DNS, connection
	// setup, and any redirection penalty.
	StartupMs float64
	// TotalMs is StartupMs plus the content transfer time.
	TotalMs float64
}

// mechanismTimes returns the four mechanisms' results for a client block
// downloading sizeBytes of content, at the given congestion epoch, with
// servers chosen by scorer.
func mechanismTimes(scorer *mapping.Scorer, net *netmodel.Model, b *world.ClientBlock, sizeBytes int, epoch uint64) ([]mechanismResult, error) {
	nsDep, _ := scorer.Best(b.LDNS.Endpoint())
	euDep, _ := scorer.Best(b.Endpoint())
	if nsDep == nil || euDep == nil {
		return nil, fmt.Errorf("experiments: no live deployment")
	}

	client := b.Endpoint()
	// One cached DNS resolution: a client-LDNS round trip.
	dnsMs := net.RTTMs(client, b.LDNS.Endpoint(), epoch)
	rttNS := net.RTTMs(client, nsDep.Endpoint(), epoch)
	rttEU := net.RTTMs(client, euDep.Endpoint(), epoch)
	transfer := func(d *cdn.Deployment) float64 {
		tp := net.ThroughputMbps(client, d.Endpoint(), epoch)
		return float64(sizeBytes) * 8 / (tp * 1e6) * 1000
	}

	// connect = 1 RTT (TCP handshake); request to first byte = 1 RTT.
	results := []mechanismResult{
		{
			Mechanism:         nsOnly,
			ServingDeployment: nsDep,
			StartupMs:         dnsMs + 2*rttNS,
			TotalMs:           dnsMs + 2*rttNS + transfer(nsDep),
		},
		{
			Mechanism:         viaECS,
			ServingDeployment: euDep,
			StartupMs:         dnsMs + 2*rttEU,
			TotalMs:           dnsMs + 2*rttEU + transfer(euDep),
		},
		{
			// Connect to the NS-chosen server, fetch the metafile
			// (1 RTT), then connect and stream from the EU server.
			Mechanism:         metafile,
			ServingDeployment: euDep,
			StartupMs:         dnsMs + 2*rttNS + 2*rttEU,
			TotalMs:           dnsMs + 2*rttNS + 2*rttEU + transfer(euDep),
		},
		{
			// Connect to the NS-chosen server, issue the content request
			// and receive the redirect (1 RTT), connect to the second
			// server and re-issue the full request (an extra half RTT of
			// request bytes versus the metafile flow).
			Mechanism:         httpRedirect,
			ServingDeployment: euDep,
			StartupMs:         dnsMs + 2*rttNS + 2.5*rttEU,
			TotalMs:           dnsMs + 2*rttNS + 2.5*rttEU + transfer(euDep),
		},
	}
	return results, nil
}
