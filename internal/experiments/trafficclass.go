package experiments

import (
	"fmt"

	"eum/internal/netmodel"
)

// trafficClass selects the scoring objective of the classes figure. §2.2:
// "Different scoring functions that incorporate bandwidth, latency, packet
// loss etc can be used for different traffic classes (web, video,
// applications)."
type trafficClass int

// The three traffic classes the paper names.
const (
	// classWeb optimises latency: page loads are round-trip-bound.
	classWeb trafficClass = iota
	// classVideo optimises sustained throughput: streams are
	// bandwidth-bound, and a slightly farther cluster with a cleaner
	// path beats a near one behind a lossy link.
	classVideo
	// classApplication optimises loss: interactive applications
	// (IP-over-HTTP tunnels, trading, gaming) suffer most from drops
	// and retransmission stalls.
	classApplication
)

// String names the class.
func (c trafficClass) String() string {
	switch c {
	case classWeb:
		return "web"
	case classVideo:
		return "video"
	case classApplication:
		return "application"
	}
	return fmt.Sprintf("trafficClass(%d)", int(c))
}

// classProber scores paths for one traffic class over the full network
// model, satisfying mapping.Prober, so a scorer built over it ranks by the
// class's objective: the "ping" it reports is a class-weighted path cost
// in millisecond-equivalent units, so lower is better for every class.
type classProber struct {
	net   *netmodel.Model
	class trafficClass
}

// PingMs implements mapping.Prober with the class's objective.
func (cp classProber) PingMs(a, b netmodel.Endpoint) float64 {
	ping := cp.net.PingMs(a, b)
	switch cp.class {
	case classVideo:
		// Throughput cost: ms-equivalent penalty inversely proportional
		// to the achievable rate, so a 4 Mbit/s path costs 100 ms-eq
		// more than an unconstrained one. Latency still matters for
		// stream start-up, at reduced weight.
		tp := cp.net.ThroughputMbps(a, b, 0)
		if tp <= 0 {
			tp = 0.1
		}
		return 0.5*ping + 400/tp
	case classApplication:
		// Loss cost: every percent of loss is worth ~40 ms-eq of
		// retransmission stalls on an interactive flow.
		return ping * (1 + 40*cp.net.Loss(a, b))
	default:
		return ping
	}
}
