package cdn

import (
	"fmt"
	"sync/atomic"
	"time"
)

// FaultInjector decides which servers are failed at a given simulated
// time. Implementations model crash/recovery schedules or random failure
// processes; the Monitor polls them the way the real platform's liveness
// probes poll machines (§2.2: "liveness and load information of all
// components ... is collected in real-time").
type FaultInjector interface {
	Failed(s *Server, now time.Time) bool
}

// ScheduledFaults fails specific servers during fixed windows.
type ScheduledFaults struct {
	// Windows maps server ID to down intervals [From, To).
	Windows map[uint64][]FaultWindow
}

// FaultWindow is one outage interval.
type FaultWindow struct {
	From, To time.Time
}

// Failed implements FaultInjector.
func (f *ScheduledFaults) Failed(s *Server, now time.Time) bool {
	for _, w := range f.Windows[s.ID] {
		if !now.Before(w.From) && now.Before(w.To) {
			return true
		}
	}
	return false
}

// Add schedules an outage for a server.
func (f *ScheduledFaults) Add(serverID uint64, from, to time.Time) {
	if f.Windows == nil {
		f.Windows = map[uint64][]FaultWindow{}
	}
	f.Windows[serverID] = append(f.Windows[serverID], FaultWindow{from, to})
}

// RandomFaults fails each server independently with probability P per
// probe epoch, deterministically in the server ID and epoch (so
// simulations are reproducible).
type RandomFaults struct {
	// P is the per-epoch failure probability.
	P float64
	// EpochLength quantises time into failure epochs (default 1h).
	EpochLength time.Duration
	// Seed decorrelates runs.
	Seed uint64
}

// Failed implements FaultInjector.
func (f *RandomFaults) Failed(s *Server, now time.Time) bool {
	el := f.EpochLength
	if el <= 0 {
		el = time.Hour
	}
	epoch := uint64(now.UnixNano() / int64(el))
	h := splitmix(s.ID ^ splitmix(epoch^f.Seed))
	u := float64(h>>11) / float64(1<<53)
	return u < f.P
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Monitor is the liveness-probing loop: on each interval it asks the fault
// injector about every server and updates platform liveness, notifying the
// listener about deployments whose live-server set changed (so scoring
// caches can be invalidated). A server flips on the first probe that
// disagrees with its current liveness.
type Monitor struct {
	platform *Platform
	faults   FaultInjector
	interval time.Duration
	onChange func(*Deployment)

	last time.Time
	// probes counts liveness probes issued. Atomic so a telemetry scrape
	// can read it while the monitor goroutine is mid-Tick.
	probes atomic.Uint64
	// transitions counts liveness flips actually applied (atomic, as
	// probes).
	transitions atomic.Uint64
}

// NewMonitor creates a liveness monitor. onChange may be nil. The interval
// defaults to 10 seconds of simulated time.
func NewMonitor(p *Platform, f FaultInjector, interval time.Duration, onChange func(*Deployment)) (*Monitor, error) {
	if p == nil || f == nil {
		return nil, fmt.Errorf("cdn: nil platform or fault injector")
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	return &Monitor{platform: p, faults: f, interval: interval, onChange: onChange}, nil
}

// Probes returns the number of liveness probes issued so far.
func (m *Monitor) Probes() uint64 { return m.probes.Load() }

// Transitions returns how many server liveness flips have been applied.
func (m *Monitor) Transitions() uint64 { return m.transitions.Load() }

// Tick probes all servers if the interval has elapsed, returning how many
// deployments changed liveness state (and false if it was not yet time).
func (m *Monitor) Tick(now time.Time) (changed int, probed bool) {
	if !m.last.IsZero() && now.Sub(m.last) < m.interval {
		return 0, false
	}
	m.last = now
	for _, d := range m.platform.Deployments {
		depChanged := false
		for _, s := range d.Servers {
			m.probes.Add(1)
			wantAlive := !m.faults.Failed(s, now)
			if s.Alive() == wantAlive {
				continue
			}
			s.SetAlive(wantAlive)
			m.transitions.Add(1)
			depChanged = true
		}
		if depChanged {
			changed++
			if m.onChange != nil {
				m.onChange(d)
			}
		}
	}
	return changed, true
}
