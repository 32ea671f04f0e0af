package faultnet

import (
	"errors"
	"net"
	"time"
)

// ErrPartitioned is returned by dials attempted while the injector is
// partitioned.
var ErrPartitioned = errors.New("faultnet: network partitioned")

// SetPartitioned severs (or heals) every transport drawing from this
// injector: while partitioned, wrapped connections drop all traffic in
// both directions and the dialer refuses new connections. Unlike the
// probabilistic faults, a partition is total and deterministic — it is
// the chaos primitive for "the MapMaker is unreachable" scenarios, where
// replicas must keep serving and walk the degradation ladder on their
// own.
func (in *Injector) SetPartitioned(v bool) {
	in.partitioned.Store(v)
}

// partitionDropSend implements the send-side partition check shared by
// PacketConn.WriteTo and Conn.Write.
func (in *Injector) partitionDropSend() bool {
	if !in.partitioned.Load() {
		return false
	}
	in.Stats.PartitionDropped.Add(1)
	return true
}

// dialPartitioned reports whether a dial must be refused, mirroring a
// connect that can never complete across the cut.
func (in *Injector) dialPartitioned(network, address string) error {
	if !in.partitioned.Load() {
		return nil
	}
	in.Stats.PartitionDropped.Add(1)
	return &net.OpError{Op: "dial", Net: network,
		Addr: strAddr{network, address}, Err: ErrPartitioned}
}

// strAddr is a minimal net.Addr for dial errors.
type strAddr struct{ net, addr string }

func (a strAddr) Network() string { return a.net }
func (a strAddr) String() string  { return a.addr }

// holdWhilePartitioned makes a blocked read behave like a dead wire
// instead of a tight poll loop: inbound packets arriving during the
// partition are consumed and dropped by the read loops, and this small
// sleep keeps those loops from spinning when traffic is heavy.
func holdWhilePartitioned() { time.Sleep(time.Millisecond) }
