//go:build !linux || (!amd64 && !arm64)

package dnsserver

import "net"

// batched reports that this platform has no recvmmsg/sendmmsg wiring:
// every shard takes the single-datagram path, and what follows only
// satisfies the compiler.
const batched = false

type batchIO struct{}

func newBatchIO(*net.UDPConn, []slot) (*batchIO, error) { return nil, nil }

func (b *batchIO) recvBatch() (int, error) { return 0, nil }

func (b *batchIO) sendBatch(int) int { return 0 }
