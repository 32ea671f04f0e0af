//go:build linux && (amd64 || arm64)

package dnsserver

import (
	"net"
	"testing"
)

// TestBatchIOAllocatesNothing drives recvBatch and sendBatch directly, one
// datagram each way per round, and requires zero allocations per round:
// the headers, callbacks and result fields are built once per shard.
func TestBatchIOAllocatesNothing(t *testing.T) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	slots := make([]slot, batchSize)
	b, err := newBatchIO(srv, slots)
	if err != nil {
		t.Fatal(err)
	}
	ping, in := []byte("ping"), make([]byte, 16)
	slots[0].out = []byte("pong")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := client.Write(ping); err != nil {
			t.Fatal(err)
		}
		if n, err := b.recvBatch(); err != nil || n != 1 || slots[0].n != len(ping) {
			t.Fatalf("recvBatch = %d, %v (slot holds %d bytes)", n, err, slots[0].n)
		}
		if sent := b.sendBatch(1); sent != 1 {
			t.Fatalf("sendBatch sent %d, want 1", sent)
		}
		if n, err := client.Read(in); err != nil || string(in[:n]) != "pong" {
			t.Fatalf("client read %q, %v", in[:n], err)
		}
	})
	if allocs != 0 {
		t.Errorf("a recvBatch + sendBatch round allocates %.0f times, want 0", allocs)
	}
}
