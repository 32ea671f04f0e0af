// Package gen makes the query stream: which name, which client subnet and
// which prefix length each query carries. The stream is a pure function of
// the mix, the block list and the seed, so two runs with one seed offer the
// server byte-identical packets (apart from the DNS ID, which the sender
// assigns).
package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"net/netip"
	"sort"
)

// Mix says how a workload draws its queries: the distributions are the
// workload, everything else in the benchmark is shared.
type Mix struct {
	// Domains is how many names e0000…e<n-1> under b.<zone> are queried.
	Domains int
	// ZipfS is the exponent of the domain popularity law; 0 draws
	// domains uniformly.
	ZipfS float64
	// ECSShare is the share of queries carrying a client subnet.
	ECSShare float64
	// ByDemand draws the subnet's block in proportion to its demand;
	// otherwise blocks are drawn uniformly.
	ByDemand bool
	// TruncShare is the share of ECS queries whose /24 is truncated to
	// a /20, as a privacy-limiting public resolver sends it.
	TruncShare float64
}

// Block is a client /24 and its share of demand.
type Block struct {
	Prefix netip.Prefix
	Demand float64
}

// Query is one drawn query.
type Query struct {
	Domain int
	// Subnet is the zero Prefix when the query carries no ECS option.
	Subnet netip.Prefix
}

// Name returns the query name (without trailing dot) for a domain index.
func Name(domain int, zone string) string {
	var d [4]byte
	digits(d[:], domain)
	return "e" + string(d[:]) + ".b." + zone
}

func digits(dst []byte, n int) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + n%10)
		n /= 10
	}
}

// Source holds what every stream of one workload shares: the cumulative
// distributions and the packet template.
type Source struct {
	mix       Mix
	prefixes  []netip.Prefix
	domainCDF []float64 // nil for uniform
	blockCDF  []float64 // nil for uniform
	qname     []byte    // wire form of e0000.b.<zone>
}

// NewSource prepares the distributions for a mix over the given blocks.
// Only IPv4 blocks are drawn (the benchmark's worlds have no others).
func NewSource(mix Mix, blocks []Block, zone string) *Source {
	s := &Source{mix: mix, qname: wireName(Name(0, zone))}
	var demand []float64
	for _, b := range blocks {
		if b.Prefix.Addr().Is4() {
			s.prefixes = append(s.prefixes, b.Prefix)
			demand = append(demand, b.Demand)
		}
	}
	if mix.ByDemand {
		s.blockCDF = cumulative(demand)
	}
	if mix.ZipfS > 0 {
		w := make([]float64, mix.Domains)
		for i := range w {
			w[i] = math.Pow(float64(i+1), -mix.ZipfS)
		}
		s.domainCDF = cumulative(w)
	}
	return s
}

func cumulative(w []float64) []float64 {
	cdf := make([]float64, len(w))
	sum := 0.0
	for i, x := range w {
		sum += x
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[len(cdf)-1] = 1
	return cdf
}

// Stream is one socket's query sequence.
type Stream struct {
	src   *Source
	state uint64
}

// Stream returns the query sequence for (seed, socket). Sockets get
// decorrelated sequences from one seed.
func (s *Source) Stream(seed int64, socket int) *Stream {
	st := &Stream{src: s, state: uint64(seed)*0x9e3779b97f4a7c15 + uint64(socket)*0xbf58476d1ce4e5b9}
	st.next() // decorrelate nearby seeds
	return st
}

// next is SplitMix64.
func (st *Stream) next() uint64 {
	st.state += 0x9e3779b97f4a7c15
	z := st.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (st *Stream) unit() float64 { return float64(st.next()>>11) / (1 << 53) }

func pick(cdf []float64, n int, u float64) int {
	if cdf == nil {
		return int(u * float64(n))
	}
	return sort.SearchFloat64s(cdf, u)
}

// Next draws the next query. Every query consumes the same four draws, so
// the choice of domain never shifts the choice of block.
func (st *Stream) Next() Query {
	s := st.src
	uDomain, uECS, uBlock, uTrunc := st.unit(), st.unit(), st.unit(), st.unit()
	q := Query{Domain: pick(s.domainCDF, s.mix.Domains, uDomain)}
	if uECS < s.mix.ECSShare {
		q.Subnet = s.prefixes[pick(s.blockCDF, len(s.prefixes), uBlock)]
		if uTrunc < s.mix.TruncShare {
			q.Subnet = netip.PrefixFrom(q.Subnet.Addr(), 20).Masked()
		}
	}
	return q
}

// FNV digests the first n packets of stream (seed, 0): equal digests mean
// two runs offered the server the same input.
func (s *Source) FNV(seed int64, n int) uint64 {
	st := s.Stream(seed, 0)
	h := fnv.New64a()
	buf := make([]byte, 0, MaxPacket)
	for i := 0; i < n; i++ {
		buf = s.AppendPacket(buf[:0], st.Next())
		h.Write(buf)
	}
	return h.Sum64()
}

// MaxPacket bounds the size of a generated query.
const MaxPacket = 128

// AppendPacket appends the wire form of q with DNS ID 0: a standard query,
// one A question, an EDNS0 OPT record advertising 1232 bytes, and the
// RFC 7871 client-subnet option when q has a subnet.
func (s *Source) AppendPacket(buf []byte, q Query) []byte {
	buf = append(buf, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1) // ID, flags, QD=1, AN, NS, AR=1
	at := len(buf)
	buf = append(buf, s.qname...)
	digits(buf[at+2:at+6], q.Domain) // label is 'e' + four digits
	buf = append(buf, 0, 1, 0, 1)    // QTYPE A, QCLASS IN
	// OPT: root name, TYPE 41, CLASS = UDP size, TTL = ext-rcode/version/flags.
	buf = append(buf, 0, 0, 41, 0x04, 0xd0, 0, 0, 0, 0)
	if !q.Subnet.IsValid() {
		return append(buf, 0, 0)
	}
	bits := q.Subnet.Bits()
	nAddr := (bits + 7) / 8
	a4 := q.Subnet.Addr().As4()
	buf = binary.BigEndian.AppendUint16(buf, uint16(8+nAddr)) // RDLEN
	buf = append(buf, 0, 8)                                   // OPTION-CODE 8
	buf = binary.BigEndian.AppendUint16(buf, uint16(4+nAddr)) // OPTION-LENGTH
	buf = append(buf, 0, 1, byte(bits), 0)                    // FAMILY 1, SOURCE, SCOPE 0
	return append(buf, a4[:nAddr]...)
}

func wireName(name string) []byte {
	var out []byte
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			out = append(out, byte(i-start))
			out = append(out, name[start:i]...)
			start = i + 1
		}
	}
	return append(out, 0)
}
