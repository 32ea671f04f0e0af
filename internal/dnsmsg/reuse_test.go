package dnsmsg

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// FuzzUnpackIntoReuse is the oracle for decoding into a reused message:
// one message decodes a, has a reply built from it, then decodes b. What
// it holds for b must equal a fresh Unpack(b), the reply it builds for b
// must pack to the same bytes as one built from the fresh message, and a
// name of a, once cloned out, must not change when b is decoded over it.
// Its seed corpus is checked in under testdata/fuzz.
func FuzzUnpackIntoReuse(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var m Message
		var kept []string
		fa, errA := Unpack(a)
		if err := UnpackInto(&m, a); (err == nil) != (errA == nil) {
			t.Fatalf("UnpackInto(a) err = %v, Unpack(a) err = %v", err, errA)
		}
		if errA == nil {
			kept = names(&m, strings.Clone)
			sameReply(t, &m, fa)
		}

		fb, errB := Unpack(b)
		if err := UnpackInto(&m, b); (err == nil) != (errB == nil) {
			t.Fatalf("UnpackInto(b) err = %v, Unpack(b) err = %v", err, errB)
		}
		if errB == nil {
			if got, want := exported(&m), exported(fb); !reflect.DeepEqual(got, want) {
				t.Fatalf("reused message decoded b as\n%v\nwant\n%v", &got, &want)
			}
			sameReply(t, &m, fb)
		}

		if errA == nil {
			if got := names(fa, nil); !reflect.DeepEqual(kept, got) {
				t.Fatalf("names cloned out of a became %q, Unpack(a) holds %q", kept, got)
			}
		}
	})
}

// names lists every name m's sections hold, each passed through keep when
// it is not nil.
func names(m *Message, keep func(string) string) []string {
	var out []string
	add := func(n Name) {
		if keep != nil {
			out = append(out, keep(string(n)))
		} else {
			out = append(out, string(n))
		}
	}
	for _, q := range m.Questions {
		add(q.Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			add(rr.Name)
		}
	}
	return out
}

// sameReply builds into the replies of got and want what an authority
// does — an A record per question and the ECS echo — and checks that the
// two pack alike.
func sameReply(t *testing.T, got, want *Message) {
	t.Helper()
	g, gerr := serveInto(got)
	w, werr := serveInto(want)
	if !bytes.Equal(g, w) || (gerr == nil) != (werr == nil) {
		t.Fatalf("reply from the reused message packs to %x (err %v), from a fresh one %x (err %v)", g, gerr, w, werr)
	}
}

func serveInto(q *Message) ([]byte, error) {
	r := q.Reply()
	r.Authoritative = true
	for i, qq := range q.Questions {
		r.AnswerA(qq.Name, uint32(i), netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}))
	}
	if ecs := q.ClientSubnet(); ecs != nil {
		r.EchoClientSubnet(ecs, ecs.SourcePrefix)
	}
	return r.Pack()
}

// exported is m's exported content, with empty sections as nil: a reused
// message keeps its slices' capacity where a fresh one has none.
func exported(m *Message) Message {
	return Message{
		Header:      m.Header,
		Questions:   orNil(m.Questions),
		Answers:     orNil(m.Answers),
		Authorities: orNil(m.Authorities),
		Additionals: orNil(m.Additionals),
		EDNS:        m.EDNS,
		UDPSize:     m.UDPSize,
		Options:     orNil(m.Options),
	}
}

func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// TestReplyOwnedByQuery pins what Reply's reuse promises: the same query
// hands back the same reply, reset, so nothing of an earlier answer leaks
// into the next.
func TestReplyOwnedByQuery(t *testing.T) {
	q := NewQuery(9, "a.example.net", TypeA)
	_ = q.SetClientSubnet(netip.MustParseAddr("203.0.113.0"), 24)
	r := q.Reply()
	r.AnswerA("a.example.net", 20, netip.MustParseAddr("192.0.2.1"))
	r.EchoClientSubnet(q.ClientSubnet(), 20)
	r.RCode = RCodeServerFailure

	r2 := q.Reply()
	if r2 != r {
		t.Fatal("a second Reply allocated a new message")
	}
	if r2.RCode != RCodeSuccess || len(r2.Answers) != 0 || len(r2.Options) != 0 || len(r2.Questions) != 1 {
		t.Fatalf("second reply not reset: %v", r2)
	}
	if q.ClientSubnet().ScopePrefix != 0 {
		t.Fatal("echoing into the reply changed the query's option")
	}
}
