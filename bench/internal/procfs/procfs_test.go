package procfs

import (
	"os"
	"reflect"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a parenthesis, as the kernel prints it.
	line := "4242 (my (odd) name) S 1 4242 4242 0 -1 4194560 1 2 3 4 150 50 0 0 20 0 5 0 100 1000 10"
	got, err := parseStatCPU(line)
	if err != nil || got != 2*time.Second {
		t.Fatalf("parseStatCPU = %v, %v; want 2s (utime 150 + stime 50 ticks)", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestParseStatus(t *testing.T) {
	st := parseStatus("Name:\teumdns\nVmHWM:\t  423936 kB\nCpus_allowed_list:\t0-1,4\n" +
		"voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t7\n")
	want := Status{PeakRSSKiB: 423936, CPUsAllowed: "0-1,4", Voluntary: 12, Involuntary: 7}
	if st != want {
		t.Fatalf("parseStatus = %+v, want %+v", st, want)
	}
}

func TestCPUListRoundTrip(t *testing.T) {
	for _, c := range []struct {
		cpus []int
		list string
	}{{[]int{0}, "0"}, {[]int{0, 1, 2, 3}, "0-3"}, {[]int{0, 1, 4, 6, 7}, "0-1,4,6-7"}} {
		if got := CPUList(c.cpus); got != c.list {
			t.Errorf("CPUList(%v) = %q, want %q", c.cpus, got, c.list)
		}
		got, err := ParseCPUList(c.list + "\n")
		if err != nil || !reflect.DeepEqual(got, c.cpus) {
			t.Errorf("ParseCPUList(%q) = %v, %v; want %v", c.list, got, err, c.cpus)
		}
	}
	for _, bad := range []string{"", "a", "3-1", "1-"} {
		if _, err := ParseCPUList(bad); err == nil {
			t.Errorf("ParseCPUList(%q) accepted", bad)
		}
	}
}

// The readers against this very process: CPU time grows when CPU is burnt,
// and the status carries a peak RSS and a CPU list.
func TestReadSelf(t *testing.T) {
	pid := os.Getpid()
	before, err := CPUTime(pid)
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 60*time.Millisecond; {
	}
	after, err := CPUTime(pid)
	if err != nil {
		t.Fatal(err)
	}
	if after-before < 2*clockTick {
		t.Errorf("burnt 60ms of CPU, CPUTime grew by %v", after-before)
	}
	st, err := ReadStatus(pid)
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakRSSKiB <= 0 || st.CPUsAllowed == "" {
		t.Errorf("ReadStatus(self) = %+v: want a peak RSS and a CPU list", st)
	}
	if _, err := ParseCPUList(st.CPUsAllowed); err != nil {
		t.Errorf("kernel's own CPU list %q does not parse: %v", st.CPUsAllowed, err)
	}
}
