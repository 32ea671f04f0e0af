// Package procfs reads the per-process accounting the benchmark reports
// from /proc, and pins processes to CPU sets.
package procfs

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockTick is the unit of the CPU times in /proc/<pid>/stat: USER_HZ,
// which Linux fixes at 100 for every architecture Go supports.
const clockTick = 10 * time.Millisecond

// CPUTime returns the user plus system CPU time pid has used, all threads
// included. The kernel derives both from the scheduler's exact run time, so
// the sum is accurate to one tick.
func CPUTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

func parseStatCPU(stat string) (time.Duration, error) {
	// The command name (field 2) may hold spaces; fields count from
	// after its closing parenthesis. utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("procfs: malformed stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("procfs: malformed stat line %q", stat)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// Status is the part of /proc/<pid>/status the benchmark uses.
type Status struct {
	// PeakRSSKiB is VmHWM, the process's peak resident set.
	PeakRSSKiB int64
	// CPUsAllowed is Cpus_allowed_list, e.g. "0" or "1-3".
	CPUsAllowed string
	// Voluntary and Involuntary are context switches summed over the
	// process's threads.
	Voluntary, Involuntary int64
}

// ReadStatus reads pid's status, summing context switches over its threads.
func ReadStatus(pid int) (Status, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return Status{}, err
	}
	st := parseStatus(string(data))
	st.Voluntary, st.Involuntary = 0, 0
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return Status{}, err
	}
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		ts := parseStatus(string(data))
		st.Voluntary += ts.Voluntary
		st.Involuntary += ts.Involuntary
	}
	return st, nil
}

func parseStatus(status string) Status {
	var st Status
	for _, line := range strings.Split(status, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		val = strings.TrimSpace(val)
		num := func() int64 {
			n, _ := strconv.ParseInt(strings.TrimSuffix(val, " kB"), 10, 64)
			return n
		}
		switch key {
		case "VmHWM":
			st.PeakRSSKiB = num()
		case "Cpus_allowed_list":
			st.CPUsAllowed = val
		case "voluntary_ctxt_switches":
			st.Voluntary = num()
		case "nonvoluntary_ctxt_switches":
			st.Involuntary = num()
		}
	}
	return st
}

// CPUList formats CPU numbers the way taskset -c and Cpus_allowed_list do.
func CPUList(cpus []int) string {
	var b strings.Builder
	for i := 0; i < len(cpus); {
		j := i
		for j+1 < len(cpus) && cpus[j+1] == cpus[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(cpus[i]))
		if j > i {
			b.WriteString("-" + strconv.Itoa(cpus[j]))
		}
		i = j + 1
	}
	return b.String()
}

// ParseCPUList is the inverse of CPUList.
func ParseCPUList(list string) ([]int, error) {
	var cpus []int
	for _, part := range strings.Split(strings.TrimSpace(list), ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("procfs: bad cpu list %q", list)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil || b < a {
				return nil, fmt.Errorf("procfs: bad cpu list %q", list)
			}
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// PinSelf moves every thread of this process onto cpus. Threads the Go
// runtime starts later inherit the mask from the thread that creates them.
// The caller sizes GOMAXPROCS to match.
func PinSelf(cpus []int) error {
	var mask [16]uint64 // 1024 CPUs
	for _, c := range cpus {
		if c < 0 || c >= len(mask)*64 {
			return fmt.Errorf("procfs: cpu %d out of range", c)
		}
		mask[c/64] |= 1 << (c % 64)
	}
	// Twice: a thread created while the first pass ran, by a thread not
	// yet moved, is caught by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := filepath.Glob("/proc/self/task/*")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(filepath.Base(t))
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
				uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("procfs: sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}
