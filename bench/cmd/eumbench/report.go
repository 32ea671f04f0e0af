package main

import (
	"fmt"
	"io"
	"time"

	"eum/bench/internal/procfs"
)

// metric is one named measurement.
type metric struct {
	name, unit string
	value      float64
}

// metricSet keeps metrics in the order they were measured.
type metricSet []metric

func (s *metricSet) add(name, unit string, value float64) {
	*s = append(*s, metric{name, unit, value})
}

func (s metricSet) get(name string) (float64, bool) {
	for _, m := range s {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// report prints the run for a reader, then the result line for the driver.
func (r *run) report(w io.Writer) {
	fmt.Fprintf(w, "eumbench workload=%s seed=%d seconds=%d trace=%t wall=%.1fs\n",
		r.wl.name, r.seed, r.seconds, r.tr != nil, time.Since(r.began).Seconds())
	fmt.Fprintf(w, "  why: %s\n", r.wl.why)
	if r.pinned() {
		fmt.Fprintf(w, "  pinned=true server_cpus=%s generator_cpus=%s", procfs.CPUList(r.serveCPUs), procfs.CPUList(r.genCPUs))
	} else {
		fmt.Fprintf(w, "  pinned=false (one CPU: server and generator share it; numbers are not comparable with pinned runs)")
	}
	fmt.Fprintf(w, " traffic=loopback load=closed-loop\n")
	fmt.Fprintf(w, "  oracle: %d answers equal the mapping plane's; ops_attempted=%d ops_failed=%d\n",
		r.oracleChecked, r.attempted+uint64(r.oracleChecked), r.failed)

	printSet := func(title string, set metricSet) {
		fmt.Fprintf(w, "\n%s\n", title)
		for _, m := range set {
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", m.name, m.value, m.unit)
		}
	}
	printSet("end-to-end (gated by BENCHMARK.json's bounds)", r.e2e)
	printSet("per layer (no bound; -1 = the server no longer exports the counter)", r.layer)
	if r.tr != nil {
		r.printBudget(w)
	}
	fmt.Fprintln(w)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w, mustJSON(r.result()))
}

// printBudget lays the layer rows beside the end-to-end number they sum to.
func (r *run) printBudget(w io.Writer) {
	l := func(name string) float64 { v, _ := r.layer.get(name); return v }
	type row struct {
		name  string
		value float64
	}
	table := func(title, unit string, whole float64, rows ...row) {
		fmt.Fprintf(w, "\nbudget: %s = %.3f %s\n", title, whole, unit)
		sum := 0.0
		for _, r := range rows {
			sum += r.value
			fmt.Fprintf(w, "  %-34s %12.3f %s  %5.1f%%\n", r.name, r.value, unit, 100*r.value/whole)
		}
		fmt.Fprintf(w, "  %-34s %12.3f %s  %5.1f%%\n", "sum of rows", sum, unit, 100*sum/whole)
	}
	table("cpu_us_per_query (data plane; kernel_loop is the remainder)", "us", l("cpu_us_per_query"),
		row{"dnsmsg.unpack", l("dnsmsg.unpack_ns") / 1e3},
		row{"authority.serve", l("authority.serve_ns") / 1e3},
		row{"dnsmsg.pack", l("dnsmsg.pack_ns") / 1e3},
		row{"dnsserver.kernel_loop", l("dnsserver.kernel_loop_us")})
	table("propagate_full_ms (stages of the median traced full publish, after its build)", "ms", l("propagate_full_ms"),
		row{"mapwire.encode_full", l("mapwire.encode_full_ms")},
		row{"mapdist.http_full", l("mapdist.http_full_ms")},
		row{"mapwire.decode_full", l("mapwire.decode_full_ms")},
		row{"mapping.install", l("mapping.install_us") / 1e3})
	table("propagate_delta_ms (stages of the median traced delta publish)", "ms", l("propagate_delta_ms"),
		row{"mapmaker.sync (holds mapping's build)", l("mapmaker.sync_ms")},
		row{"mapwire.encode_delta", l("mapwire.encode_delta_us") / 1e3},
		row{"mapdist.http_delta", l("mapdist.http_delta_us") / 1e3},
		row{"mapwire.apply_delta", l("mapwire.apply_delta_us") / 1e3},
		row{"mapping.install", l("mapping.install_us") / 1e3})
}
