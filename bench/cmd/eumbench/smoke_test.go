package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke builds the real eumdns and the harness, runs hot_zipf with two
// seconds of load against the server as a child process, and checks the
// result line against BENCHMARK.json: every end-to-end metric present with
// its unit, names well formed, nothing failed. It is what `bash
// bench/run.sh` does, shortened, and short enough to run under -short.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	build := func(workdir, out, pkg string) {
		t.Helper()
		cmd := exec.Command("go", "build", "-o", out, pkg)
		cmd.Dir = workdir
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, msg)
		}
	}
	eumdns, eumbench := filepath.Join(dir, "eumdns"), filepath.Join(dir, "eumbench")
	build(root, eumdns, "./cmd/eumdns")
	build(filepath.Join(root, "bench"), eumbench, "./cmd/eumbench")

	var stdout, stderr bytes.Buffer
	cmd := exec.Command(eumbench, "-eumdns", eumdns, "-scratch", dir, "-out", dir,
		"-workload", "hot_zipf", "-seed", "5", "-seconds", "2", "-trace", "0")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("eumbench: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < oracleQueries {
		t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}

	doc, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(doc, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range bf.EndToEnd {
		got, ok := res.Metrics[m.Name]
		switch {
		case !name.MatchString(m.Name):
			t.Errorf("metric name %q is malformed", m.Name)
		case !ok:
			t.Errorf("result lacks end-to-end metric %s", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case got.Value <= 0:
			t.Errorf("%s = %v: end-to-end metrics are never zero", m.Name, got.Value)
		}
	}
	if len(res.Metrics) != len(bf.EndToEnd) {
		t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(bf.EndToEnd))
	}
	for _, w := range bf.Workloads {
		if wl, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the harness does not have", w.Name)
		} else if wl.why != w.Why {
			t.Errorf("%s: BENCHMARK.json's why differs from the harness's", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
}
