package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eum/bench/internal/gen"
	"eum/bench/internal/layers"
	"eum/bench/internal/load"
	"eum/bench/internal/procfs"
)

// child is a server process under test, pinned to the serving CPU set.
type child struct {
	cmd   *exec.Cmd
	log   *os.File
	done  chan struct{} // closed once the process has been waited for
	dns   string        // UDP address queries go to
	admin string        // admin HTTP address, empty for the null server
}

// startPinned starts argv under taskset on cpus (unpinned when cpus is
// empty, the one-CPU fallback), logging to logPath.
func startPinned(cpus []int, logPath string, argv ...string) (*child, error) {
	if len(cpus) > 0 {
		argv = append([]string{"taskset", "-c", procfs.CPUList(cpus)}, argv...)
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	c := &child{cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// pid is the process measured. taskset execs its command, so the pid
// Start returned is the server's own.
func (c *child) pid() int { return c.cmd.Process.Pid }

// stop terminates the child and waits until it has ended.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.log.Close()
}

// exited reports whether the child has ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// freePort returns a loopback port free for both UDP and TCP (eumdns binds
// both on -addr).
func freePort() (int, error) {
	for try := 0; try < 20; try++ {
		t, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := t.Addr().(*net.TCPAddr).Port
		u, err := net.ListenPacket("udp", "127.0.0.1:"+strconv.Itoa(port))
		t.Close()
		if err == nil {
			u.Close()
			return port, nil
		}
	}
	return 0, errors.New("no loopback port free for both udp and tcp")
}

// serverConfig is the slice of eumdns's -config document the benchmark
// sets. Everything it leaves out keeps the product's default, which is
// what is measured.
type serverConfig struct {
	Zone           string  `json:"zone"`
	Policy         string  `json:"policy"`
	PartitionMiles float64 `json:"partition_miles,omitempty"`
	World          struct {
		Seed   int64 `json:"seed"`
		Blocks int   `json:"blocks"`
	} `json:"world"`
	Platform struct {
		Seed        int64 `json:"seed"`
		Deployments int   `json:"deployments"`
	} `json:"platform"`
}

// startReplica starts eumdns as a replica of the publisher p runs.
func (r *run) startReplica(p *plane) (*child, error) {
	spec := r.wl.spec(r.seed)
	cfg := serverConfig{Zone: layers.Zone, Policy: "eu", PartitionMiles: spec.PartitionMiles}
	cfg.World.Seed, cfg.World.Blocks = spec.Seed, spec.Blocks
	cfg.Platform.Seed, cfg.Platform.Deployments = spec.Seed, spec.Deployments
	doc, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(r.scratch, "eumdns-"+r.wl.name+".json")
	if err := os.WriteFile(cfgPath, doc, 0o644); err != nil {
		return nil, err
	}
	dnsPort, err := freePort()
	if err != nil {
		return nil, err
	}
	adminPort, err := freePort()
	if err != nil {
		return nil, err
	}
	c, err := startPinned(r.serveCPUs, filepath.Join(r.scratch, "eumdns-"+r.wl.name+".log"),
		r.eumdns, "-config", cfgPath,
		"-addr", "127.0.0.1:"+strconv.Itoa(dnsPort),
		"-admin", "127.0.0.1:"+strconv.Itoa(adminPort),
		"-mapmaker-addr", p.addr, "-map-fetch", "1s")
	if err != nil {
		return nil, err
	}
	c.dns = "127.0.0.1:" + strconv.Itoa(dnsPort)
	c.admin = "127.0.0.1:" + strconv.Itoa(adminPort)
	return c, nil
}

var adminClient = &http.Client{Timeout: 5 * time.Second}

func adminGet(addr, path string) (string, error) {
	resp, err := adminClient.Get("http://" + addr + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(body), nil
}

// servedEpoch asks /healthz which epoch the server answers from.
func servedEpoch(admin string) (uint64, error) {
	body, err := adminGet(admin, "/healthz")
	if err != nil {
		return 0, err
	}
	_, after, ok := strings.Cut(body, "map_epoch=")
	if !ok {
		return 0, fmt.Errorf("healthz has no map_epoch: %q", body)
	}
	return strconv.ParseUint(strings.TrimSpace(after), 10, 64)
}

// awaitReady waits until the replica serves the current epoch of p, its
// publisher, and answers a query from the workload's stream correctly.
func (r *run) awaitReady(c *child, p *plane, timeout time.Duration) error {
	want := p.system.Current().Epoch()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.exited() {
			return fmt.Errorf("eumdns exited during start-up; see %s", c.log.Name())
		}
		if epoch, err := servedEpoch(c.admin); err == nil && epoch == want {
			return r.oracle(c, p, 1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("eumdns not serving epoch %d after %v; see %s", want, timeout, c.log.Name())
}

// oracle sends the first n queries of the workload's stream, one at a time,
// and requires each answer's A records to be exactly what p, the harness's
// own mapping system, returns for the same query at the same epoch. The
// caller holds the epoch still.
func (r *run) oracle(c *child, p *plane, n int) error {
	conn, err := net.Dial("udp", c.dns)
	if err != nil {
		return err
	}
	defer conn.Close()
	snap := p.system.Current()
	stream := r.source.Stream(r.seed, 0)
	out := make([]byte, 0, gen.MaxPacket)
	in := make([]byte, 4096)
	var got []netip.Addr
	for i := 0; i < n; i++ {
		q := stream.Next()
		out = r.source.AppendPacket(out[:0], q)
		out[0], out[1] = byte(i>>8), byte(i)
		describe := fmt.Sprintf("query %d (%s, subnet %v)", i, gen.Name(q.Domain, layers.Zone), q.Subnet)
		if err := conn.SetDeadline(time.Now().Add(load.Timeout)); err != nil {
			return err
		}
		if _, err := conn.Write(out); err != nil {
			return err
		}
		m, err := conn.Read(in)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", describe, err)
		}
		if in[0] != out[0] || in[1] != out[1] {
			return fmt.Errorf("oracle: %s: reply carries another query's id", describe)
		}
		var ok bool
		if got, ok = load.Answers(in[:m], got[:0]); !ok {
			return fmt.Errorf("oracle: %s: not a NOERROR response (flags %02x%02x)", describe, in[2], in[3])
		}
		want, err := p.system.Answer(snap, gen.Name(q.Domain, layers.Zone), q.Subnet)
		if err != nil {
			return fmt.Errorf("oracle: %s: mapping system: %w", describe, err)
		}
		slices.SortFunc(got, netip.Addr.Compare)
		slices.SortFunc(want, netip.Addr.Compare)
		if !slices.Equal(got, want) {
			return fmt.Errorf("oracle: %s at epoch %d: wire answer %v, mapping system says %v",
				describe, snap.Epoch(), got, want)
		}
	}
	r.oracleChecked += n
	return nil
}

// scrapeMetrics reads /metrics into name → value, skipping histogram
// buckets and comments.
func scrapeMetrics(admin string) (map[string]float64, error) {
	body, err := adminGet(admin, "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// replicaSync is the sync block of a replica's /mapz.
type replicaSync struct {
	InstalledEpoch uint64 `json:"installed_epoch"`
	EpochLag       uint64 `json:"epoch_lag"`
	Failures       uint64 `json:"fetch_failures"`
	FullImages     uint64 `json:"full_images"`
	DeltaImages    uint64 `json:"delta_images"`
}

func scrapeSync(admin string) (replicaSync, error) {
	body, err := adminGet(admin, "/mapz")
	if err != nil {
		return replicaSync{}, err
	}
	var doc struct {
		Sync *replicaSync `json:"sync"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return replicaSync{}, err
	}
	if doc.Sync == nil {
		return replicaSync{}, errors.New("/mapz has no sync block: the server is not a replica")
	}
	return *doc.Sync, nil
}

// gcStats reads the garbage collector's cycle count and total pause from
// the runtime.MemStats dump at the end of /debug/pprof/heap?debug=1.
type gcStats struct {
	cycles  int64
	pauseNs []int64 // the runtime's ring of the last 256 pauses
}

func scrapeGC(admin string) (gcStats, error) {
	body, err := adminGet(admin, "/debug/pprof/heap?debug=1")
	if err != nil {
		return gcStats{}, err
	}
	var g gcStats
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "# NumGC = "):
			g.cycles, _ = strconv.ParseInt(strings.TrimPrefix(line, "# NumGC = "), 10, 64)
		case strings.HasPrefix(line, "# PauseNs = ["):
			for _, f := range strings.Fields(strings.Trim(strings.TrimPrefix(line, "# PauseNs = "), "[]")) {
				v, _ := strconv.ParseInt(f, 10, 64)
				g.pauseNs = append(g.pauseNs, v)
			}
		}
	}
	if len(g.pauseNs) == 0 {
		return g, errors.New("heap profile carries no MemStats dump")
	}
	return g, nil
}

// pauseSince sums the pauses of the cycles after before. ok is false when
// more cycles ran than the runtime's ring remembers.
func (after gcStats) pauseSince(before gcStats) (total time.Duration, ok bool) {
	n := int64(len(after.pauseNs))
	if after.cycles-before.cycles > n {
		return 0, false
	}
	for c := before.cycles + 1; c <= after.cycles; c++ {
		// Cycle c's pause sits at (c+n-1) mod n (runtime.MemStats.PauseNs).
		total += time.Duration(after.pauseNs[(c+n-1)%n])
	}
	return total, true
}
