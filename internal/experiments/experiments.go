// Package experiments reproduces every figure of the paper's evaluation:
// one exported function per figure, each returning the figure's rows/series
// as structured data plus a text table. The cmd/eumsim binary and the
// repository's benchmarks drive these functions.
//
// The per-experiment index in DESIGN.md maps each figure to the modules
// that implement it; EXPERIMENTS.md records paper-versus-measured values.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"eum/internal/cdn"
	"eum/internal/netmodel"
	"eum/internal/world"
)

// Lab bundles the substrate every experiment runs on: a generated world,
// a deployment universe, and the network model.
type Lab struct {
	World    *world.World
	Platform *cdn.Platform
	Net      *netmodel.Model
}

// Scale selects experiment fidelity.
type Scale int

// Scales: Small runs in seconds (unit tests, quick looks); Full is the
// benchmark scale used for EXPERIMENTS.md numbers; Huge is the
// million-block scale lab used by the snapshot-scale experiment — figure
// sweeps at Huge take a long time, it exists to exercise the mapping
// plane, not the figure battery.
const (
	Small Scale = iota
	Full
	Huge
)

// NewLab builds a lab at the given scale, deterministically from the seed.
func NewLab(scale Scale, seed int64) *Lab {
	blocks, deployments := 4000, 400
	switch scale {
	case Full:
		blocks, deployments = 20000, 2642
	case Huge:
		// A million client blocks approaches the paper's real universe
		// (7.6M /24s); 600 deployments keeps rank tables realistically
		// wide without the figure battery's full platform.
		blocks, deployments = 1_000_000, 600
	}
	w := world.MustGenerate(world.Config{Seed: seed, NumBlocks: blocks})
	p := cdn.MustGenerateUniverse(w, cdn.Config{Seed: seed, NumDeployments: deployments, ServersPerDeployment: 8})
	return &Lab{World: w, Platform: p, Net: netmodel.NewDefault()}
}

// Report is a figure reproduction: a caption and printable rows.
type Report struct {
	ID      string
	Caption string
	Columns []string
	Rows    [][]string
}

// Table renders the report as an aligned text table.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Caption)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return sb.String()
}

// row formats cells with %v convenience.
func row(cells ...any) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			out[i] = fmt.Sprintf("%.1f", v)
		case string:
			out[i] = v
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	return out
}

// sortedCountries returns the lab's countries ordered by descending value.
// Ties break on the country code: the input is a map, so without a total
// order equal-valued countries would come out in random iteration order.
func sortedCountries(vals map[string]float64) []string {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if vals[keys[i]] != vals[keys[j]] {
			return vals[keys[i]] > vals[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
