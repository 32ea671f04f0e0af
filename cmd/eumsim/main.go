// Command eumsim regenerates the paper's figures from the synthetic
// reproduction. Each figure prints as a text table.
//
// Usage:
//
//	eumsim -fig all            # every figure at small scale
//	eumsim -fig 25 -scale full # one figure at benchmark scale
//	eumsim -list               # list available figures
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"eum/internal/experiments"
	"eum/internal/par"
)

// writeCSV emits one report as CSV with a leading comment row naming it.
func writeCSV(w io.Writer, rep *experiments.Report) error {
	fmt.Fprintf(w, "# %s: %s\n", rep.ID, rep.Caption)
	cw := csv.NewWriter(w)
	if err := cw.Write(rep.Columns); err != nil {
		return err
	}
	if err := cw.WriteAll(rep.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// runner produces one or more reports for a figure id.
type runner func(lab *experiments.Lab, scale experiments.Scale) ([]*experiments.Report, error)

// ecsTruncate is the -ecs-truncate flag value (validated in main before
// any figure runs), read by the ecsgrid figure.
var ecsTruncate uint8 = 20

var figures = map[string]struct {
	desc string
	run  runner
}{
	"2": {"client requests vs DNS queries", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep, err := experiments.Fig02QueryVolume(lab, s)
		return []*experiments.Report{rep}, err
	}},
	"5": {"client-LDNS distance histogram (all)", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.Fig05ClientLDNSHistogram(lab)
		return []*experiments.Report{rep}, nil
	}},
	"6": {"client-LDNS distance by country", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.Fig06DistanceByCountry(lab)
		return []*experiments.Report{rep}, nil
	}},
	"7": {"client-LDNS distance histogram (public resolvers)", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.Fig07PublicResolverHistogram(lab)
		return []*experiments.Report{rep}, nil
	}},
	"8": {"public resolver distance by country", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.Fig08PublicByCountry(lab)
		return []*experiments.Report{rep}, nil
	}},
	"9": {"public resolver adoption by country", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.Fig09PublicAdoption(lab)
		return []*experiments.Report{rep}, nil
	}},
	"10": {"client-LDNS distance vs AS size", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.Fig10DistanceByASSize(lab)
		return []*experiments.Report{rep}, nil
	}},
	"11": {"cluster radius and mean client-LDNS distance CDFs", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.Fig11ClusterRadius(lab)
		return []*experiments.Report{rep}, nil
	}},
	"12-20": {"roll-out RUM figures (volume, distance, RTT, TTFB, download)", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		rf, err := experiments.RunRolloutFigures(lab, s)
		if err != nil {
			return nil, err
		}
		return []*experiments.Report{
			rf.Fig12RUMVolume(),
			rf.Fig13MappingDistance(),
			rf.Fig15RTT(),
			rf.Fig17TTFB(),
			rf.Fig19Download(),
		}, nil
	}},
	"21": {"mapping unit coverage (/24 blocks vs LDNSes)", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.Fig21MappingUnitCoverage(lab)
		return []*experiments.Report{rep}, nil
	}},
	"22": {"mapping-unit prefix-length trade-off", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.Fig22PrefixTradeoff(lab)
		return []*experiments.Report{rep}, nil
	}},
	"23": {"DNS query rate across the roll-out", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep, err := experiments.Fig23QueryRateIncrease(lab, s)
		return []*experiments.Report{rep}, err
	}},
	"24": {"query-rate factor vs pair popularity", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep, err := experiments.Fig24PopularityFactor(lab, s)
		return []*experiments.Report{rep}, err
	}},
	"25": {"NS vs EU vs CANS latency by deployment count", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.Fig25DeploymentSweep(lab, experiments.DefaultFig25Config(s))
		return []*experiments.Report{rep}, nil
	}},
	"4.5": {"ECS adoption extrapolation (Section 4.5)", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.AdoptionExtrapolation(lab)
		return []*experiments.Report{rep}, nil
	}},
	"sec7": {"baseline mechanisms: ECS vs metafile vs HTTP redirect (Section 7)", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.BaselineMechanisms(lab)
		return []*experiments.Report{rep}, nil
	}},
	"flash": {"flash crowd: load balancing under a regional surge", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep, err := experiments.FlashCrowd(lab, "DE")
		return []*experiments.Report{rep}, err
	}},
	"4.4": {"path stability: AS crossings and loss under NS vs EU (Section 4.4)", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.PathStability(lab)
		return []*experiments.Report{rep}, nil
	}},
	"fresh": {"mapping quality vs measurement sweep interval", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.MeasurementFreshness(lab, s)
		return []*experiments.Report{rep}, nil
	}},
	"geoerr": {"EU mapping quality vs geolocation error", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.GeoErrorImpact(lab)
		return []*experiments.Report{rep}, nil
	}},
	"classes": {"per-traffic-class scoring functions (web / video / application)", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.TrafficClasses(lab)
		return []*experiments.Report{rep}, nil
	}},
	"overlay": {"overlay transport benefit for origin fetches", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep, err := experiments.OverlayBenefit(lab)
		return []*experiments.Report{rep}, err
	}},
	"sec8": {"broad ECS adoption what-if (Section 8)", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		rep, err := experiments.BroadRolloutReport(lab)
		return []*experiments.Report{rep}, err
	}},
	"scale": {"snapshot scale: build/republish times and resident memory", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep := experiments.SnapshotScale(lab, experiments.DefaultScaleConfig(s))
		return []*experiments.Report{rep}, nil
	}},
	"loadloop": {"closed-loop flash crowd: surge, spill, recede, reconverge", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep, err := experiments.ClosedLoopFlashCrowd(lab, experiments.ClosedLoopConfig{})
		return []*experiments.Report{rep}, err
	}},
	"brownout": {"deployment brownout under Zipf demand, by balance factor", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep, err := experiments.BrownoutZipf(lab, nil)
		return []*experiments.Report{rep}, err
	}},
	"frontier": {"balance-factor frontier: proximity cost vs load balance", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep, err := experiments.BalanceFrontier(lab, nil, "")
		return []*experiments.Report{rep}, err
	}},
	"rankregret": {"two-level rank rows: how deep picks go, and what a shared tail costs per step", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, reps, err := experiments.RankRegret(lab)
		return reps, err
	}},
	"ecsgrid": {"EU-mapping win by ECS adoption x prefix (-ecs-truncate sets the truncated cell)", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep, err := experiments.ECSGrid(lab, ecsTruncate)
		return []*experiments.Report{rep}, err
	}},
	"ampgrid": {"authoritative query amplification vs ECS prefix length", func(lab *experiments.Lab, s experiments.Scale) ([]*experiments.Report, error) {
		_, rep, err := experiments.AmpGrid(lab, nil)
		return []*experiments.Report{rep}, err
	}},
}

func main() {
	fig := flag.String("fig", "all", "figure to reproduce (e.g. 5, 12-20, 25, 4.5, all)")
	scaleName := flag.String("scale", "small", "small (seconds), full (benchmark scale), or huge (million-block lab)")
	seed := flag.Int64("seed", 1, "world generation seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"worker pool size for parallel sweeps (results are identical at any setting)")
	list := flag.Bool("list", false, "list available figures and exit")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables (for plotting)")
	truncate := flag.Int("ecs-truncate", 20,
		"truncated-ECS prefix length for the ecsgrid figure (1-24; /24 is the mapping unit)")
	flag.Parse()
	if *truncate < 1 || *truncate > 255 {
		fmt.Fprintf(os.Stderr, "-ecs-truncate %d out of range\n", *truncate)
		os.Exit(2)
	}
	if err := experiments.ValidateECSTruncation(uint8(*truncate)); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	ecsTruncate = uint8(*truncate)
	par.SetWorkers(*workers)

	if *list {
		ids := make([]string, 0, len(figures))
		for id := range figures {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Printf("  %-6s %s\n", id, figures[id].desc)
		}
		return
	}

	scale := experiments.Small
	switch {
	case strings.EqualFold(*scaleName, "full"):
		scale = experiments.Full
	case strings.EqualFold(*scaleName, "huge"):
		scale = experiments.Huge
	}
	fmt.Fprintf(os.Stderr, "building lab (scale=%s, seed=%d, workers=%d)...\n",
		*scaleName, *seed, par.Workers())
	labStart := time.Now()
	lab := experiments.NewLab(scale, *seed)
	fmt.Fprintf(os.Stderr, "lab built in %v\n", time.Since(labStart).Round(time.Millisecond))

	var ids []string
	if *fig == "all" {
		for id := range figures {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			return fmt.Sprintf("%5s", ids[i]) < fmt.Sprintf("%5s", ids[j])
		})
	} else {
		ids = []string{*fig}
	}

	for _, id := range ids {
		f, ok := figures[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q; try -list\n", id)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "running fig %s (%s)...\n", id, f.desc)
		figStart := time.Now()
		reps, err := f.run(lab, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fig %s done in %v\n", id, time.Since(figStart).Round(time.Millisecond))
		for _, rep := range reps {
			if *csvOut {
				if err := writeCSV(os.Stdout, rep); err != nil {
					fmt.Fprintf(os.Stderr, "fig %s: %v\n", id, err)
					os.Exit(1)
				}
			} else {
				fmt.Println(rep.Table())
			}
		}
	}
}
