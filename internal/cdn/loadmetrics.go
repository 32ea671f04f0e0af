package cdn

import (
	"strings"

	"eum/internal/telemetry"
)

// RegisterLoadMetrics wires the platform's load/utilisation gauges into reg
// under the cdn_ namespace: platform-wide aggregates plus one utilisation
// gauge per deployment. Load and liveness are atomics, so scraping is safe
// beside live query traffic and the periodic load decay.
//
// The registry has no label support by design (see telemetry package doc),
// so per-deployment series are flat gauges with the deployment name mangled
// into the metric name, e.g. cdn_deployment_utilisation_US_0042.
func (p *Platform) RegisterLoadMetrics(reg *telemetry.Registry) {
	reg.Gauge("cdn_load_total",
		"Summed load across live servers, in demand units.", func() float64 {
			var sum float64
			for _, d := range p.Deployments {
				sum += d.Load()
			}
			return sum
		})
	reg.Gauge("cdn_capacity_total",
		"Summed live capacity across deployments (brownout-adjusted).",
		p.TotalCapacity)
	reg.Gauge("cdn_utilisation_max",
		"Highest per-deployment load/capacity ratio.", func() float64 {
			var max float64
			for _, d := range p.Deployments {
				if u := d.Utilisation(); u > max {
					max = u
				}
			}
			return max
		})
	reg.Gauge("cdn_utilisation_mean",
		"Mean per-deployment load/capacity ratio.", func() float64 {
			if len(p.Deployments) == 0 {
				return 0
			}
			var sum float64
			for _, d := range p.Deployments {
				sum += d.Utilisation()
			}
			return sum / float64(len(p.Deployments))
		})
	for _, d := range p.Deployments {
		d := d
		reg.Gauge("cdn_deployment_utilisation_"+metricName(d.Name),
			"Load/capacity ratio of deployment "+d.Name+".", d.Utilisation)
	}
}

// metricName mangles a deployment name into a legal Prometheus metric-name
// suffix: every character outside [a-zA-Z0-9_] becomes '_'.
func metricName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
