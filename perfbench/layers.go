package main

import (
	"fmt"
	"path/filepath"
)

// perLayer lists the traced run's metrics. Every traced run reports all of
// them; a layer the workload does not exercise reads 0. Layer times are
// therefore given as shares of the measured wall time (the printed layer
// table has them in ms per operation), and only metrics every workload
// exercises are absolute times.
var perLayer = []struct{ name, unit string }{
	{"vm.busy_frac", "fraction"},
	{"trace.events_per_op", "count"},
	{"vm.elided_frac", "fraction"},
	{"vm.alloc_mb_per_op", "MB"},
	{"core.busy_frac", "fraction"},
	{"core.ns_per_event", "ns"},
	{"core.checkpoint_kb", "KB"},
	{"trace.bytes_per_event", "B"},
	{"trace.decode_frac", "fraction"},
	{"profio.busy_frac", "fraction"},
	{"fit.busy_frac", "fraction"},
	{"wire.blocked_frac", "fraction"},
	{"wire.bytes_per_event", "B"},
	{"client.attempts_per_session", "count"},
	{"server.sessions_shed", "count"},
	{"server.sessions_failed", "count"},
	{"replica.busy_frac", "fraction"},
	{"replica.replicates_per_session", "count"},
	{"repo.busy_frac", "fraction"},
	{"repo.saves_per_session", "count"},
	{"repo.snapshot_kb", "KB"},
	{"repo.loads_per_read", "count"},
	{"repo.dedup_frac", "fraction"},
	{"cluster.busy_frac", "fraction"},
	{"cluster.hops_per_read", "count"},
	{"op.self_frac", "fraction"},
	{"residual_frac", "fraction"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.peak_rss_mb", "MB"},
}

func perLayerNames() []string {
	names := make([]string, len(perLayer))
	for i, m := range perLayer {
		names[i] = m.name
	}
	return names
}

// layerMetrics holds a traced run's per-layer values by name.
type layerMetrics map[string]float64

// apply sets every per-layer metric, 0 where the workload has no value.
// Runtime metrics already set on o are kept.
func (l layerMetrics) apply(o *outcome) {
	for _, m := range perLayer {
		if v, ok := l[m.name]; ok {
			o.set(m.name, v, m.unit)
		} else if _, ok := o.metrics[m.name]; !ok {
			o.set(m.name, 0, m.unit)
		}
	}
}

// residualFrac is the loop wall time no operation covers, as a share.
func residualFrac(atts []attribution) float64 {
	var res, wall float64
	for _, a := range atts {
		res += float64(a.residual)
		wall += float64(a.wall)
	}
	if wall == 0 {
		return 0
	}
	return res / wall
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg runConfig, workload string) string {
	return filepath.Join(filepath.Dir(cfg.data), "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
}
