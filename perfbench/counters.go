package main

import (
	"runtime/metrics"
	"syscall"

	"boedag/internal/serve"
)

// counters is a scrape of the servers' own metrics registries (the
// /metrics series), summed over every server of a rig. Histograms
// contribute "<name>.sum" and "<name>.count".
type counters map[string]float64

var counterNames = []string{
	"http_requests", "http_rejected", "http_queued",
	"estimate_cache_hits", "estimate_cache_misses", "estimate_cache_evictions",
	"estimates_computed",
	"est_iterations", "est_states", "est_dist_solves", "est_dist_reuse",
	"fleet_local_served", "fleet_forwarded", "fleet_received",
	"fleet_fallback_local", "fleet_forward_errors", "fleet_forward_retries", "fleet_unroutable",
}

var histogramNames = []string{"phase_decode_s", "phase_estimate_s", "phase_encode_s", "queue_wait_s"}

func scrape(servers []*serve.Server) counters {
	c := counters{}
	for _, s := range servers {
		reg := s.Metrics()
		for _, name := range counterNames {
			c[name] += float64(reg.Counter(name).Value())
		}
		for _, name := range histogramNames {
			h := reg.Histogram(name)
			c[name+".sum"] += h.Sum()
			c[name+".count"] += float64(h.Count())
		}
	}
	return c
}

// delta returns after − before, series by series.
func (after counters) delta(before counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio is num/den, or 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// goRuntime samples the process-wide allocation and GC counters.
type goRuntime struct{ allocBytes, gcCycles float64 }

func readRuntime() goRuntime {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return goRuntime{allocBytes: float64(s[0].Value.Uint64()), gcCycles: float64(s[1].Value.Uint64())}
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
