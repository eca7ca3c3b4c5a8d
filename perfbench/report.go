package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"boedag/internal/obs"
)

// report gathers one run's measurements and prints them, every metric by
// name with its unit and every ratio with its base.
type report struct {
	w   *workload
	out io.Writer

	setups  []float64 // seconds
	peakRSS float64   // MB

	// window
	latMS      []float64 // sorted
	requests   int64
	failed     int64
	elapsedS   float64
	c          counters
	allocBytes float64
	gcCycles   float64

	// replay (trace 1)
	layer map[string]float64
}

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.out, format, args...) }

func (r *report) window(samples []sample, failed int64, elapsed time.Duration) {
	r.latMS = make([]float64, len(samples))
	for i, s := range samples {
		r.latMS[i] = float64(s.lat) / float64(time.Millisecond)
	}
	sort.Float64s(r.latMS)
	r.requests, r.failed, r.elapsedS = int64(len(samples)), failed, elapsed.Seconds()
	r.printf("window: %d requests in %.3f s, p50 %.4f ms p90 %.4f ms p99 %.4f ms (diagnostic) over %d samples\n",
		r.requests, r.elapsedS, rank(r.latMS, 0.5), rank(r.latMS, 0.9), rank(r.latMS, 0.99), len(r.latMS))
}

func (r *report) counters(c counters, rt1, rt0 goRuntime) {
	r.c = c
	r.allocBytes = rt1.allocBytes - rt0.allocBytes
	r.gcCycles = rt1.gcCycles - rt0.gcCycles
	lookups := c["estimate_cache_hits"] + c["estimate_cache_misses"]
	est := c["estimates_computed"]
	fleetReqs := c["fleet_forwarded"] + c["fleet_local_served"] + c["fleet_fallback_local"] + c["fleet_unroutable"]
	r.printf("counters over the window (summed over the rig's servers):\n")
	r.printf("  cache: hit ratio %.4f (base: %.0f lookups = %.0f hits + %.0f misses), %.0f evictions\n",
		ratio(c["estimate_cache_hits"], lookups), lookups, c["estimate_cache_hits"], c["estimate_cache_misses"],
		c["estimate_cache_evictions"])
	r.printf("  estimator: %.0f runs, %.2f states/run, %.2f iterations/run, dist reuse ratio %.4f (base: %.0f = %.0f solves + %.0f reuses)\n",
		est, ratio(c["est_states"], est), ratio(c["est_iterations"], est),
		ratio(c["est_dist_reuse"], c["est_dist_solves"]+c["est_dist_reuse"]),
		c["est_dist_solves"]+c["est_dist_reuse"], c["est_dist_solves"], c["est_dist_reuse"])
	r.printf("  serve: %.0f requests, %.0f rejected, %.0f queued (mean wait %.2f us); phase means: decode %.2f us, estimate %.2f us (base %.0f), encode %.2f us (base %.0f)\n",
		c["http_requests"], c["http_rejected"], c["http_queued"], 1e6*ratio(c["queue_wait_s.sum"], c["queue_wait_s.count"]),
		1e6*ratio(c["phase_decode_s.sum"], c["phase_decode_s.count"]),
		1e6*ratio(c["phase_estimate_s.sum"], c["phase_estimate_s.count"]), c["phase_estimate_s.count"],
		1e6*ratio(c["phase_encode_s.sum"], c["phase_encode_s.count"]), c["phase_encode_s.count"])
	if r.w.fleet {
		r.printf("  fleet: forward share %.4f (base: %.0f fleet requests = %.0f forwarded + %.0f local + %.0f fallback + %.0f unroutable), %.0f received, %.0f forward errors, %.0f retries\n",
			ratio(c["fleet_forwarded"], fleetReqs), fleetReqs, c["fleet_forwarded"], c["fleet_local_served"],
			c["fleet_fallback_local"], c["fleet_unroutable"], c["fleet_received"], c["fleet_forward_errors"],
			c["fleet_forward_retries"])
	}
	r.printf("  go runtime (whole process, client included): %.2f KiB allocated/request, %.3f GC cycles/1000 requests (base: %d requests)\n",
		ratio(r.allocBytes/1024, float64(r.requests)), ratio(1000*r.gcCycles, float64(r.requests)), r.requests)
}

func (r *report) endToEnd() map[string]metric {
	ok := float64(r.requests - r.failed)
	return map[string]metric{
		"throughput_rps": {ratio(ok, r.elapsedS), "1/s"},
		"latency_p50_ms": {rank(r.latMS, 0.5), "ms"},
		"latency_p90_ms": {rank(r.latMS, 0.9), "ms"},
		"setup_s":        {median(r.setups), "s"},
		"peak_rss_mb":    {r.peakRSS, "MB"},
	}
}

func (r *report) perLayer() map[string]metric {
	c := r.c
	est := c["estimates_computed"]
	m := map[string]metric{
		"serve.encode_us":               {1e6 * ratio(c["phase_encode_s.sum"], c["phase_encode_s.count"]), "us"},
		"serve.queue_wait_us":           {1e6 * ratio(c["queue_wait_s.sum"], c["queue_wait_s.count"]), "us"},
		"serve.rejected":                {c["http_rejected"], "count"},
		"evalpool.cache_hit_ratio":      {ratio(c["estimate_cache_hits"], c["estimate_cache_hits"]+c["estimate_cache_misses"]), "ratio"},
		"evalpool.cache_evictions":      {c["estimate_cache_evictions"], "count"},
		"statemodel.states_per_est":     {ratio(c["est_states"], est), "count"},
		"statemodel.iterations_per_est": {ratio(c["est_iterations"], est), "count"},
		"statemodel.dist_reuse_ratio":   {ratio(c["est_dist_reuse"], c["est_dist_solves"]+c["est_dist_reuse"]), "ratio"},
		"fleet.forward_share": {ratio(c["fleet_forwarded"],
			c["fleet_forwarded"]+c["fleet_local_served"]+c["fleet_fallback_local"]+c["fleet_unroutable"]), "ratio"},
		"fleet.fallback_local":  {c["fleet_fallback_local"], "count"},
		"fleet.forward_errors":  {c["fleet_forward_errors"], "count"},
		"go.alloc_kb_per_req":   {ratio(r.allocBytes/1024, float64(r.requests)), "KiB"},
		"go.gc_cycles_per_kreq": {ratio(1000*r.gcCycles, float64(r.requests)), "count"},
	}
	for name, v := range r.layer {
		unit := "us"
		switch name {
		case "boe.taskdist_calls_per_est":
			unit = "count"
		case "trace.overhead_share":
			unit = "ratio"
		}
		m[name] = metric{v, unit}
	}
	return m
}

// replay runs the traced, untraced and handler replays of the first
// len(bodies) requests and derives the replay-sourced per-layer metrics.
func (r *report) replay(w *workload, live *rig, bodies [][]byte, o *oracle, traceOut string) error {
	untraced, err := layerReplay(w, bodies, false)
	if err != nil {
		return err
	}
	traced, err := layerReplay(w, bodies, true)
	if err != nil {
		return err
	}
	handler, err := handlerReplay(w, bodies, o)
	if err != nil {
		return err
	}
	n := float64(len(bodies))
	// The remainder is defined as the handler time minus the traced layer
	// self times, so layers plus remainder equal the handler by
	// construction. serve.self_us instead subtracts the untraced layer
	// stack, so the span clocks do not bias it; a request whose handler
	// pass ran faster than its untraced pass reads negative.
	var sum [numLayers]time.Duration
	var remainder, serveSelf, handlerSum time.Duration
	negative := 0
	for i := range bodies {
		var layers time.Duration
		for l, d := range traced.self[i] {
			sum[l] += d
			layers += d
		}
		remainder += handler[i] - layers
		self := handler[i] - untraced.total[i]
		serveSelf += self
		if self < 0 {
			negative++
		}
		handlerSum += handler[i]
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	var tracedTotal, untracedTotal time.Duration
	for i := range bodies {
		tracedTotal += traced.total[i]
		untracedTotal += untraced.total[i]
	}
	handlerP50 := obs.Percentile(durations(handler, time.Microsecond), 0.5)
	e2eP50 := 1000 * rank(r.latMS, 0.5)
	r.layer = map[string]float64{
		"serve.handler_us":           handlerP50,
		"serve.decode_us":            us(sum[lDecode]),
		"serve.self_us":              us(serveSelf),
		"http.overhead_us":           e2eP50 - handlerP50,
		"experiments.build_us":       us(sum[lBuild]),
		"evalpool.plankey_us":        us(sum[lPlanKey]),
		"evalpool.cache_us":          us(sum[lCache]),
		"statemodel.estimate_us":     us(sum[lEstimate] + sum[lTaskDist]),
		"statemodel.self_us":         us(sum[lEstimate]),
		"boe.taskdist_us":            us(sum[lTaskDist]),
		"boe.taskdist_calls_per_est": ratio(float64(traced.calls), float64(traced.estimates)),
		"trace.overhead_share":       ratio(float64(tracedTotal-untracedTotal), float64(untracedTotal)),
		"fleet.hop_us":               0,
	}
	r.printf("replay of %d requests (no HTTP, one goroutine; per-request means unless noted):\n", len(bodies))
	r.printf("  serve.handler_us mean %.3f = decode %.3f + build %.3f + plankey %.3f + cache %.3f + estimate %.3f + taskdist %.3f (traced self times) + remainder %.3f (defined as handler minus those layers)\n",
		us(handlerSum), us(sum[lDecode]), us(sum[lBuild]), us(sum[lPlanKey]), us(sum[lCache]), us(sum[lEstimate]),
		us(sum[lTaskDist]), us(remainder))
	r.printf("  serve.self_us %.3f: handler minus the untraced layer stack (base: %d requests, %d of them negative)\n",
		us(serveSelf), len(bodies), negative)
	r.printf("  serve.handler_us p50 %.3f; end-to-end p50 %.3f us, so http.overhead_us %.3f\n", handlerP50, e2eP50, e2eP50-handlerP50)
	r.printf("  estimates %d of %d requests; boe.taskdist_calls_per_est %.1f (base: %d calls over %d estimates)\n",
		traced.estimates, len(bodies), r.layer["boe.taskdist_calls_per_est"], traced.calls, traced.estimates)
	r.printf("  trace.overhead_share %.4f (base: untraced replay %.3f ms, traced %.3f ms)\n",
		r.layer["trace.overhead_share"], ms(untracedTotal), ms(tracedTotal))
	if w.fleet {
		entry, owner, err := hopReplay(live, bodies)
		if err != nil {
			return err
		}
		hop := mean(durations(entry, time.Microsecond)) - mean(durations(owner, time.Microsecond))
		r.layer["fleet.hop_us"] = hop
		r.printf("  fleet.hop_us %.3f (base: %d non-owner requests; entry handler mean %.3f us, owner handler mean %.3f us)\n",
			hop, len(entry), mean(durations(entry, time.Microsecond)), mean(durations(owner, time.Microsecond)))
	}
	if traceOut != "" {
		if err := writeSpans(traceOut, traced.events); err != nil {
			return err
		}
		r.printf("  %d replay spans written to %s\n", len(traced.events), traceOut)
	}
	return nil
}

// rank is the nearest-rank percentile of sorted samples, the definition
// obs.Percentile uses. obs.Percentile copies its input; a copy of a
// 400k-request window's latencies is 3.2 MB that may or may not be
// collected before the process's peak RSS is read, which made
// peak_rss_mb switch between two levels from run to run.
func rank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(k, 1), len(sorted))-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// print lists the reported metrics by name, with units.
func (r *report) print(m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.printf("metric %-32s %14.6f %s\n", name, m[name].Value, m[name].Unit)
	}
}
