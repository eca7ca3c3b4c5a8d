package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"time"

	"boedag/internal/boe"
	"boedag/internal/evalpool"
	"boedag/internal/experiments"
	"boedag/internal/obs"
	"boedag/internal/statemodel"
)

// The traced replay re-executes a prefix of the run's request sequence
// with no HTTP and no concurrency, outside the measured window. It
// calls each layer's public functions in the order the server's
// /v1/estimate handler does and times them:
//
//	decode   serve.DecodeEstimateRequest
//	build    experiments.BuildNamed
//	plankey  evalpool.PlanKey (on the unwrapped estimator)
//	cache    evalpool.Cache.DoContext, minus the estimate it runs
//	estimate statemodel.Estimator.Estimate, minus its task-time solves
//	taskdist statemodel.BOETimer.TaskDist (boe model + fair-share solve)
//
// A second pass through the server's own handler (response recorder,
// no socket) gives serve.handler_us. An untraced pass of the same layer
// calls prices the tracing, and the handler time minus that untraced
// stack is serve's own time (middleware, encode, write).

// Layer indices of one replayed request's self times.
const (
	lDecode = iota
	lBuild
	lPlanKey
	lCache
	lEstimate
	lTaskDist
	numLayers
)

// timedTimer wraps the BOE timer to time every task-time solve. It
// forwards DistFingerprint, so the estimator's dist cache stays on and
// the replay runs the same program the server runs.
type timedTimer struct {
	inner *statemodel.BOETimer
	calls int64
	dur   time.Duration
}

func (t *timedTimer) TaskDist(jobID string, groups []boe.TaskGroup, self int) statemodel.TaskTimeDist {
	t0 := time.Now()
	d := t.inner.TaskDist(jobID, groups, self)
	t.dur += time.Since(t0)
	t.calls++
	return d
}

func (t *timedTimer) DistFingerprint() (uint64, bool, bool) { return t.inner.DistFingerprint() }

// replayed is one variant's per-request results.
type replayed struct {
	self      [][numLayers]time.Duration // traced: per-layer self time
	total     []time.Duration            // every variant: whole request
	estimates int64
	calls     int64 // TaskDist calls
	events    []obs.Event
}

// replayer holds the state one layer-replay variant mutates.
type replayer struct {
	cache *evalpool.Cache[[]byte]
	reg   *obs.Registry
}

// resetPools drops the estimator's pooled scratch arenas (sync.Pool
// empties over two collections), so every variant starts from the same
// cold task-time dist cache and warms it in the same order.
func resetPools() {
	runtime.GC()
	runtime.GC()
}

// newReplayer mirrors a fresh server: an empty response cache with the
// server's bound, primed with the hit keyspace when the workload is a
// hit workload.
func newReplayer(w *workload) (*replayer, error) {
	rp := &replayer{
		cache: evalpool.NewCache[[]byte]().WithCapacity(cacheEntries),
		reg:   obs.NewRegistry(),
	}
	if w.hit {
		for _, b := range hitKeyspace() {
			if _, err := rp.run(b, nil, 0, nil); err != nil {
				return nil, err
			}
		}
	}
	return rp, nil
}

var placeholder = []byte("{}")

// run executes one request through the layers. With self == nil it is
// the untraced variant: no per-layer clocks, no spans, the bare timer.
func (rp *replayer) run(body []byte, self *[numLayers]time.Duration, seq int, out *replayed) (time.Duration, error) {
	ctx := context.Background()
	if self == nil {
		t0 := time.Now()
		req, apiErr := decode(body)
		if apiErr != nil {
			return 0, apiErr
		}
		flow, est, err := scenario(req, rp.reg)
		if err != nil {
			return 0, err
		}
		key, ok := evalpool.PlanKey(est, flow)
		if !ok {
			return 0, fmt.Errorf("unkeyable scenario %s", body)
		}
		_, err = rp.cache.DoContext(ctx, key, func() ([]byte, error) {
			_, err := est.Estimate(flow)
			return placeholder, err
		})
		return time.Since(t0), err
	}

	t0 := time.Now()
	req, apiErr := decode(body)
	t1 := time.Now()
	if apiErr != nil {
		return 0, apiErr
	}
	cfg, err := scenarioConfig(req)
	if err != nil {
		return 0, err
	}
	wf, err := experiments.BuildNamed(req.Workflow, cfg)
	t2 := time.Now()
	if err != nil {
		return 0, err
	}
	est := estimator(req, cfg, rp.reg) // serve's own work: not a layer
	t3 := time.Now()
	key, ok := evalpool.PlanKey(est, wf)
	t4 := time.Now()
	if !ok {
		return 0, fmt.Errorf("unkeyable scenario %s", body)
	}
	timed := &timedTimer{inner: est.Timer.(*statemodel.BOETimer)}
	var te0, te1 time.Time
	_, err = rp.cache.DoContext(ctx, key, func() ([]byte, error) {
		te0 = time.Now()
		_, err := statemodel.New(est.Spec, timed, est.Opt).Estimate(wf)
		te1 = time.Now()
		return placeholder, err
	})
	t5 := time.Now()
	if err != nil {
		return 0, err
	}
	estDur := te1.Sub(te0)
	self[lDecode] = t1.Sub(t0)
	self[lBuild] = t2.Sub(t1)
	self[lPlanKey] = t4.Sub(t3)
	self[lCache] = t5.Sub(t4) - estDur
	self[lEstimate] = estDur - timed.dur
	self[lTaskDist] = timed.dur
	if out != nil {
		if !te0.IsZero() {
			out.estimates++
			out.calls += timed.calls
		}
		span := func(name string, from time.Time, d time.Duration, v float64) {
			out.events = append(out.events, obs.Event{Type: obs.EvRequestPhase, Time: from.Sub(replayEpoch).Seconds(),
				Dur: d.Seconds(), Detail: name, Seq: seq, Task: -1, Value: v})
		}
		out.events = append(out.events, obs.Event{Type: obs.EvRequest, Time: t0.Sub(replayEpoch).Seconds(),
			Dur: t5.Sub(t0).Seconds(), Detail: "replay /v1/estimate", Seq: seq, Task: -1, Value: http.StatusOK})
		span("decode", t0, self[lDecode], 0)
		span("build", t1, self[lBuild], 0)
		span("plankey", t3, self[lPlanKey], 0)
		span("cache", t4, t5.Sub(t4), 0)
		if !te0.IsZero() {
			span("estimate", te0, estDur, 0)
			// Task-time solves are many and short: one aggregate span per
			// request, Value = the number of solves.
			span("taskdist", te0, timed.dur, float64(timed.calls))
		}
	}
	return t5.Sub(t0), nil
}

var replayEpoch = time.Now()

// layerReplay runs bodies through one fresh replayer.
func layerReplay(w *workload, bodies [][]byte, traced bool) (*replayed, error) {
	resetPools()
	rp, err := newReplayer(w)
	if err != nil {
		return nil, err
	}
	out := &replayed{total: make([]time.Duration, len(bodies))}
	if traced {
		out.self = make([][numLayers]time.Duration, len(bodies))
		out.events = make([]obs.Event, 0, 8*len(bodies))
	}
	for i, b := range bodies {
		var self *[numLayers]time.Duration
		if traced {
			self = &out.self[i]
		}
		if out.total[i], err = rp.run(b, self, i+1, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// handlerReplay times the server's own handler, with no socket, on a
// fresh server (primed for hit workloads), and checks its answers.
func handlerReplay(w *workload, bodies [][]byte, o *oracle) ([]time.Duration, error) {
	resetPools()
	s, err := newServer()
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	if w.hit {
		for _, b := range hitKeyspace() {
			if status, _ := serveDirect(h, b); status != http.StatusOK {
				return nil, fmt.Errorf("priming the handler replay: status %d for %s", status, b)
			}
		}
	}
	out := make([]time.Duration, len(bodies))
	for i, b := range bodies {
		status, resp, d := timedServe(h, b)
		out[i] = d
		if status != http.StatusOK || (o.refs != nil && !bytes.Equal(resp, o.refs[o.keys[i]])) {
			return nil, fmt.Errorf("handler replay of request %d: wrong answer (status %d)", i, status)
		}
	}
	return out, nil
}

// hopReplay times, for each replayed fleet request whose entry node does
// not own its key, the entry node's handler (which forwards one hop to
// the owner) against the owner's own handler on the same body.
func hopReplay(r *rig, bodies [][]byte) (entry, owner []time.Duration, err error) {
	for i, b := range bodies {
		key, ok := r.servers[0].RouteKey("/v1/estimate", b)
		if !ok {
			return nil, nil, fmt.Errorf("request %d has no route key", i)
		}
		own := slices.Index(r.ids, r.nodes[0].Ring().Owner(key))
		in := i % len(r.nodes)
		if own == in {
			continue
		}
		s1, _, d1 := timedServe(r.nodes[in].Handler(), b)
		s2, _, d2 := timedServe(r.nodes[own].Handler(), b)
		if s1 != http.StatusOK || s2 != http.StatusOK {
			return nil, nil, fmt.Errorf("hop replay of request %d: status %d/%d", i, s1, s2)
		}
		entry, owner = append(entry, d1), append(owner, d2)
	}
	return entry, owner, nil
}

// timedServe is serveDirect timed from the handler call to its return;
// building the request and recorder is not part of it.
func timedServe(h http.Handler, body []byte) (int, []byte, time.Duration) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	return rec.Code, rec.Body.Bytes(), d
}

// writeSpans exports the traced replay's spans as a Chrome trace.
func writeSpans(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
