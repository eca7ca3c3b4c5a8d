package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"

	"boedag/internal/evalpool"
)

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newRequests(w, 7, 300), newRequests(w, 7, 300), newRequests(w, 8, 300)
		differs := false
		for i := 0; i < a.len(); i++ {
			if !bytes.Equal(a.body(i), b.body(i)) {
				t.Fatalf("%s: request %d differs between two runs of seed 7", w.name, i)
			}
			differs = differs || !bytes.Equal(a.body(i), c.body(i))
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", w.name)
		}
	}
}

// planKey is the response-cache key of a body, as the replay computes it.
func planKey(t *testing.T, body []byte) string {
	t.Helper()
	req, apiErr := decode(body)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	flow, est, err := scenario(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := evalpool.PlanKey(est, flow)
	if !ok {
		t.Fatalf("%s: no plan key", body)
	}
	return key
}

func TestMissWorkloadsHaveDistinctPlanKeys(t *testing.T) {
	for name, n := range map[string]int{"registry-miss": 3000, "synth-miss": 300} {
		w := mustWorkload(t, name)
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			seen[planKey(t, w.gen(11, i))] = true
		}
		if share := float64(len(seen)) / float64(n); share < 0.99 {
			t.Errorf("%s: only %.4f of the first %d requests have distinct plan keys", name, share, n)
		}
	}
}

func TestReplayKeyIsServerKey(t *testing.T) {
	s, err := newServer()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for i := 0; i < 20; i++ {
			body := w.gen(3, i)
			want, ok := s.RouteKey("/v1/estimate", body)
			if !ok || planKey(t, body) != want {
				t.Fatalf("%s request %d: replay key differs from the server's cache key", w.name, i)
			}
		}
	}
}

func TestHitKeyspaceIsPrimed(t *testing.T) {
	if n := len(hitKeyspace()); n != 132 {
		t.Fatalf("hit keyspace has %d keys, want 132", n)
	}
	keys := map[string]bool{}
	for _, b := range hitKeyspace() {
		keys[planKey(t, b)] = true
	}
	if len(keys) != 132 {
		t.Fatalf("hit keyspace has %d distinct plan keys, want 132", len(keys))
	}
	for _, name := range []string{"registry-hit", "fleet-hit"} {
		w := mustWorkload(t, name)
		r, err := setUp(context.Background(), w, options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := scrape(r.servers)
		body := func(i int) []byte { return hitKeyspace()[i] }
		_, bad, _ := r.sendAll(context.Background(), len(keys), body, func(_, status int, _ []byte) bool { return status == 200 })
		d := scrape(r.servers).delta(before)
		r.close()
		if bad != 0 || d["estimate_cache_hits"] != 132 || d["estimate_cache_misses"] != 0 {
			t.Errorf("%s: after set-up the keyspace gave %v hits, %v misses, %d failures; want 132, 0, 0",
				name, d["estimate_cache_hits"], d["estimate_cache_misses"], bad)
		}
	}
}

func flip(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)/2] ^= 1
	return out
}

func TestOracleCatchesFlippedByte(t *testing.T) {
	hit := mustWorkload(t, "registry-hit")
	seq := newRequests(hit, 5, 10)
	o, err := newOracle(hit, seq, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := o.refs[seq.keys[3]]
	if !o.check(3, 200, good) {
		t.Fatal("oracle rejects the reference itself")
	}
	if o.check(3, 200, flip(good)) {
		t.Error("oracle accepts a hit response with one flipped byte")
	}
	if o.check(3, 503, good) {
		t.Error("oracle accepts a non-200 status")
	}

	miss := mustWorkload(t, "registry-miss")
	mseq := newRequests(miss, 5, 200)
	mo, err := newOracle(miss, mseq, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer()
	if err != nil {
		t.Fatal(err)
	}
	flipped := -1
	for i, b := range mseq.bodies {
		status, resp := serveDirect(s.Handler(), b)
		if mo.slot[i] >= 0 && flipped < 0 {
			resp, flipped = flip(resp), i
		}
		if !mo.check(i, status, resp) {
			t.Fatalf("miss request %d rejected in the window", i)
		}
	}
	if flipped < 0 {
		t.Fatal("no request of the first 200 is sampled")
	}
	checked, wrong, err := mo.verifySamples(mseq.bodies)
	if err != nil {
		t.Fatal(err)
	}
	if wrong != 1 {
		t.Errorf("verifySamples found %d wrong of %d sampled bodies, want exactly the flipped one (request %d)",
			wrong, checked, flipped)
	}
}

// TestDirectEstimateIsCold pins that the oracle's direct estimate does
// not read task-time dists cached by earlier estimates in the process.
// The two bodies have a Q1-j2-sort job whose input sizes differ by under
// one byte; a Scratch warmed by the first can answer the second with the
// first's dist.
func TestDirectEstimateIsCold(t *testing.T) {
	warm := []byte(`{"workflow":"wc+q1","options":{"mode":"normal","micro_gb":18.942935825658978,"tpch_scale":53.43858028442959}}`)
	body := []byte(`{"workflow":"q1","options":{"mode":"mean","micro_gb":50.574006849338154,"tpch_scale":53.438660995557925}}`)
	req, apiErr := decode(body)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	flow, est, err := scenario(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	est.Opt.DisableIncremental = true
	plan, err := est.Estimate(flow)
	if err != nil {
		t.Fatal(err)
	}
	resetPools()
	s, err := newServer()
	if err != nil {
		t.Fatal(err)
	}
	if status, resp := serveDirect(s.Handler(), warm); status != 200 {
		t.Fatalf("status %d: %s", status, resp)
	}
	got, err := makespanOf(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := plan.Makespan.Seconds(); got != want {
		t.Errorf("direct estimate after a warm request reads %v, without the dist cache %v", got, want)
	}
}

// TestResultNamesMatchBenchmarkJSON runs one tiny run per mode and checks
// that the result line carries exactly the metrics BENCHMARK.json lists,
// with the same units.
func TestResultNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		res, err := run(options{workload: "fleet-hit", seed: 1, seconds: 0.01, trace: trace}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %d: result %+v", trace, res)
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		slices.Sort(got)
		slices.Sort(exp)
		if !slices.Equal(got, exp) {
			t.Errorf("trace %d: metrics\n got  %v\n want %v", trace, got, exp)
		}
	}
}
