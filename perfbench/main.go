// Command perfbench is the repository benchmark: it drives boedagd's
// POST /v1/estimate in-process over loopback listeners with a seeded,
// fixed-length request sequence per workload, checks every response
// against an output oracle, and reports end-to-end metrics, or, with
// -trace 1, per-layer metrics from the servers' counters and a traced
// replay of the same requests.
//
// Run it through perfbench/run.py, which builds it first:
//
//	python3 perfbench/run.py --workload registry-hit --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is non-zero when any response was wrong.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"boedag/internal/obs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// conns is the closed loop's connection count: callers such as
// schedulers and what-if tuners each wait for their prediction.
const conns = 2

// setups is how many times a run sets the system up; setup_s is the
// median.
const setups = 9

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	cpuProfile string
	traceOut   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name (registry-hit, registry-miss, synth-miss, fleet-hit)")
	flag.Int64Var(&o.seed, "seed", 1, "request-sequence seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "request budget in seconds of the workload's nominal rate")
	flag.IntVar(&o.trace, "trace", 0, "0: report end-to-end metrics; 1: report per-layer metrics")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the measured window to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the replay's spans here as a Chrome trace")
	flag.Parse()
	// One P for the whole process, load client included. On a 2-vCPU VM
	// the second vCPU's capacity comes and goes for seconds at a time, so
	// a 2-P run switches between two throughput levels within one window;
	// a 1-P run does not. The two connections still overlap on the P.
	runtime.GOMAXPROCS(1)
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options, out io.Writer) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	n := int(o.seconds * w.nominalRPS)
	seq := newRequests(w, o.seed, n)
	orc, err := newOracle(w, seq, o.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{w: w, out: out}
	rep.printf("workload %s seed %d: %d requests, %d closed-loop connections\n", w.name, o.seed, n, conns)

	ctx := context.Background()
	var live *rig
	for k := 0; k < setups; k++ {
		// Every set-up starts from cold estimator pools, so each one does
		// the same work.
		resetPools()
		t0 := time.Now()
		r, err := setUp(ctx, w, o, n)
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
		if k < setups-1 {
			r.close()
		} else {
			live = r
		}
	}
	defer live.close()

	before, rt0 := scrape(live.servers), readRuntime()
	if o.cpuProfile != "" {
		if err := os.MkdirAll(filepath.Dir(o.cpuProfile), 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	samples, failed, elapsed := live.sendAll(ctx, n, seq.body, orc.check)
	if o.cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	rt1 := readRuntime()
	rep.window(samples, failed, elapsed)
	rep.counters(scrape(live.servers).delta(before), rt1, rt0)

	checked, wrong, err := orc.verifySamples(seq.bodies)
	if err != nil {
		return nil, err
	}
	rep.peakRSS = peakRSSMB()
	res := &result{Attempted: int64(n), Failed: failed + wrong}
	rep.printf("oracle: %d of %d requests failed in the window; %d of %d sampled bodies differ from a fresh server's\n",
		failed, n, wrong, checked)
	for _, e := range orc.errors {
		rep.printf("  oracle: %s\n", e)
	}

	if o.trace == 1 {
		if err := rep.replay(w, live, seq.prefix(w.replay), orc, o.traceOut); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	rep.printf("failed_share %.6f (base: %d requests attempted, %d failed)\n", ratio(float64(res.Failed), float64(n)), n, res.Failed)
	res.Metrics = rep.endToEnd()
	rep.print(res.Metrics)
	if o.trace == 1 {
		res.Metrics = rep.perLayer()
		rep.print(res.Metrics)
	}
	return res, nil
}

// setUp constructs a workload's servers and brings them to the state the
// window starts from: hit workloads prime their whole keyspace; miss
// workloads send a few requests from outside the measured sequence to
// warm connections and estimator pools.
func setUp(ctx context.Context, w *workload, o options, n int) (*rig, error) {
	r, err := newRig(w)
	if err != nil {
		return nil, err
	}
	var warm [][]byte
	if w.hit {
		warm = hitKeyspace()
	} else {
		for j := 0; j < w.warm; j++ {
			warm = append(warm, w.gen(o.seed, n+j))
		}
	}
	body := func(i int) []byte { return warm[i] }
	_, bad, _ := r.sendAll(ctx, len(warm), body, func(_, status int, _ []byte) bool { return status == 200 })
	if bad > 0 {
		r.close()
		return nil, fmt.Errorf("set-up: %d of %d priming requests failed", bad, len(warm))
	}
	return r, nil
}

// durations converts to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func median(xs []float64) float64 { return obs.Percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
