package main

import (
	"encoding/json"
	"fmt"
	"math"

	"boedag/internal/boe"
	"boedag/internal/cluster"
	"boedag/internal/dag"
	"boedag/internal/experiments"
	"boedag/internal/obs"
	"boedag/internal/serve"
	"boedag/internal/statemodel"
	"boedag/internal/tpch"
	"boedag/internal/units"
)

// workload is one named request mix. Its request sequence is a pure
// function of (seed, index): the server only ever sees the generated
// bodies.
type workload struct {
	name string
	// fleet drives a 3-node in-process ring instead of one server.
	fleet bool
	// hit marks a workload whose whole keyspace is primed during set-up,
	// so every measured request is a cache hit and every response is
	// checked byte for byte against a reference.
	hit bool
	// nominalRPS sets the request budget: a run issues
	// seconds × nominalRPS requests, a fixed count that does not depend
	// on how fast the program under test is.
	nominalRPS float64
	// warm is the number of extra requests (outside the measured
	// sequence) each miss-workload set-up sends to warm connections and
	// estimator pools.
	warm int
	// replay is how many requests of the sequence the traced replay
	// re-executes per variant.
	replay int
	// sampleEvery: one miss-workload response in sampleEvery is hashed
	// and checked after the window against a fresh server.
	sampleEvery int
	// gen renders request i of the sequence for a seed.
	gen func(seed int64, i int) []byte
}

// cacheEntries bounds every benchmark server's response cache (boedagd
// -cache-max). The miss workloads overflow it, so its LRU evicts, and it
// keeps the process small; the 132-key hit keyspace fits.
const cacheEntries = 256

// fleetSize is the node count of the fleet-hit ring.
const fleetSize = 3

var workloads = []*workload{
	{name: "registry-hit", hit: true, nominalRPS: 40000, replay: 6000,
		gen: hitRequest},
	{name: "registry-miss", nominalRPS: 7000, warm: cacheEntries, replay: 1500, sampleEvery: 32,
		gen: registryMiss},
	{name: "synth-miss", nominalRPS: 44, warm: 8, replay: 24, sampleEvery: 16,
		gen: synthMiss},
	{name: "fleet-hit", fleet: true, hit: true, nominalRPS: 20000, replay: 3000,
		gen: hitRequest},
}

// requests is one run's request sequence. Hit workloads store a keyspace
// index per request instead of a body, so the benchmark's own memory
// stays small next to the program's.
type requests struct {
	keys   []uint8  // hit workloads: hitKeyspace index of each request
	bodies [][]byte // miss workloads: each request's body
}

func newRequests(w *workload, seed int64, n int) *requests {
	q := &requests{}
	if w.hit {
		q.keys = make([]uint8, n)
		for i := range q.keys {
			q.keys[i] = uint8(hitIndex(seed, i))
		}
		return q
	}
	q.bodies = make([][]byte, n)
	for i := range q.bodies {
		q.bodies[i] = w.gen(seed, i)
	}
	return q
}

func (q *requests) len() int { return max(len(q.keys), len(q.bodies)) }

func (q *requests) body(i int) []byte {
	if q.keys != nil {
		return hitKeyspace()[q.keys[i]]
	}
	return q.bodies[i]
}

// prefix renders the first m bodies.
func (q *requests) prefix(m int) [][]byte {
	out := make([][]byte, min(m, q.len()))
	for i := range out {
		out[i] = q.body(i)
	}
	return out
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// splitmix64 is a stateless mixer: the same input gives the same output
// on every platform and Go version.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// draw returns the stream-th pseudo-random word of request i.
func draw(seed int64, i int, stream uint64) uint64 {
	return splitmix64(splitmix64(uint64(seed)*0x2545f4914f6cdd1d+stream) ^ uint64(i))
}

// unit maps a word to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// registryFamilies are the 66 TPC-H-family workflows of the paper's
// Table III: q1–q22 alone and each in parallel with Word Count or
// TeraSort.
func registryFamilies() []string {
	var names []string
	for q := 1; q <= tpch.NumQueries; q++ {
		names = append(names, fmt.Sprintf("q%d", q), fmt.Sprintf("wc+q%d", q), fmt.Sprintf("ts+q%d", q))
	}
	return names
}

// hitScales are the two input scales of the hit keyspace.
var hitScales = []serve.EstimateOptions{
	{TPCHScale: 10, MicroGB: 10},
	{TPCHScale: 80, MicroGB: 100},
}

var hitBodies [][]byte

// hitKeyspace is the 132 request bodies of the hit workloads: every
// registry family at both scales.
func hitKeyspace() [][]byte {
	if hitBodies == nil {
		for _, opt := range hitScales {
			for _, name := range registryFamilies() {
				hitBodies = append(hitBodies, mustBody(serve.EstimateRequest{Workflow: name, Options: opt}))
			}
		}
	}
	return hitBodies
}

// hitIndex picks the keyspace entry of request i.
func hitIndex(seed int64, i int) int {
	return int(draw(seed, i, 1) % uint64(len(hitKeyspace())))
}

func hitRequest(seed int64, i int) []byte { return hitKeyspace()[hitIndex(seed, i)] }

var skewModes = []string{"mean", "median", "normal"}

// registryMiss draws a registry family with its own continuous TPC-H
// scale and micro-benchmark input size, and a skew mode, so every
// request is a distinct plan.
func registryMiss(seed int64, i int) []byte {
	fams := registryFamilies()
	req := serve.EstimateRequest{
		Workflow: fams[draw(seed, i, 2)%uint64(len(fams))],
		Options: serve.EstimateOptions{
			TPCHScale: 5 + 95*unit(draw(seed, i, 3)),
			MicroGB:   5 + 195*unit(draw(seed, i, 4)),
			Mode:      skewModes[draw(seed, i, 5)%uint64(len(skewModes))],
		},
	}
	return mustBody(req)
}

// synthMiss names a seeded 100-job layered synthetic DAG with its own
// generator seed per request.
func synthMiss(seed int64, i int) []byte {
	n := 1 + draw(seed, i, 6)%(1<<40)
	return mustBody(serve.EstimateRequest{Workflow: fmt.Sprintf("synth-l5-w20-f3-s%d", n)})
}

func mustBody(req serve.EstimateRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil { // plain data always marshals
		panic(err)
	}
	return b
}

// scenario materializes a decoded request exactly as the server does
// for /v1/estimate: the experiments defaults with the request's size
// overrides, the paper cluster, the BOE task timer with its start
// overhead. The estimator holds the bare *BOETimer, so evalpool.PlanKey
// of it equals the server's cache key (the self-tests pin that).
func scenario(req *serve.EstimateRequest, reg *obs.Registry) (flow *dag.Workflow, est *statemodel.Estimator, err error) {
	cfg, err := scenarioConfig(req)
	if err != nil {
		return nil, nil, err
	}
	flow, err = experiments.BuildNamed(req.Workflow, cfg)
	if err != nil {
		return nil, nil, err
	}
	return flow, estimator(req, cfg, reg), nil
}

func scenarioConfig(req *serve.EstimateRequest) (experiments.Config, error) {
	if len(req.Spec) > 0 || len(req.Cluster) > 0 {
		return experiments.Config{}, fmt.Errorf("inline specs are not part of any workload")
	}
	cfg := experiments.Default()
	cfg.Spec = cluster.PaperCluster()
	if req.Options.MicroGB > 0 {
		cfg.MicroInput = units.Bytes(req.Options.MicroGB) * units.GB
	}
	if req.Options.TPCHScale > 0 {
		cfg.TPCHScale = req.Options.TPCHScale
	}
	return cfg, nil
}

func estimator(req *serve.EstimateRequest, cfg experiments.Config, reg *obs.Registry) *statemodel.Estimator {
	opt := statemodel.Options{
		Mode:              skewMode(req.Options.Mode),
		JobSubmitOverhead: cfg.JobSubmitOverhead,
		Observe:           obs.Options{Metrics: reg},
	}
	if req.Options.PerNode > 0 {
		opt.SlotLimit = req.Options.PerNode * cfg.Spec.Nodes
	}
	timer := &statemodel.BOETimer{Model: boe.New(cfg.Spec), TaskStartOverhead: cfg.TaskStartOverhead}
	return statemodel.New(cfg.Spec, timer, opt)
}

func skewMode(s string) statemodel.SkewMode {
	switch s {
	case "median", "mid":
		return statemodel.MedianMode
	case "normal":
		return statemodel.NormalMode
	}
	return statemodel.MeanMode
}

// makespanOf runs the estimator directly on a request body, outside any
// server, and returns the predicted makespan in seconds. It runs on a
// new Scratch, so no task-time dist cached by an earlier estimate in the
// process can reach the answer it checks against.
func makespanOf(body []byte) (float64, error) {
	req, apiErr := decode(body)
	if apiErr != nil {
		return 0, apiErr
	}
	flow, est, err := scenario(req, nil)
	if err != nil {
		return 0, err
	}
	plan, err := est.EstimateWith(statemodel.NewScratch(), flow)
	if err != nil {
		return 0, err
	}
	s := plan.Makespan.Seconds()
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return 0, fmt.Errorf("non-finite makespan")
	}
	return s, nil
}
