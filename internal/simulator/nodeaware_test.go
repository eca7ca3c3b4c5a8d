package simulator_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"boedag/internal/experiments"
	"boedag/internal/simulator"
)

// TestNodeAwareOneNodeMatchesAggregate: on a one-node cluster the
// per-node pools are the cluster's pools, so NodeAware must reproduce
// the aggregate simulation byte for byte — same consumers, same caps,
// same solve.
func TestNodeAwareOneNodeMatchesAggregate(t *testing.T) {
	cfg := experiments.Scaled(10)
	cfg.Spec.Nodes = 1
	for _, name := range []string{"wc", "ts", "wc+ts", "webanalytics", "wc+q5", "synth-l4-w6-f2-s3"} {
		flow, err := experiments.BuildNamed(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		encode := func(nodeAware bool) []byte {
			opt := cfg.SimOptions(cfg.Seed)
			opt.NodeAware = nodeAware
			res, err := simulator.New(cfg.Spec, opt).Run(flow)
			if err != nil {
				t.Fatalf("%s (node-aware %v): %v", name, nodeAware, err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if agg, node := encode(false), encode(true); !bytes.Equal(agg, node) {
			t.Errorf("%s: one-node NodeAware result differs from aggregate", name)
		}
	}
}
