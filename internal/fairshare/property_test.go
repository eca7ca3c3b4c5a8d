package fairshare

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"boedag/internal/cluster"
	"boedag/internal/units"
)

// instance is one allocation problem.
type instance struct {
	capacity  [cluster.NumResources]units.Rate
	consumers []Consumer
}

// randomInstance draws a problem covering the solver's edge cases:
// absent resources, empty groups, consumers that demand nothing, capped
// and uncapped groups, and exact duplicates of earlier consumers.
func randomInstance(rng *rand.Rand) instance {
	var in instance
	for r := range in.capacity {
		if rng.Intn(8) > 0 {
			in.capacity[r] = units.Rate(rng.Float64()*1000+1) * units.MBps
		}
	}
	n := rng.Intn(8) + 1
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(4) == 0 {
			in.consumers = append(in.consumers, in.consumers[rng.Intn(i)])
			continue
		}
		c := Consumer{Count: rng.Intn(12), CapResource: cluster.Resource(rng.Intn(cluster.NumResources))}
		for r := range c.Demand {
			if rng.Intn(2) == 0 {
				c.Demand[r] = (rng.Float64()*100 + 0.01) * mb
			}
		}
		if rng.Intn(2) == 0 {
			c.MaxRate = rng.Float64()*5 + 0.001
		}
		in.consumers = append(in.consumers, c)
	}
	return in
}

// checkAllocation solves in, and again with its consumers permuted by
// perm, and returns the first broken invariant of the max-min
// equilibrium, or nil.
func checkAllocation(in instance, perm []int) error {
	var a Arena
	res := a.Allocate(in.capacity, in.consumers)
	rate := append([]float64(nil), res.Rate...)

	for r, u := range res.Utilization {
		if u > 1+1e-9 {
			return fmt.Errorf("resource %s utilization %v > 1", cluster.Resource(r), u)
		}
	}
	for i, x := range rate {
		if math.IsNaN(x) || x < 0 {
			return fmt.Errorf("consumer %d rate %v", i, x)
		}
	}
	for i, c := range in.consumers {
		for j := i + 1; j < len(in.consumers); j++ {
			if in.consumers[j] == c && rate[j] != rate[i] {
				return fmt.Errorf("identical consumers %d and %d: rates %v and %v", i, j, rate[i], rate[j])
			}
		}
	}
	for i, c := range in.consumers {
		x := rate[i]
		if x == 0 || math.IsInf(x, 1) || (c.MaxRate > 0 && x >= c.MaxRate) {
			continue
		}
		saturated := false
		for r, d := range c.Demand {
			if d > 0 && res.Utilization[r] >= 1-1e-6 {
				saturated = true
			}
		}
		if !saturated {
			return fmt.Errorf("consumer %d rate %v is below its cap %v but touches no saturated resource (utilization %v)",
				i, x, c.MaxRate, res.Utilization)
		}
	}

	permuted := make([]Consumer, len(perm))
	for k, i := range perm {
		permuted[k] = in.consumers[i]
	}
	pres := a.Allocate(in.capacity, permuted)
	for k, i := range perm {
		if relDiff(pres.Rate[k], rate[i]) > 1e-9 {
			return fmt.Errorf("consumer %d: rate %v, but %v after permutation", i, rate[i], pres.Rate[k])
		}
	}
	return nil
}

// TestAllocateEquilibriumProperties checks the equilibrium invariants on
// seeded random problems: capacity is never exceeded, rates are never
// NaN or negative, identical consumers get identical rates, every
// consumer below its own cap is held by a saturated resource, and the
// answer does not depend on consumer order.
func TestAllocateEquilibriumProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 20000; k++ {
		in := randomInstance(rng)
		if err := checkAllocation(in, rng.Perm(len(in.consumers))); err != nil {
			t.Fatalf("instance %d %+v: %v", k, in, err)
		}
	}
}

// FuzzAllocate checks the same invariants on seeded problems patched by
// the raw byte stream: each 3-byte op sets one capacity, demand, count or
// cap to a value spanning 2^-16 to 2^16 of its usual scale, or to zero.
func FuzzAllocate(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, []byte(nil))
		f.Add(seed, []byte{0, 1, 0, 1, 2, 255, 3, 0, 128})
	}
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng)
		for i := 0; i+2 < len(raw); i += 3 {
			op, idx, val := raw[i], int(raw[i+1]), raw[i+2]
			scale := 0.0
			if val > 0 {
				scale = math.Exp2(float64(int(val)-128) / 8)
			}
			c := &in.consumers[idx%len(in.consumers)]
			r := idx % cluster.NumResources
			switch op % 4 {
			case 0:
				in.capacity[r] = units.Rate(scale) * units.MBps
			case 1:
				c.Demand[r] = scale * mb
			case 2:
				c.Count = int(val % 32)
			case 3:
				c.MaxRate = scale
			}
		}
		perm := rng.Perm(len(in.consumers))
		if err := checkAllocation(in, perm); err != nil {
			t.Fatalf("seed %d raw %x: %v", seed, raw, err)
		}
	})
}
