package place

import (
	"math/rand"
	"testing"
)

// fleet500 is a seeded 500-node fleet in the arena's shape (4 cores per
// node, mixed load and tiers, a few unhealthy nodes) and a one-core request
// that about half of it can take.
func fleet500() (Request, []Candidate) {
	rng := rand.New(rand.NewSource(500))
	cands := make([]Candidate, 500)
	for i := range cands {
		c := cand(i, rng.Intn(5), rng.Intn(600))
		c.TotalCores, c.TotalPages = 4, 600
		c.Load = 4 - c.FreeCores
		c.Tier = 1 + rng.Intn(3)
		c.Healthy = rng.Intn(50) != 0
		cands[i] = c
	}
	return Request{Cores: 1, Pages: 300}, cands
}

var placeSink int

// BenchmarkPlace500 is one best-fit placement over a 500-node fleet, the
// arena-replay workload's per-call scan.
func BenchmarkPlace500(b *testing.B) {
	p := Builtin("best-fit")
	r, cands := fleet500()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placeSink = p.Place(r, cands)
	}
}

// TestPlaceAllocationFree pins placement without a feasible-set extender
// at zero allocations per call.
func TestPlaceAllocationFree(t *testing.T) {
	r, cands := fleet500()
	for _, name := range []string{"best-fit", "worst-fit", "alg1"} {
		p := Builtin(name)
		if p.Place(r, cands) < 0 {
			t.Fatalf("%s placed nothing on the benchmark fleet", name)
		}
		if allocs := testing.AllocsPerRun(100, func() { placeSink = p.Place(r, cands) }); allocs != 0 {
			t.Errorf("%s allocates %v times per Place, want 0", name, allocs)
		}
	}
}
