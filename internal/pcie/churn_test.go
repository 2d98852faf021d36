package pcie

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// churnClient keeps one transfer in flight: each completion starts the
// next. Its callback is bound once, so restarting allocates nothing.
type churnClient struct {
	fb   *Fabric
	path []*Link
	size int64
	done func(sim.Time)
}

func (c *churnClient) restart(sim.Time) {
	c.fb.TransferCapped(c.size, units.GBps(8), c.path, c.done)
}

// newCrossbarChurn builds the pooled-switch shape: ports ports with a
// media and a slot link each (the pooled CXL class: 46 GB/s media, PCIe
// 5.0 x8 slot, 8 GB/s per-op cap) behind one shared 64 GB/s hop, and
// inflight closed-loop clients spread over the ports. Every client moves a
// different size, so completions interleave instead of landing in bursts.
// It returns the engine warmed past start-up.
func newCrossbarChurn(ports, inflight int) *sim.Engine {
	eng := sim.NewEngine()
	fb := NewFabric(eng)
	hop := fb.NewLink("hop", units.GBps(64))
	paths := make([][]*Link, ports)
	for p := range paths {
		media := fb.NewLink("media", units.GBps(46))
		slot := fb.NewLink("slot", Gen5.SlotBandwidth(8))
		paths[p] = []*Link{media, slot, hop}
	}
	for i := 0; i < inflight; i++ {
		c := &churnClient{fb: fb, path: paths[i%ports], size: 16384 + 256*int64(i)}
		c.done = c.restart
		c.restart(0)
	}
	for i := 0; i < 4*inflight; i++ {
		eng.Step()
	}
	return eng
}

// BenchmarkFabricCrossbarChurn is one completion event of the pooled
// crossbar at the fabric-pool workload's mean load (235 flows in flight):
// the finished flows leave, their clients start new ones, and the arbiter
// refills every rate.
func BenchmarkFabricCrossbarChurn(b *testing.B) {
	eng := newCrossbarChurn(64, 235)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// TestCrossbarChurnAllocationFree pins the arbiter's steady state at zero
// allocations per completion event.
func TestCrossbarChurnAllocationFree(t *testing.T) {
	eng := newCrossbarChurn(64, 235)
	if allocs := testing.AllocsPerRun(2000, func() { eng.Step() }); allocs != 0 {
		t.Fatalf("crossbar churn allocates %v times per completion event, want 0", allocs)
	}
}
