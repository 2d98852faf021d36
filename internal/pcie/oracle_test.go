package pcie

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/units"
)

// The reference arbiter: the progressive filling the fabric shipped before
// its hot path was reworked, kept verbatim apart from renamed types, the
// dropped observability and invariant blocks (they read state and never
// write it), and nextAt, which records the scheduled completion time for
// comparison. Every round rescans all links, all flows and every path;
// each completion allocates fresh slices. TestOracleDifferential holds the
// production fabric to bit-identical results against it.

type refLink struct {
	capacity    float64
	maxCapacity float64
	bytesMoved  float64
	alloc       float64
	unfrozen    int
}

type refFlow struct {
	path      []*refLink
	remaining float64
	size      float64
	rate      float64
	cap       float64 // 0 = uncapped
	done      func(at sim.Time)
	frozen    bool // scratch during recompute
	finished  bool
}

type refFabric struct {
	eng        *sim.Engine
	links      []*refLink
	flows      []*refFlow
	lastUpdate sim.Time
	next       sim.Handle
	nextAt     sim.Time
	hasNext    bool
}

func newRefFabric(eng *sim.Engine) *refFabric {
	return &refFabric{eng: eng, lastUpdate: eng.Now()}
}

func (fb *refFabric) NewLink(capacity float64) *refLink {
	l := &refLink{capacity: capacity, maxCapacity: capacity}
	fb.links = append(fb.links, l)
	return l
}

func (l *refLink) SetCapacity(c float64) {
	l.capacity = c
	if l.capacity > l.maxCapacity {
		l.maxCapacity = l.capacity
	}
}

func (fb *refFabric) TransferCapped(size int64, rateCap units.BytesPerSec, path []*refLink, done func(at sim.Time)) *refFlow {
	if len(path) == 0 {
		panic("pcie: transfer with empty path")
	}
	f := &refFlow{path: path, remaining: float64(size), size: float64(size), cap: float64(rateCap), done: done}
	if f.remaining <= 0 {
		f.finished = true
		if done != nil {
			fb.eng.Immediately(func() { done(fb.eng.Now()) })
		}
		return f
	}
	fb.advance()
	fb.flows = append(fb.flows, f)
	fb.rebalance()
	return f
}

func (fb *refFabric) Rebalance() {
	fb.advance()
	fb.rebalance()
}

func (fb *refFabric) advance() {
	now := fb.eng.Now()
	dt := now.Sub(fb.lastUpdate).Seconds()
	fb.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, f := range fb.flows {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		for _, l := range f.path {
			l.bytesMoved += moved
		}
	}
}

func (fb *refFabric) rebalance() {
	// Progressive filling. Reset scratch state.
	for _, l := range fb.links {
		l.alloc = 0
		l.unfrozen = 0
	}
	unfrozen := 0
	for _, f := range fb.flows {
		f.frozen = false
		f.rate = 0
		unfrozen++
		for _, l := range f.path {
			l.unfrozen++
		}
	}
	for unfrozen > 0 {
		// Find the bottleneck share: the smallest per-flow headroom across
		// links that still carry unfrozen flows.
		share := math.Inf(1)
		var bottleneck *refLink
		for _, l := range fb.links {
			if l.unfrozen == 0 {
				continue
			}
			head := (l.capacity - l.alloc) / float64(l.unfrozen)
			if head < share {
				share = head
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break // no unfrozen flow touches any link; cannot happen with non-empty paths
		}
		if share < 0 {
			share = 0
		}
		// A capped flow below the bottleneck share freezes at its cap first.
		var minCapFlow *refFlow
		for _, f := range fb.flows {
			if f.frozen || f.cap <= 0 || f.cap >= share {
				continue
			}
			if minCapFlow == nil || f.cap < minCapFlow.cap {
				minCapFlow = f
			}
		}
		if minCapFlow != nil {
			fb.freeze(minCapFlow, minCapFlow.cap)
			unfrozen--
			continue
		}
		// Otherwise freeze every unfrozen flow crossing the bottleneck link.
		for _, f := range fb.flows {
			if f.frozen {
				continue
			}
			crosses := false
			for _, l := range f.path {
				if l == bottleneck {
					crosses = true
					break
				}
			}
			if crosses {
				fb.freeze(f, share)
				unfrozen--
			}
		}
	}
	fb.scheduleNext()
}

func (fb *refFabric) freeze(f *refFlow, rate float64) {
	f.frozen = true
	f.rate = rate
	for _, l := range f.path {
		l.alloc += rate
		l.unfrozen--
	}
}

func (fb *refFabric) scheduleNext() {
	if fb.hasNext {
		fb.next.Cancel(fb.eng)
		fb.hasNext = false
	}
	soonest := math.Inf(1)
	for _, f := range fb.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		return
	}
	// Ceil to the next nanosecond so that by the time the event fires every
	// flow scheduled to finish has remaining <= 0 modulo float error.
	delay := sim.Duration(math.Ceil(soonest * float64(sim.Second)))
	if delay < 1 {
		delay = 1
	}
	fb.next = fb.eng.After(delay, fb.onCompletion)
	fb.nextAt = fb.eng.Now().Add(delay)
	fb.hasNext = true
}

func (fb *refFabric) onCompletion() {
	fb.hasNext = false
	fb.advance()
	var still []*refFlow
	var completed []*refFlow
	for _, f := range fb.flows {
		if f.remaining <= completionEpsilon {
			f.remaining = 0
			f.finished = true
			completed = append(completed, f)
		} else {
			still = append(still, f)
		}
	}
	fb.flows = still
	fb.rebalance()
	now := fb.eng.Now()
	for _, f := range completed {
		if f.done != nil {
			f.done(now)
		}
	}
}

// oracleLinkCap is the per-link capacity menu of the oracle topology, in
// GB/s: media, slot and hop classes of the device catalog plus odd values
// that make shares inexact in binary.
var oracleLinkCap = []float64{3.5, 7.877, 12.5, 31.5, 46, 64}

// oracleRig runs the production fabric and the reference side by side, each
// on its own engine, over the same topology and event script.
type oracleRig struct {
	t          *testing.T
	engN, engR *sim.Engine
	fbN        *Fabric
	fbR        *refFabric
	linksN     []*Link
	linksR     []*refLink
	pathsN     [][]*Link
	pathsR     [][]*refLink
	doneN      []sim.Time // completion callbacks, by transfer number
	doneR      []sim.Time
}

// newOracleRig builds a shared hop link and, for each of ports ports, a
// media and a slot link.
// Each port has a pooled path (media, slot, hop) and a local path (media,
// slot); one path crosses the same link twice, the shape a same-node
// transfer makes through a NIC.
func newOracleRig(t *testing.T, rng *rand.Rand, ports int) *oracleRig {
	r := &oracleRig{t: t, engN: sim.NewEngine(), engR: sim.NewEngine()}
	r.fbN, r.fbR = NewFabric(r.engN), newRefFabric(r.engR)
	link := func(gbps float64) int {
		c := units.GBps(gbps)
		r.linksN = append(r.linksN, r.fbN.NewLink("l", c))
		r.linksR = append(r.linksR, r.fbR.NewLink(float64(c)))
		return len(r.linksN) - 1
	}
	path := func(ids ...int) {
		var pn []*Link
		var pr []*refLink
		for _, id := range ids {
			pn = append(pn, r.linksN[id])
			pr = append(pr, r.linksR[id])
		}
		r.pathsN = append(r.pathsN, pn)
		r.pathsR = append(r.pathsR, pr)
	}
	hop := link(64)
	for p := 0; p < ports; p++ {
		media := link(oracleLinkCap[rng.Intn(len(oracleLinkCap))])
		slot := link(oracleLinkCap[rng.Intn(len(oracleLinkCap))])
		path(media, slot, hop)
		path(media, slot)
	}
	path(1, hop, 1)
	return r
}

// transfer starts transfer number n on both sides at the current instant.
// The first side to run decides the cap from its own state; the state
// comparison after every event guarantees the other side agrees.
func (r *oracleRig) transfer(n int, size int64, pathID int, capMode int, capSeed float64) {
	r.doneN = append(r.doneN, -1)
	r.doneR = append(r.doneR, -1)
	var rateCap units.BytesPerSec
	decided := false
	pick := func(rates []float64) {
		if decided {
			return
		}
		decided = true
		// Caps straddle the current bottleneck share: exactly on it, one
		// ulp either side, or a fraction of a link's capacity.
		share := 0.0
		for _, x := range rates {
			if x > share {
				share = x
			}
		}
		switch {
		case capMode == 0 || share == 0:
			rateCap = 0
		case capMode == 1:
			rateCap = units.BytesPerSec(share)
		case capMode == 2:
			rateCap = units.BytesPerSec(math.Nextafter(share, 0))
		case capMode == 3:
			rateCap = units.BytesPerSec(math.Nextafter(share, math.Inf(1)))
		default:
			rateCap = units.BytesPerSec(capSeed * float64(units.GBps(8)))
		}
	}
	r.engN.Immediately(func() {
		rates := make([]float64, len(r.fbN.flows))
		for i, f := range r.fbN.flows {
			rates[i] = f.rate
		}
		pick(rates)
		r.fbN.TransferCapped(size, rateCap, r.pathsN[pathID], func(at sim.Time) { r.doneN[n] = at })
	})
	r.engR.Immediately(func() {
		rates := make([]float64, len(r.fbR.flows))
		for i, f := range r.fbR.flows {
			rates[i] = f.rate
		}
		pick(rates)
		r.fbR.TransferCapped(size, rateCap, r.pathsR[pathID], func(at sim.Time) { r.doneR[n] = at })
	})
}

// setCapacity degrades or restores a link on both sides and rebalances.
func (r *oracleRig) setCapacity(id int, c float64) {
	r.engN.Immediately(func() {
		r.linksN[id].SetCapacity(units.BytesPerSec(c))
		r.fbN.Rebalance()
	})
	r.engR.Immediately(func() {
		r.linksR[id].SetCapacity(c)
		r.fbR.Rebalance()
	})
}

// step fires one event on each engine and compares everything the arbiter
// computes, bit for bit. It reports whether any event was left to fire.
func (r *oracleRig) step() bool {
	t := r.t
	t.Helper()
	okN, okR := r.engN.Step(), r.engR.Step()
	if okN != okR {
		t.Fatalf("engines diverged: production stepped %v, reference %v", okN, okR)
	}
	if !okN {
		return false
	}
	if r.engN.Now() != r.engR.Now() {
		t.Fatalf("clocks diverged: %v vs %v", r.engN.Now(), r.engR.Now())
	}
	same := func(what string, i int, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("at %v: %s[%d] = %v (production) vs %v (reference)", r.engN.Now(), what, i, a, b)
		}
	}
	if len(r.fbN.flows) != len(r.fbR.flows) {
		t.Fatalf("at %v: %d flows in flight vs %d", r.engN.Now(), len(r.fbN.flows), len(r.fbR.flows))
	}
	for i, f := range r.fbN.flows {
		g := r.fbR.flows[i]
		same("rate", i, f.rate, g.rate)
		same("remaining", i, f.remaining, g.remaining)
		same("cap", i, f.cap, g.cap)
	}
	for i, l := range r.linksN {
		g := r.linksR[i]
		same("alloc", i, l.alloc, g.alloc)
		same("bytesMoved", i, l.bytesMoved, g.bytesMoved)
		if int(l.unfrozen) != g.unfrozen {
			t.Fatalf("at %v: link %d has %d unfrozen flows vs %d", r.engN.Now(), i, l.unfrozen, g.unfrozen)
		}
	}
	if pending := r.fbN.nextAt != 0; pending != r.fbR.hasNext || (pending && r.fbN.nextAt != r.fbR.nextAt) {
		t.Fatalf("at %v: next completion at %v (production; 0 = none) vs %v/%v (reference)",
			r.engN.Now(), r.fbN.nextAt, r.fbR.hasNext, r.fbR.nextAt)
	}
	for i := range r.doneN {
		if r.doneN[i] != r.doneR[i] {
			t.Fatalf("transfer %d completed at %v vs %v", i, r.doneN[i], r.doneR[i])
		}
	}
	return true
}

// TestOracleDifferential drives the production arbiter and the reference
// through the same seeded scripts — arrivals, bursts of equal transfers
// that complete at the same instant, caps on and one ulp around the
// bottleneck share, link degrade and recover — and requires every rate,
// remaining byte count, link allocation, bytes moved and scheduled
// completion time to be bit-identical after every event, with the fabric
// invariants on.
func TestOracleDifferential(t *testing.T) {
	var violations []invariant.Violation
	restore := invariant.SetHandler(func(v invariant.Violation) { violations = append(violations, v) })
	defer restore()
	invariant.Enable()
	defer invariant.Disable()

	events := 0
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newOracleRig(t, rng, 1+rng.Intn(12))
		n := 0
		for round := 0; round < 60; round++ {
			switch k := rng.Intn(10); {
			case k < 6:
				// A burst of arrivals at this instant; equal sizes on
				// equal paths finish together.
				size := int64(1+rng.Intn(64)) * 4096
				pathID := rng.Intn(len(r.pathsN))
				for b := 1 + rng.Intn(4); b > 0; b-- {
					r.transfer(n, size, pathID, rng.Intn(5), rng.Float64())
					n++
				}
			case k < 8:
				id := rng.Intn(len(r.linksN))
				c := r.linksN[id].maxCapacity * []float64{0.5, 0.25, 1, 1e-3}[rng.Intn(4)]
				r.setCapacity(id, c)
			default:
				// Let the fabric run for a while, often to a completion.
				for s := rng.Intn(6); s > 0 && r.step(); s-- {
					events++
				}
			}
			// Fire what is due now (the scripted events) and sometimes more.
			for s := 2 + rng.Intn(3); s > 0 && r.step(); s-- {
				events++
			}
		}
		for r.step() {
			events++
		}
		for i := range r.doneN {
			if r.doneN[i] < 0 {
				t.Fatalf("seed %d: transfer %d never completed", seed, i)
			}
		}
		if len(r.fbN.flows) != 0 || r.fbN.free != nil {
			t.Fatalf("seed %d: drained fabric still holds %d flows or spare records", seed, len(r.fbN.flows))
		}
	}
	if events < 5000 {
		t.Fatalf("only %d events compared", events)
	}
	for _, v := range violations {
		t.Errorf("invariant violated: %v", v)
	}
}
