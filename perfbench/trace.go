package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tracer collects per-layer counts from outside the program, at public
// boundaries only: a copied placement policy whose func fields count
// candidates and whose extra pass-through extender counts calls and
// failures, a wrapped arrival process, and the new-engine hook. The counts
// are touched by the dispatcher's events only, which the kernel runs one
// at a time, so they need no locking.
type tracer struct {
	placeCalls, placeFailed, placeCands uint64
	gaps                                uint64

	engines   []*sim.Engine
	start     []uint64 // engines' processed counts when the run began
	runEvents uint64   // events fired during the run, set by endRun
	restore   func()
}

func newTracer() *tracer {
	t := &tracer{}
	t.restore = sim.SetNewEngineHook(func(e *sim.Engine) { t.engines = append(t.engines, e) })
	return t
}

func (t *tracer) close() { t.restore() }

// startRun snapshots the event counts of every engine built so far.
func (t *tracer) startRun() {
	t.start = t.start[:0]
	for _, e := range t.engines {
		t.start = append(t.start, e.Processed())
	}
}

// endRun counts the events fired since startRun on every hooked engine and
// lets go of the engines, so a kept tracer does not keep its model alive.
func (t *tracer) endRun() {
	t.runEvents = 0
	for i, e := range t.engines {
		t.runEvents += e.Processed()
		if i < len(t.start) {
			t.runEvents -= t.start[i]
		}
	}
	t.engines = nil
}

// wrapPolicy returns a copy of p that counts what it does and decides
// exactly as p does: the first predicate's Fit runs once per candidate, and
// a pass-through extender appended last sees every call's scored choice.
// Frontends may append their own stages to the copy (the fabric cell adds
// its pool extender, which never turns a choice into a refusal).
func (t *tracer) wrapPolicy(p *place.Policy) *place.Policy {
	c := *p
	c.Predicates = append([]place.Predicate(nil), p.Predicates...)
	c.Prioritizers = append([]place.Prioritizer(nil), p.Prioritizers...)
	c.Extenders = append([]place.Extender(nil), p.Extenders...)
	if len(c.Predicates) > 0 {
		first := c.Predicates[0]
		fit := first.Fit
		first.Fit = func(r place.Request, cand place.Candidate) bool {
			t.placeCands++
			return fit(r, cand)
		}
		c.Predicates[0] = first
	}
	c.Extenders = append(c.Extenders, place.Extender{Name: "bench-count",
		Extend: func(_ place.Request, _ []place.Candidate, chosen int) int {
			t.placeCalls++
			if chosen < 0 {
				t.placeFailed++
			}
			return chosen
		}})
	return &c
}

// countingArrivals passes an arrival process through, counting gaps drawn.
type countingArrivals struct {
	workload.ArrivalProcess
	n *uint64
}

func (c countingArrivals) Gap(t sim.Time, rng *rand.Rand) sim.Duration {
	*c.n++
	return c.ArrivalProcess.Gap(t, rng)
}

func (t *tracer) wrapArrivals(a workload.ArrivalProcess) workload.ArrivalProcess {
	return countingArrivals{ArrivalProcess: a, n: &t.gaps}
}

// crossCheck compares the boundary counts with the model's own results:
// they are counted independently, so agreement checks both.
func (t *tracer) crossCheck(o outcome) error {
	if t.runEvents != o.events {
		return fmt.Errorf("hooked engines fired %d events, the model reports %d", t.runEvents, o.events)
	}
	if o.gaps >= 0 && int(t.gaps) != o.gaps {
		return fmt.Errorf("arrival process drew %d gaps for %d offered", t.gaps, o.offered)
	}
	placed := int(t.placeCalls - t.placeFailed)
	if o.placedMax >= 0 && (placed < o.placedMin || placed > o.placedMax) {
		return fmt.Errorf("%d placements seen at the policy, want between %d and %d", placed, o.placedMin, o.placedMax)
	}
	return nil
}

// layerMetrics reduces a traced measurement to the per-layer metrics:
// simulated counters from any run (they are identical), host numbers as
// medians over the plain runs, CPU shares from the traced runs' profiles.
func layerMetrics(w workloadDef, plain, traced []sample) (map[string]value, error) {
	got := map[string]float64{}
	out := plain[0].out
	for k, v := range out.layer {
		got[k] = v
	}
	medPlain := func(f func(sample) float64) float64 {
		xs := make([]float64, len(plain))
		for i, s := range plain {
			xs[i] = f(s)
		}
		return median(xs)
	}
	wall := medPlain(func(s sample) float64 { return s.wall.Seconds() })
	got["sim.events"] = float64(out.events)
	got["sim.events_per_s"] = float64(out.events) / wall
	if out.shards.Shards > 1 {
		got["sim.parallelism"] = medPlain(func(s sample) float64 {
			return s.out.shards.Busy.Seconds() / s.out.shards.Wall.Seconds()
		})
	}
	if w.setupMetric != "" {
		got[w.setupMetric] = medPlain(func(s sample) float64 { return s.layerSetup.Seconds() })
	}

	tr := traced[0].trace
	got["place.calls"] = float64(tr.placeCalls)
	if tr.placeCalls > 0 {
		got["place.candidates_per_call"] = float64(tr.placeCands) / float64(tr.placeCalls)
		got["place.failed_frac"] = float64(tr.placeFailed) / float64(tr.placeCalls)
	}
	got["workload.arrivals"] = float64(tr.gaps)

	var gc, used float64
	for _, s := range plain {
		gc += s.gcCPU
		used += s.usedCPU
	}
	if used > 0 {
		got["runtime.gc_cpu_frac"] = gc / used
	}
	got["runtime.gc_cycles"] = medPlain(func(s sample) float64 { return float64(s.gcCycles) })
	if out.events > 0 {
		got["runtime.alloc_b_per_event"] = medPlain(func(s sample) float64 {
			return float64(s.allocBytes) / float64(out.events)
		})
	}

	counts := map[string]int64{}
	var total int64
	for _, s := range traced {
		for layer, n := range s.cpuSamples {
			counts[layer] += n
			total += n
		}
	}
	for _, layer := range cpuLayers {
		if total > 0 {
			got[layer+".cpu_share"] = float64(counts[layer]) / float64(total)
		}
	}
	got["bench.profile_samples"] = float64(total)
	got["bench.delay_samples"] = float64(out.delaySamples)
	tracedWall := make([]float64, len(traced))
	for i, s := range traced {
		tracedWall[i] = s.wall.Seconds()
	}
	got["bench.trace_overhead_frac"] = median(tracedWall)/wall - 1

	res := make(map[string]value, len(perLayer))
	for _, m := range perLayer {
		res[m.name] = value{Value: got[m.name], Unit: m.unit}
		delete(got, m.name)
	}
	if len(got) > 0 {
		var extra []string
		for k := range got {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return res, fmt.Errorf("per-layer values with no metric definition: %v", extra)
	}
	return res, nil
}
