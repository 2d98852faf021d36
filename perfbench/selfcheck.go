package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"repro/internal/place"
)

// selfCheck runs the benchmark's own checks, cheap enough for every
// invocation (the unit tests run the same functions): metric names are
// well formed and unique, the tracing policy wrapper decides exactly like
// the policy it wraps, and known profile frames map to the right layer.
func selfCheck() error {
	if err := checkMetricNames(); err != nil {
		return err
	}
	if err := checkPolicyWrapper(rand.New(rand.NewSource(1)), 200); err != nil {
		return err
	}
	return checkFrameLayers()
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetricNames() error {
	seen := map[string]bool{}
	for i, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
		}
		if seen[m.name] {
			return fmt.Errorf("metric %q defined twice", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			return fmt.Errorf("metric %q: better is %q", m.name, m.better)
		}
		if m.kind != "host" && m.kind != "sim" {
			return fmt.Errorf("metric %q: kind is %q", m.name, m.kind)
		}
		if i < len(endToEnd) && (m.kind == "sim") != strings.HasPrefix(m.name, "sim_") {
			return fmt.Errorf("end-to-end metric %q: kind %q, but only simulated metrics start with sim_", m.name, m.kind)
		}
	}
	return nil
}

// wrapperPolicies are the built-in policies the wrapper is checked on,
// covering every extender kind and the overcommit slack.
var wrapperPolicies = []string{"alg1", "best-fit", "worst-fit", "oversub:1.25", "one-shot",
	"mix:best-fit=1,least-stranding=2"}

// checkPolicyWrapper places trials random requests on random candidate
// sets with each policy and its traced copy and compares the choices.
func checkPolicyWrapper(rng *rand.Rand, trials int) error {
	for _, spec := range wrapperPolicies {
		plain, err := place.ParsePolicy(spec)
		if err != nil {
			return err
		}
		tr := &tracer{}
		wrapped := tr.wrapPolicy(plain)
		if wrapped.OneShot() != plain.OneShot() {
			return fmt.Errorf("policy %s: wrapper changes OneShot", spec)
		}
		var cands uint64
		for i := 0; i < trials; i++ {
			r, cs := randomPlacement(rng)
			cands += uint64(len(cs))
			if a, b := plain.Place(r, cs), wrapped.Place(r, cs); a != b {
				return fmt.Errorf("policy %s: wrapped choice %d, plain choice %d for %+v", spec, b, a, r)
			}
		}
		if tr.placeCalls != uint64(trials) || tr.placeCands != cands {
			return fmt.Errorf("policy %s: wrapper counted %d calls over %d candidates, want %d over %d",
				spec, tr.placeCalls, tr.placeCands, trials, cands)
		}
	}
	return nil
}

func randomPlacement(rng *rand.Rand) (place.Request, []place.Candidate) {
	r := place.Request{Cores: 1 + rng.Intn(3), Pages: rng.Intn(600)}
	cs := make([]place.Candidate, rng.Intn(24))
	for i := range cs {
		total := 256 + rng.Intn(768)
		cs[i] = place.Candidate{
			ID:         rng.Intn(1000),
			FreeCores:  rng.Intn(5),
			FreePages:  rng.Intn(total + 1),
			TotalCores: 4,
			TotalPages: total,
			Load:       rng.Intn(4),
			Tier:       rng.Intn(4),
			Healthy:    rng.Intn(8) > 0,
			Accepts:    rng.Intn(8) > 0,
		}
	}
	return r, cs
}

// knownFrames pins the profile attribution on representative symbols.
var knownFrames = []struct{ fn, layer string }{
	{"repro/internal/sim.(*Engine).Run", "sim"},
	{"repro/internal/sim.(*Shards).runWindow.func1", "sim"},
	{"repro/internal/place.(*Policy).Place", "place"},
	{"repro/internal/place.predCores.func1", "place"},
	{"repro/internal/datacenter.(*Arena).fill", "datacenter"},
	{"repro/internal/pcie.(*Fabric).rebalance", "pcie"},
	{"repro/internal/fabric.(*Cell).fill", "fabric"},
	{"repro/internal/serve.(*server).offer", "serve"},
	{"repro/internal/workload.TraceReplay.Gap", "workload"},
	{"repro/internal/mem.(*LRU).Touch", "mem"},
	{"runtime.mallocgc", "runtime"},
	{"runtime/internal/atomic.(*Uint32).Load", "runtime"},
	{"internal/runtime/maps.(*Map).getWithKey", "runtime"},
	{"sort.Slice", ""},
	{"main.runOnce", ""},
}

func checkFrameLayers() error {
	for _, k := range knownFrames {
		if got := frameLayer(k.fn); got != k.layer {
			return fmt.Errorf("frame %q maps to layer %q, want %q", k.fn, got, k.layer)
		}
	}
	if got := stackLayer([]string{"sort.insertionSort", "sort.Slice", "repro/internal/place.(*Policy).Place", "repro/internal/datacenter.(*Arena).fill"}); got != "place" {
		return fmt.Errorf("stdlib leaf under place attributed to %q", got)
	}
	if got := stackLayer([]string{"main.main"}); got != "other" {
		return fmt.Errorf("benchmark-only stack attributed to %q", got)
	}
	return nil
}
