package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestMetricNames(t *testing.T) {
	if err := checkMetricNames(); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyWrapperMatchesPlain(t *testing.T) {
	if err := checkPolicyWrapper(rand.New(rand.NewSource(7)), 5000); err != nil {
		t.Fatal(err)
	}
}

func TestFrameLayers(t *testing.T) {
	if err := checkFrameLayers(); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, program %s/%s/%s",
					kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
			if (m.Bound != nil) != (kind == "end_to_end") {
				t.Errorf("%s: metric %s bound presence is wrong", kind, m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// smallSize shrinks each workload so the correctness gates run in seconds.
var smallSize = map[string]float64{"arena-replay": 0.04, "fabric-pool": 0.1, "serve-flash": 0.1}

// TestWorkloadGates runs every workload small: the checks pass, a rerun and
// a traced run reproduce the simulated outputs exactly, the boundary
// counters agree with the model, and another seed changes the outputs.
func TestWorkloadGates(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			size := smallSize[w.name]
			first := w.build(3, size, nil).run()
			if first.check != nil {
				t.Fatal(first.check)
			}
			if again := w.build(3, size, nil).run(); again.fingerprint() != first.fingerprint() {
				t.Fatalf("rerun differs:\n%s\n%s", first.fingerprint(), again.fingerprint())
			}
			tr := newTracer()
			inst := w.build(3, size, tr)
			tr.startRun()
			traced := inst.run()
			tr.endRun()
			tr.close()
			if traced.fingerprint() != first.fingerprint() {
				t.Fatalf("traced run differs:\n%s\n%s", first.fingerprint(), traced.fingerprint())
			}
			if err := tr.crossCheck(traced); err != nil {
				t.Fatal(err)
			}
			if tr.placeCalls == 0 {
				t.Error("policy wrapper saw no placements")
			}
			other := w.build(4, size, nil).run()
			if other.check != nil {
				t.Fatal(other.check)
			}
			if other.fingerprint() == first.fingerprint() {
				t.Error("seed 4 reproduced seed 3's outputs")
			}
		})
	}
}

// TestParseProfile decodes a real CPU profile and finds the benchmark's
// own busy frame in it.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for i, st := range p.stacks {
		total += p.counts[i]
		for _, fn := range st {
			if strings.HasSuffix(fn, ".spin") {
				found = true
			}
		}
	}
	if total == 0 || !found {
		t.Fatalf("profile has %d samples, spin frame found: %v", total, found)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

var spinSink uint64

func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := uint64(1)
	for time.Now().Before(end) {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}
