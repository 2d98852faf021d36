// Command perfbench is the repository's benchmark. It runs one named
// workload against the public APIs of internal/datacenter, internal/fabric
// and internal/serve, checks the outputs, and prints every metric by name
// with its unit as the last line of standard output, one JSON object:
//
//	go build -o perfbench . && ./perfbench --workload arena-replay --seed 1 --seconds 25 --trace 0
//
// (perfbench/run.py builds and runs it from the repository root.)
//
// There are two kinds of number. Host metrics (wall_s, setup_s, alloc_mb,
// live_heap_mb and the per-layer cpu shares) measure the simulator on the
// machine it runs on and are noisy. Simulated metrics (every name starting
// with sim_) measure the modelled data center: they come from a seeded,
// deterministic simulation and repeat exactly for a seed, so a change that
// only speeds up the simulator must leave them byte-identical. The model has
// not been validated against hardware; no simulated number carries an error
// figure. METRICS.md maps each layer metric to the end-to-end metric it
// should move.
//
// With --trace 0 the benchmark prints the end-to-end metrics, measured with
// no instrumentation. With --trace 1 it alternates plain and traced runs and
// prints the per-layer metrics: counters read at public boundaries (a wrapped
// placement policy and arrival process, the new-engine hook, public result
// structs and device counters) and CPU shares attributed from a profile.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minRuns is the fewest timed runs a measurement takes, however long they
// are; medians need at least this many.
const minRuns = 5

// setupRepeats is how many extra models each timed run builds, and drops
// unrun, to time setup alone: set-up takes milliseconds or less, so its
// median needs far more samples than the runs give.
const setupRepeats = 20

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 25, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced runs")
	flag.Parse()

	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fail("unknown --workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *seconds <= 0:
		fail("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		fail("--trace must be 0 or 1")
	}
	if err := selfCheck(); err != nil {
		fail("self-check: %v", err)
	}

	rep := measure(w, *seed, *seconds, *trace == 1)
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	fmt.Fprintln(os.Stderr, rep.summary)
	out := map[string]any{
		"correct":   len(rep.errs) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(line))
	if len(rep.errs) > 0 {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one benchmark invocation prints.
type report struct {
	attempted, failed int
	errs              []error
	metrics           map[string]value
	summary           string
}

// sample is one setup + timed run of a fresh model.
type sample struct {
	setup, layerSetup, wall time.Duration
	allocBytes, liveHeap    uint64
	gcCycles                uint32
	gcCPU, usedCPU          float64 // runtime CPU-class seconds during the run
	out                     outcome
	trace                   *tracer          // nil for untraced runs
	cpuSamples              map[string]int64 // profile samples per layer (traced only)
}

// timeSetup builds a fresh model without running it and reports how long
// building took.
func timeSetup(w workloadDef, seed int64) time.Duration {
	runtime.GC()
	t0 := time.Now()
	inst := w.build(seed, 1, nil)
	d := time.Since(t0)
	runtime.KeepAlive(inst)
	return d
}

// runOnce builds a fresh model and runs it, timing setup and run
// separately. A forced GC before each phase keeps one phase's garbage out
// of the other's timing. A model panic is returned as an error.
func runOnce(w workloadDef, seed int64, traced bool) (s sample, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s run panicked: %v", w.name, r)
		}
	}()
	var tr *tracer
	if traced {
		tr = newTracer()
		defer tr.close()
	}
	runtime.GC()
	t0 := time.Now()
	inst := w.build(seed, 1, tr)
	s.setup = time.Since(t0)
	s.layerSetup = inst.layerSetup()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readCPU()
	var prof bytes.Buffer
	if traced {
		tr.startRun()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return s, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	t1 := time.Now()
	s.out = inst.run()
	s.wall = time.Since(t1)
	if traced {
		pprof.StopCPUProfile()
		tr.endRun()
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return s, err
		}
		s.cpuSamples = p.layerSamples()
		s.trace = tr
	}
	runtime.ReadMemStats(&m1)
	cpu1 := readCPU()
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcCPU = cpu1.gc - cpu0.gc
	s.usedCPU = cpu1.used - cpu0.used

	runtime.GC()
	runtime.ReadMemStats(&m1)
	s.liveHeap = m1.HeapAlloc
	runtime.KeepAlive(inst)
	return s, nil
}

// cpuClasses reads the runtime's CPU accounting.
type cpuClasses struct{ gc, used float64 }

func readCPU() cpuClasses {
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(ms)
	f := func(i int) float64 {
		if ms[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return ms[i].Value.Float64()
	}
	return cpuClasses{gc: f(0), used: f(1) - f(2)}
}

// measure runs one untimed warm-up (the reference for the determinism gate),
// then timed runs until the measurement time is used up. Traced
// measurements alternate plain and traced runs so both see the same machine
// conditions.
func measure(w workloadDef, seed int64, seconds float64, traced bool) report {
	var rep report
	ref, err := runOnce(w, seed, false)
	rep.attempted++
	if err != nil {
		rep.failed++
		rep.errs = append(rep.errs, err)
		rep.summary = "perfbench: warm-up run failed"
		return rep
	}
	refPrint := ref.out.fingerprint()
	if err := ref.out.check; err != nil {
		rep.errs = append(rep.errs, err)
	}

	var plain, withTrace []sample
	var setups []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || len(plain) < minRuns || (traced && len(withTrace) < minRuns); i++ {
		tracedRun := traced && i%2 == 1
		s, err := runOnce(w, seed, tracedRun)
		rep.attempted++
		if err == nil {
			err = s.out.check
		}
		if err == nil && s.out.fingerprint() != refPrint {
			err = fmt.Errorf("run %d (traced=%v): simulated outputs differ from the first run:\n  first: %s\n  this:  %s",
				i, tracedRun, refPrint, s.out.fingerprint())
		}
		if err == nil && tracedRun {
			err = s.trace.crossCheck(s.out)
		}
		if err != nil {
			rep.failed++
			rep.errs = append(rep.errs, err)
			break
		}
		if tracedRun {
			withTrace = append(withTrace, s)
			continue
		}
		plain = append(plain, s)
		setups = append(setups, s.setup.Seconds())
		for j := 0; j < setupRepeats; j++ {
			setups = append(setups, timeSetup(w, seed).Seconds())
		}
	}
	if len(plain) == 0 || (traced && len(withTrace) == 0) {
		rep.errs = append(rep.errs, errors.New("no successful timed run"))
		return rep
	}
	if traced {
		rep.metrics, err = layerMetrics(w, plain, withTrace)
		if err != nil {
			rep.errs = append(rep.errs, err)
		}
	} else {
		rep.metrics = endToEndMetrics(plain, setups)
	}
	rep.summary = summarize(w, seed, plain, withTrace, rep.metrics)
	return rep
}

// endToEndMetrics reduces the plain runs to the end-to-end metrics: host
// numbers as medians (setup over every setup timed), simulated numbers from
// any run (they are identical).
func endToEndMetrics(runs []sample, setups []float64) map[string]value {
	out := make(map[string]value, len(endToEnd))
	med := func(f func(sample) float64) float64 {
		xs := make([]float64, len(runs))
		for i, s := range runs {
			xs[i] = f(s)
		}
		return median(xs)
	}
	host := map[string]float64{
		"wall_s":       med(func(s sample) float64 { return s.wall.Seconds() }),
		"setup_s":      median(setups),
		"alloc_mb":     med(func(s sample) float64 { return float64(s.allocBytes) / 1e6 }),
		"live_heap_mb": med(func(s sample) float64 { return float64(s.liveHeap) / 1e6 }),
	}
	for _, m := range endToEnd {
		v, ok := host[m.name]
		if !ok {
			v = runs[0].out.sim[m.name]
		}
		out[m.name] = value{Value: v, Unit: m.unit}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summarize is the human-readable stderr line: run counts, the delay
// sample count beside the delay quantiles, and the host/sim split.
func summarize(w workloadDef, seed int64, plain, traced []sample, ms map[string]value) string {
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench: workload=%s seed=%d plain_runs=%d traced_runs=%d delay_samples=%d events=%d\n",
		w.name, seed, len(plain), len(traced), plain[0].out.delaySamples, plain[0].out.events)
	b.WriteString("  plain runs, wall s / live heap MB:")
	for _, s := range plain {
		fmt.Fprintf(&b, " %.3f/%.3f", s.wall.Seconds(), float64(s.liveHeap)/1e6)
	}
	b.WriteString("\n")
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-32s %-5s %s %s\n", n, metricKind(n), strconv.FormatFloat(ms[n].Value, 'g', 8, 64), ms[n].Unit)
	}
	return strings.TrimRight(b.String(), "\n")
}
