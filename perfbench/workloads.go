package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/clustertrace"
	"repro/internal/datacenter"
	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/pcie"
	"repro/internal/place"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// workloadDef is one named benchmark workload. build turns the benchmark
// seed into the model's inputs and constructs a fresh model, ready to run
// once; size scales the model down for the self-tests (1 = benchmark size).
// A non-nil tracer wraps the model's public boundaries.
type workloadDef struct {
	name  string
	build func(seed int64, size float64, tr *tracer) instance
	// setupMetric names the per-layer metric timing the layer's own
	// constructor ("" when the workload has none).
	setupMetric string
}

// instance is one built model.
type instance interface {
	run() outcome
	// layerSetup is the part of setup spent in the layer's constructor.
	layerSetup() time.Duration
}

var workloads = []workloadDef{
	{name: "arena-replay", build: buildArena, setupMetric: "datacenter.setup_s"},
	{name: "fabric-pool", build: buildFabric, setupMetric: "fabric.setup_s"},
	{name: "serve-flash", build: buildServe},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// outcome is one run's simulated results. Everything but shards' host
// timings is a pure function of the seed.
type outcome struct {
	// sim holds the sim_* end-to-end metrics.
	sim map[string]float64
	// layer holds per-layer counters read from public results.
	layer map[string]float64

	events       uint64
	delaySamples int
	shards       sim.ShardStats

	// offered is the work the arrival process or task list offered; gaps is
	// how many arrival gaps that takes (-1 for closed loops). placedMin and
	// placedMax bound the successful placements (placedMax < 0: unchecked).
	offered              int
	gaps                 int
	placedMin, placedMax int

	// check is the first failed correctness check (conservation, audit).
	check error
}

// fingerprint renders every simulated quantity at full precision, in a
// fixed order; two runs of one seed must produce the same string.
func (o outcome) fingerprint() string {
	var parts []string
	add := func(m map[string]float64) {
		for k, v := range m {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add(o.sim)
	add(o.layer)
	sort.Strings(parts)
	return fmt.Sprintf("events=%d delay_samples=%d offered=%d %s",
		o.events, o.delaySamples, o.offered, strings.Join(parts, " "))
}

// modelSeeds derives n model seeds from the benchmark seed. The model sees
// only these, never the benchmark seed itself.
func modelSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1 << 40)
	}
	return out
}

// scaled shrinks a workload spec by a fidelity divisor, down to the given
// floors (the experiments use 64 pages and 256 accesses). Each task starts
// cold: its init phase faults in the whole footprint.
func scaled(s workload.Spec, scale, minFoot, minAccesses int) workload.Spec {
	s.FootprintPages /= scale
	if s.FootprintPages < minFoot {
		s.FootprintPages = minFoot
	}
	s.MainAccesses /= scale
	if s.MainAccesses < minAccesses {
		s.MainAccesses = minAccesses
	}
	if s.SegmentLen > s.FootprintPages {
		s.SegmentLen = s.FootprintPages
	}
	return s
}

func sized(n int, size float64) int {
	v := int(float64(n) * size)
	if v < 1 {
		v = 1
	}
	return v
}

func ms(d sim.Duration) float64 { return d.Milliseconds() }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ---------------------------------------------------------------------------
// arena-replay: the sharded datacenter arena under a day-compressed
// Alibaba-2017 replay. Placement (best-fit over every node), dispatch and the
// shard kernel do most of the work; tasks are tiny by construction.

const (
	arenaNodes   = 500
	arenaScale   = 256
	arenaHorizon = 4 * sim.Millisecond
	arenaSLO     = 50 * sim.Millisecond
	arenaCores   = 4
	arenaShards  = 2
	// arenaPeakPerCore is the trace's 100%-utilization arrival rate per
	// core. The fleet completes about 1150 tasks per core-second, and the
	// replay's utilization runs about 0.3 to 0.7 over the day, so offered
	// load stays past the knee all day (1.5x to 3.6x): the dispatcher queue
	// stays near full and placement retries on every arrival and completion.
	// The drain is one more day-length, enough to finish the queue.
	arenaPeakPerCore = 6000.0
)

// arenaTemplates is the policyarena mix: the two serving request shapes
// plus a wide (2-core, light memory) and a fat (3x footprint) request.
func arenaTemplates() (apps []cluster.App, foot int) {
	for _, a := range serve.RequestTemplates() {
		a.Spec = scaled(a.Spec, arenaScale, 16, 64)
		if a.Spec.FootprintPages > foot {
			foot = a.Spec.FootprintPages
		}
		apps = append(apps, a)
	}
	wide := apps[len(apps)-1]
	wide.Spec.Name = "req-wide"
	wide.Cores = 2
	fat := apps[0]
	fat.Spec.Name = "req-fat"
	fat.Spec.FootprintPages = 3 * foot
	return append(apps, wide, fat), foot
}

type arenaRun struct {
	a     *datacenter.Arena
	cfg   datacenter.ArenaConfig
	setup time.Duration
}

func buildArena(seed int64, size float64, tr *tracer) instance {
	seeds := modelSeeds(seed, 2)
	nodes := sized(arenaNodes, size)
	apps, foot := arenaTemplates()
	peak := arenaPeakPerCore * float64(nodes*arenaCores)
	var arr workload.ArrivalProcess = workload.NewTraceReplay(
		clustertrace.Alibaba2017(), 96, arenaHorizon/96, peak, seeds[1])
	pol := place.Builtin("best-fit")
	if tr != nil {
		arr = tr.wrapArrivals(arr)
		pol = tr.wrapPolicy(pol)
	}
	cfg := datacenter.ArenaConfig{
		Nodes:        nodes,
		Shards:       arenaShards,
		ShardWorkers: arenaShards,
		CoresPerNode: arenaCores,
		PagesPerNode: 6 * foot,
		XDM:          true,
		Templates:    apps,
		LocalRatio:   0.5,
		Arrivals:     arr,
		Duration:     arenaHorizon,
		Drain:        arenaHorizon,
		MaxQueue:     4 * nodes,
		SLO:          arenaSLO,
		Policy:       pol,
		Seed:         seeds[0],
	}
	t0 := time.Now()
	a := datacenter.NewArena(cfg)
	return &arenaRun{a: a, cfg: cfg, setup: time.Since(t0)}
}

func (r *arenaRun) layerSetup() time.Duration { return r.setup }

func (r *arenaRun) run() outcome {
	res := r.a.Run()
	o := outcome{
		events:       res.Events,
		delaySamples: res.Completed,
		shards:       res.Stats,
		offered:      res.Offered,
		gaps:         res.Offered + 1, // the last gap lands past the window
		placedMin:    res.Completed,
		placedMax:    res.Offered - res.Refused,
		sim: map[string]float64{
			"sim_goodput_rps":    float64(res.InSLO) / r.cfg.Duration.Seconds(),
			"sim_delay_p50_ms":   ms(res.DelayP50),
			"sim_delay_p99_ms":   ms(res.DelayP99),
			"sim_completed_frac": frac(res.Completed, res.Offered),
		},
		layer: map[string]float64{
			"sim.windows":              float64(res.Stats.Windows),
			"sim.messages":             float64(res.Stats.Messages),
			"datacenter.max_queue":     float64(res.MaxQueue),
			"datacenter.mbe":           res.MBE,
			"datacenter.stranded_frac": res.StrandedFrac,
		},
	}
	switch {
	case res.Refused+res.Completed+res.InFlight != res.Offered || res.InFlight < 0:
		o.check = fmt.Errorf("arena conservation: offered %d != refused %d + completed %d + in-flight %d",
			res.Offered, res.Refused, res.Completed, res.InFlight)
	case res.InSLO > res.Completed:
		o.check = fmt.Errorf("arena: %d completions in SLO out of %d", res.InSLO, res.Completed)
	case res.Completed == 0:
		o.check = fmt.Errorf("arena: nothing completed")
	}
	return o
}

// ---------------------------------------------------------------------------
// fabric-pool: one 64-host CXL cell on a pooled switch, closed loop of
// large write-heavy tasks. The per-task memory path (task, swap, device,
// the shared pcie crossbar) does the work; placement has 64 candidates.

const (
	fabricHosts = 64
	fabricScale = 256
	fabricTasks = 1024
)

// fabricTemplates are the paper's sort and stream shapes, scaled, plus a
// fat sort whose swapped share is twice a host's private far partition, so
// it can only run on pooled capacity.
func fabricTemplates() (apps []cluster.App, foot int) {
	for _, name := range []string{"sort", "stream"} {
		s := scaled(workload.ByName(name), fabricScale, 16, 64)
		cores := s.Threads
		if cores < 1 {
			cores = 1
		}
		apps = append(apps, cluster.App{Spec: s, SLO: 1.5, Cores: cores})
		if s.FootprintPages > foot {
			foot = s.FootprintPages
		}
	}
	fat := apps[0]
	fat.Spec.Name = "sort-fat"
	fat.Spec.FootprintPages = 8 * foot
	return append(apps, fat), foot
}

type fabricRun struct {
	eng   *sim.Engine
	cell  *fabric.Cell
	clock *placeClock
	tasks int
	setup time.Duration
}

func buildFabric(seed int64, size float64, tr *tracer) instance {
	seeds := modelSeeds(seed, 1)
	apps, foot := fabricTemplates()
	eng := sim.NewEngine()
	// The cell's worst-fit default, with the placement-time recorder: the
	// cell reports no per-task start times, so the benchmark reads them at
	// the policy boundary.
	pol := place.Builtin("worst-fit")
	clock := &placeClock{eng: eng}
	pol.Extenders = append(pol.Extenders, clock.extender())
	if tr != nil {
		pol = tr.wrapPolicy(pol)
	}
	slab := fabric.DefaultSlab / fabricScale
	if slab < fabric.MinSlab {
		slab = fabric.MinSlab
	}
	tasks := sized(fabricTasks, size)
	cfg := fabric.Config{
		Eng:              eng,
		Name:             "pool",
		Spec:             fabric.Spec{Hosts: fabricHosts, Pool: 1, Slab: slab, Hops: 1, Placer: fabric.PlacerFabric},
		CoresPerHost:     4,
		DRAMPagesPerHost: 6 * foot,
		FarPagesPerHost:  2 * foot,
		Pooled:           true,
		Templates:        apps,
		Tasks:            tasks,
		LocalRatio:       0.5,
		Policy:           pol,
		Seed:             seeds[0],
	}
	t0 := time.Now()
	c := fabric.NewCell(cfg)
	return &fabricRun{eng: eng, cell: c, clock: clock, tasks: tasks, setup: time.Since(t0)}
}

func (r *fabricRun) layerSetup() time.Duration { return r.setup }

func (r *fabricRun) run() outcome {
	ev0 := r.eng.Processed()
	res := r.cell.Run()
	delays := r.clock.sorted()
	goodput := 0.0
	if res.Makespan > 0 {
		goodput = float64(res.Completed) / res.Makespan.Seconds()
	}
	var reads, writes, failed uint64
	var portBytes float64
	for _, d := range r.cell.Switch().Ports() {
		reads += d.ReadOps.Value
		writes += d.WriteOps.Value
		failed += d.Failed.Value
		portBytes += d.SlotLink().BytesMoved()
	}
	o := outcome{
		events:       r.eng.Processed() - ev0,
		delaySamples: len(delays),
		offered:      r.tasks,
		gaps:         -1,
		placedMin:    res.Placed,
		placedMax:    res.Placed,
		sim: map[string]float64{
			"sim_goodput_rps":    goodput,
			"sim_delay_p50_ms":   ms(quantile(delays, 0.50)),
			"sim_delay_p99_ms":   ms(quantile(delays, 0.99)),
			"sim_completed_frac": frac(res.Completed, r.tasks),
		},
		layer: map[string]float64{
			"fabric.pool_grants":   float64(res.PoolGrants),
			"fabric.pool_reclaims": float64(res.PoolReclaims),
			"fabric.writer_epochs": float64(res.WriterEpochs),
			"fabric.coherence_ms":  ms(res.CoherenceCost),
			"fabric.stranded_frac": res.StrandedFrac,
			"pcie.port_mb":         portBytes / 1e6,
			"device.read_ops":      float64(reads),
			"device.write_ops":     float64(writes),
			"device.write_frac":    frac(int(writes), int(reads+writes)),
			"device.failed_ops":    float64(failed),
		},
	}
	pool := r.cell.Pool()
	switch {
	case res.Placed+res.Refused != r.tasks:
		o.check = fmt.Errorf("fabric conservation: placed %d + refused %d != tasks %d", res.Placed, res.Refused, r.tasks)
	case res.Refused+res.Completed != r.tasks:
		o.check = fmt.Errorf("fabric conservation: refused %d + completed %d != tasks %d (closed loop drains)",
			res.Refused, res.Completed, r.tasks)
	case len(delays) != res.Placed:
		o.check = fmt.Errorf("fabric: %d placements seen at the policy, cell placed %d", len(delays), res.Placed)
	case pool.Audit() != nil:
		o.check = fmt.Errorf("fabric pool audit: %w", pool.Audit())
	case pool.FreeSlabs() != pool.Capacity():
		o.check = fmt.Errorf("fabric pool: %d of %d slabs free after the cell drained", pool.FreeSlabs(), pool.Capacity())
	case res.PoolGrants == 0:
		o.check = fmt.Errorf("fabric: no task borrowed pooled capacity")
	}
	return o
}

// placeClock records the simulated time of every successful placement. It
// sits in front of the cell's pool extender, which never turns a scored
// choice into a refusal, so chosen >= 0 here is exactly a placement.
type placeClock struct {
	eng   *sim.Engine
	times []sim.Duration
}

func (c *placeClock) extender() place.Extender {
	return place.Extender{Name: "bench-clock", Extend: func(_ place.Request, _ []place.Candidate, chosen int) int {
		if chosen >= 0 {
			c.times = append(c.times, sim.Duration(c.eng.Now()))
		}
		return chosen
	}}
}

// sorted returns the placement delays (all tasks arrive at t=0) in order.
func (c *placeClock) sorted() []sim.Duration {
	out := append([]sim.Duration(nil), c.times...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank quantile of a sorted slice, the rule
// ArenaResult uses.
func quantile(d []sim.Duration, q float64) sim.Duration {
	if len(d) == 0 {
		return 0
	}
	return d[int(q*float64(len(d)-1))]
}

// ---------------------------------------------------------------------------
// serve-flash: open-loop serving on one machine (ssd + rdma + dram) with a
// prewarmed 4-VM fleet, an 8x flash crowd, shedding, breakers and re-tiering
// on, and a gray failure on the dram backend in the middle of the burst.

const (
	serveScale   = 32
	serveVMs     = 4
	serveVMCores = 2
	// serveBaseRPS is below the fleet's knee (about 4700 completions/s);
	// the 8x burst is far past it.
	serveBaseRPS = 4000.0
	serveWindow  = 1500 * sim.Millisecond
	serveSLO     = 25 * sim.Millisecond
)

var serveBackends = []string{"ssd0", "rdma0", "dram0"}

type serveRun struct {
	env baseline.Env
	cfg serve.Config
}

func buildServe(seed int64, size float64, tr *tracer) instance {
	seeds := modelSeeds(seed, 1)
	var apps []cluster.App
	foot := 0
	for _, a := range serve.RequestTemplates() {
		a.Spec = scaled(a.Spec, serveScale, 16, 64)
		if a.Spec.FootprintPages > foot {
			foot = a.Spec.FootprintPages
		}
		apps = append(apps, a)
	}
	eng := sim.NewEngine()
	m := vm.NewMachine(eng, pcie.Gen4, 40, 16, 1<<20)
	m.AttachDevice(device.SpecTestbedSSD(serveBackends[0]))
	m.AttachDevice(device.SpecConnectX5(serveBackends[1]))
	m.AttachDevice(device.SpecRemoteDRAM(serveBackends[2]))
	env := baseline.Env{Machine: m, FileBackend: serveBackends[0]}
	serve.PrewarmFleet(env, serveVMs, serveVMCores, foot)

	var arr workload.ArrivalProcess = workload.FlashCrowd{
		BaseRPS: serveBaseRPS * size, Mult: 8, At: serveWindow / 4, For: serveWindow / 2,
	}
	pol := place.Builtin("alg1")
	if tr != nil {
		arr = tr.wrapArrivals(arr)
		pol = tr.wrapPolicy(pol)
	}
	// Gray failure mid-burst on the dram backend, the one the dispatcher
	// leans on most: its ops still complete, but far past their timeouts.
	// Serving time starts at the engine's current instant.
	dram := m.Device(serveBackends[2])
	eng.At(eng.Now().Add(serveWindow/2), func() { dram.Degrade(5000, 0.5) })
	cfg := serve.Config{
		Templates:     apps,
		Arrivals:      arr,
		Duration:      serveWindow,
		Drain:         serveWindow / 4,
		SLO:           serveSLO,
		AdmitDeadline: 4 * serveSLO,
		Shedding:      true,
		Breakers:      true,
		Retier:        true,
		Policy:        pol,
		Seed:          seeds[0],
	}
	return &serveRun{env: env, cfg: cfg}
}

func (r *serveRun) layerSetup() time.Duration { return 0 }

func (r *serveRun) run() outcome {
	m := r.env.Machine
	type ops struct{ reads, writes, failed uint64 }
	count := func() (o ops) {
		for _, name := range serveBackends {
			d := m.Device(name)
			o.reads += d.ReadOps.Value
			o.writes += d.WriteOps.Value
			o.failed += d.Failed.Value
		}
		return o
	}
	before := count()
	ev0 := m.Eng.Processed()
	res := serve.Run(r.env, r.cfg)
	after := count()
	reads, writes := after.reads-before.reads, after.writes-before.writes
	refused := res.RefusedQueueFull + res.RefusedDeadline + res.RefusedThrottle
	o := outcome{
		events:       m.Eng.Processed() - ev0,
		delaySamples: res.DelaySamples,
		offered:      res.Offered,
		gaps:         res.Offered,
		placedMax:    -1,
		sim: map[string]float64{
			"sim_goodput_rps":    res.GoodputRPS,
			"sim_delay_p50_ms":   ms(res.DelayP50),
			"sim_delay_p99_ms":   ms(res.DelayP99),
			"sim_completed_frac": frac(res.Completed, res.Offered),
		},
		layer: map[string]float64{
			"serve.refused_queue_full": float64(res.RefusedQueueFull),
			"serve.refused_deadline":   float64(res.RefusedDeadline),
			"serve.refused_throttle":   float64(res.RefusedThrottle),
			"serve.shed":               float64(res.Shed),
			"serve.degraded":           float64(res.Degraded),
			"serve.breaker_opens":      float64(res.BreakerOpens),
			"serve.retiers":            float64(res.Retiers),
			"serve.max_queue":          float64(res.MaxQueue),
			"device.read_ops":          float64(reads),
			"device.write_ops":         float64(writes),
			"device.write_frac":        frac(int(writes), int(reads+writes)),
			"device.failed_ops":        float64(after.failed - before.failed),
		},
	}
	switch {
	case res.Offered != refused+res.Admitted:
		o.check = fmt.Errorf("serve conservation: offered %d != refused %d + admitted %d", res.Offered, refused, res.Admitted)
	case res.Admitted != res.Completed+res.Shed+res.InFlight:
		o.check = fmt.Errorf("serve conservation: admitted %d != completed %d + shed %d + in-flight %d",
			res.Admitted, res.Completed, res.Shed, res.InFlight)
	case res.CompletedInSLO > res.Completed:
		o.check = fmt.Errorf("serve: %d completions in SLO out of %d", res.CompletedInSLO, res.Completed)
	case res.Completed == 0:
		o.check = fmt.Errorf("serve: nothing completed")
	}
	return o
}
