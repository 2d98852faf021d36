package main

// metricDef names one printed metric. kind is "host" (measures the
// simulator, noisy) or "sim" (measures the modelled data center, exact for a
// seed). BENCHMARK.json at the repository root lists the same names, units
// and directions; a self-test keeps the two in step.
type metricDef struct {
	name, unit, better, kind string
}

// endToEnd are printed with --trace 0, measured on plain runs.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", "host"},
	{"setup_s", "s", "lower", "host"},
	{"alloc_mb", "MB", "lower", "host"},
	{"live_heap_mb", "MB", "lower", "host"},
	{"sim_goodput_rps", "1/s", "higher", "sim"},
	{"sim_delay_p50_ms", "ms", "lower", "sim"},
	{"sim_delay_p99_ms", "ms", "lower", "sim"},
	{"sim_completed_frac", "fraction", "higher", "sim"},
}

// perLayer are printed with --trace 1. Layers a workload does not exercise
// read 0 there.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", "sim"},
	{"sim.events_per_s", "1/s", "higher", "host"},
	{"sim.cpu_share", "fraction", "lower", "host"},
	{"sim.windows", "count", "lower", "sim"},
	{"sim.messages", "count", "lower", "sim"},
	{"sim.parallelism", "ratio", "higher", "host"},

	{"place.calls", "count", "lower", "sim"},
	{"place.candidates_per_call", "count", "lower", "sim"},
	{"place.failed_frac", "fraction", "lower", "sim"},
	{"place.cpu_share", "fraction", "lower", "host"},

	{"datacenter.setup_s", "s", "lower", "host"},
	{"datacenter.max_queue", "count", "lower", "sim"},
	{"datacenter.mbe", "ratio", "higher", "sim"},
	{"datacenter.stranded_frac", "fraction", "lower", "sim"},
	{"datacenter.cpu_share", "fraction", "lower", "host"},

	{"pcie.port_mb", "MB", "lower", "sim"},
	{"pcie.cpu_share", "fraction", "lower", "host"},

	{"fabric.setup_s", "s", "lower", "host"},
	{"fabric.pool_grants", "count", "lower", "sim"},
	{"fabric.pool_reclaims", "count", "lower", "sim"},
	{"fabric.writer_epochs", "count", "lower", "sim"},
	{"fabric.coherence_ms", "ms", "lower", "sim"},
	{"fabric.stranded_frac", "fraction", "lower", "sim"},
	{"fabric.cpu_share", "fraction", "lower", "host"},

	{"device.read_ops", "count", "lower", "sim"},
	{"device.write_ops", "count", "lower", "sim"},
	{"device.write_frac", "fraction", "lower", "sim"},
	{"device.failed_ops", "count", "lower", "sim"},
	{"device.cpu_share", "fraction", "lower", "host"},

	{"task.cpu_share", "fraction", "lower", "host"},
	{"swap.cpu_share", "fraction", "lower", "host"},
	{"mem.cpu_share", "fraction", "lower", "host"},

	{"serve.refused_queue_full", "count", "lower", "sim"},
	{"serve.refused_deadline", "count", "lower", "sim"},
	{"serve.refused_throttle", "count", "lower", "sim"},
	{"serve.shed", "count", "lower", "sim"},
	{"serve.degraded", "count", "lower", "sim"},
	{"serve.breaker_opens", "count", "lower", "sim"},
	{"serve.retiers", "count", "lower", "sim"},
	{"serve.max_queue", "count", "lower", "sim"},
	{"serve.cpu_share", "fraction", "lower", "host"},

	{"workload.arrivals", "count", "higher", "sim"},
	{"workload.cpu_share", "fraction", "lower", "host"},

	{"runtime.gc_cpu_frac", "fraction", "lower", "host"},
	{"runtime.gc_cycles", "count", "lower", "host"},
	{"runtime.alloc_b_per_event", "B", "lower", "host"},
	{"runtime.cpu_share", "fraction", "lower", "host"},

	{"bench.trace_overhead_frac", "fraction", "lower", "host"},
	{"bench.profile_samples", "count", "higher", "host"},
	{"bench.delay_samples", "count", "higher", "sim"},
}

// cpuLayers are the layers the CPU profile attributes samples to; each
// has a "<layer>.cpu_share" metric above.
var cpuLayers = []string{"sim", "place", "datacenter", "pcie", "fabric", "device",
	"task", "swap", "mem", "serve", "workload", "runtime"}

// metricKind reports a metric's kind, "" for an unknown name.
func metricKind(name string) string {
	for _, ms := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range ms {
			if m.name == name {
				return m.kind
			}
		}
	}
	return ""
}
