// Package device models the far-memory backend hardware the paper evaluates:
// HDDs, NVMe SSDs, RDMA NICs (ConnectX-5/6), DPUs (BlueField-3), CXL memory
// expanders, and host-borrowed remote DRAM.
//
// A Device is a queueing station in front of the PCIe fabric: operations wait
// for one of the device's parallel I/O channels (the paper's tunable "I/O
// width"), pay a per-operation base latency (plus a random-access penalty for
// media with seek/NAND overheads), then stream their payload through the
// device's internal-bandwidth link and its PCIe slot link. Bandwidth sharing
// between in-flight operations — and between devices on the same fabric — is
// handled by the fluid-flow arbiter in package pcie.
package device

import (
	"errors"
	"fmt"

	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/units"
)

// Registered invariants for the device model: an op's end-to-end latency can
// never undercut its base service latency (queueing and transfer only add),
// and the payload a device completes can never exceed its rated internal
// bandwidth × elapsed virtual time (each completion may round up to a
// fabric completionEpsilon of bytes, hence the per-op slack).
var (
	ckDevLatency    = invariant.Register("device.op.latency-at-least-base")
	ckDevThroughput = invariant.Register("device.throughput-bound")
)

// ErrDown is the completion error for ops against a dead device: the
// controller (or NIC) aborts the request instead of servicing it.
var ErrDown = errors.New("device: backend down")

// FailFastLatency is how long a dead device takes to reject an op — the
// cost of a controller abort / NIC completion-with-error, far below any
// initiator timeout but not free.
const FailFastLatency = 25 * sim.Microsecond

// Kind classifies the far-memory medium.
type Kind int

// Device kinds evaluated by the paper.
const (
	HDD Kind = iota
	SSD
	RDMA
	DPU
	CXL
	RemoteDRAM
	// PooledCXL is a switch-attached CXL 2.0/3.0 pooled-memory port: same
	// load/store medium as CXL, reached through switch hops and shared with
	// other hosts (see internal/fabric).
	PooledCXL
)

func (k Kind) String() string {
	switch k {
	case HDD:
		return "hdd"
	case SSD:
		return "ssd"
	case RDMA:
		return "rdma"
	case DPU:
		return "dpu"
	case CXL:
		return "cxl"
	case RemoteDRAM:
		return "dram"
	case PooledCXL:
		return "pooled-cxl"
	default:
		return "unknown"
	}
}

// Spec describes a device model's performance envelope.
type Spec struct {
	Name string
	Kind Kind

	// Bandwidth is the device's internal data bandwidth (media or NIC line
	// rate), the number quoted in Fig 1(b).
	Bandwidth units.BytesPerSec

	// ReadLatency/WriteLatency are per-operation base latencies for
	// sequential access at page granularity.
	ReadLatency  sim.Duration
	WriteLatency sim.Duration

	// RandomPenalty is added per op when the access is not sequential with
	// the previous one (HDD seeks, NAND read-around, NIC cache misses).
	RandomPenalty sim.Duration

	// Channels is the default number of parallel I/O channels (queue pairs
	// for RDMA, NVMe queues for SSD). This is the paper's "I/O width" knob.
	Channels int

	// ChannelBandwidth caps the rate of a single in-flight operation: real
	// devices only reach their full bandwidth at queue depth > 1 (NAND plane
	// parallelism, multiple NIC queue pairs). Zero means uncapped.
	ChannelBandwidth units.BytesPerSec

	// Capacity is the usable far-memory capacity the device exposes.
	Capacity int64

	// CostPerGB is the relative hardware cost used by the MEI metric
	// (performance improvement per unit device cost).
	CostPerGB float64

	// SlotGen/SlotLanes describe the PCIe slot the device occupies.
	SlotGen   pcie.Generation
	SlotLanes int
}

// SlotBandwidth reports the usable unidirectional bandwidth of the slot.
func (s Spec) SlotBandwidth() units.BytesPerSec {
	return s.SlotGen.SlotBandwidth(s.SlotLanes)
}

// Op is one I/O operation against a device.
type Op struct {
	Write      bool
	Size       int64
	Sequential bool

	// ID correlates this op with the swap operation that caused it; Stripe
	// is its position among the extent's parallel sub-ops. Both are pure
	// observability plumbing: zero ID (the default) means "uncorrelated" and
	// suppresses the per-stage spans entirely.
	ID     uint64
	Stripe int
}

// Device is an instantiated device attached to a host fabric.
type Device struct {
	spec   Spec
	eng    *sim.Engine
	fabric *pcie.Fabric
	// path is every op's transfer path, built once: the media link, the
	// slot link, then the extra links (e.g. the host root-complex budget).
	path []*pcie.Link

	// Reads and writes occupy separate channel pools, mirroring real
	// hardware (NVMe submission queues, RDMA queue pairs) and PCIe's full
	// duplex: a fault's read is never stuck behind write-back traffic at
	// admission, though both directions still share the media bandwidth.
	readCh  *sim.Resource
	writeCh *sim.Resource

	// Fault state (driven by internal/faults via the Target interface).
	// down: ops fail fast with ErrDown. stalled: ops are silently dropped
	// (only the initiator's timeout notices). latFactor scales base op
	// latency; bandwidth degradation is applied to the media link itself
	// so the fluid-flow arbiter redistributes fairly.
	down      bool
	stalled   bool
	latFactor float64

	// Stats.
	Ops       metrics.Counter
	ReadOps   metrics.Counter
	WriteOps  metrics.Counter
	Failed    metrics.Counter // ops rejected with ErrDown
	Dropped   metrics.Counter // ops silently lost while stalled
	BytesRead float64
	BytesWrit float64
	Latency   metrics.Summary // per-op end-to-end latency, µs

	// Observability handle, resolved once at construction (nil when off).
	rec      *obs.Recorder
	track    string
	obsQueue *metrics.BucketTimeline
}

// New attaches a device with the given spec to a fabric. extraLinks (such as
// the host root-complex budget) are appended to every transfer path so that
// fabric-level contention between devices is modeled.
func New(eng *sim.Engine, fabric *pcie.Fabric, spec Spec, extraLinks ...*pcie.Link) *Device {
	if spec.Channels <= 0 {
		panic(fmt.Sprintf("device %q: non-positive channel count", spec.Name))
	}
	path := make([]*pcie.Link, 2, 2+len(extraLinks))
	path[0] = fabric.NewLink(spec.Name+"/media", spec.Bandwidth)
	path[1] = fabric.NewLink(spec.Name+"/slot", spec.SlotBandwidth())
	d := &Device{
		spec:    spec,
		eng:     eng,
		fabric:  fabric,
		path:    append(path, extraLinks...),
		readCh:  sim.NewResource(eng, spec.Channels),
		writeCh: sim.NewResource(eng, spec.Channels),
	}
	d.latFactor = 1
	d.Ops.Name = spec.Name + ".ops"
	d.ReadOps.Name = spec.Name + ".reads"
	d.WriteOps.Name = spec.Name + ".writes"
	d.Failed.Name = spec.Name + ".failed"
	d.Dropped.Name = spec.Name + ".dropped"
	if obs.On {
		if r := obs.Rec(eng); r != nil {
			d.rec = r
			d.track = "dev/" + spec.Name
			d.obsQueue = r.Timeline(d.track+"/queue", obs.DefaultTimelineWidth, obs.ModeMean)
			r.OnSeal(func() {
				now := eng.Now()
				r.Gauge(d.track + "/utilization/media").Set(d.MediaLink().Utilization(now))
				r.Gauge(d.track + "/utilization/slot").Set(d.SlotLink().Utilization(now))
				r.Counter(d.track + "/ops").Add(float64(d.Ops.Value))
				r.Counter(d.track + "/failed").Add(float64(d.Failed.Value))
				r.Counter(d.track + "/dropped").Add(float64(d.Dropped.Value))
				r.Counter(d.track + "/bytes").Add(d.TotalBytes())
			})
		}
	}
	return d
}

// Spec reports the device's specification.
func (d *Device) Spec() Spec { return d.spec }

// Kind reports the device's medium kind.
func (d *Device) Kind() Kind { return d.spec.Kind }

// Name reports the device's name.
func (d *Device) Name() string { return d.spec.Name }

// Channels reports the current I/O width (per direction).
func (d *Device) Channels() int { return d.readCh.Capacity() }

// SetChannels adjusts the I/O width (the paper tunes this online per path).
func (d *Device) SetChannels(n int) {
	d.readCh.Resize(n)
	d.writeCh.Resize(n)
}

// QueueDepth reports operations waiting for a channel in either direction.
func (d *Device) QueueDepth() int { return d.readCh.Waiting() + d.writeCh.Waiting() }

// InFlight reports operations currently holding a channel.
func (d *Device) InFlight() int { return d.readCh.InUse() + d.writeCh.InUse() }

// SlotLink exposes the device's PCIe slot link for utilization reporting.
func (d *Device) SlotLink() *pcie.Link { return d.path[1] }

// MediaLink exposes the device's internal-bandwidth link.
func (d *Device) MediaLink() *pcie.Link { return d.path[0] }

// --- fault state (the faults.Target interface) ---

// Fail kills the device permanently: every subsequent op completes fast
// with ErrDown. Data held on the device is considered lost.
func (d *Device) Fail() {
	d.down = true
	d.stalled = false
	if d.rec != nil {
		d.rec.Instant(d.track, "fail", "")
	}
}

// Stall starts a transient outage: ops are silently dropped until Recover.
// Only the initiator's timeout notices — this models RDMA link flaps and
// NVMe controller resets, where requests vanish without a completion.
func (d *Device) Stall() {
	if !d.down {
		d.stalled = true
		if d.rec != nil {
			d.rec.Instant(d.track, "stall", "")
		}
	}
}

// Degrade multiplies base op latency by lat (clamped to >= 1) and scales
// the media-link bandwidth by bw (clamped to (0, 1]); the fluid-flow
// arbiter rebalances all in-flight transfers immediately.
func (d *Device) Degrade(lat, bw float64) {
	if d.down {
		return
	}
	if lat < 1 {
		lat = 1
	}
	if bw <= 0 || bw > 1 {
		bw = 1
	}
	d.latFactor = lat
	d.MediaLink().SetCapacity(units.BytesPerSec(float64(d.spec.Bandwidth) * bw))
	d.fabric.Rebalance()
	if d.rec != nil {
		d.rec.Instant(d.track, "degrade", fmt.Sprintf("lat=%g bw=%g", lat, bw))
	}
}

// Recover restores full health after a Stall or Degrade. A Failed device
// stays down: permanent death has no recovery path short of rebuilding it.
func (d *Device) Recover() {
	if d.down {
		return
	}
	d.stalled = false
	d.latFactor = 1
	d.MediaLink().SetCapacity(d.spec.Bandwidth)
	d.fabric.Rebalance()
	if d.rec != nil {
		d.rec.Instant(d.track, "recover", "")
	}
}

// Down reports whether the device has failed permanently.
func (d *Device) Down() bool { return d.down }

// Stalled reports whether the device is in a transient outage window.
func (d *Device) Stalled() bool { return d.stalled }

// Healthy reports whether the device is fully operational (not down, not
// stalled, not latency- or bandwidth-degraded).
func (d *Device) Healthy() bool {
	return !d.down && !d.stalled && d.latFactor == 1 &&
		d.MediaLink().Capacity() == d.spec.Bandwidth
}

// Submit enqueues an operation; done (if non-nil) fires at completion with
// the end-to-end latency including channel queueing. Under faults, done
// only fires if the op succeeds — callers that need failure notification
// use SubmitResult.
func (d *Device) Submit(op Op, done func(lat sim.Duration)) {
	d.SubmitResult(op, func(lat sim.Duration, err error) {
		if err == nil && done != nil {
			done(lat)
		}
	})
}

// SubmitResult enqueues an operation and reports the outcome: done fires
// with err == nil on success, or err == ErrDown (after FailFastLatency) if
// the device is dead. While the device is stalled the op is dropped and
// done never fires — initiators recover via their own timeout (see
// swap.RetryPolicy).
func (d *Device) SubmitResult(op Op, done func(lat sim.Duration, err error)) {
	if op.Size <= 0 {
		panic(fmt.Sprintf("device %q: op with non-positive size", d.spec.Name))
	}
	if d.stalled {
		d.Dropped.Inc()
		if d.rec != nil {
			d.rec.Instant(d.track, "drop-stalled", "")
		}
		return
	}
	if d.down {
		d.failFast(done)
		return
	}
	start := d.eng.Now()
	if d.obsQueue != nil {
		d.obsQueue.Add(start, float64(d.QueueDepth()))
	}
	ch := d.readCh
	if op.Write {
		ch = d.writeCh
	}
	ch.Acquire(1, func() {
		// Stage spans for correlated ops: wait (channel queueing), arbitrate
		// (base service latency), transfer (fabric streaming). Together with
		// the swap path's stage spans these give the analysis tier an exact
		// decomposition of a swap op's end-to-end latency.
		acquired := d.eng.Now()
		if d.rec != nil && op.ID != 0 {
			d.rec.Span(d.track, "wait", start, obs.DetailOp(op.ID, op.Stripe))
		}
		// The device may have faulted while the op sat in the queue.
		if d.stalled || d.down {
			ch.Release(1)
			if d.down {
				d.failFast(done)
			} else {
				d.Dropped.Inc()
			}
			return
		}
		base := d.spec.ReadLatency
		if op.Write {
			base = d.spec.WriteLatency
		}
		if !op.Sequential {
			base += d.spec.RandomPenalty
		}
		if d.latFactor > 1 {
			base = sim.Duration(float64(base) * d.latFactor)
		}
		d.eng.After(base, func() {
			served := d.eng.Now()
			if d.rec != nil && op.ID != 0 {
				d.rec.Span(d.track, "arbitrate", acquired, obs.DetailOp(op.ID, op.Stripe))
			}
			d.fabric.TransferCapped(op.Size, d.spec.ChannelBandwidth, d.path, func(at sim.Time) {
				ch.Release(1)
				lat := at.Sub(start)
				d.Ops.Inc()
				if op.Write {
					d.WriteOps.Inc()
					d.BytesWrit += float64(op.Size)
				} else {
					d.ReadOps.Inc()
					d.BytesRead += float64(op.Size)
				}
				if invariant.On {
					ckDevLatency.Assert(lat >= base,
						"op latency %v below base service latency %v", lat, base)
					secs := at.Seconds()
					bound := float64(d.spec.Bandwidth)*secs*(1+1e-6) + 1e-3*float64(d.Ops.Value) + 1
					ckDevThroughput.Assert(d.TotalBytes() <= bound,
						"device %q completed %.0f bytes in %.6fs at %.0f B/s",
						d.spec.Name, d.TotalBytes(), secs, float64(d.spec.Bandwidth))
				}
				d.Latency.Add(lat.Microseconds())
				if d.rec != nil {
					name := "read"
					if op.Write {
						name = "write"
					}
					detail := ""
					if op.ID != 0 {
						detail = obs.DetailOp(op.ID, op.Stripe)
						d.rec.Span(d.track, "transfer", served, detail)
					}
					d.rec.Span(d.track, name, start, detail)
				}
				if done != nil {
					done(lat, nil)
				}
			})
		})
	})
}

func (d *Device) failFast(done func(lat sim.Duration, err error)) {
	d.Failed.Inc()
	if d.rec != nil {
		d.rec.Instant(d.track, "err-down", "")
	}
	if done != nil {
		d.eng.After(FailFastLatency, func() { done(FailFastLatency, ErrDown) })
	}
}

// TotalBytes reports all payload moved through the device.
func (d *Device) TotalBytes() float64 { return d.BytesRead + d.BytesWrit }
