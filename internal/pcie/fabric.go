package pcie

import (
	"fmt"
	"math"

	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// Registered invariants for the fluid-flow arbiter. Progressive filling must
// never oversubscribe a link (allocated rate ≤ capacity) or push a capped
// flow past its cap, and a link can never have carried more payload than its
// high-water bandwidth × elapsed virtual time — the conservation law behind
// every throughput figure.
var (
	ckLinkAlloc      = invariant.Register("pcie.link.no-oversubscription")
	ckFlowCap        = invariant.Register("pcie.flow.rate-within-cap")
	ckLinkThroughput = invariant.Register("pcie.link.throughput-bound")
)

// rateEpsilon absorbs float rounding in rate allocation checks.
const rateEpsilon = 1e-6

// Link is a capacity-constrained segment of the I/O path: a PCIe slot, the
// host's root-complex budget, a device's internal bandwidth, or a network
// hop. Flows traversing a link share its capacity max-min fairly.
type Link struct {
	Name     string
	capacity float64 // bytes/sec
	// maxCapacity is the high-water capacity ever configured, the bound for
	// the throughput invariant (capacity may be degraded mid-run).
	maxCapacity float64

	// bytesMoved accumulates payload carried, for utilization reporting.
	bytesMoved float64

	// inflight counts the in-flight flows crossing the link, once per
	// occurrence on a flow's path. It is kept on arrival and completion so
	// that a rebalance starts from it instead of walking every path.
	inflight int32

	// Scratch fields used during rate recomputation.
	unfrozen int32
	alloc    float64

	// obsUtil, when non-nil, receives the link's instantaneous allocation
	// fraction at every fabric rebalance.
	obsUtil *metrics.BucketTimeline
}

// Capacity reports the link's bandwidth.
func (l *Link) Capacity() units.BytesPerSec { return units.BytesPerSec(l.capacity) }

// SetCapacity changes the link bandwidth. Rates of in-flight flows are
// re-shared on the next fabric event; callers that need the change to take
// effect immediately should call Fabric.Rebalance.
func (l *Link) SetCapacity(c units.BytesPerSec) {
	l.capacity = float64(c)
	if l.capacity > l.maxCapacity {
		l.maxCapacity = l.capacity
	}
}

// BytesMoved reports the payload bytes carried so far.
func (l *Link) BytesMoved() float64 { return l.bytesMoved }

// Utilization reports mean utilization over [0, now].
func (l *Link) Utilization(now sim.Time) float64 {
	secs := now.Seconds()
	if secs <= 0 || l.capacity <= 0 {
		return 0
	}
	return l.bytesMoved / (l.capacity * secs)
}

// flow is an in-progress transfer across a path of links. Its instantaneous
// rate is the max-min fair share across every link it traverses, further
// bounded by an optional per-flow cap (e.g. one RDMA queue pair's limit).
// Completed flows are recycled through the fabric's free list.
type flow struct {
	path      []*Link
	remaining float64
	rate      float64
	cap       float64 // 0 = uncapped
	done      func(at sim.Time)
	// frozen marks the rate fixed in the current rebalance when it equals
	// the fabric's frozenMark.
	frozen uint32

	// Observability (populated only when the fabric is recorded): start
	// stamp and the ideal uncontended duration — size over the narrowest
	// capacity on the path (and the flow cap). The difference between actual
	// and ideal duration is the time lost to bandwidth arbitration, exported
	// as the pcie/alloc-wait histogram.
	start sim.Time
	ideal sim.Duration

	// next chains the fabric's free list, and its just-completed flows
	// while their callbacks are pending.
	next *flow
}

// Fabric is the fluid-flow bandwidth simulator. Transfers are modeled as
// fluid flows whose rates are recomputed (progressive-filling max-min
// fairness, honoring per-flow caps) whenever a flow starts or completes.
//
// The steady-state hot path allocates nothing: flow records come from a
// free list and the flow slice is compacted in place. The free list never
// holds more records than there are flows in flight, and a fabric that
// drains drops its flow slice too, so an idle fabric retains no more than
// one that never ran.
type Fabric struct {
	eng    *sim.Engine
	links  []*Link
	flows  []*flow
	free   *flow
	minCap float64 // smallest cap among flows in flight (+Inf if none)
	spare  int32   // records on the free list
	// frozenMark is the flow.frozen value that means "frozen". Every
	// rebalance ends with all flows frozen and starts by advancing the
	// mark, which unfreezes them all without touching them. A flow's mark
	// is then exactly one behind, so wrapping around is harmless.
	frozenMark uint32
	lastUpdate sim.Time
	next       sim.Handle
	nextAt     sim.Time // when the pending completion fires; 0 when none is
	onNext     func()   // fb.onCompletion, bound once

	// Observability handle, resolved once at construction (nil when off).
	rec *obs.Recorder
}

// NewFabric creates an empty fabric on the engine.
func NewFabric(eng *sim.Engine) *Fabric {
	fb := &Fabric{eng: eng, lastUpdate: eng.Now(), minCap: math.Inf(1)}
	fb.onNext = fb.onCompletion
	if obs.On {
		fb.rec = obs.Rec(eng)
	}
	return fb
}

// NewLink adds a link with the given capacity to the fabric.
func (fb *Fabric) NewLink(name string, capacity units.BytesPerSec) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("pcie: link %q with non-positive capacity", name))
	}
	l := &Link{Name: name, capacity: float64(capacity), maxCapacity: float64(capacity)}
	fb.links = append(fb.links, l)
	if fb.rec != nil {
		r := fb.rec
		track := "pcie/" + name
		l.obsUtil = r.Timeline(track+"/alloc", obs.DefaultTimelineWidth, obs.ModeMean)
		r.OnSeal(func() {
			r.Gauge(track + "/utilization").Set(l.Utilization(fb.eng.Now()))
			r.Counter(track + "/bytes").Add(l.bytesMoved)
		})
	}
	return l
}

// Transfer starts moving size bytes across path and calls done (if non-nil)
// when the last byte lands. A zero/negative size completes immediately. An
// empty path panics — latency-only waits belong on the engine directly.
// The fabric keeps path until the transfer completes; the caller must not
// modify it in the meantime.
func (fb *Fabric) Transfer(size int64, path []*Link, done func(at sim.Time)) {
	fb.TransferCapped(size, 0, path, done)
}

// TransferCapped is Transfer with a per-flow rate cap (0 = uncapped).
func (fb *Fabric) TransferCapped(size int64, rateCap units.BytesPerSec, path []*Link, done func(at sim.Time)) {
	if len(path) == 0 {
		panic("pcie: transfer with empty path")
	}
	if size <= 0 {
		if done != nil {
			fb.eng.Immediately(func() { done(fb.eng.Now()) })
		}
		return
	}
	f := fb.free
	if f != nil {
		fb.free = f.next
		fb.spare--
		f.next = nil
	} else {
		f = &flow{}
	}
	f.path, f.remaining, f.cap, f.done = path, float64(size), float64(rateCap), done
	f.frozen = fb.frozenMark
	if f.cap > 0 && f.cap < fb.minCap {
		fb.minCap = f.cap
	}
	if fb.rec != nil {
		f.start = fb.eng.Now()
		minCap := math.Inf(1)
		for _, l := range path {
			if l.capacity > 0 && l.capacity < minCap {
				minCap = l.capacity
			}
		}
		if f.cap > 0 && f.cap < minCap {
			minCap = f.cap
		}
		if !math.IsInf(minCap, 1) {
			f.ideal = sim.Duration(float64(size) / minCap * float64(sim.Second))
		}
	}
	for _, l := range path {
		l.inflight++
	}
	fb.advance()
	fb.flows = append(fb.flows, f)
	fb.rebalance()
}

// Rebalance advances accounting to the current instant and recomputes all
// flow rates. It is called automatically on flow arrival and completion;
// call it manually after changing link capacities mid-flight.
func (fb *Fabric) Rebalance() {
	fb.advance()
	fb.rebalance()
}

// advance integrates flow progress from lastUpdate to now.
func (fb *Fabric) advance() {
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
	if invariant.On {
		secs := now.Seconds()
		for _, l := range fb.links {
			bound := l.maxCapacity*secs*(1+rateEpsilon) + completionEpsilon
			ckLinkThroughput.Assert(l.bytesMoved <= bound,
				"link %q moved %.0f bytes in %.6fs at max capacity %.0f B/s",
				l.Name, l.bytesMoved, secs, l.maxCapacity)
		}
	}
}

// rebalance recomputes max-min fair rates and schedules the next completion.
// DESIGN.md ("PCIe max-min arbiter") argues why every rate, allocation and
// completion time is bit-identical to a plain progressive filling that
// rescans every flow and path each round.
func (fb *Fabric) rebalance() {
	// Progressive filling. Reset scratch state.
	for _, l := range fb.links {
		l.alloc = 0
		l.unfrozen = l.inflight
	}
	fb.frozenMark++
	mark := fb.frozenMark
	unfrozen := len(fb.flows)
	// soonest is the smallest remaining/rate over the flows frozen so far:
	// the time to the next completion.
	soonest := math.Inf(1)
	for unfrozen > 0 {
		// Find the bottleneck share: the smallest per-flow headroom across
		// links that still carry unfrozen flows.
		share := math.Inf(1)
		var bottleneck *Link
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
			// No unfrozen flow touches any link; cannot happen with
			// non-empty paths.
			for _, f := range fb.flows {
				if f.frozen != mark {
					f.rate, f.frozen = 0, mark
				}
			}
			break
		}
		if share < 0 {
			share = 0
		}
		// A capped flow below the bottleneck share freezes at its cap first.
		// No flow in flight has a cap below fb.minCap.
		if fb.minCap < share {
			var minCapFlow *flow
			for _, f := range fb.flows {
				if f.frozen == mark || f.cap <= 0 || f.cap >= share {
					continue
				}
				if minCapFlow == nil || f.cap < minCapFlow.cap {
					minCapFlow = f
				}
			}
			if minCapFlow != nil {
				freeze(minCapFlow, minCapFlow.cap, mark)
				unfrozen--
				if t := minCapFlow.remaining / minCapFlow.cap; t < soonest {
					soonest = t
				}
				continue
			}
		}
		// Otherwise freeze every unfrozen flow crossing the bottleneck link,
		// in flow order, stopping once the link has none left. They all get
		// the same rate, so the first of them to finish is the one with the
		// least remaining.
		minRemaining := math.Inf(1)
		for _, f := range fb.flows {
			if bottleneck.unfrozen == 0 {
				break
			}
			if f.frozen == mark {
				continue
			}
			for _, l := range f.path {
				if l == bottleneck {
					freeze(f, share, mark)
					unfrozen--
					if f.remaining < minRemaining {
						minRemaining = f.remaining
					}
					break
				}
			}
		}
		if share > 0 {
			if t := minRemaining / share; t < soonest {
				soonest = t
			}
		}
	}
	if fb.rec != nil {
		now := fb.eng.Now()
		for _, l := range fb.links {
			if l.obsUtil != nil && l.capacity > 0 {
				l.obsUtil.Add(now, l.alloc/l.capacity)
			}
		}
	}
	if invariant.On {
		for _, l := range fb.links {
			ckLinkAlloc.Assert(l.alloc <= l.capacity*(1+rateEpsilon)+rateEpsilon,
				"link %q allocated %.0f B/s over capacity %.0f B/s", l.Name, l.alloc, l.capacity)
		}
		for _, f := range fb.flows {
			ckFlowCap.Assert(f.rate >= 0 &&
				(f.cap <= 0 || f.rate <= f.cap*(1+rateEpsilon)),
				"flow rate %.0f B/s outside [0, cap %.0f B/s]", f.rate, f.cap)
		}
	}
	fb.scheduleNext(soonest)
}

// freeze fixes f's rate, marking it frozen with mark, and charges it to
// every link on f's path.
func freeze(f *flow, rate float64, mark uint32) {
	f.frozen = mark
	f.rate = rate
	for _, l := range f.path {
		l.alloc += rate
		l.unfrozen--
	}
}

// scheduleNext replaces the pending completion with one soonest seconds
// from now (none when soonest is +Inf).
func (fb *Fabric) scheduleNext(soonest float64) {
	if fb.nextAt != 0 {
		fb.next.Cancel(fb.eng)
		fb.nextAt = 0
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
	fb.next = fb.eng.After(delay, fb.onNext)
	fb.nextAt = fb.eng.Now().Add(delay)
}

// completionEpsilon absorbs float rounding in remaining-byte accounting.
const completionEpsilon = 1e-3

func (fb *Fabric) onCompletion() {
	fb.nextAt = 0
	fb.advance()
	// Compact the finished flows out in place, chaining them in flow order.
	var first, last *flow
	kept := fb.flows[:0]
	fb.minCap = math.Inf(1)
	for _, f := range fb.flows {
		if f.remaining > completionEpsilon {
			kept = append(kept, f)
			if f.cap > 0 && f.cap < fb.minCap {
				fb.minCap = f.cap
			}
			continue
		}
		for _, l := range f.path {
			l.inflight--
		}
		if last == nil {
			first = f
		} else {
			last.next = f
		}
		last = f
	}
	clear(fb.flows[len(kept):])
	fb.flows = kept
	fb.rebalance()
	now := fb.eng.Now()
	for f := first; f != nil; {
		if fb.rec != nil && f.ideal > 0 {
			// Allocation wait: how much longer the transfer took than it
			// would have alone on its narrowest link. Completion rounds up
			// to whole nanoseconds, so clamp tiny negatives to zero.
			wait := now.Sub(f.start) - f.ideal
			if wait < 0 {
				wait = 0
			}
			fb.rec.Observe("pcie/alloc-wait", float64(wait))
		}
		next, done := f.next, f.done
		*f = flow{next: fb.free}
		fb.free = f
		fb.spare++
		if done != nil {
			done(now)
		}
		f = next
	}
	for int(fb.spare) > len(fb.flows) {
		fb.free = fb.free.next
		fb.spare--
	}
	if len(fb.flows) == 0 {
		fb.flows = nil
	}
}
