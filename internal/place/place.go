// Package place is the pluggable placement-policy framework behind the
// cluster dispatcher and the datacenter arena. The paper's Algorithm 1 was
// originally hard-coded into cluster.Dispatcher.Dispatch; this package
// factors the placement half of that algorithm into first-class,
// data-comparable policy objects so fleets can be scheduled by best-fit,
// worst-fit, oversubscribing, pressure-aware or Algorithm-1 placement and
// compared head-to-head on MBE, stranding and tail latency.
//
// A Policy is a filter chain of predicates (health, capacity, acceptance,
// backend compatibility), a weighted-sum stage of prioritizers (best-fit,
// worst-fit, warm-tier, load pressure, least-stranding) and an optional list
// of extenders (one-shot no-retry, warm-pool preference) — the plugin
// architecture of production schedulers, specialized to the simulator's
// deterministic contract:
//
//   - Place is a pure function of (request, candidates). It never draws
//     randomness and never reads global state.
//   - Ties break on the lowest candidate ID, so the choice is keyed by model
//     identity only — permuting the candidate slice cannot change it, and
//     neither can shard layout or worker count.
//
// Frontends project their placement targets into Candidate snapshots: the
// rack-level dispatcher projects VMs (Tier encodes Algorithm 1's
// online-VM / free-VM / switchable-VM preference classes), the arena
// dispatcher projects nodes (Tier encodes warm/cold). The alg1 policy
// reconstructs Algorithm 1's placement loops exactly — see DESIGN.md
// "Placement policies" for the equivalence argument.
package place

import (
	"fmt"
	"math"
)

// Candidate is one placement target as a policy sees it: a resource
// snapshot plus status bits, projected by the frontend (VMs for the rack
// dispatcher, nodes for the arena). ID is the target's stable model
// identity and the deterministic tie-breaker.
type Candidate struct {
	ID int

	FreeCores  int
	FreePages  int
	TotalCores int
	TotalPages int

	// FarFree is the target's free private far-memory capacity in pages;
	// PoolFree is the free capacity of a shared fabric pool the target can
	// draw on (internal/fabric). Frontends without far-memory ledgers leave
	// both zero, which keeps the far-capacity predicate vacuously true.
	FarFree  int
	PoolFree int

	// Load counts tasks currently running on the target (pressure input).
	Load int
	// Tier is the frontend-assigned preference class; 0 marks a target that
	// is incompatible with the request (wrong backend, wrong state). The
	// rack dispatcher assigns 3/2/1 for online-on-backend, free-on-backend
	// and switchable VMs; the arena assigns 2/1 for warm/cold nodes.
	Tier int
	// Healthy is false for dead or stalled targets; no policy places there.
	Healthy bool
	// Accepts is the frontend's target-specific acceptance check (VM
	// capacity, concurrency bound, admission gate).
	Accepts bool
}

// Request is the unit of work to place.
type Request struct {
	Cores int
	Pages int
	// FarPages is the far-memory residency the work needs on top of its
	// resident pages (0 for frontends without far-memory ledgers).
	FarPages int
}

// Predicate is a hard feasibility filter: a candidate failing any predicate
// is never a placement target, whatever its score.
type Predicate struct {
	Name string
	Fit  func(Request, Candidate) bool
}

// Prioritizer scores feasible candidates; the policy combines prioritizers
// as a weighted sum and the highest total wins.
type Prioritizer struct {
	Name   string
	Weight float64
	Score  func(Request, Candidate) float64
}

// Extender post-processes the scored choice: it may override the winner
// (warm-pool preference) or mark the policy one-shot (no-retry).
type Extender struct {
	Name string
	// Extend receives the feasible candidates and the scored winner's ID
	// (-1 when none) and returns the final choice, which must be feasible
	// or -1. Nil for marker extenders.
	Extend func(r Request, feasible []Candidate, chosen int) int
	// OneShot marks the no-retry extender: frontends refuse a request that
	// fails to place instead of queueing it for retry.
	OneShot bool
}

// Policy is a named placement policy: predicates filter, prioritizers
// score, extenders adjust.
type Policy struct {
	Name         string
	Predicates   []Predicate
	Prioritizers []Prioritizer
	Extenders    []Extender

	// Overcommit is the memory oversubscription factor the capacity
	// predicate allows (1 = none). Frontends that track a resource ledger
	// must grant the same slack (see cluster.ArenaView.SetOvercommit).
	Overcommit float64
}

// coreWeight makes (FreeCores, FreePages) lexicographic inside one
// prioritizer score: free pages never exceed 2^30, so a one-core difference
// always dominates any page difference. Scores stay exact in float64 (the
// sum is an integer well under 2^53).
const coreWeight = 1 << 30

// packScore encodes a candidate's free resources lexicographically.
func packScore(c Candidate) float64 {
	return float64(c.FreeCores)*coreWeight + float64(c.FreePages)
}

// Feasible reports whether c passes every predicate for r.
func (p *Policy) Feasible(r Request, c Candidate) bool {
	for _, pred := range p.Predicates {
		if !pred.Fit(r, c) {
			return false
		}
	}
	return true
}

// score is the weighted prioritizer sum.
func (p *Policy) score(r Request, c Candidate) float64 {
	s := 0.0
	for _, pr := range p.Prioritizers {
		s += pr.Weight * pr.Score(r, c)
	}
	return s
}

// OneShot reports whether the policy carries the no-retry extender.
func (p *Policy) OneShot() bool {
	for _, e := range p.Extenders {
		if e.OneShot {
			return true
		}
	}
	return false
}

// Place chooses a candidate ID for r, or -1 when nothing is feasible.
// Deterministic by construction: candidates are filtered by the predicate
// chain, scored by the weighted prioritizer sum, and ties break on the
// lowest ID — so the result is independent of candidate order.
//
// The feasible set is collected only when an extender reads it, so a policy
// without one places without allocating.
func (p *Policy) Place(r Request, cands []Candidate) int {
	chosen := -1
	var best float64
	var feasible []Candidate
	collect := false
	for _, e := range p.Extenders {
		if e.Extend != nil {
			collect = true
			feasible = make([]Candidate, 0, len(cands))
			break
		}
	}
	for _, c := range cands {
		if !p.Feasible(r, c) {
			continue
		}
		if collect {
			feasible = append(feasible, c)
		}
		s := p.score(r, c)
		if chosen < 0 || s > best || (s == best && c.ID < chosen) {
			chosen, best = c.ID, s
		}
	}
	for _, e := range p.Extenders {
		if e.Extend != nil {
			chosen = e.Extend(r, feasible, chosen)
		}
	}
	return chosen
}

// --- built-in predicates ---

func predHealthy() Predicate {
	return Predicate{Name: "healthy", Fit: func(_ Request, c Candidate) bool { return c.Healthy }}
}

func predAccepts() Predicate {
	return Predicate{Name: "accepts", Fit: func(_ Request, c Candidate) bool { return c.Accepts }}
}

func predCompatible() Predicate {
	return Predicate{Name: "compatible", Fit: func(_ Request, c Candidate) bool { return c.Tier > 0 }}
}

func predCores() Predicate {
	return Predicate{Name: "cores", Fit: func(r Request, c Candidate) bool { return r.Cores <= c.FreeCores }}
}

// predMemory admits a request whose pages fit in free memory plus the
// oversubscription slack (factor-1 of total pages; factor 1 = no slack).
func predMemory(factor float64) Predicate {
	name := "memory"
	if factor > 1 {
		name = fmt.Sprintf("memory(x%g)", factor)
	}
	return Predicate{Name: name, Fit: func(r Request, c Candidate) bool {
		slack := OvercommitSlack(factor, c.TotalPages)
		return r.Pages <= c.FreePages+slack
	}}
}

// OvercommitSlack is the extra page allowance an oversubscription factor
// grants over a total capacity — the single rounding rule shared by the
// memory predicate and resource ledgers, so the two can never disagree.
func OvercommitSlack(factor float64, totalPages int) int {
	if factor <= 1 {
		return 0
	}
	return int(math.Floor((factor - 1) * float64(totalPages)))
}

// FarCapacityPredicate admits a request whose far-memory residency fits in
// the candidate's private far capacity or the shared pool it can reach.
// It is not part of the standard chain — frontends without far-memory
// ledgers (FarPages always 0) would evaluate it vacuously on every hot
// placement decision — so far-aware frontends (internal/fabric) append it
// to their policy's Predicates themselves.
func FarCapacityPredicate() Predicate {
	return Predicate{Name: "far-capacity", Fit: func(r Request, c Candidate) bool {
		if r.FarPages <= 0 {
			return true
		}
		return r.FarPages <= c.FarFree || r.FarPages <= c.PoolFree
	}}
}

// standardPredicates is the filter chain every built-in policy runs:
// health, frontend acceptance, backend/state compatibility, cores, memory.
func standardPredicates(overcommit float64) []Predicate {
	return []Predicate{predHealthy(), predAccepts(), predCompatible(), predCores(), predMemory(overcommit)}
}

// --- built-in prioritizers ---

// prioritizerFuncs registers the scoring functions the mix: spec grammar can
// combine. All are pure functions of (request, candidate).
var prioritizerFuncs = map[string]func(Request, Candidate) float64{
	// best-fit packs: the least free capacity after placement wins.
	"best-fit": func(_ Request, c Candidate) float64 { return -packScore(c) },
	// worst-fit spreads: the most free capacity wins — the arena's
	// level-memory-pressure default (free cores first, pages break ties).
	"worst-fit": func(_ Request, c Candidate) float64 { return packScore(c) },
	// tier prefers the frontend's preference class — Algorithm 1's
	// online-VM > free-VM > switchable-VM ordering, warm > cold nodes.
	"tier": func(_ Request, c Candidate) float64 { return float64(c.Tier) },
	// load is xdm-pressure-aware spreading: fewer running tasks wins.
	"load": func(_ Request, c Candidate) float64 { return -float64(c.Load) },
	// least-stranding penalizes a placement that would exhaust a target's
	// cores while leaving memory behind — the pages it would strand.
	"least-stranding": func(r Request, c Candidate) float64 {
		if c.FreeCores-r.Cores > 0 {
			return 0
		}
		return -float64(c.FreePages - r.Pages)
	},
	// pool-headroom penalizes a placement by the pooled-fabric pages it
	// would have to borrow: requests land where private far capacity covers
	// them, keeping the shared pool free for hosts that really need it.
	"pool-headroom": func(r Request, c Candidate) float64 {
		spill := r.FarPages - c.FarFree
		if spill < 0 {
			spill = 0
		}
		return -float64(spill)
	},
	// warm prefers targets already running work (cache/module warmth).
	"warm": func(_ Request, c Candidate) float64 {
		if c.Load > 0 {
			return 1
		}
		return 0
	},
}

// PrioritizerNames lists the registered prioritizer names in sorted order.
func PrioritizerNames() []string {
	return []string{"best-fit", "least-stranding", "load", "pool-headroom", "tier", "warm", "worst-fit"}
}

func prioritizer(name string, weight float64) Prioritizer {
	fn, ok := prioritizerFuncs[name]
	if !ok {
		panic("place: unknown prioritizer " + name)
	}
	return Prioritizer{Name: name, Weight: weight, Score: fn}
}

// --- built-in extenders ---

// extOneShot is the no-retry marker: a request that fails to place is
// refused, never queued.
func extOneShot() Extender { return Extender{Name: "one-shot", OneShot: true} }

// extWarmPool prefers warm targets: if any feasible candidate is already
// running work, the best-scored warm one wins; otherwise the scored choice
// stands. Ties break on the lowest ID, like the main scoring stage.
func extWarmPool(p *Policy) Extender {
	return Extender{Name: "warm-pool", Extend: func(r Request, feasible []Candidate, chosen int) int {
		warm := -1
		var best float64
		for _, c := range feasible {
			if c.Load <= 0 {
				continue
			}
			s := p.score(r, c)
			if warm < 0 || s > best || (s == best && c.ID < warm) {
				warm, best = c.ID, s
			}
		}
		if warm >= 0 {
			return warm
		}
		return chosen
	}}
}

// DefaultOversubFactor is the memory oversubscription the bare "oversub"
// spec grants.
const DefaultOversubFactor = 1.25

// Builtin returns a fresh instance of a named built-in policy. It panics on
// unknown names; use ParsePolicy for spec strings from user input.
//
//	alg1       Algorithm 1's placement: tier preference, first fit within a
//	           tier — byte-for-byte the dispatcher's pre-refactor behavior.
//	best-fit   pack tightly (least free capacity wins)
//	worst-fit  spread (most free capacity wins) — the arena's default
//	oversub    best-fit packing with 1.25x memory oversubscription
//	one-shot   worst-fit spreading, but failed placements are refused
func Builtin(name string) *Policy {
	p, err := ParsePolicy(name)
	if err != nil {
		panic("place: " + err.Error())
	}
	return p
}
