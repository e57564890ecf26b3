// Package geo extends COCA to geographically distributed data centers —
// the multi-site setting of the related work the paper builds on
// (geographical load balancing, refs [21][29][32] of the paper). A global
// load distributor splits each slot's arrivals across sites with different
// electricity prices, on-site renewables and carbon budgets; every site
// runs its own carbon-deficit queue, so the split is steered toward sites
// that are currently cheap *and* carbon-underspent.
//
// One type, Fleet, holds the federation. Its constructor fixes how a site's
// P3 is solved: NewFleet gives every site a full heterogeneous cluster
// driven by its own GSD chain (the "100k+ servers, 256+ sites, one
// machine" setting), NewHomogeneousFleet solves single-group sites in
// closed form (p3.HomogeneousProblem). Two steps split the load. Step is
// capacity-proportional: one site solve per loaded site. GreedyStep uses
// the separability of the per-slot problem: given a split (μ_1..μ_K), site
// k's cost is its own P3 optimum at load μ_k, a convex non-decreasing
// function of μ_k (minimum of convex costs with nested feasible sets), so
// greedy marginal allocation in load chunks is optimal up to the chunk
// discretization.
//
// Two design rules make the fleet scale and stay reproducible:
//
//   - The GSD chain is sharded per site. Each site owns a gsd.Solver whose
//     advancing seed and warm-start state never mix with another site's, so
//     whole-site P3 solves are embarrassingly parallel: the schedule decides
//     only *when* a site's slot solve runs, never what it computes.
//   - Every fan-out is index-addressed (a site job writes only its own
//     outcome slot), errors reduce to the lowest site index, and totals
//     accumulate sequentially in site order after the barrier. Any worker
//     count — including the sequential 0/1 path — therefore produces
//     bit-identical outcomes, which the golden parity tests pin.
package geo

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cliutil"
	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
	"repro/internal/p3"
	"repro/internal/renewable"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/trace"
)

// FleetSite is one data center of a federation: a cluster under its own
// electricity price, renewable portfolio and carbon-deficit queue. A
// NewFleet site may mix server types; a NewHomogeneousFleet site runs a
// single one.
type FleetSite struct {
	Name      string
	Cluster   *dcmodel.Cluster
	Price     *trace.Trace         // w_k(t) in $/kWh
	Portfolio *renewable.Portfolio // r_k(t), f_k(t), Z_k, α_k
}

// Validate reports whether the site is well formed for the horizon.
func (s *FleetSite) Validate(slots int) error {
	if s.Cluster == nil {
		return fmt.Errorf("geo: site %q has no cluster", s.Name)
	}
	if err := s.Cluster.Validate(); err != nil {
		return fmt.Errorf("geo: site %q: %w", s.Name, err)
	}
	if s.Price == nil || s.Price.Len() < slots {
		return fmt.Errorf("geo: site %q price trace short", s.Name)
	}
	if s.Portfolio == nil {
		return fmt.Errorf("geo: site %q missing portfolio", s.Name)
	}
	return s.Portfolio.Validate(slots)
}

// CapacityRPS returns the site's γ-discounted top-speed capacity.
func (s *FleetSite) CapacityRPS() float64 {
	return s.Cluster.Gamma * s.Cluster.MaxCapacityRPS()
}

// Fleet is a federation of sites under one global workload, stepped slot
// by slot: Step or GreedyStep, then Settle.
type Fleet struct {
	Sites []FleetSite
	Beta  float64
	Slots int

	queues   []*lyapunov.DeficitQueue
	caps     []float64 // γ-discounted site capacities, index-aligned with Sites
	totalCap float64   // Σ caps, summed in site order
	slot     int
	workers  int

	// solvers holds one GSD shard per site (own advancing seed and warm
	// starts); nil on a homogeneous fleet, whose sites are solved in
	// closed form.
	solvers []*gsd.Solver

	// Per-slot scratch reused across steps: site problem instances (each
	// handed to the site's solver, which never reads one after its run
	// finishes) and the fan-out error slots. Outcome slices stay freshly
	// allocated — they escape to the caller via Settle.
	probs  []dcmodel.SlotProblem
	hprobs []p3.HomogeneousProblem
	errs   []error

	tracer    *span.Tracer
	metrics   *telemetry.FleetMetrics
	siteInstr []*telemetry.FleetSiteMetrics // cached per-site handles, index-aligned with Sites
	settleOb  SettleObserver
}

// SettleObserver is a per-slot instrumentation hook: it receives each
// settled slot's index and outcome after the deficit queues have absorbed
// it, before the clock advances. Observers must not mutate the outcome;
// they are for metrics, request-level replays and tests — the fleet
// analogue of sim.Observer.
type SettleObserver func(slot int, out StepOutcome)

// fleetSeedStride decorrelates per-site GSD seeds: site i's chain starts at
// base + (i+1)·stride (a splitmix64-style odd constant), so sites never
// replay each other's sample paths while the whole fleet stays a pure
// function of the base seed.
const fleetSeedStride = 0x9E3779B97F4A7C15

// NewFleet validates and assembles a fleet whose sites each run their own
// GSD chain. opts configures every site's solver (iteration budget,
// temperature, patience); opts.Seed is the base seed the per-site chains
// are derived from. One carbon-deficit queue per site.
func NewFleet(sites []FleetSite, beta float64, slots int, opts gsd.Options) (*Fleet, error) {
	f, err := newFleet(sites, beta, slots, (*FleetSite).CapacityRPS)
	if err != nil {
		return nil, err
	}
	f.probs = make([]dcmodel.SlotProblem, len(sites))
	for i := range sites {
		siteOpts := opts
		siteOpts.Seed = opts.Seed + uint64(i+1)*fleetSeedStride
		f.solvers = append(f.solvers, &gsd.Solver{Opts: siteOpts})
	}
	return f, nil
}

// NewHomogeneousFleet validates and assembles a fleet of single-server-type
// sites: every site's cluster must be one server group, and its P3 is
// solved in closed form (p3.HomogeneousProblem).
func NewHomogeneousFleet(sites []FleetSite, beta float64, slots int) (*Fleet, error) {
	for i := range sites {
		if cl := sites[i].Cluster; cl != nil && len(cl.Groups) > 1 {
			return nil, fmt.Errorf("geo: site %q has %d server groups; a homogeneous fleet site runs a single server type",
				sites[i].Name, len(cl.Groups))
		}
	}
	f, err := newFleet(sites, beta, slots, homogeneousCapacityRPS)
	if err != nil {
		return nil, err
	}
	f.hprobs = make([]p3.HomogeneousProblem, len(sites))
	return f, nil
}

// homogeneousCapacityRPS is a single-group site's γ-discounted top-speed
// capacity, multiplied in the order γ·N·x the closed-form P3 uses.
func homogeneousCapacityRPS(s *FleetSite) float64 {
	g := &s.Cluster.Groups[0]
	return s.Cluster.Gamma * float64(g.N) * g.Type.MaxRate()
}

// newFleet validates the sites and builds one deficit queue per site.
// capacity fixes each site's γ-discounted capacity; it runs only on
// validated sites.
func newFleet(sites []FleetSite, beta float64, slots int, capacity func(*FleetSite) float64) (*Fleet, error) {
	if len(sites) == 0 {
		return nil, errors.New("geo: no sites")
	}
	if !(beta >= 0) || math.IsInf(beta, 1) {
		return nil, fmt.Errorf("geo: beta %v must be finite and non-negative", beta)
	}
	if slots <= 0 {
		return nil, errors.New("geo: non-positive horizon")
	}
	f := &Fleet{Sites: sites, Beta: beta, Slots: slots, errs: make([]error, len(sites))}
	for i := range sites {
		if err := sites[i].Validate(slots); err != nil {
			return nil, err
		}
		f.queues = append(f.queues, lyapunov.NewDeficitQueue(
			sites[i].Portfolio.Alpha,
			sites[i].Portfolio.RECPerSlotKWh(slots),
		))
		c := capacity(&sites[i])
		f.caps = append(f.caps, c)
		f.totalCap += c
	}
	return f, nil
}

// SetWorkers bounds the per-slot fan-out across sites: Step's site solves
// and GreedyStep's initial split candidates. n in {0, 1} (the default)
// stays sequential — unlike experiments.Config.Workers, zero does NOT mean
// all cores, because fleets are routinely stepped inside already-pooled
// experiment workers and must not oversubscribe by default. n > 1 fans
// across up to n goroutines; every job writes only its own site slot and
// errors reduce to the lowest site index, so results are bit-identical at
// any width. Negative n is an explicit error (the cliutil.WorkersFor rule).
func (f *Fleet) SetWorkers(n int) error {
	if err := cliutil.WorkersFor("geo.Fleet.SetWorkers", n); err != nil {
		return err
	}
	f.workers = n
	return nil
}

// SetTracer attaches a span tracer: every subsequent GreedyStep records a
// geo.step root span with one geo.site child per site (allocated load,
// chunk count, deficit queue, the operated speed/active and costs).
// Steps start *root* spans — fleets are often stepped inside pooled
// experiment workers, and a root never adopts a stranger's open span.
// Nil (the default) disables tracing.
func (f *Fleet) SetTracer(tr *span.Tracer) { f.tracer = tr }

// Instrument attaches fleet metrics (nil detaches). Per-site label
// tuples are interned here, once, and the resulting plain-instrument
// handles cached index-aligned with Sites, so the per-site emission of a
// step is allocation-free: counter adds and histogram observes on
// already-interned children, no map lookups, no label encoding. Each
// site's GSD shard also gets its own SolveMetrics view, so shard solve
// stats (iterations, dual rounds, solve wall time) land in the same
// site-labeled vectors. Instrumentation never changes outcomes: it only
// reads settled values after the fan-out barrier, in site order.
func (f *Fleet) Instrument(m *telemetry.FleetMetrics) {
	f.metrics = m
	f.siteInstr = nil
	if m == nil {
		for i := range f.solvers {
			f.solvers[i].Opts.Metrics = nil
		}
		return
	}
	f.siteInstr = make([]*telemetry.FleetSiteMetrics, len(f.Sites))
	for i := range f.Sites {
		f.siteInstr[i] = m.Site(f.Sites[i].Name)
	}
	for i := range f.solvers {
		f.solvers[i].Opts.Metrics = m.SiteSolveMetrics(f.Sites[i].Name)
	}
}

// SetSettleObserver attaches the per-slot settle hook (nil detaches). The
// observer runs synchronously inside Settle; it sees the slot index being
// settled and the outcome Settle was called with.
func (f *Fleet) SetSettleObserver(ob SettleObserver) { f.settleOb = ob }

// TotalCapacityRPS returns the fleet's aggregate γ-discounted capacity.
func (f *Fleet) TotalCapacityRPS() float64 { return f.totalCap }

// Queue exposes site k's deficit-queue length.
func (f *Fleet) Queue(k int) float64 { return f.queues[k].Len() }

// Slot returns the next slot to be stepped.
func (f *Fleet) Slot() int { return f.slot }

// validateLoad guards both steps: horizon not exhausted, a finite
// non-negative load within the fleet's aggregate capacity, and a finite V.
func (f *Fleet) validateLoad(lambda, v float64) error {
	if f.slot >= f.Slots {
		return errors.New("geo: horizon exhausted")
	}
	if !(lambda >= 0) || math.IsInf(lambda, 1) {
		return fmt.Errorf("geo: load %v must be finite and non-negative", lambda)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("geo: V %v must be finite", v)
	}
	if lambda > f.totalCap {
		return fmt.Errorf("geo: load %v exceeds federation capacity %v", lambda, f.totalCap)
	}
	return nil
}

// Settle finishes the slot: every site's deficit queue absorbs its realized
// grid draw against its own off-site generation, and the clock advances.
func (f *Fleet) Settle(out StepOutcome) {
	t := f.slot
	for i := range f.Sites {
		q := f.queues[i].Update(out.Sites[i].GridKWh, f.Sites[i].Portfolio.OffsiteKWh.Values[t])
		if f.metrics != nil {
			f.siteInstr[i].DeficitKWh.Set(q)
		}
	}
	if f.settleOb != nil {
		f.settleOb(t, out)
	}
	f.slot++
}
