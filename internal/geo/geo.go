// Package geo extends COCA to geographically distributed data centers —
// the multi-site setting of the related work the paper builds on
// (geographical load balancing, refs [21][29][32] of the paper). A global
// load distributor splits each slot's arrivals across sites with different
// electricity prices, on-site renewables and carbon budgets; every site
// runs its own carbon-deficit queue, so the split is steered toward sites
// that are currently cheap *and* carbon-underspent.
//
// The per-slot problem separates: given a split (μ_1..μ_K), site k's cost
// is its own P3 optimum at load μ_k, a convex non-decreasing function of
// μ_k (minimum of convex costs with nested feasible sets). The split is
// computed by greedy marginal allocation in load chunks — optimal for
// convex per-site costs up to the chunk discretization.
package geo

import (
	"errors"
	"fmt"

	"repro/internal/dcmodel"
	"repro/internal/p3"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

// System is a federation of single-server-type sites under one global
// workload: each site's P3 is solved in closed form
// (p3.HomogeneousProblem), and the split is greedy-marginal (Step) or
// capacity-proportional (ProportionalSplit). Sites, Beta and Slots, the
// per-site deficit queues and the clock live in the federation core it
// shares with Fleet.
type System struct {
	federation
	tracer  *span.Tracer
	metrics *telemetry.GeoMetrics
}

// SetTracer attaches a span tracer: every subsequent Step records a
// geo.step root span with one geo.site child per site (allocated load,
// chunk count, deficit queue, the operated speed/active and costs).
// Steps start *root* spans — geo systems are often stepped inside pooled
// experiment workers, and a root never adopts a stranger's open span.
// Nil (the default) disables tracing.
func (sys *System) SetTracer(tr *span.Tracer) { sys.tracer = tr }

// Instrument attaches federation metrics: Step feeds the per-site
// counters and Settle the deficit gauges. Nil (the default) disables
// instrumentation.
func (sys *System) Instrument(m *telemetry.GeoMetrics) { sys.metrics = m }

// NewSystem validates and assembles the federation, creating one
// carbon-deficit queue per site. Every site's cluster must be a single
// server group: System solves each site's P3 in closed form over one
// server type.
func NewSystem(sites []FleetSite, beta float64, slots int) (*System, error) {
	for i := range sites {
		if cl := sites[i].Cluster; cl != nil && len(cl.Groups) > 1 {
			return nil, fmt.Errorf("geo: site %q has %d server groups; a System site runs a single server type",
				sites[i].Name, len(cl.Groups))
		}
	}
	fed, err := newFederation("geo.System", sites, beta, slots, homogeneousCapacityRPS)
	if err != nil {
		return nil, err
	}
	return &System{federation: fed}, nil
}

// homogeneousCapacityRPS is a single-group site's γ-discounted top-speed
// capacity, multiplied in the order γ·N·x the closed-form P3 uses.
func homogeneousCapacityRPS(s *FleetSite) float64 {
	g := &s.Cluster.Groups[0]
	return s.Cluster.Gamma * float64(g.N) * g.Type.MaxRate()
}

// SiteOutcome is one site's share of a stepped slot.
type SiteOutcome struct {
	LoadRPS   float64
	Speed     int
	Active    int
	PowerKW   float64
	GridKWh   float64
	DelayCost float64
	CostUSD   float64 // the site's dcmodel.Ledger charge: w_k·grid + β·delay
}

// StepOutcome is a stepped slot across the federation.
type StepOutcome struct {
	Sites        []SiteOutcome
	TotalCostUSD float64
	TotalGridKWh float64
}

// siteProblem builds site k's P3 instance for the slot at load mu.
func (sys *System) siteProblem(k int, v, mu float64) *p3.HomogeneousProblem {
	site := &sys.Sites[k]
	g := &site.Cluster.Groups[0]
	t := sys.slot
	we, wd := dcmodel.P3Weights(v, sys.queues[k].Len(), site.Price.Values[t], sys.Beta)
	return &p3.HomogeneousProblem{
		Type: g.Type, N: g.N,
		Gamma: site.Cluster.Gamma, PUE: site.Cluster.PUE,
		LambdaRPS: mu,
		We:        we, Wd: wd,
		OnsiteKW: site.Portfolio.OnsiteKW.Values[t],
	}
}

// Chunks is the load-split granularity of Step: the slot's arrivals are
// allocated in λ/Chunks increments by greedy marginal cost.
const Chunks = 100

// Step distributes lambda across the sites minimizing the federation's P3
// objective Σ_k [V·g_k + q_k·y_k], operates each site, and returns the
// outcome. Call Settle with the realized off-site generation afterwards.
//
// The split runs on the memoized greedy engine of split.go: bit-identical
// to the naive O(Chunks·K)-solve loop (kept as stepNaive, pinned by golden
// hash tests) at O(Chunks + K) P3 solves, with the candidate evaluations
// optionally fanned across SetWorkers goroutines. Real solver failures
// abort the step and count into geo.solve_errors; capacity infeasibility
// never does — a full site is a legitimate split answer.
func (sys *System) Step(lambda float64, v float64) (StepOutcome, error) {
	if err := sys.validateLoad(lambda); err != nil {
		return StepOutcome{}, err
	}
	k := len(sys.Sites)
	stepSpan := sys.tracer.StartRoot("geo.step",
		span.Int("slot", sys.slot), span.Float("lambda_rps", lambda),
		span.Float("v", v), span.Int("sites", k),
		span.Int("workers", max(sys.workers, 1)))
	defer stepSpan.End()
	plan, err := sys.greedySplit(lambda, v)
	if err != nil {
		stepSpan.Set(span.Str("error", err.Error()),
			span.Int("p3_solves", plan.p3Solves), span.Int("memo_hits", plan.memoHits))
		if !errors.Is(err, errNoAbsorb) {
			sys.metrics.IncSolveError()
		}
		return StepOutcome{}, err
	}
	out := StepOutcome{Sites: make([]SiteOutcome, k)}
	for i := 0; i < k; i++ {
		var siteSpan *span.Span
		if stepSpan != nil {
			siteSpan = stepSpan.Child("geo.site",
				span.Str("site", sys.Sites[i].Name),
				span.Float("load_rps", plan.split[i]),
				span.Int("chunks", plan.chunks[i]),
				span.Float("marginal_usd", plan.marginal[i]),
				span.Float("queue_kwh", sys.queues[i].Len()))
		}
		so := SiteOutcome{LoadRPS: plan.split[i]}
		if plan.split[i] > 0 {
			// The site's last winning candidate was solved at exactly this
			// load: reuse it instead of the naive loop's final re-solve.
			so = sys.operate(i, plan.split[i], plan.sols[i])
			plan.memoHits++
		}
		if siteSpan != nil {
			siteSpan.Set(
				span.Int("speed", so.Speed), span.Int("active", so.Active),
				span.Float("cost_usd", so.CostUSD), span.Float("grid_kwh", so.GridKWh))
			siteSpan.End()
		}
		sys.metrics.ObserveSite(sys.Sites[i].Name, so.LoadRPS, plan.chunks[i], so.CostUSD, so.GridKWh)
		out.Sites[i] = so
		out.TotalCostUSD += so.CostUSD
		out.TotalGridKWh += so.GridKWh
	}
	sys.metrics.ObserveStep(out.TotalCostUSD, out.TotalGridKWh)
	sys.metrics.ObserveSplit(plan.p3Solves, plan.memoHits)
	if stepSpan != nil {
		stepSpan.Set(
			span.Float("total_usd", out.TotalCostUSD),
			span.Float("total_grid_kwh", out.TotalGridKWh),
			span.Int("p3_solves", plan.p3Solves),
			span.Int("memo_hits", plan.memoHits))
	}
	return out, nil
}

// Settle finishes the slot: every site's deficit queue absorbs its
// realized grid draw against its own off-site generation, and the clock
// advances.
func (sys *System) Settle(out StepOutcome) {
	for i := range sys.Sites {
		sys.metrics.SetDeficit(sys.Sites[i].Name, sys.settleSite(i, out.Sites[i].GridKWh))
	}
	sys.slot++
}

// ProportionalSplit is the carbon- and price-blind baseline: load shares
// proportional to site capacity. It returns the same outcome structure so
// runs are directly comparable, and shares Step's validateLoad guards
// (horizon, negative load, capacity). The per-site solves fan across the
// SetWorkers pool — each site writes only its own outcome slot, errors
// reduce to the lowest site index, and totals accumulate sequentially in
// site order, so every pool width produces bit-identical results.
func (sys *System) ProportionalSplit(lambda float64, v float64) (StepOutcome, error) {
	if err := sys.validateLoad(lambda); err != nil {
		return StepOutcome{}, err
	}
	out := StepOutcome{Sites: make([]SiteOutcome, len(sys.Sites))}
	err := sys.fanProportional(lambda, make([]error, len(sys.Sites)), func(i int, mu float64) error {
		out.Sites[i].LoadRPS = mu
		if mu <= 0 {
			return nil
		}
		sol, err := sys.siteProblem(i, v, mu).Solve()
		if err != nil {
			return err
		}
		out.Sites[i] = sys.operate(i, mu, sol)
		return nil
	})
	if err != nil {
		return StepOutcome{}, err
	}
	for _, so := range out.Sites {
		out.TotalCostUSD += so.CostUSD
		out.TotalGridKWh += so.GridKWh
	}
	return out, nil
}

// operate charges site k's solved configuration at load mu through the
// site's Ledger.
func (sys *System) operate(k int, mu float64, sol p3.HomogeneousSolution) SiteOutcome {
	ch := sys.siteLedger(k).Charge(sol.PowerKW, sol.DelayCost, 0)
	return SiteOutcome{
		LoadRPS: mu, Speed: sol.Speed, Active: sol.Active,
		PowerKW: ch.PowerKW, GridKWh: ch.GridKWh, DelayCost: ch.DelayCost, CostUSD: ch.TotalUSD,
	}
}
