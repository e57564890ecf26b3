package geo

import (
	"fmt"
	"time"

	"repro/internal/dcmodel"
	"repro/internal/p3"
	"repro/internal/workpool"
)

// SiteOutcome is one site's share of a stepped slot.
type SiteOutcome struct {
	LoadRPS   float64
	Speed     int // the closed-form speed index; 0 on a GSD site
	Active    int // servers running at positive speed
	PowerKW   float64
	GridKWh   float64
	DelayCost float64
	CostUSD   float64 // the site's dcmodel.Ledger charge: w_k·grid + β·delay
	Value     float64 // the site's P3 objective at the solved configuration
}

// StepOutcome is a stepped slot across the fleet.
type StepOutcome struct {
	Sites        []SiteOutcome
	TotalCostUSD float64
	TotalGridKWh float64
}

// siteSolve is one site's solved configuration at a load, as the charge
// helper needs it.
type siteSolve struct {
	Speed, Active             int
	PowerKW, DelayCost, Value float64
}

// solveSite solves site k's P3 at load mu (> 0) with the COCA weights of
// Eq. (16) from the site's own price and deficit queue: in closed form on a
// homogeneous fleet, on the site's GSD shard otherwise.
func (f *Fleet) solveSite(k int, v, mu float64) (siteSolve, error) {
	site := &f.Sites[k]
	t := f.slot
	we, wd := dcmodel.P3Weights(v, f.queues[k].Len(), site.Price.Values[t], f.Beta)
	if f.solvers == nil {
		g := &site.Cluster.Groups[0]
		hp := &f.hprobs[k]
		*hp = p3.HomogeneousProblem{
			Type: g.Type, N: g.N,
			Gamma: site.Cluster.Gamma, PUE: site.Cluster.PUE,
			LambdaRPS: mu,
			We:        we, Wd: wd,
			OnsiteKW: site.Portfolio.OnsiteKW.Values[t],
		}
		sol, err := hp.Solve()
		if err != nil {
			return siteSolve{}, err
		}
		return siteSolve{sol.Speed, sol.Active, sol.PowerKW, sol.DelayCost, sol.Value}, nil
	}
	// The instance lives in the fleet's per-site scratch slot — site k's
	// solver finishes with it before the next step rewrites it — so
	// stepping allocates no problem structs.
	p := &f.probs[k]
	*p = dcmodel.SlotProblem{
		Cluster:   site.Cluster,
		LambdaRPS: mu,
		We:        we, Wd: wd,
		OnsiteKW: site.Portfolio.OnsiteKW.Values[t],
	}
	sol, err := f.solvers[k].Solve(p)
	if err != nil {
		return siteSolve{}, err
	}
	cl := site.Cluster
	return siteSolve{
		Active:    cl.ActiveServers(sol.Speeds),
		PowerKW:   cl.FacilityPowerKW(sol.Speeds, sol.Load),
		DelayCost: cl.DelayCost(sol.Speeds, sol.Load),
		Value:     sol.Value,
	}, nil
}

// charge prices site k's solved configuration at load mu through the
// site's dcmodel.Ledger for the current slot, so geo shares the exact
// accounting of internal/sim and internal/core.
func (f *Fleet) charge(k int, mu float64, s siteSolve) SiteOutcome {
	site := &f.Sites[k]
	t := f.slot
	ch := dcmodel.Ledger{
		PriceUSDPerKWh: site.Price.Values[t],
		OnsiteKW:       site.Portfolio.OnsiteKW.Values[t],
		Beta:           f.Beta,
		Alpha:          site.Portfolio.Alpha,
		RECPerSlotKWh:  site.Portfolio.RECPerSlotKWh(f.Slots),
	}.Charge(s.PowerKW, s.DelayCost, 0)
	return SiteOutcome{
		LoadRPS: mu, Speed: s.Speed, Active: s.Active,
		PowerKW: ch.PowerKW, GridKWh: ch.GridKWh, DelayCost: ch.DelayCost,
		CostUSD: ch.TotalUSD, Value: s.Value,
	}
}

// siteError names site k in a real solver failure and counts it into the
// site's solve_errors series.
func (f *Fleet) siteError(k int, err error) error {
	if f.metrics != nil {
		f.siteInstr[k].SolveErrors.Inc()
	}
	return fmt.Errorf("geo: site %s: %w", f.Sites[k].Name, err)
}

// Step splits lambda across the sites in proportion to their capacities,
// solves every loaded site's P3 once (fanned across the SetWorkers pool),
// charges each site through its Ledger, and returns the outcome. Call
// Settle with the outcome afterwards.
//
// The split is capacity-proportional rather than greedy-marginal: at fleet
// scale a per-chunk re-solve per site (the GreedyStep discipline) would
// cost Chunks·K whole-cluster GSD chains per slot; the proportional split
// needs exactly one solve per loaded site while the per-site COCA weights
// still steer each site's own speed/load decisions by price and deficit.
// On a homogeneous fleet it is the price- and carbon-blind baseline
// GreedyStep is measured against.
func (f *Fleet) Step(lambda, v float64) (StepOutcome, error) {
	if err := f.validateLoad(lambda, v); err != nil {
		return StepOutcome{}, err
	}
	var stepStart time.Time
	if f.metrics != nil {
		stepStart = time.Now()
	}
	out := StepOutcome{Sites: make([]SiteOutcome, len(f.Sites))}
	workpool.Fan(f.workers, len(f.Sites), func(i int) {
		mu := lambda * f.caps[i] / f.totalCap
		f.errs[i] = nil
		out.Sites[i].LoadRPS = mu
		if mu <= 0 {
			return
		}
		s, err := f.solveSite(i, v, mu)
		if err != nil {
			f.errs[i] = err
			return
		}
		out.Sites[i] = f.charge(i, mu, s)
	})
	var first error
	for i, err := range f.errs {
		if err != nil {
			err = f.siteError(i, err)
			if first == nil {
				first = err
			}
		}
	}
	if first != nil {
		return StepOutcome{}, first
	}
	f.finish(&out, nil, stepStart)
	return out, nil
}

// finish sums the slot totals in site order and, when metrics are
// attached, folds the outcome into them: per-site load, cost and grid,
// the greedy chunks won (chunks is nil for Step), and the step totals and
// wall time since start.
func (f *Fleet) finish(out *StepOutcome, chunks []int, start time.Time) {
	for i := range out.Sites {
		out.TotalCostUSD += out.Sites[i].CostUSD
		out.TotalGridKWh += out.Sites[i].GridKWh
	}
	if f.metrics == nil {
		return
	}
	for i := range out.Sites {
		si, so := f.siteInstr[i], &out.Sites[i]
		si.LoadRPS.Add(so.LoadRPS)
		si.CostUSD.Add(so.CostUSD)
		si.GridKWh.Add(so.GridKWh)
		if chunks != nil {
			si.Chunks.Add(float64(chunks[i]))
		}
	}
	f.metrics.ObserveStep(out.TotalCostUSD, out.TotalGridKWh, time.Since(start).Seconds())
}
