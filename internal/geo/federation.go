package geo

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cliutil"
	"repro/internal/dcmodel"
	"repro/internal/lyapunov"
	"repro/internal/renewable"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// FleetSite is one data center of a federation: a cluster under its own
// electricity price, renewable portfolio and carbon-deficit queue. A Fleet
// site may mix server types; a System site runs a single one.
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

// federation is the state and bookkeeping System and Fleet share: the
// sites, β and horizon, one carbon-deficit queue per site, the per-site
// capacities fixed at construction, the slot clock and the fan-out width.
// Each owner keeps its own per-slot stepping.
type federation struct {
	Sites []FleetSite
	Beta  float64
	Slots int

	kind     string // "geo.System" or "geo.Fleet", for error messages
	queues   []*lyapunov.DeficitQueue
	caps     []float64 // γ-discounted site capacities, index-aligned with Sites
	totalCap float64   // Σ caps, summed in site order
	slot     int
	workers  int
}

// newFederation validates the sites and builds one deficit queue per
// site. capacity fixes each site's γ-discounted capacity; it runs only on
// validated sites.
func newFederation(kind string, sites []FleetSite, beta float64, slots int, capacity func(*FleetSite) float64) (federation, error) {
	if len(sites) == 0 {
		return federation{}, errors.New("geo: no sites")
	}
	if !(beta >= 0) || math.IsInf(beta, 1) {
		return federation{}, fmt.Errorf("geo: beta %v must be finite and non-negative", beta)
	}
	if slots <= 0 {
		return federation{}, errors.New("geo: non-positive horizon")
	}
	fed := federation{Sites: sites, Beta: beta, Slots: slots, kind: kind}
	for i := range sites {
		if err := sites[i].Validate(slots); err != nil {
			return federation{}, err
		}
		fed.queues = append(fed.queues, lyapunov.NewDeficitQueue(
			sites[i].Portfolio.Alpha,
			sites[i].Portfolio.RECPerSlotKWh(slots),
		))
		c := capacity(&sites[i])
		fed.caps = append(fed.caps, c)
		fed.totalCap += c
	}
	return fed, nil
}

// SetWorkers bounds the per-slot fan-out across sites: System's split
// candidates and proportional solves, Fleet's whole-site GSD solves. n in
// {0, 1} (the default) stays sequential — unlike experiments.Config.Workers,
// zero does NOT mean all cores, because federations are routinely stepped
// inside already-pooled experiment workers and must not oversubscribe by
// default. n > 1 fans across up to n goroutines; every job writes only its
// own site slot and errors reduce to the lowest site index, so results are
// bit-identical at any width. Negative n is an explicit error (the
// cliutil.WorkersFor rule).
func (fed *federation) SetWorkers(n int) error {
	if err := cliutil.WorkersFor(fed.kind+".SetWorkers", n); err != nil {
		return err
	}
	fed.workers = n
	return nil
}

// TotalCapacityRPS returns the federation's aggregate γ-discounted
// capacity.
func (fed *federation) TotalCapacityRPS() float64 { return fed.totalCap }

// Queue exposes site k's deficit-queue length.
func (fed *federation) Queue(k int) float64 { return fed.queues[k].Len() }

// Slot returns the next slot to be stepped.
func (fed *federation) Slot() int { return fed.slot }

// validateLoad guards every stepping method: horizon not exhausted,
// non-negative load, load within the federation's aggregate capacity.
func (fed *federation) validateLoad(lambda float64) error {
	if fed.slot >= fed.Slots {
		return errors.New("geo: horizon exhausted")
	}
	if lambda < 0 {
		return errors.New("geo: negative load")
	}
	if lambda > fed.totalCap {
		return fmt.Errorf("geo: load %v exceeds federation capacity %v", lambda, fed.totalCap)
	}
	return nil
}

// fanProportional splits lambda across the sites in proportion to their
// capacities and runs site(i, μ_i) for every site across the SetWorkers
// pool, recording each site's error in errs[i]. It returns the
// lowest-index error. Every job writes only its own slot, so the outcome
// is the same at any pool width.
func (fed *federation) fanProportional(lambda float64, errs []error, site func(i int, mu float64) error) error {
	workpool.Fan(fed.workers, len(fed.Sites), func(i int) {
		errs[i] = site(i, lambda*fed.caps[i]/fed.totalCap)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// siteLedger builds site k's slot-cost kernel for the current slot. All
// site charging goes through it, so geo shares the exact accounting of
// internal/sim and internal/core.
func (fed *federation) siteLedger(k int) dcmodel.Ledger {
	site := &fed.Sites[k]
	t := fed.slot
	return dcmodel.Ledger{
		PriceUSDPerKWh: site.Price.Values[t],
		OnsiteKW:       site.Portfolio.OnsiteKW.Values[t],
		Beta:           fed.Beta,
		Alpha:          site.Portfolio.Alpha,
		RECPerSlotKWh:  site.Portfolio.RECPerSlotKWh(fed.Slots),
	}
}

// settleSite absorbs site k's realized grid draw into its deficit queue
// against the site's own off-site generation for the current slot, and
// returns the new queue length. Settle calls it per site, then advances
// the clock.
func (fed *federation) settleSite(k int, gridKWh float64) float64 {
	return fed.queues[k].Update(gridKWh, fed.Sites[k].Portfolio.OffsiteKWh.Values[fed.slot])
}
