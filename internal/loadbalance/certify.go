package loadbalance

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dcmodel"
	"repro/internal/numopt"
)

// ErrNotOptimal is returned (wrapped) by Certify when a load split breaks
// a feasibility or KKT condition of Eq. (18).
var ErrNotOptimal = errors.New("loadbalance: split fails its KKT certificate")

// Certificate tolerances. Each is far looser than what the solvers reach
// and far tighter than any split that is actually wrong.
const (
	// certSumTol bounds |Σλ_g − λ| relative to max(λ, 1): the accuracy the
	// decision checks downstream demand. A fill stops within 1e-12·λ.
	certSumTol = 1e-9
	// certMarginalTol bounds how far the marginal cost of a group may sit
	// from the shared price ν, relative to the largest marginal of a
	// loaded group. Every interior load of a fill comes from one ν through
	// the closed form, and recomputing its marginal from the load costs a
	// few ulps amplified by R/(R − L) ≤ 1/(1 − γ) — about 1e-14 at γ =
	// 0.95. The residual repair (waterFillTol) and the fill's stop rule
	// move a marginal by less than 1e-10. Moving even 0.1% of an interior
	// group's load to another group shifts the marginals by more than
	// 1e-6 relative in every cluster this repository builds.
	certMarginalTol = 1e-6
	// certPowerRelTol widens the power band in which a split counts as
	// pinned at the on-site supply r (the kink), on top of the solver's
	// own absolute regime tolerance powerTol. The kink search stops within
	// kinkRelTol·r.
	certPowerRelTol = 1e-9
	// certLoadRelTol is the band, relative to a group's cap and on top of
	// waterFillTol, within which a load counts as idle or full; such a
	// group is checked one-sidedly, at its actual load.
	certLoadRelTol = 1e-9
)

// certGroup is one on group's KKT data, gathered from the Group accessors.
type certGroup struct {
	slope float64 // PUE·p_c(x)/x: marginal facility power per RPS
	delay float64 // Wd·n·R/(R − L)²: marginal delay cost at the group's load
	class int     // certIdle, certInterior or certFull
}

const (
	certIdle = iota
	certInterior
	certFull
)

// Certify checks that loads (indexed like the cluster's groups) is an
// optimal split of p's Eq. (18) subproblem for the speed vector speeds.
// It recomputes everything from the cluster's Group accessors and shares
// no code or state with the solvers, so a solver bug cannot hide in it. It
// checks:
//
//   - Σλ_g = λ (to certSumTol relative);
//   - 0 ≤ λ_g ≤ γ·R_g for on groups, and off groups carry exactly 0;
//   - with Wd > 0, the KKT conditions for an electricity weight ω: interior
//     groups share one marginal cost ν = ω·A_g + Wd·n_g·R_g/(R_g − λ_g)²,
//     full groups have marginal ≤ ν and idle groups ≥ ν (certMarginalTol);
//   - regime consistency of ω: power above r(t) needs ω = We, power below
//     it ω = 0, and power at r(t) some ω ∈ [0, We];
//   - with Wd = 0 and power above r(t), the greedy order: a group with a
//     cheaper power slope is full before a dearer one carries load.
//
// A violation returns an error wrapping ErrNotOptimal.
func Certify(p *dcmodel.SlotProblem, speeds []int, loads []float64) error {
	c := p.Cluster
	if len(speeds) != len(c.Groups) || len(loads) != len(c.Groups) {
		return fmt.Errorf("%w: %d speeds and %d loads for %d groups",
			ErrNotOptimal, len(speeds), len(loads), len(c.Groups))
	}
	groups := make([]certGroup, 0, len(c.Groups))
	var sum float64
	// Wd = 0 greedy check: the cheapest slope with headroom and the dearest
	// slope carrying load.
	minOpen, maxLoaded := math.Inf(1), math.Inf(-1)
	for g := range c.Groups {
		grp := &c.Groups[g]
		k, l := speeds[g], loads[g]
		if k < 0 || k > grp.Type.NumSpeeds() {
			return fmt.Errorf("%w: group %d speed %d out of range", ErrNotOptimal, g, k)
		}
		if k == 0 {
			if l != 0 {
				return fmt.Errorf("%w: off group %d carries load %v", ErrNotOptimal, g, l)
			}
			continue
		}
		rate := grp.RateAt(k)
		capRPS := c.Gamma * rate
		if !(l >= 0) || l > capRPS*(1+1e-12) {
			return fmt.Errorf("%w: group %d load %v outside [0, %v]", ErrNotOptimal, g, l, capRPS)
		}
		sum += l
		band := waterFillTol + certLoadRelTol*capRPS
		cg := certGroup{slope: c.PUE * grp.PowerSlopeKWPerRPS(k), class: certInterior}
		switch {
		case l <= band:
			cg.class = certIdle
		case l >= capRPS-band:
			cg.class = certFull
		}
		if cg.class != certFull {
			minOpen = math.Min(minOpen, cg.slope)
		}
		if cg.class != certIdle {
			maxLoaded = math.Max(maxLoaded, cg.slope)
		}
		den := rate - l
		cg.delay = p.Wd * float64(grp.N) * rate / (den * den)
		groups = append(groups, cg)
	}
	if math.Abs(sum-p.LambdaRPS) > certSumTol*math.Max(p.LambdaRPS, 1) {
		return fmt.Errorf("%w: loads sum to %v, want λ = %v", ErrNotOptimal, sum, p.LambdaRPS)
	}

	power := c.FacilityPowerKW(speeds, loads)
	r := p.OnsiteKW
	ptol := powerTol + certPowerRelTol*math.Abs(r)
	above, below := power > r+ptol, power < r-ptol
	if p.Wd <= 0 {
		// Linear cost: only the electricity term can be paid, and only
		// above r(t); there the cheapest slopes must fill first.
		if p.We > 0 && above && minOpen < maxLoaded {
			return fmt.Errorf("%w: Wd = 0 at power %v > r = %v: a group of slope %v has headroom while one of slope %v carries load",
				ErrNotOptimal, power, r, minOpen, maxLoaded)
		}
		return nil
	}

	// The tolerance scale is the largest marginal of a loaded group at
	// ω = We, which bounds the marginals at every ω the check may try, so
	// the gap below stays a convex function of ω.
	var scale float64
	for _, g := range groups {
		if g.class != certIdle {
			scale = math.Max(scale, p.We*g.slope+g.delay)
		}
	}
	tol := certMarginalTol * scale
	var omega float64
	switch {
	case p.We == 0 || below:
		omega = 0
	case above:
		omega = p.We
	default:
		omega, _ = numopt.GoldenSection(func(w float64) float64 {
			return kktGap(groups, w)
		}, 0, p.We, p.We*1e-12)
	}
	if gap := kktGap(groups, omega); gap > 2*tol {
		return fmt.Errorf("%w: no price ν fits the marginals at ω = %v (power %v, r = %v): spread %v > %v",
			ErrNotOptimal, omega, power, r, gap, 2*tol)
	}
	return nil
}

// kktGap returns how far apart the bounds on the shared price ν are under
// electricity weight omega: the largest marginal ν must reach (interior and
// full groups) minus the smallest one ν may not exceed (interior and idle
// groups). A price fits within tol exactly when the gap is at most 2·tol.
// The gap is a maximum of affine functions of omega minus a minimum of
// affine functions, hence convex in omega.
func kktGap(groups []certGroup, omega float64) float64 {
	hi, lo := math.Inf(-1), math.Inf(1)
	for _, g := range groups {
		m := omega*g.slope + g.delay
		if g.class != certIdle {
			hi = math.Max(hi, m)
		}
		if g.class != certFull {
			lo = math.Min(lo, m)
		}
	}
	if math.IsInf(hi, -1) || math.IsInf(lo, 1) {
		return 0 // every group idle, or every group full: any ν fits
	}
	return hi - lo
}
