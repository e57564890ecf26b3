package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dcmodel"
	"repro/internal/loadbalance"
	"repro/internal/p3"
	"repro/internal/telemetry/span"
)

// errBadDecision marks a solver decision that failed the output checks.
var errBadDecision = errors.New("infeasible decision")

// checkDecision verifies a P3 decision without trusting the solver: the
// loads carry λ (Σλ_i = λ to 1e-9 relative), every load sits in
// [0, γ·rate] for its group's speed, and the objective is finite.
func checkDecision(p *dcmodel.SlotProblem, sol dcmodel.Solution) error {
	c := p.Cluster
	if len(sol.Speeds) != len(c.Groups) || len(sol.Load) != len(c.Groups) {
		return fmt.Errorf("%w: %d speeds and %d loads for %d groups",
			errBadDecision, len(sol.Speeds), len(sol.Load), len(c.Groups))
	}
	var total float64
	for g := range c.Groups {
		k, l := sol.Speeds[g], sol.Load[g]
		if k < 0 || k > c.Groups[g].Type.NumSpeeds() {
			return fmt.Errorf("%w: group %d speed %d out of range", errBadDecision, g, k)
		}
		limit := c.Gamma * c.Groups[g].RateAt(k)
		if !(l >= 0) || l > limit*(1+1e-12) {
			return fmt.Errorf("%w: group %d load %v outside [0, %v]", errBadDecision, g, l, limit)
		}
		total += l
	}
	if math.Abs(total-p.LambdaRPS) > 1e-9*math.Max(p.LambdaRPS, 1) {
		return fmt.Errorf("%w: loads sum to %v, want λ = %v", errBadDecision, total, p.LambdaRPS)
	}
	if v := p.Objective(sol.Speeds, sol.Load); math.IsNaN(v) || math.IsInf(v, 0) ||
		math.IsNaN(sol.Value) || math.IsInf(sol.Value, 0) {
		return fmt.Errorf("%w: objective %v (solver reported %v)", errBadDecision, v, sol.Value)
	}
	return nil
}

// checkedSolver decorates the controller's P3 solver: it checks every
// decision, keeps a copy of the last problem and decision for the /decide
// comparison and the load-split replay, and, when tracing, records a
// gsd.solve span around the inner solve. A decision that fails the checks
// is returned as an error, so the slot fails the way a solver failure
// does: the controller rejects it and /decide answers non-200.
type checkedSolver struct {
	inner  p3.Solver
	tracer *span.Tracer

	prob dcmodel.SlotProblem
	last dcmodel.Solution
}

func (s *checkedSolver) Solve(p *dcmodel.SlotProblem) (dcmodel.Solution, error) {
	sp := s.tracer.Start("gsd.solve")
	sol, err := s.inner.Solve(p)
	sp.End()
	if err != nil {
		return sol, err
	}
	if err := checkDecision(p, sol); err != nil {
		return dcmodel.Solution{}, err
	}
	s.prob = *p
	s.last.CopyFrom(&sol)
	return sol, nil
}

// Load-split regimes, by facility power against on-site supply r(t).
const (
	regimeGrid = iota
	regimeSurplus
	regimeKink
	numRegimes
)

var regimeNames = [numRegimes]string{"grid", "surplus", "kink"}

// classify names the regime a load split ended in: power within
// tolerance of r(t) is the kink, below it surplus, above it grid.
func classify(p *dcmodel.SlotProblem, sol *dcmodel.Solution) int {
	pw := p.Cluster.FacilityPowerKW(sol.Speeds, sol.Load)
	tol := 1e-6 * math.Max(1, p.OnsiteKW)
	switch {
	case math.Abs(pw-p.OnsiteKW) <= tol:
		return regimeKink
	case pw < p.OnsiteKW:
		return regimeSurplus
	default:
		return regimeGrid
	}
}

// splitStats accumulates the load-split replay: time per split by regime
// and how many proposals could not carry the load.
type splitStats struct {
	us         [numRegimes][]float64
	infeasible int
	total      int

	inst loadbalance.Instance
	sol  dcmodel.Solution
}

// replay starts a load-split instance at the decided speeds and times n
// seeded proposals in GSD's call pattern: SetSpeed → Feasible → SolveInto
// → Revert.
func (st *splitStats) replay(p *dcmodel.SlotProblem, speeds []int, r *rng, n int) error {
	if err := st.inst.Reset(p, speeds); err != nil {
		return fmt.Errorf("load-split replay: %w", err)
	}
	groups := p.Cluster.Groups
	for i := 0; i < n; i++ {
		g := r.intn(len(groups))
		k := r.intn(groups[g].Type.NumSpeeds() + 1)
		start := time.Now()
		if err := st.inst.SetSpeed(g, k); err != nil {
			return fmt.Errorf("load-split replay: %w", err)
		}
		ok := st.inst.Feasible()
		var err error
		if ok {
			err = st.inst.SolveInto(&st.sol)
		}
		st.inst.Revert()
		d := time.Since(start)
		st.total++
		if !ok || err != nil {
			st.infeasible++
			continue
		}
		reg := classify(p, &st.sol)
		st.us[reg] = append(st.us[reg], us(d))
	}
	return nil
}

// report sets the loadbalance.* metrics: median µs per split and share of
// feasible splits in each regime, and the infeasible share of proposals.
func (st *splitStats) report(out *outcome) {
	feasible := st.total - st.infeasible
	for r := 0; r < numRegimes; r++ {
		out.set("loadbalance.split_us."+regimeNames[r], median(st.us[r]), "us")
		out.set("loadbalance.share."+regimeNames[r], ratio(float64(len(st.us[r])), float64(feasible)), "share")
	}
	out.set("loadbalance.infeasible_share", ratio(float64(st.infeasible), float64(st.total)), "share")
}
