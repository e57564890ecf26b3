package loadbalance

import (
	"errors"

	"repro/internal/dcmodel"
)

// ErrNeedsDelayWeight is returned by SolveDistributed when Wd = 0: with no
// delay term the per-group response to a price is bang-bang and the
// price-only protocol cannot break ties; use the centralized Solve instead.
var ErrNeedsDelayWeight = errors.New("loadbalance: distributed solver requires Wd > 0")

// SolveDistributed computes the same optimum as Solve but via the
// dual-decomposition price protocol: every server group answers price
// broadcasts from its own parameters only. The regime analysis on the [·]^+
// kink is identical to the centralized path.
func SolveDistributed(p *dcmodel.SlotProblem, speeds []int) (dcmodel.Solution, error) {
	sol, _, err := SolveDistributedCounted(p, speeds)
	return sol, err
}

// SolveDistributedCounted is SolveDistributed, additionally reporting the
// number of price broadcast rounds the dual protocol spent — the message
// cost a real deployment would pay per load split.
//
// A coordinator broadcasts (ω, ν) price signals to the server groups and
// sums their replies. Each group is an autonomous agent that answers a
// price query from nothing but its own parameters, mirroring the
// dual-decomposition structure the paper references ([5], [27]). A fill
// costs one bracket round, in which every agent reports the prices at which
// it would be empty and full, and then one round per Newton step, in which
// every agent reports its load at the announced price and that load's slope
// in the price. These rounds are exactly the Instance's bracket and sweep
// passes (bracketTerm and allocSlope per group, summed in group order), so
// the protocol runs them directly: the loads are bit-identical to Solve's
// and the round count is the Instance's sweep count, summed over every ω
// the outer search tried.
func SolveDistributedCounted(p *dcmodel.SlotProblem, speeds []int) (dcmodel.Solution, int, error) {
	if p.Wd <= 0 {
		return dcmodel.Solution{}, 0, ErrNeedsDelayWeight
	}
	in, err := NewInstance(p, speeds)
	if err != nil {
		return dcmodel.Solution{}, 0, err
	}
	loads, err := in.solve()
	_, rounds := in.Work()
	if err != nil {
		return dcmodel.Solution{}, rounds, err
	}
	full := in.expandInto(nil, loads)
	return dcmodel.Solution{
		Speeds: append([]int(nil), speeds...),
		Load:   full,
		Value:  p.Objective(speeds, full),
	}, rounds, nil
}
