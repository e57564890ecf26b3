package loadbalance

import (
	"errors"

	"repro/internal/dcmodel"
	"repro/internal/workpool"
)

// ErrNeedsDelayWeight is returned by SolveDistributed when Wd = 0: with no
// delay term the per-group response to a price is bang-bang and the
// price-only protocol cannot break ties; use the centralized Solve instead.
var ErrNeedsDelayWeight = errors.New("loadbalance: distributed solver requires Wd > 0")

// distCoordinator runs the water-fill's price iteration by broadcasting
// (ω, ν) price signals to the server groups and aggregating their replies.
// Each group is an autonomous agent: it answers a price query from nothing
// but its own parameters, mirroring the dual-decomposition structure the
// paper references ([5], [27]). A fill costs one bracket round, in which
// every agent reports the prices at which it would be empty and full, and
// then one round per Newton step, in which every agent reports its load at
// the announced price and that load's slope in the price. The agents used
// to be one goroutine each; at fleet scale (10k+ groups per site) that is
// 10k parked goroutines per solve, so a round now fans the queries across
// a bounded worker pool — every agent writes only its own reply slot, so
// the aggregate (summed in agent-index order) is identical under any
// schedule, including the sequential workers <= 1 path, and identical to
// the centralized fill.
type distCoordinator struct {
	in      *Instance
	workers int           // pool width for a broadcast round; <=1 sequential
	terms   []bracketTerm // per-agent reply to a bracket round
	loads   []float64     // per-agent reply: load accepted at the announced price
	slopes  []float64     // per-agent reply: that load's slope in the price
}

func newDistCoordinator(in *Instance, workers int) *distCoordinator {
	n := len(in.gIdx)
	return &distCoordinator{
		in:      in,
		workers: workers,
		terms:   make([]bracketTerm, n),
		loads:   make([]float64, n),
		slopes:  make([]float64, n),
	}
}

// bracket broadcasts ω and folds the agents' bracket replies in agent order.
func (d *distCoordinator) bracket(omega float64) fillBracket {
	in := d.in
	workpool.Fan(d.workers, len(d.terms), func(agent int) {
		d.terms[agent] = in.bracketTerm(agent, omega)
	})
	b := newFillBracket()
	for _, t := range d.terms {
		b.add(t)
	}
	return b
}

// sweep broadcasts one (ω, ν) price, copies the agents' loads into dst and
// returns their agent-ordered sum and slope sum.
func (d *distCoordinator) sweep(dst []float64, omega, nu float64) (sum, slope float64) {
	in := d.in
	workpool.Fan(d.workers, len(d.loads), func(agent int) {
		d.loads[agent], d.slopes[agent] = in.allocSlope(agent, omega, nu)
	})
	for i, l := range d.loads {
		dst[i] = l
		sum += l
		slope += d.slopes[i]
	}
	return sum, slope
}

// fillInto runs one distributed water-fill. It implements the filler
// interface solveWith drives; dst is reused when large enough.
func (d *distCoordinator) fillInto(dst []float64, omega float64) ([]float64, error) {
	return d.in.waterFill(d, dst, omega)
}

// SolveDistributed computes the same optimum as Solve but via the
// dual-decomposition price protocol: every server group answers price
// broadcasts from its own parameters only. The regime analysis on the [·]^+
// kink is identical to the centralized path.
func SolveDistributed(p *dcmodel.SlotProblem, speeds []int) (dcmodel.Solution, error) {
	sol, _, err := SolveDistributedCounted(p, speeds)
	return sol, err
}

// SolveDistributedCounted is SolveDistributed, additionally reporting the
// number of price broadcast rounds the dual protocol spent (a bracket round
// plus the Newton rounds of each fill, summed over every ω the outer search
// tried) — the message cost a real deployment would pay per load split.
func SolveDistributedCounted(p *dcmodel.SlotProblem, speeds []int) (dcmodel.Solution, int, error) {
	return SolveDistributedWorkers(p, speeds, 1)
}

// SolveDistributedWorkers is SolveDistributedCounted with the agent replies
// of each broadcast round fanned across up to `workers` goroutines.
// workers <= 1 runs rounds sequentially; every width produces bit-for-bit
// the same solution and round count, since agents only ever write their own
// reply slot and the coordinator aggregates in agent-index order.
func SolveDistributedWorkers(p *dcmodel.SlotProblem, speeds []int, workers int) (dcmodel.Solution, int, error) {
	if p.Wd <= 0 {
		return dcmodel.Solution{}, 0, ErrNeedsDelayWeight
	}
	in, err := NewInstance(p, speeds)
	if err != nil {
		return dcmodel.Solution{}, 0, err
	}
	loads, err := in.solveWith(newDistCoordinator(in, workers))
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
