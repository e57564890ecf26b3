package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/loadbalance"
	"repro/internal/p3"
)

// smallProblem is a 4-group slot at 60% of top-speed capacity.
func smallProblem() *dcmodel.SlotProblem {
	c := dcmodel.HeterogeneousCluster(40, 4)
	return &dcmodel.SlotProblem{
		Cluster: c, LambdaRPS: 0.6 * c.Gamma * c.MaxCapacityRPS(),
		We: 1, Wd: 0.5, OnsiteKW: 1,
	}
}

func topSpeeds(c *dcmodel.Cluster) []int {
	s := make([]int, len(c.Groups))
	for g := range s {
		s[g] = c.Groups[g].Type.NumSpeeds()
	}
	return s
}

func TestCheckDecision(t *testing.T) {
	p := smallProblem()
	sol, err := loadbalance.Solve(p, topSpeeds(p.Cluster))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDecision(p, sol); err != nil {
		t.Fatalf("a solver's decision failed the checks: %v", err)
	}
	overCap := sol.Clone()
	overCap.Load[0] = p.Cluster.Gamma*p.Cluster.Groups[0].RateAt(overCap.Speeds[0]) + 1
	overCap.Load[1] -= overCap.Load[0] - sol.Load[0] // keep Σλ_i = λ
	short := sol.Clone()
	short.Load[2] *= 0.5
	negative := sol.Clone()
	negative.Load[3] = -1
	for name, bad := range map[string]dcmodel.Solution{"over cap": overCap, "Σλ short": short, "negative": negative} {
		if err := checkDecision(p, bad); !errors.Is(err, errBadDecision) {
			t.Errorf("%s: checkDecision = %v, want errBadDecision", name, err)
		}
	}
}

// corruptSolver shifts load from group 1 onto group 0 past its cap.
type corruptSolver struct{ inner p3.Solver }

func (s corruptSolver) Solve(p *dcmodel.SlotProblem) (dcmodel.Solution, error) {
	sol, err := s.inner.Solve(p)
	if err != nil {
		return sol, err
	}
	c := p.Cluster
	over := c.Gamma*c.Groups[0].RateAt(sol.Speeds[0]) - sol.Load[0] + 1
	sol.Load[0] += over
	sol.Load[1] -= over
	return sol, nil
}

// A corrupted decision must fail its slot through /decide and count as a
// failed slot, which is what the result line's failed count reports.
func TestCorruptDecisionCountsAsFailure(t *testing.T) {
	c := dcmodel.HeterogeneousCluster(decideServers, decideGroups)
	in := genDecide(1, c, 3)
	out := &outcome{}
	ep, err := runDecideEpisode(in, corruptSolver{newDecideSolver(1, nil)}, nil, out)
	if err != nil {
		t.Fatal(err)
	}
	if ep.failed != len(in.Slots) {
		t.Fatalf("%d failed slots, want %d", ep.failed, len(in.Slots))
	}
	if len(out.checks) == 0 || !strings.Contains(out.checks[0], "422") {
		t.Fatalf("checks = %q, want a /decide 422 failure", out.checks)
	}

	out = &outcome{}
	ep, err = runDecideEpisode(in, newDecideSolver(1, nil), nil, out)
	if err != nil {
		t.Fatal(err)
	}
	if ep.failed != 0 || len(out.checks) != 0 {
		t.Fatalf("uncorrupted episode: %d failed, checks %q", ep.failed, out.checks)
	}
}
