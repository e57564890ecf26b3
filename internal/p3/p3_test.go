package p3

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/stats"
)

// tinyCluster builds nGroups groups of one Opteron each — small enough for
// Enumerate.
func tinyCluster(nGroups int) *dcmodel.Cluster {
	groups := make([]dcmodel.Group, nGroups)
	for i := range groups {
		groups[i] = dcmodel.Group{Type: dcmodel.Opteron(), N: 1}
	}
	return &dcmodel.Cluster{Groups: groups, Gamma: 0.95, PUE: 1}
}

func TestEnumerateFindsObviousOptimum(t *testing.T) {
	// One group, zero load: everything off is optimal.
	c := tinyCluster(1)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 0, We: 1, Wd: 0.01}
	sol, err := Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Speeds[0] != 0 || sol.Value != 0 {
		t.Errorf("zero-load optimum: speeds=%v value=%v", sol.Speeds, sol.Value)
	}
}

func TestEnumerateInfeasible(t *testing.T) {
	c := tinyCluster(1)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 100, We: 1, Wd: 0.01}
	if _, err := Enumerate(p); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestEnumerateTooLarge(t *testing.T) {
	c := tinyCluster(12) // 5^12 ≈ 2.4e8 > limit
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 1, We: 1, Wd: 0.01}
	if _, err := Enumerate(p); err != ErrTooLarge {
		t.Errorf("want ErrTooLarge, got %v", err)
	}
}

func TestHomogeneousSolveBasics(t *testing.T) {
	hp := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 100, Gamma: 0.95, PUE: 1,
		LambdaRPS: 300, We: 0.05, Wd: 0.01,
	}
	sol, err := hp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Active < 1 || sol.Active > 100 {
		t.Fatalf("active = %d out of range", sol.Active)
	}
	if sol.Speed < 1 || sol.Speed > 4 {
		t.Fatalf("speed = %d out of range", sol.Speed)
	}
	// Feasibility: per-server load within γ·x.
	per := 300.0 / float64(sol.Active)
	if per > 0.95*hp.Type.Rate(sol.Speed)+1e-9 {
		t.Errorf("per-server load %v exceeds γ·x = %v", per, 0.95*hp.Type.Rate(sol.Speed))
	}
	if sol.PowerKW <= 0 || math.IsInf(sol.Value, 0) {
		t.Errorf("degenerate solution: %+v", sol)
	}
}

func TestHomogeneousZeroLoadTurnsOff(t *testing.T) {
	hp := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 50, Gamma: 0.95, PUE: 1,
		LambdaRPS: 0, We: 0.05, Wd: 0.01,
	}
	sol, err := hp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Active != 0 || sol.Value != 0 {
		t.Errorf("zero-load solution: %+v", sol)
	}
}

func TestHomogeneousInfeasible(t *testing.T) {
	hp := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 1, Gamma: 0.95, PUE: 1,
		LambdaRPS: 100, We: 1, Wd: 0.01,
	}
	if _, err := hp.Solve(); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestHomogeneousInvalid(t *testing.T) {
	// Malformed instances are caller bugs, not capacity answers: they must
	// be distinguishable from ErrInfeasible so probing solvers (the geo
	// split) do not mask corruption as "site full".
	cases := []*HomogeneousProblem{
		{Type: dcmodel.Opteron(), N: 0, LambdaRPS: 1},
		{Type: dcmodel.Opteron(), N: -3, Gamma: 0.95, PUE: 1, LambdaRPS: 1},
		{Type: dcmodel.Opteron(), N: 10, Gamma: 0.95, PUE: 1, LambdaRPS: -1},
		{Type: dcmodel.Opteron(), N: 10, Gamma: 0.95, PUE: 1, LambdaRPS: math.NaN()},
	}
	for i, hp := range cases {
		if _, err := hp.Solve(); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: want ErrInvalid, got %v", i, err)
		}
	}
}

func TestHomogeneousMatchesExhaustiveOverKM(t *testing.T) {
	// Exhaustive search over (speed, active count) must agree exactly: the
	// fast solver only claims exactness within the uniform family.
	rng := stats.NewRNG(404)
	for trial := 0; trial < 60; trial++ {
		hp := &HomogeneousProblem{
			Type: dcmodel.Opteron(), N: 1 + rng.IntN(200), Gamma: 0.95, PUE: 1,
			LambdaRPS: rng.Uniform(0, 800), We: rng.Uniform(0, 0.5),
			Wd: rng.Uniform(1e-4, 0.05), OnsiteKW: rng.Uniform(0, 20),
		}
		if rng.Bernoulli(0.4) {
			hp.SwitchWeight = rng.Uniform(0, 0.1)
			hp.PrevActive = rng.IntN(hp.N + 1)
		}
		fast, fastErr := hp.Solve()
		bestVal := math.Inf(1)
		for k := 1; k <= hp.Type.NumSpeeds(); k++ {
			for m := 0; m <= hp.N; m++ {
				if v, _ := hp.objective(k, m); v < bestVal {
					bestVal = v
				}
			}
		}
		if v, _ := hp.objective(0, 0); v < bestVal {
			bestVal = v
		}
		if math.IsInf(bestVal, 1) {
			if fastErr != ErrInfeasible {
				t.Errorf("trial %d: exhaustive infeasible but fast gave %v", trial, fastErr)
			}
			continue
		}
		if fastErr != nil {
			t.Fatalf("trial %d: %v", trial, fastErr)
		}
		if fast.Value > bestVal*(1+1e-9)+1e-12 {
			t.Errorf("trial %d: fast %v > exhaustive %v", trial, fast.Value, bestVal)
		}
	}
}

func TestHomogeneousNearEnumerateOptimum(t *testing.T) {
	// Against the unrestricted (mixed-speed) optimum the uniform-family
	// solver must be within a small documented gap.
	rng := stats.NewRNG(505)
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.IntN(3)
		c := tinyCluster(n)
		capSum := float64(n) * 10 * 0.95
		p := &dcmodel.SlotProblem{
			Cluster:   c,
			LambdaRPS: rng.Uniform(0.5, 0.9*capSum),
			We:        rng.Uniform(0.01, 0.3),
			Wd:        rng.Uniform(1e-3, 0.03),
			OnsiteKW:  rng.Uniform(0, 0.5),
		}
		exact, err := Enumerate(p)
		if err != nil {
			t.Fatalf("trial %d enumerate: %v", trial, err)
		}
		// One server per group: the closed form over n identical servers is
		// the same fleet, restricted to one common speed.
		fast, err := (&HomogeneousProblem{
			Type: dcmodel.Opteron(), N: n, Gamma: c.Gamma, PUE: c.PUE,
			LambdaRPS: p.LambdaRPS, We: p.We, Wd: p.Wd, OnsiteKW: p.OnsiteKW,
		}).Solve()
		if err != nil {
			t.Fatalf("trial %d fast: %v", trial, err)
		}
		if fast.Value < exact.Value-1e-6*(1+exact.Value) {
			t.Errorf("trial %d: fast %v beats exhaustive %v (impossible)",
				trial, fast.Value, exact.Value)
		}
		if fast.Value > exact.Value*1.05+1e-9 {
			t.Errorf("trial %d: fast %v more than 5%% above optimum %v",
				trial, fast.Value, exact.Value)
		}
	}
}

func TestSwitchingPenaltyKeepsServersOn(t *testing.T) {
	// With a large switching penalty and servers already on, the solver
	// should keep the count close to PrevActive rather than powering down.
	base := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 200, Gamma: 0.95, PUE: 1,
		LambdaRPS: 100, We: 0.05, Wd: 0.01,
	}
	free, err := base.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sticky := *base
	sticky.SwitchWeight = 10 // dwarfs everything else
	sticky.PrevActive = 150
	got, err := sticky.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got.Active != 150 {
		t.Errorf("with huge switching penalty active = %d, want 150 (free optimum was %d)",
			got.Active, free.Active)
	}
}
