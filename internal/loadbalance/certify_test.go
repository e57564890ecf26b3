package loadbalance

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dcmodel"
)

// corpusProblem draws one random split over cluster c: random speeds (a
// few groups off), load up to 95% of the speeds' capacity, random weights
// with Wd > 0, and an on-site supply placed in the grid regime, the
// surplus regime, or — for a third of the draws — strictly inside the
// kink span between the grid and surplus fills' powers. It returns nil
// speeds when the draw cannot carry its load.
func corpusProblem(rng *rand.Rand, c *dcmodel.Cluster) (*dcmodel.SlotProblem, []int) {
	speeds := make([]int, len(c.Groups))
	for g := range speeds {
		if rng.Float64() < 0.9 {
			speeds[g] = 1 + rng.Intn(c.Groups[g].Type.NumSpeeds())
		}
	}
	capRPS := c.UsableCapacityRPS(speeds)
	p := &dcmodel.SlotProblem{
		Cluster:   c,
		LambdaRPS: capRPS * (0.02 + 0.93*rng.Float64()),
		We:        0.01 + 3*rng.Float64(),
		Wd:        []float64{1e-3, 0.02, 1.7}[rng.Intn(3)] * (0.5 + rng.Float64()),
	}
	in, err := NewInstance(p, speeds)
	if err != nil {
		return nil, nil
	}
	grid, _ := in.fill(p.We)
	free, _ := in.fill(0)
	pGrid, pFree := in.powerOf(grid), in.powerOf(free)
	switch rng.Intn(3) {
	case 0:
		p.OnsiteKW = pGrid * rng.Float64()
	case 1:
		p.OnsiteKW = pFree * (1 + rng.Float64())
	default:
		p.OnsiteKW = pGrid + (pFree-pGrid)*(0.01+0.98*rng.Float64())
	}
	return p, speeds
}

// corpusClusters are the fleet-shaped and decide-shaped clusters the
// work bounds are stated on.
func corpusClusters() []*dcmodel.Cluster {
	return []*dcmodel.Cluster{
		dcmodel.HeterogeneousCluster(216000, 200),
		dcmodel.HeterogeneousCluster(390, 39),
	}
}

// TestSplitCorpusCertifiesAndCountsWork runs seeded random corpora over
// both clusters. Every split must certify, match the bisection reference's
// objective to 1e-9 relative and carry λ to 1e-9 relative. The work is
// deterministic and must stay within the stated bounds, as means over a
// corpus: at most 8 sweeps per water-fill (the bisection fill took 49) and
// at most 12 fills per kink-regime split, the grid and surplus probes
// included (the bisection took about 45). No kink split may take more
// than 16 fills.
func TestSplitCorpusCertifiesAndCountsWork(t *testing.T) {
	for ci, c := range corpusClusters() {
		rng := rand.New(rand.NewSource(int64(14 + ci)))
		var fills, sweeps, kinkSplits, maxKinkFills, kinkFills int
		for trial := 0; trial < 150; trial++ {
			p, speeds := corpusProblem(rng, c)
			if speeds == nil {
				continue
			}
			label := fmt.Sprintf("cluster %d trial %d", ci, trial)
			in, err := NewInstance(p, speeds)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			f0, s0 := in.Work()
			got, err := in.Solve()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			f1, s1 := in.Work()
			fills += f1 - f0
			sweeps += s1 - s0
			if f1-f0 > 2 {
				kinkSplits++
				kinkFills += f1 - f0
				maxKinkFills = max(maxKinkFills, f1-f0)
			}
			want, err := newRefSolver(p, speeds).solve()
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			requireMatchesReference(t, label, p, got, want)
			var sum float64
			for _, l := range got.Load {
				sum += l
			}
			if math.Abs(sum-p.LambdaRPS) > 1e-9*p.LambdaRPS {
				t.Fatalf("%s: Σλ_g = %v, want %v", label, sum, p.LambdaRPS)
			}
		}
		perFill := float64(sweeps) / float64(fills)
		t.Logf("cluster %d: %d fills, %.2f sweeps/fill, %d kink splits, %.2f mean and %d max fills per kink split",
			ci, fills, perFill, kinkSplits, float64(kinkFills)/float64(kinkSplits), maxKinkFills)
		if perFill > 8 {
			t.Errorf("cluster %d: %.2f sweeps per fill, want ≤ 8", ci, perFill)
		}
		if kinkSplits < 20 {
			t.Errorf("cluster %d: only %d kink-regime splits; generator drifted", ci, kinkSplits)
		}
		if perKink := float64(kinkFills) / float64(kinkSplits); perKink > 12 {
			t.Errorf("cluster %d: %.2f fills per kink split, want ≤ 12", ci, perKink)
		}
		if maxKinkFills > 16 {
			t.Errorf("cluster %d: a kink split took %d fills, want ≤ 16", ci, maxKinkFills)
		}
	}
}

// TestDistributedMatchesCentralizedBits pins that the price protocol runs
// the centralized fill's iteration exactly: same loads to the bit, and
// one broadcast round per sweep. A grid-regime split on the 200-group
// cluster takes at most 12 rounds (the bisection protocol took 41).
func TestDistributedMatchesCentralizedBits(t *testing.T) {
	c := dcmodel.HeterogeneousCluster(216000, 200)
	rng := rand.New(rand.NewSource(41))
	gridSplits := 0
	for trial := 0; trial < 40; trial++ {
		p, speeds := corpusProblem(rng, c)
		if speeds == nil {
			continue
		}
		in, err := NewInstance(p, speeds)
		if err != nil {
			t.Fatal(err)
		}
		cent, err := in.Solve()
		if err != nil {
			t.Fatal(err)
		}
		fills, sweeps := in.Work()
		dist, rounds, err := SolveDistributedCounted(p, speeds)
		if err != nil {
			t.Fatal(err)
		}
		for g := range cent.Load {
			if math.Float64bits(dist.Load[g]) != math.Float64bits(cent.Load[g]) {
				t.Fatalf("trial %d: group %d distributed load %v != centralized %v",
					trial, g, dist.Load[g], cent.Load[g])
			}
		}
		if rounds != sweeps {
			t.Fatalf("trial %d: %d rounds for %d centralized sweeps", trial, rounds, sweeps)
		}
		if fills == 1 {
			gridSplits++
			if rounds > 12 {
				t.Errorf("trial %d: grid-regime split took %d rounds, want ≤ 12", trial, rounds)
			}
		}
	}
	if gridSplits < 5 {
		t.Fatalf("only %d grid-regime splits; generator drifted", gridSplits)
	}
}

// TestCertifyRejectsPerturbedSplits pins that the certificate is not
// vacuous: moving load between two interior groups, or onto an idle
// group, must fail it, as must breaking Σλ_g = λ, a cap, or an off group.
func TestCertifyRejectsPerturbedSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := dcmodel.HeterogeneousCluster(390, 39)
	moved, placed := 0, 0
	for trial := 0; trial < 60; trial++ {
		p, speeds := corpusProblem(rng, c)
		if speeds == nil {
			continue
		}
		sol, err := Solve(p, speeds)
		if err != nil {
			t.Fatal(err)
		}
		if err := Certify(p, sol.Speeds, sol.Load); err != nil {
			t.Fatalf("trial %d: solver split: %v", trial, err)
		}
		var interior, idle []int
		for g, l := range sol.Load {
			if speeds[g] == 0 {
				continue
			}
			capRPS := c.Gamma * c.Groups[g].RateAt(speeds[g])
			switch {
			case l == 0:
				idle = append(idle, g)
			case l > 0.05*capRPS && l < 0.95*capRPS:
				interior = append(interior, g)
			}
		}
		reject := func(name string, loads []float64) {
			t.Helper()
			if err := Certify(p, speeds, loads); !errors.Is(err, ErrNotOptimal) {
				t.Fatalf("trial %d: %s: Certify = %v, want ErrNotOptimal", trial, name, err)
			}
		}
		if len(interior) >= 2 {
			i, j := interior[0], interior[len(interior)-1]
			bad := append([]float64(nil), sol.Load...)
			d := 0.01 * math.Min(bad[i], bad[j])
			bad[i] -= d
			bad[j] += d
			reject("load moved between interior groups", bad)
			moved++
		}
		if len(idle) > 0 && len(interior) > 0 {
			i, j := interior[0], idle[0]
			capJ := c.Gamma * c.Groups[j].RateAt(speeds[j])
			bad := append([]float64(nil), sol.Load...)
			d := math.Min(0.5*bad[i], 0.1*capJ)
			bad[i] -= d
			bad[j] += d
			reject("load placed on an idle group", bad)
			placed++
		}
		short := append([]float64(nil), sol.Load...)
		short[0] += 1e-6 * p.LambdaRPS
		reject("Σλ_g off by 1e-6", short)
		for g := range speeds {
			if speeds[g] == 0 {
				off := append([]float64(nil), sol.Load...)
				off[g] = 1
				reject("off group loaded", off)
				break
			}
		}
		over := append([]float64(nil), sol.Load...)
		over[len(over)-1] = -1
		reject("negative load", over)
	}
	if moved < 10 || placed < 5 {
		t.Fatalf("perturbations tried: %d moved, %d placed; generator drifted", moved, placed)
	}
}

// TestCertifyNoDelayGreedy pins the Wd = 0 greedy order check: above r(t)
// a dearer group may not carry load while a cheaper one has headroom.
func TestCertifyNoDelayGreedy(t *testing.T) {
	c := twoGroups(true)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 80, We: 0.05, Wd: 0}
	speeds := []int{4, 4}
	sol, err := Solve(p, speeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := Certify(p, speeds, sol.Load); err != nil {
		t.Fatalf("greedy split: %v", err)
	}
	swapped := []float64{sol.Load[0] - 10, sol.Load[1] + 10}
	if err := Certify(p, speeds, swapped); !errors.Is(err, ErrNotOptimal) {
		t.Fatalf("dearer group loaded first: Certify = %v, want ErrNotOptimal", err)
	}
	// With all power covered on site the electricity term vanishes and
	// any feasible split is optimal.
	p.OnsiteKW = 1e6
	if err := Certify(p, speeds, swapped); err != nil {
		t.Fatalf("surplus Wd = 0 split: %v", err)
	}
}
