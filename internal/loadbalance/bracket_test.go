package loadbalance

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/stats"
)

// fill is the allocating form of fillInto.
func (in *Instance) fill(omega float64) ([]float64, error) {
	return in.fillInto(nil, omega)
}

// marginal returns d(cost)/dL for on group i (slice position) at load v
// under electricity weight omega. It derives the delay term from Wd, the
// cluster's server count and the group's rate on every call, independently
// of the instance's cached delay columns.
func (in *Instance) marginal(i int, omega, v float64) float64 {
	den := in.gRate[i] - v
	if den <= 0 {
		return math.Inf(1)
	}
	return omega*in.gSlope[i] + in.prob.Wd*in.arr.N[in.gIdx[i]]*in.gRate[i]/(den*den)
}

// refBracketTerm is one group's reply to a fill's bracket pass as it was
// computed before the ω-independent terms were cached: the prices at which
// the group is empty and full, its price floor ω·A, sqrt(Wd·n·R) and R.
type refBracketTerm struct {
	empty, full, floor, root, rate float64
}

func refTerm(in *Instance, i int, omega float64) refBracketTerm {
	return refBracketTerm{
		empty: in.marginal(i, omega, 0),
		full:  in.marginal(i, omega, in.gCap[i]),
		floor: omega * in.gSlope[i],
		root:  math.Sqrt(in.prob.Wd * in.arr.N[in.gIdx[i]] * in.gRate[i]),
		rate:  in.gRate[i],
	}
}

// refBracket folds every group's reference term, in ascending group order,
// with math.Min/math.Max — the bracket pass Instance.bracket replaces.
func refBracket(in *Instance, omega float64) fillBracket {
	b := fillBracket{lo: math.Inf(1), hi: math.Inf(-1), floor: math.Inf(1)}
	for i := range in.gIdx {
		t := refTerm(in, i, omega)
		b.lo = math.Min(b.lo, t.empty)
		b.hi = math.Max(b.hi, t.full)
		b.floor = math.Min(b.floor, t.floor)
		b.roots += t.root
		b.rates += t.rate
	}
	return b
}

// requireBracketBits fails unless the instance's bracket at each weight
// equals the reference fold bit for bit.
func requireBracketBits(t *testing.T, where string, in *Instance, omegas []float64) {
	t.Helper()
	for _, w := range omegas {
		got, want := in.bracket(w), refBracket(in, w)
		fields := [...]struct {
			name      string
			got, want float64
		}{
			{"lo", got.lo, want.lo}, {"hi", got.hi, want.hi}, {"floor", got.floor, want.floor},
			{"roots", got.roots, want.roots}, {"rates", got.rates, want.rates},
		}
		for _, f := range fields {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Fatalf("%s, ω=%v: bracket %s = %v, reference %v", where, w, f.name, f.got, f.want)
			}
		}
	}
}

// TestBracketMatchesReference drives seeded SetSpeed/Revert/Commit/Reset
// sequences and requires the cached-term bracket to reproduce the per-group
// reference fold bit for bit at ω = 0, an interior kink-search weight and
// We. The γ = 1 cluster has no headroom at the cap, so every full price is
// +Inf.
func TestBracketMatchesReference(t *testing.T) {
	gammaOne := dcmodel.PaperCluster(200)
	gammaOne.Gamma = 1
	clusters := []struct {
		name string
		c    *dcmodel.Cluster
	}{
		{"paper-200", dcmodel.PaperCluster(200)},
		{"hetero-216000-200", dcmodel.HeterogeneousCluster(216000, 200)},
		{"gamma-1", gammaOne},
	}
	for ci, tc := range clusters {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			p := &dcmodel.SlotProblem{
				Cluster: c, LambdaRPS: 0.3 * c.MaxCapacityRPS(),
				We: 0.07, Wd: 0.02, OnsiteKW: 2000,
			}
			omegas := []float64{0, 0.37 * p.We, p.We}
			n := len(c.Groups)
			rng := stats.NewRNG(0xB7AC + uint64(ci))
			speeds := make([]int, n)
			randomize := func() {
				for g := range speeds {
					speeds[g] = rng.IntN(c.Groups[g].Type.NumSpeeds() + 1)
				}
			}
			randomize()
			in, err := NewInstance(p, speeds)
			if err != nil {
				t.Fatal(err)
			}
			requireBracketBits(t, "fresh", in, omegas)
			for step := 0; step < 600; step++ {
				where := fmt.Sprintf("step %d", step)
				if step%150 == 149 {
					randomize()
					if err := in.Reset(p, speeds); err != nil {
						t.Fatalf("%s: Reset: %v", where, err)
					}
					requireBracketBits(t, where+" after Reset", in, omegas)
					continue
				}
				g := rng.IntN(n)
				if err := in.SetSpeed(g, rng.IntN(c.Groups[g].Type.NumSpeeds()+1)); err != nil {
					t.Fatalf("%s: SetSpeed: %v", where, err)
				}
				requireBracketBits(t, where+" after SetSpeed", in, omegas)
				if rng.Float64() < 0.5 {
					in.Revert()
					requireBracketBits(t, where+" after Revert", in, omegas)
				} else {
					in.Commit()
				}
			}
		})
	}
}
