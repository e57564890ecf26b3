package loadbalance

import (
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/stats"
)

// TestResetMatchesFresh drives one long-lived Instance through Reset calls
// across different problems and randomized speed vectors — including Resets
// from a dirtied state (pending SetSpeed mutations) — and requires every
// re-prepared instance to solve bit-for-bit identically to a fresh
// NewInstance build. This is the invariant that lets the GSD engine pool
// recycle instances.
func TestResetMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(91)
	in := &Instance{}
	cases := incrementalCases()
	for trial := 0; trial < 200; trial++ {
		tc := cases[trial%len(cases)]
		n := len(tc.prob.Cluster.Groups)
		speeds := make([]int, n)
		for g := range speeds {
			speeds[g] = rng.IntN(tc.prob.Cluster.Groups[g].Type.NumSpeeds() + 1)
		}
		err := in.Reset(tc.prob, speeds)
		if _, wantErr := NewInstance(tc.prob, speeds); (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d (%s): Reset err %v, NewInstance err %v", trial, tc.name, err, wantErr)
		}
		if err != nil {
			continue
		}
		requireBitEqual(t, trial, tc.prob, in, speeds)
		// Dirty the instance before the next Reset: pending and committed
		// mutations must not leak through.
		for m := 0; m < 3; m++ {
			g := rng.IntN(n)
			k := rng.IntN(tc.prob.Cluster.Groups[g].Type.NumSpeeds() + 1)
			if err := in.SetSpeed(g, k); err != nil {
				t.Fatal(err)
			}
			if m == 1 {
				in.Commit()
			}
		}
	}
}

// TestResetAfterInPlaceEdit pins the Instance's snapshot contract: the
// per-group columns hold Wd as of Reset, so a problem rewritten in place
// every slot — as geo.Fleet rewrites its per-site problems, with a new Wd,
// λ and We — solves bit-for-bit like a fresh NewInstance once the instance
// is Reset, and so do the SetSpeed deltas applied after it.
func TestResetAfterInPlaceEdit(t *testing.T) {
	c := dcmodel.HeterogeneousCluster(2400, 24)
	n := len(c.Groups)
	p := &dcmodel.SlotProblem{}
	rng := stats.NewRNG(17)
	in := &Instance{}
	speeds := make([]int, n)
	for slot := 0; slot < 40; slot++ {
		*p = dcmodel.SlotProblem{
			Cluster:   c,
			LambdaRPS: (0.1 + 0.3*rng.Float64()) * c.MaxCapacityRPS(),
			We:        0.02 + 0.1*rng.Float64(),
			Wd:        0.005 + 0.05*rng.Float64(),
			OnsiteKW:  5 * rng.Float64(),
		}
		for g := range speeds {
			speeds[g] = 1 + rng.IntN(c.Groups[g].Type.NumSpeeds())
		}
		if err := in.Reset(p, speeds); err != nil {
			t.Fatalf("slot %d: Reset: %v", slot, err)
		}
		requireBitEqual(t, slot, p, in, speeds)
		g := rng.IntN(n)
		k := rng.IntN(c.Groups[g].Type.NumSpeeds() + 1)
		if err := in.SetSpeed(g, k); err != nil {
			t.Fatal(err)
		}
		speeds[g] = k
		in.Commit()
		requireBitEqual(t, slot, p, in, speeds)
	}
}
