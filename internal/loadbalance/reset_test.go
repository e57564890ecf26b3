package loadbalance

import (
	"testing"

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
