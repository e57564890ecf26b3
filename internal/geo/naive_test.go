package geo

import (
	"math"
)

// stepNaive is the pre-memoization reference implementation of GreedyStep,
// kept (minus observability) as the bit-for-bit yardstick for the split
// hot path: golden tests require GreedyStep's allocation and operated
// outcome to hash identically to this loop, and its solve count is the
// baseline the memo counters are measured against. It re-solves every
// feasible site's P3 in every greedy round — O(Chunks·K) solves — and
// solves each loaded site once more in the charge pass; the memoized path
// must account for exactly those solves as p3Solves + memoHits.
//
// It does not advance the slot; Settle the returned outcome as usual.
func (f *Fleet) stepNaive(lambda, v float64) (StepOutcome, int, error) {
	if err := f.validateLoad(lambda, v); err != nil {
		return StepOutcome{}, 0, err
	}
	k := len(f.Sites)
	solves := 0
	split := make([]float64, k)
	if lambda > 0 {
		chunk := lambda / Chunks
		cur := make([]float64, k) // current site values
		for c := 0; c < Chunks; c++ {
			best := -1
			bestDelta := math.Inf(1)
			for i := 0; i < k; i++ {
				if split[i]+chunk > f.caps[i] {
					continue
				}
				solves++
				delta := f.siteValue(i, v, split[i]+chunk) - cur[i]
				if delta < bestDelta {
					best, bestDelta = i, delta
				}
			}
			if best < 0 {
				return StepOutcome{}, solves, errNoAbsorb
			}
			split[best] += chunk
			cur[best] += bestDelta
		}
	}
	out := StepOutcome{Sites: make([]SiteOutcome, k)}
	for i := 0; i < k; i++ {
		so := SiteOutcome{LoadRPS: split[i]}
		if split[i] > 0 {
			solves++
			s, err := f.solveSite(i, v, split[i])
			if err != nil {
				return StepOutcome{}, solves, f.siteError(i, err)
			}
			so = f.charge(i, split[i], s)
		}
		out.Sites[i] = so
		out.TotalCostUSD += so.CostUSD
		out.TotalGridKWh += so.GridKWh
	}
	return out, solves, nil
}

// siteValue returns site k's P3 optimum value at load mu (+Inf when the
// site cannot carry mu). The hot path goes through evalSite instead, which
// additionally separates real solver errors from capacity infeasibility.
func (f *Fleet) siteValue(k int, v, mu float64) float64 {
	if mu == 0 {
		// An empty site powers down: zero P3 value.
		return 0
	}
	s, err := f.solveSite(k, v, mu)
	if err != nil {
		return math.Inf(1)
	}
	return s.Value
}
