package geo

import (
	"errors"
	"math"
	"time"

	"repro/internal/p3"
	"repro/internal/telemetry/span"
	"repro/internal/workpool"
)

// This file is the geo split hot path: the memoized, incremental and
// optionally parallel greedy marginal allocation behind GreedyStep. It is
// pinned bit-for-bit against the naive reference loop in naive_test.go
// (see TestGoldenSplitParity), which it replaces at O(Chunks + K) P3
// solves per slot instead of O(Chunks·K).
//
// The key invariant: site values are only ever needed on the per-slot grid
// μ = split_i + chunk where split_i accumulates whole chunks, and within a
// slot the value of (site, tentative load) never changes. So each site
// carries exactly one cached candidate — its marginal value for absorbing
// the *next* chunk — and a greedy round invalidates only the winner's
// entry. Everything else is a memo hit the naive loop would have paid a
// fresh site solve for.

// Chunks is the load-split granularity of GreedyStep: the slot's arrivals
// are allocated in λ/Chunks increments by greedy marginal cost.
const Chunks = 100

// GreedyStep distributes lambda across the sites minimizing the fleet's P3
// objective Σ_k [V·g_k + q_k·y_k], operates each site, and returns the
// outcome. Call Settle with the outcome afterwards.
//
// The split runs on the memoized greedy engine below: bit-identical to
// the naive O(Chunks·K)-solve loop (kept as stepNaive, pinned by golden
// hash tests) at O(Chunks + K) site solves, with the initial candidate
// evaluations optionally fanned across SetWorkers goroutines. Real solver
// failures abort the step and count into the failing site's solve_errors;
// capacity infeasibility never does — a full site is a legitimate split
// answer.
func (f *Fleet) GreedyStep(lambda, v float64) (StepOutcome, error) {
	if err := f.validateLoad(lambda, v); err != nil {
		return StepOutcome{}, err
	}
	var stepStart time.Time
	if f.metrics != nil {
		stepStart = time.Now()
	}
	k := len(f.Sites)
	stepSpan := f.tracer.StartRoot("geo.step",
		span.Int("slot", f.slot), span.Float("lambda_rps", lambda),
		span.Float("v", v), span.Int("sites", k),
		span.Int("workers", max(f.workers, 1)))
	defer stepSpan.End()
	plan, err := f.greedySplit(lambda, v)
	if err != nil {
		stepSpan.Set(span.Str("error", err.Error()),
			span.Int("p3_solves", plan.p3Solves), span.Int("memo_hits", plan.memoHits))
		return StepOutcome{}, err
	}
	out := StepOutcome{Sites: make([]SiteOutcome, k)}
	for i := 0; i < k; i++ {
		var siteSpan *span.Span
		if stepSpan != nil {
			siteSpan = stepSpan.Child("geo.site",
				span.Str("site", f.Sites[i].Name),
				span.Float("load_rps", plan.split[i]),
				span.Int("chunks", plan.chunks[i]),
				span.Float("marginal_usd", plan.marginal[i]),
				span.Float("queue_kwh", f.queues[i].Len()))
		}
		so := SiteOutcome{LoadRPS: plan.split[i]}
		if plan.split[i] > 0 {
			// The site's last winning candidate was solved at exactly this
			// load: reuse it instead of the naive loop's final re-solve.
			so = f.charge(i, plan.split[i], plan.sols[i])
			plan.memoHits++
		}
		if siteSpan != nil {
			siteSpan.Set(
				span.Int("speed", so.Speed), span.Int("active", so.Active),
				span.Float("cost_usd", so.CostUSD), span.Float("grid_kwh", so.GridKWh))
			siteSpan.End()
		}
		out.Sites[i] = so
	}
	f.finish(&out, plan.chunks, stepStart)
	if f.metrics != nil {
		f.metrics.P3Solves.Add(float64(plan.p3Solves))
		f.metrics.MemoHits.Add(float64(plan.memoHits))
	}
	if stepSpan != nil {
		stepSpan.Set(
			span.Float("total_usd", out.TotalCostUSD),
			span.Float("total_grid_kwh", out.TotalGridKWh),
			span.Int("p3_solves", plan.p3Solves),
			span.Int("memo_hits", plan.memoHits))
	}
	return out, nil
}

// errNoAbsorb is the GreedyStep failure when the greedy allocation
// strands load: every site is either at capacity for the next chunk or
// P3-infeasible.
var errNoAbsorb = errors.New("geo: no site can absorb the next chunk")

// candidate is one site's slot of the per-slot value table: the site's P3
// value and solution at its current tentative load plus one chunk, and the
// marginal delta the greedy argmin scans. Valid until the site wins a
// chunk (nothing else moves its tentative load within the slot).
type candidate struct {
	capOK bool    // split_i + chunk fits the site's γ-discounted capacity
	fresh bool    // solved this round; reset to a memo hit on first scan
	value float64 // P3 optimum at split_i + chunk (+Inf when infeasible)
	delta float64 // value − cur_i, the greedy marginal cost
	sol   siteSolve
	err   error // real solver failure (never capacity infeasibility)
}

// splitPlan is a computed greedy allocation plus the cached P3 solutions
// backing it and the solve accounting the spans and metrics report.
type splitPlan struct {
	split    []float64 // allocated load per site
	chunks   []int     // greedy chunks won per site
	marginal []float64 // last winning marginal cost per site
	sols     []siteSolve
	p3Solves int // fresh site solves spent
	memoHits int // candidate reads (and final-pass reuses) served from cache
}

// evalSite solves site i's P3 at load mu, separating the two failure
// modes: capacity-type infeasibility (p3.ErrInfeasible) is a legitimate
// "site full" answer reported as +Inf, while any other error — a malformed
// instance, a corrupted cluster — is a real failure the step must surface.
func (f *Fleet) evalSite(i int, v, mu float64) (float64, siteSolve, error) {
	s, err := f.solveSite(i, v, mu)
	if err != nil {
		if errors.Is(err, p3.ErrInfeasible) {
			return math.Inf(1), siteSolve{}, nil
		}
		return 0, siteSolve{}, err
	}
	return s.Value, s, nil
}

// greedySplit allocates lambda across the sites in λ/Chunks increments by
// greedy marginal cost — arithmetic identical to stepNaive, with the
// candidate table absorbing every redundant re-solve and the worker pool
// fanning the initial K evaluations.
func (f *Fleet) greedySplit(lambda, v float64) (splitPlan, error) {
	k := len(f.Sites)
	plan := splitPlan{
		split:    make([]float64, k),
		chunks:   make([]int, k),
		marginal: make([]float64, k),
		sols:     make([]siteSolve, k),
	}
	if lambda <= 0 {
		return plan, nil
	}
	chunk := lambda / Chunks
	cur := make([]float64, k) // current site values, accumulated like naive
	cand := make([]candidate, k)
	eval := func(i int) {
		c := &cand[i]
		*c = candidate{fresh: true}
		if plan.split[i]+chunk > f.caps[i] {
			return
		}
		c.capOK = true
		c.value, c.sol, c.err = f.evalSite(i, v, plan.split[i]+chunk)
		c.delta = c.value - cur[i]
	}

	// Initial candidates: every site's value at one chunk, fanned across
	// the worker pool. Each job writes only its own table slot, so the
	// result — and the lowest-index error below — is independent of
	// scheduling.
	workpool.Fan(f.workers, k, eval)
	for i := range cand {
		if !cand[i].capOK {
			continue
		}
		plan.p3Solves++
		if cand[i].err != nil {
			return plan, f.siteError(i, cand[i].err)
		}
	}

	for c := 0; c < Chunks; c++ {
		best := -1
		bestDelta := math.Inf(1)
		for i := 0; i < k; i++ {
			if !cand[i].capOK {
				continue
			}
			if cand[i].fresh {
				cand[i].fresh = false
			} else {
				plan.memoHits++ // the naive loop re-solves this site here
			}
			if cand[i].delta < bestDelta {
				best, bestDelta = i, cand[i].delta
			}
		}
		if best < 0 {
			return plan, errNoAbsorb
		}
		plan.split[best] += chunk
		cur[best] += bestDelta
		plan.chunks[best]++
		plan.marginal[best] = bestDelta
		// The winning candidate was solved at exactly the new split: keep
		// its solution so the charge pass never re-solves.
		plan.sols[best] = cand[best].sol
		if c+1 == Chunks {
			break // no next round: the naive loop stops evaluating too
		}
		// Only the winner's tentative load moved; every other cached
		// (value, Δ) pair is still exact. One fresh solve per round.
		eval(best)
		if cand[best].capOK {
			plan.p3Solves++
			if cand[best].err != nil {
				return plan, f.siteError(best, cand[best].err)
			}
		}
	}
	return plan, nil
}
