package numopt

import "math"

// The generic bisection water-fill: the reference the load balancer's
// bracketed Newton fill replaced. It solves the same separable program
// through an interface (WaterFillInto) or closures (WaterFill), with
// bisection on the dual price, and lives here so the water-filling
// properties stay tested against a plain, slow implementation.

// WaterSystem is the closure-free description of the separable convex
// program WaterFillInto solves: coordinate i has capacity Cap(i), marginal
// cost Deriv(i, v) that is continuous and strictly increasing on [0, Cap(i)),
// and inverse marginal Alloc(i, nu) extended by saturation.
type WaterSystem interface {
	// Items returns the number of coordinates.
	Items() int
	// Cap returns the upper bound on coordinate i.
	Cap(i int) float64
	// Deriv returns the marginal cost of coordinate i at allocation v.
	Deriv(i int, v float64) float64
	// Alloc returns the allocation at which coordinate i's marginal cost
	// equals price nu, clamped to [0, Cap(i)].
	Alloc(i int, nu float64) float64
}

// WaterFillInto solves
//
//	min Σ_i cost_i(λ_i)   s.t.  Σ_i λ_i = total,  0 ≤ λ_i ≤ Cap(i)
//
// for the separable convex costs sys describes, via bisection on the dual
// price ν (the classic water-filling / KKT structure: λ_i(ν) = Alloc(i, ν)).
// It writes the allocation into out (grown when its capacity is short) and
// returns it, or ErrInfeasible when total exceeds Σ Cap(i) or total < 0.
// With a sufficiently large out it performs no allocation beyond what sys
// itself does.
func WaterFillInto(sys WaterSystem, total, tol float64, out []float64) ([]float64, error) {
	if total < 0 {
		return nil, ErrInfeasible
	}
	n := sys.Items()
	var capSum float64
	for i := 0; i < n; i++ {
		capSum += sys.Cap(i)
	}
	if total > capSum*(1+1e-12)+tol {
		return nil, ErrInfeasible
	}
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	if total == 0 {
		for i := range out {
			out[i] = 0
		}
		return out, nil
	}
	if total >= capSum {
		for i := 0; i < n; i++ {
			out[i] = sys.Cap(i)
		}
		return out, nil
	}
	sumAt := func(nu float64) float64 {
		var s float64
		for i := 0; i < n; i++ {
			s += sys.Alloc(i, nu)
		}
		return s
	}
	// Bracket ν: start from the largest Deriv(0) and expand geometrically
	// until the aggregate allocation covers total.
	nuLo, nuHi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		d0 := sys.Deriv(i, 0)
		if d0 < nuLo {
			nuLo = d0
		}
		if d0 > nuHi {
			nuHi = d0
		}
	}
	if nuHi <= nuLo {
		nuHi = nuLo + 1
	}
	for iter := 0; sumAt(nuHi) < total && iter < 200; iter++ {
		nuHi = nuLo + 2*(nuHi-nuLo)
	}
	nu := BisectMonotone(sumAt, total, nuLo, nuHi, (nuHi-nuLo)*1e-13, 120)
	var got float64
	for i := 0; i < n; i++ {
		out[i] = sys.Alloc(i, nu)
		got += out[i]
	}
	// Repair the residual mismatch caused by finite bisection: spread it
	// across coordinates with slack, preserving bounds.
	resid := total - got
	for pass := 0; pass < 4 && math.Abs(resid) > tol; pass++ {
		for i := 0; i < n; i++ {
			if resid > 0 {
				room := sys.Cap(i) - out[i]
				d := math.Min(room, resid)
				out[i] += d
				resid -= d
			} else {
				d := math.Min(out[i], -resid)
				out[i] -= d
				resid += d
			}
			if math.Abs(resid) <= tol {
				break
			}
		}
	}
	return out, nil
}

// WaterFillItem describes one coordinate of the separable convex program
// solved by WaterFill: each coordinate i contributes a convex cost with
// derivative Deriv(λ_i) that is continuous and strictly increasing on
// [0, Cap_i), and λ_i is constrained to [0, Cap_i].
type WaterFillItem struct {
	// Cap is the upper bound on this coordinate (exclusive domain limit for
	// the derivative; the allocation itself may equal Cap).
	Cap float64
	// Deriv returns the marginal cost at allocation v in [0, Cap].
	Deriv func(v float64) float64
	// Alloc returns the allocation at which the marginal cost equals price
	// nu, clamped to [0, Cap]. It is the inverse of Deriv extended by
	// saturation, i.e. Alloc(nu)=0 when nu <= Deriv(0) and Alloc(nu)=Cap when
	// nu >= Deriv(Cap).
	Alloc func(nu float64) float64
}

// waterItems adapts the closure-based []WaterFillItem form to WaterSystem.
type waterItems []WaterFillItem

func (w waterItems) Items() int                      { return len(w) }
func (w waterItems) Cap(i int) float64               { return w[i].Cap }
func (w waterItems) Deriv(i int, v float64) float64  { return w[i].Deriv(v) }
func (w waterItems) Alloc(i int, nu float64) float64 { return w[i].Alloc(nu) }

// WaterFill is WaterFillInto over closure-described items.
func WaterFill(items []WaterFillItem, total, tol float64) ([]float64, error) {
	return WaterFillInto(waterItems(items), total, tol, nil)
}
