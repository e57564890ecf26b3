// Package numopt is the handwritten numerical-optimization toolkit used by
// the COCA reproduction. Go has no mainstream numerical ecosystem, so the
// primitives the paper's algorithms rest on are implemented here from
// scratch on the standard library: scalar root finding (plain and
// saturating bisection, a bracketed safeguarded Newton method and the
// Illinois false-position method) and unimodal search over both continuous
// and integer domains. The load balancer's water-fill (package loadbalance)
// solves its dual price with NewtonBracket and its kink weight with
// FalsePosition.
package numopt

import (
	"errors"
	"math"
)

// ErrNoBracket is returned when a root finder is called on an interval whose
// endpoint values do not bracket the target.
var ErrNoBracket = errors.New("numopt: interval does not bracket a root")

// ErrInfeasible is returned by solvers whose constraints admit no solution.
var ErrInfeasible = errors.New("numopt: problem infeasible")

// Bisect finds x in [lo, hi] with f(x) ≈ 0 for a continuous f that changes
// sign over the interval, to within xtol on the argument. It runs at most
// maxIter iterations (64 is plenty for float64). If f(lo) and f(hi) have the
// same strict sign, ErrNoBracket is returned.
func Bisect(f func(float64) float64, lo, hi, xtol float64, maxIter int) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrNoBracket
	}
	for i := 0; i < maxIter && hi-lo > xtol; i++ {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (fhi > 0) {
			hi, fhi = mid, fm
		} else {
			lo, flo = mid, fm
		}
	}
	return lo + (hi-lo)/2, nil
}

// BisectMonotone finds x in [lo, hi] with g(x) ≈ target for a monotone
// (either direction) continuous g. If the target lies outside [g(lo), g(hi)],
// the nearer endpoint is returned; this saturating behavior is what the
// dual-variable searches in the load balancer need.
func BisectMonotone(g func(float64) float64, target, lo, hi, xtol float64, maxIter int) float64 {
	glo, ghi := g(lo), g(hi)
	increasing := ghi >= glo
	// Saturate outside the achievable range.
	if increasing {
		if target <= glo {
			return lo
		}
		if target >= ghi {
			return hi
		}
	} else {
		if target >= glo {
			return lo
		}
		if target <= ghi {
			return hi
		}
	}
	for i := 0; i < maxIter && hi-lo > xtol; i++ {
		mid := lo + (hi-lo)/2
		gm := g(mid)
		if gm == target {
			return mid
		}
		if (gm < target) == increasing {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// NewtonBracket finds x in [lo, hi] with g(x) ≈ target for a continuous
// non-decreasing g that the caller has bracketed: g(lo) ≤ target ≤ g(hi).
// The endpoints are never evaluated. fdf returns g(x) and a slope g'(x)
// (one-sided at kinks). Starting from x0, every evaluation shrinks the
// bracket by the sign of g(x) − target, then takes the Newton step
// x + (target − g)/g' when it lands strictly inside the bracket and at
// most halves the step before it, and bisects otherwise (a zero slope, a
// step out of the bracket, a stalled step). That is the safeguard of
// Numerical Recipes' rtsafe: the bracket at least halves every other
// evaluation, and near a smooth root the steps converge quadratically.
//
// It stops when |g(x) − target| ≤ ftol, when the bracket is no wider than
// xtol, or after maxIter evaluations, and returns the last point it
// evaluated. It always evaluates at least once, so a caller whose fdf
// leaves per-point work behind (the load balancer's per-group loads) can
// use that work for the returned point without evaluating it again.
func NewtonBracket(fdf func(x float64) (g, dg float64), target, lo, hi, x0, ftol, xtol float64, maxIter int) float64 {
	x := x0
	if !(x > lo && x < hi) { // also catches a NaN start
		x = lo + (hi-lo)/2
	}
	step, prev := hi-lo, hi-lo
	for i := 1; ; i++ {
		g, dg := fdf(x)
		r := g - target
		if math.Abs(r) <= ftol || i >= maxIter {
			return x
		}
		if r < 0 {
			lo = x
		} else {
			hi = x
		}
		if hi-lo <= xtol {
			return x
		}
		next := x - r/dg // ±Inf or NaN when dg == 0, caught below
		if !(next > lo && next < hi) || math.Abs(next-x) > prev/2 {
			next = lo + (hi-lo)/2
		}
		prev, step = step, math.Abs(next-x)
		x = next
	}
}

// FalsePosition finds x between a and b with g(x) ≈ target for a
// continuous monotone g (either direction), given the endpoint values
// ga = g(a) and gb = g(b), which callers usually already hold. It runs the
// Illinois variant of regula falsi: each step evaluates the secant point of
// the bracket and keeps the sub-bracket that still holds the target;
// when the same end survives twice in a row its value is halved, so the
// retained end cannot stall the convergence (superlinear, order ≈ 1.44).
// A plateau next to the root can still make the secant crawl, so when four
// steps have not halved the bracket the next step bisects it: the bracket
// at least halves every five evaluations whatever g looks like, while a
// well-behaved g never triggers the bisection.
//
// It stops when |g(x) − target| ≤ ftol, when the bracket is no wider than
// xtol, or after maxIter evaluations, and returns the last point it
// evaluated; as with NewtonBracket a caller may reuse that point's work.
// When ga and gb do not strictly straddle the target, no evaluation is
// made and the endpoint nearer to the target (by value) is returned.
func FalsePosition(g func(float64) float64, target, a, ga, b, gb, ftol, xtol float64, maxIter int) float64 {
	fa, fb := ga-target, gb-target
	if fa == 0 || fb == 0 || (fa > 0) == (fb > 0) {
		if math.Abs(fa) <= math.Abs(fb) {
			return a
		}
		return b
	}
	side := 0 // which end the last secant step kept: -1 a, +1 b
	// The bracket widths after the last four steps, a ring; +Inf until
	// four steps have run.
	widths := [4]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
	bisect := false
	for i := 1; ; i++ {
		x := a + (b-a)/2
		if !bisect {
			x = Clamp((a*fb-b*fa)/(fb-fa), math.Min(a, b), math.Max(a, b))
		}
		fx := g(x) - target
		if math.Abs(fx) <= ftol || i >= maxIter {
			return x
		}
		if (fx > 0) == (fb > 0) {
			b, fb = x, fx
			if side == -1 && !bisect {
				fa /= 2
			}
			side = -1
		} else {
			a, fa = x, fx
			if side == +1 && !bisect {
				fb /= 2
			}
			side = +1
		}
		width := math.Abs(b - a)
		if width <= xtol {
			return x
		}
		slot := i % len(widths)
		bisect = width > widths[slot]/2
		widths[slot] = width
	}
}

// GoldenSection minimizes a unimodal continuous f over [lo, hi] to within
// xtol and returns the minimizing argument and value.
func GoldenSection(f func(float64) float64, lo, hi, xtol float64) (x, fx float64) {
	const invPhi = 0.6180339887498949 // (√5 − 1) / 2
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > xtol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = a + (b-a)/2
	return x, f(x)
}

// MinimizeInt minimizes f over the integers [lo, hi]. It assumes f is
// unimodal (non-strictly) and uses ternary search narrowed to a final local
// sweep of width sweep, which protects against small plateaus and mild
// non-unimodality near the optimum (e.g. the [·]^+ kink in the COCA
// objective). It returns the best argument and value. It panics if lo > hi.
func MinimizeInt(f func(int) float64, lo, hi, sweep int) (int, float64) {
	if lo > hi {
		panic("numopt: MinimizeInt requires lo <= hi")
	}
	if sweep < 1 {
		sweep = 1
	}
	a, b := lo, hi
	for b-a > 2*sweep {
		m1 := a + (b-a)/3
		m2 := b - (b-a)/3
		if f(m1) <= f(m2) {
			b = m2 - 1
		} else {
			a = m1 + 1
		}
	}
	// Final exhaustive sweep over the remaining window, padded by sweep on
	// both sides to absorb ternary-search error under weak unimodality.
	start, end := a-sweep, b+sweep
	if start < lo {
		start = lo
	}
	if end > hi {
		end = hi
	}
	bestX, bestF := start, f(start)
	for x := start + 1; x <= end; x++ {
		if v := f(x); v < bestF {
			bestX, bestF = x, v
		}
	}
	return bestX, bestF
}

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
