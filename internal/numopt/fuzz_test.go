package numopt

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// FuzzMinimizeInt checks that on arbitrary convex quadratics the integer
// minimizer never returns a value worse than both endpoints and the true
// vertex (the safety property the COCA fast path relies on).
func FuzzMinimizeInt(f *testing.F) {
	f.Add(3.0, 50.0, 0, 200)
	f.Add(0.001, -10.0, 5, 10)
	f.Add(100.0, 0.0, 0, 1)
	f.Fuzz(func(t *testing.T, a, c float64, lo, hi int) {
		if math.IsNaN(a) || math.IsNaN(c) || math.IsInf(a, 0) || math.IsInf(c, 0) {
			return
		}
		a = math.Abs(math.Mod(a, 1e6)) + 1e-9 // positive curvature → convex
		c = math.Mod(c, 1e6)
		lo = lo % 1000
		hi = hi % 1000
		if lo < 0 {
			lo = -lo
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		if hi < 0 {
			return
		}
		obj := func(x int) float64 {
			d := float64(x) - c
			return a * d * d
		}
		gotX, gotF := MinimizeInt(obj, lo, hi, 3)
		if gotX < lo || gotX > hi {
			t.Fatalf("argmin %d outside [%d,%d]", gotX, lo, hi)
		}
		// The true integer optimum is at the clamped rounded vertex.
		v := int(math.Round(c))
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		if want := obj(v); gotF > want*(1+1e-9)+1e-9 {
			t.Fatalf("MinimizeInt %v at %d, vertex gives %v at %d", gotF, gotX, want, v)
		}
	})
}

// FuzzBisectMonotone checks the saturating root finder on arbitrary affine
// functions: the result must always lie in [lo, hi] and, when the target
// is reachable, solve it within tolerance.
func FuzzBisectMonotone(f *testing.F) {
	f.Add(2.0, 1.0, 7.0, 0.0, 10.0)
	f.Add(-3.0, 0.0, -5.0, -2.0, 4.0)
	f.Fuzz(func(t *testing.T, slope, icept, target, lo, hi float64) {
		for _, v := range []float64{slope, icept, target, lo, hi} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return
			}
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		if hi-lo < 1e-9 {
			return
		}
		g := func(x float64) float64 { return slope*x + icept }
		x := BisectMonotone(g, target, lo, hi, (hi-lo)*1e-12, 200)
		if x < lo-1e-12 || x > hi+1e-12 {
			t.Fatalf("result %v outside [%v,%v]", x, lo, hi)
		}
		gl, gh := g(lo), g(hi)
		mn, mx := math.Min(gl, gh), math.Max(gl, gh)
		if target >= mn && target <= mx && math.Abs(slope) > 1e-9 {
			if math.Abs(g(x)-target) > 1e-6*(1+math.Abs(target))+math.Abs(slope)*(hi-lo)*1e-9 {
				t.Fatalf("g(%v) = %v, target %v", x, g(x), target)
			}
		}
	})
}

// piecewise is a continuous non-decreasing function on [0, 1] built from
// fuzz input: up to eight segments, each rising by a random amount (zero
// for flat stretches) along a linear, convex (t²) or concave (√t) shape,
// so the root finders meet kinks, plateaus and unbounded slopes.
type piecewise struct {
	knots  []float64 // segment starts, ascending, knots[0] = 0
	values []float64 // g at each knot, plus g(1) last
	shapes []int
}

func newPiecewise(seed int64, segments int) piecewise {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + segments%8
	pw := piecewise{knots: make([]float64, n), values: make([]float64, n+1), shapes: make([]int, n)}
	for i := 1; i < n; i++ {
		pw.knots[i] = rng.Float64()
	}
	sort.Float64s(pw.knots)
	pw.values[0] = rng.NormFloat64() * 10
	for i := 0; i < n; i++ {
		rise := rng.ExpFloat64()
		if rng.Intn(4) == 0 {
			rise = 0
		}
		pw.values[i+1] = pw.values[i] + rise
		pw.shapes[i] = rng.Intn(3)
	}
	return pw
}

// eval returns g(x) and its right derivative.
func (pw piecewise) eval(x float64) (float64, float64) {
	x = Clamp(x, 0, 1)
	i := sort.SearchFloat64s(pw.knots, x)
	if i == len(pw.knots) || pw.knots[i] > x {
		i--
	}
	end := 1.0
	if i+1 < len(pw.knots) {
		end = pw.knots[i+1]
	}
	w := end - pw.knots[i]
	rise := pw.values[i+1] - pw.values[i]
	if w <= 0 {
		return pw.values[i+1], 0
	}
	t := (x - pw.knots[i]) / w
	var phi, dphi float64
	switch pw.shapes[i] {
	case 0:
		phi, dphi = t, 1
	case 1:
		phi, dphi = t*t, 2*t
	default:
		phi, dphi = math.Sqrt(t), 0.5/math.Sqrt(t)
	}
	return pw.values[i] + rise*phi, rise * dphi / w
}

// rootNear reports whether g − target changes sign (or vanishes) within
// xtol of x, i.e. whether x is within xtol of a root.
func rootNear(g func(float64) float64, target, x, xtol float64) bool {
	a, b := g(Clamp(x-xtol, 0, 1))-target, g(Clamp(x+xtol, 0, 1))-target
	return a == 0 || b == 0 || (a > 0) != (b > 0)
}

// fuzzTarget maps a fuzz fraction onto the function's range.
func fuzzTarget(pw piecewise, frac float64) (float64, bool) {
	if math.IsNaN(frac) || math.IsInf(frac, 0) {
		return 0, false
	}
	frac = math.Abs(math.Mod(frac, 1))
	lo, hi := pw.values[0], pw.values[len(pw.values)-1]
	return lo + frac*(hi-lo), true
}

// The fuzz tolerances, and an evaluation budget that always suffices: the
// bracket at least halves every five evaluations and 1e-12 is about 2^-40.
const (
	fuzzFtol, fuzzXtol = 1e-9, 1e-12
	fuzzBudget         = 400
)

// checkRoot runs one root finder call through find, which reports the
// result and its evaluation count, and checks the contract: the result
// stays in [0, 1], at most maxIter evaluations run, and an early stop
// means convergence — g within ftol of the target or a root within xtol.
func checkRoot(t *testing.T, name string, g func(float64) float64, target float64, maxIter int,
	find func(maxIter int) (float64, int)) {
	t.Helper()
	x, evals := find(maxIter)
	if x < 0 || x > 1 {
		t.Fatalf("%s = %v outside [0, 1]", name, x)
	}
	if evals > maxIter {
		t.Fatalf("%s: %d evaluations for maxIter %d", name, evals, maxIter)
	}
	converged := math.Abs(g(x)-target) <= fuzzFtol || rootNear(g, target, x, 2*fuzzXtol)
	if evals < maxIter && !converged {
		t.Fatalf("%s = %v stopped after %d of %d evaluations: g = %v, target %v, and no root within xtol",
			name, x, evals, maxIter, g(x), target)
	}
	if maxIter < fuzzBudget {
		checkRoot(t, name, g, target, fuzzBudget, find)
	} else if !converged {
		t.Fatalf("%s = %v: g = %v, target %v after %d evaluations", name, x, g(x), target, evals)
	}
}

// FuzzNewtonBracket checks the safeguarded Newton root finder on random
// monotone piecewise functions bracketing the target: the result stays in
// the bracket, it never evaluates more than maxIter times, it stops early
// only once converged, and it converges within fuzzBudget evaluations.
func FuzzNewtonBracket(f *testing.F) {
	f.Add(int64(1), 3, 0.5, 0.3, 200)
	f.Add(int64(7), 0, 0.01, 0.99, 5)
	f.Add(int64(42), 7, 0.999, -1.0, 1)
	f.Fuzz(func(t *testing.T, seed int64, segments int, frac, x0 float64, maxIter int) {
		if segments < 0 {
			segments = -segments
		}
		pw := newPiecewise(seed, segments)
		target, ok := fuzzTarget(pw, frac)
		if !ok {
			return
		}
		g := func(x float64) float64 { v, _ := pw.eval(x); return v }
		checkRoot(t, "NewtonBracket", g, target, 1+(maxIter%300+300)%300, func(maxIter int) (float64, int) {
			evals := 0
			x := NewtonBracket(func(x float64) (float64, float64) {
				evals++
				if x < 0 || x > 1 {
					t.Fatalf("evaluated %v outside the bracket [0, 1]", x)
				}
				return pw.eval(x)
			}, target, 0, 1, x0, fuzzFtol, fuzzXtol, maxIter)
			return x, evals
		})
	})
}

// FuzzFalsePosition checks the Illinois root finder the same way, on
// increasing and decreasing functions whose endpoint values are handed in.
func FuzzFalsePosition(f *testing.F) {
	f.Add(int64(1), 3, 0.5, false, 200)
	f.Add(int64(9), 5, 0.001, true, 3)
	f.Add(int64(123), 1, 0.75, true, 1)
	// A plateau just below the target ending in a √-steep rise: plain
	// Illinois crawls along it for hundreds of steps.
	f.Add(int64(-203), 73, 1.388888888888889e-07, false, -96)
	f.Fuzz(func(t *testing.T, seed int64, segments int, frac float64, decreasing bool, maxIter int) {
		if segments < 0 {
			segments = -segments
		}
		pw := newPiecewise(seed, segments)
		target, ok := fuzzTarget(pw, frac)
		if !ok {
			return
		}
		sign := 1.0
		if decreasing {
			sign, target = -1, -target
		}
		g := func(x float64) float64 { v, _ := pw.eval(x); return sign * v }
		checkRoot(t, "FalsePosition", g, target, 1+(maxIter%300+300)%300, func(maxIter int) (float64, int) {
			evals := 0
			x := FalsePosition(func(x float64) float64 {
				evals++
				if x < 0 || x > 1 {
					t.Fatalf("evaluated %v outside the bracket [0, 1]", x)
				}
				return g(x)
			}, target, 0, g(0), 1, g(1), fuzzFtol, fuzzXtol, maxIter)
			return x, evals
		})
	})
}
