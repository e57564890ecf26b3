package numopt

// The closure-based water-filling form: a test-side reference over
// WaterFillInto, one closure pair per coordinate. Production callers
// implement WaterSystem over flat arrays instead.

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
