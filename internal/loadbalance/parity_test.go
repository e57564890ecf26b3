package loadbalance

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/numopt"
)

// This file pins the struct-of-arrays refactor against the layout it
// replaced: a reference solver that walks the cluster's Group structs
// directly (per-call accessor arithmetic, closure-based waterItems
// through the generic numopt.WaterFillInto path — no ClusterArrays, no
// BulkWaterSystem) and runs the identical regime analysis. For randomized
// problems over heterogeneous clusters the two must produce bit-for-bit
// identical load vectors, objectives and Ledger charges.

// refGroup is one on group's constants in the old (ad hoc, per-solve)
// layout, gathered from the Group accessors at solve time.
type refGroup struct {
	idx                 int
	n, rate, slope, cap float64
}

// refSolver is the old-layout reference: plain group structs + closures.
type refSolver struct {
	p      *dcmodel.SlotProblem
	speeds []int
	groups []refGroup
	baseKW float64
	capSum float64
}

func newRefSolver(p *dcmodel.SlotProblem, speeds []int) *refSolver {
	r := &refSolver{p: p, speeds: speeds}
	for g := range p.Cluster.Groups {
		grp := &p.Cluster.Groups[g]
		if speeds[g] == 0 {
			continue
		}
		rate := grp.RateAt(speeds[g])
		r.groups = append(r.groups, refGroup{
			idx:   g,
			n:     float64(grp.N),
			rate:  rate,
			slope: p.Cluster.PUE * grp.PowerSlopeKWPerRPS(speeds[g]),
			cap:   p.Cluster.Gamma * rate,
		})
	}
	for i := range r.groups {
		g := &p.Cluster.Groups[r.groups[i].idx]
		r.baseKW += p.Cluster.PUE * float64(g.N) * g.Type.StaticKW
		r.capSum += r.groups[i].cap
	}
	return r
}

// waterItem is one closure-described water-filling coordinate: capacity,
// marginal cost and its saturating inverse.
type waterItem struct {
	Cap   float64
	Deriv func(v float64) float64
	Alloc func(nu float64) float64
}

// waterItems adapts closure-described coordinates to numopt.WaterSystem
// through the generic per-item path.
type waterItems []waterItem

func (w waterItems) Items() int                      { return len(w) }
func (w waterItems) Cap(i int) float64               { return w[i].Cap }
func (w waterItems) Deriv(i int, v float64) float64  { return w[i].Deriv(v) }
func (w waterItems) Alloc(i int, nu float64) float64 { return w[i].Alloc(nu) }

// items builds the closure-based water-filling items for one electricity
// weight — the pre-SoA representation, one closure pair per group per fill.
func (r *refSolver) items(omega float64) waterItems {
	out := make(waterItems, len(r.groups))
	wd := r.p.Wd
	for i := range out {
		g := r.groups[i]
		out[i] = waterItem{
			Cap: g.cap,
			Deriv: func(v float64) float64 {
				den := g.rate - v
				if den <= 0 {
					return math.Inf(1)
				}
				return omega*g.slope + wd*g.n*g.rate/(den*den)
			},
			Alloc: func(nu float64) float64 {
				rem := nu - omega*g.slope
				if rem <= 0 {
					return 0
				}
				if wd <= 0 {
					return g.cap
				}
				l := g.rate - math.Sqrt(wd*g.n*g.rate/rem)
				return numopt.Clamp(l, 0, g.cap)
			},
		}
	}
	return out
}

func (r *refSolver) fill(omega float64) ([]float64, error) {
	if r.p.Wd <= 0 {
		// Degenerate linear case: fill caps in ascending ω·slope order,
		// the historical per-call sort.Slice of fillNoDelay.
		// sort.Slice, not a stable sort: with bit-equal slopes (same server
		// generation at the same level) the unstable permutation decides
		// which group absorbs the partial fill, and the historical solver —
		// and the orderCache reproducing it — used sort.Slice per call.
		order := make([]int, len(r.groups))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return omega*r.groups[order[a]].slope < omega*r.groups[order[b]].slope
		})
		loads := make([]float64, len(r.groups))
		remaining := r.p.LambdaRPS
		for _, i := range order {
			take := math.Min(remaining, r.groups[i].cap)
			loads[i] = take
			remaining -= take
			if remaining <= 0 {
				break
			}
		}
		return loads, nil
	}
	loads, err := numopt.WaterFillInto(r.items(omega), r.p.LambdaRPS, waterFillTol, nil)
	if err != nil {
		return nil, ErrInfeasible
	}
	return loads, nil
}

func (r *refSolver) powerOf(loads []float64) float64 {
	p := r.baseKW
	for i := range r.groups {
		p += r.groups[i].slope * loads[i]
	}
	return p
}

// solve runs the regime analysis of solveWith over the old layout.
func (r *refSolver) solve() (dcmodel.Solution, error) {
	if r.p.LambdaRPS > r.capSum*(1+1e-12) {
		return dcmodel.Solution{}, ErrInfeasible
	}
	var loads []float64
	if len(r.groups) == 0 {
		if r.p.LambdaRPS > 0 {
			return dcmodel.Solution{}, ErrInfeasible
		}
	} else {
		onsite := r.p.OnsiteKW
		grid, err := r.fill(r.p.We)
		if err != nil {
			return dcmodel.Solution{}, err
		}
		switch {
		case r.p.We == 0 || r.powerOf(grid) >= onsite-powerTol:
			loads = grid
		default:
			free, err := r.fill(0)
			if err != nil {
				return dcmodel.Solution{}, err
			}
			if r.powerOf(free) <= onsite+powerTol {
				loads = free
			} else {
				omega := numopt.BisectMonotone(func(w float64) float64 {
					l, ferr := r.fill(w)
					if ferr != nil {
						err = ferr
						return 0
					}
					return r.powerOf(l)
				}, onsite, 0, r.p.We, r.p.We*1e-12, 100)
				if err != nil {
					return dcmodel.Solution{}, err
				}
				if loads, err = r.fill(omega); err != nil {
					return dcmodel.Solution{}, err
				}
			}
		}
	}
	full := make([]float64, len(r.p.Cluster.Groups))
	for i := range r.groups {
		full[r.groups[i].idx] = loads[i]
	}
	sol := dcmodel.Solution{
		Speeds: append([]int(nil), r.speeds...),
		Load:   full,
	}
	sol.Value = r.p.Objective(sol.Speeds, sol.Load)
	return sol, nil
}

// TestSoAMatchesOldLayoutProperty is the randomized parity sweep: for
// random heterogeneous clusters, speed vectors, loads, weights and on-site
// supplies spanning all three regimes (grid, kink, surplus) plus the Wd=0
// degenerate case, the SoA Instance and the old-layout reference must agree
// bit-for-bit — on the load vector, the P3 objective and the resulting
// Ledger charge.
func TestSoAMatchesOldLayoutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	cases := 0
	for trial := 0; trial < 120; trial++ {
		groups := 1 + rng.Intn(24)
		cluster := dcmodel.HeterogeneousCluster(groups*(2+rng.Intn(30)), groups)
		speeds := make([]int, groups)
		for g := range speeds {
			speeds[g] = rng.Intn(cluster.Groups[g].Type.NumSpeeds() + 1)
		}
		var capRPS float64
		for g := range speeds {
			capRPS += cluster.Gamma * cluster.Groups[g].RateAt(speeds[g])
		}
		wd := []float64{0, 0.02, 1.7}[rng.Intn(3)]
		we := []float64{0, 0.05, 3.1}[rng.Intn(3)]
		p := &dcmodel.SlotProblem{
			Cluster:   cluster,
			LambdaRPS: capRPS * rng.Float64(),
			We:        we,
			Wd:        wd,
			// Spans sub-grid, mid (kink) and above-everything supplies.
			OnsiteKW: []float64{0, 1, 20, 1e6}[rng.Intn(4)] * rng.Float64(),
		}

		in, err := NewInstance(p, speeds)
		if err != nil {
			if err == ErrInfeasible {
				continue // λ jitter above capacity; nothing to compare
			}
			t.Fatalf("trial %d: NewInstance: %v", trial, err)
		}
		got, gotErr := in.Solve()
		want, wantErr := newRefSolver(p, speeds).solve()
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("trial %d: SoA err %v, reference err %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		cases++
		for g := range want.Load {
			if got.Load[g] != want.Load[g] {
				t.Fatalf("trial %d: group %d load %v (SoA) != %v (old layout)",
					trial, g, got.Load[g], want.Load[g])
			}
		}
		if got.Value != want.Value {
			t.Fatalf("trial %d: objective %v (SoA) != %v (old layout)", trial, got.Value, want.Value)
		}
		led := dcmodel.Ledger{
			PriceUSDPerKWh: 0.04 + 0.1*rng.Float64(),
			OnsiteKW:       p.OnsiteKW,
			Beta:           0.02,
			Alpha:          1,
			RECPerSlotKWh:  5,
		}
		chGot := led.Charge(cluster.FacilityPowerKW(got.Speeds, got.Load),
			cluster.DelayCost(got.Speeds, got.Load), 0)
		chWant := led.Charge(cluster.FacilityPowerKW(want.Speeds, want.Load),
			cluster.DelayCost(want.Speeds, want.Load), 0)
		if chGot != chWant {
			t.Fatalf("trial %d: ledger charge %+v (SoA) != %+v (old layout)", trial, chGot, chWant)
		}
	}
	if cases < 40 {
		t.Fatalf("only %d comparable cases out of 120 trials; generator drifted", cases)
	}
}
