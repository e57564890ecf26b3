// Package loadbalance solves the optimal load-distribution subproblem of
// COCA: given a fixed speed vector (GSD Algorithm 2 line 3, Eq. (18)),
// distribute the total arrival rate λ(t) across server groups to minimize
//
//	We·[p(λ,x) − r]^+ + Wd·d(λ,x)
//	s.t. Σ_g L_g = λ,  0 ≤ L_g ≤ γ·n_g·x_g,
//
// where group power is affine in load and the M/G/1/PS delay cost is convex.
// The [·]^+ kink makes the objective piecewise convex; we solve it by regime
// analysis — water-fill with the full electricity weight (grid regime), with
// zero weight (renewable-surplus regime), and, when the two disagree, search
// the effective weight ω ∈ [0, We] by Illinois false position, bracketed by
// those two fills, to pin total power exactly at the on-site supply r(t)
// (the kink).
//
// Each water-fill solves Σ_g L_g(ν) = λ for the dual price ν with a
// bracketed Newton method (numopt.NewtonBracket). A group's load at price ν
// has the closed form L = R − sqrt(Wd·n·R/(ν − ω·A)), clamped to [0, γ·R],
// and its slope dL/dν comes from the same square root, so one O(n) sweep
// yields both Σ L_g and its derivative. The bracket is exact — from the
// price at which the first group starts to take load to the price at which
// the last one is full — and the start is the closed-form price at which
// every group would be interior. A fill takes about 6–7 sweeps (one bracket
// pass plus the Newton evaluations) and a kink split about 8–9 fills, the
// grid and surplus probes included.
//
// Two solvers are provided: Solve, a single-coordinator KKT water-filling
// solver, and SolveDistributed, a dual-decomposition implementation in which
// every server group answers price signals autonomously (the distributed
// solution the paper points to via refs [5] and [27]).
//
// An Instance is mutable: SetSpeed applies a single-group speed change and
// Revert undoes it, so an iterative caller (the GSD engine proposes one
// coordinate change per Gibbs iteration) keeps one persistent Instance and
// pays a delta update plus an allocation-free SolveInto per proposal instead
// of rebuilding the subproblem 200·n times per slot.
//
// The per-group constants live in a struct-of-arrays layout (parallel
// gIdx/gN/gRate/gSlope/gCap slices over the on groups, backed by the
// cluster's cached dcmodel.ClusterArrays): the water-fill and sweep inner
// loops walk flat float64 arrays instead of pointer-chasing group structs,
// which keeps them cache-linear at fleet scale (10k+ groups per site).
package loadbalance

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dcmodel"
	"repro/internal/numopt"
)

// ErrInfeasible is returned when λ exceeds the γ-discounted capacity of the
// given speed configuration.
var ErrInfeasible = errors.New("loadbalance: load exceeds configuration capacity")

// group is one on-group's precomputed constants gathered back into a struct —
// the undo snapshot unit for SetSpeed/Revert. The live state is the
// Instance's parallel slices; entry/setEntry convert between the two views.
type group struct {
	idx     int     // index into the cluster's group list
	n       float64 // number of servers
	rate    float64 // R = n·x: aggregate service rate
	slopeKW float64 // A = PUE·p_c(x)/x: marginal facility power per RPS
	cap     float64 // γ·R: maximum allowed load
}

// makeGroup builds the prepared constants for cluster group g at speed k > 0
// from the cluster's flat arrays, with exactly the arithmetic NewInstance has
// always used (the arrays store RateAt/PowerSlopeKWPerRPS values verbatim).
func (in *Instance) makeGroup(g, k int) group {
	r := in.arr.Rate(g, k)
	return group{
		idx:     g,
		n:       in.arr.N[g],
		rate:    r,
		slopeKW: in.prob.Cluster.PUE * in.arr.Slope(g, k),
		cap:     in.prob.Cluster.Gamma * r,
	}
}

// undoKind describes the structural effect of the last SetSpeed.
type undoKind int

const (
	undoNone   undoKind = iota // speed unchanged, nothing to restore
	undoModify                 // on→on: one entry rewritten in place
	undoRemove                 // on→off: one entry removed
	undoInsert                 // off→on: one entry inserted
)

// undoRecord snapshots what a single SetSpeed changed so Revert can restore
// the instance bit-for-bit. The sums are restored from the snapshot rather
// than recomputed: they were fresh ordered sums before the mutation, so
// restoring them reproduces the exact pre-mutation bits.
type undoRecord struct {
	valid   bool
	kind    undoKind
	g       int   // cluster group the mutation touched
	oldK    int   // its previous speed index
	pos     int   // position in the on-group slices the mutation touched
	entry   group // the displaced entry (modify/remove)
	baseKW  float64
	capSum  float64
	rateSum float64
}

// orderCache memoizes the fillNoDelay group ordering. The sort key is
// ω·slope, and ω only enters as a non-negative scale factor: for every ω > 0
// the comparisons reduce to the slopes themselves, and for ω = 0 every key
// collapses to zero and the (deliberately unstable) sort.Slice outcome is a
// fixed permutation of the identity. So one order per sign class, recomputed
// only when the speed configuration changes, reproduces the per-call sorts
// bit-for-bit whenever slopes are exactly equal or well separated — which
// holds for every cluster in this repository (homogeneous groups share one
// slope; heterogeneous generations differ by ≫ 1 ulp).
type orderCache struct {
	valid bool
	pos   []int // order for ω > 0 (ascending slope)
	zero  []int // order for ω = 0 (all keys equal)
}

func (c *orderCache) get(in *Instance, omega float64) []int {
	if !c.valid {
		c.pos = sortedOrder(c.pos, in, 1)
		c.zero = sortedOrder(c.zero, in, 0)
		c.valid = true
	}
	if omega == 0 {
		return c.zero
	}
	return c.pos
}

// sortedOrder reproduces fillNoDelay's historical per-call sort for a
// representative omega of the sign class.
func sortedOrder(buf []int, in *Instance, omega float64) []int {
	n := len(in.gIdx)
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = i
	}
	sort.Slice(buf, func(a, b int) bool {
		return omega*in.gSlope[buf[a]] < omega*in.gSlope[buf[b]]
	})
	return buf
}

// solveScratch holds the reusable buffers of the regime analysis: the grid
// and surplus fills and the fill of the kink search's latest weight.
type solveScratch struct {
	grid []float64
	free []float64
	kink []float64
}

// Instance is a prepared subproblem for one (problem, speeds) pair. Prepare
// once, then Solve; preparation separates validation from the hot path so
// GSD can re-solve thousands of proposals cheaply. SetSpeed/Revert/Commit
// mutate the prepared state incrementally, and SolveInto reuses both the
// caller's Solution buffers and the instance's internal scratch, so the
// steady-state proposal loop performs no heap allocation.
type Instance struct {
	prob   *dcmodel.SlotProblem
	arr    *dcmodel.ClusterArrays
	speeds []int // owned copy of the current speed vector

	// On groups in struct-of-arrays layout, ascending cluster index. The
	// five slices are parallel: position i describes one on group.
	gIdx   []int     // cluster group index
	gN     []float64 // float64(n_g)
	gRate  []float64 // R = n·x
	gSlope []float64 // A = PUE·p_c(x)/x
	gCap   []float64 // γ·R

	pos    []int     // cluster group index -> position in the slices, -1 when off
	static []float64 // per cluster group: PUE·n·StaticKW, speed-independent

	// Tracked aggregates. Each is recomputed as a fresh ordered sum over the
	// on groups after every structural change (never updated by +=delta):
	// floating-point addition is order-sensitive, and accumulated delta
	// drift in the last ulps would break the golden bit-for-bit parity the
	// repository pins against a from-scratch NewInstance build.
	baseKW  float64 // PUE · Σ static power of on groups (load-independent)
	capSum  float64 // Σ γ·R of on groups (the feasibility bound NewInstance checks)
	rateSum float64 // Σ R of on groups (Cluster.UsableCapacityRPS before the γ factor)

	undo    undoRecord
	order   orderCache
	scratch solveScratch

	// Work counters (see Work): plain integers, never reset.
	fills, sweeps int
}

// NewInstance validates and prepares the subproblem. It returns
// ErrInfeasible when the speed vector cannot carry the problem's λ.
// The speed vector is copied; mutate the instance through SetSpeed.
func NewInstance(p *dcmodel.SlotProblem, speeds []int) (*Instance, error) {
	in := &Instance{}
	if err := in.Reset(p, speeds); err != nil {
		return nil, err
	}
	return in, nil
}

// Reset re-prepares the instance for a new (problem, speeds) pair, reusing
// every internal buffer. The resulting state is bit-for-bit identical to a
// fresh NewInstance build: the on-group slices are rebuilt in the same
// ascending order with the same arithmetic, and the tracked sums come from
// the same recompute. On error the instance is left invalid; it must be
// Reset successfully before further use.
func (in *Instance) Reset(p *dcmodel.SlotProblem, speeds []int) error {
	if len(speeds) != len(p.Cluster.Groups) {
		return fmt.Errorf("loadbalance: %d speeds for %d groups",
			len(speeds), len(p.Cluster.Groups))
	}
	n := len(p.Cluster.Groups)
	in.prob = p
	in.arr = p.Cluster.Arrays()
	in.speeds = append(in.speeds[:0], speeds...)
	if cap(in.pos) < n {
		in.pos = make([]int, 0, n)
		in.static = make([]float64, 0, n)
	}
	in.pos = in.pos[:n]
	in.static = in.static[:n]
	if cap(in.gIdx) < n {
		in.gIdx = make([]int, 0, n)
		in.gN = make([]float64, 0, n)
		in.gRate = make([]float64, 0, n)
		in.gSlope = make([]float64, 0, n)
		in.gCap = make([]float64, 0, n)
	} else {
		in.gIdx, in.gN, in.gRate, in.gSlope, in.gCap =
			in.gIdx[:0], in.gN[:0], in.gRate[:0], in.gSlope[:0], in.gCap[:0]
	}
	in.undo.valid = false
	for g := range p.Cluster.Groups {
		k := speeds[g]
		if k < 0 || k > in.arr.NumSpeeds[g] {
			return fmt.Errorf("loadbalance: group %d speed index %d out of range", g, k)
		}
		in.static[g] = p.Cluster.PUE * in.arr.N[g] * in.arr.StaticKW[g]
		in.pos[g] = -1
		if k == 0 {
			continue
		}
		in.pos[g] = len(in.gIdx)
		in.appendEntry(in.makeGroup(g, k))
	}
	in.recompute()
	if p.LambdaRPS > in.capSum*(1+1e-12) {
		return ErrInfeasible
	}
	return nil
}

// appendEntry pushes one on group onto the end of the parallel slices.
func (in *Instance) appendEntry(e group) {
	in.gIdx = append(in.gIdx, e.idx)
	in.gN = append(in.gN, e.n)
	in.gRate = append(in.gRate, e.rate)
	in.gSlope = append(in.gSlope, e.slopeKW)
	in.gCap = append(in.gCap, e.cap)
}

// entry gathers position p of the parallel slices back into a struct.
func (in *Instance) entry(p int) group {
	return group{
		idx: in.gIdx[p], n: in.gN[p], rate: in.gRate[p],
		slopeKW: in.gSlope[p], cap: in.gCap[p],
	}
}

// setEntry scatters e into position p of the parallel slices.
func (in *Instance) setEntry(p int, e group) {
	in.gIdx[p], in.gN[p], in.gRate[p], in.gSlope[p], in.gCap[p] =
		e.idx, e.n, e.rate, e.slopeKW, e.cap
}

// recompute refreshes the tracked aggregates as fresh sums over the on
// groups in ascending cluster order — the exact accumulation order of a
// from-scratch NewInstance (off groups contribute an exact +0 there, which
// is an identity), so the values are bit-for-bit reproducible.
func (in *Instance) recompute() {
	var base, caps, rates float64
	for i := range in.gIdx {
		base += in.static[in.gIdx[i]]
		caps += in.gCap[i]
		rates += in.gRate[i]
	}
	in.baseKW, in.capSum, in.rateSum = base, caps, rates
	in.order.valid = false
}

// Work reports the load-split work the instance has done since it was
// created: fills counts water-fills (one per electricity weight a solve
// tries) and sweeps counts O(n) passes that evaluate every group's
// allocation — a fill's bracket pass plus one per Newton evaluation. The
// counters are never reset, Reset included; take differences around the
// work of interest.
func (in *Instance) Work() (fills, sweeps int) { return in.fills, in.sweeps }

// Speeds returns the instance's current speed vector. The slice is the
// instance's own state: treat it as read-only.
func (in *Instance) Speeds() []int { return in.speeds }

// Feasible reports whether the current speed configuration can carry the
// problem's load under the γ cap. It is the O(1) equivalent of
// SlotProblem.Feasible on the instance's speeds: rateSum is maintained in
// UsableCapacityRPS's exact accumulation order, so the comparison is
// bit-for-bit the same.
func (in *Instance) Feasible() bool {
	return in.prob.LambdaRPS <= in.rateSum*in.prob.Cluster.Gamma*(1+1e-12)
}

// SetSpeed retargets cluster group g to speed index k, updating the prepared
// subproblem in place, and snapshots the previous state so Revert can undo
// it. On groups stay ordered by cluster index, exactly as NewInstance builds
// them. A no-op change (k equal to the current speed) still records an
// (empty) undo snapshot.
func (in *Instance) SetSpeed(g, k int) error {
	if g < 0 || g >= len(in.pos) {
		return fmt.Errorf("loadbalance: group %d out of range", g)
	}
	if k < 0 || k > in.arr.NumSpeeds[g] {
		return fmt.Errorf("loadbalance: group %d speed index %d out of range", g, k)
	}
	old := in.speeds[g]
	in.undo = undoRecord{
		valid: true, kind: undoNone, g: g, oldK: old,
		baseKW: in.baseKW, capSum: in.capSum, rateSum: in.rateSum,
	}
	if k == old {
		return nil
	}
	in.speeds[g] = k
	switch {
	case old > 0 && k > 0:
		p := in.pos[g]
		in.undo.kind, in.undo.pos, in.undo.entry = undoModify, p, in.entry(p)
		in.setEntry(p, in.makeGroup(g, k))
	case old > 0: // k == 0: drop the entry
		p := in.pos[g]
		in.undo.kind, in.undo.pos, in.undo.entry = undoRemove, p, in.entry(p)
		in.removeAt(p)
	default: // old == 0, k > 0: insert in cluster-index order
		p := in.insertPos(g)
		in.undo.kind, in.undo.pos = undoInsert, p
		in.insertAt(p, in.makeGroup(g, k))
	}
	in.recompute()
	return nil
}

// Revert undoes the most recent SetSpeed since the last Revert or Commit,
// restoring the instance bit-for-bit (the tracked sums come back from the
// snapshot, not a recomputation). It is a no-op when nothing is pending.
func (in *Instance) Revert() {
	if !in.undo.valid {
		return
	}
	u := in.undo
	in.undo.valid = false
	in.speeds[u.g] = u.oldK
	switch u.kind {
	case undoNone:
		return // sums and slices untouched; order cache still valid
	case undoModify:
		in.setEntry(u.pos, u.entry)
	case undoRemove:
		in.insertAt(u.pos, u.entry)
	case undoInsert:
		in.removeAt(u.pos)
	}
	in.baseKW, in.capSum, in.rateSum = u.baseKW, u.capSum, u.rateSum
	in.order.valid = false
}

// Commit accepts the most recent SetSpeed, discarding its undo snapshot.
func (in *Instance) Commit() { in.undo.valid = false }

// insertPos returns the position in the on-group slices where cluster group
// g belongs (on groups are kept sorted by cluster index).
func (in *Instance) insertPos(g int) int {
	lo, hi := 0, len(in.gIdx)
	for lo < hi {
		mid := (lo + hi) / 2
		if in.gIdx[mid] < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (in *Instance) insertAt(p int, e group) {
	in.appendEntry(group{})
	copy(in.gIdx[p+1:], in.gIdx[p:])
	copy(in.gN[p+1:], in.gN[p:])
	copy(in.gRate[p+1:], in.gRate[p:])
	copy(in.gSlope[p+1:], in.gSlope[p:])
	copy(in.gCap[p+1:], in.gCap[p:])
	in.setEntry(p, e)
	for i := p; i < len(in.gIdx); i++ {
		in.pos[in.gIdx[i]] = i
	}
}

func (in *Instance) removeAt(p int) {
	g := in.gIdx[p]
	copy(in.gIdx[p:], in.gIdx[p+1:])
	copy(in.gN[p:], in.gN[p+1:])
	copy(in.gRate[p:], in.gRate[p+1:])
	copy(in.gSlope[p:], in.gSlope[p+1:])
	copy(in.gCap[p:], in.gCap[p+1:])
	n := len(in.gIdx) - 1
	in.gIdx, in.gN, in.gRate, in.gSlope, in.gCap =
		in.gIdx[:n], in.gN[:n], in.gRate[:n], in.gSlope[:n], in.gCap[:n]
	in.pos[g] = -1
	for i := p; i < n; i++ {
		in.pos[in.gIdx[i]] = i
	}
}

// marginal returns d(cost)/dL for on group i (slice position) at load v
// under electricity weight omega.
func (in *Instance) marginal(i int, omega, v float64) float64 {
	den := in.gRate[i] - v
	if den <= 0 {
		return math.Inf(1)
	}
	return omega*in.gSlope[i] + in.prob.Wd*in.gN[i]*in.gRate[i]/(den*den)
}

// allocSlope returns the load at which on group i's marginal cost equals
// price nu under electricity weight omega, clamped to [0, cap], and the
// load's derivative in nu (0 when clamped). It is the per-group reply of a
// water-fill sweep; Wd > 0 is the caller's precondition.
func (in *Instance) allocSlope(i int, omega, nu float64) (load, slope float64) {
	rem := nu - omega*in.gSlope[i]
	if rem <= 0 {
		return 0, 0
	}
	// Wd·n·R/(R−L)² = rem  →  L = R − q with q = sqrt(Wd·n·R/rem), and
	// dL/dν = q/(2·rem).
	q := math.Sqrt(in.prob.Wd * in.gN[i] * in.gRate[i] / rem)
	load = in.gRate[i] - q
	switch {
	case load <= 0:
		return 0, 0
	case load >= in.gCap[i]:
		return in.gCap[i], 0
	}
	return load, q / (2 * rem)
}

// bracketTerm is one group's reply to a fill's bracket pass: the prices at
// which it is empty and full, its price floor ω·A, sqrt(Wd·n·R) and R.
type bracketTerm struct {
	empty, full, floor, root, rate float64
}

func (in *Instance) bracketTerm(i int, omega float64) bracketTerm {
	return bracketTerm{
		empty: in.marginal(i, omega, 0),
		full:  in.marginal(i, omega, in.gCap[i]),
		floor: omega * in.gSlope[i],
		root:  math.Sqrt(in.prob.Wd * in.gN[i] * in.gRate[i]),
		rate:  in.gRate[i],
	}
}

// fillBracket folds bracket terms, in ascending group order, into the
// exact price bracket of one water-fill and its starting price.
type fillBracket struct {
	lo, hi float64 // below lo every group is empty; above hi every group is full
	floor  float64 // min ω·A over the groups
	roots  float64 // Σ sqrt(Wd·n·R)
	rates  float64 // Σ R
}

func newFillBracket() fillBracket {
	return fillBracket{lo: math.Inf(1), hi: math.Inf(-1), floor: math.Inf(1)}
}

func (b *fillBracket) add(t bracketTerm) {
	b.lo = math.Min(b.lo, t.empty)
	b.hi = math.Max(b.hi, t.full)
	b.floor = math.Min(b.floor, t.floor)
	b.roots += t.root
	b.rates += t.rate
}

// start is the price at which Σ L = target if every group were interior
// and shared the lowest price floor: Σ (R − sqrt(Wd·n·R/(ν − floor))) =
// target solved for ν. It is exact for groups of one power slope.
func (b *fillBracket) start(target float64) float64 {
	k := b.roots / (b.rates - target)
	return b.floor + k*k
}

// bracket folds every group's bracket term, in ascending group order, into
// the price bracket of one water-fill at electricity weight omega.
func (in *Instance) bracket(omega float64) fillBracket {
	b := newFillBracket()
	for i := range in.gIdx {
		b.add(in.bracketTerm(i, omega))
	}
	return b
}

// sweep writes every group's load at price nu into dst and returns Σ L and
// Σ dL/dν, accumulated in ascending group order.
func (in *Instance) sweep(dst []float64, omega, nu float64) (sum, slope float64) {
	for i := range dst {
		l, dl := in.allocSlope(i, omega, nu)
		dst[i] = l
		sum += l
		slope += dl
	}
	return sum, slope
}

// fillInto water-fills the total load across groups under electricity weight
// omega, writing per-instance-group loads into dst.
func (in *Instance) fillInto(dst []float64, omega float64) ([]float64, error) {
	if in.prob.Wd <= 0 {
		return in.fillNoDelayInto(dst, omega), nil
	}
	return in.waterFill(dst, omega)
}

// fill is the allocating form of fillInto, kept for white-box tests and
// one-shot callers.
func (in *Instance) fill(omega float64) ([]float64, error) {
	return in.fillInto(nil, omega)
}

// waterFill solves Σ_g L_g(ν) = λ for the dual price ν under electricity
// weight omega (Wd > 0) by Newton sweeps, writing the loads into dst
// (grown when short). numopt.NewtonBracket runs on the exact bracket from
// the all-interior start and returns the last price it swept, so dst
// already holds that price's loads; the remaining residual (at most
// fillRelTol·λ unless the bracket collapsed first) is repaired against the
// groups' γ-cap headroom.
func (in *Instance) waterFill(dst []float64, omega float64) ([]float64, error) {
	n := len(in.gIdx)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	in.fills++
	target := in.prob.LambdaRPS
	switch {
	case target == 0:
		clear(dst)
		return dst, nil
	case target >= in.capSum:
		copy(dst, in.gCap)
		return dst, nil
	}
	b := in.bracket(omega)
	in.sweeps++
	var got float64
	numopt.NewtonBracket(func(nu float64) (float64, float64) {
		in.sweeps++
		sum, slope := in.sweep(dst, omega, nu)
		got = sum
		return sum, slope
	}, target, b.lo, b.hi, b.start(target), fillRelTol*target, (b.hi-b.lo)*1e-13, 100)
	resid := target - got
	for pass := 0; pass < 4 && math.Abs(resid) > waterFillTol; pass++ {
		for i := range dst {
			if resid > 0 {
				delta := math.Min(in.gCap[i]-dst[i], resid)
				dst[i] += delta
				resid -= delta
			} else {
				delta := math.Min(dst[i], -resid)
				dst[i] -= delta
				resid += delta
			}
			if math.Abs(resid) <= waterFillTol {
				break
			}
		}
	}
	if math.Abs(resid) > 1e-3 {
		return nil, ErrInfeasible
	}
	return dst, nil
}

// fillNoDelayInto handles the degenerate Wd = 0 case (no delay weight): the
// cost is linear in each load, so fill groups to their caps in ascending
// order of electricity slope. The order is cached per speed configuration
// (see orderCache) instead of re-sorted on every call.
func (in *Instance) fillNoDelayInto(dst []float64, omega float64) []float64 {
	order := in.order.get(in, omega)
	if cap(dst) < len(in.gIdx) {
		dst = make([]float64, len(in.gIdx))
	}
	dst = dst[:len(in.gIdx)]
	for i := range dst {
		dst[i] = 0
	}
	remaining := in.prob.LambdaRPS
	for _, i := range order {
		take := math.Min(remaining, in.gCap[i])
		dst[i] = take
		remaining -= take
		if remaining <= 0 {
			break
		}
	}
	return dst
}

// Water-fill tolerances. A fill's Newton search stops once Σ L is within
// fillRelTol·λ of λ — about 10⁴ ulps of λ, above the rounding of an n-term
// sum at the group counts this repository runs and far below any load
// that matters — and any residual above waterFillTol (RPS) is then
// repaired against the groups' headroom. The kink search stops once total
// power is within kinkRelTol·r of r. It is tighter because a power miss is
// charged at up to We per kW: with a small delay weight, stopping at
// 1e-12·r could still move a kink split's objective by 1e-8 relative.
const (
	fillRelTol   = 1e-12
	waterFillTol = 1e-7
	kinkRelTol   = 1e-13
)

// powerOf returns the facility power of an instance-group load vector.
func (in *Instance) powerOf(loads []float64) float64 {
	p := in.baseKW
	for i := 0; i < len(in.gIdx); i++ {
		p += in.gSlope[i] * loads[i]
	}
	return p
}

// expandInto scatters instance-group loads back to full cluster-group
// indexing, writing into dst.
func (in *Instance) expandInto(dst []float64, loads []float64) []float64 {
	n := len(in.prob.Cluster.Groups)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	for i := range in.gIdx {
		dst[in.gIdx[i]] = loads[i]
	}
	return dst
}

// Solve computes the optimal load distribution for the instance using the
// centralized KKT water-filling solver with regime analysis on the [·]^+
// kink. It allocates a fresh Solution; hot loops use SolveInto.
func (in *Instance) Solve() (dcmodel.Solution, error) {
	var sol dcmodel.Solution
	if err := in.SolveInto(&sol); err != nil {
		return dcmodel.Solution{}, err
	}
	return sol, nil
}

// SolveInto is Solve writing into dst, reusing dst's Speeds/Load backing
// arrays and the instance's internal scratch. After SetSpeed mutations it
// re-checks capacity (the validation NewInstance performs on construction)
// so an infeasible configuration surfaces as ErrInfeasible exactly as a
// fresh build would.
func (in *Instance) SolveInto(dst *dcmodel.Solution) error {
	if in.prob.LambdaRPS > in.capSum*(1+1e-12) {
		return ErrInfeasible
	}
	loads, err := in.solve()
	if err != nil {
		return err
	}
	dst.Speeds = append(dst.Speeds[:0], in.speeds...)
	dst.Load = in.expandInto(dst.Load, loads)
	dst.Value = in.prob.Objective(dst.Speeds, dst.Load)
	return nil
}

// solve runs the regime analysis around the [p−r]⁺ kink. The returned slice
// aliases the instance's scratch buffers; callers consume or copy it before
// the next solve.
func (in *Instance) solve() ([]float64, error) {
	if len(in.gIdx) == 0 {
		if in.prob.LambdaRPS > 0 {
			return nil, ErrInfeasible
		}
		return nil, nil
	}
	r := in.prob.OnsiteKW
	// Regime "grid": electricity weight fully active.
	gridLoads, err := in.fillInto(in.scratch.grid, in.prob.We)
	if err != nil {
		return nil, err
	}
	in.scratch.grid = gridLoads
	pGrid := in.powerOf(gridLoads)
	if in.prob.We == 0 || pGrid >= r-powerTol {
		return gridLoads, nil
	}
	// Regime "surplus": on-site renewables cover everything; electricity
	// weight vanishes under the [·]^+.
	freeLoads, err := in.fillInto(in.scratch.free, 0)
	if err != nil {
		return nil, err
	}
	in.scratch.free = freeLoads
	pFree := in.powerOf(freeLoads)
	if pFree <= r+powerTol {
		return freeLoads, nil
	}
	// Kink regime: the optimum pins total power at r. Total power is
	// non-increasing in the effective weight ω, and the grid and surplus
	// fills are its values at ω = We and ω = 0, so they bracket a false-
	// position search over ω. Every evaluation fills the one kink buffer and
	// the search returns the last weight it evaluated, so the buffer ends
	// holding the returned weight's loads. A failed fill returns r, which
	// ends the search at once.
	numopt.FalsePosition(func(w float64) float64 {
		loads, ferr := in.fillInto(in.scratch.kink, w)
		if ferr != nil {
			err = ferr
			return r
		}
		in.scratch.kink = loads
		return in.powerOf(loads)
	}, r, 0, pFree, in.prob.We, pGrid, kinkRelTol*r, in.prob.We*1e-12, 100)
	if err != nil {
		return nil, err
	}
	return in.scratch.kink, nil
}

const powerTol = 1e-6 // kW: tolerance when comparing power against r(t)

// Solve computes the optimal load split of Eq. (18) for fixed speeds using
// the centralized solver. See Instance for the reusable form.
func Solve(p *dcmodel.SlotProblem, speeds []int) (dcmodel.Solution, error) {
	in, err := NewInstance(p, speeds)
	if err != nil {
		return dcmodel.Solution{}, err
	}
	return in.Solve()
}
