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
// zero weight (renewable-surplus regime), and, when the two disagree, bisect
// the effective weight to pin total power exactly at the on-site supply r(t)
// (the kink).
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

// fillSystem adapts an Instance to numopt.WaterSystem for one electricity
// weight ω without allocating: the instance owns a single fillSystem and
// rewrites omega per fill, and the pointer passed as the interface is the
// already-heap-resident field, so no per-fill boxing occurs. It also
// implements numopt.BulkWaterSystem, so the water-filling inner loops run
// over the instance's flat arrays without a per-item interface call.
type fillSystem struct {
	in    *Instance
	omega float64
}

func (s *fillSystem) Items() int        { return len(s.in.gIdx) }
func (s *fillSystem) Cap(i int) float64 { return s.in.gCap[i] }
func (s *fillSystem) Deriv(i int, v float64) float64 {
	return s.in.marginal(i, s.omega, v)
}
func (s *fillSystem) Alloc(i int, nu float64) float64 {
	return s.in.alloc(i, s.omega, nu)
}

// SumAlloc implements numopt.BulkWaterSystem: Σ_i Alloc(i, ν) accumulated in
// ascending index order — the exact arithmetic of the generic per-item loop.
func (s *fillSystem) SumAlloc(nu float64) float64 {
	in, omega := s.in, s.omega
	var sum float64
	for i := 0; i < len(in.gIdx); i++ {
		sum += in.alloc(i, omega, nu)
	}
	return sum
}

// AllocInto implements numopt.BulkWaterSystem: writes Alloc(i, ν) into out
// and returns the ascending-order sum of the written values.
func (s *fillSystem) AllocInto(out []float64, nu float64) float64 {
	in, omega := s.in, s.omega
	var sum float64
	for i := range out {
		out[i] = in.alloc(i, omega, nu)
		sum += out[i]
	}
	return sum
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
// and surplus fills plus two rotating buffers for the ω-bisection, whose
// last two evaluations double as a memo so the final fill can be reused
// instead of recomputed when the bisection already evaluated the returned ω.
type solveScratch struct {
	grid []float64
	free []float64
	bis  [2][]float64
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
	sys     fillSystem
	order   orderCache
	scratch solveScratch
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
	in.sys.in = in
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

// alloc returns the load at which on group i's marginal cost equals price nu
// under electricity weight omega, clamped to [0, cap].
func (in *Instance) alloc(i int, omega, nu float64) float64 {
	rem := nu - omega*in.gSlope[i]
	if rem <= 0 {
		return 0
	}
	if in.prob.Wd <= 0 {
		// Pure electricity cost: bang-bang (handled by fillNoDelay; this
		// path keeps alloc total so water-filling code stays generic).
		return in.gCap[i]
	}
	// Wd·n·R/(R−L)² = rem  →  L = R − sqrt(Wd·n·R/rem).
	l := in.gRate[i] - math.Sqrt(in.prob.Wd*in.gN[i]*in.gRate[i]/rem)
	return numopt.Clamp(l, 0, in.gCap[i])
}

// filler computes one water-filling for a fixed electricity weight, writing
// per-instance-group loads into dst (implementations may return a different
// slice when dst is short). The centralized Instance and the distributed
// price-protocol coordinator both implement it, so solveWith runs the
// identical regime analysis over either.
type filler interface {
	fillInto(dst []float64, omega float64) ([]float64, error)
}

// fillInto water-fills the total load across groups under electricity weight
// omega, writing per-instance-group loads into dst.
func (in *Instance) fillInto(dst []float64, omega float64) ([]float64, error) {
	if in.prob.Wd <= 0 {
		return in.fillNoDelayInto(dst, omega), nil
	}
	in.sys.omega = omega
	out, err := numopt.WaterFillInto(&in.sys, in.prob.LambdaRPS, waterFillTol, dst)
	if err != nil {
		return nil, ErrInfeasible
	}
	return out, nil
}

// fill is the allocating form of fillInto, kept for white-box tests and
// one-shot callers.
func (in *Instance) fill(omega float64) ([]float64, error) {
	return in.fillInto(nil, omega)
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

const waterFillTol = 1e-7

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
	loads, err := in.solveWith(in)
	if err != nil {
		return err
	}
	dst.Speeds = append(dst.Speeds[:0], in.speeds...)
	dst.Load = in.expandInto(dst.Load, loads)
	dst.Value = in.prob.Objective(dst.Speeds, dst.Load)
	return nil
}

// solveWith runs the regime analysis with a pluggable filler so the
// distributed solver can reuse the identical logic. The returned slice
// aliases the instance's scratch buffers; callers consume or copy it before
// the next solve.
func (in *Instance) solveWith(f filler) ([]float64, error) {
	if len(in.gIdx) == 0 {
		if in.prob.LambdaRPS > 0 {
			return nil, ErrInfeasible
		}
		return nil, nil
	}
	r := in.prob.OnsiteKW
	// Regime "grid": electricity weight fully active.
	gridLoads, err := f.fillInto(in.scratch.grid, in.prob.We)
	if err != nil {
		return nil, err
	}
	in.scratch.grid = gridLoads
	if in.prob.We == 0 || in.powerOf(gridLoads) >= r-powerTol {
		return gridLoads, nil
	}
	// Regime "surplus": on-site renewables cover everything; electricity
	// weight vanishes under the [·]^+.
	freeLoads, err := f.fillInto(in.scratch.free, 0)
	if err != nil {
		return nil, err
	}
	in.scratch.free = freeLoads
	if in.powerOf(freeLoads) <= r+powerTol {
		return freeLoads, nil
	}
	// Kink regime: the optimum pins total power at r. Total power is
	// non-increasing in the effective weight ω, so bisect ω ∈ [0, We].
	// The two rotating scratch buffers remember the last two evaluated
	// (ω, loads) pairs; when the bisection returns an ω it already
	// evaluated (a saturated endpoint or an exact hit), the computed loads
	// are reused instead of re-filled.
	var (
		lastW  [2]float64
		lastOK [2]bool
		cur    int
	)
	omega := numopt.BisectMonotone(func(w float64) float64 {
		loads, ferr := f.fillInto(in.scratch.bis[cur], w)
		if ferr != nil {
			err = ferr
			return 0
		}
		in.scratch.bis[cur] = loads
		lastW[cur], lastOK[cur] = w, true
		cur = 1 - cur
		return in.powerOf(loads)
	}, r, 0, in.prob.We, in.prob.We*1e-12, 100)
	if err != nil {
		return nil, err
	}
	for i := range lastW {
		if lastOK[i] && lastW[i] == omega {
			return in.scratch.bis[i], nil
		}
	}
	loads, err := f.fillInto(in.scratch.bis[cur], omega)
	if err != nil {
		return nil, err
	}
	in.scratch.bis[cur] = loads
	return loads, nil
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
